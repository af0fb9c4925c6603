"""Bit-flip semantics, fault application, and parameter censuses."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seusim.inject import (
    FaultLocation,
    FaultStateError,
    apply_fault,
    census_of_values,
    channel_fault,
    flip_bit,
    partial_exponent_census,
    revert,
    value_range_census,
)
from seusim.compress import fold_batch_norm, quantize_model
from seusim.model import ParamKind, build_unet, synthetic_input
from seusim.modelio import model_digest, serialize_model
from seusim.tensor import Tensor


def f32_bits(v) -> int:
    # raw view, not struct.pack: double conversion would quiet signaling NaNs
    return int(np.asarray(v, dtype=np.float32).reshape(()).view(np.uint32))


def bits_f32(b: int) -> np.float32:
    return np.frombuffer(struct.pack("<I", b), dtype=np.float32)[0]


class TestFlipBit:
    def test_one_point_five_msb_becomes_nan(self):
        v, cls = flip_bit(1.5, "f32", 30)
        assert np.isnan(v)
        assert cls.post_kind == "nan"
        assert cls.field == "exponent" and cls.direction == "zero_to_one"

    def test_one_msb_becomes_inf(self):
        v, cls = flip_bit(1.0, "f32", 30)
        assert v == np.inf and cls.post_kind == "infinite"
        v, cls = flip_bit(-1.0, "f32", 30)
        assert v == -np.inf  # sign preserved

    def test_half_msb_becomes_2_pow_127(self):
        v, cls = flip_bit(0.5, "f32", 30)
        assert v == np.float32(2.0 ** 127) and cls.post_kind == "finite"
        # raw-bit oracle: 0x3F000000 -> 0x7F000000
        assert f32_bits(v) == f32_bits(0.5) ^ (1 << 30)

    def test_i8_sign_bit(self):
        v, cls = flip_bit(1, "i8", 7)
        assert v == -127  # 0x01 -> 0x81 two's complement
        assert cls.field == "sign" and cls.direction == "zero_to_one"

    def test_i32_magnitude_bit(self):
        v, cls = flip_bit(5, "i32", 1)
        assert v == 7 and cls.field == "magnitude"

    def test_bit_out_of_range(self):
        with pytest.raises(ValueError):
            flip_bit(1.0, "f32", 32)
        with pytest.raises(ValueError):
            flip_bit(1, "i8", 8)

    @settings(max_examples=300)
    @given(
        st.one_of(
            st.floats(width=32, allow_nan=True, allow_infinity=True),
            st.floats(-2, 2, width=32),
        ),
        st.integers(0, 31),
    )
    def test_f32_involution_bit_exact(self, v, bit):
        once, _ = flip_bit(v, "f32", bit)
        twice, _ = flip_bit(once, "f32", bit)
        assert f32_bits(twice) == f32_bits(np.float32(v))
        # independent raw-bits oracle for the single flip
        assert f32_bits(once) == f32_bits(np.float32(v)) ^ (1 << bit)

    @given(
        st.integers(0, 1),
        st.integers(1, (1 << 22) - 1),
        st.integers(0, 31),
    )
    def test_signalling_nan_payload_bit_exact(self, sign, payload, bit):
        # quiet bit 22 clear: any trip through a Python float would set it
        snan = (sign << 31) | 0x7F800000 | payload
        once, cls = flip_bit(bits_f32(snan), "f32", bit)
        assert f32_bits(once) == snan ^ (1 << bit)
        assert f32_bits(flip_bit(once, "f32", bit)[0]) == snan
        # and a flip that creates a signalling NaN from a finite value
        finite = snan & ~(1 << 30)
        made, cls = flip_bit(bits_f32(finite), "f32", 30)
        assert f32_bits(made) == snan and cls.post_kind == "nan"

    @given(st.integers(-128, 127), st.integers(0, 7))
    def test_i8_involution(self, v, bit):
        once, _ = flip_bit(v, "i8", bit)
        twice, _ = flip_bit(once, "i8", bit)
        assert int(twice) == v
        assert (int(once) & 0xFF) == (v & 0xFF) ^ (1 << bit)

    @given(st.integers(-(2 ** 31), 2 ** 31 - 1), st.integers(0, 31))
    def test_i32_involution(self, v, bit):
        once, _ = flip_bit(v, "i32", bit)
        twice, _ = flip_bit(once, "i32", bit)
        assert int(twice) == v
        assert (int(once) & 0xFFFFFFFF) == (v & 0xFFFFFFFF) ^ (1 << bit)

    def test_msb_genesis_over_unit_interval_values(self):
        rng = np.random.default_rng(0)
        for v in rng.uniform(2.0 ** -64, 1.0, 200).astype(np.float32):
            out, cls = flip_bit(v, "f32", 30)
            assert np.isfinite(out) and abs(float(out)) >= 2.0 ** 64, v

    def test_msb_genesis_over_one_two_range(self):
        rng = np.random.default_rng(1)
        for v in rng.uniform(1.0, 2.0, 200).astype(np.float32):
            out, cls = flip_bit(v, "f32", 30)
            if f32_bits(v) & 0x7FFFFF:
                assert np.isnan(out), v
            else:
                assert np.isinf(out), v


class TestApplyRevert:
    @pytest.fixture
    def model(self):
        return build_unet(depth=1, base_channels=4, n_input_channels=3, n_classes=6, seed=0)

    def test_apply_then_revert_is_identity(self, model):
        before = model_digest(model)
        loc = FaultLocation(0, ParamKind.ConvWeight, 10, 30)
        handle = apply_fault(model, loc)
        assert model_digest(model) != before
        revert(handle)
        assert model_digest(model) == before

    def test_stacked_faults_restore_in_reverse_order(self, model):
        # three faults on one element, the first and last on one bit, then one on another
        pristine = model.copy()
        locs = [FaultLocation(0, ParamKind.ConvWeight, 0, 0), FaultLocation(0, ParamKind.ConvWeight, 0, 30),
                FaultLocation(0, ParamKind.ConvWeight, 0, 0), FaultLocation(1, ParamKind.BNGamma, 2, 31)]
        handles = [apply_fault(model, loc) for loc in locs]
        assert not model.bit_equal(pristine)
        for h in handles[:2]:  # each skips a later fault on its element
            with pytest.raises(FaultStateError):
                revert(h)
        revert(handles[3])  # another element's fault may go first
        for h in reversed(handles[:3]):
            revert(h)
        assert model.bit_equal(pristine)

    def test_double_revert_rejected(self, model):
        handle = apply_fault(model, FaultLocation(0, ParamKind.ConvWeight, 0, 0))
        revert(handle)
        with pytest.raises(FaultStateError):
            revert(handle)

    def test_exactly_one_element_differs(self, model):
        pristine = build_unet(depth=1, base_channels=4, n_input_channels=3, n_classes=6, seed=0)
        loc = FaultLocation(1, ParamKind.BNGamma, 2, 30)
        apply_fault(model, loc)
        diffs = []
        for a, b in zip(model.nodes, pristine.nodes):
            for kind in a.params:
                neq = a.params[kind].raw_bits() != b.params[kind].raw_bits()
                for idx in np.nonzero(neq)[0]:
                    diffs.append((a.id, kind, int(idx)))
        assert diffs == [(1, ParamKind.BNGamma, 2)]

    def test_invalid_locations(self, model):
        with pytest.raises(ValueError):
            apply_fault(model, FaultLocation(99, ParamKind.ConvWeight, 0, 0))
        with pytest.raises(ValueError):
            apply_fault(model, FaultLocation(0, ParamKind.BNGamma, 0, 0))  # conv has no gamma
        with pytest.raises(ValueError):
            apply_fault(model, FaultLocation(0, ParamKind.ConvWeight, 10 ** 6, 0))
        with pytest.raises(ValueError):
            apply_fault(model, FaultLocation(0, ParamKind.ConvWeight, 0, 32))

    def test_copies_are_independent(self, model):
        view = model.copy()
        handle = apply_fault(view, FaultLocation(0, ParamKind.ConvWeight, 0, 30))
        assert serialize_model(model) != serialize_model(view)
        revert(handle)
        assert serialize_model(model) == serialize_model(view)


_F32_UNET = build_unet(depth=1, base_channels=4, n_input_channels=3, n_classes=6, seed=0)
_INT8_UNET = quantize_model(fold_batch_norm(_F32_UNET), [synthetic_input(_F32_UNET, 8, 8, seed=1)])


class TestChannelFault:
    @pytest.mark.parametrize("model,kind", [
        *[(_F32_UNET, k) for k in ParamKind],
        (_INT8_UNET, ParamKind.ConvWeight), (_INT8_UNET, ParamKind.ConvBias),
    ])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_apply_fault(self, model, kind, data):
        lid, t = data.draw(st.sampled_from([(n.id, n.params[kind]) for n in model.nodes if kind in n.params]))
        loc = FaultLocation(lid, kind, data.draw(st.integers(0, t.size - 1)),
                            data.draw(st.integers(0, t.bit_width - 1)))
        before = serialize_model(model)
        fault = channel_fault(model, loc)
        assert serialize_model(model) == before
        handle = apply_fault(model, loc)
        try:
            assert (fault.pre_bits, fault.post_bits) == (handle.pre_bits, handle.post_bits)
            assert fault.classification == handle.classification
            c = fault.channel
            assert fault.param.bit_equal(Tensor(t.data[c : c + 1], t.dtype, t.quant))
        finally:
            revert(handle)

    def test_invalid_locations(self):
        with pytest.raises(ValueError):
            channel_fault(_F32_UNET, FaultLocation(0, ParamKind.ConvWeight, 0, 32))


class TestValueRangeCensus:
    def test_example_thirds(self):
        c = census_of_values(0, np.asarray([0.5, 1.5, 3.0], dtype=np.float32))
        assert (c.frac_lt1, c.frac_1to2, c.frac_ge2) == pytest.approx((1 / 3, 1 / 3, 1 / 3))
        assert c.frac_zero == 0.0

    def test_all_zero(self):
        c = census_of_values(0, np.zeros(8, dtype=np.float32))
        assert c.frac_lt1 == 1.0 and c.frac_zero == 1.0

    def test_fractions_sum_to_one(self):
        model = build_unet(depth=1, base_channels=4, n_input_channels=3, n_classes=6, seed=0)
        for c in value_range_census(model).values():
            assert c.frac_lt1 + c.frac_1to2 + c.frac_ge2 == pytest.approx(1.0)

    def test_generated_model_concentrates_below_two(self):
        model = build_unet(depth=2, base_channels=4, n_input_channels=3, n_classes=6, seed=0)
        census = value_range_census(model)
        total = sum(c.count for c in census.values())
        below = sum((c.frac_lt1 + c.frac_1to2) * c.count for c in census.values())
        assert below / total >= 0.999

    @given(st.lists(st.floats(-4, 4, width=32), min_size=1, max_size=30),
           st.lists(st.floats(-4, 4, width=32), min_size=1, max_size=30))
    def test_concatenation_weighted_average_law(self, a, b):
        a = np.asarray(a, dtype=np.float32)
        b = np.asarray(b, dtype=np.float32)
        ca, cb = census_of_values(0, a), census_of_values(0, b)
        cab = census_of_values(0, np.concatenate([a, b]))
        wa, wb = a.size / (a.size + b.size), b.size / (a.size + b.size)
        assert cab.frac_lt1 == pytest.approx(wa * ca.frac_lt1 + wb * cb.frac_lt1)
        assert cab.frac_ge2 == pytest.approx(wa * ca.frac_ge2 + wb * cb.frac_ge2)


class TestPartialExponentCensus:
    @staticmethod
    def make(values):
        from seusim.model import LayerNode, ModelGraph, validate_model

        v = np.asarray(values, dtype=np.float32).reshape(1, -1, 1, 1)
        node = LayerNode(
            id=0, kind="conv",
            params={ParamKind.ConvWeight: Tensor(v, "f32"),
                    ParamKind.ConvBias: Tensor(np.asarray(values, dtype=np.float32)[:1], "f32")},
            inputs=[],
        )
        g = ModelGraph([node], n_classes=1, n_input_channels=v.shape[1])
        validate_model(g)
        return g

    def test_half_counts_in_both_fractions_at_bit_23(self):
        # 0.5 has exponent 0111_1110: zero at bit 23, exactly one zero in 29..23
        g = self.make([0.5, 0.5, 0.5])
        c = partial_exponent_census(g, 23)[0]
        # the conv bias element (also 0.5) counts too
        assert c.frac_zero_at_bit == 1.0
        assert c.frac_one_flip_from_filled == 1.0

    def test_one_is_never_counted(self):
        # 1.0 has exponent 0111_1111: no zeros in the partial exponent
        g = self.make([1.0, 1.0])
        for bit in range(23, 30):
            c = partial_exponent_census(g, bit)[0]
            assert c.frac_zero_at_bit == 0.0
            assert c.frac_one_flip_from_filled == 0.0

    def test_mixed_population_at_bit_26(self):
        # 2**-8: exponent 0111_0111, single partial-exponent zero at bit 26
        # 2**-32: exponent 0101_1111, single zero but at bit 28, so it only
        # counts toward bit-28 statistics
        vals = [2.0 ** -8, 2.0 ** -8, 1.0, 2.0 ** -32]
        g = self.make(vals)
        c = partial_exponent_census(g, 26)[0]
        zero_at_26 = 3 / 5  # the two 2**-8 weights plus the bias copy
        assert c.frac_zero_at_bit == pytest.approx(zero_at_26)
        assert c.frac_one_flip_from_filled == 1.0
        c28 = partial_exponent_census(g, 28)[0]
        assert c28.frac_zero_at_bit == pytest.approx(1 / 5)
        assert c28.frac_one_flip_from_filled == 1.0

    def test_bit_out_of_range(self):
        g = self.make([0.5])
        with pytest.raises(ValueError):
            partial_exponent_census(g, 22)
        with pytest.raises(ValueError):
            partial_exponent_census(g, 30)

    def test_flip_at_counted_bit_lands_in_one_two_range(self):
        # the census predicate is exactly "one flip lifts |x| into [1,2)"
        g = self.make([0.5])
        c = partial_exponent_census(g, 23)[0]
        assert c.frac_one_flip_from_filled == 1.0
        flipped, _ = flip_bit(0.5, "f32", 23)
        assert 1.0 <= abs(float(flipped)) < 2.0
