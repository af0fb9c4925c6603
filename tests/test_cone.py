"""Differential tests: the cone-only faulted forward against the full one.

`faulted_logits`, `faulted_classes` and `faulted_changed_pixels` take a
fault built as a value on the clean model and recompute only the faulted
channel and its descendants; their logits must equal `run_model`'s on the
model with the fault applied in place, bit for bit, their class map
`predict_classes`', and their count of changed pixels the mismatch
against the golden class map.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seusim.tensor
from seusim.campaign import pixel_mismatch_rate
from seusim.compress import fold_batch_norm, quantize_model
from seusim.inject import FaultLocation, apply_fault, channel_fault, revert
from seusim.model import (
    ALL_PARAM_KINDS,
    ParamKind,
    _next_below,
    build_bias_probe_model,
    build_unet,
    faulted_changed_pixels,
    faulted_classes,
    faulted_logits,
    golden_trace,
    predict_classes,
    run_model,
    synthetic_input,
)
from seusim.tensor import QuantParams, Tensor, conv2d, conv2d_finish, conv2d_sums
from tests.test_model import single_conv_model


def _unet(act):
    return build_unet(depth=1, base_channels=4, n_input_channels=3, n_classes=5,
                      activation_kind=act, seed=3)


def _build():
    out = {}
    for act in ("relu", "hard_sigmoid", "sigmoid"):
        g = _unet(act)
        out[act] = (g, synthetic_input(g, 8, 8, seed=4))
    for act in ("relu", "hard_sigmoid"):
        g = fold_batch_norm(_unet(act))
        x = synthetic_input(g, 8, 8, seed=5)
        out["int8" if act == "relu" else "int8_hard_sigmoid"] = (quantize_model(g, [x]), x)
    # +-1 and +-1.5 become +-Inf and NaN at bit 30
    out["bias_probe"] = build_bias_probe_model([1.0, -1.5, 0.25, -1.0], [0.1, 0.4, 0.3, 0.2], seed=2,
                                               image_hw=(8, 8))
    # classes 1 and 2 tie on every pixel, so most faults there keep or break a tie
    g = single_conv_model(out_ch=3, in_ch=1, weights=np.array([0.5, 1.0, 1.0]).reshape(3, 1, 1, 1))
    out["ties"] = (g, Tensor(np.random.default_rng(6).normal(size=(1, 8, 8)).astype(np.float32), "f32"))
    return {name: (g, x, golden_trace(g, x)) for name, (g, x) in out.items()}


MODELS = _build()


def check_location(g, x, golden, loc):
    """Compare the cone forward of `loc` as a value with the full forward
    of `g` with `loc` applied in place, then revert.

    Returns whether the logits held a non-finite value."""
    fault = channel_fault(g, loc)
    cone = faulted_logits(g, golden, fault)
    classes = faulted_classes(g, golden, fault)
    changed = faulted_changed_pixels(g, golden, fault)
    handle = apply_fault(g, loc)
    try:
        full = run_model(g, x)
        assert cone.dtype == full.dtype and cone.quant == full.quant
        assert np.array_equal(cone.raw_bits(), full.raw_bits()), loc
        faulty = predict_classes(g, x)
        assert np.array_equal(classes, faulty), loc
        assert changed == np.count_nonzero(faulty != golden.classes), loc
        assert changed / golden.classes.size == pixel_mismatch_rate(golden.classes, faulty), loc
        return full.dtype == "f32" and not np.isfinite(full.data).all()
    finally:
        revert(handle)


def locations(g, kinds=ALL_PARAM_KINDS):
    return [(n.id, k, t) for n in g.nodes for k, t in n.params.items() if k in kinds]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_random_faults_match_full_forward(data):
    name = data.draw(st.sampled_from(sorted(MODELS)))
    g, x, golden = MODELS[name]
    lid, kind, t = data.draw(st.sampled_from(locations(g)))
    index = data.draw(st.integers(0, t.size - 1))
    bit = data.draw(st.integers(0, t.bit_width - 1))
    check_location(g, x, golden, FaultLocation(lid, kind, index, bit))


@pytest.mark.parametrize("name", ["relu", "hard_sigmoid", "sigmoid"])
def test_exponent_msb_and_sign_flips_of_every_kind(name):
    # bit 30 turns most parameters into huge values, Inf or NaN downstream
    g, x, golden = MODELS[name]
    pristine = g.copy()
    seen_kinds, non_finite = set(), 0
    for lid, kind, t in locations(g):
        for index in {0, t.size // 2, t.size - 1}:
            for bit in (30, 31):
                non_finite += check_location(g, x, golden, FaultLocation(lid, kind, index, bit))
        seen_kinds.add(kind)
    assert seen_kinds == ALL_PARAM_KINDS
    assert non_finite > 0
    assert g.bit_equal(pristine)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_every_output_layer_parameter_bit(name):
    # faults in the output conv are scored against the golden per-class planes;
    # a bias fault there finishes the golden sums instead of running the conv
    g, x, golden = MODELS[name]
    last = g.nodes[-1]
    for kind, t in last.params.items():
        for index in range(0, t.size, 1 if kind is ParamKind.ConvBias else 3):
            for bit in range(t.bit_width):
                check_location(g, x, golden, FaultLocation(last.id, kind, index, bit))


def test_all_minus_inf_pixel_falls_back_to_full_ranking():
    # class 0 is NaN everywhere and class 1 overflows to -inf where x < 0;
    # bit 30 turns class 2's weight 1.0 into +inf, so pixels with x < 0 end
    # up all -inf or NaN, where class 1 (the lowest non-NaN class) must win
    w = np.array([np.nan, 1e30, 1.0], dtype=np.float32).reshape(3, 1, 1, 1)
    g = single_conv_model(out_ch=3, in_ch=1, weights=w)
    x = Tensor(np.array([[[-1e30, 1.0], [-2.0, 0.5]]], dtype=np.float32), "f32")
    golden = golden_trace(g, x)
    np.testing.assert_array_equal(golden.classes, [[2, 1], [2, 1]])
    loc = FaultLocation(0, ParamKind.ConvWeight, 2, 30)
    check_location(g, x, golden, loc)
    classes = faulted_classes(g, golden, channel_fault(g, loc))
    np.testing.assert_array_equal(classes, [[1, 2], [1, 2]])


def test_all_minus_inf_pixel_after_bias_flip_falls_back_to_full_ranking():
    # class 0 is NaN everywhere and class 1 overflows to -inf where x < 0;
    # bit 30 turns class 2's bias -1.0 into -inf, so pixels with x < 0 end
    # up all -inf or NaN, where class 1 (the lowest non-NaN class) must win
    w = np.array([np.nan, 1e30, 1.0], dtype=np.float32).reshape(3, 1, 1, 1)
    g = single_conv_model(out_ch=3, in_ch=1, weights=w, biases=[0.0, 0.0, -1.0])
    x = Tensor(np.array([[[-1e30, 1.0], [-2e30, 0.5]]], dtype=np.float32), "f32")
    golden = golden_trace(g, x)
    np.testing.assert_array_equal(golden.classes, [[2, 1], [2, 1]])
    loc = FaultLocation(0, ParamKind.ConvBias, 2, 30)
    check_location(g, x, golden, loc)
    classes = faulted_classes(g, golden, channel_fault(g, loc))
    np.testing.assert_array_equal(classes, [[1, 1], [1, 1]])


def test_one_class_model():
    g = single_conv_model(out_ch=1, in_ch=2, weights=np.full((1, 2, 1, 1), 0.5))
    x = synthetic_input(g, 4, 4, seed=0)
    golden = golden_trace(g, x)
    assert np.isneginf(golden.rival).all() and golden.was_top.all()  # no other class to beat
    for kind, t in g.nodes[0].params.items():
        for bit in range(32):
            check_location(g, x, golden, FaultLocation(0, kind, t.size - 1, bit))


def _readme_model(name):
    """The README U-Net at 32x32 (relu, hard_sigmoid, or relu folded and
    quantized to int8), or a 32x32 bias probe, and its input."""
    if name == "bias_probe":
        return build_bias_probe_model([0.3, -1.0, 1.5, -0.2, 1.0, -1.5], [0.0, 0.45, 0.05, 0.27, 0.07, 0.16],
                                      seed=3, image_hw=(32, 32))
    g = build_unet(depth=2, base_channels=8, n_input_channels=3, n_classes=6,
                   activation_kind="hard_sigmoid" if name == "hard_sigmoid" else "relu", seed=0)
    x = synthetic_input(g, 32, 32, seed=1)
    if name == "int8":
        g = quantize_model(fold_batch_norm(g), [x, synthetic_input(g, 32, 32, seed=2)])
    return g, x


@pytest.mark.parametrize("name", ["relu", "hard_sigmoid", "int8", "bias_probe"])
def test_output_layer_count_matches_full_forward_on_readme_models(name):
    # every (class, bit) of the head bias and 48 seeded (weight, bit) draws
    g, x = _readme_model(name)
    golden = golden_trace(g, x)
    head = g.nodes[-1]
    bias, weight = head.params[ParamKind.ConvBias], head.params[ParamKind.ConvWeight]
    locs = [FaultLocation(head.id, ParamKind.ConvBias, c, b) for c in range(bias.size) for b in range(bias.bit_width)]
    rng = np.random.default_rng(9)
    locs += [FaultLocation(head.id, ParamKind.ConvWeight, int(i), int(b))
             for i, b in zip(rng.integers(0, weight.size, 48), rng.integers(0, weight.bit_width, 48))]
    changed = 0
    for loc in locs:
        check_location(g, x, golden, loc)
        changed += faulted_changed_pixels(g, golden, channel_fault(g, loc)) > 0
    assert changed > 0


@pytest.mark.parametrize("kind", [ParamKind.ConvWeight, ParamKind.ConvBias])
def test_minus_inf_class_keeps_its_pixels_over_nan(kind):
    # class 0 is NaN everywhere; bit 30 turns class 1's weight 1.0 into +inf,
    # or its bias -1.0 into -inf, so class 1 is -inf where x < 0, or
    # everywhere: -inf still ranks above NaN, so class 1 keeps every pixel
    g = single_conv_model(out_ch=2, in_ch=1, weights=np.array([np.nan, 1.0]).reshape(2, 1, 1, 1),
                          biases=[0.0, -1.0])
    x = Tensor(np.array([[[-2.0, 3.0]]], dtype=np.float32), "f32")
    golden = golden_trace(g, x)
    np.testing.assert_array_equal(golden.classes, [[1, 1]])
    loc = FaultLocation(0, kind, 1, 30)
    check_location(g, x, golden, loc)
    assert np.isneginf(faulted_logits(g, golden, channel_fault(g, loc)).data[1, 0, 0])
    assert faulted_changed_pixels(g, golden, channel_fault(g, loc)) == 0


def test_nan_class_takes_an_all_minus_inf_pixel():
    # class 0's NaN bias makes it NaN everywhere, and class 1 is -inf where
    # x < 0, so that pixel's golden class is 1 (NaN ranks below -inf) though
    # both keys rank as -inf; bit 30 turns the NaN bias into 1.5, which takes it
    g = single_conv_model(out_ch=2, in_ch=1, weights=np.array([0.0, 1e30]).reshape(2, 1, 1, 1),
                          biases=[np.nan, 0.0])
    x = Tensor(np.array([[[-1e30, 1.0]]], dtype=np.float32), "f32")
    golden = golden_trace(g, x)
    np.testing.assert_array_equal(golden.classes, [[1, 1]])
    loc = FaultLocation(0, ParamKind.ConvBias, 0, 30)
    check_location(g, x, golden, loc)
    assert faulted_changed_pixels(g, golden, channel_fault(g, loc)) == 1


def test_next_below_is_nextafter():
    special = np.array([0.0, -0.0, np.inf, -np.inf, 1.0, -1.0, 1e-45, -1e-45, 1.2e-38, -1.2e-38,
                        3.4028235e38, -3.4028235e38], dtype=np.float32)
    noise = np.random.default_rng(7).integers(-(2**31), 2**31, 10**5).astype(np.int32).view(np.float32)
    for key in (special, noise[~np.isnan(noise)]):
        with np.errstate(over="ignore"):  # -FLT_MAX steps to -inf
            expected = np.nextafter(key, np.float32(-np.inf))
        np.testing.assert_array_equal(_next_below(key).view(np.int32), expected.view(np.int32))


def _bits(a):
    return None if a is None else (a.dtype, a.shape, a.tobytes())


def test_golden_trace_is_not_mutated():
    # the kept output-conv sums too, which an output bias fault finishes, and
    # on int8 the kept lookup tables and conv operands, which faulted forwards read
    for name in ("relu", "int8", "int8_hard_sigmoid"):
        g, x, golden = MODELS[name]
        before = {i: t.data.copy() for i, t in golden.produced.items()}
        sums = golden.sums.copy()
        tables = {i: [_bits(t) for t in (v if isinstance(v, tuple) else (v,))] for i, v in golden.tables.items()}
        operands = {i: _bits(a) for i, a in golden.operands.items()}
        last = g.nodes[-1].id
        locs = [FaultLocation(0, ParamKind.ConvBias, 1, 30), FaultLocation(last, ParamKind.ConvBias, 1, 30),
                FaultLocation(last, ParamKind.ConvBias, 2, 31)]
        locs += [FaultLocation(n.id, ParamKind.ConvWeight, 5, 7) for n in g.nodes if n.kind == "conv"]
        for loc in locs:
            check_location(g, x, golden, loc)
        assert all(np.array_equal(before[i].view(np.uint8), t.data.view(np.uint8))
                   for i, t in golden.produced.items())
        assert sums.dtype == golden.sums.dtype and np.array_equal(sums.view(np.uint8), golden.sums.view(np.uint8))
        assert tables == {i: [_bits(t) for t in (v if isinstance(v, tuple) else (v,))]
                          for i, v in golden.tables.items()}
        assert operands == {i: _bits(a) for i, a in golden.operands.items()}
        assert bool(tables) == bool(operands) == (name != "relu")


@pytest.mark.parametrize("name", ["int8", "int8_hard_sigmoid"])
def test_faulted_forwards_build_no_lookup_table(name, monkeypatch):
    # the golden trace keeps one table per activation and one per concat
    # input whose quant differs from the target; a faulted forward reuses them
    g, x, golden = MODELS[name]
    assert {n.id for n in g.nodes if n.kind in ("activation", "concat")} == set(golden.tables)
    assert any(t is not None for n in g.nodes if n.kind == "concat" for t in golden.tables[n.id])
    assert {n.id for n in g.nodes if n.kind == "conv"} == set(golden.operands)
    rng = np.random.default_rng(8)
    locs = [FaultLocation(lid, kind, int(rng.integers(t.size)), int(rng.integers(t.bit_width)))
            for lid, kind, t in locations(g) for _ in range(3)]

    def refuse(*args):
        raise AssertionError("a faulted forward built a lookup table")

    monkeypatch.setattr(seusim.tensor, "activation_lut", refuse)
    monkeypatch.setattr(seusim.tensor, "requantize_lut", refuse)
    cone = [faulted_logits(g, golden, channel_fault(g, loc)) for loc in locs]
    monkeypatch.undo()
    for loc, logits in zip(locs, cone):
        handle = apply_fault(g, loc)
        try:
            assert logits.raw_bits().tobytes() == run_model(g, x).raw_bits().tobytes(), loc
        finally:
            revert(handle)


def _flip_element(values, index, bit, raw):
    out = values.copy()
    out.view(raw)[index] ^= raw(1 << bit)
    return out


@pytest.mark.parametrize("dtype", ["f32", "i8"])
def test_conv2d_is_finish_of_kept_sums_per_channel(dtype):
    # each channel of conv2d with a faulted bias, finished from the clean
    # sums, which stay as they were: bit 30 turns f32 biases 1.0, 1.5, -1.0
    # into +Inf, NaN, -Inf (+Inf plus the sums' -Inf is NaN too); bit 31
    # turns int32 bias -5 into 2**31 - 5, which wraps once the sums pass 4
    rng = np.random.default_rng(12)
    if dtype == "f32":
        xv = rng.normal(size=(1, 2, 5, 5)).astype(np.float32)
        xv[0, 0, 1, 1] = -np.inf
        x = Tensor(xv, "f32")
        w = Tensor(np.abs(rng.normal(size=(3, 2, 3, 3))).astype(np.float32) + 0.1, "f32")
        b = Tensor(_flip_element(np.array([1.0, 1.5, -1.0], dtype=np.float32), slice(None), 30, np.uint32), "f32")
        out_quant = None
    else:
        x = Tensor(rng.integers(0, 128, (1, 2, 5, 5)).astype(np.int8), "i8", QuantParams(0.05, -3))
        w = Tensor(rng.integers(1, 128, (3, 2, 3, 3)).astype(np.int8), "i8", QuantParams(0.02))
        clean = np.array([-5, 7, -(2**31)], dtype=np.int32)
        b = Tensor(_flip_element(clean, slice(None), 31, np.uint32), "i32", QuantParams(0.001))
        out_quant = QuantParams(2.0**24 * 0.001, 0)  # int8 output: the top byte of the int32 sum
    full = conv2d(x, w, b, padding=1, out_quant=out_quant)
    sums = conv2d_sums(x, w, padding=1)
    kept = sums.copy()
    for c in range(3):
        one = conv2d_finish(sums[:, c : c + 1], x, w, Tensor(b.data[c : c + 1], b.dtype, b.quant), out_quant)
        assert one.dtype == full.dtype and one.quant == full.quant
        np.testing.assert_array_equal(one.raw_bits(), Tensor(full.data[:, c : c + 1], full.dtype, full.quant).raw_bits())
    np.testing.assert_array_equal(sums.view(np.uint8), kept.view(np.uint8))
    if dtype == "f32":
        assert np.isposinf(full.data[0, 0]).any() and np.isneginf(full.data[0, 2]).all()
        assert np.isnan(full.data[0, 1]).all() and np.isnan(full.data[0, 0]).any()
    else:
        wide = sums[0, 0].astype(np.int64) + int(b.data[0])
        assert (wide > np.iinfo(np.int32).max).any()  # the sum wrapped
        assert (full.data[0, 0] < 0).any()


@pytest.mark.parametrize("act", ["relu", "hard_sigmoid"])
def test_blas_convs_are_the_ordered_convs_on_the_readme_unet(act, monkeypatch):
    # at 64x64 the 48->16 and 24->8 convs (4 and 5) pass the BLAS gate; every
    # conv2d of a golden forward, of a faulted forward and cone with bit 30 of
    # a conv 4 weight flipped, and of a forward of an input holding a NaN must
    # equal conv2d_finish of conv2d_sums bit for bit
    import seusim.model

    g = build_unet(depth=2, base_channels=8, n_input_channels=3, n_classes=6, activation_kind=act, seed=0)
    x = synthetic_input(g, 64, 64, seed=1)
    columns, redone, gathered = [], [], []  # per BLAS conv its output columns, and those redone in order

    def checked_conv2d(x, weight, bias, stride=1, padding=0, out_quant=None):
        out = conv2d(x, weight, bias, stride, padding, out_quant)
        ordered = conv2d_finish(conv2d_sums(x, weight, stride, padding), x, weight, bias, out_quant)
        assert out.bit_equal(ordered)
        return out

    def counted_blas(x, w, b, stride, padding):
        del gathered[:]
        out = blas(x, w, b, stride, padding)
        columns.append(out.shape[2] * out.shape[3])
        redone.append(sum(gathered))
        return out

    def counted_ordered_sums(w2d, cols, out):
        gathered.append(cols.shape[1])
        return ordered_sums(w2d, cols, out)

    blas, ordered_sums = seusim.tensor._conv_f32, seusim.tensor._ordered_sums
    monkeypatch.setattr(seusim.model, "conv2d", checked_conv2d)
    monkeypatch.setattr(seusim.tensor, "_conv_f32", counted_blas)
    monkeypatch.setattr(seusim.tensor, "_ordered_sums", counted_ordered_sums)

    golden = golden_trace(g, x)
    # at most 1% of the output columns, so of the outputs, are left to the ordered path
    assert len(columns) >= 2 and sum(redone) <= 0.01 * sum(columns), redone

    conv4 = [n for n in g.nodes if n.kind == "conv"][3]
    loc = FaultLocation(conv4.id, ParamKind.ConvWeight, 5, 30)
    del columns[:]
    faulted_logits(g, golden, channel_fault(g, loc))
    handle = apply_fault(g, loc)
    try:
        faulty = run_model(g, x)
    finally:
        revert(handle)
    assert len(columns) >= 3 and not np.array_equal(faulty.data, golden.produced[g.nodes[-1].id].data[0])

    xv = x.data.copy()
    xv[1, 20, 33] = np.nan
    del columns[:]
    assert np.isnan(run_model(g, Tensor(xv, "f32")).data).any() and len(columns) >= 2
