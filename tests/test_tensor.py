"""Kernel tests against naive nested-loop oracles."""

import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import seusim.tensor
from seusim.tensor import (
    _GEMM_MACS,
    _IM2COL_BLOCK,
    _conv_f32,
    _conv_int,
    ACTIVATION_KINDS,
    INT_CONV_MAX_TAPS,
    QuantParams,
    Tensor,
    activation,
    activation_lut,
    argmax_classes,
    batch_norm,
    choose_affine_params,
    concat_channels,
    conv2d,
    conv2d_finish,
    conv2d_operand,
    conv2d_sums,
    dequantize,
    max_pool2,
    quantize_affine,
    requantize_lut,
    upsample2,
)


def t32(values):
    return Tensor(np.asarray(values, dtype=np.float32), "f32")


def conv2d_reference(x, w, b, stride, padding):
    """Nested-loop convolution in float64; the independent oracle."""
    n, cin, h, wd = x.shape
    oc, _, kh, kw = w.shape
    xp = np.zeros((n, cin, h + 2 * padding, wd + 2 * padding))
    xp[:, :, padding : padding + h, padding : padding + wd] = x
    oh = (xp.shape[2] - kh) // stride + 1
    ow = (xp.shape[3] - kw) // stride + 1
    out = np.zeros((n, oc, oh, ow))
    for ni in range(n):
        for o in range(oc):
            for i in range(oh):
                for j in range(ow):
                    acc = float(b[o])
                    for c in range(cin):
                        for u in range(kh):
                            for v in range(kw):
                                acc += float(xp[ni, c, i * stride + u, j * stride + v]) * float(w[o, c, u, v])
                    out[ni, o, i, j] = acc
    return out


def conv2d_f32_oracle(x, w, b, stride, padding):
    """The pinned float summation order, vectorised over output pixels only.

    Each output starts from a float64 0.0, adds x*w over c, then i, then j,
    then the bias, and is rounded once to float32.
    """
    n, cin, h, wd = x.shape
    oc, _, kh, kw = w.shape
    xp = np.zeros((n, cin, h + 2 * padding, wd + 2 * padding))
    xp[:, :, padding : padding + h, padding : padding + wd] = x
    oh = (xp.shape[2] - kh) // stride + 1
    ow = (xp.shape[3] - kw) // stride + 1
    acc = np.zeros((n, oc, oh, ow))
    with np.errstate(all="ignore"):
        for o in range(oc):
            for c in range(cin):
                for u in range(kh):
                    for v in range(kw):
                        win = xp[:, c, u : u + stride * (oh - 1) + 1 : stride, v : v + stride * (ow - 1) + 1 : stride]
                        acc[:, o] += win * float(w[o, c, u, v])
            acc[:, o] += float(b[o])
        return acc.astype(np.float32)


def conv2d_int_oracle(x, zero_point, w, b, stride, padding):
    """Integer conv sums in int64, looping over (c, i, j), vectorised over
    filters and output pixels; the bias add then wraps as int32 does."""
    n, cin, h, wd = x.shape
    oc, _, kh, kw = w.shape
    xp = np.zeros((n, cin, h + 2 * padding, wd + 2 * padding), dtype=np.int64)
    xp[:, :, padding : padding + h, padding : padding + wd] = x.astype(np.int64) - zero_point
    oh = (xp.shape[2] - kh) // stride + 1
    ow = (xp.shape[3] - kw) // stride + 1
    acc = np.zeros((n, oc, oh, ow), dtype=np.int64)
    for c in range(cin):
        for u in range(kh):
            for v in range(kw):
                win = xp[:, c, u : u + stride * (oh - 1) + 1 : stride, v : v + stride * (ow - 1) + 1 : stride]
                acc += win[:, None] * w[:, c, u, v].astype(np.int64)[None, :, None, None]
    acc += b.astype(np.int64)[None, :, None, None]
    return ((acc + 2**31) % 2**32 - 2**31).astype(np.int32)


def assert_int_conv_matches_oracle(x, zero_point, w, b, stride, padding):
    """The int32 pre-bias sums of the full conv and of each one-filter slice
    against the int64 oracle, and the requantized conv.  Its multiplier is
    2**-24, so the int8 output is the top byte of the int32 sum plus bias and
    shows a wrap."""
    acc = conv2d_int_oracle(x, zero_point, w, b, stride, padding)
    sums = conv2d_int_oracle(x, zero_point, w, np.zeros_like(b), stride, padding)
    np.testing.assert_array_equal(_conv_int(x, zero_point, w, stride, padding), sums)
    for o in range(w.shape[0]):
        one = _conv_int(x, zero_point, w[o : o + 1], stride, padding)
        np.testing.assert_array_equal(one[:, 0], sums[:, o])
    out = conv2d(
        Tensor(x, "i8", QuantParams(1.0, zero_point)), Tensor(w, "i8", QuantParams(2.0**-12)),
        Tensor(b, "i32", QuantParams(2.0**-12)), stride=stride, padding=padding, out_quant=QuantParams(2.0**12, 0),
    )
    np.testing.assert_array_equal(out.data, np.clip(np.round(acc * 2.0**-24), -128, 127).astype(np.int8))


def max_pool2_reduction(v):
    """2x2 max pooling as a reduction over a reshaped view; the oracle."""
    n, c, h, w = v.shape
    return v.reshape(n, c, h // 2, 2, w // 2, 2).max(axis=(3, 5))


def assert_same_bits(a, b):
    assert a.dtype == b.dtype == np.float32 and a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.uint32), b.view(np.uint32))


# output spans several im2col blocks: c*kh*kw * oh*ow = 144 * 22 * 22 > _IM2COL_BLOCK
MULTI_BLOCK = dict(x_shape=(1, 16, 22, 22), w_shape=(2, 16, 3, 3), stride=1, padding=1)

# int8 codes and int32 biases over their full ranges, the extremes drawn often
INT8_CODES = st.one_of(st.sampled_from([-128, 127]), st.integers(-128, 127))
INT32_BIASES = st.one_of(st.sampled_from([-(2**31), 2**31 - 1]), st.integers(-(2**31), 2**31 - 1))

# f32 values including ones whose sums overflow float32 and the infinities;
# NaN inputs are left out because NaN payloads depend on operand order
F32_VALUES = st.one_of(
    st.floats(-4, 4, width=32),
    st.floats(width=32, allow_nan=False),
    st.sampled_from([0.0, -0.0, 3e38, -3e38]),
)


class TestConv2d:
    def test_scalar_case(self):
        out = conv2d(t32([[[[2.0]]]]), t32([[[[3.0]]]]), t32([1.0]))
        assert out.data.item() == pytest.approx(7.0)

    def test_zero_weight_gives_bias_map(self):
        x = t32(np.random.default_rng(0).normal(size=(1, 2, 4, 4)))
        out = conv2d(x, t32(np.zeros((3, 2, 1, 1))), t32([0.5, -1.0, 2.0]))
        for c, b in enumerate([0.5, -1.0, 2.0]):
            assert np.all(out.data[0, c] == np.float32(b))

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1)])
    def test_matches_loop_oracle(self, stride, padding):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(1, 2, 5, 5)).astype(np.float32)
        w = rng.normal(size=(3, 2, 3, 3)).astype(np.float32)
        b = rng.normal(size=3).astype(np.float32)
        out = conv2d(t32(x), t32(w), t32(b), stride=stride, padding=padding)
        ref = conv2d_reference(x, w, b, stride, padding)
        np.testing.assert_allclose(out.data, ref, rtol=1e-6, atol=1e-6)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 3), st.integers(1, 3), st.integers(1, 7), st.integers(1, 7),
        st.sampled_from([1, 3]), st.sampled_from([1, 2]), st.sampled_from([0, 1]), st.data(),
    )
    def test_bit_exact_against_summation_order(self, cin, cout, h, w, k, stride, padding, data):
        if h + 2 * padding < k or w + 2 * padding < k:
            return
        x = data.draw(arrays(np.float32, (1, cin, h, w), elements=F32_VALUES))
        wt = data.draw(arrays(np.float32, (cout, cin, k, k), elements=F32_VALUES))
        b = data.draw(arrays(np.float32, (cout,), elements=F32_VALUES))
        out = conv2d(t32(x), t32(wt), t32(b), stride=stride, padding=padding)
        assert_same_bits(out.data, conv2d_f32_oracle(x, wt, b, stride, padding))

    def test_bit_exact_across_im2col_blocks(self):
        rng = np.random.default_rng(17)
        c = MULTI_BLOCK
        x = (rng.normal(size=c["x_shape"]) * 10.0 ** rng.integers(-6, 7, c["x_shape"])).astype(np.float32)
        w = (rng.normal(size=c["w_shape"]) * 10.0 ** rng.integers(-6, 7, c["w_shape"])).astype(np.float32)
        b = rng.normal(size=c["w_shape"][0]).astype(np.float32)
        out = conv2d(t32(x), t32(w), t32(b), stride=c["stride"], padding=c["padding"])
        _, cin, kh, kw = w.shape
        assert cin * kh * kw * out.shape[2] * out.shape[3] > _IM2COL_BLOCK
        assert_same_bits(out.data, conv2d_f32_oracle(x, w, b, c["stride"], c["padding"]))

    @pytest.mark.parametrize("values", [[1e20, 1.0, -1e20], [1.0, 1e20, -1e20]], ids=["big_first", "one_first"])
    @pytest.mark.parametrize(
        "kernel,positions",
        [
            ((3, 1, 1), (0, 1, 2)),  # across c
            ((1, 3, 1), (0, 1, 2)),  # across i
            ((1, 1, 3), (0, 1, 2)),  # across j
            ((2, 2, 2), (0, 3, 4)),  # c0i0j0, c0i1j1, c1i0j0: only row-major puts them in this order
            ((16, 1, 1), (0, 1, 8)),  # long reduction: no lane-split partial sums
        ],
        ids=["c", "i", "j", "row_major", "long"],
    )
    def test_cancellation_probe_pins_order(self, values, kernel, positions):
        # in f64, 1e20 + 1 == 1e20: summed in row-major order the probe gives 0,
        # any order that pairs 1e20 with -1e20 first gives 1
        w = np.zeros(kernel, dtype=np.float32)
        w.reshape(-1)[list(positions)] = values
        x = np.ones((1, kernel[0], kernel[1], kernel[2]), dtype=np.float32)
        out = conv2d(t32(x), t32(w[None]), t32([0.0]))
        assert out.shape == (1, 1, 1, 1)
        assert_same_bits(out.data, np.zeros((1, 1, 1, 1), dtype=np.float32))

    def test_bias_added_last(self):
        # (1e20 + 1) - 1e20 == 0 with the bias last; bias first would give 1
        x = np.ones((1, 2, 2, 2), dtype=np.float32)
        w = np.array([1e20, 1.0], dtype=np.float32).reshape(1, 2, 1, 1)
        out = conv2d(t32(x), t32(w), t32([-1e20]))
        assert_same_bits(out.data, np.zeros((1, 1, 2, 2), dtype=np.float32))

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError, match="channel"):
            conv2d(t32(np.zeros((1, 2, 4, 4))), t32(np.zeros((3, 5, 1, 1))), t32(np.zeros(3)))

    def test_integer_path_requires_quant(self):
        qp = QuantParams(0.1, 0)
        x = Tensor(np.zeros((1, 1, 2, 2), dtype=np.int8), "i8", qp)
        w = Tensor(np.ones((1, 1, 1, 1), dtype=np.int8), "i8", qp)
        b = Tensor(np.zeros(1, dtype=np.int32), "i32", QuantParams(0.01, 0))
        with pytest.raises(ValueError, match="out_quant"):
            conv2d(x, w, b)

    def test_integer_path_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        xq = QuantParams(0.05, 3)
        wq = QuantParams(0.02, 0)
        oq = QuantParams(0.1, -5)
        for x_shape, w_shape in [((1, 2, 4, 4), (3, 2, 3, 3)), (MULTI_BLOCK["x_shape"], MULTI_BLOCK["w_shape"])]:
            x = Tensor(rng.integers(-128, 128, x_shape).astype(np.int8), "i8", xq)
            w = Tensor(rng.integers(-127, 128, w_shape).astype(np.int8), "i8", wq)
            b = Tensor(rng.integers(-500, 500, w_shape[0]).astype(np.int32), "i32", QuantParams(xq.scale * wq.scale, 0))
            out = conv2d(x, w, b, padding=1, out_quant=oq)
            # exact-integer loop accumulation, then the documented requantization
            acc = conv2d_reference(
                x.data.astype(np.int64) - xq.zero_point, w.data.astype(np.int64),
                b.data.astype(np.int64), 1, 1,
            )
            q = np.round(acc * (xq.scale * wq.scale / oq.scale)) + oq.zero_point
            np.testing.assert_array_equal(out.data, np.clip(q, -128, 127).astype(np.int8))

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 4), st.integers(1, 4), st.integers(1, 7), st.integers(1, 7),
        st.sampled_from([1, 3]), st.sampled_from([1, 2]), st.sampled_from([0, 1]), INT8_CODES, st.data(),
    )
    def test_integer_path_exact_against_int64_oracle(self, cin, cout, h, w, k, stride, padding, zp, data):
        if h + 2 * padding < k or w + 2 * padding < k:
            return
        x = data.draw(arrays(np.int8, (1, cin, h, w), elements=INT8_CODES))
        wt = data.draw(arrays(np.int8, (cout, cin, k, k), elements=INT8_CODES))
        b = data.draw(arrays(np.int32, (cout,), elements=INT32_BIASES))
        assert_int_conv_matches_oracle(x, zp, wt, b, stride, padding)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_integer_path_exact_across_gemm_blocks(self, stride):
        rng = np.random.default_rng(19)
        x = rng.integers(-128, 128, (1, 32, 24, 24)).astype(np.int8)
        w = rng.integers(-128, 128, (32, 32, 3, 3)).astype(np.int8)
        w[0, 0, 0, 0] = w[-1, -1, -1, -1] = -128
        b = rng.integers(-(2**31), 2**31, 32).astype(np.int32)
        b[:2] = [-(2**31), 2**31 - 1]
        # the output columns, at row pitch 26, span more than one block of
        # _GEMM_MACS multiply-adds: 3 blocks at stride 1, 2 at stride 2
        o = (26 - 3) // stride + 1
        assert (o - 1) * 26 + o > _GEMM_MACS // (32 * 32)
        assert_int_conv_matches_oracle(x, -7, w, b, stride, 1)

    @pytest.mark.parametrize("kh, kw", [(2, 3), (3, 2), (1, 3), (3, 1)])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_integer_path_exact_with_non_square_taps(self, kh, kw, stride):
        # the tap view reads tap (i, j) at i*pw + j: a swapped kh/kw or a wrong
        # row or column stride shows only with kh != kw, and across images and
        # column blocks only with n > 1 and several blocks
        rng = np.random.default_rng(23)
        x = rng.integers(-128, 128, (2, 64, 20, 21)).astype(np.int8)
        w = rng.integers(-128, 128, (32, 64, kh, kw)).astype(np.int8)
        b = rng.integers(-(2**31), 2**31, 32).astype(np.int32)
        ow = (21 + 2 - kw) // stride + 1
        span = ((20 + 2 - kh) // stride) * (21 + 2) + ow
        assert span > _GEMM_MACS // (32 * 64)
        assert_int_conv_matches_oracle(x, 5, w, b, stride, 1)

    def test_integer_conv_scratch_bounded(self):
        # one 3x3 filter over one 512x512 channel: the bound is the peak of a
        # per-tap kernel with two 2**18-element float32 accumulators (4.21e6
        # bytes, 2.1e6 of them the padded input and the int32 sums).  A product
        # buffer of all 9 taps with column blocks bounded by multiply-adds
        # alone peaks at 12.6e6 bytes.
        rng = np.random.default_rng(29)
        x = rng.integers(-128, 128, (1, 1, 512, 512)).astype(np.int8)
        w = rng.integers(-128, 128, (1, 1, 3, 3)).astype(np.int8)
        tracemalloc.start()
        try:
            sums = _conv_int(x, 3, w, 1, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.21e6
        np.testing.assert_array_equal(sums, conv2d_int_oracle(x, 3, w, np.zeros(1, np.int32), 1, 1))

    @pytest.mark.parametrize("nan_windows", [False, True], ids=["finite", "nan"])
    def test_float_blas_conv_scratch_bounded(self, nan_windows):
        # the 24->8 3x3 conv at 64x64 peaks at 1.37e6 bytes, 1.50e6 with a NaN
        # in every window, where every column goes to the ordered path: the
        # padded input, the output, the im2col scratch, which then also
        # gathers the unsettled columns, and the check's buffers.  Gathering
        # every unsettled column at once would add 7.1e6 bytes.
        rng = np.random.default_rng(59)
        x = rng.normal(size=(1, 24, 64, 64)).astype(np.float32)
        w = (rng.normal(size=(8, 24, 3, 3)) * 0.2).astype(np.float32)
        b = rng.normal(size=8).astype(np.float32)
        if nan_windows:
            x[0, 3, ::3, ::3] = np.nan
        tracemalloc.start()
        try:
            out = conv_f32(x, w, b, 1, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.0e6
        assert_same_bits(out, ordered_conv(x, w, b, 1, 1))

    # c*kh*kw on either side of the float32 bound: 514 * 255 * 128 <= 2**24 < 515 * 255 * 128
    @pytest.mark.parametrize("c, kh, kw", [(514, 1, 1), (257, 1, 2), (515, 1, 1), (103, 5, 1)])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("x_code, zp", [(-128, 127), (127, -128)], ids=["positive", "negative"])
    def test_integer_path_exact_at_float32_bound(self, c, kh, kw, stride, x_code, zp):
        # |x - zp| = 255 and w = -128 make every product +-32640, a multiple of
        # 128 that float32 holds to 2**31; one weight of -127 per filter makes
        # each full-window sum odd, so past 2**24 float32 cannot hold it
        x = np.full((1, c, 6, 7), x_code, np.int8)
        w = np.full((2, c, kh, kw), -128, np.int8)
        w[0, 0, 0, 0] = w[1, -1, -1, -1] = -127
        sums = conv2d_int_oracle(x, zp, w, np.zeros(2, np.int32), stride, 1)
        assert np.abs(sums).max() == 255 * (128 * c * kh * kw - 1)
        assert_int_conv_matches_oracle(x, zp, w, np.array([2**31 - 1, -(2**31)], np.int32), stride, 1)

    def test_integer_sums_past_int32_refused(self):
        # at the limit the worst-case sum, 65793 * 32640 = 2**31 - 128, still fits
        x = np.full((1, INT_CONV_MAX_TAPS, 1, 1), -128, np.int8)
        w = np.full((1, INT_CONV_MAX_TAPS, 1, 1), -128, np.int8)
        assert _conv_int(x, 127, w, 1, 0)[0, 0, 0, 0] == INT_CONV_MAX_TAPS * 255 * 128 == 2**31 - 128
        # past it a sum can leave int32: 7311 channels of 3x3 reach 65799 * 32640 = 2147679360
        x = Tensor(np.full((1, 7311, 3, 3), -128, np.int8), "i8", QuantParams(1.0, 127))
        w = Tensor(np.full((1, 7311, 3, 3), -128, np.int8), "i8", QuantParams(1.0))
        b = Tensor(np.zeros(1, np.int32), "i32", QuantParams(1.0))
        with pytest.raises(ValueError, match="7311x3x3 = 65799 taps per output exceeds 65793"):
            conv2d(x, w, b, out_quant=QuantParams(1.0))

    def test_integer_output_saturates(self):
        xq = QuantParams(1.0, 0)
        wq = QuantParams(1.0, 0)
        x = Tensor(np.full((1, 1, 2, 2), 100, dtype=np.int8), "i8", xq)
        w = Tensor(np.full((1, 1, 1, 1), 100, dtype=np.int8), "i8", wq)
        b = Tensor(np.zeros(1, dtype=np.int32), "i32", QuantParams(1.0, 0))
        out = conv2d(x, w, b, out_quant=QuantParams(1.0, 0))
        assert np.all(out.data == 127)  # 10000 clamps, never wraps
        assert out.data.dtype == np.int8

    @pytest.mark.parametrize("m, zero_point", [(0.5, 0), (0.5, -3), (0.25, 7), (2.0**-24, 0),
                                               (1 / 3, 5), (0.0137, 127)])
    def test_integer_requantization_matches_the_rounding_formula(self, m, zero_point):
        # int32 sums near both ends of int32 with biases that wrap them, odd
        # sums that m = 0.5 or 0.25 puts on exact .5 ties, and outputs on
        # either side of both saturation edges
        rng = np.random.default_rng(13)
        edges = np.round([(e - zero_point) / m + d for e in (-128, 127) for d in (-3, -1.5, -1, -0.5, 0, 0.5, 1, 1.5, 3)])
        sums = np.concatenate([
            [2**31 - 1, 2**31 - 5, -(2**31), -(2**31) + 5, 0, 1, -1, 3, -3, 5, -5],
            edges[np.abs(edges) < 2**31], np.arange(-40, 41), rng.integers(-(2**31), 2**31, 200),
        ]).astype(np.int32)
        sums = np.tile(sums, (4, 1)).reshape(1, 4, -1, 1)
        bias = np.array([0, 7, 2**31 - 1, -(2**31)], dtype=np.int32)
        x = Tensor(np.zeros((1, 1, 1, 1), np.int8), "i8", QuantParams(1.0, 0))
        w = Tensor(np.zeros((4, 1, 1, 1), np.int8), "i8", QuantParams(m))
        out = conv2d_finish(sums, x, w, Tensor(bias, "i32", QuantParams(m)), QuantParams(1.0, zero_point))
        b = bias[None, :, None, None]
        with np.errstate(over="ignore"):
            expect = np.clip(np.round((sums + b).astype(np.float64) * m) + zero_point, -128, 127)
        assert out.data.dtype == np.int8 and out.quant == QuantParams(1.0, zero_point)
        np.testing.assert_array_equal(out.data, expect.astype(np.int8))
        wide = sums.astype(np.int64) + b
        assert (wide > 2**31 - 1).any() and (wide < -(2**31)).any()  # the bias wrapped both ways
        assert ((sums + b) % 2 == 1).any() and (out.data == -128).any() and (out.data == 127).any()

    @pytest.mark.parametrize("padding", [0, 1, 2])
    @pytest.mark.parametrize("taps", [(3, 3), (600, 1)])  # float32, then float64 operands
    def test_kept_operand_gives_the_same_sums(self, padding, taps):
        c, k = taps
        rng = np.random.default_rng(14)
        x = Tensor(rng.integers(-128, 128, (1, c, 6, 5)).astype(np.int8), "i8", QuantParams(0.1, -7))
        w = Tensor(rng.integers(-128, 128, (2, c, k, k)).astype(np.int8), "i8", QuantParams(0.01))
        operand = conv2d_operand(x, w, padding)
        kept = operand.copy()
        assert operand.dtype == (np.float32 if c * k * k <= 514 else np.float64)
        for stride in (1, 2):
            expect = conv2d_sums(x, w, stride, padding)
            np.testing.assert_array_equal(conv2d_sums(x, w, stride, padding, operand), expect)
            one = Tensor(w.data[1:], "i8", w.quant)  # a one-filter slice reads the same operand
            np.testing.assert_array_equal(conv2d_sums(x, one, stride, padding, operand), expect[:, 1:])
        np.testing.assert_array_equal(operand, kept)
        with pytest.raises(ValueError, match="not the padded"):
            conv2d_sums(x, w, 1, padding + 1, operand)
        with pytest.raises(ValueError, match="integer path only"):
            conv2d_sums(t32(np.zeros((1, 1, 3, 3))), t32(np.zeros((1, 1, 1, 1))), operand=operand)

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        x = t32(rng.normal(size=(1, 3, 8, 8)))
        w = t32(rng.normal(size=(4, 3, 3, 3)))
        b = t32(rng.normal(size=4))
        a = conv2d(x, w, b, padding=1).data
        for _ in range(3):
            np.testing.assert_array_equal(conv2d(x, w, b, padding=1).data, a)


def conv_f32(x, w, b, stride=1, padding=0):
    """`_conv_f32` on f32 arrays, as `conv2d` calls it."""
    with np.errstate(all="ignore"):
        return _conv_f32(*(np.asarray(v, np.float32) for v in (x, w, b)), stride, padding)


def ordered_conv(x, w, b, stride=1, padding=0):
    """The ordered path, `conv2d_finish(conv2d_sums(...))`: what `_conv_f32` must equal bit for bit."""
    x, w, b = (t32(v) for v in (x, w, b))
    return conv2d_finish(conv2d_sums(x, w, stride, padding), x, w, b).data


def reverse_sums(a, b):
    """`a @ b` summed from the last of the k products down, each product
    added to the partial sum: another order a BLAS may choose.  A sum of
    -0.0 products stays -0.0, and of several NaNs the first in k order
    wins, where the ordered einsum keeps the last."""
    t = a[:, :, None] * b[None]
    s = t[:, -1].copy()
    for j in range(t.shape[1] - 2, -1, -1):
        np.add(t[:, j], s, out=s)
    return s


def edge_sums(direction):
    """`a @ b` as the exact sums moved by 0.99 * gamma_K * sum|t| toward
    `direction`: as far as Higham's bound lets any order of summing K terms
    land.  `reverse_sums` where a sum is not finite."""
    def sums(a, b):
        t = a[:, :, None] * b[None]
        k = t.shape[1]
        gamma = k * 2.0**-53 / (1 - k * 2.0**-53)
        out = reverse_sums(a, b)
        with np.errstate(invalid="ignore"):
            mag = np.abs(t).sum(axis=1)
        for o, p in zip(*np.nonzero(np.isfinite(mag))):
            out[o, p] = math.fsum(t[o, :, p]) + direction * 0.99 * gamma * mag[o, p]
        return out
    return sums


# what computes the BLAS sums of `_conv_f32`: the BLAS itself, or a stand-in for np.matmul
GEMMS = {"blas": None, "reverse": reverse_sums, "edge_up": edge_sums(1), "edge_down": edge_sums(-1)}


def gemm(name):
    """A context in which `_conv_f32`'s GEMM is `GEMMS[name]`."""
    sums = GEMMS[name]
    if sums is None:
        return mock.patch.object(np, "matmul", np.matmul)
    return mock.patch.object(np, "matmul", lambda a, b, out: np.copyto(out, sums(a, b)))


def nan_bits(bits):
    return np.array([bits], np.uint32).view(np.float32)[0]


@pytest.mark.parametrize("name", GEMMS)
class TestConvF32Blas:
    """The f32 kernel on BLAS, called directly: `conv2d` sends shapes this small
    to the ordered path.  Under each GEMM of `GEMMS` its output must be the
    ordered sum's, bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 8), st.integers(1, 3), st.integers(1, 7), st.integers(1, 7),
        st.sampled_from([1, 3]), st.sampled_from([1, 2]), st.sampled_from([0, 1]), st.data(),
    )
    def test_bit_exact_against_summation_order(self, name, cin, cout, h, w, k, stride, padding, data):
        if h + 2 * padding < k or w + 2 * padding < k:
            return
        x = data.draw(arrays(np.float32, (1, cin, h, w), elements=F32_VALUES))
        wt = data.draw(arrays(np.float32, (cout, cin, k, k), elements=F32_VALUES))
        b = data.draw(arrays(np.float32, (cout,), elements=F32_VALUES))
        with gemm(name):
            out = conv_f32(x, wt, b, stride, padding)
        assert_same_bits(out, conv2d_f32_oracle(x, wt, b, stride, padding))

    @pytest.mark.parametrize("values", [[1e20, 1.0, -1e20], [1.0, 1e20, -1e20]], ids=["big_first", "one_first"])
    @pytest.mark.parametrize(
        "kernel,positions",
        [((3, 1, 1), (0, 1, 2)), ((1, 3, 1), (0, 1, 2)), ((1, 1, 3), (0, 1, 2)), ((2, 2, 2), (0, 3, 4)),
         ((16, 1, 1), (0, 1, 8))],
        ids=["c", "i", "j", "row_major", "long"],
    )
    def test_cancellation_probe_pins_order(self, name, values, kernel, positions):
        # one output column of a probe that only the row-major order sums to 0
        w = np.zeros(kernel, dtype=np.float32)
        w.reshape(-1)[list(positions)] = values
        with gemm(name):
            out = conv_f32(np.ones((1, *kernel), np.float32), w[None], [0.0])
        assert_same_bits(out, np.zeros((1, 1, 1, 1), dtype=np.float32))

    def test_bias_added_last(self, name):
        x = np.ones((1, 2, 2, 2), dtype=np.float32)
        w = np.array([1e20, 1.0], dtype=np.float32).reshape(1, 2, 1, 1)
        with gemm(name):
            out = conv_f32(x, w, [-1e20])
        assert_same_bits(out, np.zeros((1, 1, 2, 2), dtype=np.float32))

    @pytest.mark.parametrize("bias", [0.0, -0.0, 2.5])
    def test_zero_window_keeps_the_ordered_zero(self, name, bias):
        # negative weights make every product of a zero window -0.0; the
        # ordered sum starts from +0.0, so it is +0.0, and so is +0.0 + -0.0
        rng = np.random.default_rng(31)
        x = rng.normal(size=(1, 4, 6, 6)).astype(np.float32)
        x[:, :, :3] = 0
        w = -np.abs(rng.normal(size=(2, 4, 3, 3))).astype(np.float32)
        with gemm(name):
            out = conv_f32(x, w, [bias, bias], 1, 1)
        assert_same_bits(out, conv2d_f32_oracle(x, w, np.float32([bias, bias]), 1, 1))
        assert (out[:, :, 0].view(np.uint32) == np.float32(bias + 0.0).view(np.uint32)).all()

    def test_non_finite_windows(self, name):
        # one NaN (either sign), Inf or -Inf per window, and a window with both
        # infinities (a NaN bias and windows of two NaNs: the next test)
        rng = np.random.default_rng(37)
        x = rng.normal(size=(1, 5, 12, 12)).astype(np.float32)
        for (c, i, j), v in {(1, 1, 1): nan_bits(0x7FC00001), (3, 1, 6): nan_bits(0xFFC00002),
                             (2, 6, 1): np.inf, (4, 6, 6): -np.inf, (0, 10, 2): np.inf, (2, 10, 3): -np.inf}.items():
            x[0, c, i, j] = v
        w = rng.normal(size=(3, 5, 3, 3)).astype(np.float32)
        b = np.float32([0.5, -2.0, -0.0])
        with gemm(name):
            out = conv_f32(x, w, b, 1, 1)
        assert_same_bits(out, conv2d_f32_oracle(x, w, b, 1, 1))
        assert np.isnan(out).any() and np.isposinf(out).any() and np.isneginf(out).any()

    def test_windows_of_several_nans_take_the_ordered_payload(self, name):
        # which NaN a sum keeps depends on its order and operand order, so the
        # loop oracle's may differ: the ordered path's is the one to match
        x = np.ones((1, 8, 6, 6), np.float32)
        x[0, 1, 2, 2] = nan_bits(0x7FC00001)
        x[0, 5, 2, 3] = nan_bits(0xFFC00002)
        w = np.random.default_rng(41).normal(size=(3, 8, 3, 3)).astype(np.float32)
        b = np.float32([0.5, np.nan, -0.0])
        with gemm(name):
            out = conv_f32(x, w, b, 1, 1)
        assert_same_bits(out, ordered_conv(x, w, b, 1, 1))

    @pytest.mark.parametrize("sign", [1, -1])
    def test_a_sum_near_a_rounding_midpoint_is_not_settled(self, name, sign):
        # 1 + 2**-24 - s is the float32 midpoint between 1 and 1 + 2**-23 less
        # s = 96 * 2**-53; each of the 61 terms d past it is just over half an
        # ulp of 1, so the ordered sum rounds up at each, to 26 * 2**-53 above
        # the midpoint, while the exact sum lies 35 * 2**-53 below it.  A sum
        # gamma_K * sum|t| below that still lies within the bound of the ordered
        # sum, and the bound must leave the output to the ordered path.
        k = 64
        d = np.float32(2.0**-53 * (1 + 2.0**-20))
        w = np.float32([1.0, 2.0**-24, -96 * 2.0**-53] + [d] * (k - 3)).reshape(1, k, 1, 1)
        x = np.full((1, k, 2, 3), sign, np.float32)
        with gemm(name):
            out = conv_f32(x, w, [0.0])
        assert_same_bits(out, np.full((1, 1, 2, 3), sign * (1 + 2.0**-23), np.float32))
        assert_same_bits(out, conv2d_f32_oracle(x, w, np.zeros(1, np.float32), 1, 0))

    def test_stride_two(self, name):
        rng = np.random.default_rng(43)
        x = (rng.normal(size=(2, 7, 9, 8)) * 10.0 ** rng.integers(-6, 7, (2, 7, 9, 8))).astype(np.float32)
        w = rng.normal(size=(4, 7, 3, 3)).astype(np.float32)
        b = rng.normal(size=4).astype(np.float32)
        with gemm(name):
            out = conv_f32(x, w, b, 2, 1)
        assert out.shape == (2, 4, 5, 4)
        assert_same_bits(out, conv2d_f32_oracle(x, w, b, 2, 1))

    @pytest.mark.parametrize("probe", [False, True], ids=["settled", "unsettled"])
    def test_one_column_output(self, name, probe):
        rng = np.random.default_rng(47)
        x = rng.normal(size=(1, 16, 3, 3)).astype(np.float32)
        w = rng.normal(size=(3, 16, 3, 3)).astype(np.float32)
        if probe:  # the "long" cancellation probe in filter 1's window: only the ordered sum gives 0
            x[:] = 1
            w[1] = 0
            w[1].reshape(-1)[[0, 1, 72]] = [1e20, 1.0, -1e20]
        b = rng.normal(size=3).astype(np.float32)
        with gemm(name):
            out = conv_f32(x, w, b)
        assert out.shape == (1, 3, 1, 1)
        assert_same_bits(out, conv2d_f32_oracle(x, w, b, 1, 0))

    def test_scattered_unsettled_columns(self, name):
        # 1x1 windows of 16 channels, a cancellation probe at scattered
        # positions across several images and im2col blocks: the ordered
        # path recomputes those columns and no others
        rng = np.random.default_rng(53)
        x = rng.normal(size=(2, 16, 64, 160)).astype(np.float32)
        w = rng.normal(size=(3, 16, 1, 1)).astype(np.float32)
        w[:2, [0, 1, 8]] = 1
        flat = x.reshape(2, 16, -1)
        at = rng.choice(flat.shape[2], 60, replace=False)
        flat[:, :, at] = 0
        flat[:, 0, at], flat[:, 1, at], flat[:, 8, at] = 1e20, 1.0, -1e20
        b = rng.normal(size=3).astype(np.float32)
        assert 16 * 64 * 160 > 2 * _IM2COL_BLOCK
        redone = []
        ordered = seusim.tensor._ordered_sums
        with mock.patch.object(seusim.tensor, "_ordered_sums",
                               lambda w2d, cols, out: redone.append(cols.shape[1]) or ordered(w2d, cols, out)):
            with gemm(name):
                out = conv_f32(x, w, b)
        assert_same_bits(out, conv2d_f32_oracle(x, w, b, 1, 0))
        assert (out[:, :2].reshape(2, 2, -1)[:, :, at] == b[:2, None]).all()
        assert sum(redone) >= 2 * 60 and (name != "blas" or sum(redone) < 2 * 64 * 160 // 100)


class TestBatchNorm:
    def test_identity(self):
        x = t32(np.arange(8, dtype=np.float32).reshape(1, 2, 2, 2))
        out = batch_norm(x, t32([1, 1]), t32([0, 0]), t32([0, 0]), t32([1, 1]), eps=0.0)
        np.testing.assert_array_equal(out.data, x.data)

    def test_affine_example(self):
        out = batch_norm(t32([[[[3.0]]]]), t32([2.0]), t32([1.0]), t32([0.0]), t32([1.0]), eps=0.0)
        assert out.data.item() == pytest.approx(7.0)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(1, 3, 4, 4)).astype(np.float32)
        g, b, m, v = (rng.normal(size=3).astype(np.float32) for _ in range(4))
        v = np.abs(v) + 0.5
        eps = 1e-3
        out = batch_norm(t32(x), t32(g), t32(b), t32(m), t32(v), eps=eps)
        ref = np.empty_like(x, dtype=np.float64)
        for c in range(3):
            for i in range(4):
                for j in range(4):
                    ref[0, c, i, j] = float(g[c]) * (float(x[0, c, i, j]) - float(m[c])) / math.sqrt(
                        float(v[c]) + eps
                    ) + float(b[c])
        np.testing.assert_allclose(out.data, ref, rtol=1e-6, atol=1e-6)

    def test_nonpositive_variance_yields_nan(self):
        # a fault can flip a variance negative; the kernel must not mask it
        # (validate_model rejects such a variance in a stored model)
        x = t32(np.ones((1, 2, 2, 2)))
        out = batch_norm(x, t32([1.0, 1.0]), t32([0.0, 0.0]), t32([0.0, 0.0]), t32([-1.0, 1.0]), eps=0.5)
        assert np.all(np.isnan(out.data[0, 0]))
        assert np.all(np.isfinite(out.data[0, 1]))


class TestActivation:
    @pytest.mark.parametrize(
        "x,expected",
        [(-3.0, 0.0), (3.0, 1.0), (0.0, 0.5), (1.5, 0.75), (-4.0, 0.0), (4.5, 1.0)],
    )
    def test_hard_sigmoid_values(self, x, expected):
        out = activation(t32([x]), "hard_sigmoid")
        assert out.data[0] == pytest.approx(expected)

    def test_hard_sigmoid_is_the_piecewise_form_bit_for_bit(self):
        def piecewise(x):
            mid = x / np.float32(6) + np.float32(0.5)
            return np.where(x <= -3, np.float32(0), np.where(x >= 3, np.float32(1), mid))

        three = np.float32(3)
        specials = np.array([0x00000000, 0x80000000, 0x7F800000, 0xFF800000,  # +-0, +-Inf
                             0x7FC00000, 0xFFC00001, 0x7FC12345, 0xFFFFFFFF,  # quiet NaNs
                             0x7F800001, 0xFFA00000, 0x7F9ABCDE, 0xFFBFFFFF],  # signalling NaNs
                            dtype=np.uint32).view(np.float32)
        near_three = np.array([np.nextafter(s * three, s * d) for s in (1, -1) for d in (0, np.inf)]
                              + [three, -three], dtype=np.float32)
        sample = np.random.default_rng(6).integers(0, 2**32, 200_000, dtype=np.uint32).view(np.float32)
        x = np.concatenate([specials, near_three, sample])
        with np.errstate(all="ignore"):
            got, want = activation(t32(x), "hard_sigmoid").data, piecewise(x)
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))

    def test_sigmoid_at_zero(self):
        assert activation(t32([0.0]), "sigmoid").data[0] == pytest.approx(0.5)

    def test_nan_propagates_for_all_kinds(self):
        for kind in ("relu", "sigmoid", "hard_sigmoid"):
            out = activation(t32([np.nan]), kind)
            assert np.isnan(out.data[0]), kind

    def test_infinities(self):
        x = t32([np.inf, -np.inf])
        assert list(activation(x, "hard_sigmoid").data) == [1.0, 0.0]
        assert list(activation(x, "sigmoid").data) == [1.0, 0.0]
        assert list(activation(x, "relu").data) == [np.inf, 0.0]

    @given(st.floats(width=32, allow_nan=False, allow_infinity=False))
    def test_bounded_kinds_stay_in_unit_interval(self, x):
        assert 0.0 <= activation(t32([x]), "hard_sigmoid").data[0] <= 1.0
        assert 0.0 <= activation(t32([x]), "sigmoid").data[0] <= 1.0

    @given(st.floats(-15, 15, width=32))
    def test_sigmoid_strictly_open_on_moderate_inputs(self, x):
        # float32 saturates to exactly 0/1 outside roughly +-17
        v = activation(t32([x]), "sigmoid").data[0]
        assert 0.0 < v < 1.0

    @given(st.floats(min_value=1.0, width=32, allow_nan=False, allow_infinity=False))
    def test_relu_unbounded_above(self, x):
        assert activation(t32([x]), "relu").data[0] == np.float32(x)

    def test_int8_lookup_path(self):
        qp = QuantParams(0.05, 0)
        codes = np.arange(-128, 128, dtype=np.int8).reshape(1, 1, 16, 16)
        out = activation(Tensor(codes, "i8", qp), "hard_sigmoid", QuantParams(1 / 255, -128))
        real_in = (codes.astype(np.float64)) * qp.scale
        expect = np.clip(real_in / 6 + 0.5, 0, 1)
        got = (out.data.astype(np.float64) - out.quant.zero_point) * out.quant.scale
        np.testing.assert_allclose(got, expect, atol=out.quant.scale / 2 + 1e-12)

    @pytest.mark.parametrize("kind", ACTIVATION_KINDS)
    @pytest.mark.parametrize("out_quant", [QuantParams(0.05, -3), QuantParams(0.02, -100)])  # the input's, another
    def test_int8_prebuilt_table_is_the_built_one(self, kind, out_quant):
        x = Tensor(np.arange(-128, 128, dtype=np.int8).reshape(1, 4, 8, 8), "i8", QuantParams(0.05, -3))
        built = activation(x, kind, out_quant)
        lut = activation_lut(kind, x.quant, out_quant)
        given = activation(x, kind, out_quant, lut=lut)
        assert given.quant == built.quant and given.raw_bits().tobytes() == built.raw_bits().tobytes()
        # the table given is the one read
        np.testing.assert_array_equal(activation(x, kind, out_quant, lut=lut[::-1]).data, lut[::-1][x.data.astype(np.int64) + 128])

    def test_int8_relu_keeps_scale(self):
        # at its input's QuantParams, relu raises codes below the zero point to it
        qp = QuantParams(0.1, -4)
        x = Tensor(np.array([-100, -4, 50], dtype=np.int8).reshape(1, 1, 1, 3), "i8", qp)
        out = activation(x, "relu", qp)
        assert out.quant == qp
        np.testing.assert_array_equal(out.data.reshape(-1), [-4, -4, 50])

    @pytest.mark.parametrize("kind", ACTIVATION_KINDS)
    def test_int8_requires_out_quant(self, kind):
        x = Tensor(np.zeros((1, 1, 2, 2), np.int8), "i8", QuantParams(0.1, 0))
        lut = activation_lut(kind, x.quant, x.quant)
        for given in (None, lut):  # a table does not stand in for the output's QuantParams
            with pytest.raises(ValueError, match="out_quant"):
                activation(x, kind, lut=given)


class TestSpatialOps:
    def test_max_pool2(self):
        x = t32(np.array([[1, 2], [3, 4]], dtype=np.float32).reshape(1, 1, 2, 2))
        assert max_pool2(x).data.item() == 4.0

    def test_max_pool2_needs_even_dims(self):
        with pytest.raises(ValueError, match="even"):
            max_pool2(t32(np.zeros((1, 1, 3, 4))))

    def test_max_pool2_propagates_nan(self):
        x = t32(np.array([[1, np.nan], [3, 4]], dtype=np.float32).reshape(1, 1, 2, 2))
        assert np.isnan(max_pool2(x).data.item())

    def test_upsample2(self):
        x = t32(np.array([[5.0]]).reshape(1, 1, 1, 1))
        np.testing.assert_array_equal(upsample2(x).data[0, 0], [[5, 5], [5, 5]])

    def test_upsample_then_pool_roundtrip(self):
        x = t32(np.random.default_rng(0).normal(size=(1, 2, 3, 3)))
        np.testing.assert_array_equal(max_pool2(upsample2(x)).data, x.data)

    def test_max_pool2_needs_even_width(self):
        with pytest.raises(ValueError, match="even"):
            max_pool2(t32(np.zeros((1, 1, 4, 3))))

    @pytest.mark.parametrize("op", [max_pool2, upsample2])
    @pytest.mark.parametrize("shape", [(2, 4, 4), (1, 1, 2, 2, 2)])
    def test_spatial_ops_need_4d(self, op, shape):
        with pytest.raises(ValueError, match=re.escape(str(shape))):
            op(t32(np.zeros(shape)))

    def test_max_pool2_matches_reduction_f32(self):
        rng = np.random.default_rng(5)
        v = rng.normal(size=(2, 3, 6, 10)).astype(np.float32)
        v.reshape(-1)[rng.choice(v.size, 40, replace=False)] = [np.inf, -np.inf] * 20
        nan_at = rng.choice(v.size, 12, replace=False)
        v.reshape(-1)[nan_at] = np.frombuffer(rng.integers(0x7F800001, 0x80000000, 12, np.uint32), np.float32)
        got, want = max_pool2(t32(v)).data, max_pool2_reduction(v)
        nan = np.isnan(v).reshape(2, 3, 3, 2, 5, 2).any(axis=(3, 5))
        assert 0 < nan.sum() < nan.size and np.isinf(want).any()
        assert got.dtype == np.float32 and got.shape == want.shape == (2, 3, 3, 5)
        np.testing.assert_array_equal(np.isnan(got), nan)
        np.testing.assert_array_equal(got.view(np.uint32)[~nan], want.view(np.uint32)[~nan])

    def test_max_pool2_matches_reduction_int8(self):
        qp = QuantParams(0.25, -3)
        v = np.random.default_rng(6).integers(-128, 128, (2, 5, 4, 8)).astype(np.int8)
        out = max_pool2(Tensor(v, "i8", qp))
        assert out.dtype == "i8" and out.quant == qp and out.data.dtype == np.int8
        np.testing.assert_array_equal(out.data, max_pool2_reduction(v))

    def test_max_pool2_every_window_of_special_values(self):
        # every 2x2 window over these values: the reduction's value wherever
        # the window holds no NaN (+0.0 == -0.0), NaN wherever it holds one
        special = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0], np.float32)
        special = np.append(special, np.frombuffer(np.uint32([0x7F800001, 0xFFC00123]), np.float32))
        windows = np.stack(np.meshgrid(*[special] * 4, indexing="ij"), -1).reshape(1, -1, 2, 2)
        got, want = max_pool2(t32(windows)).data.reshape(-1), max_pool2_reduction(windows).reshape(-1)
        nan = np.isnan(windows).reshape(-1, 4).any(axis=1)
        np.testing.assert_array_equal(np.isnan(got), nan)
        np.testing.assert_array_equal(got[~nan], want[~nan])

    @pytest.mark.parametrize("dtype", ["f32", "i8"])
    def test_upsample2_matches_repeat(self, dtype):
        rng = np.random.default_rng(7)
        if dtype == "f32":
            bits = rng.integers(0, 2**32, (2, 3, 5, 4), np.uint32)
            bits.reshape(-1)[:3] = [0x7FC00001, 0xFF800123, 0x80000000]  # NaN payloads, -0.0
            x = Tensor(bits.view(np.float32), "f32")
        else:
            x = Tensor(rng.integers(-128, 128, (2, 3, 5, 4)).astype(np.int8), "i8", QuantParams(0.5, 7))
        before = x.data.copy()
        out = upsample2(x)
        want = np.repeat(np.repeat(before, 2, axis=2), 2, axis=3)
        assert out.dtype == x.dtype and out.quant == x.quant and out.data.dtype == want.dtype
        np.testing.assert_array_equal(out.data.view(np.uint8), want.view(np.uint8))
        # a fresh array: a faulted forward may write into it, never into `x`
        assert out.data.flags.c_contiguous and not np.shares_memory(out.data, x.data)
        out.data[...] = 0
        np.testing.assert_array_equal(x.data.view(np.uint8), before.view(np.uint8))

    @pytest.mark.parametrize("op, bound", [(upsample2, 4 * 1.05), (max_pool2, 0.75 * 1.05)])
    def test_spatial_op_scratch_bounded(self, op, bound):
        # upsample2's bound is its output alone; repeating twice, or copying one
        # slot of the output into another, peaks at 1.5x the output.  max_pool2
        # holds the half-size row maxima and its output, 0.75x its input.
        x = t32(np.random.default_rng(8).normal(size=(1, 16, 256, 256)))
        tracemalloc.start()
        try:
            op(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * x.data.nbytes

    def test_concat_orders_channels(self):
        a = t32(np.full((1, 2, 2, 2), 1.0))
        b = t32(np.full((1, 3, 2, 2), 2.0))
        c = t32(np.full((1, 1, 2, 2), 3.0))
        out = concat_channels([a, b, c])
        assert out.shape == (1, 6, 2, 2)
        np.testing.assert_array_equal(out.data[0, :, 0, 0], [1, 1, 2, 2, 2, 3])
        assert concat_channels([a]).bit_equal(a)

    @given(st.floats(1e-3, 10), INT8_CODES, st.floats(1e-3, 10), INT8_CODES)
    def test_int8_concat_requantizes_like_the_formula(self, s1, z1, s2, z2):
        src, dst = QuantParams(s1, z1), QuantParams(s2, z2)
        codes = np.arange(-128, 128, dtype=np.int8).reshape(1, 4, 8, 8)
        other = Tensor(codes[:, :1], "i8", dst)
        out = concat_channels([Tensor(codes, "i8", src), other], out_quant=dst)
        assert out.quant == dst
        # the per-element formula: dequantize in float64, quantize under dst
        expect = quantize_affine((codes.astype(np.float64) - z1) * s1, dst)
        np.testing.assert_array_equal(out.data[:, :4], expect)
        np.testing.assert_array_equal(out.data[:, 4:], other.data)

    @given(st.lists(st.tuples(st.floats(1e-3, 10), INT8_CODES), min_size=3, max_size=3),
           st.floats(1e-3, 10), INT8_CODES)
    def test_int8_concat_of_three_requantizes_each_like_the_formula(self, srcs, s, z):
        dst = QuantParams(s, z)
        codes = np.arange(-128, 128, dtype=np.int8).reshape(1, 4, 8, 8)
        parts = [Tensor(np.roll(codes, 37 * i), "i8", QuantParams(*q)) for i, q in enumerate(srcs)]
        out = concat_channels(parts, out_quant=dst)
        assert out.quant == dst and out.shape == (1, 12, 8, 8)
        for i, t in enumerate(parts):
            expect = quantize_affine((t.data.astype(np.float64) - t.quant.zero_point) * t.quant.scale, dst)
            np.testing.assert_array_equal(out.data[:, 4 * i : 4 * i + 4], expect)

    @pytest.mark.parametrize("kind", ACTIVATION_KINDS)
    def test_int8_concat_prebuilt_tables_are_the_built_ones(self, kind):
        # inputs as an activation of each kind leaves them, in a quant that
        # differs from the target or equals it
        codes = np.arange(-128, 128, dtype=np.int8).reshape(1, 4, 8, 8)
        act_quant = QuantParams(0.05, -3) if kind == "relu" else QuantParams(1 / 255, -128)
        a = activation(Tensor(codes, "i8", QuantParams(0.05, -3)), kind, act_quant)
        for b_quant, dst in ((QuantParams(0.2, 9), QuantParams(0.1, 4)), (a.quant, a.quant)):
            b = Tensor(codes[:, :2], "i8", b_quant)
            built = concat_channels([a, b], out_quant=dst)
            luts = tuple(None if t.quant == dst else requantize_lut(t.quant, dst) for t in (a, b))
            given = concat_channels([a, b], out_quant=dst, luts=luts)
            assert given.quant == built.quant == dst
            np.testing.assert_array_equal(given.data, built.data)
        flip = np.arange(127, -129, -1, dtype=np.int8)  # the tables given are the ones read
        out = concat_channels([a, b], out_quant=a.quant, luts=(flip, None))
        np.testing.assert_array_equal(out.data[:, :4], flip[a.data.astype(np.int64) + 128])

    def test_int8_concat_requires_out_quant(self):
        a = Tensor(np.zeros((1, 2, 2, 2), np.int8), "i8", QuantParams(0.1, 0))
        for luts in (None, (None, None)):  # not even where no input needs requantizing
            with pytest.raises(ValueError, match="out_quant"):
                concat_channels([a, a], luts=luts)

    def test_concat_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            concat_channels([t32(np.zeros((1, 1, 2, 2))), t32(np.zeros((1, 1, 4, 4)))])

    def test_concat_needs_inputs(self):
        with pytest.raises(ValueError, match="at least one input"):
            concat_channels([])

    def test_concat_needs_a_table_per_input(self):
        # 2 + 3 channels with one table: the second input must not be dropped
        a = Tensor(np.zeros((1, 2, 2, 2), np.int8), "i8", QuantParams(0.1, 0))
        b = Tensor(np.ones((1, 3, 2, 2), np.int8), "i8", QuantParams(0.2, 0))
        for luts in ((None,), (None, None, None)):
            with pytest.raises(ValueError, match=f"{len(luts)} lookup tables for 2 concat inputs"):
                concat_channels([a, b], out_quant=a.quant, luts=luts)


def argmax_reference(vec):
    """Scalar oracle: NaN below everything, ties to the lowest index."""
    best, best_rank = 0, None
    for i, v in enumerate(vec):
        rank = (-math.inf, 0) if math.isnan(v) else (v, 1)
        if best_rank is None or rank[0] > best_rank[0] or (rank[0] == best_rank[0] and rank[1] > best_rank[1]):
            best, best_rank = i, rank
    return best


class TestArgmaxClasses:
    def test_plain(self):
        logits = t32(np.array([0.1, 0.9, 0.5]).reshape(3, 1, 1))
        assert argmax_classes(logits)[0, 0] == 1

    def test_nan_ranks_lowest(self):
        logits = t32(np.array([np.nan, -5.0, -7.0]).reshape(3, 1, 1))
        assert argmax_classes(logits)[0, 0] == 1

    def test_tie_takes_lowest_index(self):
        logits = t32(np.array([2.0, 2.0, 1.0]).reshape(3, 1, 1))
        assert argmax_classes(logits)[0, 0] == 0

    def test_all_nan_yields_class_zero(self):
        logits = t32(np.full((4, 1, 1), np.nan))
        assert argmax_classes(logits)[0, 0] == 0

    def test_nan_loses_to_negative_infinity(self):
        logits = t32(np.array([np.nan, -np.inf]).reshape(2, 1, 1))
        assert argmax_classes(logits)[0, 0] == 1

    def test_empty_class_dim_rejected(self):
        # an empty class axis cannot even form a Tensor
        with pytest.raises(ValueError):
            argmax_classes(Tensor(np.zeros((0, 2, 2), dtype=np.float32), "f32"))

    @settings(max_examples=200)
    @given(
        st.lists(
            st.one_of(st.floats(-5, 5, width=32), st.just(float("nan")),
                      st.just(float("inf")), st.just(float("-inf"))),
            min_size=1, max_size=6,
        )
    )
    def test_matches_scalar_oracle(self, vec):
        logits = t32(np.asarray(vec, dtype=np.float32).reshape(-1, 1, 1))
        assert argmax_classes(logits)[0, 0] == argmax_reference([float(np.float32(v)) for v in vec])

    @settings(max_examples=200)
    @given(
        st.integers(1, 6).flatmap(
            lambda c: arrays(
                np.float32, st.tuples(st.just(c), st.integers(1, 4), st.integers(1, 4)),
                elements=st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0]),
            )
        )
    )
    def test_special_values_match_scalar_oracle_per_pixel(self, v):
        got = argmax_classes(t32(v))
        assert got.dtype == np.int32
        for i in range(v.shape[1]):
            for j in range(v.shape[2]):
                assert got[i, j] == argmax_reference([float(c) for c in v[:, i, j]]), v[:, i, j]

    @settings(max_examples=200)
    @given(
        st.integers(1, 6).flatmap(
            lambda c: arrays(
                np.int8, st.tuples(st.just(c), st.integers(1, 4), st.integers(1, 4)),
                elements=st.sampled_from([-128, -1, 0, 1, 127]),
            )
        )
    )
    def test_int8_codes_match_scalar_oracle_per_pixel(self, v):
        # the f32 rule ranks the codes: ties to the lowest class, the extreme codes included
        got = argmax_classes(Tensor(v, "i8", QuantParams(0.5, 3)))
        assert got.dtype == np.int32
        for i in range(v.shape[1]):
            for j in range(v.shape[2]):
                assert got[i, j] == argmax_reference([float(c) for c in v[:, i, j]]), v[:, i, j]

    def test_int8_path(self):
        qp = QuantParams(0.5, 3)
        logits = Tensor(np.array([5, 9, 9], dtype=np.int8).reshape(3, 1, 1), "i8", qp)
        assert argmax_classes(logits)[0, 0] == 1


class TestQuantHelpers:
    def test_affine_roundtrip_bound(self):
        rng = np.random.default_rng(9)
        v = rng.uniform(-3, 5, 256).astype(np.float32)
        qp = choose_affine_params(v.min(), v.max())
        err = np.abs(dequantize(quantize_affine(v, qp), qp) - v)
        assert err.max() <= qp.scale / 2 + 1e-9

    def test_degenerate_range_uses_unit_scale(self):
        assert choose_affine_params(0.0, 0.0) == QuantParams(1.0, 0)

    def test_quant_params_validation(self):
        with pytest.raises(ValueError):
            QuantParams(0.0, 0)
        with pytest.raises(ValueError):
            QuantParams(-1.0, 0)

    @pytest.mark.parametrize("scale", [np.inf, -np.inf, np.nan])
    def test_non_finite_scale_rejected(self, scale):
        with pytest.raises(ValueError, match=f"scale must be positive and finite, got {scale}"):
            QuantParams(scale, 0)

    def test_tensor_quant_consistency(self):
        with pytest.raises(ValueError, match="requires QuantParams"):
            Tensor(np.zeros(3, dtype=np.int8), "i8")
        with pytest.raises(ValueError, match="must not carry"):
            Tensor(np.zeros(3, dtype=np.float32), "f32", QuantParams(1.0, 0))
