"""Tensor container and deterministic inference kernels.

Two execution paths share one API: a float32 path that never masks
non-finite values (NaN/Inf produced by corrupted parameters must reach
the output), and an int8 path with int32 accumulation and saturating
requantization.  All kernels are pure functions and avoid BLAS so that
results are bit-for-bit reproducible regardless of thread count.

Both conv paths share one blocked im2col kernel: the input windows of a
block of output rows are unfolded into a contiguous [c*kh*kw, positions]
matrix of at most about 2**16 elements (512 KB of float64 scratch per
call, so per worker thread), which the two-operand
``np.einsum("ok,kp->op", ...)`` reduces.  Called without ``optimize=``,
einsum runs numpy's own C loops: no BLAS and no threads.  Every output is
accumulated from 0 over (c, i, j) in row-major order, in float64 on the
float path and int32 on the integer path, and the bias is added last; the
float path then rounds once to float32.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

# dtype instances, not scalar types: numpy converts a type on every call
DTYPES = {"f32": np.dtype(np.float32), "i8": np.dtype(np.int8), "i32": np.dtype(np.int32)}
BIT_WIDTHS = {"f32": 32, "i8": 8, "i32": 32}
RAW_VIEWS = {"f32": np.dtype(np.uint32), "i8": np.dtype(np.uint8), "i32": np.dtype(np.uint32)}
ACTIVATION_KINDS = ("relu", "sigmoid", "hard_sigmoid")

# int8 code range used everywhere saturation applies
QMIN, QMAX = -128, 127


@dataclass(frozen=True)
class QuantParams:
    """Affine quantization parameters: real = scale * (code - zero_point)."""

    scale: float
    zero_point: int = 0

    def __post_init__(self):
        if not self.scale > 0:
            raise ValueError(f"scale must be positive, got {self.scale}")
        if not float(self.scale) == self.scale or self.zero_point != int(self.zero_point):
            raise ValueError("scale must be real, zero_point integral")


class Tensor:
    """N-dimensional array with dtype tag f32 | i8 | i32.

    Data is stored row-major (C order).  Integer tensors must carry
    QuantParams; float tensors must not.
    """

    __slots__ = ("data", "dtype", "quant")

    def __init__(self, data, dtype: str, quant: QuantParams | None = None):
        if dtype not in DTYPES:
            raise ValueError(f"unknown dtype {dtype!r}")
        arr = np.ascontiguousarray(data, dtype=DTYPES[dtype])
        if arr.size == 0:
            raise ValueError("empty tensor")
        is_int = dtype != "f32"
        if is_int and quant is None:
            raise ValueError(f"{dtype} tensor requires QuantParams")
        if not is_int and quant is not None:
            raise ValueError("f32 tensor must not carry QuantParams")
        self.data = arr
        self.dtype = dtype
        self.quant = quant

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def bit_width(self) -> int:
        return BIT_WIDTHS[self.dtype]

    def raw_bits(self) -> np.ndarray:
        """Flat unsigned view of the underlying bit patterns (mutable)."""
        return self.data.reshape(-1).view(RAW_VIEWS[self.dtype])

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), self.dtype, self.quant)

    def bit_equal(self, other: "Tensor") -> bool:
        return (
            self.dtype == other.dtype
            and self.shape == other.shape
            and self.quant == other.quant
            and bool(np.array_equal(self.raw_bits(), other.raw_bits()))
        )

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype!r}, quant={self.quant})"


# ---------------------------------------------------------------------------
# quantization helpers
# ---------------------------------------------------------------------------

def choose_affine_params(lo: float, hi: float) -> QuantParams:
    """Min/max calibration of an int8 activation range.

    Degenerate ranges (constant tensors) fall back to scale 1.
    """
    lo, hi = float(min(lo, 0.0)), float(max(hi, 0.0))  # range must cover 0
    if hi - lo <= 0.0:
        return QuantParams(1.0, 0)
    scale = (hi - lo) / (QMAX - QMIN)
    zero_point = int(np.clip(round(QMIN - lo / scale), QMIN, QMAX))
    return QuantParams(scale, zero_point)


def choose_symmetric_scale(values: np.ndarray) -> QuantParams:
    """Symmetric weight scale: max|v| maps to 127, zero_point 0."""
    m = float(np.max(np.abs(values))) if values.size else 0.0
    return QuantParams(m / QMAX if m > 0 else 1.0, 0)


def quantize_affine(values: np.ndarray, qp: QuantParams) -> np.ndarray:
    """Round-to-nearest-even affine quantization, saturating to int8."""
    q = np.round(np.asarray(values, dtype=np.float64) / qp.scale) + qp.zero_point
    return np.clip(q, QMIN, QMAX).astype(np.int8)


def quantize_symmetric(values: np.ndarray, qp: QuantParams) -> np.ndarray:
    q = np.round(np.asarray(values, dtype=np.float64) / qp.scale)
    return np.clip(q, -QMAX, QMAX).astype(np.int8)


def quantize_bias(values: np.ndarray, qp: QuantParams) -> np.ndarray:
    q = np.round(np.asarray(values, dtype=np.float64) / qp.scale)
    return np.clip(q, np.iinfo(np.int32).min, np.iinfo(np.int32).max).astype(np.int32)


def dequantize(codes: np.ndarray, qp: QuantParams) -> np.ndarray:
    return ((np.asarray(codes, dtype=np.float64) - qp.zero_point) * qp.scale).astype(np.float32)


def requantize_codes(codes: np.ndarray, src: QuantParams, dst: QuantParams) -> np.ndarray:
    """Re-express int8 codes under new affine parameters (round even, saturate)."""
    return quantize_affine((codes.astype(np.float64) - src.zero_point) * src.scale, dst)


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

# im2col scratch per block, in elements: 2**16 float64 values is 512 KB
_IM2COL_BLOCK = 1 << 16


def _conv_accumulate(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int, padding: int, acc_dtype):
    """Convolution sums of NCHW `x` with `w`, plus `b`, in `acc_dtype`.

    Each output is 0 + sum of x*w over (c, i, j) in row-major order, then
    + b.  Zero padding is applied to `x` as given.
    """
    n, c, h, wd = x.shape
    oc, _, kh, kw = w.shape
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ph, pw = x.shape[2], x.shape[3]
    if ph < kh or pw < kw:
        raise ValueError(f"input {h}x{wd} too small for {kh}x{kw} kernel with padding {padding}")
    oh = (ph - kh) // stride + 1
    ow = (pw - kw) // stride + 1
    k = c * kh * kw
    s0, s1, s2, s3 = x.strides
    win = np.lib.stride_tricks.as_strided(
        x, (n, c, kh, kw, oh, ow), (s0, s1, s2, s3, s2 * stride, s3 * stride)
    )
    w2d = w.reshape(oc, k).astype(acc_dtype)
    out = np.empty((n, oc, oh * ow), dtype=acc_dtype)
    rows = max(1, _IM2COL_BLOCK // (k * ow))
    scratch = np.empty(k * min(rows, oh) * ow, dtype=acc_dtype)
    for ni in range(n):
        for r0 in range(0, oh, rows):
            r1 = min(r0 + rows, oh)
            p = (r1 - r0) * ow
            cols = scratch[: k * p].reshape(k, p)
            np.copyto(cols.reshape(c, kh, kw, r1 - r0, ow), win[ni, :, :, :, r0:r1])
            dst = out[ni, :, r0 * ow : r1 * ow]
            if p > 1:
                # einsum adds the k terms of each output in order into a zeroed `dst`
                np.einsum("ok,kp->op", w2d, cols, out=dst)
            else:
                # with one column einsum would reduce k in a multi-accumulator
                # SIMD dot, which reorders the sum; two columns keep it in order
                dst[...] = np.einsum("ok,kp->op", w2d, np.repeat(cols, 2, axis=1))[:, :1]
    out += b[None, :, None]
    return out.reshape(n, oc, oh, ow)


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor,
    stride: int = 1,
    padding: int = 0,
    out_quant: QuantParams | None = None,
) -> Tensor:
    """2-D convolution over NCHW input.

    Float path: f32 in, f32 out, accumulated in f64 and rounded once.
    Integer path: i8 input/weights with i32 bias; accumulates in int32,
    then requantizes to `out_quant` with round-to-nearest-even and
    saturation to [-128, 127].
    """
    if x.data.ndim != 4:
        raise ValueError(f"conv2d input must be 4-D NCHW, got {x.shape}")
    if weight.data.ndim != 4:
        raise ValueError(f"conv2d weight must be 4-D, got {weight.shape}")
    oc, ic, kh, kw = weight.shape
    if x.shape[1] != ic:
        raise ValueError(f"channel mismatch: input has {x.shape[1]}, weight expects {ic}")
    if bias.shape != (oc,):
        raise ValueError(f"bias shape {bias.shape} does not match {oc} filters")

    if x.dtype == "f32":
        if weight.dtype != "f32" or bias.dtype != "f32":
            raise ValueError("f32 conv requires f32 weight and bias")
        with np.errstate(all="ignore"):  # Inf/NaN from corrupted params must flow through
            # products of f32 values are exact in f64; only the ordered f64 sums and the cast round
            out = _conv_accumulate(x.data, weight.data, bias.data, stride, padding, np.float64)
            out = out.astype(np.float32)  # f64 values beyond f32 range become Inf here
        return Tensor(out, "f32")

    if x.dtype == "i8" and weight.dtype == "i8" and bias.dtype == "i32":
        if x.quant is None or weight.quant is None or bias.quant is None:
            raise ValueError("integer conv requires QuantParams on all operands")
        if out_quant is None:
            raise ValueError("integer conv requires out_quant")
        # subtracting the zero point first makes zero padding represent real 0
        acc = _conv_accumulate(
            x.data.astype(np.int32) - x.quant.zero_point, weight.data, bias.data, stride, padding, np.int32
        )
        m = (x.quant.scale * weight.quant.scale) / out_quant.scale
        q = np.round(acc.astype(np.float64) * m) + out_quant.zero_point
        out = np.clip(q, QMIN, QMAX).astype(np.int8)
        return Tensor(out, "i8", out_quant)

    raise ValueError(f"unsupported conv dtype combination ({x.dtype}, {weight.dtype}, {bias.dtype})")


def batch_norm(
    x: Tensor, gamma: Tensor, beta: Tensor, mean: Tensor, var: Tensor, eps: float = 1e-3
) -> Tensor:
    """Per-channel normalization: gamma * (x - mean) / sqrt(var + eps) + beta.

    Float path only; quantized graphs fold BN into the preceding conv.
    """
    if x.dtype != "f32":
        raise ValueError("batch_norm supports the f32 path only")
    c = x.shape[1]
    for name, t in (("gamma", gamma), ("beta", beta), ("mean", mean), ("var", var)):
        if t.shape != (c,):
            raise ValueError(f"{name} length {t.shape} does not match {c} channels")
    # validate_model rejects var + eps <= 0 in a stored model; a fault that
    # makes it negative must yield NaN here, not an exception
    with np.errstate(all="ignore"):
        scale = gamma.data / np.sqrt(var.data + np.float32(eps))
        out = (x.data - mean.data[None, :, None, None]) * scale[None, :, None, None]
        out += beta.data[None, :, None, None]
    return Tensor(out, "f32")


def hard_sigmoid(x: np.ndarray) -> np.ndarray:
    """Piecewise-linear squashing: 0 below -3, 1 above 3, x/6 + 0.5 between."""
    x = np.asarray(x)
    mid = x / np.float32(6) + np.float32(0.5)
    return np.where(x <= -3, np.float32(0), np.where(x >= 3, np.float32(1), mid))


_F32_ACTIVATIONS = {
    "relu": lambda x: np.maximum(np.float32(0), x),
    "sigmoid": expit,
    "hard_sigmoid": hard_sigmoid,
}


def activation_lut(kind: str, in_quant: QuantParams, out_quant: QuantParams) -> np.ndarray:
    """256-entry int8 lookup table for an activation, indexed by code + 128."""
    codes = np.arange(QMIN, QMAX + 1, dtype=np.int32)
    real = ((codes - in_quant.zero_point) * in_quant.scale).astype(np.float32)
    return quantize_affine(_F32_ACTIVATIONS[kind](real), out_quant)


def _default_act_out_quant(kind: str, in_quant: QuantParams) -> QuantParams:
    if kind == "relu":
        return in_quant
    # bounded activations land in [0, 1]
    return QuantParams(1.0 / 255.0, QMIN)


def activation(x: Tensor, kind: str, out_quant: QuantParams | None = None) -> Tensor:
    """Apply an activation function.

    The f32 path propagates NaN for every kind (corruption is the
    phenomenon under study, never masked).  The int8 path goes through a
    256-entry lookup keyed by the input's QuantParams.
    """
    if kind not in ACTIVATION_KINDS:
        raise ValueError(f"unknown activation {kind!r}")
    if x.dtype == "f32":
        with np.errstate(all="ignore"):
            return Tensor(_F32_ACTIVATIONS[kind](x.data), "f32")
    if x.dtype == "i8":
        if out_quant is None:
            out_quant = _default_act_out_quant(kind, x.quant)
        lut = activation_lut(kind, x.quant, out_quant)
        return Tensor(lut[x.data.astype(np.int32) + 128], "i8", out_quant)
    raise ValueError(f"activation not defined for dtype {x.dtype}")


def max_pool2(x: Tensor) -> Tensor:
    """2x2 max pooling, stride 2.  Spatial dims must be even."""
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ValueError(f"pooling needs even spatial dims, got {h}x{w}")
    v = x.data.reshape(n, c, h // 2, 2, w // 2, 2)
    return Tensor(v.max(axis=(3, 5)), x.dtype, x.quant)


def upsample2(x: Tensor) -> Tensor:
    """Nearest-neighbor 2x upsampling."""
    v = np.repeat(np.repeat(x.data, 2, axis=2), 2, axis=3)
    return Tensor(v, x.dtype, x.quant)


def concat_channels(a: Tensor, b: Tensor, out_quant: QuantParams | None = None) -> Tensor:
    """Channel-axis concatenation, a's channels first."""
    if a.dtype != b.dtype:
        raise ValueError(f"dtype mismatch: {a.dtype} vs {b.dtype}")
    if a.shape[0] != b.shape[0] or a.shape[2:] != b.shape[2:]:
        raise ValueError(f"spatial shape mismatch: {a.shape} vs {b.shape}")
    if a.dtype == "i8":
        target = out_quant if out_quant is not None else a.quant
        da = a.data if a.quant == target else requantize_codes(a.data, a.quant, target)
        db = b.data if b.quant == target else requantize_codes(b.data, b.quant, target)
        return Tensor(np.concatenate([da, db], axis=1), "i8", target)
    return Tensor(np.concatenate([a.data, b.data], axis=1), a.dtype, a.quant)


def argmax_classes(logits: Tensor) -> np.ndarray:
    """Per-pixel argmax over the class axis of a [classes, H, W] tensor.

    Deterministic total order: NaN ranks below every finite and infinite
    value, ties break toward the lowest class index, and an all-NaN pixel
    yields class 0.
    """
    v = logits.data
    if v.ndim != 3:
        raise ValueError(f"logits must be [classes, H, W], got {v.shape}")
    n_classes = v.shape[0]
    if n_classes == 0:
        raise ValueError("empty class dimension")

    if logits.dtype != "f32":
        # integer codes share one QuantParams per tensor, so code order is value order
        return np.argmax(v, axis=0).astype(np.int32)

    key = np.fmax(v, np.float32(-np.inf))  # NaN ranks as -inf
    top = key.max(axis=0)
    best = np.zeros(v.shape[1:], dtype=np.int32)
    for c in range(n_classes - 1, -1, -1):  # descending: the lowest tied class is written last
        np.copyto(best, c, where=key[c] == top)
    # where the maximum is -inf, a NaN keyed -inf may precede a real -inf:
    # the lowest non-NaN class wins there, class 0 if every class is NaN
    low = top == -np.inf
    if low.any():
        best[low] = np.argmax(~np.isnan(v[:, low]), axis=0)
    return best
