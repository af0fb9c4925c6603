"""Tensor container and deterministic inference kernels.

Two execution paths share one API: a float32 path that never masks
non-finite values (NaN/Inf produced by corrupted parameters must reach
the output), and an int8 path with exact integer sums and saturating
requantization.  All kernels are pure functions whose results are
bit-for-bit reproducible regardless of thread count.

The float conv's output bits are those of one ordered sum.  The sums are
blocked im2col: the input windows of a block of output rows are unfolded
into a contiguous [c*kh*kw, positions] matrix of at most about 2**16
elements (512 KB of float64 scratch per call, so per campaign worker),
which the two-operand ``np.einsum("ok,kp->op", ...)`` reduces.  Called
without ``optimize=``, einsum runs numpy's own C loops: no BLAS and no
threads.  Every output is accumulated in float64 from 0 over (c, i, j) in
row-major order, the bias is added last, and the sum is rounded once to
float32.  The sums before the bias are a public half of their own
(`conv2d_sums`), so a caller that keeps them can finish a channel with
another bias (`conv2d_finish`) without running the conv again.  `conv2d`
of a conv of at least _BLAS_MIN_TAPS taps and _BLAS_MIN_MACS
multiply-adds per image gives the same bits faster (`_conv_f32`): BLAS
sums each block in an order of its own, a per-output error bound proves
which float32 outputs the ordered sum rounds to alike, and the ordered
einsum recomputes the rest.  So `conv2d` is `conv2d_finish` of
`conv2d_sums`, bit for bit, at any size and on any number of BLAS threads.

The int8 conv is kn2row with no im2col copy: one strided view of the padded
input holds every kernel tap's shifted operand, one batched matmul per block
of output columns gives every tap's product, and a sum over the taps gives
the block's sums.  The sums are integers of magnitude at most
c*kh*kw * 255*128, exact in any order as long as the float type holds every
integer up to that bound: float32 (up to 2**24) for at most 514 taps per
output, float64 past that.  So BLAS may reorder them freely.  The sums fit
in int32 up to INT_CONV_MAX_TAPS = 65793 taps; a wider int8 conv is refused,
by the kernel and by `seusim.model.validate_model`.  Each tap's product in a
block, so each BLAS call, does at most 2**18 multiply-adds.  OpenBLAS runs
every call of that size on the calling thread, a one-filter slice's GEMV
included: it first threads a GEMV, float32 or float64, at m*n = 460800
(OpenBLAS 0.3.31, 2 CPUs, seen as CPU time on its helper thread).  Thread
count never changes a bit of the sums.
The int32 bias is added in int32, wrapping as an int32 accumulator does,
then the sums are requantized in one float64 buffer: scaled, rounded half
to even, shifted by the zero point and clipped in place, then cast to int8
once.  Requantizing int8 codes, in a concat or an activation, is a gather
through a 256-entry table into the output QuantParams the caller gives;
neither kernel chooses them.  Both kernels take the table from their caller
if it built one; `seusim.model` builds a forward's tables up front, and a
campaign builds them once with its golden run, so no injection builds
one.  Likewise a caller may keep an int8 conv's padded operand
(`conv2d_operand`) and pass it to `conv2d_sums` for every one-filter slice
of that conv on the same input.

Both convs pad into a zeroed buffer, writing the input into its interior
with one call.  Pooling is two pairwise `np.maximum` passes over strided
views, rows then columns.  A window holding a NaN gives NaN (`np.maximum`,
never `np.fmax`); which NaN payload, and which zero sign where a window
holds both +0.0 and -0.0, may differ from a one-pass reduction.  No class
map can see either: `argmax_classes` ranks every NaN alike and compares
the zeros as equal, and every conv sum starts from +0.0.  It ranks int8
logits by the same loop as float32 ones, each code its own key.  Upsampling
writes its input into the four strided (row, column) slots of one output
buffer, so the output is its only allocation.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

# The formats a Tensor stores, by tag: numpy dtype (an instance: numpy converts a scalar type on every call),
# unsigned view of the bit patterns, width, and a float's exponent and mantissa masks, 0 for an integer (two's
# complement); the top bit is always the sign.  Append only: a row's position is its tag in model files.
Format = namedtuple("Format", "dtype raw width exponent mantissa")
FORMATS = {
    "f32": Format(np.dtype(np.float32), np.dtype(np.uint32), 32, 0x7F800000, 0x007FFFFF),
    "i8": Format(np.dtype(np.int8), np.dtype(np.uint8), 8, 0, 0),
    "i32": Format(np.dtype(np.int32), np.dtype(np.uint32), 32, 0, 0),
}

# int8 code range used everywhere saturation applies
QMIN, QMAX = -128, 127


@dataclass(frozen=True)
class QuantParams:
    """Affine quantization parameters: real = scale * (code - zero_point)."""

    scale: float
    zero_point: int = 0

    def __post_init__(self):
        if not 0 < self.scale < np.inf:
            raise ValueError(f"scale must be positive and finite, got {self.scale}")
        if not float(self.scale) == self.scale or self.zero_point != int(self.zero_point):
            raise ValueError("scale must be real, zero_point integral")


class Tensor:
    """N-dimensional array with a dtype tag of FORMATS (f32 | i8 | i32).

    Data is stored row-major (C order).  Integer tensors must carry
    QuantParams; float tensors must not.
    """

    __slots__ = ("data", "dtype", "quant")

    def __init__(self, data, dtype: str, quant: QuantParams | None = None):
        if dtype not in FORMATS:
            raise ValueError(f"unknown dtype {dtype!r}")
        fmt = FORMATS[dtype]
        arr = np.ascontiguousarray(data, dtype=fmt.dtype)
        if arr.size == 0:
            raise ValueError("empty tensor")
        if (quant is None) == (not fmt.exponent):  # an integer format stores codes
            raise ValueError(f"{dtype} tensor {'requires' if quant is None else 'must not carry'} QuantParams")
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
        return FORMATS[self.dtype].width

    def raw_bits(self) -> np.ndarray:
        """Flat unsigned view of the underlying bit patterns (mutable)."""
        return self.data.reshape(-1).view(FORMATS[self.dtype].raw)

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


def requantize_lut(src: QuantParams, dst: QuantParams) -> np.ndarray:
    """Every int8 code re-expressed under new affine parameters (round
    even, saturate), indexed by code + 128."""
    return quantize_affine((np.arange(QMIN, QMAX + 1, dtype=np.float64) - src.zero_point) * src.scale, dst)


def lookup_codes(lut: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """`lut[codes + 128]` for int8 `codes`.  Flipping the top bit of a
    code's uint8 view adds 128 mod 256, so the index never widens."""
    return np.take(lut, codes.view(np.uint8) ^ np.uint8(0x80))


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

# im2col scratch per block, in elements: 2**16 float64 values is 512 KB
_IM2COL_BLOCK = 1 << 16

# multiply-adds per BLAS call on the integer path, and about the elements of
# its product buffer (1 MB of float32).  OpenBLAS runs a GEMM or GEMV of this
# size on the calling thread.
_GEMM_MACS = 1 << 18

# The f32 conv sums on BLAS (`_conv_f32`) from this many taps per output and
# multiply-adds per image.  Its bound's check costs about 10 passes over each
# output, and its numpy calls each release the GIL: below 64 taps it loses
# (the 27-tap 3->8 conv ran 2-12% slower at 64x64 and 256x256), and below
# 2**22 multiply-adds it loses under threaded callers (gated on taps alone,
# the threaded jobs-2 prune sweep of 32x32 convs in perfbench ran 32-38%
# fewer items/s).
_BLAS_MIN_TAPS = 64
_BLAS_MIN_MACS = 1 << 22

# outputs per check of `_conv_f32`'s bound, several im2col blocks' worth:
# each of its numpy calls costs a few microseconds however few outputs it takes
_CHECK_OUTPUTS = 1 << 13

# added to each filter's |w| sum and each window's largest |x|, so that no bound is 0
_BOUND_FLOOR = 2.0**-500

# |x - zp| <= 255 and |w| <= 128: the largest product on the integer path
_INT_PRODUCT_MAX = 255 * 128

# taps per output (c*kh*kw) for which an int8 conv's sums fit in int32
INT_CONV_MAX_TAPS = (2**31 - 1) // _INT_PRODUCT_MAX


def _windows(x: np.ndarray, kh: int, kw: int, stride: int, padding: int) -> np.ndarray:
    """The [n, c, kh, kw, oh, ow] view of every kh x kw window of NCHW `x`,
    zero-padded into a fresh buffer first, at `stride`."""
    n, c, h, wd = x.shape
    if padding:
        xp = np.zeros((n, c, h + 2 * padding, wd + 2 * padding), x.dtype)
        xp[:, :, padding : padding + h, padding : padding + wd] = x
        x = xp
    ph, pw = x.shape[2], x.shape[3]
    if ph < kh or pw < kw:
        raise ValueError(f"input {h}x{wd} too small for {kh}x{kw} kernel with padding {padding}")
    oh = (ph - kh) // stride + 1
    ow = (pw - kw) // stride + 1
    s0, s1, s2, s3 = x.strides
    return np.lib.stride_tricks.as_strided(x, (n, c, kh, kw, oh, ow), (s0, s1, s2, s3, s2 * stride, s3 * stride))


def _im2col_blocks(win: np.ndarray, height: int):
    """Per block of output rows of the window view `win`: its image, its
    first output column, and its windows unfolded into a C-contiguous
    float64 [c*kh*kw, positions] matrix.  A block holds about
    _IM2COL_BLOCK / `height` columns, at least one output row; every block
    is written into the same scratch."""
    n, c, kh, kw, oh, ow = win.shape
    k = c * kh * kw
    rows = max(1, _IM2COL_BLOCK // (height * ow))
    scratch = np.empty(k * min(rows, oh) * ow)
    for ni in range(n):
        for r0 in range(0, oh, rows):
            r1 = min(r0 + rows, oh)
            cols = scratch[: k * (r1 - r0) * ow].reshape(k, -1)
            np.copyto(cols.reshape(c, kh, kw, r1 - r0, ow), win[ni, :, :, :, r0:r1])
            yield ni, r0 * ow, cols


def _ordered_sums(w2d: np.ndarray, cols: np.ndarray, out: np.ndarray) -> np.ndarray:
    """`w2d @ cols` into `out`, each output 0 + its k terms in order, for a
    C-contiguous [k, p] `cols`.  einsum orders its loops by memory layout,
    so another layout of `cols` may reorder the terms."""
    if cols.shape[1] > 1:
        # einsum adds the k terms of each output in order into a zeroed `out`
        return np.einsum("ok,kp->op", w2d, cols, out=out)
    # with one column einsum would reduce k in a multi-accumulator
    # SIMD dot, which reorders the sum; two columns keep it in order
    out[...] = np.einsum("ok,kp->op", w2d, np.repeat(cols, 2, axis=1))[:, :1]
    return out


def _conv_accumulate(x: np.ndarray, w: np.ndarray, stride: int, padding: int):
    """Float convolution sums of NCHW f32 `x` with `w`, in float64.

    Each output is 0 + sum of x*w over (c, i, j) in row-major order.  Zero
    padding is applied to `x` as given.
    """
    oc, c, kh, kw = w.shape
    win = _windows(x, kh, kw, stride, padding)
    n, _, _, _, oh, ow = win.shape
    w2d = w.reshape(oc, -1).astype(np.float64)
    out = np.empty((n, oc, oh * ow))
    for ni, p0, cols in _im2col_blocks(win, c * kh * kw):
        _ordered_sums(w2d, cols, out[ni, :, p0 : p0 + cols.shape[1]])
    return out.reshape(n, oc, oh, ow)


def _window_max(a: np.ndarray, kh: int, kw: int, stride: int, oh: int, ow: int) -> np.ndarray:
    """The maximum of [n, ph, pw] `a` over each kh x kw window at `stride`,
    [n, oh, ow]: a pass per kernel row, then one per kernel column.  A
    window holding a NaN gives NaN."""
    rows = a[:, : stride * (oh - 1) + 1 : stride].copy()
    for i in range(1, kh):
        np.maximum(rows, a[:, i : i + stride * (oh - 1) + 1 : stride], out=rows)
    out = rows[:, :, : stride * (ow - 1) + 1 : stride].copy()
    for j in range(1, kw):
        np.maximum(out, rows[:, :, j : j + stride * (ow - 1) + 1 : stride], out=out)
    return out


def _conv_f32(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int, padding: int) -> np.ndarray:
    """The float32 output of the conv of NCHW f32 `x` with `w` and bias `b`,
    bit for bit that of `conv2d_finish(conv2d_sums(...))`, with BLAS
    computing the sums.

    Per block of `_im2col_blocks`, BLAS multiplies the float64 weights by
    the columns, in calls of at most _GEMM_MACS multiply-adds, giving sums
    S in an order it chooses.  Output (o, p) of K = c*kh*kw taps then gets
    the bound m = c_K * W_o * X_p, where W_o = sum_k |w_ok| and X_p is the
    largest |x| in p's window, padding included, each plus 2**-500, and
    c_K = 4(K + 4) * 2**-53.  The output is settled when S + m is finite
    and f32(fl64(S - m) + b) and f32(fl64(S + m) + b) have equal bits;
    those bits are its output.  The bound is checked on about
    _CHECK_OUTPUTS outputs at a time, whole blocks of them.  Once an
    image's blocks are done, the ordered einsum (`_ordered_sums`)
    recomputes every column holding an unsettled output, gathered a block
    at a time into the im2col scratch as a C-contiguous [k, columns]
    matrix, in (c, i, j) order.

    Why a settled output is the ordered one.  Where S + m is finite, m is,
    so (each factor being at least 2**-500) every weight of the filter and
    every input of the window is finite.  Every f32 x f32 product is then
    exact in float64, and an FMA does not change a product-then-add.  Any
    order or tree of summing K exact terms lies within gamma_K * sum|t| of
    their exact sum, gamma_K = K*u / (1 - K*u), u = 2**-53 (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2nd ed., section
    4.2), so the ordered sum and S lie within 2 * gamma_K * W_o * X_p of
    each other; c_K covers that twice over, with the rounding of m itself,
    for any K below 2**40.  Rounding is monotone and leaves the ordered
    sum, a double, in place, so it lies in [fl64(S - m), fl64(S + m)];
    v -> f32(fl64(v + b)) is monotone too, so equal bits at both ends are
    its bits.  A zero sum with a zero bias never settles, since m > 0
    gives -0.0 and +0.0 at the ends: the ordered path keeps its +0.0
    start, whatever the sign of the bias and of a zero S.  NaN ends are
    equal bits on both sides, so the finiteness of S + m is checked
    explicitly.  Assumed: BLAS accumulates in IEEE double, as OpenBLAS
    does.  Which order it chose, and on how many threads, changes no bit.
    """
    oc, c, kh, kw = w.shape
    k = c * kh * kw
    win = _windows(x, kh, kw, stride, padding)
    n, _, _, _, oh, ow = win.shape
    w2d = w.reshape(oc, k).astype(np.float64)
    b64 = b.astype(np.float64)[:, None]
    cw = (np.abs(w2d).sum(axis=1, keepdims=True) + _BOUND_FLOOR) * (4 * (k + 4) * 2.0**-53)
    # |x| at its largest over the channels, then over each window; padding is 0
    a = np.maximum(x.max(axis=1), -x.min(axis=1))
    if padding:
        a = np.pad(a, ((0, 0), (padding, padding), (padding, padding)))
    xmax = _window_max(a, kh, kw, stride, oh, ow).reshape(n, -1).astype(np.float64)
    xmax += _BOUND_FLOOR
    step = max(1, _GEMM_MACS // (oc * k))
    out = np.empty((n, oc, oh * ow), np.float32)
    redo = np.empty(oh * ow, bool)
    c0 = 0  # the image's first column not yet checked
    for ni, p0, cols in _im2col_blocks(win, max(k, oc)):
        p, end = cols.shape[1], p0 + cols.shape[1]
        if not p0 and not ni:  # the first block is the widest, and its columns fill the scratch
            width, scratch = p, cols.reshape(-1)
            span = width * max(1, _CHECK_OUTPUTS // (oc * width))  # columns per check: whole blocks
            s, m = np.empty((2, oc, span))
            hi32 = np.empty((oc, span), np.float32)
        for q0 in range(0, p, step):
            np.matmul(w2d, cols[:, q0 : q0 + step], out=s[:, p0 - c0 + q0 : p0 - c0 + min(q0 + step, p)])
        if end < oh * ow and end + width - c0 <= span:
            continue
        q = end - c0
        sq, mq, h32 = s[:, :q], m[:, :q], hi32[:, :q]
        np.add(sq, np.multiply(cw, xmax[ni, c0:end], out=mq), out=mq)  # S + m
        settled = np.isfinite(mq)
        np.add(mq, b64, out=h32, casting="same_kind")
        np.subtract(sq, np.multiply(cw, xmax[ni, c0:end], out=mq), out=sq)  # S - m, m computed again
        dst = out[ni, :, c0:end]
        np.add(sq, b64, out=dst, casting="same_kind")
        settled &= dst.view(np.uint32) == h32.view(np.uint32)
        np.logical_not(settled.all(axis=0), out=redo[c0:end])
        c0 = end % (oh * ow)
        if c0:
            continue
        # the image's last block: its scratch now gathers the unsettled columns
        where = np.flatnonzero(redo)
        for g0 in range(0, where.size, width):
            pos = where[g0 : g0 + width]
            g = scratch[: k * pos.size].reshape(k, -1)
            g.reshape(c, kh, kw, -1)[...] = win[ni][..., pos // ow, pos % ow]
            t = _ordered_sums(w2d, g, s.reshape(-1)[: oc * pos.size].reshape(oc, -1))
            out[ni][:, pos] = t + b64
    return out.reshape(n, oc, oh, ow)


def _int_ftype(taps: int):
    """The float type whose integers hold every sum of an int8 conv of `taps` taps."""
    return np.float32 if taps * _INT_PRODUCT_MAX <= 2**24 else np.float64


def _int_operand(x: np.ndarray, zero_point: int, ftype, padding: int) -> np.ndarray:
    """int8 NCHW codes `x` less `zero_point` in a zeroed `ftype` buffer with
    `padding` on each spatial side."""
    n, c, h, wd = x.shape
    xp = np.zeros((n, c, h + 2 * padding, wd + 2 * padding), ftype)
    np.subtract(x, zero_point, out=xp[:, :, padding : padding + h, padding : padding + wd], dtype=ftype)
    return xp


def _conv_int(x: np.ndarray, zero_point: int, w: np.ndarray, stride: int, padding: int, xp=None):
    """Integer convolution sums of int8 NCHW codes `x` less `zero_point`
    with int8 `w`, as int32.  Zero padding follows the subtraction; `xp`,
    if given, is that padded operand (`_int_operand`), already built.

    kn2row (Vasudevan, Anderson & Gregg, ASAP 2017) as one batched matmul
    per column block.  The padded input's spatial axes are flattened:
    output (r, q) is column r*pw + q, and tap (i, j) reads the input at
    i*pw + j + stride*(r*pw + q).  One strided view [kh, kw, c, span] holds
    every tap's operand without a copy, so the weights as [kh, kw, oc, c]
    times a block of its columns give every tap's product [kh, kw, oc, block]
    in one call; summing over the tap axes gives the block's sums, and the
    pw - ow columns past each output row's end are dropped.  A 1x1 conv's
    single product is its sums.  At stride 1 each 2-D product runs on BLAS;
    at stride > 1 its operand's columns are not adjacent, and numpy's matmul
    runs its own loop over the view instead of BLAS.  A block keeps each
    2-D product at most _GEMM_MACS multiply-adds and the product buffer at
    most about _GEMM_MACS elements.

    Exact in any summation order: |x - zp| <= 255 and |w| <= 128, so every
    product and partial sum is an integer of magnitude at most
    c*kh*kw * 32640.  Up to 514 taps that is below 2**24, exact in float32,
    and the products, padded operand and sums are float32; past it they are
    float64.  BLAS may block, vectorise and fuse as it likes.  The sums
    fit in int32 up to INT_CONV_MAX_TAPS taps; a wider conv is refused.
    """
    n, c, h, wd = x.shape
    oc, _, kh, kw = w.shape
    k = c * kh * kw
    if k > INT_CONV_MAX_TAPS:
        raise ValueError(f"int8 conv of {c}x{kh}x{kw} = {k} taps per output exceeds "
                         f"{INT_CONV_MAX_TAPS}: its sums would overflow int32")
    ph, pw = h + 2 * padding, wd + 2 * padding
    if ph < kh or pw < kw:
        raise ValueError(f"input {h}x{wd} too small for {kh}x{kw} kernel with padding {padding}")
    oh = (ph - kh) // stride + 1
    ow = (pw - kw) // stride + 1
    ftype = _int_ftype(k)
    if xp is None:
        xp = _int_operand(x, zero_point, ftype, padding)
    elif xp.shape != (n, c, ph, pw) or xp.dtype != ftype:
        raise ValueError(f"operand {xp.shape} of {xp.dtype} is not the padded {ftype.__name__} "
                         f"operand of a {x.shape} input with padding {padding}")
    wt = np.ascontiguousarray(w.transpose(2, 3, 0, 1), dtype=ftype)
    span = (oh - 1) * pw + ow  # columns up to the last output
    step = min(max(1, _GEMM_MACS // (oc * max(c, kh * kw))), span)
    prod = np.empty((kh, kw, oc, step), ftype)
    out = np.empty((n, oc, oh * pw), dtype=np.int32)
    _, s1, s2, s3 = xp.strides
    for ni in range(n):
        view = np.lib.stride_tricks.as_strided(xp[ni], (kh, kw, c, span), (s2, s3, s1, stride * s3))
        for p0 in range(0, span, step):
            p1 = min(p0 + step, span)
            dst = np.matmul(wt, view[..., p0:p1], out=prod[..., : p1 - p0])
            out[ni, :, p0:p1] = dst[0, 0] if kh * kw == 1 else dst.sum(axis=(0, 1))
    return out.reshape(n, oc, oh, pw)[..., :ow]


def conv2d_operand(x: Tensor, weight: Tensor, padding: int = 0) -> np.ndarray:
    """What the integer path of `conv2d_sums(x, weight, ...)` builds first:
    `x`'s codes less their zero point, zero-padded, in float32 or float64 by
    the taps of `weight` (`_conv_int`).  No fault in `weight` changes it, so a
    caller may keep it for every one-filter slice of a conv on `x`."""
    if x.dtype != "i8" or x.data.ndim != 4 or weight.data.ndim != 4:
        raise ValueError(f"a conv operand needs a 4-D int8 input and 4-D weights, got {x!r}, {weight!r}")
    return _int_operand(x.data, x.quant.zero_point, _int_ftype(int(np.prod(weight.shape[1:]))), padding)


def conv2d_sums(
    x: Tensor, weight: Tensor, stride: int = 1, padding: int = 0, operand: np.ndarray | None = None
) -> np.ndarray:
    """The sums of `conv2d` before its bias, NCHW: float64 on the float path,
    int32 on the integer path (`_conv_accumulate`, `_conv_int`).  `operand`,
    integer path only, is `conv2d_operand(x, weight, padding)` kept by the
    caller, so the input is not padded and converted again."""
    if x.data.ndim != 4:
        raise ValueError(f"conv2d input must be 4-D NCHW, got {x.shape}")
    if weight.data.ndim != 4:
        raise ValueError(f"conv2d weight must be 4-D, got {weight.shape}")
    if x.shape[1] != weight.shape[1]:
        raise ValueError(f"channel mismatch: input has {x.shape[1]}, weight expects {weight.shape[1]}")
    if x.dtype == "f32" and weight.dtype == "f32":
        if operand is not None:
            raise ValueError("a kept conv operand is for the integer path only")
        with np.errstate(all="ignore"):  # Inf/NaN from corrupted params must flow through
            # products of f32 values are exact in f64; only the ordered f64 sums round
            return _conv_accumulate(x.data, weight.data, stride, padding)
    if x.dtype == "i8" and weight.dtype == "i8":
        if x.quant is None or weight.quant is None:
            raise ValueError("integer conv requires QuantParams on all operands")
        # subtracting the zero point first makes zero padding represent real 0
        return _conv_int(x.data, x.quant.zero_point, weight.data, stride, padding, operand)
    raise ValueError(f"unsupported conv dtype combination ({x.dtype}, {weight.dtype})")


def conv2d_finish(
    sums: np.ndarray, x: Tensor, weight: Tensor, bias: Tensor, out_quant: QuantParams | None = None
) -> Tensor:
    """`conv2d`'s output from its pre-bias `sums` (`conv2d_sums` of `x` and
    `weight`, or a slice of its channels) and `bias`, one element per
    channel of `sums`.  `sums` is only read, so a caller may keep it and
    finish it again with another bias.

    Float path: the f64 sums plus the bias, rounded once to f32.  Integer
    path: the bias added in int32, so a large (faulted) bias wraps around,
    then requantized to `out_quant` with round-to-nearest-even and
    saturation to [-128, 127] in one float64 buffer; the scale comes from
    `x` and `weight`.
    """
    if bias.shape != (sums.shape[1],):
        raise ValueError(f"bias shape {bias.shape} does not match {sums.shape[1]} filters")
    b = bias.data[None, :, None, None]
    if sums.dtype == np.float64:
        if bias.dtype != "f32":
            raise ValueError(f"f32 conv requires an f32 bias, got {bias.dtype}")
        out = np.empty(sums.shape, np.float32)
        with np.errstate(all="ignore"):
            # added in f64, then cast once into `out`: values beyond f32 range become Inf
            np.add(sums, b, out=out, casting="same_kind")
        return Tensor(out, "f32")
    if bias.dtype != "i32":
        raise ValueError(f"integer conv requires an i32 bias, got {bias.dtype}")
    if out_quant is None:
        raise ValueError("integer conv requires out_quant")
    m = (x.quant.scale * weight.quant.scale) / out_quant.scale
    q = np.multiply(sums + b, m, dtype=np.float64)
    np.rint(q, out=q)
    q += out_quant.zero_point
    np.clip(q, QMIN, QMAX, out=q)
    return Tensor(q.astype(np.int8), "i8", out_quant)


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor,
    stride: int = 1,
    padding: int = 0,
    out_quant: QuantParams | None = None,
) -> Tensor:
    """2-D convolution over NCHW input: `conv2d_finish` of `conv2d_sums`,
    bit for bit.

    Float path: f32 in, f32 out, accumulated in f64 and rounded once; a
    conv that `_blas_pays` for runs on BLAS (`_conv_f32`) to the same bits.
    Integer path: i8 input/weights with i32 bias; exact integer sums plus
    the bias in int32, then requantized to `out_quant`.
    """
    if x.dtype == weight.dtype == bias.dtype == "f32" and _blas_pays(x.shape, weight.shape, bias.shape,
                                                                      stride, padding):
        with np.errstate(all="ignore"):  # Inf/NaN from corrupted params must flow through
            return Tensor(_conv_f32(x.data, weight.data, bias.data, stride, padding), "f32")
    return conv2d_finish(conv2d_sums(x, weight, stride, padding), x, weight, bias, out_quant)


def _blas_pays(x_shape, w_shape, b_shape, stride: int, padding: int) -> bool:
    """Whether an f32 conv of these shapes is well formed and large enough
    for `_conv_f32`; any other goes to `conv2d_sums`, which raises what is
    wrong with it."""
    if len(x_shape) != 4 or len(w_shape) != 4 or x_shape[1] != w_shape[1] or b_shape != w_shape[:1] or stride < 1:
        return False
    oc, c, kh, kw = w_shape
    oh = (x_shape[2] + 2 * padding - kh) // stride + 1
    ow = (x_shape[3] + 2 * padding - kw) // stride + 1
    return c * kh * kw >= _BLAS_MIN_TAPS and oc * c * kh * kw * oh * ow >= _BLAS_MIN_MACS


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
    # x/6 + 0.5 lies in [0, 1] exactly where -3 <= x <= 3, so clipping it is
    # the piecewise form bit for bit, NaN payloads included, without the
    # data-dependent branches of np.where
    return np.clip(np.asarray(x) / np.float32(6) + np.float32(0.5), np.float32(0), np.float32(1))


_F32_ACTIVATIONS = {
    "relu": lambda x: np.maximum(np.float32(0), x),
    "sigmoid": expit,
    "hard_sigmoid": hard_sigmoid,
}
ACTIVATION_KINDS = tuple(_F32_ACTIVATIONS)


def activation_lut(kind: str, in_quant: QuantParams, out_quant: QuantParams) -> np.ndarray:
    """256-entry int8 lookup table for an activation, indexed by code + 128."""
    codes = np.arange(QMIN, QMAX + 1, dtype=np.int32)
    real = ((codes - in_quant.zero_point) * in_quant.scale).astype(np.float32)
    return quantize_affine(_F32_ACTIVATIONS[kind](real), out_quant)


def activation(
    x: Tensor, kind: str, out_quant: QuantParams | None = None, lut: np.ndarray | None = None
) -> Tensor:
    """Apply an activation function.

    The f32 path propagates NaN for every kind (corruption is the
    phenomenon under study, never masked).  The int8 path maps each input
    code to one of `out_quant`, which it requires, through a 256-entry
    lookup: `lut`, the caller's `activation_lut(kind, x.quant, out_quant)`,
    or one built here.
    """
    if kind not in ACTIVATION_KINDS:
        raise ValueError(f"unknown activation {kind!r}")
    if x.dtype == "f32":
        with np.errstate(all="ignore"):
            return Tensor(_F32_ACTIVATIONS[kind](x.data), "f32")
    if x.dtype == "i8":
        if out_quant is None:
            raise ValueError("int8 activation requires out_quant")
        if lut is None:
            lut = activation_lut(kind, x.quant, out_quant)
        return Tensor(lookup_codes(lut, x.data), "i8", out_quant)
    raise ValueError(f"activation not defined for dtype {x.dtype}")


def max_pool2(x: Tensor) -> Tensor:
    """2x2 max pooling, stride 2.  Spatial dims must be even.

    The maximum of each pair of rows, then of each pair of columns: two
    `np.maximum` passes over strided views.  A window holding a NaN gives
    NaN (`np.maximum`, never `np.fmax`); which NaN payload, and which zero
    sign where a window holds both +0.0 and -0.0, is not specified.
    """
    if x.data.ndim != 4:
        raise ValueError(f"max_pool2 input must be 4-D NCHW, got {x.shape}")
    h, w = x.shape[2:]
    if h % 2 or w % 2:
        raise ValueError(f"pooling needs even spatial dims, got {h}x{w}")
    rows = np.maximum(x.data[:, :, 0::2], x.data[:, :, 1::2])
    return Tensor(np.maximum(rows[..., 0::2], rows[..., 1::2]), x.dtype, x.quant)


def upsample2(x: Tensor) -> Tensor:
    """Nearest-neighbor 2x upsampling into a fresh array.

    `x` is written four times into one [n, c, h, 2, w, 2] buffer, once per
    (row, column) offset, so the output is the only allocation.  Each
    write reads `x`, never another slot of the buffer: numpy would copy
    an overlapping operand through a temporary.
    """
    if x.data.ndim != 4:
        raise ValueError(f"upsample2 input must be 4-D NCHW, got {x.shape}")
    n, c, h, w = x.shape
    out = np.empty((n, c, h, 2, w, 2), x.data.dtype)
    for i in (0, 1):
        for j in (0, 1):
            out[:, :, :, i, :, j] = x.data
    return Tensor(out.reshape(n, c, 2 * h, 2 * w), x.dtype, x.quant)


def concat_channels(parts, out_quant: QuantParams | None = None, luts=None) -> Tensor:
    """Channel-axis concatenation of one or more tensors, in the order given.

    int8 parts are requantized to `out_quant`, which the int8 path requires,
    through a 256-entry table each: its entry in `luts` (one per part), the
    caller's `requantize_lut(part.quant, out_quant)`, or one built here where
    the part's QuantParams differ from `out_quant`.
    """
    if not parts:
        raise ValueError("concat needs at least one input")
    if luts is not None and len(luts) != len(parts):
        raise ValueError(f"{len(luts)} lookup tables for {len(parts)} concat inputs")
    first = parts[0]
    for t in parts[1:]:
        if t.dtype != first.dtype:
            raise ValueError(f"dtype mismatch: {first.dtype} vs {t.dtype}")
        if t.shape[0] != first.shape[0] or t.shape[2:] != first.shape[2:]:
            raise ValueError(f"spatial shape mismatch: {first.shape} vs {t.shape}")
    if first.dtype != "i8":
        return Tensor(np.concatenate([t.data for t in parts], axis=1), first.dtype, first.quant)
    if out_quant is None:
        raise ValueError("int8 concat requires out_quant")
    data = []
    for t, lut in zip(parts, luts or (None,) * len(parts)):
        if lut is None and t.quant != out_quant:
            lut = requantize_lut(t.quant, out_quant)
        data.append(t.data if lut is None else lookup_codes(lut, t.data))
    return Tensor(np.concatenate(data, axis=1), "i8", out_quant)


def argmax_classes(logits: Tensor) -> np.ndarray:
    """Per-pixel argmax over the class axis of a [classes, H, W] tensor.

    Deterministic total order: NaN ranks below every finite and infinite
    value, ties break toward the lowest class index, and an all-NaN pixel
    yields class 0.  float32 and int8 logits are ranked by one loop: an
    int8 code is its own key, since one QuantParams per tensor makes code
    order value order.
    """
    v = logits.data
    if v.ndim != 3:
        raise ValueError(f"logits must be [classes, H, W], got {v.shape}")
    n_classes = v.shape[0]
    if n_classes == 0:
        raise ValueError("empty class dimension")

    key = np.fmax(v, np.float32(-np.inf)) if logits.dtype == "f32" else v  # NaN ranks as -inf
    top = key.max(axis=0)
    best = np.zeros(v.shape[1:], dtype=np.int32)
    for c in range(n_classes - 1, -1, -1):  # descending: the lowest tied class is written last
        np.copyto(best, c, where=key[c] == top)
    # where the maximum is -inf, a NaN keyed -inf may precede a real -inf:
    # the lowest non-NaN class wins there, class 0 if every class is NaN;
    # an integer key is never -inf
    low = top == -np.inf
    if low.any():
        best[low] = np.argmax(~np.isnan(v[:, low]), axis=0)
    return best
