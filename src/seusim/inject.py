"""Bit-exact single-bit-upset injection and bit-level parameter analysis.

Float32 layout: bit 31 = sign, bits 30..23 = exponent, bits 22..0 =
mantissa.  Integers are two's complement.  A fault is transient: apply,
run inference, revert; reverting restores the original bit pattern
exactly.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import ModelGraph, ParamKind
from .tensor import BIT_WIDTHS, Tensor

F32_SIGN_BIT = 31
F32_EXP_MSB = 30
F32_EXP_LSB = 23
# exponent bits excluding the MSB; all ones here with bit 30 clear puts
# the magnitude in [1, 2), one flip away from Inf/NaN
PARTIAL_EXPONENT_BITS = range(F32_EXP_LSB, F32_EXP_MSB)


class FaultStateError(RuntimeError):
    """Fault applied or reverted out of order."""


@dataclass(frozen=True)
class FaultLocation:
    layer_id: int
    kind: ParamKind
    index: int  # flat element index, row-major
    bit: int  # 0 = LSB


class FlipClassification(NamedTuple):
    """Immutable; a NamedTuple because one is built per flip, and a frozen
    dataclass costs several times as much to construct."""

    field: str  # sign | exponent | mantissa (f32); sign | magnitude (int)
    direction: str  # zero_to_one | one_to_zero
    pre_value: float
    post_value: float
    post_kind: str  # finite | infinite | nan


_F32 = struct.Struct("<f")
_U32 = struct.Struct("<I")
_F32_DTYPE = np.dtype(np.float32)  # frombuffer takes a dtype instance faster than a type


def _bits_to_f32(b: int) -> float:
    return _F32.unpack(_U32.pack(b))[0]


def _f32_bits(value) -> int:
    if type(value) is np.float32 and value == value:
        # float32 -> Python float -> float32 is exact for every non-NaN value
        return _U32.unpack(_F32.pack(value))[0]
    return int(np.asarray(value, dtype=np.float32).reshape(()).view(np.uint32))


def _classify_f32(pre_bits: int, post_bits: int, bit: int) -> FlipClassification:
    if bit == F32_SIGN_BIT:
        fld = "sign"
    elif bit >= F32_EXP_LSB:
        fld = "exponent"
    else:
        fld = "mantissa"
    direction = "zero_to_one" if (pre_bits >> bit) & 1 == 0 else "one_to_zero"
    exp = (post_bits >> F32_EXP_LSB) & 0xFF
    mant = post_bits & 0x7FFFFF
    if exp == 0xFF:
        post_kind = "nan" if mant else "infinite"
    else:
        post_kind = "finite"
    return FlipClassification(fld, direction, _bits_to_f32(pre_bits), _bits_to_f32(post_bits), post_kind)


def _classify_int(pre: int, post: int, bit: int, width: int) -> FlipClassification:
    fld = "sign" if bit == width - 1 else "magnitude"
    direction = "zero_to_one" if (pre >> bit) & 1 == 0 else "one_to_zero"
    half = 1 << (width - 1)
    full = 1 << width
    signed = lambda u: u - full if u >= half else u
    return FlipClassification(fld, direction, float(signed(pre)), float(signed(post)), "finite")


def flip_bit(value, dtype: str, bit: int):
    """Toggle one bit of a scalar's raw representation.

    Returns (new_value, FlipClassification).
    """
    width = BIT_WIDTHS[dtype]
    if not 0 <= bit < width:
        raise ValueError(f"bit {bit} out of range for {dtype}")
    if dtype == "f32":
        # NaNs stay in float32 representation: converting them through
        # Python floats would quiet signaling NaNs and break bit-exactness
        pre = _f32_bits(value)
        post = pre ^ (1 << bit)
        return np.frombuffer(_U32.pack(post), _F32_DTYPE)[0], _classify_f32(pre, post, bit)
    mask = (1 << width) - 1
    pre = int(value) & mask
    post = pre ^ (1 << bit)
    cls = _classify_int(pre, post, bit, width)
    return (np.int8 if dtype == "i8" else np.int32)(int(cls.post_value)), cls


@dataclass
class FaultHandle:
    """Receipt for one applied fault; needed to revert it."""

    model: ModelGraph
    location: FaultLocation
    pre_bits: int
    post_bits: int
    classification: FlipClassification
    active: bool = True


def _locate(model: ModelGraph, loc: FaultLocation) -> Tensor:
    node = model.node(loc.layer_id)
    if loc.kind not in node.params:
        raise ValueError(f"layer {loc.layer_id} has no {loc.kind.value} parameter")
    t = node.params[loc.kind]
    if not 0 <= loc.index < t.size:
        raise ValueError(f"element index {loc.index} out of range ({t.size} elements)")
    if not 0 <= loc.bit < t.bit_width:
        raise ValueError(f"bit {loc.bit} out of range for {t.dtype}")
    return t


def apply_fault(model: ModelGraph, loc: FaultLocation) -> FaultHandle:
    """Flip one bit of one stored parameter element, in place.

    At most one fault may be active per model view; use ModelGraph.copy()
    for concurrent campaigns.
    """
    if model._active_fault is not None:
        raise FaultStateError("a fault is already active on this model view")
    t = _locate(model, loc)
    raw = t.raw_bits()
    pre = int(raw[loc.index])
    raw[loc.index] = pre ^ (1 << loc.bit)
    post = int(raw[loc.index])
    if t.dtype == "f32":
        cls = _classify_f32(pre, post, loc.bit)
    else:
        cls = _classify_int(pre, post, loc.bit, t.bit_width)
    handle = FaultHandle(model, loc, pre, post, cls)
    model._active_fault = handle
    return handle


def revert(handle: FaultHandle) -> None:
    """Restore the original bit pattern exactly."""
    if not handle.active or handle.model._active_fault is not handle:
        raise FaultStateError("fault is not active")
    t = _locate(handle.model, handle.location)
    t.raw_bits()[handle.location.index] = handle.pre_bits
    handle.active = False
    handle.model._active_fault = None


# ---------------------------------------------------------------------------
# bit-level parameter censuses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RangeCensus:
    """Fractions of |x| in [0,1), [1,2), [2,inf); zeros counted in the
    first bucket and reported separately."""

    layer_id: int
    count: int
    frac_lt1: float
    frac_1to2: float
    frac_ge2: float
    frac_zero: float


def census_of_values(layer_id: int, values: np.ndarray) -> RangeCensus:
    a = np.abs(values.reshape(-1))
    n = a.size
    return RangeCensus(
        layer_id=layer_id,
        count=n,
        frac_lt1=float(np.count_nonzero(a < 1) / n),
        frac_1to2=float(np.count_nonzero((a >= 1) & (a < 2)) / n),
        frac_ge2=float(np.count_nonzero(a >= 2) / n),
        frac_zero=float(np.count_nonzero(a == 0) / n),
    )


def _layer_f32_values(model: ModelGraph):
    for node in model.nodes:
        vals = [t.data.reshape(-1) for t in node.params.values() if t.dtype == "f32"]
        if vals:
            yield node.id, np.concatenate(vals)


def value_range_census(model: ModelGraph) -> dict[int, RangeCensus]:
    """Per-layer value-range fractions over all f32 parameters."""
    if model.dtype_mode != "float32":
        raise ValueError("value_range_census requires an f32 model")
    return {lid: census_of_values(lid, vals) for lid, vals in _layer_f32_values(model)}


@dataclass(frozen=True)
class PartialExponentCensus:
    layer_id: int
    bit: int
    count: int
    frac_zero_at_bit: float
    frac_one_flip_from_filled: float


def partial_exponent_census(model: ModelGraph, bit: int) -> dict[int, PartialExponentCensus]:
    """How exposed each layer is to partial-exponent completion at `bit`.

    frac_zero_at_bit: parameters with a '0' at the given exponent bit.
    frac_one_flip_from_filled: among those, the fraction whose exponent
    bits 29..23 hold exactly one zero while bit 30 is clear, so this
    single flip fills the partial exponent and lifts |x| into [1, 2).
    """
    if bit not in PARTIAL_EXPONENT_BITS:
        raise ValueError(f"bit must be in 23..29, got {bit}")
    if model.dtype_mode != "float32":
        raise ValueError("partial_exponent_census requires an f32 model")
    out = {}
    for lid, vals in _layer_f32_values(model):
        u = vals.view(np.uint32)
        n = u.size
        zero_at_bit = (u >> np.uint32(bit)) & 1 == 0
        n_zero = int(np.count_nonzero(zero_at_bit))
        partial = (u >> np.uint32(F32_EXP_LSB)) & np.uint32(0x7F)
        ones = np.zeros(u.shape, dtype=np.int32)
        for k in range(7):
            ones += ((partial >> np.uint32(k)) & 1).astype(np.int32)
        msb_clear = (u >> np.uint32(F32_EXP_MSB)) & 1 == 0
        one_away = zero_at_bit & (ones == 6) & msb_clear
        out[lid] = PartialExponentCensus(
            layer_id=lid,
            bit=bit,
            count=n,
            frac_zero_at_bit=n_zero / n,
            frac_one_flip_from_filled=(int(np.count_nonzero(one_away)) / n_zero) if n_zero else 0.0,
        )
    return out
