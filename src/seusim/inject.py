"""Bit-exact single-bit-upset injection and bit-level parameter analysis.

Float32 layout: bit 31 = sign, bits 30..23 = exponent, bits 22..0 =
mantissa.  Integers are two's complement.  `apply_fault` flips a bit of
a model in place until `revert` restores the original pattern exactly;
`channel_fault` builds the same fault as a value and leaves the model as
it was.  Both, and `flip_bit`, flip through one core, `_flip`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import ModelGraph, ParamKind
from .tensor import BIT_WIDTHS, DTYPES, RAW_VIEWS, Tensor

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


# (pre, post) bit patterns -> their float32 values, in one pack and unpack
_TWO_U32 = struct.Struct("<2I")
_TWO_F32 = struct.Struct("<2f")


def _flip(raw: np.ndarray, index: int, bit: int, dtype: str) -> tuple[int, int, FlipClassification]:
    """Toggle `bit` of element `index` of `raw`, an unsigned view of a
    `dtype` tensor, in place.  Returns (pre_bits, post_bits, classification)."""
    width = BIT_WIDTHS[dtype]
    if not 0 <= bit < width:
        raise ValueError(f"bit {bit} out of range for {dtype}")
    pre = raw.item(index)
    post = pre ^ (1 << bit)
    raw[index] = post
    direction = "one_to_zero" if pre >> bit & 1 else "zero_to_one"
    if dtype == "f32":
        fld = "sign" if bit == F32_SIGN_BIT else "exponent" if bit >= F32_EXP_LSB else "mantissa"
        if post >> F32_EXP_LSB & 0xFF == 0xFF:
            post_kind = "nan" if post & 0x7FFFFF else "infinite"
        else:
            post_kind = "finite"
        pre_value, post_value = _TWO_F32.unpack(_TWO_U32.pack(pre, post))
        return pre, post, FlipClassification(fld, direction, pre_value, post_value, post_kind)
    sign = 1 << (width - 1)  # two's complement: the sign bit weighs -2**(width - 1)
    fld = "sign" if bit == width - 1 else "magnitude"
    return pre, post, FlipClassification(
        fld, direction, float(pre - 2 * (pre & sign)), float(post - 2 * (post & sign)), "finite"
    )


def flip_bit(value, dtype: str, bit: int):
    """Toggle one bit of a scalar's raw representation.

    Returns (new_value, FlipClassification).
    """
    # a one-element array, never a Python float: that would quiet a signalling NaN
    cell = np.empty(1, DTYPES[dtype])
    cell[0] = value
    _, _, cls = _flip(cell.view(RAW_VIEWS[dtype]), 0, bit, dtype)
    return cell[0], cls


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
    return t


def apply_fault(model: ModelGraph, loc: FaultLocation) -> FaultHandle:
    """Flip one bit of one stored parameter element, in place, until `revert`.

    At most one fault may be active per model.  Campaigns do not write to
    the model: they build each fault as a value with `channel_fault`, and
    this in-place form is the reference that tests hold them to.
    """
    if model._active_fault is not None:
        raise FaultStateError("a fault is already active on this model view")
    t = _locate(model, loc)
    handle = FaultHandle(model, loc, *_flip(t.raw_bits(), loc.index, loc.bit, t.dtype))
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


class ChannelFault(NamedTuple):
    """A fault as a value: the output channel its element feeds, and a faulted
    copy of that channel's slice of the parameter (a conv filter or one element)."""

    location: FaultLocation
    channel: int
    param: Tensor
    pre_bits: int
    post_bits: int
    classification: FlipClassification


def channel_fault(model: ModelGraph, loc: FaultLocation) -> ChannelFault:
    """`loc` as a value for `seusim.model.faulted_classes`; `model` is only read."""
    t = _locate(model, loc)
    channel, offset = divmod(loc.index, t.size // t.shape[0])
    param = Tensor(t.data[channel : channel + 1].copy(), t.dtype, t.quant)
    return ChannelFault(loc, channel, param, *_flip(param.raw_bits(), offset, loc.bit, t.dtype))


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
