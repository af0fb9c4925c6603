"""Bit-exact single-bit-upset injection and bit-level parameter analysis.

Each format's layout (sign, exponent and mantissa fields, or two's
complement) is its row of `seusim.tensor.FORMATS`.  `apply_fault` flips a
bit of a model in place until `revert` restores the original pattern exactly;
`channel_fault` builds the same fault as a value and leaves the model as
it was.  Both, and `flip_bit`, flip through one core, `_flip`, which
classifies a flip by its bit patterns alone (field, direction, and
whether the result is finite) and decodes no value: the flipped value is
the faulted tensor's element, or `flip_bit`'s result, as numpy reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import ModelGraph, ParamKind
from .tensor import FORMATS, Tensor

_F32_EXP = FORMATS["f32"].exponent
# float32 exponent bits excluding the MSB; all ones here with the MSB clear
# puts the magnitude in [1, 2), one flip away from Inf/NaN
PARTIAL_EXPONENT_BITS = range((_F32_EXP & -_F32_EXP).bit_length() - 1, _F32_EXP.bit_length() - 1)


class FaultStateError(RuntimeError):
    """Fault reverted twice, or before a later fault on its element."""


@dataclass(frozen=True)
class FaultLocation:
    layer_id: int
    kind: ParamKind
    index: int  # flat element index, row-major
    bit: int  # 0 = LSB


class FlipClassification(NamedTuple):
    """Immutable; a NamedTuple because one is built per flip, and a frozen
    dataclass costs several times as much to construct.  `_flip` builds it
    with `tuple.__new__`, which skips the NamedTuple's own `__new__`, a
    Python function that doubles the cost."""

    field: str  # sign | exponent | mantissa (float); sign | magnitude (int)
    direction: str  # zero_to_one | one_to_zero
    post_kind: str  # finite | infinite | nan


def _flip(raw: np.ndarray, index: int | tuple, bit: int, dtype: str) -> tuple[int, int, FlipClassification]:
    """Toggle `bit` of element `index` of `raw`, an unsigned view of a
    `dtype` tensor, in place; `index` is a flat index, or () for a 0-d view.
    Returns (pre_bits, post_bits, classification)."""
    _, _, width, exp, man = FORMATS[dtype]
    if not 0 <= bit < width:
        raise ValueError(f"bit {bit} out of range for {dtype}")
    pre = raw.item(index)
    mask = 1 << bit
    post = pre ^ mask
    raw[index] = post
    direction = "one_to_zero" if pre & mask else "zero_to_one"
    fld = "sign" if bit == width - 1 else "exponent" if mask & exp else "mantissa" if mask & man else "magnitude"
    if exp and post & exp == exp:  # an integer has no exponent to fill
        post_kind = "nan" if post & man else "infinite"
    else:
        post_kind = "finite"
    return pre, post, tuple.__new__(FlipClassification, (fld, direction, post_kind))


def flip_bit(value, dtype: str, bit: int):
    """Toggle one bit of a scalar's raw representation.

    Returns (new_value, FlipClassification).
    """
    # a 0-d array, never a Python float: that would quiet a signalling NaN
    fmt = FORMATS[dtype]
    cell = np.empty((), fmt.dtype)
    cell[()] = value
    _, _, cls = _flip(cell.view(fmt.raw), (), bit, dtype)
    return cell[()], cls


@dataclass
class FaultHandle:
    """Receipt for one applied fault; needed to revert it."""

    model: ModelGraph
    location: FaultLocation
    pre_bits: int
    post_bits: int
    classification: FlipClassification


def _locate(model: ModelGraph, loc: FaultLocation) -> Tensor:
    node = model.node(loc.layer_id)
    if loc.kind not in node.params:
        raise ValueError(f"layer {loc.layer_id} has no {loc.kind.value} parameter")
    t = node.params[loc.kind]
    if not 0 <= loc.index < t.size:
        raise ValueError(f"element index {loc.index} out of range ({t.size} elements)")
    return t


def apply_fault(model: ModelGraph, loc: FaultLocation) -> FaultHandle:
    """Flip one bit of one stored parameter element, in place, until `revert`;
    stacked faults restore bit-exactly in reverse order.  Campaigns do not
    write to the model: they build each fault as a value with `channel_fault`,
    and this in-place form is the reference that tests hold them to."""
    t = _locate(model, loc)
    return FaultHandle(model, loc, *_flip(t.raw_bits(), loc.index, loc.bit, t.dtype))


def revert(handle: FaultHandle) -> None:
    """Restore the element's bits from before the fault, exactly; an element
    that no longer holds the faulted bits (reverted, or faulted since) is a FaultStateError."""
    raw = _locate(handle.model, handle.location).raw_bits()
    if raw.item(handle.location.index) != handle.post_bits:
        raise FaultStateError("fault is not active: its element no longer holds the faulted bits")
    raw[handle.location.index] = handle.pre_bits


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
    """`loc` as a value for `seusim.model.faulted_changed_pixels`; `model` is only read."""
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
    frac_one_flip_from_filled: among those, the fraction whose exponent bits
    below its MSB hold exactly this one zero while the MSB is clear, so this
    single flip fills the partial exponent and lifts |x| into [1, 2).
    """
    if bit not in PARTIAL_EXPONENT_BITS:
        raise ValueError(f"bit must be in {PARTIAL_EXPONENT_BITS[0]}..{PARTIAL_EXPONENT_BITS[-1]}, got {bit}")
    if model.dtype_mode != "float32":
        raise ValueError("partial_exponent_census requires an f32 model")
    out = {}
    for lid, vals in _layer_f32_values(model):
        u = vals.view(FORMATS["f32"].raw)
        n = u.size
        n_zero = n - int(np.count_nonzero(u & (1 << bit)))
        # the exponent with its MSB and `bit` clear and every other bit set
        one_away = u & _F32_EXP == (_F32_EXP >> 1 & _F32_EXP) ^ (1 << bit)
        out[lid] = PartialExponentCensus(
            layer_id=lid,
            bit=bit,
            count=n,
            frac_zero_at_bit=n_zero / n,
            frac_one_flip_from_filled=(int(np.count_nonzero(one_away)) / n_zero) if n_zero else 0.0,
        )
    return out
