"""Model graphs, the forward executor, and deterministic generators.

A ModelGraph is an ordered DAG of layers whose parameter tensors form the
fault space.  Graphs are treated as immutable after construction except
for bit-level fault application (see seusim.inject).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING

import numpy as np

from .errormodel import probabilities
from .tensor import (
    ACTIVATION_KINDS,
    INT_CONV_MAX_TAPS,
    QuantParams,
    Tensor,
    activation,
    activation_lut,
    argmax_classes,
    batch_norm,
    concat_channels,
    conv2d,
    conv2d_finish,
    conv2d_operand,
    conv2d_sums,
    max_pool2,
    quantize_affine,
    requantize_lut,
    upsample2,
)

if TYPE_CHECKING:
    from .inject import ChannelFault

# in an int8 graph, the kinds whose output carries the node's own out_quant;
# the others carry their input's
REQUANT_KINDS = ("conv", "activation", "concat")


class ParamKind(enum.Enum):
    ConvWeight = "ConvWeight"
    ConvBias = "ConvBias"
    BNGamma = "BNGamma"
    BNBeta = "BNBeta"
    BNMean = "BNMean"
    BNVar = "BNVar"


# the format each parameter kind is stored in, by graph dtype mode; an int8
# graph holds conv parameters only.  Append only: a mode's position is its
# tag in model files (seusim.modelio).
DTYPE_MODES = {
    "float32": dict.fromkeys(ParamKind, "f32"),
    "int8": {ParamKind.ConvWeight: "i8", ParamKind.ConvBias: "i32"},
}

# BN running statistics are injectable but not part of the default campaign set
DEFAULT_CAMPAIGN_KINDS = frozenset(
    {ParamKind.ConvWeight, ParamKind.ConvBias, ParamKind.BNGamma, ParamKind.BNBeta}
)
ALL_PARAM_KINDS = frozenset(ParamKind)
# the parameters each layer kind reads; the other kinds read none
LAYER_PARAMS = {
    "conv": (ParamKind.ConvWeight, ParamKind.ConvBias),
    "batch_norm": (ParamKind.BNGamma, ParamKind.BNBeta, ParamKind.BNMean, ParamKind.BNVar),
}


@dataclass
class LayerNode:
    """One layer of the graph.  `inputs` lists producer ids; empty means
    the node consumes the model input."""

    id: int
    kind: str
    params: dict[ParamKind, Tensor] = field(default_factory=dict)
    inputs: list[int] = field(default_factory=list)
    stride: int = 1
    padding: int = 0
    act: str | None = None  # activation nodes
    eps: float = 1e-3  # batch_norm nodes
    out_quant: QuantParams | None = None  # int8 graphs


@dataclass
class ModelGraph:
    nodes: list[LayerNode]
    n_classes: int
    n_input_channels: int
    dtype_mode: str = "float32"
    input_quant: QuantParams | None = None
    meta: dict = field(default_factory=dict)

    def node(self, layer_id: int) -> LayerNode:
        if not 0 <= layer_id < len(self.nodes):
            raise ValueError(f"no layer {layer_id}")
        return self.nodes[layer_id]

    def copy(self) -> "ModelGraph":
        """Independent view with private parameter storage."""
        return replace(self, nodes=[
            replace(n, params={k: t.copy() for k, t in n.params.items()}) for n in self.nodes
        ])

    def bit_equal(self, other: "ModelGraph") -> bool:
        """Every field equal, parameters bit for bit, except `meta`: a JSON
        round trip turns its tuples into lists."""
        same = lambda a, b, skip: all(
            getattr(a, f.name) == getattr(b, f.name) for f in fields(a) if f.compare and f.name not in skip
        )
        return (
            len(self.nodes) == len(other.nodes)
            and same(self, other, ("nodes", "meta"))
            and all(
                same(a, b, ("params",))
                and a.params.keys() == b.params.keys()
                and all(t.bit_equal(b.params[k]) for k, t in a.params.items())
                for a, b in zip(self.nodes, other.nodes)
            )
        )


def out_channels(graph: ModelGraph, node: LayerNode) -> int:
    """Channel count produced by a node (independent of spatial size)."""
    if node.kind == "conv":
        return node.params[ParamKind.ConvWeight].shape[0]
    if node.kind == "concat":
        return sum(out_channels(graph, graph.node(i)) for i in node.inputs)
    src = node.inputs[0] if node.inputs else None
    if src is None:
        return graph.n_input_channels
    return out_channels(graph, graph.node(src))


def validate_model(graph: ModelGraph) -> None:
    """Structural checks: dense ids, topological inputs, the parameters each
    kind reads and no others, consistent shapes, known activations, conv
    strides >= 1, BN variances with var + eps > 0, int8 conv weights and
    biases with zero point 0 whose sums fit in int32 (`INT_CONV_MAX_TAPS`),
    and a known dtype mode whose formats (`DTYPE_MODES`) every parameter has."""
    stored = DTYPE_MODES.get(graph.dtype_mode)
    if stored is None:
        raise ValueError(f"unknown dtype mode {graph.dtype_mode!r}")
    for i, n in enumerate(graph.nodes):
        if n.id != i:
            raise ValueError(f"node ids must be dense ordinals, got {n.id} at {i}")
        if n.kind not in LAYER_KINDS:
            raise ValueError(f"unknown layer kind {n.kind!r}")
        expected = LAYER_PARAMS.get(n.kind, ())
        if set(n.params) != set(expected):
            raise ValueError(f"{n.kind} {i} must hold parameters {[k.value for k in expected]}, "
                             f"got {[k.value for k in n.params]}")
        for j in n.inputs:
            if not 0 <= j < i:
                raise ValueError(f"node {i} references non-earlier input {j}")
        n_in = len(n.inputs)
        if n.kind == "concat" and n_in < 2:
            raise ValueError("concat needs at least two inputs")
        if n.kind != "concat" and n_in > 1:
            raise ValueError(f"{n.kind} takes a single input")
        if n.kind == "activation" and n.act not in ACTIVATION_KINDS:
            raise ValueError(f"activation {i} has unknown function {n.act!r}")
        in_ch = graph.n_input_channels if n_in == 0 else out_channels(graph, graph.node(n.inputs[0]))
        if n.kind == "conv":
            if n.stride < 1:
                raise ValueError(f"conv {i} stride must be >= 1, got {n.stride}")
            w = n.params[ParamKind.ConvWeight]
            if w.data.ndim != 4 or w.shape[1] != in_ch:
                raise ValueError(f"conv {i} weight {w.shape} inconsistent with {in_ch} input channels")
            if n.params[ParamKind.ConvBias].shape != (w.shape[0],):
                raise ValueError(f"conv {i} bias inconsistent with {w.shape[0]} filters")
        if n.kind == "batch_norm":
            for k in LAYER_PARAMS["batch_norm"]:
                if n.params[k].shape != (in_ch,):
                    raise ValueError(f"batch_norm {i} {k.value} inconsistent with {in_ch} channels")
            if not (n.params[ParamKind.BNVar].data + np.float32(n.eps) > 0).all():  # NaN fails too
                raise ValueError(f"batch_norm {i} var + eps must be positive")
    last = graph.nodes[-1]
    if last.kind != "conv" or out_channels(graph, last) != graph.n_classes:
        raise ValueError("output node must be a conv producing n_classes channels")
    if graph.dtype_mode == "int8":
        if graph.input_quant is None:
            raise ValueError("int8 graph requires input QuantParams")
        for n in graph.nodes:
            if n.kind == "batch_norm":
                raise ValueError("int8 graph must not contain standalone batch_norm nodes")
            if n.kind in REQUANT_KINDS and n.out_quant is None:
                raise ValueError(f"int8 node {n.id} missing output QuantParams")
            for k, t in n.params.items():  # conv weights and biases: the int8 kernel assumes 0
                if t.quant is not None and t.quant.zero_point != 0:
                    raise ValueError(f"int8 conv {n.id} {k.value} zero point must be 0, got {t.quant.zero_point}")
            if n.kind == "conv":
                taps = int(np.prod(n.params[ParamKind.ConvWeight].shape[1:]))
                if taps > INT_CONV_MAX_TAPS:
                    raise ValueError(f"int8 conv {n.id} sums {taps} taps per output, more than the "
                                     f"{INT_CONV_MAX_TAPS} whose sums fit in int32")
    for n in graph.nodes:
        for k, t in n.params.items():
            if t.dtype != stored.get(k):
                raise ValueError(f"{n.kind} {n.id} {k.value} is {t.dtype}, but {graph.dtype_mode} graphs "
                                 f"store it as {stored.get(k)}")


# ---------------------------------------------------------------------------
# forward execution
# ---------------------------------------------------------------------------

def _prepare_input(graph: ModelGraph, x: Tensor) -> Tensor:
    v = x
    if v.data.ndim == 3:
        v = Tensor(v.data[None], v.dtype, v.quant)
    if v.data.ndim != 4 or v.shape[0] != 1:
        raise ValueError(f"expected a single [C, H, W] image, got {x.shape}")
    if v.shape[1] != graph.n_input_channels:
        raise ValueError(f"model expects {graph.n_input_channels} input channels, got {v.shape[1]}")
    if graph.dtype_mode == "int8" and v.dtype == "f32":
        v = Tensor(quantize_affine(v.data, graph.input_quant), "i8", graph.input_quant)
    return v


def _int8_tables(graph: ModelGraph, in_quant: QuantParams | None) -> dict:
    """The lookup tables of a forward of `graph` whose prepared input carries
    `in_quant`: per activation node its `activation_lut`, per concat node a
    tuple of one `requantize_lut` per input, None where the input's
    QuantParams are the target's already.  Empty for a float forward.  They
    depend on QuantParams alone, which no parameter fault changes."""
    if in_quant is None:
        return {}
    quant, tables = {}, {}
    for n in graph.nodes:
        src = [quant[i] for i in n.inputs] if n.inputs else [in_quant]
        out = quant[n.id] = n.out_quant if n.kind in REQUANT_KINDS else src[0]
        if out is None:
            break  # this node's kernel refuses to run, so no later node runs
        if n.kind == "activation":
            tables[n.id] = activation_lut(n.act, src[0], out)
        elif n.kind == "concat":
            tables[n.id] = tuple(None if q == out else requantize_lut(q, out) for q in src)
    return tables


def _conv(n: LayerNode, srcs: list[Tensor], _) -> Tensor:
    return conv2d(
        srcs[0],
        n.params[ParamKind.ConvWeight],
        n.params[ParamKind.ConvBias],
        stride=n.stride,
        padding=n.padding,
        out_quant=n.out_quant,
    )


def _batch_norm(n: LayerNode, srcs: list[Tensor], _) -> Tensor:
    p = n.params
    return batch_norm(
        srcs[0], p[ParamKind.BNGamma], p[ParamKind.BNBeta], p[ParamKind.BNMean], p[ParamKind.BNVar],
        eps=n.eps,
    )


# one entry per layer kind, called with the node, its inputs and its entry
# of `_int8_tables`; the kernels are looked up in this module's globals at
# call time, so a caller may rebind them (for tracing, say)
_KERNELS = {
    "conv": _conv,
    "batch_norm": _batch_norm,
    "activation": lambda n, srcs, lut: activation(srcs[0], n.act, out_quant=n.out_quant, lut=lut),
    "max_pool2": lambda n, srcs, _: max_pool2(srcs[0]),
    "upsample2": lambda n, srcs, _: upsample2(srcs[0]),
    "concat": lambda n, srcs, luts: concat_channels(srcs, out_quant=n.out_quant, luts=luts),
}
LAYER_KINDS = tuple(_KERNELS)


def _execute(nodes, v: Tensor, produced: dict[int, Tensor], tables: dict) -> dict[int, Tensor]:
    """Run `nodes` in order, reading inputs from `produced` (or `v`, the
    prepared model input) and storing each output there; `tables` is the
    forward's `_int8_tables`."""
    for n in nodes:
        kernel = _KERNELS.get(n.kind)
        if kernel is None:
            raise ValueError(f"unknown layer kind {n.kind!r}")
        produced[n.id] = kernel(n, [produced[i] for i in n.inputs] if n.inputs else [v], tables.get(n.id))
    return produced


def run_model_trace(graph: ModelGraph, x: Tensor) -> dict[int, Tensor]:
    """Execute the graph and keep every node's output (for calibration)."""
    v = _prepare_input(graph, x)
    return _execute(graph.nodes, v, {}, _int8_tables(graph, v.quant))


def _logits(out: Tensor) -> Tensor:
    return Tensor(out.data[0], out.dtype, out.quant)


def run_model(graph: ModelGraph, x: Tensor) -> Tensor:
    """Execute the graph on one image; returns logits as [n_classes, H, W].

    Deterministic: identical model bits and input always produce identical
    output bits.
    """
    return _logits(run_model_trace(graph, x)[graph.nodes[-1].id])


def predict_classes(graph: ModelGraph, x: Tensor) -> np.ndarray:
    """Class map [H, W] for one image."""
    return argmax_classes(run_model(graph, x))


# ---------------------------------------------------------------------------
# faulted forward: recompute only what one parameter fault can reach
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GoldenTrace:
    """Fault-free activations of a model on one input, shared read-only by
    every faulted forward of a campaign.

    `sums` holds the output conv's sums before its bias (`conv2d_sums`,
    [1, n_classes, H, W], float64 or int32), so a fault in one of its
    biases finishes one class channel from them instead of running a conv.
    A fault in output channel o changes only o's keys (f32 logits with NaN
    as -inf, or int8 codes as int32), so per class o the trace keeps
    `rival[o]`, the key o must exceed to take a pixel (the larger of the
    lower classes' best key and the next key below the higher classes'
    best, since a tie goes to the lowest class), `was_top[o]`, where o is
    the golden class (both [n_classes, H, W]), and `rival_neg_inf[o]`:
    whether `rival[o]` is -inf anywhere, where a NaN or -inf key of o needs
    `argmax_classes`' full ranking.

    On an int8 model the trace also keeps what no parameter fault changes,
    built once here instead of in every faulted forward: `tables`, the
    forward's lookup tables (`_int8_tables`), and `operands`, per conv node
    the zero-padded float operand of its golden input with the zero point
    subtracted (`conv2d_operand`), which every one-filter slice of that
    conv reads.  Both are empty on a float model.
    """

    x: Tensor  # prepared model input
    produced: dict[int, Tensor]
    sums: np.ndarray
    classes: np.ndarray
    rival: np.ndarray
    was_top: np.ndarray
    rival_neg_inf: np.ndarray
    tables: dict
    operands: dict[int, np.ndarray]


def _first_input(n: LayerNode, produced: dict[int, Tensor], x: Tensor) -> Tensor:
    """What node `n` reads first: a producer's output in `produced`, or `x`."""
    return produced[n.inputs[0]] if n.inputs else x


def _next_below(key: np.ndarray) -> np.ndarray:
    """`np.nextafter(key, -inf)` for float32 `key` without NaN, several times faster."""
    bits = key.view(np.int32)
    out = bits - 1  # a positive float's bits rise with its value
    out += (bits < 0) * np.int32(2)  # a negative float's, -0.0 too (by wrapping), with its magnitude
    np.copyto(out, np.iinfo(np.int32).min + 1, where=bits == 0)  # the negative subnormal below +0.0
    np.copyto(out, bits, where=key == -np.inf)
    return out.view(np.float32)


def golden_trace(graph: ModelGraph, x: Tensor) -> GoldenTrace:
    """Run the fault-free graph on `x` once, keeping what faulted forwards reuse."""
    v = _prepare_input(graph, x)
    tables = _int8_tables(graph, v.quant)
    *body, head = graph.nodes
    produced = _execute(body, v, {}, tables)
    src = _first_input(head, produced, v)
    weight, bias = head.params[ParamKind.ConvWeight], head.params[ParamKind.ConvBias]
    sums = conv2d_sums(src, weight, head.stride, head.padding)
    produced[head.id] = conv2d_finish(sums, src, weight, bias, head.out_quant)
    logits = _logits(produced[head.id])
    classes = argmax_classes(logits)
    if logits.dtype == "f32":
        key, floor = np.fmax(logits.data, np.float32(-np.inf)), -np.inf  # NaN ranks as -inf
        reach = _next_below(key)
    else:
        key, floor = logits.data.astype(np.int32), np.iinfo(np.int32).min
        reach = key - 1
    rival = np.full_like(key, floor)
    for o in range(1, graph.n_classes):  # the lower classes' best key, which o must exceed
        np.maximum(rival[o - 1], key[o - 1], out=rival[o])
    best = np.full_like(key[0], floor)
    for o in reversed(range(graph.n_classes - 1)):  # the higher classes' best key, which o must reach
        np.maximum(best, reach[o + 1], out=best)
        np.maximum(rival[o], best, out=rival[o])
    was_top = classes == np.arange(graph.n_classes)[:, None, None]
    operands = {} if v.dtype == "f32" else {
        n.id: conv2d_operand(_first_input(n, produced, v), n.params[ParamKind.ConvWeight], n.padding)
        for n in graph.nodes if n.kind == "conv"
    }
    return GoldenTrace(v, produced, sums, classes, rival, was_top, (rival == -np.inf).any(axis=(1, 2)),
                       tables, operands)


def _one_channel(n: LayerNode, fault: ChannelFault, golden: GoldenTrace) -> Tensor:
    """Output channel `fault.channel` of node `n` on golden inputs, computed by
    the node's own kernel on the faulted one-filter or one-channel slice; an
    int8 conv's from the operand `golden` keeps."""
    c = fault.channel
    src = _first_input(n, golden.produced, golden.x)
    if n.kind == "batch_norm":
        src = Tensor(src.data[:, c : c + 1], src.dtype, src.quant)
    params = {k: Tensor(t.data[c : c + 1], t.dtype, t.quant) for k, t in n.params.items()}
    params[fault.location.kind] = fault.param
    operand = golden.operands.get(n.id)
    if operand is None:
        return _KERNELS[n.kind](replace(n, params=params), [src], None)
    weight = params[ParamKind.ConvWeight]
    sums = conv2d_sums(src, weight, n.stride, n.padding, operand)
    return conv2d_finish(sums, src, weight, params[ParamKind.ConvBias], n.out_quant)


def descendants(graph: ModelGraph, layer_id: int) -> list[LayerNode]:
    """The nodes that read `layer_id`'s output, directly or through one
    another, in graph order: all that a change to that output can reach."""
    dirty = {layer_id}
    cone = []
    for n in graph.nodes[layer_id + 1 :]:
        if dirty.intersection(n.inputs):
            dirty.add(n.id)
            cone.append(n)
    return cone


def replay(graph: ModelGraph, golden: GoldenTrace, layer_id: int, output: Tensor) -> Tensor:
    """Logits [n_classes, H, W] of `graph` when node `layer_id` outputs
    `output` and its descendants read every other input from `golden`.
    `golden.produced` needs only the outputs they read from outside
    themselves, and the output node's if it is not one of them."""
    produced = {**golden.produced, layer_id: output}
    return _logits(_execute(descendants(graph, layer_id), golden.x, produced, golden.tables)[graph.nodes[-1].id])


def faulted_logits(graph: ModelGraph, golden: GoldenTrace, fault: ChannelFault) -> Tensor:
    """Logits [n_classes, H, W] of `graph` with `fault` (from
    `seusim.inject.channel_fault`) applied; `graph` itself is only read.

    The fault's channel is recomputed and spliced into a copy of its node's
    golden output; the node's descendants run in full and read every other
    input from `golden`.  Bit-identical to `run_model` on the graph with
    the fault applied in place: a channel's sums do not depend on the other
    filters, and a one-filter slice reduces over (c, i, j) in the same order.
    """
    layer_id = fault.location.layer_id
    base = golden.produced[layer_id]
    spliced = base.data.copy()
    spliced[:, fault.channel] = _one_channel(graph.node(layer_id), fault, golden).data[:, 0]
    return replay(graph, golden, layer_id, Tensor(spliced, base.dtype, base.quant))


def faulted_classes(graph: ModelGraph, golden: GoldenTrace, fault: ChannelFault) -> np.ndarray:
    """Class map [H, W] of `graph` with `fault` applied."""
    return argmax_classes(faulted_logits(graph, golden, fault))


def faulted_changed_pixels(graph: ModelGraph, golden: GoldenTrace, fault: ChannelFault) -> int:
    """The number of pixels whose class `fault` changes:
    `np.count_nonzero(faulted_classes(...) != golden.classes)`, exactly.

    A fault in output channel o changes only o's keys, so o takes a pixel
    where its key exceeds `golden.rival[o]`, and the pixel changes where
    that differs from `golden.was_top[o]`; no class map is built.  A bias
    fault there finishes the golden sums of that channel with the faulted
    bias instead of running the conv: the bias is added after the sums.
    """
    head = graph.nodes[-1]
    if fault.location.layer_id != head.id:
        return np.count_nonzero(faulted_classes(graph, golden, fault) != golden.classes)
    o = fault.channel
    if fault.location.kind is ParamKind.ConvBias:
        src = _first_input(head, golden.produced, golden.x)
        new = conv2d_finish(golden.sums[:, o : o + 1], src, head.params[ParamKind.ConvWeight],
                            fault.param, head.out_quant)
    else:
        new = _one_channel(head, fault, golden)
    new = new.data[0, 0]
    rival = golden.rival[o]
    changed = new > rival  # a NaN key, ranked as -inf, exceeds nothing
    changed ^= golden.was_top[o]
    if golden.rival_neg_inf[o]:
        # where o's key and its rival are both -inf, argmax_classes ranks NaN below -inf
        low = np.fmax(new, rival) == -np.inf
        if low.any():
            logits = golden.produced[head.id].data[0].copy()
            logits[o] = new
            changed[low] = argmax_classes(Tensor(logits, "f32"))[low] != golden.classes[low]
    return np.count_nonzero(changed)


# ---------------------------------------------------------------------------
# fault space
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FaultSpaceEntry:
    layer_id: int
    kind: ParamKind
    count: int
    bit_width: int

    @property
    def size(self) -> int:
        return self.count * self.bit_width


@dataclass
class FaultSpace:
    """Per-layer census of (element, bit) fault targets."""

    entries: list[FaultSpaceEntry]

    def layer_ids(self) -> list[int]:
        seen: dict[int, None] = {}
        for e in self.entries:
            seen.setdefault(e.layer_id, None)
        return list(seen)

    def layer_entries(self, layer_id: int) -> list[FaultSpaceEntry]:
        return [e for e in self.entries if e.layer_id == layer_id]

    def layer_total(self, layer_id: int) -> int:
        return sum(e.size for e in self.layer_entries(layer_id))

    def total(self) -> int:
        return sum(e.size for e in self.entries)


def enumerate_fault_space(
    graph: ModelGraph, included_kinds: frozenset[ParamKind] | set[ParamKind] = ALL_PARAM_KINDS
) -> FaultSpace:
    """List every injectable parameter group: counts times bit widths."""
    entries = []
    for n in graph.nodes:
        for kind in ParamKind:
            if kind in included_kinds and kind in n.params:
                t = n.params[kind]
                entries.append(FaultSpaceEntry(n.id, kind, t.size, t.bit_width))
    return FaultSpace(entries)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def _draw_conv(nodes, rng, in_ch, out_ch, k):
    """Append a k x k conv (pad same) fed by the last node, if any: its
    weights drawn first, then its biases; returns its id."""
    sigma = min(0.5, np.sqrt(2.0 / (in_ch * k * k)))  # keeps essentially all draws inside (-2, 2)
    nodes.append(
        LayerNode(
            id=len(nodes),
            kind="conv",
            params={
                ParamKind.ConvWeight: tensor32(rng.normal(0.0, sigma, (out_ch, in_ch, k, k))),
                ParamKind.ConvBias: tensor32(rng.normal(0.0, 0.1, out_ch)),
            },
            inputs=[nodes[-1].id] if nodes else [],
            padding=k // 2,
        )
    )
    return nodes[-1].id


def _conv_block(nodes, rng, in_ch, out_ch, act_kind, k=3):
    """conv(k x k, pad same) -> BN -> activation; returns id of the activation."""
    wid = _draw_conv(nodes, rng, in_ch, out_ch, k)
    nodes.append(
        LayerNode(
            id=wid + 1,
            kind="batch_norm",
            params={
                ParamKind.BNGamma: tensor32(rng.normal(1.0, 0.05, out_ch)),
                ParamKind.BNBeta: tensor32(rng.normal(0.0, 0.1, out_ch)),
                ParamKind.BNMean: tensor32(rng.normal(0.0, 0.1, out_ch)),
                ParamKind.BNVar: tensor32(np.abs(rng.normal(1.0, 0.05, out_ch))),
            },
            inputs=[wid],
        )
    )
    nodes.append(LayerNode(id=wid + 2, kind="activation", inputs=[wid + 1], act=act_kind))
    return wid + 2


def tensor32(values) -> Tensor:
    return Tensor(np.asarray(values, dtype=np.float32), "f32")


def build_unet(
    depth: int,
    base_channels: int,
    n_input_channels: int,
    n_classes: int,
    activation_kind: str = "relu",
    seed: int = 0,
) -> ModelGraph:
    """Encoder-decoder graph with skip concatenations.

    `depth` down/up stages around a bottleneck; channel width doubles per
    stage from `base_channels`; a final 1x1 conv maps to `n_classes`.
    Parameters are drawn from a fixed-seed generator with scales chosen so
    that the value-range census concentrates inside (-2, 2) and BN gammas
    sit near 1.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if base_channels < 1 or n_input_channels < 1 or n_classes < 1:
        raise ValueError("channel and class counts must be >= 1")
    rng = np.random.default_rng(seed)
    nodes: list[LayerNode] = []
    skips: list[int] = []

    ch = n_input_channels
    for d in range(depth):
        width = base_channels * (2 ** d)
        skips.append(_conv_block(nodes, rng, ch, width, activation_kind))
        nodes.append(LayerNode(id=len(nodes), kind="max_pool2", inputs=[nodes[-1].id]))
        ch = width

    width = base_channels * (2 ** depth)
    _conv_block(nodes, rng, ch, width, activation_kind)
    ch = width

    for d in reversed(range(depth)):
        width = base_channels * (2 ** d)
        nodes.append(LayerNode(id=len(nodes), kind="upsample2", inputs=[nodes[-1].id]))
        nodes.append(LayerNode(id=len(nodes), kind="concat", inputs=[nodes[-1].id, skips[d]]))
        _conv_block(nodes, rng, ch + width, width, activation_kind)
        ch = width

    _draw_conv(nodes, rng, ch, n_classes, 1)  # classifier head: 1x1 conv, no BN or activation
    graph = ModelGraph(
        nodes,
        n_classes=n_classes,
        n_input_channels=n_input_channels,
        meta={"generator": "unet", "depth": depth, "base_channels": base_channels,
              "activation": activation_kind, "seed": seed},
    )
    validate_model(graph)
    return graph


def synthetic_input(graph: ModelGraph, height: int, width: int, seed: int = 0) -> Tensor:
    """Seeded standard-normal f32 input matching the model's channel count."""
    depth = sum(1 for n in graph.nodes if n.kind == "max_pool2")
    step = 2 ** depth
    if height % step or width % step:
        raise ValueError(f"spatial dims must be multiples of {step} for this graph")
    rng = np.random.default_rng(seed)
    return tensor32(rng.normal(0.0, 1.0, (graph.n_input_channels, height, width)))


def _apportion(freqs: np.ndarray, total: int) -> np.ndarray:
    """Largest-remainder split of `total` pixels across classes."""
    raw = freqs * total
    counts = np.floor(raw).astype(np.int64)
    short = total - counts.sum()
    order = np.argsort(-(raw - counts), kind="stable")
    counts[order[:short]] += 1
    return counts


TEMPLATE_GAIN = 20.0  # template logits dominate realistic bias magnitudes


def build_bias_probe_model(
    bias_values,
    class_freqs,
    seed: int = 0,
    image_hw: tuple[int, int] = (64, 64),
) -> tuple[ModelGraph, Tensor]:
    """Model/input pair with engineered golden class frequencies.

    The input carries a one-hot spatial template scaled by TEMPLATE_GAIN;
    identity 1x1 convs pass it to the classifier head, whose biases equal
    `bias_values` bit-exactly.  The golden map then predicts class m on
    the fraction of pixels requested by `class_freqs`.
    """
    bias_values = np.array(bias_values, dtype=np.float32)  # a copy: the model owns its parameters
    freqs = probabilities(class_freqs, "class_freqs")
    if bias_values.shape != freqs.shape:
        raise ValueError("bias_values and class_freqs must be equal-length vectors")
    freqs = freqs / freqs.sum()  # absorb printed-rounding residue
    n = freqs.size
    h, w = image_hw

    counts = _apportion(freqs, h * w)
    rng = np.random.default_rng(seed)
    owner = np.repeat(np.arange(n), counts)
    rng.shuffle(owner)
    owner = owner.reshape(h, w)

    template = np.zeros((n, h, w), dtype=np.float32)
    for m in range(n):
        template[m][owner == m] = TEMPLATE_GAIN

    # a fresh identity per layer: layers sharing one buffer would share an in-place fault
    eye = lambda: tensor32(np.eye(n).reshape(n, n, 1, 1))
    nodes = [
        LayerNode(
            id=0,
            kind="conv",
            params={ParamKind.ConvWeight: eye(), ParamKind.ConvBias: tensor32(np.zeros(n))},
            inputs=[],
        ),
        LayerNode(id=1, kind="activation", inputs=[0], act="relu"),
        LayerNode(
            id=2,
            kind="conv",
            params={ParamKind.ConvWeight: eye(), ParamKind.ConvBias: Tensor(bias_values, "f32")},
            inputs=[1],
        ),
    ]
    graph = ModelGraph(
        nodes, n_classes=n, n_input_channels=n,
        meta={"generator": "bias_probe", "seed": seed},
    )
    validate_model(graph)
    return graph, tensor32(template)
