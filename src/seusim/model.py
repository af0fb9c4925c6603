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

from .tensor import (
    QuantParams,
    Tensor,
    activation,
    argmax_classes,
    batch_norm,
    concat_channels,
    conv2d,
    max_pool2,
    quantize_affine,
    upsample2,
)

if TYPE_CHECKING:
    from .inject import ChannelFault

LAYER_KINDS = ("conv", "batch_norm", "max_pool2", "upsample2", "activation", "concat")


class ParamKind(enum.Enum):
    ConvWeight = "ConvWeight"
    ConvBias = "ConvBias"
    BNGamma = "BNGamma"
    BNBeta = "BNBeta"
    BNMean = "BNMean"
    BNVar = "BNVar"


# BN running statistics are injectable but not part of the default campaign set
DEFAULT_CAMPAIGN_KINDS = frozenset(
    {ParamKind.ConvWeight, ParamKind.ConvBias, ParamKind.BNGamma, ParamKind.BNBeta}
)
ALL_PARAM_KINDS = frozenset(ParamKind)


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
    # set by seusim.inject; never an __init__ argument, so a graph derived
    # with dataclasses.replace starts without the source's active fault
    _active_fault: object = field(default=None, init=False, repr=False, compare=False)

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
    """Structural checks: dense ids, topological inputs, consistent shapes,
    and BN variances with var + eps > 0."""
    for i, n in enumerate(graph.nodes):
        if n.id != i:
            raise ValueError(f"node ids must be dense ordinals, got {n.id} at {i}")
        if n.kind not in LAYER_KINDS:
            raise ValueError(f"unknown layer kind {n.kind!r}")
        for j in n.inputs:
            if not 0 <= j < i:
                raise ValueError(f"node {i} references non-earlier input {j}")
        n_in = len(n.inputs)
        if n.kind == "concat" and n_in < 2:
            raise ValueError("concat needs at least two inputs")
        if n.kind != "concat" and n_in > 1:
            raise ValueError(f"{n.kind} takes a single input")
        in_ch = graph.n_input_channels if n_in == 0 else out_channels(graph, graph.node(n.inputs[0]))
        if n.kind == "conv":
            w = n.params[ParamKind.ConvWeight]
            if w.data.ndim != 4 or w.shape[1] != in_ch:
                raise ValueError(f"conv {i} weight {w.shape} inconsistent with {in_ch} input channels")
            if n.params[ParamKind.ConvBias].shape != (w.shape[0],):
                raise ValueError(f"conv {i} bias inconsistent with {w.shape[0]} filters")
        if n.kind == "batch_norm":
            for k in (ParamKind.BNGamma, ParamKind.BNBeta, ParamKind.BNMean, ParamKind.BNVar):
                if n.params[k].shape != (in_ch,):
                    raise ValueError(f"batch_norm {i} {k.value} inconsistent with {in_ch} channels")
            if np.any(n.params[ParamKind.BNVar].data + np.float32(n.eps) <= 0):
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
            if n.kind in ("conv", "activation", "concat") and n.out_quant is None:
                raise ValueError(f"int8 node {n.id} missing output QuantParams")


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


def _conv(n: LayerNode, srcs: list[Tensor]) -> Tensor:
    return conv2d(
        srcs[0],
        n.params[ParamKind.ConvWeight],
        n.params[ParamKind.ConvBias],
        stride=n.stride,
        padding=n.padding,
        out_quant=n.out_quant,
    )


def _batch_norm(n: LayerNode, srcs: list[Tensor]) -> Tensor:
    p = n.params
    return batch_norm(
        srcs[0], p[ParamKind.BNGamma], p[ParamKind.BNBeta], p[ParamKind.BNMean], p[ParamKind.BNVar],
        eps=n.eps,
    )


def _concat(n: LayerNode, srcs: list[Tensor]) -> Tensor:
    out = srcs[0]
    for extra in srcs[1:]:
        out = concat_channels(out, extra, out_quant=n.out_quant)
    return out


# one entry per layer kind; the kernels are looked up in this module's
# globals at call time, so a caller may rebind them (for tracing, say)
_KERNELS = {
    "conv": _conv,
    "batch_norm": _batch_norm,
    "activation": lambda n, srcs: activation(srcs[0], n.act, out_quant=n.out_quant),
    "max_pool2": lambda n, srcs: max_pool2(srcs[0]),
    "upsample2": lambda n, srcs: upsample2(srcs[0]),
    "concat": _concat,
}


def _execute(nodes, v: Tensor, produced: dict[int, Tensor]) -> dict[int, Tensor]:
    """Run `nodes` in order, reading inputs from `produced` (or `v`, the
    prepared model input) and storing each output there."""
    for n in nodes:
        kernel = _KERNELS.get(n.kind)
        if kernel is None:
            raise ValueError(f"unknown layer kind {n.kind!r}")
        produced[n.id] = kernel(n, [produced[i] for i in n.inputs] if n.inputs else [v])
    return produced


def run_model_trace(graph: ModelGraph, x: Tensor) -> dict[int, Tensor]:
    """Execute the graph and keep every node's output (for calibration)."""
    return _execute(graph.nodes, _prepare_input(graph, x), {})


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

def _class_keys(v: np.ndarray) -> np.ndarray:
    """argmax_classes' ranking keys: NaN ranks as -inf, int8 codes as themselves."""
    return np.fmax(v, np.float32(-np.inf)) if v.dtype == np.float32 else v.astype(np.int32)


@dataclass(frozen=True)
class GoldenTrace:
    """Fault-free activations of a model on one input, shared read-only by
    every faulted forward of a campaign.

    `top` holds, per pixel, the largest class key (`k1`), the lowest class
    that reaches it (`c1`), and the same over the other classes (`k2`, `c2`).
    A fault in output channel o then only has to beat the best of the other
    classes, (k1, c1), or (k2, c2) where o is c1, instead of re-ranking
    every class.  It is None for a one-class model.
    """

    x: Tensor  # prepared model input
    produced: dict[int, Tensor]
    classes: np.ndarray
    top: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None


def golden_trace(graph: ModelGraph, x: Tensor) -> GoldenTrace:
    """Run the fault-free graph on `x` once, keeping what faulted forwards reuse."""
    v = _prepare_input(graph, x)
    produced = run_model_trace(graph, v)
    logits = _logits(produced[graph.nodes[-1].id])
    top = None
    if graph.n_classes > 1:
        key = _class_keys(logits.data)
        c1 = np.argmax(key, axis=0)  # keys hold no NaN, so the first maximum: the lowest class
        k1 = np.take_along_axis(key, c1[None], axis=0)[0]
        floor = -np.inf if key.dtype == np.float32 else np.iinfo(np.int32).min
        rest = key.copy()
        np.put_along_axis(rest, c1[None], floor, axis=0)
        c2 = np.argmax(rest, axis=0)
        k2 = np.take_along_axis(rest, c2[None], axis=0)[0]
        top = (k1, c1.astype(np.int32), k2, c2.astype(np.int32))
    return GoldenTrace(v, produced, argmax_classes(logits), top)


def _one_channel(n: LayerNode, fault: ChannelFault, golden: GoldenTrace) -> Tensor:
    """Output channel `fault.channel` of node `n` on golden inputs, computed by
    the node's own kernel on the faulted one-filter or one-channel slice."""
    c = fault.channel
    src = golden.produced[n.inputs[0]] if n.inputs else golden.x
    if n.kind == "batch_norm":
        src = Tensor(src.data[:, c : c + 1], src.dtype, src.quant)
    params = {k: Tensor(t.data[c : c + 1], t.dtype, t.quant) for k, t in n.params.items()}
    params[fault.location.kind] = fault.param
    return _KERNELS[n.kind](replace(n, params=params), [src])


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
    produced = dict(golden.produced)
    produced[layer_id] = Tensor(spliced, base.dtype, base.quant)
    dirty = {layer_id}
    cone = []
    for n in graph.nodes[layer_id + 1 :]:
        if dirty.intersection(n.inputs):
            dirty.add(n.id)
            cone.append(n)
    return _logits(_execute(cone, golden.x, produced)[graph.nodes[-1].id])


def faulted_classes(graph: ModelGraph, golden: GoldenTrace, fault: ChannelFault) -> np.ndarray:
    """`argmax_classes(faulted_logits(...))`, bit for bit.

    A fault in the output node changes one class channel only; it is then
    ranked against the golden top two keys instead of every class.
    """
    last = graph.nodes[-1].id
    if fault.location.layer_id != last or golden.top is None:
        return argmax_classes(faulted_logits(graph, golden, fault))
    channel = fault.channel
    new = _one_channel(graph.node(last), fault, golden).data[0, 0]
    key = _class_keys(new)
    k1, c1, k2, c2 = golden.top
    was_top = c1 == channel
    rival = np.where(was_top, k2, k1)  # best key over the other classes
    holder = np.where(was_top, c2, c1)  # lowest class holding it
    wins = (key > rival) | ((key == rival) & (channel < holder))
    classes = np.where(wins, np.int32(channel), holder)
    if new.dtype == np.float32:
        # where every key is -inf, argmax_classes ranks NaN below -inf
        low = np.maximum(key, rival) == -np.inf
        if low.any():
            logits = golden.produced[last].data[0].copy()
            logits[channel] = new
            classes[low] = argmax_classes(Tensor(logits, "f32"))[low]
    return classes


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

def _conv_block(nodes, rng, in_ch, out_ch, act_kind, k=3):
    """conv(k x k, pad same) -> BN -> activation; returns id of the activation."""
    fan_in = in_ch * k * k
    sigma = min(0.5, np.sqrt(2.0 / fan_in))  # keeps essentially all draws inside (-2, 2)
    wid = len(nodes)
    prev = [nodes[-1].id] if nodes else []
    nodes.append(
        LayerNode(
            id=wid,
            kind="conv",
            params={
                ParamKind.ConvWeight: tensor32(rng.normal(0.0, sigma, (out_ch, in_ch, k, k))),
                ParamKind.ConvBias: tensor32(rng.normal(0.0, 0.1, out_ch)),
            },
            inputs=prev,
            padding=k // 2,
        )
    )
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

    # classifier head: 1x1 conv, no BN or activation
    fan_in = ch
    sigma = min(0.5, np.sqrt(2.0 / fan_in))
    nodes.append(
        LayerNode(
            id=len(nodes),
            kind="conv",
            params={
                ParamKind.ConvWeight: tensor32(rng.normal(0.0, sigma, (n_classes, ch, 1, 1))),
                ParamKind.ConvBias: tensor32(rng.normal(0.0, 0.1, n_classes)),
            },
            inputs=[nodes[-1].id],
        )
    )
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
    bias_values = np.asarray(bias_values, dtype=np.float32)
    freqs = np.asarray(class_freqs, dtype=np.float64)
    if bias_values.shape != freqs.shape or freqs.ndim != 1:
        raise ValueError("bias_values and class_freqs must be equal-length vectors")
    if np.any(freqs < 0):
        raise ValueError("infeasible frequencies: negative entries")
    if abs(freqs.sum() - 1.0) > 1e-3:
        raise ValueError(f"frequencies must sum to 1, got {freqs.sum()}")
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

    eye = np.eye(n, dtype=np.float32).reshape(n, n, 1, 1)
    nodes = [
        LayerNode(
            id=0,
            kind="conv",
            params={ParamKind.ConvWeight: tensor32(eye), ParamKind.ConvBias: tensor32(np.zeros(n))},
            inputs=[],
        ),
        LayerNode(id=1, kind="activation", inputs=[0], act="relu"),
        LayerNode(
            id=2,
            kind="conv",
            params={ParamKind.ConvWeight: tensor32(eye), ParamKind.ConvBias: Tensor(bias_values, "f32")},
            inputs=[1],
        ),
    ]
    graph = ModelGraph(
        nodes, n_classes=n, n_input_channels=n,
        meta={"generator": "bias_probe", "seed": seed},
    )
    validate_model(graph)
    return graph, tensor32(template)
