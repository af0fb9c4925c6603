"""Model compression transforms: structured filter pruning, batch-norm
folding, and post-training 8-bit quantization.

All transforms are pure model -> model functions.  The supported pipeline
order is prune -> fold -> quantize; pruning and folding accept f32 models
only.  Each transform derives its nodes and graph from the source with
`dataclasses.replace`, so a derived node keeps every field its transform
does not name.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .metrics import confusion_matrix, giou_wiou_from_confusion
from .model import (
    LayerNode,
    ModelGraph,
    ParamKind,
    out_channels,
    predict_classes,
    run_model_trace,
    validate_model,
)
from .tensor import (
    QuantParams,
    Tensor,
    choose_affine_params,
    choose_symmetric_scale,
    quantize_bias,
    quantize_symmetric,
)

PRUNE_RATIOS = tuple(round(r * 0.1, 1) for r in range(10))  # 0.0 .. 0.9


def l1_filter_ranking(weight: Tensor) -> np.ndarray:
    """Filter indices ordered by ascending L1 norm; ties keep lower index."""
    w = weight.data
    if w.ndim != 4:
        raise ValueError(f"expected a 4-D conv weight, got shape {weight.shape}")
    norms = np.abs(w.astype(np.float64)).reshape(w.shape[0], -1).sum(axis=1)
    return np.argsort(norms, kind="stable")


@dataclass(frozen=True)
class PruningPlan:
    """Per-layer prune ratios.  The final classifier layer must stay at 0
    so the class count is preserved."""

    ratios: dict[int, float]

    def __post_init__(self):
        for lid, r in self.ratios.items():
            if not 0.0 <= r <= 0.9:
                raise ValueError(f"ratio {r} for layer {lid} outside [0, 0.9]")

    def ratio(self, layer_id: int) -> float:
        return self.ratios.get(layer_id, 0.0)


def _filters_to_drop(ratio: float, n_filters: int) -> int:
    # +1e-9 guards the floor against float artifacts like 0.3*10 = 2.999...
    k = int(np.floor(ratio * n_filters + 1e-9))
    if n_filters - k < 1:
        raise ValueError(f"ratio {ratio} would leave no filters out of {n_filters}")
    return k


def apply_prune(model: ModelGraph, plan: PruningPlan) -> ModelGraph:
    """Remove the lowest-L1 filters per conv layer and rewire consumers.

    Rankings come from the unmodified input model, which must be f32.
    Removed output channels propagate through BN, activations, pooling,
    upsampling, and concat skips (where channel offsets shift) into every
    consumer's input-channel axis.  Output class count never changes.
    """
    if model.dtype_mode != "float32":
        raise ValueError("apply_prune requires an f32 model")
    final_id = model.nodes[-1].id
    if plan.ratio(final_id) > 0:
        raise ValueError("the final classifier layer cannot be pruned")
    for lid in plan.ratios:
        if model.node(lid).kind != "conv":
            raise ValueError(f"layer {lid} is not a conv layer")

    kept: dict[int, np.ndarray] = {}  # node id -> its kept output channels
    nodes: list[LayerNode] = []
    for n in model.nodes:
        chans = kept[n.inputs[0]] if n.inputs else np.arange(model.n_input_channels)
        params = {}
        if n.kind == "conv":
            w = n.params[ParamKind.ConvWeight]
            keep = np.sort(l1_filter_ranking(w)[_filters_to_drop(plan.ratio(n.id), w.shape[0]) :])
            params = {
                ParamKind.ConvWeight: Tensor(w.data[keep][:, chans], "f32"),
                ParamKind.ConvBias: Tensor(n.params[ParamKind.ConvBias].data[keep], "f32"),
            }
            chans = keep
        elif n.kind == "batch_norm":
            params = {k: Tensor(t.data[chans], "f32") for k, t in n.params.items()}
        elif n.kind == "concat":
            widths = [out_channels(model, model.node(src)) for src in n.inputs]
            offsets = np.cumsum([0] + widths[:-1])
            chans = np.concatenate([kept[src] + o for src, o in zip(n.inputs, offsets)])
        kept[n.id] = chans
        nodes.append(replace(n, params=params))

    pruned = replace(model, nodes=nodes)
    validate_model(pruned)
    return pruned


@dataclass(frozen=True)
class SensitivityCurve:
    layer_id: int
    ratios: tuple[float, ...]
    giou_values: tuple[float, ...]


def evaluate_model(model: ModelGraph, inputs, labels) -> tuple[float, float]:
    """(GIoU, WIoU) pooled over an evaluation set."""
    if len(inputs) != len(labels) or not inputs:
        raise ValueError("need matching, non-empty inputs and labels")
    cm = np.zeros((model.n_classes, model.n_classes), dtype=np.int64)
    for x, y in zip(inputs, labels):
        cm += confusion_matrix(y, predict_classes(model, x), model.n_classes)
    return giou_wiou_from_confusion(cm)


def sensitivity_sweep(model: ModelGraph, inputs, labels, layer_id: int) -> SensitivityCurve:
    """GIoU at prune ratios 0.0..0.9 with only `layer_id` pruned."""
    if layer_id == model.nodes[-1].id:
        raise ValueError("the final classifier layer is excluded from pruning")
    values = []
    for r in PRUNE_RATIOS:
        pruned = apply_prune(model, PruningPlan({layer_id: r})) if r else model
        values.append(evaluate_model(pruned, inputs, labels)[0])
    return SensitivityCurve(layer_id, PRUNE_RATIOS, tuple(values))


def stopping_check(baseline: tuple[float, float], current: tuple[float, float]) -> str:
    """'stop' when either GIoU or WIoU degrades by more than 1.5 points."""
    for pair in (baseline, current):
        if not all(0.0 <= v <= 100.0 for v in pair):
            raise ValueError("metrics must be percentages in [0, 100]")
    g_loss = baseline[0] - current[0]
    w_loss = baseline[1] - current[1]
    return "stop" if g_loss > 1.5 or w_loss > 1.5 else "continue"


def fold_batch_norm(model: ModelGraph) -> ModelGraph:
    """Absorb conv -> BN pairs into the conv weights and biases."""
    if model.dtype_mode != "float32":
        raise ValueError("fold_batch_norm requires an f32 model")
    consumers: dict[int, list[int]] = {n.id: [] for n in model.nodes}
    for n in model.nodes:
        for src in n.inputs:
            consumers[src].append(n.id)

    bn_of: dict[int, LayerNode] = {}  # conv id -> the batch_norm it feeds
    for n in model.nodes:
        if n.kind != "batch_norm":
            continue
        if not n.inputs or model.node(n.inputs[0]).kind != "conv":
            raise ValueError(f"batch_norm {n.id} is not fed by a conv layer")
        if consumers[n.inputs[0]] != [n.id]:
            raise ValueError(f"conv {n.inputs[0]} has consumers besides its batch_norm")
        bn_of[n.inputs[0]] = n

    new_id: dict[int, int] = {}  # a batch_norm maps to its conv's new id
    nodes: list[LayerNode] = []
    for n in model.nodes:
        if n.kind == "batch_norm":
            new_id[n.id] = new_id[n.inputs[0]]
            continue
        new_id[n.id] = len(nodes)
        if n.id in bn_of:
            params = _folded_conv_params(n, bn_of[n.id])
        else:
            params = {k: t.copy() for k, t in n.params.items()}
        nodes.append(replace(n, id=len(nodes), params=params, inputs=[new_id[i] for i in n.inputs]))
    folded = replace(model, nodes=nodes, dtype_mode="float32", input_quant=None)
    validate_model(folded)
    return folded


def _folded_conv_params(conv: LayerNode, bn: LayerNode) -> dict[ParamKind, Tensor]:
    g = bn.params[ParamKind.BNGamma].data.astype(np.float64)
    beta = bn.params[ParamKind.BNBeta].data.astype(np.float64)
    mean = bn.params[ParamKind.BNMean].data.astype(np.float64)
    var = bn.params[ParamKind.BNVar].data.astype(np.float64)
    scale = g / np.sqrt(var + bn.eps)
    w = conv.params[ParamKind.ConvWeight].data.astype(np.float64) * scale[:, None, None, None]
    b = (conv.params[ParamKind.ConvBias].data.astype(np.float64) - mean) * scale + beta
    return {
        ParamKind.ConvWeight: Tensor(w.astype(np.float32), "f32"),
        ParamKind.ConvBias: Tensor(b.astype(np.float32), "f32"),
    }


def _resolve_quant(graph: ModelGraph, node_id: int | None) -> QuantParams:
    """QuantParams carried by a producer's output at execution time."""
    if node_id is None:
        return graph.input_quant
    n = graph.node(node_id)
    if n.out_quant is not None:
        return n.out_quant
    return _resolve_quant(graph, n.inputs[0] if n.inputs else None)


def quantize_model(model: ModelGraph, calibration_inputs) -> ModelGraph:
    """Post-training per-tensor affine quantization of a folded f32 model.

    Weights go to symmetric int8 (zero_point 0), activations to int8 with
    min/max calibration, biases to int32 with scale = weight_scale *
    input_scale.  Pooling and upsampling reuse their producer's
    QuantParams; conv, activation, and concat outputs get their own.
    """
    if model.dtype_mode != "float32":
        raise ValueError("model is already quantized")
    if any(n.kind == "batch_norm" for n in model.nodes):
        raise ValueError("fold batch_norm before quantizing")
    calibration_inputs = list(calibration_inputs)
    if not calibration_inputs:
        raise ValueError("empty calibration set")

    in_lo = min(float(x.data.min()) for x in calibration_inputs)
    in_hi = max(float(x.data.max()) for x in calibration_inputs)
    ranges: dict[int, tuple[float, float]] = {}
    for x in calibration_inputs:
        for nid, out in run_model_trace(model, x).items():
            lo, hi = float(out.data.min()), float(out.data.max())
            if nid in ranges:
                ranges[nid] = (min(ranges[nid][0], lo), max(ranges[nid][1], hi))
            else:
                ranges[nid] = (lo, hi)

    quantized = replace(model, nodes=[], dtype_mode="int8", input_quant=choose_affine_params(in_lo, in_hi))
    for n in model.nodes:
        changes = {}
        if n.kind == "conv":
            in_quant = _resolve_quant(quantized, n.inputs[0] if n.inputs else None)
            w = n.params[ParamKind.ConvWeight]
            b = n.params[ParamKind.ConvBias]
            w_qp = choose_symmetric_scale(w.data)
            b_qp = QuantParams(w_qp.scale * in_quant.scale, 0)
            changes["params"] = {
                ParamKind.ConvWeight: Tensor(quantize_symmetric(w.data, w_qp), "i8", w_qp),
                ParamKind.ConvBias: Tensor(quantize_bias(b.data, b_qp), "i32", b_qp),
            }
        if n.kind in ("conv", "activation", "concat"):
            changes["out_quant"] = choose_affine_params(*ranges[n.id])
        quantized.nodes.append(replace(n, **changes))
    validate_model(quantized)
    return quantized
