"""Model compression transforms: structured filter pruning, batch-norm
folding, and post-training 8-bit quantization.

All transforms are pure model -> model functions.  The supported pipeline
order is prune -> fold -> quantize; pruning and folding accept f32 models
only.  Each transform derives its nodes and graph from the source with
`dataclasses.replace`, so a derived node keeps every field its transform
does not name.

`sensitivity_sweep` scores each prune ratio without a whole forward pass
or a whole pruned model.  It ranks the layer's filters once and runs the
golden forward once per input.  Per distinct number of dropped filters
(ratios that drop as many keep the same filters, and dropping none is the
golden model) it derives only the layer's descendants, through the same
rewiring as `apply_prune`, and replays them once per input on the golden
outputs of everything else and the golden layer output's kept channels.
The values are bit-equal to `evaluate_model` on `apply_prune`'s model.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .metrics import confusion_matrix, giou_wiou_from_confusion
from .model import (
    REQUANT_KINDS,
    LayerNode,
    ModelGraph,
    ParamKind,
    descendants,
    golden_trace,
    out_channels,
    predict_classes,
    replay,
    run_model_trace,
    validate_model,
)
from .tensor import (
    QuantParams,
    Tensor,
    argmax_classes,
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


def kept_filters(weight: Tensor, ratio: float) -> np.ndarray:
    """Ascending indices of the filters that pruning `weight` at `ratio` keeps."""
    return np.sort(l1_filter_ranking(weight)[_filters_to_drop(ratio, weight.shape[0]) :])


def _rewire(model: ModelGraph, nodes, kept: dict[int, np.ndarray]) -> list[LayerNode]:
    """`nodes` of `model`, in order, derived for a prune that keeps, per node
    id in `kept`, those ascending output channels.  A conv not in `kept`
    keeps all its filters, and a node none of whose inputs is in `kept`
    keeps its parameters, the source's arrays; every other parameter is a
    new array.  Conv inputs and outputs and BN parameters are sliced, and a
    concat shifts each input's kept channels by that input's offset."""
    kept = dict(kept)
    derived = []
    for n in nodes:
        srcs = [kept.get(i) for i in n.inputs]  # None: every channel of that input
        chans = srcs[0] if srcs else None
        params = dict(n.params)
        if n.kind == "conv":
            out = kept.get(n.id)
            w, b = params[ParamKind.ConvWeight].data, params[ParamKind.ConvBias].data
            if out is not None:
                w, b = w[out], b[out]
            if chans is not None:
                w = w[:, chans]
            if out is not None or chans is not None:
                params = {ParamKind.ConvWeight: Tensor(w, "f32"), ParamKind.ConvBias: Tensor(b, "f32")}
            chans = out
        elif n.kind == "batch_norm" and chans is not None:
            params = {k: Tensor(t.data[chans], "f32") for k, t in params.items()}
        elif n.kind == "concat" and any(c is not None for c in srcs):
            widths = [out_channels(model, model.node(i)) for i in n.inputs]
            offsets = np.cumsum([0] + widths[:-1])
            chans = np.concatenate([(np.arange(w) if c is None else c) + o
                                    for c, w, o in zip(srcs, widths, offsets)])
        if chans is not None:
            kept[n.id] = chans
        derived.append(replace(n, params=params))
    return derived


def apply_prune(model: ModelGraph, plan: PruningPlan) -> ModelGraph:
    """Remove the lowest-L1 filters per conv layer and rewire consumers.

    Rankings come from the unmodified input model, which must be f32.
    Removed output channels propagate through BN, activations, pooling,
    upsampling, and concat skips (where channel offsets shift) into every
    consumer's input-channel axis.  Output class count never changes.
    The pruned model shares no array with `model`.
    """
    if model.dtype_mode != "float32":
        raise ValueError("apply_prune requires an f32 model")
    final_id = model.nodes[-1].id
    if plan.ratio(final_id) > 0:
        raise ValueError("the final classifier layer cannot be pruned")
    for lid in plan.ratios:
        if model.node(lid).kind != "conv":
            raise ValueError(f"layer {lid} is not a conv layer")

    kept = {}  # every conv, so that every parameter is sliced into a new array
    for n in model.nodes:
        if n.kind == "conv":
            w = n.params[ParamKind.ConvWeight]
            r = plan.ratio(n.id)
            kept[n.id] = kept_filters(w, r) if r else np.arange(w.shape[0])
    pruned = replace(model, nodes=_rewire(model, model.nodes, kept))
    validate_model(pruned)
    return pruned


@dataclass(frozen=True)
class SensitivityCurve:
    layer_id: int
    ratios: tuple[float, ...]
    giou_values: tuple[float, ...]


def _check_eval_set(inputs, labels) -> None:
    if len(inputs) != len(labels) or not inputs:
        raise ValueError("need matching, non-empty inputs and labels")


def _pooled_iou(labels, class_maps, n_classes: int) -> tuple[float, float]:
    """(GIoU, WIoU) of the confusion matrices summed over (label, class map) pairs."""
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    for y, classes in zip(labels, class_maps):
        cm += confusion_matrix(y, classes, n_classes)
    return giou_wiou_from_confusion(cm)


def evaluate_model(model: ModelGraph, inputs, labels) -> tuple[float, float]:
    """(GIoU, WIoU) pooled over an evaluation set."""
    _check_eval_set(inputs, labels)
    return _pooled_iou(labels, (predict_classes(model, x) for x in inputs), model.n_classes)


def _golden_reads(model: ModelGraph, x: Tensor, reads: set[int]):
    """`model`'s golden trace on `x`, keeping only the outputs of the nodes
    in `reads`; the rest of the trace is dropped on return."""
    golden = golden_trace(model, x)
    return replace(golden, produced={i: golden.produced[i] for i in reads})


def sensitivity_sweep(model: ModelGraph, inputs, labels, layer_id: int) -> SensitivityCurve:
    """GIoU at prune ratios 0.0..0.9 with only `layer_id` pruned.

    Each value equals `evaluate_model(apply_prune(model, PruningPlan({layer_id:
    r})), inputs, labels)[0]`, with `model` itself at ratio 0, but only the
    layer's descendants are recomputed.  The golden forward runs once per
    input and scores ratio 0.  In a pruned graph every node outside the
    layer's cone keeps its parameters, so its output is the golden one, and
    the layer's own output is the golden output's kept channels: a
    channel's sums do not depend on the other filters.  The layer is
    ranked once, and ratios that drop the same number of filters keep the
    same ones, so each distinct drop count is scored once.  A layer id that
    names no prunable conv is refused before any forward pass.
    """
    if model.dtype_mode != "float32":
        raise ValueError("sensitivity_sweep requires an f32 model")
    if model.node(layer_id).kind != "conv":
        raise ValueError(f"layer {layer_id} is not a conv layer")
    last = model.nodes[-1].id
    if layer_id == last:
        raise ValueError("the final classifier layer is excluded from pruning")
    _check_eval_set(inputs, labels)
    cone = descendants(model, layer_id)
    # what the cone reads from outside itself, and the output if it lies outside
    reads = ({layer_id, last} | {i for n in cone for i in n.inputs}) - {n.id for n in cone}
    giou = lambda class_maps: _pooled_iou(labels, class_maps, model.n_classes)[0]
    ranking = l1_filter_ranking(model.node(layer_id).params[ParamKind.ConvWeight])
    drops = [_filters_to_drop(r, ranking.size) for r in PRUNE_RATIOS]

    goldens = [_golden_reads(model, x, reads) for x in inputs]
    scores = {0: giou([golden.classes for golden in goldens])}  # GIoU per drop count
    for k in dict.fromkeys(drops):
        if k in scores:
            continue
        keep = np.sort(ranking[k:])
        nodes = list(model.nodes)  # the source's nodes with the cone's derived in place
        for n in _rewire(model, cone, {layer_id: keep}):
            nodes[n.id] = n
        pruned = replace(model, nodes=nodes)
        class_maps = []
        for golden in goldens:
            base = golden.produced[layer_id]
            kept = Tensor(base.data[:, keep], base.dtype, base.quant)
            class_maps.append(argmax_classes(replay(pruned, golden, layer_id, kept)))
        scores[k] = giou(class_maps)
    return SensitivityCurve(layer_id, PRUNE_RATIOS, tuple(scores[k] for k in drops))


def stopping_check(baseline: tuple[float, float], current: tuple[float, float]) -> str:
    """'stop' when either GIoU or WIoU degrades by more than 1.5 points."""
    for pair in (baseline, current):
        if not all(0.0 <= v <= 100.0 for v in pair):
            raise ValueError("metrics must be percentages in [0, 100]")
    g_loss = baseline[0] - current[0]
    w_loss = baseline[1] - current[1]
    return "stop" if g_loss > 1.5 or w_loss > 1.5 else "continue"


def _require_finite_params(model: ModelGraph) -> None:
    for n in model.nodes:
        for k, t in n.params.items():
            if not np.isfinite(t.data).all():
                raise ValueError(f"{n.kind} {n.id} {k.value} holds non-finite values")


def fold_batch_norm(model: ModelGraph) -> ModelGraph:
    """Absorb conv -> BN pairs into the conv weights and biases.  The other
    nodes keep their order, so folded node j is `model`'s j-th node that is
    not a batch_norm.  A parameter that is not finite is a ValueError naming
    its node."""
    if model.dtype_mode != "float32":
        raise ValueError("fold_batch_norm requires an f32 model")
    _require_finite_params(model)
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


def quantize_model(model: ModelGraph, calibration_inputs) -> ModelGraph:
    """Post-training per-tensor affine quantization of a folded f32 model.

    Weights go to symmetric int8 (zero_point 0), activations to int8 with
    min/max calibration, biases to int32 with scale = weight_scale *
    input_scale.  Pooling and upsampling reuse their producer's
    QuantParams; conv, activation, and concat outputs get their own.  A
    calibration input, parameter or calibrated output range that is not
    finite is a ValueError naming it.
    """
    if model.dtype_mode != "float32":
        raise ValueError("model is already quantized")
    if any(n.kind == "batch_norm" for n in model.nodes):
        raise ValueError("fold batch_norm before quantizing")
    calibration_inputs = list(calibration_inputs)
    if not calibration_inputs:
        raise ValueError("empty calibration set")
    for i, x in enumerate(calibration_inputs):
        if not np.isfinite(x.data).all():
            raise ValueError(f"calibration input {i} holds non-finite values")
    _require_finite_params(model)

    in_lo = min(float(x.data.min()) for x in calibration_inputs)
    in_hi = max(float(x.data.max()) for x in calibration_inputs)
    ranges: dict[int, tuple[float, float]] = {}
    for i, x in enumerate(calibration_inputs):
        for nid, out in run_model_trace(model, x).items():
            lo, hi = float(out.data.min()), float(out.data.max())
            if not np.isfinite([lo, hi]).all():  # checked per input: min and max drop a NaN operand
                raise ValueError(f"{model.node(nid).kind} {nid} output on calibration input {i} "
                                 f"spans [{lo}, {hi}], not a finite range")
            if nid in ranges:
                ranges[nid] = (min(ranges[nid][0], lo), max(ranges[nid][1], hi))
            else:
                ranges[nid] = (lo, hi)

    quantized = replace(model, nodes=[], dtype_mode="int8", input_quant=choose_affine_params(in_lo, in_hi))
    quant: dict[int, QuantParams] = {}  # node id -> the QuantParams its output carries
    for n in model.nodes:
        src_quant = quant[n.inputs[0]] if n.inputs else quantized.input_quant
        changes = {}
        if n.kind == "conv":
            w = n.params[ParamKind.ConvWeight]
            b = n.params[ParamKind.ConvBias]
            w_qp = choose_symmetric_scale(w.data)
            b_qp = QuantParams(w_qp.scale * src_quant.scale, 0)
            changes["params"] = {
                ParamKind.ConvWeight: Tensor(quantize_symmetric(w.data, w_qp), "i8", w_qp),
                ParamKind.ConvBias: Tensor(quantize_bias(b.data, b_qp), "i32", b_qp),
            }
        if n.kind in REQUANT_KINDS:
            changes["out_quant"] = choose_affine_params(*ranges[n.id])
        quant[n.id] = changes.get("out_quant", src_quant)
        quantized.nodes.append(replace(n, **changes))
    validate_model(quantized)
    return quantized
