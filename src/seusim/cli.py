"""Command-line front door.

Subcommands: gen, plan, run, predict, compare, prune, quantize, census.
Every file-producing command returns what it wrote, and `main` writes its
manifest (`FILE.manifest.json` for `--out FILE`) with content digests so
outputs are reproducible from (config, seed, model hash).

Exit codes: 0 success, 1 usage, 2 data/validation, 3 internal, 130 interrupted.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from contextlib import closing
from dataclasses import astuple, fields, replace
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__, campaign as camp, compress, errormodel, inject, model as zoo
from .modelio import ModelFormatError, load_model, model_digest, save_model
from .tensor import ACTIVATION_KINDS, Tensor

ENV_OUT_DIR = "SEUSIM_OUT_DIR"


def _positive_int(text: str) -> int:
    v = int(text)
    if v < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return v


def _non_negative_int(text: str) -> int:
    v = int(text)
    if v < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text}")
    return v


def _non_negative_float(text: str) -> float:
    v = float(text)
    if not 0 <= v < float("inf"):  # NaN fails both comparisons
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text}")
    return v


def _bit_position(text: str) -> int:
    v = int(text)
    if not 0 <= v <= 31:  # the bits of a 32-bit bias
        raise argparse.ArgumentTypeError(f"must be a bit position in 0..31, got {text}")
    return v


def _float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip() != ""]


def _out_dir(args) -> Path:
    d = Path(getattr(args, "out_dir", None) or os.environ.get(ENV_OUT_DIR) or ".")
    d.mkdir(parents=True, exist_ok=True)
    return d


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(command: str, started: float, outputs: list[Path], manifest: Path | None = None,
                    config: dict | None = None, model_hash: str | None = None,
                    seed: int | None = None) -> None:
    """The manifest of one command's `outputs`, at `manifest` or, by
    default, next to the first output as `<its name>.manifest.json`."""
    path = manifest or outputs[0].with_name(outputs[0].name + ".manifest.json")
    doc = {
        "tool": "seusim",
        "version": __version__,
        "command": command,
        "config": config or {},
        "model_sha256": model_hash,
        "seed": seed,
        "started": datetime.fromtimestamp(started, tz=timezone.utc).isoformat(),
        "elapsed_seconds": round(time.time() - started, 3),
        "outputs": [
            {"path": p.name, "sha256": _sha256(p), "bytes": p.stat().st_size} for p in outputs
        ],
    }
    path.write_text(json.dumps(doc, indent=2) + "\n")


def _print_fault_space(graph) -> None:
    space = zoo.enumerate_fault_space(graph, zoo.DEFAULT_CAMPAIGN_KINDS)
    print("layer  fault_space_N")
    for lid in space.layer_ids():
        print(f"{lid:>5}  {space.layer_total(lid)}")
    print(f"total  {space.total()}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gen(args) -> dict:
    graph = zoo.build_unet(
        depth=args.depth,
        base_channels=args.base_channels,
        n_input_channels=args.in_channels,
        n_classes=args.classes,
        activation_kind=args.activation,
        seed=args.seed,
    )
    out = Path(args.out)
    save_model(graph, out)
    print(f"wrote {out} ({out.stat().st_size} bytes, sha256 {_sha256(out)[:16]}...)")
    _print_fault_space(graph)
    return {"outputs": [out], "config": vars_without(args, "func"), "model_hash": model_digest(graph),
            "seed": args.seed}


def vars_without(args, *skip) -> dict:
    return {k: v for k, v in vars(args).items() if k not in skip and not callable(v)}


def _load_array(path: str, what: str, axes: str, kinds: str, items: str) -> np.ndarray:
    """The array of a .npy file; a file holding anything but an array with
    `axes` of a dtype kind in `kinds` is a ValueError naming it."""
    try:
        with open(path, "rb") as f:
            arr = np.load(f)
    except (ValueError, EOFError):  # not an array numpy reads without unpickling
        raise ValueError(f"{what} {path} is not a .npy file") from None
    if not isinstance(arr, np.ndarray):  # an .npz archive
        raise ValueError(f"{what} {path} must be a [{axes}] array, got a {type(arr).__name__}")
    if arr.ndim != len(axes.split(", ")) or arr.dtype.kind not in kinds:
        raise ValueError(f"{what} {path} must be a [{axes}] array of {items}, got {arr.dtype} shape {arr.shape}")
    return arr


def _load_input_tensor(path: str) -> Tensor:
    """The image of a .npy file holding a numeric [C, H, W] array."""
    return Tensor(np.asarray(_load_array(path, "input", "C, H, W", "biuf", "numbers"), dtype=np.float32), "f32")


def _read_json(path, where: str):
    """The JSON document in file `path`; text that is not JSON is a
    ValueError naming `where`, the document and its file."""
    try:
        return json.loads(Path(path).read_text())
    except ValueError as e:  # JSONDecodeError, or UnicodeDecodeError on bytes that are not UTF-8
        raise ValueError(f"{where}: not a JSON document: {e}") from None


INPUT_SPEC_FIELDS = {"path": partial(camp.json_value, kind=str), "synthetic": partial(camp.json_value, kind=dict)}
SYNTHETIC_FIELDS = {name: partial(camp.json_value, kind=int, least=least)
                    for name, least in (("height", 1), ("width", 1), ("seed", 0))}


def _read_input(spec, graph, where: str) -> Tensor:
    """The image of one input spec: a .npy path, given as a string or as
    `{"path": ...}`, or `{"synthetic": {"height", "width", "seed"}}`."""
    spec = camp.json_fields({"path": spec} if isinstance(spec, str) else spec, where, INPUT_SPEC_FIELDS)
    if len(spec) != 1:
        raise ValueError(f"{where}: expected one of the fields path and synthetic, got {sorted(spec)}")
    if "path" in spec:
        return _load_input_tensor(spec["path"])
    size = camp.json_fields(spec["synthetic"], f"{where}, synthetic", SYNTHETIC_FIELDS,
                            required=("height", "width"))
    return zoo.synthetic_input(graph, **size)


def _load_campaign(args, graph):
    where = f"campaign config {args.config}"
    raw = _read_json(args.config, where)
    config = camp.config_from_dict(raw, where=where)
    inputs = [_read_input(spec, graph, f"{where}, input {i}") for i, spec in enumerate(raw.get("inputs") or ())]
    return replace(config, inputs=tuple(inputs)), raw


def cmd_plan(args) -> dict | None:
    graph = load_model(args.model)
    config, raw_config = _load_campaign(args, graph)
    cplan = camp.plan(graph, config)
    print("layer  N  n")
    for e in cplan.entries:
        print(f"{e.layer_id:>5}  {e.fault_space}  {e.injections}")
    print(f"total injections: {cplan.total_injections()}")
    if args.out:
        out = Path(args.out)
        camp.write_table(out, ("layer_id", "fault_space", "injections"),
                         ((e.layer_id, e.fault_space, e.injections) for e in cplan.entries))
        print(f"wrote {out}")
        return {"outputs": [out], "config": raw_config, "model_hash": model_digest(graph), "seed": config.seed}
    return None


def cmd_run(args) -> dict:
    graph = load_model(args.model)
    config, raw_config = _load_campaign(args, graph)
    with closing(camp.injections(graph, config, jobs=args.jobs)) as records:
        out_dir = _out_dir(args)
        records_path, matrix_path, manifest_path = (out_dir / n for n in ("records.csv", "matrix.csv", "manifest.json"))
        for stale in (records_path, matrix_path, manifest_path):  # an interrupted run leaves none of another run
            stale.unlink(missing_ok=True)
        try:
            camp.write_records_csv(records_path, records)
        except KeyboardInterrupt:
            rows = records_path.read_bytes().count(b"\r\n") - 1 if records_path.exists() else 0
            raise KeyboardInterrupt(f"{records_path} keeps {max(rows, 0)} complete rows") from None
    matrix = camp.aggregate(camp.read_records_csv(records_path))
    camp.write_matrix_csv(matrix_path, matrix)
    summary = {
        "injections": matrix.count,
        "mean_error": matrix.mean,
        "std_error": matrix.std,
        "mean_nonzero_error": matrix.mean_nonzero,
        "nonzero_records": matrix.nonzero_count,
        "sampling": config.sampling,
        "jobs": args.jobs,
    }
    print(f"{matrix.count} injections: mean error {matrix.mean:.4%}, "
          f"mean nonzero {matrix.mean_nonzero:.4%}")
    print(f"wrote {records_path}, {matrix_path}, {manifest_path}")
    return {"outputs": [records_path, matrix_path], "manifest": manifest_path,
            "config": {**raw_config, "summary": summary}, "model_hash": model_digest(graph), "seed": config.seed}


def _signs_from_text(text: str) -> tuple[str, ...]:
    names = {"n": "negative", "neg": "negative", "negative": "negative", "-": "negative",
             "p": "positive", "pos": "positive", "positive": "positive", "+": "positive"}
    out = []
    for tok in text.split(","):
        tok = tok.strip().lower()
        if tok not in names:
            raise ValueError(f"bad sign token {tok!r} (use n/p)")
        out.append(names[tok])
    return tuple(out)


def cmd_predict(args) -> dict:
    if args.golden is not None:
        if args.model is None:
            raise ValueError("--golden needs --model to read the classifier biases")
        graph = load_model(args.model)
        golden = _load_array(args.golden, "golden map", "H, W", "iu", "integers")
        try:
            freqs = errormodel.class_frequencies(golden.astype(np.int64), graph.n_classes)
        except ValueError as e:
            raise ValueError(f"golden map {args.golden}: {e}") from None
        bias = graph.nodes[-1].params[zoo.ParamKind.ConvBias]
        signs = errormodel.bias_signs(bias.data.astype(np.float32))
    elif args.freqs is not None:
        freqs = np.asarray(args.freqs, dtype=np.float64)
        if (freqs > 1.0).any():
            freqs = freqs / 100.0  # accept percentages directly
        freqs = errormodel.probabilities(freqs, "--freqs")
        if args.signs is not None:
            signs = _signs_from_text(args.signs)
        elif args.biases is not None:
            signs = errormodel.bias_signs(args.biases)
        else:
            raise ValueError("--freqs needs --signs or --biases")
    else:
        raise ValueError("predict needs --freqs or --golden")

    profile = errormodel.SaturationProfile(
        k_sat=args.k_sat, bit_range=(args.bit_min, args.bit_max), weighting=args.weighting
    )
    p_fi = None if args.p_fi is None else errormodel.probabilities(args.p_fi, "--p-fi", len(signs))
    report = errormodel.prediction_report(freqs, signs, profile=profile, p_fi=p_fi)
    out = Path(args.out)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"expected exponent-MSB error: {report['expected_msb_error']:.4%}")
    print(f"expected quantized error ({args.weighting}): {report['expected_quantized_error']:.4%}")
    print(f"wrote {out}")
    return {"outputs": [out], "config": vars_without(args, "func")}


_number, _numbers = partial(camp.json_value, kind=float), partial(camp.json_list, kind=float)
PREDICTION_FIELDS = {  # those of errormodel.prediction_report
    "class_frequencies": _numbers, "bias_signs": partial(camp.json_list, kind=str), "p_fi": _numbers,
    "contributions": _numbers, "expected_msb_error": _number, "expected_quantized_error": _number,
    "measured_msb_error": _number, "msb_abs_deviation": _number,
    "profile": {"k_sat": partial(camp.json_value, kind=int), "weighting": partial(camp.json_value, kind=str),
                "bit_range": partial(camp.json_list, kind=int, length=2)},
}


def cmd_compare(args) -> dict:
    cells = camp.read_matrix_csv(args.matrix)
    if not cells:
        raise ValueError("matrix file has no cells")
    where = f"prediction {args.prediction}"
    report = camp.json_fields(_read_json(args.prediction, where), where, PREDICTION_FIELDS,
                              required=tuple(f"profile.{k}" for k in PREDICTION_FIELDS["profile"]))
    prof = errormodel.SaturationProfile(**report["profile"]) if "profile" in report else None
    layer = args.layer if args.layer is not None else max(lid for lid, _ in cells)

    def comparison(quantity: str, expected: float, measured: float) -> dict:
        return {"quantity": quantity, "layer": layer, "expected": expected, "measured": measured,
                "abs_deviation": abs(measured - expected)}

    comparisons = []
    if (layer, 30) in cells and "expected_msb_error" in report:
        comparisons.append(comparison("exponent_msb_error", report["expected_msb_error"],
                                      cells[layer, 30].mean))
    if prof is not None and "expected_quantized_error" in report:
        bits = prof.bits().tolist()
        if all((layer, b) in cells for b in bits):
            measured = errormodel.measured_weighted_rate([cells[layer, b].mean for b in bits], prof)
            comparisons.append(comparison("weighted_quantized_error",
                                          report["expected_quantized_error"], measured))
    if not comparisons:
        raise ValueError(f"no overlap between matrix cells and prediction (layer {layer})")

    for c in comparisons:
        c["exceeds_halfwidth"] = c["abs_deviation"] > args.halfwidth
        flag = "  FLAG" if c["exceeds_halfwidth"] else ""
        print(f"{c['quantity']}: expected {c['expected']:.4%}, measured {c['measured']:.4%}, "
              f"deviation {c['abs_deviation']:.4%}{flag}")
    out = Path(args.out)
    out.write_text(json.dumps({"halfwidth": args.halfwidth, "comparisons": comparisons}, indent=2) + "\n")
    print(f"wrote {out}")
    return {"outputs": [out], "config": vars_without(args, "func")}


def _param_count(graph) -> int:
    return sum(t.size for n in graph.nodes for t in n.params.values())


def _ratios(value) -> dict[int, float]:
    ratios = {}
    for k, v in camp.json_value(value, dict).items():
        if not k.isdecimal():
            raise ValueError(f"layer id {k!r} is not a non-negative integer")
        ratios[int(k)] = camp.json_value(v, float)
    return ratios


def cmd_prune(args) -> dict:
    graph = load_model(args.model)
    where = f"prune plan {args.plan}"
    plan = camp.json_fields(_read_json(args.plan, where), where, {"ratios": _ratios})
    ratios = plan.get("ratios", {})
    pruned = compress.apply_prune(graph, compress.PruningPlan(ratios))
    out = Path(args.out)
    save_model(pruned, out)
    before = _param_count(graph)
    after = _param_count(pruned)
    space_before = zoo.enumerate_fault_space(graph, zoo.DEFAULT_CAMPAIGN_KINDS).total()
    space_after = zoo.enumerate_fault_space(pruned, zoo.DEFAULT_CAMPAIGN_KINDS).total()
    print(f"parameters: {before} -> {after}")
    print(f"fault space N: {space_before} -> {space_after}")
    print(f"wrote {out}")
    return {"outputs": [out], "config": {"ratios": ratios}, "model_hash": model_digest(graph)}


def _as_file_numbers_it(message: str, source) -> str:
    """`message` about `fold_batch_norm(source)` with the node it starts with,
    `<kind> <id>`, named as `source` numbers it: folded node j is `source`'s
    j-th node that is not a batch_norm."""
    kind, _, rest = message.partition(" ")
    nid = rest.partition(" ")[0]
    kept = [n for n in source.nodes if n.kind != "batch_norm"]
    if not nid.isdecimal() or int(nid) >= len(kept) or kept[int(nid)].kind != kind:
        return message
    n = kept[int(nid)]
    folded = "".join(f" (folded with batch_norm {b.id})" for b in source.nodes
                     if b.kind == "batch_norm" and b.inputs == [n.id])
    return f"{kind} {n.id}{folded}{rest[len(nid):]}"


def cmd_quantize(args) -> dict:
    graph = source = load_model(args.model)
    model_hash = model_digest(graph)  # of the input, not of its folded form
    if any(n.kind == "batch_norm" for n in graph.nodes):
        graph = compress.fold_batch_norm(graph)
        print("folded batch_norm layers into convolutions")
    if args.calib:
        calib = [_load_input_tensor(p) for p in args.calib]
        for path, x in zip(args.calib, calib):
            if not np.isfinite(x.data).all():
                raise ValueError(f"calibration input {path} holds non-finite values")
    else:
        h, w = args.size
        calib = [zoo.synthetic_input(graph, h, w, seed=args.calib_seed + i)
                 for i in range(args.calib_synthetic)]
    try:
        quantized = compress.quantize_model(graph, calib)
    except ValueError as e:
        if graph is source:
            raise
        raise ValueError(_as_file_numbers_it(str(e), source)) from None  # its node ids are the folded model's
    out = Path(args.out)
    save_model(quantized, out)
    print(f"parameters: {_param_count(graph)} (float32) -> {_param_count(quantized)} (int8/int32)")
    space = zoo.enumerate_fault_space(quantized, zoo.DEFAULT_CAMPAIGN_KINDS).total()
    print(f"fault space N: {space}")
    print(f"wrote {out}")
    return {"outputs": [out], "config": vars_without(args, "func"), "model_hash": model_hash,
            "seed": args.calib_seed}


def cmd_census(args) -> dict:
    graph = load_model(args.model)
    out_dir = _out_dir(args)
    ranges_path = out_dir / "census_ranges.csv"
    camp.write_table(ranges_path, [f.name for f in fields(inject.RangeCensus)],
                     [astuple(c) for _, c in sorted(inject.value_range_census(graph).items())])
    partial_path = out_dir / "census_partial_exponent.csv"
    camp.write_table(partial_path, [f.name for f in fields(inject.PartialExponentCensus)], [
        astuple(c) for bit in inject.PARTIAL_EXPONENT_BITS
        for _, c in sorted(inject.partial_exponent_census(graph, bit).items())])
    print(f"wrote {ranges_path}, {partial_path}")
    return {"outputs": [ranges_path, partial_path], "manifest": out_dir / "census_manifest.json",
            "model_hash": model_digest(graph)}


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="seusim", description=__doc__)
    parser.add_argument("--version", action="version", version=f"seusim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic encoder-decoder model file")
    p.add_argument("--depth", type=_positive_int, required=True)
    p.add_argument("--base-channels", type=_positive_int, default=8)
    p.add_argument("--in-channels", type=_positive_int, default=3)
    p.add_argument("--classes", type=_positive_int, default=6)
    p.add_argument("--activation", choices=ACTIVATION_KINDS, default="relu")
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("plan", help="plan per-layer injection counts")
    p.add_argument("--model", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("run", help="run an injection campaign")
    p.add_argument("--model", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir")
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("predict", help="closed-form expected bias-flip error")
    p.add_argument("--freqs", type=_float_list, help="per-class golden frequencies (fractions or percent)")
    p.add_argument("--signs", help="comma-separated n/p per class")
    p.add_argument("--biases", type=_float_list, help="classifier bias values (signs derived)")
    p.add_argument("--golden", help=".npy golden class map (with --model)")
    p.add_argument("--model")
    p.add_argument("--p-fi", type=_float_list, help="per-bias flip probabilities (default uniform)")
    p.add_argument("--k-sat", type=int, default=17)
    p.add_argument("--bit-min", type=_bit_position, default=0)
    p.add_argument("--bit-max", type=_bit_position, default=30)
    p.add_argument("--weighting", choices=("saturated_only", "linear_ramp"), default="saturated_only")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("compare", help="measured matrix vs analytical prediction")
    p.add_argument("--matrix", required=True)
    p.add_argument("--prediction", required=True)
    p.add_argument("--layer", type=int)
    p.add_argument("--halfwidth", type=_non_negative_float, default=camp.DEFAULT_E)
    p.add_argument("--out", default="comparison.json")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("prune", help="structured L1 filter pruning")
    p.add_argument("--model", required=True)
    p.add_argument("--plan", required=True, help='JSON {"ratios": {"<layer_id>": ratio}}')
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("quantize", help="fold BN and quantize to int8")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--calib", nargs="*", help=".npy calibration images")
    p.add_argument("--calib-synthetic", type=_positive_int, default=2)
    p.add_argument("--size", type=_positive_int, nargs=2, default=(32, 32), metavar=("H", "W"))
    p.add_argument("--calib-seed", type=_non_negative_int, default=0)
    p.set_defaults(func=cmd_quantize)

    p = sub.add_parser("census", help="value-range and partial-exponent reports")
    p.add_argument("--model", required=True)
    p.add_argument("--out-dir")
    p.set_defaults(func=cmd_census)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    started = time.time()
    try:
        wrote = args.func(args)  # what the command wrote, for its manifest, or None
        if wrote is not None:
            _write_manifest(args.command, started, **wrote)
        return 0
    except (ValueError, KeyError, ModelFormatError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except KeyboardInterrupt as e:  # its message, if any, says what the command kept
        kept = e.args[0] if e.args else "its outputs may be partial"
        print(f"interrupted: {args.command} stopped; {kept}, with no manifest", file=sys.stderr)
        return 130
    except Exception as e:  # pragma: no cover - defensive
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
