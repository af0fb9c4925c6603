"""Command-line front door.

Subcommands: gen, plan, run, predict, compare, prune, quantize, census.
Every file-producing command also writes a manifest with content digests
so outputs are reproducible from (config, seed, model hash).

Exit codes: 0 success, 1 usage, 2 data/validation, 3 internal.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, campaign as camp, compress, errormodel, inject, model as zoo
from .modelio import ModelFormatError, load_model, model_digest, save_model
from .tensor import Tensor

ENV_OUT_DIR = "SEUSIM_OUT_DIR"


def _positive_int(text: str) -> int:
    v = int(text)
    if v < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return v


def _float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip() != ""]


def _out_dir(args) -> Path:
    d = Path(getattr(args, "out_dir", None) or os.environ.get(ENV_OUT_DIR) or ".")
    d.mkdir(parents=True, exist_ok=True)
    return d


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(path: Path, command: str, outputs: list[Path], started: float,
                    config: dict | None = None, model_hash: str | None = None,
                    seed: int | None = None) -> None:
    manifest = {
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
    path.write_text(json.dumps(manifest, indent=2) + "\n")


def _print_fault_space(graph) -> None:
    space = zoo.enumerate_fault_space(graph, zoo.DEFAULT_CAMPAIGN_KINDS)
    print("layer  fault_space_N")
    for lid in space.layer_ids():
        print(f"{lid:>5}  {space.layer_total(lid)}")
    print(f"total  {space.total()}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gen(args) -> int:
    graph = zoo.build_unet(
        depth=args.depth,
        base_channels=args.base_channels,
        n_input_channels=args.in_channels,
        n_classes=args.classes,
        activation_kind=args.activation,
        seed=args.seed,
    )
    started = time.time()
    out = Path(args.out)
    save_model(graph, out)
    print(f"wrote {out} ({out.stat().st_size} bytes, sha256 {_sha256(out)[:16]}...)")
    _print_fault_space(graph)
    _write_manifest(out.with_suffix(out.suffix + ".manifest.json"), "gen", [out], started,
                    config=vars_without(args, "func"), model_hash=model_digest(graph), seed=args.seed)
    return 0


def vars_without(args, *skip) -> dict:
    return {k: v for k, v in vars(args).items() if k not in skip and not callable(v)}


def _load_input_tensor(path: str) -> Tensor:
    arr = np.load(path)
    if arr.ndim != 3:
        raise ValueError(f"input {path} must be a [C, H, W] array, got shape {arr.shape}")
    return Tensor(np.asarray(arr, dtype=np.float32), "f32")


def _resolve_inputs(specs, graph) -> tuple[Tensor, ...]:
    inputs = []
    for spec in specs:
        if isinstance(spec, str):
            inputs.append(_load_input_tensor(spec))
        elif isinstance(spec, dict) and "path" in spec:
            inputs.append(_load_input_tensor(spec["path"]))
        elif isinstance(spec, dict) and "synthetic" in spec:
            s = spec["synthetic"]
            inputs.append(zoo.synthetic_input(graph, int(s["height"]), int(s["width"]),
                                              seed=int(s.get("seed", 0))))
        else:
            raise ValueError(f"unrecognized input spec: {spec!r}")
    return tuple(inputs)


def _load_campaign(args, graph):
    raw = json.loads(Path(args.config).read_text())
    return camp.config_from_dict(raw, _resolve_inputs(raw.get("inputs") or [], graph)), raw


def cmd_plan(args) -> int:
    graph = load_model(args.model)
    config, _ = _load_campaign(args, graph)
    cplan = camp.plan(graph, config)
    print("layer  N  n")
    for e in cplan.entries:
        print(f"{e.layer_id:>5}  {e.fault_space}  {e.injections}")
    print(f"total injections: {cplan.total_injections()}")
    if args.out:
        with open(args.out, "w") as f:
            f.write("layer_id,fault_space,injections\n")
            for e in cplan.entries:
                f.write(f"{e.layer_id},{e.fault_space},{e.injections}\n")
        print(f"wrote {args.out}")
    return 0


def cmd_run(args) -> int:
    started = time.time()
    graph = load_model(args.model)
    config, raw_config = _load_campaign(args, graph)
    records, matrix = camp.run_campaign(graph, config, jobs=args.jobs)
    out_dir = _out_dir(args)
    records_path = out_dir / "records.csv"
    matrix_path = out_dir / "matrix.csv"
    camp.write_records_csv(records_path, records)
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
    manifest_path = out_dir / "manifest.json"
    _write_manifest(manifest_path, "run", [records_path, matrix_path], started,
                    config={**raw_config, "summary": summary},
                    model_hash=model_digest(graph), seed=config.seed)
    print(f"{matrix.count} injections: mean error {matrix.mean:.4%}, "
          f"mean nonzero {matrix.mean_nonzero:.4%}")
    print(f"wrote {records_path}, {matrix_path}, {manifest_path}")
    return 0


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


def cmd_predict(args) -> int:
    started = time.time()
    if args.golden is not None:
        if args.model is None:
            raise ValueError("--golden needs --model to read the classifier biases")
        graph = load_model(args.model)
        golden = np.load(args.golden)
        freqs = errormodel.class_frequencies(golden.astype(np.int64), graph.n_classes)
        bias = graph.nodes[-1].params[zoo.ParamKind.ConvBias]
        signs = errormodel.bias_signs(bias.data.astype(np.float32))
    elif args.freqs is not None:
        freqs = np.asarray(args.freqs, dtype=np.float64)
        if freqs.max() > 1.0:
            freqs = freqs / 100.0  # accept percentages directly
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
    p_fi = np.asarray(args.p_fi, dtype=np.float64) if args.p_fi else None
    report = errormodel.prediction_report(freqs, signs, profile=profile, p_fi=p_fi)
    out = Path(args.out)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"expected exponent-MSB error: {report['expected_msb_error']:.4%}")
    print(f"expected quantized error ({args.weighting}): {report['expected_quantized_error']:.4%}")
    print(f"wrote {out}")
    _write_manifest(out.with_suffix(".manifest.json"), "predict", [out], started,
                    config=vars_without(args, "func"))
    return 0


def cmd_compare(args) -> int:
    started = time.time()
    cells = camp.read_matrix_csv(args.matrix)
    if not cells:
        raise ValueError("matrix file has no cells")
    report = json.loads(Path(args.prediction).read_text())
    layer = args.layer if args.layer is not None else max(lid for lid, _ in cells)

    comparisons = []
    msb_cell = cells.get((layer, 30))
    if msb_cell is not None and "expected_msb_error" in report:
        expected = float(report["expected_msb_error"])
        comparisons.append({
            "quantity": "exponent_msb_error",
            "layer": layer,
            "expected": expected,
            "measured": msb_cell.mean,
            "abs_deviation": abs(msb_cell.mean - expected),
        })
    if "profile" in report and "expected_quantized_error" in report:
        prof = errormodel.SaturationProfile(
            k_sat=int(report["profile"]["k_sat"]),
            bit_range=tuple(report["profile"]["bit_range"]),
            weighting=report["profile"]["weighting"],
        )
        rates = {}
        complete = True
        for b in prof.bits():
            cell = cells.get((layer, int(b)))
            if cell is None:
                complete = False
                break
            rates[int(b)] = cell.mean
        if complete:
            expected = float(report["expected_quantized_error"])
            measured = errormodel.measured_weighted_rate(rates, prof)
            comparisons.append({
                "quantity": "weighted_quantized_error",
                "layer": layer,
                "expected": expected,
                "measured": measured,
                "abs_deviation": abs(measured - expected),
            })
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
    _write_manifest(out.with_suffix(".manifest.json"), "compare", [out], started,
                    config=vars_without(args, "func"))
    return 0


def _param_count(graph) -> int:
    return sum(t.size for n in graph.nodes for t in n.params.values())


def cmd_prune(args) -> int:
    started = time.time()
    graph = load_model(args.model)
    raw = json.loads(Path(args.plan).read_text())
    ratios = {int(k): float(v) for k, v in raw.get("ratios", {}).items()}
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
    _write_manifest(out.with_suffix(out.suffix + ".manifest.json"), "prune", [out], started,
                    config={"ratios": ratios}, model_hash=model_digest(graph))
    return 0


def cmd_quantize(args) -> int:
    started = time.time()
    graph = load_model(args.model)
    if any(n.kind == "batch_norm" for n in graph.nodes):
        graph = compress.fold_batch_norm(graph)
        print("folded batch_norm layers into convolutions")
    if args.calib:
        calib = [_load_input_tensor(p) for p in args.calib]
    else:
        h, w = args.size
        calib = [zoo.synthetic_input(graph, h, w, seed=args.calib_seed + i)
                 for i in range(args.calib_synthetic)]
    quantized = compress.quantize_model(graph, calib)
    out = Path(args.out)
    save_model(quantized, out)
    print(f"parameters: {_param_count(graph)} (float32) -> {_param_count(quantized)} (int8/int32)")
    space = zoo.enumerate_fault_space(quantized, zoo.DEFAULT_CAMPAIGN_KINDS).total()
    print(f"fault space N: {space}")
    print(f"wrote {out}")
    _write_manifest(out.with_suffix(out.suffix + ".manifest.json"), "quantize", [out], started,
                    config=vars_without(args, "func"), model_hash=model_digest(graph),
                    seed=args.calib_seed)
    return 0


def cmd_census(args) -> int:
    started = time.time()
    graph = load_model(args.model)
    out_dir = _out_dir(args)
    ranges_path = out_dir / "census_ranges.csv"
    with open(ranges_path, "w") as f:
        f.write("layer_id,count,frac_lt1,frac_1to2,frac_ge2,frac_zero\n")
        for lid, c in sorted(inject.value_range_census(graph).items()):
            f.write(f"{lid},{c.count},{c.frac_lt1!r},{c.frac_1to2!r},{c.frac_ge2!r},{c.frac_zero!r}\n")
    partial_path = out_dir / "census_partial_exponent.csv"
    with open(partial_path, "w") as f:
        f.write("layer_id,bit,count,frac_zero_at_bit,frac_one_flip_from_filled\n")
        for bit in inject.PARTIAL_EXPONENT_BITS:
            for lid, c in sorted(inject.partial_exponent_census(graph, bit).items()):
                f.write(f"{lid},{bit},{c.count},{c.frac_zero_at_bit!r},{c.frac_one_flip_from_filled!r}\n")
    print(f"wrote {ranges_path}, {partial_path}")
    _write_manifest(out_dir / "census_manifest.json", "census", [ranges_path, partial_path],
                    started, model_hash=model_digest(graph))
    return 0


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
    p.add_argument("--activation", choices=("relu", "sigmoid", "hard_sigmoid"), default="relu")
    p.add_argument("--seed", type=int, default=0)
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
    p.add_argument("--bit-min", type=int, default=0)
    p.add_argument("--bit-max", type=int, default=30)
    p.add_argument("--weighting", choices=("saturated_only", "linear_ramp"), default="saturated_only")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("compare", help="measured matrix vs analytical prediction")
    p.add_argument("--matrix", required=True)
    p.add_argument("--prediction", required=True)
    p.add_argument("--layer", type=int)
    p.add_argument("--halfwidth", type=float, default=camp.DEFAULT_E)
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
    p.add_argument("--calib-seed", type=int, default=0)
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
    try:
        return args.func(args)
    except (ValueError, KeyError, ModelFormatError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # pragma: no cover - defensive
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
