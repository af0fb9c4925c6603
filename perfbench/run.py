"""seusim benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload f32_campaign --seed 1 --seconds 28 --trace 0

Run from the repository root; seusim is imported from ``src/``.  The run
repeats closed-loop repetitions until ``--seconds`` would be exceeded.  A
repetition sets its workload up (timed, repeated while short, so set-up
samples spread over the whole run; ``setup_s`` is their median), then runs
the same work at ``jobs = nproc`` and at ``jobs = 1``.  Throughputs are the
items of all repetitions over their summed time: at ``jobs = nproc`` wall
time less the mean time per CPU that the hypervisor withheld (steal, from
``/proc/stat``), at ``jobs = 1`` the process's CPU time, which leaves
withheld time out.  Raw wall-clock rates are in the info line.  Outputs
are checked after each repetition; every failed check or exception counts
as a failed operation.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` traces the
first set-up and every second repetition and prints the per-layer
metrics: counts and self times are for one set-up plus one mean traced
repetition, and ``trace.overhead_frac`` is the traced repetitions' time
per item over the untraced ones', minus one.  Metric names and units
come from ``BENCHMARK.json``.  Spans and the full result are written under
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_REPS = 2
SETUP_MAX_REPEATS, SETUP_MIN_S = 5, 0.2  # per repetition


def _import_program():
    """Import seusim from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "seusim" / "__init__.py").is_file():
        raise SystemExit(f"seusim sources not found under {src}")
    if str(src) not in sys.path:
        sys.path[:0] = [str(src), str(ROOT)]
    import seusim

    if Path(seusim.__file__).resolve().parent != src / "seusim":
        raise SystemExit(f"imported seusim from {seusim.__file__}, not {src}")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    _import_program()
    import numpy as np
    import scipy

    from perfbench import trace, workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    jobs = len(os.sched_getaffinity(0))
    out_dir = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    work = out_dir / "work"
    work.mkdir(parents=True)
    tracer = trace.Tracer()
    wl = workloads.WORKLOADS[args.workload](
        args.seed, workloads.TINY if args.tiny else workloads.FULL, jobs, work, tracer)

    setup_times = []
    reps, traced = [], []  # completed repetitions, and whether each was traced
    rep_wall = []
    loop_start = time.perf_counter()
    k = 0
    while True:
        t0 = time.perf_counter()
        is_traced = bool(args.trace) and k % 2 == 1
        try:
            if args.trace and k == 0:
                with tracer.active("setup"):
                    wl.setup(k)
            else:
                spent = []
                while not spent or (sum(spent) < SETUP_MIN_S and len(spent) < SETUP_MAX_REPEATS):
                    s0 = time.perf_counter()
                    wl.setup(k)
                    spent.append(time.perf_counter() - s0)
                setup_times.extend(spent)
            with tracer.active("loop") if is_traced else contextlib.nullcontext():
                rep = wl.run(k)
            wl.ledger.check(True, "")
            wl.check(rep)
            reps.append(rep)
            traced.append(is_traced)
        except Exception:
            wl.ledger.check(False, traceback.format_exc())
        rep_wall.append(time.perf_counter() - t0)
        k += 1
        elapsed = time.perf_counter() - loop_start
        if k >= MIN_REPS and elapsed + statistics.median(rep_wall) > args.seconds:
            break

    plain = [r for r, t in zip(reps, traced) if not t]
    with_trace = [r for r, t in zip(reps, traced) if t]
    ledger = wl.ledger
    values: dict[str, float] = {}
    if not args.trace and plain:
        items = sum(r.items for r in plain)
        values["items_per_s"] = items / sum(r.par_s for r in plain)
        values["serial_items_per_s"] = items / sum(r.ser_s for r in plain)
        values["setup_s"] = statistics.median(setup_times)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values["correct_ops_frac"] = 1.0 - ledger.failed / ledger.attempted
    elif plain and with_trace:
        values.update(trace.layer_metrics(tracer.spans, len(with_trace), jobs))
        values.update(wl.layer_values())
        per_item = lambda rs: sum(r.par_s + r.ser_s for r in rs) / sum(r.items for r in rs)
        values["trace.overhead_frac"] = per_item(with_trace) / per_item(plain) - 1.0
        tracer.write(out_dir / "spans.jsonl")

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise SystemExit(f"no value for metrics {missing}; errors: {ledger.errors}")
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": jobs, "jobs": jobs, "repetitions": len(reps), "traced_repetitions": len(with_trace),
        "items_per_s": [r.items / r.par_s for r in plain],
        "serial_items_per_s": [r.items / r.ser_s for r in plain],
        "wall_items_per_s": [r.items / r.wall[0] for r in plain],
        "wall_serial_items_per_s": [r.items / r.wall[1] for r in plain],
        "setup_repeats": len(setup_times), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__, "errors": ledger.errors,
    }
    shutil.rmtree(work, ignore_errors=True)
    (out_dir / "result.json").write_text(json.dumps({"info": info, **result}, indent=2) + "\n")
    for e in ledger.errors:
        print(e, file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
