"""Span tracing of seusim from outside the program.

The tracer replaces public functions at the binding each consumer module
looks up at call time (``seusim.campaign.predict_classes`` and
``seusim.model.conv2d`` are imported by name, so patching
``seusim.tensor`` alone would record nothing) and restores them on exit.
Spans live in memory: one list append per call, a thread-local parent
stack for nesting, and a fresh trace id for every injection, opened by
``apply_fault`` and closed by ``revert``, that the spans in between share.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time

import numpy as np

import seusim.campaign
import seusim.cli
import seusim.compress
import seusim.errormodel
import seusim.inject
import seusim.metrics
import seusim.model
import seusim.modelio

INJECTION = "inject.injection"
PARALLEL = "bench.parallel"  # the benchmark's own span around each jobs=nproc call

# (module or class, attribute, span name); one entry per binding a consumer reads
_BINDINGS = [
    *[(seusim.model, k, f"tensor.{k}") for k in
      ("batch_norm", "activation", "max_pool2", "upsample2", "concat_channels", "argmax_classes")],
    (seusim.model, "run_model_trace", "model.executor"),
    (seusim.compress, "run_model_trace", "model.executor"),
    (seusim.model, "predict_classes", "model.predict_classes"),
    (seusim.campaign, "predict_classes", "model.predict_classes"),
    (seusim.compress, "predict_classes", "model.predict_classes"),
    (seusim.model.ModelGraph, "copy", "model.copy"),
    (seusim.model, "enumerate_fault_space", "model.enumerate_fault_space"),
    (seusim.campaign, "enumerate_fault_space", "model.enumerate_fault_space"),
    (seusim.modelio, "model_digest", "modelio.model_digest"),
    (seusim.campaign, "model_digest", "modelio.model_digest"),
    (seusim.cli, "model_digest", "modelio.model_digest"),
    (seusim.modelio, "load_model", "modelio.load_model"),
    (seusim.cli, "load_model", "modelio.load_model"),
    (seusim.modelio, "save_model", "modelio.save_model"),
    (seusim.cli, "save_model", "modelio.save_model"),
    (seusim.campaign, "run_campaign", "campaign.run_campaign"),
    (seusim.campaign, "plan", "campaign.plan"),
    (seusim.campaign, "golden_run", "campaign.golden_run"),
    (seusim.campaign, "pixel_mismatch_rate", "campaign.pixel_mismatch_rate"),
    (seusim.campaign, "aggregate", "campaign.aggregate"),
    (seusim.campaign, "write_records_csv", "campaign.write_csv"),
    (seusim.campaign, "write_matrix_csv", "campaign.write_csv"),
    (seusim.errormodel, "prediction_report", "errormodel.prediction_report"),
    (seusim.metrics, "confusion_matrix", "metrics.confusion_matrix"),
    (seusim.compress, "confusion_matrix", "metrics.confusion_matrix"),
    *[(seusim.compress, k, f"compress.{k}") for k in
      ("sensitivity_sweep", "apply_prune", "evaluate_model", "fold_batch_norm", "quantize_model")],
    (seusim.cli, "main", "cli.main"),
]

# span fields
ID, PARENT, TRACE, NAME, THREAD, T0, T1, PHASE, MACS = range(9)


def conv_macs(x_shape, w_shape, stride: int = 1, padding: int = 0) -> int:
    """Multiply-accumulates of one conv2d call, from operand shapes."""
    n, _, h, w = x_shape
    oc, ic, kh, kw = w_shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    return n * oc * oh * ow * ic * kh * kw


class Tracer:
    """Records spans while active; inactive, the program runs unpatched."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.phase = "setup"
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple] = []

    # -- spans -------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, macs: int = 0, new_trace: bool = False) -> list:
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        trace = sid if new_trace or parent is None else parent[TRACE]
        span = [sid, parent[ID] if parent else None, trace, name,
                threading.get_ident(), time.perf_counter(), 0.0, self.phase, macs]
        stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[T1] = time.perf_counter()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span[NAME]} closed out of order")
        stack.pop()
        self.spans.append(tuple(span))

    @contextlib.contextmanager
    def span(self, name: str):
        """A benchmark-side span; records nothing while inactive."""
        if not self._patched:
            yield
            return
        s = self.open(name)
        try:
            yield
        finally:
            self.close(s)

    # -- patching ----------------------------------------------------------
    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            s = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(s)

        return traced

    def _wrap_conv2d(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(x, weight, bias, stride=1, padding=0, out_quant=None):
            macs = conv_macs(x.shape, weight.shape, stride, padding)
            s = tracer.open(f"tensor.conv2d_{x.dtype}", macs)
            try:
                return fn(x, weight, bias, stride=stride, padding=padding, out_quant=out_quant)
            finally:
                tracer.close(s)

        return traced

    def _wrap_apply_fault(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(model, loc):
            injection = tracer.open(INJECTION, new_trace=True)
            s = tracer.open("inject.apply_fault")
            try:
                handle = fn(model, loc)
            except BaseException:
                tracer.close(s)
                tracer.close(injection)
                raise
            tracer.close(s)
            return handle  # the injection span stays open until revert

        return traced

    def _wrap_revert(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(handle):
            s = tracer.open("inject.revert")
            try:
                return fn(handle)
            finally:
                tracer.close(s)
                stack = tracer._stack()
                if stack and stack[-1][NAME] == INJECTION:
                    tracer.close(stack[-1])

        return traced

    def _install(self) -> None:
        plan = [(owner, attr, self._wrap(getattr(owner, attr), name))
                for owner, attr, name in _BINDINGS]
        plan.append((seusim.model, "conv2d", self._wrap_conv2d(seusim.model.conv2d)))
        for owner in (seusim.inject, seusim.campaign):
            plan.append((owner, "apply_fault", self._wrap_apply_fault(owner.apply_fault)))
            plan.append((owner, "revert", self._wrap_revert(owner.revert)))
        for owner, attr, wrapper in plan:
            self._patched.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def _uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def active(self, phase: str):
        """Patch the program for the duration of the block."""
        self.phase = phase
        self._install()
        try:
            yield
        finally:
            self._uninstall()

    def write(self, path) -> None:
        keys = ("id", "parent", "trace", "name", "thread", "t0", "t1", "phase", "macs")
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(dict(zip(keys, s))) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics from spans
# ---------------------------------------------------------------------------

_SELF_S = {
    "tensor.batch_norm", "tensor.activation", "tensor.max_pool2", "tensor.upsample2",
    "tensor.concat_channels", "tensor.argmax_classes", "model.executor", "model.copy",
    "model.enumerate_fault_space", "modelio.model_digest", "modelio.load_model",
    "modelio.save_model", "inject.apply_fault", "inject.revert", "campaign.plan",
    "campaign.pixel_mismatch_rate", "campaign.aggregate", "campaign.write_csv",
    "errormodel.prediction_report", "metrics.confusion_matrix", "compress.apply_prune",
    "compress.evaluate_model", "compress.fold_batch_norm", "compress.quantize_model", "cli.main",
}
_CALLS = {
    "model.predict_classes", "modelio.model_digest", "inject.apply_fault",
    "campaign.golden_run", "compress.apply_prune",
}


def layer_metrics(spans: list[tuple], n_reps: int, jobs: int) -> dict[str, float]:
    """Per-layer counts and self times: set-up once plus one mean traced repetition.

    Self time is a span's duration minus the time its child spans cover.
    """
    child_time: dict[int, float] = {}
    child_names: dict[int, set] = {}
    for s in spans:
        if s[PARENT] is not None:
            child_time[s[PARENT]] = child_time.get(s[PARENT], 0.0) + s[T1] - s[T0]
            child_names.setdefault(s[PARENT], set()).add(s[NAME])

    # [setup, loop] sums per name, combined as setup + loop / n_reps
    calls: dict[str, list] = {}
    self_s: dict[str, list] = {}
    raw_self: dict[str, float] = {}
    raw_macs: dict[str, int] = {}
    for s in spans:
        own = s[T1] - s[T0] - child_time.get(s[ID], 0.0)
        i = s[PHASE] == "loop"
        calls.setdefault(s[NAME], [0, 0])[i] += 1
        self_s.setdefault(s[NAME], [0.0, 0.0])[i] += own
        raw_self[s[NAME]] = raw_self.get(s[NAME], 0.0) + own
        raw_macs[s[NAME]] = raw_macs.get(s[NAME], 0) + s[MACS]

    def per_rep(sums: dict, name: str) -> float:
        setup, loop = sums.get(name, (0, 0))
        return setup + loop / n_reps

    out: dict[str, float] = {}
    for name in _SELF_S:
        out[f"{name}.self_s"] = per_rep(self_s, name)
    for name in _CALLS:
        out[f"{name}.calls"] = per_rep(calls, name)
    for kind in ("f32", "i8"):
        name = f"tensor.conv2d_{kind}"
        out[f"{name}.calls"] = per_rep(calls, name)
        out[f"{name}.self_s"] = per_rep(self_s, name)
        t = raw_self.get(name, 0.0)
        out[f"{name}.gmac_per_s"] = raw_macs.get(name, 0) / t / 1e9 if t > 0 else 0.0

    forward_ms = [1e3 * (s[T1] - s[T0]) for s in spans
                  if s[NAME] == "model.predict_classes" and s[PHASE] == "loop"]
    out["model.forward_ms.p50"] = float(np.percentile(forward_ms, 50)) if forward_ms else 0.0
    out["model.forward_ms.p99"] = float(np.percentile(forward_ms, 99)) if forward_ms else 0.0

    goldens = [s for s in spans if s[NAME] == "campaign.golden_run"]
    hits = sum(1 for s in goldens if "model.predict_classes" not in child_names.get(s[ID], ()))
    out["campaign.golden_cache.hit_ratio"] = hits / len(goldens) if goldens else 0.0

    # share of worker capacity left unused during the benchmark's jobs=nproc calls
    capacity = busy = 0.0
    for p in spans:
        if p[NAME] != PARALLEL:
            continue
        capacity += jobs * (p[T1] - p[T0])
        busy += sum(s[T1] - s[T0] for s in spans
                    if s[PARENT] is None and s[THREAD] != p[THREAD] and p[T0] <= s[T0] <= p[T1])
    out["campaign.worker_idle_frac"] = 1.0 - busy / capacity if capacity > 0 else 0.0
    return out
