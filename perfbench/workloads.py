"""The four benchmark workloads.

Repetition ``k`` of a workload builds its state in ``setup(k)`` (timed by
the runner), runs in ``run(k)`` (the same work once at ``jobs = nproc`` and
once at ``jobs = 1``, timing only the calls into the program) and verifies
its outputs in ``check``, which the runner keeps out of the trace.  Inputs
derive only from the workload seed and ``k``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import seusim.campaign
import seusim.cli
import seusim.compress
import seusim.errormodel
import seusim.inject
import seusim.model
import seusim.modelio
from seusim.model import ParamKind

from .trace import PARALLEL, conv_macs

# README class frequencies (%) of the bias-probe scenario
PROBE_FREQS_PCT = (0.0, 44.91, 4.41, 26.95, 7.47, 16.27)
MSB_HALFWIDTH = seusim.campaign.DEFAULT_E
PRUNE_GIOU_FLOOR = 98.5  # a layer keeps the largest ratio whose GIoU stays above this


@dataclass(frozen=True)
class Sizes:
    unet_hw: int = 64
    f32_cap: int = 1  # x 11 parameterised layers = 11 injections per campaign
    # x 6 conv layers = 48 injections per campaign; stratified sampling then flips
    # each of bits 0..7 once per layer, every bit of an int8 weight
    int8_cap: int = 8
    calib_images: int = 2
    probe_hw: int = 256
    prune_hw: int = 32
    prune_images: int = 2


FULL = Sizes()
TINY = Sizes(unet_hw=8, f32_cap=1, int8_cap=2, calib_images=1, probe_hw=16, prune_hw=8, prune_images=1)


@dataclass
class Rep:
    """One repetition: the items each of its two runs did, and their times."""

    items: int
    par_s: float  # jobs=nproc: wall time less the mean time the hypervisor withheld a CPU
    ser_s: float  # jobs=1: CPU time of the process, which excludes withheld time
    wall: tuple[float, float]  # raw wall times of the jobs=nproc and jobs=1 runs
    data: dict


class Ledger:
    """Operations attempted and failed; a failed check is a failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)


def _steal_s() -> float:
    """CPU time the hypervisor withheld from this machine, summed over its CPUs."""
    try:
        with open("/proc/stat") as f:
            return int(f.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def _derive(seed: int, *path: int) -> int:
    return int(np.random.default_rng((seed, *path)).integers(2**31))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _unet(seed: int):
    """The README quick-start U-Net."""
    return seusim.model.build_unet(depth=2, base_channels=8, n_input_channels=3, n_classes=6,
                                   activation_kind="hard_sigmoid", seed=seed)


def forward_counts(model, hw: int) -> dict[str, float]:
    """Per-forward conv MACs, conv bytes moved and kernel calls, computed from graph shapes."""
    shapes: dict[int, tuple[int, int, int]] = {}
    macs = {"f32": 0, "i8": 0}
    moved = 0
    kernels = 1 + (model.dtype_mode == "int8")  # argmax, plus input quantization on int8
    for n in model.nodes:
        c, h, w = shapes[n.inputs[0]] if n.inputs else (model.n_input_channels, hw, hw)
        if n.kind == "conv":
            wt = n.params[ParamKind.ConvWeight]
            oc, _, kh, kw = wt.shape
            oh = (h + 2 * n.padding - kh) // n.stride + 1
            ow = (w + 2 * n.padding - kw) // n.stride + 1
            macs[wt.dtype] += conv_macs((1, c, h, w), wt.shape, n.stride, n.padding)
            item = wt.data.itemsize
            moved += (c * h * w + wt.size + oc * oh * ow) * item + oc * 4
            shapes[n.id] = (oc, oh, ow)
        elif n.kind == "max_pool2":
            shapes[n.id] = (c, h // 2, w // 2)
        elif n.kind == "upsample2":
            shapes[n.id] = (c, 2 * h, 2 * w)
        elif n.kind == "concat":
            shapes[n.id] = (sum(shapes[i][0] for i in n.inputs), h, w)
        else:
            shapes[n.id] = (c, h, w)
        kernels += len(n.inputs) - 1 if n.kind == "concat" else 1
    return {
        "tensor.conv2d_f32.macs": macs["f32"],
        "tensor.conv2d_i8.macs": macs["i8"],
        "tensor.conv2d.bytes_computed": moved,
        "model.kernels_per_forward": kernels,
        "modelio.model_bytes": len(seusim.modelio.serialize_model(model)),
    }


class Workload:
    name = ""

    def __init__(self, seed: int, sizes: Sizes, jobs: int, work_dir: Path, tracer):
        self.seed = seed
        self.sizes = sizes
        self.jobs = jobs
        self.work = work_dir
        self.tracer = tracer
        self.ledger = Ledger()
        self.model = self.hw = None  # the model and image side of the latest set-up
        self.records: list = []  # records of every jobs=nproc campaign
        self.csv_bytes: list[int] = []
        self.msb_deviation: list[float] = []

    def setup(self, k: int) -> None:
        raise NotImplementedError

    def run(self, k: int) -> Rep:
        raise NotImplementedError

    def check(self, rep: Rep) -> None:
        raise NotImplementedError

    def _both(self, k: int, once):
        """Run ``once(jobs)`` at jobs=nproc and at jobs=1, alternating which goes first.

        Returns both outputs and the ``Rep`` timing fields.  On a shared host
        the hypervisor takes CPUs away for seconds at a time; the times leave
        that out, so they measure the program rather than its neighbours.
        """
        out, wall, cpu, steal = {}, {}, {}, {}
        for jobs in ((self.jobs, 1) if k % 2 == 0 else (1, self.jobs)):
            seusim.campaign.clear_golden_cache()  # every campaign pays its golden run
            ctx = self.tracer.span(PARALLEL) if jobs > 1 else contextlib.nullcontext()
            with ctx:
                w0, c0, s0 = time.perf_counter(), time.process_time(), _steal_s()
                out[jobs] = once(jobs)
                wall[jobs] = time.perf_counter() - w0
                cpu[jobs] = time.process_time() - c0
                steal[jobs] = _steal_s() - s0
        times = {"par_s": wall[self.jobs] - steal[self.jobs] / os.cpu_count(), "ser_s": cpu[1],
                 "wall": (wall[self.jobs], wall[1])}
        return out[self.jobs], out[1], times

    def layer_values(self) -> dict[str, float]:
        recs = self.records
        n = max(len(recs), 1)
        return {
            **forward_counts(self.model, self.hw),
            "inject.post_nan_frac": sum(r.post_kind == "nan" for r in recs) / n,
            "inject.post_inf_frac": sum(r.post_kind == "infinite" for r in recs) / n,
            "campaign.nonzero_frac": sum(r.error_rate > 0 for r in recs) / n,
            "campaign.csv_bytes": float(np.median(self.csv_bytes)) if self.csv_bytes else 0.0,
            "errormodel.msb_abs_deviation":
                float(np.median(self.msb_deviation)) if self.msb_deviation else 0.0,
        }


class F32Campaign(Workload):
    """README U-Net, float32, through ``seusim run`` in-process."""

    name = "f32_campaign"

    def setup(self, k):
        s = self.sizes
        self.hw = s.unet_hw
        self.model = _unet(_derive(self.seed, 0))
        x = seusim.model.synthetic_input(self.model, s.unet_hw, s.unet_hw, seed=_derive(self.seed, 1))
        self.model_path = self.work / "model.bin"
        input_path = self.work / "input.npy"
        seusim.modelio.save_model(self.model, self.model_path)
        np.save(input_path, x.data)
        self.config = self.work / "campaign.json"
        self.config.write_text(json.dumps({"seed": _derive(self.seed, 2, k), "cap": s.f32_cap,
                                           "sampling": "uniform_layer", "inputs": [str(input_path)]}))

    def run(self, k):
        def once(jobs):
            out = self.work / f"jobs{jobs}"
            argv = ["run", "--model", str(self.model_path), "--config", str(self.config),
                    "--out-dir", str(out), "--jobs", str(jobs)]
            with contextlib.redirect_stdout(io.StringIO()):
                return seusim.cli.main(argv)

        rc_par, rc_ser, times = self._both(k, once)
        par = self.work / f"jobs{self.jobs}"
        records = seusim.campaign.read_records_csv(par / "records.csv") if rc_par == 0 else []
        return Rep(len(records), **times, data={"rc": (rc_par, rc_ser), "records": records})

    def check(self, rep):
        self.ledger.check(rep.data["rc"] == (0, 0), "seusim run exited non-zero")
        par, ser = self.work / f"jobs{self.jobs}", self.work / "jobs1"
        self.ledger.check(_sha256(par / "records.csv") == _sha256(ser / "records.csv"),
                          "records.csv differs between jobs=nproc and jobs=1")
        self.ledger.check(seusim.modelio.load_model(self.model_path).bit_equal(self.model),
                          "model file changed by the campaign")
        self.ledger.check(len(rep.data["records"]) == 11 * self.sizes.f32_cap,
                          "unexpected injection count")
        self.records.extend(rep.data["records"])
        self.csv_bytes.append((par / "records.csv").stat().st_size + (par / "matrix.csv").stat().st_size)


class Int8Campaign(Workload):
    """The same U-Net folded and quantized; weights and biases, stratified per bit."""

    name = "int8_campaign"

    def setup(self, k):
        s = self.sizes
        self.hw = s.unet_hw
        folded = seusim.compress.fold_batch_norm(_unet(_derive(self.seed, 0)))
        calib = [seusim.model.synthetic_input(folded, s.unet_hw, s.unet_hw, seed=_derive(self.seed, 3, i))
                 for i in range(s.calib_images)]
        self.model = seusim.compress.quantize_model(folded, calib)
        self.x = seusim.model.synthetic_input(self.model, s.unet_hw, s.unet_hw, seed=_derive(self.seed, 1))
        self.golden = seusim.model.predict_classes(self.model, self.x)
        self.pristine = self.model.copy()

    def run(self, k):
        config = seusim.campaign.CampaignConfig(
            inputs=(self.x,), seed=_derive(self.seed, 2, k), cap=self.sizes.int8_cap,
            sampling="stratified_per_bit",
            included_kinds=frozenset({ParamKind.ConvWeight, ParamKind.ConvBias}))
        once = lambda jobs: seusim.campaign.run_campaign(self.model, config, jobs=jobs)[0]
        par, ser, times = self._both(k, once)
        return Rep(len(par), **times, data={"par": par, "ser": ser, "k": k})

    def check(self, rep):
        par = rep.data["par"]
        self.ledger.check(par == rep.data["ser"], "records differ between jobs=nproc and jobs=1")
        self.ledger.check(self.model.bit_equal(self.pristine), "model not restored after campaign")
        # re-score a seeded sample through the public single-fault path
        scratch = self.pristine.copy()
        rng = np.random.default_rng((self.seed, 4, rep.data["k"]))
        for i in rng.choice(len(par), size=min(2, len(par)), replace=False):
            rec = par[int(i)]
            handle = seusim.inject.apply_fault(scratch, rec.location)
            faulty = seusim.model.predict_classes(scratch, self.x)
            rate = seusim.campaign.pixel_mismatch_rate(self.golden, faulty)
            seusim.inject.revert(handle)
            self.ledger.check(rate == rec.error_rate and handle.post_bits == rec.post_bits,
                              f"re-scored record {rec.location} disagrees")
        self.ledger.check(scratch.bit_equal(self.pristine), "re-score left a fault behind")
        self.records.extend(par)


class BiasProbe(Workload):
    """Final-layer bias campaigns on the bias-probe model, cross-checked against
    the closed-form bit-30 error."""

    name = "bias_probe"

    def setup(self, k):
        rng = np.random.default_rng((self.seed, 5))
        signs = np.array([-1.0, 1.0] * 3)
        self.biases = (rng.uniform(0.05, 0.9, signs.size) * signs).astype(np.float32)
        self.freqs = np.asarray(PROBE_FREQS_PCT) / 100.0
        self.signs = seusim.errormodel.bias_signs(self.biases)
        self.probe_seed = _derive(self.seed, 6, k)  # repetitions rotate the probe layout
        self.model, self.image = self._probe(self.probe_seed)

    def _probe(self, probe_seed):
        self.hw = self.sizes.probe_hw
        return seusim.model.build_bias_probe_model(self.biases, self.freqs, seed=probe_seed,
                                                   image_hw=(self.hw, self.hw))

    def run(self, k):
        last = self.model.nodes[-1].id
        config = seusim.campaign.CampaignConfig(
            inputs=(self.image,), seed=_derive(self.seed, 2, k), layers=(last,),
            included_kinds=frozenset({ParamKind.ConvBias}))

        def once(jobs):
            records, matrix = seusim.campaign.run_campaign(self.model, config, jobs=jobs)
            out = self.work / f"jobs{jobs}"
            out.mkdir(exist_ok=True)
            seusim.campaign.write_records_csv(out / "records.csv", records)
            seusim.campaign.write_matrix_csv(out / "matrix.csv", matrix)
            return records

        par, ser, times = self._both(k, once)
        _, msb = seusim.campaign.run_campaign(self.model, replace(config, bits=(30,)), jobs=self.jobs)
        report = seusim.errormodel.prediction_report(self.freqs, self.signs,
                                                     measured_msb=msb.cells[(last, 30)].mean)
        return Rep(len(par), **times,
                   data={"par": par, "ser": ser, "report": report, "probe_seed": self.probe_seed})

    def check(self, rep):
        self.ledger.check(rep.data["par"] == rep.data["ser"],
                          "records differ between jobs=nproc and jobs=1")
        pristine, _ = self._probe(rep.data["probe_seed"])
        self.ledger.check(self.model.bit_equal(pristine), "model not restored after campaign")
        deviation = rep.data["report"]["msb_abs_deviation"]
        self.ledger.check(deviation <= MSB_HALFWIDTH, f"bit-30 deviation {deviation} too large")
        self.msb_deviation.append(deviation)
        self.records.extend(rep.data["par"])
        out = self.work / f"jobs{self.jobs}"
        self.csv_bytes.append((out / "records.csv").stat().st_size + (out / "matrix.csv").stat().st_size)


class PruneSweep(Workload):
    """Per-layer prune sensitivity sweep, then prune -> fold -> quantize -> save/load."""

    name = "prune_sweep"

    def setup(self, k):
        # a fresh model every repetition, so nothing computed for one sweep is reused
        s = self.sizes
        self.hw = s.prune_hw
        self.model = _unet(_derive(self.seed, 0, k))
        self.inputs = [seusim.model.synthetic_input(self.model, s.prune_hw, s.prune_hw,
                                                    seed=_derive(self.seed, 1, i))
                       for i in range(s.prune_images)]
        self.labels = [seusim.model.predict_classes(self.model, x) for x in self.inputs]
        self.layers = [n.id for n in self.model.nodes if n.kind == "conv"][:-1]

    def _sweep_and_compress(self, jobs):
        sweep = lambda lid: seusim.compress.sensitivity_sweep(self.model, self.inputs, self.labels, lid)
        if jobs > 1:
            with ThreadPoolExecutor(max_workers=jobs) as pool:
                curves = list(pool.map(sweep, self.layers))
        else:
            curves = [sweep(lid) for lid in self.layers]
        ratios = {c.layer_id: max((r for r, g in zip(c.ratios, c.giou_values) if g >= PRUNE_GIOU_FLOOR),
                                  default=0.0)
                  for c in curves}
        pruned = seusim.compress.apply_prune(self.model, seusim.compress.PruningPlan(ratios))
        folded = seusim.compress.fold_batch_norm(pruned)
        quantized = seusim.compress.quantize_model(folded, self.inputs)
        path = self.work / f"int8-jobs{jobs}.bin"
        seusim.modelio.save_model(quantized, path)
        loaded = seusim.modelio.load_model(path)
        giou = seusim.compress.evaluate_model(loaded, self.inputs, self.labels)[0]
        return curves, quantized, loaded, giou

    def run(self, k):
        par, ser, times = self._both(k, self._sweep_and_compress)
        points = sum(len(c.ratios) for c in par[0])
        return Rep(points, **times, data={"par": par, "ser": ser})

    def check(self, rep):
        (curves, quantized, loaded, giou), ser = rep.data["par"], rep.data["ser"]
        self.ledger.check(curves == ser[0] and giou == ser[3],
                          "sweep differs between jobs=nproc and jobs=1")
        self.ledger.check(all(c.giou_values[0] == 100.0 for c in curves),
                          "GIoU at ratio 0 is not 100 on self-labels")
        self.ledger.check(loaded.bit_equal(quantized), "load(save(m)) is not bit-equal to m")


WORKLOADS = {w.name: w for w in (F32Campaign, Int8Campaign, BiasProbe, PruneSweep)}

