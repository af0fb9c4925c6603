"""Statistically-sized fault-injection campaigns.

Per-layer injection counts come from the finite-population sample-size
formula

    n = N / (1 + e^2 * (N - 1) / (t^2 * p * (1 - p)))

rounded up and capped.  `plan` and the sampler share one draw schedule
per layer: a list of strata, each a list of (fault-space entry, usable
bits) blocks plus a quota.  `uniform_layer` is one stratum over the
layer's (element, bit) pairs; `stratified_per_bit` is one stratum per bit
over the elements that carry it, its quota an equal share of n capped by
their count.  Each stratum's quota is drawn without replacement and mapped
to locations through the cumulative block sizes.  Each injection builds
its single bit flip as a value (`seusim.inject.channel_fault`) and scores
the fraction of output pixels whose predicted class differs from the
golden reference.  Results aggregate into a layer x bit-position error
matrix.

The golden forward pass runs once per campaign input and keeps every
node's output (`seusim.model.golden_trace`).  The worker threads share it
and the caller's model, read-only.  An injection recomputes only the one
output channel its parameter feeds, from the fault's own faulted copy of
the channel's parameter slice, splices it into a copy of that node's
golden output, and runs the node's descendants in full
(`seusim.model.faulted_classes`).  The class map is bit-identical to a
full forward pass: each channel's sum is independent of the other
filters, and a one-filter slice reduces over (c, i, j) in the same order.
Since cost falls with the faulted layer's depth, worker `i` of `n` takes
injections `i, i + n, ...` of the plan rather than a contiguous run, and
the records are reassembled in
plan order, then input order.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

# apply_fault and revert are unused here, but perfbench/trace.py rebinds them on this module
from .inject import FaultLocation, apply_fault, channel_fault, revert  # noqa: F401
from .model import (
    DEFAULT_CAMPAIGN_KINDS,
    FaultSpace,
    ModelGraph,
    ParamKind,
    enumerate_fault_space,
    faulted_classes,
    golden_trace,
    predict_classes,
)
from .modelio import model_digest, tensor_digest
from .tensor import Tensor

DEFAULT_E = 0.025
DEFAULT_T = 1.96
DEFAULT_P = 0.5
DEFAULT_CAP = 1550

SAMPLING_MODES = ("uniform_layer", "stratified_per_bit")


def sample_size(
    N: int,
    e: float = DEFAULT_E,
    t: float = DEFAULT_T,
    p: float = DEFAULT_P,
    cap: int = DEFAULT_CAP,
) -> int:
    """Minimum injections for statistical significance over N possible faults."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if not 0 < e < 1:
        raise ValueError("error margin e must be in (0, 1)")
    if not t > 0:
        raise ValueError("confidence coefficient t must be positive")
    if not 0 < p < 1:
        raise ValueError("failure probability p must be in (0, 1)")
    if cap < 1:
        raise ValueError("cap must be >= 1")
    n = N / (1.0 + e * e * (N - 1) / (t * t * p * (1.0 - p)))
    return min(math.ceil(n), cap, N)


@dataclass(frozen=True)
class CampaignConfig:
    """Knobs for one campaign.

    `bits` restricts injections to a subset of bit positions (None = every
    bit of each element's dtype); `layers` restricts to a subset of layer
    ids.  Both filters shrink the per-layer fault space that feeds the
    sample-size formula.
    """

    e: float = DEFAULT_E
    t: float = DEFAULT_T
    p: float = DEFAULT_P
    cap: int = DEFAULT_CAP
    included_kinds: frozenset[ParamKind] = DEFAULT_CAMPAIGN_KINDS
    sampling: str = "uniform_layer"
    seed: int = 0
    inputs: tuple[Tensor, ...] = ()
    bits: tuple[int, ...] | None = None
    layers: tuple[int, ...] | None = None

    def __post_init__(self):
        if not 0 < self.e < 1 or self.t <= 0 or not 0 < self.p < 1 or self.cap < 1:
            raise ValueError("campaign parameters out of range")
        if self.sampling not in SAMPLING_MODES:
            raise ValueError(f"unknown sampling mode {self.sampling!r}")
        if not self.included_kinds:
            raise ValueError("included_kinds must not be empty")
        if self.bits is not None and (len(self.bits) == 0 or any(b < 0 for b in self.bits)):
            raise ValueError("bits filter must be a non-empty set of non-negative positions")


@dataclass(frozen=True)
class PlanEntry:
    layer_id: int
    fault_space: int  # N
    injections: int  # n


@dataclass
class CampaignPlan:
    entries: list[PlanEntry]

    def total_injections(self) -> int:
        return sum(e.injections for e in self.entries)


def _layer_schedule(space: FaultSpace, layer_id: int, config: CampaignConfig):
    """(N, strata) of one layer: N counts the (element, bit) pairs that pass
    the bits filter; each stratum is ([(entry, usable bits), ...], quota)."""
    blocks = []
    for e in space.layer_entries(layer_id):
        usable = [b for b in range(e.bit_width) if config.bits is None or b in config.bits]
        if usable:
            blocks.append((e, usable))
    N = sum(e.count * len(usable) for e, usable in blocks)
    if N == 0:
        return 0, []
    n = sample_size(N, config.e, config.t, config.p, config.cap)
    if config.sampling == "uniform_layer":
        return N, [(blocks, n)]
    bits = sorted({b for _, usable in blocks for b in usable})
    strata = []
    for i, b in enumerate(bits):
        carriers = [(e, [b]) for e, usable in blocks if b in usable]
        share = n // len(bits) + (i < n % len(bits))
        strata.append((carriers, min(share, sum(e.count for e, _ in carriers))))
    return N, strata


def plan(model: ModelGraph, config: CampaignConfig) -> CampaignPlan:
    space = enumerate_fault_space(model, config.included_kinds)
    entries = []
    for lid in space.layer_ids():
        if config.layers is not None and lid not in config.layers:
            continue
        N, strata = _layer_schedule(space, lid, config)
        if N:
            entries.append(PlanEntry(lid, N, sum(quota for _, quota in strata)))
    if not entries:
        raise ValueError("empty fault space for this configuration")
    return CampaignPlan(entries)


# ---------------------------------------------------------------------------
# golden reference
# ---------------------------------------------------------------------------

_GOLDEN_CACHE: dict[tuple[str, str], np.ndarray] = {}


def golden_run(model: ModelGraph, x: Tensor) -> np.ndarray:
    """Fault-free class map, cached by (model digest, input digest)."""
    key = (model_digest(model), tensor_digest(x))
    hit = _GOLDEN_CACHE.get(key)
    if hit is None:
        hit = _GOLDEN_CACHE[key] = predict_classes(model, x)
    return hit.copy()


def clear_golden_cache() -> None:
    _GOLDEN_CACHE.clear()


def pixel_mismatch_rate(golden: np.ndarray, faulty: np.ndarray) -> float:
    """Fraction of pixels whose predicted class differs; 1.0 = every pixel."""
    if golden.shape != faulty.shape:
        raise ValueError(f"class map shapes differ: {golden.shape} vs {faulty.shape}")
    return float(np.count_nonzero(golden != faulty) / golden.size)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def _draw_layer(space: FaultSpace, layer_id: int, config: CampaignConfig) -> list[FaultLocation]:
    """Draw each stratum's quota without replacement, then map every draw
    of the layer through the cumulative sizes of all its strata's blocks."""
    _, strata = _layer_schedule(space, layer_id, config)
    rng = np.random.default_rng((config.seed, layer_id))
    blocks = [block for stratum, _ in strata for block in stratum]
    bounds = np.cumsum([0] + [e.count * len(usable) for e, usable in blocks])
    draws, first = [], 0
    for stratum, quota in strata:
        last = first + len(stratum)
        flat = rng.choice(int(bounds[last] - bounds[first]), size=quota, replace=False)
        if config.sampling == "stratified_per_bit":
            flat.sort()
        draws.append(flat + bounds[first])
        first = last
    flat = np.concatenate(draws)
    block = np.searchsorted(bounds, flat, side="right") - 1
    locs: list[FaultLocation] = []
    for i, rel in zip(block.tolist(), (flat - bounds[block]).tolist()):
        e, usable = blocks[i]
        locs.append(FaultLocation(layer_id, e.kind, rel // len(usable), usable[rel % len(usable)]))
    return locs


# ---------------------------------------------------------------------------
# execution and aggregation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InjectionRecord:
    location: FaultLocation
    bit_width: int
    pre_bits: int
    post_bits: int
    direction: str
    field: str
    post_kind: str
    input_id: int
    error_rate: float


@dataclass(frozen=True)
class CellStats:
    count: int
    mean: float
    std: float
    mean_nonzero: float
    max: float


def _stats(rates: np.ndarray) -> tuple[float, float, float, float, int]:
    nz = rates[rates > 0]
    mean_nz = float(nz.mean()) if nz.size else 0.0
    return float(rates.mean()), float(rates.std()), mean_nz, float(rates.max()), int(nz.size)


@dataclass
class ErrorMatrix:
    """Layer x bit-position error statistics plus a global summary."""

    cells: dict[tuple[int, int], CellStats]
    count: int
    mean: float
    std: float
    mean_nonzero: float
    nonzero_count: int


def aggregate(records: list[InjectionRecord]) -> ErrorMatrix:
    """Population mean/std per (layer, bit) cell and globally; the mean over
    nonzero-error records is reported separately with its count."""
    if not records:
        raise ValueError("no records to aggregate")
    by_cell: dict[tuple[int, int], list[float]] = {}
    for r in records:
        by_cell.setdefault((r.location.layer_id, r.location.bit), []).append(r.error_rate)
    cells = {}
    for key in sorted(by_cell):
        rates = np.asarray(by_cell[key], dtype=np.float64)
        mean, std, mean_nz, mx, _ = _stats(rates)
        cells[key] = CellStats(rates.size, mean, std, mean_nz, mx)
    rates = np.asarray([r.error_rate for r in records], dtype=np.float64)
    mean, std, mean_nz, _, n_nz = _stats(rates)
    return ErrorMatrix(cells, rates.size, mean, std, mean_nz, n_nz)


def _run_chunk(model: ModelGraph, chunk, goldens) -> list[list[InjectionRecord]]:
    """Records of each location in `chunk`, one per input; `model` is only read."""
    out = []
    for loc in chunk:
        fault = channel_fault(model, loc)
        cls = fault.classification
        out.append([
            InjectionRecord(
                location=loc,
                bit_width=fault.param.bit_width,
                pre_bits=fault.pre_bits,
                post_bits=fault.post_bits,
                direction=cls.direction,
                field=cls.field,
                post_kind=cls.post_kind,
                input_id=input_id,
                error_rate=pixel_mismatch_rate(golden.classes, faulted_classes(model, golden, fault)),
            )
            for input_id, golden in enumerate(goldens)
        ])
    return out


def run_campaign(
    model: ModelGraph, config: CampaignConfig, jobs: int = 1
) -> tuple[list[InjectionRecord], ErrorMatrix]:
    """Plan, inject, score, and aggregate one campaign.

    Fully reproducible from the seed: sampling is derived per layer, and
    record order is fixed by (plan order, draw order, input order) no
    matter how many worker threads execute the injections.
    """
    if not config.inputs:
        raise ValueError("campaign needs at least one input image")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    goldens = [golden_trace(model, x) for x in config.inputs]
    space = enumerate_fault_space(model, config.included_kinds)
    locations = [loc for entry in plan(model, config).entries
                 for loc in _draw_layer(space, entry.layer_id, config)]

    n = min(jobs, len(locations))
    if n <= 1:
        per_location = _run_chunk(model, locations, goldens)
    else:
        # interleaved, so that every worker gets a share of the costly early layers
        with ThreadPoolExecutor(max_workers=n) as pool:
            parts = list(pool.map(_run_chunk, [model] * n,
                                  [locations[i::n] for i in range(n)], [goldens] * n))
        per_location = [parts[i % n][i // n] for i in range(len(locations))]
    records = [r for recs in per_location for r in recs]
    return records, aggregate(records)


# ---------------------------------------------------------------------------
# CSV and config serialization
# ---------------------------------------------------------------------------

RECORD_COLUMNS = (
    "layer_id", "kind", "index", "bit", "direction", "field",
    "pre_bits", "post_bits", "post_kind", "input_id", "error_rate",
)
MATRIX_COLUMNS = ("layer_id", "bit", "count", "mean", "std", "mean_nonzero", "max")


def _hex(bits: int, width: int) -> str:
    return format(bits, f"0{width // 4}x")


def write_records_csv(path, records: list[InjectionRecord]) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(RECORD_COLUMNS)
        for r in records:
            w.writerow(
                [
                    r.location.layer_id, r.location.kind.value, r.location.index, r.location.bit,
                    r.direction, r.field, _hex(r.pre_bits, r.bit_width), _hex(r.post_bits, r.bit_width),
                    r.post_kind, r.input_id, repr(r.error_rate),
                ]
            )


def read_records_csv(path) -> list[InjectionRecord]:
    records = []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        if tuple(header) != RECORD_COLUMNS:
            raise ValueError(f"unexpected records header: {header}")
        for row in reader:
            (lid, kind, index, bit, direction, fld, pre, post, post_kind, input_id, rate) = row
            records.append(
                InjectionRecord(
                    location=FaultLocation(int(lid), ParamKind(kind), int(index), int(bit)),
                    bit_width=len(pre) * 4,
                    pre_bits=int(pre, 16),
                    post_bits=int(post, 16),
                    direction=direction,
                    field=fld,
                    post_kind=post_kind,
                    input_id=int(input_id),
                    error_rate=float(rate),
                )
            )
    return records


def write_matrix_csv(path, matrix: ErrorMatrix) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(MATRIX_COLUMNS)
        for (lid, bit), c in sorted(matrix.cells.items()):
            w.writerow([lid, bit, c.count, repr(c.mean), repr(c.std), repr(c.mean_nonzero), repr(c.max)])


def read_matrix_csv(path) -> dict[tuple[int, int], CellStats]:
    cells = {}
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        if tuple(header) != MATRIX_COLUMNS:
            raise ValueError(f"unexpected matrix header: {header}")
        for lid, bit, count, mean, std, mean_nz, mx in reader:
            cells[(int(lid), int(bit))] = CellStats(
                int(count), float(mean), float(std), float(mean_nz), float(mx)
            )
    return cells


def config_from_dict(d: dict, inputs: tuple[Tensor, ...] = ()) -> CampaignConfig:
    """A config from its JSON form; `inputs` stands in for the file's input
    specs.  Absent and null fields, and an empty `included_kinds`, take the
    defaults.  A value of the wrong type is a ValueError naming its field."""
    defaults = {f.name: f.default for f in fields(CampaignConfig)}
    unknown = set(d) - set(defaults)
    if unknown:
        raise ValueError(f"unknown campaign config fields: {sorted(unknown)}")
    kw = {}
    for name, value in d.items():
        if value is None or name == "inputs":
            continue
        try:
            if name in ("included_kinds", "bits", "layers") and not isinstance(value, list):
                raise TypeError(f"expected a list, got {value!r}")
            if name == "included_kinds":
                if value:
                    kw[name] = frozenset(ParamKind(k) for k in value)
            elif defaults[name] is None:  # bits, layers
                kw[name] = tuple(int(v) for v in value)
            else:
                kw[name] = type(defaults[name])(value)
        except TypeError as e:
            raise ValueError(f"campaign config field {name!r}: {e}") from None
    return CampaignConfig(**kw, inputs=inputs)
