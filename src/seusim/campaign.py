"""Statistically-sized fault-injection campaigns.

Per-layer injection counts come from the finite-population sample-size
formula

    n = N / (1 + e^2 * (N - 1) / (t^2 * p * (1 - p)))

rounded up and capped.  Each injection applies one transient bit flip,
scores the fraction of output pixels whose predicted class differs from
the golden reference, and reverts the flip.  Results aggregate into a
layer x bit-position error matrix.

The golden forward pass runs once per campaign input and keeps every
node's output (`seusim.model.golden_trace`); the worker threads share it
read-only.  An injection recomputes only the one output channel its
parameter feeds, splices it into a copy of that node's golden output, and
runs the node's descendants in full (`seusim.model.faulted_classes`).
The class map is bit-identical to a full forward pass: each channel's
sum is independent of the other filters, and a one-filter slice reduces
over (c, i, j) in the same order.  Since cost now falls with the faulted
layer's depth, worker `i` of `n` takes injections `i, i + n, ...` of the
plan rather than a contiguous run, and the records are reassembled in
plan order, then input order.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .inject import FaultLocation, apply_fault, revert
from .model import (
    DEFAULT_CAMPAIGN_KINDS,
    FaultSpace,
    ModelGraph,
    ParamKind,
    enumerate_fault_space,
    fault_channel,
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


def _entry_bits(bit_width: int, bits: tuple[int, ...] | None) -> list[int]:
    if bits is None:
        return list(range(bit_width))
    return sorted(b for b in set(bits) if b < bit_width)


def _restricted_layer_space(space: FaultSpace, layer_id: int, bits):
    """(entry, usable bit list) pairs and the restricted fault count."""
    out = []
    for e in space.layer_entries(layer_id):
        usable = _entry_bits(e.bit_width, bits)
        if usable:
            out.append((e, usable))
    return out, sum(e.count * len(usable) for e, usable in out)


def plan(model: ModelGraph, config: CampaignConfig) -> CampaignPlan:
    space = enumerate_fault_space(model, config.included_kinds)
    entries = []
    for lid in space.layer_ids():
        if config.layers is not None and lid not in config.layers:
            continue
        _, n_restricted = _restricted_layer_space(space, lid, config.bits)
        if n_restricted == 0:
            continue
        entries.append(
            PlanEntry(lid, n_restricted, sample_size(n_restricted, config.e, config.t, config.p, config.cap))
        )
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

def _sample_layer_locations(model, space, layer_id, n, config) -> list[FaultLocation]:
    pairs, total = _restricted_layer_space(space, layer_id, config.bits)
    rng = np.random.default_rng((config.seed, layer_id))
    locs: list[FaultLocation] = []

    if config.sampling == "uniform_layer":
        flat = rng.choice(total, size=n, replace=False)
        offset = 0
        blocks = []
        for e, usable in pairs:
            blocks.append((offset, e, usable))
            offset += e.count * len(usable)
        starts = [b[0] for b in blocks]
        for f in flat:
            f = int(f)
            i = np.searchsorted(starts, f, side="right") - 1
            start, e, usable = blocks[i]
            rel = f - start
            locs.append(FaultLocation(layer_id, e.kind, rel // len(usable), usable[rel % len(usable)]))
        return locs

    # stratified_per_bit: equal quota per bit position, elements drawn
    # without replacement within each bit
    all_bits = sorted({b for _, usable in pairs for b in usable})
    quotas = {b: n // len(all_bits) for b in all_bits}
    for b in all_bits[: n % len(all_bits)]:
        quotas[b] += 1
    for b in all_bits:
        eligible = [(e, usable) for e, usable in pairs if b in usable]
        counts = [e.count for e, _ in eligible]
        universe = sum(counts)
        q = min(quotas[b], universe)
        chosen = rng.choice(universe, size=q, replace=False)
        bounds = np.cumsum([0] + counts)
        for c in sorted(int(v) for v in chosen):
            i = int(np.searchsorted(bounds, c, side="right") - 1)
            locs.append(FaultLocation(layer_id, eligible[i][0].kind, c - int(bounds[i]), b))
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
    """Records of each location in `chunk`, one per input."""
    out = []
    for loc in chunk:
        handle = apply_fault(model, loc)
        node = model.node(loc.layer_id)
        width = node.params[loc.kind].bit_width
        channel = fault_channel(node, loc.kind, loc.index)
        records = []
        for input_id, golden in enumerate(goldens):
            faulty = faulted_classes(model, golden, loc.layer_id, channel)
            records.append(
                InjectionRecord(
                    location=loc,
                    bit_width=width,
                    pre_bits=handle.pre_bits,
                    post_bits=handle.post_bits,
                    direction=handle.classification.direction,
                    field=handle.classification.field,
                    post_kind=handle.classification.post_kind,
                    input_id=input_id,
                    error_rate=pixel_mismatch_rate(golden.classes, faulty),
                )
            )
        revert(handle)
        out.append(records)
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
    cplan = plan(model, config)

    locations: list[FaultLocation] = []
    for entry in cplan.entries:
        locations.extend(_sample_layer_locations(model, space, entry.layer_id, entry.injections, config))

    n = min(jobs, len(locations))
    if n <= 1:
        per_location = _run_chunk(model, locations, goldens)
    else:
        # interleaved, so that every worker gets a share of the costly early layers
        with ThreadPoolExecutor(max_workers=n) as pool:
            parts = list(pool.map(_run_chunk, [model.copy() for _ in range(n)],
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


def config_to_dict(config: CampaignConfig, input_specs=None) -> dict:
    d = {
        "e": config.e,
        "t": config.t,
        "p": config.p,
        "cap": config.cap,
        "included_kinds": sorted(k.value for k in config.included_kinds),
        "sampling": config.sampling,
        "seed": config.seed,
        "inputs": input_specs if input_specs is not None else [f"<in-memory {i}>" for i in range(len(config.inputs))],
    }
    if config.bits is not None:
        d["bits"] = sorted(config.bits)
    if config.layers is not None:
        d["layers"] = sorted(config.layers)
    return d


def config_from_dict(d: dict, inputs: tuple[Tensor, ...] = ()) -> CampaignConfig:
    known = {"e", "t", "p", "cap", "included_kinds", "sampling", "seed", "inputs", "bits", "layers"}
    unknown = set(d) - known
    if unknown:
        raise ValueError(f"unknown campaign config fields: {sorted(unknown)}")
    kinds = d.get("included_kinds")
    return CampaignConfig(
        e=float(d.get("e", DEFAULT_E)),
        t=float(d.get("t", DEFAULT_T)),
        p=float(d.get("p", DEFAULT_P)),
        cap=int(d.get("cap", DEFAULT_CAP)),
        included_kinds=frozenset(ParamKind(k) for k in kinds) if kinds else DEFAULT_CAMPAIGN_KINDS,
        sampling=d.get("sampling", "uniform_layer"),
        seed=int(d.get("seed", 0)),
        inputs=inputs,
        bits=tuple(int(b) for b in d["bits"]) if "bits" in d else None,
        layers=tuple(int(l) for l in d["layers"]) if "layers" in d else None,
    )


def with_inputs(config: CampaignConfig, inputs) -> CampaignConfig:
    return replace(config, inputs=tuple(inputs))
