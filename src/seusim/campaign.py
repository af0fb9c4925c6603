"""Statistically-sized fault-injection campaigns.

Per-layer injection counts come from the finite-population sample-size
formula

    n = N / (1 + e^2 * (N - 1) / (t^2 * p * (1 - p)))

rounded up and capped.  `plan` draws the locations and `run_campaign`
injects exactly those, in plan order: each `PlanEntry` holds its layer's
N and its drawn locations, so the planned count is the injected count.
`uniform_layer` draws n of the layer's (element, bit) pairs without
replacement; `stratified_per_bit` draws an equal share of n per bit,
capped by the elements that carry the bit.  The draws depend only on the
model's shapes and the config, with one generator per (seed, layer); a
negative seed is a config error.  Each injection builds its single bit
flip as a value (`seusim.inject.channel_fault`) and scores the fraction
of output pixels whose predicted class differs from the golden
reference.  Results aggregate into a layer x bit-position error matrix.

The golden forward pass runs once per campaign input and keeps every
node's output (`seusim.model.golden_trace`).  The workers inherit it and
the caller's model, and only read them.  An injection recomputes only the one
output channel its parameter feeds, from the fault's own faulted copy of
the channel's parameter slice, splices it into a copy of that node's
golden output, runs the node's descendants in full, and counts the pixels
whose class changed (`seusim.model.faulted_changed_pixels`); a fault in
the output conv is scored against per-class golden planes and builds no
class map.  The golden run also keeps the output conv's sums before its
bias, so a fault in one of its biases recomputes no conv: it finishes a
copy of its class channel's golden sums with the faulted bias.  On an
int8 model it also keeps the forward's lookup tables and, per conv, the
padded operand of its golden input, so an injection builds no table and
its one-filter slice pads and converts nothing.  The count
is that of a full forward pass: each channel's sum is independent of the
other filters, a one-filter slice reduces over (c, i, j) in the same
order, and the bias is added after the sums.
`injections` is the one loop of a campaign.  Its workers are processes,
and the caller is one of them: at jobs = k it forks k - 1 workers, so at
jobs = 1 it forks nothing and runs the same loop alone.  The workers
inherit the model, the golden traces and the injection function by fork,
so nothing is pickled on the way in; each sends back, over its own
pipe, only each injection's fault fields and error rates, or its
exception, and the caller builds the records.
Whichever worker is idle, the caller included, takes the next plan index
from a pipe that the caller feeds, so the costly early layers spread
without a fixed deal, but the caller feeds no index more than 8 plan
positions per job past the record the stream yields next, so a stream
stopped mid-way has started few injections past its last record however
its processes were scheduled.  The records come in plan order, then
input order, at any job count; an injection's exception is raised at its
turn, after every earlier record, and no injection starts after it.
Workers ignore SIGINT, so a Ctrl-C reaches only the caller.  Closing the
iterator, or an exception, interrupt or garbage collection while it is
read, terminates and reaps every worker; a worker whose caller was killed
finds the pipe's end once the indices in it are spent, and ends.  A worker
that ends before the campaign does, whatever its exit code, makes the
stream raise RuntimeError.  Fork is the only start method used, so
jobs > 1 needs Linux or another POSIX system.
`seusim run` writes each record as its injection finishes and computes
the matrix from `records.csv`.
"""

from __future__ import annotations

import csv
import math
import os
import re
import select
import selectors
import signal
import sys
from collections.abc import Iterable, Iterator
from contextlib import closing
from dataclasses import astuple, dataclass
from functools import partial

import numpy as np

# apply_fault, revert and model_digest are unused here, but perfbench/trace.py
# rebinds them on this module
from .inject import FaultLocation, apply_fault, channel_fault, revert  # noqa: F401
from .model import (
    DEFAULT_CAMPAIGN_KINDS,
    FaultSpace,
    ModelGraph,
    ParamKind,
    enumerate_fault_space,
    faulted_changed_pixels,
    golden_trace,
    predict_classes,
)
from .modelio import model_digest  # noqa: F401
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
        sample_size(1, self.e, self.t, self.p, self.cap)  # checks e, t, p and cap
        if self.seed < 0:
            raise ValueError(f"campaign config: field 'seed': must be non-negative, got {self.seed}")
        if self.sampling not in SAMPLING_MODES:
            raise ValueError(f"unknown sampling mode {self.sampling!r}")
        if not self.included_kinds:
            raise ValueError("included_kinds must not be empty")
        if self.bits is not None and (len(self.bits) == 0 or any(not 0 <= b < 32 for b in self.bits)):
            raise ValueError(f"bits filter must be a non-empty set of positions in 0..31, got {self.bits}")
        if self.layers is not None and (len(self.layers) == 0 or any(lid < 0 for lid in self.layers)):
            raise ValueError(f"layers filter must be a non-empty set of non-negative layer ids, got {self.layers}")


@dataclass(frozen=True)
class PlanEntry:
    layer_id: int
    fault_space: int  # N
    locations: tuple[FaultLocation, ...]  # drawn, in injection order

    @property
    def injections(self) -> int:
        return len(self.locations)


@dataclass
class CampaignPlan:
    entries: list[PlanEntry]

    def total_injections(self) -> int:
        return sum(e.injections for e in self.entries)


def _draw_layer(space: FaultSpace, layer_id: int, config: CampaignConfig):
    """(N, locations) of one layer.  N counts the (element, bit) pairs that
    pass the bits filter.  Each stratum, a list of (entry, usable bits)
    blocks, has its quota drawn without replacement; every draw of the layer
    then maps to a location through the cumulative sizes of all the blocks."""
    blocks = []
    for e in space.layer_entries(layer_id):
        usable = [b for b in range(e.bit_width) if config.bits is None or b in config.bits]
        if usable:
            blocks.append((e, usable))
    N = sum(e.count * len(usable) for e, usable in blocks)
    if N == 0:
        return 0, ()
    n = sample_size(N, config.e, config.t, config.p, config.cap)
    if config.sampling == "uniform_layer":
        strata = [(blocks, n)]
    else:
        bits = sorted({b for _, usable in blocks for b in usable})
        strata = []
        for i, b in enumerate(bits):
            carriers = [(e, [b]) for e, usable in blocks if b in usable]
            share = n // len(bits) + (i < n % len(bits))
            strata.append((carriers, min(share, sum(e.count for e, _ in carriers))))
        blocks = [block for carriers, _ in strata for block in carriers]
    rng = np.random.default_rng((config.seed, layer_id))
    bounds = np.cumsum([0] + [e.count * len(usable) for e, usable in blocks])
    draws, first = [], 0
    for stratum, quota in strata:
        last = first + len(stratum)
        if quota:  # a size-0 choice draws nothing and leaves the generator as it was
            flat = rng.choice(int(bounds[last] - bounds[first]), size=quota, replace=False)
            if config.sampling == "stratified_per_bit":
                flat.sort()
            draws.append(flat + bounds[first])
        first = last
    flat = np.concatenate(draws)
    block = np.searchsorted(bounds, flat, side="right") - 1
    locations = []
    for i, rel in zip(block.tolist(), (flat - bounds[block]).tolist()):
        e, usable = blocks[i]
        locations.append(FaultLocation(layer_id, e.kind, rel // len(usable), usable[rel % len(usable)]))
    return N, tuple(locations)


def plan(model: ModelGraph, config: CampaignConfig) -> CampaignPlan:
    """Each selected layer's fault-space size N and the locations drawn
    from it, in the order `run_campaign` injects them."""
    space = enumerate_fault_space(model, config.included_kinds)
    entries = []
    for lid in space.layer_ids():
        if config.layers is not None and lid not in config.layers:
            continue
        N, locations = _draw_layer(space, lid, config)
        if N:
            entries.append(PlanEntry(lid, N, locations))
    if not entries:
        raise ValueError("empty fault space for this configuration")
    unused = sorted(set(config.layers or ()) - {e.layer_id for e in entries})
    if unused:
        raise ValueError(f"layers filter: no fault sites in layer {', '.join(map(str, unused))} for this configuration")
    return CampaignPlan(entries)


# ---------------------------------------------------------------------------
# golden reference
# ---------------------------------------------------------------------------

def golden_run(model: ModelGraph, x: Tensor) -> np.ndarray:
    """Fault-free class map, computed afresh on every call."""
    return predict_classes(model, x)


def clear_golden_cache() -> None:
    """Does nothing: golden maps are not cached.  Kept because
    perfbench/workloads.py calls it before every campaign."""


def pixel_mismatch_rate(golden: np.ndarray, faulty: np.ndarray) -> float:
    """Fraction of pixels whose predicted class differs; 1.0 = every pixel."""
    if golden.shape != faulty.shape:
        raise ValueError(f"class map shapes differ: {golden.shape} vs {faulty.shape}")
    return float(np.count_nonzero(golden != faulty) / golden.size)


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


def _inject(model: ModelGraph, goldens, loc: FaultLocation) -> tuple:
    """One location's fault fields (bit_width, pre_bits, post_bits,
    direction, field, post_kind) and its error rate per input, as plain
    values: a worker sends them back small, and `_as_records` builds the
    records in the caller.  `model` is only read."""
    fault = channel_fault(model, loc)
    cls = fault.classification
    rates = [float(faulted_changed_pixels(model, golden, fault) / golden.classes.size) for golden in goldens]
    return (fault.param.bit_width, fault.pre_bits, fault.post_bits, cls.direction, cls.field, cls.post_kind), rates


def _as_records(loc: FaultLocation, result: tuple) -> list[InjectionRecord]:
    """The records of `_inject`'s result at `loc`, one per input.  They hold
    the plan's `loc` and one copy of each string, whichever process ran the
    injection, so a worker's records take no more memory than the caller's."""
    (bit_width, pre_bits, post_bits, direction, field, post_kind), rates = result
    direction, field, post_kind = sys.intern(direction), sys.intern(field), sys.intern(post_kind)
    return [InjectionRecord(loc, bit_width, pre_bits, post_bits, direction, field, post_kind, input_id, rate)
            for input_id, rate in enumerate(rates)]


def injections(model: ModelGraph, config: CampaignConfig, jobs: int = 1) -> Iterator[InjectionRecord]:
    """The records of one campaign, in (plan, draw, input) order at any job
    count, as its injections finish.  The config checks, the plan and the
    golden traces run before this returns; the injections run as the
    iterator is read."""
    if not config.inputs:
        raise ValueError("campaign needs at least one input image")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    locations = [loc for e in plan(model, config).entries for loc in e.locations]
    goldens = [golden_trace(model, x) for x in config.inputs]
    return _records(partial(_inject, model, goldens), locations, min(jobs, len(locations)))


# how far past the record it yields next the stream may start injections,
# per job: enough for the other workers to stay busy through an injection
# several times longer than theirs, few enough that a stopped stream has
# started little past its last record
_AHEAD_PER_JOB = 8


class _Deal:
    """Plan indices 0..n-1, each taken once and in order by whichever of the
    caller and its forked workers reads it first.  The caller feeds them as
    4-byte integers into a pipe, only up to a limit that it moves as the
    stream yields records, and never more than PIPE_BUF bytes at a time, so
    each write is whole.  A read of 4 bytes then takes one whole index, so
    the kernel hands each index to one reader and there is no lock for a
    dying worker to leave held.  Only the caller holds the write end: a
    worker that waits for an index finds the pipe's end once the caller
    closes it or dies."""

    def __init__(self, n: int):
        self.n = n
        self._fed = 0
        self._indices = memoryview(np.arange(n, dtype="<i4").tobytes())
        self._r, self._w = os.pipe()
        os.set_blocking(self._r, False)  # the caller must not wait on it
        self._ready = select.poll()  # a worker waits on this instead
        self._ready.register(self._r, select.POLLIN)

    def feed(self, limit: int) -> None:
        """Put every index below `limit` in the pipe."""
        limit = min(limit, self.n)
        if self._fed < limit:
            os.write(self._w, self._indices[4 * self._fed:4 * limit])
            self._fed = limit

    def take(self, wait: bool = False) -> int | None:
        """The next index; None at the pipe's end, or while the pipe is
        empty unless `wait`."""
        while True:
            try:
                data = os.read(self._r, 4)
            except BlockingIOError:
                if not wait:
                    return None
                self._ready.poll()
            else:
                return int.from_bytes(data, "little") if data else None

    def stop(self) -> None:
        """Feed nothing more, and take out what the pipe holds."""
        self._fed = self.n
        while self.take() is not None:
            pass

    def leave(self) -> None:
        """Close the write end in a worker, so that the caller's is the last."""
        os.close(self._w)

    def close(self) -> None:
        os.close(self._r)
        os.close(self._w)


def _serve(inject, locations: list[FaultLocation], deal: _Deal, out) -> None:
    """A forked worker: until the deal ends, take an index and send
    (index, result, None), or (index, None, exception) and stop the deal."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # a Ctrl-C is the caller's
    signal.signal(signal.SIGTERM, signal.SIG_DFL)  # and `terminate` always ends the worker
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
    deal.leave()
    while (i := deal.take(wait=True)) is not None:
        try:
            result = i, inject(locations[i]), None
        except BaseException as e:  # the caller raises it at its turn
            deal.stop()
            result = i, None, e
        out.send(result)


def _collect(workers: selectors.BaseSelector, done: dict, deal: _Deal, timeout: float | None) -> None:
    """Store in `done` what the workers have sent, waiting up to `timeout`
    (None: until a worker sends or ends), and stop the deal at an
    exception.  A worker ends only at the deal's end, which the caller
    makes once the stream is over, so a worker that ends is a RuntimeError,
    whatever its exit code."""
    for key, _ in workers.select(timeout):
        try:
            i, result, error = key.fileobj.recv()
        except EOFError:
            worker = key.data
            worker.join()
            raise RuntimeError(
                f"campaign worker {worker.pid} ended mid-campaign (exit code {worker.exitcode})") from None
        done[i] = result, error
        if error is not None:
            deal.stop()


def _records(inject, locations: list[FaultLocation], jobs: int) -> Iterator[InjectionRecord]:
    """The records of `inject` at each location, in order, run by the caller
    and jobs - 1 forked workers (see the module docstring)."""
    import multiprocessing  # here, so that what runs no campaign never loads it

    fork = multiprocessing.get_context("fork")
    ahead = min(_AHEAD_PER_JOB * jobs, select.PIPE_BUF // 4)  # the most the pipe ever holds
    done = {}  # plan index -> (result, exception)
    forked = []  # (worker, its pipe), each listed before it starts
    # each worker's pipe is also registered with the worker as its data
    with closing(_Deal(len(locations))) as deal, selectors.DefaultSelector() as workers:
        try:
            blocked = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            try:  # a Ctrl-C waits until every worker ignores it
                for _ in range(jobs - 1):
                    conn, out = fork.Pipe(duplex=False)
                    worker = fork.Process(target=_serve, args=(inject, locations, deal, out), daemon=True)
                    forked.append((worker, conn))
                    worker.start()
                    out.close()
                    workers.register(conn, selectors.EVENT_READ, worker)
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, blocked)
            for turn in range(len(locations)):
                deal.feed(turn + ahead)  # nothing more once the deal is stopped
                while turn not in done:
                    i = deal.take()
                    if i is None:  # the workers hold every index it may take: wait for them
                        _collect(workers, done, deal, None)
                        continue
                    try:
                        done[i] = inject(locations[i]), None
                    except BaseException as e:  # raised below, at its turn
                        deal.stop()
                        done[i] = None, e
                    if forked:
                        _collect(workers, done, deal, 0)
                result, error = done.pop(turn)
                if error is not None:
                    raise error
                yield from _as_records(locations[turn], result)
        finally:
            for worker, _ in forked:
                if worker.pid is not None:
                    worker.terminate()
            for worker, conn in forked:
                if worker.pid is not None:
                    worker.join()
                    worker.close()
                conn.close()


def run_campaign(
    model: ModelGraph, config: CampaignConfig, jobs: int = 1
) -> tuple[list[InjectionRecord], ErrorMatrix]:
    """Plan, inject, score, and aggregate one campaign; fully reproducible
    from the seed, since sampling is derived per layer."""
    records = list(injections(model, config, jobs))
    return records, aggregate(records)


# ---------------------------------------------------------------------------
# CSV and config serialization
# ---------------------------------------------------------------------------

RECORD_COLUMNS = (
    "layer_id", "kind", "index", "bit", "direction", "field",
    "pre_bits", "post_bits", "post_kind", "input_id", "error_rate",
)
MATRIX_COLUMNS = ("layer_id", "bit", "count", "mean", "std", "mean_nonzero", "max")


def write_table(path, columns, rows) -> None:
    """The header `columns`, then one line per row, in the csv module's
    default dialect: commas, `\\r\\n` line ends, floats as their repr."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(columns)
        w.writerows(rows)


def read_table(path, name: str, columns, parsers):
    """(line number, values) per row of a `write_table` file, each value
    parsed by its column's parser.  A header other than `columns` (an empty
    file has none), and a missing, extra or rejected value, is a ValueError
    naming the file and, for a value, the line and the column."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if tuple(header or ()) != tuple(columns):
            raise ValueError(f"{path}: unexpected {name} header: {header}")
        width = len(columns)
        for row in reader:
            where = f"{path}, line {reader.line_num}"
            if len(row) < width:
                raise ValueError(f"{where}, column {columns[len(row)]!r}: missing")
            if len(row) > width:
                raise ValueError(f"{where}, column {width + 1}: unexpected value {row[width]!r}")
            values = []
            for column, parse, text in zip(columns, parsers, row):
                try:
                    values.append(parse(text))
                except ValueError:
                    raise ValueError(f"{where}, column {column!r}: expected {parse.__name__}, got {text!r}") from None
            yield reader.line_num, values


def _hex(bits: int, width: int) -> str:
    return format(bits, f"0{width // 4}x")


def write_records_csv(path, records: Iterable[InjectionRecord]) -> None:
    write_table(path, RECORD_COLUMNS, (
        (r.location.layer_id, r.location.kind.value, r.location.index, r.location.bit, r.direction, r.field,
         _hex(r.pre_bits, r.bit_width), _hex(r.post_bits, r.bit_width), r.post_kind, r.input_id, r.error_rate)
        for r in records
    ))


def read_records_csv(path) -> list[InjectionRecord]:
    """Records of a records file, checked as `read_table` checks every table.
    A row's `post_bits` must be its `pre_bits` with bit `bit` flipped, both
    patterns of one width; otherwise the ValueError names the line and the
    column."""
    def hex_bits(text: str) -> tuple[int, int]:  # the bits, and the width the digits give
        if not re.fullmatch("[0-9a-fA-F]{2}|[0-9a-fA-F]{8}", text):
            raise ValueError
        return int(text, 16), len(text) * 4

    parsers = (int, ParamKind, int, int, str, str, hex_bits, hex_bits, str, int, float)
    records = []
    for line, (lid, kind, index, bit, direction, fld, (pre, width), (post, post_width), post_kind, input_id,
               rate) in read_table(path, "records", RECORD_COLUMNS, parsers):
        where = f"{path}, line {line}, column"
        if post_width != width:
            raise ValueError(f"{where} 'post_bits': {post_width}-bit pattern after {width}-bit pre_bits")
        if not 0 <= bit < width:
            raise ValueError(f"{where} 'bit': {bit} outside the {width}-bit pattern")
        if post != pre ^ (1 << bit):
            raise ValueError(f"{where} 'post_bits': expected pre_bits with bit {bit} flipped, "
                             f"{_hex(pre ^ (1 << bit), width)}, got {_hex(post, width)}")
        records.append(InjectionRecord(FaultLocation(lid, kind, index, bit), width, pre, post,
                                       direction, fld, post_kind, input_id, rate))
    return records


def write_matrix_csv(path, matrix: ErrorMatrix) -> None:
    write_table(path, MATRIX_COLUMNS, ((lid, bit, *astuple(c)) for (lid, bit), c in sorted(matrix.cells.items())))


def read_matrix_csv(path) -> dict[tuple[int, int], CellStats]:
    """Cells of a matrix file, checked as `read_table` checks every table; a
    second row for a cell is a ValueError naming both lines."""
    cells, lines = {}, {}
    for line, (lid, bit, *stats) in read_table(path, "matrix", MATRIX_COLUMNS, (int,) * 3 + (float,) * 4):
        if (lid, bit) in lines:
            raise ValueError(f"{path}, line {line}: cell {(lid, bit)} repeats line {lines[lid, bit]}")
        lines[lid, bit] = line
        cells[lid, bit] = CellStats(*stats)
    return cells


def json_value(value, kind: type, least=None):
    """`value` if JSON gives it as a `kind` (an integer for int, any number
    for float, a string for str, an array for list, an object for dict) of
    at least `least`.  A bool is not a number and a float is never an int."""
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise TypeError(f"expected {kind.__name__}, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"must be >= {least}, got {value}")
    return kind(value)


def json_list(value, kind: type, length=None) -> tuple:
    """The items of a JSON array, each a `kind` as `json_value` reads it,
    and `length` of them if given."""
    items = tuple(json_value(v, kind) for v in json_value(value, list))
    if length is not None and len(items) != length:
        raise ValueError(f"expected {length} items, got {value!r}")
    return items


def json_fields(doc, where: str, parsers: dict, required=()) -> dict:
    """The non-null fields of the JSON object `doc`, each read by its parser:
    a function of the value, or a dict of parsers for a nested object, whose
    fields (and `required` names) are dotted, as in `profile.k_sat`.  A
    non-object, an unknown or missing required field, or a value its parser
    rejects is a ValueError naming `where` and the field."""
    def error(field: str, reason) -> ValueError:
        return ValueError(f"{where}: field {field!r}: {reason}")

    def read(obj: dict, parsers: dict, prefix: str) -> dict:
        unknown = obj.keys() - parsers.keys()
        if unknown:
            raise error(prefix + min(unknown), f"unknown, expected one of {', '.join(parsers)}")
        out = {}
        for name, parse in parsers.items():
            field, value = prefix + name, obj.get(name)
            if value is None:
                if field in required:
                    raise error(field, "missing")
            elif isinstance(parse, dict):  # a nested object
                if not isinstance(value, dict):
                    raise error(field, f"expected a JSON object, got {value!r}")
                out[name] = read(value, parse, field + ".")
            else:
                try:
                    out[name] = parse(value)
                except (TypeError, ValueError) as e:
                    raise error(field, e) from None
        return out

    if not isinstance(doc, dict):
        raise ValueError(f"{where}: expected a JSON object, got {doc!r}")
    return read(doc, parsers, "")


def config_from_dict(d: dict, inputs: tuple[Tensor, ...] = (), where: str = "campaign config") -> CampaignConfig:
    """A config from its JSON form, read by `json_fields`; `inputs` stands
    in for the file's list of input specs.  Absent and null fields, and an
    empty `included_kinds`, take the defaults.  A value of the wrong type,
    such as 1.7 or true for an integer, is a ValueError naming its field."""
    number, integer = partial(json_value, kind=float), partial(json_value, kind=int)
    kw = json_fields(d, where, {
        "e": number, "t": number, "p": number, "cap": integer,
        "included_kinds": lambda v: frozenset(map(ParamKind, json_list(v, str))) or DEFAULT_CAMPAIGN_KINDS,
        "sampling": partial(json_value, kind=str), "seed": integer,
        "inputs": partial(json_value, kind=list),
        "bits": partial(json_list, kind=int), "layers": partial(json_list, kind=int),
    })
    kw.pop("inputs", None)
    return CampaignConfig(**kw, inputs=inputs)
