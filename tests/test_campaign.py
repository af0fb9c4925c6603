"""Campaign planning, execution, aggregation, and serialization."""

import contextlib
import math
import multiprocessing
import os
import signal
import sys
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seusim.campaign as camp
from seusim.campaign import (
    CampaignConfig,
    aggregate,
    config_from_dict,
    golden_run,
    injections,
    pixel_mismatch_rate,
    plan,
    read_matrix_csv,
    read_records_csv,
    run_campaign,
    sample_size,
    write_matrix_csv,
    write_records_csv,
)
from seusim.compress import fold_batch_norm, quantize_model
from seusim.inject import FaultLocation, apply_fault, revert
from seusim.model import (
    ALL_PARAM_KINDS,
    DEFAULT_CAMPAIGN_KINDS,
    ParamKind,
    build_bias_probe_model,
    build_unet,
    enumerate_fault_space,
    synthetic_input,
)
from seusim.errormodel import bias_signs, expected_bias_msb_error
from tests.test_model import single_conv_model


class SharedCount:
    """`itertools.count(start)` for a campaign's caller and its forked
    workers: the count lives in shared memory made before they fork.  Each
    `next` holds the count's lock with SIGTERM blocked, so a worker that
    the stream terminates never leaves the lock held."""

    def __init__(self, start: int = 0):
        self._value = multiprocessing.get_context("fork").Value("q", start)

    def __next__(self) -> int:
        blocked = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
        try:
            with self._value.get_lock():
                n = self._value.value
                self._value.value = n + 1
                return n
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, blocked)


@contextlib.contextmanager
def deadline(seconds: int):
    """Raise TimeoutError in the body, rather than hang, after `seconds`."""
    def expire(*_):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def sample_size_oracle(N, e="0.025", t="1.96", p="0.5", cap=1550):
    """Exact-rational evaluation of the finite-population formula."""
    e, t, p = Fraction(e), Fraction(t), Fraction(p)
    n = Fraction(N) / (1 + e * e * (N - 1) / (t * t * p * (1 - p)))
    return min(math.ceil(n), cap, N)


class TestSampleSize:
    # expected values frozen from sample_size_oracle
    @pytest.mark.parametrize("N,expected", [(1, 1), (384, 308), (1000, 607), (10 ** 6, 1535)])
    def test_frozen_values(self, N, expected):
        assert sample_size_oracle(N) == expected
        assert sample_size(N) == expected

    @given(st.integers(1, 10 ** 7))
    def test_matches_oracle_everywhere(self, N):
        assert sample_size(N) == sample_size_oracle(N)

    @given(st.integers(1, 10 ** 7), st.integers(1, 10 ** 7))
    def test_monotone_nondecreasing(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert sample_size(lo) <= sample_size(hi)

    @given(st.integers(1, 10 ** 9))
    def test_upper_bound(self, N):
        asymptote = math.ceil(1.96 ** 2 * 0.25 / 0.025 ** 2)
        assert sample_size(N) <= min(1550, asymptote)

    def test_collapses_to_N_for_tiny_spaces(self):
        for N in range(1, 12):
            assert sample_size(N) <= N

    def test_cap_applies(self):
        assert sample_size(10 ** 6, cap=100) == 100

    @pytest.mark.parametrize("kwargs", [dict(e=0.0), dict(e=1.0), dict(t=0.0), dict(p=0.0),
                                        dict(p=1.0), dict(cap=0)])
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            sample_size(1000, **kwargs)

    def test_n_zero_rejected(self):
        with pytest.raises(ValueError):
            sample_size(0)


def readme_int8_unet():
    g = build_unet(depth=2, base_channels=8, n_input_channels=3, n_classes=6, seed=0)
    return quantize_model(fold_batch_norm(g), [synthetic_input(g, 16, 16, seed=1)])


def assert_drawn_from_the_fault_space(model, config, entries):
    """Each entry's locations are distinct, and each is an (element, bit) of
    the entry's layer with an included kind and a bit that passes the filter."""
    space = enumerate_fault_space(model, config.included_kinds)
    for entry in entries:
        assert len(set(entry.locations)) == len(entry.locations) == entry.injections
        shapes = {e.kind: (e.count, e.bit_width) for e in space.layer_entries(entry.layer_id)}
        for loc in entry.locations:
            assert loc.layer_id == entry.layer_id and loc.kind in config.included_kinds
            count, bit_width = shapes[loc.kind]
            assert 0 <= loc.index < count and 0 <= loc.bit < bit_width
            assert config.bits is None or loc.bit in config.bits


class TestPlan:
    def test_single_parameter_exhaustive(self):
        g = single_conv_model(out_ch=1, in_ch=1)  # 1 weight + 1 bias
        cfg = CampaignConfig(included_kinds=frozenset({ParamKind.ConvWeight}))
        entries = plan(g, cfg).entries
        assert len(entries) == 1
        assert entries[0].fault_space == 32 and entries[0].injections == 32

    def test_cap_limits_every_layer(self):
        g = build_unet(depth=1, base_channels=4, n_input_channels=3, n_classes=6, seed=0)
        cfg = CampaignConfig(cap=10)
        assert all(e.injections <= 10 for e in plan(g, cfg).entries)

    def test_empty_kind_set_rejected(self):
        with pytest.raises(ValueError):
            CampaignConfig(included_kinds=frozenset())

    def test_bits_filter_shrinks_space(self):
        g = single_conv_model(out_ch=1, in_ch=1)
        cfg = CampaignConfig(included_kinds=frozenset({ParamKind.ConvWeight}), bits=(30,))
        assert plan(g, cfg).entries[0].fault_space == 1

    def test_layer_filter(self):
        g = build_unet(depth=1, base_channels=4, n_input_channels=3, n_classes=6, seed=0)
        cfg = CampaignConfig(layers=(0,))
        entries = plan(g, cfg).entries
        assert [e.layer_id for e in entries] == [0]

    def test_disjoint_layer_filter_is_empty(self):
        g = single_conv_model()
        with pytest.raises(ValueError, match="empty fault space"):
            plan(g, CampaignConfig(layers=(99,)))

    @pytest.mark.parametrize("field, value", [
        ("layers", ()), ("layers", (0, -1)), ("bits", ()), ("bits", (-1,)), ("bits", (30, 32)), ("bits", (30, 40)),
    ])
    def test_filters_out_of_range_rejected(self, field, value):
        # a bit wider than every dtype, like a negative id, selects nothing
        with pytest.raises(ValueError, match=f"{field} filter must be a non-empty set"):
            CampaignConfig(**{field: value})

    @pytest.mark.parametrize("layers, named", [((0, 99), "99"), ((0, 2, 4), "2"), ((99, 4, 98), "98, 99")])
    def test_layer_filter_names_the_layers_without_fault_sites(self, layers, named):
        # 99 is no layer and 2 an activation, which holds no parameter
        g = build_unet(depth=1, base_channels=4, n_input_channels=3, n_classes=6, seed=0)
        with pytest.raises(ValueError, match=f"layers filter: no fault sites in layer {named} "):
            plan(g, CampaignConfig(layers=layers))

    def test_stratified_int8_plan_counts_the_draws(self):
        # bits 8-31 exist only in the int32 biases, so their quotas are capped
        q = readme_int8_unet()
        cfg = CampaignConfig(sampling="stratified_per_bit", cap=1550,
                             included_kinds=frozenset({ParamKind.ConvWeight, ParamKind.ConvBias}))
        entries = plan(q, cfg).entries
        assert_drawn_from_the_fault_space(q, cfg, entries)
        assert sum(e.injections for e in entries) == 3828

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(["uniform_layer", "stratified_per_bit"]), st.integers(1, 400),
           st.one_of(st.none(), st.lists(st.integers(0, 31)).flatmap(  # at least one bit < 8
               lambda bs: st.integers(0, 7).map(lambda b: (*bs, b)))),
           st.sampled_from([ALL_PARAM_KINDS, frozenset({ParamKind.ConvBias}),
                            frozenset({ParamKind.BNVar, ParamKind.ConvWeight})]),
           st.booleans())
    def test_plan_counts_the_draws(self, sampling, cap, bits, kinds, int8):
        g = build_unet(depth=1, base_channels=4, n_input_channels=3, n_classes=6, seed=0)
        if int8:
            g = quantize_model(fold_batch_norm(g), [synthetic_input(g, 8, 8, seed=1)])
        cfg = CampaignConfig(sampling=sampling, cap=cap, bits=bits, included_kinds=kinds)
        assert_drawn_from_the_fault_space(g, cfg, plan(g, cfg).entries)


class TestGoldenAndMismatch:
    def test_golden_repeatable(self):
        g = build_unet(depth=1, base_channels=4, n_input_channels=3, n_classes=6, seed=0)
        x = synthetic_input(g, 16, 16, seed=1)
        np.testing.assert_array_equal(golden_run(g, x), golden_run(g, x))

    def test_mismatch_examples(self):
        a = np.zeros((3, 4), dtype=np.int32)
        assert pixel_mismatch_rate(a, a.copy()) == 0.0
        assert pixel_mismatch_rate(a, a + 1) == 1.0
        b = a.copy()
        b.reshape(-1)[:3] = 7
        assert pixel_mismatch_rate(a, b) == 0.25

    def test_mismatch_shape_check(self):
        with pytest.raises(ValueError):
            pixel_mismatch_rate(np.zeros((2, 2), dtype=int), np.zeros((2, 3), dtype=int))


def tiny_campaign_config(**kw):
    g = build_unet(depth=1, base_channels=4, n_input_channels=3, n_classes=6, seed=0)
    x = synthetic_input(g, 16, 16, seed=1)
    defaults = dict(cap=8, seed=5, inputs=(x,))
    defaults.update(kw)
    return g, CampaignConfig(**defaults)


class TestRunCampaign:
    def test_exhaustive_single_parameter_covers_all_bits(self):
        g = single_conv_model(out_ch=1, in_ch=1, weights=np.full((1, 1, 1, 1), 0.5))
        x = synthetic_input(g, 4, 4, seed=0)
        cfg = CampaignConfig(included_kinds=frozenset({ParamKind.ConvWeight}), inputs=(x,), seed=1)
        records, matrix = run_campaign(g, cfg)
        assert sorted(r.location.bit for r in records) == list(range(32))
        assert len({(r.location.index, r.location.bit) for r in records}) == 32

    def test_seed_reproducibility(self):
        g, cfg = tiny_campaign_config()
        r1, m1 = run_campaign(g, cfg)
        r2, m2 = run_campaign(g, cfg)
        assert r1 == r2
        assert m1.cells == m2.cells and m1.mean == m2.mean

    def test_parallel_equivalence(self):
        g, cfg = tiny_campaign_config()
        r1, m1 = run_campaign(g, cfg, jobs=1)
        r4, m4 = run_campaign(g, cfg, jobs=4)
        r8, m8 = run_campaign(g, cfg, jobs=8)
        assert r1 == r4 == r8
        assert m1.cells == m4.cells == m8.cells

    def test_multi_input_record_order_across_job_counts(self):
        # 35 injections: no job count below divides it, so the workers never
        # finish in step and the pool must still return records in plan order
        g, cfg = tiny_campaign_config(cap=5)
        x2 = synthetic_input(g, 16, 16, seed=2)
        cfg = replace(cfg, inputs=(cfg.inputs[0], x2))
        n = plan(g, cfg).total_injections()
        assert all(n % jobs for jobs in (2, 3, 8))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # workers share the golden activations: switch often
        try:
            runs = {jobs: run_campaign(g, cfg, jobs=jobs)[0] for jobs in (1, 2, 3, 8)}
        finally:
            sys.setswitchinterval(interval)
        assert runs[1] == runs[2] == runs[3] == runs[8]
        assert len(runs[1]) == 2 * n
        assert [r.input_id for r in runs[1]] == [0, 1] * n
        layers = [r.location.layer_id for r in runs[1]]
        assert layers == sorted(layers)  # plan order

    @pytest.mark.parametrize("dtype", ["f32", "int8"])
    def test_records_inject_the_plan(self, dtype):
        # each planned location once per input, in plan order, at any job count
        g, cfg = tiny_campaign_config(cap=5)
        cfg = replace(cfg, inputs=(cfg.inputs[0], synthetic_input(g, 16, 16, seed=2)))
        if dtype == "int8":
            g = quantize_model(fold_batch_norm(g), list(cfg.inputs))
            cfg = replace(cfg, sampling="stratified_per_bit",
                          included_kinds=frozenset({ParamKind.ConvWeight, ParamKind.ConvBias}))
        planned = [loc for e in plan(g, cfg).entries for loc in e.locations for _ in cfg.inputs]
        for jobs in (1, 2):
            assert [r.location for r in run_campaign(g, cfg, jobs=jobs)[0]] == planned

    @pytest.mark.parametrize("dtype", ["f32", "int8"])
    def test_campaign_never_writes_to_the_model(self, dtype):
        g, cfg = tiny_campaign_config(included_kinds=ALL_PARAM_KINDS)
        if dtype == "int8":
            g = quantize_model(fold_batch_norm(g), list(cfg.inputs))
            cfg = replace(cfg, included_kinds=frozenset({ParamKind.ConvWeight, ParamKind.ConvBias}))
        writable = run_campaign(g, cfg)[0]
        for n in g.nodes:
            for t in n.params.values():
                t.data.flags.writeable = False
        for jobs in (1, 2, 3):
            assert run_campaign(g, cfg, jobs=jobs)[0] == writable

    def test_interrupted_campaign_leaves_model_unfaulted(self, monkeypatch):
        # workers only read the caller's model, whatever the job count
        g, cfg = tiny_campaign_config()
        before = g.copy()
        calls = []
        real = camp.faulted_changed_pixels

        def interrupt_third(*args):
            calls.append(args)
            if len(calls) == 3:
                raise KeyboardInterrupt
            return real(*args)

        monkeypatch.setattr(camp, "faulted_changed_pixels", interrupt_third)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(g, cfg, jobs=1)
        assert len(calls) == 3
        assert g.bit_equal(before)
        revert(apply_fault(g, FaultLocation(0, ParamKind.ConvWeight, 0, 31)))

    def test_interrupt_with_workers_cancels_the_injections_not_started(self, monkeypatch):
        # every worker takes one injection at a time, so an interrupt stops
        # the campaign after the injections in flight, not after a worker's share
        g, cfg = tiny_campaign_config(cap=20)
        n = plan(g, cfg).total_injections()
        assert n >= 100
        calls = SharedCount(1)  # the forked workers number their calls in shared memory
        real = camp.faulted_changed_pixels

        def interrupt_third(*args):
            if next(calls) == 3:
                raise KeyboardInterrupt
            return real(*args)

        monkeypatch.setattr(camp, "faulted_changed_pixels", interrupt_third)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(g, cfg, jobs=2)
        ran = next(calls) - 1
        assert 3 <= ran < n // 2
        assert multiprocessing.active_children() == []

    def test_stream_is_the_campaign_at_any_job_count(self):
        g, cfg = tiny_campaign_config(cap=5)
        cfg = replace(cfg, inputs=(cfg.inputs[0], synthetic_input(g, 16, 16, seed=2)))
        expected = run_campaign(g, cfg)[0]
        for jobs in (1, 2, 3, 8):
            assert list(injections(g, cfg, jobs)) == run_campaign(g, cfg, jobs)[0] == expected
            assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("stop", ["raise", "close"])
    def test_stopping_the_stream_cancels_the_injections_not_started(self, monkeypatch, jobs, stop):
        g, cfg = tiny_campaign_config(cap=20)
        n = plan(g, cfg).total_injections()
        assert n >= 100
        calls = SharedCount()  # the forked workers count their calls in shared memory
        real = camp.faulted_changed_pixels

        def counted(*args):
            next(calls)
            return real(*args)

        monkeypatch.setattr(camp, "faulted_changed_pixels", counted)
        if stop == "close":
            stream = injections(g, cfg, jobs)
            next(stream)
            stream.close()
        else:
            with pytest.raises(RuntimeError):
                for k, _ in enumerate(injections(g, cfg, jobs)):  # the loop holds the only reference
                    if k == 2:
                        raise RuntimeError("consumer failed")
        ran = next(calls)
        time.sleep(0.2)
        assert next(calls) == ran + 1 and ran < n // 2
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("jobs, dying", [(2, "every"), (3, "every"), (3, "one")])
    @pytest.mark.parametrize("code", [1, 0])
    def test_a_worker_that_dies_fails_the_stream(self, monkeypatch, jobs, dying, code):
        # a worker that exits 0 is no more finished than one that crashes, even while another runs on
        g, cfg = tiny_campaign_config(cap=20)
        caller = os.getpid()
        first = SharedCount()
        real = camp.faulted_changed_pixels

        def score(*args):
            if os.getpid() != caller and (dying == "every" or next(first) == 0):
                os._exit(code)  # a forked worker dies in its first injection
            time.sleep(0.002)  # while the caller is busy enough to leave it one
            return real(*args)

        monkeypatch.setattr(camp, "faulted_changed_pixels", score)
        start = time.monotonic()
        with deadline(20), pytest.raises(RuntimeError, match=rf"ended mid-campaign \(exit code {code}\)"):
            run_campaign(g, cfg, jobs=jobs)
        assert time.monotonic() - start < 5
        assert multiprocessing.active_children() == []

    def test_every_injection_runs_once_at_more_jobs_than_cores(self, monkeypatch):
        # the caller and 7 forked workers take plan indices from one deal
        g, cfg = tiny_campaign_config(cap=40)
        calls = SharedCount()
        real = camp.faulted_changed_pixels

        def counted(*args):
            next(calls)
            return real(*args)

        expected = run_campaign(g, cfg)[0]
        monkeypatch.setattr(camp, "faulted_changed_pixels", counted)
        with deadline(60):
            assert run_campaign(g, cfg, jobs=8)[0] == expected
        assert next(calls) == len(expected)
        assert multiprocessing.active_children() == []

    def test_workers_ignore_sigint(self):
        # a Ctrl-C reaches every process of the terminal's group: only the caller acts on it
        g, cfg = tiny_campaign_config(cap=40)
        stream = injections(g, cfg, 3)
        records = [next(stream)]
        workers = multiprocessing.active_children()
        assert len(workers) == 2
        for worker in workers:
            os.kill(worker.pid, signal.SIGINT)
        try:
            records.extend(stream)
        except KeyboardInterrupt:  # sent back by a worker: it would not end the test session
            pytest.fail("a worker took SIGINT")
        assert records == run_campaign(g, cfg)[0]
        assert multiprocessing.active_children() == []

    def test_locations_unique_and_in_space(self):
        g, cfg = tiny_campaign_config(cap=40)
        records, _ = run_campaign(g, cfg)
        seen = set()
        space = enumerate_fault_space(g, cfg.included_kinds)
        for r in records:
            key = (r.location.layer_id, r.location.kind, r.location.index, r.location.bit)
            assert key not in seen
            seen.add(key)
            entry = [e for e in space.layer_entries(r.location.layer_id) if e.kind == r.location.kind]
            assert entry and r.location.index < entry[0].count and r.location.bit < entry[0].bit_width

    def test_stratified_sampling_balances_bits(self):
        g, cfg = tiny_campaign_config(sampling="stratified_per_bit", cap=64, bits=(23, 26, 30))
        records, _ = run_campaign(g, cfg)
        by_layer_bit = {}
        for r in records:
            by_layer_bit.setdefault(r.location.layer_id, []).append(r.location.bit)
        for lid, bits in by_layer_bit.items():
            counts = {b: bits.count(b) for b in set(bits)}
            assert set(counts) <= {23, 26, 30}
            assert max(counts.values()) - min(counts.values()) <= 1

    def test_requires_inputs(self):
        g, cfg = tiny_campaign_config()
        with pytest.raises(ValueError, match="input"):
            run_campaign(g, replace(cfg, inputs=()))

    def test_int8_model_campaign(self):
        g = build_unet(depth=1, base_channels=4, n_input_channels=3, n_classes=6, seed=2)
        x = synthetic_input(g, 16, 16, seed=3)
        q = quantize_model(fold_batch_norm(g), [x])
        cfg = CampaignConfig(included_kinds=frozenset({ParamKind.ConvWeight, ParamKind.ConvBias}),
                             cap=16, seed=4, inputs=(x,))
        records, matrix = run_campaign(q, cfg)
        widths = {r.location.kind: r.bit_width for r in records}
        assert widths[ParamKind.ConvWeight] == 8
        assert widths.get(ParamKind.ConvBias, 32) == 32
        assert all(r.post_kind == "finite" for r in records)  # no NaN/Inf in integer graphs
        assert all(0.0 <= r.error_rate <= 1.0 for r in records)

    def test_bn_variance_sign_flips_are_recorded(self):
        # a negative variance makes its channel NaN; the campaign records it
        g = build_unet(depth=2, base_channels=8, n_input_channels=3, n_classes=6, seed=0)
        pristine = g.copy()
        x = synthetic_input(g, 16, 16, seed=1)
        cfg = CampaignConfig(included_kinds=frozenset({ParamKind.BNVar}), bits=(31,), cap=64,
                             seed=5, inputs=(x,))
        records, _ = run_campaign(g, cfg)
        assert len(records) == sum(e.injections for e in plan(g, cfg).entries) > 0
        assert all(r.location.bit == 31 and r.direction == "zero_to_one" for r in records)
        assert all(r.post_kind == "finite" for r in records)  # -var is still a number
        assert any(r.error_rate > 0 for r in records)
        assert g.bit_equal(pristine)

    def test_probe_cross_check_against_analytical(self):
        freqs = [0.0, 0.4491, 0.0441, 0.2695, 0.0747, 0.1627]
        biases = [-0.85, 0.32, -0.03, 0.04, -0.17, 0.11]
        g, x = build_bias_probe_model(biases, freqs, seed=0)
        cfg = CampaignConfig(included_kinds=frozenset({ParamKind.ConvBias}),
                             bits=(30,), seed=11, inputs=(x,))
        _, matrix = run_campaign(g, cfg)
        measured = matrix.cells[(g.nodes[-1].id, 30)].mean
        expected = expected_bias_msb_error(freqs, bias_signs(biases))
        assert abs(measured - expected) <= 0.025


class TestAggregate:
    def rec(self, rate, layer=0, bit=0, index=0):
        return camp.InjectionRecord(
            location=FaultLocation(layer, ParamKind.ConvWeight, index, bit),
            bit_width=32, pre_bits=0, post_bits=1 << bit,
            direction="zero_to_one", field="mantissa", post_kind="finite",
            input_id=0, error_rate=rate,
        )

    def test_mean_and_mean_nonzero(self):
        m = aggregate([self.rec(0.0, index=0), self.rec(0.0, index=1), self.rec(1.0, index=2)])
        cell = m.cells[(0, 0)]
        assert cell.mean == pytest.approx(1 / 3)
        assert cell.mean_nonzero == 1.0
        assert m.nonzero_count == 1

    def test_all_zero_rates_flagged(self):
        m = aggregate([self.rec(0.0, index=i) for i in range(4)])
        assert m.mean_nonzero == 0.0 and m.nonzero_count == 0

    def test_single_record(self):
        m = aggregate([self.rec(0.42)])
        cell = m.cells[(0, 0)]
        assert cell.mean == 0.42 and cell.std == 0.0 and cell.max == 0.42

    def test_population_std(self):
        m = aggregate([self.rec(0.0, index=0), self.rec(1.0, index=1)])
        assert m.cells[(0, 0)].std == pytest.approx(0.5)  # ddof=0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])

    @given(st.lists(st.floats(0, 1), min_size=1, max_size=40))
    def test_mean_nonzero_dominates_mean(self, rates):
        m = aggregate([self.rec(r, index=i) for i, r in enumerate(rates)])
        if m.nonzero_count:
            assert m.mean_nonzero >= m.mean - 1e-12


class TestSerialization:
    def test_records_roundtrip(self, tmp_path):
        # f32 patterns are 8 hex digits; int8 weights 2 and int32 biases 8
        g, cfg = tiny_campaign_config()
        q = quantize_model(fold_batch_norm(g), list(cfg.inputs))
        kinds = frozenset({ParamKind.ConvWeight, ParamKind.ConvBias})
        path = tmp_path / "records.csv"
        for model, config in ((g, cfg), (q, replace(cfg, included_kinds=kinds, cap=30))):
            records, _ = run_campaign(model, config)
            write_records_csv(path, records)
            assert read_records_csv(path) == records
        assert {r.bit_width for r in records} == {8, 32}

    VALID_RECORD = "0,ConvWeight,3,30,zero_to_one,exponent,3e800000,7e800000,finite,0,0.25"

    @pytest.mark.parametrize("rows, named", [
        (None, ": unexpected records header: None"),  # an empty file
        (["0,ConvWeight,3"], ", line 2, column 'bit': missing"),
        ([VALID_RECORD, VALID_RECORD + ",9"], ", line 3, column 12: unexpected value '9'"),
        ([VALID_RECORD.replace("3e8", "3g8")], ", line 2, column 'pre_bits': expected hex_bits, got '3g800000'"),
        ([VALID_RECORD.replace("7e800000", "7e8")], ", line 2, column 'post_bits': expected hex_bits, got '7e8'"),
        ([VALID_RECORD.replace("ConvWeight", "ConvWieght")],
         ", line 2, column 'kind': expected ParamKind, got 'ConvWieght'"),
        ([VALID_RECORD.replace(",3,30,", ",1.5,30,")], ", line 2, column 'index': expected int, got '1.5'"),
        (["0,ConvWeight,3,30,zero_to_one,exponent,0a,0000000a,finite,0,0.25"],
         ", line 2, column 'post_bits': 32-bit pattern after 8-bit pre_bits"),
        (["0,ConvWeight,3,8,zero_to_one,sign,0a,0a,finite,0,0.25"], ", line 2, column 'bit': 8 outside the 8-bit pattern"),
        ([VALID_RECORD.replace(",30,", ",-1,")], ", line 2, column 'bit': -1 outside the 32-bit pattern"),
        ([VALID_RECORD, VALID_RECORD.replace("7e800000", "3e800001")],
         ", line 3, column 'post_bits': expected pre_bits with bit 30 flipped, 7e800000, got 3e800001"),
    ])
    def test_malformed_records_name_file_line_and_column(self, tmp_path, rows, named):
        path = tmp_path / "records.csv"
        path.write_text("\n".join([",".join(camp.RECORD_COLUMNS), self.VALID_RECORD]))
        assert read_records_csv(path)[0].bit_width == 32
        path.write_text("" if rows is None else "\n".join([",".join(camp.RECORD_COLUMNS), *rows]))
        with pytest.raises(ValueError) as err:
            read_records_csv(path)
        assert str(err.value) == f"{path}{named}"

    def test_matrix_roundtrip(self, tmp_path):
        g, cfg = tiny_campaign_config()
        _, matrix = run_campaign(g, cfg)
        path = tmp_path / "matrix.csv"
        write_matrix_csv(path, matrix)
        assert read_matrix_csv(path) == matrix.cells

    def test_matrix_means_in_unit_interval(self, tmp_path):
        g, cfg = tiny_campaign_config()
        _, matrix = run_campaign(g, cfg)
        for cell in matrix.cells.values():
            assert 0.0 <= cell.mean <= 1.0
            assert cell.std >= 0.0

    def test_config_from_dict_reads_every_field(self):
        x = synthetic_input(single_conv_model(), 4, 4, seed=0)
        d = {"e": 0.05, "t": 2.58, "p": 0.25, "cap": 99, "included_kinds": ["BNGamma", "ConvBias"],
             "sampling": "stratified_per_bit", "seed": 3, "inputs": [{"path": "image.npy"}],
             "bits": [30, 23], "layers": [2, 1]}
        cfg = config_from_dict(d, (x,))
        assert cfg.inputs[0] is x and len(cfg.inputs) == 1  # the specs in `d` are not read
        assert replace(cfg, inputs=()) == CampaignConfig(
            e=0.05, t=2.58, p=0.25, cap=99, sampling="stratified_per_bit", seed=3,
            included_kinds=frozenset({ParamKind.BNGamma, ParamKind.ConvBias}),
            bits=(30, 23), layers=(2, 1))

    def test_config_from_dict_defaults(self):
        assert config_from_dict({}) == CampaignConfig()
        assert config_from_dict({"inputs": ["image.npy"]}).inputs == ()
        cfg = config_from_dict({"included_kinds": [], "cap": 5})
        assert cfg.included_kinds == DEFAULT_CAMPAIGN_KINDS and cfg.cap == 5
        assert (cfg.e, cfg.t, cfg.p, cfg.sampling, cfg.seed, cfg.bits, cfg.layers) == (
            0.025, 1.96, 0.5, "uniform_layer", 0, None, None)

    def test_config_from_dict_null_is_absent(self):
        d = {name: None for name in ("e", "t", "p", "cap", "included_kinds", "sampling", "seed",
                                     "inputs", "bits", "layers")}
        assert config_from_dict(d) == CampaignConfig()

    @pytest.mark.parametrize("name,value", [
        ("bits", 30), ("bits", "30"), ("layers", 2), ("layers", {"2": 1}),
        ("included_kinds", "ConvBias"), ("seed", [1]), ("cap", {}),
        ("seed", 1.7), ("seed", "7"), ("seed", True), ("cap", True), ("cap", 12.0),
        ("bits", [30.9]), ("bits", ["30"]), ("layers", [True]), ("layers", [1.5]),
        ("e", True), ("e", "0.05"), ("t", False), ("p", "0.5"), ("sampling", 1), ("seed", -1),
        ("included_kinds", ["Bogus"]),
    ])
    def test_config_from_dict_wrong_type_names_the_field(self, name, value):
        with pytest.raises(ValueError, match=f"field '{name}'"):
            config_from_dict({name: value})

    def test_config_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            config_from_dict({"e": 0.025, "bogus": 1})
