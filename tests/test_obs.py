"""The observability layer: registry, tracer, profiling, and wiring.

Covers the ISSUE 4 test checklist: histogram bucket-edge placement,
span nesting/ordering and ring-buffer eviction, the <5% no-op overhead
contract on a 1k-solve microloop, config round trips, and the
end-to-end acceptance path — a supervised closed-loop chaos run must
emit a parseable JSONL trace containing solve/fallback/route spans and
histograms for solve latency and fallback depth.
"""

from __future__ import annotations

import json
import math
import time

import pytest

from repro.core.response import Discipline
from repro.core.solvers import dispatch
from repro.faults import FaultPlan, random_fault_schedule
from repro.obs import (
    NULL_METRIC,
    NULL_SPAN,
    NULL_TRACER,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    NullTracer,
    ObsConfig,
    ObsError,
    Observability,
    Tracer,
    configure,
    get_obs,
    log_bucket_edges,
    profile,
    reset_obs,
)
from repro.runtime import RuntimeConfig, run_closed_loop
from repro.workloads.paper import EXAMPLE_TOTAL_RATE
from repro.workloads.traces import RateTrace


@pytest.fixture(autouse=True)
def _isolated_obs():
    """Every test starts and ends with the disabled global context."""
    reset_obs()
    yield
    reset_obs()


class TestLogBucketEdges:
    def test_count_and_endpoints(self):
        edges = log_bucket_edges(1e-3, 1e3, 6)
        assert len(edges) == 7
        assert edges[0] == pytest.approx(1e-3)
        assert edges[-1] == pytest.approx(1e3)

    def test_log_spacing_has_constant_ratio(self):
        edges = log_bucket_edges(1.0, 1024.0, 10)
        ratios = [b / a for a, b in zip(edges, edges[1:])]
        assert all(r == pytest.approx(2.0) for r in ratios)

    @pytest.mark.parametrize("lo,hi,n", [(0.0, 1.0, 4), (2.0, 1.0, 4), (1.0, 2.0, 0)])
    def test_invalid_parameters_raise(self, lo, hi, n):
        with pytest.raises(ObsError):
            log_bucket_edges(lo, hi, n)


class TestHistogramBuckets:
    def test_explicit_edges_place_observations_exactly(self):
        h = Histogram(edges=(1.0, 2.0, 4.0, 8.0))
        # Bins: underflow, [1,2), [2,4), [4,8), overflow (>= 8).
        for v in (0.5, 1.0, 1.999, 2.0, 7.999, 8.0, 100.0):
            h.observe(v)
        assert h.bucket_counts == (1, 2, 1, 1, 2)
        assert h.count == 7
        assert h.sum == pytest.approx(0.5 + 1.0 + 1.999 + 2.0 + 7.999 + 8.0 + 100.0)

    def test_no_observation_is_ever_dropped(self):
        h = Histogram(lo=1e-3, hi=1e3, buckets=12)
        for v in (1e-9, 1e-3, 1.0, 1e3, 1e9):
            h.observe(v)
        assert sum(h.bucket_counts) == h.count == 5

    def test_mean_is_exact_despite_bucketing(self):
        h = Histogram(lo=0.1, hi=10.0, buckets=2)
        h.observe(0.3)
        h.observe(0.7)
        assert h.mean == pytest.approx(0.5)

    def test_quantile_returns_conservative_upper_edge(self):
        h = Histogram(edges=(1.0, 2.0, 4.0))
        for _ in range(9):
            h.observe(1.5)
        h.observe(3.0)
        assert h.quantile(0.5) == 2.0
        assert h.quantile(0.99) == 4.0

    def test_log_buckets_bracket_the_median(self):
        h = Histogram(lo=0.1, hi=10.0, buckets=40)
        for k in range(999):
            h.observe(0.5 + 1.5 * k / 998)
        assert 1.0 <= h.quantile(0.5) <= 1.5

    def test_bad_edges_raise(self):
        with pytest.raises(ObsError):
            Histogram(edges=(1.0,))
        with pytest.raises(ObsError):
            Histogram(edges=(1.0, 1.0, 2.0))

    def test_quantile_validation(self):
        h = Histogram(edges=(1.0, 2.0))
        with pytest.raises(ObsError):
            h.quantile(0.5)  # empty
        h.observe(1.5)
        with pytest.raises(ObsError):
            h.quantile(1.5)


class TestRegistryFamilies:
    def test_counter_is_monotonic(self):
        reg = MetricsRegistry()
        c = reg.counter("events_total")
        c.inc()
        c.inc(2.5)
        assert c.value == pytest.approx(3.5)
        with pytest.raises(ObsError):
            c.inc(-1.0)

    def test_gauge_moves_both_ways(self):
        reg = MetricsRegistry()
        g = reg.gauge("level")
        g.set(2.0)
        g.inc()
        g.dec(0.5)
        assert g.value == pytest.approx(2.5)

    def test_labeled_family_addresses_children_by_value(self):
        reg = MetricsRegistry()
        fam = reg.counter("solves_total", labels=("method",))
        fam.labels(method="kkt").inc()
        fam.labels(method="kkt").inc()
        fam.labels(method="bisection").inc()
        assert fam.values_by_label() == {("kkt",): 2.0, ("bisection",): 1.0}

    def test_wrong_label_names_raise(self):
        reg = MetricsRegistry()
        fam = reg.counter("solves_total", labels=("method",))
        with pytest.raises(ObsError):
            fam.labels(backend="kkt")
        with pytest.raises(ObsError):
            fam.inc()  # labeled family has no unlabeled passthrough

    def test_reregistration_returns_same_family(self):
        reg = MetricsRegistry()
        a = reg.counter("hits_total")
        b = reg.counter("hits_total")
        assert a is b

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x_total")
        with pytest.raises(ObsError):
            reg.gauge("x_total")

    def test_invalid_metric_name_raises(self):
        reg = MetricsRegistry()
        with pytest.raises(ObsError):
            reg.counter("bad-name")

    def test_collect_is_sorted_and_json_serializable(self):
        reg = MetricsRegistry()
        reg.gauge("zz").set(1.0)
        reg.counter("aa").inc()
        reg.histogram("mm", lo=0.1, hi=10.0, buckets=2).observe(1.0)
        snap = reg.collect()
        assert [f["name"] for f in snap] == ["aa", "mm", "zz"]
        json.dumps(reg.to_dict())  # must not raise


class TestTracer:
    def test_nesting_records_parent_ids(self):
        tr = Tracer()
        with tr.span("outer") as outer:
            with tr.span("inner") as inner:
                assert tr.open_depth == 2
                assert inner.parent_id == outer.span_id
        recs = tr.records
        by_name = {r["span"]: r for r in recs}
        assert by_name["inner"]["parent"] == by_name["outer"]["id"]
        assert by_name["outer"]["parent"] is None

    def test_completion_order_children_before_parents(self):
        tr = Tracer()
        with tr.span("a"):
            with tr.span("b"):
                pass
        names = [r["span"] for r in tr.records]
        assert names == ["b", "a"]

    def test_durations_are_nonnegative_and_nested(self):
        tr = Tracer()
        with tr.span("outer"):
            with tr.span("inner"):
                time.sleep(0.001)
        inner, outer = tr.records
        assert 0.0 <= inner["dur"] <= outer["dur"]
        assert outer["t0"] <= inner["t0"]

    def test_note_attaches_result_attributes(self):
        tr = Tracer()
        with tr.span("solve", n=7) as sp:
            sp.note(iterations=42)
        (rec,) = tr.records
        assert rec["attrs"] == {"n": 7, "iterations": 42}

    def test_exception_is_recorded_and_span_closed(self):
        tr = Tracer()
        with pytest.raises(ValueError):
            with tr.span("boom"):
                raise ValueError("no")
        (rec,) = tr.records
        assert rec["attrs"]["error"] == "ValueError"
        assert tr.open_depth == 0

    def test_ring_buffer_evicts_oldest(self):
        tr = Tracer(capacity=3)
        for i in range(5):
            with tr.span(f"s{i}"):
                pass
        assert len(tr) == 3
        assert tr.dropped == 2
        assert [r["span"] for r in tr.records] == ["s2", "s3", "s4"]

    def test_jsonl_roundtrip(self, tmp_path):
        tr = Tracer()
        with tr.span("solve", method="kkt") as sp:
            sp.note(t_prime=0.8964703)
        path = tmp_path / "trace.jsonl"
        n = tr.export_jsonl(str(path))
        assert n == 1
        lines = path.read_text().splitlines()
        rec = json.loads(lines[0])
        assert set(rec) == {"span", "id", "parent", "t0", "dur", "attrs"}
        assert rec["attrs"]["t_prime"] == pytest.approx(0.8964703)

    def test_of_name_filters(self):
        tr = Tracer()
        with tr.span("a"):
            pass
        with tr.span("b"):
            pass
        assert [r["span"] for r in tr.of_name("a")] == ["a"]


class TestObsConfigAndContext:
    def test_global_context_is_disabled_by_default(self):
        o = get_obs()
        assert not o.enabled
        assert isinstance(o.registry, NullRegistry)
        assert isinstance(o.tracer, NullTracer)

    def test_null_singletons_are_shared_and_inert(self):
        o = get_obs()
        m = o.registry.counter("anything")
        assert m is NULL_METRIC
        m.inc()
        assert m.value == 0.0
        sp = o.tracer.span("anything")
        assert sp is NULL_SPAN
        with sp as inner:
            inner.note(x=1)
        assert o.tracer.records == ()

    def test_configure_switches_to_live_instances(self):
        o = configure(ObsConfig(enabled=True, trace_capacity=16))
        assert o is get_obs()
        assert o.enabled
        assert isinstance(o.registry, MetricsRegistry)
        assert not isinstance(o.registry, NullRegistry)
        assert o.tracer.capacity == 16

    def test_metrics_and_trace_flags_are_independent(self):
        o = configure(ObsConfig(enabled=True, trace=False))
        assert isinstance(o.tracer, NullTracer)
        assert not isinstance(o.registry, NullRegistry)

    def test_round_trip(self):
        cfg = ObsConfig(enabled=True, trace_capacity=99, profile=True)
        assert ObsConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ObsError):
            ObsConfig.from_dict({"enabed": True})

    def test_validation(self):
        with pytest.raises(ObsError):
            ObsConfig(trace_capacity=0)
        with pytest.raises(ObsError):
            ObsConfig(profile_top=0)
        with pytest.raises(ObsError):
            configure("yes")


class TestProfileHooks:
    def test_profile_context_fills_report(self):
        with profile(top_n=5) as report:
            sum(range(1000))
        assert report.enabled
        assert report.total_calls > 0
        assert "function calls" in report.text

    def test_observability_profile_is_config_gated(self):
        with get_obs().profile() as report:
            pass
        assert not report.enabled
        o = Observability.from_config(ObsConfig(enabled=True, profile=True))
        with o.profile() as report:
            sum(range(1000))
        assert report.enabled and report.text

    def test_profile_dump(self, tmp_path):
        with profile(top_n=3) as report:
            sum(range(100))
        path = report.dump(str(tmp_path / "prof.txt"))
        assert (tmp_path / "prof.txt").read_text() == report.text


class TestDisabledOverhead:
    def test_noop_overhead_on_1k_solve_microloop(self, paper_group):
        """Disabled-obs dispatch machinery must cost <5% of one solve.

        Wall-clock A/B ratios of full solves are hostage to CPU
        frequency drift on shared runners, so this isolates the
        quantity the contract bounds: the per-call cost of the dispatch
        wrapper (global-context read, enabled branch, method
        resolution) measured over a 1k-call microloop against a stub
        backend, compared to the duration of one real solve.  The
        realistic end-to-end ratio is printed by
        ``benchmarks/bench_solver_scaling.py``.
        """
        from repro.core.solvers import _REGISTRY, register_method

        lam = EXAMPLE_TOTAL_RATE
        canned = dispatch(paper_group, lam, Discipline.FCFS, method="kkt")

        def stub(group, total_rate, discipline=None, **kw):
            return canned

        register_method("stub_overhead_probe", stub)
        try:
            n = 1_000

            def run(fn, **kw):
                best = math.inf
                for _ in range(5):
                    t0 = time.perf_counter()
                    for _ in range(n):
                        fn(paper_group, lam, Discipline.FCFS, **kw)
                    best = min(best, time.perf_counter() - t0)
                return best

            direct = run(stub)
            via_dispatch = run(dispatch, method="stub_overhead_probe")
            per_call = max(0.0, via_dispatch - direct) / n

            t0 = time.perf_counter()
            for _ in range(5):
                dispatch(paper_group, lam, Discipline.FCFS, method="kkt")
            solve_cost = (time.perf_counter() - t0) / 5
        finally:
            _REGISTRY.pop("stub_overhead_probe", None)

        assert per_call < 0.05 * solve_cost, (
            f"dispatch machinery costs {per_call * 1e6:.2f}us/call, which is "
            f">=5% of a {solve_cost * 1e3:.2f}ms solve"
        )


class TestInstrumentedSolvePath:
    def test_dispatch_records_span_and_metrics(self, paper_group):
        o = configure(ObsConfig(enabled=True))
        res = dispatch(paper_group, EXAMPLE_TOTAL_RATE, Discipline.FCFS, method="kkt")
        assert res.mean_response_time == pytest.approx(0.8964703, abs=5e-8)
        (rec,) = o.tracer.of_name("solve")
        assert rec["attrs"]["method"] == "kkt"
        assert rec["attrs"]["n"] == len(paper_group)
        counts = o.registry.get("repro_solves_total").values_by_label()
        assert counts[("kkt",)] == 1.0
        lat = o.registry.get("repro_solve_seconds")
        assert lat.count == 1
        assert lat.sum > 0.0
        # The iteration histogram must reflect the true outer work: the
        # paper group needs ~10 Brent steps on the multiplier, so the
        # historical doublings-only count (1-2) would fail this bound.
        iters = o.registry.get("repro_solve_iterations")
        assert iters.count == 1
        assert res.iterations >= 8
        assert iters.sum == pytest.approx(float(res.iterations))

    def test_newton_outer_spans_nest_under_solve(self, paper_group):
        o = configure(ObsConfig(enabled=True))
        res = dispatch(
            paper_group, EXAMPLE_TOTAL_RATE, Discipline.FCFS, method="newton"
        )
        (solve,) = o.tracer.of_name("solve")
        outers = o.tracer.of_name("solve.outer")
        assert len(outers) == res.iterations
        assert all(r["parent"] == solve["id"] for r in outers)
        assert sum(r["attrs"]["inner_sweeps"] for r in outers) == (
            res.metadata["inner_sweeps"]
        )
        sweeps = o.registry.get("repro_inner_sweeps")
        assert sweeps is not None and sweeps.count >= 1

    def test_newton_does_no_registry_lookup_when_disabled(self, paper_group):
        class NoLookups:
            def __getattr__(self, name):
                raise AssertionError(f"registry.{name} used with obs off")

        configure(Observability(ObsConfig(), NoLookups(), NULL_TRACER))
        res = dispatch(
            paper_group, EXAMPLE_TOTAL_RATE, Discipline.FCFS, method="newton"
        )
        assert res.mean_response_time == pytest.approx(0.8964703, abs=5e-8)


class TestClosedLoopChaosTrace:
    """ISSUE acceptance: the chaos loop emits a parseable JSONL trace
    with solve/fallback/route spans plus solve-latency and
    fallback-depth histograms."""

    @pytest.fixture(scope="class")
    def chaos_out(self, small_group):
        reset_obs()
        rate = 0.5 * small_group.max_generic_rate
        schedule = random_fault_schedule(
            len(small_group), horizon=300.0, seed=7, allow_cluster_down=False
        )
        cfg = RuntimeConfig(
            supervise=True,
            obs=ObsConfig(enabled=True, trace_capacity=65_536),
        )
        out = run_closed_loop(
            small_group,
            RateTrace.constant(rate),
            cfg,
            horizon=300.0,
            seed=7,
            fault_plan=FaultPlan(schedule),
            collect_tasks=False,
        )
        yield out, get_obs()
        reset_obs()

    def test_span_taxonomy_present(self, chaos_out):
        _, o = chaos_out
        names = {r["span"] for r in o.tracer.records}
        assert {"solve", "fallback", "route", "resolve", "sim.run"} <= names

    def test_histograms_for_latency_and_fallback_depth(self, chaos_out):
        _, o = chaos_out
        lat = o.registry.get("repro_solve_seconds")
        depth = o.registry.get("repro_fallback_depth")
        assert lat is not None and lat.count >= 1
        assert depth is not None and depth.count >= 1
        # Depth edges are the integer rungs 0..8 of the fallback chain.
        assert depth.edges[:2] == (0.0, 1.0)

    def test_route_outcomes_counted(self, chaos_out):
        out, o = chaos_out
        fam = o.registry.get("repro_routes_total")
        routed = fam.values_by_label().get(("routed",), 0.0)
        assert routed >= out.sim.generic_completed > 0

    def test_trace_exports_parseable_jsonl(self, chaos_out, tmp_path):
        _, o = chaos_out
        path = tmp_path / "trace.jsonl"
        n = o.tracer.export_jsonl(str(path))
        assert n == len(o.tracer)
        for line in path.read_text().splitlines():
            rec = json.loads(line)
            assert set(rec) == {"span", "id", "parent", "t0", "dur", "attrs"}
            assert rec["dur"] >= 0.0

    def test_sim_span_and_event_occupancy(self, chaos_out):
        _, o = chaos_out
        (sim,) = o.tracer.of_name("sim.run")
        assert sim["attrs"]["events"] > 0
        events = o.registry.get("repro_sim_events_total")
        assert sum(events.values_by_label().values()) == sim["attrs"]["events"]

    def test_profile_disabled_by_default(self, chaos_out):
        out, _ = chaos_out
        assert out.profile is None


class TestClosedLoopProfileHook:
    def test_profile_report_attached_when_enabled(self, small_group):
        rate = 0.4 * small_group.max_generic_rate
        cfg = RuntimeConfig(obs=ObsConfig(enabled=True, profile=True, trace=False))
        out = run_closed_loop(
            small_group,
            RateTrace.constant(rate),
            cfg,
            horizon=50.0,
            seed=0,
            collect_tasks=False,
        )
        assert out.profile is not None and out.profile.enabled
        assert "function calls" in out.profile.text
