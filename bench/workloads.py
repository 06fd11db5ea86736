"""The five workloads of the benchmark of record, and the measuring loop.

Every workload is a sequence of calls into the public facade
(``repro.solve_sweep``, ``repro.run_closed_loop``,
``repro.run_sharded_closed_loop``), each at a fixed simulated horizon or
a fixed solve count.  A run repeats calls for a given number of host
seconds, so a faster commit makes more calls of the same size, and
reports medians over them (the upper quartile for throughput).  Call ``k`` of a run with seed ``s`` uses
simulator seed ``1000 * s + k``: the same seed gives the same inputs.

Load model: inside each simulation arrivals are open-loop Poisson in
simulated time; ``overload-retry`` is partly closed, because its clients
retry after a shed or a timeout.  The host drives each simulation as one
single-threaded batch computation.

The untraced run adds one thing to the library: two ``perf_counter``
stamps around ``GroupSimulation.run`` (see :func:`run_stamps`), which
split set-up time from loop time, removed again when the call returns.
"""

from __future__ import annotations

import glob
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference", "paper_sweep.json")

if SRC not in sys.path:
    sys.path.insert(0, SRC)

import repro  # noqa: E402

if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
    raise ImportError(f"repro was imported from {repro.__file__}, not from {SRC}")

from repro import (  # noqa: E402
    AdmissionConfig,
    BladeServer,
    BladeServerGroup,
    RecoveryConfig,
    RoutingConfig,
    RuntimeConfig,
    ShardConfig,
)
from repro.recovery import JOURNAL_NAME, read_journal  # noqa: E402
from repro.sim import ClientWorkload, RetryPolicy  # noqa: E402
from repro.sim.engine import GroupSimulation  # noqa: E402
from repro.workloads import groups as paper_groups  # noqa: E402
from repro.workloads import paper  # noqa: E402
from repro.workloads.sweeps import sweep_rates  # noqa: E402
from repro.workloads.traces import RateTrace  # noqa: E402

from tracing import (  # noqa: E402
    HOOKS,
    LayerInputs,
    Tracer,
    layer_metrics,
    percentile,
    wrapper_cost_ns,
)


def unit_seed(seed: int, k: int) -> int:
    """Simulator seed of call ``k`` in a run seeded ``seed``."""
    return 1000 * seed + k


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def upper_quartile(values) -> float:
    values = list(values)
    if len(values) < 2:
        return float(values[0])
    return float(statistics.quantiles(values, n=4, method="inclusive")[2])


@dataclass
class Check:
    name: str
    ok: bool
    detail: str

    def __post_init__(self) -> None:
        self.ok = bool(self.ok)


@dataclass
class Call:
    """One facade call: its timings, its counts and what its checks need."""

    setup_s: float | None
    #: Host seconds inside ``GroupSimulation.run`` (sweeps: the sweep call).
    loop_s: float
    #: Host seconds of the whole facade call.
    wall_s: float
    #: Generic tasks completed after warm-up, or sweep points solved.
    ops: int
    #: Fresh requests offered, or sweep points attempted.
    attempted: int
    #: Sweep points whose result failed its check.
    failed: int = 0
    mean_t: float = 0.0
    #: Requests dropped with no retry left.
    dropped: int = 0
    retries: int = 0
    offers: int = 0
    adopted: int = 0
    resolve_events: int = 0
    journal_bytes: int = 0
    #: Per-point backend seconds (``SolveResult.elapsed_seconds``).
    solve_s: list = field(default_factory=list)
    iterations: list = field(default_factory=list)
    facts: dict = field(default_factory=dict)


class SetupDone(Exception):
    """Raised at the first simulated event of a set-up-only call."""


@dataclass
class Stamps:
    start: float = math.nan
    end: float = math.nan


@contextmanager
def run_stamps(setup_only: bool = False):
    """Stamp entry to and exit from ``GroupSimulation.run``.

    Entry is the first simulated event, so it splits set-up from the
    loop.  With ``setup_only`` the call is stopped right there.
    """
    original = GroupSimulation.__dict__["run"]
    stamps = Stamps()

    def run(sim):
        stamps.start = time.perf_counter()
        if setup_only:
            raise SetupDone
        try:
            return original(sim)
        finally:
            stamps.end = time.perf_counter()

    GroupSimulation.run = run
    try:
        yield stamps
    finally:
        GroupSimulation.run = original


@contextmanager
def call_dir():
    """A recovery directory inside the checkout, removed afterwards."""
    os.makedirs(OUT, exist_ok=True)
    path = tempfile.mkdtemp(prefix="call-", dir=OUT)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    name = ""
    closed_loop = True
    #: Set-up-only calls made before the measured calls.
    setup_samples = 2
    #: Measured calls made however long they take.
    min_calls = 1

    def setup_only(self, seed: int) -> float:
        raise NotImplementedError

    def call(self, seed: int, k: int) -> Call:
        raise NotImplementedError

    def checks(self, calls: list[Call]) -> list[Check]:
        raise NotImplementedError


class ClosedLoop(Workload):
    """A workload that is one closed-loop simulation per call."""

    def invoke(self, seed: int, directory: str):
        """The facade call itself."""
        raise NotImplementedError

    def inspect(self, out, directory: str, call: Call) -> None:
        """Record workload-specific facts while ``directory`` exists."""

    def setup_only(self, seed: int) -> float:
        with call_dir() as directory:
            start = time.perf_counter()
            try:
                with run_stamps(setup_only=True) as stamps:
                    self.invoke(seed, directory)
            except SetupDone:
                return stamps.start - start
        raise RuntimeError(f"{self.name}: the call never reached GroupSimulation.run")

    def call(self, seed: int, k: int) -> Call:
        with call_dir() as directory:
            start = time.perf_counter()
            with run_stamps() as stamps:
                out = self.invoke(seed, directory)
            wall = time.perf_counter() - start
            sim = out.sim
            runtimes = getattr(out, "runtimes", None) or (out.runtime,)
            offers = sum(sim.offered_by_class)
            fresh = (
                offers - sim.generic_retried
                if offers
                else sum(rt.metrics.counters.arrivals for rt in runtimes)
            )
            call = Call(
                setup_s=stamps.start - start,
                loop_s=stamps.end - stamps.start,
                wall_s=wall,
                ops=sim.generic_completed,
                attempted=fresh,
                mean_t=sim.generic_response_time,
                dropped=sim.generic_abandoned,
                retries=sim.generic_retried,
                offers=offers,
                adopted=sum(e.adopted for rt in runtimes for e in rt.resolve_log),
                resolve_events=sum(len(rt.resolve_log) for rt in runtimes),
                journal_bytes=sum(
                    os.path.getsize(p)
                    for p in glob.glob(
                        os.path.join(directory, "**", JOURNAL_NAME), recursive=True
                    )
                ),
            )
            self.inspect(out, directory, call)
        return call


class PaperStatic(ClosedLoop):
    """Table 1 group at lambda' = 23.52, constant rate, alias routing."""

    name = "paper-static"

    def __init__(self, quick: bool) -> None:
        self.horizon = 500.0
        self.group = paper_groups.example_group()
        self.trace = RateTrace.constant(paper.EXAMPLE_TOTAL_RATE)
        self.config = RuntimeConfig(router="alias")

    def invoke(self, seed, directory):
        return repro.run_closed_loop(
            self.group,
            self.trace,
            self.config,
            horizon=self.horizon,
            warmup=0.1 * self.horizon,
            seed=seed,
            collect_tasks=False,
        )

    def inspect(self, out, directory, call):
        ci = out.sim.generic_batches.interval(0.99)
        call.facts["ci_z"] = abs(ci.mean - paper.TABLE1_T_PRIME) / ci.half_width

    def checks(self, calls):
        # A single 99% interval misses T' on 1% of seeds; the median call
        # over a run does so far more rarely, yet still catches a biased
        # engine.
        z = median(c.facts["ci_z"] for c in calls)
        return [
            Check(
                "mean-t-in-ci99",
                z <= 1.0,
                f"median |mean_t - T'| / 99% CI half-width = {z:.2f} "
                f"over {len(calls)} calls (T' = {paper.TABLE1_T_PRIME})",
            )
        ]


class FleetDrift(ClosedLoop):
    """n = 500, rate steps, one server failure, pod routing, recovery on."""

    name = "fleet-drift"
    setup_samples = 4

    def __init__(self, quick: bool) -> None:
        n = 100 if quick else 500
        self.horizon = h = 8.0
        self.group = BladeServerGroup.with_special_fraction(
            sizes=[1 + (i % 16) for i in range(n)],
            speeds=[0.6 + 0.01 * (i % 120) for i in range(n)],
            fraction=0.3,
        )
        base = 0.6 * self.group.max_generic_rate
        self.trace = RateTrace(
            base, ((0.2 * h, 0.8 * base), (0.4 * h, 1.2 * base), (0.7 * h, base))
        )
        self.failures = ((0.5 * h, 3, "down"), (0.8 * h, 3, "up"))

    def invoke(self, seed, directory):
        config = RuntimeConfig(
            routing=RoutingConfig(policy="pod", d=2),
            time_constant=1.0,
            min_dwell=0.5,
            recovery=RecoveryConfig(enabled=True, directory=directory),
        )
        return repro.run_closed_loop(
            self.group,
            self.trace,
            config,
            horizon=self.horizon,
            warmup=0.1 * self.horizon,
            seed=seed,
            failures=self.failures,
            collect_tasks=False,
        )

    def inspect(self, out, directory, call):
        scan = read_journal(os.path.join(directory, JOURNAL_NAME))
        call.facts["journal_records"] = len(scan.records)
        call.facts["dropped_lines"] = scan.dropped_lines
        call.facts["resolves"] = len(out.runtime.resolve_log)

    def checks(self, calls):
        dropped = sum(c.facts["dropped_lines"] for c in calls)
        records = min(c.facts["journal_records"] for c in calls)
        resolves = median(c.facts["resolves"] for c in calls)
        return [
            Check(
                "journal-scan",
                dropped == 0 and records > 0,
                f"{dropped} dropped lines, >= {records} records per journal",
            ),
            Check("resolves>=5", resolves >= 5, f"median resolves per call: {resolves:g}"),
        ]


class OverloadRetry(ClosedLoop):
    """Two servers at 0.72 lambda'_max with 2x bursts, retrying clients
    and priority admission control (the overload suite's admission arm)."""

    name = "overload-retry"
    BURST_EVERY, BURST_LENGTH = 1500.0, 150.0

    def __init__(self, quick: bool) -> None:
        self.horizon = 1500.0
        self.group = BladeServerGroup.from_arrays(
            sizes=[2, 3], speeds=[1.0, 1.5], special_rates=[0.2, 0.3], rbar=1.0
        )
        rate = 0.72 * self.group.max_generic_rate
        steps = []
        start = 0.5 * self.BURST_EVERY
        while start < self.horizon:
            steps += [(start, 2.0 * rate), (start + self.BURST_LENGTH, rate)]
            start += self.BURST_EVERY
        self.trace = RateTrace(rate, tuple(steps))
        self.clients = ClientWorkload(
            class_shares=(0.2, 0.3, 0.5),
            retry=RetryPolicy(
                budget=2,
                timeout=10.0,
                base_backoff=4.0,
                backoff_factor=2.0,
                max_backoff=60.0,
                jitter=0.5,
            ),
        )
        self.config = RuntimeConfig(
            router="alias",
            admission=AdmissionConfig(
                classes=3, target_delay=4.0, interval=15.0, sojourn_tc=20.0
            ),
        )

    def invoke(self, seed, directory):
        return repro.run_closed_loop(
            self.group,
            self.trace,
            self.config,
            horizon=self.horizon,
            warmup=0.0,
            seed=seed,
            collect_tasks=False,
            workload=self.clients,
        )

    def inspect(self, out, directory, call):
        call.facts["class0_shed"] = out.sim.shed_by_class[0]
        call.facts["class0_offered"] = out.sim.offered_by_class[0]

    def checks(self, calls):
        shed = sum(c.facts["class0_shed"] for c in calls)
        offered = sum(c.facts["class0_offered"] for c in calls)
        frac = shed / offered if offered else 1.0
        return [Check("class0-shed<1%", frac < 0.01, f"class-0 shed {shed}/{offered}")]


class FleetSharded(ClosedLoop):
    """n = 50,000 over 8 shard dispatchers, alias routing, recovery on."""

    name = "fleet-sharded"
    HORIZON, PERIOD = 8.0, 3.0
    setup_samples = 1
    min_calls = 2

    def __init__(self, quick: bool) -> None:
        n = 2_000 if quick else 50_000
        self.group = BladeServerGroup(
            [
                BladeServer(size=1 + (i % 16), speed=0.6 + 0.01 * (i % 120))
                for i in range(n)
            ],
            rbar=1.0,
        )
        # The step up makes the second rebalance always see a higher
        # rate estimate than the first.  A warm start from a higher rate
        # takes ShardCoordinator about 20x longer at n = 50,000 (8-9 s
        # against 0.4 s), so at a constant rate the sign of the estimator
        # noise decided whether a call took 4 s or 12 s.
        self.trace = RateTrace.step(150.0, at=0.5 * self.HORIZON, to=225.0)

    def invoke(self, seed, directory):
        config = RuntimeConfig(
            router="alias",
            resolve_period=self.PERIOD,
            recovery=RecoveryConfig(enabled=True, directory=directory),
        )
        return repro.run_sharded_closed_loop(
            self.group,
            self.trace,
            config,
            ShardConfig(shards=8),
            horizon=self.HORIZON,
            warmup=0.1 * self.HORIZON,
            seed=seed,
            rebalance_period=self.PERIOD,
            collect_tasks=False,
        )

    def inspect(self, out, directory, call):
        call.facts["rebalances"] = out.rebalances
        call.facts["shares_error"] = abs(sum(out.shard_shares) - 1.0)
        call.facts["undurable_shards"] = len(out.runtimes) - sum(
            os.path.isfile(os.path.join(d, JOURNAL_NAME))
            and bool(glob.glob(os.path.join(d, "checkpoint-*.json")))
            for d in out.recovery_dirs
        )

    def checks(self, calls):
        rebalances = min(c.facts["rebalances"] for c in calls)
        error = max(c.facts["shares_error"] for c in calls)
        undurable = max(c.facts["undurable_shards"] for c in calls)
        return [
            Check("rebalances>=2", rebalances >= 2, f"fewest rebalances: {rebalances}"),
            Check("shares-sum-to-1", error <= 1e-12, f"max |sum(shares) - 1| = {error:.1e}"),
            Check(
                "shard-durability",
                undurable == 0,
                f"{undurable} shard-XX/ directories lack a journal or a checkpoint",
            ),
        ]


SWEEP_FAMILIES = (
    ("size", paper_groups.size_impact_groups),
    ("speed", paper_groups.speed_impact_groups),
    ("requirement", paper_groups.requirement_impact_groups),
    ("special-load", paper_groups.special_load_impact_groups),
)
#: Interleaved so that any prefix of a run mixes every family and both
#: disciplines.
SWEEP_CURVES = tuple(
    f"{family}-{i}/{discipline}"
    for i in range(5)
    for family, _ in SWEEP_FAMILIES
    for discipline in ("fcfs", "priority")
)


class PaperSweep(Workload):
    """The 20 seven-server groups of Figs. 4-11 x {fcfs, priority} x 25
    points from 5% to 95% of lambda'_max, one curve per call."""

    name = "paper-sweep"
    closed_loop = False
    #: Set-up here is building the 20 groups, which takes about a
    #: millisecond, so many samples are cheap.
    setup_samples = 100
    POINTS, LO, HI = 25, 0.05, 0.95
    CURVES = SWEEP_CURVES

    def __init__(self, quick: bool) -> None:
        self.groups = self.build_groups()
        with open(REFERENCE, encoding="utf-8") as fh:
            self.reference = json.load(fh)["curves"]

    @classmethod
    def build_groups(cls) -> dict:
        return {
            f"{family}-{i}": group
            for family, factory in SWEEP_FAMILIES
            for i, group in enumerate(factory())
        }

    @classmethod
    def rates(cls, group):
        return sweep_rates(group, points=cls.POINTS, lo_fraction=cls.LO, hi_fraction=cls.HI)

    def setup_only(self, seed: int) -> float:
        start = time.perf_counter()
        self.build_groups()
        return time.perf_counter() - start

    def call(self, seed: int, k: int) -> Call:
        label = self.CURVES[k % len(self.CURVES)]
        group_label, discipline = label.split("/")
        group = self.groups[group_label]
        rates = self.rates(group)
        start = time.perf_counter()
        results = repro.solve_sweep(group, rates, discipline=discipline)
        wall = time.perf_counter() - start
        ref = self.reference[label]
        grid_ok = all(
            abs(a - b) <= 1e-12 * b for a, b in zip(rates, ref["rates"])
        ) and len(results) == len(ref["t_prime"])
        worst_t = worst_sum = worst_rho = 0.0
        failed = 0
        for lam, res, t_ref in zip(rates, results, ref["t_prime"]):
            t_err = abs(res.mean_response_time - t_ref) / t_ref
            sum_err = abs(float(res.generic_rates.sum()) - lam) / lam
            rho = float(res.utilizations.max())
            failed += not (t_err <= 1e-7 and sum_err <= 1e-9 and rho < 1.0)
            worst_t, worst_sum = max(worst_t, t_err), max(worst_sum, sum_err)
            worst_rho = max(worst_rho, rho)
        return Call(
            setup_s=None,
            loop_s=wall,
            wall_s=wall,
            ops=len(results),
            attempted=len(rates),
            failed=failed if grid_ok else len(rates),
            solve_s=[r.elapsed_seconds for r in results],
            iterations=[r.iterations for r in results],
            facts={"grid_ok": grid_ok, "t_err": worst_t, "sum_err": worst_sum, "rho": worst_rho},
        )

    def checks(self, calls):
        grid = all(c.facts["grid_ok"] for c in calls)
        t_err = max(c.facts["t_err"] for c in calls)
        sum_err = max(c.facts["sum_err"] for c in calls)
        rho = max(c.facts["rho"] for c in calls)
        points = sum(c.attempted for c in calls)
        return [
            Check(
                "sweep-matches-bisection",
                grid and t_err <= 1e-7,
                f"max relative T' error {t_err:.1e} over {points} points"
                + ("" if grid else "; the rate grid differs from the reference"),
            ),
            Check("rates-sum-to-lambda", sum_err <= 1e-9, f"max relative error {sum_err:.1e}"),
            Check("max-rho<1", rho < 1.0, f"max utilization {rho:.6f}"),
        ]


WORKLOADS = {
    w.name: w for w in (PaperSweep, PaperStatic, FleetDrift, OverloadRetry, FleetSharded)
}


# ---------------------------------------------------------------------------
# Checks that hold for every workload
# ---------------------------------------------------------------------------


def tables_check() -> Check:
    """Tables 1 and 2 to seven decimals through ``repro.solve``."""
    group = paper_groups.example_group()
    worst = 0.0
    for discipline, t_prime, rates, utils in (
        ("fcfs", paper.TABLE1_T_PRIME, paper.TABLE1_RATES, paper.TABLE1_UTILIZATIONS),
        ("priority", paper.TABLE2_T_PRIME, paper.TABLE2_RATES, paper.TABLE2_UTILIZATIONS),
    ):
        res = repro.solve(group, paper.EXAMPLE_TOTAL_RATE, discipline=discipline)
        worst = max(
            worst,
            abs(res.mean_response_time - t_prime),
            *(abs(a - b) for a, b in zip(res.generic_rates, rates)),
            *(abs(a - b) for a, b in zip(res.utilizations, utils)),
        )
    return Check("tables-1-2", worst <= 5e-8, f"max deviation {worst:.1e} (limit 5e-8)")


def class_snapshot() -> dict:
    """Every class defined in a loaded ``repro`` module, with its attributes."""
    snapshot = {}
    for module_name, module in list(sys.modules.items()):
        if module_name != "repro" and not module_name.startswith("repro."):
            continue
        for obj in list(vars(module).values()):
            if isinstance(obj, type) and obj.__module__ == module_name:
                snapshot[f"{module_name}.{obj.__qualname__}"] = (obj, dict(vars(obj)))
    return snapshot


def changed_classes(snapshot: dict) -> list[str]:
    """Classes of ``snapshot`` whose attributes are no longer the same objects."""
    changed = []
    for name, (cls, attrs) in snapshot.items():
        now = vars(cls)
        if now.keys() != attrs.keys() or any(now[k] is not v for k, v in attrs.items()):
            changed.append(name)
    return changed


# ---------------------------------------------------------------------------
# The measuring loop
# ---------------------------------------------------------------------------


def _repeat(step, seconds: float, min_calls: int) -> list:
    """Call ``step(k)`` for k = 0, 1, ... while one more call is
    predicted to end within ``seconds``; at least ``min_calls`` times."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(step(len(results)))
        elapsed = time.perf_counter() - start
        if len(results) >= min_calls and elapsed * (len(results) + 1) / len(results) > seconds:
            return results


def _end_to_end(workload, setups: list[float], calls: list[Call]) -> dict[str, float]:
    # Throughput is the upper quartile over the run's calls: contention
    # from other tenants of the host only ever slows a call, and across
    # seeds the upper quartile spread less than the median or the mean
    # (bench/README.md, "Noise").
    metrics = {"setup_s": median(setups)}
    throughput = upper_quartile(c.ops / c.loop_s for c in calls)
    if workload.closed_loop:
        metrics["tasks_per_s"] = throughput
        metrics["mean_t"] = median(c.mean_t for c in calls)
        fresh = sum(c.attempted for c in calls)
        metrics["failed_frac"] = sum(c.dropped for c in calls) / fresh if fresh else 0.0
    else:
        solve_s = [s for c in calls for s in c.solve_s]
        metrics["solves_per_s"] = throughput
        metrics["solve_p50_ms"] = percentile(solve_s, 0.50) * 1e3
        metrics["solve_p99_ms"] = percentile(solve_s, 0.99) * 1e3
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics


def _layers(workload, tracer: Tracer, pairs: list) -> dict[str, float]:
    traced = [t for _, t, _ in pairs]
    overhead = median(t.loop_s / p.loop_s - 1.0 for p, t, _ in pairs)
    wall = sum(t.wall_s for t in traced)
    outside = sum(t.wall_s - covered for _, t, covered in pairs) / wall
    offers = sum(t.offers for t in traced)
    fresh = sum(t.attempted for t in traced)
    inputs = LayerInputs(
        units=len(traced),
        tasks=sum(t.ops for t in traced) if workload.closed_loop else 0,
        overhead=overhead,
        outside_frac=max(outside, 0.0),
        wrapper_ns=wrapper_cost_ns(),
        mean_t=median(t.mean_t for t in traced),
        failed_frac=sum(t.dropped for t in traced) / fresh if fresh else 0.0,
        retries_per_offer=sum(t.retries for t in traced) / offers if offers else 0.0,
        adopted=sum(t.adopted for t in traced),
        resolve_events=sum(t.resolve_events for t in traced),
        journal_bytes=sum(t.journal_bytes for t in traced),
        sweep_solve_s=[s for t in traced for s in t.solve_s],
        sweep_iterations=[i for t in traced for i in t.iterations],
    )
    return layer_metrics(tracer, inputs)


def measure(
    name: str, seed: int, seconds: float, *, trace: bool = False, quick: bool = False
) -> dict:
    """One run of workload ``name``: calls for about ``seconds`` host
    seconds, then the checks.  Returns a JSON-ready record with the
    end-to-end metrics (untraced) or the per-layer metrics (traced)."""
    for module, _, _ in HOOKS:
        try:
            importlib.import_module(module)
        except ImportError:
            pass  # reported by the tracer when it matters
    workload = WORKLOADS[name](quick)
    snapshot = class_snapshot()
    checks = [tables_check()]
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "quick": quick}
    if trace:
        tracer = Tracer()

        def step(k):
            s = unit_seed(seed, k)
            plain = workload.call(s, k)
            tracer.install()
            try:
                before = tracer.top_level_s()
                traced = workload.call(s, k)
                covered = tracer.top_level_s() - before
            finally:
                tracer.uninstall()
            if not workload.closed_loop:
                # No spans on the sweep path: the solver backends' own
                # stamps are what the call spent inside the solver.
                covered = sum(traced.solve_s)
            return plain, traced, covered

        pairs = _repeat(step, seconds, 1)
        calls = [t for _, t, _ in pairs]
        record["layers"] = _layers(workload, tracer, pairs)
        record["unhooked"] = tracer.unhooked
        os.makedirs(OUT, exist_ok=True)
        spans = os.path.join(OUT, f"spans-{name}-{seed}.jsonl")
        tracer.write_jsonl(spans)
        record["spans"] = os.path.relpath(spans, ROOT)
    else:
        setups = [workload.setup_only(unit_seed(seed, i)) for i in range(workload.setup_samples)]
        calls = _repeat(
            lambda k: workload.call(unit_seed(seed, k), k), seconds, workload.min_calls
        )
        record["per_call"] = [[c.ops, c.loop_s] for c in calls]
        setups += [c.setup_s for c in calls if c.setup_s is not None]
        record["e2e"] = _end_to_end(workload, setups, calls)
        record["setups"] = len(setups)
        if not workload.closed_loop:
            record["solve_samples"] = sum(len(c.solve_s) for c in calls)
    checks += workload.checks(calls)
    changed = changed_classes(snapshot)
    checks.append(
        Check(
            "classes-restored",
            not changed,
            "every repro class is as before the run" if not changed else ", ".join(changed),
        )
    )
    record["calls"] = len(calls)
    record["attempted"] = sum(c.attempted for c in calls)
    record["failed"] = sum(c.failed for c in calls)
    record["checks"] = [vars(c) for c in checks]
    record["correct"] = all(c.ok for c in checks)
    return record
