"""Discrete-event simulation engine for a heterogeneous blade-server group.

Realizes the paper's model end-to-end: a group-wide Poisson stream of
generic tasks split by a router (by default the router registry's alias
sampler), independent per-server Poisson streams of special tasks,
exponential execution requirements shared by both classes, ``m_i``
blades of speed ``s_i`` per server, and either the shared-FCFS or the
non-preemptive-priority discipline.

The engine is the validation substrate for the analytical model: run it
at the optimizer's rates and the measured mean generic response time
must match the closed-form ``T'`` (the integration tests assert this
within confidence intervals — a check the paper itself never performs).

The work per task is O(1) in the number of servers ``n``: the group's
parameter vectors are cached read-only arrays read once per run, the
per-server time integrals are flat lists updated in place, and a
special-arrival generator exists only for servers with
``lambda''_i > 0`` (the spawn positions of the others are reserved, so
every stream equals an eager spawn of all ``n``).  What remains O(n)
happens once per run: the warm-up reset and the final reduction of the
integrals.  The servers themselves are built lazily, the first time an
event touches one.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from ..core.exceptions import ParameterError, SimulationError
from ..core.response import Discipline
from ..core.server import BladeServerGroup
from ..obs import get_obs
from .arrivals import ArrivalProcess, ClientWorkload, Offer, PoissonArrivals
from .events import EventQueue, EventType
from .requirements import ExponentialRequirement, RequirementDistribution
from .rng import StreamFactory, exponential
from .server import SimServer
from .stats import BatchMeans, RunningStats
from .task import SimTask, TaskClass

__all__ = ["SimulationConfig", "SimulationResult", "GroupSimulation", "simulate_group"]


@dataclass(frozen=True)
class SimulationConfig:
    """Parameters of one simulation run.

    Attributes
    ----------
    total_generic_rate:
        Group-wide generic arrival rate ``lambda'``.
    fractions:
        Routing probabilities ``lambda'_i / lambda'``; the engine's own
        router requires a distribution (finite, ``>= 0``, sum 1).  With
        a dispatcher only the length is checked.
    discipline:
        Queueing discipline for special tasks.
    horizon:
        Simulated time at which the run stops (finite).
    warmup:
        Initial transient discarded from all statistics (must be
        strictly less than ``horizon``).
    seed:
        Master seed for all random streams.
    """

    total_generic_rate: float
    fractions: tuple[float, ...] | np.ndarray
    discipline: Discipline = Discipline.FCFS
    horizon: float = 50_000.0
    warmup: float = 5_000.0
    seed: int | None = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.total_generic_rate) and self.total_generic_rate > 0):
            raise ParameterError(
                f"total_generic_rate must be > 0, got {self.total_generic_rate!r}"
            )
        if not math.isfinite(self.horizon):
            # END_OF_RUN would never fire: the run would not return.
            raise ParameterError(f"horizon must be finite, got {self.horizon!r}")
        if not (0.0 <= self.warmup < self.horizon):
            raise ParameterError(
                f"need 0 <= warmup < horizon, got warmup={self.warmup}, "
                f"horizon={self.horizon}"
            )


@dataclass(frozen=True)
class SimulationResult:
    """Measured output of one simulation run.

    All statistics cover the post-warmup window only.
    """

    #: Mean response time of generic tasks (the paper's ``T'``).
    generic_response_time: float
    #: Mean response time of special tasks.
    special_response_time: float
    #: Mean waiting time of generic tasks.
    generic_waiting_time: float
    #: Mean waiting time of special tasks.
    special_waiting_time: float
    #: Per-server measured utilization (busy-blade time / (m * window)).
    utilizations: np.ndarray
    #: Per-server time-average number in system.
    mean_in_system: np.ndarray
    #: Completed generic tasks counted in the statistics.
    generic_completed: int
    #: Completed special tasks counted in the statistics.
    special_completed: int
    #: Batch-means accumulator for generic response times (CI queries).
    generic_batches: BatchMeans = field(repr=False)
    #: Per-server completed generic-task counts (post-warmup).
    generic_completed_per_server: np.ndarray = field(default=None, repr=False)
    #: Completed post-warmup tasks, in completion order (only populated
    #: when the run was started with ``collect_tasks=True``).
    task_log: tuple = field(default=(), repr=False)
    #: Generic arrivals the dispatcher refused (returned a negative
    #: index), counted post-warmup.  Always zero for the paper's static
    #: dispatchers; the online runtime sheds load this way when the
    #: surviving capacity cannot absorb demand.
    generic_shed: int = 0
    #: Re-offered generic tasks (retrying clients), whole run.  Only
    #: populated when the run has a :class:`ClientWorkload`.
    generic_retried: int = 0
    #: Client-timeout firings on still-queued tasks, whole run.
    generic_timeouts: int = 0
    #: Offers dropped after exhausting their retry budget, whole run.
    generic_abandoned: int = 0
    #: Per-priority-class offered counts (fresh + retries), whole run.
    offered_by_class: tuple[int, ...] = ()
    #: Per-priority-class rejected/shed offer counts, whole run.
    shed_by_class: tuple[int, ...] = ()
    #: Per-priority-class completed-task counts, post-warmup.
    completed_by_class: tuple[int, ...] = ()


class _LazyServers(dict):
    """The engine's :class:`SimServer` per index, built on first access.

    At the optimum most servers of a large group receive no generic load
    and no special stream, and are never touched by an event: they get
    no object at all.
    """

    __slots__ = ("_sizes", "_speeds", "_discipline")

    def __init__(self, sizes: np.ndarray, speeds: np.ndarray, discipline: Discipline):
        super().__init__()
        self._sizes = sizes
        self._speeds = speeds
        self._discipline = discipline

    def __missing__(self, i: int) -> SimServer:
        srv = self[i] = SimServer(
            i, int(self._sizes[i]), float(self._speeds[i]), self._discipline
        )
        return srv


class GroupSimulation:
    """Event-scheduling simulation of one blade-server group.

    Parameters
    ----------
    group:
        The blade-server group (sizes, speeds, special rates, ``rbar``).
    config:
        Run parameters (rates, discipline, horizon, warmup, seed).
    dispatcher:
        Optional dispatcher override: an object with ``route()`` (a
        server index, negative to shed) and optionally
        ``route_offer(offer)``, such as the online runtime, or a static
        :class:`~repro.runtime.policies.RouterPolicy` such as
        :class:`~repro.runtime.router.SmoothWeightedRoundRobinRouter`,
        whose ``pick()`` is called.  Defaults to the registry's
        ``"alias"`` router over ``config.fractions`` on the dedicated
        ``"routing"`` stream: Bernoulli splitting of the Poisson
        stream, the paper's model exactly in distribution.
    requirement:
        Optional execution-requirement distribution; defaults to the
        paper's exponential with mean ``group.rbar``.  Supplying a
        non-exponential law (see :mod:`repro.sim.requirements`) turns
        the run into a robustness experiment — the analytical M/M/m
        predictions then no longer apply exactly.  The distribution's
        mean must equal ``group.rbar`` so utilizations stay comparable.
    collect_tasks:
        When true, every task completed inside the measurement window
        is retained in :attr:`SimulationResult.task_log` (memory grows
        linearly with the horizon — meant for distribution studies,
        not long production runs).
    classifier:
        Optional callable invoked on every newly created task (e.g. to
        stamp a multi-level :attr:`SimTask.priority`).  Runs before the
        task is offered to its server.
    arrivals:
        Optional generic-stream arrival process (see
        :mod:`repro.sim.arrivals`); defaults to the paper's Poisson
        stream at ``config.total_generic_rate``.  A non-Poisson process
        turns the run into an arrival-burstiness robustness experiment.
        The process's long-run rate must equal the configured rate.
    arrival_listener:
        Optional callable ``listener(now)`` invoked at every generic
        arrival *before* the routing decision.  The online runtime uses
        it to feed its rate estimators with the offered (pre-shedding)
        stream.
    completion_listener:
        Optional callable ``listener(task, now)`` invoked at every task
        completion (both classes, warmup included) — the runtime's
        response-time feedback channel, and the event source from which
        state-aware routing policies (power-of-d, join-idle-queue)
        maintain their per-server in-flight counts.  Delivered for every
        departure, so queue state never drifts from the data plane.
    controls:
        Scheduled control actions ``(time, action)``; each ``action``
        is called as ``action(sim, now)`` when the simulation clock
        reaches ``time``.  Used to inject server failures, recoveries,
        and other operator events into a run.
    workload:
        Optional :class:`~repro.sim.arrivals.ClientWorkload`.  When
        set, every fresh generic arrival is stamped with a priority
        class (an :class:`~repro.sim.arrivals.Offer`), rejected/shed
        offers re-enter after jittered exponential backoff up to their
        per-class retry budget, and admitted tasks that outlive
        ``retry.timeout`` are re-offered while the original keeps
        consuming service.  Offer-aware dispatchers (those exposing
        ``route_offer``) receive the offer; others route it like a
        plain arrival.
    """

    def __init__(
        self,
        group: BladeServerGroup,
        config: SimulationConfig,
        dispatcher=None,
        requirement: "RequirementDistribution | None" = None,
        collect_tasks: bool = False,
        classifier=None,
        arrivals: "ArrivalProcess | None" = None,
        arrival_listener=None,
        completion_listener=None,
        controls=(),
        workload: "ClientWorkload | None" = None,
    ) -> None:
        if len(config.fractions) != group.n:
            raise ParameterError(
                f"fractions length {len(config.fractions)} != n = {group.n}"
            )
        self.group = group
        self.config = config
        self._streams = StreamFactory(config.seed)
        self._arrival_rng = self._streams.stream("generic-arrivals")
        self._requirement_rng = self._streams.stream("requirements")
        # One spawn position per server, as if every server had a stream,
        # but a generator only where lambda''_i > 0: the streams (and the
        # named ones spawned after them) match an eager spawn of all n.
        special_child = self._streams.reserve(group.n)
        self._special_rngs: dict[int, np.random.Generator] = {
            int(i): special_child(int(i))
            for i in np.flatnonzero(group.special_rates > 0.0)
        }
        if dispatcher is None:
            # Imported here: repro.runtime.loop imports this module.
            from ..runtime.router import AliasTableRouter

            # The router would renormalize [0.5, 0.6] silently; NaN fails
            # both tests.
            p = np.asarray(config.fractions, dtype=float)
            ok = np.all(p >= 0.0) and np.isclose(p.sum(), 1.0, rtol=1e-9, atol=1e-12)
            if not ok:
                raise ParameterError(
                    f"fractions must be finite, >= 0 and sum to 1, "
                    f"got {config.fractions!r}"
                )
            dispatcher = AliasTableRouter(p, self._streams.stream("routing"))
        self._bind_dispatcher(dispatcher)
        if requirement is None:
            requirement = ExponentialRequirement(group.rbar)
        elif abs(requirement.mean - group.rbar) > 1e-9 * group.rbar:
            raise ParameterError(
                f"requirement mean {requirement.mean} != group rbar "
                f"{group.rbar}; utilizations would be incomparable"
            )
        self._requirement = requirement
        self._collect_tasks = bool(collect_tasks)
        self._classifier = classifier
        if arrivals is None:
            arrivals = PoissonArrivals(config.total_generic_rate)
        elif abs(arrivals.rate - config.total_generic_rate) > 1e-9 * max(
            arrivals.rate, config.total_generic_rate
        ):
            raise ParameterError(
                f"arrival-process rate {arrivals.rate} != configured "
                f"total_generic_rate {config.total_generic_rate}"
            )
        self._arrivals = arrivals
        self._workload = workload
        self._backoff_scale = 1.0
        if workload is not None:
            # Dedicated streams keep class stamping and backoff jitter
            # reproducible and independent of every other draw.
            self._class_rng = self._streams.stream("classes")
            self._retry_rng = self._streams.stream("retries")
        self._arrival_listener = arrival_listener
        self._completion_listener = completion_listener
        self._controls: list = []
        self._events: EventQueue | None = None
        self._now = 0.0
        for t, action in controls:
            self.schedule_control(t, action)
        self._servers = _LazyServers(
            group.sizes, group.speeds, Discipline.coerce(config.discipline)
        )
        self._task_counter = 0

    # -- clock and control plane ----------------------------------------------------

    @property
    def now(self) -> float:
        """The current simulation clock (0 before the run starts)."""
        return self._now

    def schedule_control(self, time: float, action) -> None:
        """Schedule a control action ``action(sim, now)`` at ``time``.

        Works both before :meth:`run` (the action joins the initial
        control list) and from *inside* a running simulation — e.g. a
        control action or listener arming a follow-up event.  Times at
        or past the horizon are accepted and silently never fire; times
        in the past of a running clock are rejected.
        """
        if not (math.isfinite(time) and time >= 0.0):
            raise ParameterError(f"control time must be finite and >= 0, got {time!r}")
        if not callable(action):
            raise ParameterError(f"control action must be callable, got {action!r}")
        if self._events is None:
            self._controls.append((time, action))
            return
        if time < self._now:
            raise ParameterError(
                f"control time {time!r} is in the past (now = {self._now!r})"
            )
        if time < self.config.horizon:
            self._events.schedule(time, EventType.CONTROL, payload=action)

    def _bind_dispatcher(self, dispatcher) -> None:
        """Resolve, once per dispatcher, the calls the event loop makes."""
        route = getattr(dispatcher, "route", None)
        if route is None:
            route = dispatcher.pick  # a RouterPolicy, routed state-blind
        route_offer = getattr(dispatcher, "route_offer", None)
        if route_offer is None:
            route_offer = lambda offer: route()
        self._route = route
        self._route_offer = route_offer

    def swap_dispatcher(
        self,
        dispatcher,
        *,
        arrival_listener=None,
        completion_listener=None,
    ) -> None:
        """Replace the dispatcher (and optionally its listeners) live.

        The event loop reads the bound routing calls and the listeners
        on every event, so the swap takes effect at the very next arrival.
        This is the crash-recovery boundary: a rebuilt control plane
        takes over routing while the data plane — queues, in-flight
        tasks, and every engine RNG stream — continues untouched.
        """
        self._bind_dispatcher(dispatcher)
        if arrival_listener is not None:
            self._arrival_listener = arrival_listener
        if completion_listener is not None:
            self._completion_listener = completion_listener

    def set_backoff_scale(self, scale: float) -> None:
        """Scale client retry backoffs live (the ``retry-storm`` fault).

        A scale well below 1 collapses the backoff spacing so the whole
        retry wave lands at once — the aggressive-client half of a
        metastable overload.  1.0 restores the configured policy.
        """
        if not (math.isfinite(scale) and scale > 0.0):
            raise ParameterError(f"backoff scale must be > 0, got {scale!r}")
        self._backoff_scale = float(scale)

    def capture_rng_state(self) -> dict:
        """JSON-safe snapshot of every engine random stream.

        Covers the stream factory (named streams plus spawn position)
        and the per-server special-arrival generators: ``"special"``
        has one entry per server, ``None`` (JSON ``null``) for a server
        with no special stream (``lambda''_i = 0``).  Restoring via
        :meth:`restore_rng_state` makes subsequent arrival/service
        draws bit-identical to the captured run.
        """
        from .rng import generator_state

        special = [None] * self.group.n
        for i, gen in self._special_rngs.items():
            special[i] = generator_state(gen)
        return {"streams": self._streams.state_dict(), "special": special}

    def restore_rng_state(self, state: dict) -> None:
        """Restore a :meth:`capture_rng_state` snapshot in place.

        Raises :class:`ParameterError` unless the snapshot's special
        entries cover exactly this engine's special streams.
        """
        from .rng import set_generator_state

        special = state["special"]
        covered = {i for i, gen_state in enumerate(special) if gen_state is not None}
        if len(special) != self.group.n or covered != self._special_rngs.keys():
            raise ParameterError(
                f"snapshot covers {len(covered)} special streams over "
                f"{len(special)} servers, engine has "
                f"{len(self._special_rngs)} over {self.group.n}"
            )
        self._streams.load_state(state["streams"])
        for i, gen in self._special_rngs.items():
            set_generator_state(gen, special[i])

    # -- task creation ------------------------------------------------------------

    def _new_task(self, cls: TaskClass, server_index: int, now: float) -> SimTask:
        self._task_counter += 1
        task = SimTask(
            task_id=self._task_counter,
            task_class=cls,
            server_index=server_index,
            arrival_time=now,
            requirement=self._requirement.sample(self._requirement_rng),
        )
        if self._classifier is not None:
            self._classifier(task)
        return task

    # -- main loop ------------------------------------------------------------------

    def run(self) -> SimulationResult:
        """Execute the run and return post-warmup statistics."""
        cfg = self.config
        n = self.group.n
        servers = self._servers
        speeds = self.group.speeds
        special_means = {
            i: 1.0 / self.group.servers[i].special_rate for i in self._special_rngs
        }
        events = EventQueue()
        self._events = events
        self._now = 0.0
        measuring = cfg.warmup == 0.0

        # Statistics containers.
        gen_resp = BatchMeans(n_batches=20)
        gen_wait = RunningStats()
        spec_resp = RunningStats()
        spec_wait = RunningStats()
        # Per-server time integrals of busy blades and tasks in system,
        # flattened into lists (the arithmetic of TimeWeightedStats, one
        # shared last-update time per server): O(1) per state change.
        window_start = 0.0
        last_t = [0.0] * n
        busy_area = [0.0] * n
        busy_last = [0.0] * n
        system_area = [0.0] * n
        system_last = [0.0] * n
        gen_done = 0
        spec_done = 0
        gen_shed = 0
        gen_done_per_server = np.zeros(n, dtype=np.int64)
        task_log: list[SimTask] = []

        # Client-workload accounting (whole run, not just the
        # measurement window: the acceptance criterion for priority-0
        # goodput covers every offer the clients ever made).
        wl = self._workload
        n_classes = wl.n_classes if wl is not None else 0
        gen_retried = 0
        gen_timeouts = 0
        gen_abandoned = 0
        offered_by_class = [0] * n_classes
        shed_by_class = [0] * n_classes
        done_by_class = [0] * n_classes
        retry_depths: dict[int, int] = {}

        # Prime the arrival streams.
        self._arrivals.reset()
        events.schedule(
            self._arrivals.next_interarrival(self._arrival_rng),
            EventType.GENERIC_ARRIVAL,
        )
        for i, rng in self._special_rngs.items():
            events.schedule(
                exponential(rng, special_means[i]),
                EventType.SPECIAL_ARRIVAL,
                payload=i,
            )
        if cfg.warmup > 0.0:
            events.schedule(cfg.warmup, EventType.END_OF_WARMUP)
        events.schedule(cfg.horizon, EventType.END_OF_RUN)
        for t, action in self._controls:
            if t < cfg.horizon:
                events.schedule(t, EventType.CONTROL, payload=action)

        def record_state(i: int, now: float) -> None:
            t0 = last_t[i]
            if now < t0:
                raise SimulationError(f"time went backwards: {now} < {t0}")
            busy_area[i] += busy_last[i] * (now - t0)
            system_area[i] += system_last[i] * (now - t0)
            last_t[i] = now
            srv = servers[i]
            busy_last[i] = srv.busy
            system_last[i] = srv.in_system

        def start_service(task: SimTask, now: float) -> None:
            service = task.service_time(speeds[task.server_index])
            events.schedule(now + service, EventType.DEPARTURE, payload=task)

        def maybe_retry(offer: "Offer", now: float) -> bool:
            """Re-offer after jittered exponential backoff, if budget remains."""
            nonlocal gen_retried, gen_abandoned
            if offer.attempt >= wl.retry.budget_for(offer.cls):
                gen_abandoned += 1
                return False
            delay = self._backoff_scale * wl.retry.backoff_delay(
                offer.attempt + 1, self._retry_rng.random()
            )
            events.schedule(
                now + delay,
                EventType.GENERIC_ARRIVAL,
                payload=Offer(offer.cls, offer.attempt + 1),
            )
            gen_retried += 1
            depth = offer.attempt + 1
            retry_depths[depth] = retry_depths.get(depth, 0) + 1
            return True

        o = get_obs()
        obs_on = o.enabled
        ev_counts: dict[str, int] = {}
        wall_start = time.perf_counter()
        sim_span = o.tracer.span("sim.run", n=n, horizon=cfg.horizon)
        sim_span.__enter__()
        try:
            while events:
                ev = events.pop()
                now = ev.time
                self._now = now
                if obs_on:
                    kind = ev.kind.name
                    ev_counts[kind] = ev_counts.get(kind, 0) + 1

                if ev.kind is EventType.END_OF_RUN:
                    break

                if ev.kind is EventType.END_OF_WARMUP:
                    # Restart every integrator at the current time and drop
                    # all per-task statistics collected so far.  busy_last
                    # and system_last already hold every server's state:
                    # record_state runs after each change to it.
                    measuring = True
                    window_start = now
                    last_t[:] = [now] * n
                    busy_area[:] = [0.0] * n
                    system_area[:] = [0.0] * n
                    continue

                if ev.kind is EventType.CONTROL:
                    ev.payload(self, now)
                    continue

                if ev.kind is EventType.GENERIC_ARRIVAL:
                    # A fresh arrival carries no payload and schedules its
                    # successor; a retry carries its Offer and does not (the
                    # retry stream rides on top of the fresh stream).
                    offer = ev.payload
                    if offer is None:
                        events.schedule(
                            now + self._arrivals.next_interarrival(self._arrival_rng),
                            EventType.GENERIC_ARRIVAL,
                        )
                        if wl is not None:
                            offer = Offer(wl.draw_class(self._class_rng.random()), 0)
                    # The listener sees retries too: the runtime's rate
                    # estimator must observe the storm, not just the
                    # fresh stream — that is what admission reacts to.
                    if self._arrival_listener is not None:
                        self._arrival_listener(now)
                    if offer is not None:
                        offered_by_class[offer.cls] += 1
                        dest = self._route_offer(offer)
                    else:
                        dest = self._route()
                    if dest < 0:
                        # Dispatcher shed the task (degraded mode): it never
                        # enters any queue and produces no statistics.
                        if measuring:
                            gen_shed += 1
                        if offer is not None:
                            shed_by_class[offer.cls] += 1
                            maybe_retry(offer, now)
                        continue
                    task = self._new_task(TaskClass.GENERIC, dest, now)
                    if offer is not None:
                        task.offer_class = offer.cls
                        task.attempt = offer.attempt
                        timeout = wl.retry.timeout
                        if math.isfinite(timeout) and offer.attempt < wl.retry.budget_for(
                            offer.cls
                        ):
                            events.schedule(
                                now + timeout, EventType.TIMEOUT_CHECK, payload=task
                            )
                    started = servers[dest].on_arrival(task, now)
                    if started is not None:
                        start_service(started, now)
                    record_state(dest, now)
                    continue

                if ev.kind is EventType.TIMEOUT_CHECK:
                    task = ev.payload
                    if math.isnan(task.completion_time):
                        # The client gave up: a duplicate re-enters after
                        # backoff while the original keeps consuming service.
                        # This work amplification is what makes overload
                        # metastable — the storm outlives the burst.
                        gen_timeouts += 1
                        maybe_retry(Offer(task.offer_class, task.attempt), now)
                    continue

                if ev.kind is EventType.SPECIAL_ARRIVAL:
                    i = ev.payload
                    events.schedule(
                        now + exponential(self._special_rngs[i], special_means[i]),
                        EventType.SPECIAL_ARRIVAL,
                        payload=i,
                    )
                    task = self._new_task(TaskClass.SPECIAL, i, now)
                    started = servers[i].on_arrival(task, now)
                    if started is not None:
                        start_service(started, now)
                    record_state(i, now)
                    continue

                if ev.kind is EventType.DEPARTURE:
                    task = ev.payload
                    task.completion_time = now
                    i = task.server_index
                    nxt = servers[i].on_departure(now)
                    if nxt is not None:
                        start_service(nxt, now)
                    record_state(i, now)
                    if self._completion_listener is not None:
                        self._completion_listener(task, now)
                    # Count the completion only if the task *arrived* after
                    # warmup, so its whole sojourn lies in the window.
                    if measuring and task.arrival_time >= cfg.warmup:
                        if self._collect_tasks:
                            task_log.append(task)
                        if task.task_class is TaskClass.GENERIC:
                            gen_resp.add(task.response_time)
                            gen_wait.add(task.waiting_time)
                            gen_done += 1
                            gen_done_per_server[i] += 1
                            if task.offer_class is not None:
                                done_by_class[task.offer_class] += 1
                        else:
                            spec_resp.add(task.response_time)
                            spec_wait.add(task.waiting_time)
                            spec_done += 1
                    continue

                raise SimulationError(f"unhandled event kind {ev.kind}")  # pragma: no cover

            if obs_on:
                sim_span.note(
                    events=sum(ev_counts.values()),
                    wall_seconds=time.perf_counter() - wall_start,
                )
        finally:
            sim_span.__exit__(None, None, None)
        if obs_on:
            wall = time.perf_counter() - wall_start
            total_events = sum(ev_counts.values())
            reg = o.registry
            fam = reg.counter(
                "repro_sim_events_total",
                "Simulation events processed, by event kind",
                labels=("kind",),
            )
            for kind, count in ev_counts.items():
                fam.labels(kind=kind).inc(count)
            if retry_depths:
                depth_fam = reg.counter(
                    "repro_retry_depth",
                    "Re-offered tasks by retry attempt depth",
                    labels=("depth",),
                )
                for depth in sorted(retry_depths):
                    depth_fam.labels(depth=str(depth)).inc(retry_depths[depth])
            if wall > 0.0:
                reg.gauge(
                    "repro_sim_events_per_second",
                    "Event-loop occupancy of the last simulation run",
                ).set(total_events / wall)
                reg.gauge(
                    "repro_sim_time_dilation",
                    "Simulated time units per wall-clock second (last run)",
                ).set(self._now / wall)

        end = cfg.horizon
        last = np.array(last_t)
        if (last > end).any():
            raise ParameterError(
                f"end_time {end} precedes last update {last.max()}"
            )
        window = end - window_start
        if window <= 0.0:
            raise SimulationError("zero-length observation window")
        held = end - last
        utilizations = (
            (np.array(busy_area) + np.array(busy_last) * held) / window
        ) / self.group.sizes
        mean_in_system = (np.array(system_area) + np.array(system_last) * held) / window
        if gen_done == 0:
            raise SimulationError(
                "no generic task completed inside the measurement window; "
                "increase the horizon"
            )
        return SimulationResult(
            generic_response_time=gen_resp.mean,
            special_response_time=spec_resp.mean if spec_done else float("nan"),
            generic_waiting_time=gen_wait.mean,
            special_waiting_time=spec_wait.mean if spec_done else float("nan"),
            utilizations=utilizations,
            mean_in_system=mean_in_system,
            generic_completed=gen_done,
            special_completed=spec_done,
            generic_batches=gen_resp,
            generic_completed_per_server=gen_done_per_server,
            task_log=tuple(task_log),
            generic_shed=gen_shed,
            generic_retried=gen_retried,
            generic_timeouts=gen_timeouts,
            generic_abandoned=gen_abandoned,
            offered_by_class=tuple(offered_by_class),
            shed_by_class=tuple(shed_by_class),
            completed_by_class=tuple(done_by_class),
        )


def simulate_group(
    group: BladeServerGroup,
    total_generic_rate: float,
    fractions,
    discipline: Discipline | str = Discipline.FCFS,
    horizon: float = 50_000.0,
    warmup: float = 5_000.0,
    seed: int | None = 0,
    requirement: RequirementDistribution | None = None,
) -> SimulationResult:
    """One-call convenience wrapper around :class:`GroupSimulation`."""
    config = SimulationConfig(
        total_generic_rate=total_generic_rate,
        fractions=tuple(float(f) for f in fractions),
        discipline=Discipline.coerce(discipline),
        horizon=horizon,
        warmup=warmup,
        seed=seed,
    )
    return GroupSimulation(group, config, requirement=requirement).run()
