"""The execution core: the virtual-clock loop skeleton shared by all engines.

Both engines simulate Algorithm 1 of the paper against a
:class:`~repro.core.increments.StreamPlan` on deterministic virtual clocks;
they differ *only* in step ordering (the serial engine charges every stage
to one clock, the pipelined engine overlaps ingestion with matching on a
second clock).  Everything else — arrival ingestion and exactly-once
redelivery dedup, budget clamping, matcher retry with virtual-clock
backoff, cost-ceiling quarantine, load shedding, checkpoint cadence and
crash injection, metrics preseeding and finalization — is policy-free and
lives here, in :class:`ExecutionCore`.  Engine subclasses implement
:meth:`ExecutionCore._drive` (the step-ordering policy) plus two small
clock hooks, and inherit the rest.

Budget semantics: the budget is a hard deadline on the virtual clock.  A
comparison whose (deterministic) cost would push the clock past the budget
is *not* executed and *not* credited to the progress curve — the engine
charges the remaining time as cut-off work and stops, so no point of the
reported curve ever lies beyond the budget.

Comparison execution comes in two bit-identical flavors:

* the **scalar path** walks the emission batch pair by pair through
  ``matcher.evaluate`` with the full retry/backoff/quarantine machinery —
  required for impure matchers (fault injection, latency spikes);
* the **batched kernel** plans the deadline cut from
  ``matcher.estimate_cost_batch`` and executes the surviving prefix with a
  single ``matcher.evaluate_batch`` call.  For matchers that declare
  ``supports_batch`` (evaluation is deterministic, never raises, and costs
  exactly its estimate) this produces bit-identical clocks, curves and
  counters while amortizing per-pair Python dispatch — the acceleration
  lever of SPER-style batched similarity evaluation.

Resilience semantics (see :mod:`repro.resilience`): increments are delivered
exactly once (redeliveries deduplicated by id), transient matcher failures
are retried with capped exponential backoff *charged to the virtual clock*,
pathological pairs are quarantined into the system's shared
:class:`~repro.execution.store.ComparisonStore` instead of crashing the
run, backlog beyond a watermark is shed, and the core can checkpoint at a
configurable cadence and resume from an
:class:`~repro.resilience.checkpoint.EngineCheckpoint` with bit-identical
virtual results.  All of this is off by default
(:data:`~repro.resilience.retry.DEFAULT_RESILIENCE` changes nothing about a
fault-free run).

Every run is instrumented through a fresh
:class:`~repro.observability.metrics.MetricsRegistry` (bound to the system
and the matcher): named counters, per-phase virtual/wall timers and a
bounded per-round gauge log, exported as ``details["metrics"]`` on the
:class:`RunResult`.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field, replace

from repro.core.dataset import GroundTruth
from repro.core.increments import StreamPlan
from repro.evaluation.recorder import ProgressCurve, ProgressRecorder
from repro.execution.store import ComparisonStore
from repro.matching.matcher import KERNEL_COUNTERS, Matcher
from repro.observability.metrics import MetricsRegistry, PhaseTimer
from repro.priority.rates import RateEstimator
from repro.resilience.checkpoint import EngineCheckpoint, SimulatedCrash, plan_token
from repro.resilience.faults import TransientMatcherError
from repro.resilience.retry import DEFAULT_RESILIENCE, ResilienceConfig
from repro.streaming.system import ERSystem, PipelineStats

__all__ = ["PRESEEDED_COUNTERS", "PRESEEDED_PHASES", "RunResult", "RunState", "ExecutionCore"]

#: Counters every run exports even when they stay zero.  This is the union
#: of both engines' counter surfaces, preseeded identically by the shared
#: core, so exported schemas match across engines on healthy runs (e.g.
#: ``engine.fast_forwards`` only ever increments on the serial engine and
#: ``engine.ingests_cut_by_deadline`` only on the pipelined one, yet both
#: appear in every export).  ``engine.checkpoints_taken`` is deliberately
#: absent: its presence signals that checkpointing was enabled.
PRESEEDED_COUNTERS = (
    "blocking.lsh.buckets",
    "blocking.lsh.candidates_pruned",
    "blocking.lsh.signatures",
    "engine.comparisons_cut_by_deadline",
    "engine.comparisons_executed",
    "engine.duplicate_increments_dropped",
    "engine.emission_rounds",
    "engine.fast_forwards",
    "engine.forced_ingests",
    "engine.idle_rounds",
    "engine.increments_ingested",
    "engine.ingests_cut_by_deadline",
    "engine.matcher_faults",
    "engine.matches_recorded",
    "engine.quarantined_pairs",
    "engine.retries",
    "engine.retry_backoff_s",
    "engine.shed_increments",
    "parallel.fallbacks",
    "parallel.pairs_sharded",
    "parallel.rounds_sharded",
    "parallel.shm_bytes",
    "parallel.shm_segments",
    "parallel.supervision.evictions",
    "parallel.supervision.reassigned_chunks",
    "parallel.supervision.reply_timeouts",
    "parallel.supervision.respawns",
    "parallel.supervision.stale_segments_swept",
) + tuple(f"matcher.kernel.{name}" for name in sorted(KERNEL_COUNTERS))

#: Phase timers every run exports even when they never fire, for the same
#: reason: ``sleep`` only accumulates on the serial engine (fast-forward),
#: yet both engines export the full phase surface.
PRESEEDED_PHASES = ("emit", "idle", "ingest", "match", "scatter", "sleep")


@dataclass(frozen=True, slots=True)
class RunResult:
    """Outcome of one simulated run."""

    system_name: str
    matcher_name: str
    curve: ProgressCurve
    duplicates: frozenset[tuple[int, int]]
    comparisons_executed: int
    clock_end: float
    budget: float
    stream_consumed_at: float | None     # when the last increment was ingested
    work_exhausted: bool                 # system + stream fully drained
    increments_ingested: int
    match_events: tuple[tuple[float, tuple[int, int]], ...] = ()
    details: dict[str, object] = field(default_factory=dict)

    @property
    def final_pc(self) -> float:
        return self.curve.final_pc


class RunState:
    """All mutable state of one run, owned by the core, mutated by policies.

    ``clock`` is the (match) clock both engines report; ``ingest_clock`` is
    ``None`` on single-clock engines and the concurrent ingest stage's clock
    on the pipelined engine.
    """

    __slots__ = (
        "system", "matcher", "metrics", "recorder", "estimator", "store",
        "plan", "arrival_times", "increments", "n_arrivals",
        "plan_fingerprint", "next_arrival", "clock", "ingest_clock",
        "consumed_at", "work_exhausted", "rounds", "ingested", "shed",
        "duplicates_dropped", "duplicates", "seen_increments",
        "last_checkpoint_clock",
        # Tier A telemetry, kept OUT of the metrics registry until finalize
        # so mid-run checkpoints (and their fingerprints) stay bit-identical
        # across worker counts.
        "parallel_rounds", "parallel_pairs", "parallel_fallbacks",
        "scatter_wall_start", "shm_segments_start", "shm_bytes_start",
        "evictions_start", "respawns_start", "reassigned_start",
        "reply_timeouts_start",
    )


class ExecutionCore:
    """Virtual-clock run skeleton; engines subclass it as step policies.

    Parameters
    ----------
    matcher / budget / match_cost_prior / sample_every:
        The match function, the virtual-time budget, the prior mean
        comparison cost, and the progress-curve sampling stride.
    resilience:
        Fault-tolerance knobs (retry, quarantine, shedding, checkpointing);
        the default changes nothing about a fault-free run.
    checkpoint_every:
        Convenience override for ``resilience.checkpoint_every``.
    batch_matching:
        Execute emission rounds through the batched kernel when the matcher
        supports it (the default).  ``False`` forces the scalar path; both
        are bit-identical for matchers that declare ``supports_batch``.
    workers:
        Shard the batched kernel's similarity scoring across this many
        worker processes (Tier A of :mod:`repro.parallel`).  ``1`` — the
        default — never touches multiprocessing; higher values create a
        :class:`~repro.parallel.pool.WorkerPool` lazily on the first
        shardable round, and degrade silently (``parallel.fallbacks``
        counter) to in-process scoring when a pool cannot start or breaks
        mid-run.  Results are bit-identical for every worker count.
    pool:
        An externally owned :class:`~repro.parallel.pool.WorkerPool` to use
        instead of creating one (e.g. shared across runs by
        :class:`repro.api.ERSession`).  The engine resets its profile
        caches at the start of every run but never closes it.
    supervision:
        Fleet-supervision knobs (reply deadline, handshake deadline,
        respawn budget/backoff) applied to any pool *this engine* creates;
        externally supplied pools carry their own configuration.  ``None``
        means environment-resolved defaults
        (:class:`~repro.parallel.supervision.SupervisionConfig`).
    worker_faults:
        Seeded process-level chaos
        (:class:`~repro.resilience.faults.WorkerFaultSpec`) for any pool
        this engine creates — kills, hangs, corrupt replies on the
        workers.  Supervision absorbs them; results stay bit-identical.
    min_shard:
        Smallest emission batch worth sharding, applied to any pool this
        engine creates (``None``: the pool default).  A threshold only —
        results are bit-identical either way.
    """

    _KIND = "abstract"
    #: Whether this policy runs ingestion on its own concurrent clock.
    _TRACKS_INGEST_CLOCK = False

    def __init__(
        self,
        matcher: Matcher,
        budget: float,
        match_cost_prior: float = 1e-4,
        sample_every: int = 64,
        resilience: ResilienceConfig | None = None,
        checkpoint_every: float | None = None,
        batch_matching: bool = True,
        workers: int = 1,
        pool: "object | None" = None,
        supervision: "object | None" = None,
        worker_faults: "object | None" = None,
        min_shard: "int | None" = None,
    ) -> None:
        if budget <= 0:
            raise ValueError("budget must be positive")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if min_shard is not None and min_shard < 1:
            raise ValueError("min_shard must be >= 1 (or None)")
        self.matcher = matcher
        self.budget = budget
        self.match_cost_prior = match_cost_prior
        self.sample_every = sample_every
        resilience = resilience or DEFAULT_RESILIENCE
        if checkpoint_every is not None:
            resilience = replace(resilience, checkpoint_every=checkpoint_every)
        self.resilience = resilience
        self.batch_matching = batch_matching
        self.workers = workers
        self.supervision = supervision
        self.worker_faults = worker_faults
        self.min_shard = min_shard
        self._pool = pool
        self._pool_owned = False
        self._pool_attempted = False
        #: Latest checkpoint of the most recent run (``None`` before any).
        self.last_checkpoint: EngineCheckpoint | None = None

    # ------------------------------------------------------------------
    # The run template
    # ------------------------------------------------------------------
    def run(
        self,
        system: ERSystem,
        plan: StreamPlan,
        ground_truth: GroundTruth,
        resume_from: EngineCheckpoint | None = None,
    ) -> RunResult:
        """Simulate ``system`` over ``plan`` and return its progress curve.

        With ``resume_from``, the core restores every component from the
        checkpoint and continues the run from its consistent cut; the
        completed run is then bit-identical (curve, duplicates, counters)
        to one that was never interrupted.

        Implemented as the degenerate push-mode schedule (feed the whole
        plan, drain once to the budget) over :class:`PushRun` — push mode
        is therefore semantics-neutral by construction: every classic run
        exercises it.
        """
        push = self.open_push(system, ground_truth, resume_from=resume_from)
        push.feed_plan(plan)
        push.drain(self.budget)
        return push.results()

    def open_push(
        self,
        system: ERSystem,
        ground_truth: GroundTruth,
        resume_from: EngineCheckpoint | None = None,
        adopt_checkpoint_budget: bool = False,
    ) -> "PushRun":
        """Open a push-mode run: feed increments, drain to horizons.

        See :class:`repro.execution.push.PushRun`.  The engine must not be
        used for another run until the push run is finalized.
        """
        from repro.execution.push import PushRun

        return PushRun(
            self,
            system,
            ground_truth,
            resume_from=resume_from,
            adopt_checkpoint_budget=adopt_checkpoint_budget,
        )

    def _drive(self, state: RunState) -> None:
        """The engine's step-ordering policy: run the loop until the budget
        expires or ``state.work_exhausted`` is set."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Setup / resume
    # ------------------------------------------------------------------
    def _setup(
        self,
        system: ERSystem,
        plan: StreamPlan,
        ground_truth: GroundTruth,
        resume_from: EngineCheckpoint | None,
    ) -> RunState:
        matcher = self.matcher
        matcher.reset_stats()
        metrics = MetricsRegistry()
        system.bind_metrics(metrics)
        matcher.bind_metrics(metrics)
        if self._pool is not None:
            # Profile ids are only unique within a dataset: worker caches
            # must never survive into a new run.  Claiming the pool also
            # lets interleaved runs (multi-tenant push sessions sharing one
            # fleet) detect each other and re-reset on every owner switch.
            self._pool.begin_run(owner=self)

        state = RunState()
        state.system = system
        state.matcher = matcher
        state.metrics = metrics
        state.recorder = ProgressRecorder(ground_truth, sample_every=self.sample_every)
        state.estimator = RateEstimator()
        state.store = system.comparison_store
        state.duplicates = set()
        state.seen_increments = set()
        state.plan = plan
        state.arrival_times = plan.arrival_times
        state.increments = plan.increments
        state.n_arrivals = len(plan)
        state.plan_fingerprint = plan_token(plan)
        state.next_arrival = 0
        state.clock = state.arrival_times[0] if state.n_arrivals else 0.0
        state.ingest_clock = state.clock if self._TRACKS_INGEST_CLOCK else None
        state.consumed_at = None if state.n_arrivals else 0.0
        state.work_exhausted = False
        state.rounds = 0
        state.ingested = 0
        state.shed = 0
        state.duplicates_dropped = 0
        state.parallel_rounds = 0
        state.parallel_pairs = 0
        state.parallel_fallbacks = 0
        pool = self._pool
        state.scatter_wall_start = pool.scatter_wall_s if pool is not None else 0.0
        state.shm_segments_start = pool.shm_segments_published if pool is not None else 0
        state.shm_bytes_start = pool.shm_bytes_published if pool is not None else 0
        state.evictions_start = pool.evictions if pool is not None else 0
        state.respawns_start = pool.respawns if pool is not None else 0
        state.reassigned_start = pool.reassigned_chunks if pool is not None else 0
        state.reply_timeouts_start = pool.reply_timeouts if pool is not None else 0

        if resume_from is None:
            state.store.begin_run()
        else:
            self._check_resumable(resume_from, state.plan_fingerprint)
            metrics.load_state(resume_from.metrics_state)
            system.restore(resume_from.system_state)
            matcher.restore_state(resume_from.matcher_state)
            state.recorder.restore_state(resume_from.recorder_state)
            state.estimator.restore_state(resume_from.estimator_state)
            # The system restore may have replaced its store wholesale
            # (default ``__dict__`` walk); rebind and then apply the
            # checkpoint's authoritative quarantine cut.
            state.store = system.comparison_store
            state.store.quarantined = set(resume_from.quarantined)
            state.duplicates = set(resume_from.duplicates)
            state.seen_increments = set(resume_from.seen_increments)
            state.next_arrival = resume_from.next_arrival
            state.clock = resume_from.clock
            if self._TRACKS_INGEST_CLOCK:
                state.ingest_clock = resume_from.ingest_clock
            state.consumed_at = resume_from.consumed_at
            state.rounds = resume_from.rounds
            state.ingested = resume_from.ingested
            state.shed = resume_from.shed
            state.duplicates_dropped = resume_from.duplicates_dropped
            self.last_checkpoint = resume_from
        for name in PRESEEDED_COUNTERS:
            metrics.count(name, 0)
        for name in PRESEEDED_PHASES:
            metrics.phase(name)
        state.last_checkpoint_clock = state.clock
        return state

    def _check_resumable(self, checkpoint: EngineCheckpoint, plan_fingerprint: int) -> None:
        """Refuse resumes that would silently corrupt the run."""
        if checkpoint.engine != self._KIND:
            raise ValueError(
                f"checkpoint was taken by a {checkpoint.engine!r} engine, "
                f"cannot resume on {self._KIND!r}"
            )
        if checkpoint.budget != self.budget:
            raise ValueError(
                f"checkpoint budget {checkpoint.budget} does not match "
                f"engine budget {self.budget}"
            )
        if checkpoint.plan_fingerprint != plan_fingerprint:
            raise ValueError("checkpoint was taken against a different stream plan")

    # ------------------------------------------------------------------
    # Phase 0: resilience bookkeeping at the loop-top cut
    # ------------------------------------------------------------------
    def _loop_top(self, state: RunState) -> None:
        """Checkpoint cadence, crash injection, load shedding."""
        resilience = self.resilience
        if (
            resilience.checkpoint_every is not None
            and state.clock - state.last_checkpoint_clock >= resilience.checkpoint_every
        ):
            state.metrics.count("engine.checkpoints_taken")
            self.last_checkpoint = self._take_checkpoint(state)
            state.last_checkpoint_clock = state.clock
        if resilience.crash_at is not None and state.clock >= resilience.crash_at:
            raise SimulatedCrash(self.last_checkpoint, state.clock)
        if resilience.shed_watermark is not None:
            due = bisect.bisect_right(state.arrival_times, state.clock, state.next_arrival)
            excess = (due - state.next_arrival) - resilience.shed_watermark
            while excess > 0:
                # Overload: drop the oldest due increments outright.  A
                # later redelivery of the same id may still be ingested.
                state.metrics.count("engine.shed_increments")
                state.shed += 1
                state.next_arrival += 1
                excess -= 1
                if state.next_arrival == state.n_arrivals:
                    state.consumed_at = state.clock

    def _take_checkpoint(self, state: RunState) -> EngineCheckpoint:
        return EngineCheckpoint(
            engine=self._KIND,
            budget=self.budget,
            plan_fingerprint=state.plan_fingerprint,
            clock=state.clock,
            ingest_clock=state.ingest_clock,
            next_arrival=state.next_arrival,
            consumed_at=state.consumed_at,
            rounds=state.rounds,
            ingested=state.ingested,
            shed=state.shed,
            duplicates_dropped=state.duplicates_dropped,
            seen_increments=frozenset(state.seen_increments),
            duplicates=frozenset(state.duplicates),
            quarantined=frozenset(state.store.quarantined),
            system_state=state.system.snapshot(),
            matcher_state=state.matcher.snapshot_state(),
            recorder_state=state.recorder.snapshot_state(),
            estimator_state=state.estimator.snapshot_state(),
            metrics_state=state.metrics.dump_state(),
        )

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def _drop_redelivered(self, state: RunState, now: float) -> None:
        """Exactly-once delivery: skip a redelivered increment."""
        state.metrics.count("engine.duplicate_increments_dropped")
        state.duplicates_dropped += 1
        state.next_arrival += 1
        if state.next_arrival == state.n_arrivals:
            state.consumed_at = now

    def _ingest_one(self, state: RunState, timer: PhaseTimer, forced: bool = False) -> None:
        """Consume the next arrival (callers handle redelivery dedup)."""
        arrival = state.arrival_times[state.next_arrival]
        increment = state.increments[state.next_arrival]
        state.seen_increments.add(increment.index)
        state.estimator.record(arrival)
        cost = state.system.ingest(increment)
        now = self._advance_ingest(state, arrival, cost)
        timer.virtual += cost
        state.metrics.count("engine.increments_ingested")
        if forced:
            state.metrics.count("engine.forced_ingests")
        state.ingested += 1
        state.next_arrival += 1
        if state.next_arrival == state.n_arrivals:
            state.consumed_at = now

    def _advance_ingest(self, state: RunState, arrival: float, cost: float) -> float:
        """Charge one ingestion to the policy's clock; return its finish time."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Comparison execution: scalar path and batched kernel
    # ------------------------------------------------------------------
    def _execute_emission(
        self,
        state: RunState,
        batch: tuple[tuple[int, int], ...],
        match_timer: PhaseTimer,
    ) -> bool:
        """Execute one emission batch under deadline/retry/quarantine rules.

        Routes to the batched kernel when both the engine and the matcher
        allow it, else to the scalar path.  Returns ``deadline_cut``; the
        match clock never exceeds the budget on return.
        """
        if self.batch_matching and state.matcher.supports_batch:
            clock, deadline_cut = self._execute_batch_kernel(state, batch, match_timer)
        else:
            clock, deadline_cut = self._execute_batch_scalar(state, batch, match_timer)
        state.clock = clock
        return deadline_cut

    def _execute_batch_scalar(
        self,
        state: RunState,
        batch: tuple[tuple[int, int], ...],
        match_timer: PhaseTimer,
    ) -> tuple[float, bool]:
        """Pair-at-a-time execution with the full retry machinery.

        This is the reference semantics the batched kernel must match; it is
        also the only path able to handle impure matchers (transient faults,
        latency spikes whose actual cost overshoots the estimate).
        """
        system = state.system
        matcher = state.matcher
        metrics = state.metrics
        recorder = state.recorder
        store = state.store
        budget = self.budget
        clock = state.clock
        retry = self.resilience.retry
        ceiling = self.resilience.cost_ceiling
        deadline_cut = False
        for position, (pid_x, pid_y) in enumerate(batch):
            profile_x = system.profile(pid_x)
            profile_y = system.profile(pid_y)
            cost = matcher.estimate_cost(profile_x, profile_y)
            if ceiling is not None and cost > ceiling:
                # Pathological pair: estimated cost alone busts the ceiling.
                # Quarantine (count, never execute) instead of starving the run.
                store.quarantine((min(pid_x, pid_y), max(pid_x, pid_y)))
                metrics.count("engine.quarantined_pairs")
                continue
            if clock + cost > budget:
                # The comparison cannot finish by the deadline: charge the
                # cut-off time, credit nothing.
                metrics.count("engine.comparisons_cut_by_deadline", len(batch) - position)
                match_timer.virtual += budget - clock
                clock = budget
                deadline_cut = True
                break
            result = None
            for attempt in range(1, retry.max_attempts + 1):
                try:
                    result = matcher.evaluate(profile_x, profile_y)
                    break
                except TransientMatcherError as fault:
                    wasted = min(max(fault.cost, 0.0), budget - clock)
                    clock += wasted
                    match_timer.virtual += wasted
                    metrics.count("engine.matcher_faults")
                    if clock >= budget:
                        metrics.count(
                            "engine.comparisons_cut_by_deadline", len(batch) - position
                        )
                        deadline_cut = True
                        break
                    if attempt == retry.max_attempts:
                        store.quarantine((min(pid_x, pid_y), max(pid_x, pid_y)))
                        metrics.count("engine.quarantined_pairs")
                        break
                    backoff = min(retry.backoff(attempt), budget - clock)
                    clock += backoff
                    match_timer.virtual += backoff
                    metrics.count("engine.retries")
                    metrics.count("engine.retry_backoff_s", backoff)
                    if clock >= budget:
                        metrics.count(
                            "engine.comparisons_cut_by_deadline", len(batch) - position
                        )
                        deadline_cut = True
                        break
            if deadline_cut:
                break
            if result is None:
                continue  # quarantined after exhausting its retry attempts
            clock += result.cost
            match_timer.virtual += result.cost
            if clock > budget:
                # The actual cost overshot the estimate (latency spike): the
                # comparison did not finish by the deadline, so it is not
                # credited and the overshoot is not charged.
                match_timer.virtual -= clock - budget
                clock = budget
                metrics.count("engine.comparisons_cut_by_deadline", len(batch) - position)
                deadline_cut = True
                break
            metrics.count("engine.comparisons_executed")
            if recorder.record(pid_x, pid_y, clock):
                metrics.count("engine.matches_recorded")
            if result.is_match:
                state.duplicates.add((min(pid_x, pid_y), max(pid_x, pid_y)))
            if clock >= budget:
                break
        return clock, deadline_cut

    def _execute_batch_kernel(
        self,
        state: RunState,
        batch: tuple[tuple[int, int], ...],
        match_timer: PhaseTimer,
    ) -> tuple[float, bool]:
        """Batched execution: plan the deadline cut from estimates, evaluate
        the surviving prefix in one ``evaluate_batch`` call.

        Bit-identical to :meth:`_execute_batch_scalar` for matchers with
        ``supports_batch``: their evaluation cost equals the estimate
        exactly (both are ``cost_model.charge(work_units)``), evaluation
        never raises, and the clock accumulates the same floats in the same
        order — so the scalar path's retry/overshoot branches are provably
        dead and the cut position is decidable up front.
        """
        system = state.system
        matcher = state.matcher
        metrics = state.metrics
        ceiling = self.resilience.cost_ceiling
        budget = self.budget
        clock = state.clock
        deadline_cut = False
        profiles = [(system.profile(pid_x), system.profile(pid_y)) for pid_x, pid_y in batch]
        costs = matcher.estimate_cost_batch(profiles)
        selected: list[int] = []
        post_clocks: list[float] = []
        for position, cost in enumerate(costs):
            if ceiling is not None and cost > ceiling:
                pid_x, pid_y = batch[position]
                state.store.quarantine((min(pid_x, pid_y), max(pid_x, pid_y)))
                metrics.count("engine.quarantined_pairs")
                continue
            if clock + cost > budget:
                metrics.count("engine.comparisons_cut_by_deadline", len(batch) - position)
                match_timer.virtual += budget - clock
                clock = budget
                deadline_cut = True
                break
            clock += cost
            match_timer.virtual += cost
            selected.append(position)
            post_clocks.append(clock)
            if clock >= budget:
                break
        if selected:
            selected_profiles = [profiles[position] for position in selected]
            precomputed = self._pool_scores(state, selected_profiles)
            results = matcher.evaluate_batch(selected_profiles, precomputed=precomputed)
            recorder = state.recorder
            duplicates = state.duplicates
            recorded = 0
            for offset, result in enumerate(results):
                pid_x, pid_y = batch[selected[offset]]
                if recorder.record(pid_x, pid_y, post_clocks[offset]):
                    recorded += 1
                if result.is_match:
                    duplicates.add((min(pid_x, pid_y), max(pid_x, pid_y)))
            metrics.count_hits({"engine.comparisons_executed": len(results),
                                "engine.matches_recorded": recorded})
        return clock, deadline_cut

    # ------------------------------------------------------------------
    # Tier A sharding (see repro.parallel): workers score, master accounts
    # ------------------------------------------------------------------
    def _pool_scores(
        self,
        state: RunState,
        pairs: list,
    ) -> tuple[list[float], list[float]] | None:
        """Shard a round's ``_batch_scores`` across the worker pool.

        Returns the merged ``(similarities, costs)`` lists — bit-identical
        to an in-process call, see :mod:`repro.parallel.pool` — or ``None``
        whenever the round should score in-process instead: single-worker
        configuration, batch below the sharding threshold, pool unavailable
        or broken.  The distinction is pure telemetry; results never differ.

        Telemetry accumulates on ``state`` and only reaches the metrics
        registry in :meth:`_finalize`: mid-run checkpoints must capture a
        ``metrics_state`` that is bit-identical across worker counts.
        """
        pool = self._pool
        if pool is None:
            if self.workers <= 1 or self._pool_attempted:
                return None
            self._pool_attempted = True
            from repro.parallel.pool import DEFAULT_MIN_SHARD, WorkerPool

            pool = WorkerPool.create(
                self.workers,
                self.matcher,
                min_shard=(
                    self.min_shard if self.min_shard is not None else DEFAULT_MIN_SHARD
                ),
                supervision=self.supervision,
                worker_faults=self.worker_faults,
            )
            if pool is None:
                state.parallel_fallbacks += 1
                return None
            self._pool = pool
            self._pool_owned = True
        if not pool.healthy or len(pairs) < pool.min_shard:
            return None
        from repro.parallel.pool import WorkerPoolError

        if pool.owner is not self:
            # Another engine scored through this pool since our last round
            # (interleaved tenants sharing one fleet): worker caches hold
            # that run's profiles under possibly colliding pids, so reset
            # before scoring.  Single-run engines never hit this branch.
            pool.begin_run(owner=self)
        try:
            scores = pool.batch_scores(pairs)
        except WorkerPoolError:
            # No worker was alive this round (or the pool is terminally
            # broken): score in-process, bit-identically.  A non-broken
            # pool is consulted again next round — respawn may have healed
            # the fleet by then.
            state.parallel_fallbacks += 1
            return None
        state.parallel_rounds += 1
        state.parallel_pairs += len(pairs)
        # Fold the workers' staged-kernel outcome counts into the master
        # matcher: ``matcher.kernel.*`` telemetry (and checkpointed matcher
        # state) stays bit-identical to a serial run.
        kernel_counts = state.matcher.kernel_counts
        for name, value in pool.last_kernel_counts.items():
            kernel_counts[name] = kernel_counts.get(name, 0) + value
        return scores

    def close_pool(self) -> None:
        """Shut down an engine-owned worker pool (no-op otherwise).

        Externally supplied pools belong to their creator (typically an
        :class:`repro.api.ERSession`) and are left running.
        """
        if self._pool is not None and self._pool_owned:
            self._pool.close()
        if self._pool_owned:
            self._pool = None
            self._pool_owned = False
        self._pool_attempted = False

    # ------------------------------------------------------------------
    # Shared probes and reporting
    # ------------------------------------------------------------------
    def _backlog(self, state: RunState) -> int:
        """Increments arrived by the (match) clock but not yet ingested."""
        due = bisect.bisect_right(state.arrival_times, state.clock, state.next_arrival)
        return due - state.next_arrival

    def _pipeline_stats(self, state: RunState) -> PipelineStats:
        mean_cost = self.matcher.mean_cost or self.match_cost_prior
        return PipelineStats(
            now=state.clock,
            input_rate=state.estimator.rate_at(state.clock),
            mean_match_cost=mean_cost,
            backlog=self._backlog(state),
            remaining_budget=self.budget - state.clock,
        )

    def _record_round(
        self, state: RunState, stats: PipelineStats, emitted: int, executed: int
    ) -> None:
        # Most rounds fall between the log's stride; build only kept samples.
        state.metrics.record_round(
            lambda: dict(
                round=state.rounds,
                clock=state.clock,
                backlog=stats.backlog,
                input_rate=stats.input_rate,
                emitted=emitted,
                executed=executed,
                **state.system.gauges(),
            )
        )

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------
    def _ingest_clock_end(self, state: RunState, final_clock: float) -> float:
        """The reported end of the ingest stage.  Single-clock policies share
        one clock across stages, so it coincides with ``final_clock``."""
        return final_clock

    def _finalize(self, state: RunState) -> RunResult:
        final_clock = min(state.clock, self.budget) if not state.work_exhausted else state.clock
        state.recorder.mark(final_clock)
        metrics = state.metrics
        metrics.gauge("engine.clock_end", final_clock)
        metrics.gauge("engine.budget", self.budget)
        metrics.gauge("engine.ingest_clock_end", self._ingest_clock_end(state, final_clock))
        # Tier A telemetry lands here, after the last possible checkpoint,
        # so checkpointed metrics_state never varies with worker count.
        metrics.count("parallel.rounds_sharded", state.parallel_rounds)
        metrics.count("parallel.pairs_sharded", state.parallel_pairs)
        metrics.count("parallel.fallbacks", state.parallel_fallbacks)
        # Staged-kernel outcome counts accumulate as plain ints on the
        # matcher (worker-side counts are merged back per round), so this
        # flush is also bit-identical across worker counts.
        for name, value in state.matcher.kernel_telemetry().items():
            metrics.count(f"matcher.kernel.{name}", value)
        pool = self._pool
        if pool is not None:
            scatter_wall = pool.scatter_wall_s - state.scatter_wall_start
            if scatter_wall > 0.0:
                metrics.phase("scatter").add(0.0, scatter_wall)
            metrics.count(
                "parallel.shm_segments",
                pool.shm_segments_published - state.shm_segments_start,
            )
            metrics.count(
                "parallel.shm_bytes", pool.shm_bytes_published - state.shm_bytes_start
            )
            metrics.count(
                "parallel.supervision.evictions", pool.evictions - state.evictions_start
            )
            metrics.count(
                "parallel.supervision.respawns", pool.respawns - state.respawns_start
            )
            metrics.count(
                "parallel.supervision.reassigned_chunks",
                pool.reassigned_chunks - state.reassigned_start,
            )
            metrics.count(
                "parallel.supervision.reply_timeouts",
                pool.reply_timeouts - state.reply_timeouts_start,
            )
            # Pool-lifetime fact, not a per-run delta: how much crash
            # debris from dead masters the pool reaped when it started.
            metrics.count(
                "parallel.supervision.stale_segments_swept",
                pool.stale_segments_swept,
            )
        # Effective fleet size, not the requested one: a failed pool reports 1.
        metrics.gauge(
            "parallel.workers", float(pool.size) if pool is not None and pool.healthy else 1.0
        )
        details = dict(state.system.describe())
        details["resilience"] = {
            "retries": metrics.counter("engine.retries"),
            "quarantined_pairs": tuple(sorted(state.store.quarantined)),
            "shed_increments": state.shed,
            "duplicate_increments_dropped": state.duplicates_dropped,
            "checkpoints_taken": metrics.counter("engine.checkpoints_taken"),
        }
        details["metrics"] = metrics.snapshot()
        return RunResult(
            system_name=state.system.name,
            matcher_name=state.matcher.name,
            curve=state.recorder.curve(),
            duplicates=frozenset(state.duplicates),
            comparisons_executed=state.recorder.comparisons_executed,
            clock_end=final_clock,
            budget=self.budget,
            stream_consumed_at=state.consumed_at,
            work_exhausted=state.work_exhausted,
            increments_ingested=state.ingested,
            match_events=state.recorder.match_events(),
            details=details,
        )
