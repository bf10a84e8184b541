"""Shared machinery for the batch progressive ER baselines.

PPS and PBS (Simonini et al., TKDE 2019) are *batch* algorithms: they run an
initialization phase over the full dataset (blocking + building of the
prioritization structures) and then an emission phase.  To compare them
against PIER under one simulation loop, they are packaged as
:class:`ERSystem` objects with *lazy* initialization:

* ``ingest`` indexes the increment's profiles and marks the prioritization
  state dirty;
* the next ``emit`` first (re)runs initialization — charging its full
  virtual cost, which produces the flat start of the PC curve — and only
  then emits comparison batches.

The same classes double as the paper's naive incremental adaptations:

* ``scope="all"`` re-initializes over *all* data seen so far on every
  increment (PPS-GLOBAL / PBS-GLOBAL) — correct but increasingly expensive;
* ``scope="last"`` resets state and considers only the newest increment
  (PPS-LOCAL) — cheap but blind to inter-increment matches.

When the estimated cost of a pending (re)initialization already exceeds the
remaining virtual budget, the system burns the remaining budget without
performing the (useless) work — behaviorally identical and keeps wall-clock
time bounded in the collapse regimes of Figures 2 and 7.
"""

from __future__ import annotations

from repro.blocking.substrate import BlockingConfig, make_collection
from repro.core.increments import Increment
from repro.core.profile import EntityProfile
from repro.execution.store import ComparisonStore
from repro.streaming.system import EmitResult, ERSystem, PipelineCosts, PipelineStats

__all__ = ["BatchProgressiveSystem"]


class BatchProgressiveSystem(ERSystem):
    """Base class of PPS / PBS and their GLOBAL / LOCAL stream adaptations.

    Subclasses implement :meth:`_initialize` (build the prioritization
    state, return its virtual cost) and :meth:`_next_pairs` (produce up to
    ``n`` prioritized pairs, return them with their cost).
    """

    def __init__(
        self,
        clean_clean: bool = False,
        max_block_size: int | None = 200,
        costs: PipelineCosts | None = None,
        scope: str = "all",
        chunk_size: int = 64,
        blocking: BlockingConfig | None = None,
    ) -> None:
        if scope not in ("all", "last"):
            raise ValueError("scope must be 'all' or 'last'")
        self.costs = costs or PipelineCosts()
        self.clean_clean = clean_clean
        self.max_block_size = max_block_size
        self.scope = scope
        self.chunk_size = chunk_size
        self.blocking = blocking
        self.collection = make_collection(
            blocking, clean_clean=clean_clean, max_block_size=max_block_size
        )
        self._profiles: dict[int, EntityProfile] = {}
        self._dirty = False
        self.store = ComparisonStore()
        self._pending_init_cost = 0.0
        self.initializations = 0

    # ------------------------------------------------------------------
    # ERSystem interface
    # ------------------------------------------------------------------
    def ingest(self, increment: Increment) -> float:
        if increment.is_empty:
            return self.costs.per_round
        if self.scope == "last":
            self.collection = make_collection(
                self.blocking,
                clean_clean=self.clean_clean,
                max_block_size=self.max_block_size,
            )
            self._profiles.clear()
        cost = 0.0
        for profile in increment:
            self.collection.add_profile(profile)
            self._profiles[profile.pid] = profile
            cost += self.costs.per_profile + self.costs.per_token * len(profile.tokens())
        self._flush_blocking_metrics(self.collection)
        self._dirty = True
        # The batch algorithms reassess their prioritization for *every* new
        # increment (the paper's central criticism of the naive GLOBAL
        # adaptations).  Each increment therefore owes one full
        # (re)initialization at the current data size; the owed cost
        # accumulates and is charged when emission next runs.  Only the last
        # rebuild's structure is kept (intermediate ones are obsolete by
        # construction), so wall-clock work stays at one real build.
        self._pending_init_cost += self._estimate_init_cost()
        return cost

    def emit(self, stats: PipelineStats) -> EmitResult:
        result = self._emit(stats)
        # Initialization/emission consult the substrate (the LSH prefilter
        # prunes inside valid_pair), so drain its telemetry every round.
        self._flush_blocking_metrics(self.collection)
        return result

    def _emit(self, stats: PipelineStats) -> EmitResult:
        if self._dirty:
            owed = max(self._pending_init_cost, self._estimate_init_cost())
            remaining = stats.remaining_budget
            if remaining is not None and owed > remaining:
                # (Re)initialization cannot finish within the budget: charge
                # the rest of the budget and skip the pointless work.
                self.metrics.count("batch.initializations_over_budget")
                return EmitResult(batch=(), cost=owed)
            cost = max(self._initialize(), owed)
            self._pending_init_cost = 0.0
            self._dirty = False
            self.initializations += 1
            self.metrics.count("batch.initializations")
            self.metrics.count("batch.initialization_cost_s", cost)
            return EmitResult(batch=(), cost=cost)
        pairs, cost = self._next_pairs(self.chunk_size)
        store = self.store
        fresh: list[tuple[int, int]] = []
        for pair in pairs:
            if store.mark_executed(pair):
                fresh.append(pair)
        store.record_emission(len(fresh), len(pairs) - len(fresh))
        return EmitResult(batch=tuple(fresh), cost=cost + self.costs.per_round)

    def profile(self, pid: int) -> EntityProfile:
        return self._profiles[pid]

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def _initialize(self) -> float:
        raise NotImplementedError

    def _next_pairs(self, n: int) -> tuple[list[tuple[int, int]], float]:
        raise NotImplementedError

    def _estimate_init_cost(self) -> float:
        """Cheap upper-bound estimate of the pending initialization cost."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def valid_pair(self, pid_x: int, pid_y: int) -> bool:
        if pid_x == pid_y:
            return False
        collection = self.collection
        if collection.prunes_candidates and not collection.allows_pair(pid_x, pid_y):
            return False
        if not self.clean_clean:
            return True
        return self._profiles[pid_x].source != self._profiles[pid_y].source

    def gauges(self) -> dict[str, float]:
        return {
            "initializations": self.initializations,
            "profiles_indexed": len(self._profiles),
        }

    def describe(self) -> dict[str, object]:
        return {
            "name": self.name,
            "scope": self.scope,
            "profiles": len(self._profiles),
            "initializations": self.initializations,
        }
