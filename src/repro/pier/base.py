"""The PIER framework: Algorithm 1 plus shared strategy scaffolding.

:class:`PierSystem` implements Algorithm 1 of the paper once; the three
prioritization strategies (I-PCS, I-PBS, I-PES) plug in through the
:class:`IncrPrioritization` interface, exactly mirroring the paper's
``Strategy: IncrPrioritization`` parameter.

This module also hosts the two generation utilities shared across
strategies and the incremental baseline:

* :class:`ComparisonGenerator` — Algorithm 2 lines 1-9: for each new
  profile, gather candidates from its (block-ghosted) blocks and clean them
  with I-WNP, producing a weighted comparison list.
* :class:`GetComparisons` — the fallback of Algorithm 2 lines 10-11: when
  both the increment and the comparison index are empty, pull comparisons
  from the block collection, smallest block first, so useful work continues
  while waiting for the next increment.
"""

from __future__ import annotations

import copy
import heapq
from typing import Callable, Iterable

from repro.blocking.cleaning import block_ghosting
from repro.blocking.substrate import BlockingConfig, BlockingSubstrate
from repro.blocking.token_blocking import BlockingCosts, IncrementalTokenBlocking
from repro.core.comparison import WeightedComparison
from repro.core.increments import Increment
from repro.core.profile import EntityProfile
from repro.execution.store import ComparisonStore
from repro.metablocking.sweep import pair_weights, partner_weights
from repro.metablocking.weights import CommonBlocksScheme, WeightingScheme
from repro.metablocking.wnp import incremental_wnp, sweep_wnp
from repro.priority.rates import AdaptiveK
from repro.streaming.system import EmitResult, ERSystem, PipelineCosts, PipelineStats

__all__ = ["ComparisonGenerator", "GetComparisons", "IncrPrioritization", "PierSystem"]


def _always_valid(pid: int) -> bool:
    return True


#: Marks a partner predicate as constant-true so the sweep kernel can skip
#: one Python call per candidate (see ``ComparisonGenerator.generate``).
_always_valid.always_true = True  # type: ignore[attr-defined]


class ComparisonGenerator:
    """Candidate generation for one newly arrived profile (Alg. 2, l. 1-9).

    Applies block ghosting with parameter β to the profile's block list,
    collects co-block partners that form valid comparisons, and cleans the
    candidate list with I-WNP.  Returns the surviving weighted comparisons
    together with the number of weighting operations performed (for cost
    accounting).

    By default candidates and weights come from the single-sweep kernel
    (:func:`~repro.metablocking.wnp.sweep_wnp`); ``per_pair=True`` selects
    the legacy one-``scheme.weight()``-call-per-candidate path, which is
    bit-identical and exists for bisection (``--per-pair-weighting``).
    """

    __slots__ = ("beta", "scheme", "per_pair")

    def __init__(
        self,
        beta: float = 0.2,
        scheme: WeightingScheme | None = None,
        per_pair: bool = False,
    ) -> None:
        self.beta = beta
        self.scheme = scheme or CommonBlocksScheme()
        self.per_pair = per_pair

    def generate(
        self,
        collection: BlockingSubstrate,
        profile: EntityProfile,
        valid_partner: Callable[[int], bool],
    ) -> tuple[tuple[WeightedComparison, ...], int]:
        if not self.per_pair:
            # Drop the per-candidate filter when the predicate declares
            # itself redundant: a constant-true predicate filters nothing,
            # and a cross-source-only predicate is already guaranteed by the
            # sweep reading only other-source member lists (source hint).
            predicate: Callable[[int], bool] | None = valid_partner
            if getattr(predicate, "always_true", False) or (
                collection.clean_clean
                and getattr(predicate, "cross_source_only", False)
            ):
                predicate = None
            result = sweep_wnp(
                collection,
                profile.pid,
                predicate,
                self.scheme,
                beta=self.beta,
                source=profile.source if collection.clean_clean else None,
            )
            return result.kept, result.weighting_cost_units
        blocks = block_ghosting(list(collection.blocks_of_as_blocks(profile.pid)), self.beta)
        candidates: list[int] = []
        for block in blocks:
            if collection.clean_clean:
                partners = block.members(1 - profile.source)
            else:
                partners = tuple(block)
            for pid in partners:
                if pid != profile.pid and valid_partner(pid):
                    candidates.append(pid)
        result = incremental_wnp(collection, profile.pid, candidates, self.scheme)
        return result.kept, result.weighting_cost_units


class GetComparisons:
    """Smallest-block-first comparison refill (Alg. 2, l. 10-11).

    Each :meth:`next_batch` call drains one eligible block (smallest first,
    by current size) and returns its valid, weighted comparisons.  A block
    is eligible if it has never been drained or has *grown* since its last
    drain — refills may fire in idle gaps mid-stream, so blocks that gain
    members afterwards must be revisited once the stream goes quiet.
    Pairs in the caller's executed set are filtered out, so revisits only
    pay for the genuinely new comparisons.

    Weights come from :func:`~repro.metablocking.sweep.partner_weights`,
    one call per distinct left profile of the drained block (via
    :func:`~repro.metablocking.sweep.pair_weights`).
    """

    __slots__ = ("scheme", "_drained_size", "_heap")

    def __init__(self, scheme: WeightingScheme | None = None) -> None:
        self.scheme = scheme or CommonBlocksScheme()
        self._drained_size: dict[str, int] = {}
        # Cached min-heap of (size, key) over eligible blocks; rebuilt by a
        # full scan only when it runs dry, revalidated lazily on pop.
        self._heap: list[tuple[int, str]] = []

    def _eligible(self, block) -> bool:
        # Only blocks of size >= 2 are ever drained, so the default of 1
        # also rules out singletons.
        return len(block) > self._drained_size.get(block.key, 1)

    def _pop_smallest(self, collection: BlockingSubstrate):
        """Smallest eligible block, or ``None``; amortizes scans via a heap."""
        for attempt in range(2):
            while self._heap:
                size, key = heapq.heappop(self._heap)
                block = collection.get(key)
                if block is None or not self._eligible(block):
                    continue
                if len(block) != size:
                    heapq.heappush(self._heap, (len(block), key))
                    continue
                return block
            if attempt == 0:
                self._heap = [
                    (len(block), block.key) for block in collection if self._eligible(block)
                ]
                heapq.heapify(self._heap)
        return None

    def next_batch(
        self,
        collection: BlockingSubstrate,
        executed: set[tuple[int, int]],
    ) -> tuple[list[WeightedComparison], int] | None:
        """Drain the next eligible block.

        ``executed`` holds the canonical pairs that must not be offered
        again.  Returns ``None`` when no eligible block remains (exhausted),
        or a ``(weighted comparisons, weighting ops)`` tuple otherwise —
        possibly with an empty list when every pair of the block was
        executed before.
        """
        block = self._pop_smallest(collection)
        if block is None:
            return None
        self._drained_size[block.key] = len(block)
        pairs = [
            (pid_x, pid_y) if pid_x < pid_y else (pid_y, pid_x)
            for pid_x, pid_y in block.pairs(collection.clean_clean)
        ]
        if collection.prunes_candidates:
            allows = collection.allows_pair
            pairs = [pair for pair in pairs if allows(*pair)]
        # Revisits of grown blocks re-list every pair, most already executed.
        pairs = [pair for pair in pairs if pair not in executed]
        weights = pair_weights(collection, pairs, self.scheme, partner_weights)
        weighted = [
            WeightedComparison(left, right, weight)
            for (left, right), weight in zip(pairs, weights)
        ]
        return weighted, len(pairs)

    def is_exhausted(self, collection: BlockingSubstrate) -> bool:
        return not any(self._eligible(block) for block in collection)

    def reset(self) -> None:
        self._drained_size.clear()
        self._heap.clear()

    # -- checkpoint support ---------------------------------------------
    def snapshot_state(self) -> dict[str, object]:
        return {"drained": dict(self._drained_size), "heap": list(self._heap)}

    def restore_state(self, state: dict[str, object]) -> None:
        self._drained_size = dict(state["drained"])
        self._heap = list(state["heap"])


class IncrPrioritization:
    """Strategy interface of Algorithm 1 (``IncrPrioritization``).

    Implementations maintain the global comparison index ``CmpIndex``.
    All methods that perform work return their virtual cost, computed from
    the shared :class:`PipelineCosts`.
    """

    name = "incr-prioritization"

    def bind_store(self, store: ComparisonStore) -> None:
        """Attach the host system's shared :class:`ComparisonStore`.

        Called once by :class:`PierSystem` before any ingestion.  Strategies
        with their own dedup structures (the Bloom filter of I-PBS) rebind
        them onto the store here so checkpoints serialize them exactly once;
        the default is a no-op.
        """

    def ingest_profiles(
        self,
        system: "PierSystem",
        profiles: Iterable[EntityProfile],
    ) -> float:
        """``updateCmpIndex`` for a non-empty increment."""
        raise NotImplementedError

    def on_empty_increment(self, system: "PierSystem") -> float:
        """``updateCmpIndex`` with an empty increment (refill trigger)."""
        raise NotImplementedError

    def dequeue(self) -> tuple[int, int] | None:
        """Retrieve and remove the best comparison, or ``None`` if empty."""
        raise NotImplementedError

    def gauges(self) -> dict[str, float]:
        """Strategy-specific gauge readings for the per-round metrics log."""
        return {}

    def __len__(self) -> int:
        raise NotImplementedError

    def exhausted(self, system: "PierSystem") -> bool:
        """No comparisons left and no refill possible."""
        raise NotImplementedError

    # -- checkpoint support ---------------------------------------------
    def snapshot_state(self) -> dict[str, object]:
        """Deep copy of the strategy's ``CmpIndex`` state.

        The default walks ``__dict__``; strategies with custom serialization
        needs (e.g. the Bloom filter of I-PBS) override this.
        """
        return {key: copy.deepcopy(value) for key, value in self.__dict__.items()}

    def restore_state(self, state: dict[str, object]) -> None:
        self.__dict__.update(copy.deepcopy(state))


class PierSystem(ERSystem):
    """Algorithm 1: the progressive incremental ER framework.

    Wires incremental token blocking, a prioritization strategy, and the
    adaptive ``findK`` controller into one :class:`ERSystem`.

    Parameters
    ----------
    strategy:
        One of the I-PCS / I-PBS / I-PES strategies.
    clean_clean:
        ER task kind (drives candidate generation inside blocks).
    max_block_size:
        Incremental block-purging threshold.
    costs / blocking_costs:
        Virtual cost parameters.
    adaptive_k:
        The ``findK`` controller; a fresh default one if omitted.
    blocking:
        Blocking-substrate choice (token / lsh / lsh-prefilter); ``None``
        keeps the paper's token blocking.
    """

    def __init__(
        self,
        strategy: IncrPrioritization,
        clean_clean: bool = False,
        max_block_size: int | None = 200,
        costs: PipelineCosts | None = None,
        blocking_costs: BlockingCosts | None = None,
        adaptive_k: AdaptiveK | None = None,
        blocking: BlockingConfig | None = None,
    ) -> None:
        self.strategy = strategy
        self.costs = costs or PipelineCosts()
        blocking_costs = blocking_costs or BlockingCosts(
            per_profile=self.costs.per_profile, per_token=self.costs.per_token
        )
        self.blocker = IncrementalTokenBlocking(
            clean_clean=clean_clean,
            max_block_size=max_block_size,
            costs=blocking_costs,
            blocking=blocking,
        )
        self.adaptive_k = adaptive_k or AdaptiveK()
        self.store = ComparisonStore()
        strategy.bind_store(self.store)
        self.name = f"PIER[{strategy.name}]"

    # ------------------------------------------------------------------
    # ERSystem interface
    # ------------------------------------------------------------------
    def ingest(self, increment: Increment) -> float:
        cost = self.blocker.process_increment(increment)
        if increment.is_empty:
            cost += self.strategy.on_empty_increment(self)
        else:
            cost += self.strategy.ingest_profiles(self, increment.profiles)
        self._flush_blocking_metrics(self.collection)
        return cost

    def emit(self, stats: PipelineStats) -> EmitResult:
        budget = self._find_k(stats)
        store = self.store
        executed = store.executed
        dequeue = self.strategy.dequeue
        batch: list[tuple[int, int]] = []
        stale = 0
        while len(batch) < budget:
            pair = dequeue()
            if pair is None:
                break
            # Queued pairs are canonical: claim them on the executed set.
            if pair in executed:
                stale += 1
                continue
            executed.add(pair)
            batch.append(pair)
        if batch:
            self.metrics.count("pier.comparisons_emitted", len(batch))
        if stale:
            self.metrics.count("pier.dequeued_already_executed", stale)
        store.record_emission(len(batch), stale)
        cost = self.costs.per_round + self.costs.per_enqueue * len(batch)
        return EmitResult(batch=tuple(batch), cost=cost)

    def on_idle(self, stats: PipelineStats) -> float | None:
        cost = self.strategy.on_empty_increment(self)
        self._flush_blocking_metrics(self.collection)
        if len(self.strategy) == 0:
            # Even the refill produced nothing: all work is exhausted.
            return None
        return cost

    def profile(self, pid: int) -> EntityProfile:
        return self.blocker.profile(pid)

    def has_pending_comparisons(self) -> bool:
        return len(self.strategy) > 0

    def gauges(self) -> dict[str, float]:
        return {
            "k": self.adaptive_k.value,
            "queue_depth": len(self.strategy),
            **self.strategy.gauges(),
        }

    # ------------------------------------------------------------------
    # Internals shared with strategies
    # ------------------------------------------------------------------
    @property
    def collection(self) -> BlockingSubstrate:
        return self.blocker.collection

    def valid_partner(self, profile: EntityProfile) -> Callable[[int], bool]:
        """Partner predicate for candidate generation of ``profile``.

        The returned predicates carry self-describing markers
        (``always_true`` / ``cross_source_only``) that let the sweep kernel
        skip the per-candidate filter when it is provably redundant.  On a
        pruning substrate (the LSH prefilter) the co-bucket test composes
        into the predicate — *without* markers, so the sweep always applies
        it.
        """
        collection = self.collection
        if collection.prunes_candidates:
            pid_x = profile.pid
            allows = collection.allows_pair
            if not collection.clean_clean:
                return lambda pid: allows(pid_x, pid)
            source = profile.source
            blocker = self.blocker
            return lambda pid: (
                allows(pid_x, pid) and blocker.profile(pid).source != source
            )
        if not collection.clean_clean:
            return _always_valid
        source = profile.source
        blocker = self.blocker
        predicate = lambda pid: blocker.profile(pid).source != source
        predicate.cross_source_only = True  # type: ignore[attr-defined]
        return predicate

    @property
    def _executed(self) -> set[tuple[int, int]]:
        """Back-compat view of the store's executed-set (tests peek at it)."""
        return self.store.executed

    # -- checkpoint support ---------------------------------------------
    def snapshot(self) -> dict[str, object]:
        """Blocking state, findK state, the shared comparison store, and the
        strategy's ``CmpIndex`` — everything Algorithm 1 mutates during a
        run."""
        return {
            "blocker": copy.deepcopy(self.blocker),
            "adaptive_k": copy.deepcopy(self.adaptive_k),
            "store": self.store.snapshot_state(),
            "strategy": self.strategy.snapshot_state(),
        }

    def restore(self, state: dict[str, object]) -> None:
        self.blocker = copy.deepcopy(state["blocker"])
        self.adaptive_k = copy.deepcopy(state["adaptive_k"])
        # In-place restore keeps the store's identity, so strategy-bound
        # references (the I-PBS Bloom filter) stay valid.
        self.store.restore_state(state["store"])
        self.strategy.restore_state(state["strategy"])

    def _find_k(self, stats: PipelineStats) -> int:
        """The ``findK()`` of Algorithm 1.

        The service rate is the rate at which full emission rounds complete:
        one round costs ``K`` matcher evaluations plus fixed overhead.
        """
        mean_cost = max(stats.mean_match_cost, 1e-9)
        round_cost = self.adaptive_k.value * mean_cost + self.costs.per_round
        service_rate = 1.0 / round_cost
        return self.adaptive_k.update(stats.input_rate, service_rate)

    def describe(self) -> dict[str, object]:
        return {
            "name": self.name,
            "strategy": self.strategy.name,
            "k": self.adaptive_k.value,
            "blocks": len(self.collection),
            "executed": len(self.store.executed),
        }
