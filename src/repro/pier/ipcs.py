"""I-PCS: Incremental Progressive Comparison Scheduling (paper §4, Alg. 2).

The comparison-centric strategy: every comparison that survives block
ghosting and I-WNP is pushed, with its CBS weight, into one global bounded
priority queue.  Effectiveness therefore hinges entirely on the weighting
scheme — the limitation that motivates I-PES.
"""

from __future__ import annotations

import copy
from typing import Iterable

from repro.core.profile import EntityProfile
from repro.metablocking.weights import WeightingScheme
from repro.pier.base import ComparisonGenerator, GetComparisons, IncrPrioritization, PierSystem
from repro.priority.bounded_pq import BoundedPriorityQueue

__all__ = ["IPCS"]


class IPCS(IncrPrioritization):
    """Comparison-centric prioritization with a bounded global queue.

    Parameters
    ----------
    beta:
        Block-ghosting parameter β.
    scheme:
        Meta-blocking weighting scheme (CBS by default, as in the paper).
    capacity:
        Bound of the global comparison queue; low-weight comparisons are
        evicted under pressure, trading eventual quality for memory.
    per_pair_weighting:
        Use the legacy one-``weight()``-call-per-candidate path instead of
        the single-sweep kernel (bit-identical; for bisection).
    """

    name = "I-PCS"

    def __init__(
        self,
        beta: float = 0.2,
        scheme: WeightingScheme | None = None,
        capacity: int | None = 500_000,
        per_pair_weighting: bool = False,
    ) -> None:
        self.generator = ComparisonGenerator(beta=beta, scheme=scheme, per_pair=per_pair_weighting)
        self.refill = GetComparisons(scheme=self.generator.scheme)
        self.index: BoundedPriorityQueue[tuple[int, int]] = BoundedPriorityQueue(capacity)

    # ------------------------------------------------------------------
    def ingest_profiles(self, system: PierSystem, profiles: Iterable[EntityProfile]) -> float:
        costs = system.costs
        metrics = system.metrics
        executed = system.store.executed
        cost = 0.0
        skipped = enqueued = 0
        for profile in profiles:
            kept, operations = self.generator.generate(
                system.collection, profile, system.valid_partner(profile)
            )
            cost += operations * costs.per_weight
            metrics.count("strategy.weighting_ops", operations)
            for weighted in kept:
                pair = weighted.pair
                if pair in executed:
                    skipped += 1
                    continue
                self.index.enqueue(pair, weighted.weight)
                enqueued += 1
                cost += costs.per_enqueue
        metrics.count_hits({"strategy.skipped_already_executed": skipped,
                            "strategy.comparisons_enqueued": enqueued})
        return cost

    def on_empty_increment(self, system: PierSystem) -> float:
        # Alg. 2, lines 10-11: only refill when the index has run dry; keep
        # draining blocks until the index holds fresh work or nothing is left.
        metrics = system.metrics
        costs = system.costs
        cost = costs.per_round
        enqueued = 0
        while not len(self.index):
            result = self.refill.next_batch(system.collection, system.store.executed)
            if result is None:
                break
            batch, operations = result
            metrics.count("strategy.refill_batches")
            metrics.count("strategy.weighting_ops", operations)
            cost += operations * costs.per_weight
            for weighted in batch:
                self.index.enqueue(weighted.pair, weighted.weight)
                cost += costs.per_enqueue
            enqueued += len(batch)
        metrics.count_hits({"strategy.comparisons_enqueued": enqueued})
        return cost

    def dequeue(self) -> tuple[int, int] | None:
        if not self.index:
            return None
        return self.index.dequeue()

    def __len__(self) -> int:
        return len(self.index)

    def exhausted(self, system: PierSystem) -> bool:
        return not self.index and self.refill.is_exhausted(system.collection)

    # -- checkpoint support ---------------------------------------------
    def snapshot_state(self) -> dict[str, object]:
        # generator/scheme are pure configuration; only the queue and the
        # refill drain cursor mutate during a run.
        return {
            "index": copy.deepcopy(self.index),
            "refill": self.refill.snapshot_state(),
        }

    def restore_state(self, state: dict[str, object]) -> None:
        self.index = copy.deepcopy(state["index"])
        self.refill.restore_state(state["refill"])
