"""I-PES: Incremental Progressive Entity Scheduling (paper §6, Alg. 4).

The entity-centric strategy.  Instead of one global comparison order (whose
quality stands or falls with the weighting scheme), I-PES ranks *entities*
by the weight of their best pending comparison and emits comparisons entity
by entity.  Three structures constitute its ``CmpIndex``:

* ``E_PQ`` — per-entity priority queues of weighted comparisons;
* ``EntityQueue`` — a priority queue of ``(entity, weight)`` tuples, where
  the weight is the entity's best comparison weight at insertion time;
* ``PQ`` — a bounded overflow queue for low-weighted comparisons.

Insertion applies the paper's double pruning: a comparison that does not
improve either endpoint's best, is only stored (a) with the endpoint owning
the smaller queue, and (b) if its weight beats both the global average
weight and that endpoint's per-entity average — otherwise it is demoted to
the bounded ``PQ``, keeping it out of the entity structures while never
losing it outright (refills offer each comparison once, so a hard drop
would shrink I-PES's comparison universe below the other strategies').
This bounds memory and sheds superfluous comparisons, making I-PES far less
sensitive to a poorly suited weighting scheme than I-PCS.
"""

from __future__ import annotations

import copy
from collections import Counter
from typing import Iterable

from repro.core.comparison import WeightedComparison
from repro.core.profile import EntityProfile
from repro.metablocking.weights import WeightingScheme
from repro.pier.base import ComparisonGenerator, GetComparisons, IncrPrioritization, PierSystem
from repro.priority.bounded_pq import BoundedPriorityQueue

__all__ = ["IPES"]


class IPES(IncrPrioritization):
    """Entity-centric prioritization (Algorithm 4).

    Parameters
    ----------
    beta:
        Block-ghosting parameter β used during candidate generation.
    scheme:
        Weighting scheme (CBS by default).
    overflow_capacity:
        Bound of the low-weight overflow queue ``PQ``.
    per_pair_weighting:
        Use the legacy one-``weight()``-call-per-candidate path instead of
        the single-sweep kernel (bit-identical; for bisection).
    """

    name = "I-PES"

    def __init__(
        self,
        beta: float = 0.2,
        scheme: WeightingScheme | None = None,
        overflow_capacity: int = 100_000,
        per_pair_weighting: bool = False,
    ) -> None:
        self.generator = ComparisonGenerator(beta=beta, scheme=scheme, per_pair=per_pair_weighting)
        self.refill = GetComparisons(scheme=self.generator.scheme)
        self.entity_pq: dict[int, BoundedPriorityQueue[tuple[int, int]]] = {}
        self.entity_queue: BoundedPriorityQueue[int] = BoundedPriorityQueue()
        self.overflow: BoundedPriorityQueue[tuple[int, int]] = BoundedPriorityQueue(
            overflow_capacity
        )
        # Global running average of inserted comparison weights (Total/Count).
        self.total_weight = 0.0
        self.count = 0
        # Per-entity running averages for the insert() pruning condition.
        self._entity_totals: dict[int, tuple[float, int]] = {}
        self._entity_items = 0

    # ------------------------------------------------------------------
    # Ingestion (Algorithm 4)
    # ------------------------------------------------------------------
    def ingest_profiles(self, system: PierSystem, profiles: Iterable[EntityProfile]) -> float:
        costs = system.costs
        metrics = system.metrics
        executed = system.store.executed
        insert = self._insert_weighted
        cost = 0.0
        skipped = 0
        placed: list[str] = []
        for profile in profiles:
            kept, operations = self.generator.generate(
                system.collection, profile, system.valid_partner(profile)
            )
            cost += operations * costs.per_weight
            metrics.count("strategy.weighting_ops", operations)
            for weighted in kept:
                if weighted.pair in executed:
                    skipped += 1
                    continue
                placed.append(insert(weighted))
                cost += costs.per_enqueue
        metrics.count_hits({"strategy.skipped_already_executed": skipped, **Counter(placed)})
        return cost

    def on_empty_increment(self, system: PierSystem) -> float:
        metrics = system.metrics
        costs = system.costs
        insert = self._insert_weighted
        cost = costs.per_round
        placed: list[str] = []
        while not len(self):
            result = self.refill.next_batch(system.collection, system.store.executed)
            if result is None:
                break
            batch, operations = result
            metrics.count("strategy.refill_batches")
            metrics.count("strategy.weighting_ops", operations)
            cost += operations * costs.per_weight
            for weighted in batch:
                placed.append(insert(weighted))
                cost += costs.per_enqueue
        metrics.count_hits(Counter(placed))
        return cost

    def _insert_weighted(self, weighted: WeightedComparison) -> str:
        """Lines 1-14 of Algorithm 4 for a single weighted comparison.

        Returns the counter naming where the comparison ended up
        (``strategy.inserted_`` + ``entity`` / ``balanced`` / ``pruned`` /
        ``overflow``), so callers can count dispositions.
        """
        weight = weighted.weight
        self.total_weight += weight
        self.count += 1
        pid_x, pid_y = weighted.left, weighted.right

        if self._top_weight(pid_x) < weight:
            self._entity_enqueue(pid_x, weighted)
            self.entity_queue.enqueue(pid_x, weight)
            return "strategy.inserted_entity"
        if self._top_weight(pid_y) < weight:
            self._entity_enqueue(pid_y, weighted)
            self.entity_queue.enqueue(pid_y, weight)
            return "strategy.inserted_entity"
        if weight > self.total_weight / self.count:
            queue_x = self.entity_pq.get(pid_x)
            queue_y = self.entity_pq.get(pid_y)
            size_x = len(queue_x) if queue_x else 0
            size_y = len(queue_y) if queue_y else 0
            owner = pid_x if size_x <= size_y else pid_y
            return self._insert_if_above_entity_average(weighted, owner)
        self.overflow.enqueue(weighted.pair, weight)
        return "strategy.inserted_overflow"

    def _insert_if_above_entity_average(self, weighted: WeightedComparison, owner: int) -> str:
        """The ``insert()`` function: admit only above the entity average.

        A comparison below the owner's average is pruned *from the entity
        structures*, not lost: it falls through to the bounded overflow
        queue.  Dropping it outright would break the cross-strategy
        agreement contract — refills drain each block once, so a dropped
        comparison would never be offered again and I-PES would execute a
        strictly smaller comparison universe than I-PCS/I-PBS.
        """
        total, count = self._entity_totals.get(owner, (0.0, 0))
        if count and weighted.weight <= total / count:
            self.overflow.enqueue(weighted.pair, weighted.weight)
            return "strategy.inserted_pruned"
        self._entity_enqueue(owner, weighted)
        return "strategy.inserted_balanced"

    def _entity_enqueue(self, owner: int, weighted: WeightedComparison) -> None:
        queue = self.entity_pq.get(owner)
        if queue is None:
            queue = BoundedPriorityQueue()
            self.entity_pq[owner] = queue
        queue.enqueue(weighted.pair, weighted.weight)
        self._entity_items += 1
        total, count = self._entity_totals.get(owner, (0.0, 0))
        self._entity_totals[owner] = (total + weighted.weight, count + 1)

    def _top_weight(self, pid: int) -> float:
        """Weight of the best pending comparison of an entity (-inf if none)."""
        queue = self.entity_pq.get(pid)
        if not queue:
            return float("-inf")
        return queue.peek_key()

    # ------------------------------------------------------------------
    # Emission (CmpIndex.dequeue of §6)
    # ------------------------------------------------------------------
    def dequeue(self) -> tuple[int, int] | None:
        while True:
            if not self.entity_queue:
                self._refill_entity_queue()
            if not self.entity_queue:
                break
            entity = self.entity_queue.dequeue()
            queue = self.entity_pq.get(entity)
            if not queue:
                continue  # stale EntityQueue entry
            pair = queue.dequeue()
            self._entity_items -= 1
            if not queue:
                del self.entity_pq[entity]
                self._entity_totals.pop(entity, None)
            return pair
        # Entity structures exhausted: fall back to the overflow queue.
        if self.overflow:
            return self.overflow.dequeue()
        return None

    def _refill_entity_queue(self) -> None:
        """When EntityQueue drains, reseed it from all live entity queues."""
        for entity, queue in self.entity_pq.items():
            if queue:
                self.entity_queue.enqueue(entity, queue.peek_key())

    # ------------------------------------------------------------------
    def gauges(self) -> dict[str, float]:
        return {
            "entity_queues": len(self.entity_pq),
            "overflow_depth": len(self.overflow),
        }

    def __len__(self) -> int:
        return self._entity_items + len(self.overflow)

    def exhausted(self, system: PierSystem) -> bool:
        if len(self):
            return False
        return self.refill.is_exhausted(system.collection)

    # -- checkpoint support ---------------------------------------------
    def snapshot_state(self) -> dict[str, object]:
        return {
            "entity_pq": {pid: copy.deepcopy(queue) for pid, queue in self.entity_pq.items()},
            "entity_queue": copy.deepcopy(self.entity_queue),
            "overflow": copy.deepcopy(self.overflow),
            "total_weight": self.total_weight,
            "count": self.count,
            "entity_totals": dict(self._entity_totals),
            "entity_items": self._entity_items,
            "refill": self.refill.snapshot_state(),
        }

    def restore_state(self, state: dict[str, object]) -> None:
        self.entity_pq = {pid: copy.deepcopy(queue) for pid, queue in state["entity_pq"].items()}
        self.entity_queue = copy.deepcopy(state["entity_queue"])
        self.overflow = copy.deepcopy(state["overflow"])
        self.total_weight = state["total_weight"]
        self.count = state["count"]
        self._entity_totals = dict(state["entity_totals"])
        self._entity_items = state["entity_items"]
        self.refill.restore_state(state["refill"])
