"""I-PBS: Incremental Progressive Block Scheduling (paper §5, Alg. 3).

Block-centric prioritization: blocks are processed smallest-first (small
blocks are most likely to contain duplicates).  Two global indexes track the
pending work per block:

* ``CI`` (cardinality index): block key → number of unexecuted comparisons
  its pending profiles can generate (the paper initializes entries to +∞ to
  mean "nothing pending"; we model that state by *absence* from the dict,
  which is equivalent and avoids ∞ arithmetic);
* ``PI`` (profile index): block key → set of pending (unexecuted) profiles.

Comparisons enter the global queue with the composite priority
``(-block_size, cbs_weight)``: comparisons from smaller generating blocks
come first, CBS breaks ties within a block.  A scalable Bloom filter drops
comparisons already generated from an earlier block.

The queue is refilled from the current smallest pending block ``b_min``
lazily: only when the queue is empty, or when ``b_min`` is *smaller* than
the block that generated the current queue head (so newly discovered small
blocks jump the line, while larger blocks wait until the queue drains —
this keeps the queue from growing without bound while preferring
comparisons from smaller blocks, the stated goals of the paper).
"""

from __future__ import annotations

import copy
import heapq
from typing import Iterable

from repro.core.profile import EntityProfile
from repro.execution.store import ComparisonStore
from repro.metablocking.sweep import pair_weights, partner_weights
from repro.metablocking.weights import CommonBlocksScheme, WeightingScheme
from repro.pier.base import IncrPrioritization, PierSystem
from repro.priority.bloom import ScalableBloomFilter
from repro.priority.bounded_pq import BoundedPriorityQueue

__all__ = ["IPBS"]


class IPBS(IncrPrioritization):
    """Block-centric prioritization over smallest-pending-block refills."""

    name = "I-PBS"

    def __init__(
        self,
        scheme: WeightingScheme | None = None,
        capacity: int | None = 500_000,
        filter_initial_capacity: int = 4096,
    ) -> None:
        self.scheme = scheme or CommonBlocksScheme()
        self.index: BoundedPriorityQueue[tuple[int, int]] = BoundedPriorityQueue(capacity)
        self.cardinality_index: dict[str, int] = {}
        self.profile_index: dict[str, set[int]] = {}
        self.filter_initial_capacity = filter_initial_capacity
        # Standalone default so the strategy works unbound (unit tests);
        # bind_store replaces it with the host system's shared filter.
        self.comparison_filter = ScalableBloomFilter(initial_capacity=filter_initial_capacity)
        # Lazy min-heap over (pending_count, key); entries whose count is
        # stale are discarded on pop, keeping b_min selection O(log n).
        self._pending_heap: list[tuple[int, str]] = []

    def bind_store(self, store: ComparisonStore) -> None:
        # Share the store's Bloom filter: one dedup structure per system,
        # serialized exactly once inside the store's snapshot.
        self.comparison_filter = store.bloom_filter(self.filter_initial_capacity)

    # ------------------------------------------------------------------
    def ingest_profiles(self, system: PierSystem, profiles: Iterable[EntityProfile]) -> float:
        costs = system.costs
        collection = system.collection
        cost = 0.0
        for profile in profiles:
            for key in collection.blocks_of(profile.pid):
                block = collection.get(key)
                if block is None:
                    continue
                if collection.clean_clean:
                    new_comparisons = len(block.members(1 - profile.source))
                else:
                    new_comparisons = len(block) - 1
                count = self.cardinality_index.get(key, 0) + max(new_comparisons, 0)
                self.cardinality_index[key] = count
                self.profile_index.setdefault(key, set()).add(profile.pid)
                if count > 0:
                    heapq.heappush(self._pending_heap, (count, key))
                cost += costs.per_enqueue
        cost += self._consider_refill(system)
        return cost

    def on_empty_increment(self, system: PierSystem) -> float:
        return system.costs.per_round + self._consider_refill(system)

    # ------------------------------------------------------------------
    def _consider_refill(self, system: PierSystem) -> float:
        """Process ``b_min`` when the lazy-refill condition holds (Alg. 3)."""
        cost = 0.0
        while True:
            b_min_key, b_min_block = self._smallest_pending_block(system)
            if b_min_key is None:
                return cost
            if len(self.index):
                top_block_size = -self.index.peek_key()[0]
                if len(b_min_block) >= top_block_size:
                    return cost
            cost += self._process_block(system, b_min_key, b_min_block)
            # After processing one block, loop: an even smaller block may now
            # satisfy the condition (or the queue may still be empty).
            if len(self.index):
                return cost

    def _smallest_pending_block(self, system: PierSystem):
        """The live block with the fewest pending comparisons (``b_min``).

        Pops the lazy heap until an entry matches the current cardinality
        index; stale entries (block processed, purged, or count changed) are
        discarded, and changed counts are pushed back for a later pass.
        """
        collection = system.collection
        heap = self._pending_heap
        while heap:
            count, key = heap[0]
            current = self.cardinality_index.get(key)
            block = collection.get(key)
            if current is None or current <= 0 or block is None:
                heapq.heappop(heap)
                if block is None or (current is not None and current <= 0):
                    self._reset_block(key)
                continue
            if current != count:
                heapq.heapreplace(heap, (current, key))
                continue
            return key, block
        return None, None

    def _process_block(self, system: PierSystem, key: str, block) -> float:
        """Generate the pending comparisons of a block into the queue."""
        costs = system.costs
        collection = system.collection
        metrics = system.metrics
        pending = self.profile_index.get(key, set())
        block_size = len(block)
        cost = costs.per_block_open
        metrics.count("strategy.blocks_processed")
        # Sorted iteration keeps generation order independent of set-table
        # history, so a checkpoint-restored run replays identically.
        prune = collection.allows_pair if collection.prunes_candidates else None
        seen = self.comparison_filter
        executed = system.store.executed
        survivors: list[tuple[int, int]] = []
        filtered = skipped = 0
        for pid_x in sorted(pending):
            if collection.clean_clean:
                partners = block.members(1 - system.profile(pid_x).source)
            else:
                partners = [pid for pid in block if pid != pid_x]
            for pid_y in partners:
                if pid_y == pid_x:
                    continue
                pair = (pid_x, pid_y) if pid_x < pid_y else (pid_y, pid_x)
                if prune is not None and not prune(*pair):
                    continue
                # ``contains`` hashes the pair once; ``add`` reuses the hash.
                if seen.contains(*pair):
                    filtered += 1
                    continue
                seen.add(*pair)
                if pair in executed:
                    skipped += 1
                    continue
                survivors.append(pair)
        weights = pair_weights(collection, survivors, self.scheme, partner_weights)
        enqueue = self.index.enqueue
        for pair, weight in zip(survivors, weights):
            enqueue(pair, (-block_size, weight))
            cost += costs.per_weight + costs.per_enqueue
        metrics.count_hits({"strategy.bloom_filtered": filtered,
                            "strategy.skipped_already_executed": skipped,
                            "strategy.comparisons_enqueued": len(survivors)})
        self._reset_block(key)
        return cost

    def _reset_block(self, key: str) -> None:
        """Lines 15-16 of Alg. 3: mark the block as having nothing pending."""
        self.cardinality_index.pop(key, None)
        self.profile_index.pop(key, None)

    # ------------------------------------------------------------------
    def dequeue(self) -> tuple[int, int] | None:
        if not self.index:
            return None
        return self.index.dequeue()

    def gauges(self) -> dict[str, float]:
        return {
            "bloom_slices": self.comparison_filter.num_slices,
            "bloom_items": self.comparison_filter.count,
            "pending_blocks": len(self.cardinality_index),
        }

    def __len__(self) -> int:
        return len(self.index)

    def exhausted(self, system: PierSystem) -> bool:
        if self.index:
            return False
        collection = system.collection
        return not any(
            count > 0 and collection.get(key) is not None
            for key, count in self.cardinality_index.items()
        )

    # -- checkpoint support ---------------------------------------------
    def snapshot_state(self) -> dict[str, object]:
        # The Bloom filter is serialized by the comparison store it is bound
        # to (bit-exactly, so restored runs reproduce the identical
        # false-positive pattern); restoring it here as well would break the
        # filter's shared identity.
        return {
            "index": copy.deepcopy(self.index),
            "cardinality_index": dict(self.cardinality_index),
            "profile_index": {key: set(pids) for key, pids in self.profile_index.items()},
            "pending_heap": list(self._pending_heap),
        }

    def restore_state(self, state: dict[str, object]) -> None:
        self.index = copy.deepcopy(state["index"])
        self.cardinality_index = dict(state["cardinality_index"])
        self.profile_index = {key: set(pids) for key, pids in state["profile_index"].items()}
        self._pending_heap = list(state["pending_heap"])
