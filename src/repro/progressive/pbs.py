"""PBS: Progressive Block Scheduling (batch baseline, Simonini et al.).

Initialization merely sorts the blocks by size (smallest first) — which is
why PBS starts emitting far earlier than PPS on large datasets.  Blocks are
then *opened* lazily during emission: opening a block weighs its
non-redundant comparisons with the CBS scheme and emits them in descending
weight order before moving to the next (larger) block.
"""

from __future__ import annotations

from repro.metablocking.weights import CommonBlocksScheme, WeightingScheme
from repro.progressive.base import BatchProgressiveSystem

__all__ = ["PBSSystem"]


class PBSSystem(BatchProgressiveSystem):
    """Progressive Block Scheduling packaged as an ERSystem.

    Opening a block weighs its non-redundant comparisons one
    ``scheme.weight`` call (a C-level block-set intersection) per pair.
    """

    def __init__(
        self,
        clean_clean: bool = False,
        max_block_size: int | None = 200,
        scheme: WeightingScheme | None = None,
        scope: str = "all",
        **kwargs,
    ) -> None:
        super().__init__(
            clean_clean=clean_clean, max_block_size=max_block_size, scope=scope, **kwargs
        )
        self.scheme = scheme or CommonBlocksScheme()
        self._block_order: list[str] = []
        self._block_cursor = 0
        self._buffer: list[tuple[int, int]] = []
        self._seen: set[tuple[int, int]] = set()
        self.name = "PBS" if scope == "all" else "PBS-LOCAL"

    # ------------------------------------------------------------------
    def _estimate_init_cost(self) -> float:
        return len(self.collection) * self.costs.per_block_open

    def _initialize(self) -> float:
        blocks = sorted(self.collection, key=len)
        self._block_order = [block.key for block in blocks]
        self._block_cursor = 0
        self._buffer = []
        self._seen = set()
        return len(blocks) * self.costs.per_block_open

    def _next_pairs(self, n: int) -> tuple[list[tuple[int, int]], float]:
        cost = 0.0
        while len(self._buffer) < n and self._block_cursor < len(self._block_order):
            cost += self._open_next_block()
        pairs = self._buffer[:n]
        del self._buffer[:n]
        return pairs, cost + len(pairs) * self.costs.per_enqueue

    def _open_next_block(self) -> float:
        """Weigh and enqueue the comparisons of the next-smallest block."""
        key = self._block_order[self._block_cursor]
        self._block_cursor += 1
        block = self.collection.get(key)
        cost = self.costs.per_block_open
        if block is None:
            return cost
        fresh: list[tuple[int, int]] = []
        for pid_x, pid_y in block.pairs(self.collection.clean_clean):
            pair = (min(pid_x, pid_y), max(pid_x, pid_y))
            if pair in self._seen or not self.valid_pair(*pair):
                continue
            self._seen.add(pair)
            fresh.append(pair)
            cost += self.costs.per_weight
        weight = self.scheme.weight
        weighted = [(weight(self.collection, *pair), pair) for pair in fresh]
        weighted.sort(key=lambda item: -item[0])
        self._buffer.extend(pair for _, pair in weighted)
        return cost
