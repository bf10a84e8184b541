"""Meta-blocking weighting schemes.

Weighting schemes score a comparison ``c_{x,y}`` by how likely the two
profiles are to match, using only blocking evidence (no attribute access).
The paper uses **CBS** (Common Blocks Scheme) throughout because it is the
cheapest to maintain incrementally; the other classic schemes (ECBS, JS,
ARCS) are provided both for completeness and for the weighting-scheme
ablation benchmark.

Every scheme supports two evaluation modes with bit-identical results:

* the classic per-pair :meth:`~WeightingScheme.weight` call, and
* the single-sweep aggregate path (:mod:`repro.metablocking.sweep`), which
  derives the same weights for *all* partners of one profile from one
  co-occurrence counting pass.  Count-based schemes (CBS, ECBS, JS) expose
  :meth:`finalize_sweep` to turn a co-occurrence count into the weight;
  ARCS marks itself with ``sweep_accumulates_inverse_cardinality`` so the
  sweep accumulates ``1/||b||`` terms instead of counts.
"""

from __future__ import annotations

import math
from typing import Protocol

from repro.blocking.substrate import BlockingSubstrate

__all__ = [
    "WeightingScheme",
    "CommonBlocksScheme",
    "EnhancedCommonBlocksScheme",
    "JaccardScheme",
    "ARCSScheme",
    "make_scheme",
]


class WeightingScheme(Protocol):
    """Interface of all weighting schemes."""

    name: str

    def weight(self, collection: BlockingSubstrate, pid_x: int, pid_y: int) -> float:
        """Match-likelihood weight of the comparison ``(pid_x, pid_y)``."""
        ...


class CommonBlocksScheme:
    """CBS: ``w(c_{x,y}) = |B(p_x) ∩ B(p_y)|``.

    The fastest scheme; the paper's default.  Its known failure mode —
    over-weighting pairs of *long* profiles that share many tokens without
    matching — is what motivates the entity-centric I-PES strategy.
    """

    name = "CBS"

    #: Tells the sweep kernel the weight is the bare co-occurrence count —
    #: no per-partner finalize call needed.
    sweep_weight_is_count = True

    def weight(self, collection: BlockingSubstrate, pid_x: int, pid_y: int) -> float:
        return float(collection.common_blocks(pid_x, pid_y))

    def finalize_sweep(
        self, collection: BlockingSubstrate, pid_x: int, pid_y: int, common: int
    ) -> float:
        return float(common)


class EnhancedCommonBlocksScheme:
    """ECBS: CBS boosted by the rarity of each profile's blocks.

    ``w = CBS * log(|B| / |B(p_x)|) * log(|B| / |B(p_y)|)`` — profiles that
    appear in few blocks give more specific evidence.
    """

    name = "ECBS"

    def weight(self, collection: BlockingSubstrate, pid_x: int, pid_y: int) -> float:
        return self.finalize_sweep(
            collection, pid_x, pid_y, collection.common_blocks(pid_x, pid_y)
        )

    def finalize_sweep(
        self, collection: BlockingSubstrate, pid_x: int, pid_y: int, common: int
    ) -> float:
        if common == 0:
            return 0.0
        total_blocks = max(len(collection), 1)
        blocks_x = collection.block_count_of(pid_x) or 1
        blocks_y = collection.block_count_of(pid_y) or 1
        boost_x = math.log1p(total_blocks / blocks_x)
        boost_y = math.log1p(total_blocks / blocks_y)
        return common * boost_x * boost_y

    def sweep_weights_for(
        self, collection: BlockingSubstrate, pid_x: int, candidates, counts
    ) -> list[float]:
        """Vectorized ``finalize_sweep``: ``boost_x`` is hoisted out of the
        per-candidate loop (it only depends on ``pid_x``), which changes no
        float — same inputs, same product order."""
        total_blocks = max(len(collection), 1)
        boost_x = math.log1p(total_blocks / (collection.block_count_of(pid_x) or 1))
        block_count_of = collection.block_count_of
        log1p = math.log1p
        weights = []
        for pid_y in candidates:
            common = counts[pid_y]
            if common == 0:
                weights.append(0.0)
                continue
            boost_y = log1p(total_blocks / (block_count_of(pid_y) or 1))
            weights.append(common * boost_x * boost_y)
        return weights


class JaccardScheme:
    """JS scheme: Jaccard coefficient of the two profiles' block sets."""

    name = "JS-scheme"

    def weight(self, collection: BlockingSubstrate, pid_x: int, pid_y: int) -> float:
        return self.finalize_sweep(
            collection, pid_x, pid_y, collection.common_blocks(pid_x, pid_y)
        )

    def finalize_sweep(
        self, collection: BlockingSubstrate, pid_x: int, pid_y: int, common: int
    ) -> float:
        if common == 0:
            return 0.0
        union = collection.block_count_of(pid_x) + collection.block_count_of(pid_y) - common
        return common / union if union else 0.0

    def sweep_weights_for(
        self, collection: BlockingSubstrate, pid_x: int, candidates, counts
    ) -> list[float]:
        """Vectorized ``finalize_sweep`` with ``|B(p_x)|`` hoisted; the
        integer union arithmetic is exact, so the division is unchanged."""
        count_x = collection.block_count_of(pid_x)
        block_count_of = collection.block_count_of
        weights = []
        for pid_y in candidates:
            common = counts[pid_y]
            if common == 0:
                weights.append(0.0)
                continue
            union = count_x + block_count_of(pid_y) - common
            weights.append(common / union if union else 0.0)
        return weights


class ARCSScheme:
    """ARCS: sum over common blocks of ``1 / ||b||``.

    Small blocks contribute more — comparisons supported by rare tokens are
    more reliable evidence than those supported by frequent ones.  The
    common blocks are summed in sorted-key order so the floating-point
    accumulation is independent of set-iteration order (PYTHONHASHSEED) and
    bit-identical to the sweep path, which visits a profile's blocks in the
    same sorted order.
    """

    name = "ARCS"

    #: Tells the sweep kernel to accumulate ``1/||b||`` per co-occurrence
    #: instead of plain counts.
    sweep_accumulates_inverse_cardinality = True

    def weight(self, collection: BlockingSubstrate, pid_x: int, pid_y: int) -> float:
        keys_x = collection.blocks_of(pid_x)
        keys_y = collection.blocks_of(pid_y)
        if not keys_x or not keys_y:
            return 0.0
        clean_clean = collection.clean_clean
        total = 0.0
        for key in sorted(keys_x & keys_y):
            block = collection.get(key)
            if block is None:
                continue
            cardinality = block.comparison_count(clean_clean)
            if cardinality > 0:
                total += 1.0 / cardinality
        return total


_SCHEMES = {
    "cbs": CommonBlocksScheme,
    "ecbs": EnhancedCommonBlocksScheme,
    "js": JaccardScheme,
    "arcs": ARCSScheme,
}


def make_scheme(name: str) -> WeightingScheme:
    """Instantiate a weighting scheme by (case-insensitive) name."""
    try:
        return _SCHEMES[name.lower()]()
    except KeyError:
        raise ValueError(
            f"unknown weighting scheme {name!r}; choose from {sorted(_SCHEMES)}"
        ) from None
