"""Single-sweep weighting kernel: fused candidate generation + weights.

The per-pair weighting path costs ``O(candidates × |B(p)|)`` Python-level
set intersections per new profile: every surviving candidate pair triggers
one ``scheme.weight()`` call, and CBS/ECBS/JS each re-intersect the two
profiles' full block-key sets while ARCS re-derives block cardinalities
pair by pair.  Meta-blocking weights over a token index are, however,
computable in a single co-occurrence counting sweep (cf. SPER,
arXiv:2512.23491, and the blocking survey, arXiv:1905.06167): one pass over
the new profile's blocks accumulates per-partner statistics in one dict —

* occurrence counts give **CBS** directly,
* ``+= 1/||b||`` per co-occurrence gives **ARCS**,
* the counts plus cached ``|B(p)|`` sizes give **ECBS** and **JS**.

That is ``O(Σ|b|)`` per profile, with the counting inner loop executed at C
speed (``Counter.update`` over the index's member lists).  Candidate
de-duplication falls out for free: each partner appears once in the
accumulator however many blocks it shares.

The sweep pays off when a profile's partners are mostly all wanted: in
candidate generation and in the PPS block graph
(:func:`sweep_partner_weights`).  Paths that hold only a few pairs of a
profile (refill, I-PBS, PBS) weigh them with :func:`partner_weights`, one
C-level block-set intersection per pair.

Bit-identity with the per-pair path is a hard contract, relied on by the
``--per-pair-weighting`` escape hatch and enforced by tests and the perf
benchmark:

* blocks are visited in sorted-key order (via
  :meth:`~repro.blocking.substrate.BlockingSubstrate.iter_partner_blocks`), so
  the ARCS float accumulation adds the same terms in the same order as the
  sorted per-pair intersection;
* candidates are emitted in first-appearance order over the (ghosted)
  block list — the same order the legacy path produces after its ordered
  de-duplication;
* count-based weights are finalized through the scheme's own
  ``finalize_sweep``, which shares its arithmetic with ``weight()``.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from operator import attrgetter
from typing import Callable, Iterable, Sequence

from repro.blocking.blocks import Block
from repro.blocking.substrate import BlockingSubstrate
from repro.metablocking.weights import CommonBlocksScheme, WeightingScheme

__all__ = [
    "sweep_weights",
    "partner_weights",
    "pair_weights",
    "sweep_partner_weights",
    "sweep_candidate_weights",
]

#: C-level size fetch for the ghosting threshold scan (``len()`` would pay a
#: Python ``__len__`` dispatch per block).
_block_size = attrgetter("_size")


def _arcs_totals(
    collection: BlockingSubstrate,
    pid: int,
    blocks: Sequence[Block],
    source: int | None,
) -> dict[int, float]:
    """Accumulate ``Σ 1/||b||`` per partner over ``pid``'s blocks.

    Blocks arrive in sorted-key order, so each partner's float sum adds its
    terms in exactly the order the (sorted) per-pair ARCS intersection does.
    """
    clean_clean = collection.clean_clean
    cross_only = clean_clean and source is not None
    other = 1 - source if cross_only else 0
    totals: dict[int, float] = {}
    for block in blocks:
        cardinality = block.comparison_count(clean_clean)
        if cardinality <= 0:
            continue
        inverse = 1.0 / cardinality
        if cross_only:
            members: Iterable[int] = block.members_by_source.get(other, ())
        else:
            members = block
        for partner in members:
            totals[partner] = totals.get(partner, 0.0) + inverse
    return totals


def _member_lists(
    blocks: Sequence[Block], cross_only: bool, other: int
) -> list[list[int]]:
    """The member lists the sweep statistics run over, one per block."""
    if cross_only:
        lists = []
        for block in blocks:
            members = block.members_by_source.get(other)
            if members:
                lists.append(members)
        return lists
    return [
        members for block in blocks for members in block.members_by_source.values()
    ]


def _count_totals(
    collection: BlockingSubstrate,
    pid: int,
    blocks: Sequence[Block],
    source: int | None,
) -> Counter:
    """Co-occurrence counts per partner over ``pid``'s blocks (C-speed)."""
    cross_only = collection.clean_clean and source is not None
    other = 1 - source if cross_only else 0
    counts: Counter = Counter()
    counts.update(chain.from_iterable(_member_lists(blocks, cross_only, other)))
    return counts


def sweep_candidate_weights(
    collection: BlockingSubstrate,
    pid: int,
    valid_partner: Callable[[int], bool] | None,
    scheme: WeightingScheme | None = None,
    *,
    beta: float | None = None,
    source: int | None = None,
) -> tuple[list[int], list[float]]:
    """Candidates and weights of ``pid`` in one sweep, as parallel lists.

    The array-shaped core of :func:`sweep_weights`; callers on the hot path
    (I-WNP) consume the two lists directly so the weight sum and pruning run
    over plain float lists at C speed.

    Parameters
    ----------
    collection:
        The live block collection (purged blocks are skipped).
    pid:
        The profile whose candidate comparisons are generated.
    valid_partner:
        Candidate filter (e.g. cross-source only for Clean-Clean ER).
        ``None`` means every co-block partner is valid — callers pass this
        when the filter is provably redundant (a cross-source predicate on a
        Clean-Clean sweep that already reads only other-source member
        lists), which skips one Python call per candidate.
    scheme:
        Weighting scheme; defaults to CBS as in the paper.
    beta:
        Block-ghosting parameter.  When given, candidates are gathered only
        from blocks no larger than ``|b_min| / beta`` (exactly like
        :func:`~repro.blocking.cleaning.block_ghosting`), while weights are
        still computed against the *full* block evidence — matching the
        legacy generate-then-weigh pipeline.  ``None`` disables ghosting.
    source:
        Optional source hint of ``pid`` on Clean-Clean collections; lets the
        counting sweep skip same-source member lists.

    Candidates come back in first-appearance order over the (ghosted) sorted
    block list — the canonical order shared with the per-pair path.
    """
    scheme = scheme or CommonBlocksScheme()
    blocks = collection.iter_partner_blocks(pid)
    if not blocks:
        return [], []

    if beta is None:
        ghosted: Sequence[Block] = blocks
    else:
        if not 0.0 < beta <= 1.0:
            raise ValueError(f"beta must be in (0, 1], got {beta}")
        threshold = min(map(_block_size, blocks)) / beta
        ghosted = [block for block in blocks if block._size <= threshold]

    # First-appearance de-duplication runs at C speed: one dict.fromkeys
    # over the chained member lists.  The validity filter afterwards
    # preserves that order and touches each distinct partner exactly once.
    cross_only = collection.clean_clean and source is not None
    other = 1 - source if cross_only else 0
    order = dict.fromkeys(
        chain.from_iterable(_member_lists(ghosted, cross_only, other))
    )
    order.pop(pid, None)
    if valid_partner is None:
        candidates = list(order)
    else:
        candidates = [partner for partner in order if valid_partner(partner)]
    if not candidates:
        return [], []

    if getattr(scheme, "sweep_accumulates_inverse_cardinality", False):
        totals = _arcs_totals(collection, pid, blocks, source)
        return candidates, [totals.get(partner, 0.0) for partner in candidates]
    finalize_sweep = getattr(scheme, "finalize_sweep", None)
    if finalize_sweep is not None:
        counts = _count_totals(collection, pid, blocks, source)
        if getattr(scheme, "sweep_weight_is_count", False):
            # Pure C: subscript + float conversion via map.
            return candidates, list(map(float, map(counts.__getitem__, candidates)))
        sweep_many = getattr(scheme, "sweep_weights_for", None)
        if sweep_many is not None:
            return candidates, sweep_many(collection, pid, candidates, counts)
        return candidates, [
            finalize_sweep(collection, pid, partner, counts[partner])
            for partner in candidates
        ]
    return candidates, [
        scheme.weight(collection, pid, partner) for partner in candidates
    ]


def sweep_weights(
    collection: BlockingSubstrate,
    pid: int,
    valid_partner: Callable[[int], bool] | None,
    scheme: WeightingScheme | None = None,
    *,
    beta: float | None = None,
    source: int | None = None,
) -> list[tuple[int, float]]:
    """Candidates and weights of ``pid`` in one sweep over its block index.

    Pair-shaped convenience wrapper around :func:`sweep_candidate_weights`
    (see there for the parameters): returns an ordered list of
    ``(partner, weight)`` for the distinct valid candidates.
    """
    candidates, weights = sweep_candidate_weights(
        collection, pid, valid_partner, scheme, beta=beta, source=source
    )
    return list(zip(candidates, weights))


def partner_weights(
    collection: BlockingSubstrate,
    pid: int,
    partners: Iterable[int],
    scheme: WeightingScheme | None = None,
) -> dict[int, float]:
    """Weights of ``pid`` against a known partner list.

    Used by the block-draining paths (refill, I-PBS, PBS), which already
    hold the few pairs they need: each weight is one
    ``scheme.weight(collection, pid, partner)`` call, whose block-set
    intersection runs in C.  Sweeping ``pid``'s whole block index instead
    would cost ``O(Σ|b|)`` per call however few partners are asked for.
    Partners that share no live block with ``pid`` get weight ``0.0``.
    """
    weight = (scheme or CommonBlocksScheme()).weight
    return {partner: weight(collection, pid, partner) for partner in partners}


def pair_weights(
    collection: BlockingSubstrate,
    pairs: Sequence[tuple[int, int]],
    scheme: WeightingScheme | None = None,
    weigh: Callable[..., dict[int, float]] = partner_weights,
) -> list[float]:
    """Weights of canonical ``pairs``, in order.

    Groups the pairs by left profile and makes one ``weigh(collection,
    left, rights, scheme)`` call per group.  Callers pass the
    ``partner_weights`` they import, so a profiler that patches that name
    in their module (``perfbench/tracing.py`` does) sees every call.
    """
    by_left: dict[int, list[int]] = {}
    for left, right in pairs:
        by_left.setdefault(left, []).append(right)
    weights = {
        left: weigh(collection, left, rights, scheme) for left, rights in by_left.items()
    }
    return [weights[left][right] for left, right in pairs]


def sweep_partner_weights(
    collection: BlockingSubstrate,
    pid: int,
    partners: Iterable[int],
    scheme: WeightingScheme | None = None,
) -> dict[int, float]:
    """:func:`partner_weights` read off one counting sweep over ``pid``'s blocks.

    Bit-identical to :func:`partner_weights`; the ``O(Σ|b|)`` sweep is
    cheaper when ``partners`` are most of ``pid``'s co-block partners, as
    in the PPS block graph, which weighs every edge.
    """
    scheme = scheme or CommonBlocksScheme()
    blocks = collection.iter_partner_blocks(pid)
    if getattr(scheme, "sweep_accumulates_inverse_cardinality", False):
        totals = _arcs_totals(collection, pid, blocks, None)
        return {partner: totals.get(partner, 0.0) for partner in partners}
    finalize_sweep = getattr(scheme, "finalize_sweep", None)
    if finalize_sweep is None:
        return partner_weights(collection, pid, partners, scheme)
    counts = _count_totals(collection, pid, blocks, None)
    if getattr(scheme, "sweep_weight_is_count", False):
        return {partner: float(counts[partner]) for partner in partners}
    return {
        partner: finalize_sweep(collection, pid, partner, counts[partner])
        for partner in partners
    }
