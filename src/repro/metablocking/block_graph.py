"""The meta-blocking block graph (batch substrate for PPS).

The batch Progressive Profile Scheduling baseline builds a *block graph*:
nodes are profiles, and an edge connects two profiles iff they share at
least one block (and form a valid comparison).  Edges carry weights from a
weighting scheme; a profile's *duplication likelihood* aggregates its
incident edge weights.

Building this graph is the expensive initialization step that makes batch
PPS unsuitable for streams (the effect Figures 2, 4 and 7 of the paper
show); its cost here is proportional to the number of edges enumerated and
is charged in virtual time by the callers.
"""

from __future__ import annotations

from typing import Callable

from repro.blocking.substrate import BlockingSubstrate
from repro.core.comparison import canonical_pair
from repro.metablocking.sweep import sweep_partner_weights
from repro.metablocking.weights import CommonBlocksScheme, WeightingScheme

__all__ = ["BlockGraph"]


class BlockGraph:
    """Weighted comparison graph over a (static) block collection.

    Pairs are enumerated and de-duplicated first, then weighted with one
    counting sweep per distinct left profile
    (:func:`~repro.metablocking.sweep.sweep_partner_weights`): the graph
    weighs nearly every co-block partner of each profile, where one sweep
    beats a block-set intersection per edge.
    """

    def __init__(
        self,
        collection: BlockingSubstrate,
        valid_pair: Callable[[int, int], bool],
        scheme: WeightingScheme | None = None,
    ) -> None:
        self._collection = collection
        self._valid_pair = valid_pair
        self._scheme = scheme or CommonBlocksScheme()
        self.edges: dict[tuple[int, int], float] = {}
        self.adjacency: dict[int, list[tuple[int, float]]] = {}
        self.edge_enumerations = 0  # work units: block-pair enumerations
        self._build()

    def _build(self) -> None:
        seen: set[tuple[int, int]] = set()
        ordered: list[tuple[int, int]] = []
        for block in self._collection:
            for pid_x, pid_y in block.pairs(self._collection.clean_clean):
                self.edge_enumerations += 1
                pair = canonical_pair(pid_x, pid_y)
                if pair in seen:
                    continue
                seen.add(pair)
                if not self._valid_pair(*pair):
                    continue
                ordered.append(pair)
        by_left: dict[int, list[int]] = {}
        for left, right in ordered:
            by_left.setdefault(left, []).append(right)
        weights = {
            left: sweep_partner_weights(self._collection, left, rights, self._scheme)
            for left, rights in by_left.items()
        }
        for pair in ordered:
            weight = weights[pair[0]][pair[1]]
            if weight <= 0.0:
                continue
            self.edges[pair] = weight
            self.adjacency.setdefault(pair[0], []).append((pair[1], weight))
            self.adjacency.setdefault(pair[1], []).append((pair[0], weight))

    # ------------------------------------------------------------------
    def duplication_likelihood(self, pid: int) -> float:
        """Average incident edge weight (0 for isolated profiles)."""
        incident = self.adjacency.get(pid)
        if not incident:
            return 0.0
        return sum(weight for _, weight in incident) / len(incident)

    def neighbors(self, pid: int) -> list[tuple[int, float]]:
        """Neighbors of a profile with edge weights, heaviest first."""
        incident = self.adjacency.get(pid, [])
        return sorted(incident, key=lambda item: -item[1])

    def profiles(self) -> list[int]:
        return list(self.adjacency.keys())

    def __len__(self) -> int:
        return len(self.edges)
