"""Shared comparison bookkeeping for every ER system.

Before this layer existed, each system kept its own private variant of the
same three registries: the PIER framework and the incremental baseline each
held an ``_executed`` set, I-PBS owned a scalable Bloom filter for
cross-block dedup, and the engines tracked quarantined pairs in run-local
sets.  :class:`ComparisonStore` centralizes them:

* **executed-set** — the exactly-once execution registry.  A pair enters it
  the moment a system *commits* to executing it (emission for PIER and the
  batch baselines, enqueue for I-BASE), so redeliveries, refills and
  re-prioritizations can never hand the same comparison to the matcher
  twice;
* **Bloom dedup** — the probabilistic already-generated filter used by
  block-centric generation (I-PBS).  It lives here so checkpoints serialize
  it exactly once and restored runs reproduce the identical
  false-positive pattern;
* **quarantine registry** — pairs the engine refused to execute (cost
  ceiling, retry exhaustion).  Per-run state: cleared by
  :meth:`begin_run`, overwritten from the checkpoint on resume;
* **emission accounting** — totals of committed emissions and stale
  dequeues, shared across strategies for reporting.

The store is owned by the system (it shares the system's lifetime, like the
executed set it replaces) and snapshotted as one unit inside
``ERSystem.snapshot``, which is how engine checkpoints guarantee that no
comparison is double-credited after a crash-restore.
"""

from __future__ import annotations

from repro.core.comparison import canonical_pair
from repro.priority.bloom import ScalableBloomFilter

__all__ = ["ComparisonStore"]


class ComparisonStore:
    """Executed-set, Bloom dedup, quarantine registry, emission accounting."""

    __slots__ = ("executed", "quarantined", "emitted", "stale_dequeues", "_bloom")

    def __init__(self) -> None:
        # Canonical (smaller pid first) pairs.  Besides the methods below,
        # the PIER hot paths read and claim it directly: PierSystem.emit,
        # GetComparisons.next_batch, IPBS, IPCS and IPES.
        self.executed: set[tuple[int, int]] = set()
        self.quarantined: set[tuple[int, int]] = set()
        self.emitted = 0
        self.stale_dequeues = 0
        self._bloom: ScalableBloomFilter | None = None

    # -- executed-set (exactly-once execution) --------------------------
    def was_executed(self, pid_x: int, pid_y: int) -> bool:
        return canonical_pair(pid_x, pid_y) in self.executed

    def mark_executed(self, pair: tuple[int, int]) -> bool:
        """Claim a canonical pair for execution; ``False`` if already claimed."""
        if pair in self.executed:
            return False
        self.executed.add(pair)
        return True

    def record_emission(self, emitted: int, stale: int = 0) -> None:
        """Account one emission round: committed pairs and stale dequeues."""
        self.emitted += emitted
        self.stale_dequeues += stale

    # -- quarantine registry --------------------------------------------
    def quarantine(self, pair: tuple[int, int]) -> None:
        """Register a pair the engine refused to execute."""
        self.quarantined.add(pair)

    def begin_run(self) -> None:
        """Reset the per-run registries at the start of a fresh (non-resume)
        run.  The executed set and the Bloom filter share the *system's*
        lifetime and survive — they encode which comparisons exist at all,
        not what one engine run did with them."""
        self.quarantined.clear()

    # -- Bloom dedup ----------------------------------------------------
    def bloom_filter(self, initial_capacity: int = 4096) -> ScalableBloomFilter:
        """The store's shared already-generated filter (created on first use).

        ``initial_capacity`` only applies to the creating call; later callers
        receive the same filter object, which is what lets checkpoint restore
        mutate it in place without breaking anyone's bound reference.
        """
        if self._bloom is None:
            self._bloom = ScalableBloomFilter(initial_capacity=initial_capacity)
        return self._bloom

    # -- checkpoint support ---------------------------------------------
    def snapshot_state(self) -> dict[str, object]:
        return {
            "executed": set(self.executed),
            "quarantined": set(self.quarantined),
            "emitted": self.emitted,
            "stale_dequeues": self.stale_dequeues,
            "bloom": None if self._bloom is None else self._bloom.snapshot_state(),
        }

    def restore_state(self, state: dict[str, object]) -> None:
        """Rewind to a snapshot, mutating the Bloom filter *in place* so
        references bound by strategies (I-PBS) stay valid."""
        self.executed = set(state["executed"])
        self.quarantined = set(state["quarantined"])
        self.emitted = state["emitted"]
        self.stale_dequeues = state["stale_dequeues"]
        bloom_state = state["bloom"]
        if bloom_state is None:
            self._bloom = None
        else:
            if self._bloom is None:
                self._bloom = ScalableBloomFilter()
            self._bloom.restore_state(bloom_state)
