"""Bloom filters for comparison deduplication.

I-PBS must not re-emit a comparison that was already generated from an
earlier block.  Following Gazzarri & Herschel (EDBT 2020 short paper), the
redundancy check uses a *scalable* Bloom filter: a sequence of plain Bloom
filters of geometrically growing capacity and geometrically tightening
false-positive rate, so the compound error stays bounded while the stream
grows without a known size upfront.

Hashing is deterministic (independent of ``PYTHONHASHSEED``): items are
canonical ``(int, int)`` pairs mixed with a splitmix64-style finalizer, and
the k indexes derive from two base hashes (Kirsch-Mitzenmacher).  The
scalable filter hashes a pair once and hands the two base hashes to every
slice; a membership probe's hashes are reused by the ``add`` that follows.
"""

from __future__ import annotations

import math

__all__ = ["BloomFilter", "ScalableBloomFilter", "ExactComparisonFilter"]

_MASK64 = (1 << 64) - 1


def _splitmix64(value: int) -> int:
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


def _pair_hashes(left: int, right: int) -> tuple[int, int]:
    """Two independent 64-bit hashes of a canonical pid pair."""
    mixed = _splitmix64((left << 32) ^ right)
    return mixed, _splitmix64(mixed ^ 0xD6E8FEB86659FD93)


class BloomFilter:
    """Plain Bloom filter over canonical pid pairs."""

    __slots__ = ("capacity", "error_rate", "num_bits", "num_hashes", "_bits", "count")

    def __init__(self, capacity: int, error_rate: float = 0.001) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if not 0.0 < error_rate < 1.0:
            raise ValueError("error_rate must be in (0, 1)")
        self.capacity = capacity
        self.error_rate = error_rate
        ln2 = math.log(2.0)
        self.num_bits = max(8, int(math.ceil(-capacity * math.log(error_rate) / (ln2 * ln2))))
        self.num_hashes = max(1, int(round(self.num_bits / capacity * ln2)))
        self._bits = bytearray((self.num_bits + 7) // 8)
        self.count = 0

    def add(self, left: int, right: int) -> None:
        self.add_hashed(*_pair_hashes(left, right))

    def add_hashed(self, h1: int, h2: int) -> None:
        """:meth:`add` for a pair whose :func:`_pair_hashes` are known."""
        bits = self._bits
        num_bits = self.num_bits
        for i in range(self.num_hashes):
            index = (h1 + i * h2) % num_bits
            bits[index >> 3] |= 1 << (index & 7)
        self.count += 1

    def __contains__(self, pair: tuple[int, int]) -> bool:
        return self.contains_hashed(*_pair_hashes(*pair))

    def contains_hashed(self, h1: int, h2: int) -> bool:
        """Membership of a pair whose :func:`_pair_hashes` are known.

        Stops at the first unset bit, so most misses touch few indexes.
        """
        bits = self._bits
        num_bits = self.num_bits
        for i in range(self.num_hashes):
            index = (h1 + i * h2) % num_bits
            if not bits[index >> 3] & (1 << (index & 7)):
                return False
        return True

    @property
    def is_full(self) -> bool:
        return self.count >= self.capacity

    # -- checkpoint support ---------------------------------------------
    def snapshot_state(self) -> tuple:
        """Bit-exact filter state as immutable plain data."""
        return (self.capacity, self.error_rate, bytes(self._bits), self.count)

    @classmethod
    def from_state(cls, state: tuple) -> "BloomFilter":
        capacity, error_rate, bits, count = state
        filter_ = cls(capacity, error_rate)
        filter_._bits = bytearray(bits)
        filter_.count = count
        return filter_


class ScalableBloomFilter:
    """Scalable Bloom filter (Almeida et al.): stacked growing slices.

    Parameters
    ----------
    initial_capacity:
        Capacity of the first slice.
    error_rate:
        Compound target false-positive rate.
    growth:
        Capacity growth factor per slice.
    tightening:
        Error-rate tightening ratio per slice (< 1), so the series of slice
        errors sums below ``error_rate``.
    """

    __slots__ = (
        "initial_capacity", "error_rate", "growth", "tightening", "_slices", "_probed",
    )

    def __init__(
        self,
        initial_capacity: int = 1024,
        error_rate: float = 0.001,
        growth: int = 4,
        tightening: float = 0.5,
    ) -> None:
        if growth < 2:
            raise ValueError("growth must be >= 2")
        if not 0.0 < tightening < 1.0:
            raise ValueError("tightening must be in (0, 1)")
        self.initial_capacity = initial_capacity
        self.error_rate = error_rate
        self.growth = growth
        self.tightening = tightening
        first_error = error_rate * (1.0 - tightening)
        self._slices: list[BloomFilter] = [BloomFilter(initial_capacity, first_error)]
        # The last probed pair and its hashes (derived, never snapshotted).
        self._probed: tuple | None = None

    def add(self, left: int, right: int) -> None:
        # Reuse the hashes of the membership probe that usually precedes
        # an add (I-PBS calls ``contains`` and then ``add`` per pair).
        probed = self._probed
        if probed is not None and probed[0] == (left, right):
            hashes = probed[1]
        else:
            hashes = _pair_hashes(left, right)
        current = self._slices[-1]
        if current.is_full:
            current = BloomFilter(
                current.capacity * self.growth,
                current.error_rate * self.tightening,
            )
            self._slices.append(current)
        current.add_hashed(*hashes)

    def __contains__(self, pair: tuple[int, int]) -> bool:
        # One hash per pair, shared by every slice.
        h1, h2 = hashes = _pair_hashes(*pair)
        self._probed = (pair, hashes)
        for slice_ in reversed(self._slices):
            if slice_.contains_hashed(h1, h2):
                return True
        return False

    def contains(self, left: int, right: int) -> bool:
        return (left, right) in self

    @property
    def count(self) -> int:
        return sum(slice_.count for slice_ in self._slices)

    @property
    def num_slices(self) -> int:
        return len(self._slices)

    # -- checkpoint support ---------------------------------------------
    def snapshot_state(self) -> dict[str, object]:
        """Bit-exact state of every slice plus the growth parameters."""
        return {
            "params": (self.initial_capacity, self.error_rate, self.growth, self.tightening),
            "slices": [slice_.snapshot_state() for slice_ in self._slices],
        }

    def restore_state(self, state: dict[str, object]) -> None:
        (self.initial_capacity, self.error_rate, self.growth, self.tightening) = state["params"]
        self._slices = [BloomFilter.from_state(slice_state) for slice_state in state["slices"]]
        self._probed = None


class ExactComparisonFilter:
    """Exact (set-based) comparison filter with the same interface.

    Useful for tests asserting zero false positives, and as a drop-in when
    memory is not a concern.
    """

    __slots__ = ("_seen",)

    def __init__(self) -> None:
        self._seen: set[tuple[int, int]] = set()

    def add(self, left: int, right: int) -> None:
        self._seen.add((left, right))

    def __contains__(self, pair: tuple[int, int]) -> bool:
        return pair in self._seen

    def contains(self, left: int, right: int) -> bool:
        return (left, right) in self._seen

    @property
    def count(self) -> int:
        return len(self._seen)
