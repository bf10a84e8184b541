"""Tests for Bloom filters: no false negatives, bounded false positives."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.priority.bloom import BloomFilter, ExactComparisonFilter, ScalableBloomFilter

pairs = st.tuples(
    st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=10**6)
)


class TestBloomFilter:
    def test_added_pairs_found(self):
        bloom = BloomFilter(capacity=100)
        bloom.add(1, 2)
        assert (1, 2) in bloom

    def test_validation(self):
        with pytest.raises(ValueError):
            BloomFilter(capacity=0)
        with pytest.raises(ValueError):
            BloomFilter(capacity=10, error_rate=1.5)

    def test_is_full(self):
        bloom = BloomFilter(capacity=2)
        assert not bloom.is_full
        bloom.add(1, 2)
        bloom.add(3, 4)
        assert bloom.is_full

    def test_false_positive_rate_roughly_bounded(self):
        bloom = BloomFilter(capacity=1000, error_rate=0.01)
        for i in range(1000):
            bloom.add(i, i + 1)
        false_positives = sum(1 for i in range(10_000, 20_000) if (i, i + 1) in bloom)
        assert false_positives < 400  # 4% — generous margin over the 1% design

    @given(st.lists(pairs, max_size=60))
    @settings(max_examples=50)
    def test_no_false_negatives(self, items):
        bloom = BloomFilter(capacity=max(len(items), 1))
        for left, right in items:
            bloom.add(left, right)
        for pair in items:
            assert pair in bloom

    def test_determinism_across_instances(self):
        a, b = BloomFilter(64), BloomFilter(64)
        a.add(10, 20)
        b.add(10, 20)
        assert a._bits == b._bits


class TestScalableBloomFilter:
    def test_grows_slices(self):
        bloom = ScalableBloomFilter(initial_capacity=8, growth=2)
        for i in range(100):
            bloom.add(i, i + 1)
        assert bloom.num_slices > 1
        assert bloom.count == 100

    def test_no_false_negatives_across_slices(self):
        bloom = ScalableBloomFilter(initial_capacity=4)
        items = [(i, i * 7 + 1) for i in range(500)]
        for left, right in items:
            bloom.add(left, right)
        assert all((left, right) in bloom for left, right in items)

    def test_contains_helper(self):
        bloom = ScalableBloomFilter()
        bloom.add(5, 9)
        assert bloom.contains(5, 9)

    def test_validation(self):
        with pytest.raises(ValueError):
            ScalableBloomFilter(growth=1)
        with pytest.raises(ValueError):
            ScalableBloomFilter(tightening=1.0)

    def test_compound_false_positive_rate(self):
        bloom = ScalableBloomFilter(initial_capacity=64, error_rate=0.01)
        for i in range(2000):
            bloom.add(i, i + 1)
        false_positives = sum(1 for i in range(10_000, 15_000) if (i, i + 1) in bloom)
        assert false_positives / 5000 < 0.05


_MASK64 = (1 << 64) - 1


def _legacy_splitmix64(value: int) -> int:
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


def _legacy_indexes(slice_: BloomFilter, left: int, right: int) -> list[int]:
    """The original per-slice formula: every slice re-hashes the pair."""
    h1 = _legacy_splitmix64((left << 32) ^ right)
    h2 = _legacy_splitmix64(h1 ^ 0xD6E8FEB86659FD93)
    return [(h1 + i * h2) % slice_.num_bits for i in range(slice_.num_hashes)]


class _LegacyScalableBloom:
    """Oracle: the scalable filter as it hashed before hashes were shared."""

    def __init__(self, initial_capacity: int, error_rate: float = 0.001,
                 growth: int = 4, tightening: float = 0.5) -> None:
        self.params = (initial_capacity, error_rate, growth, tightening)
        self.slices = [BloomFilter(initial_capacity, error_rate * (1.0 - tightening))]

    def add(self, left: int, right: int) -> None:
        current = self.slices[-1]
        if current.is_full:
            _, _, growth, tightening = self.params
            current = BloomFilter(current.capacity * growth, current.error_rate * tightening)
            self.slices.append(current)
        for index in _legacy_indexes(current, left, right):
            current._bits[index >> 3] |= 1 << (index & 7)
        current.count += 1

    def contains(self, left: int, right: int) -> bool:
        return any(
            all(
                slice_._bits[index >> 3] & (1 << (index & 7))
                for index in _legacy_indexes(slice_, left, right)
            )
            for slice_ in reversed(self.slices)
        )

    def snapshot_state(self) -> dict:
        return {
            "params": self.params,
            "slices": [
                (s.capacity, s.error_rate, bytes(s._bits), s.count) for s in self.slices
            ],
        }


class TestSharedHashEquivalence:
    """Hashing a pair once per probe (and reusing it for the following
    ``add``) answers and serializes exactly like the per-slice formula."""

    def test_stream_matches_legacy_formula(self):
        bloom = ScalableBloomFilter(initial_capacity=16)
        legacy = _LegacyScalableBloom(initial_capacity=16)
        # Repeats (true positives), fresh pairs (mostly misses), and probes
        # whose ``add`` is preceded by a different probe or by none at all.
        stream = [((i * 37) % 500, (i * 11) % 499 + 500) for i in range(1600)]
        for step, (left, right) in enumerate(stream):
            if step % 7 == 3:
                bloom.add(left, right)
                legacy.add(left, right)
                continue
            found = bloom.contains(left, right)
            assert found == legacy.contains(left, right)
            if step % 5 == 0:
                assert bloom.contains(right, left) == legacy.contains(right, left)
            if not found:
                bloom.add(left, right)
                legacy.add(left, right)
        assert bloom.num_slices >= 4
        assert bloom.snapshot_state() == legacy.snapshot_state()
        probes = [(i, i + 1) for i in range(2000)]
        assert [bloom.contains(*p) for p in probes] == [legacy.contains(*p) for p in probes]

    def test_restored_filter_keeps_answering_identically(self):
        bloom = ScalableBloomFilter(initial_capacity=8)
        for i in range(200):
            if not bloom.contains(i, 3 * i):
                bloom.add(i, 3 * i)
        restored = ScalableBloomFilter()
        restored.restore_state(bloom.snapshot_state())
        for i in range(150, 400):
            assert restored.contains(i, 3 * i) == bloom.contains(i, 3 * i)
            restored.add(i, 3 * i)
            bloom.add(i, 3 * i)
        assert restored.snapshot_state() == bloom.snapshot_state()


class TestExactComparisonFilter:
    def test_exactness(self):
        exact = ExactComparisonFilter()
        exact.add(1, 2)
        assert (1, 2) in exact
        assert (2, 3) not in exact
        assert exact.count == 1


_HASHSEED_SCRIPT = """
from repro.priority.bloom import ScalableBloomFilter

bloom = ScalableBloomFilter(initial_capacity=64)
for i in range(500):
    bloom.add((i * 31) % 1000, (i * 17) % 997)
bits = "".join(
    "1" if bloom.contains(i, i + 1) else "0" for i in range(2000)
)
print(bits)
print(bloom.num_slices)
"""


class TestHashSeedIndependence:
    """I-PBS dedup correctness requires bloom membership to be identical
    across interpreter runs, whatever ``PYTHONHASHSEED`` says."""

    @staticmethod
    def _membership_under_seed(seed: str) -> str:
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = seed
        src_dir = str(Path(__file__).resolve().parent.parent / "src")
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src_dir + (os.pathsep + existing if existing else "")
        proc = subprocess.run(
            [sys.executable, "-c", _HASHSEED_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        return proc.stdout

    def test_membership_identical_across_hash_seeds(self):
        out_a = self._membership_under_seed("0")
        out_b = self._membership_under_seed("12345")
        assert out_a == out_b
        bits = out_a.splitlines()[0]
        assert len(bits) == 2000 and "1" in bits  # the probe saw real data
