"""Tests for the PIER framework scaffolding (Algorithm 1 machinery)."""

from __future__ import annotations

import pytest

from repro.blocking.blocks import BlockCollection
from repro.pier.base import ComparisonGenerator, GetComparisons, PierSystem
from repro.pier.ipcs import IPCS
from repro.core.increments import Increment
from repro.priority.rates import AdaptiveK
from repro.streaming.system import PipelineStats

from tests.conftest import make_profile


def _stats(input_rate=None, mean_match_cost=1e-4) -> PipelineStats:
    return PipelineStats(
        now=0.0, input_rate=input_rate, mean_match_cost=mean_match_cost, backlog=0
    )


class TestComparisonGenerator:
    def test_generates_weighted_candidates(self):
        collection = BlockCollection(max_block_size=None)
        for pid, text in [(0, "alpha beta"), (1, "alpha beta"), (2, "alpha")]:
            collection.add_profile(make_profile(pid, text))
        generator = ComparisonGenerator(beta=0.01)  # keep all blocks
        kept, operations = generator.generate(
            collection, make_profile(1, "alpha beta"), lambda pid: True
        )
        partners = {w.comparison().other(1) for w in kept}
        assert 0 in partners  # strong candidate survives I-WNP
        assert operations >= len(kept)

    def test_ghosting_limits_blocks(self):
        collection = BlockCollection(max_block_size=None)
        # profile 0 sits in a tiny block ('rare') and a large one ('common')
        collection.add_profile(make_profile(0, "rare common"))
        collection.add_profile(make_profile(1, "rare common"))
        for pid in range(2, 12):
            collection.add_profile(make_profile(pid, "common"))
        generator = ComparisonGenerator(beta=1.0)  # only smallest-size blocks
        kept, _ = generator.generate(
            collection, make_profile(0, "rare common"), lambda pid: True
        )
        partners = {w.comparison().other(0) for w in kept}
        assert partners == {1}  # candidates from 'common' were ghosted away

    def test_clean_clean_partners_cross_source(self):
        collection = BlockCollection(clean_clean=True, max_block_size=None)
        collection.add_profile(make_profile(0, "shared", source=0))
        collection.add_profile(make_profile(1, "shared", source=0))
        collection.add_profile(make_profile(2, "shared", source=1))
        generator = ComparisonGenerator(beta=0.01)
        kept, _ = generator.generate(
            collection, make_profile(2, "shared", source=1), lambda pid: True
        )
        partners = {w.comparison().other(2) for w in kept}
        assert partners <= {0, 1}
        assert partners  # found the cross-source candidates


class TestGetComparisons:
    def _collection(self):
        collection = BlockCollection(max_block_size=None)
        collection.add_profile(make_profile(0, "small big"))
        collection.add_profile(make_profile(1, "small big"))
        collection.add_profile(make_profile(2, "big"))
        return collection

    def test_smallest_block_first(self):
        refill = GetComparisons()
        collection = self._collection()
        batch, _ = refill.next_batch(collection, set())
        assert {w.pair for w in batch} == {(0, 1)}  # 'small' (size 2) first

    def test_progression_through_blocks(self):
        refill = GetComparisons()
        collection = self._collection()
        refill.next_batch(collection, set())
        batch, _ = refill.next_batch(collection, set())
        assert {w.pair for w in batch} == {(0, 1), (0, 2), (1, 2)}  # 'big'

    def test_exhaustion(self):
        refill = GetComparisons()
        collection = self._collection()
        refill.next_batch(collection, set())
        refill.next_batch(collection, set())
        assert refill.next_batch(collection, set()) is None
        assert refill.is_exhausted(collection)

    def test_executed_pairs_filtered(self):
        refill = GetComparisons()
        collection = self._collection()
        batch, operations = refill.next_batch(collection, {(0, 1)})
        assert batch == []
        assert operations == 0

    def test_grown_blocks_revisited(self):
        refill = GetComparisons()
        collection = self._collection()
        while refill.next_batch(collection, set()) is not None:
            pass
        collection.add_profile(make_profile(3, "small"))
        assert not refill.is_exhausted(collection)
        batch, _ = refill.next_batch(collection, set())
        new_pairs = {w.pair for w in batch}
        assert (0, 3) in new_pairs and (1, 3) in new_pairs

    def test_reset(self):
        refill = GetComparisons()
        collection = self._collection()
        refill.next_batch(collection, set())
        refill.reset()
        batch, _ = refill.next_batch(collection, set())
        assert {w.pair for w in batch} == {(0, 1)}


class TestPierSystemFindK:
    def _system(self) -> PierSystem:
        return PierSystem(IPCS(), adaptive_k=AdaptiveK(initial=64))

    def test_emit_respects_k(self):
        system = self._system()
        profiles = tuple(make_profile(pid, "shared extra%d" % (pid % 2)) for pid in range(30))
        system.ingest(Increment(0, profiles))
        system.adaptive_k = AdaptiveK(initial=4, minimum=4, maximum=4)
        result = system.emit(_stats())
        assert len(result.batch) <= 4

    def test_k_grows_with_cheap_matcher(self):
        system = self._system()
        before = system.adaptive_k.value
        system._find_k(_stats(input_rate=0.001, mean_match_cost=1e-6))
        assert system.adaptive_k.value > before

    def test_k_shrinks_with_expensive_matcher(self):
        system = self._system()
        before = system.adaptive_k.value
        system._find_k(_stats(input_rate=1000.0, mean_match_cost=1.0))
        assert system.adaptive_k.value < before

    def test_no_duplicate_emissions(self):
        system = self._system()
        profiles = tuple(make_profile(pid, "shared") for pid in range(10))
        system.ingest(Increment(0, profiles))
        emitted: set[tuple[int, int]] = set()
        for _ in range(100):
            result = system.emit(_stats())
            if not result.batch:
                idle = system.on_idle(_stats())
                if idle is None:
                    break
                continue
            for pair in result.batch:
                assert pair not in emitted
                emitted.add(pair)

    def test_ingest_charges_cost(self):
        system = self._system()
        cost = system.ingest(Increment(0, (make_profile(0, "alpha beta"),)))
        assert cost > 0

    def test_on_idle_exhausts_eventually(self):
        system = self._system()
        system.ingest(Increment(0, (make_profile(0, "a1 b1"), make_profile(1, "a1 b1"))))
        for _ in range(1000):
            result = system.emit(_stats())
            if result.batch:
                continue
            if system.on_idle(_stats()) is None:
                break
        else:
            pytest.fail("system never exhausted")

    def test_profile_lookup(self):
        system = self._system()
        profile = make_profile(3, "alpha")
        system.ingest(Increment(0, (profile,)))
        assert system.profile(3) is profile

    def test_describe(self):
        system = self._system()
        description = system.describe()
        assert description["strategy"] == "I-PCS"
