"""Bit-identity tests for the single-sweep weighting kernel.

The sweep path (:mod:`repro.metablocking.sweep`) must reproduce the legacy
per-pair weighting *exactly* — same candidates, same order, same float
weights — for all four schemes, on dirty and Clean-Clean collections, with
purged blocks and block ghosting in play, and independent of
``PYTHONHASHSEED``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.blocking.blocks import BlockCollection
from repro.blocking.substrate import BlockingConfig, make_collection
from repro.blocking.cleaning import block_ghosting
from repro.core.dataset import Dataset, ERKind
from repro.core.increments import make_stream_plan, split_into_increments
from repro.evaluation.experiments import (
    WEIGHTING_SYSTEMS,
    make_matcher,
    make_system,
)
from repro.metablocking.sweep import (
    partner_weights,
    sweep_partner_weights,
    sweep_weights,
)
from repro.metablocking.weights import make_scheme
from repro.metablocking.wnp import incremental_wnp, sweep_wnp
from repro.pier.base import ComparisonGenerator
from repro.streaming.engine import StreamingEngine
from repro.streaming.pipelined import PipelinedStreamingEngine

SCHEME_NAMES = ("cbs", "ecbs", "js", "arcs")


def _index(dataset: Dataset, max_block_size: int | None) -> BlockCollection:
    collection = BlockCollection(
        clean_clean=dataset.kind is ERKind.CLEAN_CLEAN, max_block_size=max_block_size
    )
    for profile in dataset.profiles:
        collection.add_profile(profile)
    return collection


def _legacy_candidates(collection, profile, beta):
    """Candidate pids exactly as the legacy generate path gathers them."""
    blocks = block_ghosting(list(collection.blocks_of_as_blocks(profile.pid)), beta)
    candidates: list[int] = []
    for block in blocks:
        if collection.clean_clean:
            partners = block.members(1 - profile.source)
        else:
            partners = tuple(block)
        candidates.extend(pid for pid in partners if pid != profile.pid)
    return candidates


@pytest.fixture(scope="module")
def dirty_collection(request):
    dataset = request.getfixturevalue("small_census")
    # small max_block_size forces purged blocks into the picture
    return dataset, _index(dataset, max_block_size=20)


@pytest.fixture(scope="module")
def cc_collection(request):
    dataset = request.getfixturevalue("small_dblp_acm")
    return dataset, _index(dataset, max_block_size=30)


class TestSweepBitIdentity:
    @pytest.mark.parametrize("scheme_name", SCHEME_NAMES)
    def test_dirty_with_purged_blocks_and_ghosting(self, dirty_collection, scheme_name):
        dataset, collection = dirty_collection
        scheme = make_scheme(scheme_name)
        checked = 0
        for profile in dataset.profiles[:120]:
            legacy = incremental_wnp(
                collection,
                profile.pid,
                _legacy_candidates(collection, profile, beta=0.2),
                scheme,
            )
            swept = sweep_wnp(
                collection, profile.pid, lambda pid: True, scheme, beta=0.2
            )
            assert swept.kept == legacy.kept  # pairs, order, and exact floats
            assert swept.pruned == legacy.pruned
            assert swept.weighting_cost_units == legacy.weighting_cost_units
            checked += len(legacy.kept)
        assert checked > 0  # the fixture produced real candidate lists

    @pytest.mark.parametrize("scheme_name", SCHEME_NAMES)
    def test_clean_clean_with_source_hint(self, cc_collection, scheme_name):
        dataset, collection = cc_collection
        scheme = make_scheme(scheme_name)
        sources = {profile.pid: profile.source for profile in dataset.profiles}
        checked = 0
        for profile in dataset.profiles[:120]:
            valid = lambda pid, s=profile.source: sources[pid] != s
            legacy = incremental_wnp(
                collection,
                profile.pid,
                _legacy_candidates(collection, profile, beta=0.2),
                scheme,
            )
            swept = sweep_wnp(
                collection,
                profile.pid,
                valid,
                scheme,
                beta=0.2,
                source=profile.source,
            )
            assert swept.kept == legacy.kept
            assert swept.weighting_cost_units == legacy.weighting_cost_units
            checked += len(legacy.kept)
        assert checked > 0

    @pytest.mark.parametrize("scheme_name", SCHEME_NAMES)
    def test_generator_paths_identical(self, cc_collection, scheme_name):
        """ComparisonGenerator(per_pair=True/False) emit identical streams."""
        dataset, collection = cc_collection
        scheme = make_scheme(scheme_name)
        sweep_gen = ComparisonGenerator(beta=0.2, scheme=scheme)
        pair_gen = ComparisonGenerator(beta=0.2, scheme=scheme, per_pair=True)
        sources = {profile.pid: profile.source for profile in dataset.profiles}
        for profile in dataset.profiles[:80]:
            valid = lambda pid, s=profile.source: sources[pid] != s
            assert sweep_gen.generate(collection, profile, valid) == pair_gen.generate(
                collection, profile, valid
            )

    @pytest.mark.parametrize("scheme_name", SCHEME_NAMES)
    def test_partner_weights_matches_per_pair_calls(self, dirty_collection, scheme_name):
        dataset, collection = dirty_collection
        scheme = make_scheme(scheme_name)
        for profile in dataset.profiles[:60]:
            partners = list(
                dict.fromkeys(_legacy_candidates(collection, profile, beta=1.0))
            )
            # include a partner with no shared live block: weight must be 0.0
            partners.append(max(p.pid for p in dataset.profiles) + 1000)
            aggregated = partner_weights(collection, profile.pid, partners, scheme)
            for partner in partners:
                assert aggregated[partner] == scheme.weight(
                    collection, profile.pid, partner
                )

    def test_sweep_weights_no_ghosting_vs_beta_one(self, dirty_collection):
        """beta=1.0 ghosting keeps every block >= threshold logic sanity."""
        dataset, collection = dirty_collection
        scheme = make_scheme("cbs")
        profile = dataset.profiles[0]
        unghosted = sweep_weights(collection, profile.pid, lambda pid: True, scheme)
        assert unghosted == [
            (partner, scheme.weight(collection, profile.pid, partner))
            for partner, _ in unghosted
        ]

    def test_sweep_weights_beta_validation(self, dirty_collection):
        _, collection = dirty_collection
        with pytest.raises(ValueError):
            sweep_weights(collection, 0, lambda pid: True, beta=0.0)
        with pytest.raises(ValueError):
            sweep_weights(collection, 0, lambda pid: True, beta=1.5)

    def test_unknown_scheme_falls_back_to_per_pair(self, dirty_collection):
        dataset, collection = dirty_collection

        class HalfCBS:
            name = "half-cbs"

            def weight(self, coll, pid_x, pid_y):
                return coll.common_blocks(pid_x, pid_y) / 2.0

        scheme = HalfCBS()
        profile = dataset.profiles[1]
        swept = sweep_weights(collection, profile.pid, lambda pid: True, scheme)
        for partner, weight in swept:
            assert weight == scheme.weight(collection, profile.pid, partner)


class TestPartnerWeightsParity:
    """``partner_weights`` (per-pair block-set intersections) agrees with
    ``scheme.weight``, with the counting sweep and with
    ``sweep_partner_weights`` on every substrate."""

    @pytest.mark.parametrize("substrate", ("token", "lsh", "lsh-prefilter"))
    @pytest.mark.parametrize("scheme_name", SCHEME_NAMES)
    def test_every_pair_matches(self, small_census, substrate, scheme_name):
        collection = make_collection(BlockingConfig(substrate=substrate), max_block_size=12)
        for profile in small_census.profiles:
            collection.add_profile(profile)
        assert collection.purged_keys()
        scheme = make_scheme(scheme_name)
        bystanders = [profile.pid for profile in small_census.profiles[:40]]
        checked = 0
        for profile in small_census.profiles[:80]:
            swept = dict(sweep_weights(collection, profile.pid, None, scheme))
            partners = list(swept) + [pid for pid in bystanders if pid != profile.pid]
            weights = partner_weights(collection, profile.pid, partners, scheme)
            assert list(weights) == list(dict.fromkeys(partners))
            assert sweep_partner_weights(collection, profile.pid, partners, scheme) == weights
            for partner, weight in weights.items():
                assert weight == scheme.weight(collection, profile.pid, partner)
                assert weight == swept.get(partner, 0.0)
                checked += 1
        assert checked > 1000


#: Systems that weigh comparisons they already hold (per pair, or for the
#: PPS block graph by a counting sweep); they have no per-pair switch.
HELD_PAIR_SYSTEMS = frozenset(
    {"I-PBS", "PPS", "PPS-GLOBAL", "PPS-LOCAL", "PBS", "PBS-GLOBAL"}
)


class _ReferenceCBS:
    """CBS counted block by block: an oracle independent of both the
    counting sweep and the block-set intersection."""

    name = "CBS"

    def weight(self, collection, pid_x, pid_y):
        keys_y = collection.blocks_of(pid_y)
        return float(sum(1 for key in collection.blocks_of(pid_x) if key in keys_y))


class TestEngineLevelParity:
    """Sweep and per-pair weighting give identical runs.

    Systems with the ``--per-pair-weighting`` switch run both ways; the
    others run again on a reference CBS implementation.
    """

    @pytest.mark.parametrize("engine_cls", [StreamingEngine, PipelinedStreamingEngine])
    @pytest.mark.parametrize("system_name", sorted(WEIGHTING_SYSTEMS | HELD_PAIR_SYSTEMS))
    def test_full_run_bit_identical(self, system_name, engine_cls, small_dblp_acm):
        dataset = small_dblp_acm
        increments = split_into_increments(dataset, 8, seed=0)
        plan = make_stream_plan(increments, rate=None)

        def run(**overrides):
            system = make_system(system_name, dataset, **overrides)
            engine = engine_cls(make_matcher("JS"), budget=30.0)
            return engine.run(system, plan, dataset.ground_truth)

        if system_name in WEIGHTING_SYSTEMS:
            reference = {"per_pair_weighting": True}
        else:
            reference = {"scheme": _ReferenceCBS()}
        result, reference_result = run(), run(**reference)
        assert result.match_events == reference_result.match_events
        assert result.curve.points == reference_result.curve.points
        assert result.comparisons_executed == reference_result.comparisons_executed
        assert result.duplicates == reference_result.duplicates


_HASHSEED_SCRIPT = """
from repro.datasets.registry import load_dataset
from repro.blocking.blocks import BlockCollection
from repro.metablocking.weights import make_scheme
from repro.metablocking.wnp import sweep_wnp

dataset = load_dataset("dblp_acm", scale=0.1)
collection = BlockCollection(clean_clean=True, max_block_size=25)
for profile in dataset.profiles:
    collection.add_profile(profile)
sources = {profile.pid: profile.source for profile in dataset.profiles}
for scheme_name in ("cbs", "ecbs", "js", "arcs"):
    scheme = make_scheme(scheme_name)
    for profile in dataset.profiles[:40]:
        valid = lambda pid, s=profile.source: sources[pid] != s
        result = sweep_wnp(collection, profile.pid, valid, scheme,
                           beta=0.2, source=profile.source)
        for comparison in result.kept:
            print(scheme_name, comparison.left, comparison.right,
                  repr(comparison.weight))
"""


class TestHashSeedStability:
    """The emitted stream must not depend on the interpreter's hash seed."""

    @staticmethod
    def _stream_under_seed(seed: str) -> str:
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

    def test_stream_identical_across_hash_seeds(self):
        out_a = self._stream_under_seed("0")
        out_b = self._stream_under_seed("31337")
        assert out_a == out_b
        assert len(out_a.splitlines()) > 20  # the probe emitted real work
