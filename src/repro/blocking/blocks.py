"""Blocks and the incrementally maintained block collection.

Token blocking places each profile in one block per token appearing in its
attribute values.  The :class:`BlockCollection` is the shared substrate of
every algorithm in this library: it is built incrementally (profiles are
only ever *added*, as increments arrive) and maintains both the token →
profiles mapping and its inverse (profile → blocks), which the weighting
schemes and the single-sweep weighting kernel
(:mod:`repro.metablocking.sweep`) read on every comparison.

:class:`BlockCollection` is also the reference implementation of the
:class:`~repro.blocking.substrate.BlockingSubstrate` protocol: alternative
substrates (the MinHash-LSH tier in :mod:`repro.blocking.lsh`) subclass it
and override :meth:`BlockCollection.profile_keys` — the single hook that
decides which blocking keys a profile lands in — inheriting the purge,
intern, cache-invalidation and snapshot semantics unchanged.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, product
from typing import Iterable, Iterator

from repro.core.profile import EntityProfile

__all__ = ["Block", "BlockCollection"]


class Block:
    """A single block: the profiles sharing one blocking key (token).

    Profiles are kept per source so that Clean-Clean ER can generate only
    cross-source comparisons without filtering after the fact.  Each block
    carries a dense integer id (``bid``) interned by its owning collection;
    ids are assigned in key-creation order and survive purging, so they are
    stable for the lifetime of a run.
    """

    __slots__ = ("key", "bid", "members_by_source", "_size", "_cc_value", "_cc_kind")

    def __init__(self, key: str, bid: int = -1) -> None:
        self.key = key
        self.bid = bid
        self.members_by_source: dict[int, list[int]] = {}
        self._size = 0
        self._cc_value = 0
        self._cc_kind: bool | None = None  # None → cardinality cache invalid

    def add(self, pid: int, source: int) -> None:
        self.members_by_source.setdefault(source, []).append(pid)
        self._size += 1
        self._cc_kind = None

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[int]:
        for members in self.members_by_source.values():
            yield from members

    def members(self, source: int) -> tuple[int, ...]:
        """Members of one source, as an immutable snapshot.

        A tuple is returned (not the internal list) so that strategies
        cannot corrupt the index by mutating what they are handed.
        """
        return tuple(self.members_by_source.get(source, ()))

    def comparison_count(self, clean_clean: bool) -> int:
        """Number of comparisons ||b|| this block can generate.

        Cached until the next :meth:`add` — ARCS weighting and the
        smallest-block-first refill consult it once per co-occurrence, so
        recomputing the product per call is measurable on hot paths.
        """
        if self._cc_kind is clean_clean:
            return self._cc_value
        if clean_clean:
            count = len(self.members_by_source.get(0, ())) * len(
                self.members_by_source.get(1, ())
            )
        else:
            count = self._size * (self._size - 1) // 2
        self._cc_value = count
        self._cc_kind = clean_clean
        return count

    def pairs(self, clean_clean: bool) -> Iterator[tuple[int, int]]:
        """Iterate all candidate pid pairs of this block (not canonicalized).

        Clean-Clean: source-0 × source-1 members; dirty: every 2-combination
        in member order.  Both are generated in C by :mod:`itertools`.
        """
        if clean_clean:
            return product(
                self.members_by_source.get(0, ()), self.members_by_source.get(1, ())
            )
        return combinations(list(self), 2)

    def __repr__(self) -> str:
        return f"Block(key={self.key!r}, size={self._size})"


class BlockCollection:
    """Incrementally maintained token → block index with its inverse.

    Parameters
    ----------
    clean_clean:
        Whether the dataset is Clean-Clean (controls pair generation and
        comparison counting inside blocks).
    max_block_size:
        Block purging threshold: a block that grows beyond this many
        profiles is dropped and its token blacklisted, since oversized
        blocks yield an excessive number of uninformative comparisons
        (incremental block purging, per Gazzarri & Herschel ICDE 2021).
        ``None`` disables purging.
    """

    #: Whether :meth:`allows_pair` can ever prune — ``False`` here, so hot
    #: paths skip the per-pair call entirely on the token substrate.  The
    #: LSH prefilter substrate overrides this.
    prunes_candidates = False

    __slots__ = (
        "clean_clean",
        "max_block_size",
        "_blocks",
        "_blocks_of",
        "_purged_keys",
        "_total_comparisons",
        "_key_ids",
        "_profile_blocks",
    )

    def __init__(self, clean_clean: bool = False, max_block_size: int | None = 200) -> None:
        if max_block_size is not None and max_block_size < 2:
            raise ValueError("max_block_size must be >= 2 (or None)")
        self.clean_clean = clean_clean
        self.max_block_size = max_block_size
        self._blocks: dict[str, Block] = {}
        self._blocks_of: dict[int, set[str]] = {}
        self._purged_keys: set[str] = set()
        self._total_comparisons = 0
        # Dense int id per block key, assigned in creation order.  Purged
        # keys keep their id (they are blacklisted, never recreated), so ids
        # are stable and never reused.
        self._key_ids: dict[str, int] = {}
        # Per-profile cache of the sorted live-block tuple behind
        # iter_partner_blocks/blocks_of_as_blocks; invalidated when the
        # profile's key set changes (its own add, or a purge touching it).
        self._profile_blocks: dict[int, tuple[Block, ...]] = {}

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def add_profile(self, profile: EntityProfile) -> set[str]:
        """Index a newly arrived profile; return the keys of its live blocks.

        Idempotent per profile: re-adding a pid that is already indexed is an
        error, because re-indexing would double-count comparisons.
        """
        if profile.pid in self._blocks_of:
            raise ValueError(f"profile {profile.pid} already indexed")
        keys: set[str] = set()
        for token in self.profile_keys(profile):
            if token in self._purged_keys:
                continue
            block = self._blocks.get(token)
            if block is None:
                block = Block(token, self._intern_key(token))
                self._blocks[token] = block
            if self.clean_clean:
                gained = len(block.members_by_source.get(1 - profile.source, ()))
            else:
                gained = len(block)
            block.add(profile.pid, profile.source)
            self._total_comparisons += gained
            if self.max_block_size is not None and len(block) > self.max_block_size:
                self._purge_block(token)
            else:
                keys.add(token)
        self._blocks_of[profile.pid] = keys
        self._profile_blocks.pop(profile.pid, None)
        return keys

    def profile_keys(self, profile: EntityProfile) -> Iterable[str]:
        """The blocking keys ``profile`` belongs in — the substrate hook.

        Token blocking keys a profile by its tokens; subclasses derive keys
        differently (MinHash bucket keys in :mod:`repro.blocking.lsh`).
        Per-key indexing effects are order-independent, so any iteration
        order produces the identical collection.
        """
        return profile.tokens()

    def _intern_key(self, key: str) -> int:
        bid = self._key_ids.get(key)
        if bid is None:
            bid = len(self._key_ids)
            self._key_ids[key] = bid
        return bid

    def _purge_block(self, key: str) -> None:
        block = self._blocks.pop(key)
        self._purged_keys.add(key)
        self._total_comparisons -= block.comparison_count(self.clean_clean)
        for pid in block:
            member_keys = self._blocks_of.get(pid)
            if member_keys is not None:
                member_keys.discard(key)
            self._profile_blocks.pop(pid, None)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._blocks)

    def __contains__(self, key: str) -> bool:
        return key in self._blocks

    def __iter__(self) -> Iterator[Block]:
        return iter(self._blocks.values())

    def get(self, key: str) -> Block | None:
        return self._blocks.get(key)

    def key_id(self, key: str) -> int | None:
        """Dense interned id of a block key (stable, survives purging)."""
        return self._key_ids.get(key)

    def blocks_of(self, pid: int) -> frozenset[str]:
        """Keys of the live blocks containing ``pid`` (B(p) in the paper).

        An immutable view: the internal key set is live, shared state
        (purges mutate it in place), so handing it out would let callers
        alias-mutate the index.
        """
        keys = self._blocks_of.get(pid)
        return frozenset(keys) if keys else frozenset()

    def block_count_of(self, pid: int) -> int:
        """|B(p)| — number of live blocks containing ``pid`` (O(1))."""
        keys = self._blocks_of.get(pid)
        return len(keys) if keys else 0

    def iter_partner_blocks(self, pid: int) -> tuple[Block, ...]:
        """The live blocks containing ``pid``, sorted by key — cached.

        This is the substrate of the single-sweep weighting kernel: one
        call hands back every block whose members are ``pid``'s candidate
        partners, purged blocks already skipped, in a deterministic
        (hash-seed independent) order.  The tuple is cached per profile and
        invalidated only when the profile's key set changes, so repeated
        sweeps over the same profile do not re-sort.
        """
        cached = self._profile_blocks.get(pid)
        if cached is None:
            blocks = self._blocks
            cached = tuple(
                block
                for block in (blocks.get(key) for key in sorted(self._blocks_of.get(pid, ())))
                if block is not None
            )
            self._profile_blocks[pid] = cached
        return cached

    def blocks_of_as_blocks(self, pid: int) -> tuple[Block, ...]:
        """The live blocks containing ``pid``, as Block objects.

        Returned in sorted key order: ``_blocks_of`` stores key *sets*, whose
        iteration order varies with the interpreter's hash seed, and this
        order feeds candidate generation (block ghosting, I-WNP, queue
        tie-breaking).  Sorting keeps runs bit-identical across hosts and
        checkpoint restores.  Alias of :meth:`iter_partner_blocks`.
        """
        return self.iter_partner_blocks(pid)

    def partner_counts(self, pid: int, source: int | None = None) -> Counter:
        """Co-occurrence counts ``|B(pid) ∩ B(y)|`` for every partner ``y``.

        One sweep over ``pid``'s live blocks; the CBS weight of every
        candidate comparison of ``pid`` in a single pass (``pid`` itself is
        removed from the result).  With ``source`` given on a Clean-Clean
        collection, only cross-source partners are counted.
        """
        counts: Counter = Counter()
        if self.clean_clean and source is not None:
            other = 1 - source
            for block in self.iter_partner_blocks(pid):
                members = block.members_by_source.get(other)
                if members:
                    counts.update(members)
        else:
            for block in self.iter_partner_blocks(pid):
                for members in block.members_by_source.values():
                    counts.update(members)
            del counts[pid]
        return counts

    def profiles_indexed(self) -> int:
        return len(self._blocks_of)

    def is_indexed(self, pid: int) -> bool:
        return pid in self._blocks_of

    def total_comparisons(self) -> int:
        """Aggregate ||b|| over all live blocks (with multiplicity).

        Maintained incrementally, so this is O(1) — it is consulted on every
        increment by the GLOBAL baseline adaptations.
        """
        return self._total_comparisons

    def keys(self) -> Iterable[str]:
        return self._blocks.keys()

    def purged_keys(self) -> frozenset[str]:
        return frozenset(self._purged_keys)

    def allows_pair(self, pid_x: int, pid_y: int) -> bool:
        """Candidate pre-filter hook: may this pair become a candidate?

        Token blocking never prunes (``prunes_candidates`` is ``False``, so
        callers do not even dispatch here); the LSH prefilter substrate
        overrides this with a signature co-bucket test.
        """
        return True

    def drain_metrics(self) -> dict[str, float]:
        """Counter deltas accumulated since the last drain (then reset).

        Substrates with their own telemetry (``blocking.lsh.*``) buffer it
        on the collection — which rides through checkpoints via deepcopy —
        and the owning system flushes the deltas into the run's metrics
        registry at its ingest/idle boundaries.  The token substrate has
        nothing to report.
        """
        return {}

    def common_blocks(self, pid_x: int, pid_y: int) -> int:
        """|B(p_x) ∩ B(p_y)| — the raw ingredient of the CBS weight."""
        keys_x = self._blocks_of.get(pid_x)
        keys_y = self._blocks_of.get(pid_y)
        if not keys_x or not keys_y:
            return 0
        return len(keys_x & keys_y)

    def __repr__(self) -> str:
        return (
            f"BlockCollection(blocks={len(self._blocks)}, "
            f"profiles={len(self._blocks_of)}, purged={len(self._purged_keys)})"
        )
