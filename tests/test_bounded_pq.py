"""Tests for the bounded max-priority queue, incl. hypothesis model checks."""

from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.priority.bounded_pq import BoundedPriorityQueue


class TestBasics:
    def test_dequeue_order_descending(self):
        queue = BoundedPriorityQueue()
        for item, key in [("a", 1.0), ("b", 3.0), ("c", 2.0)]:
            queue.enqueue(item, key)
        assert list(queue.drain()) == ["b", "c", "a"]

    def test_fifo_on_ties(self):
        queue = BoundedPriorityQueue()
        queue.enqueue("first", 1.0)
        queue.enqueue("second", 1.0)
        assert queue.dequeue() == "first"
        assert queue.dequeue() == "second"

    def test_len_and_bool(self):
        queue = BoundedPriorityQueue()
        assert not queue
        queue.enqueue("x", 1.0)
        assert queue
        assert len(queue) == 1

    def test_dequeue_empty_raises(self):
        with pytest.raises(IndexError):
            BoundedPriorityQueue().dequeue()

    def test_peek(self):
        queue = BoundedPriorityQueue()
        queue.enqueue("a", 1.0)
        queue.enqueue("b", 2.0)
        assert queue.peek() == "b"
        assert queue.peek_key() == 2.0
        assert len(queue) == 2  # peek does not remove

    def test_peek_empty_raises(self):
        with pytest.raises(IndexError):
            BoundedPriorityQueue().peek()
        with pytest.raises(IndexError):
            BoundedPriorityQueue().peek_key()

    def test_dequeue_with_key(self):
        queue = BoundedPriorityQueue()
        queue.enqueue("a", 4.2)
        assert queue.dequeue_with_key() == ("a", 4.2)

    def test_tuple_keys(self):
        queue = BoundedPriorityQueue()
        queue.enqueue("small-block", (-2, 1.0))
        queue.enqueue("large-block", (-10, 9.0))
        queue.enqueue("small-block-heavy", (-2, 5.0))
        # (-2, 5.0) > (-2, 1.0) > (-10, 9.0)
        assert list(queue.drain()) == ["small-block-heavy", "small-block", "large-block"]

    def test_clear(self):
        queue = BoundedPriorityQueue()
        queue.enqueue("a", 1.0)
        queue.clear()
        assert len(queue) == 0


class TestBounding:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            BoundedPriorityQueue(capacity=0)

    def test_eviction_of_minimum(self):
        queue = BoundedPriorityQueue(capacity=2)
        assert queue.enqueue("low", 1.0)
        assert queue.enqueue("high", 3.0)
        assert queue.enqueue("mid", 2.0)  # evicts "low"
        assert queue.evictions == 1
        assert sorted(queue.drain()) == ["high", "mid"]

    def test_rejection_of_underweight(self):
        queue = BoundedPriorityQueue(capacity=2)
        queue.enqueue("a", 2.0)
        queue.enqueue("b", 3.0)
        assert not queue.enqueue("c", 1.0)
        assert queue.rejections == 1
        assert len(queue) == 2

    def test_equal_key_rejected_when_full(self):
        queue = BoundedPriorityQueue(capacity=1)
        queue.enqueue("a", 1.0)
        assert not queue.enqueue("b", 1.0)

    def test_eviction_takes_newest_of_equal_minimums(self):
        queue = BoundedPriorityQueue(capacity=2)
        queue.enqueue("older", 1.0)
        queue.enqueue("newer", 1.0)
        assert queue.enqueue("top", 2.0)
        assert list(queue.drain()) == ["top", "older"]

    def test_size_never_exceeds_capacity(self):
        queue = BoundedPriorityQueue(capacity=3)
        for i in range(100):
            queue.enqueue(i, float(i % 17))
            assert len(queue) <= 3


class TestHypothesisModel:
    @given(st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False), max_size=80))
    @settings(max_examples=80)
    def test_unbounded_matches_sorted_reference(self, keys):
        queue = BoundedPriorityQueue()
        for index, key in enumerate(keys):
            queue.enqueue(index, key)
        drained_keys = []
        while queue:
            _, key = queue.dequeue_with_key()
            drained_keys.append(key)
        assert drained_keys == sorted(keys, reverse=True)

    @given(
        st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=60),
        st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=80)
    def test_bounded_keeps_heaviest(self, keys, capacity):
        """After all insertions, the queue holds a maximal multiset of keys."""
        queue = BoundedPriorityQueue(capacity=capacity)
        for index, key in enumerate(keys):
            queue.enqueue(index, key)
        kept = sorted((queue.dequeue_with_key()[1] for _ in range(len(queue))), reverse=True)
        expected = sorted(keys, reverse=True)[: len(kept)]
        assert kept == expected
        assert len(kept) <= capacity

    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 20)), max_size=80))
    @settings(max_examples=60)
    def test_interleaved_ops_vs_model(self, operations):
        """Interleaved enqueue/dequeue agrees with a sorted-list model."""
        queue = BoundedPriorityQueue()
        model: list[int] = []
        counter = 0
        for is_dequeue, key in operations:
            if is_dequeue and model:
                expected = max(model)
                model.remove(expected)
                _, got = queue.dequeue_with_key()
                assert got == expected
            else:
                queue.enqueue(counter, key)
                model.append(key)
                counter += 1
        assert len(queue) == len(model)


# ----------------------------------------------------------------------
# Model test: the queue against a sorted-list oracle
# ----------------------------------------------------------------------
FLOAT_KEYS = st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0])
TUPLE_KEYS = st.tuples(st.integers(-3, 0), st.sampled_from([0.0, 1.0, 2.5]))
OPERATIONS = ("enqueue", "dequeue", "dequeue_with_key", "peek_key", "deepcopy")


class _SortedListOracle:
    """Reference semantics: live ``(key, seq, item)`` entries in a list.

    Top = largest key, oldest first on ties; eviction victim = smallest
    key, newest first on ties; a full queue admits only a key strictly
    greater than the victim's.
    """

    def __init__(self, capacity):
        self.capacity = capacity
        self.entries: list[tuple] = []
        self.seq = 0
        self.evictions = 0
        self.rejections = 0

    def _top(self):
        return sorted(self.entries, key=lambda e: (e[0], -e[1]))[-1]

    def enqueue(self, item, key) -> bool:
        if self.capacity is not None and len(self.entries) >= self.capacity:
            victim = sorted(self.entries, key=lambda e: (e[0], -e[1]))[0]
            if not key > victim[0]:
                self.rejections += 1
                return False
            self.entries.remove(victim)
            self.evictions += 1
        self.entries.append((key, self.seq, item))
        self.seq += 1
        return True

    def dequeue_with_key(self):
        top = self._top()
        self.entries.remove(top)
        return top[2], top[0]


@st.composite
def _scripts(draw):
    keys = draw(st.sampled_from([FLOAT_KEYS, TUPLE_KEYS]))
    capacity = draw(st.sampled_from([None, 1, 2, 3, 5]))
    script = draw(
        st.lists(
            st.tuples(st.sampled_from(OPERATIONS), keys),
            max_size=60,
        )
    )
    return capacity, script


class TestOracleModel:
    @given(_scripts())
    @settings(max_examples=300, deadline=None)
    def test_interleaved_operations_match_oracle(self, case):
        capacity, script = case
        queue = BoundedPriorityQueue(capacity)
        oracle = _SortedListOracle(capacity)
        for step, (operation, key) in enumerate(script):
            if operation == "enqueue":
                assert queue.enqueue(step, key) == oracle.enqueue(step, key)
            elif operation == "deepcopy":
                queue = copy.deepcopy(queue)
            elif not oracle.entries:
                with pytest.raises(IndexError):
                    getattr(queue, operation)()
            elif operation == "peek_key":
                assert queue.peek_key() == oracle._top()[0]
            elif operation == "dequeue":
                assert queue.dequeue() == oracle.dequeue_with_key()[0]
            else:
                assert queue.dequeue_with_key() == oracle.dequeue_with_key()
            assert len(queue) == len(oracle.entries)
            assert queue.evictions == oracle.evictions
            assert queue.rejections == oracle.rejections
        drained = [queue.dequeue_with_key() for _ in range(len(queue))]
        assert drained == [oracle.dequeue_with_key() for _ in range(len(oracle.entries))]

    @pytest.mark.parametrize("keys", [[3.0, 1.0, 2.0, 2.0], [(-1, 1.0), (-2, 5.0), (-1, 1.0)]])
    def test_deepcopy_before_and_after_min_heap(self, keys):
        """A copy taken before the queue first fills, and one taken after
        (once the eviction heap exists), both replay like the original."""
        queue = BoundedPriorityQueue(capacity=3)
        oracle = _SortedListOracle(3)
        for step, key in enumerate(keys[:2]):
            queue.enqueue(step, key)
            oracle.enqueue(step, key)
        assert queue._min_heap is None
        queue = copy.deepcopy(queue)
        for step, key in enumerate(keys[2:] + keys, start=2):
            assert queue.enqueue(step, key) == oracle.enqueue(step, key)
        assert queue._min_heap is not None
        queue = copy.deepcopy(queue)
        assert queue.enqueue(99, keys[0]) == oracle.enqueue(99, keys[0])
        assert (queue.evictions, queue.rejections) == (oracle.evictions, oracle.rejections)
        drained = [queue.dequeue_with_key() for _ in range(len(queue))]
        assert drained == [oracle.dequeue_with_key() for _ in range(len(oracle.entries))]

    def test_unbounded_queue_never_builds_min_heap(self):
        queue = BoundedPriorityQueue()
        for step in range(50):
            queue.enqueue(step, float(step % 7))
        queue.dequeue()
        assert queue._min_heap is None
