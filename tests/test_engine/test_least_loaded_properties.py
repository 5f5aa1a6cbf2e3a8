"""Property tests of the closed-form least-loaded router.

:func:`least_loaded_counts` must equal the greedy per-item assignment it
summarizes — each item to the device with the smallest byte counter,
ties to the lowest device id — over the whole input range the serving
lane can reach: up to 64 devices, counters up to 2**40 bytes, item
weights up to 2**20 bytes, up to 10**5 items, and fully tied counters.
The reference is a heap of ``(load, device)`` pairs, which pops exactly
the argmin-with-lowest-id sequence at O(log D) per item; a second test
pins the heap against the literal argmin loop at small ``n``.
"""

from __future__ import annotations

import heapq

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import least_loaded_counts

MAX_DEVICES = 64
MAX_LOAD = 2**40
MAX_WEIGHT = 2**20


def greedy_counts(load: list[int], n: int, w: int) -> list[int]:
    """Per-item greedy assignment through a ``(load, device)`` heap."""
    heap = [(x, d) for d, x in enumerate(load)]
    heapq.heapify(heap)
    counts = [0] * len(load)
    for _ in range(n):
        x, d = heapq.heappop(heap)
        counts[d] += 1
        heapq.heappush(heap, (x + w, d))
    return counts


def argmin_counts(load: list[int], n: int, w: int) -> list[int]:
    """The literal per-item argmin loop the executor's oracle runs."""
    running = np.array(load, dtype=np.int64)
    counts = [0] * len(load)
    for _ in range(n):
        d = int(np.argmin(running))
        counts[d] += 1
        running[d] += w
    return counts


@st.composite
def routing_case(draw, max_items: int, min_items: int = 0):
    """Counters clustered around a base (so several devices compete),
    spread anywhere from all-tied to the full 2**40 range."""
    devices = draw(st.integers(1, MAX_DEVICES))
    w = draw(st.integers(1, MAX_WEIGHT))
    n = draw(st.integers(min_items, max_items))
    base = draw(st.integers(0, MAX_LOAD))
    spread = draw(
        st.sampled_from([0, 1, w, 7 * w + 3, n * w + 1, MAX_LOAD])
    )
    offsets = draw(
        st.lists(
            st.integers(0, spread), min_size=devices, max_size=devices
        )
    )
    load = [min(base + o, MAX_LOAD) for o in offsets]
    return load, n, w


def assert_matches_greedy(load: list[int], n: int, w: int) -> None:
    counts = least_loaded_counts(np.array(load, dtype=np.int64), n, w)
    assert counts.dtype == np.int64
    assert counts.tolist() == greedy_counts(load, n, w)
    assert int(counts.sum()) == n


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=routing_case(max_items=2_000))
def test_matches_greedy(case):
    assert_matches_greedy(*case)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=routing_case(max_items=100_000, min_items=10_000))
def test_matches_greedy_large_n(case):
    assert_matches_greedy(*case)


@settings(max_examples=100, deadline=None)
@given(
    devices=st.integers(1, MAX_DEVICES),
    value=st.integers(0, MAX_LOAD),
    n=st.integers(0, 500),
    w=st.integers(1, MAX_WEIGHT),
)
def test_all_tied_loads(devices, value, n, w):
    """Tied counters fill round-robin from the lowest device id."""
    counts = least_loaded_counts(np.full(devices, value), n, w)
    rounds, extra = divmod(n, devices)
    expected = [rounds + (d < extra) for d in range(devices)]
    assert counts.tolist() == expected


@settings(max_examples=100, deadline=None)
@given(case=routing_case(max_items=60))
def test_heap_reference_is_the_argmin_loop(case):
    load, n, w = case
    assert greedy_counts(load, n, w) == argmin_counts(load, n, w)


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=routing_case(max_items=2_000), data=st.data())
def test_masked_survivors_match_greedy(case, data):
    """The executor's compact-assign-scatter form under a fail set:
    compaction keeps survivors ascending, so ties still go to the
    lowest surviving id and failed devices receive nothing."""
    load, n, w = case
    alive = data.draw(
        st.lists(st.booleans(), min_size=len(load), max_size=len(load))
        .filter(any)
    )
    survivors = [d for d, up in enumerate(alive) if up]
    masked = np.zeros(len(load), dtype=np.int64)
    masked[survivors] = least_loaded_counts(
        np.array([load[d] for d in survivors], dtype=np.int64), n, w
    )
    reference = [0] * len(load)
    compact = greedy_counts([load[d] for d in survivors], n, w)
    for d, count in zip(survivors, compact):
        reference[d] = count
    assert masked.tolist() == reference


class TestRejectsBadInput:
    @pytest.mark.parametrize("n", [0, 1, 5])
    @pytest.mark.parametrize("w", [0, -3])
    def test_nonpositive_weight_rejected_for_every_n(self, n, w):
        with pytest.raises(ValueError, match="weight must be positive"):
            least_loaded_counts(np.zeros(3, dtype=np.int64), n, w)

    def test_items_without_devices_rejected(self):
        with pytest.raises(ValueError, match="zero devices"):
            least_loaded_counts(np.zeros(0, dtype=np.int64), 4, 8)

    def test_no_items_no_devices_is_empty(self):
        counts = least_loaded_counts(np.zeros(0, dtype=np.int64), 0, 8)
        assert counts.dtype == np.int64 and counts.size == 0
