"""Equivalence of the fused :meth:`RequestArena.take` with per-feature takes.

Admission filters every shed microbatch through ``RequestArena.take``,
which gathers all features at once from the stacked offsets matrix.  It
must build exactly what the per-feature :meth:`JaggedBatch.take` builds
— same values, same offsets — and hand the sub-arena an
:attr:`~RequestArena.offsets_mat` equal to its re-stacked offsets.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.batch import JaggedBatch, JaggedFeature
from repro.serving import RequestArena


def make_arena(
    rng: np.random.Generator,
    num_requests: int,
    num_features: int,
    qos: bool,
    null_share: float = 0.3,
) -> RequestArena:
    features = []
    for _ in range(num_features):
        lengths = rng.integers(0, 6, size=num_requests)
        lengths[rng.random(num_requests) < null_share] = 0
        offsets = np.concatenate(([0], np.cumsum(lengths)))
        values = rng.integers(0, 10**6, size=int(offsets[-1]))
        features.append(JaggedFeature(values, offsets))
    arrival = np.sort(rng.random(num_requests) * 10.0)
    return RequestArena(
        JaggedBatch(features),
        arrival,
        base_id=100,
        deadline_ms=arrival + 0.75 if qos else None,
        priority=rng.integers(0, 3, size=num_requests) if qos else None,
    )


def assert_take_equivalent(arena: RequestArena, keep: np.ndarray) -> None:
    indices = np.flatnonzero(keep)
    sub = arena.take(keep)
    expected = arena.batch.take(indices)
    assert sub.num_features == arena.num_features
    assert sub.num_requests == indices.size
    for got, want in zip(sub.batch, expected):
        assert got.values.dtype == want.values.dtype
        np.testing.assert_array_equal(got.values, want.values)
        np.testing.assert_array_equal(got.offsets, want.offsets)
    if arena.num_features:
        np.testing.assert_array_equal(
            sub.offsets_mat, np.stack([f.offsets for f in expected])
        )
    else:
        assert sub.batch.features == []
    np.testing.assert_array_equal(sub.arrival_ms, arena.arrival_ms[indices])
    assert sub.base_id == arena.base_id + (
        int(indices[0]) if indices.size else 0
    )
    assert sub.has_qos == arena.has_qos
    if arena.has_qos:
        np.testing.assert_array_equal(
            sub.deadline_ms, arena.deadline_ms[indices]
        )
        np.testing.assert_array_equal(sub.priority, arena.priority[indices])


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_requests=st.integers(1, 40),
    num_features=st.integers(0, 8),
    qos=st.booleans(),
    keep_share=st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]),
)
def test_random_masks_match_per_feature_take(
    seed, num_requests, num_features, qos, keep_share
):
    rng = np.random.default_rng(seed)
    arena = make_arena(rng, num_requests, num_features, qos)
    keep = rng.random(num_requests) < keep_share
    assert_take_equivalent(arena, keep)
    # Admission takes from microbatch slices, whose offsets matrix is
    # the rebased cut of the parent's rather than a fresh stack.
    start = int(rng.integers(0, num_requests))
    part = arena.slice(start, num_requests)
    assert_take_equivalent(part, keep[start:])


@pytest.mark.parametrize("qos", [False, True])
@pytest.mark.parametrize(
    "pick", ["first", "last", "all", "none"], ids=str
)
def test_edge_masks(qos, pick):
    arena = make_arena(np.random.default_rng(3), 12, 5, qos)
    keep = np.zeros(12, dtype=bool)
    if pick == "first":
        keep[0] = True
    elif pick == "last":
        keep[-1] = True
    elif pick == "all":
        keep[:] = True
    assert_take_equivalent(arena, keep)


def test_all_null_requests():
    arena = make_arena(np.random.default_rng(4), 9, 4, True, null_share=1.0)
    assert arena.total_lookups == 0
    keep = np.zeros(9, dtype=bool)
    keep[[1, 5, 8]] = True
    assert_take_equivalent(arena, keep)


def test_zero_feature_arena():
    arena = RequestArena(JaggedBatch([]), np.arange(5.0))
    keep = np.array([True, False, True, True, False])
    assert_take_equivalent(arena, keep)
    assert arena.take(keep).request_lookups.tolist() == [0, 0, 0]


def test_rejects_mismatched_mask():
    arena = make_arena(np.random.default_rng(5), 6, 2, False)
    with pytest.raises(ValueError, match="keep mask shape"):
        arena.take(np.ones(5, dtype=bool))
