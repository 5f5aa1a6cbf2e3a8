"""Property tests of the executor's one lane classifier.

``ShardedExecutor.classify_batch``, ``run_batch`` and ``replay_trace``
all go through one block classifier: small features are gathered into
shared blocks, large ones are blocks of their own.  Hypothesis draws
the lane mix (1-4 tiers with cache, staging, replicas or twrw shards),
microbatches of 1-512 requests, and batch shapes that straddle the
block constants: a feature larger than any block, a run of empty
features (with tiny drawn constants nearly every feature boundary is a
block edge), and an all-empty batch.  Every draw must match the
per-lookup :class:`~repro.reference.engine.ScalarShardedExecutor` bit
for bit, and a multi-plan ``replay_trace`` must match each plan's own
``run``.
"""

from __future__ import annotations

from functools import lru_cache
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    MultiTierSharder,
    ReplicationPolicy,
    StrategyPlan,
    TableStrategy,
    plan_with_replication,
)
from repro.data.batch import JaggedBatch, JaggedFeature
from repro.data.synthetic import TraceGenerator
from repro.engine import (
    CacheModel,
    ShardedExecutor,
    TierStagingModel,
    replay_trace,
)
from repro.engine import executor as executor_module
from repro.memory.tier import MemoryTier
from repro.memory.topology import SystemTopology
from repro.reference.engine import ScalarShardedExecutor
from repro.stats import analytic_profile
from tests.test_core.conftest import build_model

DEVICES = 3
MIXES = (
    "plain", "cache", "staging", "cache+staging",
    "replicas", "replicas+cache", "replicas+staging", "twrw",
)


def _topology(total: int, num_tiers: int) -> SystemTopology:
    bandwidths = (200e9, 20e9, 2e9, 0.5e9)
    tiers = [
        MemoryTier(
            f"tier{t}",
            total if t == num_tiers - 1 else int(total * 0.2 / DEVICES),
            bandwidths[t],
        )
        for t in range(num_tiers)
    ]
    return SystemTopology(num_devices=DEVICES, tiers=tuple(tiers))


def _twrw(model, plan) -> StrategyPlan:
    """Two twrw tables (one and two interior cuts), the rest row-wise."""
    strategies = [TableStrategy("row") for _ in range(len(plan))]
    rows0, rows1 = model.tables[0].num_rows, model.tables[1].num_rows
    strategies[0] = TableStrategy("twrw", devices=(0, 1), row_cuts=(rows0 // 2,))
    strategies[1] = TableStrategy(
        "twrw", devices=(2, 0, 1), row_cuts=(rows1 // 5, rows1 // 2)
    )
    return StrategyPlan(plan, tuple(strategies))


@lru_cache(maxsize=None)
def build_executors(num_tiers: int, mix: str, seed: int):
    """One drawn world: model, profile, topology, the plan carrying the
    drawn lanes, its base plan (tier lanes only, the second plan of the
    ``replay_trace`` check) and the cache/staging keyword arguments.
    Cached: plans are deterministic per draw."""
    model = build_model(num_tables=8, seed=seed)
    profile = analytic_profile(model)
    topology = _topology(model.total_bytes, num_tiers)
    sharder = MultiTierSharder(batch_size=64, steps=12)
    kwargs = {}
    if "replicas" in mix:
        policy = ReplicationPolicy(
            capacity_bytes=int(model.total_bytes * 0.04 / DEVICES)
        )
        plan = plan_with_replication(sharder, model, profile, topology, policy)
        base = plan.plan
    else:
        plan = base = sharder.shard(model, profile, topology)
    if mix == "twrw":
        plan = _twrw(model, base)
    if "cache" in mix:
        kwargs["cache"] = CacheModel(
            capacity_bytes=model.total_bytes // 40, bandwidth=800e9
        )
    if "staging" in mix:
        kwargs["staging"] = TierStagingModel(
            capacity_bytes=model.total_bytes // 30
        )
    return model, profile, topology, plan, base, kwargs


def _executors(num_tiers, mix, seed):
    model, profile, topology, plan, base, kwargs = build_executors(
        num_tiers, mix, seed
    )

    def make(cls=ShardedExecutor, which=plan, **extra):
        return cls(model, which, profile, topology, validate=False, **extra)

    return model, make, base, kwargs


def _shape(batch, model, rng, empty_run, giant, all_empty):
    """Rebuild ``batch`` with the drawn empties and giant feature."""
    requests = batch.batch_size
    empty = JaggedFeature(
        np.empty(0, dtype=np.int64), np.zeros(requests + 1, dtype=np.int64)
    )
    start, length = empty_run
    features = list(batch)
    for j in range(len(features)):
        if all_empty or start <= j < start + length:
            features[j] = empty
    if giant is not None and not all_empty:
        j, size = giant
        offsets = np.zeros(requests + 1, dtype=np.int64)
        offsets[-1] = size
        values = rng.integers(0, model.tables[j].num_rows, size=size)
        features[j] = JaggedFeature(values.astype(np.int64), offsets)
    return JaggedBatch(features)


def _assert_same(got, want):
    for g, w in zip(got, want, strict=True):
        if w is None:
            assert g is None
        else:
            np.testing.assert_array_equal(g, w)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    num_tiers=st.integers(1, 4),
    mix=st.sampled_from(MIXES),
    seed=st.integers(0, 2),
    requests=st.integers(1, 512),
    num_batches=st.integers(1, 2),
    feature_lookups=st.sampled_from(
        [executor_module._FEATURE_LOOKUPS, 1, 3, 16, 100]
    ),
    block_cells=st.sampled_from([executor_module._BLOCK_CELLS, 1, 7, 40, 500]),
    empty_run=st.tuples(st.integers(0, 8), st.integers(0, 8)),
    giant_table=st.one_of(st.none(), st.integers(0, 7)),
    all_empty=st.booleans(),
)
def test_one_classifier_matches_scalar_and_replay(
    num_tiers, mix, seed, requests, num_batches, feature_lookups,
    block_cells, empty_run, giant_table, all_empty,
):
    with mock.patch.multiple(
        executor_module,
        _FEATURE_LOOKUPS=feature_lookups,
        _BLOCK_CELLS=block_cells,
    ):
        model, make, base, kwargs = _executors(num_tiers, mix, seed)
        # Larger than any block the active constants allow.
        giant = None
        if giant_table is not None:
            giant = (giant_table, max(block_cells, feature_lookups) + 1 + seed)
        rng = np.random.default_rng(seed)
        batches = [
            _shape(batch, model, rng, empty_run, giant, all_empty)
            for batch in TraceGenerator(
                model, batch_size=requests, seed=seed + 7
            ).batches(num_batches)
        ]
        fast = make(**kwargs)
        scalar = make(ScalarShardedExecutor, **kwargs)
        for batch in batches:
            classified = fast.classify_batch(batch)
            _assert_same(classified, scalar.classify_batch(batch))
            assert classified[0].sum() == batch.total_lookups
            _assert_same(fast.run_batch(batch), scalar.run_batch(batch))

        # The plain plan goes first: the block buffers must fit the
        # executor with the most lanes, not the first one.
        replayed = replay_trace([make(which=base), make(**kwargs)], batches)
        for metrics, alone in zip(
            replayed, [make(which=base).run(batches), make(**kwargs).run(batches)]
        ):
            np.testing.assert_array_equal(metrics.times_ms, alone.times_ms)
            for tier, accesses in alone.tier_accesses.items():
                np.testing.assert_array_equal(metrics.tier_accesses[tier], accesses)
            for name in ("cache_hits", "staged_hits", "replica_hits"):
                _assert_same([getattr(metrics, name)], [getattr(alone, name)])
