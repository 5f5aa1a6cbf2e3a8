"""Parity and integration tests for the vectorized multi-tier planner.

The workspace-array greedy path of
:class:`~repro.core.multitier.MultiTierSharder` must reproduce the
scalar heapq waterfill's plans exactly (device homes and per-tier row
splits), warm starts included, and plug into
:func:`~repro.core.workspace.shard_sweep` tier grids.
"""

import numpy as np
import pytest

from repro.core import MultiTierSharder, PlannerWorkspace, shard_sweep
from repro.memory.tier import MemoryTier
from repro.memory.topology import SystemTopology
from repro.reference.planner import ScalarMultiTierSharder
from repro.stats import analytic_profile
from tests.test_core.conftest import build_model


def build_topology(total, num_tiers=3, num_devices=3):
    names = ("hbm", "dram", "ssd", "hdd")
    bandwidths = (200e9, 20e9, 2e9, 0.4e9)
    tiers = [
        MemoryTier(
            names[t],
            total if t == num_tiers - 1 else int(total * 0.15 / num_devices),
            bandwidths[t],
        )
        for t in range(num_tiers)
    ]
    return SystemTopology(num_devices=num_devices, tiers=tuple(tiers))


def assert_plans_equal(a, b):
    assert len(a) == len(b)
    for p, q in zip(a, b):
        assert p.rows_per_tier == q.rows_per_tier, p.table_index
        assert p.device == q.device, p.table_index


class TestVectorizedGreedyParity:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("num_tiers", [2, 3, 4])
    def test_plan_parity(self, seed, num_tiers):
        model = build_model(num_tables=8, seed=seed)
        profile = analytic_profile(model)
        topology = build_topology(model.total_bytes, num_tiers)
        vec = MultiTierSharder(batch_size=256, steps=15).shard(
            model, profile, topology
        )
        sca = ScalarMultiTierSharder(
            batch_size=256, steps=15
        ).shard(model, profile, topology)
        assert_plans_equal(vec, sca)

    def test_warm_start_parity_and_homes(self):
        model = build_model(num_tables=8, seed=4)
        profile = analytic_profile(model)
        topology = build_topology(model.total_bytes)
        cold = MultiTierSharder(batch_size=256, steps=15).shard(
            model, profile, topology
        )
        warm_v = MultiTierSharder(batch_size=256, steps=15).shard(
            model, profile, topology, warm_start=cold
        )
        warm_s = ScalarMultiTierSharder(
            batch_size=256, steps=15
        ).shard(model, profile, topology, warm_start=cold)
        assert_plans_equal(warm_v, warm_s)
        assert warm_v.metadata["warm_started"]
        # Same profile, same topology: every table keeps its home.
        assert [p.device for p in warm_v] == [p.device for p in cold]

    def test_workspace_reuse_matches_fresh_build(self):
        model = build_model(num_tables=6, seed=5)
        profile = analytic_profile(model)
        topology = build_topology(model.total_bytes)
        ws = PlannerWorkspace(model, profile, steps=15)
        sharder = MultiTierSharder(batch_size=256, steps=15)
        from_ws = sharder.shard(model, profile, topology, workspace=ws)
        fresh = sharder.shard(model, profile, topology)
        assert_plans_equal(from_ws, fresh)
        # Estimated-cost metadata is stamped on both.
        assert from_ws.metadata["estimated_cost_batch_size"] == 256
        np.testing.assert_allclose(
            from_ws.metadata["estimated_max_cost_ms"],
            fresh.metadata["estimated_max_cost_ms"],
        )

    def test_steps_mismatch_rejected(self):
        model = build_model(num_tables=4, seed=6)
        profile = analytic_profile(model)
        topology = build_topology(model.total_bytes)
        ws = PlannerWorkspace(model, profile, steps=10)
        with pytest.raises(ValueError):
            MultiTierSharder(batch_size=64, steps=20).shard(
                model, profile, topology, workspace=ws
            )


class TestTierSweep:
    def test_tier_count_grid_over_one_workspace(self):
        model = build_model(num_tables=6, seed=7)
        profile = analytic_profile(model)
        total = model.total_bytes
        ws = PlannerWorkspace(model, profile, steps=15)
        sharder = MultiTierSharder(batch_size=128, steps=15)
        grid = [2, 3, 4]
        plans = shard_sweep(
            ws,
            sharder=sharder,
            topologies=[build_topology(total, t) for t in grid],
            labels=[f"tiers={t}" for t in grid],
        )
        assert [p.metadata["sweep_key"] for p in plans] == [
            "tiers=2", "tiers=3", "tiers=4",
        ]
        for num_tiers, plan in zip(grid, plans):
            assert all(len(p.rows_per_tier) == num_tiers for p in plan)
            plan.validate(model, build_topology(total, num_tiers))

    def test_label_count_mismatch_rejected(self):
        model = build_model(num_tables=4, seed=8)
        profile = analytic_profile(model)
        ws = PlannerWorkspace(model, profile, steps=15)
        with pytest.raises(ValueError):
            shard_sweep(
                ws,
                sharder=MultiTierSharder(batch_size=64, steps=15),
                topologies=[build_topology(model.total_bytes)],
                labels=["a", "b"],
            )
