"""The multi-process pool's shared-memory slab ring.

The pool packs every microbatch in place into one of at most
``queue_depth + workers`` reusable slabs (:class:`ShmSlab`) and recycles
a slab when its batch's result is pulled.  These tests pin what that
must not lose against a fresh segment per batch:

* packing into a slab round-trips bit for bit, QoS columns and edge
  shapes included, and an arena too large for a slab replaces it;
* the ring stays within its bound over a real stream;
* a stale task whose slab was repacked (stamp mismatch) is answered
  ``gone`` instead of being classified from another batch's bytes;
* worker-kill drills stay bit-identical to single-process serving;
* no segment outlives the pool after close() or a crash with live
  slabs, and nothing is written to stderr about buffers or leaks (the
  Ctrl-C path is pinned in ``test_mp_stress.py``).
"""

from __future__ import annotations

import os
import pickle
import time

import numpy as np
import pytest

from repro.core import RecShardFastSharder
from repro.data.batch import JaggedBatch
from repro.data.model import rm2
from repro.memory import paper_node, paper_scales
from repro.serving import (
    FaultSchedule,
    LookupRequest,
    LookupServer,
    MultiProcessServer,
    RequestArena,
    ServingConfig,
    ShmSlab,
    WorkerCrashError,
    synthetic_request_arenas,
    worker_kill,
)
from repro.serving.arena import SHM_NAME_PREFIX
from repro.serving.mp import _SlabMappings, _SlabRing
from repro.stats import analytic_profile

FEATURES = 25
GPUS = 2
TOPO_SCALE, ROW_SCALE = paper_scales(FEATURES, GPUS)
CONFIG = ServingConfig(max_batch_size=64, max_delay_ms=1.0)


def live_segments() -> set[str]:
    if not os.path.isdir("/dev/shm"):  # pragma: no cover
        return set()
    return {
        n for n in os.listdir("/dev/shm") if n.startswith(SHM_NAME_PREFIX)
    }


@pytest.fixture(autouse=True)
def no_orphaned_segments():
    before = live_segments()
    yield
    leaked = live_segments() - before
    assert not leaked, f"orphaned shared-memory segments: {sorted(leaked)}"


@pytest.fixture(scope="module")
def world():
    model = rm2(num_features=FEATURES, row_scale=ROW_SCALE)
    profile = analytic_profile(model)
    topology = paper_node(num_gpus=GPUS, scale=TOPO_SCALE)
    plan = RecShardFastSharder(batch_size=256).shard(
        model, profile, topology
    )
    return model, profile, topology, plan


def pool_for(world, **kwargs) -> MultiProcessServer:
    model, profile, topology, plan = world
    kwargs.setdefault("result_timeout_s", 30.0)
    return MultiProcessServer(
        model, profile, topology, plan=plan, config=CONFIG, **kwargs
    )


def jagged_arena(rng, num_requests, num_features=3, qos=False):
    requests = [
        LookupRequest(
            request_id=i,
            features=tuple(
                rng.integers(0, 10_000, size=int(rng.integers(0, 7)))
                for _ in range(num_features)
            ),
            arrival_ms=float(i),
            deadline_ms=float(i) + 5.0 if qos else float("inf"),
            priority=int(i % 3) if qos else 0,
        )
        for i in range(max(num_requests, 1))
    ]
    arena = RequestArena.from_requests(requests)
    return arena if num_requests else arena.slice(0, 0)


def assert_same_arena(ref: RequestArena, got: RequestArena) -> None:
    assert got.num_requests == ref.num_requests
    assert got.base_id == ref.base_id
    assert got.has_qos == ref.has_qos
    np.testing.assert_array_equal(got.arrival_ms, ref.arrival_ms)
    if ref.has_qos:
        assert got.deadline_ms.dtype == np.float64
        assert got.priority.dtype == np.int64
        np.testing.assert_array_equal(got.deadline_ms, ref.deadline_ms)
        np.testing.assert_array_equal(got.priority, ref.priority)
    assert got.num_features == ref.num_features
    for f_ref, f_got in zip(ref.batch, got.batch):
        assert f_got.values.dtype == np.int64
        np.testing.assert_array_equal(f_got.values, f_ref.values)
        np.testing.assert_array_equal(f_got.offsets, f_ref.offsets)


# ----------------------------------------------------------------------
# Packing into a slab
# ----------------------------------------------------------------------
@pytest.mark.parametrize("qos", [False, True])
@pytest.mark.parametrize("shape", ["jagged", "empty", "zero-feature"])
def test_slab_round_trip_is_bit_identical(qos, shape):
    rng = np.random.default_rng(17)
    if shape == "zero-feature":
        n = 3
        arena = RequestArena(
            JaggedBatch([]), np.arange(float(n)), base_id=40,
            deadline_ms=np.full(n, 9.0) if qos else None,
            priority=np.arange(n) if qos else None,
        )
    else:
        arena = jagged_arena(rng, 0 if shape == "empty" else 30, qos=qos)
    slab = ShmSlab()
    try:
        # Pack twice: the second pack reuses the segment in place.
        for _ in range(2):
            assert arena.to_shm(slab=slab) is slab
            handle = pickle.loads(pickle.dumps(slab.handle))
            assert handle.name == slab.name
            assert handle.total_bytes <= slab.capacity
            attached = RequestArena.from_shm(handle)
            try:
                assert not attached.stale
                assert_same_arena(arena, attached.arena)
            finally:
                attached.close()
        assert slab.handle.stamp == 2
    finally:
        slab.destroy()


def test_standalone_to_shm_keeps_the_header_free_layout():
    arena = jagged_arena(np.random.default_rng(3), 10)
    owner = arena.to_shm()
    try:
        assert owner.handle.stamp is None
        assert owner.handle.header_bytes == 0
        assert not owner.stale
    finally:
        owner.close()
        owner.unlink()


def test_larger_batch_replaces_the_slab():
    rng = np.random.default_rng(5)
    small = jagged_arena(rng, 4)
    large = jagged_arena(rng, 400)
    slab = ShmSlab()
    try:
        small.to_shm(slab=slab)
        old_name, old_capacity = slab.name, slab.capacity
        assert old_name in live_segments()
        # A batch that fits keeps the segment.
        small.to_shm(slab=slab)
        assert slab.name == old_name
        large.to_shm(slab=slab)
        assert slab.name != old_name
        assert slab.capacity > old_capacity
        assert old_name not in live_segments()
        assert slab.name in live_segments()
        # Stamps keep counting across the replacement.
        assert slab.handle.stamp == 3
        attached = RequestArena.from_shm(slab.handle)
        try:
            assert_same_arena(large, attached.arena)
        finally:
            attached.close()
    finally:
        slab.destroy()
    slab.destroy()  # idempotent


def test_repacked_slab_marks_old_handles_stale():
    rng = np.random.default_rng(9)
    first, second = jagged_arena(rng, 8), jagged_arena(rng, 6)
    slab = ShmSlab()
    other = first.to_shm()
    try:
        old = first.to_shm(slab=slab).handle
        view = RequestArena.from_shm(old)
        try:
            assert not view.stale
            second.to_shm(slab=slab)
            assert view.stale
            assert not view.rebind(slab.handle).stale
            with pytest.raises(ValueError, match="names segment"):
                view.rebind(other.handle)
        finally:
            view.close()
    finally:
        slab.destroy()
        other.close()
        other.unlink()


# ----------------------------------------------------------------------
# Ring and worker-side mappings
# ----------------------------------------------------------------------
def test_ring_recycles_and_respects_its_capacity():
    ring = _SlabRing(2)
    a, b = ring.acquire(), ring.acquire()
    assert a is not None and b is not None and a is not b
    assert not ring.can_acquire() and ring.acquire() is None
    ring.release(a)
    assert ring.acquire() is a
    ring.close()
    assert ring.slabs == [] and ring.can_acquire()


def test_worker_mappings_are_bounded_and_closed():
    rng = np.random.default_rng(21)
    slabs = [ShmSlab() for _ in range(3)]
    mappings = _SlabMappings(2)
    try:
        for slab in slabs:
            jagged_arena(rng, 5).to_shm(slab=slab)
            view = mappings.view(slab.handle)
            assert view.arena.num_requests == 5
            del view
        assert list(mappings._mapped) == [s.name for s in slabs[1:]]
        # A repack reuses the cached mapping.
        jagged_arena(rng, 7).to_shm(slab=slabs[2])
        assert mappings.view(slabs[2].handle).arena.num_requests == 7
    finally:
        mappings.close()
        for slab in slabs:
            slab.destroy()


@pytest.mark.parametrize("workers", [1, 2])
def test_ring_never_exceeds_queue_depth_plus_workers(world, workers):
    model = world[0]
    arenas = list(synthetic_request_arenas(model, 32 * 64, qps=1e9, seed=3))
    before = live_segments()
    pool = pool_for(world, workers=workers)
    bound = pool.queue_depth + workers
    peak = {"segments": 0, "batches": 0}
    real_account = pool._spine._account

    def sampling(*args, **kwargs):
        peak["batches"] += 1
        peak["segments"] = max(
            peak["segments"], len(live_segments() - before)
        )
        return real_account(*args, **kwargs)

    pool._spine._account = sampling
    with pool:
        metrics = pool.serve_arenas(arenas)
        assert len(pool._ring.slabs) <= bound
        assert len(live_segments() - before) <= bound
    assert peak["batches"] == 32 == len(metrics.batch_sizes)
    assert 1 <= peak["segments"] <= bound


def test_recycled_slab_task_gets_gone_and_worker_survives(world):
    model = world[0]
    arenas = list(synthetic_request_arenas(model, 256, qps=1e9, seed=5))
    slab = ShmSlab()
    pool = pool_for(world, workers=1)
    try:
        pool.start()
        stale = arenas[0].slice(0, 64).to_shm(slab=slab).handle
        # Recycled: a later batch and a new stamp in the header.
        arenas[0].slice(64, 128).to_shm(slab=slab)
        pool._task_qs[0].put((0, stale))
        reply = None
        deadline = time.perf_counter() + 10.0
        while reply is None and time.perf_counter() < deadline:
            try:
                reply = pool._result_q.get(timeout=0.5)
            except Exception:
                continue
        assert reply is not None and reply[:2] == ("gone", 0)
        # The current handle of the same slab classifies normally.
        pool._task_qs[0].put((1, slab.handle))
        reply = pool._result_q.get(timeout=10.0)
        assert reply[:2] == ("ok", 1)
        assert all(p.is_alive() for p in pool._procs)
        # And a normal stream still runs afterwards on the same pool.
        assert pool.serve_arenas(arenas).num_requests == 256
    finally:
        pool.close()
        slab.destroy()


def test_paced_mode_sheds_when_no_slab_is_free(world):
    """With the queue roomier than the ring, the ring is what runs out:
    the newest batch is shed and offered == served + shed stays exact."""
    model = world[0]
    arenas = list(synthetic_request_arenas(model, 1024, qps=1e9, seed=13))
    offered = sum(a.num_requests for a in arenas)
    pool = pool_for(world, workers=1, queue_depth=8)
    pool._ring = _SlabRing(1)
    with pool:
        metrics = pool.serve_paced(arenas, speed=1e6)
        assert len(pool._ring.slabs) == 1
    assert metrics.shed_requests > 0
    assert metrics.num_requests + metrics.shed_requests == offered


# ----------------------------------------------------------------------
# Drills and exit paths
# ----------------------------------------------------------------------
def test_worker_kill_drill_with_a_tight_ring_matches_single_process(world):
    """Kills while every slab is in flight: requeued batches keep their
    slabs pinned, stale duplicates answer ``gone``, and the merged
    metrics stay bit-identical to a single-process run."""
    model, profile, topology, plan = world
    arenas = list(synthetic_request_arenas(model, 2048, qps=50_000, seed=3))
    single = LookupServer(
        model, profile, topology, plan=plan, config=CONFIG
    ).serve_arenas(arenas)
    chaos = FaultSchedule([worker_kill(3.0, 0), worker_kill(12.0, 1)])
    with pool_for(world, workers=2, queue_depth=1, chaos=chaos) as pool:
        merged = pool.serve_arenas(arenas)
        assert pool.respawn_count == 2
        assert len(pool._ring.slabs) <= pool.queue_depth + pool.workers
    assert merged.summary(deterministic_only=True) == single.summary(
        deterministic_only=True
    )
    np.testing.assert_array_equal(
        merged.tier_access_totals, single.tier_access_totals
    )


def test_no_segments_or_stderr_noise_after_close(world, capfd):
    model = world[0]
    arenas = list(synthetic_request_arenas(model, 512, qps=1e9, seed=9))
    before = live_segments()
    pool = pool_for(world, workers=2)
    with pool:
        pool.serve_arenas(arenas)
        assert live_segments() - before  # the ring outlives the stream
        pool.reset_serving_state()
        pool.serve_arenas(arenas)
    assert live_segments() - before == set()
    err = capfd.readouterr().err
    assert "BufferError" not in err
    assert "leaked" not in err


def test_no_segments_after_worker_crash_error(world):
    model = world[0]
    arenas = list(synthetic_request_arenas(model, 512, qps=1e9, seed=3))
    before = live_segments()
    pool = pool_for(world, workers=1, max_respawns=0)
    pool.start()
    pool.serve_arenas(arenas[:2])  # the ring now holds live slabs
    assert live_segments() - before
    pool.kill_worker(0)
    with pytest.raises(WorkerCrashError):
        pool.serve_arenas(arenas)
    assert not pool.started
    assert live_segments() - before == set()
