"""Chaos drills: device failure and worker crash under measurement.

The recovery story the fault-injection runtime exists to measure, run
at bench scale on a replicated three-tier world:

* **device_fail drill** — a device dies mid-stream.  Gates:

  - *zero dropped replicated lookups*: once the fault is detected, no
    replicated lookup routes to the dead device (drops are home-lane
    only — exactly the rows replication did not cover);
  - *recovery bound*: the emergency warm-start replan's build cost is
    under ``RECSHARD_BENCH_MAX_RECOVERY_MS`` wall-clock, and the plan
    commits inside the stream (the drill is pinned to a deterministic
    commit delay so the gate is reproducible; the measured wall cost
    is reported and gated separately);
  - *tail bound*: p99 during the degraded window stays within
    ``RECSHARD_BENCH_MAX_P99_DEGRADE`` x the steady-state p99;
  - *conservation*: served + dropped lookups equals the no-fault
    run's served lookups, batch for batch accounting with no silent
    loss;
  - *parity*: scalar and vectorized degraded modes agree bit for bit
    (on a truncated stream — the scalar path is the slow reference).

* **worker_kill drill** — a worker process of the multi-process pool
  is crashed mid-stream.  Gates: the supervisor respawns it (observed
  respawn count >= 1) and the merged metrics stay bit-identical to a
  single-process run of the same stream — self-healing is invisible
  on the simulated clock.

Environment knobs (on top of the shared workload knobs):
    RECSHARD_BENCH_CHAOS_REQUESTS   stream length (16384)
    RECSHARD_BENCH_CHAOS_QPS        offered load (40000)
    RECSHARD_BENCH_MAX_RECOVERY_MS  emergency replan build wall-clock
                                    bound in ms (60000; 0 disables)
    RECSHARD_BENCH_MAX_P99_DEGRADE  p99-during multiple of steady p99
                                    (10.0; 0 disables)
"""

import os
import time

import numpy as np
import pytest

from conftest import (
    BENCH_BATCH,
    BENCH_FEATURES,
    BENCH_GPUS,
    TOPO_SCALE,
    format_table,
    report,
    report_json,
)
from repro.core import MultiTierSharder, ReplicationPolicy
from repro.memory import GIB, node_from_tier_names
from repro.reference.serving import ScalarLookupServer
from repro.serving import (
    FaultSchedule,
    LookupServer,
    MultiProcessServer,
    ServingConfig,
    device_fail,
    synthetic_request_arenas,
    worker_kill,
)
from repro.serving.arena import SHM_NAME_PREFIX

CHAOS_REQUESTS = int(os.environ.get("RECSHARD_BENCH_CHAOS_REQUESTS", 16384))
CHAOS_QPS = float(os.environ.get("RECSHARD_BENCH_CHAOS_QPS", 40000))
MAX_RECOVERY_MS = float(
    os.environ.get("RECSHARD_BENCH_MAX_RECOVERY_MS", 60000)
)
MAX_P99_DEGRADE = float(
    os.environ.get("RECSHARD_BENCH_MAX_P99_DEGRADE", 10.0)
)

CONFIG = ServingConfig(max_batch_size=256, max_delay_ms=2.0)

#: fault lands ~30% into the stream; the pinned commit delay keeps the
#: replan inside it no matter how slow the build machine is.
HORIZON_MS = CHAOS_REQUESTS / CHAOS_QPS * 1e3
FAIL_MS = 0.3 * HORIZON_MS
COMMIT_MS = 0.1 * HORIZON_MS
DEAD_DEVICE = 1


@pytest.fixture(autouse=True)
def no_orphaned_segments():
    def segments():
        if not os.path.isdir("/dev/shm"):  # pragma: no cover
            return set()
        return {
            n
            for n in os.listdir("/dev/shm")
            if n.startswith(SHM_NAME_PREFIX)
        }

    before = segments()
    yield
    assert segments() - before == set(), "orphaned shared-memory segments"


@pytest.fixture(scope="module")
def chaos_world(models, profiles):
    """RM2 on a replicated HBM/DRAM/SSD node + the seeded stream."""
    model = models[1]
    profile = profiles[model.name]
    topology = node_from_tier_names(
        ["hbm:8", "dram:24", "ssd"], num_gpus=BENCH_GPUS, scale=TOPO_SCALE
    )
    arenas = list(
        synthetic_request_arenas(
            model, num_requests=CHAOS_REQUESTS, qps=CHAOS_QPS, seed=42
        )
    )
    return model, profile, topology, arenas


def _server(model, profile, topology, chaos=None, server_type=LookupServer):
    return server_type(
        model, profile, topology,
        sharder=MultiTierSharder(batch_size=BENCH_BATCH),
        config=CONFIG,
        replication=ReplicationPolicy(capacity_bytes=int(GIB * TOPO_SCALE)),
        chaos=chaos,
        emergency_commit_ms=(COMMIT_MS if chaos is not None else None),
    )


def _drill():
    return FaultSchedule([device_fail(FAIL_MS, DEAD_DEVICE)])


def test_device_fail_drill_gates(chaos_world):
    model, profile, topology, arenas = chaos_world
    steady = _server(model, profile, topology).serve_arenas(arenas)

    server = _server(model, profile, topology, chaos=_drill())
    wall_start = time.perf_counter()
    metrics = server.serve_arenas(arenas)
    drill_wall_s = time.perf_counter() - wall_start

    # --- gate: recovery happened and is measured -----------------------
    assert metrics.time_to_reroute_ms is not None
    assert metrics.time_to_replan_ms is not None, (
        "emergency replan never committed inside the stream"
    )
    assert metrics.num_replans >= 1
    base = getattr(server.plan, "plan", server.plan)
    assert all(p.device != DEAD_DEVICE for p in base.placements)
    replan = next(
        r for r in metrics.recoveries if r["kind"] == "replan"
    )
    build_wall_ms = replan["wall_ms"]
    if MAX_RECOVERY_MS > 0:
        assert build_wall_ms <= MAX_RECOVERY_MS, (
            f"emergency replan build took {build_wall_ms:.0f} ms "
            f"wall-clock (bound {MAX_RECOVERY_MS:g} ms)"
        )

    # --- gate: zero dropped replicated lookups -------------------------
    starts = np.asarray(metrics._batch_start, dtype=np.float64)
    routed = np.stack(list(metrics.replica_access_chunks), axis=0)
    after = starts >= FAIL_MS
    assert after.any()
    assert routed[after, DEAD_DEVICE].sum() == 0, (
        "replicated lookups routed to the dead device"
    )
    assert routed[after].sum() > 0

    # --- gate: conservation --------------------------------------------
    steady_lookups = int(steady.tier_access_totals.sum())
    served_lookups = int(metrics.tier_access_totals.sum())
    assert served_lookups + metrics.dropped_lookups == steady_lookups
    assert metrics.dropped_lookups > 0  # home-lane rows on the dead GPU
    assert metrics.dropped_per_device[DEAD_DEVICE] == metrics.dropped_lookups

    # --- gate: tail during the degraded window -------------------------
    phases = metrics.windowed_latency()
    p99_during = phases["during"]["p99_ms"]
    assert phases["during"]["requests"] > 0
    p99_gated = MAX_P99_DEGRADE > 0
    if p99_gated:
        assert p99_during <= MAX_P99_DEGRADE * steady.p99_ms, (
            f"p99 during the fault ({p99_during:.3f} ms) exceeds "
            f"{MAX_P99_DEGRADE:g}x steady-state ({steady.p99_ms:.3f} ms)"
        )

    # --- gate: scalar/vectorized parity (truncated stream) -------------
    parity_arenas = arenas[: max(1, len(arenas) // 4)]
    fast = _server(model, profile, topology, chaos=_drill())
    slow = _server(
        model, profile, topology, chaos=_drill(),
        server_type=ScalarLookupServer,
    )
    left = fast.serve_arenas(parity_arenas)
    right = slow.serve_arenas(parity_arenas)
    assert left.summary(deterministic_only=True) == right.summary(
        deterministic_only=True
    )

    rows = [
        ("steady p99 (ms)", f"{steady.p99_ms:.3f}"),
        ("p99 before / during / after (ms)",
         f"{phases['before']['p99_ms']:.3f} / "
         f"{phases['during']['p99_ms']:.3f} / "
         f"{phases['after']['p99_ms']:.3f}"),
        ("time to reroute (ms, simulated)",
         f"{metrics.time_to_reroute_ms:.3f}"),
        ("time to replan (ms, simulated, pinned commit)",
         f"{metrics.time_to_replan_ms:.3f}"),
        ("replan build (ms, wall)", f"{build_wall_ms:.0f}"),
        ("dropped lookups (home-lane)", f"{metrics.dropped_lookups}"),
        ("rerouted replica lookups after fault",
         f"{int(routed[after].sum())}"),
    ]
    report(
        "chaos",
        f"{model.name} on {BENCH_GPUS} GPUs hbm/dram/ssd "
        f"({BENCH_FEATURES} features), {CHAOS_REQUESTS} requests at "
        f"{CHAOS_QPS:.0f} QPS, device {DEAD_DEVICE} fails at "
        f"{FAIL_MS:.0f} ms\n\n"
        + format_table(["metric", "value"], rows)
        + "\n\ngates: zero replicated drops on dead device, replan "
        f"build <= {MAX_RECOVERY_MS:g} ms wall, p99-during <= "
        f"{MAX_P99_DEGRADE:g}x steady, conservation exact, "
        "scalar/vectorized bit parity\n"
        f"drill wall-clock: {drill_wall_s:.2f} s",
    )
    report_json(
        "chaos",
        {
            "requests": CHAOS_REQUESTS,
            "qps": CHAOS_QPS,
            "fail_ms": FAIL_MS,
            "dead_device": DEAD_DEVICE,
            "steady_p99_ms": steady.p99_ms,
            "latency_phases": phases,
            "time_to_reroute_ms": metrics.time_to_reroute_ms,
            "time_to_replan_ms": metrics.time_to_replan_ms,
            "replan_build_wall_ms": build_wall_ms,
            "max_recovery_ms": MAX_RECOVERY_MS,
            "max_p99_degrade": MAX_P99_DEGRADE,
            "p99_gate_enforced": p99_gated,
            "dropped_lookups": metrics.dropped_lookups,
            "rerouted_after_fault": int(routed[after].sum()),
            "parity": "bit-identical",
            "summary": metrics.summary(deterministic_only=True),
        },
    )


def test_worker_kill_drill_selfheals(chaos_world):
    model, profile, topology, arenas = chaos_world
    plan = MultiTierSharder(batch_size=BENCH_BATCH).shard(
        model, profile, topology
    )
    single = LookupServer(
        model, profile, topology, plan=plan, config=CONFIG
    ).serve_arenas(arenas)

    chaos = FaultSchedule([worker_kill(FAIL_MS, 1)])
    wall_start = time.perf_counter()
    with MultiProcessServer(
        model, profile, topology, plan=plan, config=CONFIG,
        workers=2, chaos=chaos, result_timeout_s=120.0,
    ) as pool:
        merged = pool.serve_arenas(arenas)
        respawns = pool.respawn_count
        log = list(pool.worker_fault_log)
    wall_s = time.perf_counter() - wall_start

    assert respawns >= 1, "supervisor never respawned the killed worker"
    assert merged.summary(deterministic_only=True) == single.summary(
        deterministic_only=True
    ), "self-healing perturbed the merged metrics"
    assert not merged.fault_events  # worker deaths are wall-clock events

    report(
        "chaos_selfheal",
        f"{model.name} on {BENCH_GPUS} GPUs hbm/dram/ssd, "
        f"{CHAOS_REQUESTS} requests, worker 1 killed at "
        f"{FAIL_MS:.0f} ms (2-worker pool)\n\n"
        + "\n".join(f"  {line}" for line in log)
        + f"\n\nrespawns: {respawns}; merged metrics bit-identical to "
        f"single-process; wall-clock {wall_s:.2f} s",
    )
    report_json(
        "chaos_selfheal",
        {
            "requests": CHAOS_REQUESTS,
            "kill_ms": FAIL_MS,
            "workers": 2,
            "respawns": respawns,
            "supervisor_log": log,
            "parity": "bit-identical",
            "wall_s": wall_s,
        },
    )
