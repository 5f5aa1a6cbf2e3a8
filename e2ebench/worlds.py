"""The benchmark's four workloads, built through the program's public API.

Shared world (unless a workload says otherwise): RM2 with 397 features
on 16 simulated GPUs with ``paper_scales`` capacities, microbatches of
at most 256 requests or 2 ms, and the ``analytic_profile`` that
``repro serve`` plans from.  The feature population is fixed (seed 7,
the CLI default) so every seed serves the same model and plan; the
benchmark's ``--seed`` drives only the request streams.

Every workload is a closed loop: one caller hands the program its next
round of requests as soon as the previous round returns.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from typing import Callable

from repro.core import (
    MultiTierSharder,
    RecShardFastSharder,
    ReplicationPolicy,
    carve_replica_budget,
)
from repro.data import DriftModel, rm2, rm3
from repro.engine import TierStagingModel
from repro.memory import GIB, node_from_tier_names, paper_node, paper_scales
from repro.serving import (
    BurstyArrivals,
    LookupServer,
    MultiProcessServer,
    OverloadControl,
    ServingConfig,
    generate_request_arenas,
    parse_priority_spec,
    synthetic_request_arenas,
)
from repro.stats import analytic_profile

FEATURES = 397
GPUS = 16
MODEL_SEED = 7
#: Planner batch size, the CLI's ``--batch`` default.
PLAN_BATCH = 2048
CONFIG = ServingConfig(max_batch_size=256, max_delay_ms=2.0)
#: Pre-generated requests per round (serve-fixed, mp-pool, tiered-qos).
ROUND_REQUESTS = 2048
#: serve-fixed/mp-pool chunk: four full microbatches per pull, so a chunk
#: interval averages over enough work that host noise (and the pool
#: front end's 50 ms dispatch-retry sleep) does not dominate its tail.
FIXED_CHUNK = 1024

#: stream-drift: ``repro serve --drift-months 24`` at its default 20k QPS.
#: Chunks of 32 requests keep >= 100 chunk intervals in a run even though
#: each chunk pays for re-drifting every feature's sampler.
DRIFT_REQUESTS = 2048
DRIFT_QPS = 20000.0
DRIFT_MONTHS = 24.0
DRIFT_CHUNK = 32

#: tiered-qos: 3-tier node with quantized cold tiers, staging, replicas.
TIERS = "hbm:8,dram:24,ssd"
PRECISIONS = "dram=fp16,ssd=int8"
STAGING_GIB = 2.0
REPLICATE_GIB = 1.0
PRIORITIES = "gold=0.1,silver=0.3,bronze=0.6"
#: Simulated capacity of the tiered plan at full 256-request batches:
#: ServingMetrics.qps of a saturating stream, measured once (1.51e6).
TIERED_CAPACITY_QPS = 1.5e6
#: Bursts of 128 requests at 2.5x capacity alternate with equally long
#: idle phases at 0.25x; with these SLO and deadline the controller
#: sheds a minority share.
BURST_X = 2.5
BURST_REQUESTS = 128
SLO_MS = 0.5
DEADLINE_MS = 0.75
#: One chunk per full microbatch, so every pull does the same kind of work.
TIERED_CHUNK = 256


@dataclass
class Prepared:
    """Everything set-up built for one workload, ready to serve rounds."""

    server: object
    #: a fresh iterable of RequestArena chunks for one round
    stream: Callable[[], object]
    #: whether ``stream()`` generates (True) or replays set-up's chunks
    generates: bool
    model: object
    #: (plan, topology) pairs the run must validate; replans append here
    plans: list = field(default_factory=list)
    #: a single-process run of the same stream, for the pool parity check
    reference: Callable[[], object] | None = None
    close: Callable[[], None] = lambda: None
    #: builds a fresh server for the next round; None reuses ``server``
    #: after ``reset_serving_state``
    rebuild: Callable[[], object] | None = None

    def new_round(self) -> None:
        """Put the server back in its just-built state for one round."""
        if self.rebuild is None:
            self.server.reset_serving_state()
        else:
            self.server = self.rebuild()

    def serve(self, feed):
        if getattr(self.server, "sharder", None) is not None:
            # Replans are validated after the timed region.
            return self.server.serve_arenas(
                feed,
                on_replan=lambda _now: self.plans.append(
                    (self.server.plan, self.server.topology)
                ),
            )
        return self.server.serve_arenas(feed)


def _world(factory, tiers=None, precisions=None):
    topo_scale, row_scale = paper_scales(FEATURES, GPUS)
    model = factory(num_features=FEATURES, row_scale=row_scale,
                    seed=MODEL_SEED)
    if tiers:
        topology = node_from_tier_names(tiers, num_gpus=GPUS,
                                        scale=topo_scale)
        topology = topology.with_precisions(precisions)
    else:
        topology = paper_node(num_gpus=GPUS, scale=topo_scale)
    return model, topology, analytic_profile(model), topo_scale


def _fast_sharder():
    return RecShardFastSharder(batch_size=PLAN_BATCH, name="RecShard")


def setup_serve_fixed(seed, gen_iter, workers=0):
    model, topology, profile, _ = _world(rm2)
    plan = _fast_sharder().shard(model, profile, topology)
    arenas = list(gen_iter(synthetic_request_arenas(
        model, ROUND_REQUESTS, qps=1e9, seed=seed, chunk_size=FIXED_CHUNK,
    )))
    if not workers:
        server = LookupServer(model, profile, topology, plan=plan,
                              config=CONFIG)
        return Prepared(server, lambda: arenas, False, model,
                        plans=[(plan, topology)])
    server = MultiProcessServer(model, profile, topology, plan=plan,
                                config=CONFIG, workers=workers).start()

    def reference():
        single = LookupServer(model, profile, topology, plan=plan,
                              config=CONFIG)
        return single.serve_arenas(arenas)

    return Prepared(server, lambda: arenas, False, model,
                    plans=[(plan, topology)],
                    reference=reference, close=server.close)


def setup_mp_pool(seed, gen_iter):
    return setup_serve_fixed(seed, gen_iter, workers=1)


def setup_stream_drift(seed, gen_iter):
    """Every round gets a fresh server: ``reset_serving_state`` keeps the
    drift monitor's and profiler's observations when the previous stream
    made no replan (a round cut at the deadline before its replan, say),
    so a reused server would not replay round 0."""
    model, topology, profile, _ = _world(rm2)

    def rebuild():
        return LookupServer(model, profile, topology,
                            sharder=_fast_sharder(), config=CONFIG)

    server = rebuild()
    drift = DriftModel(feature_noise=4.0, alpha_noise=4.0)

    def stream():
        return synthetic_request_arenas(
            model, DRIFT_REQUESTS, qps=DRIFT_QPS, seed=seed, drift=drift,
            months_per_request=DRIFT_MONTHS / DRIFT_REQUESTS,
            chunk_size=DRIFT_CHUNK,
        )

    return Prepared(server, stream, True, model,
                    plans=[(server.plan, topology)], rebuild=rebuild)


def setup_tiered_qos(seed, gen_iter):
    model, topology, profile, topo_scale = _world(rm3, TIERS, PRECISIONS)
    replication = ReplicationPolicy(
        capacity_bytes=int(REPLICATE_GIB * GIB * topo_scale))
    staging = TierStagingModel(
        capacity_bytes=int(STAGING_GIB * GIB * topo_scale))
    carved = carve_replica_budget(topology, replication)
    plan = MultiTierSharder(batch_size=PLAN_BATCH, steps=100).shard(
        model, profile, carved)
    names, shares = parse_priority_spec(PRIORITIES)
    burst_qps = BURST_X * TIERED_CAPACITY_QPS
    burst_ms = BURST_REQUESTS / burst_qps * 1e3
    process = BurstyArrivals(
        burst_qps=burst_qps, idle_qps=0.25 * TIERED_CAPACITY_QPS,
        burst_ms=burst_ms, idle_ms=burst_ms,
    )
    arenas = list(gen_iter(generate_request_arenas(
        model, ROUND_REQUESTS, process, seed=seed, chunk_size=TIERED_CHUNK,
        deadline_ms=DEADLINE_MS, priority_shares=shares,
    )))
    server = LookupServer(
        model, profile, topology, plan=plan, config=CONFIG, staging=staging,
        replication=replication,
        overload=OverloadControl(slo_ms=SLO_MS, brownout=True,
                                 priority_names=names),
    )
    return Prepared(server, lambda: arenas, False, model,
                    plans=[(plan, carved), (server.plan, topology)])


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable
    params: dict


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "serve-fixed",
            "fixed 2-tier plan, saturating pre-generated stream: executor "
            "classify/reduce and record_batch do nearly all the work",
            setup_serve_fixed,
            {"model": "rm2", "plan": "RecShardFastSharder", "qps": 1e9,
             "requests_per_round": ROUND_REQUESTS, "chunk": FIXED_CHUNK},
        ),
        Workload(
            "stream-drift",
            "drifting stream generated in the timed region with live "
            "replans: generation, drift monitor/profiler and replans "
            "dominate, classify is small",
            setup_stream_drift,
            {"model": "rm2", "sharder": "RecShardFastSharder",
             "qps": DRIFT_QPS, "drift_months": DRIFT_MONTHS,
             "requests_per_round": DRIFT_REQUESTS, "chunk": DRIFT_CHUNK},
        ),
        Workload(
            "mp-pool",
            "serve-fixed's plan and stream through a 1-worker pool: the "
            "only workload with shm packing, IPC and front-end reduction",
            setup_mp_pool,
            {"model": "rm2", "plan": "RecShardFastSharder", "workers": 1,
             "requests_per_round": ROUND_REQUESTS, "chunk": FIXED_CHUNK},
        ),
        Workload(
            "tiered-qos",
            "RM3 on a 5-lane 3-tier quantized node with bursty QoS "
            "traffic: the only workload where admission sheds",
            setup_tiered_qos,
            {"model": "rm3", "tiers": TIERS, "precisions": PRECISIONS,
             "staging_gib": STAGING_GIB, "replicate_gib": REPLICATE_GIB,
             "priorities": PRIORITIES, "burst_x": BURST_X,
             "burst_requests": BURST_REQUESTS, "slo_ms": SLO_MS,
             "deadline_ms": DEADLINE_MS,
             "requests_per_round": ROUND_REQUESTS, "chunk": TIERED_CHUNK},
        ),
    )
}


def discard(prepared: Prepared) -> None:
    """Release a set-up that was only built to be timed."""
    prepared.close()
    gc.collect()
