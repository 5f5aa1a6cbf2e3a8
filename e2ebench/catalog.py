"""Every metric the benchmark reports, declared once.

Two clocks run in this system and a metric belongs to exactly one:

* ``wall`` -- real time of this Python process (and its pool workers);
  how fast the pipeline actually runs.
* ``sim`` -- the cost model's simulated device clock and the counts it
  is computed from; deterministic for a seed, so a wall-clock speedup
  that changes a plan or a served result shows as a regression here.

``BENCHMARK.json`` mirrors the ``END_TO_END`` and ``PER_LAYER`` tables
(name, unit, direction, bound); ``python3 e2ebench/catalog.py`` prints
the JSON it must hold and ``run.py`` refuses to run when the two
disagree.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Metric:
    name: str
    clock: str  # "wall" or "sim"
    unit: str
    better: str  # "higher" or "lower"
    definition: str
    bound: float | None = None  # end-to-end metrics only


#: Reported by every untraced run (``--trace 0``), on every workload.
END_TO_END = (
    Metric("setup_s", "wall", "s", "lower",
           "median of >= 3 set-ups: world, profile, plan, server or pool "
           "build (fork included), pre-generated inputs and one untimed "
           "warm-up round of them", 0.25),
    Metric("wall_rps", "wall", "req/s", "higher",
           "offered requests divided by timed wall time", 0.25),
    Metric("chunk_wall_p50_ms", "wall", "ms", "lower",
           "median interval between successive RequestArena chunks the "
           "program pulls from the benchmark's input iterator", 0.25),
    Metric("chunk_wall_p90_ms", "wall", "ms", "lower",
           "90th percentile of the same intervals (>= 100 per run)", 0.25),
    Metric("peak_rss_mib", "wall", "MiB", "lower",
           "peak resident memory of the benchmark process plus pool "
           "workers, read at the end of the timed region", 0.1),
    Metric("ok_frac", "sim", "share", "higher",
           "requests served by rounds whose output checks passed, over "
           "offered requests (1 - failed_frac: shed and failed-check "
           "requests count against it)", 0.15),
    Metric("sim_qps", "sim", "req/s", "higher",
           "ServingMetrics.qps of one round", 0.2),
    Metric("sim_p99_ms", "sim", "ms", "lower",
           "ServingMetrics.p99_ms of one round", 0.1),
    Metric("fast_tier_access_frac", "sim", "share", "higher",
           "served lookups on the fastest tier (1 - the paper's "
           "slow-memory access share, which is 0 on the 2-tier node)", 0.02),
    Metric("load_imbalance", "sim", "ratio", "lower",
           "max/mean device accesses, the paper's load-balance claim", 0.05),
    Metric("sim_goodput_frac", "sim", "share", "higher",
           "served within deadline over offered (1 without deadlines)", 0.15),
)


def _timing(layer: str, definition: str) -> tuple[Metric, Metric]:
    return (
        Metric(f"{layer}_ms", "wall", "ms", "lower",
               f"self time per microbatch of {definition}"),
        Metric(f"{layer}.share", "wall", "share", "lower",
               f"self time of {definition} over the traced timed wall"),
    )


#: Reported by the traced run (``--trace 1``), on every workload; a layer
#: that does no work on a workload reports 0.
PER_LAYER = (
    Metric("data.gen_ms_per_chunk", "wall", "ms", "lower",
           "next() on the request generator, per chunk, wherever the "
           "workload generates (set-up or timed region)"),
    Metric("data.gen.share", "wall", "share", "lower",
           "generation self time over the traced timed wall"),
    Metric("data.lookups_per_s", "wall", "1/s", "higher",
           "lookups generated per second of generation self time"),
    *_timing("stats.observe", "DriftMonitor.observe and TraceProfiler.consume"),
    Metric("core.plan_s", "wall", "s", "lower",
           "the sharder's .shard during set-up (initial plan)"),
    Metric("core.replan_ms", "wall", "ms", "lower",
           "the sharder's .shard in the timed region, per replan"),
    Metric("core.replan.share", "wall", "share", "lower",
           "replan .shard self time over the traced timed wall"),
    Metric("core.replans", "sim", "count", "lower", "replans per round"),
    *_timing("engine.run_batch", "ShardedExecutor.run_batch"),
    Metric("engine.ns_per_lookup", "wall", "ns", "lower",
           "ShardedExecutor.run_batch self time per lookup"),
    *_timing("engine.reduce", "ShardedExecutor.reduce_classified"),
    *_timing("serving.queue.release",
             "iter_microbatch_arenas, minus the generation it pulls"),
    *_timing("serving.overload.admit", "LookupServer.admit_arena"),
    Metric("serving.overload.shed_frac", "sim", "share", "lower",
           "shed requests over offered, one round"),
    Metric("serving.overload.browned_frac", "sim", "share", "lower",
           "browned-out lookups over served lookups, one round"),
    *_timing("serving.metrics.record", "ServingMetrics.record_batch"),
    *_timing("serving.arena.pack", "RequestArena.to_shm"),
    *_timing("serving.arena.release", "ShmArena.close and ShmArena.unlink"),
    Metric("serving.arena.segments", "sim", "count", "lower",
           "shared-memory segments packed per microbatch"),
    *_timing("serving.mp.frontend_other",
             "MultiProcessServer.serve_arenas outside its child spans"),
    Metric("serving.mp.worker_cpu_ms", "wall", "ms", "lower",
           "pool worker utime+stime from /proc, per microbatch"),
    Metric("serving.mp.worker_busy_frac", "wall", "share", "higher",
           "pool worker utime+stime over the traced timed wall"),
    Metric("other_ms", "wall", "ms", "lower",
           "traced timed wall minus all self times, per microbatch"),
    Metric("other.share", "wall", "share", "lower",
           "the same residual over the traced timed wall"),
    Metric("trace.overhead_frac", "wall", "share", "lower",
           "1 - traced wall_rps / untraced wall_rps in the same run"),
)


def benchmark_json(workloads) -> dict:
    """The ``BENCHMARK.json`` document these declarations imply."""
    return {
        "command": ["python3", "e2ebench/run.py"],
        "paths": ["e2ebench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }


#: Seconds one run measures (the value to pass as ``--seconds``).
RUN_SECONDS = 20

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


if __name__ == "__main__":
    sys.path.insert(0, str(BENCHMARK_JSON.parent / "src"))
    from worlds import WORKLOADS

    json.dump(benchmark_json(WORKLOADS.values()), sys.stdout, indent=2)
    sys.stdout.write("\n")
