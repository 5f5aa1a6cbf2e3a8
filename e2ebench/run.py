"""End-to-end wall-clock benchmark of the RecShard serving pipeline.

Run from the repository root (Python 3.10+, NumPy; no other packages):

    python3 e2ebench/run.py --workload serve-fixed --seed 1 --seconds 20 --trace 0

``--trace 0`` measures with nothing patched and reports the end-to-end
metrics; ``--trace 1`` serves half the time untraced and half traced,
writes the spans to ``e2ebench/out/`` as Chrome trace-event JSON and
reports the per-layer metrics.  Both modes run the output checks.  The
metric tables, with units, clocks and definitions, are in
``catalog.py``; the workloads and why each exists are in ``worlds.py``.

Standard output: a run-metadata JSON line (host stamp, seed, workload
parameters), one line per metric (name, value, unit, clock), any failed
checks, and as the last line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``failed`` counts requests
of rounds whose output checks failed; shed requests are the program's
designed answer to overload and show in ``ok_frac`` instead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
#: set-up is timed at least SETUP_MIN_REPEATS times and until it has
#: taken SETUP_MIN_SECONDS in total (at most SETUP_MAX_REPEATS times).
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 4.0
SETUP_MAX_REPEATS = 9
SHM_DIR = Path("/dev/shm")


class Feed:
    """The benchmark's input iterator: hands the program one round's
    chunks, stamping every pull, and ends the round early once the
    timed region's deadline has passed."""

    def __init__(self, chunks, stop_at_ns=None):
        self._chunks = iter(chunks)
        self._stop_at_ns = stop_at_ns
        self.pulls: list[int] = []
        self.offered = 0

    def __iter__(self):
        return self

    def __next__(self):
        now = time.perf_counter_ns()
        self.pulls.append(now)
        if self._stop_at_ns is not None and now >= self._stop_at_ns:
            raise StopIteration
        chunk = next(self._chunks)
        self.offered += chunk.num_requests
        return chunk


def generation_spans(tracer, chunks):
    """``chunks`` with a ``data.gen`` span around every pull."""
    return tracer.iterate(
        "data.gen", chunks, count=lambda arena: arena.total_lookups
    )


class Segment:
    """Rounds served back to back until they have taken a fixed
    wall-clock budget.  Only ``serve`` calls are timed: putting the
    server back in its initial state between rounds is not."""

    def __init__(self, prepared, seconds: float, tracer=None):
        self.rounds = []  # (ServingMetrics, offered requests, complete)
        self.intervals_ns: list[int] = []
        budget_ns = int(seconds * 1e9)
        served_ns = 0
        while True:
            if tracer is not None:
                with tracer.paused():
                    prepared.new_round()
                tracer.new_round()
            else:
                prepared.new_round()
            chunks = prepared.stream()
            if tracer is not None and prepared.generates:
                chunks = generation_spans(tracer, chunks)
            start = time.perf_counter_ns()
            deadline = start + budget_ns - served_ns
            # The first round always completes: its sim metrics are the
            # run's.  Later rounds stop at the deadline.
            feed = Feed(chunks, deadline if self.rounds else None)
            metrics = prepared.serve(feed)
            served_ns += time.perf_counter_ns() - start
            complete = not self.rounds or feed.pulls[-1] < deadline
            self.rounds.append((metrics, feed.offered, complete))
            self.intervals_ns.extend(np.diff(feed.pulls).tolist())
            if served_ns >= budget_ns:
                break
        self.wall_s = served_ns / 1e9
        self.offered = sum(offered for _, offered, _ in self.rounds)

    @property
    def first(self):
        return self.rounds[0][0]

    @property
    def wall_rps(self) -> float:
        return self.offered / self.wall_s


def set_up(workload, seed, gen_iter):
    """Build the workload, then serve one untimed warm-up round of a
    pre-generated stream: the executor and the pool's workers finish
    their lazy first-touch work here, as a deployment's warm-up would,
    instead of in the first timed round."""
    prepared = workload.setup(seed, gen_iter)
    if not prepared.generates:
        prepared.serve(prepared.stream())
    return prepared


def enough_setups(setup_s, traced: bool) -> bool:
    if traced:
        return len(setup_s) >= 1
    return len(setup_s) >= SETUP_MIN_REPEATS and (
        sum(setup_s) >= SETUP_MIN_SECONDS
        or len(setup_s) >= SETUP_MAX_REPEATS
    )


def canonical(metrics) -> str:
    """The deterministic (sim-clock) content of one round, as text."""
    return json.dumps(
        {
            "summary": metrics.summary(deterministic_only=True),
            "tier_access_totals": metrics.tier_access_totals.tolist(),
        },
        sort_keys=True, default=float,
    )


def shm_segments() -> set[str]:
    from repro.serving.arena import SHM_NAME_PREFIX

    if not SHM_DIR.is_dir():
        return set()
    return {p.name for p in SHM_DIR.iterdir()
            if p.name.startswith(SHM_NAME_PREFIX)}


def worker_pids() -> list[int]:
    import multiprocessing

    return sorted(p.pid for p in multiprocessing.active_children())


def proc_cpu_ticks(pid: int) -> int:
    """utime + stime of ``pid`` in clock ticks, from ``/proc/<pid>/stat``."""
    stat = Path(f"/proc/{pid}/stat").read_text()
    fields = stat[stat.rindex(")") + 2:].split()
    return int(fields[11]) + int(fields[12])


def peak_rss_mib(pids) -> float:
    """Peak RSS of this process plus the given workers, in MiB."""
    total_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in pids:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                total_kib += int(line.split()[1])
    return total_kib / 1024


def check_rounds(segment, checks: list[str], label: str) -> None:
    reference = canonical(segment.first)
    for index, (metrics, offered, complete) in enumerate(segment.rounds):
        if metrics.offered_requests != offered or (
            metrics.num_requests + metrics.shed_requests != offered
        ):
            checks.append(
                f"{label} round {index}: offered {offered} != served "
                f"{metrics.num_requests} + shed {metrics.shed_requests}"
            )
        if complete and canonical(metrics) != reference:
            checks.append(
                f"{label} round {index}: sim metrics differ from round 0"
            )


def sim_metrics(metrics) -> dict[str, float]:
    return {
        "sim_qps": metrics.qps,
        "sim_p99_ms": metrics.p99_ms,
        "fast_tier_access_frac": metrics.tier_access_fraction(0),
        "load_imbalance": metrics.load_imbalance,
        "sim_goodput_frac": metrics.goodput_fraction,
    }


def run_checks(prepared, segments, checks) -> None:
    """Output checks that need no timing; run after the timed region."""
    for label, segment in segments.items():
        check_rounds(segment, checks, label)
    if len(segments) == 2:
        untraced, traced = segments.values()
        if canonical(untraced.first) != canonical(traced.first):
            checks.append("traced round differs from untraced round")
    from repro.core import PlanError

    for plan, topology in prepared.plans:
        try:
            plan.validate(prepared.model, topology)
        except PlanError as error:
            checks.append(f"plan invalid: {error}")
    if prepared.reference is not None:
        single = prepared.reference()
        pool = next(iter(segments.values())).first
        if canonical(single) != canonical(pool):
            checks.append("pool metrics differ from single-process run")


def self_time_metrics(tracer, traced_from, segment, setup_spans, cpu_ms):
    """Per-layer metrics from the traced segment's spans (those recorded
    from index ``traced_from`` on)."""
    totals = tracer.self_times(traced_from)
    wall_ns = segment.wall_s * 1e9
    batches = max(totals.get("serving.queue.release", [0, 0, 0])[2], 1)

    out = {}
    # metric prefix -> the span whose self time it reports
    layers = {
        "stats.observe": "stats.observe",
        "engine.run_batch": "engine.run_batch",
        "engine.reduce": "engine.reduce",
        "serving.queue.release": "serving.queue.release",
        "serving.overload.admit": "serving.overload.admit",
        "serving.metrics.record": "serving.metrics.record",
        "serving.arena.pack": "serving.arena.pack",
        "serving.arena.release": "serving.arena.release",
        "serving.mp.frontend_other": "serving.mp.frontend",
    }
    for layer, name in layers.items():
        ns = totals.get(name, [0])[0]
        out[f"{layer}_ms"] = ns / 1e6 / batches
        out[f"{layer}.share"] = ns / wall_ns
    covered = sum(row[0] for row in totals.values())
    out["other_ms"] = (wall_ns - covered) / 1e6 / batches
    out["other.share"] = (wall_ns - covered) / wall_ns

    gen = totals.get("data.gen", [0, 0, 0])
    setup_gen = setup_spans.get("data.gen", [0, 0, 0])
    gen_ns, gen_chunks, gen_lookups = (a + b for a, b in zip(gen, setup_gen))
    out["data.gen_ms_per_chunk"] = gen_ns / 1e6 / max(gen_chunks, 1)
    out["data.gen.share"] = gen[0] / wall_ns
    out["data.lookups_per_s"] = gen_lookups / (gen_ns / 1e9) if gen_ns else 0.0

    out["core.plan_s"] = setup_spans.get("core.shard", [0])[0] / 1e9
    replan = totals.get("core.shard", [0, 0, 0])
    out["core.replan_ms"] = replan[0] / 1e6 / max(replan[1], 1)
    out["core.replan.share"] = replan[0] / wall_ns
    out["core.replans"] = segment.first.num_replans

    run_batch = totals.get("engine.run_batch", [0, 0, 0])
    out["engine.ns_per_lookup"] = (
        run_batch[0] / run_batch[2] if run_batch[2] else 0.0
    )
    first = segment.first
    out["serving.overload.shed_frac"] = (
        first.shed_requests / first.offered_requests
    )
    served_lookups = int(first.tier_access_totals.sum())
    out["serving.overload.browned_frac"] = (
        first.browned_out_lookups / served_lookups if served_lookups else 0.0
    )
    packs = totals.get("serving.arena.pack", [0, 0, 0])[1]
    out["serving.arena.segments"] = packs / batches
    out["serving.mp.worker_cpu_ms"] = cpu_ms / batches
    out["serving.mp.worker_busy_frac"] = cpu_ms / 1e3 / segment.wall_s
    return out


def trace_targets(tracer):
    """Every public entry point the traced run wraps, by layer."""
    import repro.serving.mp as mp_module
    import repro.serving.server as server_module
    from repro.engine import ShardedExecutor
    from repro.serving import (
        DriftMonitor,
        LookupServer,
        MultiProcessServer,
        RequestArena,
        ServingMetrics,
        ShmArena,
    )
    from repro.stats.profiler import TraceProfiler

    def span(name, **kwargs):
        return lambda fn: tracer.wrap(fn, name, **kwargs)

    release = lambda fn: tracer.wrap_release(fn, "serving.queue.release")
    return [
        (ShardedExecutor, "run_batch", span(
            "engine.run_batch", count=lambda a, _r: a[1].total_lookups)),
        (ShardedExecutor, "reduce_classified",
         span("engine.reduce", reduces=True)),
        (ServingMetrics, "record_batch", span("serving.metrics.record")),
        (LookupServer, "admit_arena", span("serving.overload.admit")),
        (DriftMonitor, "observe", span("stats.observe")),
        (TraceProfiler, "consume", span("stats.observe")),
        (RequestArena, "to_shm", span("serving.arena.pack")),
        (ShmArena, "close", span("serving.arena.release")),
        (ShmArena, "unlink", span("serving.arena.release")),
        (server_module, "iter_microbatch_arenas", release),
        (mp_module, "iter_microbatch_arenas", release),
        (MultiProcessServer, "serve_arenas", span("serving.mp.frontend")),
    ] + sharder_targets(tracer)


def sharder_targets(tracer):
    from repro.core import MultiTierSharder, RecShardFastSharder

    return [
        (cls, "shard", lambda fn: tracer.wrap(fn, "core.shard"))
        for cls in (RecShardFastSharder, MultiTierSharder)
    ]


def stop_resource_tracker() -> None:
    """Stop the shared-memory tracker process a pool starts, and wait for
    it, so the benchmark leaves no process behind (a no-op when no pool
    ran).  ``_stop`` is CPython's own shutdown path for the tracker."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def host_stamp() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: the program's sources (src/repro) are not beside "
              f"{Path(__file__).parent.name}/; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import catalog
    import worlds
    from spans import Tracer

    declared = catalog.benchmark_json(worlds.WORKLOADS.values())
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    if on_disk != declared:
        print("error: BENCHMARK.json disagrees with e2ebench/catalog.py; "
              "regenerate it with python3 e2ebench/catalog.py",
              file=sys.stderr)
        return 2
    workload = worlds.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r} "
              f"(have {sorted(worlds.WORKLOADS)})", file=sys.stderr)
        return 2

    shm_before = shm_segments()
    tracer = Tracer() if args.trace else None
    gen_iter = (
        (lambda chunks: generation_spans(tracer, chunks))
        if tracer is not None else iter
    )
    checks: list[str] = []
    notes: dict = {}

    # Set-up, timed several times; the last one is served.
    setup_s = []
    prepared = None
    while not enough_setups(setup_s, traced=tracer is not None):
        if prepared is not None:
            worlds.discard(prepared)
            prepared = None
        start = time.perf_counter()
        if tracer is not None:
            with tracer.patched(sharder_targets(tracer)):
                prepared = set_up(workload, args.seed, gen_iter)
        else:
            prepared = set_up(workload, args.seed, gen_iter)
        setup_s.append(time.perf_counter() - start)

    try:
        if tracer is None:
            segments = {"untraced": Segment(prepared, args.seconds)}
        else:
            setup_spans = tracer.self_times()
            untraced = Segment(prepared, args.seconds / 2)
            pids = worker_pids()
            traced_from = len(tracer.spans)
            with tracer.patched(trace_targets(tracer)):
                try:
                    cpu0 = [proc_cpu_ticks(pid) for pid in pids]
                except OSError as error:
                    cpu0 = None
                    notes["worker_cpu"] = f"skipped: {error}"
                traced = Segment(prepared, args.seconds / 2, tracer)
                cpu_ms = 0.0
                if cpu0 is not None and pids:
                    ticks = sum(proc_cpu_ticks(p) for p in pids) - sum(cpu0)
                    cpu_ms = ticks * 1e3 / os.sysconf("SC_CLK_TCK")
            segments = {"untraced": untraced, "traced": traced}
        rss_mib = peak_rss_mib(worker_pids())
        run_checks(prepared, segments, checks)
    finally:
        worlds.discard(prepared)
    leaked = shm_segments() - shm_before
    if leaked:
        checks.append(f"shared-memory segments left behind: {sorted(leaked)}")
    stop_resource_tracker()

    main_segment = segments["untraced"]
    attempted = sum(s.offered for s in segments.values())
    correct = not checks
    if tracer is None:
        first = main_segment.first
        intervals_ms = np.asarray(main_segment.intervals_ns) / 1e6
        values = {
            "setup_s": statistics.median(setup_s),
            "wall_rps": main_segment.wall_rps,
            "chunk_wall_p50_ms": float(np.percentile(intervals_ms, 50)),
            "chunk_wall_p90_ms": float(np.percentile(intervals_ms, 90)),
            "peak_rss_mib": rss_mib,
            "ok_frac": (
                first.num_requests / first.offered_requests if correct
                else 0.0
            ),
            **sim_metrics(first),
        }
        table = catalog.END_TO_END
        notes["chunk_samples"] = len(intervals_ms)
        notes["rounds"] = len(main_segment.rounds)
        notes["setup_s_all"] = setup_s
    else:
        values = self_time_metrics(
            tracer, traced_from, traced, setup_spans, cpu_ms
        )
        values["trace.overhead_frac"] = 1 - traced.wall_rps / untraced.wall_rps
        table = catalog.PER_LAYER
        path = ROOT / "e2ebench" / "out" / (
            f"trace-{workload.name}-seed{args.seed}.json")
        tracer.write_chrome_trace(path, {
            "workload": workload.name, "seed": args.seed,
        })
        notes["chrome_trace"] = str(path.relative_to(ROOT))
        notes["rounds"] = {k: len(s.rounds) for k, s in segments.items()}

    print(json.dumps({
        "host": host_stamp(),
        "workload": workload.name,
        "why": workload.why,
        "params": workload.params,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **notes,
    }, default=float))
    for metric in table:
        print(f"{metric.name:34s} {values[metric.name]:>16.6g} "
              f"{metric.unit:6s} [{metric.clock}]")
    for check in checks:
        print(f"CHECK FAILED: {check}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": 0 if correct else attempted,
        "metrics": {
            metric.name: {"value": float(values[metric.name]),
                          "unit": metric.unit}
            for metric in table
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
