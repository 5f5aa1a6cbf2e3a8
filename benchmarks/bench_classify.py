"""Classification wall time per microbatch size, on the serving worlds.

``ShardedExecutor.classify_batch`` turns one microbatch into per-lane
prefix counts (tier, cache, staging, replica and twrw lanes); it is the
per-lookup hot loop of serving.  This bench sweeps the microbatch size
(8, 32 and 256 requests) on two e2ebench worlds, built by the
benchmark's own set-up code so the model, plan and stream are exactly
the ones it serves:

* ``serve-fixed``: RM2, 397 features, 16 GPUs, fixed 2-tier plan;
* ``tiered-qos``: RM3 on a 3-tier quantized node with staging and hot
  row replicas (five lanes).

Each size classifies one pre-generated 2048-request round, cut into
consecutive microbatches, ``ROUNDS`` times; the reported time is the
median round divided by its microbatch count.  Small microbatches are
where per-call overhead, not memory traffic, decides the cost.

Writes ``reports/classify.txt`` and ``reports/BENCH_classify.json``.
Workload knobs of ``conftest.py`` do not apply: the worlds are fixed.
"""

import statistics
import sys
import time
from pathlib import Path

import numpy as np

from conftest import format_table, report, report_json

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "e2ebench"))
import worlds  # noqa: E402  (the benchmark's world definitions)

SIZES = (8, 32, 256)
ROUNDS = 7
STREAM_SEED = 1


def _microbatches(prepared, size):
    batches = []
    for arena in prepared.stream():
        for start in range(0, arena.num_requests, size):
            stop = min(start + size, arena.num_requests)
            batches.append(arena.batch_view(start, stop))
    return batches


def _sweep(name):
    prepared = worlds.WORKLOADS[name].setup(STREAM_SEED, iter)
    try:
        executor = prepared.server.executor
        rows = {}
        for size in SIZES:
            batches = _microbatches(prepared, size)
            lookups = sum(b.total_lookups for b in batches)
            for batch in batches[:4]:  # warm lazy structures and caches
                executor.classify_batch(batch)
            rounds = []
            for _ in range(ROUNDS):
                start = time.perf_counter()
                for batch in batches:
                    counts = executor.classify_batch(batch)[0]
                rounds.append(time.perf_counter() - start)
            # Every lookup lands in exactly one tier.
            assert counts.sum() == batches[-1].total_lookups
            median = statistics.median(rounds)
            rows[size] = {
                "microbatches": len(batches),
                "lookups_per_microbatch": lookups / len(batches),
                "ms_per_microbatch": median * 1e3 / len(batches),
                "ns_per_lookup": median * 1e9 / lookups,
                "round_iqr_frac": float(
                    np.subtract(*np.percentile(rounds, [75, 25])) / median
                ),
            }
        return rows
    finally:
        prepared.close()


def test_classify_microbatch_sweep():
    results = {name: _sweep(name) for name in ("serve-fixed", "tiered-qos")}
    table = format_table(
        ["world", "requests", "lookups/mb", "ms/mb", "ns/lookup",
         "round IQR"],
        [
            (name, size, f"{row['lookups_per_microbatch']:.0f}",
             f"{row['ms_per_microbatch']:.3f}",
             f"{row['ns_per_lookup']:.2f}",
             f"{row['round_iqr_frac']:.1%}")
            for name, rows in results.items()
            for size, row in rows.items()
        ],
    )
    report(
        "classify",
        f"classify_batch over one 2048-request round (stream seed "
        f"{STREAM_SEED}), median of {ROUNDS} rounds\n\n{table}",
    )
    report_json(
        "classify",
        {
            "rounds": ROUNDS,
            "stream_seed": STREAM_SEED,
            "worlds": {
                name: {str(size): row for size, row in rows.items()}
                for name, rows in results.items()
            },
        },
    )
