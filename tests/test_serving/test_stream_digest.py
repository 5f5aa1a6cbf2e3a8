"""Golden digests of seeded request streams.

Every serving parity claim starts from a seeded stream, so the stream
generator itself is pinned here: a SHA-256 over each chunk's
``base_id``, arrival/deadline/priority columns and every feature's
``values``/``offsets`` must match the committed digest exactly.  Three
shapes cover the generator's branches — plain Poisson, drifted Poisson
with QoS columns, and bursty arrivals with QoS columns.

If a digest moves, the stream changed: every bit-identity test
downstream (single- vs multi-process parity, golden metrics, the
benchmark's sim-clock figures) is then comparing against a different
workload.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.data.drift import DriftModel
from repro.data.model import rm2
from repro.memory import paper_scales
from repro.serving import (
    BurstyArrivals,
    generate_request_arenas,
    synthetic_request_arenas,
)

FEATURES = 13
REQUESTS = 1500
QPS = 20_000.0
SHARES = (0.2, 0.3, 0.5)


def model():
    _, row_scale = paper_scales(FEATURES, 2)
    return rm2(num_features=FEATURES, row_scale=row_scale)


def digest(arenas) -> str:
    h = hashlib.sha256()

    def put(array):
        array = np.ascontiguousarray(array)
        h.update(array.dtype.str.encode())
        h.update(array.tobytes())

    for arena in arenas:
        h.update(str(arena.base_id).encode())
        put(arena.arrival_ms)
        for column in (arena.deadline_ms, arena.priority):
            if column is None:
                h.update(b"none")
            else:
                put(column)
        for feature in arena.batch:
            put(feature.values)
            put(feature.offsets)
    return h.hexdigest()


def plain_poisson():
    return synthetic_request_arenas(model(), REQUESTS, qps=QPS, seed=3)


def drifted_poisson_qos():
    return synthetic_request_arenas(
        model(), REQUESTS, qps=QPS, seed=7,
        drift=DriftModel(feature_noise=4.0, alpha_noise=4.0),
        months_per_request=24.0 / REQUESTS, chunk_size=32,
        deadline_ms=8.0, priority_shares=SHARES,
    )


def bursty_qos():
    process = BurstyArrivals(
        burst_qps=4 * QPS, idle_qps=0.1 * QPS, burst_ms=20.0, idle_ms=30.0
    )
    return generate_request_arenas(
        model(), REQUESTS, process, seed=11, chunk_size=128,
        deadline_ms=5.0, priority_shares=SHARES,
    )


GOLDEN = {
    "plain_poisson": (
        "789dc8948241456634bf6b3b6ec6d4eb259efae97b06e9a582fe7b1142d60e77"
    ),
    "drifted_poisson_qos": (
        "c51f3ed6eea638c074ed2d7f180099d4c2e66a56a0d9c040ce05dbb00d922ef0"
    ),
    "bursty_qos": (
        "3069f26c1f3ac35e2c49373a76dfb326147e32b8c342dc16e02a86d3e5805eeb"
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_stream_digest_is_pinned(name):
    assert digest(globals()[name]()) == GOLDEN[name]


if __name__ == "__main__":
    for name in sorted(GOLDEN):
        print(f'    "{name}": "{digest(globals()[name]())}",')
