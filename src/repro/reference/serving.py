"""Per-request parity oracles of the serving loop.

:func:`serve_objects` drives a server one request at a time through a
:class:`MicroBatchQueue` and must produce metrics bit-identical to
:meth:`~repro.serving.server.LookupServer.serve_arenas` on the same
requests.  :class:`ScalarLookupServer` serves on the per-lookup
:class:`~repro.reference.engine.ScalarShardedExecutor`; it composes
with either loop.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from repro.data.model import ModelSpec
from repro.reference.engine import ScalarShardedExecutor
from repro.serving.arena import RequestArena
from repro.serving.metrics import ServingMetrics
from repro.serving.queue import LookupRequest
from repro.serving.server import LookupServer, synthetic_request_arenas


@dataclass
class MicroBatchQueue:
    """Admission queue releasing microbatches by size or delay bound.

    A batch is *ready* when ``max_batch_size`` requests are waiting, or
    when the oldest waiting request has been queued for at least
    ``max_delay_ms`` (its latency budget for batching).  Larger batches
    amortize per-batch overhead and raise throughput; the delay bound
    caps the queueing latency a lightly-loaded server adds.

    Attributes:
        max_batch_size: release threshold in requests (>= 1).
        max_delay_ms: longest time a request may wait for batchmates.
    """

    max_batch_size: int = 256
    max_delay_ms: float = 1.0
    _pending: deque = field(default_factory=deque, repr=False)

    def __post_init__(self):
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.max_delay_ms < 0:
            raise ValueError("max_delay_ms must be >= 0")

    def __len__(self) -> int:
        return len(self._pending)

    def submit(self, request: LookupRequest) -> None:
        """Enqueue one request (arrivals must be non-decreasing in time)."""
        if self._pending and request.arrival_ms < self._pending[-1].arrival_ms:
            raise ValueError(
                f"request {request.request_id} arrives at {request.arrival_ms}"
                f" ms, before the queue tail"
            )
        self._pending.append(request)

    def deadline_ms(self) -> float:
        """When the current head request forces a release (inf if empty)."""
        if not self._pending:
            return float("inf")
        return self._pending[0].arrival_ms + self.max_delay_ms

    def ready(self, now_ms: float) -> bool:
        """Whether a batch should be released at ``now_ms``."""
        if not self._pending:
            return False
        return (
            len(self._pending) >= self.max_batch_size
            or now_ms >= self.deadline_ms()
        )

    def pop_batch(self) -> list[LookupRequest]:
        """Release up to ``max_batch_size`` oldest requests (FIFO).

        Callers should check :meth:`ready` first; popping early is
        allowed (e.g. to flush at shutdown) but wastes batching headroom.
        """
        if not self._pending:
            raise ValueError("pop_batch on an empty queue")
        count = min(len(self._pending), self.max_batch_size)
        return [self._pending.popleft() for _ in range(count)]


class ScalarLookupServer(LookupServer):
    """A :class:`LookupServer` serving on the per-lookup scalar engine."""

    executor_type = ScalarShardedExecutor


def serve_objects(
    server: LookupServer,
    requests: Iterable[LookupRequest],
    on_replan: Callable[[float], None] | None = None,
) -> ServingMetrics:
    """Run ``server``'s event loop over ``requests`` (non-decreasing
    ``arrival_ms``), one request at a time; returns its metrics.

    Each released batch is packed into an arena and goes through the
    server's own admission, execution and replanning; ``on_replan`` is
    as for :meth:`~repro.serving.server.LookupServer.serve_arenas`.
    """
    queue = MicroBatchQueue(
        max_batch_size=server.config.max_batch_size,
        max_delay_ms=server.config.max_delay_ms,
    )

    def process(trigger_ms: float) -> None:
        """Release one microbatch from the queue and account it."""
        arena = RequestArena.from_requests(queue.pop_batch())
        if server._ovl is not None:
            arena = server.admit_arena(arena, trigger_ms)
            if arena is None:
                return
        server._execute(
            arena.batch, trigger_ms, arena.arrival_ms, on_replan,
            deadlines_ms=arena.deadline_ms, priorities=arena.priority,
        )

    for request in requests:
        now = request.arrival_ms
        # Flush any batch whose delay budget expires before this arrival.
        while len(queue) and queue.deadline_ms() <= now:
            process(queue.deadline_ms())
        queue.submit(request)
        if queue.ready(now):
            process(now)
    # Stream over, clock keeps running: leftover requests wait out
    # their delay budget in case of batchmates, then release.
    while len(queue):
        process(queue.deadline_ms())
    return server.metrics


def synthetic_request_stream(
    model: ModelSpec, num_requests: int, qps: float, **kwargs
) -> Iterator[LookupRequest]:
    """Per-request object view of
    :func:`~repro.serving.server.synthetic_request_arenas` (same
    arguments): :class:`~repro.serving.queue.LookupRequest` objects
    whose feature arrays are zero-copy views into the arena chunks.
    """
    for arena in synthetic_request_arenas(model, num_requests, qps, **kwargs):
        yield from arena
