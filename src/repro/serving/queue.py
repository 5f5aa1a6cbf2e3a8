"""Microbatching admission for online embedding lookups.

Inference requests arrive one sample at a time, but the sharded engine
(and the real FBGEMM kernels it stands in for) only reaches hardware
efficiency on batched lookups.  The standard serving remedy — used by
TorchRec inference, Triton dynamic batching, and every production
recommender — is a microbatching queue: hold arriving requests briefly
and release them as one batch when either the batch-size cap is hit or
the oldest request has waited its latency budget.

:func:`iter_microbatch_arenas` makes those release decisions over the
arrival arrays of columnar :mod:`repro.serving.arena` chunks,
deterministically (no wall time, no threads), and is checked bit for
bit against the per-request oracle
:class:`~repro.reference.serving.MicroBatchQueue`.  The object view of
a request (:class:`LookupRequest`, :func:`coalesce_requests`) stays
here because :meth:`~repro.serving.arena.RequestArena.from_requests`
packs it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.batch import JaggedBatch, JaggedFeature


@dataclass(frozen=True)
class LookupRequest:
    """One inference sample's embedding lookups, across all features.

    Attributes:
        request_id: caller-chosen identifier (unique per stream).
        features: per-feature arrays of hashed embedding indices; an
            empty array marks a NULL sample for that feature (a missing
            sparse feature, as in the paper's Figure 3).
        arrival_ms: simulated arrival timestamp in milliseconds.
        deadline_ms: absolute deadline for a useful answer (``inf`` =
            no deadline); overload control sheds work predicted to
            finish past it.
        priority: small-int priority class; lower is more important
            and class 0 is never priority-shed.
    """

    request_id: int
    features: tuple[np.ndarray, ...]
    arrival_ms: float = 0.0
    deadline_ms: float = float("inf")
    priority: int = 0

    @property
    def num_features(self) -> int:
        return len(self.features)

    @property
    def total_lookups(self) -> int:
        return int(sum(f.size for f in self.features))


def coalesce_requests(requests: list[LookupRequest]) -> JaggedBatch:
    """Merge requests into one jagged batch (sample i = request i).

    The inverse of per-sample slicing: request ``i`` becomes sample
    ``i`` of every feature, preserving submission order so per-request
    results can be scattered back after execution.
    """
    if not requests:
        raise ValueError("cannot coalesce an empty request list")
    num_features = requests[0].num_features
    for r in requests:
        if r.num_features != num_features:
            raise ValueError(
                f"request {r.request_id} has {r.num_features} features, "
                f"expected {num_features}"
            )
    features = []
    for j in range(num_features):
        per_sample = [r.features[j] for r in requests]
        lengths = np.array([s.size for s in per_sample], dtype=np.int64)
        offsets = np.zeros(lengths.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        if offsets[-1]:
            values = np.concatenate(
                [np.asarray(s, dtype=np.int64) for s in per_sample]
            )
        else:
            values = np.empty(0, dtype=np.int64)
        features.append(JaggedFeature(values, offsets))
    return JaggedBatch(features)


def iter_microbatch_arenas(arenas, max_batch_size: int, max_delay_ms: float):
    """Admission over arena chunks: yield released microbatches.

    The batch-formation core of the columnar serving fast path, shared
    by the in-process :meth:`~repro.serving.server.LookupServer.serve_arenas`
    loop and the multi-process front-end
    (:class:`~repro.serving.mp.MultiProcessServer`), so both runtimes
    release *identical* microbatches for a given stream — the structural
    basis of their metrics parity.

    Admission decisions depend only on arrival times, the size cap, and
    the delay budget — never on execution — so release points are
    computed directly on each chunk's arrival array: a batch starting at
    request ``i`` either fills to the cap (released at the cap-th
    arrival) or is flushed at ``arrival[i] + max_delay_ms`` by the first
    later arrival past that deadline.  An undecided tail is carried as a
    list of zero-copy slices (total size below the cap, every arrival
    before the head's deadline) and only stitched when its batch
    releases.  Release semantics match the per-request
    :class:`~repro.reference.serving.MicroBatchQueue` bit for bit
    (``deadline <= now`` flushes before the newcomer is submitted).

    Args:
        arenas: :class:`~repro.serving.arena.RequestArena` chunks in
            arrival order.
        max_batch_size: microbatch release threshold in requests.
        max_delay_ms: longest a request may wait for batchmates.

    Yields:
        ``(arena, trigger_ms)`` pairs — one zero-copy (or
        tail-stitched) :class:`~repro.serving.arena.RequestArena` per
        released microbatch, with the simulated release time.
    """
    from repro.serving.arena import RequestArena

    cap = int(max_batch_size)
    delay = float(max_delay_ms)
    pending: list = []
    pending_count = 0
    for arena in arenas:
        n = arena.num_requests
        if n == 0:
            continue
        i = 0
        if pending_count:
            deadline = float(pending[0].arrival_ms[0]) + delay
            flush = int(
                np.searchsorted(arena.arrival_ms, deadline, side="left")
            )
            need = cap - pending_count
            if need <= n and need <= flush:
                i, trigger = need, float(arena.arrival_ms[need - 1])
            elif flush < n:
                i, trigger = flush, deadline
            else:
                pending.append(arena)
                pending_count += n
                continue
            parts = pending + ([arena.slice(0, i)] if i else [])
            yield RequestArena.concat(parts), trigger
            pending, pending_count = [], 0
        arrivals = arena.arrival_ms
        while i < n:
            deadline = float(arrivals[i]) + delay
            # First later arrival at/past the deadline forces a flush
            # *before* that request is admitted (queue semantics:
            # deadline <= now flushes, then the newcomer is submitted).
            flush = int(np.searchsorted(arrivals, deadline, side="left"))
            if flush <= i:
                flush = i + 1
            if i + cap <= n and i + cap <= flush:
                # Cap fills first: released at the cap-th arrival.
                end, trigger = i + cap, float(arrivals[i + cap - 1])
            elif flush < n:
                end, trigger = flush, deadline
            else:
                pending, pending_count = [arena.slice(i, n)], n - i
                break
            yield arena.slice(i, end), trigger
            i = end
    if pending_count:
        # Stream over: the tail waits out its delay budget (all of it
        # arrived before the head's deadline, so it releases as one
        # batch — mirroring the object loop's drain).
        merged = RequestArena.concat(pending)
        yield merged, float(merged.arrival_ms[0]) + delay

