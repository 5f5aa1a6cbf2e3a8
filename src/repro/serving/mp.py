"""Multi-process serving runtime: worker pool over shared-memory arenas.

Everything the repo measured before this module ran in one Python
process, so every QPS figure was simulated-clock only.  This runtime
puts the columnar fast path under *real* concurrency, in the shape
production stacks use (TorchRec inference: a batching queue feeding a
pool of executor workers):

* the **front-end** (one process) runs the shared admission pass
  (:func:`~repro.serving.queue.iter_microbatch_arenas`), packs each
  released microbatch in place into a free slab of a pool-lifetime
  shared-memory ring (:class:`~repro.serving.arena.ShmSlab`, through
  :meth:`~repro.serving.arena.RequestArena.to_shm`), and dispatches
  ``(seq, handle)`` tasks round-robin over bounded *per-worker* task
  queues (single producer, single consumer each — a worker that dies
  holding its queue's reader lock poisons only its own queue, which
  the self-healing supervisor discards and replaces at respawn;
  a shared MPMC queue would deadlock the whole pool);
* each **worker** process views the slab zero-copy (it keeps slab
  mappings attached across batches), runs the executor's stateless
  *classification* lanes (tier binning, cache and staging fast lanes,
  replica-cut membership) on the batch, and ships the small per-table
  count matrices back on a results queue; the slab returns to the ring
  when the front-end pulls that result;
* the front-end **aggregator** replays the stateful *reduction* — count
  pooling, least-loaded replica routing, the single simulated engine
  clock — strictly in release (``seq``) order, through the in-process
  :class:`~repro.serving.server.LookupServer` spine's one accounting
  step (``LookupServer._account``: fault delivery, brownout decision,
  busy clock, ``record_batch``, overload feedback).  Only the source of
  the per-device result differs from the single-process loop: the
  spine reduces counts the workers classified
  (:meth:`~repro.engine.executor.ShardedExecutor.reduce_classified`)
  instead of running the whole batch in process.

The ring holds at most ``queue_depth + workers`` slabs, created on
demand; a slab too small for a batch is replaced by a larger one.  So
creating, page-faulting and unlinking a segment leave the per-batch
path, and packing is two bulk copies into memory that is already
mapped on both sides.  Every pack stamps the slab's header, and a
worker checks the stamp its task carries before and after classifying:
a stale duplicate of a crash-requeued batch whose slab was recycled in
between replies ``gone`` instead of classifying another batch's bytes.

That classification/reduction split is what makes worker count a pure
throughput knob: replica routing and the busy-clock are sequential
cross-batch state, so they stay in one place, and the merged
:class:`~repro.serving.metrics.ServingMetrics` are **bit-identical** to
a single-process :meth:`~repro.serving.server.LookupServer.serve_arenas`
run of the same stream at any worker count — the parity the
cross-process test suite pins.  The processes parallelize the physical
CPU work (the per-lookup classification, which dominates), not the
simulated topology.

Two serving modes:

* :meth:`MultiProcessServer.serve_arenas` — closed-loop/throughput
  mode: dispatch as fast as the bounded queue admits.  Wall-clock QPS
  of this mode is what ``bench_serving_mp`` gates on.
* :meth:`MultiProcessServer.serve_paced` — open-loop mode: each
  microbatch is offered at the wall-clock time its simulated release
  dictates; when the task queue is full (or no slab is free) the batch
  is **shed** (rejected newest-first, at batch granularity) instead of
  queued, so overload
  keeps the queue bounded by construction and
  ``offered == served + shed`` exactly.

The plan is fixed for the lifetime of the pool: the pool refuses
replans (drift-triggered or emergency) until plan epochs exist — a way
to hand workers a new plan at a batch boundary and reduce late results
under the plan they were classified with.  Until then a replan would
invalidate every worker's executor mid-stream, so drift replanning is
single-process only.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue as queue_mod
import time
from collections import OrderedDict
from functools import partial
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from repro.engine.executor import ShardedExecutor
from repro.engine.ranked import RankRemapper
from repro.serving.arena import (
    RequestArena,
    ShmArena,
    ShmArenaHandle,
    ShmSlab,
)
from repro.serving.faults import FaultInjector, FaultSchedule
from repro.serving.metrics import ServingMetrics
from repro.serving.queue import iter_microbatch_arenas
from repro.serving.server import LookupServer, ServingConfig


class WorkerCrashError(RuntimeError):
    """The worker pool is beyond self-healing.

    The supervisor replaces crashed workers (bounded retries with
    exponential backoff, in-flight batches requeued); this error means
    the respawn budget is exhausted — or the pool hung with work
    outstanding — so the front-end aborts instead of blocking forever
    on the results queue, the hang-free failure mode the stress suite
    asserts.  Construct the pool with ``max_respawns=0`` to make any
    crash fatal immediately (the pre-self-healing behavior).
    """


class _SlabMappings:
    """A worker's slab mappings, kept attached across batches (LRU).

    Bounded by the ring size, so a slab the front-end replaced (or a
    pool that outlived many slabs) costs at most one stale mapping per
    ring slot; an evicted mapping is closed when no view into it is
    alive.
    """

    def __init__(self, limit: int):
        self._limit = max(1, int(limit))
        self._mapped: OrderedDict[str, ShmArena] = OrderedDict()

    def view(self, handle: ShmArenaHandle) -> ShmArena:
        """``handle``'s arena over its slab's (cached) mapping."""
        mapped = self._mapped.pop(handle.name, None)
        if mapped is None:
            mapped = ShmArena.attach(handle)
            while len(self._mapped) >= self._limit:
                self._mapped.popitem(last=False)[1].close()
        self._mapped[handle.name] = mapped
        return mapped.rebind(handle)

    def close(self) -> None:
        for mapped in self._mapped.values():
            mapped.close()
        self._mapped.clear()


def _classify(executor, mappings: _SlabMappings, handle: ShmArenaHandle):
    """Classify the batch ``handle`` names; ``None`` if its bytes are gone.

    A slab repacked since the handle was issued (stamp mismatch,
    checked before and after the classify pass) no longer holds this
    batch.  Every view into the segment dies on return.
    """
    view = mappings.view(handle)
    if view.stale:
        return None
    classified = executor.classify_batch(view.arena.batch)
    return None if view.stale else classified


def _worker_main(worker_id, spec, task_queue, result_queue, max_mappings):
    """Worker process body: classify microbatches until told to stop.

    Builds its own :class:`~repro.engine.executor.ShardedExecutor` from
    the picklable ``spec`` (spawn-safe; under fork this is cheap and
    keeps the code path identical), then loops: view the task's
    shared-memory arena, run the stateless classification lanes, ship
    the count matrices back.  Slab mappings stay attached across tasks
    (at most ``max_mappings``) and are closed on a clean stop.  A
    ``None`` task is the shutdown sentinel; a negative seq is the
    scripted-crash sentinel (``worker_kill`` drills — hard
    ``os._exit(1)``, no cleanup).  Per-task exceptions are reported as
    ``err`` results rather than killing the worker; only queue-level
    failures end the loop.

    A batch whose bytes are gone is reported as a ``gone`` result
    instead of an error: after a crash-triggered requeue the same seq
    can sit in the task queue twice, and whichever copy loses the race
    finds its segment unlinked (``FileNotFoundError`` on attach) or its
    slab repacked with a later batch (stamp mismatch).  The front-end
    drops ``gone`` results for satisfied seqs.
    """
    model, plan, profile, topology, cache, staging = spec
    executor = ShardedExecutor(
        model, plan, profile, topology,
        cache=cache, staging=staging, ranker=RankRemapper(profile),
    )
    mappings = _SlabMappings(max_mappings)
    try:
        while True:
            task = task_queue.get()
            if task is None:
                break
            seq, handle = task
            if seq < 0:
                # Scripted worker_kill: die hard (no cleanup, exit code
                # 1) at a point where no queue lock is held — get()
                # released the reader lock before returning.  SIGKILL-ing
                # a worker blocked *inside* get() would leave the lock
                # held forever.
                os._exit(1)
            try:
                classified = _classify(executor, mappings, handle)
            except FileNotFoundError:
                classified = None
            except Exception as exc:  # surfaced, never swallowed into a hang
                result_queue.put(
                    ("err", seq, worker_id, f"{type(exc).__name__}: {exc}")
                )
                continue
            if classified is None:
                result_queue.put(("gone", seq, worker_id))
            else:
                result_queue.put(("ok", seq, worker_id, *classified))
    finally:
        mappings.close()


class _InFlight(NamedTuple):
    """One dispatched batch: its slab and its accounting inputs."""

    slab: ShmSlab
    arrivals: np.ndarray
    trigger: float
    deadlines: np.ndarray | None
    priorities: np.ndarray | None


class _SlabRing:
    """The front-end's pool-lifetime slabs; at most ``capacity`` exist.

    Slabs are made on demand (each one's segment by its first pack) and
    recycled last-in first-out, so a pool that keeps up touches the
    same few pages over and over.
    """

    def __init__(self, capacity: int):
        self.capacity = int(capacity)
        self.slabs: list[ShmSlab] = []
        self._free: list[ShmSlab] = []

    def can_acquire(self) -> bool:
        return bool(self._free) or len(self.slabs) < self.capacity

    def acquire(self) -> ShmSlab | None:
        """A free slab, or ``None`` when every slab is in flight."""
        if self._free:
            return self._free.pop()
        if len(self.slabs) < self.capacity:
            self.slabs.append(ShmSlab())
            return self.slabs[-1]
        return None

    def release(self, slab: ShmSlab) -> None:
        self._free.append(slab)

    def close(self) -> None:
        """Unlink every slab's segment."""
        for slab in self.slabs:
            slab.destroy()
        self.slabs.clear()
        self._free.clear()


class MultiProcessServer:
    """Serve a fixed sharding plan with a pool of worker processes.

    Construction mirrors :class:`~repro.serving.server.LookupServer`
    (same ``plan=``/``sharder=`` choice, cache/staging/replication
    lanes, :class:`~repro.serving.server.ServingConfig` tunables) — a
    ``sharder`` is used once to build the initial plan and then
    dropped: the pool refuses replans, drift-triggered or emergency,
    until plan epochs let workers switch plans at a batch boundary.
    The front-end keeps an in-process :class:`LookupServer` as the
    aggregation spine: every classified batch goes through the spine's
    accounting step, its executor performs the sequential reductions
    and its metrics object accumulates the merged results, so
    summaries and reports come out in exactly the single-process
    schema.

    Args:
        model, profile, topology, plan, sharder, config, cache,
        staging, replication: as for ``LookupServer``.
        workers: worker process count (>= 1).
        queue_depth: aggregate task-queue bound (default
            ``2 * workers``), split evenly across the per-worker
            queues — the backpressure knob; also what overload
            shedding pushes against in paced mode.  The shared-memory
            slab ring holds at most ``queue_depth + workers`` slabs.
        start_method: multiprocessing start method (``"fork"``,
            ``"spawn"``, ...); ``None`` uses the platform default.
        result_timeout_s: longest the front-end will wait on the
            results queue with work outstanding before declaring the
            pool wedged (:class:`WorkerCrashError`).
        chaos: optional :class:`~repro.serving.faults.FaultSchedule`.
            ``worker_kill`` events SIGKILL pool workers on the serving
            clock (the self-healing supervisor's drill); device events
            are applied to the aggregation spine's executor in batch
            order — replicated lookups reroute and drops are counted,
            but the pool serves a *frozen* plan, so there is no
            emergency replan here (that is the single-process
            :class:`~repro.serving.server.LookupServer`'s job).
        max_respawns: total crashed-worker replacements the supervisor
            may perform across the pool's lifetime before a crash
            becomes fatal (:class:`WorkerCrashError`); ``0`` disables
            self-healing.
        respawn_backoff_s: base of the exponential backoff slept
            before each respawn (doubles per respawn, capped at 1 s).
        overload: optional :class:`~repro.serving.overload.
            OverloadControl`, as for ``LookupServer``.  Admission runs
            on the aggregation spine; when deadline/priority shedding
            applies to a stream, the front-end drains all in-flight
            batches before each admission decision (lockstep) so the
            controller sees exactly the single-process backlog —
            brownout-only control keeps full classify parallelism
            because its transform happens at in-order reduction time.
    """

    #: poll granularity for result waits and crash checks (seconds).
    _POLL_S = 0.05

    def __init__(
        self,
        model,
        profile,
        topology,
        plan=None,
        sharder=None,
        config: ServingConfig | None = None,
        cache=None,
        staging=None,
        replication=None,
        workers: int = 2,
        queue_depth: int | None = None,
        start_method: str | None = None,
        result_timeout_s: float = 30.0,
        chaos: FaultSchedule | None = None,
        max_respawns: int = 3,
        respawn_backoff_s: float = 0.05,
        overload=None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_respawns < 0:
            raise ValueError("max_respawns must be >= 0")
        if respawn_backoff_s < 0:
            raise ValueError("respawn_backoff_s must be >= 0")
        if chaos is not None:
            chaos.validate_targets(
                topology.num_devices, num_workers=workers
            )
        spine = LookupServer(
            model, profile, topology,
            plan=plan, sharder=sharder, config=config,
            cache=cache, staging=staging, replication=replication,
            # The spine replays the device events in batch order; worker
            # events are the supervisor's to fire.
            chaos=(
                FaultSchedule(chaos.device_events)
                if chaos is not None and chaos.device_events
                else None
            ),
            overload=overload,
        )
        # Freeze the plan: the pool never replans, so the spine's drift
        # machinery (monitor, profiler, sharder) is dropped; without a
        # sharder a device failure runs reroute-only degraded mode.
        spine.sharder = None
        spine.monitor = None
        spine._profiler = None
        self._spine = spine
        self.workers = int(workers)
        self.queue_depth = (
            int(queue_depth) if queue_depth is not None else 2 * self.workers
        )
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        self.result_timeout_s = float(result_timeout_s)
        self.chaos = chaos
        self._worker_faults = (
            FaultInjector(FaultSchedule(chaos.worker_events))
            if chaos is not None and chaos.worker_events
            else None
        )
        self._worker_chaos_armed = self._worker_faults is not None
        self.max_respawns = int(max_respawns)
        self.respawn_backoff_s = float(respawn_backoff_s)
        #: workers replaced by the supervisor so far (pool lifetime).
        self.respawn_count = 0
        #: human-readable supervisor log (kills observed, respawns) —
        #: kept off ServingMetrics so merged metrics stay bit-identical
        #: to a single-process run of the same stream.
        self.worker_fault_log: list[str] = []
        self._ctx = (
            mp.get_context(start_method)
            if start_method is not None
            else mp.get_context()
        )
        self._spec = (
            model, spine.plan, spine.profile, topology, cache, staging,
        )
        self._procs: list = []
        self._task_qs: list = []
        self._result_q = None
        # Per-worker task-queue bound: the aggregate queue_depth is
        # split across the pool's single-consumer queues.
        self._per_worker_depth = max(1, self.queue_depth // self.workers)
        # Enough slabs for a full queue plus one batch per worker; the
        # ring (and its segments) lives until close().
        self._ring = _SlabRing(self.queue_depth + self.workers)

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        return bool(self._procs)

    @property
    def config(self) -> ServingConfig:
        return self._spine.config

    @property
    def plan(self):
        return self._spine.plan

    @property
    def metrics(self) -> ServingMetrics:
        return self._spine.metrics

    def reset_serving_state(self, rearm_chaos: bool = False) -> None:
        """Start an independent stream on the same plan and worker pool.

        Resets the aggregator spine (metrics, simulated clock, replica
        routing history, device fault state) without restarting workers
        — their classify pass is stateless, so only the front-end
        carries stream state; the slab ring is kept too.  As in the
        single-process server, the
        chaos script is disarmed unless ``rearm_chaos=True``; the
        supervisor's respawn budget and count are pool-lifetime and
        not reset.
        """
        self._spine.reset_serving_state(rearm_chaos=rearm_chaos)
        if self._worker_faults is not None:
            self._worker_faults.reset()
            self._worker_chaos_armed = rearm_chaos

    def start(self) -> "MultiProcessServer":
        """Spawn the worker pool (idempotent)."""
        if self.started:
            return self
        # Start the parent's shared-memory resource tracker *before*
        # forking, so workers inherit it instead of lazily spawning
        # their own: attach-side registrations then collapse (set
        # semantics) with the owner's, and the owner's unlink clears
        # the single entry — no spurious "leaked shared_memory object"
        # warnings at worker exit, while the tracker's crash-cleanup
        # net stays intact.
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
        self._task_qs = [
            self._ctx.Queue(maxsize=self._per_worker_depth)
            for _ in range(self.workers)
        ]
        self._result_q = self._ctx.Queue()
        self._procs = [
            self._ctx.Process(
                target=_worker_main,
                args=(
                    i, self._spec, self._task_qs[i], self._result_q,
                    self._ring.capacity,
                ),
                daemon=True,
                name=f"recshard-worker-{i}",
            )
            for i in range(self.workers)
        ]
        for proc in self._procs:
            proc.start()
        return self

    def close(self, timeout_s: float = 5.0) -> None:
        """Shut the pool down cleanly (idempotent).

        Live workers get one ``None`` sentinel each and a join window;
        stragglers (and already-crashed workers) are terminated.  Queues
        are drained and closed so their feeder threads exit, and every
        slab of the ring is unlinked.
        """
        if not self.started:
            return
        deadline = time.perf_counter() + timeout_s
        # One sentinel per live worker, on its own queue.  Retry while
        # the worker drains a full queue rather than dropping the
        # sentinel — a dropped sentinel would leave it blocked in
        # get() for the whole join window.
        owed = {
            i for i, p in enumerate(self._procs) if p.is_alive()
        }
        while owed and time.perf_counter() < deadline:
            for index in sorted(owed):
                try:
                    self._task_qs[index].put(None, timeout=0.05)
                    owed.discard(index)
                except queue_mod.Full:
                    pass
        for proc in self._procs:
            proc.join(timeout=max(0.0, deadline - time.perf_counter()))
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        for q in self._task_qs:
            # Task queues may be poisoned (a worker SIGKILLed inside
            # get() keeps the reader lock) — drain best-effort and
            # never wait on the feeder thread.
            try:
                while True:
                    q.get_nowait()
            except (queue_mod.Empty, OSError, ValueError):
                pass
            q.close()
            q.cancel_join_thread()
        try:
            while True:
                self._result_q.get_nowait()
        except (queue_mod.Empty, OSError, ValueError):
            pass
        self._result_q.close()
        self._result_q.join_thread()
        self._ring.close()
        self._procs = []
        self._task_qs = []
        self._result_q = None

    def kill_worker(self, index: int) -> None:
        """Hard-kill one worker (SIGKILL, no cleanup).

        The blast radius is the worker's own single-consumer task
        queue (discarded at respawn); scripted ``worker_kill`` drills
        prefer the lock-safe die sentinel and only fall back to this.
        """
        if not self.started:
            raise ValueError("pool is not started")
        self._procs[index].kill()
        self._procs[index].join(timeout=5.0)

    def __enter__(self) -> "MultiProcessServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Serving modes
    # ------------------------------------------------------------------
    def serve_arenas(self, arenas: Iterable[RequestArena]) -> ServingMetrics:
        """Closed-loop mode: dispatch as fast as the queue admits.

        Batch formation, execution semantics, and merged metrics are
        bit-identical to the single-process
        :meth:`~repro.serving.server.LookupServer.serve_arenas` on the
        same stream; only the wall-clock cost of classification is
        spread across the pool.  Raises :class:`WorkerCrashError` if a
        worker dies (or the pool hangs) with work outstanding.
        """
        self.start()
        released = iter_microbatch_arenas(
            arenas, self.config.max_batch_size, self.config.max_delay_ms
        )
        return self._run(released, paced=False, speed=1.0)

    def serve_paced(
        self, arenas: Iterable[RequestArena], speed: float = 1.0
    ) -> ServingMetrics:
        """Open-loop mode: offer batches on the simulated release clock.

        Each microbatch is offered at the wall-clock time its simulated
        ``trigger_ms`` maps to (``speed`` simulated ms per wall ms; 2.0
        replays a stream twice as fast).  A full task queue sheds the
        offered batch — reject-newest, batch granularity, counted via
        :meth:`~repro.serving.metrics.ServingMetrics.record_shed` — so
        sustained overload keeps queueing bounded instead of unbounded.
        Shed batches never execute; accounting stays exact:
        ``offered == metrics.num_requests + metrics.shed_requests``.
        """
        if speed <= 0:
            raise ValueError("speed must be > 0")
        self.start()
        released = iter_microbatch_arenas(
            arenas, self.config.max_batch_size, self.config.max_delay_ms
        )
        return self._run(released, paced=True, speed=speed)

    # ------------------------------------------------------------------
    # Front-end event loop
    # ------------------------------------------------------------------
    def _run(
        self,
        released: Iterator[tuple[RequestArena, float]],
        paced: bool,
        speed: float,
    ) -> ServingMetrics:
        """Dispatch released microbatches, merge results in seq order.

        ``pending`` holds each in-flight batch's slab and accounting
        inputs (arrivals, trigger); ``results`` holds
        classified counts that arrived out of order.  The aggregation
        cursor advances over consecutive sequence numbers only, so
        reductions replay in release order no matter which worker
        finishes first.  A slab stays pinned from its pack until its
        batch's result is pulled (through any crash requeue).  All
        exits — normal, worker crash, worker error — leave no segment
        orphaned: the normal path returns every slab to the ring, the
        abort path closes the pool, which unlinks the ring (the
        no-orphaned-``/dev/shm`` invariant the leak tests scan for).
        """
        pending: dict[int, _InFlight] = {}
        results: dict[int, tuple] = {}
        cursor = 0  # next seq to account
        seq = 0
        wall_start = None
        first_trigger = None
        ctrl = self._spine._ovl
        try:
            for arena, trigger in released:
                if self._worker_chaos_armed:
                    self._fire_worker_faults(trigger, pending, results)
                if paced:
                    if wall_start is None:
                        wall_start = time.perf_counter()
                        first_trigger = trigger
                    due = wall_start + (trigger - first_trigger) / (
                        1e3 * speed
                    )
                    while True:
                        now = time.perf_counter()
                        if now >= due:
                            break
                        cursor = self._drain(
                            pending, results, cursor,
                            block_s=min(self._POLL_S, due - now),
                        )
                        self._check_workers(pending, results)
                if ctrl is not None and ctrl.control.admission_for(
                    arena.has_qos
                ):
                    # Lockstep barrier: the controller's backlog and
                    # EWMA state must reflect every earlier batch —
                    # exactly what the single-process loop admits
                    # against — so admission decisions (and therefore
                    # the merged metrics) stay bit-identical at any
                    # worker count.
                    cursor = self._drain_all(pending, results, cursor)
                    arena = self._spine.admit_arena(arena, trigger)
                    if arena is None:
                        continue
                slab, cursor = self._free_slab(pending, results, cursor, paced)
                if slab is not None:
                    handle = arena.to_shm(slab=slab).handle
                    pending[seq] = _InFlight(
                        slab, np.array(arena.arrival_ms), trigger,
                        arena.deadline_ms, arena.priority,
                    )
                    dispatch = partial(self._try_dispatch, seq, (seq, handle))
                    if not paced:
                        cursor = self._wait_until(
                            dispatch, pending, results, cursor
                        )
                    elif not dispatch():
                        del pending[seq]
                        self._ring.release(slab)
                        slab = None
                if slab is None:
                    # Paced overload: no free slab, or every worker
                    # queue full — reject the newest batch outright.
                    # Its seq is reused by the next dispatched batch
                    # (shed batches never enter the in-order accounting
                    # stream).
                    self.metrics.record_shed(
                        arena.num_requests,
                        cause="overflow",
                        priorities=arena.priority,
                    )
                    continue
                seq += 1
                cursor = self._drain(pending, results, cursor)
            # Stream exhausted: deliver any worker faults scheduled
            # beyond the last release, then wait out the in-flight tail.
            if self._worker_chaos_armed:
                self._fire_worker_faults(float("inf"), pending, results)
            cursor = self._drain_all(pending, results, cursor)
        except BaseException:
            self._abort(pending)
            raise
        return self.metrics

    def _free_slab(
        self, pending: dict, results: dict, cursor: int, paced: bool
    ) -> tuple[ShmSlab | None, int]:
        """A slab to pack the next batch into, and the advanced cursor.

        Closed-loop mode waits on the workers until a slab frees up;
        paced mode makes one non-blocking pull and returns ``None`` if
        every slab is still in flight (the caller sheds the batch).
        """
        if not self._ring.can_acquire():
            if paced:
                cursor = self._drain(pending, results, cursor)
            else:
                cursor = self._wait_until(
                    self._ring.can_acquire, pending, results, cursor
                )
        return self._ring.acquire(), cursor

    def _wait_until(
        self, ready, pending: dict, results: dict, cursor: int
    ) -> int:
        """Pull and account results until ``ready()``; returns the cursor.

        Waits by blocking on the results queue (a result is what frees
        a slab or a queue slot), never by sleeping, and heals the pool
        between pulls.  Raises :class:`WorkerCrashError` when no result
        arrives for ``result_timeout_s`` with work outstanding.
        """
        last = time.perf_counter()
        while not ready():
            before = (cursor, len(results))
            cursor = self._drain(
                pending, results, cursor, block_s=self._POLL_S
            )
            self._check_workers(pending, results)
            now = time.perf_counter()
            if (cursor, len(results)) != before:
                last = now
            elif now - last >= self.result_timeout_s:
                raise WorkerCrashError(
                    f"no results for {self.result_timeout_s:.1f} s with "
                    f"{len(pending)} batches outstanding"
                )
        return cursor

    def _drain_all(self, pending: dict, results: dict, cursor: int) -> int:
        """Block until every in-flight batch is accounted.

        Used at stream end and as the lockstep barrier before an
        overload-admission decision.
        """
        return self._wait_until(
            lambda: not pending, pending, results, cursor
        )

    def _try_dispatch(self, seq: int, task) -> bool:
        """Offer a task to one alive worker, round-robin from ``seq``.

        Returns False when every alive worker's queue is full (the
        aggregate backpressure signal) or no worker is alive; the
        caller then drains results, heals the pool, and retries — or
        sheds, in paced mode.
        """
        for lane in range(self.workers):
            index = (seq + lane) % self.workers
            if not self._procs[index].is_alive():
                continue
            try:
                self._task_qs[index].put_nowait(task)
                return True
            except queue_mod.Full:
                continue
        return False

    def _drain(
        self,
        pending: dict,
        results: dict,
        cursor: int,
        block_s: float = 0.0,
    ) -> int:
        """Pull available results, release their slabs, account in order.

        Returns the advanced sequence cursor.  A worker-reported ``err``
        result aborts the run (after segment cleanup, via the caller's
        except path).
        """
        self._pull_results(pending, results, block_s)
        spine = self._spine
        while cursor in results:
            counts, hits, replicas, cuts = results.pop(cursor)
            batch = pending.pop(cursor)
            spine._account(
                lambda: spine.executor.reduce_classified(
                    counts, hits, replicas, cuts
                ),
                int(counts.sum()),
                batch.trigger,
                batch.arrivals,
                batch.deadlines,
                batch.priorities,
            )
            cursor += 1
        return cursor

    def _pull_results(
        self, pending: dict, results: dict, block_s: float = 0.0
    ) -> None:
        """Collect ready results and recycle their slabs (no accounting).

        Tolerates the duplicates a crash-triggered requeue can create:
        an ``ok``/``err`` for a seq that is no longer owed (already in
        ``results`` or already accounted out of ``pending``) is stale —
        its slab was recycled when the first copy landed — and a
        ``gone`` result is a worker reporting exactly that staleness
        from its side.  Only an ``err`` for a seq still owed aborts.
        """
        while True:
            try:
                if block_s > 0:
                    item = self._result_q.get(timeout=block_s)
                    block_s = 0.0  # only the first get blocks
                else:
                    item = self._result_q.get_nowait()
            except queue_mod.Empty:
                break
            if item[0] == "gone":
                continue
            if item[0] == "err":
                _, err_seq, worker_id, message = item
                if err_seq in pending and err_seq not in results:
                    raise RuntimeError(
                        f"worker {worker_id} failed on batch {err_seq}: "
                        f"{message}"
                    )
                continue
            _, got_seq, _, counts, hits, replicas, cuts = item
            if got_seq not in pending or got_seq in results:
                continue
            # The worker is done with the slab: back to the ring.
            self._ring.release(pending[got_seq].slab)
            results[got_seq] = (counts, hits, replicas, cuts)

    def _fire_worker_faults(
        self, trigger_ms: float, pending: dict, results: dict
    ) -> None:
        """Deliver scripted worker kills due by ``trigger_ms``.

        The die sentinel rides the victim's own task queue, so the
        worker finishes already-dequeued work and dies at a lock-free
        point (``os._exit(1)``, no cleanup, exit code 1) — the crash
        is real, but it cannot happen while the process holds a queue
        lock, which a mid-``get()`` SIGKILL would turn into a permanent
        pool deadlock.  A worker that fails to die inside the result
        timeout is SIGKILLed anyway (its queue is discarded at
        respawn).  The supervisor then heals the pool before dispatch
        continues, which is what makes the drill deterministic.
        """
        fired = False
        for event in self._worker_faults.pop_due(trigger_ms):
            self.worker_fault_log.append(event.describe())
            index = event.target
            proc = self._procs[index]
            deadline = time.perf_counter() + self.result_timeout_s
            delivered = False
            while proc.is_alive() and time.perf_counter() < deadline:
                if not delivered:
                    try:
                        self._task_qs[index].put_nowait((-1, None))
                        delivered = True
                    except queue_mod.Full:
                        pass
                self._pull_results(pending, results)
                proc.join(timeout=self._POLL_S)
            if proc.is_alive():  # wedged worker: fall back to SIGKILL
                self.kill_worker(index)
            fired = True
        if fired:
            self._check_workers(pending, results)

    def _check_workers(self, pending: dict, results: dict) -> None:
        """Self-healing supervisor: replace dead workers, requeue work.

        Each dead worker is replaced (exponential backoff, same worker
        id and queues) while the respawn budget lasts; every batch
        still owed is then requeued, because the front-end cannot know
        which seqs died with the worker.  Duplicates this creates are
        absorbed by :meth:`_pull_results`.  Budget exhausted →
        :class:`WorkerCrashError` (the caller's abort path unlinks the
        slab ring).
        """
        dead = [
            (index, proc)
            for index, proc in enumerate(self._procs)
            if not proc.is_alive()
        ]
        if not dead:
            return
        if self.respawn_count + len(dead) > self.max_respawns:
            detail = ", ".join(
                f"{proc.name} (exit {proc.exitcode})" for _, proc in dead
            )
            raise WorkerCrashError(
                f"worker(s) died with {len(pending)} batches in flight "
                f"and the respawn budget exhausted "
                f"({self.respawn_count}/{self.max_respawns} used): {detail}"
            )
        for index, proc in dead:
            time.sleep(
                min(self.respawn_backoff_s * 2**self.respawn_count, 1.0)
            )
            proc.join(timeout=1.0)
            # The dead worker's queue may hold undelivered tasks and —
            # if it was SIGKILLed inside get() — a permanently-held
            # reader lock.  Abandon it; owed batches are requeued below.
            old = self._task_qs[index]
            old.close()
            old.cancel_join_thread()
            self._task_qs[index] = self._ctx.Queue(
                maxsize=self._per_worker_depth
            )
            replacement = self._ctx.Process(
                target=_worker_main,
                args=(
                    index, self._spec, self._task_qs[index], self._result_q,
                    self._ring.capacity,
                ),
                daemon=True,
                name=f"recshard-worker-{index}",
            )
            replacement.start()
            self._procs[index] = replacement
            self.respawn_count += 1
            self.worker_fault_log.append(
                f"respawned worker {index} "
                f"({self.respawn_count}/{self.max_respawns})"
            )
        self._requeue(pending, results)

    def _requeue(self, pending: dict, results: dict) -> None:
        """Re-dispatch every batch still owed after a worker crash.

        The slabs of owed batches are still pinned (a slab returns to
        the ring only when its batch's result lands), so each slab's
        handle still describes its batch and re-sending it is safe; a
        worker that picks up a stale duplicate later reports
        ``gone``/duplicate and is ignored.
        """
        for seq in sorted(s for s in pending if s not in results):
            task = (seq, pending[seq].slab.handle)
            while not self._try_dispatch(seq, task):
                if not any(p.is_alive() for p in self._procs):
                    # Nobody draining any queue; the next
                    # _check_workers pass deals with the new corpse.
                    return
                self._pull_results(pending, results, block_s=self._POLL_S)
                if seq in results:
                    break  # landed after all — nothing to requeue

    def _abort(self, pending: dict) -> None:
        """Error-path cleanup: no orphaned segments, no wedged pool.

        Closing the pool unlinks every slab, pinned ones included.
        """
        pending.clear()
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
        self.close(timeout_s=1.0)
