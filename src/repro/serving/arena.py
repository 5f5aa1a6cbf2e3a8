"""Columnar request storage: the serving fast path's data layout.

The object-path request stream materializes one
:class:`~repro.serving.queue.LookupRequest` plus ``num_features`` tiny
index arrays per sample, and :func:`~repro.serving.queue.coalesce_requests`
re-concatenates those fragments for every released microbatch — so a
simulated server spends its wall-clock on Python object churn rather
than on lookups.  A :class:`RequestArena` keeps a chunk of requests
*columnar end to end*: per feature one flat ``values`` array plus one
``offsets`` array (request ``i`` owns segment ``[offsets[i],
offsets[i+1])``), and one ``arrival_ms`` array for the whole chunk —
the same feature-major jagged layout the engine consumes, so a
microbatch is a pair of array slices instead of a rebuild.  This is the
data-structure move serving-efficiency work like MicroRec makes on the
inference path: restructure the request representation so the hot loop
only slices views.

:class:`~repro.serving.queue.LookupRequest` remains the object API:
:meth:`RequestArena.request` materializes one as zero-copy views into
the arena's arrays, which is what keeps the per-request oracle loop
(:mod:`repro.reference.serving`) working unchanged on top of
arena-backed generation.
"""

from __future__ import annotations

import itertools
import os
import struct
from dataclasses import dataclass, replace
from multiprocessing import shared_memory
from typing import Iterator

import numpy as np

from repro.data.batch import JaggedBatch, JaggedFeature
from repro.serving.queue import LookupRequest, coalesce_requests

#: per-process counter for default shared-memory segment names.
_SHM_SEQ = itertools.count()

#: prefix of every segment this module creates (leak checks scan for it).
SHM_NAME_PREFIX = "recshard-arena"


class RequestArena:
    """One chunk of lookup requests in feature-major columnar layout.

    Args:
        batch: the chunk's lookups as one jagged batch — sample ``i``
            of every feature belongs to request ``i``.
        arrival_ms: per-request arrival timestamps, non-decreasing,
            shape ``(num_requests,)``.
        base_id: request id of the chunk's first request (ids are
            consecutive within a chunk).
        deadline_ms: optional per-request absolute deadlines (float64,
            same shape as ``arrival_ms``); ``inf`` marks "no deadline".
        priority: optional per-request priority classes (int64, lower
            is more important; 0 is the protected top class).

    The two QoS columns travel together: providing either materializes
    both (missing deadlines default to ``inf``, missing priorities to
    class 0), so downstream code only ever sees "no QoS" or "full QoS".
    """

    __slots__ = (
        "batch",
        "arrival_ms",
        "base_id",
        "deadline_ms",
        "priority",
        "_offsets_mat",
    )

    def __init__(
        self,
        batch: JaggedBatch,
        arrival_ms: np.ndarray,
        base_id: int = 0,
        deadline_ms: np.ndarray | None = None,
        priority: np.ndarray | None = None,
    ):
        arrival_ms = np.asarray(arrival_ms, dtype=np.float64)
        if arrival_ms.ndim != 1:
            raise ValueError("arrival_ms must be a 1-D array")
        if batch.num_features and batch.batch_size != arrival_ms.size:
            raise ValueError(
                f"batch holds {batch.batch_size} requests, arrival_ms "
                f"{arrival_ms.size}"
            )
        if arrival_ms.size > 1 and np.any(np.diff(arrival_ms) < 0):
            raise ValueError("arrival_ms must be non-decreasing")
        if deadline_ms is not None or priority is not None:
            if deadline_ms is None:
                deadline_ms = np.full(arrival_ms.size, np.inf)
            else:
                deadline_ms = np.asarray(deadline_ms, dtype=np.float64)
            if priority is None:
                priority = np.zeros(arrival_ms.size, dtype=np.int64)
            else:
                priority = np.asarray(priority, dtype=np.int64)
            if deadline_ms.shape != arrival_ms.shape:
                raise ValueError(
                    f"deadline_ms shape {deadline_ms.shape} != "
                    f"arrival_ms shape {arrival_ms.shape}"
                )
            if priority.shape != arrival_ms.shape:
                raise ValueError(
                    f"priority shape {priority.shape} != "
                    f"arrival_ms shape {arrival_ms.shape}"
                )
            if priority.size and priority.min() < 0:
                raise ValueError("priority classes must be >= 0")
        self.batch = batch
        self.arrival_ms = arrival_ms
        self.base_id = int(base_id)
        self.deadline_ms = deadline_ms
        self.priority = priority
        self._offsets_mat: np.ndarray | None = None

    @property
    def offsets_mat(self) -> np.ndarray:
        """All features' offsets stacked, shape ``(features, requests + 1)``.

        Built once per arena; every microbatch slice then rebases its
        offsets with one vectorized subtraction over all features
        instead of a numpy call per feature.
        """
        if self._offsets_mat is None:
            self._offsets_mat = np.stack([f.offsets for f in self.batch])
        return self._offsets_mat

    @property
    def num_requests(self) -> int:
        return self.arrival_ms.size

    @property
    def num_features(self) -> int:
        return self.batch.num_features

    @property
    def total_lookups(self) -> int:
        return self.batch.total_lookups

    @property
    def has_qos(self) -> bool:
        """Whether this chunk carries deadline/priority columns."""
        return self.deadline_ms is not None

    @property
    def request_lookups(self) -> np.ndarray:
        """Per-request lookup totals across all features, shape ``(n,)``."""
        if not self.batch.features:
            return np.zeros(self.num_requests, dtype=np.int64)
        return np.diff(self.offsets_mat, axis=1).sum(axis=0)

    # ------------------------------------------------------------------
    # Zero-copy views
    # ------------------------------------------------------------------
    def request(self, i: int) -> LookupRequest:
        """Request ``i`` as an object whose feature arrays are views."""
        return LookupRequest(
            request_id=self.base_id + i,
            features=tuple(f.sample(i) for f in self.batch),
            arrival_ms=float(self.arrival_ms[i]),
            deadline_ms=(
                float(self.deadline_ms[i]) if self.has_qos else float("inf")
            ),
            priority=int(self.priority[i]) if self.has_qos else 0,
        )

    def __iter__(self) -> Iterator[LookupRequest]:
        for i in range(self.num_requests):
            yield self.request(i)

    def batch_view(self, start: int, stop: int) -> JaggedBatch:
        """Requests ``[start, stop)`` as one jagged batch.

        Values are contiguous slices of the arena's flat arrays (views,
        no copy); only the rebased offsets (one vectorized subtraction
        over the stacked offsets matrix) are materialized.  This
        replaces the object path's per-batch ``np.concatenate`` of
        per-sample fragments.  The slices inherit the arena's validated
        invariants, so the jagged structures are built through the
        check-free constructor.
        """
        return self._sliced(start, stop)[0]

    def _sliced(
        self, start: int, stop: int
    ) -> tuple[JaggedBatch, np.ndarray | None]:
        """:meth:`batch_view` plus its rebased offsets matrix."""
        if not self.batch.features:
            return JaggedBatch([]), None
        mat = self.offsets_mat
        rebased = mat[:, start: stop + 1] - mat[:, start: start + 1]
        lo = mat[:, start].tolist()
        hi = mat[:, stop].tolist()
        features = [
            JaggedFeature.from_validated(f.values[lo[j]: hi[j]], rebased[j])
            for j, f in enumerate(self.batch)
        ]
        return JaggedBatch(features), rebased

    def slice(self, start: int, stop: int) -> "RequestArena":
        """Sub-arena over requests ``[start, stop)`` (values are views).

        The rebased offsets matrix the slice was cut with becomes the
        sub-arena's :attr:`offsets_mat`, so packing a microbatch never
        re-stacks its offsets.
        """
        batch, rebased = self._sliced(start, stop)
        sub = RequestArena(
            batch,
            self.arrival_ms[start:stop],
            base_id=self.base_id + start,
            deadline_ms=(
                self.deadline_ms[start:stop] if self.has_qos else None
            ),
            priority=self.priority[start:stop] if self.has_qos else None,
        )
        sub._offsets_mat = rebased
        return sub

    def take(self, keep: np.ndarray) -> "RequestArena":
        """Sub-arena of the requests where boolean mask ``keep`` is set.

        The admission filter: shed requests drop out of the batch while
        arrival order (and therefore the non-decreasing invariant) is
        preserved.  Unlike :meth:`slice` the kept set may be
        non-contiguous, so values are gathered (copied); ``base_id`` is
        rebased to the first kept request, after which ids within the
        sub-arena are no longer globally meaningful.

        All features are gathered together from :attr:`offsets_mat`:
        one column gather of the kept segments' starts and lengths, one
        row-wise cumsum for the new offsets (which become the
        sub-arena's :attr:`offsets_mat`), and one flat gather index
        that each feature's values are sliced through.  The result
        matches the per-feature ``JaggedBatch.take`` exactly.
        """
        keep = np.asarray(keep, dtype=bool)
        if keep.shape != self.arrival_ms.shape:
            raise ValueError(
                f"keep mask shape {keep.shape} != requests "
                f"{self.arrival_ms.shape}"
            )
        indices = np.flatnonzero(keep)
        first = int(indices[0]) if indices.size else 0
        batch, offsets = JaggedBatch([]), None
        if self.batch.features:
            mat = self.offsets_mat
            starts = mat[:, indices]
            lengths = mat[:, indices + 1] - starts
            offsets = np.zeros((mat.shape[0], indices.size + 1), dtype=np.int64)
            np.cumsum(lengths, axis=1, out=offsets[:, 1:])
            # Feature j's kept values are entries [cuts[j], cuts[j + 1])
            # of one flat gather index of positions within its values.
            bounds = np.concatenate(([0], np.cumsum(offsets[:, -1])))
            shift = starts - offsets[:, :-1] - bounds[:-1, None]
            gather = np.arange(bounds[-1]) + np.repeat(shift.ravel(), lengths.ravel())
            cuts = bounds.tolist()
            batch = JaggedBatch(
                [
                    JaggedFeature.from_validated(
                        f.values[gather[cuts[j] : cuts[j + 1]]], offsets[j]
                    )
                    for j, f in enumerate(self.batch)
                ]
            )
        sub = RequestArena(
            batch,
            self.arrival_ms[indices],
            base_id=self.base_id + first,
            deadline_ms=self.deadline_ms[indices] if self.has_qos else None,
            priority=self.priority[indices] if self.has_qos else None,
        )
        sub._offsets_mat = offsets
        return sub

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def concat(cls, arenas: list["RequestArena"]) -> "RequestArena":
        """Concatenate chunks (used to carry a partial batch forward)."""
        if not arenas:
            raise ValueError("cannot concatenate an empty arena list")
        if len(arenas) == 1:
            return arenas[0]
        num_features = {a.num_features for a in arenas}
        if len(num_features) != 1:
            raise ValueError(f"arenas disagree on feature count: {num_features}")
        features = []
        for j in range(num_features.pop()):
            parts = [a.batch[j] for a in arenas]
            values = np.concatenate([p.values for p in parts])
            offsets = np.zeros(
                sum(p.batch_size for p in parts) + 1, dtype=np.int64
            )
            pos, base = 1, 0
            for p in parts:
                offsets[pos: pos + p.batch_size] = p.offsets[1:] + base
                pos += p.batch_size
                base += p.values.size
            features.append(JaggedFeature(values, offsets))
        deadline = priority = None
        if any(a.has_qos for a in arenas):
            # Mixed chunks normalize to full QoS: parts without the
            # columns contribute the "unconstrained" defaults.
            deadline = np.concatenate(
                [
                    a.deadline_ms
                    if a.has_qos
                    else np.full(a.num_requests, np.inf)
                    for a in arenas
                ]
            )
            priority = np.concatenate(
                [
                    a.priority
                    if a.has_qos
                    else np.zeros(a.num_requests, dtype=np.int64)
                    for a in arenas
                ]
            )
        return cls(
            JaggedBatch(features),
            np.concatenate([a.arrival_ms for a in arenas]),
            base_id=arenas[0].base_id,
            deadline_ms=deadline,
            priority=priority,
        )

    @classmethod
    def from_requests(cls, requests: list[LookupRequest]) -> "RequestArena":
        """Columnarize object-form requests (tests, adapters).

        QoS columns materialize only when some request carries a
        non-default deadline or priority, so default-QoS object streams
        columnarize to the same arena shape as before.
        """
        deadline = priority = None
        if any(
            r.deadline_ms != float("inf") or r.priority != 0
            for r in requests
        ):
            deadline = np.array(
                [r.deadline_ms for r in requests], dtype=np.float64
            )
            priority = np.array(
                [r.priority for r in requests], dtype=np.int64
            )
        return cls(
            coalesce_requests(requests),
            np.array([r.arrival_ms for r in requests], dtype=np.float64),
            base_id=requests[0].request_id,
            deadline_ms=deadline,
            priority=priority,
        )

    # ------------------------------------------------------------------
    # Shared-memory handoff (multi-process serving)
    # ------------------------------------------------------------------
    def to_shm(
        self, name: str | None = None, slab: "ShmSlab | None" = None
    ) -> "ShmArena | ShmSlab":
        """Pack this arena into shared memory.

        Without ``slab``: a new segment, returned as its owning
        :class:`ShmArena`; ship the picklable :attr:`ShmArena.handle`
        across the process boundary and rebuild a zero-copy view with
        :meth:`from_shm`.  The caller owns the segment's lifetime
        (:meth:`ShmArena.unlink`).

        With ``slab``: packed in place into that reusable
        :class:`ShmSlab` (grown first if too small) and returned as the
        slab, whose :attr:`ShmSlab.handle` now describes this arena.
        The slab keeps owning its segment.
        """
        if slab is None:
            return ShmArena.create(self, name=name)
        slab.pack(self)
        return slab

    @classmethod
    def from_shm(cls, handle: "ShmArenaHandle") -> "ShmArena":
        """Attach to a segment created by :meth:`to_shm`.

        The returned :class:`ShmArena`'s :attr:`ShmArena.arena` exposes
        this arena's arrays as zero-copy views over the shared buffer;
        call :meth:`ShmArena.close` (after dropping the views) when done.
        """
        return ShmArena.attach(handle)


@dataclass(frozen=True)
class ShmArenaHandle:
    """Picklable description of one arena's shared-memory layout.

    The segment holds, 8-byte aligned and in order: the ``arrival_ms``
    array (float64), then — when ``has_qos`` — the ``deadline_ms``
    (float64) and ``priority`` (int64) columns, every feature's
    ``offsets`` array (int64, length ``num_requests + 1`` each), and
    finally every feature's ``values`` array (int64).  Everything
    needed to rebuild the views travels in this handle.

    A standalone segment (``stamp is None``) carries no header.  An
    arena packed into a reusable :class:`ShmSlab` is preceded by one
    8-byte header word holding the slab's pack counter; ``stamp`` is
    the value written for *this* arena.  A header that no longer equals
    ``stamp`` means the slab has since been repacked with another
    arena, so the handle is stale.
    """

    name: str
    num_requests: int
    base_id: int
    feature_lookups: tuple[int, ...]
    has_qos: bool = False
    stamp: int | None = None

    @classmethod
    def of(
        cls, arena: RequestArena, name: str, stamp: int | None = None
    ) -> "ShmArenaHandle":
        """The handle describing ``arena`` packed under ``name``."""
        return cls(
            name=name,
            num_requests=arena.num_requests,
            base_id=arena.base_id,
            feature_lookups=tuple(int(f.values.size) for f in arena.batch),
            has_qos=arena.has_qos,
            stamp=stamp,
        )

    @property
    def num_features(self) -> int:
        return len(self.feature_lookups)

    @property
    def header_bytes(self) -> int:
        return 0 if self.stamp is None else 8

    @property
    def total_bytes(self) -> int:
        per_request = 3 if self.has_qos else 1
        return self.header_bytes + 8 * (
            per_request * self.num_requests
            + self.num_features * (self.num_requests + 1)
            + sum(self.feature_lookups)
        )


def _new_segment_name() -> str:
    return f"{SHM_NAME_PREFIX}-{os.getpid()}-{next(_SHM_SEQ)}"


def _pack(buf, arena: RequestArena, handle: ShmArenaHandle) -> None:
    """Write ``arena`` into ``buf`` in ``handle``'s layout.

    The one packing routine, for standalone segments and slabs alike:
    the stamp header first (so a reader of the slab's previous arena
    sees it change before any byte it read does), then each column in
    one assignment and all feature values in one concatenation.  Every
    view into ``buf`` dies on return, so the mapping stays closable.
    """
    words = np.frombuffer(buf, dtype=np.int64, count=handle.total_bytes // 8)
    pos = 0
    if handle.stamp is not None:
        words[0] = handle.stamp
        pos = 1
    n = handle.num_requests
    columns = [arena.arrival_ms]
    if handle.has_qos:
        columns += [arena.deadline_ms, arena.priority]
    for column in columns:
        words[pos: pos + n].view(column.dtype)[:] = column
        pos += n
    if handle.num_features:
        end = pos + handle.num_features * (n + 1)
        words[pos:end].reshape(handle.num_features, n + 1)[:] = (
            arena.offsets_mat
        )
        np.concatenate(
            [f.values for f in arena.batch], out=words[end:]
        )


class ShmArena:
    """One :class:`RequestArena` materialized in a shared-memory segment.

    Two roles, one class: the *owner* side (:meth:`create`) packs an
    arena into a fresh segment and is responsible for :meth:`unlink`;
    the *attached* side (:meth:`attach`, usually a worker process)
    rebuilds the arena as zero-copy views over the same physical pages
    and only ever :meth:`close`\\ s its mapping.  This is the handoff
    that lets the columnar fast path survive the process boundary: a
    microbatch crosses as one segment name plus layout metadata, not as
    a pickle of its arrays.
    """

    __slots__ = ("handle", "owner", "_shm", "_arena")

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        handle: ShmArenaHandle,
        owner: bool,
    ):
        self._shm = shm
        self.handle = handle
        self.owner = owner
        self._arena: RequestArena | None = None

    @classmethod
    def create(cls, arena: RequestArena, name: str | None = None) -> "ShmArena":
        """Pack ``arena`` into a new segment (owner side)."""
        handle = ShmArenaHandle.of(
            arena, name if name is not None else _new_segment_name()
        )
        # A segment must be at least one byte even for an empty arena.
        shm = shared_memory.SharedMemory(
            name=handle.name, create=True, size=max(handle.total_bytes, 1)
        )
        _pack(shm.buf, arena, handle)
        return cls(shm, handle, owner=True)

    @classmethod
    def attach(cls, handle: ShmArenaHandle) -> "ShmArena":
        """Attach to an existing segment (worker side).

        Attach-side resource-tracker registration is suppressed: the
        owner's registration is the segment's single cleanup entry.
        Before Python 3.13 ``SharedMemory`` registers on attach too,
        and with duplicate-tolerant requeue (crash recovery) a late
        attach can re-register a name *after* the owner's unlink
        unregistered it — a stale tracker entry that shows up as a
        spurious "leaked shared_memory" warning at shutdown.
        """
        from multiprocessing import resource_tracker

        real_register = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            shm = shared_memory.SharedMemory(name=handle.name)
        finally:
            resource_tracker.register = real_register
        return cls(shm, handle, owner=False)

    def rebind(self, handle: ShmArenaHandle) -> "ShmArena":
        """This mapping viewed as another arena packed into the same slab.

        The returned view shares the mapping: drop it (and its arena
        views) instead of closing it; the mapping closes with ``self``.
        """
        if handle.name != self.handle.name:
            raise ValueError(
                f"handle names segment {handle.name!r}, mapping is "
                f"{self.handle.name!r}"
            )
        return ShmArena(self._shm, handle, owner=False)

    @property
    def name(self) -> str:
        return self.handle.name

    @property
    def stale(self) -> bool:
        """Whether the slab under this view was repacked since its handle.

        Always False for a standalone (header-less) segment.
        """
        stamp = self.handle.stamp
        return (
            stamp is not None
            and struct.unpack_from("q", self._shm.buf)[0] != stamp
        )

    @property
    def arena(self) -> RequestArena:
        """The arena as zero-copy views over the shared buffer.

        Built once per attachment; all feature arrays and ``arrival_ms``
        alias the segment's pages (no duplication), so writes through
        one process's views are visible to every other attachment.
        """
        if self._arena is None:
            handle = self.handle
            n = handle.num_requests
            words = np.frombuffer(
                self._shm.buf, dtype=np.int64,
                count=handle.total_bytes // 8,
            )
            pos = handle.header_bytes // 8
            arrival = words[pos: pos + n].view(np.float64)
            pos += n
            deadline = priority = None
            if handle.has_qos:
                deadline = words[pos: pos + n].view(np.float64)
                priority = words[pos + n: pos + 2 * n]
                pos += 2 * n
            end = pos + handle.num_features * (n + 1)
            offsets = words[pos:end].reshape(handle.num_features, n + 1)
            features = []
            for j, lookups in enumerate(handle.feature_lookups):
                features.append(
                    JaggedFeature.from_validated(
                        words[end: end + lookups], offsets[j]
                    )
                )
                end += lookups
            self._arena = RequestArena(
                JaggedBatch(features),
                arrival,
                base_id=handle.base_id,
                deadline_ms=deadline,
                priority=priority,
            )
            self._arena._offsets_mat = offsets
        return self._arena

    def close(self) -> None:
        """Drop this process's mapping (owner and attached sides).

        The cached arena views are released first; if the caller still
        holds live views into the buffer the unmap is deferred to
        process exit rather than raised — the segment's *lifetime* is
        governed by :meth:`unlink`, not by mappings.
        """
        self._arena = None
        try:
            self._shm.close()
        except BufferError:
            pass

    def unlink(self) -> None:
        """Destroy the segment (owner side; idempotent).

        Safe while other processes still hold mappings — POSIX keeps
        the pages alive until the last mapping drops — and after a
        prior :meth:`close` of the owner's own mapping.
        """
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass


class ShmSlab:
    """A reusable shared-memory segment that arenas are packed into.

    The multi-process front end keeps a small ring of these for the
    pool's lifetime instead of creating, page-faulting and unlinking a
    segment per microbatch.  :meth:`pack` (reached through
    :meth:`RequestArena.to_shm`) bumps the slab's stamp, writes it to
    the segment's 8-byte header and packs the arena behind it;
    :attr:`handle` describes the arena packed last.  The segment is
    created by the first pack.  One too small for an arena is unlinked
    and replaced by a larger one under a new name, with
    :attr:`HEADROOM` to spare so slightly larger later batches fit.
    :meth:`destroy` unlinks the segment for good.
    """

    #: spare capacity on (re)allocation, as a fraction of the need.
    HEADROOM = 0.125

    __slots__ = ("handle", "_shm", "_stamp")

    def __init__(self):
        self.handle: ShmArenaHandle | None = None
        self._shm: shared_memory.SharedMemory | None = None
        self._stamp = 0

    @property
    def name(self) -> str | None:
        return None if self._shm is None else self._shm.name

    @property
    def capacity(self) -> int:
        """Bytes the current segment holds (0 before the first pack)."""
        return 0 if self._shm is None else self._shm.size

    def pack(self, arena: RequestArena) -> ShmArenaHandle:
        """Pack ``arena`` in place under a new stamp; returns its handle."""
        self._stamp += 1
        handle = ShmArenaHandle.of(arena, "", stamp=self._stamp)
        need = handle.total_bytes
        if need > self.capacity:
            self.destroy()
            self._shm = shared_memory.SharedMemory(
                name=_new_segment_name(), create=True,
                size=need + int(need * self.HEADROOM),
            )
        handle = replace(handle, name=self._shm.name)
        _pack(self._shm.buf, arena, handle)
        self.handle = handle
        return handle

    def destroy(self) -> None:
        """Unmap and unlink the segment (idempotent)."""
        if self._shm is None:
            return
        shm, self._shm = self._shm, None
        self.handle = None
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:
            pass
