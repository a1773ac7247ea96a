"""The in-process :class:`QueryService`: asyncio micro-batching front-end.

The paper's deployment story (and the companion outsourced-identification
work, Wang & Qian arXiv:1603.02613) is a long-lived classifier *service*
fielding a stream of packet-behavior queries while the data plane churns
underneath it.  This module is that serving layer:

* **Adaptive micro-batching.**  Concurrent ``classify``/``query`` calls
  land in one admission queue; a single dispatcher coalesces the
  requests that are already arriving -- closing the batch when an
  event-loop pass adds nothing, at ``max_batch`` requests, or after
  ``max_delay_s``, whichever comes first -- into one
  :meth:`~repro.core.classifier.APClassifier.classify_batch` call, so
  the compiled engine's batch descent is amortized across requests
  that arrived independently.
* **Inline answers for a lone query.**  A ``query`` that is the first
  request of its event-loop pass, finds the queue empty and no writer
  holding the swap lock is answered synchronously on the loop thread,
  counted as a batch of one: no future, no queue slot, no dispatcher
  pass.  Later arrivals in the same pass queue, so concurrent callers
  still coalesce.  ``classify`` always queues: stage 1 alone is the
  work batching amortizes.
* **Stage 2 memoised per generation.**  An atom is one packet class
  network-wide, so stage 2 depends only on ``(atom, ingress, in_port)``.
  Both paths share a memo retired with the result cache and filled only
  for ``in_port=None`` or a known input-ACL slot (at most atoms x slots
  entries); the returned :class:`~repro.core.behavior.Behavior` objects
  are shared between callers and read-only.
* **Bounded admission with selectable saturation policy.**  The queue
  holds at most ``queue_limit`` requests.  ``overflow="wait"`` applies
  backpressure (callers suspend until a slot frees -- closed-loop
  clients slow down); ``overflow="shed"`` fails fast with
  :class:`QueryShed` (open-loop load peaks are dropped and counted
  instead of growing the queue without bound).
* **Hot-header result cache** (optional, ``cache_size > 0``).  Skewed
  query streams repeat a small set of headers; a generation-keyed LRU
  (:mod:`repro.serve.cache`) answers repeats synchronously at admission
  -- one dict probe instead of a future + queue + dispatcher round-trip
  -- and is invalidated inside every mutation's write-lock section, so
  a swap can never serve a pre-swap atom id.
* **Single-flight request coalescing.**  A ``classify`` for a header
  that is already queued does not take a second queue slot: it awaits
  the in-flight request's future and both callers share one
  classification.  Without this, concurrent callers replaying a shared
  trace *platoon* after every cache invalidation -- whole batches carry
  one distinct header, every probe misses because the put lands after
  all of them -- and the cache never refills.  Coalescing collapses
  each platoon to one batch slot and one cache insert.
* **Per-request timeouts.**  A request that misses its deadline raises
  :class:`asyncio.TimeoutError` in the caller.  Behavior queries own
  their future, so the timeout cancels it and the dispatcher skips the
  work; classify futures may be shared by coalesced waiters, so the
  request runs to completion (seeding the result cache) and only the
  impatient caller sees the timeout.
* **Updates patch in place.**  The served classifier runs the
  incremental maintenance engine (:mod:`repro.core.incremental`):
  every rule update splices the tree and patches the compiled program
  under the write side of the swap lock, so the batch fast path never
  goes stale; a program restored by :func:`repro.persist.load` is
  patched the same way.  The one recompile the service makes is
  decided by state: after an update or a swap it compiles a program
  that is not fresh (a change made around the service).
* **Live reconstruction** (Section VI-B's
  query-process/reconstruction-process split).
  :meth:`QueryService.reconstruct` rebuilds the universe and tree in a
  background executor thread -- against a *private* BDD manager, so
  the rebuild never races the canonical manager the loop thread keeps
  updating -- while the dispatcher keeps serving, journals updates that arrive mid-rebuild,
  replays them onto the staged structures, and swaps behind a
  *reader-preferring* lock -- queries are never blocked by a waiting
  swap; the swap slips into the next gap between batches.

Every counter (batch-size histogram, queue depth high-water mark, sheds,
timeouts, p50/p99 service latency, swaps) lands in
:class:`repro.obs.ServeCounters` -- either a private instance or the
``serve`` section of a shared :class:`repro.obs.Recorder` snapshot.
"""

from __future__ import annotations

import asyncio
import time
import weakref
from collections import deque
from contextlib import asynccontextmanager
from typing import AsyncIterator

from ..artifact.codec import classifier_bytes, classifier_from_bytes
from ..core.behavior import Behavior
from ..core.classifier import APClassifier
from ..headerspace.header import Packet
from ..network.dataplane import PredicateChange
from ..network.rules import ForwardingRule
from ..obs import ServeCounters
from ..core.reconstruction import (
    rebuild_snapshot,
    restore_rebuild,
    snapshot_predicates,
)
from .cache import ResultCache

try:  # pragma: no cover - exercised via the CI matrix
    from .. import config as _config

    if _config.numpy_disabled():
        _np = None
    else:
        import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

__all__ = ["QueryService", "QueryShed", "ServiceClosed"]

#: Sentinel distinguishing "no timeout argument" from "timeout=None".
_UNSET = object()

#: Cache hits answer without suspending; yield to the event loop after
#: this many consecutive synchronous hits so hot-header callers cannot
#: starve the dispatcher (or anything else scheduled on the loop).
_HIT_YIELD_EVERY = 256


class QueryShed(Exception):
    """Request dropped at admission: the queue is saturated and the
    service runs the ``overflow="shed"`` policy."""


class ServiceClosed(Exception):
    """The service is not running (never started, or stopped)."""


class _Request:
    """One admitted query waiting for a dispatch slot."""

    __slots__ = ("header", "future", "ingress", "in_port", "admitted_at")

    def __init__(
        self,
        header: int,
        future: asyncio.Future,
        ingress: str | None,
        in_port: str | None,
        admitted_at: float,
    ) -> None:
        self.header = header
        self.future = future
        self.ingress = ingress
        self.in_port = in_port
        self.admitted_at = admitted_at


class _SwapLock:
    """Reader-preferring read/write lock for the serving event loop.

    Readers (dispatcher batches) only wait while a writer *holds* the
    lock, never for a writer that is merely waiting -- so queries keep
    flowing while a reconstruction swap looks for a gap.  Writers
    (updates, swaps) wait until no reader and no writer is active.
    Writer starvation is accepted by design: batches are short (one
    ``classify_batch`` call), so gaps occur at every batch boundary.
    """

    def __init__(self) -> None:
        self._readers = 0
        self._writing = False
        self._idle = asyncio.Event()
        self._idle.set()
        self._no_writer = asyncio.Event()
        self._no_writer.set()

    @property
    def writing(self) -> bool:
        """Does a writer hold the lock right now?"""
        return self._writing

    @asynccontextmanager
    async def read(self) -> AsyncIterator[None]:
        while self._writing:
            await self._no_writer.wait()
        self._readers += 1
        self._idle.clear()
        try:
            yield
        finally:
            self._readers -= 1
            if self._readers == 0 and not self._writing:
                self._idle.set()

    @asynccontextmanager
    async def write(self) -> AsyncIterator[None]:
        while self._writing or self._readers:
            await self._idle.wait()
        self._writing = True
        self._idle.clear()
        self._no_writer.clear()
        try:
            yield
        finally:
            self._writing = False
            self._no_writer.set()
            if self._readers == 0:
                self._idle.set()


class QueryService:
    """Serve classify/behavior queries over one :class:`APClassifier`.

    Use as an async context manager, or call :meth:`start`/:meth:`stop`::

        classifier = APClassifier.build(network)
        async with QueryService(classifier) as service:
            atom = await service.classify(packet)
            behavior = await service.query(packet, ingress_box="SEAT")

    Parameters:

    ``max_batch``
        Most requests coalesced into one ``classify_batch`` call.
    ``max_delay_s``
        Longest a batch is held open while requests keep arriving.  The
        batch closes earlier at the first event-loop pass that adds no
        request; ``0`` dispatches whatever one pass accumulates.
    ``queue_limit``
        Admission-queue bound; with ``overflow="wait"`` it is the
        backpressure threshold, with ``"shed"`` the drop threshold.
    ``timeout_s``
        Default per-request deadline (``None``: wait forever).  Each
        request may override it.
    ``recorder``
        Optional :class:`repro.obs.Recorder`; the service then feeds the
        ``serve`` section of its snapshots.  Without one, a private
        :class:`~repro.obs.ServeCounters` is kept (see :meth:`metrics`).
    ``backend``
        Classification engine for the programs the service compiles
        (``None``: ``REPRO_ENGINE``, else the best available).
    ``cache_size``
        Capacity of the hot-header result cache (``0``, the default,
        disables it).  A cached header's atom id is answered
        *synchronously at admission* -- no future, no queue slot, no
        dispatcher pass -- which is where the throughput win on skewed
        workloads comes from.  The cache is generation-keyed: rule
        updates, reconstruction swaps, :meth:`adopt_generation`, and
        any observed out-of-band tree change invalidate it before the
        next probe, so a swap can never serve a pre-swap atom id.
        Behavior queries (:meth:`query`) bypass the cache; only atom-id
        classifies are cached.

    The service switches the classifier it serves (and each one
    :meth:`adopt_generation` hands it) to ``maintenance="incremental"``.
    """

    OVERFLOW_POLICIES = ("wait", "shed")

    def __init__(
        self,
        classifier: APClassifier,
        *,
        max_batch: int = 128,
        max_delay_s: float = 0.001,
        queue_limit: int = 1024,
        overflow: str = "wait",
        timeout_s: float | None = None,
        recorder=None,
        backend: str | None = None,
        cache_size: int = 0,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if cache_size < 0:
            raise ValueError("cache_size must be >= 0")
        if max_delay_s < 0:
            raise ValueError("max_delay_s must be >= 0")
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if overflow not in self.OVERFLOW_POLICIES:
            raise ValueError(
                f"unknown overflow policy {overflow!r}; "
                f"choose from {self.OVERFLOW_POLICIES}"
            )
        classifier.set_maintenance("incremental")
        self.classifier = classifier
        self.max_batch = max_batch
        self.max_delay_s = max_delay_s
        self.queue_limit = queue_limit
        self.overflow = overflow
        self.timeout_s = timeout_s
        self.recorder = recorder
        self.backend = backend
        self.cache_size = cache_size
        self.counters: ServeCounters = (
            recorder.serve if recorder is not None else ServeCounters()
        )
        self._queue: deque[_Request] = deque()
        # Admission slots, hand-rolled instead of asyncio.Semaphore: the
        # uncontended path must stay synchronous (no coroutine hop), and
        # the dispatcher releases a whole batch in one call.
        self._free = queue_limit
        self._slot_waiters: deque[asyncio.Future] = deque()
        self._wakeup = asyncio.Event()
        self._swap_lock = _SwapLock()
        self._dispatcher: asyncio.Task | None = None
        self._journal: list[PredicateChange] | None = None
        self._reconstructing = False
        # Hot-header result cache and stage-2 memo, confined to the
        # event-loop thread; the freshness stamp detects out-of-band
        # tree changes, so even mutations that bypassed this service
        # retire them.
        self._cache = (
            ResultCache(cache_size, counters=self.counters)
            if cache_size
            else None
        )
        self._behaviors: dict[tuple, Behavior] = {}
        self._stamp_generation()
        self._hit_streak = 0  # synchronous hits since the last loop yield
        self._inline_pass = False  # a query was answered inline this pass
        self._batch_out = None  # reusable int64 buffer for the array path
        # Single-flight registry: header -> the future of the queued
        # classify request for it.  Confined to the event-loop thread;
        # entries are removed wherever their future is completed.
        self._inflight: dict[int, asyncio.Future] = {}
        # The live generation's classifier half (artifact bytes) for
        # diff/what-if isolation, retired with the result cache.
        # Confined to the event-loop thread.
        self._snapshot: bytes | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._dispatcher is not None and not self._dispatcher.done()

    async def start(self) -> None:
        """Start the dispatcher task, compiling first only a classifier
        with no fresh program (a loaded artifact's is served as loaded)."""
        if self.running:
            return
        self._compile_if_stale(self.classifier)
        self._dispatcher = asyncio.get_running_loop().create_task(
            self._dispatch_loop(), name="repro-serve-dispatch"
        )

    async def stop(self) -> None:
        """Cancel the dispatcher and fail every pending request.

        Idempotent; pending callers see :class:`ServiceClosed`.
        """
        dispatcher = self._dispatcher
        self._dispatcher = None
        if dispatcher is not None:
            dispatcher.cancel()
            try:
                await dispatcher
            except asyncio.CancelledError:
                pass
        drained = 0
        while self._queue:
            request = self._queue.popleft()
            drained += 1
            self._retire_inflight(request)
            if not request.future.done():
                request.future.set_exception(ServiceClosed("service stopped"))
        self._inflight.clear()
        # Freed slots wake admission waiters, which observe the stopped
        # service, re-release, and raise -- the wakeup cascades until
        # every waiter has drained.
        self._release_slots(drained)

    async def __aenter__(self) -> "QueryService":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Query path
    # ------------------------------------------------------------------

    async def classify(self, packet: Packet | int, *, timeout=_UNSET) -> int:
        """Stage 1 through the batching front-end: the packet's atom id."""
        header = packet.value if isinstance(packet, Packet) else packet
        return await self._submit(header, None, None, timeout)

    async def query(
        self,
        packet: Packet | int,
        ingress_box: str,
        in_port: str | None = None,
        *,
        timeout=_UNSET,
    ):
        """Both stages: the packet's network-wide :class:`Behavior`.

        Stage 2 runs in the same synchronous step as stage 1 (inline,
        or inside one read section of the swap lock when batched), so
        the atom id and the behavior always belong to the same
        classifier generation even when a reconstruction swap races the
        request.  The returned behavior is shared: treat it as read-only.
        """
        header = packet.value if isinstance(packet, Packet) else packet
        return await self._submit(header, ingress_box, in_port, timeout)

    async def classify_frame(self, headers) -> list[int]:
        """Stage 1 for a pre-batched frame, bypassing the coalescing queue.

        The framed protocol (:mod:`repro.serve.proto`) already delivers
        whole batches, so there is nothing to coalesce and no per-item
        future to allocate: the frame runs under one read section of
        the swap lock exactly like a dispatcher batch -- every answer
        comes from a single classifier generation -- and is accounted
        as one served frame of ``len(headers)`` requests.  ``headers``
        may be a list of packed ints or (under numpy) a ``uint64`` word
        array straight off the wire, which reaches the array kernel
        with zero per-header Python work.
        """
        dispatcher = self._dispatcher
        if dispatcher is None or dispatcher.done():
            raise ServiceClosed("service is not running")
        started = time.perf_counter()
        async with self._swap_lock.read():
            atoms = self._classify_headers(self.classifier, headers)
        self.counters.record_frame(len(atoms), time.perf_counter() - started)
        return atoms

    async def _submit(
        self, header: int, ingress: str | None, in_port: str | None, timeout
    ):
        dispatcher = self._dispatcher
        if dispatcher is None or dispatcher.done():
            raise ServiceClosed("service is not running")
        # Refuse here, before a queue slot or single-flight entry is
        # taken: a header the kernel cannot pack would fail the whole
        # coalesced batch, i.e. other callers' requests.
        width = self.classifier.dataplane.layout.total_width
        if not 0 <= header < 1 << width:
            raise ValueError(
                f"header {header} out of range for a {width}-bit layout"
            )
        counters = self.counters
        if ingress is not None and not (
            self._queue or self._inline_pass or self._swap_lock.writing
        ):
            # The first query of an event-loop pass with nothing queued
            # is answered inline; any other request arriving in the same
            # pass queues, so concurrent callers still coalesce and one
            # caller cannot answer twice without suspending.  Safe
            # without the swap lock for the reason a cache hit is.
            self._inline_pass = True
            asyncio.get_running_loop().call_soon(self._end_inline_pass)
            return self._answer_now(header, ingress, in_port)
        if ingress is None:
            if self._cache is not None:
                # Synchronous hot-header hit: no future, no queue slot,
                # no dispatcher pass.  Safe without the swap lock
                # because every invalidation runs synchronously on this
                # same loop thread inside the writer's critical section
                # -- a probe either happens-before the mutation (and
                # the answer linearizes before it) or sees the
                # already-cleared cache.
                self._check_generation()
                atom_id = self._cache.get(header)
                if atom_id is not None:
                    counters.requests += 1
                    counters.record_served(0.0)
                    # A hit suspends nowhere, so a caller looping over
                    # hot headers would never hand the event loop back
                    # -- the dispatcher, updates, and every other task
                    # would starve.  Yield once per streak of hits to
                    # bound that.
                    self._hit_streak += 1
                    if self._hit_streak >= _HIT_YIELD_EVERY:
                        self._hit_streak = 0
                        await asyncio.sleep(0)
                    return atom_id
            while True:
                shared = self._inflight.get(header)
                if shared is None:
                    break
                # Single-flight: an identical classify is already
                # queued.  Wait on its future instead of spending a
                # queue slot and a batch lane on a duplicate.  The wait
                # is shielded, so this caller's timeout cannot cancel
                # the leader's future; if the *leader's* caller timed
                # out (its ``wait_for`` cancels the shared future), the
                # request died unanswered -- loop and resubmit.
                counters.requests += 1
                counters.cache_coalesced += 1
                started = time.perf_counter()
                try:
                    result = await self._await_shared(shared, timeout)
                except asyncio.CancelledError:
                    if not shared.cancelled():
                        raise  # this caller was cancelled, not the leader
                    continue
                counters.record_served(time.perf_counter() - started)
                return result
        if self._free > 0:
            self._free -= 1  # uncontended admission: no await
        elif self.overflow == "shed":
            counters.shed += 1
            raise QueryShed(
                f"admission queue at limit ({self.queue_limit}); "
                f"request shed"
            )
        else:
            await self._wait_for_slot()  # backpressure in "wait" mode
            if not self.running:
                self._release_slots(1)
                raise ServiceClosed("service stopped during admission")
        future = asyncio.get_running_loop().create_future()
        request = _Request(header, future, ingress, in_port, time.perf_counter())
        self._queue.append(request)
        counters.record_admission(len(self._queue))
        self._wakeup.set()
        if ingress is None:
            # Register as the single-flight leader for this header.  The
            # leader waits on its own future directly (the hot path adds
            # nothing over the pre-coalescing code); followers shield
            # themselves, so only a *leader* timeout cancels the future
            # -- followers detect that cancellation and resubmit.
            self._inflight[header] = future
        if timeout is _UNSET:
            timeout = self.timeout_s
        try:
            if timeout is None:
                result = await future
            else:
                result = await asyncio.wait_for(future, timeout)
        except asyncio.TimeoutError:
            counters.timeouts += 1
            # The timed-out wait cancelled the future: unregister it so
            # coalesced waiters resubmit instead of spinning on a dead
            # future (no-op for behavior queries).
            self._retire_inflight(request)
            raise
        except asyncio.CancelledError:
            self._retire_inflight(request)
            raise
        counters.record_served(time.perf_counter() - request.admitted_at)
        return result

    def _answer_now(self, header: int, ingress: str, in_port: str | None):
        """Answer one query on the loop thread, as a batch of one."""
        self._check_generation()
        counters = self.counters
        started = time.perf_counter()
        counters.record_admission(0)
        counters.record_batch(1)
        classifier = self.classifier
        behavior = self._behavior(
            classifier, classifier.classify(header), ingress, in_port
        )
        counters.record_served(time.perf_counter() - started)
        return behavior

    def _end_inline_pass(self) -> None:
        self._inline_pass = False

    async def _await_shared(self, future: asyncio.Future, timeout):
        """Wait on a (possibly shared) single-flight classify future.

        ``shield`` keeps one caller's timeout or cancellation from
        cancelling the future under every other coalesced waiter: the
        queued request runs to completion and still seeds the result
        cache; only the impatient caller raises.
        """
        if timeout is _UNSET:
            timeout = self.timeout_s
        try:
            if timeout is None:
                return await asyncio.shield(future)
            return await asyncio.wait_for(asyncio.shield(future), timeout)
        except asyncio.TimeoutError:
            self.counters.timeouts += 1
            raise

    async def _wait_for_slot(self) -> None:
        """Suspend until an admission slot frees (``wait`` overflow)."""
        loop = asyncio.get_running_loop()
        while self._free <= 0:
            waiter = loop.create_future()
            self._slot_waiters.append(waiter)
            try:
                await waiter
            except asyncio.CancelledError:
                # A wakeup may have raced the cancellation; hand it on.
                if waiter.done() and not waiter.cancelled():
                    self._wake_slot_waiters()
                raise
        self._free -= 1

    def _release_slots(self, count: int) -> None:
        if count:
            self._free += count
            self._wake_slot_waiters()

    def _wake_slot_waiters(self) -> None:
        # Waiters re-check the slot count on wakeup, so waking at most
        # ``_free`` of them is enough and spurious wakeups are harmless.
        available = self._free
        waiters = self._slot_waiters
        while available > 0 and waiters:
            waiter = waiters.popleft()
            if not waiter.done():
                waiter.set_result(None)
                available -= 1

    async def _dispatch_loop(self) -> None:
        queue = self._queue
        loop = asyncio.get_running_loop()
        while True:
            if not queue:
                self._wakeup.clear()
                await self._wakeup.wait()
            # Coalescing window: free event-loop passes while arrivals
            # keep growing the queue.  It closes at the first pass that
            # adds nothing, at max_batch, or after max_delay_s.  Below
            # the engine's batch crossover a batch costs what its
            # requests cost one at a time, so waiting for company that
            # is not already arriving could only add latency.
            deadline = loop.time() + self.max_delay_s
            while len(queue) < self.max_batch:
                size = len(queue)
                await asyncio.sleep(0)
                if len(queue) == size or loop.time() >= deadline:
                    break
            batch: list[_Request] = []
            while queue and len(batch) < self.max_batch:
                batch.append(queue.popleft())
            self._release_slots(len(batch))
            try:
                async with self._swap_lock.read():
                    # Filter only now: a request can time out while its
                    # batch is parked behind a writer.  Cancelled
                    # futures cost no work; their single-flight entries
                    # were retired by the leader, retired again here as
                    # a backstop so coalesced waiters never probe a
                    # dead future.
                    live = []
                    for request in batch:
                        if request.future.cancelled():
                            self._retire_inflight(request)
                        else:
                            live.append(request)
                    if live:
                        self.counters.record_batch(len(live))
                        self._serve_batch(live)
            except asyncio.CancelledError:
                # stop() can cancel us while this batch waits for a
                # writer to release the swap lock.  Its requests already
                # left the queue, so stop()'s drain cannot see them --
                # fail them here or callers with no timeout hang forever.
                for request in batch:
                    self._retire_inflight(request)
                    if not request.future.done():
                        request.future.set_exception(
                            ServiceClosed("service stopped")
                        )
                raise

    def _serve_batch(self, live: list[_Request]) -> None:
        """Classify one coalesced batch and resolve its futures.

        Runs synchronously under the read side of the swap lock: both
        stages see a single classifier generation.
        """
        classifier = self.classifier
        headers = [request.header for request in live]
        try:
            atom_ids = self._classify_headers(classifier, headers)
        except Exception as exc:  # defensive: keep the dispatcher alive
            for request in live:
                self._retire_inflight(request)
                if not request.future.done():
                    request.future.set_exception(exc)
            return
        # Re-stamp before populating: if the batch was answered after an
        # out-of-band tree change, the old generation dies here and the
        # new results seed the next one.
        self._check_generation()
        cache = self._cache
        for request, atom_id in zip(live, atom_ids):
            self._retire_inflight(request)
            if cache is not None and request.ingress is None:
                cache.put(request.header, atom_id)
            if request.future.done():
                continue
            if request.ingress is None:
                request.future.set_result(atom_id)
                continue
            try:
                behavior = self._behavior(
                    classifier, atom_id, request.ingress, request.in_port
                )
            except Exception as exc:
                request.future.set_exception(exc)
            else:
                request.future.set_result(behavior)

    def _classify_headers(self, classifier: APClassifier, headers):
        """One batched stage-1 call, through the array kernel when possible.

        ``headers`` is a list of packed ints (a dispatcher batch) or a
        ``uint64`` word array (a frame).  With numpy present the batch
        goes arrays end-to-end into a service-owned reusable ``int64``
        output buffer (no per-batch result allocation); ``tolist`` at
        the end keeps the results plain Python ints (JSON-safe for the
        TCP front-end).
        """
        if _np is None:
            return classifier.classify_batch(headers)
        n = len(headers)
        out = self._batch_out
        if out is None or out.shape[0] < n:
            out = self._batch_out = _np.empty(
                max(self.max_batch, n), dtype=_np.int64
            )
        return classifier.classify_batch_array(headers, out=out[:n]).tolist()

    # ------------------------------------------------------------------
    # Result cache and stage-2 memo (generation keying)
    # ------------------------------------------------------------------

    def _behavior(
        self, classifier: APClassifier, atom_id: int, ingress: str, in_port
    ) -> Behavior:
        """Stage 2 through the per-generation memo.

        Caller-chosen port names that name no input-ACL slot are not
        remembered, and an unknown ingress raises before anything is.
        """
        key = (atom_id, ingress, in_port)
        behavior = self._behaviors.get(key)
        if behavior is None:
            behavior = classifier.behavior_of_atom(atom_id, ingress, in_port)
            if (
                in_port is None
                or classifier.dataplane.input_acl_predicate(ingress, in_port)
                is not None
            ):
                self._behaviors[key] = behavior
        return behavior

    def _check_generation(self) -> None:
        """Retire the cache and the memo if the generation changed under us.

        The supported mutation paths (:meth:`_apply_rule`,
        :meth:`adopt_generation`, :meth:`reconstruct`) invalidate
        eagerly; this stamp check is the backstop for out-of-band
        mutations, observed via the classifier's and tree's identity
        and the tree's version (every applied predicate change bumps
        it).  Runs on the loop thread with no awaits before use.
        """
        classifier = self.classifier
        tree = classifier.tree
        stamped_classifier, stamped_tree, version = self._stamp
        if (
            stamped_tree() is tree
            and tree.version == version
            and stamped_classifier() is classifier
        ):
            return
        self._invalidate_cache()

    def _stamp_generation(self) -> None:
        # Weak references: a retired generation (and any shared-memory
        # pages it maps) must not outlive its last real user.
        classifier = self.classifier
        tree = classifier.tree
        self._stamp = (weakref.ref(classifier), weakref.ref(tree), tree.version)

    def _retire_inflight(self, request: "_Request") -> None:
        """Drop the request's single-flight registration.

        Runs wherever the request's future is completed, on the loop
        thread with no awaits before the future resolves, so a new
        leader for the same header can only register after every
        coalesced waiter's answer is already determined.  The identity
        check guards teardown paths that may complete a future twice.
        """
        if request.ingress is not None:
            return
        if self._inflight.get(request.header) is request.future:
            del self._inflight[request.header]

    def _invalidate_cache(self) -> None:
        """Retire the result cache, the stage-2 memo and the snapshot,
        then re-stamp."""
        self._behaviors.clear()
        self._snapshot = None
        if self._cache is not None:
            self._cache.invalidate()
        self._stamp_generation()

    # ------------------------------------------------------------------
    # Update path (write side of the swap lock)
    # ------------------------------------------------------------------

    async def insert_rule(self, box: str, rule: ForwardingRule):
        """Install a forwarding rule; the tree is split or spliced and
        the compiled program patched in place before the next batch."""
        return await self._apply_rule(box, rule, insert=True)

    async def remove_rule(self, box: str, rule: ForwardingRule):
        """Remove a forwarding rule; atoms it alone separated merge and
        the compiled program is patched in place before the next batch."""
        return await self._apply_rule(box, rule, insert=False)

    async def _apply_rule(self, box: str, rule: ForwardingRule, insert: bool):
        async with self._swap_lock.write():
            # Read inside the write section: a generation adopted while
            # this update waited for the lock is the one it must reach.
            classifier = self.classifier
            if insert:
                changes = classifier.dataplane.insert_rule(box, rule)
            else:
                changes = classifier.dataplane.remove_rule(box, rule)
            results = classifier.apply_changes(changes)
            if self._journal is not None:
                self._journal.extend(changes)
            if changes:
                self._invalidate_cache()
            self._compile_if_stale(classifier)
        return results

    async def adopt_generation(self, classifier: APClassifier) -> None:
        """Swap in a whole replacement classifier (generation handoff).

        The multi-worker serve pool publishes each new artifact
        generation by restoring it from shared memory and handing the
        result here; single-process callers can use it the same way
        after :func:`repro.persist.load`.  The swap takes the write side
        of the swap lock, so in-flight batches finish on the old
        generation and the next batch sees the new one -- never a mix.
        """
        async with self._swap_lock.write():
            classifier.set_maintenance("incremental")
            self._compile_if_stale(classifier)
            if self.recorder is not None:
                classifier.set_recorder(self.recorder)
            self.classifier = classifier
            self._invalidate_cache()
            self.counters.swaps += 1
            self.counters.generations += 1

    def _compile_if_stale(self, classifier: APClassifier) -> None:
        """Compile ``classifier`` unless its program is fresh.

        Updates patch a compiled program in place (a loaded one too),
        so after one only a change made around the service leaves it
        stale; a reconstruction swap leaves no program.
        """
        if not classifier.compiled_fresh:
            classifier.compile(self.backend)

    # ------------------------------------------------------------------
    # Verification queries: generation diff and what-if (repro.diff)
    # ------------------------------------------------------------------

    def _live_snapshot(self) -> bytes:
        """The live generation's classifier half, cached per generation.

        Must run under a read section of the swap lock on the loop
        thread: the snapshot is the consistency point -- everything
        downstream of it (artifact loads, shadow forks, BDD sweeps)
        works on private managers in an executor thread and can never
        see a half-applied update.  Encoding reads the classifier but
        never its compiled program, so a patched program is not
        recompiled here.  Repeated diff/what-if calls at the same
        generation reuse the cached bytes, so only the first call after
        a mutation pays the serialization.
        """
        self._check_generation()
        if self._snapshot is None:
            self._snapshot = classifier_bytes(self.classifier)
        return self._snapshot

    async def diff_generation(
        self,
        other: "APClassifier | str",
        ingress_box: str,
        *,
        limit: int | None = None,
    ) -> dict:
        """Diff the live generation against another one (strict JSON).

        ``other`` is a loaded :class:`APClassifier` or a path to a saved
        artifact.  The live side is snapshotted under the swap
        lock (one consistent generation) and the sweep runs on a private
        replica in the default executor, so serving latency sees only
        the snapshot cost -- never the BDD intersections.
        """
        if not self.running:
            raise ServiceClosed("service is not running")
        async with self._swap_lock.read():
            snapshot = self._live_snapshot()
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            None, self._diff_worker, snapshot, other, ingress_box, limit
        )

    def _diff_worker(
        self, snapshot: bytes, other, ingress_box: str, limit: int | None
    ) -> dict:
        """Executor-thread half of :meth:`diff_generation`."""
        from .. import persist
        from ..diff import diff_generations

        live = classifier_from_bytes(snapshot)
        after = (
            other
            if isinstance(other, APClassifier)
            else persist.load(other)
        )
        report = diff_generations(
            live, after, ingress_box, recorder=self.recorder
        )
        return report.to_json(limit)

    async def what_if(
        self,
        ingress_box: str,
        *,
        add: list = (),
        remove: list = (),
        limit: int | None = None,
    ) -> dict:
        """Answer a what-if rule-change query (strict JSON).

        ``add``/``remove`` entries are ``(box, rule)`` pairs or rule
        spec strings (:func:`repro.diff.parse_rule_spec`).  The
        candidate rules are applied to a *shadow* fork of the live
        snapshot through the incremental engine and diffed against it;
        the live classifier is never touched -- in-flight batches and
        subsequent updates proceed as if the query never happened.
        """
        if not self.running:
            raise ServiceClosed("service is not running")
        from ..diff import parse_rule_spec

        layout = self.classifier.dataplane.layout
        add = [
            parse_rule_spec(entry, layout) if isinstance(entry, str) else entry
            for entry in add
        ]
        remove = [
            parse_rule_spec(entry, layout) if isinstance(entry, str) else entry
            for entry in remove
        ]
        async with self._swap_lock.read():
            snapshot = self._live_snapshot()
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            None, self._what_if_worker, snapshot, add, remove, ingress_box, limit
        )

    def _what_if_worker(
        self, snapshot: bytes, add, remove, ingress_box: str, limit: int | None
    ) -> dict:
        """Executor-thread half of :meth:`what_if`.

        The shadow is forked from ``snapshot`` itself, which ``live`` is
        decoded from: encoding ``live`` again would only rebuild an
        equivalent blob.
        """
        from ..diff import _what_if

        live = classifier_from_bytes(snapshot)
        report = _what_if(
            live, snapshot, ingress_box, add, remove, recorder=self.recorder
        )
        return report.to_json(limit)

    # ------------------------------------------------------------------
    # Reconstruction (Section VI-B, served live)
    # ------------------------------------------------------------------

    @property
    def reconstructing(self) -> bool:
        return self._reconstructing

    async def reconstruct(self) -> bool:
        """Rebuild universe + tree in the background, then swap.

        The heavy work (atomic predicates, tree construction) runs in a
        worker thread via the event loop's default executor, so the
        dispatcher keeps answering on the old structures, whose compiled
        program mid-rebuild updates keep patching.  Those updates are
        also journaled and replayed onto the staged structures at the
        swap (Fig. 8), so the swapped-in classifier is exact for the
        *current* data plane.

        The rebuild thread never touches the canonical
        :class:`~repro.bdd.BDDManager`: that manager keeps taking
        updates on the event-loop thread during the rebuild, and it has
        no internal locking.  Instead the predicate snapshot is
        serialized under the write lock, the executor runs
        :func:`repro.core.reconstruction.rebuild_snapshot` on it (the
        same function :class:`repro.core.reconstruction.ReconstructionProcess`
        runs in a separate *process*), and the result is restored into the
        canonical manager back on the loop thread, under the write lock.

        Returns True once the rebuild is swapped in.  A rebuild whose
        classifier was replaced (:meth:`adopt_generation`) or moved to a
        fresh BDD manager (a re-home inside an update) while it ran
        describes structures no longer served: it is dropped, and the
        call returns False.
        """
        if self._reconstructing:
            raise RuntimeError("a reconstruction is already in flight")
        self._reconstructing = True
        try:
            async with self._swap_lock.write():
                classifier = self.classifier
                manager = classifier.dataplane.manager
                pids, dumped = snapshot_predicates(
                    classifier.dataplane.predicates()
                )
                self._journal = []
            payload = await asyncio.get_running_loop().run_in_executor(
                None, rebuild_snapshot, pids, dumped, classifier.strategy
            )
            async with self._swap_lock.write():
                if (
                    self.classifier is not classifier
                    or classifier.dataplane.manager is not manager
                ):
                    return False
                universe, tree = restore_rebuild(payload, manager)
                replayed = classifier.install_rebuild(
                    universe, tree, self._journal
                )
                # The classifier's engine credits its own recorder; a
                # service observed separately still sees the replays.
                rec = self.recorder
                if rec is not None and rec is not classifier.recorder:
                    rec.updates.replayed += replayed
                self._invalidate_cache()
                self._compile_if_stale(classifier)
                self.counters.swaps += 1
            return True
        finally:
            self._reconstructing = False
            self._journal = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def metrics(self) -> dict:
        """Point-in-time service metrics (``/metrics``-style snapshot).

        The cumulative counters match the ``serve`` section of a
        :meth:`repro.obs.Recorder.snapshot`; instantaneous gauges
        (queue depth, running/degraded state) are added on top.
        """
        data = self.counters.summary()
        data["queue_depth"] = len(self._queue)
        data["running"] = self.running
        data["reconstructing"] = self._reconstructing
        data["compiled_fresh"] = self.classifier.compiled_fresh
        if self._cache is not None:
            data["result_cache"] = {
                **data["result_cache"],
                **self._cache.stats(),
            }
        return data

    def __repr__(self) -> str:
        state = "running" if self.running else "stopped"
        return (
            f"QueryService({state}, max_batch={self.max_batch}, "
            f"queue={len(self._queue)}/{self.queue_limit}, "
            f"overflow={self.overflow!r})"
        )

