"""One process grid for every multi-process serving mode.

The compiled classifier is tiny (Section VII-B) and, persisted as a
binary artifact, position-independent -- so serving processes can map
*one* read-only copy out of :mod:`multiprocessing.shared_memory` instead
of each rebuilding (or even copying) it.  ``repro serve --serve-workers
N`` and ``repro serve --shards S --replicas R`` are the same machine, a
:class:`ServeGrid` of ``rows x replicas`` member processes:

* the parent writes one blob per row into shared memory and spawns the
  members; member ``(row, r)`` maps row ``row``'s blob;
* every member serves through the one connection loop
  (:func:`repro.serve.tcp.serve_connection`) and obeys one control
  protocol on its pipe: ``ready`` once listening, then ``prepare`` /
  ``commit`` for each new generation, ``stop`` at the end;
* generation handoff is two-phase and ack'd: *prepare* writes the new
  blobs into fresh shared memory and waits until every member has
  mapped and loaded its one (members keep answering the old
  generation); *commit* makes every member switch to it and retire
  generations older than the previous one; only then does the parent
  unlink the old blocks -- in-flight work finishes on the pages it
  started on.

The two modes differ only in what a row is and where a member listens:

* ``shards=0`` (unsharded, ``--serve-workers``): one row, the whole
  artifact.  Each member runs a :class:`~repro.serve.QueryService` and
  binds its own ``SO_REUSEPORT`` socket on the public port, so the
  kernel load-balances connections with no proxy in front; commit is
  :meth:`~repro.serve.QueryService.adopt_generation`.
* ``shards>=1``: one row per shard slice (:mod:`repro.artifact.shard`).
  Members answer ``SHARD_CLASSIFY`` frames on private loopback ports
  through a :class:`~repro.serve.shard.SliceEndpoint`, behind a
  :class:`~repro.serve.ShardRouter` (:meth:`ShardRouter.from_grid
  <repro.serve.ShardRouter.from_grid>`) that flips its routing tables
  between prepare and commit.
"""

from __future__ import annotations

import asyncio
import gc
import multiprocessing
import os
import socket
import time
from multiprocessing import shared_memory

from .. import config
from ..artifact import (
    artifact_bytes,
    load_artifact_buffer,
    load_shard_buffer,
    make_shard_plan,
    shard_artifact_bytes,
)
from .service import QueryService
from .shard import SliceEndpoint
from .tcp import ServiceEndpoint, start_tcp_server, stop_server

__all__ = ["ServeGrid", "closed_loop_qps"]

#: Seconds the parent waits for each member's ready/ack message.
CONTROL_TIMEOUT_S = 60.0


def _reuseport_socket(host: str, port: int) -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        if hasattr(socket, "SO_REUSEPORT"):
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((host, port))
    except BaseException:
        sock.close()
        raise
    return sock


def _new_block(blob: bytes) -> shared_memory.SharedMemory:
    block = shared_memory.SharedMemory(create=True, size=len(blob))
    block.buf[: len(blob)] = blob
    return block


def _release(blocks) -> None:
    """Close and unlink parent-owned blocks (members may still map them)."""
    for block in blocks:
        block.close()
        try:
            block.unlink()
        except FileNotFoundError:
            pass


def _detach(block: shared_memory.SharedMemory) -> None:
    """Drop a member's mapping once nothing views its pages.

    Attaching re-registers the block with the resource tracker, but
    multiprocessing children share the parent's tracker process under
    every start method, so the duplicate register is a set no-op and
    the single unregister happens when the parent unlinks.  Never
    unregister here: that would unbalance the shared cache.  A mapping
    still pinned by a live buffer view is only a deferred close.
    """
    gc.collect()  # drop dead classifiers' views of block.buf first
    try:
        block.close()
    except BufferError:
        pass


async def _member_serve(conn, name: str, host: str, port: int | None,
                        options: dict) -> None:
    """One grid member; ``port=None`` marks a shard-slice replica."""
    backend = options.pop("backend", None)
    load = load_shard_buffer if port is None else load_artifact_buffer

    def attach(block_name: str):
        block = shared_memory.SharedMemory(name=block_name)
        return block, load(block.buf, backend=backend, source=f"shm:{block_name}")

    # generation id -> (shm block, loaded classifier or slice)
    generations = {0: attach(name)}
    if port is None:
        service = None
        endpoint = SliceEndpoint(generations)
    else:
        service = QueryService(generations[0][1], backend=backend, **options)
        endpoint = ServiceEndpoint(service)
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    # Control messages arrive on the pipe reader callback (no awaits
    # allowed there); the task below does the async work in order.
    control: asyncio.Queue[tuple] = asyncio.Queue()

    def reply(message: tuple) -> None:
        try:
            conn.send(message)
        except OSError:  # the parent is gone: nobody left to serve for
            stop.set()

    def on_control() -> None:
        while conn.poll():
            try:
                message = conn.recv()
            except (EOFError, OSError):
                stop.set()
                return
            if message[0] == "stop":
                stop.set()
            else:
                control.put_nowait(message)

    async def control_loop() -> None:
        while True:
            kind, gen, *block_name = await control.get()
            try:
                if kind == "prepare":
                    if gen in generations:  # retried after a failed prepare
                        _detach(generations.pop(gen)[0])
                    generations[gen] = attach(*block_name)
                else:  # commit
                    if service is not None:
                        await service.adopt_generation(generations[gen][1])
                    # Keep the previous generation: frames routed just
                    # before the flip may still arrive.
                    for old in [g for g in generations if g < gen - 1]:
                        _detach(generations.pop(old)[0])
            except Exception as exc:
                reply(("failed", gen, f"{type(exc).__name__}: {exc}"))
            else:
                reply(("ok", gen))

    async with endpoint:
        endpoint.counters.workers = 1
        if port is None:
            server = await start_tcp_server(endpoint, host, 0)
        else:
            server = await start_tcp_server(
                endpoint, sock=_reuseport_socket(host, port)
            )
        controller = loop.create_task(control_loop())
        loop.add_reader(conn.fileno(), on_control)
        reply(("ready", os.getpid(), server.sockets[0].getsockname()[1]))
        try:
            await stop.wait()
        finally:
            loop.remove_reader(conn.fileno())
            controller.cancel()
            await stop_server(server, endpoint)
    conn.close()
    # Drop every reference into the shared pages before the interpreter
    # tears down, so the mappings close instead of tripping BufferError
    # in SharedMemory.__del__ ("exported pointers exist").
    blocks = [block for block, _loaded in generations.values()]
    generations.clear()
    if service is not None:
        service.classifier = None
    for block in blocks:
        _detach(block)


def _member_main(conn, name: str, host: str, port: int | None,
                 options: dict) -> None:
    """Process entry point; module-level so every start method works."""
    try:
        asyncio.run(_member_serve(conn, name, host, port, options))
    except KeyboardInterrupt:
        pass


class ServeGrid:
    """Parent-side controller of a shards x replicas serving grid.

    Usage::

        grid = ServeGrid(classifier, replicas=4, port=9000)   # unsharded
        grid.start()                   # returns once every member listens
        grid.publish(new_classifier)   # ack'd generation handoff
        grid.stop()

        grid = ServeGrid(classifier, shards=4, replicas=2)    # sharded
        grid.start()
        router = ShardRouter.from_grid(grid)
        grid.publish(new_classifier, router=router)

    ``shards=0`` runs ``replicas`` full-classifier workers on the public
    ``host``/``port`` (``port=0`` picks one, see :attr:`port`);
    ``shards>=1`` runs ``replicas`` processes per shard slice on private
    ports (:attr:`endpoints`), cut at ``depth`` (default: the shallowest
    cut with 4 frontiers per shard).  ``service_options`` passes through
    to each unsharded member's :class:`~repro.serve.QueryService`
    (``max_batch``, ``overflow``, ...).  The controller is synchronous on
    purpose: it runs in the CLI process or a benchmark driver, not
    inside an event loop; :meth:`publish_async` is the in-loop variant
    that keeps a router flip atomic with respect to running batches.
    """

    def __init__(
        self,
        classifier,
        *,
        shards: int = 0,
        replicas: int = 1,
        host: str = "127.0.0.1",
        port: int = 0,
        depth: int | None = None,
        backend: str | None = None,
        service_options: dict | None = None,
        start_method: str | None = None,
        recorder=None,
    ) -> None:
        if shards < 0:
            raise ValueError("shards must be >= 0")
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.shards = shards
        self.replicas = replicas
        self.host = host
        #: The public port of an unsharded grid (resolved by :meth:`start`).
        self.port = port
        self.backend = backend
        self.service_options = dict(service_options or {})
        self.start_method = config.mp_start(start_method)
        self.recorder = recorder
        self.generation = 0
        self._depth = depth
        self.plan, self._blobs = self._cut(classifier)
        self._blocks: list = []
        self._reserve: socket.socket | None = None
        self._processes: list[list] = []
        self._conns: list[list] = []
        #: ``endpoints[row]`` -> ``(host, port)`` per replica.
        self.endpoints: list[list[tuple[str, int]]] = []

    def _cut(self, classifier) -> tuple:
        """``(plan, blobs)``: one blob per row, the plan when sharded."""
        if not self.shards:
            return None, [artifact_bytes(classifier, backend=self.backend)]
        plan = make_shard_plan(
            classifier, self.shards, depth=self._depth, backend=self.backend
        )
        return plan, [
            shard_artifact_bytes(classifier, plan, s, backend=self.backend)
            for s in range(plan.shards)
        ]

    def _expect(self, conn, what: str, kinds=("ok", "failed")):
        if not conn.poll(CONTROL_TIMEOUT_S):
            raise RuntimeError(f"serve grid member did not answer ({what})")
        try:
            message = conn.recv()
        except EOFError:
            raise RuntimeError(f"serve grid member died during {what}") from None
        if message[0] not in kinds:
            raise RuntimeError(f"serve grid member failed during {what}: {message}")
        return message

    def _broadcast(self, message_of_row, what: str) -> None:
        """Send every member its row's message; wait for every ack."""
        for row, conns in enumerate(self._conns):
            for conn in conns:
                conn.send(message_of_row(row))
        failures = [
            message[2]
            for conns in self._conns
            for conn in conns
            if (message := self._expect(conn, what))[0] == "failed"
        ]
        if failures:
            raise RuntimeError(
                f"{what} failed in {len(failures)} member(s): {failures[0]}"
            )

    def start(self) -> list[list[tuple[str, int]]]:
        """Spawn the grid; returns :attr:`endpoints` once every member listens."""
        if self._processes:
            raise RuntimeError("grid already started")
        blobs, self._blobs = self._blobs, None
        if blobs is None:
            raise RuntimeError("grid was stopped; build a new one")
        self._blocks = [_new_block(blob) for blob in blobs]
        member_port = None
        options = {"backend": self.backend}
        if not self.shards:
            # Reserve the port in the parent (bound, never listening) so
            # port=0 resolves once and every member binds the same number.
            self._reserve = _reuseport_socket(self.host, self.port)
            self.port = member_port = self._reserve.getsockname()[1]
            options.update(self.service_options)
        context = multiprocessing.get_context(self.start_method)
        try:
            for block in self._blocks:
                procs, conns = [], []
                for _replica in range(self.replicas):
                    parent_conn, child_conn = context.Pipe()
                    process = context.Process(
                        target=_member_main,
                        args=(child_conn, block.name, self.host, member_port,
                              options),
                        daemon=True,
                    )
                    process.start()
                    child_conn.close()
                    procs.append(process)
                    conns.append(parent_conn)
                self._processes.append(procs)
                self._conns.append(conns)
            self.endpoints = [
                [(self.host, self._expect(conn, "startup", ("ready",))[2])
                 for conn in conns]
                for conns in self._conns
            ]
        except BaseException:
            self.stop()
            raise
        if self.recorder is not None:
            serve = self.recorder.serve
            serve.workers = len(self._blocks) * self.replicas
            if self.shards:
                serve.shard_shards = self.shards
                serve.shard_replicas = self.replicas
        return self.endpoints

    # -- generation handoff --------------------------------------------

    def prepare(self, classifier) -> dict:
        """Stage a new generation on every member (ack'd); no switch yet.

        Returns the pending-generation handle for :meth:`commit`.
        Members keep answering the old generation throughout.
        """
        if not self._processes:
            raise RuntimeError("grid is not running")
        started = time.perf_counter()
        generation = self.generation + 1
        plan, blobs = self._cut(classifier)
        blocks = [_new_block(blob) for blob in blobs]
        try:
            self._broadcast(
                lambda row: ("prepare", generation, blocks[row].name),
                "generation prepare",
            )
        except BaseException:
            _release(blocks)
            raise
        return {
            "generation": generation,
            "plan": plan,
            "blocks": blocks,
            "started": started,
        }

    def commit(self, pending: dict) -> None:
        """Finish a handoff: every member switches to ``pending`` and
        retires generations older than the previous one, then the old
        blocks are unlinked.  A router must already have flipped."""
        generation = pending["generation"]
        self._broadcast(lambda row: ("commit", generation), "generation commit")
        old, self._blocks = self._blocks, pending["blocks"]
        self.plan = pending["plan"]
        self.generation = generation
        _release(old)
        if self.recorder is not None:
            self.recorder.serve.record_handoff(
                time.perf_counter() - pending["started"]
            )

    def publish(self, classifier, router=None) -> int:
        """Full ack'd handoff from synchronous code; returns the new
        generation id.  With a ``router`` the flip happens between
        prepare and commit -- only safe when no event loop is
        concurrently routing (tests, CLI swaps); inside a loop use
        :meth:`publish_async`."""
        pending = self.prepare(classifier)
        if router is not None:
            router.flip(pending["plan"], pending["generation"])
        self.commit(pending)
        return pending["generation"]

    async def publish_async(self, classifier, router=None) -> int:
        """Handoff driven from inside the router's event loop.

        The blocking prepare/commit pipe work runs in the default
        executor; the router flip itself is a plain in-loop call, so no
        batch observes a half-swapped routing table.
        """
        loop = asyncio.get_running_loop()
        pending = await loop.run_in_executor(None, self.prepare, classifier)
        if router is not None:
            router.flip(pending["plan"], pending["generation"])
        await loop.run_in_executor(None, self.commit, pending)
        return pending["generation"]

    # -- fault injection / shutdown ------------------------------------

    def kill_replica(self, row: int, replica: int) -> None:
        """Hard-kill one member process (fail-over testing)."""
        process = self._processes[row][replica]
        process.terminate()
        process.join(timeout=5)

    def stop(self) -> None:
        """Stop every member and release OS resources. Idempotent."""
        for conns in self._conns:
            for conn in conns:
                try:
                    conn.send(("stop",))
                except (BrokenPipeError, OSError):
                    pass
        for procs in self._processes:
            for process in procs:
                process.join(timeout=CONTROL_TIMEOUT_S)
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=5)
        for conns in self._conns:
            for conn in conns:
                conn.close()
        self._processes = []
        self._conns = []
        self.endpoints = []
        if self._reserve is not None:
            self._reserve.close()
            self._reserve = None
        _release(self._blocks)
        self._blocks = []

    def __enter__(self) -> "ServeGrid":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def closed_loop_qps(
    host: str,
    port: int,
    headers: list[int],
    *,
    connections: int = 4,
    duration_s: float = 2.0,
) -> dict:
    """Closed-loop TCP load: ``connections`` clients, each one request
    outstanding, for ``duration_s``.  Returns aggregate throughput --
    the benchmark's view of single- vs multi-worker serving.
    """

    async def _client(index: int, stats: dict, deadline: float) -> None:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            k = index
            while time.perf_counter() < deadline:
                header = headers[k % len(headers)]
                k += connections
                writer.write(
                    (f'{{"op": "classify", "header": {header}}}\n').encode()
                )
                await writer.drain()
                line = await reader.readline()
                if not line:
                    break
                stats["responses"] += 1
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _drive() -> dict:
        stats = {"responses": 0}
        started = time.perf_counter()
        deadline = started + duration_s
        await asyncio.gather(
            *(_client(i, stats, deadline) for i in range(connections))
        )
        elapsed = time.perf_counter() - started
        return {
            "responses": stats["responses"],
            "elapsed_s": elapsed,
            "qps": stats["responses"] / elapsed if elapsed > 0 else 0.0,
            "connections": connections,
        }

    return asyncio.run(_drive())
