"""The multi-worker serving pool: ``repro serve --serve-workers N``.

The compiled classifier is tiny (Section VII-B) and, persisted as a
binary artifact, position-independent -- so serving processes can map
*one* read-only copy out of :mod:`multiprocessing.shared_memory` instead
of each rebuilding (or even copying) it.  A :class:`ServeGrid` is
``replicas`` worker processes over that one copy:

* the parent writes the artifact into shared memory, reserves the
  public port and spawns the workers; each maps the block, runs a
  :class:`~repro.serve.QueryService` and binds its own ``SO_REUSEPORT``
  socket on the public port, so the kernel load-balances connections
  with no proxy in front;
* every worker serves through the one connection loop
  (:func:`repro.serve.tcp.serve_connection`) and obeys one control
  protocol on its pipe: ``ready`` once listening, then ``prepare`` /
  ``commit`` for each new generation, ``stop`` at the end;
* generation handoff is two-phase and ack'd: *prepare* writes the new
  artifact into fresh shared memory and waits until every worker has
  mapped and loaded it (workers keep answering the old generation);
  *commit* makes every worker adopt it
  (:meth:`~repro.serve.QueryService.adopt_generation`) and retire the
  old one; only then does the parent unlink the old block -- in-flight
  work finishes on the pages it started on.
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
from ..artifact import artifact_bytes, load_artifact_buffer
from .service import QueryService
from .tcp import ServiceEndpoint

__all__ = ["ServeGrid", "closed_loop_qps"]

#: Seconds the parent waits for each worker's ready/ack message.
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


def _release(block) -> None:
    """Close and unlink a parent-owned block (workers may still map it)."""
    if block is None:
        return
    block.close()
    try:
        block.unlink()
    except FileNotFoundError:
        pass


def _detach(block: shared_memory.SharedMemory) -> None:
    """Drop a worker's mapping once nothing views its pages.

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


async def _member_serve(conn, name: str, host: str, port: int,
                        options: dict) -> None:
    """One worker: serve the artifact in block ``name`` on ``port``."""
    backend = options.pop("backend", None)

    def attach(block_name: str):
        block = shared_memory.SharedMemory(name=block_name)
        return block, load_artifact_buffer(
            block.buf, backend=backend, source=f"shm:{block_name}"
        )

    # generation id -> (shm block, loaded classifier)
    generations = {0: attach(name)}
    service = QueryService(generations[0][1], backend=backend, **options)
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
                    await service.adopt_generation(generations[gen][1])
                    for old in [g for g in generations if g != gen]:
                        _detach(generations.pop(old)[0])
            except Exception as exc:
                reply(("failed", gen, f"{type(exc).__name__}: {exc}"))
            else:
                reply(("ok", gen))

    async with ServiceEndpoint(service) as endpoint:
        service.counters.workers = 1
        await endpoint.listen(sock=_reuseport_socket(host, port))
        controller = loop.create_task(control_loop())
        loop.add_reader(conn.fileno(), on_control)
        reply(("ready", os.getpid()))
        try:
            await stop.wait()
        finally:
            loop.remove_reader(conn.fileno())
            controller.cancel()
    conn.close()
    # Drop every reference into the shared pages before the interpreter
    # tears down, so the mappings close instead of tripping BufferError
    # in SharedMemory.__del__ ("exported pointers exist").
    blocks = [block for block, _loaded in generations.values()]
    generations.clear()
    service.generation = None
    for block in blocks:
        _detach(block)


def _member_main(conn, name: str, host: str, port: int,
                 options: dict) -> None:
    """Process entry point; module-level so every start method works."""
    try:
        asyncio.run(_member_serve(conn, name, host, port, options))
    except KeyboardInterrupt:
        pass


class ServeGrid:
    """Parent-side controller of the multi-worker serving pool.

    Usage::

        grid = ServeGrid(classifier, replicas=4, port=9000)
        grid.start()                   # returns once every worker listens
        grid.publish(new_classifier)   # ack'd generation handoff
        grid.stop()

    ``replicas`` workers serve the whole classifier on the public
    ``host``/``port`` (``port=0`` picks one, see :attr:`port`).
    ``service_options`` passes through to each worker's
    :class:`~repro.serve.QueryService` (``max_batch``, ``overflow``,
    ...).  The controller is synchronous on purpose: it runs in the CLI
    process or a benchmark driver, not inside an event loop.
    """

    def __init__(
        self,
        classifier,
        *,
        replicas: int = 1,
        host: str = "127.0.0.1",
        port: int = 0,
        backend: str | None = None,
        service_options: dict | None = None,
        start_method: str | None = None,
        recorder=None,
    ) -> None:
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.replicas = replicas
        self.host = host
        #: The public port (resolved by :meth:`start`).
        self.port = port
        self.backend = backend
        self.service_options = dict(service_options or {})
        self.start_method = config.mp_start(start_method)
        self.recorder = recorder
        self.generation = 0
        self._blob = artifact_bytes(classifier, backend=backend)
        self._block: shared_memory.SharedMemory | None = None
        self._reserve: socket.socket | None = None
        self._processes: list = []
        self._conns: list = []

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

    def _broadcast(self, message: tuple, what: str) -> None:
        """Send every worker ``message``; wait for every ack."""
        for conn in self._conns:
            conn.send(message)
        failures = [
            reply[2]
            for conn in self._conns
            if (reply := self._expect(conn, what))[0] == "failed"
        ]
        if failures:
            raise RuntimeError(
                f"{what} failed in {len(failures)} member(s): {failures[0]}"
            )

    def start(self) -> int:
        """Spawn the workers; returns :attr:`port` once every one listens."""
        if self._processes:
            raise RuntimeError("grid already started")
        blob, self._blob = self._blob, None
        if blob is None:
            raise RuntimeError("grid was stopped; build a new one")
        self._block = _new_block(blob)
        # Reserve the port in the parent (bound, never listening) so
        # port=0 resolves once and every worker binds the same number.
        self._reserve = _reuseport_socket(self.host, self.port)
        self.port = self._reserve.getsockname()[1]
        options = {"backend": self.backend, **self.service_options}
        context = multiprocessing.get_context(self.start_method)
        try:
            for _replica in range(self.replicas):
                parent_conn, child_conn = context.Pipe()
                process = context.Process(
                    target=_member_main,
                    args=(child_conn, self._block.name, self.host, self.port,
                          options),
                    daemon=True,
                )
                process.start()
                child_conn.close()
                self._processes.append(process)
                self._conns.append(parent_conn)
            for conn in self._conns:
                self._expect(conn, "startup", ("ready",))
        except BaseException:
            self.stop()
            raise
        if self.recorder is not None:
            self.recorder.serve.workers = self.replicas
        return self.port

    def publish(self, classifier) -> int:
        """Ack'd two-phase handoff to ``classifier``; returns the new
        generation id.

        Every worker maps and loads the new artifact (*prepare*) before
        any is told to switch (*commit*).  A failed prepare leaves every
        worker on the old generation and the grid ready for a retry.
        """
        if not self._processes:
            raise RuntimeError("grid is not running")
        started = time.perf_counter()
        generation = self.generation + 1
        block = _new_block(artifact_bytes(classifier, backend=self.backend))
        try:
            self._broadcast(
                ("prepare", generation, block.name), "generation prepare"
            )
        except BaseException:
            _release(block)
            raise
        self._broadcast(("commit", generation), "generation commit")
        old, self._block = self._block, block
        self.generation = generation
        _release(old)
        if self.recorder is not None:
            self.recorder.serve.record_handoff(time.perf_counter() - started)
        return generation

    def stop(self) -> None:
        """Stop every worker and release OS resources. Idempotent."""
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for process in self._processes:
            process.join(timeout=CONTROL_TIMEOUT_S)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5)
        for conn in self._conns:
            conn.close()
        self._processes = []
        self._conns = []
        if self._reserve is not None:
            self._reserve.close()
            self._reserve = None
        _release(self._block)
        self._block = None

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
