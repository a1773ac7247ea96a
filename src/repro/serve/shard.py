"""Multi-node sharded serving: router, replica pool, and handoff.

One serving process holds the whole compiled classifier; this module
splits it across *N* shard backends along the AP Tree's own geometry.
A shallow prefix of the tree (:class:`~repro.core.compiled.TreePrefix`)
becomes the **router**: descending it maps a header to a *frontier*
subtree, the shard plan maps frontiers to shards, and each shard serves
a slice artifact holding only its subtrees' programs, flat-BDD nodes,
and ``R`` sets (:mod:`repro.artifact.shard`).  Sibling subtrees cover
disjoint header-space, so the split is exact: sharded answers are
bit-identical to the single-node classifier.

Topology (``--shards 2 --replicas 2``)::

    client -> front server -> ShardRouter --+--> shard 0 replica a
              (framed or JSON)              |      shard 0 replica b
                                            +--> shard 1 replica a
                                                 shard 1 replica b

* each shard is replicated ``R`` ways; every replica of a shard maps
  the *same* shared-memory slice blob.  The router keeps a persistent
  framed connection per replica and rotates across them; on a connect
  error, reset, or timeout it retries the next replica (fail-over);
* queries travel as :mod:`repro.serve.proto` frames -- one
  ``SHARD_CLASSIFY`` frame carries a whole routed sub-batch in the
  kernel's word-packed form, so a replica classifies straight off the
  wire bytes;
* generation handoff extends the multi-worker publish protocol
  cluster-wide: the parent writes every shard's new slice into fresh
  shared memory and sends ``prepare``; replicas attach, load, and ack
  while still answering the old generation; only after **every**
  replica acked does the router flip its routing tables -- a plain
  in-loop assignment, atomic with respect to batches -- and each
  ``SHARD_CLASSIFY`` frame carries the generation it was routed under,
  answered strictly from that generation.  Replicas keep the last two
  generations mapped until ``commit``, so in-flight frames tagged with
  the previous generation still answer and no batch ever mixes
  generations.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import time

from .. import config
from ..artifact import load_shard_buffer, make_shard_plan, shard_artifact_bytes
from ..obs.recorder import ServeCounters
from . import proto
from .workers import CONTROL_TIMEOUT_S, _Generation

try:  # pragma: no cover - exercised via the CI matrix
    if config.numpy_disabled():
        _np = None
    else:
        import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

if _np is not None:
    from ..core import kernel as _kernel
else:  # pragma: no cover
    _kernel = None

__all__ = [
    "ROUTER_TIMEOUT_S",
    "ShardCluster",
    "ShardRouter",
    "serve_front_forever",
    "start_front_server",
]

#: Per-attempt deadline for one routed sub-batch; a dead replica's
#: connection usually fails fast (ECONNREFUSED/RST), the timeout covers
#: the half-open case.
ROUTER_TIMEOUT_S = 15.0

#: Errors that mean "this replica, right now" rather than "this
#: request": the router resets the connection and fails over.
_RETRYABLE = (ConnectionError, OSError, asyncio.IncompleteReadError,
              asyncio.TimeoutError)


# ----------------------------------------------------------------------
# Replica process (one shard slice, framed protocol only)
# ----------------------------------------------------------------------


def _load_slice(shm_name: str, backend: str | None):
    """(generation-block, serving) restored from a shared-memory slice."""
    block = _Generation(shm_name)
    serving = load_shard_buffer(
        block.shm.buf, backend=backend, source=f"shm:{shm_name}"
    )
    return block, serving


async def _replica_connection(state: dict, reader, writer) -> None:
    """One framed client (normally the router) against this replica."""
    generations = state["generations"]
    try:
        while True:
            try:
                ftype, payload = await proto.read_frame(reader)
            except (asyncio.IncompleteReadError, ConnectionError):
                break
            except proto.FrameError as exc:
                # Desynchronized stream: report once, then drop it.
                writer.write(proto.pack_frame(proto.ERROR, str(exc).encode()))
                await writer.drain()
                break
            try:
                if ftype == proto.PING:
                    response = proto.pack_frame(proto.PONG)
                elif ftype == proto.SHARD_CLASSIFY:
                    gen, frontiers, headers, _w = proto.decode_shard_classify(
                        payload
                    )
                    entry = generations.get(gen)
                    if entry is None:
                        raise proto.FrameError(
                            f"unknown generation {gen} "
                            f"(have {sorted(generations)})"
                        )
                    serving = entry[1]
                    if _np is not None:
                        atoms = serving.classify_batch_array(frontiers, headers)
                    else:
                        atoms = serving.classify_batch(
                            list(frontiers), headers
                        )
                    state["served"] += len(headers)
                    response = proto.pack_frame(
                        proto.SHARD_RESULT, proto.encode_shard_result(gen, atoms)
                    )
                elif ftype == proto.METRICS:
                    newest = max(generations)
                    info = {
                        "shard": generations[newest][1].shard_id,
                        "shards": generations[newest][1].shards,
                        "generations": sorted(generations),
                        "served": state["served"],
                        "pid": os.getpid(),
                    }
                    response = proto.pack_frame(
                        proto.METRICS_RESULT,
                        json.dumps(info, allow_nan=False).encode(),
                    )
                else:
                    raise proto.FrameError(
                        f"unsupported frame type {ftype:#04x}"
                    )
            except (proto.FrameError, KeyError, ValueError) as exc:
                # Per-frame contract: answer ERROR, keep the connection.
                response = proto.pack_frame(
                    proto.ERROR, (str(exc) or repr(exc)).encode()
                )
            writer.write(response)
            try:
                await writer.drain()
            except ConnectionError:
                break
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _replica_serve(conn, shm_name: str, host: str,
                         options: dict) -> None:
    backend = options.pop("backend", None)
    block, serving = _load_slice(shm_name, backend)
    # generation id -> (shm block, ShardServing); answers are strictly
    # by the generation a frame was routed under.
    state: dict = {"generations": {0: (block, serving)}, "served": 0}
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    control: asyncio.Queue[tuple] = asyncio.Queue()

    def on_control() -> None:
        while conn.poll():
            try:
                message = conn.recv()
            except EOFError:
                stop.set()
                return
            if message[0] == "stop":
                stop.set()
            else:
                control.put_nowait(message)

    async def control_loop() -> None:
        generations = state["generations"]
        while True:
            message = await control.get()
            if message[0] == "prepare":
                _tag, gen, name = message
                try:
                    generations[gen] = _load_slice(name, backend)
                except Exception as exc:
                    conn.send(
                        ("prepare_failed", gen,
                         f"{type(exc).__name__}: {exc}")
                    )
                    continue
                conn.send(("prepared", gen))
            elif message[0] == "commit":
                gen = message[1]
                # Keep the committed generation and its predecessor:
                # frames routed just before the flip may still arrive.
                for old in [g for g in generations if g < gen - 1]:
                    old_block, _serving = generations.pop(old)
                    old_block.close()
                conn.send(("committed", gen))

    active: set = set()

    async def handler(reader, writer) -> None:
        active.add(writer)
        try:
            await _replica_connection(state, reader, writer)
        finally:
            active.discard(writer)

    server = await asyncio.start_server(handler, host, 0)
    port = server.sockets[0].getsockname()[1]
    controller = loop.create_task(control_loop())
    loop.add_reader(conn.fileno(), on_control)
    conn.send(("ready", os.getpid(), port))
    try:
        await stop.wait()
    finally:
        loop.remove_reader(conn.fileno())
        controller.cancel()
        server.close()
        await server.wait_closed()
        for writer in list(active):
            writer.close()
        for _ in range(100):
            if not active:
                break
            await asyncio.sleep(0.01)
    try:
        conn.send(("stopped", state["served"]))
    except (BrokenPipeError, OSError):
        pass
    conn.close()
    generations = state.pop("generations")
    del serving
    for gen in list(generations):
        gen_block, gen_serving = generations.pop(gen)
        del gen_serving
        gen_block.close()


def _replica_main(conn, shm_name: str, host: str, options: dict) -> None:
    """Process entry point; module-level so every start method works."""
    try:
        asyncio.run(_replica_serve(conn, shm_name, host, options))
    except KeyboardInterrupt:
        pass


# ----------------------------------------------------------------------
# Parent-side cluster controller
# ----------------------------------------------------------------------


class ShardCluster:
    """Spawn and publish to a shard x replica grid of serving processes.

    Usage::

        cluster = ShardCluster(classifier, shards=4, replicas=2)
        cluster.start()                # all replicas listening
        router = ShardRouter.from_cluster(cluster)
        ...
        cluster.publish(new_classifier, router=router)   # ack'd handoff
        cluster.stop()

    The controller is synchronous like :class:`ServeWorkerPool` (it runs
    in the CLI process or a benchmark driver); :meth:`publish_async` is
    the in-event-loop variant that keeps the router flip atomic with
    respect to running batches.
    """

    def __init__(
        self,
        classifier,
        *,
        shards: int = 2,
        replicas: int = 1,
        depth: int | None = None,
        host: str = "127.0.0.1",
        backend: str | None = None,
        start_method: str | None = None,
        recorder=None,
    ) -> None:
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.plan = make_shard_plan(
            classifier, shards, depth=depth, backend=backend
        )
        self.shards = self.plan.shards
        self.replicas = replicas
        self.host = host
        self.backend = backend
        self.start_method = config.mp_start(start_method)
        self.recorder = recorder
        self.generation = 0
        self._depth = depth
        self._blobs: list[bytes] | None = [
            shard_artifact_bytes(classifier, self.plan, s, backend=backend)
            for s in range(self.shards)
        ]
        self._blocks: list = []
        self._processes: list[list] = []
        self._conns: list[list] = []
        #: ``endpoints[shard]`` -> list of ``(host, port)`` per replica.
        self.endpoints: list[list[tuple[str, int]]] = []

    # ------------------------------------------------------------------

    @staticmethod
    def _new_block(blob: bytes):
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(create=True, size=len(blob))
        shm.buf[: len(blob)] = blob
        return shm

    def _expect(self, conn, kinds: tuple[str, ...], what: str):
        if not conn.poll(CONTROL_TIMEOUT_S):
            raise RuntimeError(f"shard replica did not answer ({what})")
        try:
            message = conn.recv()
        except EOFError:
            raise RuntimeError(f"shard replica died during {what}") from None
        if message[0] not in kinds:
            raise RuntimeError(f"shard replica failed during {what}: {message}")
        return message

    def start(self) -> list[list[tuple[str, int]]]:
        """Spawn the grid; returns ``endpoints`` once every replica listens."""
        if self._processes:
            raise RuntimeError("cluster already started")
        blobs, self._blobs = self._blobs, None
        if blobs is None:
            raise RuntimeError("cluster was stopped; build a new one")
        self._blocks = [self._new_block(blob) for blob in blobs]
        context = multiprocessing.get_context(self.start_method)
        try:
            for shard in range(self.shards):
                procs, conns = [], []
                for _replica in range(self.replicas):
                    parent_conn, child_conn = context.Pipe()
                    process = context.Process(
                        target=_replica_main,
                        args=(
                            child_conn,
                            self._blocks[shard].name,
                            self.host,
                            {"backend": self.backend},
                        ),
                        daemon=True,
                    )
                    process.start()
                    child_conn.close()
                    procs.append(process)
                    conns.append(parent_conn)
                self._processes.append(procs)
                self._conns.append(conns)
            for shard in range(self.shards):
                ports = []
                for conn in self._conns[shard]:
                    message = self._expect(conn, ("ready",), "startup")
                    ports.append((self.host, message[2]))
                self.endpoints.append(ports)
        except BaseException:
            self.stop()
            raise
        if self.recorder is not None:
            self.recorder.serve.shard_shards = self.shards
            self.recorder.serve.shard_replicas = self.replicas
        return self.endpoints

    # -- generation handoff --------------------------------------------

    def prepare(self, classifier) -> dict:
        """Stage a new generation on every replica (ack'd); no flip yet.

        Writes each shard's new slice into fresh shared memory, signals
        every replica, and waits for all ``prepared`` acks.  Returns the
        pending-generation handle for :meth:`commit`.  Replicas keep
        answering the old generation throughout.
        """
        if not self._processes:
            raise RuntimeError("cluster is not running")
        started = time.perf_counter()
        generation = self.generation + 1
        plan = make_shard_plan(
            classifier, self.shards, depth=self._depth, backend=self.backend
        )
        blocks = [
            self._new_block(
                shard_artifact_bytes(classifier, plan, s, backend=self.backend)
            )
            for s in range(self.shards)
        ]
        try:
            for shard in range(self.shards):
                for conn in self._conns[shard]:
                    conn.send(("prepare", generation, blocks[shard].name))
            failures = []
            for conns in self._conns:
                for conn in conns:
                    message = self._expect(
                        conn, ("prepared", "prepare_failed"),
                        "generation prepare",
                    )
                    if message[0] == "prepare_failed":
                        failures.append(message[2])
            if failures:
                raise RuntimeError(
                    f"generation prepare failed in {len(failures)} "
                    f"replica(s): {failures[0]}"
                )
        except BaseException:
            for block in blocks:
                block.close()
                try:
                    block.unlink()
                except FileNotFoundError:
                    pass
            raise
        return {
            "generation": generation,
            "plan": plan,
            "blocks": blocks,
            "started": started,
        }

    def commit(self, pending: dict) -> None:
        """Finish a handoff: replicas retire generations older than
        ``gen - 1`` and the previous shared-memory blocks are unlinked.
        Call only after the router flipped to ``pending``."""
        generation = pending["generation"]
        for conns in self._conns:
            for conn in conns:
                conn.send(("commit", generation))
        for conns in self._conns:
            for conn in conns:
                self._expect(conn, ("committed",), "generation commit")
        old = self._blocks
        self._blocks = pending["blocks"]
        self.plan = pending["plan"]
        self.generation = generation
        for block in old:
            block.close()
            try:
                block.unlink()
            except FileNotFoundError:
                pass
        elapsed = time.perf_counter() - pending["started"]
        if self.recorder is not None:
            self.recorder.serve.record_handoff(elapsed)

    def publish(self, classifier, router: "ShardRouter | None" = None) -> int:
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

    async def publish_async(self, classifier, router: "ShardRouter") -> int:
        """Handoff driven from inside the router's event loop.

        The blocking prepare/commit pipe work runs in the default
        executor; the router flip itself is a plain in-loop call, so no
        batch observes a half-swapped routing table.
        """
        loop = asyncio.get_running_loop()
        pending = await loop.run_in_executor(None, self.prepare, classifier)
        router.flip(pending["plan"], pending["generation"])
        await loop.run_in_executor(None, self.commit, pending)
        return pending["generation"]

    # -- fault injection / shutdown ------------------------------------

    def kill_replica(self, shard: int, replica: int) -> None:
        """Hard-kill one replica process (fail-over testing)."""
        process = self._processes[shard][replica]
        process.terminate()
        process.join(timeout=5)

    def stop(self) -> None:
        """Stop every replica and release OS resources. Idempotent."""
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
        for block in self._blocks:
            block.close()
            try:
                block.unlink()
            except FileNotFoundError:
                pass
        self._blocks = []

    def __enter__(self) -> "ShardCluster":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


# ----------------------------------------------------------------------
# Router
# ----------------------------------------------------------------------


class _ReplicaConn:
    """One persistent framed connection, (re)opened on demand."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader = None
        self._writer = None
        self._lock = asyncio.Lock()

    async def call(self, frame: bytes):
        """Send one frame, await one frame.  The per-connection lock
        serializes callers so responses pair with requests."""
        async with self._lock:
            if self._writer is None:
                self._reader, self._writer = await asyncio.open_connection(
                    self.host, self.port
                )
            self._writer.write(frame)
            await self._writer.drain()
            return await proto.read_frame(self._reader)

    def reset(self) -> None:
        """Drop the connection (after an error or timeout)."""
        writer, self._reader, self._writer = self._writer, None, None
        if writer is not None:
            try:
                writer.close()
            except (ConnectionError, OSError):
                pass

    async def close(self) -> None:
        writer, self._reader, self._writer = self._writer, None, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


class ShardRouter:
    """Route header batches across shard replicas; flip generations.

    The routing state is one ``(prefix, assignment, generation)`` tuple
    read exactly once per batch and replaced atomically by
    :meth:`flip` -- a batch runs entirely under the tuple it grabbed,
    and replicas answer strictly by the generation stamped into each
    ``SHARD_CLASSIFY`` frame, so answers never mix generations.
    """

    def __init__(
        self,
        *,
        plan,
        endpoints: list[list[tuple[str, int]]],
        generation: int = 0,
        counters: ServeCounters | None = None,
        timeout: float = ROUTER_TIMEOUT_S,
    ) -> None:
        if len(endpoints) != plan.shards:
            raise ValueError(
                f"{len(endpoints)} endpoint groups for {plan.shards} shards"
            )
        self.counters = counters if counters is not None else ServeCounters()
        self.counters.shard_shards = plan.shards
        self.counters.shard_replicas = max(len(group) for group in endpoints)
        self.timeout = timeout
        self._replicas = [
            [_ReplicaConn(host, port) for host, port in group]
            for group in endpoints
        ]
        self._rotor = [0] * len(endpoints)
        self._routing = self._routing_state(plan, generation)

    @classmethod
    def from_cluster(
        cls,
        cluster: ShardCluster,
        *,
        counters: ServeCounters | None = None,
        timeout: float = ROUTER_TIMEOUT_S,
    ) -> "ShardRouter":
        if counters is None and cluster.recorder is not None:
            counters = cluster.recorder.serve
        return cls(
            plan=cluster.plan,
            endpoints=cluster.endpoints,
            generation=cluster.generation,
            counters=counters,
            timeout=timeout,
        )

    @staticmethod
    def _routing_state(plan, generation: int) -> tuple:
        assignment = plan.assignment
        if _np is not None:
            assignment = _np.asarray(assignment, dtype=_np.int64)
        return (plan.prefix, assignment, generation)

    # ------------------------------------------------------------------

    @property
    def generation(self) -> int:
        return self._routing[2]

    def flip(self, plan, generation: int) -> None:
        """Atomically adopt a new plan + generation.

        Plain attribute assignment in the event loop: concurrent
        batches either read the old tuple or the new one, never a mix.
        Call only after every replica acked ``prepare`` for
        ``generation`` (:meth:`ShardCluster.prepare` guarantees this).
        """
        self._routing = self._routing_state(plan, generation)

    async def classify_batch(self, headers) -> list[int]:
        """Atom ids for a batch, routed and reassembled in order."""
        prefix, assignment, generation = self._routing
        n = len(headers)
        if n == 0:
            return []
        started = time.perf_counter()
        program = prefix.program
        if _np is not None and program.backend != "stdlib":
            width = _kernel.words_per_header(program.num_vars)
            words = _kernel.pack_headers(headers, program.num_vars)
            frontiers = prefix.route_batch_array(words)
            shard_ids = assignment[frontiers]
            out = _np.empty(n, dtype=_np.int64)
            tasks = []
            for shard in _np.unique(shard_ids):
                mask = shard_ids == shard
                tasks.append(self._shard_call(
                    int(shard), generation,
                    frontiers[mask], words[mask], width,
                    out, _np.nonzero(mask)[0],
                ))
            await asyncio.gather(*tasks)
            atoms = out.tolist()
        else:
            width = max(1, (program.num_vars + 63) // 64)
            frontiers = prefix.route_batch(list(headers))
            by_shard: dict[int, list[int]] = {}
            for index, frontier in enumerate(frontiers):
                by_shard.setdefault(assignment[frontier], []).append(index)
            out_list = [0] * n
            tasks = [
                self._shard_call(
                    shard, generation,
                    [frontiers[i] for i in indices],
                    [headers[i] for i in indices],
                    width, out_list, indices,
                )
                for shard, indices in by_shard.items()
            ]
            await asyncio.gather(*tasks)
            atoms = out_list
        self.counters.record_frame(n, time.perf_counter() - started)
        return atoms

    async def classify(self, header: int) -> int:
        num_vars = self._routing[0].program.num_vars
        if not 0 <= header < 1 << num_vars:
            raise ValueError(
                f"header {header} out of range for a {num_vars}-bit layout"
            )
        return (await self.classify_batch([header]))[0]

    async def _shard_call(
        self, shard: int, generation: int, frontiers, headers,
        width: int, out, indices,
    ) -> None:
        payload = proto.encode_shard_classify(
            generation, frontiers, headers, width=width
        )
        frame = proto.pack_frame(proto.SHARD_CLASSIFY, payload)
        replicas = self._replicas[shard]
        start = self._rotor[shard]
        self._rotor[shard] = (start + 1) % len(replicas)
        last_exc: BaseException | None = None
        for attempt in range(len(replicas)):
            conn = replicas[(start + attempt) % len(replicas)]
            try:
                ftype, body = await asyncio.wait_for(
                    conn.call(frame), self.timeout
                )
            except _RETRYABLE as exc:
                last_exc = exc
                conn.reset()
                self.counters.record_retry(failover=len(replicas) > 1)
                continue
            if ftype == proto.ERROR:
                raise proto.RemoteError(body.decode(errors="replace"))
            if ftype != proto.SHARD_RESULT:
                raise proto.RemoteError(
                    f"unexpected frame type {ftype:#04x} from shard {shard}"
                )
            answered, atoms = proto.decode_shard_result(body)
            if answered != generation:
                raise proto.RemoteError(
                    f"shard {shard} answered generation {answered}, "
                    f"asked {generation}"
                )
            if len(atoms) != len(indices):
                raise proto.RemoteError(
                    f"shard {shard} answered {len(atoms)} atoms "
                    f"for {len(indices)} headers"
                )
            self.counters.record_route(shard, len(indices))
            if _np is not None and isinstance(out, _np.ndarray):
                out[indices] = atoms
            else:
                for position, atom in zip(indices, atoms):
                    out[position] = int(atom)
            return
        raise ConnectionError(
            f"all {len(replicas)} replica(s) of shard {shard} failed"
        ) from last_exc

    def metrics(self) -> dict:
        return self.counters.summary()

    async def close(self) -> None:
        for group in self._replicas:
            for conn in group:
                await conn.close()


# ----------------------------------------------------------------------
# Front server (framed + newline-JSON shim, one port)
# ----------------------------------------------------------------------


async def _front_framed(router: ShardRouter, reader, writer) -> None:
    """Framed loop; the leading magic byte was consumed by the peek."""
    first = True
    while True:
        try:
            if first:
                ftype, payload = await proto.read_rest_of_frame(reader)
                first = False
            else:
                ftype, payload = await proto.read_frame(reader)
        except (asyncio.IncompleteReadError, ConnectionError):
            return
        except proto.FrameError as exc:
            writer.write(proto.pack_frame(proto.ERROR, str(exc).encode()))
            await writer.drain()
            return
        try:
            if ftype == proto.PING:
                response = proto.pack_frame(proto.PONG)
            elif ftype == proto.CLASSIFY:
                headers, _width = proto.decode_classify(payload)
                atoms = await router.classify_batch(headers)
                response = proto.pack_frame(
                    proto.RESULT, proto.encode_result(atoms)
                )
            elif ftype == proto.METRICS:
                response = proto.pack_frame(
                    proto.METRICS_RESULT,
                    json.dumps(router.metrics(), allow_nan=False).encode(),
                )
            else:
                raise proto.FrameError(f"unsupported frame type {ftype:#04x}")
        except (proto.FrameError, proto.RemoteError, ConnectionError,
                ValueError) as exc:
            response = proto.pack_frame(
                proto.ERROR, (str(exc) or repr(exc)).encode()
            )
        writer.write(response)
        try:
            await writer.drain()
        except ConnectionError:
            return


async def _front_json(router: ShardRouter, reader, writer,
                      initial: bytes) -> None:
    """Newline-JSON compat shim: ping / classify-by-header / metrics.

    The full JSON API (packet objects, behavior queries) lives on the
    single-node server; the front tier only classifies.
    """
    from .tcp import _read_line

    pending = initial
    while True:
        try:
            line, overflow = await _read_line(reader)
        except (ConnectionError, OSError):
            return
        line = pending + line
        pending = b""
        if overflow:
            writer.write(b'{"ok": false, "error": "request too large"}\n')
            try:
                await writer.drain()
            except ConnectionError:
                return
            continue
        if not line:
            return
        if not line.strip():
            continue
        try:
            request = json.loads(line)
            if not isinstance(request, dict):
                raise ValueError("request must be a JSON object")
            op = request.get("op")
            if op == "ping":
                response = {"ok": True, "pong": True}
            elif op == "metrics":
                response = {"ok": True, "metrics": router.metrics()}
            elif op == "classify":
                header = request.get("header")
                if not isinstance(header, int) or isinstance(header, bool):
                    raise ValueError(
                        "front-tier 'classify' needs an integer 'header'"
                    )
                atom = await router.classify(header)
                response = {"ok": True, "atom": int(atom)}
            else:
                raise ValueError(f"unknown op {op!r}")
        except Exception as exc:
            response = {"ok": False, "error": str(exc) or repr(exc)}
        writer.write((json.dumps(response, allow_nan=False) + "\n").encode())
        try:
            await writer.drain()
        except ConnectionError:
            return


async def _front_connection(router: ShardRouter, reader, writer) -> None:
    try:
        first = await reader.read(1)
        if not first:
            return
        if first[0] == proto.FRAME_MAGIC:
            await _front_framed(router, reader, writer)
        else:
            await _front_json(router, reader, writer, first)
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def start_front_server(
    router: ShardRouter, host: str = "127.0.0.1", port: int = 0
) -> asyncio.AbstractServer:
    """Bind the dual-protocol front endpoint; ``port=0`` picks a port."""
    from .tcp import MAX_LINE_BYTES

    handler = lambda reader, writer: _front_connection(router, reader, writer)
    return await asyncio.start_server(handler, host, port, limit=MAX_LINE_BYTES)


async def serve_front_forever(
    router: ShardRouter, host: str, port: int, *, announce=None
) -> None:
    """``repro serve --shards`` driver: run the front tier until cancelled.

    Announces the bound address as one machine-readable JSON line so
    scripts (and tests) binding ``port=0`` can discover the port.
    """
    if announce is None:
        from .tcp import _announce_line

        announce = _announce_line
    server = await start_front_server(router, host, port)
    bound = server.sockets[0].getsockname()
    announce(json.dumps({
        "listening": [bound[0], bound[1]],
        "mode": "shard-router",
        "protocols": ["framed", "json"],
    }))
    try:
        async with server:
            await server.serve_forever()
    except asyncio.CancelledError:
        pass
