"""Sharded serving: the header-space router and the replica endpoint.

One serving process holds the whole compiled classifier; sharding splits
it across *N* shard backends along the AP Tree's own geometry.  A
shallow prefix of the tree (:class:`~repro.core.compiled.TreePrefix`)
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

* the replicas are a :class:`~repro.serve.ServeGrid`: every replica of
  a shard maps the *same* shared-memory slice blob and answers through
  a :class:`SliceEndpoint`.  The router keeps a persistent framed
  connection per replica and rotates across them; on a connect error,
  reset, or timeout it retries the next replica (fail-over);
* queries travel as :mod:`repro.serve.proto` frames -- one
  ``SHARD_CLASSIFY`` frame carries a whole routed sub-batch in the
  kernel's word-packed form, so a replica classifies straight off the
  wire bytes;
* generation handoff is the grid's two-phase publish: replicas map and
  ack the new slices while still answering the old generation; only
  after **every** replica acked does the router flip its routing tables
  -- a plain in-loop assignment, atomic with respect to batches -- and
  each ``SHARD_CLASSIFY`` frame carries the generation it was routed
  under, answered strictly from that generation.  Replicas keep the
  previous generation mapped after ``commit``, so in-flight frames
  tagged with it still answer and no batch ever mixes generations.

The router is itself an :class:`~repro.serve.tcp.Endpoint`: the front
tier is the same connection loop every other serving process runs.
"""

from __future__ import annotations

import asyncio
import os
import time

from .. import config
from ..obs.recorder import ServeCounters
from . import proto
from .tcp import Endpoint, _BadRequest

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

__all__ = ["ROUTER_TIMEOUT_S", "ShardRouter", "SliceEndpoint"]

#: Per-attempt deadline for one routed sub-batch; a dead replica's
#: connection usually fails fast (ECONNREFUSED/RST), the timeout covers
#: the half-open case.
ROUTER_TIMEOUT_S = 15.0

#: Errors that mean "this replica, right now" rather than "this
#: request": the router resets the connection and fails over.
_RETRYABLE = (ConnectionError, OSError, asyncio.IncompleteReadError,
              asyncio.TimeoutError)


class SliceEndpoint(Endpoint):
    """A shard replica: answers ``SHARD_CLASSIFY`` from the generation
    each frame was routed under.

    ``generations`` maps a generation id to ``(shared-memory block,
    ShardServing)``; the owning grid member adds and retires entries.
    """

    def __init__(self, generations: dict) -> None:
        super().__init__(ServeCounters())
        self.generations = generations

    def metrics(self) -> dict:
        newest = self.generations[max(self.generations)][1]
        return {
            "shard": newest.shard_id,
            "shards": newest.shards,
            "generations": sorted(self.generations),
            "served": self.counters.served,
            "pid": os.getpid(),
        }

    async def frame(self, ftype: int, payload: bytes) -> bytes:
        if ftype != proto.SHARD_CLASSIFY:
            return await super().frame(ftype, payload)
        started = time.perf_counter()
        gen, frontiers, headers, _w = proto.decode_shard_classify(payload)
        entry = self.generations.get(gen)
        if entry is None:
            raise proto.FrameError(
                f"unknown generation {gen} (have {sorted(self.generations)})"
            )
        serving = entry[1]
        if _np is not None:
            atoms = serving.classify_batch_array(frontiers, headers)
        else:
            atoms = serving.classify_batch(list(frontiers), headers)
        self.counters.record_frame(len(headers), time.perf_counter() - started)
        return proto.pack_frame(
            proto.SHARD_RESULT, proto.encode_shard_result(gen, atoms)
        )


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


class ShardRouter(Endpoint):
    """Route header batches across shard replicas; flip generations.

    The routing state is one ``(prefix, assignment, generation)`` tuple
    read exactly once per batch and replaced atomically by
    :meth:`flip` -- a batch runs entirely under the tuple it grabbed,
    and replicas answer strictly by the generation stamped into each
    ``SHARD_CLASSIFY`` frame, so answers never mix generations.

    As an :class:`~repro.serve.tcp.Endpoint` it is the front tier:
    ``CLASSIFY`` frames and the JSON ``classify``-by-header op (the full
    JSON API lives on single-node and multi-worker servers).
    """

    mode = "shard-router"

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
        super().__init__(counters if counters is not None else ServeCounters())
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
    def from_grid(
        cls,
        grid,
        *,
        counters: ServeCounters | None = None,
        timeout: float = ROUTER_TIMEOUT_S,
    ) -> "ShardRouter":
        """A router over a started, sharded :class:`~repro.serve.ServeGrid`."""
        if grid.plan is None:
            raise ValueError("an unsharded grid has no shard plan to route by")
        if counters is None and grid.recorder is not None:
            counters = grid.recorder.serve
        return cls(
            plan=grid.plan,
            endpoints=grid.endpoints,
            generation=grid.generation,
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
        ``generation`` (:meth:`ServeGrid.prepare <repro.serve.ServeGrid.prepare>`
        guarantees this).
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

    async def frame(self, ftype: int, payload: bytes) -> bytes:
        if ftype == proto.CLASSIFY:
            headers, _width = proto.decode_classify(payload)
            atoms = await self.classify_batch(headers)
            return proto.pack_frame(proto.RESULT, proto.encode_result(atoms))
        return await super().frame(ftype, payload)

    async def request(self, op, request: dict) -> dict:
        if op == "classify":
            header = request.get("header")
            if not isinstance(header, int) or isinstance(header, bool):
                raise _BadRequest(
                    "front-tier 'classify' needs an integer 'header'"
                )
            return {"ok": True, "atom": int(await self.classify(header))}
        return await super().request(op, request)

    async def close(self) -> None:
        for group in self._replicas:
            for conn in group:
                await conn.close()
