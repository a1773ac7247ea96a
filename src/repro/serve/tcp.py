"""The one TCP connection loop every serving process runs.

Single-node serving, every member of a :class:`~repro.serve.ServeGrid`
(multi-worker or shard replica) and the shard router's front tier all
accept connections through :func:`serve_connection`.  What differs is
the :class:`Endpoint` it is handed -- the object that answers one frame
or one JSON request:

* :class:`ServiceEndpoint` fronts a :class:`QueryService` (classify,
  behavior queries, diff, what-if);
* :class:`~repro.serve.shard.ShardRouter` routes classify batches across
  shard replicas;
* :class:`~repro.serve.shard.SliceEndpoint` is a shard replica answering
  the router's ``SHARD_CLASSIFY`` frames.

The loop owns everything else, once: the first byte of a connection
selects the protocol (frames start with ``0xAA``, JSON never does),
``PING``/``METRICS`` and their JSON twins, bounded line reads, the
per-request error contract, and the set of live connections a shutdown
closes.  See ``docs/serving.md`` for the full wire contract.

Newline-JSON requests (``op`` selects the action; a single-node or
multi-worker server answers all of them, the shard front only the first
three)::

    {"op": "ping"}
    {"op": "metrics"}
    {"op": "classify", "header": 167772161}
    {"op": "classify", "packet": {"dst_ip": "10.0.0.1"}}
    {"op": "query", "packet": {"dst_ip": "10.0.0.1"}, "ingress": "SEAT"}
    {"op": "diff", "artifact": "/path/to/other.apc", "ingress": "SEAT"}
    {"op": "whatif", "add": ["SEAT:dst_ip=10.3.0.0/24->to_SALT"],
     "ingress": "SEAT"}

``diff`` compares the live generation against a saved artifact or JSON
snapshot on the server's filesystem; ``whatif`` applies candidate rule
specs (:func:`repro.diff.parse_rule_spec` syntax, ``add``/``remove``
lists) to a shadow fork and diffs it against the live generation.  Both
accept an optional integer ``limit`` capping the per-class entries in
the report (default :data:`DEFAULT_DIFF_LIMIT`; the summary counters
always cover the full diff).  Their framed twins are the ``DIFF`` and
``WHATIF`` frames, whose payload is the same JSON object.

Responses always carry ``ok``::

    {"ok": true, "atom": 12}
    {"ok": true, "atom": 12, "paths": [...], "delivered": [...], "drops": [...]}
    {"ok": false, "error": "shed"}          (queue saturated, shed policy)
    {"ok": false, "error": "timeout"}       (per-request deadline missed)
    {"ok": false, "error": "<message>"}     (malformed request, unknown box, ...)

A failed request never kills the connection: the error is reported on
that line's (or frame's) response and the next one is processed
normally.  That includes oversized lines: a request longer than
:data:`MAX_LINE_BYTES` is discarded as it streams in and answered with
``{"ok": false, "error": "request too large"}``.  Only a desynchronized
frame stream (bad magic or length) and a stopped service end it.
"""

from __future__ import annotations

import asyncio
import json

from ..headerspace.fields import parse_ipv4
from . import proto
from .service import QueryService, QueryShed, ServiceClosed

__all__ = [
    "Endpoint",
    "ServiceEndpoint",
    "serve_connection",
    "serve_forever",
    "start_tcp_server",
]

#: Refuse absurd lines instead of buffering them (64 KiB is far beyond
#: any legitimate request in this protocol).
MAX_LINE_BYTES = 64 * 1024

#: Per-class entry cap applied to diff/what-if reports when the request
#: does not pick its own ``limit`` -- keeps responses inside one frame
#: even for churn-heavy diffs (summary counters always cover everything).
DEFAULT_DIFF_LIMIT = 50

#: Packet-field keys parsed as dotted-quad IPv4 strings; everything else
#: in a ``packet`` object must already be an integer field value.
_IP_FIELDS = ("dst_ip", "src_ip")

_TOO_LARGE = b'{"ok": false, "error": "request too large"}\n'


class _BadRequest(ValueError):
    """The request is structurally invalid (reported per request)."""


class Endpoint:
    """What one serving process answers; :func:`serve_connection` does
    the rest.

    Subclasses override :meth:`frame` for their frame types and
    :meth:`request` for their JSON ops, deferring to the base class for
    anything else (which answers "unsupported"/"unknown op").  ``PING``,
    ``METRICS`` and the JSON ``ping``/``metrics`` ops never reach them.
    ``mode`` is added to the announce line when set.
    """

    mode: str | None = None

    def __init__(self, counters) -> None:
        self.counters = counters
        #: Writers of the live connections, closed by :func:`stop_server`.
        self.connections: set = set()

    def metrics(self) -> dict:
        return self.counters.summary()

    async def frame(self, ftype: int, payload: bytes) -> bytes:
        """The packed response frame to one request frame."""
        raise proto.FrameError(f"unsupported frame type {ftype:#04x}")

    async def request(self, op, request: dict) -> dict:
        """The JSON response to one request object."""
        raise _BadRequest(f"unknown op {op!r}")

    async def __aenter__(self) -> "Endpoint":
        return self

    async def __aexit__(self, *exc_info) -> None:
        return None


def _json_bytes(payload) -> bytes:
    return json.dumps(payload, allow_nan=False).encode()


def _header_of(layout, request: dict) -> int:
    """Extract the packed header from a request's ``header``/``packet``."""
    if "header" in request:
        header = request["header"]
        if not isinstance(header, int) or isinstance(header, bool):
            raise _BadRequest("'header' must be an integer")
        return header
    packet = request.get("packet")
    if not isinstance(packet, dict):
        raise _BadRequest("request needs an integer 'header' or a 'packet' object")
    fields = {}
    for name, value in packet.items():
        if name not in layout:
            raise _BadRequest(f"unknown packet field {name!r} for this layout")
        if name in _IP_FIELDS and isinstance(value, str):
            fields[name] = parse_ipv4(value)
        elif isinstance(value, int) and not isinstance(value, bool):
            fields[name] = value
        else:
            raise _BadRequest(f"packet field {name!r} must be an int or IPv4 string")
    try:
        return layout.pack(fields)
    except (KeyError, ValueError) as exc:
        raise _BadRequest(f"cannot pack packet: {exc}") from exc


def _behavior_payload(atom_id: int, behavior) -> dict:
    return {
        "ok": True,
        "atom": atom_id,
        "paths": [list(path) for path in behavior.paths()],
        "delivered": sorted(behavior.delivered_hosts()),
        "drops": [[box, reason] for box, reason in behavior.drops()],
    }


def _ingress_of(request: dict, op: str) -> str:
    ingress = request.get("ingress")
    if not isinstance(ingress, str) or not ingress:
        raise _BadRequest(f"{op!r} needs a non-empty string 'ingress'")
    return ingress


def _limit_of(request: dict) -> int:
    limit = request.get("limit", DEFAULT_DIFF_LIMIT)
    if not isinstance(limit, int) or isinstance(limit, bool) or limit < 0:
        raise _BadRequest("'limit' must be a non-negative integer")
    return limit


def _framed_json(payload: bytes) -> dict:
    """Decode a framed request's UTF-8 JSON object payload."""
    try:
        request = json.loads(payload)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise _BadRequest(f"frame payload is not valid JSON: {exc}") from None
    if not isinstance(request, dict):
        raise _BadRequest("frame payload must be a JSON object")
    return request


class ServiceEndpoint(Endpoint):
    """A :class:`QueryService` on the wire: single-node serving and every
    unsharded grid member.  Entering it starts the service."""

    def __init__(self, service: QueryService) -> None:
        super().__init__(service.counters)
        self.service = service

    def metrics(self) -> dict:
        return self.service.metrics()

    async def __aenter__(self) -> "ServiceEndpoint":
        await self.service.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.service.stop()

    async def frame(self, ftype: int, payload: bytes) -> bytes:
        if ftype == proto.CLASSIFY:
            headers, _width = proto.decode_classify(payload)
            atoms = await self.service.classify_frame(headers)
            return proto.pack_frame(proto.RESULT, proto.encode_result(atoms))
        if ftype == proto.DIFF:
            report = await self._diff(_framed_json(payload))
            return proto.pack_frame(proto.DIFF_RESULT, _json_bytes(report))
        if ftype == proto.WHATIF:
            report = await self._what_if(_framed_json(payload))
            return proto.pack_frame(proto.WHATIF_RESULT, _json_bytes(report))
        return await super().frame(ftype, payload)

    async def request(self, op, request: dict) -> dict:
        service = self.service
        if op == "diff":
            return {"ok": True, "diff": await self._diff(request)}
        if op == "whatif":
            return {"ok": True, "whatif": await self._what_if(request)}
        if op == "classify":
            layout = service.classifier.dataplane.layout
            atom = await service.classify(_header_of(layout, request))
            return {"ok": True, "atom": atom}
        if op == "query":
            ingress = _ingress_of(request, "query")
            in_port = request.get("in_port")
            if in_port is not None and not isinstance(in_port, str):
                raise _BadRequest("'in_port' must be a string when present")
            layout = service.classifier.dataplane.layout
            behavior = await service.query(
                _header_of(layout, request), ingress, in_port
            )
            return _behavior_payload(behavior.atom_id, behavior)
        return await super().request(op, request)

    async def _diff(self, request: dict) -> dict:
        artifact = request.get("artifact")
        if not isinstance(artifact, str) or not artifact:
            raise _BadRequest("'diff' needs a non-empty string 'artifact' path")
        return await self.service.diff_generation(
            artifact, _ingress_of(request, "diff"), limit=_limit_of(request)
        )

    async def _what_if(self, request: dict) -> dict:
        add = request.get("add", [])
        remove = request.get("remove", [])
        for name, specs in (("add", add), ("remove", remove)):
            if not isinstance(specs, list) or not all(
                isinstance(spec, str) for spec in specs
            ):
                raise _BadRequest(f"'whatif' {name!r} must be a list of rule specs")
        if not add and not remove:
            raise _BadRequest("'whatif' needs at least one rule in 'add'/'remove'")
        return await self.service.what_if(
            _ingress_of(request, "whatif"),
            add=add,
            remove=remove,
            limit=_limit_of(request),
        )


def _error_text(endpoint: Endpoint, exc: Exception) -> str:
    """The per-request error message; malformed requests count as rejected."""
    if isinstance(exc, QueryShed):
        return "shed"
    if isinstance(exc, asyncio.TimeoutError):
        return "timeout"
    if isinstance(exc, (ValueError, KeyError, proto.FrameError)):
        endpoint.counters.rejected += 1
        return str(exc) or repr(exc)
    # Anything else surfaced from the work itself (e.g. an exception the
    # dispatcher set on a request future) still answers on this request.
    return f"{type(exc).__name__}: {exc}"


async def _read_line(reader: asyncio.StreamReader) -> tuple[bytes, bool]:
    """One newline-terminated line, bounded: ``(line, overflowed)``.

    A line longer than the stream's limit is discarded as it arrives
    (``LimitOverrunError`` hands back how many buffered bytes are safe
    to drop without eating the separator) and reported with
    ``overflowed=True`` so the caller can answer an error on that line
    and keep the connection -- ``readline`` would have raised
    ``ValueError`` and forced a disconnect.  EOF returns the partial
    trailing line, then ``(b"", False)``.
    """
    overflowed = False
    while True:
        try:
            line = await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError as exc:
            return exc.partial, overflowed
        except asyncio.LimitOverrunError as exc:
            overflowed = True
            await reader.read(exc.consumed)
            continue
        return line, overflowed


async def _serve_frames(endpoint: Endpoint, reader, writer) -> None:
    """Framed loop; the leading magic byte was already consumed."""
    read = proto.read_rest_of_frame
    while True:
        try:
            ftype, payload = await read(reader)
        except (asyncio.IncompleteReadError, ConnectionError):
            return
        except proto.FrameError as exc:
            # Desynchronized stream: report once, then drop it.
            writer.write(proto.pack_frame(proto.ERROR, str(exc).encode()))
            await writer.drain()
            return
        read = proto.read_frame
        try:
            if ftype == proto.PING:
                response = proto.pack_frame(proto.PONG)
            elif ftype == proto.METRICS:
                response = proto.pack_frame(
                    proto.METRICS_RESULT, _json_bytes(endpoint.metrics())
                )
            else:
                response = await endpoint.frame(ftype, payload)
        except ServiceClosed:
            writer.write(proto.pack_frame(proto.ERROR, b"service closed"))
            await writer.drain()
            return
        except Exception as exc:
            response = proto.pack_frame(
                proto.ERROR, _error_text(endpoint, exc).encode()
            )
        writer.write(response)
        try:
            await writer.drain()
        except ConnectionError:
            return


async def _serve_lines(
    endpoint: Endpoint, reader, writer, pending: bytes
) -> None:
    """Newline-JSON loop; ``pending`` is the sniffed first byte."""
    while True:
        try:
            line, overflowed = await _read_line(reader)
        except (ConnectionError, OSError):
            return
        line = pending + line
        pending = b""
        if overflowed:
            endpoint.counters.rejected += 1
            response = _TOO_LARGE
        elif not line:
            return
        elif not line.strip():
            continue
        else:
            try:
                request = json.loads(line)
                if not isinstance(request, dict):
                    raise _BadRequest("request must be a JSON object")
                op = request.get("op")
                if op == "ping":
                    answer = {"ok": True, "pong": True}
                elif op == "metrics":
                    answer = {"ok": True, "metrics": endpoint.metrics()}
                else:
                    answer = await endpoint.request(op, request)
            except ServiceClosed:
                writer.write(b'{"ok": false, "error": "service closed"}\n')
                return
            except Exception as exc:
                answer = {"ok": False, "error": _error_text(endpoint, exc)}
            response = _json_bytes(answer) + b"\n"
        writer.write(response)
        try:
            await writer.drain()
        except ConnectionError:
            return


async def serve_connection(
    endpoint: Endpoint,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    """Serve one accepted connection, in either protocol, until it ends."""
    endpoint.connections.add(writer)
    try:
        try:
            first = await reader.read(1)
        except (ConnectionError, OSError):
            first = b""
        if not first:
            return
        if first[0] == proto.FRAME_MAGIC:
            await _serve_frames(endpoint, reader, writer)
        else:
            await _serve_lines(endpoint, reader, writer, first)
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        finally:
            # Only now: stop_server waits for this set to empty, and a
            # handler still in wait_closed when the loop shuts down is
            # cancelled, which 3.11's connection_made callback logs.
            endpoint.connections.discard(writer)


def _endpoint(target) -> Endpoint:
    return target if isinstance(target, Endpoint) else ServiceEndpoint(target)


async def start_tcp_server(
    target,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    sock=None,
) -> asyncio.AbstractServer:
    """Bind the dual-protocol endpoint; ``port=0`` picks a free port.

    ``target`` is an :class:`Endpoint` or a :class:`QueryService` (served
    through a :class:`ServiceEndpoint`), which must already be started.
    The caller owns both lifetimes: close the returned server, then stop
    the service.  ``sock`` serves an already-bound listening socket
    instead of binding ``host``/``port`` -- grid members pass their
    ``SO_REUSEPORT`` sockets this way.
    """
    endpoint = _endpoint(target)
    handler = lambda reader, writer: serve_connection(endpoint, reader, writer)
    if sock is not None:
        return await asyncio.start_server(handler, sock=sock, limit=MAX_LINE_BYTES)
    return await asyncio.start_server(handler, host, port, limit=MAX_LINE_BYTES)


async def stop_server(server: asyncio.AbstractServer, endpoint: Endpoint) -> None:
    """Stop accepting, then close the live connections and let their
    loops unwind on EOF (cancelling a streams handler task makes
    3.11's ``connection_made`` callback log spuriously)."""
    server.close()
    for writer in list(endpoint.connections):
        writer.close()
    for _ in range(100):
        if not endpoint.connections:
            break
        await asyncio.sleep(0.01)
    await server.wait_closed()


def _announce_line(line: str) -> None:
    # Flush: scripts discover the port by reading the first stdout line
    # through a pipe, where plain print() would sit in the block buffer.
    print(line, flush=True)


async def serve_forever(
    target, host: str, port: int, *, announce=_announce_line
) -> None:
    """``repro serve`` driver: serve ``target`` until cancelled.

    ``target`` is a :class:`QueryService` (started and stopped here) or
    any other :class:`Endpoint`, such as the shard router.  The bound
    address is announced as one machine-readable JSON line
    (``{"listening": [host, port], ...}``) so scripts starting the
    server with ``port=0`` can parse the picked port from stdout.
    """
    endpoint = _endpoint(target)
    async with endpoint:
        server = await start_tcp_server(endpoint, host, port)
        try:
            bound = server.sockets[0].getsockname()
            mode = {"mode": endpoint.mode} if endpoint.mode else {}
            announce(json.dumps({
                "listening": [bound[0], bound[1]],
                **mode,
                "protocols": ["framed", "json"],
            }))
            # The server accepts from start_tcp_server on; not
            # Server.serve_forever, whose cancellation waits (3.12+) for
            # clients to hang up before stop_server can close them.
            await asyncio.get_running_loop().create_future()
        except asyncio.CancelledError:
            pass
        finally:
            await stop_server(server, endpoint)
