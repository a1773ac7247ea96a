"""The one TCP connection loop every serving process runs.

Single-node serving and every worker of a :class:`~repro.serve.ServeGrid`
accept connections through :func:`serve_connection`, handed a
:class:`ServiceEndpoint` -- the :class:`QueryService` on the wire, which
answers one frame or one JSON request (classify, behavior queries,
diff, what-if).  The loop owns everything else, once: the first byte of
a connection selects the protocol (frames start with ``0xAA``, JSON
never does), ``PING``/``METRICS`` and their JSON twins, bounded line
reads, the per-request error contract, and the set of live connections
a shutdown closes.  See ``docs/serving.md`` for the full wire contract.

Newline-JSON requests (``op`` selects the action)::

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


class ServiceEndpoint:
    """A :class:`QueryService` on the wire: what one serving process
    answers, while :func:`serve_connection` does the rest.

    ``PING``, ``METRICS`` and the JSON ``ping``/``metrics`` ops never
    reach :meth:`frame`/:meth:`request`.  Entering the endpoint starts
    the service; leaving it stops the listening server (:meth:`listen`),
    closes the live connections and then stops the service.
    """

    def __init__(self, service: QueryService) -> None:
        self.service = service
        #: Writers of the live connections, closed on exit.
        self.connections: set = set()
        self.server: asyncio.AbstractServer | None = None

    def metrics(self) -> dict:
        return self.service.metrics()

    async def listen(
        self, host: str = "127.0.0.1", port: int = 0, *, sock=None
    ) -> asyncio.AbstractServer:
        """Bind the dual-protocol endpoint; ``port=0`` picks a free port.

        ``sock`` serves an already-bound socket instead of binding
        ``host``/``port`` -- grid workers pass their ``SO_REUSEPORT``
        sockets this way.
        """
        handler = lambda reader, writer: serve_connection(self, reader, writer)
        if sock is not None:
            host = port = None
        self.server = await asyncio.start_server(
            handler, host, port, sock=sock, limit=MAX_LINE_BYTES
        )
        return self.server

    async def __aenter__(self) -> "ServiceEndpoint":
        await self.service.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        if self.server is not None:
            # Stop accepting, then close the live connections and let
            # their loops unwind on EOF (cancelling a streams handler
            # task makes 3.11's ``connection_made`` callback log
            # spuriously).
            self.server.close()
            for writer in list(self.connections):
                writer.close()
            for _ in range(100):
                if not self.connections:
                    break
                await asyncio.sleep(0.01)
            await self.server.wait_closed()
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
        raise proto.FrameError(f"unsupported frame type {ftype:#04x}")

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
        raise _BadRequest(f"unknown op {op!r}")

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


def _error_text(endpoint: ServiceEndpoint, exc: Exception) -> str:
    """The per-request error message; malformed requests count as rejected."""
    if isinstance(exc, QueryShed):
        return "shed"
    if isinstance(exc, asyncio.TimeoutError):
        return "timeout"
    if isinstance(exc, (ValueError, KeyError, proto.FrameError)):
        endpoint.service.counters.rejected += 1
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


async def _serve_frames(endpoint: ServiceEndpoint, reader, writer) -> None:
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
    endpoint: ServiceEndpoint, reader, writer, pending: bytes
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
            endpoint.service.counters.rejected += 1
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
    endpoint: ServiceEndpoint,
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
            # Only now: the endpoint's exit waits for this set to empty, and a
            # handler still in wait_closed when the loop shuts down is
            # cancelled, which 3.11's connection_made callback logs.
            endpoint.connections.discard(writer)


async def start_tcp_server(
    service: QueryService, host: str = "127.0.0.1", port: int = 0
) -> asyncio.AbstractServer:
    """Bind ``service`` (already started) on ``host``/``port``;
    ``port=0`` picks a free port.  The caller owns both lifetimes:
    close the returned server, then stop the service."""
    return await ServiceEndpoint(service).listen(host, port)


def _announce_line(line: str) -> None:
    # Flush: scripts discover the port by reading the first stdout line
    # through a pipe, where plain print() would sit in the block buffer.
    print(line, flush=True)


async def serve_forever(
    service: QueryService, host: str, port: int, *, announce=_announce_line
) -> None:
    """``repro serve`` driver: start ``service``, serve it until
    cancelled, then stop it.

    The bound address is announced as one machine-readable JSON line
    (``{"listening": [host, port], ...}``) so scripts starting the
    server with ``port=0`` can parse the picked port from stdout.
    """
    async with ServiceEndpoint(service) as endpoint:
        server = await endpoint.listen(host, port)
        bound = server.sockets[0].getsockname()
        announce(json.dumps({
            "listening": [bound[0], bound[1]],
            "protocols": ["framed", "json"],
        }))
        try:
            # The server accepts from listen() on; not
            # Server.serve_forever, whose cancellation waits (3.12+) for
            # clients to hang up before the endpoint can close them.
            await asyncio.get_running_loop().create_future()
        except asyncio.CancelledError:
            pass
