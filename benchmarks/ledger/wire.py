"""The two wire workloads: ``wire-batch`` and ``wire-query``.

One ``python -m repro serve --artifact <file> --port 0`` child with the
CLI's default flags, two closed-loop connections from this process over
127.0.0.1.  Every reply is checked against the in-process classifier the
artifact was saved from.  The traced run replays the identical requests
in-process through the server's own public calls to price each layer;
what the wire figure has beyond those layers is ``serve.tcp.residual``.
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import subprocess
import sys
import time

from repro import persist
from repro.core import kernel
from repro.datasets import uniform_over_atoms
from repro.serve import QueryService, proto

from harness import (
    SRC, Measured, Tracer, Workload, behavior_answer, build_classifier, rss_mb,
    serve_flags, window_rate,
)

LOOPBACK = "127.0.0.1"
CONNECTIONS = 2
WARMUP_S = 1.0
#: Longest a window may overrun before its in-flight requests count as failed.
GRACE_S = 30.0


class Server:
    """The ``repro serve`` child: spawned, announced, answering ``PING``."""

    def __init__(self, artifact) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--artifact", str(artifact), "--port", "0"],
            stdout=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], GRACE_S)
            if not ready:
                raise RuntimeError("serve child did not announce its port")
            self.port = json.loads(self.proc.stdout.readline())["listening"][1]
            if self.control(proto.PING)[0] != proto.PONG:
                raise RuntimeError("serve child did not answer PING")
        except BaseException:
            self.stop()
            raise

    def control(self, ftype: int) -> tuple[int, bytes]:
        """One framed round trip on a connection of its own."""

        async def round_trip():
            reader, writer = await asyncio.open_connection(LOOPBACK, self.port)
            try:
                writer.write(proto.pack_frame(ftype))
                await writer.drain()
                return await proto.read_frame(reader)
            finally:
                writer.close()

        return asyncio.run(asyncio.wait_for(round_trip(), GRACE_S))

    def metrics(self) -> dict:
        return json.loads(self.control(proto.METRICS)[1])

    def stop(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


async def drive(port, items, exchange, span, seconds, tracer) -> tuple[float, int, list]:
    """Closed loop: each connection sends its next request on the reply.

    Returns ``(start, attempted, samples)`` with one ``(done, latency,
    ok)`` sample per answered request; latency runs from the send to
    the verified answer.
    """
    samples: list[tuple[float, float, bool]] = []
    attempted = 0
    start = time.perf_counter()
    end = start + seconds

    async def caller(first: int) -> None:
        nonlocal attempted
        reader, writer = await asyncio.open_connection(LOOPBACK, port)
        try:
            for index in range(first, sys.maxsize, CONNECTIONS):
                sent = time.perf_counter()
                if sent >= end:
                    break
                attempted += 1
                with tracer.span(span, request=index):
                    ok = await exchange(reader, writer, items[index % len(items)], tracer)
                done = time.perf_counter()
                samples.append((done, done - sent, ok))
        finally:
            writer.close()

    callers = asyncio.gather(*(caller(k) for k in range(CONNECTIONS)))
    try:
        await asyncio.wait_for(callers, seconds + GRACE_S)
    except (asyncio.TimeoutError, OSError, asyncio.IncompleteReadError,
            proto.FrameError) as exc:
        # The unanswered requests stay in ``attempted`` and so count as failed.
        print(f"ledger: wire window ended early: {exc!r}", file=sys.stderr)
    return start, attempted, samples


class WireWorkload(Workload):
    """Set-up, timed window and server accounting both wire workloads share.

    Every reply is checked as it arrives, and the residual is computed in
    ``layers``, so neither ``finish`` nor ``reconcile`` has work here.
    """

    span: str  # the load generator's per-request span
    units = 1  # verified work units per request

    def __init__(self, seed: int, out) -> None:
        super().__init__(seed, out)
        self.server: Server | None = None
        self.artifact = out / f"{self.name}-{os.getpid()}.apc"
        self.warm = False
        self.counts: dict[str, float] = {}

    def setup(self, tracer: Tracer, recorder) -> None:
        self.network = self.fixed().network()
        self.classifier = build_classifier(self.network, tracer, recorder)
        with tracer.span("persist.save"):
            self.artifact_bytes = persist.save(self.classifier, self.artifact)
        self.items = self.make_items()
        with tracer.span("serve.spawn"):
            self.server = Server(self.artifact)

    def teardown(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
        self.artifact.unlink(missing_ok=True)

    def measure(self, seconds: float, tracer: Tracer) -> Measured:
        if not self.warm:
            asyncio.run(drive(self.server.port, self.items, self.exchange,
                              self.span, WARMUP_S, Tracer()))
            self.warm = True
        self.window_s = seconds
        before = self.server.metrics()
        start, attempted, samples = asyncio.run(
            drive(self.server.port, self.items, self.exchange, self.span,
                  seconds, tracer)
        )
        after = self.server.metrics()
        for key in ("served", "frames", "batches", "batched_requests",
                    "shed", "timeouts", "rejected"):
            self.counts[key] = after[key] - before[key]
        self.counts["queue_depth_max"] = after["queue_depth_max"]
        good = [(done, latency) for done, latency, ok in samples if ok]
        return Measured(
            latencies=[latency for _done, latency in good],
            rate=window_rate([done for done, _l in good], self.units, start, seconds),
            attempted=attempted,
            failed=attempted - len(good),
        )

    def peak_rss_mb(self) -> float:
        return rss_mb(self.server.proc.pid)

    def service(self) -> QueryService:
        """An in-process service configured like the child."""
        flags = serve_flags()
        return QueryService(
            self.classifier,
            max_batch=flags["max_batch"],
            max_delay_s=flags["max_delay_ms"] / 1e3,
            queue_limit=flags["queue_limit"],
            overflow=flags["overflow"],
            timeout_s=flags["timeout_ms"] / 1e3 if flags["timeout_ms"] else None,
            cache_size=flags["cache_size"],
        )

    def served_layers(self) -> dict[str, float]:
        """Work done by the child in the traced window (``METRICS`` deltas)."""
        counts = self.counts
        batches = counts["batches"]
        return {
            "serve.service.served": counts["served"],
            "serve.service.frames": counts["frames"],
            "serve.service.batches": batches,
            "serve.service.mean_batch": counts["batched_requests"] / batches if batches else 0.0,
            "serve.service.queue_depth_max": counts["queue_depth_max"],
            "serve.service.shed": counts["shed"],
            "serve.service.timeouts": counts["timeouts"],
            "serve.service.rejected": counts["rejected"],
            "artifact.bytes": self.artifact_bytes,
        }

    def residual(self, traced: Measured, layers_us: float, busy_us: float) -> dict[str, float]:
        """What the wire round trip has beyond the priced layers; a negative
        residual means the layers do not reconcile and fails the run.

        The residual holds sockets, asyncio streams and scheduling, and the
        wait for the child's one event loop while it serves the other
        connection: ``busy_share`` says how much of the window that loop
        spent in priced work (``busy_us`` a request).
        """
        wire_us = traced.p50_ms * 1e3
        residual_us = wire_us - layers_us
        if residual_us < 0:
            raise RuntimeError(
                f"{self.name}: layers ({layers_us:.1f} us) exceed the wire "
                f"round trip ({wire_us:.1f} us)"
            )
        return {
            "serve.tcp.residual_us": residual_us,
            "serve.tcp.residual_share": residual_us / wire_us,
            "serve.loop.busy_share": len(traced.latencies) * busy_us / (self.window_s * 1e6),
        }


class WireBatch(WireWorkload):
    name = "wire-batch"
    # stanford-like, scaled from the pytest benches' 16 x 8 so that three
    # set-ups and the timed window fit one run (~84 predicates, ~1 300 atoms).
    scenario = ("stanford", dict(subnets_per_zone=8, host_ports_per_zone=2,
                                 acl_templates=5, te_fraction=0.15))
    span = "loadgen.frame_round_trip"
    units = 256  # headers per frame
    FRAMES = 32

    def make_items(self):
        clf = self.classifier
        width = kernel.words_per_header(clf.dataplane.layout.total_width)
        headers = uniform_over_atoms(
            clf.universe, self.FRAMES * self.units, self.rng("trace")
        ).headers
        items = []
        for at in range(0, len(headers), self.units):
            chunk = list(headers[at:at + self.units])
            payload = proto.encode_classify(chunk, width=width)
            items.append((proto.pack_frame(proto.CLASSIFY, payload), payload,
                          clf.classify_batch(chunk)))
        return items

    @staticmethod
    async def exchange(reader, writer, item, tracer) -> bool:
        frame, _payload, expected = item
        writer.write(frame)
        await writer.drain()
        ftype, payload = await proto.read_frame(reader)
        with tracer.span("loadgen.frame"):
            return (ftype == proto.RESULT
                    and proto.decode_result(payload).tolist() == expected)

    def layers(self, tracer: Tracer, recorder, traced: Measured) -> dict[str, float]:
        asyncio.run(self.replay(tracer))
        us = lambda name: tracer.median(name) * 1e6
        pack = us("core.kernel.pack")
        array = us("core.compiled.classify_batch_array")
        frame = us("serve.service.frame")
        layers = {
            "serve.proto.decode_us": us("serve.proto.decode"),
            "serve.proto.encode_us": us("serve.proto.encode"),
            "core.kernel.pack_us": pack,
            "core.compiled.descend_us": array - pack,
            "core.compiled.descend_ns_per_header": (array - pack) * 1e3 / self.units,
            "serve.service.frame_us": frame - array,
            "loadgen.frame_us": us("loadgen.frame"),
        }
        server = layers["serve.proto.decode_us"] + frame + layers["serve.proto.encode_us"]
        return {**layers, **self.served_layers(),
                **self.residual(traced, server + layers["loadgen.frame_us"], server)}

    async def replay(self, tracer: Tracer) -> None:
        """The child's framed path, call by call, on the identical frames."""
        compiled = self.classifier.compiled
        async with self.service() as service:
            for _round in range(8):
                for request, (_frame, payload, expected) in enumerate(self.items):
                    with tracer.span("replay.frame", request=request):
                        with tracer.span("serve.proto.decode"):
                            headers, _width = proto.decode_classify(payload)
                        with tracer.span("serve.service.frame"):
                            atoms = await service.classify_frame(headers)
                        with tracer.span("serve.proto.encode"):
                            proto.pack_frame(proto.RESULT, proto.encode_result(atoms))
                        # classify_frame's two inner layers, priced beside it.
                        with tracer.span("core.compiled.classify_batch_array"):
                            compiled.classify_batch_array(headers)
                        with tracer.span("core.kernel.pack"):
                            kernel.pack_headers(headers, compiled.num_vars)
                    if atoms != expected:
                        raise RuntimeError("in-process replay disagrees with ground truth")


class WireQuery(WireWorkload):
    name = "wire-query"
    scenario = ("internet2", dict(prefixes_per_router=14))
    span = "loadgen.query_round_trip"
    REQUESTS = 2048

    def make_items(self):
        clf = self.classifier
        headers = uniform_over_atoms(clf.universe, self.REQUESTS, self.rng("trace")).headers
        boxes = sorted(self.network.boxes)
        rng = self.rng("ingress")
        items = []
        for header in headers:
            ingress = rng.choice(boxes)
            line = json.dumps({"op": "query", "header": header, "ingress": ingress})
            expected = {"ok": True, **behavior_answer(clf.query(header, ingress))}
            items.append((line.encode() + b"\n", header, ingress, expected))
        return items

    @staticmethod
    async def exchange(reader, writer, item, tracer) -> bool:
        line, _header, _ingress, expected = item
        writer.write(line)
        await writer.drain()
        reply = await reader.readline()
        with tracer.span("loadgen.request"):
            return json.loads(reply) == expected

    def layers(self, tracer: Tracer, recorder, traced: Measured) -> dict[str, float]:
        asyncio.run(self.replay(tracer))
        us = lambda name: tracer.median(name) * 1e6
        query = us("serve.service.query")
        classify = us("core.classifier.classify")
        stage2 = us("core.behavior.stage2")
        loadgen = us("loadgen.request")
        return {
            "serve.service.query_us": query,
            "core.classifier.classify_us": classify,
            "core.behavior.stage2_us": stage2,
            "serve.service.queue_wait_us": query - classify - stage2,
            "loadgen.request_us": loadgen,
            **self.served_layers(),
            **self.residual(traced, query + loadgen, classify + stage2),
        }

    async def replay(self, tracer: Tracer) -> None:
        """``service.query`` under the same two callers, then its two stages."""
        clf = self.classifier
        items = self.items[:1024]

        async def caller(first: int, service: QueryService) -> None:
            for request in range(first, len(items), CONNECTIONS):
                _line, header, ingress, expected = items[request]
                with tracer.span("serve.service.query", request=request):
                    behavior = await service.query(header, ingress)
                if {"ok": True, **behavior_answer(behavior)} != expected:
                    raise RuntimeError("in-process replay disagrees with ground truth")

        async with self.service() as service:
            await asyncio.gather(*(caller(k, service) for k in range(CONNECTIONS)))
        for request, (_line, header, ingress, _expected) in enumerate(items):
            with tracer.span("replay.query", request=request):
                with tracer.span("core.classifier.classify"):
                    atom = clf.classify(header)
                with tracer.span("core.behavior.stage2"):
                    clf.behavior_of_atom(atom, ingress)
