"""The serving wire: frame codecs and the one TCP connection loop.

Every serving process (single node or :class:`~repro.serve.ServeGrid`
worker) answers through :func:`repro.serve.tcp.serve_connection`; these
tests pin its contract in-process: both protocols on one port, bounded
lines, per-request errors that never kill the connection, and a
shutdown that closes idle connections.
"""

from __future__ import annotations

import asyncio
import json
import random
import struct

import pytest

from repro.core.classifier import APClassifier
from repro.datasets import random_headers, toy_network, uniform_over_atoms
from repro.serve import QueryService, proto, serve_forever, start_tcp_server
from repro.serve.tcp import MAX_LINE_BYTES


def run(coro):
    return asyncio.run(coro)


@pytest.fixture(scope="module")
def toy_classifier():
    return APClassifier.build(toy_network())


def sample_headers(classifier, count, seed=3):
    rng = random.Random(seed)
    trace = uniform_over_atoms(classifier.universe, count, rng)
    # Mix in uniform-random headers so the miss-everything region (the
    # overwhelming majority of header space) is exercised too.
    extra = random_headers(classifier.dataplane.layout, max(4, count // 4), rng)
    return list(trace.headers) + list(extra)


async def exchange(port, lines, frames):
    """JSON replies to ``lines`` on one connection, then ``(type,
    payload)`` replies to ``frames`` on a second one."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    replies = []
    for line in lines:
        writer.write(line + b"\n")
        await writer.drain()
        replies.append(json.loads(await reader.readline()))
    writer.close()
    await writer.wait_closed()
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    answers = []
    for frame in frames:
        writer.write(frame)
        await writer.drain()
        answers.append(await proto.read_frame(reader))
    writer.close()
    await writer.wait_closed()
    return replies, answers


def serve_exchange(classifier, lines, frames):
    """:func:`exchange` against a fresh in-process service; also returns
    its ``rejected`` counter."""

    async def scenario():
        service = QueryService(classifier, max_delay_s=0)
        async with service:
            server = await start_tcp_server(service)
            try:
                port = server.sockets[0].getsockname()[1]
                replies, answers = await exchange(port, lines, frames)
            finally:
                server.close()
                await server.wait_closed()
        return replies, answers, service.counters.rejected

    return run(scenario())


# ----------------------------------------------------------------------
# Frame codecs
# ----------------------------------------------------------------------


class TestProto:
    def test_frame_round_trip(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(proto.pack_frame(proto.PING))
            reader.feed_data(
                proto.pack_frame(proto.CLASSIFY, proto.encode_classify([1, 2]))
            )
            reader.feed_eof()
            first = await proto.read_frame(reader)
            second = await proto.read_frame(reader)
            return first, second

        (t1, p1), (t2, p2) = run(scenario())
        assert (t1, p1) == (proto.PING, b"")
        assert t2 == proto.CLASSIFY
        headers, width = proto.decode_classify(p2)
        assert [int(h) for h in headers] == [1, 2] and width == 1

    def test_bad_magic_and_oversize(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(b"\x00\x00\x00\x00\x00\x00")
            with pytest.raises(proto.FrameError):
                await proto.read_frame(reader)
            reader2 = asyncio.StreamReader()
            reader2.feed_data(struct.pack("<BIB", proto.FRAME_MAGIC, 1 << 30, 1))
            with pytest.raises(proto.FrameError):
                await proto.read_frame(reader2)

        run(scenario())

    def test_classify_codec_wide_headers(self):
        wide = [(1 << 100) | 5, (1 << 64) + 3, 7]
        payload = proto.encode_classify(wide, width=2)
        headers, width = proto.decode_classify(payload)
        assert width == 2
        if hasattr(headers, "shape"):
            got = [
                int(headers[i, 0]) | (int(headers[i, 1]) << 64)
                for i in range(len(wide))
            ]
        else:
            got = [int(h) for h in headers]
        assert got == wide

    def test_result_codecs(self):
        atoms = [int(a) for a in proto.decode_result(proto.encode_result([3, -1]))]
        assert atoms == [3, -1]
        with pytest.raises(proto.FrameError):
            proto.decode_result(b"\x05\x00\x00\x00" + b"\x00" * 8)


# ----------------------------------------------------------------------
# Single-node TCP endpoint: framed shim + bounded lines + announce
# ----------------------------------------------------------------------


class TestTCPSatellites:
    def test_oversized_line_answers_and_survives(self, toy_classifier):
        (oversized, pong), _answers, _rejected = serve_exchange(
            toy_classifier, [b"x" * (3 * MAX_LINE_BYTES), b'{"op": "ping"}'], []
        )
        assert oversized == {"ok": False, "error": "request too large"}
        assert pong == {"ok": True, "pong": True}

    def test_framed_classify_matches_direct(self, toy_classifier):
        headers = sample_headers(toy_classifier, 48, seed=5)
        expected = toy_classifier.classify_batch(headers)
        _replies, answers, _rejected = serve_exchange(toy_classifier, [], [
            proto.pack_frame(proto.PING),
            proto.pack_frame(proto.CLASSIFY, proto.encode_classify(headers)),
            # Unsupported type answers ERROR, connection survives.
            proto.pack_frame(0x03, b""),
            proto.pack_frame(proto.METRICS),
        ])
        (pong, _), (result, payload), (error, _), (metrics, body) = answers
        assert pong == proto.PONG
        assert result == proto.RESULT
        assert [int(a) for a in proto.decode_result(payload)] == expected
        assert error == proto.ERROR
        assert metrics == proto.METRICS_RESULT
        metrics = json.loads(body)
        assert metrics["frames"] == 1
        assert metrics["served"] == len(headers)

    def test_port_zero_announce_is_json(self, toy_classifier):
        async def scenario():
            service = QueryService(toy_classifier, max_delay_s=0)
            lines: list[str] = []
            task = asyncio.ensure_future(
                serve_forever(service, "127.0.0.1", 0, announce=lines.append)
            )
            try:
                while not lines:
                    await asyncio.sleep(0.01)
                info = json.loads(lines[0])
                host, port = info["listening"]
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b'{"op": "ping"}\n')
                await writer.drain()
                pong = json.loads(await reader.readline())
                writer.close()
                await writer.wait_closed()
            finally:
                task.cancel()
                try:
                    await task
                except asyncio.CancelledError:
                    pass
            return info, pong

        info, pong = run(scenario())
        assert info == {
            "listening": ["127.0.0.1", info["listening"][1]],
            "protocols": ["framed", "json"],
        }
        assert isinstance(info["listening"][1], int)
        assert info["listening"][1] > 0
        assert pong == {"ok": True, "pong": True}


class TestOneConnectionLoop:
    def test_keeps_one_error_contract(self, toy_classifier):
        lines = [
            b'{"op": "ping"}',
            b"[1, 2, 3]",
            b"x" * (2 * MAX_LINE_BYTES),
            b'{"op": "teleport"}',
            b"not json",
            b'{"op": "metrics"}',
        ]
        frames = [
            proto.pack_frame(proto.PING),
            proto.pack_frame(0x55),
            proto.pack_frame(proto.METRICS),
        ]
        replies, answers, rejected = serve_exchange(toy_classifier, lines, frames)
        pong, not_object, too_large, unknown, not_json, metrics = replies
        assert pong == {"ok": True, "pong": True}
        assert not_object == {
            "ok": False, "error": "request must be a JSON object"
        }
        assert too_large == {"ok": False, "error": "request too large"}
        assert unknown == {"ok": False, "error": "unknown op 'teleport'"}
        assert not_json["ok"] is False and not_json["error"]
        assert metrics["ok"] is True and isinstance(metrics["metrics"], dict)
        (pong_type, _), (bad_type, bad_body), (metrics_type, body) = answers
        assert pong_type == proto.PONG
        assert (bad_type, bad_body) == (proto.ERROR, b"unsupported frame type 0x55")
        assert metrics_type == proto.METRICS_RESULT
        assert isinstance(json.loads(body), dict)
        # Every malformed request counts once.
        assert rejected == 5

    def test_retired_frame_types_are_unsupported(self, toy_classifier):
        """0x03 and 0x83 (the removed shard frames) are unassigned: each
        gets the unknown-type error and the connection keeps serving."""
        headers = sample_headers(toy_classifier, 8, seed=21)
        classify = proto.pack_frame(
            proto.CLASSIFY, proto.encode_classify(headers)
        )
        _replies, answers, rejected = serve_exchange(toy_classifier, [], [
            proto.pack_frame(0x03, b"\x00" * 9),
            classify,
            proto.pack_frame(0x83, b"\x00" * 8),
            classify,
        ])
        expected = toy_classifier.classify_batch(headers)
        for ftype, (error, body) in zip((0x03, 0x83), answers[0::2]):
            assert (error, body) == (
                proto.ERROR, f"unsupported frame type {ftype:#04x}".encode()
            )
        for result, payload in answers[1::2]:
            assert result == proto.RESULT
            assert [int(a) for a in proto.decode_result(payload)] == expected
        assert rejected == 2

    def test_cancelled_server_closes_idle_connections(self, toy_classifier):
        async def scenario():
            service = QueryService(toy_classifier, max_delay_s=0)
            lines: list[str] = []
            task = asyncio.ensure_future(
                serve_forever(service, "127.0.0.1", 0, announce=lines.append)
            )
            while not lines:
                await asyncio.sleep(0.01)
            reader, writer = await asyncio.open_connection(
                *json.loads(lines[0])["listening"]
            )
            writer.write(b'{"op": "ping"}\n')
            await writer.drain()
            pong = json.loads(await reader.readline())
            task.cancel()
            await asyncio.wait_for(asyncio.gather(task, return_exceptions=True), 5)
            # The server hung up on the idle client instead of leaving
            # its handler parked on a read.
            eof = await asyncio.wait_for(reader.read(), 5)
            writer.close()
            return pong, eof, service.running

        pong, eof, running = run(scenario())
        assert pong == {"ok": True, "pong": True}
        assert eof == b""
        assert running is False
