"""Sharded serving: slices, framed protocol, router, cluster handoff.

The correctness bar is exactness: routing a header through the tree
prefix to a shard slice must answer bit-identically to the single-node
classifier, for every shard count and prefix depth, before, during,
and after a generation handoff (a batch answers entirely from one
generation, never mixed), and across replica fail-over.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import random

import pytest

from repro.artifact import (
    load_shard,
    load_shard_buffer,
    make_shard_plan,
    shard_artifact_bytes,
    write_shard_split,
)
from repro.core.classifier import APClassifier
from repro.core.compiled import extract_prefix, prefix_depth_for
from repro.datasets import (
    internet2_like,
    random_headers,
    rule_update_stream,
    toy_network,
    uniform_over_atoms,
)
from repro.serve import ServeGrid, ShardRouter, proto
from repro.serve.shard import SliceEndpoint

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAVE_HYPOTHESIS = False


def run(coro):
    return asyncio.run(coro)


@pytest.fixture(scope="module")
def toy_classifier():
    return APClassifier.build(toy_network())


@pytest.fixture(scope="module")
def i2_classifier():
    return APClassifier.build(internet2_like(prefixes_per_router=1))


def sample_headers(classifier, count, seed=3):
    rng = random.Random(seed)
    trace = uniform_over_atoms(classifier.universe, count, rng)
    # Mix in uniform-random headers so the miss-everything region (the
    # overwhelming majority of header space) is exercised too.
    extra = random_headers(classifier.dataplane.layout, max(4, count // 4), rng)
    return list(trace.headers) + list(extra)


# ----------------------------------------------------------------------
# Wire protocol
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
            import struct

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

    def test_shard_classify_codec(self):
        payload = proto.encode_shard_classify(9, [0, 3, 1], [10, 20, 30])
        generation, frontiers, headers, width = proto.decode_shard_classify(
            payload
        )
        assert generation == 9 and width == 1
        assert [int(f) for f in frontiers] == [0, 3, 1]
        assert [int(h) for h in headers] == [10, 20, 30]
        with pytest.raises(proto.FrameError):
            proto.encode_shard_classify(1, [0], [1, 2])  # length mismatch

    def test_result_codecs(self):
        atoms = [int(a) for a in proto.decode_result(proto.encode_result([3, -1]))]
        assert atoms == [3, -1]
        generation, atoms = proto.decode_shard_result(
            proto.encode_shard_result(4, [7])
        )
        assert generation == 4 and [int(a) for a in atoms] == [7]
        with pytest.raises(proto.FrameError):
            proto.decode_result(b"\x05\x00\x00\x00" + b"\x00" * 8)


# ----------------------------------------------------------------------
# Plans and slices (in-process)
# ----------------------------------------------------------------------


def sharded_classify(plan, servings, headers):
    """Route + classify a batch through in-process shard servings."""
    frontiers = [plan.prefix.route(h) for h in headers]
    out = [0] * len(headers)
    groups: dict[int, list[int]] = {}
    for index, frontier in enumerate(frontiers):
        groups.setdefault(plan.assignment[frontier], []).append(index)
    for shard, indices in groups.items():
        atoms = servings[shard].classify_batch(
            [frontiers[i] for i in indices], [headers[i] for i in indices]
        )
        for index, atom in zip(indices, atoms):
            out[index] = int(atom)
    return out


class TestSlices:
    def test_plan_partitions_frontiers(self, toy_classifier):
        plan = make_shard_plan(toy_classifier, 3)
        owned = [frontier for group in plan.frontiers_of for frontier in group]
        assert sorted(owned) == list(range(plan.num_frontiers))
        assert plan.shards == 3
        assert len(plan.digest) == 16

    def test_slice_round_trip_bit_identical(self, toy_classifier):
        headers = sample_headers(toy_classifier, 96)
        expected = toy_classifier.classify_batch(headers)
        for shards in (1, 2, 4):
            plan = make_shard_plan(toy_classifier, shards)
            servings = [
                load_shard_buffer(shard_artifact_bytes(toy_classifier, plan, s))
                for s in range(shards)
            ]
            assert sharded_classify(plan, servings, headers) == expected

    def test_slice_rejects_foreign_frontier(self, toy_classifier):
        plan = make_shard_plan(toy_classifier, 2)
        serving = load_shard_buffer(
            shard_artifact_bytes(toy_classifier, plan, 0)
        )
        foreign = plan.frontiers_of[1][0]
        with pytest.raises(KeyError):
            serving.classify(foreign, 0)

    def test_slice_atoms_and_rsets_restricted(self, toy_classifier):
        plan = make_shard_plan(toy_classifier, 2)
        all_atoms = set()
        for shard in range(2):
            serving = load_shard_buffer(
                shard_artifact_bytes(toy_classifier, plan, shard)
            )
            atoms = set(serving.atom_ids())
            all_atoms |= atoms
            for pid, r_set in serving.r_sets().items():
                assert set(r_set) <= atoms
                full = set(toy_classifier.universe.r(pid))
                assert set(r_set) == full & atoms
        assert all_atoms == set(toy_classifier.universe.atom_ids())

    def test_write_and_load_split(self, toy_classifier, tmp_path):
        summary = write_shard_split(toy_classifier, tmp_path, shards=2)
        assert summary["shards"] == 2
        cluster = json.loads((tmp_path / "cluster.json").read_text())
        assert cluster["plan_digest"] == summary["plan_digest"]
        headers = sample_headers(toy_classifier, 48, seed=11)
        expected = toy_classifier.classify_batch(headers)
        plan = make_shard_plan(toy_classifier, 2)
        servings = [load_shard(tmp_path / name) for name in summary["files"][:2]]
        assert plan.digest == summary["plan_digest"]
        assert sharded_classify(plan, servings, headers) == expected

    def test_prefix_depth_for_tiny_tree(self, toy_classifier):
        depth = prefix_depth_for(toy_classifier.tree, 10_000)
        prefix = extract_prefix(toy_classifier.tree, depth)
        assert prefix.num_frontiers >= 1


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
class TestShardedBitIdentity:
    """Property: sharded == single-node for any batch, shards, depth."""

    @pytest.fixture(scope="class")
    def setup(self, toy_classifier):
        population = sample_headers(toy_classifier, 64, seed=7)
        plans: dict = {}

        def plan_for(shards, depth):
            key = (shards, depth)
            if key not in plans:
                plan = make_shard_plan(toy_classifier, shards, depth=depth)
                servings = [
                    load_shard_buffer(
                        shard_artifact_bytes(toy_classifier, plan, s)
                    )
                    for s in range(shards)
                ]
                plans[key] = (plan, servings)
            return plans[key]

        return toy_classifier, population, plan_for

    @settings(max_examples=40, deadline=None)
    @given(
        shards=st.integers(min_value=1, max_value=4),
        depth=st.integers(min_value=1, max_value=6),
        picks=st.lists(st.integers(min_value=0, max_value=79), max_size=40),
    )
    def test_matches_single_node(self, setup, shards, depth, picks):
        classifier, population, plan_for = setup
        batch = [population[i] for i in picks]
        plan, servings = plan_for(shards, depth)
        assert sharded_classify(plan, servings, batch) == (
            classifier.classify_batch(batch)
        )


# ----------------------------------------------------------------------
# Cluster + router (real processes)
# ----------------------------------------------------------------------


class TestCluster:
    def test_router_matches_direct(self, i2_classifier):
        headers = sample_headers(i2_classifier, 128)
        expected = i2_classifier.classify_batch(headers)
        with ServeGrid(i2_classifier, shards=2, replicas=2) as cluster:
            assert len(cluster.endpoints) == 2
            assert all(len(group) == 2 for group in cluster.endpoints)

            async def scenario():
                router = ShardRouter.from_grid(cluster)
                try:
                    batch = await router.classify_batch(headers)
                    singles = [await router.classify(h) for h in headers[:8]]
                    return batch, singles, dict(router.counters.shard_routed)
                finally:
                    await router.close()

            batch, singles, routed = run(scenario())
        assert batch == expected
        assert singles == expected[:8]
        # Atom-uniform traffic reaches both shards.
        assert len(routed) == 2

    def test_handoff_never_mixes_generations(self):
        network = internet2_like(prefixes_per_router=1)
        classifier = APClassifier.build(network)
        rng = random.Random(17)
        headers = sample_headers(classifier, 96, seed=17)
        updates = list(rule_update_stream(network, 10, rng))

        with ServeGrid(classifier, shards=2, replicas=1) as cluster:

            async def scenario():
                router = ShardRouter.from_grid(cluster)
                allowed = {tuple(classifier.classify_batch(headers))}
                observed: list[tuple] = []
                done = asyncio.Event()

                async def load_loop():
                    while not done.is_set():
                        observed.append(
                            tuple(await router.classify_batch(headers))
                        )

                loop_task = asyncio.ensure_future(load_loop())
                try:
                    for start in range(0, len(updates), 5):
                        for update in updates[start : start + 5]:
                            if update.kind == "insert":
                                classifier.insert_rule(update.box, update.rule)
                            else:
                                classifier.remove_rule(update.box, update.rule)
                        generation = await cluster.publish_async(
                            classifier, router
                        )
                        assert router.generation == generation
                        allowed.add(tuple(classifier.classify_batch(headers)))
                        # A few batches strictly after the flip.
                        for _ in range(3):
                            observed.append(
                                tuple(await router.classify_batch(headers))
                            )
                finally:
                    done.set()
                    await loop_task
                    await router.close()
                return allowed, observed

            allowed, observed = run(scenario())
        assert len(allowed) >= 2, "updates must change some answers"
        assert observed, "load loop produced no batches"
        for batch in observed:
            # Every answer vector matches one generation wholesale:
            # a mixed batch would match none.
            assert batch in allowed
        final = tuple(classifier.classify_batch(headers))
        assert observed[-1] == final

    def test_failover_after_replica_kill(self, i2_classifier):
        headers = sample_headers(i2_classifier, 64, seed=23)
        expected = i2_classifier.classify_batch(headers)
        with ServeGrid(i2_classifier, shards=2, replicas=2) as cluster:

            async def scenario():
                router = ShardRouter.from_grid(cluster)
                try:
                    warm = await router.classify_batch(headers)
                    cluster.kill_replica(0, 0)
                    cluster.kill_replica(1, 0)
                    # Enough batches that the rotor lands on the dead
                    # replicas and the router must fail over.
                    after = [
                        await router.classify_batch(headers) for _ in range(4)
                    ]
                    return warm, after, router.counters.shard_failovers
                finally:
                    await router.close()

            warm, after, failovers = run(scenario())
        assert warm == expected
        for batch in after:
            assert batch == expected
        assert failovers > 0

    def test_all_replicas_down_raises(self, toy_classifier):
        headers = sample_headers(toy_classifier, 16)
        with ServeGrid(toy_classifier, shards=1, replicas=1) as cluster:

            async def scenario():
                router = ShardRouter.from_grid(cluster)
                try:
                    await router.classify_batch(headers)  # warm
                    cluster.kill_replica(0, 0)
                    with pytest.raises(ConnectionError):
                        await router.classify_batch(headers)
                    return router.counters.shard_retries
                finally:
                    await router.close()

            retries = run(scenario())
        assert retries > 0


# ----------------------------------------------------------------------
# Single-node TCP endpoint: framed shim + bounded lines + announce
# ----------------------------------------------------------------------


class TestTCPSatellites:
    def test_oversized_line_answers_and_survives(self, toy_classifier):
        from repro.serve import QueryService, start_tcp_server
        from repro.serve.tcp import MAX_LINE_BYTES

        async def scenario():
            service = QueryService(toy_classifier, max_delay_s=0)
            async with service:
                server = await start_tcp_server(service)
                port = server.sockets[0].getsockname()[1]
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                writer.write(b"x" * (3 * MAX_LINE_BYTES) + b"\n")
                await writer.drain()
                oversized = json.loads(await reader.readline())
                writer.write(b'{"op": "ping"}\n')
                await writer.drain()
                pong = json.loads(await reader.readline())
                writer.close()
                await writer.wait_closed()
                server.close()
                await server.wait_closed()
            return oversized, pong

        oversized, pong = run(scenario())
        assert oversized == {"ok": False, "error": "request too large"}
        assert pong == {"ok": True, "pong": True}

    def test_framed_classify_matches_direct(self, toy_classifier):
        from repro.serve import QueryService, start_tcp_server

        headers = sample_headers(toy_classifier, 48, seed=5)
        expected = toy_classifier.classify_batch(headers)

        async def scenario():
            service = QueryService(toy_classifier, max_delay_s=0)
            async with service:
                server = await start_tcp_server(service)
                port = server.sockets[0].getsockname()[1]
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                writer.write(proto.pack_frame(proto.PING))
                await writer.drain()
                ftype, _payload = await proto.read_frame(reader)
                assert ftype == proto.PONG
                writer.write(
                    proto.pack_frame(
                        proto.CLASSIFY, proto.encode_classify(headers)
                    )
                )
                await writer.drain()
                ftype, payload = await proto.read_frame(reader)
                assert ftype == proto.RESULT
                atoms = [int(a) for a in proto.decode_result(payload)]
                # Unsupported type answers ERROR, connection survives.
                writer.write(proto.pack_frame(proto.SHARD_CLASSIFY, b""))
                await writer.drain()
                ftype, _payload = await proto.read_frame(reader)
                assert ftype == proto.ERROR
                writer.write(proto.pack_frame(proto.METRICS))
                await writer.drain()
                ftype, payload = await proto.read_frame(reader)
                assert ftype == proto.METRICS_RESULT
                metrics = json.loads(payload)
                writer.close()
                await writer.wait_closed()
                server.close()
                await server.wait_closed()
            return atoms, metrics

        atoms, metrics = run(scenario())
        assert atoms == expected
        assert metrics["frames"] == 1
        assert metrics["served"] == len(headers)

    def test_port_zero_announce_is_json(self, toy_classifier):
        from repro.serve import QueryService, serve_forever

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
        assert info["listening"][0] == "127.0.0.1"
        assert isinstance(info["listening"][1], int)
        assert info["listening"][1] > 0
        assert pong == {"ok": True, "pong": True}


class TestFrontTier:
    """``repro serve --shards``' front endpoint, both protocols."""

    @pytest.fixture(scope="class")
    def cluster(self, toy_classifier):
        with ServeGrid(toy_classifier, shards=2, replicas=1) as cluster:
            yield cluster

    @staticmethod
    def with_front(cluster, client):
        """Run ``client(host, port)`` against a front server on ``cluster``."""
        from repro.serve import start_tcp_server

        async def scenario():
            router = ShardRouter.from_grid(cluster)
            server = await start_tcp_server(router)
            try:
                return await client(*server.sockets[0].getsockname()[:2])
            finally:
                server.close()
                await server.wait_closed()
                await router.close()

        return run(scenario())

    def test_both_protocols_match_direct(self, cluster, toy_classifier):
        headers = sample_headers(toy_classifier, 48, seed=5)
        expected = toy_classifier.classify_batch(headers)

        async def ask(reader, writer, request):
            writer.write((json.dumps(request) + "\n").encode())
            await writer.drain()
            return json.loads(await reader.readline())

        async def client(host, port):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(proto.pack_frame(proto.PING))
            await writer.drain()
            ftype, _payload = await proto.read_frame(reader)
            assert ftype == proto.PONG
            writer.write(
                proto.pack_frame(proto.CLASSIFY, proto.encode_classify(headers))
            )
            await writer.drain()
            ftype, payload = await proto.read_frame(reader)
            assert ftype == proto.RESULT
            framed = [int(a) for a in proto.decode_result(payload)]
            writer.write(proto.pack_frame(proto.METRICS))
            await writer.drain()
            ftype, payload = await proto.read_frame(reader)
            assert ftype == proto.METRICS_RESULT
            framed_metrics = json.loads(payload)
            writer.close()
            await writer.wait_closed()

            reader, writer = await asyncio.open_connection(host, port)
            pong = await ask(reader, writer, {"op": "ping"})
            replies = [
                await ask(reader, writer, {"op": "classify", "header": h})
                for h in headers[:8]
            ]
            json_metrics = await ask(reader, writer, {"op": "metrics"})
            writer.close()
            await writer.wait_closed()
            return framed, framed_metrics, pong, replies, json_metrics

        framed, framed_metrics, pong, replies, json_metrics = self.with_front(
            cluster, client
        )
        assert framed == expected
        assert framed_metrics["served"] == len(headers)
        assert pong == {"ok": True, "pong": True}
        assert replies == [{"ok": True, "atom": a} for a in expected[:8]]
        assert json_metrics["ok"] is True
        assert json_metrics["metrics"]["served"] == len(headers) + 8
        assert json_metrics["metrics"]["shard"]["shards"] == 2

    def test_bad_requests_answer_errors_and_survive(
        self, cluster, toy_classifier
    ):
        from repro.serve.tcp import MAX_LINE_BYTES

        header = sample_headers(toy_classifier, 1)[0]
        expected = toy_classifier.classify_batch([header])[0]
        width = toy_classifier.dataplane.layout.total_width

        async def client(host, port):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(proto.pack_frame(proto.SHARD_CLASSIFY, b""))
            await writer.drain()
            ftype, _payload = await proto.read_frame(reader)
            assert ftype == proto.ERROR
            writer.write(
                proto.pack_frame(proto.CLASSIFY, proto.encode_classify([header]))
            )
            await writer.drain()
            ftype, payload = await proto.read_frame(reader)
            assert ftype == proto.RESULT
            framed = [int(a) for a in proto.decode_result(payload)]
            writer.close()
            await writer.wait_closed()

            reader, writer = await asyncio.open_connection(host, port)
            replies = []
            for line in (
                b'{"op": "teleport"}',
                b"x" * (3 * MAX_LINE_BYTES),
                b"[1, 2, 3]",
                b'{"op": "classify", "header": -1}',
                b'{"op": "classify", "header": %d}' % (1 << width),
                b'{"op": "classify", "header": %d}' % header,
            ):
                writer.write(line + b"\n")
                await writer.drain()
                replies.append(json.loads(await reader.readline()))
            writer.close()
            await writer.wait_closed()
            return framed, replies

        framed, replies = self.with_front(cluster, client)
        assert framed == [expected]
        *errors, answer = replies
        assert all(reply["ok"] is False and reply["error"] for reply in errors)
        assert errors[1] == {"ok": False, "error": "request too large"}
        assert "out of range" in errors[3]["error"]
        assert "out of range" in errors[4]["error"]
        assert answer == {"ok": True, "atom": expected}

    def test_serve_front_forever_announces_strict_json(self, cluster):
        from repro.serve import serve_forever

        async def scenario():
            router = ShardRouter.from_grid(cluster)
            lines: list[str] = []
            task = asyncio.ensure_future(
                serve_forever(router, "127.0.0.1", 0, announce=lines.append)
            )
            try:
                while not lines:
                    await asyncio.sleep(0.01)
                info = json.loads(lines[0])
                reader, writer = await asyncio.open_connection(
                    *info["listening"]
                )
                writer.write(b'{"op": "ping"}\n')
                await writer.drain()
                pong = json.loads(await reader.readline())
                writer.close()
                await writer.wait_closed()
            finally:
                task.cancel()
                await asyncio.gather(task, return_exceptions=True)
                await router.close()
            return lines, info, pong

        lines, info, pong = run(scenario())
        assert len(lines) == 1
        assert info["mode"] == "shard-router"
        assert info["listening"][0] == "127.0.0.1"
        assert isinstance(info["listening"][1], int) and info["listening"][1] > 0
        assert pong == {"ok": True, "pong": True}


class TestOneConnectionLoop:
    """Single node, shard replica and shard front run one connection
    loop, so they keep one error contract.  The replicas here are
    in-process :class:`SliceEndpoint` servers on the test's own loop."""

    @staticmethod
    async def in_process_front(classifier, shards=2):
        """(router, replica endpoints, servers) with no child processes."""
        from repro.serve import start_tcp_server

        plan = make_shard_plan(classifier, shards)
        replicas, servers, endpoints = [], [], []
        for shard in range(shards):
            serving = load_shard_buffer(
                shard_artifact_bytes(classifier, plan, shard)
            )
            replica = SliceEndpoint({0: (None, serving)})
            server = await start_tcp_server(replica)
            replicas.append(replica)
            servers.append(server)
            endpoints.append([server.sockets[0].getsockname()[:2]])
        return ShardRouter(plan=plan, endpoints=endpoints), replicas, servers

    @staticmethod
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

    @pytest.mark.parametrize("kind", ["service", "replica", "front"])
    def test_every_endpoint_keeps_one_error_contract(self, toy_classifier, kind):
        from repro.serve import QueryService, start_tcp_server
        from repro.serve.tcp import MAX_LINE_BYTES, stop_server

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

        async def scenario():
            async with contextlib.AsyncExitStack() as stack:
                if kind == "service":
                    service = QueryService(toy_classifier, max_delay_s=0)
                    await stack.enter_async_context(service)
                    endpoint = service
                    counters = service.counters
                else:
                    router, replicas, servers = await self.in_process_front(
                        toy_classifier
                    )
                    for replica, server in zip(replicas, servers):
                        stack.push_async_callback(stop_server, server, replica)
                    stack.push_async_callback(router.close)
                    endpoint = router if kind == "front" else replicas[0]
                    counters = endpoint.counters
                server = await start_tcp_server(endpoint)
                try:
                    port = server.sockets[0].getsockname()[1]
                    replies, answers = await self.exchange(port, lines, frames)
                finally:
                    server.close()
                    await server.wait_closed()
                return replies, answers, counters.rejected

        replies, answers, rejected = run(scenario())
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
        # Every malformed request counts once, whoever answered it.
        assert rejected == 5

    def test_cancelled_server_closes_idle_connections(self, toy_classifier):
        from repro.serve import QueryService, serve_forever

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

    def test_in_process_front_matches_direct(self, toy_classifier):
        from repro.serve import start_tcp_server
        from repro.serve.tcp import stop_server

        headers = sample_headers(toy_classifier, 64, seed=13)
        expected = toy_classifier.classify_batch(headers)

        async def scenario():
            router, replicas, servers = await self.in_process_front(
                toy_classifier
            )
            front = await start_tcp_server(router)
            try:
                port = front.sockets[0].getsockname()[1]
                _replies, answers = await self.exchange(
                    port, [],
                    [proto.pack_frame(
                        proto.CLASSIFY, proto.encode_classify(headers)
                    )],
                )
                return answers[0], [r.counters.served for r in replicas]
            finally:
                front.close()
                await front.wait_closed()
                await router.close()
                for replica, server in zip(replicas, servers):
                    await stop_server(server, replica)

        (ftype, payload), served = run(scenario())
        assert ftype == proto.RESULT
        assert [int(a) for a in proto.decode_result(payload)] == expected
        assert sum(served) == len(headers)

    def test_replica_refuses_unknown_generation_and_survives(
        self, toy_classifier
    ):
        from repro.serve import start_tcp_server

        plan = make_shard_plan(toy_classifier, 1)
        serving = load_shard_buffer(shard_artifact_bytes(toy_classifier, plan, 0))
        headers = sample_headers(toy_classifier, 16, seed=29)
        frontiers = [plan.prefix.route(h) for h in headers]

        def shard_frame(generation):
            return proto.pack_frame(
                proto.SHARD_CLASSIFY,
                proto.encode_shard_classify(generation, frontiers, headers),
            )

        async def scenario():
            replica = SliceEndpoint({0: (None, serving)})
            server = await start_tcp_server(replica)
            try:
                port = server.sockets[0].getsockname()[1]
                _replies, answers = await self.exchange(
                    port, [], [shard_frame(5), shard_frame(0)]
                )
            finally:
                server.close()
                await server.wait_closed()
            return answers, replica.metrics()

        ((bad_type, bad_body), (ftype, payload)), metrics = run(scenario())
        assert bad_type == proto.ERROR
        assert bad_body == b"unknown generation 5 (have [0])"
        assert ftype == proto.SHARD_RESULT
        generation, atoms = proto.decode_shard_result(payload)
        assert generation == 0
        assert [int(a) for a in atoms] == toy_classifier.classify_batch(headers)
        assert metrics["served"] == len(headers)
        assert metrics["generations"] == [0]


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


class TestShardSplitCLI:
    def test_shard_split_writes_loadable_slices(self, tmp_path, capsys):
        from repro.cli import main

        out_dir = tmp_path / "split"
        assert main([
            "shard-split", "--dataset", "toy",
            "--out", str(out_dir), "--shards", "2",
        ]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["shards"] == 2
        serving = load_shard(out_dir / "shard-000.apc")
        assert serving.shard_id == 0 and serving.shards == 2
        cluster = json.loads((out_dir / "cluster.json").read_text())
        assert cluster["plan_digest"] == summary["plan_digest"]
