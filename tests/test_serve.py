"""Online query service: micro-batching, admission, degradation paths.

The correctness bar for the serving layer is strict: a query served
*during* an update or a reconstruction swap must return exactly what a
quiesced classifier would return for the same data plane state.  These
tests pin that, plus the bounded-admission accounting (sheds, timeouts,
backpressure) and clean cancellation (no orphan tasks).
"""

from __future__ import annotations

import asyncio
import json
import random
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import persist
from repro.core.behavior import Behavior, TraceNode
from repro.core.classifier import APClassifier
from repro.datasets import internet2_like, toy_network, uniform_over_atoms
from repro.headerspace.fields import parse_ipv4
from repro.network.dataplane import PredicateChange
from repro.network.rules import ForwardingRule, Match
from repro.obs import Recorder, validate_snapshot
from repro.core.aptree import snapshot_tree
from repro.core.reconstruction import (
    ReconstructionProcess,
    rebuild_snapshot,
    restore_rebuild,
    snapshot_predicates,
)
from repro.serve import QueryService, QueryShed, ServiceClosed, start_tcp_server
from repro.serve import service as service_module


def run(coro):
    return asyncio.run(coro)


def behavior_key(behavior):
    """Generation-independent fingerprint of a behavior (atom ids are not
    comparable across reconstructions; paths and verdicts are)."""
    return (
        tuple(tuple(path) for path in behavior.paths()),
        tuple(sorted(behavior.delivered_hosts())),
        tuple(sorted(behavior.drops())),
    )


@pytest.fixture(scope="module")
def toy_classifier():
    return APClassifier.build(toy_network())


@pytest.fixture
def rebuild_gate(monkeypatch):
    """Hold ``reconstruct()``'s executor-side rebuild until the gate is set."""
    gate = threading.Event()
    rebuild = service_module.rebuild_snapshot

    def gated(*args):
        gate.wait(timeout=30)
        return rebuild(*args)

    monkeypatch.setattr(service_module, "rebuild_snapshot", gated)
    return gate


def sample_headers(classifier, count, seed=3):
    trace = uniform_over_atoms(classifier.universe, count, random.Random(seed))
    return list(trace.headers)


class TestBasicServing:
    def test_classify_matches_direct(self, toy_classifier):
        headers = sample_headers(toy_classifier, 64)
        expected = toy_classifier.classify_batch(headers)

        async def scenario():
            async with QueryService(toy_classifier, max_delay_s=0) as service:
                return await asyncio.gather(
                    *(service.classify(h) for h in headers)
                )

        assert run(scenario()) == expected

    def test_query_matches_direct(self, toy_classifier):
        headers = sample_headers(toy_classifier, 16)
        expected = [
            behavior_key(toy_classifier.query(h, "b1")) for h in headers
        ]

        async def scenario():
            async with QueryService(toy_classifier, max_delay_s=0) as service:
                behaviors = await asyncio.gather(
                    *(service.query(h, "b1") for h in headers)
                )
            return [behavior_key(b) for b in behaviors]

        assert run(scenario()) == expected

    def test_concurrent_requests_coalesce(self, toy_classifier):
        headers = sample_headers(toy_classifier, 200)

        async def scenario():
            service = QueryService(
                toy_classifier, max_batch=64, max_delay_s=0.01
            )
            async with service:
                await asyncio.gather(*(service.classify(h) for h in headers))
            return service

        service = run(scenario())
        counters = service.counters
        assert counters.served == len(headers)
        assert counters.batches < len(headers)  # coalescing happened
        assert max(counters.batch_size_histogram) > 1
        assert counters.batched_requests == counters.served

    def test_not_running_raises(self, toy_classifier):
        async def scenario():
            service = QueryService(toy_classifier)
            with pytest.raises(ServiceClosed):
                await service.classify(0)

        run(scenario())

    def test_stop_fails_pending(self, toy_classifier):
        async def scenario():
            # A held write lock parks the dispatcher on the first batch,
            # so the second request stays queued; stop() must fail both,
            # not leak them.
            service = QueryService(
                toy_classifier, max_batch=64, max_delay_s=30.0
            )
            await service.start()
            async with service._swap_lock.write():
                parked = asyncio.ensure_future(service.classify(0))
                await asyncio.sleep(0.01)  # batch popped, parked at read()
                queued = asyncio.ensure_future(service.classify(1))
                await asyncio.sleep(0.01)
                assert service.metrics()["queue_depth"] == 1
                await service.stop()
                for task in (parked, queued):
                    with pytest.raises(ServiceClosed):
                        await asyncio.wait_for(task, 5.0)

        run(scenario())

    def test_lone_request_does_not_wait_out_the_window(self, toy_classifier):
        async def scenario():
            # Nothing else is arriving, so the window closes at the
            # first quiet event-loop pass, not after max_delay_s.
            async with QueryService(
                toy_classifier, max_batch=64, max_delay_s=30.0
            ) as service:
                return await asyncio.wait_for(service.classify(0), 1.0)

        assert run(scenario()) == toy_classifier.classify(0)

    def test_sustained_arrivals_close_at_max_batch(self, toy_classifier):
        headers = sample_headers(toy_classifier, 40)
        max_batch = 8

        async def scenario():
            # One new request per event-loop pass keeps the window open
            # (max_delay_s is far away), so only max_batch can close it.
            service = QueryService(
                toy_classifier, max_batch=max_batch, max_delay_s=30.0
            )
            async with service:
                tasks = []
                for header in headers:
                    tasks.append(asyncio.ensure_future(service.classify(header)))
                    await asyncio.sleep(0)
                results = await asyncio.wait_for(asyncio.gather(*tasks), 5.0)
            return service, results

        service, results = run(scenario())
        assert results == toy_classifier.classify_batch(headers)
        histogram = service.counters.batch_size_histogram
        assert max(histogram) == max_batch
        assert service.counters.batched_requests == len(headers)

    def test_stop_fails_batch_parked_at_swap_lock(self, toy_classifier):
        async def scenario():
            # Park the dispatcher *after* it pops a batch: a held write
            # lock (an in-flight update/reconstruct swap) blocks the
            # read side.  stop() must fail that popped batch too -- its
            # requests are no longer in the queue for the drain to see.
            service = QueryService(toy_classifier, max_delay_s=0)
            await service.start()
            async with service._swap_lock.write():
                task = asyncio.ensure_future(service.classify(0))
                await asyncio.sleep(0.01)  # batch popped, parked at read()
                await service.stop()
                with pytest.raises(ServiceClosed):
                    await asyncio.wait_for(task, 5.0)

        run(scenario())

    def test_metrics_shape(self, toy_classifier):
        async def scenario():
            async with QueryService(toy_classifier, max_delay_s=0) as service:
                await service.classify(0)
                return service.metrics()

        metrics = run(scenario())
        assert metrics["served"] == 1
        assert metrics["queue_depth"] == 0
        assert metrics["running"] is True
        assert metrics["compiled_fresh"] is True
        assert metrics["latency_s"]["p99"] >= metrics["latency_s"]["p50"] >= 0


class TestAdmission:
    def test_shed_policy_counts_and_raises(self, toy_classifier):
        async def scenario():
            service = QueryService(
                toy_classifier,
                max_delay_s=0.05,
                queue_limit=4,
                overflow="shed",
            )
            async with service:
                # All ten admissions run before the dispatcher wakes:
                # tasks are scheduled in creation order, ahead of the
                # event-triggered dispatcher resumption.  Headers are
                # distinct -- duplicates would coalesce onto the queued
                # request instead of contending for admission slots.
                results = await asyncio.gather(
                    *(service.classify(h) for h in range(10)),
                    return_exceptions=True,
                )
            served = [r for r in results if isinstance(r, int)]
            shed = [r for r in results if isinstance(r, QueryShed)]
            return service, served, shed

        service, served, shed = run(scenario())
        assert len(served) == 4
        assert len(shed) == 6
        assert service.counters.shed == 6
        assert service.counters.served == 4
        assert service.counters.queue_depth_max == 4

    @pytest.mark.parametrize(
        "bad", [-1, 1 << 200], ids=["negative", "too-wide"]
    )
    def test_out_of_range_header_is_refused_alone(self, toy_classifier, bad):
        """A header the layout cannot hold is refused at admission; the
        good requests it would have shared a batch with are answered."""
        good = sample_headers(toy_classifier, 2)

        async def scenario():
            service = QueryService(toy_classifier, max_delay_s=0.05)
            async with service:
                results = await asyncio.gather(
                    service.classify(good[0]),
                    service.classify(bad),
                    service.query(bad, "b1"),
                    service.classify(good[1]),
                    return_exceptions=True,
                )
            return service, results

        service, (first, refused, refused_query, second) = run(scenario())
        assert [first, second] == toy_classifier.classify_batch(good)
        assert isinstance(refused, ValueError)
        assert isinstance(refused_query, ValueError)
        assert "out of range" in str(refused)
        assert service.counters.served == 2
        assert service.counters.queue_depth_max == 2  # no slot was taken

    def test_wait_policy_backpressures_and_serves_all(self, toy_classifier):
        async def scenario():
            service = QueryService(
                toy_classifier,
                max_delay_s=0,
                queue_limit=4,
                overflow="wait",
            )
            async with service:
                results = await asyncio.gather(
                    *(service.classify(h) for h in range(20))
                )
            return service, results

        service, results = run(scenario())
        assert len(results) == 20
        assert service.counters.shed == 0
        assert service.counters.served == 20
        # Every slot filled: the other sixteen callers waited for one.
        assert service.counters.queue_depth_max == 4

    def test_timeout_cancels_cleanly(self, toy_classifier):
        async def scenario():
            # The lone request's batch is parked behind a held write
            # lock (an update or swap) and it carries a 10 ms deadline:
            # it must time out, be skipped by the dispatcher once the
            # lock frees, and leave no orphan task behind.
            service = QueryService(toy_classifier, max_batch=8)
            async with service:
                async with service._swap_lock.write():
                    with pytest.raises(asyncio.TimeoutError):
                        await service.classify(0, timeout=0.01)
                assert service.counters.timeouts == 1
                # The service is still healthy for the next caller.
                atom = await asyncio.wait_for(
                    service.classify(0, timeout=2.0), 5.0
                )
                assert atom == toy_classifier.classify(0)
            await asyncio.sleep(0)
            orphans = [
                task
                for task in asyncio.all_tasks()
                if task is not asyncio.current_task() and not task.done()
            ]
            assert orphans == []
            # The timed-out request was never counted as served, and its
            # classification work was skipped (only the healthy request's
            # singleton batch ran).
            assert service.counters.served == 1
            assert service.counters.batched_requests == 1

        run(scenario())


def drop_rule():
    return ForwardingRule(
        Match.prefix("dst_ip", parse_ipv4("10.2.0.0"), 24), (), 24
    )


async def mutate(service, how):
    """Change the serving generation one supported (or unsupported) way."""
    if how == "insert_rule":
        await service.insert_rule("b1", drop_rule())
    elif how == "remove_rule":
        await service.remove_rule("b1", drop_rule())
    elif how == "out_of_band":
        service.classifier.insert_rule("b1", drop_rule())
    elif how == "adopt_generation":
        replacement = APClassifier.build(toy_network())
        replacement.insert_rule("b1", drop_rule())
        await service.adopt_generation(replacement)
    else:
        await service.reconstruct()


class TestInlineAnswers:
    """A lone query is answered at admission, concurrent ones still
    coalesce; stage 2 is memoised per generation and the memo never
    outlives the generation it serves."""

    def test_lone_query_takes_no_queue_slot(self, toy_classifier):
        headers = sample_headers(toy_classifier, 32)

        async def scenario():
            async with QueryService(
                toy_classifier, max_delay_s=30.0
            ) as service:
                for header in headers:
                    # The next request arrives in a later loop pass, as
                    # it does from a client waiting on its answer.
                    await asyncio.sleep(0)
                    await service.query(header, "b1")
                return service.counters

        counters = run(scenario())
        assert counters.queue_depth_max == 0
        assert counters.batch_size_histogram == {1: len(headers)}
        assert counters.served == len(headers)

    def test_concurrent_queries_still_coalesce(self, toy_classifier):
        headers = sample_headers(toy_classifier, 32)

        async def scenario():
            async with QueryService(
                toy_classifier, max_delay_s=0.01
            ) as service:
                behaviors = await asyncio.gather(
                    *(service.query(h, "b1") for h in headers)
                )
                return service.counters, behaviors

        counters, behaviors = run(scenario())
        # The first arrival of the pass answers inline; the other 31
        # arrived in the same pass and share one batch.
        assert counters.batch_size_histogram == {1: 1, 31: 1}
        assert counters.queue_depth_max == 31
        for header, behavior in zip(headers, behaviors):
            assert behavior_key(behavior) == behavior_key(
                toy_classifier.query(header, "b1")
            )

    def test_query_joins_a_forming_batch(self, toy_classifier):
        headers = sample_headers(toy_classifier, 8)

        async def scenario():
            async with QueryService(
                toy_classifier, max_batch=64, max_delay_s=30.0
            ) as service:
                # Two arrive together (one inline, one queued), then one
                # per loop pass while the dispatcher's window is open:
                # each late query finds the queue non-empty and joins.
                tasks = [
                    asyncio.ensure_future(service.query(h, "b1"))
                    for h in headers[:2]
                ]
                for header in headers[2:]:
                    await asyncio.sleep(0)
                    tasks.append(
                        asyncio.ensure_future(service.query(header, "b1"))
                    )
                await asyncio.wait_for(asyncio.gather(*tasks), 5.0)
                return service.counters

        counters = run(scenario())
        assert counters.batch_size_histogram == {1: 1, 7: 1}

    @pytest.mark.parametrize(
        "how",
        [
            "insert_rule",
            "remove_rule",
            "out_of_band",
            "adopt_generation",
            "reconstruct",
        ],
    )
    @pytest.mark.parametrize("queued", [False, True], ids=["inline", "batched"])
    def test_memo_is_retired_with_the_generation(self, how, queued):
        classifier = APClassifier.build(toy_network())
        probe = parse_ipv4("10.2.0.9")

        async def ask(service):
            if not queued:
                await asyncio.sleep(0)  # a fresh loop pass: answered inline
                return await service.query(probe, "b1")
            async with service._swap_lock.write():
                pending = asyncio.ensure_future(service.query(probe, "b1"))
                await asyncio.sleep(0.01)
            return await pending

        async def scenario():
            async with QueryService(classifier, max_delay_s=0) as service:
                if how == "remove_rule":
                    await service.insert_rule("b1", drop_rule())
                first = await ask(service)
                # Poison every atom id either generation could assign and
                # prove the memo serves the poison.
                poison = Behavior("b1", first.atom_id, TraceNode("poison", None))
                for atom_id in range(1_000):
                    service._behaviors[(atom_id, "b1", None)] = poison
                assert await ask(service) is poison
                await mutate(service, how)
                answer = await ask(service)
                expected = service.classifier.query(probe, "b1")
                return answer, poison, expected, service.counters

        answer, poison, expected, counters = run(scenario())
        assert answer is not poison
        assert behavior_key(answer) == behavior_key(expected)
        assert counters.queue_depth_max == (1 if queued else 0)

    def test_bogus_in_ports_leave_the_memo_bounded(self, toy_classifier):
        headers = sample_headers(toy_classifier, 16)
        dataplane = toy_classifier.dataplane
        slots = sum(1 for _ in dataplane.iter_slots())
        atoms = len(toy_classifier.universe.atom_ids())

        async def scenario():
            async with QueryService(toy_classifier, max_delay_s=0) as service:
                for index in range(10_000):
                    header = headers[index % len(headers)]
                    await service.query(header, "b1", f"bogus-{index}")
                for header in headers:
                    await service.query(header, "b1")
                return dict(service._behaviors)

        memo = run(scenario())
        assert 0 < len(memo) <= atoms * slots
        assert all(in_port is None for _atom, _ingress, in_port in memo)

    def test_inline_query_loop_lets_other_tasks_run(self, toy_classifier):
        header = sample_headers(toy_classifier, 1)[0]

        async def scenario():
            async with QueryService(toy_classifier, max_delay_s=0) as service:
                state = {"answers": 0, "done": False}
                seen = []

                async def hot_loop():
                    for _ in range(2_000):
                        await service.query(header, "b1")
                        state["answers"] += 1
                    state["done"] = True

                async def ticker():
                    while not state["done"]:
                        seen.append(state["answers"])
                        await asyncio.sleep(0)

                await asyncio.gather(hot_loop(), ticker())
                return seen + [state["answers"]]

        seen = run(scenario())
        gaps = [after - before for before, after in zip(seen, seen[1:])]
        assert seen[-1] == 2_000
        # At most one inline answer per loop pass: the caller's next
        # query in the same pass queues and suspends.
        assert max(gaps) <= 2


class TestDegradation:
    """Updates and reconstructions must never produce a wrong answer."""

    def test_updates_patch_in_place_and_serve_exact_results(self):
        classifier = APClassifier.build(toy_network())
        recorder = Recorder()
        classifier.set_recorder(recorder)
        rule = ForwardingRule(
            Match.prefix("dst_ip", parse_ipv4("10.2.0.0"), 24), (), 24
        )
        probe = parse_ipv4("10.2.0.77")

        async def scenario():
            async with QueryService(
                classifier, max_delay_s=0, recorder=recorder
            ) as service:
                assert classifier.maintenance == "incremental"
                engine = classifier._engine
                compiles = recorder.updates.compiles
                await service.insert_rule("b1", rule)
                # The program was patched in place (and, the toy's
                # canonical program being smaller than the rule's
                # predicate slice, compacted inline): no window in which
                # queries take the interpreted tree.
                assert engine.patches == 1
                assert classifier.compiled_fresh
                assert recorder.updates.compiles == (
                    compiles + engine.patch_fallbacks
                )
                dropped = await service.query(probe, "b1")
                assert await service.classify(probe) == (
                    classifier.universe.classify(probe)
                )
                patched = classifier.compiled
                await service.remove_rule("b1", rule)
                assert engine.patches == 2
                assert classifier.compiled is patched and patched.patched
                assert classifier.compiled_fresh
                assert recorder.updates.compiles == (
                    compiles + engine.patch_fallbacks
                )
                restored = await service.query(probe, "b1")
                assert await service.classify(probe) == (
                    classifier.universe.classify(probe)
                )
                return dropped, restored

        dropped, restored = run(scenario())
        assert dropped.delivered_hosts() == frozenset()
        assert restored.delivered_hosts()
        assert recorder.updates.stale_fallbacks == 0
        reference = APClassifier.build(classifier.dataplane.network)
        assert behavior_key(restored) == behavior_key(
            reference.query(probe, "b1")
        )

    def test_loaded_artifact_is_patched_in_place(self, tmp_path):
        path = tmp_path / "toy.apc"
        persist.save(APClassifier.build(toy_network()), path)
        classifier = persist.load(path)
        recorder = Recorder()
        classifier.set_recorder(recorder)
        loaded = classifier.compiled
        assert classifier.compiled_fresh and loaded.patchable
        rules = [
            ForwardingRule(
                Match.prefix("dst_ip", parse_ipv4(dotted), 24), (), 24
            )
            for dotted in ("10.2.0.0", "10.3.0.0")
        ]
        headers = sample_headers(classifier, 64) + [
            parse_ipv4("10.2.0.9"), parse_ipv4("10.3.0.9")
        ]

        async def scenario():
            async with QueryService(
                classifier, max_delay_s=0, recorder=recorder
            ) as service:
                # start() serves the loaded program as it is.
                assert classifier.compiled is loaded
                assert recorder.updates.compiles == 0
                engine = classifier._engine
                await service.insert_rule("b1", rules[0])
                # The loaded program is patched like a compiled one:
                # its only recompiles are compactions.
                assert loaded.patched
                await service.insert_rule("b1", rules[1])
                await service.remove_rule("b1", rules[0])
                # (The second rule changes no predicate of b1.)
                assert engine.patches == 2
                assert classifier.compiled_fresh
                assert recorder.updates.compiles == engine.patch_fallbacks
                return [await service.classify(h) for h in headers]

        served = run(scenario())
        assert served == [classifier.universe.classify(h) for h in headers]
        # A classifier built from scratch for the same data plane gives
        # every header the same behavior.
        reference = APClassifier.build(classifier.dataplane.network)
        for header, atom_id in zip(headers, served):
            for ingress in ("b1", "b2"):
                assert behavior_key(
                    classifier.behavior_of_atom(atom_id, ingress)
                ) == behavior_key(reference.query(header, ingress))

    def test_update_queued_behind_a_generation_swap_reaches_it(self):
        """An update that waits for the write lock behind an
        ``adopt_generation`` lands on the adopted classifier, not on the
        retired one it would have read before waiting."""
        retired = APClassifier.build(toy_network())
        adopted = APClassifier.build(toy_network())
        rule = ForwardingRule(
            Match.prefix("dst_ip", parse_ipv4("10.2.0.0"), 24), (), 24
        )
        probe = parse_ipv4("10.2.0.77")

        async def scenario():
            async with QueryService(retired, max_delay_s=0) as service:
                async with service._swap_lock.write():
                    adopt = asyncio.ensure_future(
                        service.adopt_generation(adopted)
                    )
                    await asyncio.sleep(0.01)
                    insert = asyncio.ensure_future(
                        service.insert_rule("b1", rule)
                    )
                    await asyncio.sleep(0.01)
                await adopt
                await insert
                assert service.classifier is adopted
                return await service.query(probe, "b1")

        served = run(scenario())
        assert served.delivered_hosts() == frozenset()
        assert adopted.compiled_fresh
        assert adopted.query(probe, "b1").delivered_hosts() == frozenset()
        assert retired.query(probe, "b1").delivered_hosts()

    def test_reconstruction_of_a_replaced_generation_is_dropped(
        self, rebuild_gate
    ):
        retired = APClassifier.build(internet2_like())
        adopted = APClassifier.build(internet2_like())
        tree = adopted.tree

        async def scenario():
            async with QueryService(retired, max_delay_s=0) as service:
                recon = asyncio.ensure_future(service.reconstruct())
                await asyncio.sleep(0.01)
                assert service.reconstructing
                await service.adopt_generation(adopted)
                rebuild_gate.set()
                return await recon, service

        swapped, service = run(scenario())
        assert swapped is False
        assert service.classifier is adopted and adopted.tree is tree
        assert service.counters.swaps == 1  # the adoption only

    def test_queries_during_reconstruction_match_quiesced(self, rebuild_gate):
        gate = rebuild_gate
        classifier = APClassifier.build(internet2_like())
        headers = sample_headers(classifier, 48)
        quiesced = {
            h: behavior_key(classifier.query(h, "SEAT")) for h in headers
        }

        async def scenario():
            service = QueryService(classifier, max_delay_s=0.002)
            async with service:
                recon = asyncio.ensure_future(service.reconstruct())
                await asyncio.sleep(0.01)
                assert service.reconstructing
                # Mid-rebuild queries: served on the old generation.
                during = await asyncio.gather(
                    *(service.query(h, "SEAT") for h in headers)
                )
                gate.set()
                await recon
                # Post-swap queries: served on the rebuilt generation.
                after = await asyncio.gather(
                    *(service.query(h, "SEAT") for h in headers)
                )
            return service, during, after

        service, during, after = run(scenario())
        for h, behavior in zip(headers, during):
            assert behavior_key(behavior) == quiesced[h]
        for h, behavior in zip(headers, after):
            assert behavior_key(behavior) == quiesced[h]
        assert service.counters.swaps == 1

    def test_updates_during_reconstruction_are_replayed(self, rebuild_gate):
        gate = rebuild_gate
        classifier = APClassifier.build(toy_network())
        recorder = Recorder()
        rule = ForwardingRule(
            Match.prefix("dst_ip", parse_ipv4("10.2.0.0"), 24), (), 24
        )
        probe = parse_ipv4("10.2.0.9")

        async def scenario():
            service = QueryService(
                classifier, max_delay_s=0, recorder=recorder
            )
            async with service:
                recon = asyncio.ensure_future(service.reconstruct())
                await asyncio.sleep(0.01)
                assert service.reconstructing
                # This update postdates the rebuild's snapshot: it must
                # be journaled and replayed before the swap.
                applied = await service.insert_rule("b1", rule)
                # An addition the rebuilt universe already holds changes
                # nothing at replay, so it must not count as replayed.
                held = classifier.dataplane.predicates()[0]
                service._journal.append(PredicateChange(None, held))
                mid = await service.query(probe, "b1")
                assert mid.delivered_hosts() == frozenset()
                gate.set()
                await recon
                post = await service.query(probe, "b1")
            return len(applied), mid, post

        applied, mid, post = run(scenario())
        assert behavior_key(post) == behavior_key(mid)
        assert recorder.updates.replayed == applied >= 1
        assert recorder.serve.swaps == 1
        # Ground truth: a classifier built fresh from the updated
        # network agrees with what was served after the swap.
        reference = APClassifier.build(classifier.dataplane.network)
        assert behavior_key(reference.query(probe, "b1")) == behavior_key(post)

    def test_rebuild_never_touches_canonical_manager(self):
        # The executor-thread half of reconstruct() must work in a
        # private manager: the canonical one keeps taking updates on the
        # loop thread mid-rebuild and has no locking, so any node or
        # cache it minted from the rebuild thread would be a data race.
        classifier = APClassifier.build(toy_network())
        manager = classifier.dataplane.manager
        snapshot = classifier.dataplane.predicates()
        pids, dumped = snapshot_predicates(snapshot)
        before = manager.cache_stats()
        with ThreadPoolExecutor(max_workers=1) as executor:
            payload = executor.submit(
                rebuild_snapshot, pids, dumped, classifier.strategy
            ).result(timeout=60)
        assert manager.cache_stats() == before
        assert payload["universe"]["pids"] == pids
        # The worker process runs the same function: one snapshot, one
        # payload, wherever the rebuild executes.
        with ReconstructionProcess(manager, classifier.strategy) as recon:
            recon.submit(snapshot)
            universe, tree, _ = recon.receive()
        assert snapshot_tree(tree, universe) == payload["tree"]
        expected, _ = restore_rebuild(payload, manager)
        assert universe.predicate_ids() == expected.predicate_ids() == pids
        assert universe.atom_ids() == expected.atom_ids()
        for atom_id in expected.atom_ids():
            assert universe.atom_fn(atom_id) == expected.atom_fn(atom_id)
        for pid in pids:
            assert universe.r(pid) == expected.r(pid)

    def test_incremental_replay_leaves_no_dead_labels(self, rebuild_gate):
        # A journal replayed through a tombstone engine would hand an
        # incremental classifier a tree with a dead label, costing the
        # next removal one avoidable full rebuild.
        classifier = APClassifier.build(internet2_like())
        drop = ForwardingRule(
            Match.prefix("dst_ip", parse_ipv4("10.1.0.0"), 24), (), 24
        )
        headers = sample_headers(classifier, 32) + [parse_ipv4("10.1.0.9")]

        async def scenario():
            async with QueryService(classifier, max_delay_s=0) as service:
                recon = asyncio.ensure_future(service.reconstruct())
                await asyncio.sleep(0.01)
                assert service.reconstructing
                await service.insert_rule("ATLA", drop)
                rebuild_gate.set()
                await recon
                served = await asyncio.gather(
                    *(service.query(h, "SEAT") for h in headers)
                )
                universe, tree = classifier.universe, classifier.tree
                assert all(
                    universe.has_predicate(node.pid)
                    for node in tree._walk()
                    if not node.is_leaf
                )
                await service.remove_rule("ATLA", drop)
                return served

        served = run(scenario())
        assert classifier._engine.full_rebuilds == 0
        classifier.insert_rule("ATLA", drop)
        reference = APClassifier.build(classifier.dataplane.network)
        for h, behavior in zip(headers, served):
            assert behavior_key(behavior) == behavior_key(
                reference.query(h, "SEAT")
            )

    def test_updates_racing_live_rebuild_stay_exact(self):
        # No gate here on purpose: the rebuild thread really runs while
        # the loop thread mutates the canonical manager via updates.
        classifier = APClassifier.build(internet2_like())
        rule = ForwardingRule(
            Match.prefix("dst_ip", parse_ipv4("10.2.0.0"), 24), (), 24
        )
        probe = parse_ipv4("10.2.0.9")

        async def scenario():
            async with QueryService(classifier, max_delay_s=0) as service:
                recon = asyncio.ensure_future(service.reconstruct())
                flips = 0
                while not recon.done() and flips < 50:
                    await service.insert_rule("SEAT", rule)
                    await service.remove_rule("SEAT", rule)
                    flips += 1
                    await asyncio.sleep(0)
                await recon
                return await service.query(probe, "SEAT")

        post = run(scenario())
        reference = APClassifier.build(classifier.dataplane.network)
        assert behavior_key(reference.query(probe, "SEAT")) == behavior_key(
            post
        )

    def test_reconstruct_rejects_reentry(self, toy_classifier, rebuild_gate):
        gate = rebuild_gate

        async def scenario():
            service = QueryService(toy_classifier, max_delay_s=0)
            async with service:
                recon = asyncio.ensure_future(service.reconstruct())
                await asyncio.sleep(0.01)
                with pytest.raises(RuntimeError):
                    await service.reconstruct()
                gate.set()
                await recon

        run(scenario())


class TestObservability:
    def test_recorder_snapshot_validates(self):
        classifier = APClassifier.build(toy_network())
        recorder = Recorder()
        classifier.set_recorder(recorder)
        headers = sample_headers(classifier, 32)

        async def scenario():
            async with QueryService(
                classifier, max_delay_s=0.005, recorder=recorder
            ) as service:
                await asyncio.gather(*(service.classify(h) for h in headers))
                await service.reconstruct()
                await asyncio.gather(*(service.classify(h) for h in headers))

        run(scenario())
        snapshot = validate_snapshot(recorder.snapshot())
        serve = snapshot["serve"]
        assert serve["served"] == 2 * len(headers)
        assert serve["swaps"] == 1
        assert serve["latency_s"]["count"] == serve["served"]
        assert sum(serve["batch_size_histogram"].values()) == serve["batches"]
        json.dumps(snapshot, allow_nan=False)  # strict-JSON round trip


class TestTCP:
    def test_wire_protocol(self):
        classifier = APClassifier.build(toy_network())

        async def scenario():
            service = QueryService(classifier, max_delay_s=0)
            async with service:
                server = await start_tcp_server(service)
                port = server.sockets[0].getsockname()[1]
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )

                async def ask(payload):
                    writer.write((json.dumps(payload) + "\n").encode())
                    await writer.drain()
                    return json.loads(await reader.readline())

                responses = {
                    "ping": await ask({"op": "ping"}),
                    "classify_header": await ask(
                        {"op": "classify", "header": parse_ipv4("10.2.0.1")}
                    ),
                    "classify_packet": await ask(
                        {"op": "classify", "packet": {"dst_ip": "10.2.0.1"}}
                    ),
                    "query": await ask(
                        {
                            "op": "query",
                            "packet": {"dst_ip": "10.2.0.1"},
                            "ingress": "b1",
                        }
                    ),
                    "bad_ingress": await ask(
                        {
                            "op": "query",
                            "packet": {"dst_ip": "10.2.0.1"},
                            "ingress": "nope",
                        }
                    ),
                    "bad_op": await ask({"op": "frobnicate"}),
                    "bad_json": None,
                    "metrics": await ask({"op": "metrics"}),
                }
                writer.write(b"this is not json\n")
                await writer.drain()
                responses["bad_json"] = json.loads(await reader.readline())
                writer.close()
                await writer.wait_closed()
                server.close()
                await server.wait_closed()
            return responses

        responses = run(scenario())
        assert responses["ping"] == {"ok": True, "pong": True}
        expected_atom = classifier.classify(parse_ipv4("10.2.0.1"))
        assert responses["classify_header"] == {"ok": True, "atom": expected_atom}
        assert responses["classify_packet"]["atom"] == expected_atom
        query = responses["query"]
        assert query["ok"] is True
        assert ["b1", "b2", "h2"] in query["paths"]
        assert query["delivered"] == ["h2"]
        assert responses["bad_ingress"]["ok"] is False
        assert responses["bad_op"]["ok"] is False
        assert "unknown op" in responses["bad_op"]["error"]
        assert responses["bad_json"]["ok"] is False
        metrics = responses["metrics"]["metrics"]
        assert metrics["served"] == 3  # two classifies + the good query
        assert metrics["running"] is True

    def test_bad_header_fails_only_its_own_line(self):
        """Three clients whose requests coalesce into one batch: the
        out-of-range header gets its error line, the others their atoms."""
        classifier = APClassifier.build(toy_network())
        good = sample_headers(classifier, 2)

        async def scenario():
            service = QueryService(classifier, max_delay_s=0.05)
            async with service:
                server = await start_tcp_server(service)
                port = server.sockets[0].getsockname()[1]
                conns = [
                    await asyncio.open_connection("127.0.0.1", port)
                    for _ in range(3)
                ]

                async def ask(conn, payload):
                    reader, writer = conn
                    writer.write((json.dumps(payload) + "\n").encode())
                    await writer.drain()
                    return json.loads(await reader.readline())

                replies = await asyncio.gather(
                    ask(conns[0], {"op": "classify", "header": good[0]}),
                    ask(conns[1], {"op": "classify", "header": -1}),
                    ask(conns[2], {"op": "classify", "header": good[1]}),
                )
                pong = await ask(conns[1], {"op": "ping"})
                for _reader, writer in conns:
                    writer.close()
                    await writer.wait_closed()
                server.close()
                await server.wait_closed()
            return service, replies, pong

        service, (first, refused, second), pong = run(scenario())
        expected = classifier.classify_batch(good)
        assert first == {"ok": True, "atom": expected[0]}
        assert second == {"ok": True, "atom": expected[1]}
        assert refused["ok"] is False
        assert "out of range" in refused["error"]
        assert service.counters.rejected == 1
        assert service.counters.served == 2
        assert pong == {"ok": True, "pong": True}

    def test_unexpected_error_keeps_connection_alive(self):
        classifier = APClassifier.build(toy_network())

        async def scenario():
            service = QueryService(classifier, max_delay_s=0)
            async with service:
                async def boom(*args, **kwargs):
                    raise TypeError("boom")

                service.classify = boom  # surfaces through the future
                server = await start_tcp_server(service)
                port = server.sockets[0].getsockname()[1]
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )

                async def ask(payload):
                    writer.write((json.dumps(payload) + "\n").encode())
                    await writer.drain()
                    return json.loads(await reader.readline())

                error = await ask({"op": "classify", "header": 1})
                pong = await ask({"op": "ping"})
                writer.close()
                await writer.wait_closed()
                server.close()
                await server.wait_closed()
            return error, pong

        error, pong = run(scenario())
        assert error == {"ok": False, "error": "TypeError: boom"}
        assert pong == {"ok": True, "pong": True}
