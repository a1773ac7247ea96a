"""Hot-header result cache: hits, LRU bounds, generation safety.

The cache is only allowed to be fast: any event that can change what a
header classifies to -- a rule update through the service, a
reconstruction, a generation handoff, or an out-of-band tree mutation
-- must retire every cached entry before the next query can probe.  An
update patches the compiled program in place, so the program staying
fresh says nothing about the cache: its generation must turn over
anyway.  These tests poison the cache on purpose and
check the poison can never outlive the generation that wrote it.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.core.classifier import APClassifier
from repro.datasets import toy_network, uniform_over_atoms
from repro.headerspace.fields import parse_ipv4
from repro.network.rules import ForwardingRule, Match
from repro.obs import Recorder, validate_snapshot
from repro.serve import QueryService, ResultCache


def run(coro):
    return asyncio.run(coro)


def fresh_classifier():
    return APClassifier.build(toy_network())


def sample_headers(classifier, count, seed=3):
    trace = uniform_over_atoms(classifier.universe, count, random.Random(seed))
    return list(trace.headers)


def drop_rule():
    return ForwardingRule(
        Match.prefix("dst_ip", parse_ipv4("10.2.0.0"), 24), (), 24
    )


class TestResultCacheUnit:
    def test_get_put_and_len(self):
        cache = ResultCache(4)
        assert cache.get(10) is None
        cache.put(10, 3)
        assert cache.get(10) == 3
        assert len(cache) == 1

    def test_lru_evicts_oldest(self):
        cache = ResultCache(2)
        cache.put(1, 11)
        cache.put(2, 22)
        cache.get(1)  # refresh: 2 is now the LRU entry
        cache.put(3, 33)
        assert cache.get(2) is None
        assert cache.get(1) == 11
        assert cache.get(3) == 33
        assert len(cache) == 2

    def test_reput_updates_without_evicting(self):
        cache = ResultCache(2)
        cache.put(1, 11)
        cache.put(2, 22)
        cache.put(1, 111)
        assert cache.get(1) == 111
        assert cache.get(2) == 22

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            ResultCache(0)


class TestServeHits:
    def test_repeats_hit_and_answers_match_direct(self):
        classifier = fresh_classifier()
        headers = sample_headers(classifier, 64)
        expected = classifier.classify_batch(headers)

        async def scenario():
            async with QueryService(
                classifier, max_delay_s=0, cache_size=256
            ) as service:
                first = await asyncio.gather(
                    *(service.classify(h) for h in headers)
                )
                second = await asyncio.gather(
                    *(service.classify(h) for h in headers)
                )
                return first, second, service.counters, service.metrics()

        first, second, counters, metrics = run(scenario())
        assert first == expected
        assert second == expected
        # Every second-pass lookup was a synchronous hit.
        assert counters.cache_hits >= len(set(headers))
        assert metrics["result_cache"]["hits"] == counters.cache_hits
        assert metrics["result_cache"]["entries"] == len(set(headers))

    def test_zero_cache_size_disables_cleanly(self):
        classifier = fresh_classifier()
        header = sample_headers(classifier, 1)[0]

        async def scenario():
            async with QueryService(
                classifier, max_delay_s=0, cache_size=0
            ) as service:
                await service.classify(header)
                await service.classify(header)
                return service.counters, service.metrics()

        counters, metrics = run(scenario())
        assert counters.cache_hits == 0
        assert counters.cache_misses == 0
        assert metrics["result_cache"]["hit_rate"] == 0.0

    def test_negative_cache_size_is_loud(self):
        with pytest.raises(ValueError, match="cache_size"):
            QueryService(fresh_classifier(), cache_size=-1)

    def test_lru_bound_holds_under_serving(self):
        classifier = fresh_classifier()
        headers = sample_headers(classifier, 64)

        async def scenario():
            async with QueryService(
                classifier, max_delay_s=0, cache_size=8
            ) as service:
                for header in headers:
                    await service.classify(header)
                return service.metrics(), service.counters

        metrics, counters = run(scenario())
        assert metrics["result_cache"]["entries"] <= 8
        assert counters.cache_evictions > 0

    def test_behavior_queries_bypass_the_cache(self):
        classifier = fresh_classifier()
        header = sample_headers(classifier, 1)[0]

        async def scenario():
            async with QueryService(
                classifier, max_delay_s=0, cache_size=64
            ) as service:
                await service.query(header, "b1")
                await service.query(header, "b1")
                return service.counters, service.metrics()

        counters, metrics = run(scenario())
        assert counters.cache_hits == 0
        assert counters.cache_misses == 0
        assert metrics["result_cache"]["entries"] == 0


class TestCoalescing:
    def test_duplicate_inflight_requests_share_one_batch_slot(self):
        classifier = fresh_classifier()
        header = sample_headers(classifier, 1)[0]
        expected = classifier.tree.classify(header)

        async def scenario():
            async with QueryService(
                classifier, max_delay_s=0.01, cache_size=64
            ) as service:
                results = await asyncio.gather(
                    *(service.classify(header) for _ in range(16))
                )
                return results, service.counters

        results, counters = run(scenario())
        assert results == [expected] * 16
        # One leader took a queue slot; fifteen duplicates coalesced.
        assert counters.cache_coalesced == 15
        assert counters.batched_requests == 1
        assert counters.served == 16

    def test_coalescing_works_with_the_cache_disabled(self):
        classifier = fresh_classifier()
        header = sample_headers(classifier, 1)[0]

        async def scenario():
            async with QueryService(
                classifier, max_delay_s=0.01, cache_size=0
            ) as service:
                results = await asyncio.gather(
                    *(service.classify(header) for _ in range(8))
                )
                return results, service.counters

        results, counters = run(scenario())
        assert len(set(results)) == 1
        assert counters.cache_coalesced == 7
        assert counters.batched_requests == 1

    def test_waiter_timeout_leaves_the_shared_request_running(self):
        """A coalesced waiter's timeout must not cancel the future under
        the leader (shield semantics): the leader still gets its answer
        and the result still lands in the cache."""
        classifier = fresh_classifier()
        header = sample_headers(classifier, 1)[0]
        expected = classifier.tree.classify(header)

        async def scenario():
            async with QueryService(
                classifier, max_delay_s=0, cache_size=64
            ) as service:
                # Hold the swap lock's write side so the dispatcher
                # cannot serve the batch while the waiter times out.
                async with service._swap_lock.write():
                    leader = asyncio.ensure_future(service.classify(header))
                    await asyncio.sleep(0.01)  # leader is queued
                    with pytest.raises(asyncio.TimeoutError):
                        await service.classify(header, timeout=0.01)
                answer = await leader
                return answer, service.counters

        answer, counters = run(scenario())
        assert answer == expected
        assert counters.timeouts == 1
        assert counters.cache_coalesced == 1


class TestLoopFairness:
    def test_hit_streaks_cannot_starve_other_tasks(self):
        """A hit answers without suspending, so an all-hits caller loop
        would monopolize the event loop forever if the service never
        yielded.  The periodic yield must let a concurrently scheduled
        task run within a bounded number of hits."""
        classifier = fresh_classifier()
        header = sample_headers(classifier, 1)[0]

        async def scenario():
            async with QueryService(
                classifier, max_delay_s=0, cache_size=64
            ) as service:
                await service.classify(header)  # prime the cache
                state = {"stop": False, "hits": 0}

                async def hot_loop():
                    # Bounded so a regression fails loudly instead of
                    # hanging the suite: without the yield, stop is
                    # never observed and the bound is exhausted.
                    while not state["stop"] and state["hits"] < 1_000_000:
                        await service.classify(header)
                        state["hits"] += 1

                async def stopper():
                    state["stop"] = True

                loop_task = asyncio.ensure_future(hot_loop())
                stop_task = asyncio.ensure_future(stopper())
                await asyncio.gather(loop_task, stop_task)
                return state["hits"]

        hits = run(scenario())
        assert hits < 10_000


class TestInvalidation:
    def test_rule_update_retires_cached_generation(self):
        classifier = fresh_classifier()
        headers = sample_headers(classifier, 16)

        async def scenario():
            async with QueryService(
                classifier, max_delay_s=0, cache_size=64
            ) as service:
                for header in headers:
                    await service.classify(header)
                generation = service.generation.number
                compiled = classifier.compiled
                await service.insert_rule("b1", drop_rule())
                assert service.generation.number == generation + 1
                assert len(service.generation.cache) == 0
                # Post-update answers come from the patched program (on
                # the toy, compacted at once), not the retired cache.
                assert classifier._engine.patches == 1 and compiled.patched
                assert classifier.compiled_fresh
                answers = [await service.classify(h) for h in headers]
                return answers, service.counters

        answers, counters = run(scenario())
        assert answers == [classifier.universe.classify(h) for h in headers]
        assert counters.cache_invalidations >= 1

    def test_adopt_generation_never_serves_pre_swap_atom_id(self):
        classifier = fresh_classifier()
        header = sample_headers(classifier, 1)[0]
        replacement = fresh_classifier()
        truth = replacement.tree.classify(header)
        poison = truth + 1000  # an atom id no generation ever assigned

        async def scenario():
            async with QueryService(
                classifier, max_delay_s=0, cache_size=64
            ) as service:
                await service.classify(header)
                # Plant a poisoned pre-swap entry and prove it is live.
                service.generation.cache.put(header, poison)
                assert await service.classify(header) == poison
                await service.adopt_generation(replacement)
                post_swap = await service.classify(header)
                return post_swap, service.counters

        post_swap, counters = run(scenario())
        assert post_swap == truth
        assert post_swap != poison
        assert counters.cache_invalidations >= 1
        assert counters.swaps == 1

    def test_reconstruct_retires_cached_generation(self):
        classifier = fresh_classifier()
        header = sample_headers(classifier, 1)[0]

        async def scenario():
            async with QueryService(
                classifier, max_delay_s=0, cache_size=64
            ) as service:
                await service.insert_rule("b1", drop_rule())
                assert classifier.compiled_fresh
                await service.classify(header)
                service.generation.cache.put(header, 424242)
                assert await service.classify(header) == 424242
                await service.reconstruct()
                post_swap = await service.classify(header)
                return post_swap, service.counters

        post_swap, counters = run(scenario())
        assert post_swap != 424242
        assert post_swap == classifier.universe.classify(header)
        assert classifier.compiled_fresh
        assert counters.swaps == 1

    def test_out_of_band_mutation_invalidates_via_staleness_stamp(self):
        """The tree changes behind the service's back (no
        insert_rule/adopt/reconstruct call), so only the generation
        record's tree identity and version can catch it -- and they
        must, before a single post-mutation query is answered from the
        cache.  The classifier keeps its program fresh, so freshness
        cannot.  A reconstruction puts a new tree at version 0, which
        the version alone cannot tell from the fresh build's."""

        def insert(classifier):
            classifier.insert_rule("b1", drop_rule())

        def insert_and_reconstruct(classifier):
            insert(classifier)
            classifier.reconstruct()
            classifier.compile()

        for mutate in (insert, insert_and_reconstruct):
            classifier = fresh_classifier()
            header = sample_headers(classifier, 1)[0]

            async def scenario():
                async with QueryService(
                    classifier, max_delay_s=0, cache_size=64
                ) as service:
                    await service.classify(header)
                    service.generation.cache.put(header, 515151)
                    assert await service.classify(header) == 515151
                    # Mutate the shared classifier directly: no writer
                    # of the service runs.
                    mutate(classifier)
                    assert classifier.compiled_fresh
                    invalidations = service.counters.cache_invalidations
                    answer = await service.classify(header)
                    return answer, invalidations, service.counters

            answer, before, counters = run(scenario())
            assert answer != 515151
            assert answer == classifier.universe.classify(header)
            assert counters.cache_invalidations == before + 1


class TestObservability:
    def test_snapshot_serve_section_carries_cache_counters(self):
        classifier = fresh_classifier()
        recorder = Recorder()
        classifier.set_recorder(recorder)
        headers = sample_headers(classifier, 8)

        async def scenario():
            async with QueryService(
                classifier,
                max_delay_s=0,
                cache_size=64,
                recorder=recorder,
            ) as service:
                for _ in range(2):
                    for header in headers:
                        await service.classify(header)
                await service.insert_rule("b1", drop_rule())

        run(scenario())
        snapshot = validate_snapshot(recorder.snapshot())
        assert snapshot["updates"]["stale_fallbacks"]["total"] == 0
        assert snapshot["schema"] == "repro.obs.snapshot/9"
        section = snapshot["serve"]["result_cache"]
        assert section["hits"] >= len(set(headers))
        assert section["invalidations"] >= 1
        assert section["coalesced"] >= 0
        assert 0.0 < section["hit_rate"] <= 1.0
