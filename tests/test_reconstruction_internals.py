"""Edge-case tests for the dynamic simulation internals and batch
classification."""

from __future__ import annotations

import random

import pytest

from repro.core.reconstruction import DynamicSimulation
from repro.datasets import internet2_like, uniform_over_atoms
from repro.network.dataplane import DataPlane, LabeledPredicate, PredicateChange


@pytest.fixture(scope="module")
def pool():
    return DataPlane(internet2_like(prefixes_per_router=2)).predicates()


class TestPickUpdateFallbacks:
    def test_add_falls_back_when_reserve_empty(self, pool):
        sim = DynamicSimulation(
            pool, initial_count=len(pool), rng=random.Random(0), cost_samples=10
        )
        # Reserve is empty: an "add" must become a delete.
        change = sim._pick_update("add")
        assert change.added is None
        assert change.removed.pid in sim._live

    def test_delete_falls_back_when_one_left(self, pool):
        sim = DynamicSimulation(
            pool, initial_count=1, rng=random.Random(1), cost_samples=10
        )
        change = sim._pick_update("delete")
        assert change.removed is None
        # The full labeled predicate rides the journal, not a bare fn.
        assert isinstance(change.added, LabeledPredicate)
        assert change.added.fn is not None

    def test_synthetic_pids_never_collide(self, pool):
        sim = DynamicSimulation(
            pool,
            initial_count=len(pool) // 2,
            rng=random.Random(2),
            cost_samples=10,
        )
        existing = {lp.pid for lp in pool}
        minted = set()
        for _ in range(10):
            change = sim._pick_update("add")
            if change.added is None:
                break
            assert change.added.pid not in existing
            assert change.added.pid not in minted
            minted.add(change.added.pid)
            sim._apply_update(sim._process, change)

    def test_add_then_delete_round_trip(self, pool):
        sim = DynamicSimulation(
            pool,
            initial_count=len(pool) // 2,
            rng=random.Random(3),
            cost_samples=10,
        )
        live_before = set(sim._live)
        change = sim._pick_update("add")
        sim._apply_update(sim._process, change)
        assert change.added.pid in sim._live
        sim._apply_update(sim._process, PredicateChange(change.added, None))
        assert set(sim._live) == live_before


class TestClassifyMany:
    def test_matches_single_classify(self, internet2_classifier):
        rng = random.Random(4)
        trace = uniform_over_atoms(internet2_classifier.universe, 100, rng)
        batch = internet2_classifier.tree.classify_many(trace.headers)
        singles = [internet2_classifier.tree.classify(h) for h in trace.headers]
        assert batch == singles

    def test_empty_batch(self, internet2_classifier):
        assert internet2_classifier.tree.classify_many([]) == []
