"""Incremental atom maintenance: equivalence, splices, patches, and the
bugfixes the incremental paths lean on.

The load-bearing property is *bit-identity*: a classifier maintained
incrementally through arbitrary churn must hold exactly the universe a
from-scratch build over the surviving predicates computes -- same atom
functions, same canonical ids, same ``R`` sets, same classifications.
Everything else (local splices, in-place compiled patches, merge
bookkeeping) is an optimization over that invariant.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.atomic import AtomicUniverse
from repro.core.classifier import APClassifier
from repro.core.construction import build_tree
from repro.core.incremental import IncrementalEngine
from repro.core.update import UpdateEngine
from repro.datasets import internet2_like, rule_update_stream
from repro.diff import diff_generations
from repro.network.dataplane import DataPlane, LabeledPredicate, PredicateChange
from repro.obs import Recorder, validate_snapshot


def fresh_classifier(maintenance: str = "incremental") -> APClassifier:
    return APClassifier.build(
        internet2_like(prefixes_per_router=2), maintenance=maintenance
    )


def apply_stream(classifier: APClassifier, updates) -> None:
    for update in updates:
        if update.kind == "insert":
            classifier.insert_rule(update.box, update.rule)
        else:
            classifier.remove_rule(update.box, update.rule)


def assert_matches_scratch_build(classifier: APClassifier) -> None:
    """The maintained universe == a from-scratch build, bit for bit."""
    reference = AtomicUniverse.compute(
        classifier.dataplane.manager, classifier.dataplane.predicates()
    )
    maintained = classifier.universe.renumber_canonical()
    scratch = reference.renumber_canonical()
    atoms_a = {aid: fn.node for aid, fn in maintained.atoms().items()}
    atoms_b = {aid: fn.node for aid, fn in scratch.atoms().items()}
    assert atoms_a == atoms_b
    for labeled in classifier.dataplane.predicates():
        assert maintained.r(labeled.pid) == scratch.r(labeled.pid)


class TestEquivalenceProperty:
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_incremental_bit_identical_to_scratch(self, seed):
        classifier = fresh_classifier("incremental")
        classifier.compile()
        updates = rule_update_stream(
            classifier.dataplane.network, 10, random.Random(seed)
        )
        apply_stream(classifier, updates)
        assert_matches_scratch_build(classifier)
        # The maintained tree covers the partition exactly: classify
        # agrees with direct atom-membership evaluation, compiled and
        # interpreted paths included.
        rng = random.Random(seed + 1)
        num_vars = classifier.dataplane.manager.num_vars
        headers = [rng.getrandbits(num_vars) for _ in range(128)]
        atoms = classifier.universe.atoms()
        tree_ids = classifier.tree.classify_many(headers)
        for header, atom_id in zip(headers, tree_ids):
            assert atoms[atom_id].evaluate(header)
        assert classifier.classify_batch(headers) == tree_ids

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_engines_agree_across_churn(self, seed):
        incremental = fresh_classifier("incremental")
        tombstone = fresh_classifier("tombstone")
        updates = rule_update_stream(
            incremental.dataplane.network, 8, random.Random(seed)
        )
        apply_stream(incremental, updates)
        apply_stream(tombstone, updates)
        # The engines number atoms differently (tombstone fragments,
        # incremental stays minimal), but both must classify every
        # header into an atom whose function covers it.
        rng = random.Random(seed + 1)
        for classifier in (incremental, tombstone):
            atoms = classifier.universe.atoms()
            num_vars = classifier.dataplane.manager.num_vars
            for _ in range(64):
                header = rng.getrandbits(num_vars)
                assert atoms[classifier.classify(header)].evaluate(header)
        # After the tombstone side coalesces, both partitions are the
        # same minimal one (different managers, so compare sizes and
        # per-predicate R cardinalities rather than node ids).
        tombstone.universe.coalesce()
        assert (
            incremental.universe.atom_count == tombstone.universe.atom_count
        )


class TestChurnStormSmoke:
    def test_storm_stays_incremental_and_hot(self):
        classifier = APClassifier.build(
            internet2_like(prefixes_per_router=4), maintenance="incremental"
        )
        classifier.compile()
        engine = classifier._engine
        assert isinstance(engine, IncrementalEngine)
        updates = rule_update_stream(
            classifier.dataplane.network, 40, random.Random(7)
        )
        for update in updates:
            if update.kind == "insert":
                classifier.insert_rule(update.box, update.rule)
            else:
                classifier.remove_rule(update.box, update.rule)
            # The compiled fast path never goes stale: every structural
            # change is patched (or eagerly recompiled) in the same
            # update.
            assert classifier.compiled_fresh
        assert engine.full_rebuilds == 0
        assert classifier.tree.max_depth() <= engine.depth_budget()
        assert engine.patches > 0
        assert_matches_scratch_build(classifier)

    def test_depth_budget_triggers_full_rebuild(self):
        classifier = fresh_classifier("incremental")
        engine = classifier._engine
        engine.depth_budget = lambda: 0  # any split now passes it
        updates = rule_update_stream(
            classifier.dataplane.network, 3, random.Random(3), insert_fraction=1.0
        )
        apply_stream(classifier, updates)
        assert engine.full_rebuilds > 0
        assert_matches_scratch_build(classifier)

    def test_stale_labels_rebuild_once_then_splice(self):
        # A tree with tombstone history hands the incremental engine dead
        # labels; the first removal must fall back to one full rebuild,
        # after which splices resume.
        classifier = fresh_classifier("tombstone")
        updates = rule_update_stream(
            classifier.dataplane.network, 6, random.Random(11), insert_fraction=1.0
        )
        apply_stream(classifier, updates)
        removals = [
            u for u in rule_update_stream(
                classifier.dataplane.network, 6, random.Random(11),
                insert_fraction=1.0,
            )
        ]
        classifier.remove_rule(removals[0].box, removals[0].rule)  # tombstones
        classifier.set_maintenance("incremental")
        engine = classifier._engine
        assert not engine._labels_live
        classifier.remove_rule(removals[1].box, removals[1].rule)
        assert engine.full_rebuilds == 1
        assert engine._labels_live
        assert_matches_scratch_build(classifier)


class TestObservability:
    def test_incremental_counters_and_schema(self):
        classifier = fresh_classifier("incremental")
        recorder = Recorder()
        classifier.set_recorder(recorder)
        classifier.compile()
        updates = rule_update_stream(
            classifier.dataplane.network, 12, random.Random(5)
        )
        apply_stream(classifier, updates)
        snapshot = validate_snapshot(recorder.snapshot())
        incremental = snapshot["updates"]["incremental"]
        assert incremental["patches"] == classifier._engine.patches > 0
        assert incremental["splices"] == classifier._engine.splices
        assert incremental["merges"] == classifier._engine.merges_applied
        assert incremental["full_rebuilds"] == 0
        assert snapshot["updates"]["tombstoned"] >= 0


class TestDeltaMemoization:
    def test_behavior_computed_once_per_atom(self):
        network_a = internet2_like(prefixes_per_router=2)
        classifier_a = APClassifier.build(network_a)
        network_b = internet2_like(prefixes_per_router=2)
        dataplane_b = DataPlane(network_b, classifier_a.dataplane.manager)
        from repro.headerspace.fields import parse_ipv4
        from repro.network.rules import ForwardingRule, Match

        dataplane_b.insert_rule(
            "HOUS",
            ForwardingRule(
                Match.prefix("dst_ip", parse_ipv4("10.1.0.0"), 24),
                ("to_KANS",),
                priority=24,
            ),
        )
        classifier_b = APClassifier.from_dataplane(dataplane_b)

        calls = {"a": 0, "b": 0}
        original_a = classifier_a.behavior_of_atom
        original_b = classifier_b.behavior_of_atom
        classifier_a.behavior_of_atom = lambda *args, **kw: (
            calls.__setitem__("a", calls["a"] + 1) or original_a(*args, **kw)
        )
        classifier_b.behavior_of_atom = lambda *args, **kw: (
            calls.__setitem__("b", calls["b"] + 1) or original_b(*args, **kw)
        )
        diff_generations(classifier_a, classifier_b, "SEAT")
        # Memoized: at most one behavior computation per atom per side,
        # not one per (before, after) overlap pair.
        assert 0 < calls["a"] <= classifier_a.universe.atom_count
        assert 0 < calls["b"] <= classifier_b.universe.atom_count


class TestReplayCarriesLabels:
    def test_replay_passes_original_labeled_predicate(self, toy_dataplane):
        universe = AtomicUniverse.compute(
            toy_dataplane.manager, toy_dataplane.predicates()
        )
        captured = []

        class SpyEngine(UpdateEngine):
            def add_predicate(self, labeled):
                captured.append(labeled)
                return super().add_predicate(labeled)

        engine = SpyEngine(universe, None)
        template = toy_dataplane.predicates()[0]
        labeled = LabeledPredicate(
            9001, template.kind, template.box, template.port, template.fn
        )
        never_seen = LabeledPredicate(
            123456, template.kind, template.box, template.port, template.fn
        )
        replayed = engine.replay(
            [
                PredicateChange(None, labeled),
                PredicateChange(never_seen, None),
                PredicateChange(None, template),
            ]
        )
        # The original object rides the journal -- not a re-fabricated
        # predicate with made-up provenance; the removal of a pid the
        # universe never held and the addition of one it already holds
        # are skipped and not counted.
        assert captured == [labeled]
        assert captured[0] is labeled
        assert replayed == 1


class TestReplayEqualsScratchBuild:
    """Fig. 8's replay: a universe that predates a journal, brought
    forward by ``replay``, is the universe a from-scratch ``compute``
    over the final predicate set yields."""

    @settings(max_examples=15, deadline=None)
    @given(
        engine_cls=st.sampled_from([UpdateEngine, IncrementalEngine]),
        initial=st.integers(min_value=1, max_value=12),
        ops=st.lists(
            st.tuples(st.booleans(), st.integers(min_value=0)), max_size=8
        ),
    )
    def test_replayed_interleaving_matches_compute(
        self, engine_cls, initial, ops
    ):
        pool = DataPlane(internet2_like(prefixes_per_router=2)).predicates()
        manager = pool[0].fn.manager
        live = {lp.pid: lp for lp in pool[:initial]}
        reserve = pool[initial:]
        universe = AtomicUniverse.compute(manager, list(live.values()))
        tree = build_tree(universe, rng=random.Random(0)).tree
        journal = []
        for add, pick in ops:
            if add and reserve:
                labeled = reserve.pop(pick % len(reserve))
                live[labeled.pid] = labeled
                journal.append(PredicateChange(None, labeled))
            elif len(live) > 1:
                labeled = live.pop(sorted(live)[pick % len(live)])
                journal.append(PredicateChange(labeled, None))
        engine = engine_cls(universe, tree)
        assert engine.replay(journal) == len(journal)

        scratch = AtomicUniverse.compute(manager, list(live.values()))
        rng = random.Random(0)
        for atom_fn in scratch.atoms().values():
            header = atom_fn.random_sat(rng)
            assert universe.memberships(tree.classify(header)) == (
                scratch.memberships(scratch.classify(header))
            )
        if engine_cls is UpdateEngine:
            universe.coalesce()  # tombstones fragment until coalesced
        assert universe.atom_count == scratch.atom_count


class TestTombstonedAccounting:
    def test_pure_removal_reports_tombstoned(self, toy_dataplane):
        universe = AtomicUniverse.compute(
            toy_dataplane.manager, toy_dataplane.predicates()
        )
        recorder = Recorder()
        engine = UpdateEngine(universe, None, recorder=recorder)
        victim = toy_dataplane.predicates()[0]
        expected = len(universe.r(victim.pid))
        assert expected > 0
        results = engine.apply_all(
            [PredicateChange(removed=victim, added=None)]
        )
        assert len(results) == 1
        assert results[0].atoms_split == 0
        assert results[0].tombstoned == expected
        assert recorder.updates.tombstoned == expected
