"""A changed predicate is replaced in place (``IncrementalEngine``).

When a change both removes and adds, the incremental engine touches only
the atoms ``delta = p_old ^ p_new`` meets: whole flips, cuts into a kept
and a flipped part, and merges of a flipped atom with its twin.  After
every change the maintained universe must equal a from-scratch build,
the AP Tree must be a valid tree over it (live labels, one leaf per
atom, an exact leaf index, no pid twice on a path), and the interpreted
tree and the patched compiled program must classify like the universe.
"""

from __future__ import annotations

import random
from unittest import mock

import pytest

from repro.bdd import BDDManager, Function
from repro.core.aptree import APTree, build_ap_tree
from repro.core.atomic import AtomicUniverse
from repro.core.classifier import APClassifier
from repro.core.incremental import IncrementalEngine
from repro.core.weights import VisitCounter
from repro.datasets import uniform_over_atoms
from repro.datasets.registry import get_scenario
from repro.network.dataplane import LabeledPredicate, PredicateChange
from repro.network.tables import Acl
from repro.obs import Recorder

STREAM = 30


def assert_exact(universe: AtomicUniverse, tree: APTree, predicates) -> None:
    """``universe`` equals a from-scratch build over ``predicates`` bit
    for bit, and ``tree`` is a valid AP Tree over it."""
    scratch = AtomicUniverse.compute(
        universe.manager, predicates
    ).renumber_canonical()
    maintained = universe.renumber_canonical()
    assert {a: fn.node for a, fn in maintained.atoms().items()} == {
        a: fn.node for a, fn in scratch.atoms().items()
    }
    for labeled in predicates:
        assert maintained.r(labeled.pid) == scratch.r(labeled.pid)
    leaves = {}
    stack = [(tree.root, frozenset())]
    while stack:
        node, above = stack.pop()
        if node.is_leaf:
            assert node.atom_id not in leaves
            leaves[node.atom_id] = node
            continue
        assert universe.has_predicate(node.pid)
        assert node.fn_node == universe.predicate_fn(node.pid).node
        assert node.pid not in above
        stack.append((node.low, above | {node.pid}))
        stack.append((node.high, above | {node.pid}))
    assert set(leaves) == set(universe.atom_ids())
    assert tree._leaf_index == leaves


def assert_classifies(classifier: APClassifier, seed: int) -> None:
    universe = classifier.universe
    headers = list(
        uniform_over_atoms(universe, 64, random.Random(seed)).headers
    )
    want = [universe.classify(h) for h in headers]
    assert classifier.tree.classify_many(headers) == want
    assert classifier.compiled_fresh
    assert classifier.classify_batch(headers) == want


def spy_replaces():
    """Count ``IncrementalEngine.replace_predicate`` calls, running the
    real method."""
    return mock.patch.object(
        IncrementalEngine,
        "replace_predicate",
        autospec=True,
        side_effect=IncrementalEngine.replace_predicate,
    )


def apply(classifier: APClassifier, update):
    if update.kind == "insert":
        return classifier.insert_rule(update.box, update.rule)
    return classifier.remove_rule(update.box, update.rule)


class TestStreams:
    @pytest.mark.parametrize(
        "name", ["stanford", "acl-heavy", "ipv6-wan", "clos-ecmp"]
    )
    def test_every_change_matches_a_scratch_build(self, name):
        classifier = APClassifier.build(
            get_scenario(name).network(),
            maintenance="incremental",
            count_visits=True,
        )
        classifier.compile()
        engine = classifier._engine
        counter = classifier.counter
        with spy_replaces() as replaces:
            for step, update in enumerate(
                get_scenario(name).update_stream(STREAM)
            ):
                apply(classifier, update)
                assert_exact(
                    classifier.universe,
                    classifier.tree,
                    classifier.dataplane.predicates(),
                )
                # Visits carry over splits and merges: none is lost,
                # and every counted atom is live.
                counts = counter.as_mapping()
                assert sum(counts.values()) == counter.total
                assert set(counts) <= classifier.universe.atom_ids()
                assert_classifies(classifier, step)
        assert replaces.call_count > 0
        assert engine.full_rebuilds == 0

    def test_input_acl_change(self):
        classifier = APClassifier.build(
            get_scenario("acl-heavy").network(), maintenance="incremental"
        )
        classifier.compile()
        plane = classifier.dataplane
        # The scenario filters on output ports: install one of its lists
        # on an input port (a pure addition), then change it (a pair).
        rules = list(plane.network.box("fw").output_acls["cust0"])
        classifier.apply_changes(plane.set_input_acl("fw", "cust0", Acl(rules)))
        changes = plane.set_input_acl("fw", "cust0", Acl(rules[1:]))
        assert len(changes) == 1
        assert changes[0].removed is not None and changes[0].added is not None
        (result,) = classifier.apply_changes(changes)
        assert result.tombstoned > 0
        assert_exact(classifier.universe, classifier.tree, plane.predicates())
        assert_classifies(classifier, 0)


# ----------------------------------------------------------------------
# Hand-built trees over three variables: each case pins one shape
# ----------------------------------------------------------------------


class Hand:
    """A universe over three variables, its tree built in a fixed label
    order, and an incremental engine over both."""

    def __init__(self, predicates: dict[int, Function], order: list[int]):
        self.manager = manager = BDDManager(3)
        self.x = [Function.variable(manager, i) for i in range(3)]
        self.live = {
            pid: LabeledPredicate(pid, "forward", "b", f"p{pid}", build(self.x))
            for pid, build in predicates.items()
        }
        self.universe = AtomicUniverse.compute(
            manager, list(self.live.values())
        )
        self.tree = build_ap_tree(
            self.universe, lambda candidates, atoms: min(
                candidates, key=order.index
            )
        )
        self.counter = VisitCounter()
        self.engine = IncrementalEngine(self.universe, self.tree, self.counter)

    def replace(self, old_pid: int, pid: int, build):
        labeled = LabeledPredicate(pid, "forward", "b", f"p{pid}", build(self.x))
        result = self.engine.apply(
            PredicateChange(self.live.pop(old_pid), labeled)
        )
        self.live[pid] = labeled
        assert_exact(self.universe, self.tree, list(self.live.values()))
        for header in range(8):
            assert self.tree.classify(header) == self.universe.classify(header)
        return result

    def labels(self) -> set[int]:
        return {n.pid for n in self.tree._walk() if not n.is_leaf}


class TestShapes:
    def test_merge_across_a_p_old_node(self):
        # A = x0 sits above O = x1, which separates A&O from A&~O.  The
        # part of A&~O inside x2 joins N, where A&O already is: the two
        # merge although O's node stood between them.
        hand = Hand({0: lambda x: x[0], 1: lambda x: x[1]}, [0, 1])
        result = hand.replace(1, 2, lambda x: x[1] | (x[0] & x[2]))
        assert hand.engine.merges_applied == 1
        assert result.atoms_split == 1 and result.tombstoned == 1
        assert hand.universe.atom_count == 4

    def test_split_with_no_p_old_node_on_its_path(self):
        # O = x0&x1 only ever split A = x0's high side; the ~x0 leaf has
        # no O on its path, so the cut of ~x0 grows an N node in place.
        hand = Hand({0: lambda x: x[0], 1: lambda x: x[0] & x[1]}, [0, 1])
        leaf = hand.tree.root.low
        result = hand.replace(
            1, 2, lambda x: (x[0] & x[1]) | (~x[0] & x[2])
        )
        assert result.atoms_split == 1
        assert leaf.pid == 2 and leaf.high.is_leaf and leaf.low.is_leaf
        assert hand.engine.merges_applied == 0

    def test_a_p_old_side_flips_away(self):
        # O = x0&x1 under A = x0: its whole high side (A&O) flips out of
        # N = x0&~x1&x2, so O's node collapses into its low side, which
        # Δ cuts; the flipped atom then merges with the kept part.
        hand = Hand({0: lambda x: x[0], 1: lambda x: x[0] & x[1]}, [0, 1])
        result = hand.replace(1, 2, lambda x: x[0] & ~x[1] & x[2])
        assert result.atoms_split == 1 and result.tombstoned == 2
        assert hand.engine.merges_applied == 1
        assert hand.labels() == {0, 2}

    def test_counter_and_accounting(self):
        hand = Hand({0: lambda x: x[0], 1: lambda x: x[1]}, [0, 1])
        for header in range(8):
            hand.counter.record(hand.tree.classify(header), header + 1)
        total = hand.counter.total
        recorder = Recorder()
        hand.engine.recorder = recorder
        hand.replace(1, 2, lambda x: x[1] | (x[0] & x[2]))
        counts = hand.counter.as_mapping()
        assert sum(counts.values()) == total
        assert set(counts) <= hand.universe.atom_ids()
        updates = recorder.updates
        assert updates.updates_applied == updates.adds == updates.removes == 1
        assert updates.atoms_split == updates.leaf_splits == 1
        assert updates.split_events == 1
        assert updates.tombstoned == 1
        assert updates.incremental_merges == hand.engine.merges_applied == 1


class TestDepthBound:
    def test_no_walk_under_the_budget(self):
        classifier = APClassifier.build(
            get_scenario("stanford").network(), maintenance="incremental"
        )
        engine = classifier._engine
        with mock.patch.object(
            APTree, "leaf_depths", side_effect=AssertionError("walked")
        ), spy_replaces() as replaces:
            for update in get_scenario("stanford").update_stream(STREAM):
                apply(classifier, update)
        assert replaces.call_count > 0
        assert classifier.tree.max_depth() <= engine._depth_bound
        assert engine._depth_bound <= engine.depth_budget()

    def test_rebuilds_when_the_exact_depth_passes_the_budget(self):
        classifier = APClassifier.build(
            get_scenario("stanford").network(), maintenance="incremental"
        )
        engine = classifier._engine
        # A budget just above today's depth: some updates cross it.
        budget = classifier.tree.max_depth() + 1
        engine.depth_budget = lambda: budget
        rebuilt = []
        real = IncrementalEngine._full_rebuild

        def spied(self):
            rebuilt.append(self.tree.max_depth() > self.depth_budget())
            real(self)

        with mock.patch.object(IncrementalEngine, "_full_rebuild", spied):
            for update in get_scenario("stanford").update_stream(STREAM):
                before = len(rebuilt)
                apply(classifier, update)
                if len(rebuilt) == before:
                    assert classifier.tree.max_depth() <= engine.depth_budget()
        assert rebuilt and all(rebuilt)
        assert_exact(
            classifier.universe,
            classifier.tree,
            classifier.dataplane.predicates(),
        )


    def test_a_fresh_tree_is_never_over_its_budget(self):
        # clos-ecmp builds trees deeper than 4 * ceil(log2(atoms)) + 8;
        # a budget that ignored the built depth rebuilt on nearly every
        # update from ~1 060 of the canonical stream on.
        scenario = get_scenario("clos-ecmp")
        classifier = APClassifier.build(
            scenario.network(), maintenance="incremental"
        )
        classifier.compile()
        engine = classifier._engine
        assert classifier.tree.max_depth() <= engine.depth_budget()
        fresh = []
        real = IncrementalEngine._full_rebuild

        def spied(self):
            real(self)
            fresh.append(self.tree.max_depth() <= self.depth_budget())

        with mock.patch.object(IncrementalEngine, "_full_rebuild", spied):
            for update in get_scenario("clos-ecmp").update_stream(1500):
                apply(classifier, update)
        assert all(fresh)
        assert engine.full_rebuilds == len(fresh) <= 2
        assert classifier.tree.max_depth() <= engine.depth_budget()
        assert_exact(
            classifier.universe,
            classifier.tree,
            classifier.dataplane.predicates(),
        )
        assert_classifies(classifier, seed=5)

class TestReplay:
    def test_a_journal_pair_replays_in_place(self):
        # The journal holds one change per changed port of a few rule
        # updates; replayed onto the structures they started from, each
        # pair goes through the same replacement as it did live.
        scenario = get_scenario("stanford")
        live = APClassifier.build(scenario.network(), maintenance="incremental")
        snapshot = live.dataplane.predicates()
        journal = []
        for update in scenario.update_stream(6):
            change = (
                live.dataplane.insert_rule
                if update.kind == "insert"
                else live.dataplane.remove_rule
            )(update.box, update.rule)
            live.apply_changes(change)
            journal += change
        pairs = sum(
            1 for c in journal if c.removed is not None and c.added is not None
        )
        assert pairs > 0
        # A rebuild over the snapshot the journal starts from.
        universe = AtomicUniverse.compute(live.dataplane.manager, snapshot)
        tree = build_ap_tree(universe, lambda candidates, atoms: min(candidates))
        engine = IncrementalEngine(universe, tree)
        with spy_replaces() as replaces:
            assert engine.replay(journal) == len(journal)
        assert replaces.call_count == pairs
        assert_exact(universe, tree, live.dataplane.predicates())
