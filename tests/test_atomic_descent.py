"""Atoms a new predicate touches, found by descending the live AP Tree.

``AtomicUniverse.add_predicate`` takes its candidate atoms from the AP
Tree's labels instead of testing every live atom, and so does
``AtomicUniverse.replace_predicate`` for ``delta = p_old ^ p_new``.  The
flat scans they replace are kept here as the references: run side by
side on two builds of one network, the two must agree bit for bit --
atom ids, BDD node ids, ``R`` sets, the splits handed to the tree and
the compiled patch, and the bytes ``persist.save`` writes.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from unittest import mock

import pytest

from repro import persist
from repro.artifact import classifier_bytes
from repro.core.atomic import AtomicUniverse, LeafSplit, TreeMismatch
from repro.core.classifier import APClassifier
from repro.core.construction import build_tree
from repro.core.update import UpdateEngine
from repro.datasets import rule_update_stream
from repro.datasets.registry import derive_seed, get_scenario, list_scenarios
from repro.network.dataplane import DataPlane

#: Updates per scenario in the registry-wide sweep; stanford also runs
#: its whole canonical stream (200 updates) below.
SWEEP_UPDATES = 24


def flat_add_predicate(self, pid, fn, tree=None) -> list[LeafSplit]:
    """``add_predicate`` as a flat scan: one test per live atom."""
    self._register_predicate(pid, fn)
    relation = self.manager.relation
    splits = []
    for atom_id in list(self._atoms):
        atom = self._atoms[atom_id]
        rel = relation(atom.node, fn.node)
        if rel == 2:
            splits.append(LeafSplit(atom_id, None, atom_id))
            continue
        if rel == 1:
            self._r[pid].add(atom_id)
            self._containing[atom_id].add(pid)
            splits.append(LeafSplit(atom_id, atom_id, None))
            continue
        in_id = self._mint_atom(atom & fn)
        out_id = self._mint_atom(atom - fn)
        for member_pid in self._containing[atom_id]:
            for child_id in (in_id, out_id):
                self._r[member_pid].add(child_id)
                self._containing[child_id].add(member_pid)
        self._r[pid].add(in_id)
        self._containing[in_id].add(pid)
        self._drop_atom(atom_id)
        splits.append(LeafSplit(atom_id, in_id, out_id))
    return splits


def flat_touched(self, root, p) -> dict[int, int]:
    """``_touched`` as a flat scan: every live atom is undecided."""
    return dict.fromkeys(self._atoms, 0)


def counting(manager, log: list, kind: str, call):
    """Run ``call()`` and log what it returned with the number of
    ``relation`` tests it made."""
    relation = manager.relation
    tests = []

    def counted(u, v):
        tests.append(u)
        return relation(u, v)

    manager.relation = counted
    try:
        result = call()
    finally:
        del manager.relation
    log.append((kind, len(tests), result))
    return result


@contextmanager
def recording(log: list, flat: bool):
    """Run ``add_predicate`` and ``replace_predicate`` (or their flat
    references) and log their splits with the number of ``relation``
    tests each made."""
    inner_add = flat_add_predicate if flat else AtomicUniverse.add_predicate
    inner_replace = AtomicUniverse.replace_predicate

    def logged_add(self, pid, fn, tree=None):
        return counting(
            self.manager, log, "add", lambda: inner_add(self, pid, fn, tree)
        )

    def logged_replace(self, old_pid, pid, fn, tree):
        def call():
            if not flat:
                return inner_replace(self, old_pid, pid, fn, tree)
            with mock.patch.object(AtomicUniverse, "_touched", flat_touched):
                return inner_replace(self, old_pid, pid, fn, tree)

        return counting(self.manager, log, "replace", call)

    with mock.patch.object(AtomicUniverse, "add_predicate", logged_add), \
            mock.patch.object(
                AtomicUniverse, "replace_predicate", logged_replace
            ):
        yield


def apply(classifier: APClassifier, update) -> None:
    if update.kind == "insert":
        classifier.insert_rule(update.box, update.rule)
    else:
        classifier.remove_rule(update.box, update.rule)


def state_of(universe: AtomicUniverse):
    """Atoms with their BDD nodes, ``R`` sets, memberships, node table."""
    return (
        [(atom_id, fn.node) for atom_id, fn in universe.atoms().items()],
        {pid: sorted(universe.r(pid)) for pid in universe.predicate_ids()},
        {a: sorted(universe.memberships(a)) for a in universe.atom_ids()},
        len(universe.manager),
    )


def state(classifier: APClassifier):
    """:func:`state_of` the universe, plus the tree's leaves and depths."""
    return state_of(classifier.universe), classifier.tree.leaf_depths()


def dead_labels(classifier: APClassifier) -> int:
    universe = classifier.universe
    return sum(
        1
        for node in classifier.tree._walk()
        if not node.is_leaf and not universe.has_predicate(node.pid)
    )


def lockstep(name: str, maintenance: str, updates, tmp_path) -> dict:
    """Drive the descent and the flat scan through one stream, comparing
    after every update; returns what the two did."""
    # Two scenario objects: each caches (and updates mutate) its network.
    subject = APClassifier.build(
        get_scenario(name).network(), maintenance=maintenance
    )
    reference = APClassifier.build(
        get_scenario(name).network(), maintenance=maintenance
    )
    subject.compile()
    reference.compile()
    assert state(subject) == state(reference)
    mine: list = []
    theirs: list = []
    seen = {
        "adds": 0, "replaces": 0, "tests": 0, "flat_tests": 0,
        "dead_labels": 0,
    }
    for update in updates:
        with recording(theirs, flat=True):
            apply(reference, update)
        with recording(mine, flat=False):
            apply(subject, update)
        assert len(mine) == len(theirs)
        for (kind, tests, got), (flat_kind, flat_tests, want) in zip(
            mine, theirs
        ):
            assert kind == flat_kind
            if kind == "replace":
                # The same delta node and the same flips and cuts, in
                # the same order: only atoms delta meets are reported.
                (delta, flips), (flat_delta, flat_flips) = got, want
                assert (delta.node, flips) == (flat_delta.node, flat_flips)
                seen["replaces"] += 1
            else:
                # The same splits in the same order reach the tree and
                # the compiled patch; every atom p meets has its
                # LeafSplit, and any extra one only says "disjoint".
                assert [s for s in got if s.is_split] == [
                    s for s in want if s.is_split
                ]
                met = [s for s in want if s.inside_id is not None]
                assert [s for s in got if s.inside_id is not None] == met
                assert set(got) <= set(want)
                seen["adds"] += 1
            seen["tests"] += tests
            seen["flat_tests"] += flat_tests
        mine.clear()
        theirs.clear()
        assert state(subject) == state(reference)
        assert subject.compiled_fresh == reference.compiled_fresh
        seen["dead_labels"] = max(seen["dead_labels"], dead_labels(subject))
    # The classifier half alone first: saving compacts a patched program.
    assert classifier_bytes(subject) == classifier_bytes(reference)
    mine_path = tmp_path / f"{name}-{maintenance}-descent.apc"
    ref_path = tmp_path / f"{name}-{maintenance}-flat.apc"
    persist.save(subject, mine_path)
    persist.save(reference, ref_path)
    assert mine_path.read_bytes() == ref_path.read_bytes()
    return seen


class TestDescentMatchesFlatScan:
    @pytest.mark.parametrize("maintenance", ["tombstone", "incremental"])
    @pytest.mark.parametrize("name", list_scenarios())
    def test_every_scenario_under_a_seeded_stream(self, name, maintenance, tmp_path):
        network = get_scenario(name).network()
        rng = random.Random(derive_seed(7919, f"descent:{name}"))
        updates = rule_update_stream(network, SWEEP_UPDATES, rng)
        seen = lockstep(name, maintenance, updates, tmp_path)
        # The tombstone engine removes then adds; the incremental one
        # replaces each changed predicate in place.
        assert seen["adds" if maintenance == "tombstone" else "replaces"] > 0

    @pytest.mark.parametrize("maintenance", ["tombstone", "incremental"])
    def test_canonical_stanford_stream(self, maintenance, tmp_path):
        updates = get_scenario("stanford").update_stream()
        seen = lockstep("stanford", maintenance, updates, tmp_path)
        # The labels rule out most atoms before any atom is tested: label
        # and leaf tests together stay far below one test per atom.
        assert seen["tests"] * 4 < seen["flat_tests"]

    def test_a_tree_with_tombstoned_labels(self, tmp_path):
        updates = get_scenario("internet2").update_stream(60)
        seen = lockstep("internet2", "tombstone", updates, tmp_path)
        assert seen["dead_labels"] > 0


class TestTreeless:
    def test_every_atom_is_a_candidate(self):
        results = []
        for add in (flat_add_predicate, AtomicUniverse.add_predicate):
            plane = DataPlane(get_scenario("acl-heavy").network())
            predicates = plane.predicates()
            universe = AtomicUniverse.compute(plane.manager, predicates[:-3])
            splits = [add(universe, p.pid, p.fn) for p in predicates[-3:]]
            results.append((splits, state_of(universe)))
        assert results[0] == results[1]

    def test_engine_without_a_tree(self):
        states = []
        for flat in (True, False):
            scenario = get_scenario("stanford")
            plane = DataPlane(scenario.network())
            universe = AtomicUniverse.compute(plane.manager, plane.predicates())
            engine = UpdateEngine(universe, None)
            log: list = []
            with recording(log, flat=flat):
                for update in scenario.update_stream(30):
                    change = (
                        plane.insert_rule if update.kind == "insert"
                        else plane.remove_rule
                    )(update.box, update.rule)
                    engine.apply_all(change)
            states.append(([splits for _, _, splits in log], state_of(universe)))
        assert states[0] == states[1]


class TestTreeMismatch:
    def test_leaf_count_disagreeing_with_the_universe_raises(self):
        plane = DataPlane(get_scenario("toy").network())
        predicates = plane.predicates()
        universe = AtomicUniverse.compute(plane.manager, predicates)
        coarser = AtomicUniverse.compute(plane.manager, predicates[:-1])
        stale = build_tree(coarser).tree
        assert stale.leaf_count() != universe.atom_count
        before = state_of(universe)
        fn = predicates[0].fn
        with pytest.raises(TreeMismatch, match="leaves for"):
            universe.add_predicate(999, fn, stale)
        # Refused before anything changed.
        assert not universe.has_predicate(999)
        assert state_of(universe) == before
