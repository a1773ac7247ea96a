"""Atom refinement that only touches what a predicate cuts.

``AtomicUniverse.compute`` walks a refinement history tree with the
non-constructing ``BDDManager.relation`` test instead of conjoining every
live atom with every predicate.  The flat loop it replaced is kept here as
the reference: the two must agree bit for bit -- atom ids, BDD node ids,
``R`` sets and the size of the node table.
"""

from __future__ import annotations

import inspect
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import FALSE, TRUE, BDDManager, Function
from repro.core.atomic import AtomicUniverse, LeafSplit
from repro.datasets.registry import get_scenario, list_scenarios
from repro.network.dataplane import DataPlane, LabeledPredicate

NUM_VARS = 6


# ----------------------------------------------------------------------
# References: the flat loops as they were before the refinement tree
# ----------------------------------------------------------------------


def flat_compute(manager, predicates) -> AtomicUniverse:
    """Split every live class by every predicate in turn."""
    universe = AtomicUniverse(manager)
    root = universe._mint_atom(Function.true(manager))
    memberships = {root: set()}
    for labeled in predicates:
        universe._register_predicate(labeled.pid, labeled.fn)
        replacements = {}
        for atom_id, inside_pids in memberships.items():
            atom = universe._atoms[atom_id]
            inside = atom & labeled.fn
            if inside.is_false:
                continue
            outside = atom - labeled.fn
            if outside.is_false:
                inside_pids.add(labeled.pid)
                continue
            in_id = universe._mint_atom(inside)
            out_id = universe._mint_atom(outside)
            universe._drop_atom(atom_id)
            replacements[atom_id] = (
                (in_id, inside_pids | {labeled.pid}),
                (out_id, set(inside_pids)),
            )
        for old_id, children in replacements.items():
            del memberships[old_id]
            memberships.update(children)
    for atom_id, inside_pids in memberships.items():
        for pid in inside_pids:
            universe._r[pid].add(atom_id)
            universe._containing[atom_id].add(pid)
    return universe


def flat_add_predicate(universe, pid, fn) -> list[LeafSplit]:
    """``add_predicate`` deciding each atom's side by building both halves."""
    universe._register_predicate(pid, fn)
    splits = []
    for atom_id in list(universe._atoms):
        atom = universe._atoms[atom_id]
        inside = atom & fn
        if inside.is_false:
            splits.append(LeafSplit(atom_id, None, atom_id))
            continue
        outside = atom - fn
        if outside.is_false:
            universe._r[pid].add(atom_id)
            universe._containing[atom_id].add(pid)
            splits.append(LeafSplit(atom_id, atom_id, None))
            continue
        in_id = universe._mint_atom(inside)
        out_id = universe._mint_atom(outside)
        for member_pid in universe._containing[atom_id]:
            for child_id in (in_id, out_id):
                universe._r[member_pid].add(child_id)
                universe._containing[child_id].add(member_pid)
        universe._r[pid].add(in_id)
        universe._containing[in_id].add(pid)
        universe._drop_atom(atom_id)
        splits.append(LeafSplit(atom_id, in_id, out_id))
    return splits


def count_applies(manager: BDDManager) -> list[int]:
    """Log the op code of every top-level apply ``manager`` runs from now on."""
    applies: list[int] = []
    original = manager._top_apply

    def logged(op: int, u: int, v: int) -> int:
        applies.append(op)
        return original(op, u, v)

    manager._top_apply = logged
    return applies


def assert_bit_identical(new: AtomicUniverse, ref: AtomicUniverse) -> None:
    """Same atoms under the same ids and node ids, same ``R``, same table."""
    assert [(a, fn.node) for a, fn in new.atoms().items()] == [
        (a, fn.node) for a, fn in ref.atoms().items()
    ]
    assert list(new._pred_fns) == list(ref._pred_fns)  # registration order
    for pid in ref.predicate_ids():
        assert new.predicate_fn(pid).node == ref.predicate_fn(pid).node
        assert new.r(pid) == ref.r(pid)
    for atom_id in ref.atom_ids():
        assert new.memberships(atom_id) == ref.memberships(atom_id)
    assert len(new.manager) == len(ref.manager)
    assert new.verify_partition()


# ----------------------------------------------------------------------
# Random Boolean functions, rebuilt identically in any fresh manager
# ----------------------------------------------------------------------

expression = st.recursive(
    st.one_of(
        st.integers(min_value=0, max_value=NUM_VARS - 1),
        st.sampled_from(["true", "false"]),
    ),
    lambda children: st.one_of(
        st.tuples(st.just("not"), children),
        st.tuples(st.sampled_from(["and", "or", "xor", "diff"]), children, children),
    ),
    max_leaves=10,
)


def build(mgr: BDDManager, expr) -> Function:
    if expr == "true":
        return Function.true(mgr)
    if expr == "false":
        return Function.false(mgr)
    if isinstance(expr, int):
        return Function.variable(mgr, expr)
    if expr[0] == "not":
        return ~build(mgr, expr[1])
    op, left, right = expr
    lf, rf = build(mgr, left), build(mgr, right)
    return {"and": lf & rf, "or": lf | rf, "xor": lf ^ rf, "diff": lf - rf}[op]


def labeled(manager: BDDManager, exprs) -> list[LabeledPredicate]:
    return [
        LabeledPredicate(pid, "forward", "b", f"p{pid}", build(manager, expr))
        for pid, expr in enumerate(exprs)
    ]


def compute_both(exprs) -> AtomicUniverse:
    """``compute`` and the flat reference, each in a fresh manager, agree."""
    new_mgr, ref_mgr = BDDManager(NUM_VARS), BDDManager(NUM_VARS)
    new = AtomicUniverse.compute(new_mgr, labeled(new_mgr, exprs))
    assert_bit_identical(new, flat_compute(ref_mgr, labeled(ref_mgr, exprs)))
    return new


def cutting_pair(mgr: BDDManager) -> tuple[int, int]:
    """Two multi-node functions over 8 variables, each cutting the other."""
    return (
        mgr.apply_or(mgr.cube({0: True, 3: False}), mgr.cube({1: True, 5: True})),
        mgr.apply_or(mgr.cube({2: True, 4: False}), mgr.cube({3: True, 6: True})),
    )


# ----------------------------------------------------------------------
# (a) BDDManager.relation
# ----------------------------------------------------------------------


class TestRelation:
    @given(expression, expression)
    @settings(max_examples=300)
    def test_matches_and_diff_and_builds_nothing(self, left, right):
        mgr = BDDManager(NUM_VARS)
        u, v = build(mgr, left).node, build(mgr, right).node
        nodes = len(mgr)
        rel = mgr.relation(u, v)
        assert len(mgr) == nodes
        assert rel == (mgr.apply_and(u, v) != FALSE) | (
            (mgr.apply_diff(u, v) != FALSE) << 1
        )

    def test_terminal_table(self):
        mgr = BDDManager(NUM_VARS)
        x = mgr.var(2)
        assert mgr.relation(FALSE, x) == 0
        assert mgr.relation(FALSE, FALSE) == 0
        assert mgr.relation(x, FALSE) == 2
        assert mgr.relation(x, TRUE) == 1
        assert mgr.relation(x, x) == 1
        assert mgr.relation(TRUE, TRUE) == 1
        assert mgr.relation(TRUE, FALSE) == 2
        assert mgr.relation(TRUE, x) == 3
        assert mgr.relation(x, mgr.nvar(2)) == 2

    def test_memo_is_bounded_cleared_and_counted(self):
        mgr = BDDManager(8, cache_limit=4)
        a, b = cutting_pair(mgr)
        mgr.clear_caches()
        clears = mgr.cache_stats()["cache_clears"]
        assert mgr.relation(a, b) == 3
        stats = mgr.cache_stats()
        assert stats["relation_cache"] > 0
        assert stats["cache_entries"] >= stats["relation_cache"]
        # Over the limit now: the next top-level call starts from empty.
        assert stats["relation_cache"] >= mgr.cache_limit
        assert mgr.relation(b, a) == 3
        assert mgr.cache_stats()["cache_clears"] == clears + 1
        mgr.clear_caches()
        assert mgr.cache_stats()["relation_cache"] == 0
        assert mgr.cache_stats()["cache_entries"] == 0

    def test_one_budget_for_all_memos(self):
        mgr = BDDManager(8)
        a, b = cutting_pair(mgr)
        mgr.clear_caches()
        mgr.apply_and(a, b)
        mgr.relation(a, b)
        stats = mgr.cache_stats()
        applies, relations = stats["apply_cache"], stats["relation_cache"]
        # Each memo is under the limit; only their sum reaches it.
        mgr.cache_limit = max(applies, relations) + 1
        assert applies + relations >= mgr.cache_limit
        clears = stats["cache_clears"]
        assert mgr.relation(b, a) == 3
        assert mgr.cache_stats()["cache_clears"] == clears + 1
        assert mgr.cache_stats()["apply_cache"] == 0
        mgr.negate(a)
        assert mgr.cache_stats()["cache_clears"] == clears + 1

    def test_counts_into_apply_counters_and_times_as_relation(self):
        from repro.obs import Recorder

        mgr = BDDManager(8)
        a, b = cutting_pair(mgr)
        recorder = Recorder(time_bdd_ops=True)
        recorder.attach_manager(mgr)
        mgr.relation(a, b)
        misses = recorder.bdd.apply_misses
        assert misses == mgr.cache_stats()["relation_cache"] > 0
        mgr.relation(a, b)
        assert recorder.bdd.apply_misses == misses
        assert recorder.bdd.apply_hits >= 1
        timings = recorder.snapshot()["bdd"]["op_timings"]
        assert timings["relation"]["calls"] == 2
        assert recorder.snapshot()["schema"] == "repro.obs.snapshot/9"

    @given(expression, expression)
    @settings(max_examples=100)
    def test_implies_builds_nothing(self, left, right):
        mgr = BDDManager(NUM_VARS)
        u, v = build(mgr, left), build(mgr, right)
        nodes = len(mgr)
        verdict = u.implies(v)
        assert mgr.implies(u.node, v.node) == verdict
        assert len(mgr) == nodes
        assert verdict == (u - v).is_false


# ----------------------------------------------------------------------
# (b) compute == the flat reference, bit for bit
# ----------------------------------------------------------------------


class TestComputeMatchesFlatReference:
    @pytest.mark.parametrize("name", list_scenarios())
    def test_registry_scenario(self, name):
        """Every registry network -- ``ipv6-wan`` (128 header bits) under
        the default recursion limit included: ``relation`` recurses once
        per variable like ``apply``, and the tree walk not at all."""
        new_plane = DataPlane(get_scenario(name).network())
        ref_plane = DataPlane(get_scenario(name).network())
        new = AtomicUniverse.compute(new_plane.manager, new_plane.predicates())
        ref = flat_compute(ref_plane.manager, ref_plane.predicates())
        assert_bit_identical(new, ref)

    @given(st.lists(expression, max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_random_predicate_lists(self, exprs):
        compute_both(exprs)

    def test_compute_has_no_flat_scan_left(self):
        """Disjoint and contained classes cost no ``apply``: a build runs
        exactly two (``&`` and ``-``) per split, and every split adds one
        atom to the single class refinement starts from."""
        plane = DataPlane(get_scenario("internet2").network())
        applies = count_applies(plane.manager)
        universe = AtomicUniverse.compute(plane.manager, plane.predicates())
        assert len(applies) == 2 * (universe.atom_count - 1)


# ----------------------------------------------------------------------
# (c) edge cases
# ----------------------------------------------------------------------


class TestEdgeCases:
    def test_empty_predicate_list(self):
        universe = compute_both([])
        assert universe.atom_count == 1
        assert universe.atom_fn(0).is_true
        assert universe.predicate_ids() == []

    def test_false_and_true_predicates(self):
        universe = compute_both(["false", 0, "true"])
        assert universe.atom_count == 2
        assert universe.r(0) == frozenset()
        assert universe.r(2) == universe.atom_ids()

    def test_same_function_under_two_pids(self):
        universe = compute_both([("and", 0, 1), 2, ("and", 0, 1)])
        assert universe.r(0) == universe.r(2)
        assert universe.atom_count == 4

    def test_predicate_equal_to_an_existing_atom(self):
        # After x0 and x1 the class x0 & x1 is an atom; adding it again as
        # a predicate splits nothing and lands in exactly that atom.
        universe = compute_both([0, 1, ("and", 0, 1)])
        assert universe.atom_count == 4
        (atom_id,) = universe.r(2)
        assert universe.atom_fn(atom_id) == universe.predicate_fn(2)

    def test_deep_refinement_chain_is_walked_iteratively(self):
        """Thresholds ``x < k`` refine one class again and again, so the
        history tree is a chain as deep as the predicate count; the walk
        must not recurse along it."""
        bits, count = 9, 300
        mgr = BDDManager(bits)

        def below(k: int) -> Function:
            fn = Function.false(mgr)
            for i in range(bits):  # x < k: agree above bit i, then 0 vs 1
                if (k >> (bits - 1 - i)) & 1:
                    literals = {j: bool((k >> (bits - 1 - j)) & 1) for j in range(i)}
                    literals[i] = False
                    fn = fn | Function.cube(mgr, literals)
            return fn

        predicates = [
            LabeledPredicate(k, "forward", "b", f"p{k}", below(k))
            for k in range(1, count + 1)
        ]
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 100)
        try:
            universe = AtomicUniverse.compute(mgr, predicates)
        finally:
            sys.setrecursionlimit(limit)
        assert universe.atom_count == count + 1
        assert universe.verify_partition()


# ----------------------------------------------------------------------
# (d) add_predicate
# ----------------------------------------------------------------------


class TestAddPredicate:
    def test_same_leaf_splits_on_an_acl_heavy_churn_prefix(self):
        scenario = get_scenario("acl-heavy")
        plane = DataPlane(scenario.network())
        manager = plane.manager
        new = AtomicUniverse.compute(manager, plane.predicates())
        ref = AtomicUniverse.assemble_with_ids(
            manager,
            dict(new.snapshot_predicates()),
            new.atoms(),
            {pid: new.r(pid) for pid in new.predicate_ids()},
        )
        added = cut = 0
        for update in scenario.update_stream(12):
            apply = plane.insert_rule if update.kind == "insert" else plane.remove_rule
            for change in apply(update.box, update.rule):
                if change.removed is not None:
                    new.remove_predicate(change.removed.pid)
                    ref.remove_predicate(change.removed.pid)
                if change.added is not None:
                    splits = new.add_predicate(change.added.pid, change.added.fn)
                    nodes = len(manager)
                    assert splits == flat_add_predicate(
                        ref, change.added.pid, change.added.fn
                    )
                    # The reference rebuilt the same halves: nothing new.
                    assert len(manager) == nodes
                    added += 1
                    cut += sum(split.is_split for split in splits)
        assert added >= 4 and cut > 0
        assert new.atoms().keys() == ref.atoms().keys()
        for pid in ref.predicate_ids():
            assert new.r(pid) == ref.r(pid)
        assert new.verify_partition()

    def test_only_cut_atoms_are_conjoined(self):
        mgr = BDDManager(NUM_VARS)
        universe = AtomicUniverse.compute(mgr, labeled(mgr, [0, 1, 2]))
        predicate = build(mgr, ("and", ("and", 0, 1), 3))
        applies = count_applies(mgr)
        splits = universe.add_predicate(7, predicate)
        assert len(splits) == 8
        assert sum(split.is_split for split in splits) == 2
        assert len(applies) == 4

    def test_foreign_manager_predicate_rejected(self):
        mgr, other = BDDManager(NUM_VARS), BDDManager(NUM_VARS)
        universe = AtomicUniverse.compute(mgr, labeled(mgr, [0]))
        with pytest.raises(ValueError):
            universe.add_predicate(5, Function.variable(other, 1))
        with pytest.raises(ValueError):
            AtomicUniverse.compute(mgr, labeled(other, [0]))
