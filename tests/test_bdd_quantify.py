"""Tests for BDD quantification (exists / forall)."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import BDDManager, Function

NUM_VARS = 5


def from_points(mgr: BDDManager, points: set[int]) -> Function:
    fn = Function.false(mgr)
    for point in points:
        fn = fn | Function.cube(
            mgr, {i: bool((point >> (NUM_VARS - 1 - i)) & 1) for i in range(NUM_VARS)}
        )
    return fn


def truth(fn: Function) -> set[int]:
    return {a for a in range(1 << NUM_VARS) if fn.evaluate(a)}


class TestBasics:
    def test_exists_single_variable(self):
        mgr = BDDManager(2)
        x, y = Function.variable(mgr, 0), Function.variable(mgr, 1)
        fn = x & y
        assert fn.exists({0}) == y
        assert fn.exists({0, 1}).is_true

    def test_forall_single_variable(self):
        mgr = BDDManager(2)
        x, y = Function.variable(mgr, 0), Function.variable(mgr, 1)
        fn = x | y
        assert fn.forall({0}) == y
        assert (Function.variable(mgr, 0)).forall({0}).is_false

    def test_empty_set_is_identity(self):
        mgr = BDDManager(3)
        fn = Function.variable(mgr, 1)
        assert fn.exists(set()) == fn
        assert fn.forall(set()) == fn

    def test_field_projection_use_case(self):
        """Project a two-field predicate onto its second field."""
        mgr = BDDManager(4)  # fields: a = vars 0-1, b = vars 2-3
        a0 = Function.variable(mgr, 0)
        b0 = Function.variable(mgr, 2)
        fn = (a0 & b0) | (~a0 & ~b0)
        onto_b = fn.exists({0, 1})
        # For any 'a' value some packet exists, for both b0 values.
        assert onto_b.is_true


points_sets = st.sets(
    st.integers(min_value=0, max_value=(1 << NUM_VARS) - 1), max_size=20
)
var_sets = st.sets(st.integers(min_value=0, max_value=NUM_VARS - 1), max_size=4)


@given(points=points_sets, variables=var_sets)
@settings(max_examples=120)
def test_exists_matches_semantics(points, variables):
    mgr = BDDManager(NUM_VARS)
    fn = from_points(mgr, points)
    quantified = fn.exists(variables)
    masks = [1 << mgr.var_shifts[v] for v in variables]
    for assignment in range(1 << NUM_VARS):
        expected = any(
            completion in points
            for completion in _completions(assignment, masks)
        )
        assert quantified.evaluate(assignment) == expected


@given(points=points_sets, variables=var_sets)
@settings(max_examples=120)
def test_forall_matches_semantics(points, variables):
    mgr = BDDManager(NUM_VARS)
    fn = from_points(mgr, points)
    quantified = fn.forall(variables)
    masks = [1 << mgr.var_shifts[v] for v in variables]
    for assignment in range(1 << NUM_VARS):
        expected = all(
            completion in points
            for completion in _completions(assignment, masks)
        )
        assert quantified.evaluate(assignment) == expected


@given(points=points_sets, variables=var_sets)
@settings(max_examples=80)
def test_duality(points, variables):
    """forall x. f == ~exists x. ~f"""
    mgr = BDDManager(NUM_VARS)
    fn = from_points(mgr, points)
    assert fn.forall(variables) == ~((~fn).exists(variables))


def _completions(assignment: int, masks: list[int]):
    """All assignments agreeing with ``assignment`` outside the masks."""
    base = assignment
    for mask in masks:
        base &= ~mask
    combos = [base]
    for mask in masks:
        combos = [c | bits for c in combos for bits in (0, mask)]
    return combos
