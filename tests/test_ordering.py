"""Tests for the ordering strategies of Section V."""

from __future__ import annotations

import itertools
import random

import pytest

from repro.bdd import BDDManager, Function
from repro.core.atomic import AtomicUniverse
from repro.core.construction import (
    best_from_random,
    build_oapt,
    build_optimal,
    build_quick_ordering,
    build_with_order,
)
from repro.core.ordering import (
    fixed_order_chooser,
    oapt_chooser,
    optimal_subtree_cost,
    quick_ordering,
)
from repro.network.dataplane import LabeledPredicate


def random_universe(
    num_vars: int, num_predicates: int, seed: int
) -> AtomicUniverse:
    """A universe from random predicates over a small space."""
    rng = random.Random(seed)
    mgr = BDDManager(num_vars)
    labeled = []
    for pid in range(num_predicates):
        points = {
            p for p in range(1 << num_vars) if rng.random() < rng.uniform(0.2, 0.8)
        }
        fn = Function.false(mgr)
        for point in points:
            fn = fn | Function.cube(
                mgr,
                {i: bool((point >> mgr.var_shifts[i]) & 1) for i in range(num_vars)},
            )
        labeled.append(LabeledPredicate(pid, "forward", "b", f"p{pid}", fn))
    return AtomicUniverse.compute(mgr, labeled)


class TestQuickOrdering:
    def test_descending_r_cardinality(self, internet2_classifier):
        universe = internet2_classifier.universe
        order = quick_ordering(universe)
        sizes = [len(universe.r(pid)) for pid in order]
        assert sizes == sorted(sizes, reverse=True)

    def test_order_is_deterministic(self, internet2_classifier):
        universe = internet2_classifier.universe
        assert quick_ordering(universe) == quick_ordering(universe)


class TestFixedOrderChooser:
    def test_picks_earliest_candidate(self):
        choose = fixed_order_chooser([5, 3, 9])
        assert choose([9, 3], frozenset()) == 3
        assert choose([9], frozenset()) == 9


class TestOaptOptimality:
    """OAPT is a heuristic; on small random inputs it should track the
    exhaustive optimum closely and never beat it."""

    @pytest.mark.parametrize("seed", range(8))
    def test_oapt_never_beats_optimal(self, seed):
        universe = random_universe(4, 5, seed)
        optimal_cost, _ = optimal_subtree_cost(universe)
        oapt_total = sum(build_oapt(universe).leaf_depths().values())
        assert oapt_total >= optimal_cost

    @pytest.mark.parametrize("seed", range(8))
    def test_optimal_beats_every_fixed_order(self, seed):
        universe = random_universe(4, 4, seed)
        optimal_cost, _ = optimal_subtree_cost(universe)
        pids = universe.predicate_ids()
        for order in itertools.permutations(pids):
            tree = build_with_order(universe, list(order))
            assert sum(tree.leaf_depths().values()) >= optimal_cost

    @pytest.mark.parametrize("seed", range(8))
    def test_oapt_close_to_optimal(self, seed):
        universe = random_universe(4, 5, seed)
        optimal_cost, _ = optimal_subtree_cost(universe)
        oapt_total = sum(build_oapt(universe).leaf_depths().values())
        # Heuristic slack bound: within 40% of optimal on small inputs.
        assert oapt_total <= optimal_cost * 1.4 + 1e-9


class TestOaptOnDatasets:
    def test_hierarchy_internet2(self, internet2_classifier):
        """Fig. 9 shape: OAPT <= Quick-Ordering <= Best-from-Random."""
        universe = internet2_classifier.universe
        oapt = build_oapt(universe).average_depth()
        quick = build_quick_ordering(universe).average_depth()
        best_random, _ = best_from_random(universe, trials=20, rng=random.Random(0))
        assert oapt <= quick * 1.01
        assert oapt <= best_random.average_depth() * 1.01

    def test_weighted_oapt_shrinks_hot_paths(self, internet2_classifier):
        universe = internet2_classifier.universe
        atoms = sorted(universe.atom_ids())
        hot = {atoms[0]: 500.0, atoms[1]: 300.0}
        weighted_tree = build_oapt(universe, weights=hot)
        unweighted_tree = build_oapt(universe)
        # Expected (weighted) depth under the hot distribution must not
        # get worse when the tree is built with those weights.
        assert weighted_tree.average_depth(hot) <= unweighted_tree.average_depth(hot) * 1.01


class TestPairwiseRelation:
    def test_chooser_survivor_not_inferior(self):
        """Re-scan with the survivor as the baseline: nothing beats it
        (the linear-scan correctness condition of Section V-C)."""
        universe = random_universe(4, 5, 99)
        choose = oapt_chooser(universe)
        atoms = universe.atom_ids()
        candidates = [
            pid
            for pid in universe.predicate_ids()
            if 0 < len(atoms & universe.r(pid)) < len(atoms)
        ]
        if len(candidates) < 2:
            pytest.skip("degenerate random instance")
        survivor = choose(candidates, atoms)
        # The survivor must re-win a scan that starts from itself.
        assert choose([survivor] + [c for c in candidates if c != survivor], atoms) == survivor


class TestOptimalCost:
    def test_single_atom_costs_zero(self):
        mgr = BDDManager(2)
        labeled = [LabeledPredicate(0, "forward", "b", "p", Function.true(mgr))]
        universe = AtomicUniverse.compute(mgr, labeled)
        cost, _ = optimal_subtree_cost(universe)
        assert cost == 0.0

    def test_two_atoms_cost_two(self):
        mgr = BDDManager(2)
        half = Function.variable(mgr, 0)
        labeled = [LabeledPredicate(0, "forward", "b", "p", half)]
        universe = AtomicUniverse.compute(mgr, labeled)
        cost, choice = optimal_subtree_cost(universe)
        assert cost == 2.0
        assert choice[universe.atom_ids()] == 0

    def test_weights_change_cost(self):
        universe = random_universe(3, 3, 5)
        unweighted, _ = optimal_subtree_cost(universe)
        heavy = {atom: 10.0 for atom in universe.atom_ids()}
        weighted, _ = optimal_subtree_cost(universe, weights=heavy)
        assert weighted == pytest.approx(unweighted * 10.0)
