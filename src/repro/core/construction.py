"""High-level AP Tree builders: one per construction method evaluated in
the paper (Best-from-Random, Quick-Ordering, OAPT; Section VII-A/C)."""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Mapping, Sequence

from .aptree import APTree, build_ap_tree
from .atomic import AtomicUniverse
from .ordering import (
    fixed_order_chooser,
    oapt_chooser,
    optimal_subtree_cost,
    quick_ordering,
)

__all__ = [
    "build_with_order",
    "build_random",
    "best_from_random",
    "build_quick_ordering",
    "build_oapt",
    "build_optimal",
    "build_tree",
    "ConstructionReport",
    "STRATEGIES",
]

STRATEGIES = ("random", "best_from_random", "quick_ordering", "oapt", "optimal")


@dataclass(frozen=True)
class ConstructionReport:
    """What a builder produced and how long it took (Fig. 11 material)."""

    strategy: str
    tree: APTree
    elapsed_s: float
    average_depth: float
    trials: int = 1

    def describe(self) -> str:
        return (
            f"{self.strategy}: avg depth {self.average_depth:.2f}, "
            f"built in {self.elapsed_s * 1e3:.2f} ms"
        )


def build_with_order(universe: AtomicUniverse, order: Sequence[int]) -> APTree:
    """Pruned tree with predicates placed by the given global order."""
    return build_ap_tree(universe, fixed_order_chooser(order), list(order))


def build_random(universe: AtomicUniverse, rng: random.Random) -> APTree:
    """One tree from a uniformly random predicate order."""
    order = list(universe.predicate_ids())
    rng.shuffle(order)
    return build_with_order(universe, order)


def best_from_random(
    universe: AtomicUniverse,
    trials: int = 100,
    rng: random.Random | None = None,
    weights: Mapping[int, float] | None = None,
) -> tuple[APTree, list[float]]:
    """The paper's Best-from-Random baseline (Section VII-A).

    Builds ``trials`` random-order trees and keeps the one with minimal
    average leaf depth.  Also returns every trial's average depth, which
    is exactly the scatter data of Fig. 4.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    rng = rng if rng is not None else random.Random(0)
    weight_map = dict(weights) if weights else None
    best: APTree | None = None
    best_depth = float("inf")
    depths: list[float] = []
    for _ in range(trials):
        tree = build_random(universe, rng)
        depth = tree.average_depth(weight_map)
        depths.append(depth)
        if depth < best_depth:
            best = tree
            best_depth = depth
    assert best is not None
    return best, depths


def build_quick_ordering(universe: AtomicUniverse) -> APTree:
    """Quick-Ordering construction (Section V-B)."""
    return build_with_order(universe, quick_ordering(universe))


def build_oapt(
    universe: AtomicUniverse,
    weights: Mapping[int, float] | None = None,
) -> APTree:
    """Optimized AP Tree construction (Section V-C / V-D)."""
    return build_ap_tree(universe, oapt_chooser(universe, weights))


def build_optimal(
    universe: AtomicUniverse,
    weights: Mapping[int, float] | None = None,
) -> APTree:
    """Provably depth-optimal tree via the exhaustive ``F(Q, S)`` recursion.

    Exponential; only for small universes (tests and the ablation bench).
    """
    _, choice = optimal_subtree_cost(universe, weights=weights)

    def choose(candidates: list[int], atoms: frozenset[int]) -> int:
        return choice[atoms]

    return build_ap_tree(universe, choose)


def build_tree(
    universe: AtomicUniverse,
    strategy: str = "oapt",
    rng: random.Random | None = None,
    trials: int = 100,
    weights: Mapping[int, float] | None = None,
) -> ConstructionReport:
    """Strategy dispatch with timing, for benches and the classifier facade."""
    rng = rng if rng is not None else random.Random(0)
    started = time.perf_counter()
    built_trials = 1
    if strategy == "random":
        tree = build_random(universe, rng)
    elif strategy == "best_from_random":
        tree, depths = best_from_random(universe, trials, rng, weights)
        built_trials = len(depths)
    elif strategy == "quick_ordering":
        tree = build_quick_ordering(universe)
    elif strategy == "oapt":
        tree = build_oapt(universe, weights)
    elif strategy == "optimal":
        tree = build_optimal(universe, weights)
    else:
        raise ValueError(
            f"unknown strategy {strategy!r}; expected one of {STRATEGIES}"
        )
    elapsed = time.perf_counter() - started
    return ConstructionReport(
        strategy=strategy,
        tree=tree,
        elapsed_s=elapsed,
        average_depth=tree.average_depth(dict(weights) if weights else None),
        trials=built_trials,
    )
