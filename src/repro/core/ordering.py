"""Predicate ordering strategies for AP Tree construction (Section V).

All strategies are expressed as ``choose(candidates, atoms)`` callbacks for
:func:`repro.core.aptree.build_ap_tree`:

* **fixed order** -- place predicates by a given global order (used for the
  Random / Best-from-Random baseline and for Quick-Ordering);
* **Quick-Ordering** (Section V-B) -- descending ``|R(p)|``, pushing
  predicates equal to a single atom toward the bottom;
* **OAPT** (Section V-C) -- at every subtree, a linear scan keeps a
  predicate not inferior to any other under the four-case pairwise
  superior/inferior relation (generalized to weighted atoms, Section V-D);
* **exhaustive optimum** -- the full ``F(Q, S)`` recursion of Section V-C,
  exponential, kept for tests and the ordering ablation bench.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

from .atomic import AtomicUniverse

__all__ = [
    "Chooser",
    "fixed_order_chooser",
    "quick_ordering",
    "oapt_chooser",
    "oapt_depth_costs",
    "oapt_survivor",
    "optimal_subtree_cost",
]

Chooser = Callable[[list[int], frozenset[int]], int]


def fixed_order_chooser(order: Sequence[int]) -> Chooser:
    """Always pick the candidate earliest in ``order``.

    With pruning, building by a fixed order is exactly the paper's
    level-by-level placement: a predicate that does not split the atoms of
    a subtree is skipped there.
    """
    rank = {pid: index for index, pid in enumerate(order)}

    def choose(candidates: list[int], atoms: frozenset[int]) -> int:
        return min(candidates, key=rank.__getitem__)

    return choose


def quick_ordering(universe: AtomicUniverse) -> list[int]:
    """Quick-Ordering: predicates by descending ``|R(p)|`` (Section V-B).

    Predicates equal to a single atomic predicate land at the bottom of
    the tree, where their guaranteed-leaf child costs the least depth.
    Ties break by pid for determinism.
    """
    return sorted(
        universe.predicate_ids(),
        key=lambda pid: (-len(universe.r(pid)), pid),
    )


def _weigher(
    weights: Mapping[int, float] | None,
) -> Callable[[frozenset[int]], float]:
    """Total weight of an atom set; cardinality when no weights given."""
    if weights is None:
        return lambda atoms: float(len(atoms))

    def weigh(atoms: frozenset[int]) -> float:
        return sum(weights.get(atom, 1.0) for atom in atoms)

    return weigh


def oapt_depth_costs(
    s_i: frozenset[int],
    s_j: frozenset[int],
    atom_count: int,
    weight_all: float,
    w_i: float,
    w_j: float,
) -> tuple[float, float]:
    """Immediate added depth when i is placed above j, and vice versa.

    With quadrants A = Si∩Sj, B = Si∖Sj, C = Sj∖Si, D = S∖(Si∪Sj):
    placing ``pi`` first charges ``w(Si)`` if its true-branch still
    splits (A and B non-empty) plus ``w(S∖Si)`` if its false-branch
    still splits (C and D non-empty); symmetrically for ``pj``.  The
    four cases of Fig. 6 are instances of this formula.  ``atom_count``
    is ``|S|``; ``w_i``/``w_j`` are the candidates' weights within ``S``.
    """
    a = s_i & s_j
    b = s_i - s_j
    c = s_j - s_i
    has_d = len(s_i | s_j) < atom_count
    cost_i = 0.0
    cost_j = 0.0
    if a and b:
        cost_i += w_i
    if c and has_d:
        cost_i += weight_all - w_i
    if a and c:
        cost_j += w_j
    if b and has_d:
        cost_j += weight_all - w_j
    return cost_i, cost_j


def oapt_survivor(
    candidates: Sequence[int],
    sets: Mapping[int, frozenset[int]],
    atom_count: int,
    weight_all: float,
    weigh: Callable[[frozenset[int]], float],
) -> int:
    """One OAPT linear scan: the candidate never found inferior.

    ``sets[pid]`` must already be restricted to the current atom set.
    """
    best = candidates[0]
    best_set = sets[best]
    best_weight = weigh(best_set)
    for pid in candidates[1:]:
        challenger = sets[pid]
        challenger_weight = weigh(challenger)
        cost_challenger, cost_best = oapt_depth_costs(
            challenger, best_set, atom_count, weight_all,
            challenger_weight, best_weight,
        )
        if cost_challenger < cost_best:
            best = pid
            best_set = challenger
            best_weight = challenger_weight
    return best


def oapt_chooser(
    universe: AtomicUniverse,
    weights: Mapping[int, float] | None = None,
) -> Chooser:
    """The OAPT selection rule (Section V-C, weighted per Section V-D).

    For the current atom set ``S``, a linear scan keeps a predicate
    ``ps`` never found inferior: for each candidate ``pi``, if ``pi`` is
    superior to ``ps`` then ``ps := pi``.  The pairwise relation compares
    the *immediate* depth contribution of placing one predicate above the
    other, case-split on how the two predicates overlap within ``S``
    (Fig. 6); the relation is acyclic, so the survivor of one scan is not
    inferior to any candidate.
    """
    weigh = _weigher(weights)
    r_cache = {pid: universe.r(pid) for pid in universe.predicate_ids()}

    def choose(candidates: list[int], atoms: frozenset[int]) -> int:
        sets = {pid: atoms & r_cache[pid] for pid in candidates}
        return oapt_survivor(candidates, sets, len(atoms), weigh(atoms), weigh)

    return choose


def optimal_subtree_cost(
    universe: AtomicUniverse,
    pids: Sequence[int] | None = None,
    weights: Mapping[int, float] | None = None,
) -> tuple[float, dict[frozenset[int], int]]:
    """Exact minimal total leaf depth ``F(P, A)`` by exhaustive recursion.

    Exponential in the number of predicates -- usable only on small inputs
    (tests, the ordering ablation).  Returns the optimal cost and, for
    reconstruction, the chosen root predicate per atom set encountered.
    """
    weigh = _weigher(weights)
    pid_list = list(universe.predicate_ids()) if pids is None else list(pids)
    r_cache = {pid: universe.r(pid) for pid in pid_list}
    memo: dict[frozenset[int], float] = {}
    choice: dict[frozenset[int], int] = {}

    def f(atoms: frozenset[int]) -> float:
        if len(atoms) <= 1:
            return 0.0
        cached = memo.get(atoms)
        if cached is not None:
            return cached
        best_cost = float("inf")
        best_pid = -1
        for pid in pid_list:
            inside = atoms & r_cache[pid]
            if not inside or inside == atoms:
                continue  # pruned here: no depth contribution, no split
            cost = weigh(atoms) + f(inside) + f(atoms - inside)
            if cost < best_cost:
                best_cost = cost
                best_pid = pid
        if best_pid < 0:
            raise ValueError("no predicate splits a multi-atom set")
        memo[atoms] = best_cost
        choice[atoms] = best_pid
        return best_cost

    total = f(universe.atom_ids())
    return total, choice
