"""Atomic predicates: the minimal packet equivalence classes.

For a predicate set ``P = {p1..pk}`` the atomic predicates are the
non-false conjunctions ``q1 & q2 & ... & qk`` with ``qi in {pi, ~pi}``
(Section III, following Yang & Lam's AP Verifier).  They form the minimal
partition of the header space such that all packets in one class have
identical behavior at every box.

:class:`AtomicUniverse` computes the atoms by iterative refinement and
maintains, for every predicate ``p``, the set ``R(p)`` of atom ids whose
disjunction equals ``p`` -- the integer-set representation that all AP Tree
construction decisions use instead of BDD operations (Section V-C, "Time
Efficiency").  It also supports the incremental predicate addition,
removal and in-place replacement that real-time updates need (Section
VI-A).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping

from ..bdd import TRUE, BDDManager, Function
from ..network.dataplane import LabeledPredicate

if TYPE_CHECKING:  # aptree imports this module
    from .aptree import APTree, APTreeNode

__all__ = ["AtomMerge", "AtomicUniverse", "LeafSplit", "TreeMismatch"]

# How one AP Tree label decides a subtree in ``AtomicUniverse._touched``.
_LOW, _HIGH, _HIGH_INSIDE, _BOTH = range(4)


class TreeMismatch(ValueError):
    """An AP Tree handed to :meth:`AtomicUniverse.add_predicate` or
    :meth:`AtomicUniverse.replace_predicate` is not over the universe's
    live atoms."""


@dataclass(frozen=True)
class LeafSplit:
    """How one existing atom reacted to a newly added predicate.

    Exactly one of three shapes:

    * split: ``inside_id`` and ``outside_id`` are two *new* atom ids
      replacing ``old_id`` (``a & p`` and ``a & ~p`` both non-false);
    * absorbed inside: ``inside_id == old_id``, ``outside_id is None``;
    * absorbed outside: ``outside_id == old_id``, ``inside_id is None``.
    """

    old_id: int
    inside_id: int | None
    outside_id: int | None

    @property
    def is_split(self) -> bool:
        return self.inside_id is not None and self.outside_id is not None


@dataclass(frozen=True)
class AtomMerge:
    """Atoms coalesced into one because no live predicate separates them.

    The inverse of :class:`LeafSplit`: after a predicate removal, the
    sibling atoms it once split apart have identical live memberships and
    collapse into a fresh atom (``merged_id``) that inherits them.  Under
    pure incremental maintenance ``parts`` is always a pair; histories
    with stacked tombstones can produce larger groups.
    """

    merged_id: int
    parts: tuple[int, ...]


class _Region:
    """A node of the refinement history tree ``AtomicUniverse.compute``
    builds: a live atom, or a split one whose BDD spans the atoms below."""

    __slots__ = ("atom_id", "node", "inside", "children")

    def __init__(self, atom_id: int, node: int, *inside: int) -> None:
        self.atom_id = atom_id
        self.node = node
        #: pids the whole subtree is inside (lazy: not yet in any ``R``).
        self.inside = list(inside)
        #: ``(a & p, a & ~p)`` once split by ``p``; empty for a leaf.
        self.children: tuple[_Region, ...] = ()


class AtomicUniverse:
    """The live atoms, the live predicates, and the ``R`` mapping."""

    def __init__(self, manager: BDDManager) -> None:
        self.manager = manager
        self._atoms: dict[int, Function] = {}
        self._next_atom_id = 0
        # pid -> predicate function (live predicates only).
        self._pred_fns: dict[int, Function] = {}
        # pid -> set of atom ids whose disjunction is the predicate.
        self._r: dict[int, set[int]] = {}
        # atom id -> set of pids whose R contains that atom.
        self._containing: dict[int, set[int]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def compute(
        cls, manager: BDDManager, predicates: Iterable[LabeledPredicate]
    ) -> "AtomicUniverse":
        """Full refinement over a predicate snapshot.

        Each predicate ``p`` touches only the classes it cuts.  An atom
        split by ``p`` stays behind as an internal tree node over ``a & p``
        and ``a & ~p``, its BDD now the region of that subtree.  A new
        predicate descends from the root with the non-constructing
        :meth:`BDDManager.relation`: a subtree disjoint from ``p`` is
        pruned, a subtree inside ``p`` gets one lazy pid tag, and only the
        leaves ``p`` cuts pay ``apply_and`` / ``apply_diff`` -- in
        ascending atom id, the order a flat scan of the live atoms meets
        them, so atom and BDD node ids do not depend on the tree's shape.
        """
        universe = cls(manager)
        relation = manager.relation
        root = _Region(universe._mint_atom(Function.true(manager)), TRUE)
        for labeled in predicates:
            pid, fn = labeled.pid, labeled.fn
            universe._register_predicate(pid, fn)
            p = fn.node
            cut: list[tuple[int, _Region]] = []
            stack = [root]
            while stack:
                region = stack.pop()
                rel = relation(region.node, p)
                if rel == 1:  # inside p
                    region.inside.append(pid)
                elif rel == 3:  # cut by p; 2 (disjoint) is pruned
                    if region.children:
                        stack.extend(region.children)
                    else:
                        cut.append((region.atom_id, region))
            for atom_id, region in sorted(cut):
                atom = universe._atoms[atom_id]
                inside, outside = atom & fn, atom - fn
                universe._drop_atom(atom_id)
                region.children = (
                    _Region(universe._mint_atom(inside), inside.node, pid),
                    _Region(universe._mint_atom(outside), outside.node),
                )
        # Push the tags down into R: a leaf is inside exactly the pids
        # tagged on its root path.
        leaves = []
        walk: list[tuple[_Region, tuple[int, ...]]] = [(root, ())]
        while walk:
            region, inherited = walk.pop()
            inherited += tuple(region.inside)
            if region.children:
                walk.extend((child, inherited) for child in region.children)
            else:
                leaves.append((region.atom_id, inherited))
        for atom_id, inside_pids in sorted(leaves):
            universe._containing[atom_id].update(inside_pids)
            for member_pid in inside_pids:
                universe._r[member_pid].add(atom_id)
        return universe

    @classmethod
    def assemble(
        cls,
        manager: BDDManager,
        pred_fns: Mapping[int, Function],
        atoms: Iterable[Function],
        r: Mapping[int, Iterable[int]],
    ) -> "AtomicUniverse":
        """Rebuild a universe from already-computed parts.

        ``atoms`` become ids ``0..n-1`` in iteration order; ``r`` maps each
        pid to the atom ids (positions) inside it.  This is the re-entry
        point for universes that crossed a process boundary (the
        reconstruction worker ships atoms via :mod:`repro.bdd.serialize`
        and :mod:`repro.core.reconstruction` reassembles them here).
        The invariants are *not* re-verified -- use :meth:`verify_partition`
        when the parts come from an untrusted path.
        """
        universe = cls(manager)
        for fn in atoms:
            if fn.is_false:
                raise ValueError("an atom must be satisfiable")
            universe._mint_atom(fn)
        for pid in sorted(pred_fns):
            universe._register_predicate(pid, pred_fns[pid])
            r_set = universe._r[pid]
            for atom_id in r.get(pid, ()):
                r_set.add(atom_id)
                universe._containing[atom_id].add(pid)
        return universe

    @classmethod
    def assemble_with_ids(
        cls,
        manager: BDDManager,
        pred_fns: Mapping[int, Function],
        atoms: Mapping[int, Function],
        r: Mapping[int, Iterable[int]],
    ) -> "AtomicUniverse":
        """:meth:`assemble`, but preserving explicit atom ids.

        The persistence path (``repro.artifact``) must restore a
        classifier whose atom ids are bit-identical to the saved ones --
        classification *output* is atom ids, so re-minting ``0..n-1``
        would change answers for any universe whose ids have gaps
        (post-update states).  ``r`` references are
        validated against ``atoms``; invariants beyond that are not
        re-verified (see :meth:`verify_partition`).
        """
        universe = cls(manager)
        for atom_id in sorted(atoms):
            fn = atoms[atom_id]
            if fn.is_false:
                raise ValueError("an atom must be satisfiable")
            universe._atoms[int(atom_id)] = fn
            universe._containing[int(atom_id)] = set()
        universe._next_atom_id = max(atoms, default=-1) + 1
        for pid in sorted(pred_fns):
            universe._register_predicate(pid, pred_fns[pid])
            r_set = universe._r[pid]
            for atom_id in r.get(pid, ()):
                if atom_id not in universe._containing:
                    raise ValueError(
                        f"R({pid}) references unknown atom {atom_id}"
                    )
                r_set.add(atom_id)
                universe._containing[atom_id].add(pid)
        return universe

    def renumber_canonical(self) -> "AtomicUniverse":
        """The same universe with atoms renumbered ``0..n-1`` by witness.

        Atoms are sorted by their smallest satisfying assignment
        (:meth:`BDDManager.first_sat`) -- a total order that depends only
        on the partition itself, never on the refinement history.  Two
        universes over the same predicate set therefore get identical atom
        ids however they were computed, which is what lets a rebuilt or
        incrementally maintained universe be compared with a fresh one.
        """
        first_sat = self.manager.first_sat
        order = sorted(
            self._atoms, key=lambda aid: first_sat(self._atoms[aid].node)
        )
        mapping = {old: new for new, old in enumerate(order)}
        return AtomicUniverse.assemble(
            self.manager,
            dict(self._pred_fns),
            [self._atoms[old] for old in order],
            {
                pid: [mapping[old] for old in atom_ids]
                for pid, atom_ids in self._r.items()
            },
        )

    def _mint_atom(self, fn: Function) -> int:
        atom_id = self._next_atom_id
        self._next_atom_id += 1
        self._atoms[atom_id] = fn
        self._containing[atom_id] = set()
        return atom_id

    def _drop_atom(self, atom_id: int) -> None:
        del self._atoms[atom_id]
        for pid in self._containing.pop(atom_id):
            self._r[pid].discard(atom_id)

    def _register_predicate(self, pid: int, fn: Function) -> None:
        if pid in self._pred_fns:
            raise ValueError(f"predicate pid {pid} already registered")
        if fn.manager is not self.manager:
            raise ValueError("predicate lives in a different BDD manager")
        self._pred_fns[pid] = fn
        self._r[pid] = set()

    # ------------------------------------------------------------------
    # Read access
    # ------------------------------------------------------------------

    @property
    def atom_count(self) -> int:
        return len(self._atoms)

    @property
    def predicate_count(self) -> int:
        return len(self._pred_fns)

    def atom_ids(self) -> frozenset[int]:
        return frozenset(self._atoms)

    def atom_fn(self, atom_id: int) -> Function:
        return self._atoms[atom_id]

    def atoms(self) -> Mapping[int, Function]:
        return dict(self._atoms)

    def predicate_ids(self) -> list[int]:
        return sorted(self._pred_fns)

    def predicate_fn(self, pid: int) -> Function:
        return self._pred_fns[pid]

    def has_predicate(self, pid: int) -> bool:
        return pid in self._pred_fns

    def r(self, pid: int) -> frozenset[int]:
        """``R(p)``: ids of the atoms whose disjunction equals predicate ``pid``."""
        return frozenset(self._r[pid])

    def memberships(self, atom_id: int) -> frozenset[int]:
        """Live pids whose ``R`` set contains the atom (inverse of :meth:`r`)."""
        return frozenset(self._containing[atom_id])

    def contains(self, pid: int, atom_id: int) -> bool:
        """Is the atom inside the predicate?  (``ap in R(p)``, Section IV-B.)"""
        r_set = self._r.get(pid)
        return r_set is not None and atom_id in r_set

    def classify(self, header: int) -> int:
        """Atom id of a packed header, by linear scan over atom BDDs.

        This is the reference classifier (and the APLinear baseline's inner
        loop); the AP Tree must always agree with it.
        """
        for atom_id, fn in self._atoms.items():
            if fn.evaluate(header):
                return atom_id
        raise RuntimeError("atoms must cover the full header space")

    def verify_partition(self) -> bool:
        """Check the defining invariants: atoms are pairwise disjoint,
        cover the space, and each R(p) reconstitutes p.  Test hook.

        Disjointness rides on a counting argument instead of the O(n^2)
        pairwise intersections: non-false atoms whose union is TRUE are
        pairwise disjoint iff their model counts sum to exactly
        ``2**num_vars`` (any overlap would be double-counted and push the
        sum over).  That keeps the check linear in the number of atoms and
        usable on multi-thousand-atom universes.
        """
        manager = self.manager
        union = Function.false(manager)
        total_models = 0
        for atom in self._atoms.values():
            if atom.is_false:
                return False
            total_models += manager.sat_count(atom.node)
            union = union | atom
        if not union.is_true:
            return False
        if total_models != 1 << manager.num_vars:
            return False
        for pid, fn in self._pred_fns.items():
            rebuilt = Function.false(self.manager)
            for atom_id in self._r[pid]:
                rebuilt = rebuilt | self._atoms[atom_id]
            if rebuilt.node != fn.node:
                return False
        return True

    # ------------------------------------------------------------------
    # Incremental updates (Section VI-A)
    # ------------------------------------------------------------------

    def add_predicate(
        self, pid: int, fn: Function, tree: APTree | None = None
    ) -> list[LeafSplit]:
        """Refine the universe by one new predicate.

        ``tree`` is the live AP Tree over this universe, if there is one.
        Its labels rule out most atoms before any atom is looked at (see
        :meth:`_touched`); without a tree every live atom is a candidate.
        Each candidate ``a`` not already known to lie inside ``p`` gets
        one :meth:`BDDManager.relation` test, which builds nothing; only
        the atoms ``p`` cuts pay for ``a & p`` and ``a & ~p`` and are
        replaced by two fresh atoms (inheriting all their ``R``
        memberships), the others keep their id.  Candidates are visited
        in ascending atom id, so ids, BDD nodes and ``R`` sets come out
        the same with or without a tree.

        Returns one :class:`LeafSplit` per candidate so the AP Tree can
        mirror the change on its leaves: with a tree, only for the atoms
        the descent could not rule out -- every atom ``p`` meets, and no
        atom its labels prove disjoint from ``p``.  Raises
        :class:`TreeMismatch` when ``tree`` does not hold one leaf per
        live atom.
        """
        if tree is None:
            candidates = dict.fromkeys(self._atoms, 0)
        elif len(tree._leaf_index) != len(self._atoms):
            raise TreeMismatch(
                f"the tree has {len(tree._leaf_index)} leaves for "
                f"{len(self._atoms)} live atoms"
            )
        else:
            candidates = self._touched(tree.root, fn.node)
        self._register_predicate(pid, fn)
        relation = self.manager.relation
        p = fn.node
        splits: list[LeafSplit] = []
        r_set = self._r[pid]
        for atom_id in sorted(candidates):
            atom = self._atoms[atom_id]
            rel = candidates[atom_id] or relation(atom.node, p)
            if rel == 2:  # disjoint from p
                splits.append(LeafSplit(atom_id, None, atom_id))
                continue
            if rel == 1:  # inside p
                r_set.add(atom_id)
                self._containing[atom_id].add(pid)
                splits.append(LeafSplit(atom_id, atom_id, None))
                continue
            in_id = self._mint_atom(atom & fn)
            out_id = self._mint_atom(atom - fn)
            # Children inherit every membership of the parent.
            parent_pids = self._containing[atom_id]
            for member_pid in parent_pids:
                self._r[member_pid].add(in_id)
                self._r[member_pid].add(out_id)
                self._containing[in_id].add(member_pid)
                self._containing[out_id].add(member_pid)
            r_set.add(in_id)
            self._containing[in_id].add(pid)
            self._drop_atom(atom_id)
            splits.append(LeafSplit(atom_id, in_id, out_id))
        return splits

    def _touched(self, root: APTreeNode, p: int) -> dict[int, int]:
        """The atoms ``p`` may meet, found by descending the AP Tree.

        Every node's packets lie inside its label ``q`` on the high side
        and outside it on the low side, so one test of ``p`` against
        ``q`` (memoised per label for the call) decides a whole subtree:
        ``p`` disjoint from ``q`` keeps only the low child, ``p`` inside
        ``q`` only the high child, and ``q`` inside ``p`` puts every atom
        of the high subtree inside ``p`` with no BDD operation on them.
        Returns atom id -> ``1`` for the atoms known to lie inside ``p``
        and ``0`` for the leaves still undecided; atoms absent from the
        map are disjoint from ``p``.
        """
        relation = self.manager.relation
        verdicts: dict[int, int] = {}
        touched: dict[int, int] = {}
        stack = [root]
        while stack:
            node = stack.pop()
            if node.pid is None:
                touched[node.atom_id] = 0
                continue
            q = node.fn_node
            verdict = verdicts.get(q)
            if verdict is None:
                rel = relation(p, q)
                if rel & 1 == 0:  # p misses q: nothing on the high side
                    verdict = _LOW
                elif rel == 1:  # p inside q: nothing on the low side
                    verdict = _HIGH
                elif relation(q, p) == 1:  # the high side is inside p
                    verdict = _HIGH_INSIDE
                else:
                    verdict = _BOTH
                verdicts[q] = verdict
            if verdict != _HIGH:
                stack.append(node.low)
            if verdict == _HIGH or verdict == _BOTH:
                stack.append(node.high)
            elif verdict == _HIGH_INSIDE:
                inside = [node.high]
                while inside:
                    below = inside.pop()
                    if below.pid is None:
                        touched[below.atom_id] = 1
                    else:
                        inside.append(below.low)
                        inside.append(below.high)
        return touched

    def replace_predicate(
        self, old_pid: int, pid: int, fn: Function, tree: APTree
    ) -> tuple[Function, list[LeafSplit]]:
        """Swap predicate ``old_pid`` for ``(pid, fn)`` in place.

        Every atom lies wholly inside or wholly outside the old
        predicate, so only the atoms that ``delta = p_old ^ p_new`` meets
        change membership; the tree's labels find them (see
        :meth:`_touched`), candidates in ascending atom id.  ``R(p_old)``
        becomes ``R(p_new)``; an atom inside ``delta`` keeps its id and
        flips its membership in ``pid``, and an atom ``delta`` cuts is
        replaced by two fresh atoms inheriting its memberships, the
        flipped part ``a & delta`` (membership toggled) and the kept
        part ``a - delta``.  The result may be finer than minimal: a
        flipped atom can now agree on every predicate with one other
        atom, which the caller merges (:meth:`merge_atoms`).

        Returns ``delta`` and one :class:`LeafSplit` against it per atom
        it meets: ``(a, flipped, kept)`` for a cut atom, ``(a, a, None)``
        for a whole flip.
        """
        if len(tree._leaf_index) != len(self._atoms):
            raise TreeMismatch(
                f"the tree has {len(tree._leaf_index)} leaves for "
                f"{len(self._atoms)} live atoms"
            )
        old_fn = self._pred_fns[old_pid]
        self._register_predicate(pid, fn)
        del self._pred_fns[old_pid]
        delta = old_fn ^ fn
        candidates = (
            {} if delta.is_false else self._touched(tree.root, delta.node)
        )
        r_set = self._r[pid] = self._r.pop(old_pid)
        containing = self._containing
        for atom_id in r_set:
            members = containing[atom_id]
            members.discard(old_pid)
            members.add(pid)
        relation = self.manager.relation
        d = delta.node
        splits: list[LeafSplit] = []
        for atom_id in sorted(candidates):
            atom = self._atoms[atom_id]
            rel = candidates[atom_id] or relation(atom.node, d)
            if rel == 2:  # disjoint from delta: membership unchanged
                continue
            if rel == 1:  # inside delta: the whole atom flips
                flipped_id = atom_id
                splits.append(LeafSplit(atom_id, atom_id, None))
            else:
                flipped_id = self._mint_atom(atom & delta)
                kept_id = self._mint_atom(atom - delta)
                for member_pid in containing[atom_id]:
                    self._r[member_pid].add(flipped_id)
                    self._r[member_pid].add(kept_id)
                    containing[flipped_id].add(member_pid)
                    containing[kept_id].add(member_pid)
                self._drop_atom(atom_id)
                splits.append(LeafSplit(atom_id, flipped_id, kept_id))
            if flipped_id in r_set:
                r_set.discard(flipped_id)
                containing[flipped_id].discard(pid)
            else:
                r_set.add(flipped_id)
                containing[flipped_id].add(pid)
        return delta, splits

    def remove_predicate(self, pid: int) -> None:
        """Forget a predicate (tombstone semantics, Section VI-A).

        The atoms are left as-is -- they remain a correct (if no longer
        minimal) partition, and any AP Tree nodes labeled by the predicate
        keep evaluating it.  Stage 2 simply no longer consults it.
        """
        if pid not in self._pred_fns:
            raise KeyError(f"unknown predicate pid {pid}")
        del self._pred_fns[pid]
        for atom_id in self._r.pop(pid):
            self._containing[atom_id].discard(pid)

    def merge_siblings(
        self,
        pool: Iterable[int],
        groups: Mapping[int, int] | None = None,
    ) -> list[AtomMerge]:
        """Coalesce atoms in ``pool`` whose live memberships are identical.

        The delta counterpart of :meth:`coalesce`: instead of re-grouping
        the whole universe, only the atoms a removal may have affected are
        considered -- the callers (``repro.core.incremental``) pass the
        leaf atoms under the removed predicate's tree nodes, so the sweep
        is proportional to the touched region, not the atom count.

        ``groups`` optionally restricts merges to atoms sharing a group
        value (one group per spliced subtree): a pool atom with no group
        entry never merges.  Merged atoms get a fresh id inheriting the
        common memberships; returns one :class:`AtomMerge` per collapsed
        group (empty when the removal separated nothing).
        """
        buckets: dict[tuple[frozenset[int], int], list[int]] = {}
        for atom_id in pool:
            if atom_id not in self._atoms:
                continue
            if groups is None:
                group = 0
            elif atom_id in groups:
                group = groups[atom_id]
            else:
                continue
            key = (frozenset(self._containing[atom_id]), group)
            buckets.setdefault(key, []).append(atom_id)
        merges: list[AtomMerge] = []
        for members in sorted(buckets.values(), key=min):
            if len(members) > 1:
                merges.append(self.merge_atoms(members))
        return merges

    def merge_atoms(self, members: list[int]) -> AtomMerge:
        """Coalesce atoms with identical memberships into one fresh atom.

        The caller guarantees the memberships agree; the merged atom
        inherits them and the parts are dropped.
        """
        members = sorted(members)
        merged = self._atoms[members[0]]
        for member in members[1:]:
            merged = merged | self._atoms[member]
        new_id = self._mint_atom(merged)
        for pid in self._containing[members[0]]:
            self._r[pid].add(new_id)
            self._containing[new_id].add(pid)
        for member in members:
            self._drop_atom(member)
        return AtomMerge(new_id, tuple(members))

    def coalesce(self) -> dict[int, int]:
        """Merge atoms no live predicate distinguishes.

        Predicate *deletions* leave the partition finer than necessary:
        two atoms split only by a tombstoned predicate now have identical
        membership in every live ``R`` set. Tree rebuilds over the same
        universe need the minimal partition back (otherwise no candidate
        predicate can separate the fragments). Returns an old->new atom id
        mapping (identity for untouched atoms) so callers can translate
        weights or counters.
        """
        groups: dict[frozenset[int], list[int]] = {}
        for atom_id in self._atoms:
            groups.setdefault(
                frozenset(self._containing[atom_id]), []
            ).append(atom_id)
        mapping: dict[int, int] = {}
        for membership, members in groups.items():
            if len(members) == 1:
                mapping[members[0]] = members[0]
                continue
            merged = self._atoms[members[0]]
            for member in members[1:]:
                merged = merged | self._atoms[member]
            new_id = self._mint_atom(merged)
            for pid in membership:
                self._r[pid].add(new_id)
                self._containing[new_id].add(pid)
            for member in members:
                mapping[member] = new_id
                self._drop_atom(member)
        return mapping

    def snapshot_predicates(self) -> list[tuple[int, Function]]:
        """The live (pid, function) pairs, for reconstruction."""
        return sorted(self._pred_fns.items())

    def __repr__(self) -> str:
        return (
            f"AtomicUniverse({self.predicate_count} predicates, "
            f"{self.atom_count} atoms)"
        )
