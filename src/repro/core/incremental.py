"""Incremental atom maintenance: in-place replacement, delta refinement
and local tree splice.

Section VI treats every predicate change as either a leaf split plus
tombstone (VI-A) or a *full* background reconstruction (VI-B), so the
partition drifts away from minimal between rebuilds and update latency
is bounded below by a whole rebuild.  This module closes that gap by
maintaining the atomic-predicate universe itself under churn:

* **Addition** is already a delta operation (``a & p`` / ``a & ~p`` per
  atom the predicate cuts, Section VI-A); the engine additionally patches
  the *compiled* program in place (:meth:`CompiledAPTree.patch_splits`:
  each cut atom gets one appended copy of the predicate's slice in front
  of its sinks, the outside half a fresh sink) so the fast path stays
  hot instead of falling back to the interpreted tree.
* **Replacement** -- a change that removes ``p_old`` and adds
  ``p_new``, which is what every changed port of a rule update is --
  is applied in place (:meth:`IncrementalEngine.replace_predicate`).
  Every atom lies wholly inside or wholly outside ``p_old``, so only the
  atoms ``delta = p_old ^ p_new`` meets change: the tree descent finds
  them with ``delta``, each flips whole or splits into a kept and a
  flipped part, and a flipped atom merges with at most one twin.  The
  tree is repaired inside that region, the compiled program gets one
  slice patch for ``delta`` and one relabel for the merges.  On
  stanford a change meets 8 atoms where a removal plus an addition
  re-examined ``R(p_old)``, ~230 of ~500.
* **Removal** no longer tombstones: the atoms the predicate's ``R`` set
  touched are re-examined, sibling atoms whose live memberships became
  identical are merged back (:meth:`AtomicUniverse.merge_siblings`),
  and the AP Tree is **spliced locally** -- only the subtrees rooted at
  nodes labeled by the removed predicate are rebuilt, over the merged
  atom set and the live candidate predicates; every other node keeps
  its identity and every unaffected atom keeps its id.  The compiled
  program only relabels the merged atoms' sinks
  (:meth:`CompiledAPTree.patch_merges`): the test that used to separate
  them stays in the program, redundant.

Both patches only append, so the program grows; once it is past
``COMPACT_GROWTH`` times its size at the last compile the engine
recompiles it (a *compaction*, counted as ``patch_fallbacks``): a fresh
canonical compile, so a compacted program equals a fresh one.

The BDD manager never frees a node, and every update mints a few
hundred.  Once the manager holds ``REHOME_GROWTH`` times its nodes after
the last build or move, the engine has the owning classifier *re-home*
(:meth:`~repro.core.classifier.APClassifier.rehome`): its live BDDs are
copied into a fresh manager through the artifact codec, ids kept, and
the program recompiled.  Engines without a classifier (the Section VI
simulation) never move.

Why the splice is globally complete: under pure incremental maintenance
every tree label is a live predicate, so for any pair of atoms that a
removal leaves indistinguishable, the lowest common ancestor separating
them *must* be a node labeled by the removed predicate (any other label
would be a live predicate distinguishing them).  Merging within the
spliced subtrees therefore restores the minimal-partition invariant
everywhere -- the property the equivalence tests pin against a
from-scratch rebuild.

The engine falls back to a full rebuild (universe coalesce + fresh tree
over the same ``APTree`` object, preserving identity for compiled-
staleness checks) only when the tree degrades past a depth budget, when
it was handed a tree with tombstone history (dead labels), or when a
splice cannot be built -- all counted under ``updates.incremental`` in
observability snapshots.  The budget is checked against an upper bound
on the max depth that updates raise by the depths they already know;
the tree is walked for the exact depth only when the bound passes the
budget, so the rebuild decisions are those of a walk per update.

A tree with dead labels, and a universe with no tree, keep the
removal-then-addition path for replacements.
"""

from __future__ import annotations

import math
from typing import Sequence

from ..network.dataplane import LabeledPredicate, PredicateChange
from .aptree import APTreeNode
from .atomic import AtomMerge
from .construction import build_tree
from .update import UpdateEngine, UpdateResult

__all__ = ["IncrementalEngine"]

#: A patched program is recompiled once it exceeds this multiple of its
#: node count at the last compile.
COMPACT_GROWTH = 2

#: The classifier's BDDs move to a fresh manager
#: (:meth:`~repro.core.classifier.APClassifier.rehome`) once the manager
#: holds more than this multiple of its nodes after the last build or
#: move: a manager never frees a node, and churn grows it by a few
#: hundred nodes an update.
REHOME_GROWTH = 4


def _leaf_atoms(node: APTreeNode) -> list[int]:
    """Atom ids of every leaf under ``node`` (including ``node`` itself)."""
    atoms: list[int] = []
    stack = [node]
    while stack:
        n = stack.pop()
        if n.is_leaf:
            assert n.atom_id is not None
            atoms.append(n.atom_id)
        else:
            assert n.low is not None and n.high is not None
            stack.append(n.low)
            stack.append(n.high)
    return atoms


class IncrementalEngine(UpdateEngine):
    """An :class:`UpdateEngine` that keeps the partition minimal under churn.

    Drop-in for the base engine (same ``apply``/``replay`` surface).
    ``classifier`` optionally hands the engine the owning
    :class:`~repro.core.classifier.APClassifier` so compiled artifacts
    are patched in place (and compacted when patches have doubled them)
    instead of decaying into stale-fallback.

    The depth budget (:meth:`depth_budget`) bounds how unbalanced
    splices may leave the tree before a full rebuild resets it; pure
    additions degrade slowly (each split deepens one path by one), so
    on realistic churn the budget is rarely hit.
    """

    def __init__(
        self,
        universe,
        tree,
        counter=None,
        recorder=None,
        *,
        classifier=None,
        strategy: str = "oapt",
    ) -> None:
        super().__init__(universe, tree, counter, recorder)
        self.classifier = classifier
        self.strategy = strategy
        self.merges_applied = 0
        self.splices = 0
        self.patches = 0
        self.patch_fallbacks = 0
        self.full_rebuilds = 0
        self.rehomes = 0
        # Manager size after the last build or re-home (the yardstick
        # of ``REHOME_GROWTH``).
        self._manager_base = len(universe.manager)
        # A tree carrying tombstoned labels predates this engine (the
        # splice-completeness argument needs every label live); the
        # first removal cleans it up with one full rebuild.
        self._labels_live = tree is None or all(
            universe.has_predicate(node.pid)
            for node in tree._walk()
            if not node.is_leaf
        )
        # An upper bound on the tree's max depth, raised by the depths
        # each update already knows; the exact walk runs only when the
        # bound passes the budget (see ``_maybe_rebuild``).
        self._depth_bound = tree.max_depth() if tree is not None else 0
        # The max depth of the last full build or adopted tree.
        self._built_depth = self._depth_bound

    # ------------------------------------------------------------------
    # Additions
    # ------------------------------------------------------------------

    def add_predicate(self, labeled: LabeledPredicate) -> int:
        tree = self.tree
        version_before = tree.version if tree is not None else 0
        splits = self.universe.add_predicate(labeled.pid, labeled.fn, tree)
        if self.counter is not None:
            for split in splits:
                if split.is_split:
                    assert split.inside_id is not None
                    assert split.outside_id is not None
                    self.counter.on_split(
                        split.old_id, split.inside_id, split.outside_id
                    )
        if tree is None:
            return sum(1 for split in splits if split.is_split)
        split_count = tree.apply_splits(labeled.pid, labeled.fn.node, splits)
        if split_count:  # each split deepens one path by one
            self._depth_bound += 1
        compiled = self._compiled_for_patch(version_before)
        if compiled is not None:
            compiled.patch_splits(labeled.fn.node, splits)
            self._note_patch()
        self._maybe_rebuild(compiled)
        return split_count

    # ------------------------------------------------------------------
    # Removals
    # ------------------------------------------------------------------

    def remove_predicate(self, pid: int) -> int:
        universe = self.universe
        tree = self.tree
        tombstoned = len(universe.r(pid))
        if tree is None:
            universe.remove_predicate(pid)
            merges = universe.merge_siblings(universe.atom_ids())
            self._note_merges(merges)
            return tombstoned
        if not self._labels_live:
            universe.remove_predicate(pid)
            self._full_rebuild()
            return tombstoned
        version_before = tree.version

        # The subtrees whose label set changes: every node labeled pid.
        # (The same pid never nests under itself -- each addition labels
        # disjoint split leaves, and builds never repeat a pid on a path.)
        sites: list[tuple[APTreeNode, APTreeNode | None, bool, int]] = []
        stack: list[tuple[APTreeNode, APTreeNode | None, bool, int]] = [
            (tree.root, None, False, 0)
        ]
        while stack:
            node, parent, is_high, depth = stack.pop()
            if node.is_leaf:
                continue
            if node.pid == pid:
                sites.append((node, parent, is_high, depth))
                continue
            assert node.low is not None and node.high is not None
            stack.append((node.low, node, False, depth + 1))
            stack.append((node.high, node, True, depth + 1))

        universe.remove_predicate(pid)
        if not sites:
            # The predicate was never placed (it split nothing when the
            # tree was built, e.g. R(p) covered every atom): removing it
            # changes no structure and merges nothing.
            tree.touch()
            compiled = self._compiled_for_patch(version_before)
            if compiled is not None:
                compiled.patch_merges(())
                self._note_patch()
            return tombstoned

        site_atoms = [_leaf_atoms(node) for node, _, _, _ in sites]
        groups: dict[int, int] = {}
        for index, atoms in enumerate(site_atoms):
            for atom_id in atoms:
                groups[atom_id] = index
        merges = universe.merge_siblings(list(groups), groups)
        self._note_merges(merges)
        mapping: dict[int, int] = {}
        for merge in merges:
            for part in merge.parts:
                mapping[part] = merge.merged_id
        if self.counter is not None and mapping:
            self.counter.on_merge(mapping)

        # Splice: rebuild each affected subtree over its merged atoms and
        # the live candidates, preserving everything outside the sites.
        try:
            for index, (node, parent, is_high, depth) in enumerate(sites):
                merged_atoms = frozenset(
                    mapping.get(atom_id, atom_id)
                    for atom_id in site_atoms[index]
                )
                replacement = self._build_local(merged_atoms)
                if parent is None:
                    tree.root = replacement
                elif is_high:
                    parent.high = replacement
                else:
                    parent.low = replacement
                for atom_id in site_atoms[index]:
                    tree._leaf_index.pop(atom_id, None)
                stack2 = [(replacement, depth)]
                while stack2:
                    n, below = stack2.pop()
                    if n.is_leaf:
                        tree._leaf_index[n.atom_id] = n
                        if below > self._depth_bound:
                            self._depth_bound = below
                    else:
                        stack2.append((n.low, below + 1))
                        stack2.append((n.high, below + 1))
                self.splices += 1
                rec = self.recorder
                if rec is not None:
                    rec.updates.incremental_splices += 1
        except ValueError:
            # No live candidate distinguishes some atom pair under a
            # site -- only possible with tombstone history the liveness
            # probe missed; a full rebuild restores every invariant.
            tree.touch()
            self._full_rebuild()
            return tombstoned
        tree.touch()

        compiled = self._compiled_for_patch(version_before)
        if compiled is not None:
            compiled.patch_merges(
                [(merge.merged_id, merge.parts) for merge in merges]
            )
            self._note_patch()
        self._maybe_rebuild(compiled)
        return tombstoned

    # ------------------------------------------------------------------
    # Replacements
    # ------------------------------------------------------------------

    def replace_predicate(
        self, old_pid: int, labeled: LabeledPredicate
    ) -> tuple[int, int]:
        """Swap ``old_pid`` for ``labeled`` touching only the atoms that
        ``delta = p_old ^ p_new`` meets.

        The universe renames ``R(p_old)`` to the new pid and flips or
        splits the atoms ``delta`` meets
        (:meth:`AtomicUniverse.replace_predicate`); the tree's ``p_old``
        nodes are relabeled.  Then, per touched atom in ascending id,
        its leaf is found by descending on the memberships that placed
        it.  With no new-pid node on that path a cut atom's leaf becomes
        a new-pid node over its two parts (as in an addition) and a
        whole flip stays put: no label on its path changed.  Otherwise
        the kept part stays in the leaf, a whole flip's leaf is removed
        (its parent collapses into the sibling), and the flipped atom is
        queued.  Once every leaf is placed, each queued atom descends on
        its new memberships to a leaf ``g``: with equal memberships the
        two merge into a fresh atom, else ``g`` becomes a node labeled
        by the smallest pid telling them apart.  Two flipped atoms never
        merge (their old memberships differ), and an atom with no
        new-pid node on its path has no twin to merge with (their lowest
        common ancestor would be one), so the partition comes out
        minimal and no pid repeats on a path.

        Returns ``(atoms delta cut, atoms whose membership flipped)``.
        Tree-less universes and trees with dead labels keep the
        remove-then-add path.
        """
        tree = self.tree
        if tree is None or not self._labels_live:
            return super().replace_predicate(old_pid, labeled)
        universe = self.universe
        version_before = tree.version
        pid, fn_node = labeled.pid, labeled.fn.node
        delta, flips = universe.replace_predicate(
            old_pid, pid, labeled.fn, tree
        )
        stack = [tree.root]
        while stack:
            node = stack.pop()
            if node.pid is not None:
                if node.pid == old_pid:
                    node.pid = pid
                    node.fn_node = fn_node
                stack.append(node.low)
                stack.append(node.high)
        index = tree._leaf_index
        queued: list[int] = []
        cut = [flip for flip in flips if flip.is_split]
        for flip in flips:
            old_id, flipped_id, kept_id = (
                flip.old_id, flip.inside_id, flip.outside_id
            )
            if kept_id is None:  # the whole atom flipped
                path = self._path(universe.memberships(old_id), pid)
            else:
                path = self._path(universe.memberships(kept_id))
            leaf = path[-1]
            assert leaf.atom_id == old_id
            if all(node.pid != pid for node in path):
                if kept_id is not None:
                    inside, outside = (
                        (kept_id, flipped_id)
                        if universe.contains(pid, kept_id)
                        else (flipped_id, kept_id)
                    )
                    tree.split_leaf(leaf, pid, fn_node, inside, outside)
                    self._depth_bound = max(self._depth_bound, len(path))
                continue
            del index[old_id]
            if kept_id is not None:
                leaf.atom_id = kept_id
                index[kept_id] = leaf
            else:
                parent = path[-2]
                sibling = parent.low if parent.high is leaf else parent.high
                if len(path) == 2:
                    tree.root = sibling
                elif path[-3].high is parent:
                    path[-3].high = sibling
                else:
                    path[-3].low = sibling
            queued.append(flipped_id)
        merges: list[AtomMerge] = []
        for flipped_id in queued:
            members = universe.memberships(flipped_id)
            path = self._path(members)
            leaf = path[-1]
            other = leaf.atom_id
            assert other is not None
            other_members = universe.memberships(other)
            if members == other_members:
                merge = universe.merge_atoms([flipped_id, other])
                merges.append(merge)
                del index[other]
                leaf.atom_id = merge.merged_id
                index[merge.merged_id] = leaf
                continue
            label = min(members ^ other_members)
            if label in members:
                inside, outside = flipped_id, other
            else:
                inside, outside = other, flipped_id
            tree.split_leaf(
                leaf, label, universe.predicate_fn(label).node,
                inside, outside,
            )
            self._depth_bound = max(self._depth_bound, len(path))
        tree.touch()
        if self.counter is not None:
            for flip in cut:
                self.counter.on_split(
                    flip.old_id, flip.inside_id, flip.outside_id
                )
            if merges:
                self.counter.on_merge({
                    part: merge.merged_id
                    for merge in merges
                    for part in merge.parts
                })
        self._note_merges(merges)
        rec = self.recorder
        if rec is not None:
            rec.updates.record_splits(len(cut))
        compiled = self._compiled_for_patch(version_before)
        if compiled is not None:
            compiled.patch_splits(delta.node, cut)
            compiled.patch_merges(
                [(merge.merged_id, merge.parts) for merge in merges]
            )
            self._note_patch()
        self._maybe_rebuild(compiled)
        return len(cut), len(flips)

    def _path(
        self, members: frozenset[int], toggled: int | None = None
    ) -> list[APTreeNode]:
        """The root-to-leaf path of an atom inside exactly the pids in
        ``members`` (with ``toggled``'s membership inverted)."""
        node = self.tree.root
        path = [node]
        while node.pid is not None:
            inside = (node.pid in members) != (node.pid == toggled)
            node = node.high if inside else node.low
            path.append(node)
        return path

    # ------------------------------------------------------------------
    # Local subtree construction
    # ------------------------------------------------------------------

    def _build_local(self, atoms: frozenset[int]) -> APTreeNode:
        """A pruned subtree over ``atoms`` using live candidates only.

        Deterministic balanced chooser (most even split, smallest pid on
        ties) -- splice results must not depend on set iteration order,
        or the equivalence property against a rebuild becomes flaky.
        """
        if len(atoms) == 1:
            return APTreeNode.leaf(next(iter(atoms)))
        universe = self.universe
        candidates: set[int] = set()
        for atom_id in atoms:
            candidates |= universe.memberships(atom_id)
        r_sets = {pid: universe.r(pid) for pid in candidates}
        fn_nodes = {
            pid: universe.predicate_fn(pid).node for pid in candidates
        }

        def build(cands: list[int], subset: frozenset[int]) -> APTreeNode:
            if len(subset) == 1:
                return APTreeNode.leaf(next(iter(subset)))
            splitting = [
                pid
                for pid in cands
                if 0 < len(subset & r_sets[pid]) < len(subset)
            ]
            if not splitting:
                raise ValueError(
                    "multiple atoms under a splice but no live predicate "
                    "distinguishes them"
                )
            pid = min(
                splitting,
                key=lambda p: (
                    abs(2 * len(subset & r_sets[p]) - len(subset)),
                    p,
                ),
            )
            inside = subset & r_sets[pid]
            outside = subset - r_sets[pid]
            remaining = [c for c in splitting if c != pid]
            return APTreeNode.internal(
                pid, fn_nodes[pid], build(remaining, outside), build(remaining, inside)
            )

        return build(sorted(candidates), atoms)

    # ------------------------------------------------------------------
    # Degradation fallback
    # ------------------------------------------------------------------

    def depth_budget(self) -> float:
        """Max depth tolerated before a splice-degraded tree is rebuilt:
        ``4 * ceil(log2(atoms)) + 8``, or 1.5 times the depth of the last
        full build or adopted tree if that is more.  A tree fresh from a
        build is never over its own budget, so a plane whose built trees
        are deep does not rebuild on every update."""
        atoms = max(self.universe.atom_count, 2)
        absolute = 4.0 * math.ceil(math.log2(atoms)) + 8
        return max(absolute, 1.5 * self._built_depth)

    def _maybe_rebuild(self, compiled=None) -> None:
        """Rebuild a tree past the depth budget; otherwise compact a
        patched program (``compiled``) past ``COMPACT_GROWTH`` times its
        compiled size."""
        tree = self.tree
        if tree is None:
            return
        budget = self.depth_budget()
        if self._depth_bound > budget:
            # Collapses and merges only make paths shorter, so the bound
            # drifts up; measure before acting on it.
            self._depth_bound = tree.max_depth()
        if self._depth_bound > budget:
            self._full_rebuild()
        elif compiled is not None and (
            compiled.node_count > COMPACT_GROWTH * compiled.compiled_nodes
        ):
            self._note_patch_fallback()

    def apply_all(self, changes: list[PredicateChange]) -> list[UpdateResult]:
        """Apply one rule update's changes, then re-home the owning
        classifier once its manager holds more than ``REHOME_GROWTH``
        times its nodes after the last build or move.

        The check waits for the whole batch: the data plane already
        holds every change of the update, so only here do the two
        agree.  Only a compiled classifier moves -- the re-home
        recompiles, and an uncompiled one is a what-if shadow whose
        caller holds its BDDs across its updates.
        """
        results = super().apply_all(changes)
        clf = self.classifier
        if clf is not None and clf.compiled is not None and (
            len(self.universe.manager) > REHOME_GROWTH * self._manager_base
        ):
            clf.rehome()  # re-points self.universe and self.tree
            self._manager_base = len(self.universe.manager)
            self.rehomes += 1
        return results

    def _full_rebuild(self) -> None:
        """Coalesce the universe and rebuild the tree *in place*.

        The fresh structure is grafted onto the existing ``APTree``
        object (root + leaf index) instead of swapping objects: the
        owning classifier, any serving layer, and the compiled-engine
        staleness protocol all key on tree identity, and an in-place
        graft keeps every one of them coherent with a single version
        bump.
        """
        universe = self.universe
        tree = self.tree
        mapping = universe.coalesce()
        if self.counter is not None:
            self.counter.on_merge(mapping)
        report = build_tree(universe, strategy=self.strategy)
        tree.root = report.tree.root
        tree._leaf_index = report.tree._leaf_index
        tree.touch()
        self._labels_live = True
        self._depth_bound = self._built_depth = tree.max_depth()
        self.full_rebuilds += 1
        rec = self.recorder
        if rec is not None:
            rec.updates.rebuilds += 1
            rec.updates.incremental_full_rebuilds += 1
        clf = self.classifier
        if clf is not None and clf.compiled is not None:
            clf.compile(backend=clf.compiled.backend)

    # ------------------------------------------------------------------
    # Compiled-artifact bookkeeping
    # ------------------------------------------------------------------

    def _compiled_for_patch(self, version_before: int):
        """The owning classifier's artifact, iff it was fresh pre-update.

        An artifact that was already stale (or compiled against another
        tree object) is not this engine's to manage -- whoever let it go
        stale owns the recompile policy.
        """
        clf = self.classifier
        if clf is None:
            return None
        compiled = clf.compiled
        if compiled is None or not compiled.patchable:
            return None
        if compiled.tree is not self.tree:
            return None
        if compiled.tree_version != version_before:
            return None
        return compiled

    def _note_patch(self) -> None:
        self.patches += 1
        rec = self.recorder
        if rec is not None:
            rec.updates.incremental_patches += 1

    def _note_patch_fallback(self) -> None:
        """Compact the patched program: recompile it from the live atoms.

        Patches only append (slice copies, fresh sinks, redundant tests
        left by merges), so the program grows with churn; a recompile
        resets it to the canonical program.  Counted as a patch
        fallback.
        """
        self.patch_fallbacks += 1
        rec = self.recorder
        if rec is not None:
            rec.updates.incremental_patch_fallbacks += 1
        clf = self.classifier
        if clf is not None and clf.compiled is not None:
            clf.compile(backend=clf.compiled.backend)

    def _note_merges(self, merges: Sequence[AtomMerge]) -> None:
        if not merges:
            return
        self.merges_applied += len(merges)
        rec = self.recorder
        if rec is not None:
            rec.updates.incremental_merges += len(merges)
