"""The AP Tree: a binary decision tree over whole predicates.

Searching the tree classifies a packet to its atomic predicate in (average)
far fewer predicate evaluations than the number of predicates ``k``
(Section IV-A).  Internal nodes are labeled by a predicate; the packet goes
left/right by evaluating that predicate's BDD; leaves are labeled by atomic
predicates.  The tree is kept *pruned*: a predicate that would not split
the atoms reaching a node is simply never placed there, so every internal
node has exactly two children and every leaf is a real (non-false) atom.
"""

from __future__ import annotations

from typing import Callable, Iterator, Mapping, Sequence

from ..bdd import BDDManager
from .atomic import AtomicUniverse, LeafSplit

__all__ = [
    "APTree",
    "APTreeNode",
    "build_ap_tree",
    "snapshot_tree",
    "restore_tree",
    "tree_ghosts",
]

#: Pid slot of a leaf in :func:`snapshot_tree` records.
_LEAF = -1


class APTreeNode:
    """One tree node; a leaf iff ``pid is None``.

    Internal nodes cache the raw BDD node id of their predicate so the
    search loop touches no dictionaries.  ``high`` is the true branch.
    """

    __slots__ = ("pid", "fn_node", "low", "high", "atom_id")

    def __init__(self) -> None:
        self.pid: int | None = None
        self.fn_node = 0
        self.low: APTreeNode | None = None
        self.high: APTreeNode | None = None
        self.atom_id: int | None = None

    @property
    def is_leaf(self) -> bool:
        return self.pid is None

    @classmethod
    def leaf(cls, atom_id: int) -> "APTreeNode":
        node = cls()
        node.atom_id = atom_id
        return node

    @classmethod
    def internal(
        cls, pid: int, fn_node: int, low: "APTreeNode", high: "APTreeNode"
    ) -> "APTreeNode":
        node = cls()
        node.pid = pid
        node.fn_node = fn_node
        node.low = low
        node.high = high
        return node

    def __repr__(self) -> str:
        if self.is_leaf:
            return f"APTreeNode(leaf atom={self.atom_id})"
        return f"APTreeNode(pid={self.pid})"


class APTree:
    """A built tree plus the search and maintenance entry points."""

    def __init__(self, manager: BDDManager, root: APTreeNode) -> None:
        self.manager = manager
        self.root = root
        #: Bumped on every structural mutation; compiled artifacts
        #: (:mod:`repro.core.compiled`) stamp the version they saw and
        #: fall back to this interpreted tree once it moves.
        self.version = 0
        #: Optional :class:`repro.obs.Recorder`.  Checked once per query
        #: (not per node): when ``None`` the search loops below are the
        #: exact uninstrumented code.
        self.recorder = None
        # atom id -> leaf node, so updates touch only the affected leaves
        # instead of walking every leaf per predicate addition.
        self._leaf_index: dict[int, APTreeNode] = {
            leaf.atom_id: leaf  # type: ignore[misc]
            for leaf in self._walk()
            if leaf.is_leaf
        }

    def touch(self) -> None:
        """Mark the tree structurally changed (invalidates compiled forms)."""
        self.version += 1

    # ------------------------------------------------------------------
    # Search (stage 1 of AP Classifier)
    # ------------------------------------------------------------------

    def classify(self, header: int) -> int:
        """Atom id for a packed header.

        At each internal node the packet is evaluated against the node's
        predicate BDD; sibling subtrees hold disjoint packet sets, so the
        root-to-leaf path is unique (Section IV-A).
        """
        node = self.root
        evaluate = self.manager.evaluate_from
        rec = self.recorder
        if rec is None:
            while node.pid is not None:
                node = node.high if evaluate(node.fn_node, header) else node.low
        else:
            depth = 0
            while node.pid is not None:
                depth += 1
                node = node.high if evaluate(node.fn_node, header) else node.low
            rec.tree.record_query(depth)
        atom_id = node.atom_id
        assert atom_id is not None
        return atom_id

    def classify_many(self, headers) -> list[int]:
        """Classify a batch of headers.

        Functionally ``[classify(h) for h in headers]`` with the hot-loop
        state hoisted out; the benchmark harness uses it for throughput
        runs where per-call overhead would otherwise dominate.  The
        recorder check is hoisted out of the loop too: with no recorder
        attached the loop below is the exact uninstrumented code.
        """
        root = self.root
        evaluate = self.manager.evaluate_from
        rec = self.recorder
        results: list[int] = []
        append = results.append
        if rec is None:
            for header in headers:
                node = root
                while node.pid is not None:
                    node = node.high if evaluate(node.fn_node, header) else node.low
                append(node.atom_id)  # type: ignore[arg-type]
            return results
        record_query = rec.tree.record_query
        for header in headers:
            node = root
            depth = 0
            while node.pid is not None:
                depth += 1
                node = node.high if evaluate(node.fn_node, header) else node.low
            record_query(depth)
            append(node.atom_id)  # type: ignore[arg-type]
        return results

    def explain(self, header: int) -> list[tuple[int, bool]]:
        """The search trace: (predicate pid, verdict) per node visited.

        Debugging hook: shows exactly which predicates the packet was
        evaluated against and how it branched on each.
        """
        node = self.root
        evaluate = self.manager.evaluate_from
        trace: list[tuple[int, bool]] = []
        while node.pid is not None:
            verdict = evaluate(node.fn_node, header)
            trace.append((node.pid, verdict))
            node = node.high if verdict else node.low
        rec = self.recorder
        if rec is not None:
            rec.tree.record_query(len(trace))
        return trace

    def classify_with_depth(self, header: int) -> tuple[int, int]:
        """Like :meth:`classify` but also counts evaluated predicates."""
        node = self.root
        evaluate = self.manager.evaluate_from
        depth = 0
        while node.pid is not None:
            depth += 1
            node = node.high if evaluate(node.fn_node, header) else node.low
        atom_id = node.atom_id
        assert atom_id is not None
        rec = self.recorder
        if rec is not None:
            rec.tree.record_query(depth)
        return atom_id, depth

    # ------------------------------------------------------------------
    # Structure inspection
    # ------------------------------------------------------------------

    def leaves(self) -> Iterator[APTreeNode]:
        yield from (node for node in self._walk() if node.is_leaf)

    def _walk(self) -> Iterator[APTreeNode]:
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if not node.is_leaf:
                assert node.low is not None and node.high is not None
                stack.append(node.low)
                stack.append(node.high)

    def leaf_depths(self) -> dict[int, int]:
        """Atom id -> number of predicates evaluated to reach its leaf."""
        depths: dict[int, int] = {}
        stack: list[tuple[APTreeNode, int]] = [(self.root, 0)]
        while stack:
            node, depth = stack.pop()
            if node.is_leaf:
                assert node.atom_id is not None
                depths[node.atom_id] = depth
            else:
                assert node.low is not None and node.high is not None
                stack.append((node.low, depth + 1))
                stack.append((node.high, depth + 1))
        return depths

    def average_depth(self, weights: dict[int, float] | None = None) -> float:
        """Mean leaf depth, optionally weighted by atom visit frequency."""
        depths = self.leaf_depths()
        if not depths:
            return 0.0
        if weights is None:
            return sum(depths.values()) / len(depths)
        total_weight = sum(weights.get(atom, 1.0) for atom in depths)
        weighted = sum(
            depth * weights.get(atom, 1.0) for atom, depth in depths.items()
        )
        return weighted / total_weight if total_weight else 0.0

    def max_depth(self) -> int:
        depths = self.leaf_depths()
        return max(depths.values(), default=0)

    def node_count(self) -> int:
        return sum(1 for _ in self._walk())

    def leaf_count(self) -> int:
        return sum(1 for _ in self.leaves())

    # ------------------------------------------------------------------
    # Real-time update (Section VI-A), tree side
    # ------------------------------------------------------------------

    def apply_splits(
        self, pid: int, fn_node: int, splits: list[LeafSplit]
    ) -> int:
        """Mirror a predicate addition onto the leaves.

        For every split atom the leaf grows two children under an internal
        node labeled by the new predicate; absorbed atoms keep their leaf
        (relabeled when the universe minted the surviving side under the
        old id, which it does -- ids only change on real splits).  Leaves
        are found through the atom-id index, so the cost is proportional
        to the number of *affected* leaves, not the leaf count.  Returns
        the number of leaves that were split.
        """
        index = self._leaf_index
        split_count = 0
        for split in splits:
            if not split.is_split:
                continue
            leaf = index.get(split.old_id)
            if leaf is None:
                continue  # atom not represented in this tree
            assert split.inside_id is not None and split.outside_id is not None
            high = APTreeNode.leaf(split.inside_id)
            low = APTreeNode.leaf(split.outside_id)
            leaf.pid = pid
            leaf.fn_node = fn_node
            leaf.high = high
            leaf.low = low
            leaf.atom_id = None
            del index[split.old_id]
            index[split.inside_id] = high
            index[split.outside_id] = low
            split_count += 1
        self.touch()
        rec = self.recorder
        if rec is not None:
            rec.updates.record_splits(split_count)
        return split_count

    def __repr__(self) -> str:
        return (
            f"APTree({self.leaf_count()} leaves, "
            f"avg depth {self.average_depth():.2f})"
        )


def build_ap_tree(
    universe: AtomicUniverse,
    choose: Callable[[list[int], frozenset[int]], int],
    candidate_pids: list[int] | None = None,
) -> APTree:
    """Top-down pruned construction.

    ``choose(candidates, atoms)`` picks the predicate to place at the root
    of the subtree whose reachable atom set is ``atoms``; candidates are
    exactly the predicates that *split* ``atoms`` (both sides non-empty),
    so pruning never creates single-child nodes.  The ordering strategies
    of Section V are all expressed as ``choose`` functions.
    """
    pids = list(universe.predicate_ids()) if candidate_pids is None else list(candidate_pids)
    r_sets = {pid: universe.r(pid) for pid in pids}
    manager = universe.manager

    def build(candidates: list[int], atoms: frozenset[int]) -> APTreeNode:
        if len(atoms) == 1:
            return APTreeNode.leaf(next(iter(atoms)))
        # A predicate splits this subtree iff both sides are non-empty; the
        # filter also holds for every descendant, so we can narrow as we go.
        splitting = [
            pid
            for pid in candidates
            if 0 < len(atoms & r_sets[pid]) < len(atoms)
        ]
        if not splitting:
            raise ValueError(
                "multiple atoms but no predicate distinguishes them; "
                "the universe and candidate predicates are inconsistent"
            )
        pid = choose(splitting, atoms)
        inside = atoms & r_sets[pid]
        outside = atoms - r_sets[pid]
        remaining = [candidate for candidate in splitting if candidate != pid]
        return APTreeNode.internal(
            pid,
            universe.predicate_fn(pid).node,
            build(remaining, outside),
            build(remaining, inside),
        )

    atoms = universe.atom_ids()
    if not atoms:
        raise ValueError("cannot build an AP Tree over zero atoms")
    if len(atoms) == 1:
        return APTree(manager, APTreeNode.leaf(next(iter(atoms))))
    return APTree(manager, build(pids, atoms))


# ----------------------------------------------------------------------
# Tree records: the one plain-data form of a tree (artifacts, rebuilds)
# ----------------------------------------------------------------------


def snapshot_tree(tree: APTree, universe: AtomicUniverse) -> list[int]:
    """The tree as flat preorder records, three ints each.

    ``_LEAF, atom position, 0`` for a leaf, ``pid, low index, high
    index`` for an internal node, indices counting records; children
    always index later records.  ``universe`` must be the universe the
    tree was built over (its sorted atom ids define the leaf positions).
    """
    position = {
        atom_id: index
        for index, atom_id in enumerate(sorted(universe.atom_ids()))
    }
    records: list[int] = []
    # (node, parent record's flat offset + child slot); preorder so
    # children always land after their parent.
    stack: list[tuple[APTreeNode, int]] = [(tree.root, -1)]
    while stack:
        node, link = stack.pop()
        index = len(records) // 3
        if link >= 0:
            records[link] = index
        if node.is_leaf:
            assert node.atom_id is not None
            records += (_LEAF, position[node.atom_id], 0)
        else:
            assert node.pid is not None
            assert node.low is not None and node.high is not None
            records += (node.pid, 0, 0)
            stack.append((node.high, 3 * index + 2))
            stack.append((node.low, 3 * index + 1))
    return records


def tree_ghosts(tree: APTree, universe: AtomicUniverse) -> dict[int, int]:
    """pid -> BDD node of every tombstoned label the tree still evaluates.

    After an update removes a predicate, its internal nodes keep
    evaluating the old BDD until the next rebuild, but the universe no
    longer holds its function; a snapshot carries these "ghost"
    functions from the tree nodes themselves so a restored tree
    classifies bit-identically to the live one.  Raises ``ValueError``
    when two nodes disagree on one dead pid's function.
    """
    ghosts: dict[int, int] = {}
    for node in tree._walk():
        if node.is_leaf or universe.has_predicate(node.pid):
            continue
        prior = ghosts.setdefault(node.pid, node.fn_node)
        if prior != node.fn_node:
            raise ValueError(
                f"tree nodes disagree on tombstoned predicate "
                f"{node.pid}'s function"
            )
    return ghosts


def restore_tree(
    records: Sequence[int],
    universe: AtomicUniverse,
    *,
    pids: Mapping[int, int] | None = None,
    ghosts: Mapping[int, int] | None = None,
) -> APTree:
    """Rebuild :func:`snapshot_tree` records against a (restored) universe.

    Leaf positions resolve through the universe's sorted atom ids and
    internal nodes re-fetch their predicate's BDD node from the
    universe, so the tree is fully wired into the target manager.
    ``pids`` renames stored pids (a load re-mints them).  ``ghosts``
    maps each stored pid the universe no longer holds -- a tombstoned
    predicate its nodes still evaluate (see :func:`tree_ghosts`) -- to
    its BDD node; those nodes get fresh *negative* pids in ``ghosts``
    order, so they never collide with a pid the universe mints now or
    later (``-1`` is the leaf marker, so ghosts start at ``-2``).
    Records arrive from files and pipes, so they are validated: a
    malformed record, an unknown pid or leaves that do not cover the
    universe's atoms exactly once raise ``ValueError``.
    """
    if hasattr(records, "tolist"):  # numpy / array.array section views
        records = records.tolist()
    count, ragged = divmod(len(records), 3)
    if ragged or not count:
        raise ValueError(f"{len(records)} ints are not whole tree records")
    ghosts = ghosts or {}
    ghost_labels = {pid: -(index + 2) for index, pid in enumerate(ghosts)}
    order = sorted(universe.atom_ids())
    built: list[APTreeNode] = [None] * count  # type: ignore[list-item]
    leaves = 0
    for index in reversed(range(count)):
        pid, first, second = records[3 * index : 3 * index + 3]
        if pid == _LEAF:
            if not 0 <= first < len(order):
                raise ValueError(f"leaf record {index} names no atom")
            built[index] = APTreeNode.leaf(order[first])
            leaves += 1
            continue
        if not index < first < count or not index < second < count:
            raise ValueError(f"record {index} has out-of-order children")
        label = pid if pids is None else pids.get(pid)
        if universe.has_predicate(label):
            fn_node = universe.predicate_fn(label).node
        elif pid in ghosts:
            label, fn_node = ghost_labels[pid], ghosts[pid]
        else:
            raise ValueError(f"tree references unknown predicate pid {pid}")
        built[index] = APTreeNode.internal(
            label, fn_node, built[first], built[second]
        )
    tree = APTree(universe.manager, built[0])
    if not leaves == len(tree._leaf_index) == len(order):
        raise ValueError("tree leaves do not cover the atoms exactly once")
    return tree
