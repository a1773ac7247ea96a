"""Whole-artifact serialization: universes and AP Trees as plain data.

The reconstruction worker (Section VI-B, Fig. 8) computes a fresh
universe and tree in its own process and must ship both back to the
query process.  BDD functions travel as one image
(:mod:`repro.bdd.serialize`); this module adds the structure around it:
atom order, ``R`` sets as positions, and the tree as a flat preorder
record list.

Atom ids are positional: a snapshot stores atoms in sorted-id order and
:func:`restore_universe` re-mints them as ``0..n-1``.  Universes that
went through :meth:`AtomicUniverse.renumber_canonical` (everything
:func:`repro.parallel.recon.rebuild_snapshot` produces) already have
exactly those ids, so a snapshot round-trip is id-stable.
"""

from __future__ import annotations

from ..bdd import BDDManager, Function
from ..bdd.serialize import dump_image, load_image
from ..core.aptree import APTree, APTreeNode
from ..core.atomic import AtomicUniverse

__all__ = [
    "snapshot_universe",
    "restore_universe",
    "snapshot_tree",
    "restore_tree",
    "tree_ghosts",
    "ghost_pids",
]

_LEAF = -1


def snapshot_universe(universe: AtomicUniverse) -> dict:
    """The universe as plain data (atoms positional, R by position).

    The image's roots are the predicates in ``pids`` order, then the
    atoms in sorted-id order.
    """
    order = sorted(universe.atom_ids())
    position = {atom_id: index for index, atom_id in enumerate(order)}
    pids = universe.predicate_ids()
    return {
        "image": dump_image(
            universe.manager,
            [universe.predicate_fn(p).node for p in pids]
            + [universe.atom_fn(a).node for a in order],
        ),
        "pids": pids,
        "r": [
            sorted(position[atom_id] for atom_id in universe.r(pid))
            for pid in pids
        ],
    }


def restore_universe(payload: dict, manager: BDDManager) -> AtomicUniverse:
    """Rebuild a snapshot in ``manager``; atoms become ids ``0..n-1``."""
    pids = payload["pids"]
    functions = [
        Function(manager, node) for node in load_image(manager, payload["image"])
    ]
    return AtomicUniverse.assemble(
        manager,
        dict(zip(pids, functions)),  # zip stops at the last predicate
        functions[len(pids):],
        dict(zip(pids, payload["r"])),
    )


def snapshot_tree(tree: APTree, universe: AtomicUniverse) -> list[list[int]]:
    """The tree as preorder records.

    ``[_LEAF, atom position, 0]`` for leaves, ``[pid, low index, high
    index]`` for internal nodes; children always index later records.
    ``universe`` must be the universe the tree was built over (its atom
    order defines the leaf positions).
    """
    position = {
        atom_id: index
        for index, atom_id in enumerate(sorted(universe.atom_ids()))
    }
    records: list[list[int]] = []
    # (node, parent record index, child slot); preorder so children
    # always land at larger indices than their parent.
    stack: list[tuple[APTreeNode, int, int]] = [(tree.root, -1, 0)]
    while stack:
        node, parent, slot = stack.pop()
        index = len(records)
        if parent >= 0:
            records[parent][slot] = index
        if node.is_leaf:
            assert node.atom_id is not None
            records.append([_LEAF, position[node.atom_id], 0])
        else:
            assert node.pid is not None
            assert node.low is not None and node.high is not None
            records.append([node.pid, 0, 0])
            stack.append((node.high, index, 2))
            stack.append((node.low, index, 1))
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
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            continue
        assert node.pid is not None
        if not universe.has_predicate(node.pid):
            prior = ghosts.setdefault(node.pid, node.fn_node)
            if prior != node.fn_node:
                raise ValueError(
                    f"tree nodes disagree on tombstoned predicate "
                    f"{node.pid}'s function"
                )
        assert node.low is not None and node.high is not None
        stack.append(node.low)
        stack.append(node.high)
    return ghosts


def ghost_pids(stored: list[int]) -> dict[int, int]:
    """Stored ghost pid -> the pid its restored tree nodes carry.

    Fresh *negative* pids, so a ghost can never collide with a pid the
    restored data plane mints now or later (``-1`` is the leaf marker,
    so ghosts start at ``-2``).
    """
    return {pid: -(index + 2) for index, pid in enumerate(stored)}


def restore_tree(
    records: list[list[int]],
    universe: AtomicUniverse,
    extra_fn_nodes: dict[int, int] | None = None,
) -> APTree:
    """Rebuild a snapshot against a (restored) universe.

    Leaf positions resolve through the universe's sorted atom ids and
    internal nodes re-fetch their predicate's BDD node from the
    universe, so the tree is fully wired into the target manager.

    ``extra_fn_nodes`` resolves pids the universe no longer knows: a
    tree can reference *tombstoned* predicates (removed from the
    universe, still evaluated by their nodes until the next rebuild),
    and the binary artifact persists those functions separately (see
    ``repro.artifact.codec``).  A pid found in neither raises
    ``KeyError`` as before.
    """
    if not records:
        raise ValueError("empty tree snapshot")
    order = sorted(universe.atom_ids())
    built: list[APTreeNode | None] = [None] * len(records)
    for index in reversed(range(len(records))):
        pid, first, second = records[index]
        if pid == _LEAF:
            built[index] = APTreeNode.leaf(order[first])
        else:
            low = built[first]
            high = built[second]
            assert low is not None and high is not None
            if extra_fn_nodes is not None and not universe.has_predicate(pid):
                fn_node = extra_fn_nodes[pid]
            else:
                fn_node = universe.predicate_fn(pid).node
            built[index] = APTreeNode.internal(pid, fn_node, low, high)
    root = built[0]
    assert root is not None
    return APTree(universe.manager, root)
