"""Whole-classifier snapshots: warm restarts without recomputation.

Computing atomic predicates and building the AP Tree is the expensive part
of bringing AP Classifier up (Fig. 11); the query structures themselves
are tiny (§VII-B). A controller that restarts -- or a standby replica --
can therefore load a snapshot instead of recomputing: this module
serializes the network, the atoms, the ``R`` mapping, and the tree to one
JSON document and restores a ready-to-serve classifier from it.

On load the network is recompiled to predicates (cheap and deterministic)
and every stored predicate function is checked against the recompiled one
by BDD node identity -- a stale snapshot against a changed network fails
loudly instead of answering queries wrong.

The public entry points live in :mod:`repro.persist`
(``classifier_to_json``/``classifier_from_json`` for the string form,
``save``/``load`` for files, which also speak the binary artifact
format); this module is the JSON codec behind them.
"""

from __future__ import annotations

import json

from ..bdd.serialize import dump_node, load_node
from ..network.dataplane import DataPlane
from ..network.serialize import network_from_json, network_to_json
from .aptree import APTree, APTreeNode
from .atomic import AtomicUniverse
from .classifier import APClassifier

__all__ = ["SnapshotMismatch"]

FORMAT_VERSION = 1


class SnapshotMismatch(ValueError):
    """The snapshot does not correspond to the recompiled network."""


def _dump_tree(node: APTreeNode) -> list:
    if node.is_leaf:
        return ["L", node.atom_id]
    return ["N", node.pid, _dump_tree(node.low), _dump_tree(node.high)]


def _load_tree(
    payload: list, pid_map: dict[int, int], fn_nodes: dict[int, int]
) -> APTreeNode:
    if payload[0] == "L":
        return APTreeNode.leaf(payload[1])
    _, stored_pid, low, high = payload
    pid = pid_map[stored_pid]
    return APTreeNode.internal(
        pid,
        fn_nodes[pid],
        _load_tree(low, pid_map, fn_nodes),
        _load_tree(high, pid_map, fn_nodes),
    )


def _save_json(classifier: APClassifier) -> str:
    """Serialize a built classifier to a JSON string."""
    manager = classifier.dataplane.manager
    universe = classifier.universe
    payload = {
        "version": FORMAT_VERSION,
        "strategy": classifier.strategy,
        "network": json.loads(network_to_json(classifier.dataplane.network)),
        "predicates": [
            {
                "pid": pid,
                # The slot is the stable identity across serialization
                # (pids depend on compile order).
                "slot": [
                    classifier.dataplane.predicate(pid).kind,
                    classifier.dataplane.predicate(pid).box,
                    classifier.dataplane.predicate(pid).port,
                ],
                "bdd": dump_node(manager, universe.predicate_fn(pid).node),
                "r": sorted(universe.r(pid)),
            }
            for pid in universe.predicate_ids()
        ],
        "atoms": [
            {"atom_id": atom_id, "bdd": dump_node(manager, fn.node)}
            for atom_id, fn in sorted(universe.atoms().items())
        ],
        "tree": _dump_tree(classifier.tree.root),
    }
    return json.dumps(payload)


def _load_json(text: str) -> APClassifier:
    """Restore a classifier from :func:`_save_json` output.

    Raises :class:`SnapshotMismatch` when the stored predicates disagree
    with the ones recompiled from the stored network (which would mean
    the snapshot was edited or is corrupt).
    """
    payload = json.loads(text)
    if payload.get("version") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported classifier snapshot version {payload.get('version')!r}"
        )
    network = network_from_json(json.dumps(payload["network"]))
    dataplane = DataPlane(network)
    manager = dataplane.manager

    from ..bdd.function import Function

    # Match stored predicates to recompiled ones by slot (pids depend on
    # compile order, which serialization normalizes).
    live_by_slot = {slot: lp for slot, lp in dataplane.iter_slots()}
    pid_map: dict[int, int] = {}
    stored_fns: dict[int, Function] = {}
    stored_r: dict[int, set[int]] = {}
    for entry in payload["predicates"]:
        slot = tuple(entry["slot"])
        node = load_node(manager, entry["bdd"])
        live = live_by_slot.get(slot)
        if live is None or live.fn.node != node:
            raise SnapshotMismatch(
                f"stored predicate at slot {slot} does not match the "
                "recompiled network (stale or corrupted snapshot)"
            )
        pid_map[entry["pid"]] = live.pid
        stored_fns[live.pid] = Function(manager, node)
        stored_r[live.pid] = set(entry["r"])
    if len(stored_fns) != len(live_by_slot):
        raise SnapshotMismatch(
            "snapshot and recompiled network disagree on the predicate set"
        )

    # Rebuild the universe without refinement.
    universe = AtomicUniverse(manager)
    atoms: dict[int, Function] = {}
    for entry in payload["atoms"]:
        atoms[entry["atom_id"]] = Function(
            manager, load_node(manager, entry["bdd"])
        )
    universe._atoms = dict(atoms)
    universe._next_atom_id = max(atoms, default=-1) + 1
    universe._pred_fns = dict(stored_fns)
    universe._r = {pid: set(r) for pid, r in stored_r.items()}
    universe._containing = {atom_id: set() for atom_id in atoms}
    for pid, r_set in stored_r.items():
        for atom_id in r_set:
            if atom_id not in universe._containing:
                raise SnapshotMismatch(
                    f"R({pid}) references unknown atom {atom_id}"
                )
            universe._containing[atom_id].add(pid)

    fn_nodes = {pid: fn.node for pid, fn in stored_fns.items()}
    tree = APTree(manager, _load_tree(payload["tree"], pid_map, fn_nodes))
    if set(tree.leaf_depths()) != set(atoms):
        raise SnapshotMismatch("tree leaves do not cover the stored atoms")

    return APClassifier(
        dataplane, universe, tree, strategy=payload.get("strategy", "oapt")
    )
