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

from ..bdd import Function
from ..bdd.serialize import dump_image, load_image
from ..network.dataplane import DataPlane
from ..network.serialize import network_from_json, network_to_json
from ..parallel.snapshot import (
    _LEAF,
    ghost_pids,
    restore_tree,
    snapshot_tree,
    tree_ghosts,
)
from .atomic import AtomicUniverse
from .classifier import APClassifier

__all__ = ["SnapshotMismatch"]

FORMAT_VERSION = 2


class SnapshotMismatch(ValueError):
    """The snapshot does not correspond to the recompiled network."""


def _save_json(classifier: APClassifier) -> str:
    """Serialize a built classifier to a JSON string."""
    dataplane = classifier.dataplane
    universe = classifier.universe
    pids = universe.predicate_ids()
    atom_ids = sorted(universe.atom_ids())
    # Tombstoned labels the tree still evaluates: their functions ride
    # after the atoms, and only a tree that has any carries the key.
    ghost_fns = tree_ghosts(classifier.tree, universe)
    ghosts = sorted(ghost_fns)
    payload = {
        "version": FORMAT_VERSION,
        "strategy": classifier.strategy,
        "network": json.loads(network_to_json(dataplane.network)),
        "predicates": [
            {
                "pid": labeled.pid,
                # The slot is the stable identity across serialization
                # (pids depend on compile order).
                "slot": [labeled.kind, labeled.box, labeled.port],
                "r": sorted(universe.r(labeled.pid)),
            }
            for labeled in map(dataplane.predicate, pids)
        ],
        "atom_ids": atom_ids,
        # One image; its roots are the predicates above, then the atoms,
        # then the ghosts.
        "image": dump_image(
            dataplane.manager,
            [universe.predicate_fn(pid).node for pid in pids]
            + [universe.atom_fn(atom_id).node for atom_id in atom_ids]
            + [ghost_fns[pid] for pid in ghosts],
        ),
        "tree": snapshot_tree(classifier.tree, universe),
    }
    if ghosts:
        payload["ghosts"] = ghosts
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

    entries = payload["predicates"]
    atom_ids = payload["atom_ids"]
    stored_ghosts = payload.get("ghosts", [])
    try:
        nodes = load_image(manager, payload["image"])
    except (TypeError, ValueError) as exc:
        raise SnapshotMismatch(f"BDD image is inconsistent: {exc}") from None
    if len(nodes) != len(entries) + len(atom_ids) + len(stored_ghosts):
        raise SnapshotMismatch(
            f"{len(nodes)} stored BDD roots for {len(entries)} predicates, "
            f"{len(atom_ids)} atoms and {len(stored_ghosts)} ghosts"
        )

    # Match stored predicates to recompiled ones by slot (pids depend on
    # compile order, which serialization normalizes).
    live_by_slot = {slot: lp for slot, lp in dataplane.iter_slots()}
    pid_map: dict[int, int] = {}
    pred_fns: dict[int, Function] = {}
    r: dict[int, list[int]] = {}
    for entry, node in zip(entries, nodes):
        slot = tuple(entry["slot"])
        live = live_by_slot.get(slot)
        if live is None or live.fn.node != node:
            raise SnapshotMismatch(
                f"stored predicate at slot {slot} does not match the "
                "recompiled network (stale or corrupted snapshot)"
            )
        pid_map[entry["pid"]] = live.pid
        pred_fns[live.pid] = live.fn
        r[live.pid] = entry["r"]
    if len(pred_fns) != len(live_by_slot):
        raise SnapshotMismatch(
            "snapshot and recompiled network disagree on the predicate set"
        )

    # Reassemble the universe without refinement, then the tree over it.
    ghost_start = len(entries) + len(atom_ids)
    atoms = {
        atom_id: Function(manager, node)
        for atom_id, node in zip(atom_ids, nodes[len(entries):ghost_start])
    }
    try:
        universe = AtomicUniverse.assemble_with_ids(manager, pred_fns, atoms, r)
    except ValueError as exc:
        raise SnapshotMismatch(str(exc)) from None
    ghost_map = ghost_pids(stored_ghosts)
    if set(ghost_map) & set(pid_map):
        raise SnapshotMismatch("ghost pids overlap the live predicate pids")
    pid_map.update(ghost_map)
    try:
        tree = restore_tree(
            [
                # The leaf marker passes through; a reloaded ghost's pid
                # is negative and maps like any other.
                [pid if pid == _LEAF else pid_map[pid], first, second]
                for pid, first, second in payload["tree"]
            ],
            universe,
            extra_fn_nodes={
                ghost_map[pid]: node
                for pid, node in zip(stored_ghosts, nodes[ghost_start:])
            },
        )
    except (IndexError, KeyError, ValueError) as exc:
        raise SnapshotMismatch(f"tree is inconsistent: {exc!r}") from None
    if set(tree.leaf_depths()) != set(atoms):
        raise SnapshotMismatch("tree leaves do not cover the stored atoms")

    return APClassifier(
        dataplane, universe, tree, strategy=payload.get("strategy", "oapt")
    )
