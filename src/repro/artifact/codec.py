"""Classifier <-> binary artifact codec.

What gets persisted (one section table entry each, see ``container``):

* the network serialization (``network``, JSON bytes) -- stage 2's
  topology and rules, and the provenance everything else is checked
  against via a SHA-256 digest in the manifest;
* every BDD the classifier holds as one image (``bdd_nodes``/
  ``bdd_roots``, :mod:`repro.bdd.serialize`) whose roots are, in order:
  every live predicate (its ``(kind, box, port)`` slot and original pid
  in the manifest), every atom (explicit ``atom_ids`` -- classification
  output is atom ids, so ids are preserved bit-for-bit, gaps included),
  and every "ghost": a tombstoned predicate the tree still evaluates
  after updates, saved from the tree nodes themselves and restored
  under a fresh negative pid;
* the ``R`` sets (``r_values``/``r_offsets``), the integer-set form of
  "which atoms make up predicate p" that stage 2's behavior walk and
  every tree-construction decision consume;
* the AP Tree as preorder records (``tree``, via
  :mod:`repro.parallel.snapshot`);
* the compiled engine's arrays (``c_*`` sections) in exactly the layout
  :meth:`CompiledAPTree.from_arrays` adopts zero-copy -- including the
  interleaved fused-program child array.

Load rebuilds the cheap derived state (a ``DataPlane`` over the stored
predicate functions, the ``BehaviorComputer``) and attaches the compiled
engine stamped fresh, so a restart answers its first query from the
mmap'd arrays without recomputing atoms (Fig. 11's cost) or
re-flattening the tree.

Integrity: the container layer already CRC-checks every section.  This
layer adds the payload checks that mirror ``SnapshotMismatch``: a kind
and payload-version gate, the network digest, slot-table agreement
between the stored predicates and the restored data plane, and R-set /
tree references resolving.  ``deep_verify=True`` additionally recompiles
the network from its rules in a scratch manager and compares every
predicate BDD structurally -- the full stale-snapshot defense, priced
accordingly.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from typing import Mapping

from ..bdd import BDDManager, Function
from ..bdd.serialize import dump_image, load_image
from ..core.classifier import APClassifier
from ..core.atomic import AtomicUniverse
from ..core.compiled import CompiledAPTree
from ..network.dataplane import DataPlane
from ..network.serialize import network_from_json, network_to_json
from ..parallel.snapshot import (
    _LEAF,
    ghost_pids,
    restore_tree,
    snapshot_tree,
    tree_ghosts,
)
from .container import (
    Artifact,
    ArtifactMismatch,
    ArtifactVersionError,
    artifact_from_buffer,
    build_artifact_bytes,
    open_artifact,
    write_artifact,
)

__all__ = [
    "CLASSIFIER_KIND",
    "PAYLOAD_VERSION",
    "save_artifact",
    "artifact_bytes",
    "load_artifact",
    "load_artifact_buffer",
    "load_serving",
    "load_serving_buffer",
    "describe_artifact",
]

CLASSIFIER_KIND = "repro.classifier"
PAYLOAD_VERSION = 2


def _network_digest(network_bytes: bytes) -> str:
    return hashlib.sha256(network_bytes).hexdigest()


# ----------------------------------------------------------------------
# Save
# ----------------------------------------------------------------------


def _manifest_and_sections(
    classifier: APClassifier, *, backend: str | None = None
) -> tuple[dict, list]:
    dataplane = classifier.dataplane
    universe = classifier.universe
    manager = dataplane.manager

    predicates = dataplane.predicates()  # ascending pid order
    live_pids = {p.pid for p in predicates}
    universe_pids = set(universe.predicate_ids())
    if universe_pids != live_pids:
        raise ArtifactMismatch(
            "universe and data plane disagree on the live predicate set "
            f"({len(universe_pids)} vs {len(live_pids)}); reconstruct() "
            "before saving"
        )
    tree_records = snapshot_tree(classifier.tree, universe)

    # The tree can reference *tombstoned* predicates; persist their
    # functions beside the live ones (see ``tree_ghosts``).
    try:
        ghost_fns = tree_ghosts(classifier.tree, universe)
    except ValueError as exc:
        raise ArtifactMismatch(f"{exc}; reconstruct() before saving") from None
    ghosts = sorted(ghost_fns)

    network_bytes = network_to_json(dataplane.network).encode()

    atom_ids = sorted(universe.atom_ids())
    num_vars, bdd_nodes, bdd_roots = dump_image(
        manager,
        [p.fn.node for p in predicates]
        + [universe.atom_fn(a).node for a in atom_ids]
        + [ghost_fns[pid] for pid in ghosts],
    )
    r_values: list[int] = []
    r_offsets = [0]
    for predicate in predicates:
        r_values.extend(sorted(universe.r(predicate.pid)))
        r_offsets.append(len(r_values))
    tree_flat: list[int] = []
    for record in tree_records:
        tree_flat.extend(record)

    compiled = classifier.compiled
    if not classifier.compiled_fresh:
        compiled = CompiledAPTree.compile(classifier.tree, backend=backend)
    elif compiled.patched:
        # Compact first: an artifact carries no patch history (spare
        # sinks, redundant tests, ``-1`` atoms), so it is byte-identical
        # to one saved right after a compile of the same tree.
        compiled = classifier.compile(backend=compiled.backend)
    arrays = compiled.to_arrays()

    manifest = {
        "kind": CLASSIFIER_KIND,
        "payload_version": PAYLOAD_VERSION,
        "strategy": classifier.strategy,
        "num_vars": num_vars,
        "network_digest": _network_digest(network_bytes),
        "counts": {
            "predicates": len(predicates),
            "atoms": len(atom_ids),
            "tree_records": len(tree_records),
            "fused_nodes": len(arrays["f_var"]),
            "ghosts": len(ghosts),
        },
        "predicates": {
            "pids": [p.pid for p in predicates],
            "slots": [[p.kind, p.box, p.port] for p in predicates],
        },
        "ghosts": {"pids": ghosts},
        "compiled": {
            "num_vars": arrays["num_vars"],
            "num_sinks": arrays["num_sinks"],
            "f_root": arrays["f_root"],
            "saved_backend": compiled.backend,
        },
    }
    sections = [
        ("network", "u1", network_bytes),
        ("bdd_nodes", "i4", bdd_nodes),
        ("bdd_roots", "i4", bdd_roots),
        ("atom_ids", "i8", atom_ids),
        ("r_values", "i8", r_values),
        ("r_offsets", "i8", r_offsets),
        ("tree", "i4", tree_flat),
        ("c_pred_entry", "i4", arrays["pred_entry"]),
        ("c_low_idx", "i4", arrays["low_idx"]),
        ("c_high_idx", "i4", arrays["high_idx"]),
        ("c_atom_id", "i8", arrays["atom_id"]),
        ("c_bdd_var", "i4", arrays["bdd_var"]),
        ("c_bdd_low", "i4", arrays["bdd_low"]),
        ("c_bdd_high", "i4", arrays["bdd_high"]),
        ("c_f_var", "i4", arrays["f_var"]),
        ("c_f_child", "i4", arrays["f_child"]),
        ("c_f_atom", "i8", arrays["f_atom"]),
    ]
    return manifest, sections


def artifact_bytes(
    classifier: APClassifier, *, backend: str | None = None
) -> bytes:
    """The classifier as an in-memory artifact blob (shared-memory feed)."""
    manifest, sections = _manifest_and_sections(classifier, backend=backend)
    return build_artifact_bytes(manifest, sections)


def save_artifact(
    classifier: APClassifier,
    path: str | os.PathLike,
    *,
    backend: str | None = None,
    recorder=None,
) -> int:
    """Write the classifier to ``path`` atomically; returns bytes written.

    Compiles the tree first if no fresh compiled engine exists (the
    artifact's point is feeding the compiled fast path on load), and
    compacts (recompiles) a fresh one that incremental patches changed.
    """
    start = time.perf_counter()
    manifest, sections = _manifest_and_sections(classifier, backend=backend)
    written = write_artifact(path, manifest, sections)
    if recorder is None:
        recorder = classifier.recorder
    if recorder is not None:
        recorder.persist.record_save(written, time.perf_counter() - start)
    return written


# ----------------------------------------------------------------------
# Load
# ----------------------------------------------------------------------


def _check_payload(artifact: Artifact) -> dict:
    manifest = artifact.manifest
    if manifest.get("kind") != CLASSIFIER_KIND:
        raise ArtifactMismatch(
            f"artifact holds {manifest.get('kind')!r}, not a classifier"
        )
    if manifest.get("payload_version") != PAYLOAD_VERSION:
        raise ArtifactVersionError(
            f"classifier payload version {manifest.get('payload_version')!r} "
            f"is not supported (this build reads version {PAYLOAD_VERSION})"
        )
    return manifest


def _network_of(artifact: Artifact, manifest: dict):
    network_bytes = bytes(artifact.section_bytes("network"))
    digest = _network_digest(network_bytes)
    if digest != manifest.get("network_digest"):
        raise ArtifactMismatch(
            "network section does not match the manifest digest "
            f"(stored {manifest.get('network_digest')!r}, actual {digest!r})"
        )
    return network_from_json(network_bytes.decode())


def _compiled_arrays(artifact: Artifact, manifest: dict) -> dict:
    compiled = manifest.get("compiled") or {}
    return {
        "num_vars": compiled.get("num_vars", manifest.get("num_vars")),
        "num_sinks": compiled["num_sinks"],
        "f_root": compiled["f_root"],
        "pred_entry": artifact.section_ints("c_pred_entry"),
        "low_idx": artifact.section_ints("c_low_idx"),
        "high_idx": artifact.section_ints("c_high_idx"),
        "atom_id": artifact.section_ints("c_atom_id"),
        "bdd_var": artifact.section_ints("c_bdd_var"),
        "bdd_low": artifact.section_ints("c_bdd_low"),
        "bdd_high": artifact.section_ints("c_bdd_high"),
        "f_var": artifact.section_ints("c_f_var"),
        "f_child": artifact.section_ints("c_f_child"),
        "f_atom": artifact.section_ints("c_f_atom"),
    }


def _deep_verify_predicates(network, image, slots) -> None:
    """Recompile the network in a scratch manager, load the stored image
    beside it and compare every predicate by node identity (the image's
    leading roots are the predicates, in ``slots`` order)."""
    recompiled = DataPlane(network)
    live_by_slot = {slot: lp for slot, lp in recompiled.iter_slots()}
    for slot, node in zip(slots, load_image(recompiled.manager, image)):
        live = live_by_slot.pop(slot, None)
        if live is None or live.fn.node != node:
            raise ArtifactMismatch(
                f"stored predicate at slot {slot} does not match the "
                "network recompiled from the stored rules"
            )
    if live_by_slot:
        raise ArtifactMismatch(
            "stored predicates and the recompiled network disagree on "
            f"the predicate set ({len(live_by_slot)} slots unaccounted)"
        )


def _restore_classifier(
    artifact: Artifact, *, backend: str | None, deep_verify: bool
) -> APClassifier:
    manifest = _check_payload(artifact)
    network = _network_of(artifact, manifest)
    num_vars = int(manifest.get("num_vars", 0))
    if num_vars != network.layout.total_width:
        raise ArtifactMismatch(
            f"manifest num_vars {num_vars} disagrees with the stored "
            f"network's header layout ({network.layout.total_width} bits)"
        )
    manager = BDDManager(num_vars)

    meta = manifest.get("predicates") or {}
    stored_pids = meta.get("pids") or []
    slots = [tuple(slot) for slot in (meta.get("slots") or [])]
    if len(stored_pids) != len(slots):
        raise ArtifactMismatch("predicate pid/slot tables disagree in length")
    atom_ids = [int(a) for a in artifact.section_ints("atom_ids")]
    ghost_meta = manifest.get("ghosts") or {}
    stored_ghost_pids = [int(p) for p in (ghost_meta.get("pids") or [])]
    image = (
        num_vars,
        artifact.section_ints("bdd_nodes"),
        artifact.section_ints("bdd_roots"),
    )
    try:
        nodes = load_image(manager, image)
    except ValueError as exc:
        raise ArtifactMismatch(f"BDD image is inconsistent: {exc}") from None
    if len(nodes) != len(slots) + len(atom_ids) + len(stored_ghost_pids):
        raise ArtifactMismatch(
            f"{len(nodes)} stored BDD roots for {len(slots)} predicates, "
            f"{len(atom_ids)} atoms and {len(stored_ghost_pids)} ghosts"
        )
    functions = [Function(manager, node) for node in nodes[: len(slots)]]
    if deep_verify:
        _deep_verify_predicates(network, image, slots)

    # Rebuild the data plane over the *stored* functions.  DataPlane
    # mints pids box-by-box in network order, so group the stored
    # predicates accordingly and record which stored pid each minted pid
    # corresponds to (stored pids may have gaps after update churn).
    grouped: dict[str, list[tuple[str, str, Function]]] = {
        name: [] for name in network.boxes
    }
    grouped_pids: dict[str, list[int]] = {name: [] for name in network.boxes}
    mint_order: list[int] = []
    for stored_pid, slot, fn in zip(stored_pids, slots, functions):
        kind, box, port = slot
        if box not in grouped:
            raise ArtifactMismatch(
                f"stored predicate slot {slot} names unknown box {box!r}"
            )
        grouped[box].append((kind, port, fn))
        grouped_pids[box].append(int(stored_pid))
        mint_order.append(int(stored_pid))
    if len(set(mint_order)) != len(mint_order):
        raise ArtifactMismatch("stored predicate pids are not unique")
    # DataPlane will mint new pids 0..n-1 walking boxes in network order
    # and each box's precompiled list in our order; map stored -> new.
    order = [pid for name in network.boxes for pid in grouped_pids[name]]
    pid_map = {stored_pid: new_pid for new_pid, stored_pid in enumerate(order)}
    dataplane = DataPlane(network, manager, precompiled=grouped)
    if len(dataplane) != len(slots):
        raise ArtifactMismatch(
            "restored data plane predicate count disagrees with the "
            f"stored slot table ({len(dataplane)} vs {len(slots)})"
        )

    ghost_start = len(slots) + len(atom_ids)
    atoms: Mapping[int, Function] = {
        atom_id: Function(manager, node)
        for atom_id, node in zip(atom_ids, nodes[len(slots) : ghost_start])
    }

    r_values = artifact.section_ints("r_values")
    r_offsets = artifact.section_ints("r_offsets")
    if len(r_offsets) != len(stored_pids) + 1:
        raise ArtifactMismatch("R offsets disagree with the predicate count")
    pred_fns: dict[int, Function] = {}
    r: dict[int, list[int]] = {}
    for index, stored_pid in enumerate(mint_order):
        new_pid = pid_map[stored_pid]
        pred_fns[new_pid] = functions[index]
        lo, hi = int(r_offsets[index]), int(r_offsets[index + 1])
        if lo > hi or hi > len(r_values):
            raise ArtifactMismatch("R offsets are not monotonic")
        r[new_pid] = [int(v) for v in r_values[lo:hi]]
    try:
        universe = AtomicUniverse.assemble_with_ids(
            manager, pred_fns, atoms, r
        )
    except ValueError as exc:
        raise ArtifactMismatch(str(exc)) from None

    # Ghost predicates: functions the tree still evaluates but the
    # universe no longer holds (tombstoned by updates before the save).
    ghost_pid_map = ghost_pids(stored_ghost_pids)
    if set(ghost_pid_map) & set(pid_map):
        raise ArtifactMismatch(
            "ghost predicate pids overlap the live predicate pids"
        )
    ghost_fn_nodes = {
        ghost_pid_map[stored]: node
        for stored, node in zip(stored_ghost_pids, nodes[ghost_start:])
    }

    tree_flat = artifact.section_ints("tree")
    if len(tree_flat) % 3:
        raise ArtifactMismatch("tree section is not whole records")
    records: list[list[int]] = []
    for k in range(0, len(tree_flat), 3):
        pid = int(tree_flat[k])
        if pid != _LEAF:
            mapped = pid_map.get(pid)
            if mapped is None:
                mapped = ghost_pid_map.get(pid)
            if mapped is None:
                raise ArtifactMismatch(
                    f"tree references unknown predicate pid {pid}"
                )
            pid = mapped
        records.append([pid, int(tree_flat[k + 1]), int(tree_flat[k + 2])])
    try:
        tree = restore_tree(records, universe, extra_fn_nodes=ghost_fn_nodes)
    except (IndexError, KeyError, ValueError) as exc:
        raise ArtifactMismatch(f"tree section is inconsistent: {exc!r}") from None

    classifier = APClassifier(
        dataplane,
        universe,
        tree,
        strategy=manifest.get("strategy", "oapt"),
    )
    try:
        compiled = CompiledAPTree.from_arrays(
            _compiled_arrays(artifact, manifest), tree=tree, backend=backend
        )
    except (KeyError, ValueError) as exc:
        raise ArtifactMismatch(
            f"compiled sections are inconsistent: {exc!r}"
        ) from None
    classifier.attach_compiled(compiled)
    # The zero-copy arrays alias the artifact's buffer; pin it for the
    # engine's lifetime (mmap pages stay valid, shm blocks stay mapped).
    compiled._buffer_owner = artifact
    return classifier


def load_artifact(
    path: str | os.PathLike,
    *,
    backend: str | None = None,
    use_mmap: bool | None = None,
    verify: bool | None = None,
    deep_verify: bool = False,
    recorder=None,
) -> APClassifier:
    """Restore a full, updatable classifier from an artifact file."""
    start = time.perf_counter()
    artifact = open_artifact(path, use_mmap=use_mmap, verify=verify)
    classifier = _restore_classifier(
        artifact, backend=backend, deep_verify=deep_verify
    )
    if recorder is not None:
        recorder.persist.record_load(
            len(artifact.buffer), time.perf_counter() - start,
            mmapped=artifact.mmapped,
        )
    return classifier


def load_artifact_buffer(
    buffer,
    *,
    backend: str | None = None,
    verify: bool | None = None,
    deep_verify: bool = False,
    source: str = "<buffer>",
) -> APClassifier:
    """Restore a classifier from an in-memory blob (shared memory)."""
    artifact = artifact_from_buffer(buffer, verify=verify, source=source)
    return _restore_classifier(artifact, backend=backend, deep_verify=deep_verify)


def _serving_engine(
    artifact: Artifact, *, backend: str | None
) -> CompiledAPTree:
    manifest = _check_payload(artifact)
    compiled = CompiledAPTree.from_arrays(
        _compiled_arrays(artifact, manifest), tree=None, backend=backend
    )
    compiled._buffer_owner = artifact
    return compiled


def load_serving(
    path: str | os.PathLike,
    *,
    backend: str | None = None,
    use_mmap: bool | None = None,
    verify: bool | None = None,
    recorder=None,
) -> CompiledAPTree:
    """Map just the compiled engine -- the milliseconds warm-start path.

    No BDDs are rebuilt and no network is parsed: the returned
    serving-only :class:`CompiledAPTree` classifies straight out of the
    file's pages.  It cannot answer stage-2 behavior queries or absorb
    updates; standby replicas that need those use :func:`load_artifact`.
    """
    start = time.perf_counter()
    artifact = open_artifact(path, use_mmap=use_mmap, verify=verify)
    engine = _serving_engine(artifact, backend=backend)
    if recorder is not None:
        recorder.persist.record_load(
            len(artifact.buffer), time.perf_counter() - start,
            mmapped=artifact.mmapped,
        )
    return engine


def load_serving_buffer(
    buffer,
    *,
    backend: str | None = None,
    verify: bool | None = None,
    source: str = "<buffer>",
) -> CompiledAPTree:
    """:func:`load_serving` over an in-memory blob (shared memory)."""
    artifact = artifact_from_buffer(buffer, verify=verify, source=source)
    return _serving_engine(artifact, backend=backend)


def describe_artifact(path: str | os.PathLike) -> dict:
    """Manifest-level summary without restoring anything (CLI ``load``)."""
    artifact = open_artifact(path, use_mmap=False, verify=True)
    manifest = _check_payload(artifact)
    counts = manifest.get("counts", {})
    summary = {
        "kind": manifest.get("kind"),
        "payload_version": manifest.get("payload_version"),
        "strategy": manifest.get("strategy"),
        "num_vars": manifest.get("num_vars"),
        "bytes": len(artifact.buffer),
        "sections": artifact.section_names(),
        **{k: counts.get(k) for k in sorted(counts)},
    }
    artifact.close()
    return summary
