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
  :func:`repro.core.aptree.snapshot_tree`);
* the compiled engine's arrays (``c_*`` sections) in exactly the layout
  :meth:`CompiledAPTree.from_arrays` adopts zero-copy -- including the
  interleaved fused-program child array.

Everything but the ``c_*`` sections is the *classifier half*
(:func:`_classifier_half`); on its own it is how a classifier is copied
within a process (:func:`classifier_bytes` /
:func:`classifier_from_bytes`: what-if forks, the serve layer's diff
snapshot), and encoding it never touches the compiled program.  A saved
artifact is both halves.

Load rebuilds the cheap derived state (a ``DataPlane`` over the stored
predicate functions, the ``BehaviorComputer``) and attaches the compiled
engine stamped fresh, so a restart answers its first query from the
mmap'd arrays without recomputing atoms (Fig. 11's cost) or
re-flattening the tree.

Integrity: the container layer already CRC-checks every section.  This
layer adds the payload checks: a kind and payload-version gate, the
network digest, slot-table agreement between the stored predicates and
the restored data plane, R-set / tree references resolving and the
tree's leaves covering the atoms.  ``deep_verify=True`` additionally
recompiles the network from its rules in a scratch manager and compares
every predicate BDD structurally -- the full stale-snapshot defense,
priced accordingly.
"""

from __future__ import annotations

import hashlib
import os
import time
from typing import Mapping

from ..bdd import BDDManager, Function
from ..bdd.serialize import dump_image, load_image
from ..core.aptree import restore_tree, snapshot_tree, tree_ghosts
from ..core.atomic import AtomicUniverse
from ..core.classifier import APClassifier
from ..core.compiled import CompiledAPTree
from ..network.dataplane import DataPlane
from ..network.serialize import network_from_json, network_to_json
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
    "classifier_bytes",
    "classifier_from_bytes",
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

#: The compiled program's arrays, in section order (``c_`` + name).
_COMPILED_SECTIONS = (
    ("pred_entry", "i4"),
    ("low_idx", "i4"),
    ("high_idx", "i4"),
    ("atom_id", "i8"),
    ("bdd_var", "i4"),
    ("bdd_low", "i4"),
    ("bdd_high", "i4"),
    ("f_var", "i4"),
    ("f_child", "i4"),
    ("f_atom", "i8"),
)


def _classifier_half(classifier: APClassifier) -> tuple[dict, list]:
    """Manifest and sections of everything but the compiled program.

    The network, the one BDD image, atom ids, ``R`` and the tree
    records.  Reads the classifier without touching its compiled
    program or minting a BDD node, so encoding a live classifier never
    compiles, compacts or grows its manager.
    """
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

    manifest = {
        "kind": CLASSIFIER_KIND,
        "payload_version": PAYLOAD_VERSION,
        "strategy": classifier.strategy,
        "num_vars": num_vars,
        "network_digest": _network_digest(network_bytes),
        "counts": {
            "predicates": len(predicates),
            "atoms": len(atom_ids),
            "tree_records": len(tree_records) // 3,
            "ghosts": len(ghosts),
        },
        "predicates": {
            "pids": [p.pid for p in predicates],
            "slots": [[p.kind, p.box, p.port] for p in predicates],
        },
        "ghosts": {"pids": ghosts},
    }
    sections = [
        ("network", "u1", network_bytes),
        ("bdd_nodes", "i4", bdd_nodes),
        ("bdd_roots", "i4", bdd_roots),
        ("atom_ids", "i8", atom_ids),
        ("r_values", "i8", r_values),
        ("r_offsets", "i8", r_offsets),
        ("tree", "i4", tree_records),
    ]
    return manifest, sections


def _compiled_program(
    classifier: APClassifier, *, backend: str | None
) -> CompiledAPTree:
    """The program the compiled half saves: fresh and compact.

    Compiles the tree if no fresh program exists, and compacts a
    patched one: an artifact carries no patch history (spare sinks,
    redundant tests, ``-1`` atoms), so it is byte-identical to one saved
    right after a compile of the same tree.
    """
    compiled = classifier.compiled
    if not classifier.compiled_fresh:
        return CompiledAPTree.compile(classifier.tree, backend=backend)
    if compiled.patched:
        return classifier.compile(backend=compiled.backend)
    return compiled


def _manifest_and_sections(
    classifier: APClassifier, *, backend: str | None = None
) -> tuple[dict, list]:
    """A whole artifact: the classifier half, then the compiled half."""
    manifest, sections = _classifier_half(classifier)
    compiled = _compiled_program(classifier, backend=backend)
    arrays = compiled.to_arrays()
    counts = manifest["counts"]
    # Manifest key order is part of the bytes: fused_nodes precedes ghosts.
    counts["fused_nodes"] = len(arrays["f_var"])
    counts["ghosts"] = counts.pop("ghosts")
    manifest["compiled"] = {
        "num_vars": arrays["num_vars"],
        "num_sinks": arrays["num_sinks"],
        "f_root": arrays["f_root"],
        "saved_backend": compiled.backend,
    }
    sections += [
        (f"c_{name}", dtype, arrays[name]) for name, dtype in _COMPILED_SECTIONS
    ]
    return manifest, sections


def classifier_bytes(classifier: APClassifier) -> bytes:
    """The classifier half as an in-memory container (no compiled program).

    The form a classifier is copied in within one process: a what-if
    fork, the serve layer's per-generation diff snapshot.
    :func:`classifier_from_bytes` restores it uncompiled.
    """
    return build_artifact_bytes(*_classifier_half(classifier))


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


def _compiled_engine(
    artifact: Artifact, *, tree, backend: str | None
) -> CompiledAPTree:
    """Adopt the compiled half's arrays zero-copy, pinning the buffer."""
    manifest = _check_payload(artifact)
    meta = manifest.get("compiled")
    if not isinstance(meta, dict):
        raise ArtifactMismatch("artifact carries no compiled program")
    arrays = {
        name: artifact.section_ints(f"c_{name}")
        for name, _ in _COMPILED_SECTIONS
    }
    try:
        compiled = CompiledAPTree.from_arrays(
            {
                "num_vars": meta.get("num_vars", manifest.get("num_vars")),
                "num_sinks": meta["num_sinks"],
                "f_root": meta["f_root"],
                **arrays,
            },
            tree=tree,
            backend=backend,
        )
    except (KeyError, ValueError) as exc:
        raise ArtifactMismatch(
            f"compiled sections are inconsistent: {exc!r}"
        ) from None
    # The zero-copy arrays alias the artifact's buffer; pin it for the
    # engine's lifetime (mmap pages stay valid, shm blocks stay mapped).
    compiled._buffer_owner = artifact
    return compiled


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


def _restore_classifier_half(
    artifact: Artifact, *, deep_verify: bool
) -> APClassifier:
    """The classifier half, restored uncompiled."""
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
    # mints pids 0..n-1 box by box in network order, each box's list in
    # stored order; ``order[new pid]`` is that predicate's stored index
    # (stored pids may have gaps after update churn).
    by_box: dict[str, list[int]] = {name: [] for name in network.boxes}
    for index, slot in enumerate(slots):
        if slot[1] not in by_box:
            raise ArtifactMismatch(
                f"stored predicate slot {slot} names unknown box {slot[1]!r}"
            )
        by_box[slot[1]].append(index)
    order = [index for indices in by_box.values() for index in indices]
    pid_map = {int(stored_pids[index]): new for new, index in enumerate(order)}
    if len(pid_map) != len(slots):
        raise ArtifactMismatch("stored predicate pids are not unique")
    dataplane = DataPlane(
        network,
        manager,
        precompiled={
            box: [(slots[i][0], slots[i][2], functions[i]) for i in indices]
            for box, indices in by_box.items()
        },
    )
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

    r_values = artifact.section_ints("r_values").tolist()
    r_offsets = artifact.section_ints("r_offsets").tolist()
    if len(r_offsets) != len(slots) + 1:
        raise ArtifactMismatch("R offsets disagree with the predicate count")
    pred_fns: dict[int, Function] = {}
    r: dict[int, list[int]] = {}
    for new_pid, index in enumerate(order):
        lo, hi = r_offsets[index], r_offsets[index + 1]
        if not 0 <= lo <= hi <= len(r_values):
            raise ArtifactMismatch("R offsets are not monotonic")
        pred_fns[new_pid] = functions[index]
        r[new_pid] = r_values[lo:hi]
    try:
        universe = AtomicUniverse.assemble_with_ids(
            manager, pred_fns, atoms, r
        )
    except ValueError as exc:
        raise ArtifactMismatch(str(exc)) from None

    # Ghost predicates: functions the tree still evaluates but the
    # universe no longer holds (tombstoned by updates before the save).
    if set(stored_ghost_pids) & set(pid_map):
        raise ArtifactMismatch(
            "ghost predicate pids overlap the live predicate pids"
        )
    try:
        tree = restore_tree(
            artifact.section_ints("tree"),
            universe,
            pids=pid_map,
            ghosts=dict(zip(stored_ghost_pids, nodes[ghost_start:])),
        )
    except ValueError as exc:
        raise ArtifactMismatch(f"tree section is inconsistent: {exc}") from None
    return APClassifier(
        dataplane,
        universe,
        tree,
        strategy=manifest.get("strategy", "oapt"),
    )


def _restore_classifier(
    artifact: Artifact, *, backend: str | None, deep_verify: bool
) -> APClassifier:
    classifier = _restore_classifier_half(artifact, deep_verify=deep_verify)
    classifier.attach_compiled(
        _compiled_engine(artifact, tree=classifier.tree, backend=backend)
    )
    return classifier


def classifier_from_bytes(blob) -> APClassifier:
    """Restore :func:`classifier_bytes` output (or an artifact's
    classifier half), uncompiled, in a manager of its own."""
    return _restore_classifier_half(
        artifact_from_buffer(blob), deep_verify=False
    )


def _load_file(path, restore, *, use_mmap, verify, recorder):
    """``restore`` an opened artifact file, timing it for ``recorder``."""
    start = time.perf_counter()
    artifact = open_artifact(path, use_mmap=use_mmap, verify=verify)
    restored = restore(artifact)
    if recorder is not None:
        recorder.persist.record_load(
            len(artifact.buffer), time.perf_counter() - start,
            mmapped=artifact.mmapped,
        )
    return restored


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
    return _load_file(
        path,
        lambda artifact: _restore_classifier(
            artifact, backend=backend, deep_verify=deep_verify
        ),
        use_mmap=use_mmap,
        verify=verify,
        recorder=recorder,
    )


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
    return _load_file(
        path,
        lambda artifact: _compiled_engine(artifact, tree=None, backend=backend),
        use_mmap=use_mmap,
        verify=verify,
        recorder=recorder,
    )


def load_serving_buffer(
    buffer,
    *,
    backend: str | None = None,
    verify: bool | None = None,
    source: str = "<buffer>",
) -> CompiledAPTree:
    """:func:`load_serving` over an in-memory blob (shared memory)."""
    artifact = artifact_from_buffer(buffer, verify=verify, source=source)
    return _compiled_engine(artifact, tree=None, backend=backend)


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
