"""The isolated rebuild of Section VI-B (Fig. 8), and a process to run it in.

A rebuild is three plain-data steps, each defined once here:
:func:`snapshot_predicates` serializes the live predicates (pids + one
BDD image, :mod:`repro.bdd.serialize`) in the query process;
:func:`rebuild_snapshot` computes the atomic universe and a fresh AP
Tree in its *own* manager and returns both as snapshots
(:mod:`repro.parallel.snapshot`); :func:`restore_rebuild` wires the
result back into the canonical manager, where
:meth:`APClassifier.install_rebuild` (or the simulator) replays the
journaled updates and swaps -- the version-stamp staleness machinery on
the tree is untouched, because the restored tree is a brand-new object
at version 0.

*Where* the middle step runs is the caller's choice:
:class:`repro.serve.QueryService` hands it to the event loop's executor
(a loop cannot block on a pipe); :class:`ReconstructionProcess` runs it
in a long-lived daemon worker on a second core -- one process serves
every rebuild of a simulation run, so process startup is paid once.
"""

from __future__ import annotations

import random
import time
import traceback
from multiprocessing import get_context
from typing import Sequence

from .. import config
from ..bdd import BDDManager, Function
from ..bdd.serialize import Image, dump_image, image_nbytes, load_image
from ..core.aptree import APTree
from ..core.atomic import AtomicUniverse
from ..core.construction import build_tree
from ..network.dataplane import LabeledPredicate
from .snapshot import (
    restore_tree,
    restore_universe,
    snapshot_tree,
    snapshot_universe,
)

__all__ = [
    "ReconstructionProcess",
    "snapshot_predicates",
    "rebuild_snapshot",
    "restore_rebuild",
]


def snapshot_predicates(
    predicates: Sequence[LabeledPredicate],
) -> tuple[list[int], Image]:
    """Submit half: a non-empty predicate set as plain data ``(pids, image)``.

    Must run where the predicates' manager is quiescent (the caller's
    update lock); everything downstream works on the serialized copy.
    """
    return (
        [labeled.pid for labeled in predicates],
        dump_image(
            predicates[0].fn.manager, [labeled.fn.node for labeled in predicates]
        ),
    )


def rebuild_snapshot(pids: Sequence[int], image: Image, strategy: str) -> dict:
    """The one isolated rebuild: predicate snapshot in, payload out.

    Receives only plain data and deserializes into a manager of its own,
    so it can run on an executor thread (:class:`repro.serve.QueryService`)
    or in a worker process (:class:`ReconstructionProcess`) without ever
    touching the canonical, lock-free :class:`BDDManager` the query
    process keeps mutating.  Canonical renumbering plus a fixed tree
    ``rng`` make the payload a function of the snapshot alone.
    """
    manager = BDDManager(image[0])  # the image carries its num_vars
    labeled = [
        LabeledPredicate(pid, "forward", "recon", "recon", Function(manager, node))
        for pid, node in zip(pids, load_image(manager, image))
    ]
    universe = AtomicUniverse.compute(manager, labeled).renumber_canonical()
    tree = build_tree(universe, strategy=strategy, rng=random.Random(0)).tree
    return {
        "universe": snapshot_universe(universe),
        "tree": snapshot_tree(tree, universe),
    }


def restore_rebuild(
    payload: dict, manager: BDDManager
) -> tuple[AtomicUniverse, APTree]:
    """Receive half: a :func:`rebuild_snapshot` payload, wired into ``manager``."""
    universe = restore_universe(payload["universe"], manager)
    return universe, restore_tree(payload["tree"], universe)


def _reconstruction_worker(conn) -> None:
    """Worker loop: one :func:`rebuild_snapshot` per request, until None."""
    # Ready handshake: under spawn the child re-imports the package
    # before this line runs; signalling here lets the parent charge that
    # startup to construction instead of to the first rebuild.
    conn.send({"ready": True})
    while True:
        request = conn.recv()
        if request is None:
            break
        try:
            started = time.perf_counter()
            payload = rebuild_snapshot(*request)
            payload["elapsed_s"] = time.perf_counter() - started
            conn.send(payload)
        except Exception:  # ship the failure instead of hanging the parent
            conn.send({"error": traceback.format_exc()})
    conn.close()


class ReconstructionProcess:
    """Handle on a live rebuild worker: submit / poll / receive.

    One rebuild may be in flight at a time (matching the paper's single
    reconstruction core); :meth:`submit` while busy is a logic error.
    """

    def __init__(
        self,
        manager: BDDManager,
        strategy: str = "oapt",
        start_method: str | None = None,
        recorder=None,
    ) -> None:
        self.manager = manager
        self.strategy = strategy
        self.recorder = recorder
        context = get_context(config.mp_start(start_method))
        self._conn, child_conn = context.Pipe()
        self._process = context.Process(
            target=_reconstruction_worker,
            args=(child_conn,),
            daemon=True,
        )
        self._process.start()
        child_conn.close()
        ready = self._conn.recv()
        if not (isinstance(ready, dict) and ready.get("ready")):
            raise RuntimeError("reconstruction worker failed to start")
        self._busy = False

    @property
    def busy(self) -> bool:
        """True while a submitted rebuild has not been received."""
        return self._busy

    def submit(self, predicates: Sequence[LabeledPredicate]) -> None:
        """Ship a predicate snapshot to the worker (non-blocking)."""
        if self._busy:
            raise RuntimeError("a rebuild is already in flight")
        pids, image = snapshot_predicates(predicates)
        self._conn.send((pids, image, self.strategy))
        if self.recorder is not None:
            self.recorder.parallel.record_shipping(
                to_workers=image_nbytes(image), from_workers=0
            )
        self._busy = True

    def poll(self, timeout: float = 0.0) -> bool:
        """Is a finished rebuild waiting to be received?"""
        return self._busy and self._conn.poll(timeout)

    def receive(self) -> tuple[AtomicUniverse, APTree, float]:
        """Block for the in-flight result and restore it canonically."""
        if not self._busy:
            raise RuntimeError("no rebuild in flight")
        payload = self._conn.recv()
        self._busy = False
        error = payload.get("error")
        if error is not None:
            raise RuntimeError(f"reconstruction worker failed:\n{error}")
        if self.recorder is not None:
            self.recorder.parallel.record_shipping(
                to_workers=0,
                from_workers=image_nbytes(payload["universe"]["image"]),
            )
        universe, tree = restore_rebuild(payload, self.manager)
        return universe, tree, payload["elapsed_s"]

    def close(self) -> None:
        """Shut the worker down (idempotent)."""
        process = self._process
        if process is None:
            return
        self._process = None
        try:
            if process.is_alive():
                self._conn.send(None)
                process.join(timeout=5.0)
        except (BrokenPipeError, OSError):
            pass
        if process.is_alive():  # pragma: no cover - unresponsive worker
            process.terminate()
            process.join()
        self._conn.close()

    def __enter__(self) -> "ReconstructionProcess":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "busy" if self._busy else "idle"
        return f"ReconstructionProcess({self.strategy}, {state})"
