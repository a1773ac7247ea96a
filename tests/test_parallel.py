"""Section VI-B's reconstruction process (``repro.core.reconstruction``).

The load-bearing property is that a rebuild which crossed a process
boundary is *the same* rebuild: same canonical atom ids with the same
BDD nodes, same ``R`` sets, same classifications as computing it in
place.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import signal

import pytest

from repro.core.atomic import AtomicUniverse
from repro.core import reconstruction
from repro.core.aptree import snapshot_tree
from repro.core.reconstruction import (
    DynamicSimulation,
    ReconstructionProcess,
    ReconstructionWorkerDied,
    rebuild_snapshot,
    restore_rebuild,
    snapshot_predicates,
)
from repro.datasets import internet2_like
from repro.network.dataplane import DataPlane
from repro.obs import Recorder, validate_snapshot


def canonical_atoms(universe: AtomicUniverse) -> dict[int, int]:
    return {
        atom_id: universe.atom_fn(atom_id).node
        for atom_id in universe.atom_ids()
    }


def assert_universes_identical(
    left: AtomicUniverse, right: AtomicUniverse
) -> None:
    assert canonical_atoms(left) == canonical_atoms(right)
    assert left.predicate_ids() == right.predicate_ids()
    for pid in left.predicate_ids():
        assert left.r(pid) == right.r(pid)


def test_universe_and_tree_snapshot_round_trip(toy_dataplane):
    """A rebuild payload restored in the query process's manager is the
    in-place universe, and its tree re-snapshots to the same records."""
    predicates = toy_dataplane.predicates()
    serial = AtomicUniverse.compute(
        toy_dataplane.manager, predicates
    ).renumber_canonical()
    payload = rebuild_snapshot(*snapshot_predicates(predicates), "oapt")
    universe, tree = restore_rebuild(payload, toy_dataplane.manager)
    assert universe.verify_partition()
    assert_universes_identical(serial, universe)
    assert snapshot_tree(tree, universe) == payload["tree"]
    width = toy_dataplane.manager.num_vars
    for header in [random.Random(7).randrange(1 << width) for _ in range(64)]:
        assert tree.classify(header) == serial.classify(header)


def test_reconstruction_process_round_trip():
    dataplane = DataPlane(internet2_like())
    predicates = dataplane.predicates()
    serial = AtomicUniverse.compute(
        dataplane.manager, predicates
    ).renumber_canonical()
    with ReconstructionProcess(dataplane.manager, strategy="oapt") as recon:
        assert not recon.busy
        recon.submit(predicates)
        assert recon.busy
        universe, tree, elapsed = recon.receive()
    assert elapsed > 0
    assert_universes_identical(serial, universe)
    width = dataplane.manager.num_vars
    for header in [random.Random(8).randrange(1 << width) for _ in range(64)]:
        assert tree.classify(header) == universe.classify(header)


def test_reconstruction_process_records_shipping_counters(toy_dataplane):
    """The obs ``parallel`` section: both byte counters fed, the rest at rest."""
    recorder = Recorder()
    with ReconstructionProcess(
        toy_dataplane.manager, recorder=recorder
    ) as recon:
        recon.submit(toy_dataplane.predicates())
        recon.receive()
    parallel = validate_snapshot(recorder.snapshot())["parallel"]
    assert parallel.pop("bytes_to_workers") > 0
    assert parallel.pop("bytes_from_workers") > 0
    assert parallel == {
        "workers": 0,
        "pool_tasks": 0,
        "stage_seconds": {},
        "shard_sizes": {},
        "merge_atom_counts": [],
    }


def test_reconstruction_process_rejects_bad_start_method(
    toy_dataplane, monkeypatch
):
    with pytest.raises(ValueError, match="REPRO_MP_START"):
        ReconstructionProcess(toy_dataplane.manager, start_method="telepathy")
    monkeypatch.setenv("REPRO_MP_START", "telepathy")
    with pytest.raises(ValueError, match="REPRO_MP_START"):
        ReconstructionProcess(toy_dataplane.manager)


def test_reconstruction_process_rejects_double_submit(toy_dataplane):
    with ReconstructionProcess(toy_dataplane.manager) as recon:
        recon.submit(toy_dataplane.predicates())
        with pytest.raises(RuntimeError, match="in flight"):
            recon.submit(toy_dataplane.predicates())
        recon.receive()


def test_worker_killed_mid_rebuild_raises_and_frees_the_handle(toy_dataplane):
    """A SIGKILLed worker surfaces as a typed error naming it, and the
    handle is idle afterwards -- not wedged 'in flight' forever."""
    with ReconstructionProcess(toy_dataplane.manager) as recon:
        pid = recon._process.pid
        # Stop the worker first so the kill lands with the rebuild still
        # queued, however fast the rebuild itself would be.
        os.kill(pid, signal.SIGSTOP)
        recon.submit(toy_dataplane.predicates())
        os.kill(pid, signal.SIGKILL)
        assert recon.poll(timeout=30)
        with pytest.raises(ReconstructionWorkerDied, match=f"pid {pid}"):
            recon.receive()
        assert not recon.busy
        assert not recon.poll()
        with pytest.raises(ReconstructionWorkerDied):
            recon.submit(toy_dataplane.predicates())


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the patched worker reaches the child only by fork",
)
def test_worker_dying_at_startup_raises_typed_error(toy_dataplane, monkeypatch):
    def exit_at_once(conn):
        os._exit(3)

    monkeypatch.setattr(reconstruction, "_reconstruction_worker", exit_at_once)
    with pytest.raises(ReconstructionWorkerDied, match="starting up.*exit code 3"):
        ReconstructionProcess(toy_dataplane.manager, start_method="fork")


def test_dynamic_simulation_process_mode_swaps_and_replays():
    dataplane = DataPlane(internet2_like())
    recorder = Recorder()
    with DynamicSimulation(
        dataplane.predicates(),
        initial_count=40,
        reconstruction="process",
        reconstruct_interval_s=0.2,
        bucket_s=0.05,
        rng=random.Random(3),
        recorder=recorder,
    ) as sim:
        samples = sim.run(duration_s=1.5, update_rate_per_s=30.0)
        events = [sample.event for sample in samples if sample.event]
        # The worker rebuild races real wall time, not the simulated
        # clock: under load it can outlive one run() window.  In-flight
        # rebuilds carry across run() calls, so extend the simulation
        # until the swap lands instead of guessing a duration.
        for _ in range(40):
            if "swap" in events:
                break
            more = sim.run(duration_s=0.5, update_rate_per_s=30.0)
            events += [sample.event for sample in more if sample.event]
    assert "rebuild_start" in events
    assert "swap" in events
    snapshot = validate_snapshot(recorder.snapshot())
    assert snapshot["updates"]["rebuilds"] >= 1
    # The query process kept updating during the real background rebuild,
    # so at least one update should have been replayed before a swap.
    assert snapshot["updates"]["replayed"] >= 1


def test_dynamic_simulation_rejects_unknown_reconstruction(toy_dataplane):
    with pytest.raises(ValueError, match="reconstruction"):
        DynamicSimulation(
            toy_dataplane.predicates(),
            initial_count=2,
            reconstruction="quantum",
        )
