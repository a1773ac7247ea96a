"""Section VI-B's reconstruction process and its snapshots (``repro.parallel``).

The load-bearing property is that a rebuild which crossed a process
boundary is *the same* rebuild: same canonical atom ids with the same
BDD nodes, same ``R`` sets, same classifications as computing it in
place.
"""

from __future__ import annotations

import random

import pytest

from repro.bdd import BDDManager
from repro.core.atomic import AtomicUniverse
from repro.core.reconstruction import DynamicSimulation
from repro.datasets import internet2_like
from repro.network.dataplane import DataPlane
from repro.obs import Recorder, validate_snapshot
from repro.parallel import (
    ReconstructionProcess,
    restore_tree,
    restore_universe,
    snapshot_tree,
    snapshot_universe,
)


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
    universe = AtomicUniverse.compute(
        toy_dataplane.manager, toy_dataplane.predicates()
    ).renumber_canonical()
    from repro.core.construction import build_tree

    tree = build_tree(universe).tree
    fresh_manager = BDDManager(toy_dataplane.manager.num_vars)
    restored_universe = restore_universe(
        snapshot_universe(universe), fresh_manager
    )
    restored_tree = restore_tree(
        snapshot_tree(tree, universe), restored_universe
    )
    assert restored_universe.verify_partition()
    assert restored_universe.atom_count == universe.atom_count
    width = toy_dataplane.manager.num_vars
    for header in [random.Random(7).randrange(1 << width) for _ in range(64)]:
        assert restored_tree.classify(header) == tree.classify(header)


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
