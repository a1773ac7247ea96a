"""BDD variable order vs packing order: one network, two orders, one answer.

Five-tuple layouts pack ``src_ip`` first but run their BDD variables
destination first.  Packed headers do not move with the order, so one
network built under packing order and under destination-first order must
have the same partition and give every header the same behavior -- on
every engine and through persistence -- while the two orders never mix
in one sweep.
"""

from __future__ import annotations

import json
import random
from collections import Counter

import pytest

from repro import persist
from repro.artifact import build_artifact_bytes, describe_artifact, load_serving
from repro.artifact.codec import _manifest_and_sections
from repro.bdd.manager import BDDManager, packing_shifts
from repro.cli import main
from repro.core.atomic import AtomicUniverse
from repro.core.classifier import APClassifier
from repro.core.compiled import CompiledAPTree
from repro.core.kernel import available_backends
from repro.core.reconstruction import (
    rebuild_snapshot,
    restore_rebuild,
    snapshot_predicates,
)
from repro.datasets import uniform_over_atoms
from repro.datasets.registry import get_scenario
from repro.diff import diff_generations
from repro.headerspace.fields import five_tuple6_layout, five_tuple_layout
from repro.network.dataplane import DataPlane
from repro.network.serialize import network_from_json, network_to_json

PLANES = ("stanford", "acl-heavy", "sdn-policy")
TRACE = 4096


def with_var_order(network, var_order=None):
    """``network`` over the same packed fields with BDD variables in
    ``var_order`` (packing order when omitted)."""
    payload = json.loads(network_to_json(network))
    payload.pop("var_order", None)
    if var_order is not None:
        payload["var_order"] = list(var_order)
    return network_from_json(json.dumps(payload))


def behavior_key(behavior) -> tuple:
    return (
        sorted(map(tuple, behavior.paths())),
        sorted(behavior.delivered_hosts()),
        sorted(behavior.drops()),
    )


def signature(classifier: APClassifier, atom_id: int) -> frozenset:
    """The slots whose predicate holds the atom: an atom's identity
    across two builds of one network, whatever its id."""
    slot_of = {p.pid: slot for slot, p in classifier.dataplane.iter_slots()}
    return frozenset(
        slot_of[pid] for pid in classifier.universe.memberships(atom_id)
    )


class Plane:
    def __init__(self, name: str) -> None:
        network = get_scenario(name).network()
        self.name = name
        self.dst_first = APClassifier.build(network)
        self.packed = APClassifier.build(with_var_order(network))
        self.ingress = sorted(network.boxes)[0]
        self.trace = list(
            uniform_over_atoms(
                self.dst_first.universe, TRACE, random.Random(7)
            ).headers
        )
        self.expected = [
            self.dst_first.universe.classify(h) for h in self.trace
        ]


@pytest.fixture(scope="module", params=PLANES)
def plane(request) -> Plane:
    return Plane(request.param)


class TestLayouts:
    def test_five_tuple_layouts_run_destination_first(self):
        for layout, dst in ((five_tuple_layout(), "dst_ip"),
                            (five_tuple6_layout(), "dst_ip6")):
            assert layout.var_order[0] == dst
            assert layout.fields[0].name.startswith("src_ip")
            assert not layout.packing_var_order
            assert layout.bit_positions(dst).start == 0

    def test_orders_differ_and_packing_does_not(self, plane):
        dst_layout = plane.dst_first.dataplane.layout
        packed_layout = plane.packed.dataplane.layout
        assert dst_layout != packed_layout
        assert packed_layout.packing_var_order
        assert [(f.name, f.width, f.offset) for f in dst_layout.fields] == [
            (f.name, f.width, f.offset) for f in packed_layout.fields
        ]
        assert plane.packed.dataplane.manager.var_shifts == packing_shifts(
            packed_layout.total_width
        )
        assert plane.dst_first.dataplane.manager.var_shifts == (
            dst_layout.var_shifts
        )


class TestCrossOrderOracle:
    def test_same_partition(self, plane):
        dst, packed = plane.dst_first, plane.packed
        assert dst.universe.atom_count == packed.universe.atom_count
        assert dst.universe.verify_partition()
        assert packed.universe.verify_partition()

        def partition(classifier):
            return Counter(
                (signature(classifier, atom_id), fn.sat_count())
                for atom_id, fn in classifier.universe.atoms().items()
            )

        assert partition(dst) == partition(packed)

    def test_same_behavior_per_header(self, plane):
        dst, packed = plane.dst_first, plane.packed
        seen: dict[tuple[int, int], None] = {}
        for header, expected in zip(plane.trace, plane.expected):
            atom = dst.classify(header)
            other = packed.classify(header)
            assert atom == expected
            assert other == packed.universe.classify(header)
            if (atom, other) in seen:
                continue
            seen[atom, other] = None
            assert signature(dst, atom) == signature(packed, other)
            assert behavior_key(
                dst.behavior_of_atom(atom, plane.ingress)
            ) == behavior_key(packed.behavior_of_atom(other, plane.ingress))

    def test_every_engine(self, plane):
        for backend in available_backends():
            compiled = CompiledAPTree.compile(plane.dst_first.tree, backend=backend)
            assert compiled.classify_batch(plane.trace) == plane.expected, backend
            sample = plane.trace[:200]
            assert [compiled.classify(h) for h in sample] == plane.expected[:200]

    def test_persistence(self, plane, tmp_path):
        path = tmp_path / "dst.apc"
        again = tmp_path / "again.apc"
        persist.save(plane.dst_first, path)
        loaded = persist.load(path)
        assert loaded.dataplane.layout == plane.dst_first.dataplane.layout
        assert loaded.classify_batch(plane.trace) == plane.expected
        assert [loaded.tree.classify(h) for h in plane.trace[:500]] == (
            plane.expected[:500]
        )
        serving = load_serving(path)
        assert serving.classify_batch(plane.trace) == plane.expected
        persist.save(loaded, again)
        assert again.read_bytes() == path.read_bytes()
        summary = describe_artifact(path)
        assert summary["payload_version"] == 4


class TestOrdersNeverMix:
    def test_diff_refuses_two_orders(self, tmp_path, capsys):
        network = get_scenario("stanford").network()
        dst = APClassifier.build(network)
        packed = APClassifier.build(with_var_order(network))
        with pytest.raises(ValueError, match="header layouts"):
            diff_generations(dst, packed, sorted(network.boxes)[0])
        a, b = tmp_path / "a.apc", tmp_path / "b.apc"
        persist.save(dst, a)
        persist.save(packed, b)
        capsys.readouterr()
        code = main(["diff", str(a), str(b), "--ingress", sorted(network.boxes)[0]])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1

    def test_version3_artifact_reads_as_packing_order(self, tmp_path):
        network = with_var_order(get_scenario("stanford").network())
        classifier = APClassifier.build(network)
        trace = list(
            uniform_over_atoms(
                classifier.universe, 1024, random.Random(3)
            ).headers
        )
        expected = [classifier.universe.classify(h) for h in trace]
        manifest, sections = _manifest_and_sections(classifier)
        # Packing order writes no mapping: the manifest is version 3's.
        assert "var_shifts" not in manifest["compiled"]
        path = tmp_path / "v3.apc"
        path.write_bytes(
            build_artifact_bytes(dict(manifest, payload_version=3), sections)
        )
        loaded = persist.load(path)
        assert loaded.dataplane.layout == network.layout
        assert loaded.dataplane.layout.packing_var_order
        assert loaded.classify_batch(trace) == expected
        assert [loaded.tree.classify(h) for h in trace] == expected
        assert load_serving(path).classify_batch(trace) == expected

    def test_dst_first_artifact_carries_its_mapping(self):
        classifier = APClassifier.build(get_scenario("stanford").network())
        manifest, _ = _manifest_and_sections(classifier)
        assert tuple(manifest["compiled"]["var_shifts"]) == (
            classifier.dataplane.layout.var_shifts
        )

    def test_program_and_tree_mappings_must_agree(self):
        classifier = APClassifier.build(get_scenario("stanford").network())
        arrays = classifier.compile().to_arrays()
        arrays = dict(arrays, var_shifts=packing_shifts(arrays["num_vars"]))
        with pytest.raises(ValueError, match="mapping"):
            CompiledAPTree.from_arrays(arrays, tree=classifier.tree)

    def test_bare_manager_takes_the_layout_mapping(self):
        network = get_scenario("stanford").network()
        layout = network.layout
        manager = BDDManager(layout.total_width)
        dataplane = DataPlane(network, manager)
        assert manager.var_shifts == layout.var_shifts
        assert dataplane.manager is manager
        used = BDDManager(layout.total_width)
        used.apply_and(used.var(0), used.var(1))
        with pytest.raises(ValueError, match="mapping"):
            DataPlane(network, used)


class TestManagerMapping:
    def test_first_sat_is_least_in_variable_order(self):
        # Two variables, bit 0 read first: the witness of "a or b" sets
        # the later variable (bit 1), the larger header.
        manager = BDDManager(2, var_shifts=(0, 1))
        either = manager.apply_or(manager.var(0), manager.var(1))
        assert manager.first_sat(either) == 0b10
        packed = BDDManager(2)
        assert packed.first_sat(
            packed.apply_or(packed.var(0), packed.var(1))
        ) == 0b01

    def test_evaluate_and_random_sat_read_the_mapping(self):
        manager = BDDManager(3, var_shifts=(0, 2, 1))
        rng = random.Random(5)
        fn = manager.apply_diff(manager.var(0), manager.var(1))
        for _ in range(20):
            header = manager.random_sat(fn, rng)
            assert header & 0b001 and not header & 0b100
            assert manager.evaluate(fn, header)
            assert manager.evaluate_from(fn, header)
        with pytest.raises(ValueError):
            BDDManager(3, var_shifts=(0, 1, 1))

    def test_reconstruction_renumbers_in_the_snapshot_order(self):
        """The §VI-B rebuild orders atoms by their least header, so it
        must read headers through the live manager's mapping."""
        dataplane = DataPlane(get_scenario("stanford").network())
        predicates = dataplane.predicates()
        serial = AtomicUniverse.compute(
            dataplane.manager, predicates
        ).renumber_canonical()
        pids, image = snapshot_predicates(predicates)
        payload = rebuild_snapshot(
            pids, image, "oapt", dataplane.manager.var_shifts
        )
        universe, _ = restore_rebuild(payload, dataplane.manager)
        assert universe.atom_ids() == serial.atom_ids()
        for atom_id in serial.atom_ids():
            assert universe.atom_fn(atom_id) == serial.atom_fn(atom_id)
