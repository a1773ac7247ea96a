"""Whole-classifier snapshots (warm restart) through the artifact codec.

A classifier persists as an artifact; its classifier half (everything
but the compiled program) is also how it is copied within a process.
Both restore without recomputing atoms and refuse payloads that
disagree with themselves or with the network they were saved from.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from repro import persist
from repro.artifact import (
    ArtifactError,
    ArtifactMismatch,
    artifact_bytes,
    artifact_from_buffer,
    build_artifact_bytes,
    classifier_bytes,
    classifier_from_bytes,
    load_artifact_buffer,
)
from repro.core.atomic import AtomicUniverse
from repro.core.classifier import APClassifier
from repro.datasets import internet2_like, stanford_like, toy_network
from repro.network.serialize import network_to_json


def assert_same_answers(original, restored, samples=60, seed=0):
    rng = random.Random(seed)
    width = original.dataplane.layout.total_width
    boxes = sorted(original.dataplane.network.boxes)
    for _ in range(samples):
        header = rng.getrandbits(width)
        ingress = rng.choice(boxes)
        a = original.query(header, ingress)
        b = restored.query(header, ingress)
        assert sorted(map(tuple, a.paths())) == sorted(map(tuple, b.paths()))
        assert a.delivered_hosts() == b.delivered_hosts()


def reload(classifier):
    """Save to an in-memory artifact and restore it."""
    return load_artifact_buffer(artifact_bytes(classifier))


def classifier_half(classifier):
    """Manifest and ``(name, dtype, data)`` sections of the classifier
    half, read back from :func:`classifier_bytes` output."""
    artifact = artifact_from_buffer(classifier_bytes(classifier))
    manifest = dict(artifact.manifest)
    sections = [
        (
            entry["name"],
            entry["dtype"],
            bytes(artifact.section_bytes(entry["name"]))
            if entry["dtype"] == "u1"
            else [int(v) for v in artifact.section_ints(entry["name"])],
        )
        for entry in manifest.pop("sections")
    ]
    return manifest, sections


def replace_section(sections, name, data):
    return [
        (section, dtype, data if section == name else payload)
        for section, dtype, payload in sections
    ]


class TestRoundTrip:
    def test_toy(self):
        original = APClassifier.build(toy_network())
        restored = reload(original)
        assert restored.universe.atom_count == original.universe.atom_count
        assert restored.tree.average_depth() == pytest.approx(
            original.tree.average_depth()
        )
        assert_same_answers(original, restored)

    def test_internet2_like(self):
        original = APClassifier.build(internet2_like(prefixes_per_router=2))
        assert_same_answers(original, reload(original))

    def test_stanford_like_with_acls(self):
        original = APClassifier.build(
            stanford_like(subnets_per_zone=2, host_ports_per_zone=1)
        )
        assert_same_answers(original, reload(original), samples=30)

    def test_restored_classifier_is_updatable(self):
        from repro.headerspace.fields import parse_ipv4
        from repro.network.rules import ForwardingRule, Match

        original = APClassifier.build(internet2_like(prefixes_per_router=1))
        rule = ForwardingRule(
            Match.prefix("dst_ip", parse_ipv4("10.1.0.0"), 24), ("to_SALT",), 24
        )
        for restored in (
            reload(original),
            classifier_from_bytes(artifact_bytes(original)),
        ):
            restored.insert_rule("SEAT", rule)
            rng = random.Random(1)
            for _ in range(30):
                header = rng.getrandbits(32)
                assert restored.tree.classify(header) == (
                    restored.universe.classify(header)
                )

    def test_tree_with_tombstoned_labels(self):
        from repro.headerspace.fields import parse_ipv4
        from repro.network.rules import ForwardingRule, Match

        original = APClassifier.build(toy_network())
        drop = ForwardingRule(
            Match.prefix("dst_ip", parse_ipv4("10.2.0.0"), 16), (), 99
        )
        original.insert_rule("b1", drop)
        manifest, _ = classifier_half(original)
        assert manifest["ghosts"]["pids"]
        restored = reload(original)
        assert_same_answers(original, restored)
        assert restored.universe.atom_ids() == original.universe.atom_ids()

    def test_many_tombstoned_labels_survive_two_reloads(self):
        from repro.datasets.registry import get_scenario

        scenario = get_scenario("internet2")
        original = APClassifier.build(scenario.network())
        for update in scenario.update_stream(60):
            apply = (
                original.insert_rule if update.kind == "insert"
                else original.remove_rule
            )
            apply(update.box, update.rule)
        assert len(classifier_half(original)[0]["ghosts"]["pids"]) > 1
        once = reload(original)
        twice = reload(once)
        rng = random.Random(3)
        width = original.dataplane.layout.total_width
        for _ in range(500):
            header = rng.getrandbits(width)
            expected = original.tree.classify(header)
            assert once.tree.classify(header) == expected
            assert twice.tree.classify(header) == expected

    def test_no_ghosts_key_without_dead_labels(self):
        original = APClassifier.build(internet2_like(prefixes_per_router=2))
        manifest, sections = classifier_half(original)
        assert manifest["ghosts"]["pids"] == []
        roots = dict((name, data) for name, _, data in sections)["bdd_roots"]
        counts = manifest["counts"]
        assert len(roots) == counts["predicates"] + counts["atoms"]

    def test_load_performs_no_atom_refinement(self, monkeypatch):
        """Warm restart skips atom computation: the saved partition is
        reassembled, never refined again.  (A wall-clock race against a
        build says nothing once the build is as cheap as the load.)"""
        original = APClassifier.build(internet2_like(prefixes_per_router=14))
        blob = artifact_bytes(original)

        def refined(*_args, **_kwargs):
            raise AssertionError("restore must not refine atoms")

        monkeypatch.setattr(AtomicUniverse, "compute", refined)
        monkeypatch.setattr(AtomicUniverse, "add_predicate", refined)
        restored = load_artifact_buffer(blob)
        half = classifier_from_bytes(blob)
        monkeypatch.undo()

        before = original.universe
        for after in (restored.universe, half.universe):
            assert after.atom_ids() == before.atom_ids()
            assert after.predicate_ids() == before.predicate_ids()
            for pid in before.predicate_ids():
                assert after.r(pid) == before.r(pid)
            for atom_id in before.atom_ids():
                assert after.atom_fn(atom_id).sat_count() == (
                    before.atom_fn(atom_id).sat_count()
                )
            assert after.verify_partition()
        assert_same_answers(original, restored)


class TestValidation:
    def test_tampered_image_detected(self):
        """With no CRC check, the image's own validation must refuse an
        edited ref, and a dropped root must not line up."""
        classifier = APClassifier.build(toy_network())
        manifest, sections = classifier_half(classifier)
        stored = dict((name, data) for name, _, data in sections)
        nodes, roots = stored["bdd_nodes"], stored["bdd_roots"]
        for offset, value in ((-2, -3), (-3, 99), (-1, len(nodes))):
            tampered = list(nodes)
            tampered[offset] = value
            blob = build_artifact_bytes(
                manifest, replace_section(sections, "bdd_nodes", tampered)
            )
            with pytest.raises(ArtifactMismatch, match="BDD image"):
                classifier_from_bytes(blob)
        blob = build_artifact_bytes(
            manifest, replace_section(sections, "bdd_roots", roots[:-1])
        )
        with pytest.raises(ArtifactMismatch, match="stored BDD roots"):
            classifier_from_bytes(blob)

    def test_stale_snapshot_detected(self):
        """The network changes under stored predicates (digest updated to
        match): the deep check recompiles it and must refuse before it
        reads any compiled section."""
        from repro.headerspace.fields import parse_ipv4

        classifier = APClassifier.build(toy_network())
        manifest, sections = classifier_half(classifier)
        network = json.loads(network_to_json(classifier.dataplane.network))
        network["boxes"][0]["rules"].append(
            {
                "match": [{"field": "dst_ip", "value": parse_ipv4("10.9.0.0"),
                           "prefix_len": 16}],
                "out_ports": ["to_h1"],
                "priority": 16,
            }
        )
        stale = json.dumps(network).encode()
        manifest = dict(
            manifest, network_digest=hashlib.sha256(stale).hexdigest()
        )
        blob = build_artifact_bytes(
            manifest, replace_section(sections, "network", stale)
        )
        with pytest.raises(ArtifactMismatch, match="recompiled"):
            load_artifact_buffer(blob, deep_verify=True)

    def test_corrupt_r_mapping_detected(self):
        classifier = APClassifier.build(toy_network())
        manifest, sections = classifier_half(classifier)
        r_values = list(dict((n, d) for n, _, d in sections)["r_values"])
        r_values[0] = 99999
        blob = build_artifact_bytes(
            manifest, replace_section(sections, "r_values", r_values)
        )
        with pytest.raises(ArtifactMismatch, match="unknown atom"):
            classifier_from_bytes(blob)


class TestPersistFacade:
    def test_artifact_file_round_trip(self, tmp_path):
        original = APClassifier.build(toy_network())
        path = tmp_path / "clf.apc"
        written = persist.save(original, path)
        assert written == path.stat().st_size
        restored = persist.load(path)
        assert_same_answers(original, restored, samples=20)

    def test_json_file_refused(self, tmp_path):
        """A classifier JSON snapshot (the retired format) is not an
        artifact: load refuses it with a typed error."""
        network = json.loads(network_to_json(toy_network()))
        path = tmp_path / "clf.json"
        path.write_text(json.dumps({"version": 2, "network": network}))
        with pytest.raises(ArtifactError, match="not a repro artifact"):
            persist.load(path)
