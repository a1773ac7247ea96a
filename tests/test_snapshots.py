"""Tests for whole-classifier snapshots (warm restart)."""

from __future__ import annotations

import json
import random

import pytest

from repro.core.atomic import AtomicUniverse
from repro.core.classifier import APClassifier
from repro import persist
from repro.persist import SnapshotMismatch, classifier_from_json, classifier_to_json
from repro.datasets import internet2_like, stanford_like, toy_network


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


class TestRoundTrip:
    def test_toy(self):
        original = APClassifier.build(toy_network())
        restored = classifier_from_json(classifier_to_json(original))
        assert restored.universe.atom_count == original.universe.atom_count
        assert restored.tree.average_depth() == pytest.approx(
            original.tree.average_depth()
        )
        assert_same_answers(original, restored)

    def test_internet2_like(self):
        original = APClassifier.build(internet2_like(prefixes_per_router=2))
        restored = classifier_from_json(classifier_to_json(original))
        assert_same_answers(original, restored)

    def test_stanford_like_with_acls(self):
        original = APClassifier.build(
            stanford_like(subnets_per_zone=2, host_ports_per_zone=1)
        )
        restored = classifier_from_json(classifier_to_json(original))
        assert_same_answers(original, restored, samples=30)

    def test_restored_classifier_is_updatable(self):
        from repro.headerspace.fields import parse_ipv4
        from repro.network.rules import ForwardingRule, Match

        original = APClassifier.build(internet2_like(prefixes_per_router=1))
        restored = classifier_from_json(classifier_to_json(original))
        rule = ForwardingRule(
            Match.prefix("dst_ip", parse_ipv4("10.1.0.0"), 24), ("to_SALT",), 24
        )
        restored.insert_rule("SEAT", rule)
        rng = random.Random(1)
        for _ in range(30):
            header = rng.getrandbits(32)
            assert restored.tree.classify(header) == restored.universe.classify(
                header
            )

    def test_tree_with_tombstoned_labels(self):
        from repro.headerspace.fields import parse_ipv4
        from repro.network.rules import ForwardingRule, Match

        original = APClassifier.build(toy_network())
        drop = ForwardingRule(
            Match.prefix("dst_ip", parse_ipv4("10.2.0.0"), 16), (), 99
        )
        original.insert_rule("b1", drop)
        text = classifier_to_json(original)
        assert json.loads(text)["ghosts"]
        restored = classifier_from_json(text)
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
        assert len(json.loads(classifier_to_json(original))["ghosts"]) > 1
        once = classifier_from_json(classifier_to_json(original))
        twice = classifier_from_json(classifier_to_json(once))
        rng = random.Random(3)
        width = original.dataplane.layout.total_width
        for _ in range(500):
            header = rng.getrandbits(width)
            expected = original.tree.classify(header)
            assert once.tree.classify(header) == expected
            assert twice.tree.classify(header) == expected

    def test_no_ghosts_key_without_dead_labels(self):
        original = APClassifier.build(internet2_like(prefixes_per_router=2))
        payload = json.loads(classifier_to_json(original))
        assert "ghosts" not in payload
        roots = payload["image"][2]
        assert len(roots) == len(payload["predicates"]) + len(payload["atom_ids"])

    def test_load_performs_no_atom_refinement(self, monkeypatch):
        """Warm restart skips atom computation: the saved partition is
        reassembled, never refined again.  (A wall-clock race against a
        build says nothing once the build is as cheap as the JSON parse.)"""
        original = APClassifier.build(internet2_like(prefixes_per_router=14))
        text = classifier_to_json(original)

        def refined(*_args, **_kwargs):
            raise AssertionError("restore must not refine atoms")

        monkeypatch.setattr(AtomicUniverse, "compute", refined)
        monkeypatch.setattr(AtomicUniverse, "add_predicate", refined)
        restored = classifier_from_json(text)
        monkeypatch.undo()

        before, after = original.universe, restored.universe
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
    def test_version_checked(self):
        text = classifier_to_json(APClassifier.build(toy_network()))
        payload = json.loads(text)
        payload["version"] = 99
        with pytest.raises(ValueError, match="unsupported .* version"):
            classifier_from_json(json.dumps(payload))

    def test_version_1_snapshot_refused(self):
        """The pre-image layout (one triple list per predicate/atom, a
        nested tree) is refused by version, before anything is parsed."""
        old = {
            "version": 1,
            "strategy": "oapt",
            "network": {},
            "predicates": [
                {"pid": 0, "slot": ["forward", "b", "p"], "r": [0],
                 "bdd": [[0, -2, -1], [-1, 0, 0]]}
            ],
            "atoms": [{"atom_id": 0, "bdd": [[-1, -1, -1]]}],
            "tree": ["L", 0],
        }
        with pytest.raises(ValueError, match="unsupported .* version 1"):
            classifier_from_json(json.dumps(old))

    def test_tampered_image_detected(self):
        """No checksum guards the JSON form: the image's own validation
        and the node-identity check must refuse an edited ref."""
        classifier = APClassifier.build(toy_network())
        payload = json.loads(classifier_to_json(classifier))
        num_vars, nodes, roots = payload["image"]
        for offset, value in ((-2, -3), (-3, 99), (-1, len(nodes))):
            tampered = list(nodes)
            tampered[offset] = value
            payload["image"] = [num_vars, tampered, roots]
            with pytest.raises(SnapshotMismatch, match="BDD image"):
                classifier_from_json(json.dumps(payload))
        payload["image"] = [num_vars, nodes, roots[:-1]]
        with pytest.raises(SnapshotMismatch, match="stored BDD roots"):
            classifier_from_json(json.dumps(payload))

    def test_stale_snapshot_detected(self):
        """Snapshot taken, then the network changes: load must refuse."""
        from repro.headerspace.fields import parse_ipv4
        from repro.network.rules import ForwardingRule, Match

        classifier = APClassifier.build(toy_network())
        text = classifier_to_json(classifier)
        payload = json.loads(text)
        # Tamper: add a rule to the embedded network without updating the
        # stored predicates.
        payload["network"]["boxes"][0]["rules"].append(
            {
                "match": [{"field": "dst_ip", "value": parse_ipv4("10.9.0.0"),
                           "prefix_len": 16}],
                "out_ports": ["to_h1"],
                "priority": 16,
            }
        )
        with pytest.raises(SnapshotMismatch):
            classifier_from_json(json.dumps(payload))

    def test_corrupt_r_mapping_detected(self):
        classifier = APClassifier.build(toy_network())
        payload = json.loads(classifier_to_json(classifier))
        payload["predicates"][0]["r"] = [99999]
        with pytest.raises(SnapshotMismatch):
            classifier_from_json(json.dumps(payload))


class TestPersistFacade:
    def test_json_file_round_trip(self, tmp_path):
        original = APClassifier.build(toy_network())
        path = tmp_path / "clf.json"
        written = persist.save(original, path, format="json")
        assert written == path.stat().st_size
        assert persist.detect_format(path) == "json"
        restored = persist.load(path)
        assert_same_answers(original, restored, samples=20)

    def test_artifact_file_round_trip(self, tmp_path):
        original = APClassifier.build(toy_network())
        path = tmp_path / "clf.apc"
        written = persist.save(original, path)
        assert written == path.stat().st_size
        assert persist.detect_format(path) == "artifact"
        restored = persist.load(path)
        assert_same_answers(original, restored, samples=20)

    def test_unknown_format_rejected(self, tmp_path):
        original = APClassifier.build(toy_network())
        with pytest.raises(ValueError, match="unknown persistence format"):
            persist.save(original, tmp_path / "x", format="pickle")
