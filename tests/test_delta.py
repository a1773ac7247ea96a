"""Tests for behavior deltas (fault localization primitive)."""

from __future__ import annotations

import random

import pytest

from repro.core.classifier import APClassifier
from repro.core.delta import diff_behaviors, first_divergence
from repro.datasets import internet2_like, toy_network
from repro.diff import diff_generations
from repro.headerspace.fields import parse_ipv4
from repro.network.dataplane import DataPlane
from repro.network.rules import ForwardingRule, Match


def classifier_pair(mutate):
    """Two classifiers over one manager: baseline and mutated."""
    network_a = internet2_like(prefixes_per_router=2)
    classifier_a = APClassifier.build(network_a)
    network_b = internet2_like(prefixes_per_router=2)
    dataplane_b = DataPlane(network_b, classifier_a.dataplane.manager)
    mutate(network_b, dataplane_b)
    classifier_b = APClassifier.from_dataplane(dataplane_b)
    return classifier_a, classifier_b


class TestDiffBehaviors:
    def test_identical_behaviors_equal(self):
        classifier = APClassifier.build(toy_network())
        atom = classifier.classify(parse_ipv4("10.1.0.1"))
        a = classifier.behavior_of_atom(atom, "b1")
        b = classifier.behavior_of_atom(atom, "b1")
        assert not diff_behaviors(a, b)

    def test_different_ingress_differs(self):
        classifier = APClassifier.build(toy_network())
        atom = classifier.classify(parse_ipv4("10.3.0.1"))
        at_b1 = classifier.behavior_of_atom(atom, "b1")
        at_b2 = classifier.behavior_of_atom(atom, "b2")
        assert diff_behaviors(at_b1, at_b2)


class TestFirstDivergence:
    def test_divergence_point(self):
        # 10.1.0.0/16 is homed at ATLA; SEAT reaches it via LOSA and HOUS.
        # A /24 detour installed at HOUS (on that path) must show up.
        classifier_a, classifier_b = classifier_pair(
            lambda net, dp: dp.insert_rule(
                "HOUS",
                ForwardingRule(
                    Match.prefix("dst_ip", parse_ipv4("10.1.0.0"), 24),
                    ("to_KANS",),
                    priority=24,
                ),
            )
        )
        deltas = diff_generations(
            classifier_a, classifier_b, "SEAT", rng=random.Random(0)
        ).entries
        assert deltas
        for delta in deltas:
            assert delta.diverges_at is not None
            assert delta.diverges_at in delta.before.boxes_traversed()

    def test_no_divergence_is_none(self):
        classifier = APClassifier.build(toy_network())
        atom = classifier.classify(parse_ipv4("10.1.0.1"))
        behavior = classifier.behavior_of_atom(atom, "b1")
        assert first_divergence(behavior, behavior) is None


class TestBehaviorDelta:
    def test_no_change_no_deltas(self):
        classifier_a, classifier_b = classifier_pair(lambda net, dp: None)
        assert diff_generations(classifier_a, classifier_b, "CHIC").is_empty

    def test_detects_blackhole(self):
        classifier_a, classifier_b = classifier_pair(
            lambda net, dp: dp.insert_rule(
                "WASH", ForwardingRule(Match.any(), ("dead_end",), priority=32)
            )
        )
        deltas = diff_generations(classifier_a, classifier_b, "WASH").entries
        assert deltas
        # All deltas report WASH-adjacent divergence.
        for delta in deltas:
            assert "WASH" in delta.before.boxes_traversed()
            assert delta.describe()

    def test_change_far_from_ingress_invisible_if_unreachable(self):
        """A change on a box no class from this ingress traverses yields
        no deltas from that ingress."""
        classifier_a, classifier_b = classifier_pair(
            lambda net, dp: dp.insert_rule(
                "SEAT",
                ForwardingRule(
                    Match.prefix("dst_ip", parse_ipv4("10.1.0.0"), 30),
                    ("to_SALT",),
                    priority=30,
                ),
            )
        )
        # From SEAT itself the change may matter; pick an ingress whose
        # traffic to that /30 never routes via SEAT.
        deltas_elsewhere = diff_generations(
            classifier_a, classifier_b, "ATLA"
        ).entries
        for delta in deltas_elsewhere:
            assert "SEAT" in delta.before.boxes_traversed() or (
                "SEAT" in delta.after.boxes_traversed()
            )

    def test_cross_manager_fallback(self):
        """Independent builds (separate managers) still find the change."""
        classifier_a = APClassifier.build(toy_network())
        network_b = toy_network()
        # Remove the 10.3.0.0/16 rule at b2: that class loses delivery.
        box = network_b.box("b2")
        victim = next(
            rule
            for rule in box.table
            if rule.match.constraint_for("dst_ip").value == parse_ipv4("10.3.0.0")
        )
        box.table.remove(victim)
        classifier_b = APClassifier.build(network_b)
        deltas = diff_generations(classifier_a, classifier_b, "b2").entries
        assert deltas
        changed_hosts = {
            frozenset(delta.before.delivered_hosts()) for delta in deltas
        }
        assert frozenset({"h2"}) in changed_hosts
