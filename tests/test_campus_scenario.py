"""End-to-end campus scenario: every subsystem in one realistic build.

A three-zone campus assembled from textual configs with ACLs and a NAT
middlebox, driven through the complete lifecycle: build, verify a policy
suite, apply an update inside a transaction, detect a regression with
behavior deltas, reconstruct, snapshot, and restore.
"""

from __future__ import annotations

import random

import pytest

from repro.core.classifier import APClassifier
from repro.core.middlebox import (
    DETERMINISTIC,
    FlowEntry,
    HeaderRewrite,
    Middlebox,
    MiddleboxAwareComputer,
    MiddleboxTable,
    RewriteBranch,
)
from repro.core.propagation import AtomPropagation
from repro.persist import classifier_from_json, classifier_to_json
from repro.core.verifier import NetworkVerifier
from repro.diff import diff_generations
from repro.headerspace.fields import five_tuple_layout, parse_ipv4
from repro.headerspace.header import Packet
from repro.network.builder import Network
from repro.network.parsers import parse_acl, parse_routes
from repro.network.rules import ForwardingRule, Match

CORE_ROUTES = """
route 10.10.0.0/16 -> to_eng      # engineering zone
route 10.20.0.0/16 -> to_dorm     # dorm zone
route 10.30.0.0/16 -> to_dmz      # servers
"""

EDGE_TEMPLATE = """
route {subnet} -> cust
route 0.0.0.0/0 -> to_core
"""

DMZ_ACL = """
deny   tcp any any eq 23
deny   ip 10.20.0.0/16 any       # dorms can't reach servers directly
permit ip any any
"""


@pytest.fixture(scope="module")
def campus() -> Network:
    network = Network(five_tuple_layout(), name="campus")
    for box in ("core", "eng", "dorm", "dmz"):
        network.add_box(box)
    for zone in ("eng", "dorm", "dmz"):
        network.link("core", f"to_{zone}", zone, "from_core")
        network.link(zone, "to_core", "core", f"from_{zone}")
    network.attach_host("eng", "cust", "eng_hosts")
    network.attach_host("dorm", "cust", "dorm_hosts")
    network.attach_host("dmz", "cust", "servers")

    for rule in parse_routes(CORE_ROUTES):
        network.boxes["core"].table.add(rule)
    for zone, subnet in (
        ("eng", "10.10.0.0/16"),
        ("dorm", "10.20.0.0/16"),
        ("dmz", "10.30.0.0/16"),
    ):
        for rule in parse_routes(EDGE_TEMPLATE.format(subnet=subnet)):
            network.boxes[zone].table.add(rule)
    network.boxes["dmz"].set_input_acl(
        "from_core", parse_acl(DMZ_ACL, network.layout)
    )
    return network


@pytest.fixture(scope="module")
def campus_classifier(campus) -> APClassifier:
    return APClassifier.build(campus)


class TestPolicySuite:
    def test_engineering_reaches_servers(self, campus_classifier):
        packet = Packet.of(
            campus_classifier.dataplane.layout,
            src_ip="10.10.1.1",
            dst_ip="10.30.0.5",
            dst_port=443,
            proto=6,
        )
        behavior = campus_classifier.query(packet, "eng")
        assert behavior.delivered_hosts() == {"servers"}
        assert behavior.boxes_traversed() == ["eng", "core", "dmz"]

    def test_dorms_blocked_from_servers(self, campus_classifier):
        packet = Packet.of(
            campus_classifier.dataplane.layout,
            src_ip="10.20.1.1",
            dst_ip="10.30.0.5",
        )
        behavior = campus_classifier.query(packet, "dorm")
        assert behavior.is_dropped_everywhere
        assert ("dmz", "input_acl") in behavior.drops()

    def test_telnet_blocked_for_everyone(self, campus_classifier):
        verifier = NetworkVerifier.from_classifier(campus_classifier)
        # Exhaustive: no atom with dst_port == 23 reaches the servers.
        layout = campus_classifier.dataplane.layout
        telnet = Match.prefix("dst_port", 23, 16).with_prefix(
            "dst_ip", parse_ipv4("10.30.0.0"), 16
        ).with_prefix("proto", 6, 8)
        for atom_id in campus_classifier.atoms_matching(telnet):
            behavior = verifier._behavior(atom_id, "eng")
            assert "servers" not in behavior.delivered_hosts()

    def test_propagation_agrees_with_verifier(self, campus_classifier):
        verifier = NetworkVerifier.from_classifier(campus_classifier)
        propagation = AtomPropagation.from_classifier(campus_classifier)
        for ingress in ("eng", "dorm", "core"):
            outcome = propagation.propagate(ingress)
            for host in ("eng_hosts", "dorm_hosts", "servers"):
                assert outcome.atoms_at_host.get(host, frozenset()) == (
                    verifier.atoms_reaching_host(ingress, host)
                )


class TestChangeManagement:
    def test_transaction_guards_policy(self, campus):
        classifier = APClassifier.build(campus)
        verifier_check = (
            lambda clf: not NetworkVerifier.from_classifier(clf).find_loops("core")
        )
        # A legitimate update commits fine.
        ok_rule = ForwardingRule(
            Match.prefix("dst_ip", parse_ipv4("10.30.9.0"), 24),
            ("to_dmz",),
            priority=24,
        )
        with classifier.transaction() as txn:
            txn.insert_rule("core", ok_rule)
            txn.ensure(verifier_check)
        classifier.remove_rule("core", ok_rule)

    def test_delta_pinpoints_regression(self, campus):
        baseline = APClassifier.build(campus)
        # Regression: someone fat-fingers a core route for eng's /16.
        # Clone the network so the shared fixture stays pristine.
        from repro.network.dataplane import DataPlane
        from repro.network.serialize import network_from_json, network_to_json

        clone = network_from_json(network_to_json(campus))
        broken_dp = DataPlane(clone, baseline.dataplane.manager)
        broken_dp.insert_rule(
            "core",
            ForwardingRule(
                Match.prefix("dst_ip", parse_ipv4("10.10.0.0"), 16),
                ("to_dorm",),
                priority=20,
            ),
        )
        broken = APClassifier.from_dataplane(broken_dp)
        deltas = diff_generations(baseline, broken, "dmz").entries
        assert deltas
        assert any(delta.diverges_at == "core" for delta in deltas)

    def test_snapshot_round_trip_preserves_policy(self, campus_classifier):
        restored = classifier_from_json(classifier_to_json(campus_classifier))
        packet = Packet.of(
            restored.dataplane.layout, src_ip="10.20.1.1", dst_ip="10.30.0.5"
        )
        assert restored.query(packet, "dorm").is_dropped_everywhere


class TestNatIntegration:
    def test_nat_exposes_servers_via_public_prefix(self, campus_classifier):
        """A DNAT middlebox at the dmz maps 198.51.100.0/24 onto the
        server subnet; public-addressed packets then get delivered."""
        layout = campus_classifier.dataplane.layout
        public = Packet.of(layout, src_ip="10.10.1.1", dst_ip="198.51.100.7",
                           dst_port=443, proto=6)
        internal = Packet.of(layout, src_ip="10.10.1.1", dst_ip="10.30.0.7",
                             dst_port=443, proto=6)
        # Without NAT: no route for the public prefix.
        plain = campus_classifier.query(public, "eng")
        assert plain.is_dropped_everywhere

        entry = FlowEntry.from_match(
            campus_classifier,
            Match.prefix("dst_ip", parse_ipv4("198.51.100.0"), 24),
            DETERMINISTIC,
            (
                RewriteBranch(
                    HeaderRewrite(
                        (1 << layout.total_width) - 1, internal.value
                    ),
                    1.0,
                    campus_classifier.classify(internal),
                ),
            ),
        )
        computer = MiddleboxAwareComputer(
            campus_classifier,
            {"eng": Middlebox("DNAT", MiddleboxTable([entry]))},
        )
        (outcome,) = computer.query(public.value, "eng")
        assert outcome.behavior.delivered_hosts() == {"servers"}
