"""Unit tests for matches and rules."""

import pytest

from repro.headerspace.fields import dst_ip_layout, five_tuple_layout, parse_ipv4
from repro.headerspace.header import Packet
from repro.network.rules import DROP, AclRule, FieldMatch, ForwardingRule, Match


class TestFieldMatch:
    def test_negative_prefix_rejected(self):
        with pytest.raises(ValueError):
            FieldMatch("dst_ip", 0, -1)

    def test_describe_ip(self):
        fm = FieldMatch("dst_ip", parse_ipv4("10.0.0.0"), 8)
        assert fm.describe() == "dst_ip=10.0.0.0/8"

    def test_describe_plain(self):
        assert FieldMatch("dst_port", 80, 16).describe() == "dst_port=80/16"


class TestMatch:
    def test_any_matches_everything(self):
        layout = dst_ip_layout()
        match = Match.any()
        assert match.is_any
        for value in (0, 1, (1 << 32) - 1):
            assert match.matches(Packet(layout, value))

    def test_prefix_matching(self):
        layout = dst_ip_layout()
        match = Match.prefix("dst_ip", parse_ipv4("10.1.0.0"), 16)
        assert match.matches(Packet.of(layout, dst_ip="10.1.200.7"))
        assert not match.matches(Packet.of(layout, dst_ip="10.2.0.1"))

    def test_exact_matching(self):
        layout = five_tuple_layout()
        match = Match.exact(layout, dst_port=80, proto=6)
        assert match.matches(Packet.of(layout, dst_port=80, proto=6))
        assert not match.matches(Packet.of(layout, dst_port=81, proto=6))

    def test_with_prefix_is_pure(self):
        base = Match.prefix("dst_ip", parse_ipv4("10.0.0.0"), 8)
        extended = base.with_prefix("src_ip", parse_ipv4("10.9.0.0"), 16)
        assert base.constraint_for("src_ip") is None
        assert extended.constraint_for("src_ip") is not None

    def test_literals_agree_with_matches(self):
        layout = five_tuple_layout()
        match = Match.prefix("dst_ip", parse_ipv4("171.64.0.0"), 14).with_prefix(
            "dst_port", 23, 16
        )
        literals = match.to_literals(layout)
        packet = Packet.of(layout, dst_ip="171.65.3.4", dst_port=23)
        for var, polarity in literals.items():
            bit = (packet.value >> layout.var_shifts[var]) & 1
            assert bool(bit) == polarity
        assert match.matches(packet)

    def test_wildcard_agrees_with_matches(self):
        layout = five_tuple_layout()
        match = Match.prefix("dst_ip", parse_ipv4("10.2.0.0"), 16)
        wildcard = match.to_wildcard(layout)
        inside = Packet.of(layout, dst_ip="10.2.9.9", src_ip="1.2.3.4")
        outside = Packet.of(layout, dst_ip="10.3.0.0")
        assert wildcard.matches(inside.value)
        assert not wildcard.matches(outside.value)

    def test_equality_and_hash(self):
        a = Match.prefix("dst_ip", 10 << 24, 8)
        b = Match.prefix("dst_ip", 10 << 24, 8)
        c = Match.prefix("dst_ip", 11 << 24, 8)
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_repr(self):
        assert repr(Match.any()) == "Match(any)"
        assert "dst_ip=10.0.0.0/8" in repr(Match.prefix("dst_ip", 10 << 24, 8))


class TestForwardingRule:
    def test_drop_rule(self):
        rule = ForwardingRule(Match.any(), DROP, priority=0)
        assert rule.is_drop
        assert "DROP" in rule.describe()

    def test_multicast_out_ports(self):
        rule = ForwardingRule(Match.any(), ("p1", "p2"), priority=5)
        assert not rule.is_drop
        assert "p1,p2" in rule.describe()


class TestAclRule:
    def test_describe(self):
        assert AclRule(Match.any(), permit=True).describe().startswith("permit")
        assert AclRule(Match.any(), permit=False).describe().startswith("deny")
