"""Unit tests for forwarding tables and ACLs."""

import pytest

from repro.headerspace.fields import dst_ip_layout, parse_ipv4
from repro.headerspace.header import Packet
from repro.network.rules import AclRule, ForwardingRule, Match
from repro.network.tables import Acl, ForwardingTable


def prefix_rule(text: str, plen: int, port: str) -> ForwardingRule:
    return ForwardingRule(
        Match.prefix("dst_ip", parse_ipv4(text), plen), (port,), priority=plen
    )


def packet(text: str) -> Packet:
    return Packet.of(dst_ip_layout(), dst_ip=text)


class TestForwardingTable:
    def test_longest_prefix_wins(self):
        table = ForwardingTable(
            [
                prefix_rule("10.0.0.0", 8, "coarse"),
                prefix_rule("10.1.0.0", 16, "fine"),
            ]
        )
        assert table.lookup(packet("10.1.2.3")) == ("fine",)
        assert table.lookup(packet("10.2.0.0")) == ("coarse",)

    def test_insertion_order_breaks_ties(self):
        table = ForwardingTable()
        table.add(prefix_rule("10.0.0.0", 8, "first"))
        table.add(prefix_rule("10.0.0.0", 8, "second"))
        assert table.lookup(packet("10.5.5.5")) == ("first",)

    def test_insert_goes_after_equal_priorities(self):
        """Interleaved priorities: each rule lands after every rule of
        its priority and before every lower one."""
        table = ForwardingTable()
        order = [(8, "a"), (16, "b"), (8, "c"), (24, "d"), (16, "e"),
                 (8, "f"), (24, "g"), (0, "h"), (16, "i")]
        for plen, port in order:
            table.add(prefix_rule("10.0.0.0", plen, port))
        assert [(r.priority, r.out_ports[0]) for r in table] == [
            (24, "d"), (24, "g"),
            (16, "b"), (16, "e"), (16, "i"),
            (8, "a"), (8, "c"), (8, "f"),
            (0, "h"),
        ]

    def test_no_match_is_drop(self):
        table = ForwardingTable([prefix_rule("10.0.0.0", 8, "p")])
        assert table.lookup(packet("11.0.0.0")) == ()

    def test_remove(self):
        rule = prefix_rule("10.0.0.0", 8, "p")
        table = ForwardingTable([rule])
        table.remove(rule)
        assert table.lookup(packet("10.0.0.1")) == ()

    def test_remove_missing_raises(self):
        table = ForwardingTable()
        with pytest.raises(KeyError):
            table.remove(prefix_rule("10.0.0.0", 8, "p"))

    def test_version_bumps_on_mutation(self):
        table = ForwardingTable()
        v0 = table.version
        rule = prefix_rule("10.0.0.0", 8, "p")
        table.add(rule)
        assert table.version > v0
        v1 = table.version
        table.remove(rule)
        assert table.version > v1

    def test_out_ports_first_seen_order(self):
        table = ForwardingTable(
            [
                prefix_rule("10.1.0.0", 16, "b"),
                prefix_rule("10.0.0.0", 8, "a"),
                prefix_rule("10.2.0.0", 16, "b"),
            ]
        )
        assert table.out_ports() == ["b", "a"]

    def test_iteration_in_priority_order(self):
        table = ForwardingTable(
            [
                prefix_rule("10.0.0.0", 8, "low"),
                prefix_rule("10.1.0.0", 16, "high"),
            ]
        )
        priorities = [rule.priority for rule in table]
        assert priorities == sorted(priorities, reverse=True)

    def test_multicast_lookup(self):
        table = ForwardingTable(
            [ForwardingRule(Match.any(), ("p1", "p2"), priority=0)]
        )
        assert table.lookup(packet("1.2.3.4")) == ("p1", "p2")

    def test_len_and_repr(self):
        table = ForwardingTable([prefix_rule("10.0.0.0", 8, "p")])
        assert len(table) == 1
        assert "1 rules" in repr(table)


class TestAcl:
    def test_first_match_semantics(self):
        acl = Acl(
            [
                AclRule(Match.prefix("dst_ip", parse_ipv4("10.1.0.0"), 16), permit=False),
                AclRule(Match.prefix("dst_ip", parse_ipv4("10.0.0.0"), 8), permit=True),
            ]
        )
        assert not acl.permits(packet("10.1.0.1"))  # deny wins: listed first
        assert acl.permits(packet("10.2.0.1"))

    def test_default_deny(self):
        acl = Acl([])
        assert not acl.permits(packet("10.0.0.1"))

    def test_default_permit(self):
        acl = Acl([], default_permit=True)
        assert acl.permits(packet("10.0.0.1"))

    def test_append_and_remove(self):
        rule = AclRule(Match.any(), permit=True)
        acl = Acl()
        acl.append(rule)
        assert acl.permits(packet("10.0.0.1"))
        acl.remove(rule)
        assert not acl.permits(packet("10.0.0.1"))

    def test_remove_missing_raises(self):
        with pytest.raises(KeyError):
            Acl().remove(AclRule(Match.any(), permit=True))

    def test_version_bumps(self):
        acl = Acl()
        v0 = acl.version
        acl.append(AclRule(Match.any(), permit=True))
        assert acl.version > v0

    def test_repr_mentions_default(self):
        assert "default=deny" in repr(Acl())
        assert "default=permit" in repr(Acl(default_permit=True))
