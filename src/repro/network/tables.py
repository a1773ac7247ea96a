"""Forwarding tables and ACLs: the stateful packet filters of a box.

Both are "packet filters" in the paper's model (Section III): an ACL is one
predicate; a forwarding table yields one predicate per output port.  The
classes here hold the raw rules and define lookup semantics; compilation to
BDD predicates lives in :mod:`repro.network.predicates`.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Iterator

from ..headerspace.header import Packet
from .lpm import PrefixTrie
from .rules import AclRule, ForwardingRule

__all__ = ["ForwardingTable", "Acl"]


def _descending_priority(rule: ForwardingRule) -> int:
    return -rule.priority


class ForwardingTable:
    """Priority-ordered forwarding rules (highest priority wins).

    For longest-prefix-match tables the natural priority is the prefix
    length, which is what the dataset generators use.  Ties are broken by
    insertion order (earlier wins), matching typical switch behavior where
    an existing entry shadows a later equal-priority insert.

    Lookups use a :class:`PrefixTrie` fast path whenever the rule set has
    the pure-LPM shape (every rule constrains one shared field with
    priority == prefix length); anything else falls back to the general
    priority scan.  The trie is rebuilt lazily after mutations, and tests
    pin both paths to identical results.
    """

    def __init__(self, rules: Iterable[ForwardingRule] = ()) -> None:
        self._rules: list[ForwardingRule] = []
        self._version = 0
        self._trie: PrefixTrie | None = None
        self._trie_field: str | None = None
        self._trie_version = -1
        for rule in rules:
            self.add(rule)

    @property
    def version(self) -> int:
        """Monotone counter bumped on every mutation (cache invalidation)."""
        return self._version

    def add(self, rule: ForwardingRule) -> None:
        """Insert keeping the list sorted by descending priority, after
        every rule of equal priority (earlier wins ties)."""
        bisect.insort(self._rules, rule, key=_descending_priority)
        self._version += 1

    def remove(self, rule: ForwardingRule) -> None:
        try:
            self._rules.remove(rule)
        except ValueError:
            raise KeyError(f"rule not present: {rule.describe()}") from None
        self._version += 1

    # ------------------------------------------------------------------
    # Lookup (trie fast path + general scan)
    # ------------------------------------------------------------------

    def _refresh_trie(self, packet: Packet) -> None:
        """Rebuild the LPM trie if the rule set allows it (else disable)."""
        self._trie_version = self._version
        self._trie = None
        self._trie_field = None
        field_name: str | None = None
        for rule in self._rules:
            constraints = list(rule.match.constraints())
            if not constraints:
                if rule.priority != 0:
                    return  # a non-trivial any-match breaks LPM ordering
                continue
            if len(constraints) > 1:
                return
            constraint = constraints[0]
            if field_name is None:
                field_name = constraint.field
            if constraint.field != field_name:
                return
            if constraint.prefix_len != rule.priority:
                return
        if field_name is None:
            return  # nothing to index (empty or any-only table)
        width = packet.layout.field(field_name).width
        trie = PrefixTrie(width)
        shift_base = width
        for rule in self._rules:  # priority order: first writer wins a slot
            constraint = rule.match.constraint_for(field_name)
            if constraint is None:
                value, prefix_len = 0, 0
            else:
                prefix_len = constraint.prefix_len
                keep = shift_base - prefix_len
                value = (constraint.value >> keep) << keep if keep else constraint.value
            if trie.get(value, prefix_len) is None:
                trie.insert(value, prefix_len, rule.out_ports)
        self._trie = trie
        self._trie_field = field_name

    def lookup(self, packet: Packet) -> tuple[str, ...]:
        """Output ports for ``packet`` (empty tuple = drop / no route)."""
        if self._trie_version != self._version:
            self._refresh_trie(packet)
        if self._trie is not None and self._trie_field is not None:
            result = self._trie.lookup(packet.field(self._trie_field))
            return result if result is not None else ()  # type: ignore[return-value]
        for rule in self._rules:
            if rule.match.matches(packet):
                return rule.out_ports
        return ()

    def out_ports(self) -> list[str]:
        """All port names referenced by any rule, in first-seen order."""
        seen: dict[str, None] = {}
        for rule in self._rules:
            for port in rule.out_ports:
                seen.setdefault(port)
        return list(seen)

    def __iter__(self) -> Iterator[ForwardingRule]:
        """Rules in match order (descending priority)."""
        return iter(self._rules)

    def __len__(self) -> int:
        return len(self._rules)

    def __repr__(self) -> str:
        return f"ForwardingTable({len(self._rules)} rules)"


class Acl:
    """First-match access control list.

    ``default_permit`` decides packets that match no rule; real-world ACLs
    usually end with an implicit deny, so the default is ``False`` -- but
    an absent ACL on a port is modeled as "no filter" by the box, not as a
    deny-all ACL.
    """

    def __init__(
        self, rules: Iterable[AclRule] = (), default_permit: bool = False
    ) -> None:
        self._rules: list[AclRule] = list(rules)
        self.default_permit = default_permit
        self._version = 0

    @property
    def version(self) -> int:
        return self._version

    def append(self, rule: AclRule) -> None:
        self._rules.append(rule)
        self._version += 1

    def remove(self, rule: AclRule) -> None:
        try:
            self._rules.remove(rule)
        except ValueError:
            raise KeyError(f"rule not present: {rule.describe()}") from None
        self._version += 1

    def permits(self, packet: Packet) -> bool:
        for rule in self._rules:
            if rule.match.matches(packet):
                return rule.permit
        return self.default_permit

    def __iter__(self) -> Iterator[AclRule]:
        return iter(self._rules)

    def __len__(self) -> int:
        return len(self._rules)

    def __repr__(self) -> str:
        default = "permit" if self.default_permit else "deny"
        return f"Acl({len(self._rules)} rules, default={default})"
