"""Compiling rules to BDD predicates.

Section III: "Forwarding tables and ACLs can be converted to predicates
using the algorithms in [22]".  This module implements those conversions:

* an ACL becomes one predicate -- true exactly for the packets it permits;
* a forwarding table becomes one predicate per output port -- true exactly
  for the packets the table sends to that port, honoring rule priority
  (higher-priority rules shadow lower ones).
"""

from __future__ import annotations

from ..bdd import BDDManager, Function
from ..headerspace.fields import HeaderLayout
from .box import Box
from .rules import Match
from .tables import Acl, ForwardingTable

__all__ = ["PredicateCompiler", "FORWARD", "ACL_IN", "ACL_OUT"]

#: Predicate kinds, shared with :mod:`repro.network.dataplane` (defined
#: here so worker processes can compile boxes without importing it).
FORWARD = "forward"
ACL_IN = "acl_in"
ACL_OUT = "acl_out"


class PredicateCompiler:
    """Translates matches, ACLs, and forwarding tables into BDD predicates.

    One compiler owns one :class:`BDDManager`; every predicate of a data
    plane must come from the same compiler so that hash-consing makes
    function equality an integer comparison.
    """

    def __init__(self, layout: HeaderLayout, manager: BDDManager | None = None) -> None:
        self.layout = layout
        if manager is None:
            manager = BDDManager(
                layout.total_width, var_shifts=layout.var_shifts
            )
        elif manager.num_vars != layout.total_width:
            raise ValueError(
                f"manager has {manager.num_vars} variables but layout "
                f"needs {layout.total_width}"
            )
        else:
            # A manager made bare (``BDDManager(n)``) takes the layout's
            # variable-to-bit mapping before it builds anything.
            manager.adopt_var_shifts(layout.var_shifts)
        self.manager = manager
        self._true = Function.true(self.manager)
        self._false = Function.false(self.manager)

    @property
    def true(self) -> Function:
        return self._true

    @property
    def false(self) -> Function:
        return self._false

    def match_predicate(self, match: Match) -> Function:
        """The set of packets matching a rule body, as a cube."""
        return Function.cube(self.manager, match.to_literals(self.layout))

    def acl_predicate(self, acl: Acl) -> Function:
        """Packets permitted by a first-match ACL.

        Walks rules in match order keeping ``covered`` (packets decided by
        some earlier rule).  A permit rule contributes its match minus
        ``covered``; packets matching nothing fall to the default action.
        """
        permitted = self._false
        covered = self._false
        for rule in acl:
            body = self.match_predicate(rule.match)
            if rule.permit:
                permitted = permitted | (body - covered)
            covered = covered | body
        if acl.default_permit:
            permitted = permitted | ~covered
        return permitted

    def port_predicates(self, table: ForwardingTable) -> dict[str, Function]:
        """Per-output-port forwarding predicates.

        Iterates rules in descending priority, accumulating ``covered``;
        each rule's effective region is its match minus everything a
        higher-priority rule already claimed.  Packets matching no rule are
        dropped (they appear in no port predicate).  Multicast rules
        contribute their region to every listed port.
        """
        predicates: dict[str, Function] = {
            port: self._false for port in table.out_ports()
        }
        covered = self._false
        for rule in table:
            body = self.match_predicate(rule.match)
            effective = body - covered
            if not effective.is_false:
                for port in rule.out_ports:
                    predicates[port] = predicates[port] | effective
            covered = covered | body
        return predicates

    def box_predicates(self, box: Box) -> list[tuple[str, str, Function]]:
        """Every labeled predicate of one box as ``(kind, port, fn)``.

        This is *the* canonical per-box compile order -- forwarding ports
        (false ports skipped), then input ACLs, then output ACLs -- in
        which :class:`repro.network.dataplane.DataPlane` assigns pids.
        """
        compiled: list[tuple[str, str, Function]] = []
        for port, fn in self.port_predicates(box.table).items():
            if not fn.is_false:
                compiled.append((FORWARD, port, fn))
        for port, acl in box.input_acls.items():
            compiled.append((ACL_IN, port, self.acl_predicate(acl)))
        for port, acl in box.output_acls.items():
            compiled.append((ACL_OUT, port, self.acl_predicate(acl)))
        return compiled
