"""DataPlane: the compiled, labeled predicate view of a network.

This is the handoff point between the network model and the verification
algorithms: every ACL and every forwarding-table output port becomes one
:class:`LabeledPredicate` with a stable integer id.  The set of all labeled
predicates is the set ``P = {p1 .. pk}`` of Sections IV-V.

The data plane also owns *update* semantics (Section VI-A): a rule
insertion or deletion is converted into predicate changes -- the predicates
whose function actually changed are retired and re-minted under fresh ids,
everything else is untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from ..bdd import BDDManager, Function
from .box import Box
from .builder import Network
from .predicates import ACL_IN, ACL_OUT, FORWARD, PredicateCompiler
from .rules import ForwardingRule
from .tables import Acl

__all__ = ["DataPlane", "LabeledPredicate", "PredicateChange", "FORWARD", "ACL_IN", "ACL_OUT"]


@dataclass(frozen=True)
class LabeledPredicate:
    """One predicate of the data plane with its provenance.

    ``port`` is the output port for ``forward``/``acl_out`` predicates and
    the input port for ``acl_in`` predicates.
    """

    pid: int
    kind: str
    box: str
    port: str
    fn: Function

    def __repr__(self) -> str:
        return f"LabeledPredicate(pid={self.pid}, {self.kind} {self.box}:{self.port})"


@dataclass(frozen=True)
class PredicateChange:
    """One predicate-level effect of a data plane update."""

    removed: LabeledPredicate | None
    added: LabeledPredicate | None

    def __post_init__(self) -> None:
        if self.removed is None and self.added is None:
            raise ValueError("a change must remove or add something")


class DataPlane:
    """Compiled network state: labeled predicates plus lookup indexes."""

    def __init__(
        self,
        network: Network,
        manager: BDDManager | None = None,
        precompiled: Mapping[
            str, Sequence[tuple[int, str, str, Function]]
        ] | None = None,
    ) -> None:
        self.network = network
        self.layout = network.layout
        self.compiler = PredicateCompiler(network.layout, manager)
        self.manager = self.compiler.manager
        self._next_pid = 0
        self._predicates: dict[int, LabeledPredicate] = {}
        # (kind, box, port) -> LabeledPredicate, for diffing on updates.
        self._by_slot: dict[tuple[str, str, str], LabeledPredicate] = {}
        # box -> {out_port -> forward predicate}; the stage-2 hot index.
        self._forward_by_box: dict[str, dict[str, LabeledPredicate]] = {
            name: {} for name in network.boxes
        }
        for box in network.boxes.values():
            if precompiled is not None:
                # The artifact loader already restored this box's
                # functions (into *this* manager) with their saved pids.
                for pid, kind, port, fn in precompiled[box.name]:
                    if fn.manager is not self.manager:
                        raise ValueError(
                            "precompiled predicates must live in the data "
                            "plane's manager"
                        )
                    self._mint(kind, box.name, port, fn, pid)
            else:
                self._compile_box(box)

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------

    def _mint(
        self, kind: str, box: str, port: str, fn: Function,
        pid: int | None = None,
    ) -> LabeledPredicate:
        if pid is None:
            pid = self._next_pid
        predicate = LabeledPredicate(pid, kind, box, port, fn)
        self._next_pid = max(self._next_pid, pid + 1)
        self._predicates[predicate.pid] = predicate
        self._by_slot[(kind, box, port)] = predicate
        if kind == FORWARD:
            self._forward_by_box.setdefault(box, {})[port] = predicate
        return predicate

    def _compile_box(self, box: Box) -> None:
        for kind, port, fn in self.compiler.box_predicates(box):
            self._mint(kind, box.name, port, fn)

    # ------------------------------------------------------------------
    # Read access
    # ------------------------------------------------------------------

    def predicates(self) -> list[LabeledPredicate]:
        """All live predicates in ascending pid order."""
        return [self._predicates[pid] for pid in sorted(self._predicates)]

    def predicate(self, pid: int) -> LabeledPredicate:
        return self._predicates[pid]

    def __len__(self) -> int:
        return len(self._predicates)

    def forwarding_entries(self, box: str) -> list[LabeledPredicate]:
        """The ``forward`` predicates of one box (one per live out port)."""
        return list(self._forward_by_box.get(box, {}).values())

    def input_acl_predicate(self, box: str, port: str) -> LabeledPredicate | None:
        return self._by_slot.get((ACL_IN, box, port))

    def output_acl_predicate(self, box: str, port: str) -> LabeledPredicate | None:
        return self._by_slot.get((ACL_OUT, box, port))

    def iter_slots(self) -> Iterator[tuple[tuple[str, str, str], LabeledPredicate]]:
        return iter(self._by_slot.items())

    # ------------------------------------------------------------------
    # Updates (Section VI-A: rule change -> predicate change)
    # ------------------------------------------------------------------

    def insert_rule(self, box: str, rule: ForwardingRule) -> list[PredicateChange]:
        """Install a forwarding rule and report the predicate-level diff."""
        self.network.box(box).table.add(rule)
        return self._refresh_forwarding(box)

    def remove_rule(self, box: str, rule: ForwardingRule) -> list[PredicateChange]:
        """Remove a forwarding rule and report the predicate-level diff."""
        self.network.box(box).table.remove(rule)
        return self._refresh_forwarding(box)

    def set_input_acl(self, box: str, port: str, acl: Acl) -> list[PredicateChange]:
        self.network.box(box).set_input_acl(port, acl)
        return self._refresh_acl(ACL_IN, box, port, acl)

    def set_output_acl(self, box: str, port: str, acl: Acl) -> list[PredicateChange]:
        self.network.box(box).set_output_acl(port, acl)
        return self._refresh_acl(ACL_OUT, box, port, acl)

    def _refresh_forwarding(self, box: str) -> list[PredicateChange]:
        table = self.network.box(box).table
        fresh = {
            port: fn
            for port, fn in self.compiler.port_predicates(table).items()
            if not fn.is_false
        }
        changes: list[PredicateChange] = []
        stale_slots = [
            slot
            for slot in self._by_slot
            if slot[0] == FORWARD and slot[1] == box
        ]
        for slot in stale_slots:
            _, _, port = slot
            old = self._by_slot[slot]
            new_fn = fresh.pop(port, None)
            if new_fn is not None and new_fn.node == old.fn.node:
                continue  # unchanged; keep the pid (and any AP Tree node)
            del self._by_slot[slot]
            del self._predicates[old.pid]
            self._forward_by_box[box].pop(port, None)
            added = (
                self._mint(FORWARD, box, port, new_fn)
                if new_fn is not None
                else None
            )
            changes.append(PredicateChange(removed=old, added=added))
        for port, fn in fresh.items():  # brand-new ports
            changes.append(
                PredicateChange(removed=None, added=self._mint(FORWARD, box, port, fn))
            )
        return changes

    def _refresh_acl(
        self, kind: str, box: str, port: str, acl: Acl
    ) -> list[PredicateChange]:
        fn = self.compiler.acl_predicate(acl)
        old = self._by_slot.get((kind, box, port))
        if old is not None and old.fn.node == fn.node:
            return []
        if old is not None:
            del self._predicates[old.pid]
        added = self._mint(kind, box, port, fn)
        return [PredicateChange(removed=old, added=added)]

    def __repr__(self) -> str:
        return f"DataPlane({self.network.name!r}, {len(self)} predicates)"
