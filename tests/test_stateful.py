"""Stateful property testing: the classifier under arbitrary operation
sequences.

A hypothesis state machine drives a live :class:`APClassifier` through
random rule inserts/withdrawals, tree rebuilds, full reconstructions, and
isolated rebuilds swapped in with a journal of concurrent updates
(Section VI-B, Fig. 8), checking after every step that

* the AP Tree classifies exactly like the linear atom scan;
* atom membership in every live predicate matches the predicate's own
  BDD verdict (the invariant stage 2 relies on);
* behaviors agree with a forwarding simulation straight off the rules.

This subsumes a large family of hand-written update tests: any
interleaving that breaks tree/universe synchronization fails here.
"""

from __future__ import annotations

import random

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro.baselines import ForwardingSimulator
from repro.core.classifier import APClassifier
from repro.datasets import internet2_like
from repro.headerspace.fields import parse_ipv4
from repro.network.rules import ForwardingRule, Match
from repro.parallel.recon import (
    rebuild_snapshot,
    restore_rebuild,
    snapshot_predicates,
)


#: (box index, second octet, third octet, port index) of a drawn /24 rule.
RULE_DRAW = st.tuples(
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=255),
    st.integers(min_value=0, max_value=10),
)


class ClassifierMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.classifier: APClassifier | None = None
        self.installed: list[tuple[str, ForwardingRule]] = []
        self.rng = random.Random(0)

    @initialize()
    def build(self) -> None:
        self.network = internet2_like(prefixes_per_router=1, te_fraction=0.0)
        self.classifier = APClassifier.build(self.network)
        self.simulator = ForwardingSimulator(self.classifier.dataplane)
        self.boxes = sorted(self.network.boxes)

    def _draw_rule(self, box_index, second_octet, third_octet, port_index):
        box = self.boxes[box_index % len(self.boxes)]
        ports = self.network.box(box).table.out_ports()
        if not ports:
            return None
        value = parse_ipv4(f"10.{second_octet}.{third_octet}.0")
        return box, ForwardingRule(
            Match.prefix("dst_ip", value, 24),
            (ports[port_index % len(ports)],),
            priority=24,
        )

    @rule(drawn=RULE_DRAW)
    def insert_rule(self, drawn) -> None:
        target = self._draw_rule(*drawn)
        if target is None:
            return
        self.classifier.insert_rule(*target)
        self.installed.append(target)

    @precondition(lambda self: self.installed)
    @rule(victim=st.integers(min_value=0, max_value=2**31))
    def remove_rule(self, victim) -> None:
        box, installed_rule = self.installed.pop(victim % len(self.installed))
        self.classifier.remove_rule(box, installed_rule)

    @rule(
        updates=st.lists(
            st.tuples(st.booleans(), st.integers(min_value=0), RULE_DRAW),
            max_size=3,
        )
    )
    def reconstruct_with_journal(self, updates) -> None:
        """Fig. 8 in one step: snapshot, keep updating the live
        structures, rebuild from the snapshot, replay the journal, swap."""
        classifier = self.classifier
        dataplane = classifier.dataplane
        pids, dumped = snapshot_predicates(dataplane.predicates())
        journal = []
        for remove, victim, drawn in updates:
            if remove and self.installed:
                target = self.installed.pop(victim % len(self.installed))
                changes = dataplane.remove_rule(*target)
            else:
                target = self._draw_rule(*drawn)
                if target is None:
                    continue
                changes = dataplane.insert_rule(*target)
                self.installed.append(target)
            classifier.apply_changes(changes)
            journal.extend(changes)
        payload = rebuild_snapshot(pids, dumped, classifier.strategy)
        universe, tree = restore_rebuild(payload, dataplane.manager)
        assert classifier.install_rebuild(universe, tree, journal) == len(journal)

    @rule()
    def rebuild_tree(self) -> None:
        self.classifier.rebuild_tree()

    @rule()
    def reconstruct(self) -> None:
        self.classifier.reconstruct()

    @invariant()
    def tree_matches_linear_scan(self) -> None:
        if self.classifier is None:
            return
        for _ in range(3):
            header = self.rng.getrandbits(32)
            assert self.classifier.tree.classify(header) == (
                self.classifier.universe.classify(header)
            )

    @invariant()
    def membership_matches_predicates(self) -> None:
        if self.classifier is None:
            return
        header = self.rng.getrandbits(32)
        atom_id = self.classifier.classify(header)
        for labeled in self.classifier.dataplane.predicates():
            assert self.classifier.universe.contains(
                labeled.pid, atom_id
            ) == labeled.fn.evaluate(header)

    @invariant()
    def behavior_matches_forwarding_simulation(self) -> None:
        if self.classifier is None:
            return
        header = self.rng.getrandbits(32)
        ingress = self.rng.choice(self.boxes)
        fast = self.classifier.query(header, ingress)
        slow = self.simulator.query(header, ingress)
        assert sorted(map(tuple, fast.paths())) == sorted(map(tuple, slow.paths()))


ClassifierMachine.TestCase.settings = settings(
    max_examples=12, stateful_step_count=12, deadline=None
)
TestClassifierStateMachine = ClassifierMachine.TestCase
