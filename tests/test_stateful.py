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

A second machine drives a :class:`QueryService` the same way -- updates
through the service, generation swaps, reconstructions with an update
landing mid-rebuild, and updates made around the service -- and checks
every answer path (queued, cached, framed, inline, batched) against the
classifier it serves after every step.
"""

from __future__ import annotations

import asyncio
import random
import threading

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro.artifact.codec import classifier_bytes, classifier_from_bytes
from repro.baselines import ForwardingSimulator
from repro.core.classifier import APClassifier
from repro.datasets import internet2_like, uniform_over_atoms
from repro.headerspace.fields import parse_ipv4
from repro.network.rules import ForwardingRule, Match
from repro.core.reconstruction import (
    rebuild_snapshot,
    restore_rebuild,
    snapshot_predicates,
)
from repro.serve import QueryService
from repro.serve import service as service_module


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


def paths(behavior):
    return sorted(map(tuple, behavior.paths()))


class ServiceMachine(RuleBasedStateMachine):
    """A :class:`QueryService` under interleaved writers and changes made
    around it.  After every step each answer path equals the served
    classifier's own answer (and the forwarding simulation's behavior),
    and a step that changed the served generation replaced its record."""

    def __init__(self) -> None:
        super().__init__()
        self.loop: asyncio.AbstractEventLoop | None = None
        self.installed: list[tuple[str, ForwardingRule]] = []
        self.rng = random.Random(0)
        self.changed = False

    @initialize()
    def start(self) -> None:
        network = internet2_like(prefixes_per_router=1, te_fraction=0.0)
        classifier = APClassifier.build(network)
        self.boxes = sorted(network.boxes)
        trace = uniform_over_atoms(classifier.universe, 24, random.Random(0))
        self.headers = list(trace.headers)
        self.loop = asyncio.new_event_loop()
        self.service = QueryService(classifier, max_delay_s=0, cache_size=64)
        self.loop.run_until_complete(self.service.start())
        self.number = self.service.generation.number

    def teardown(self) -> None:
        if self.loop is None:
            return
        self.loop.run_until_complete(self.service.stop())
        self.loop.run_until_complete(self.loop.shutdown_default_executor())
        self.loop.close()

    def run(self, coro):
        return self.loop.run_until_complete(coro)

    def _draw_rule(self, box_index, second_octet, third_octet, port_index):
        network = self.service.classifier.dataplane.network
        box = self.boxes[box_index % len(self.boxes)]
        ports = network.box(box).table.out_ports()
        if not ports:
            return None
        prefix = f"10.{second_octet}.{third_octet}"
        if len(self.headers) < 64:  # the result cache holds every probe
            self.headers.append(parse_ipv4(f"{prefix}.9"))
        return box, ForwardingRule(
            Match.prefix("dst_ip", parse_ipv4(f"{prefix}.0"), 24),
            (ports[port_index % len(ports)],),
            priority=24,
        )

    @rule(drawn=RULE_DRAW)
    def insert_rule(self, drawn) -> None:
        target = self._draw_rule(*drawn)
        if target is None:
            return
        self.run(self.service.insert_rule(*target))
        self.installed.append(target)
        self.changed = True

    @precondition(lambda self: self.installed)
    @rule(victim=st.integers(min_value=0, max_value=2**31))
    def remove_rule(self, victim) -> None:
        target = self.installed.pop(victim % len(self.installed))
        self.run(self.service.remove_rule(*target))
        self.changed = True

    @rule()
    def adopt_generation(self) -> None:
        copy = classifier_from_bytes(classifier_bytes(self.service.classifier))
        self.run(self.service.adopt_generation(copy))
        assert self.service.classifier is copy
        self.changed = True

    @rule(drawn=RULE_DRAW)
    def reconstruct_with_update_mid_rebuild(self, drawn) -> None:
        target = self._draw_rule(*drawn)
        entered, gate = threading.Event(), threading.Event()
        rebuild = service_module.rebuild_snapshot

        def gated(*args):
            entered.set()
            gate.wait(timeout=30)
            return rebuild(*args)

        async def scenario():
            recon = asyncio.ensure_future(self.service.reconstruct())
            while not (entered.is_set() or recon.done()):
                await asyncio.sleep(0.001)
            try:
                if target is not None:
                    await self.service.insert_rule(*target)
            finally:
                gate.set()
            return await recon

        service_module.rebuild_snapshot = gated
        try:
            assert self.run(scenario())
        finally:
            service_module.rebuild_snapshot = rebuild
        if target is not None:
            self.installed.append(target)
        self.changed = True

    @rule(drawn=RULE_DRAW)
    def out_of_band_insert(self, drawn) -> None:
        target = self._draw_rule(*drawn)
        if target is None:
            return
        classifier = self.service.classifier
        changes = classifier.dataplane.insert_rule(*target)
        classifier.apply_changes(changes)
        self.installed.append(target)
        # Around the service only a tree change can be seen; a rule
        # that changes no predicate leaves every memoised answer right.
        self.changed = bool(changes)

    async def answers(self, ingress):
        service = self.service
        headers = self.headers
        queued = await asyncio.gather(*(service.classify(h) for h in headers))
        hits = service.counters.cache_hits
        repeated = [await service.classify(h) for h in headers]
        assert service.counters.cache_hits - hits == len(headers)
        framed = await service.classify_frame(headers)
        inline = []
        for header in headers:
            await asyncio.sleep(0)  # a fresh loop pass: answered inline
            inline.append(await service.query(header, ingress))
        batched = await asyncio.gather(
            *(service.query(h, ingress) for h in headers)
        )
        return queued, repeated, framed, inline, batched

    @invariant()
    def every_path_answers_for_the_served_generation(self) -> None:
        if self.loop is None:
            return
        ingress = self.rng.choice(self.boxes)
        queued, repeated, framed, inline, batched = self.run(
            self.answers(ingress)
        )
        classifier = self.service.classifier
        simulator = ForwardingSimulator(classifier.dataplane)
        truth = [classifier.universe.classify(h) for h in self.headers]
        assert queued == repeated == framed == truth
        for header, fast, slow in zip(self.headers, inline, batched):
            expected = paths(simulator.query(header, ingress))
            assert paths(fast) == paths(slow) == expected
        number = self.service.generation.number
        assert number > self.number if self.changed else number >= self.number
        self.number, self.changed = number, False


ServiceMachine.TestCase.settings = settings(
    max_examples=10, stateful_step_count=12, deadline=None
)
TestServiceStateMachine = ServiceMachine.TestCase
