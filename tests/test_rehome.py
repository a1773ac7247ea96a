"""Re-homing a classifier's BDDs into a fresh manager.

A BDD manager never frees a node, so incremental churn grows it by a
few hundred nodes an update.  The incremental engine therefore has a
compiled classifier copy its live BDDs into a fresh manager (through the
artifact codec's classifier half) once the manager holds
``REHOME_GROWTH`` times its nodes after the last build or move.  A
re-homed classifier must be indistinguishable from one that never moved:
the same atom ids, pids, batch answers, behaviours and what-if reports,
update after update.
"""

from __future__ import annotations

import math
import random

from repro.core.classifier import APClassifier
from repro.core.incremental import REHOME_GROWTH
from repro.datasets import rule_update_stream, uniform_over_atoms
from repro.datasets.registry import get_scenario
from repro.diff import what_if

UPDATES = 1_200
CHECK_EVERY = 200


def build() -> tuple[APClassifier, object]:
    scenario = get_scenario("stanford")
    classifier = APClassifier.build(
        scenario.network(), maintenance="incremental"
    )
    classifier.compile()
    return classifier, scenario


def apply(classifier: APClassifier, update) -> None:
    if update.kind == "insert":
        classifier.insert_rule(update.box, update.rule)
    else:
        classifier.remove_rule(update.box, update.rule)


def behaviour(classifier: APClassifier, header: int, ingress: str):
    found = classifier.query(header, ingress)
    return (
        found.atom_id,
        tuple(tuple(path) for path in found.paths()),
        tuple(sorted(found.delivered_hosts())),
        tuple(sorted(found.drops())),
    )


def report(classifier: APClassifier, ingress: str, add) -> dict:
    """A what-if answer without its timings."""
    payload = what_if(classifier, ingress, add=add).to_json()
    return {k: v for k, v in payload.items() if not k.endswith("_s")}


def test_rehomed_classifier_answers_like_one_that_never_moved():
    moved, scenario = build()
    stayed, _ = build()
    stayed._engine._manager_base = math.inf  # never re-homes
    engine = moved._engine
    rng = random.Random(17)
    headers = list(uniform_over_atoms(moved.universe, 1024, rng).headers)
    boxes = sorted(moved.dataplane.network.boxes)
    updates = zip(
        scenario.update_stream(UPDATES),
        get_scenario("stanford").update_stream(UPDATES),
    )
    step = 0
    for index, (mine, theirs) in enumerate(updates, start=1):
        before = len(stayed.dataplane.manager)
        apply(moved, mine)
        apply(stayed, theirs)
        step = max(step, len(stayed.dataplane.manager) - before)
        # The manager never outgrows its last image by more than the
        # growth factor plus the update that crossed it.
        assert len(moved.dataplane.manager) <= (
            REHOME_GROWTH * engine._manager_base + step
        )
        assert moved.compiled_fresh
        if index % CHECK_EVERY:
            continue
        assert moved.universe.atom_ids() == stayed.universe.atom_ids()
        assert [p.pid for p in moved.dataplane.predicates()] == [
            p.pid for p in stayed.dataplane.predicates()
        ]
        assert moved.classify_batch(headers) == stayed.classify_batch(headers)
        for header in headers[:32]:
            ingress = rng.choice(boxes)
            assert behaviour(moved, header, ingress) == behaviour(
                stayed, header, ingress
            )
        if index % (3 * CHECK_EVERY) == 0:
            add = [
                (update.box, update.rule)
                for update in rule_update_stream(
                    moved.dataplane.network, 4, random.Random(index),
                    insert_fraction=1.0,
                )
            ]
            ingress = rng.choice(boxes)
            assert report(moved, ingress, add) == report(stayed, ingress, add)
    assert engine.rehomes >= 1
    assert len(moved.dataplane.manager) < len(stayed.dataplane.manager) / 2
    # The networks the two classifiers were built on took every update.
    assert moved.dataplane.network is scenario.network()


def test_rehome_keeps_the_next_ids():
    """A move right after the newest predicate was withdrawn (its port
    lost its last rule): the next pid and atom id minted are those of a
    classifier that never moved, not one past the highest id still
    live."""
    from repro.datasets import toy_network
    from repro.headerspace.fields import parse_ipv4
    from repro.network.rules import ForwardingRule, Match

    rule = ForwardingRule(
        Match.prefix("dst_ip", parse_ipv4("10.9.0.0"), 16), ("to_b1",), 16
    )
    twins = []
    for moves in (True, False):
        classifier = APClassifier.build(
            toy_network(), maintenance="incremental"
        )
        classifier.compile()
        classifier.insert_rule("b2", rule)
        classifier.remove_rule("b2", rule)
        if moves:
            manager = classifier.dataplane.manager
            classifier.rehome()
            assert classifier.dataplane.manager is not manager
        classifier.insert_rule("b2", rule)
        twins.append(classifier)
    moved, stayed = twins
    assert [p.pid for p in moved.dataplane.predicates()] == [
        p.pid for p in stayed.dataplane.predicates()
    ]
    assert moved.universe.atom_ids() == stayed.universe.atom_ids()
