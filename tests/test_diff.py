"""Tests for differential and what-if queries (``repro.diff``).

The central invariants pinned here:

* ``diff(G, G)`` is empty for any generation G (identity);
* reported volumes are exact -- the changed regions partition precisely
  the headers whose classification differs, cross-checked by brute-force
  enumeration on a small universe;
* what-if queries run on a shadow fork and leave the live classifier
  bit-identical;
* two artifacts loaded side by side are fully isolated (independent
  managers), and cross-manager diffs are exact;
* the serving layer answers diff/what-if over both the JSON-line and
  the framed wire protocol without disturbing concurrent classify load.
"""

from __future__ import annotations

import asyncio
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import diff as diff_module
from repro import persist
from repro.artifact import classifier_bytes, classifier_from_bytes
from repro.bdd.function import Function
from repro.bdd.manager import BDDManager
from repro.bdd.serialize import dump_image, load_image
from repro.core.behavior import BehaviorComputer
from repro.core.classifier import APClassifier
from repro.core.delta import diff_behaviors, first_divergence
from repro.datasets import internet2_like, random_network, toy_network
from repro.datasets.registry import get_scenario
from repro.datasets.updates import rule_update_stream
from repro.diff import (
    ChangedClass,
    GenerationDiff,
    diff_generations,
    fork_shadow,
    format_rule_spec,
    parse_rule_spec,
    what_if,
)
from repro.headerspace.fields import HeaderLayout, parse_ipv4
from repro.network.builder import Network
from repro.network.rules import ForwardingRule, Match
from repro.serve import QueryService, start_tcp_server
from repro.serve import proto


def run(coro):
    return asyncio.run(coro)


def small_network(detour: bool = False) -> Network:
    """A 6-bit universe: every header enumerable (64 of them).

    Three boxes in a line; ``a`` splits the space between ``b`` (low
    half) and ``c`` (high half).  With ``detour=True`` a /3 exception at
    ``a`` re-routes an eighth of the space from ``b`` to ``c``.
    """
    layout = HeaderLayout([("dst", 6)])
    net = Network(layout, name="small")
    for name in ("a", "b", "c"):
        net.add_box(name)
    net.link("a", "to_b", "b", "from_a")
    net.link("a", "to_c", "c", "from_a")
    net.attach_host("b", "to_hb", "hb")
    net.attach_host("c", "to_hc", "hc")
    net.add_forwarding_rule("a", Match.prefix("dst", 0b000000, 1), "to_b", 1)
    net.add_forwarding_rule("a", Match.prefix("dst", 0b100000, 1), "to_c", 1)
    net.add_forwarding_rule("b", Match.any(), "to_hb", 0)
    net.add_forwarding_rule("c", Match.any(), "to_hc", 0)
    if detour:
        net.add_forwarding_rule(
            "a", Match.prefix("dst", 0b010000, 3), "to_c", 3
        )
    return net


class TestRuleSpecs:
    def test_parse_round_trip(self):
        layout = toy_network().layout
        box, rule = parse_rule_spec("b1:dst_ip=10.3.0.0/24->p2", layout)
        assert box == "b1"
        assert rule.out_ports == ("p2",)
        assert rule.priority == 24
        assert format_rule_spec(box, rule, layout) == (
            "b1:dst_ip=10.3.0.0/24->p2@24"
        )

    def test_parse_drop_and_priority(self):
        layout = toy_network().layout
        _, rule = parse_rule_spec("b1:dst_ip=10.1.0.0/16->drop@99", layout)
        assert rule.out_ports == ()
        assert rule.priority == 99

    def test_parse_multiport(self):
        layout = toy_network().layout
        _, rule = parse_rule_spec("b1:dst_ip=10.1.0.0/16->p1,p2", layout)
        assert rule.out_ports == ("p1", "p2")

    @pytest.mark.parametrize(
        "bad",
        [
            "no-arrow-here",
            "dst_ip=10.0.0.0/8->p1",  # missing BOX:
            "b1:dst_ip=10.0.0.0->p1",  # missing /PLEN
            "b1:nope=10.0.0.0/8->p1",  # unknown field
            "b1:dst_ip=10.0.0.0/40->p1",  # prefix too long
            "b1:dst_ip=10.0.0.0/8->",  # empty action
            "b1:dst_ip=10.0.0.0/8->p1@zzz",  # bad priority
        ],
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_rule_spec(bad, toy_network().layout)


class TestDiffIdentity:
    @settings(deadline=None, max_examples=10)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_diff_of_identical_generations_is_empty(self, seed):
        """diff(G, G) == empty set, for arbitrary generated planes."""
        network = random_network(boxes=4, extra_links=2, prefixes=6, seed=seed)
        classifier = APClassifier.build(network)
        ingress = sorted(network.boxes)[0]
        report = diff_generations(classifier, classifier, ingress)
        assert report.is_empty
        assert report.changed_volume == 0
        assert report.changed_share() == 0.0

    def test_identity_across_artifact_reload(self, tmp_path):
        """A generation diffed against its own reloaded artifact: empty."""
        classifier = APClassifier.build(internet2_like(prefixes_per_router=2))
        path = tmp_path / "gen.apc"
        persist.save(classifier, path)
        reloaded = persist.load(path)
        report = diff_generations(classifier, reloaded, "SEAT")
        assert report.cross_manager
        assert report.is_empty

    def test_snapshot_of_a_tree_with_dead_labels_loads(self, tmp_path):
        """Tombstone maintenance leaves a dead label in the live tree;
        its classifier half must still load and diff."""
        classifier = APClassifier.build(toy_network())
        path = tmp_path / "gen.apc"
        persist.save(classifier, path)
        drop = ForwardingRule(
            Match.prefix("dst_ip", parse_ipv4("10.2.0.0"), 16), (), 99
        )
        classifier.insert_rule("b1", drop)
        assert classifier.maintenance == "tombstone"
        assert any(
            not classifier.universe.has_predicate(node.pid)
            for node in classifier.tree._walk()
            if not node.is_leaf
        )
        live = classifier_from_bytes(classifier_bytes(classifier))
        saved = persist.load(path)
        assert diff_generations(live, saved, "b1").changed_volume == 1 << 16
        rule = parse_rule_spec(
            "b1:dst_ip=10.3.0.0/16->drop@98", classifier.dataplane.layout
        )
        answer = what_if(classifier, "b1", add=[rule])
        assert answer.applied == ["+b1:dst_ip=10.3.0.0/16->drop@98"]
        classifier.remove_rule("b1", drop)
        live = classifier_from_bytes(classifier_bytes(classifier))
        assert diff_generations(live, saved, "b1").is_empty

    def test_layout_mismatch_rejected(self):
        a = APClassifier.build(toy_network())
        b = APClassifier.build(small_network())
        with pytest.raises(ValueError, match="header layouts"):
            diff_generations(a, b, "b1")


class TestBruteForce:
    """Exactness on a fully enumerable universe (64 headers)."""

    def test_volumes_match_enumeration(self):
        before = APClassifier.build(small_network())
        after = APClassifier.build(small_network(detour=True))
        report = diff_generations(before, after, "a")
        assert not report.is_empty

        changed = set()
        for header in range(64):
            b = before.query(header, "a")
            a = after.query(header, "a")
            if diff_behaviors(b, a):
                changed.add(header)
        # The detour moves exactly the /3 at 0b010000: 8 headers.
        assert len(changed) == 8
        assert report.changed_volume == len(changed)
        assert report.total_volume == 64

        # Every changed header lies in exactly one reported region, and
        # no unchanged header lies in any (regions are a partition of
        # the changed set).
        for header in range(64):
            containing = [
                entry
                for entry in report.entries
                if entry.region.evaluate(header)
            ]
            assert len(containing) == (1 if header in changed else 0)

        # Witnesses really are changed headers from their own region.
        for entry in report.entries:
            assert entry.region.evaluate(entry.witness)
            assert entry.witness in changed

    def test_volume_sum_is_changed_volume(self):
        before = APClassifier.build(small_network())
        after = APClassifier.build(small_network(detour=True))
        report = diff_generations(
            before, after, "a", rng=random.Random(7)
        )
        assert sum(e.volume for e in report.entries) == report.changed_volume

    def test_internet2_churn_matches_reclassification(self, tmp_path):
        """A 16-update churn burst: diff vs brute-force sampled headers."""
        network = internet2_like(prefixes_per_router=2)
        before = APClassifier.build(network)
        path = tmp_path / "before.apc"
        persist.save(before, path)

        after = persist.load(path)
        after.set_maintenance("incremental")
        rng = random.Random(0)
        applied = 0
        for update in rule_update_stream(
            network, 16, rng, insert_fraction=1.0
        ):
            if update.kind == "insert":
                after.insert_rule(update.box, update.rule)
            else:
                after.remove_rule(update.box, update.rule)
            applied += 1
        assert applied == 16

        report = diff_generations(before, after, "SEAT")
        assert not report.is_empty
        assert 0 < report.changed_volume < report.total_volume

        # Sampled brute force: each header's membership in the changed
        # region set must agree with behavior reclassification.
        sample_rng = random.Random(3)
        headers = [
            sample_rng.getrandbits(report.num_vars) for _ in range(128)
        ]
        for entry in report.entries:
            headers.append(entry.witness)
        for header in headers:
            behavior_changed = bool(
                diff_behaviors(
                    before.query(header, "SEAT"), after.query(header, "SEAT")
                )
            )
            in_regions = sum(
                1 for e in report.entries if e.region.evaluate(header)
            )
            assert in_regions == (1 if behavior_changed else 0)


class TestWhatIfShadow:
    def test_live_classifier_untouched(self):
        live = APClassifier.build(toy_network())
        baseline_json = persist.classifier_to_json(live)
        baseline_atoms = live.classify_batch(range(0, 1 << 16, 997))
        baseline_version = live.tree.version

        report = what_if(
            live,
            "b1",
            add=[parse_rule_spec(
                "b1:dst_ip=10.2.0.0/16->drop@99", live.dataplane.layout
            )],
        )
        assert not report.diff.is_empty
        # 10.2/16 delivered before, dropped after: exactly 2^16 headers.
        assert report.diff.changed_volume == 1 << 16

        # Bit-identical live state: snapshot text, answers, and version.
        assert persist.classifier_to_json(live) == baseline_json
        assert live.classify_batch(range(0, 1 << 16, 997)) == baseline_atoms
        assert live.tree.version == baseline_version

    def test_live_manager_gains_no_nodes(self):
        """The sweep builds in the shadow's manager: BDD managers never
        free a node, so one built in the live manager stays for good."""
        live = APClassifier.build(toy_network())
        nodes = len(live.dataplane.manager)
        report = what_if(
            live,
            "b1",
            add=[parse_rule_spec(
                "b1:dst_ip=10.2.0.0/16->drop@99", live.dataplane.layout
            )],
        )
        assert report.diff.cross_manager
        assert report.diff.changed_volume == 1 << 16
        assert len(live.dataplane.manager) == nodes
        for entry in report.diff.entries:
            assert entry.region.evaluate(entry.witness)

    def test_fork_shadow_is_isolated(self):
        live = APClassifier.build(toy_network())
        shadow = fork_shadow(live)
        assert shadow.dataplane.manager is not live.dataplane.manager
        before_json = persist.classifier_to_json(live)
        shadow.insert_rule(
            "b1",
            ForwardingRule(
                Match.prefix("dst_ip", parse_ipv4("10.9.0.0"), 16),
                (),
                priority=16,
            ),
        )
        assert persist.classifier_to_json(live) == before_json

    def test_fork_leaves_a_patched_program_alone(self):
        """Forking encodes the classifier half only: a live, patched
        compiled program is neither recompiled nor compacted, the live
        manager gains no node, and the shadow comes up uncompiled."""
        from repro.obs import Recorder

        recorder = Recorder()
        live = APClassifier.build(internet2_like(), maintenance="incremental")
        live.set_recorder(recorder)
        live.compile()
        live.insert_rule(
            "SEAT",
            ForwardingRule(
                Match.prefix("dst_ip", parse_ipv4("10.1.0.0"), 24),
                ("to_SALT",),
                priority=24,
            ),
        )
        assert live.compiled_fresh and live.compiled.patched
        program = live.compiled
        compiles = recorder.updates.compiles
        nodes = len(live.dataplane.manager)

        rule = parse_rule_spec(
            "SEAT:dst_ip=10.2.0.0/16->drop@99", live.dataplane.layout
        )
        assert not what_if(live, "SEAT", add=[rule]).diff.is_empty
        shadow = fork_shadow(live)
        persist.classifier_to_json(live)

        assert shadow.compiled is None
        assert live.compiled is program
        assert live.compiled.patched
        assert recorder.updates.compiles == compiles
        assert len(live.dataplane.manager) == nodes

    def test_what_if_requires_rules(self):
        live = APClassifier.build(toy_network())
        with pytest.raises(ValueError, match="at least one rule"):
            what_if(live, "b1")

    def test_remove_then_report_applied(self):
        live = APClassifier.build(toy_network())
        spec = "b1:dst_ip=10.2.0.0/16->drop@99"
        box, rule = parse_rule_spec(spec, live.dataplane.layout)
        report = what_if(live, "b1", add=[(box, rule)])
        assert report.applied == [f"+{spec}"]
        payload = report.to_json()
        assert payload["applied"] == [f"+{spec}"]
        assert payload["shadow_build_s"] >= 0.0
        # Strict JSON: must serialize without NaN/Infinity.
        json.dumps(payload, allow_nan=False)


class TestDualArtifactIsolation:
    """Two loaded artifacts never share state (regression for the
    dual-``load_artifact`` isolation audit)."""

    def test_loads_have_independent_managers(self, tmp_path):
        classifier = APClassifier.build(internet2_like(prefixes_per_router=2))
        path_a = tmp_path / "a.apc"
        path_b = tmp_path / "b.apc"
        persist.save(classifier, path_a)
        persist.save(classifier, path_b)

        gen_a = persist.load(path_a)
        gen_b = persist.load(path_b)
        assert gen_a.dataplane.manager is not gen_b.dataplane.manager
        assert gen_a.tree is not gen_b.tree

        # Mutating one load must not leak into the other.
        b_json = persist.classifier_to_json(gen_b)
        gen_a.set_maintenance("incremental")
        gen_a.insert_rule(
            "SEAT",
            ForwardingRule(
                Match.prefix("dst_ip", parse_ipv4("10.1.0.0"), 24),
                ("to_SALT",),
                priority=24,
            ),
        )
        assert persist.classifier_to_json(gen_b) == b_json

        # And a cross-manager diff between the two loads stays exact.
        report = diff_generations(gen_b, gen_a, "SEAT")
        assert report.cross_manager
        assert not report.is_empty
        for entry in report.entries:
            assert entry.region.evaluate(entry.witness)


class TestServeDiff:
    def test_service_diff_and_what_if(self, tmp_path):
        classifier = APClassifier.build(toy_network())
        path = tmp_path / "gen.apc"
        persist.save(classifier, path)

        async def scenario():
            async with QueryService(classifier, max_delay_s=0) as service:
                same = await service.diff_generation(str(path), "b1")
                answer = await service.what_if(
                    "b1", add=["b1:dst_ip=10.2.0.0/16->drop@99"]
                )
                # Live serving still answers mid-flight.
                atom = await service.classify(parse_ipv4("10.2.0.1"))
                return same, answer, atom

        same, answer, atom = run(scenario())
        assert same["changed_classes"] == 0
        assert same["changed_volume"] == 0
        assert answer["changed_volume"] == 1 << 16
        assert answer["applied"] == ["+b1:dst_ip=10.2.0.0/16->drop@99"]
        assert atom == classifier.classify(parse_ipv4("10.2.0.1"))
        # The served fork starts from the snapshot bytes; the answer is
        # the library call's.
        library = what_if(
            classifier,
            "b1",
            add=[parse_rule_spec(
                "b1:dst_ip=10.2.0.0/16->drop@99", classifier.dataplane.layout
            )],
        )
        assert untimed(answer) == untimed(library.to_json())
        assert answer["transfer_s"] == 0.0 and answer["cross_manager"]

    def test_service_diff_sees_service_updates(self, tmp_path):
        classifier = APClassifier.build(toy_network())
        path = tmp_path / "gen.apc"
        persist.save(classifier, path)
        drop = ForwardingRule(
            Match.prefix("dst_ip", parse_ipv4("10.2.0.0"), 16), (), 99
        )

        async def scenario():
            async with QueryService(classifier, max_delay_s=0) as service:
                before = await service.diff_generation(str(path), "b1")
                await service.insert_rule("b1", drop)
                after = await service.diff_generation(str(path), "b1")
                # Out of band: only the generation stamp can notice.
                service.classifier.remove_rule("b1", drop)
                reverted = await service.diff_generation(str(path), "b1")
                return before, after, reverted

        before, after, reverted = run(scenario())
        assert before["changed_volume"] == 0
        # The cached live snapshot was retired with the generation.
        assert after["changed_volume"] == 1 << 16
        assert reverted["changed_volume"] == 0

    def test_service_what_if_sees_service_updates(self, tmp_path):
        """What-if answers, like diffs, start from the live generation:
        the service's incremental update patches the program in place
        and retires the cached snapshot."""
        classifier = APClassifier.build(toy_network())
        path = tmp_path / "gen.apc"
        persist.save(classifier, path)
        drop = ForwardingRule(
            Match.prefix("dst_ip", parse_ipv4("10.2.0.0"), 16), (), 99
        )

        async def scenario():
            async with QueryService(classifier, max_delay_s=0) as service:
                before = await service.what_if(
                    "b1", add=["b1:dst_ip=10.2.0.0/16->drop@98"]
                )
                await service.insert_rule("b1", drop)
                assert classifier.compiled_fresh
                assert classifier.compiled.patched
                after = await service.diff_generation(str(path), "b1")
                answer = await service.what_if(
                    "b1", add=["b1:dst_ip=10.3.0.0/16->drop@98"]
                )
                # Out of band: only the generation stamp can notice.
                service.classifier.remove_rule("b1", drop)
                reverted = await service.diff_generation(str(path), "b1")
                return before, after, answer, reverted

        before, after, answer, reverted = run(scenario())
        # Before the update the candidate drop changed 10.2/16; after
        # it, that region already drops and 10.3/16 is what changes.
        assert before["changed_volume"] == 1 << 16
        assert after["changed_volume"] == 1 << 16
        assert answer["applied"] == ["+b1:dst_ip=10.3.0.0/16->drop@98"]
        assert reverted["changed_volume"] == 0

    def test_service_what_if_sees_a_shadowed_rule(self):
        """An update that changes no predicate still changes the rule
        tables a what-if forks from: the served answer is the library
        call's, not one from the snapshot taken before the update."""
        classifier = APClassifier.build(toy_network())
        port = classifier.dataplane.network.box("b1").table.out_ports()[0]
        drop = ForwardingRule(
            Match.prefix("dst_ip", parse_ipv4("10.2.0.0"), 24), (), 24
        )
        shadowed = ForwardingRule(
            Match.prefix("dst_ip", parse_ipv4("10.2.0.0"), 25), (port,), 23
        )

        async def scenario():
            async with QueryService(classifier, max_delay_s=0) as service:
                await service.insert_rule("b1", drop)
                await service.what_if("b1", remove=[("b1", drop)])
                assert await service.insert_rule("b1", shadowed) == []
                return await service.what_if("b1", remove=[("b1", drop)])

        answer = run(scenario())
        library = what_if(classifier, "b1", remove=[("b1", drop)])
        assert answer["changed_classes"] == 2
        assert untimed(answer) == untimed(library.to_json())

    def test_service_what_if_decodes_the_live_snapshot_once(self, monkeypatch):
        """What-ifs at one generation share one decoded live replica; an
        update retires it with the snapshot.  Every answer is still the
        library call's."""
        from repro.serve import service as service_module

        live_decodes = []
        decode = service_module.classifier_from_bytes

        def spy(blob):
            live_decodes.append(len(blob))
            return decode(blob)

        monkeypatch.setattr(service_module, "classifier_from_bytes", spy)
        classifier = APClassifier.build(toy_network())
        layout = classifier.dataplane.layout
        specs = [
            "b1:dst_ip=10.2.0.0/16->drop@99",
            "b1:dst_ip=10.1.0.0/16->drop@99",
            "b1:dst_ip=10.3.0.0/16->drop@98",
        ]
        drop = ForwardingRule(
            Match.prefix("dst_ip", parse_ipv4("10.2.0.0"), 16), (), 97
        )
        expected = []

        def library(spec):
            rule = parse_rule_spec(spec, layout)
            expected.append(untimed(what_if(classifier, "b1", add=[rule]).to_json()))

        async def scenario():
            async with QueryService(classifier, max_delay_s=0) as service:
                answers = []
                for spec in specs[:2]:
                    answers.append(await service.what_if("b1", add=[spec]))
                    library(spec)
                decoded_at_one_generation = len(live_decodes)
                await service.insert_rule("b1", drop)
                answers.append(await service.what_if("b1", add=[specs[2]]))
                library(specs[2])
                return answers, decoded_at_one_generation

        answers, decoded_at_one_generation = run(scenario())
        assert decoded_at_one_generation == 1
        assert len(live_decodes) == 2
        assert [untimed(answer) for answer in answers] == expected

    def test_concurrent_what_ifs_share_one_replica(self, monkeypatch):
        """More concurrent what-ifs than cores, with a short switch
        interval: the replica is decoded once, and every answer is the
        library call's for its own rule."""
        import sys

        from repro.serve import service as service_module

        live_decodes = []
        decode = service_module.classifier_from_bytes

        def spy(blob):
            live_decodes.append(len(blob))
            return decode(blob)

        monkeypatch.setattr(service_module, "classifier_from_bytes", spy)
        classifier = APClassifier.build(toy_network())
        layout = classifier.dataplane.layout
        specs = [f"b1:dst_ip=10.{octet}.0.0/16->drop@99" for octet in range(8)]
        expected = [
            untimed(what_if(
                classifier, "b1", add=[parse_rule_spec(spec, layout)]
            ).to_json())
            for spec in specs
        ]

        async def scenario():
            async with QueryService(classifier, max_delay_s=0) as service:
                return await asyncio.wait_for(
                    asyncio.gather(*(
                        service.what_if("b1", add=[spec]) for spec in specs
                    )),
                    timeout=120,
                )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            answers = run(scenario())
        finally:
            sys.setswitchinterval(interval)
        assert len(live_decodes) == 1
        assert [untimed(answer) for answer in answers] == expected

    def test_json_line_ops(self, tmp_path):
        classifier = APClassifier.build(toy_network())
        path = tmp_path / "gen.apc"
        persist.save(classifier, path)

        async def scenario():
            async with QueryService(classifier, max_delay_s=0) as service:
                server = await start_tcp_server(service)
                port = server.sockets[0].getsockname()[1]
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )

                async def ask(payload):
                    writer.write((json.dumps(payload) + "\n").encode())
                    await writer.drain()
                    return json.loads(await reader.readline())

                responses = {
                    "diff": await ask(
                        {
                            "op": "diff",
                            "artifact": str(path),
                            "ingress": "b1",
                        }
                    ),
                    "whatif": await ask(
                        {
                            "op": "whatif",
                            "ingress": "b1",
                            "add": ["b1:dst_ip=10.2.0.0/16->drop@99"],
                        }
                    ),
                    "diff_no_artifact": await ask(
                        {"op": "diff", "ingress": "b1"}
                    ),
                    "whatif_no_rules": await ask(
                        {"op": "whatif", "ingress": "b1"}
                    ),
                }
                writer.close()
                await writer.wait_closed()
                server.close()
                await server.wait_closed()
                return responses

        responses = run(scenario())
        assert responses["diff"]["ok"] is True
        assert responses["diff"]["diff"]["changed_classes"] == 0
        whatif = responses["whatif"]["whatif"]
        assert responses["whatif"]["ok"] is True
        assert whatif["changed_volume"] == 1 << 16
        assert responses["diff_no_artifact"]["ok"] is False
        assert responses["whatif_no_rules"]["ok"] is False

    def test_framed_ops(self, tmp_path):
        classifier = APClassifier.build(toy_network())
        path = tmp_path / "gen.apc"
        persist.save(classifier, path)

        async def scenario():
            async with QueryService(classifier, max_delay_s=0) as service:
                server = await start_tcp_server(service)
                port = server.sockets[0].getsockname()[1]
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )

                async def ask(ftype, payload):
                    writer.write(
                        proto.pack_frame(
                            ftype, json.dumps(payload).encode()
                        )
                    )
                    await writer.drain()
                    return await proto.read_frame(reader)

                diff_type, diff_payload = await ask(
                    proto.DIFF, {"artifact": str(path), "ingress": "b1"}
                )
                whatif_type, whatif_payload = await ask(
                    proto.WHATIF,
                    {
                        "ingress": "b1",
                        "add": ["b1:dst_ip=10.2.0.0/16->drop@99"],
                    },
                )
                writer.close()
                await writer.wait_closed()
                server.close()
                await server.wait_closed()
                return (
                    diff_type,
                    json.loads(diff_payload),
                    whatif_type,
                    json.loads(whatif_payload),
                )

        diff_type, diff_report, whatif_type, whatif_report = run(scenario())
        assert diff_type == proto.DIFF_RESULT
        assert diff_report["changed_classes"] == 0
        assert whatif_type == proto.WHATIF_RESULT
        assert whatif_report["changed_volume"] == 1 << 16

    def test_diff_under_concurrent_load_is_consistent(self):
        """A what-if racing live classify traffic never perturbs answers."""
        classifier = APClassifier.build(toy_network())
        headers = [parse_ipv4("10.1.0.1"), parse_ipv4("10.2.0.1")]
        expected = classifier.classify_batch(headers)

        async def scenario():
            async with QueryService(classifier, max_delay_s=0) as service:
                whatif_task = asyncio.create_task(
                    service.what_if(
                        "b1", add=["b1:dst_ip=10.2.0.0/16->drop@99"]
                    )
                )
                answers = []
                for _ in range(20):
                    answers.append(
                        await asyncio.gather(
                            *(service.classify(h) for h in headers)
                        )
                    )
                report = await whatif_task
                return answers, report

        answers, report = run(scenario())
        assert all(list(batch) == expected for batch in answers)
        assert report["changed_volume"] == 1 << 16


# ----------------------------------------------------------------------
# The sweep against the peel-everything reference
# ----------------------------------------------------------------------

TIMINGS = ("elapsed_s", "sat_count_s", "transfer_s", "shadow_build_s", "apply_s")


def untimed(payload: dict) -> str:
    """A report's JSON text without its wall-clock fields."""
    return json.dumps(
        {key: value for key, value in payload.items() if key not in TIMINGS}
    )


def reference_diff(before, after, ingress, rng=None, manager=None):
    """The sweep before identity pairing, kept as the oracle.

    Both sides' atoms are moved into ``manager`` (the before one by
    default), every after-atom is peeled through the before AP tree with
    ``&`` and ``& ~``, and every pair walks stage 2.
    """
    manager = manager or before.dataplane.manager

    def atoms_in(classifier):
        atoms = sorted(classifier.universe.atoms().items())
        if classifier.dataplane.manager is manager:
            return atoms
        image = dump_image(
            classifier.dataplane.manager, [fn.node for _, fn in atoms]
        )
        nodes = load_image(manager, image)
        return [
            (atom_id, Function(manager, node))
            for (atom_id, _), node in zip(atoms, nodes)
        ]

    before_atoms = atoms_in(before)
    after_atoms = atoms_in(after)
    before_fns = dict(before_atoms)
    entries = []
    pairs = 0
    for after_id, after_fn in after_atoms:
        after_behavior = after.behavior_of_atom(after_id, ingress)
        remaining = after_fn
        while not remaining.is_false:
            witness = remaining.first_sat()
            before_id = before.classify(witness)
            overlap = remaining & before_fns[before_id]
            remaining = remaining & ~before_fns[before_id]
            pairs += 1
            before_behavior = before.behavior_of_atom(before_id, ingress)
            if not diff_behaviors(before_behavior, after_behavior):
                continue
            volume = overlap.sat_count()
            entries.append(
                ChangedClass(
                    before_atom=before_id,
                    after_atom=after_id,
                    region=overlap,
                    volume=volume,
                    witness=(
                        overlap.random_sat(rng) if rng is not None else witness
                    ),
                    before=before_behavior,
                    after=after_behavior,
                    diverges_at=first_divergence(
                        before_behavior, after_behavior
                    ),
                )
            )
    entries.sort(key=lambda entry: (-entry.volume, entry.before_atom))
    return GenerationDiff(
        ingress=ingress,
        num_vars=manager.num_vars,
        total_volume=1 << manager.num_vars,
        changed_volume=sum(entry.volume for entry in entries),
        entries=entries,
        atoms_before=len(before_atoms),
        atoms_after=len(after_atoms),
        pairs_examined=pairs,
        cross_manager=before.dataplane.manager is not after.dataplane.manager,
        elapsed_s=0.0,
        sat_count_s=0.0,
        transfer_s=0.0,
        layout=before.dataplane.layout,
    )


def reference_what_if(live, ingress, add=(), remove=(), rng=None):
    """:func:`what_if` on the reference sweep, live atoms moved in."""
    shadow = fork_shadow(live)
    applied = []
    for box, rule in add:
        shadow.insert_rule(box, rule)
        applied.append(f"+{format_rule_spec(box, rule, live.dataplane.layout)}")
    for box, rule in remove:
        shadow.remove_rule(box, rule)
        applied.append(f"-{format_rule_spec(box, rule, live.dataplane.layout)}")
    report = reference_diff(
        live, shadow, ingress, rng, manager=shadow.dataplane.manager
    )
    return report, applied


def assert_what_if_matches_reference(live, ingress, add=(), remove=()):
    """Fast and reference what-if agree, with and without a witness rng."""
    for seed in (None, 5):
        fast = what_if(
            live, ingress, add=add, remove=remove,
            rng=None if seed is None else random.Random(seed),
        )
        slow, applied = reference_what_if(
            live, ingress, add, remove,
            rng=None if seed is None else random.Random(seed),
        )
        assert fast.applied == applied
        assert fast.diff.transfer_s == 0.0
        assert untimed(fast.diff.to_json()) == untimed(slow.to_json())
    return fast


def base_rules(network, rng, count):
    """``count`` of the network's own rules, each from a random box."""
    boxes = sorted(
        name for name, box in network.boxes.items() if len(box.table)
    )
    picked = []
    while len(picked) < count:
        box = rng.choice(boxes)
        rule = rng.choice(list(network.box(box).table))
        if (box, rule) not in picked:
            picked.append((box, rule))
    return picked


def flip_network() -> Network:
    """The 6-bit line of :func:`small_network`, split at ``c`` too.

    ``c`` forwards the low half to ``hc_low`` and the high half to
    ``hc_high``, so the two halves stay distinct atoms whatever ``a``
    does with them.
    """
    layout = HeaderLayout([("dst", 6)])
    net = Network(layout, name="flip")
    for name in ("a", "b", "c"):
        net.add_box(name)
    net.link("a", "to_b", "b", "from_a")
    net.link("a", "to_c", "c", "from_a")
    net.attach_host("b", "to_hb", "hb")
    net.attach_host("c", "to_hc_low", "hc_low")
    net.attach_host("c", "to_hc_high", "hc_high")
    net.add_forwarding_rule("a", Match.prefix("dst", 0b000000, 1), "to_b", 1)
    net.add_forwarding_rule("a", Match.prefix("dst", 0b100000, 1), "to_c", 1)
    net.add_forwarding_rule("b", Match.any(), "to_hb", 0)
    net.add_forwarding_rule(
        "c", Match.prefix("dst", 0b000000, 1), "to_hc_low", 1
    )
    net.add_forwarding_rule(
        "c", Match.prefix("dst", 0b100000, 1), "to_hc_high", 1
    )
    return net


class TestSweepMatchesReference:
    """``to_json()`` (timings stripped) equals the peel-everything sweep's."""

    @pytest.mark.parametrize(
        "name", ["acl-heavy", "stanford", "internet2", "ipv6-wan", "clos-ecmp"]
    )
    def test_what_if_on_registry_planes(self, name):
        network = get_scenario(name).network()
        live = APClassifier.build(network)
        rng = random.Random(f"{name}-whatif")
        add = [
            (update.box, update.rule)
            for update in rule_update_stream(
                network, 4, rng, insert_fraction=1.0
            )
        ]
        # Drop what one of the plane's own rules forwards, where the
        # packets enter: some class must change.
        (ingress, rule), *remove = base_rules(network, rng, 3)
        add[0] = ingress, ForwardingRule(rule.match, (), rule.priority + 1)
        assert_what_if_matches_reference(live, ingress, add=add)
        assert_what_if_matches_reference(live, ingress, remove=remove)
        report = assert_what_if_matches_reference(
            live, ingress, add=add, remove=remove
        )
        assert report.diff.cross_manager and not report.diff.is_empty

    def test_cross_manager_diff_of_two_artifacts(self, tmp_path):
        network = get_scenario("stanford").network()
        path = tmp_path / "gen.apc"
        persist.save(APClassifier.build(network), path)
        before = persist.load(path)
        after = persist.load(path)
        after.set_maintenance("incremental")
        rng = random.Random(17)
        for box, rule in base_rules(network, rng, 2):
            after.remove_rule(box, rule)
        for update in rule_update_stream(network, 4, rng, insert_fraction=1.0):
            after.insert_rule(update.box, update.rule)
        ingress = sorted(network.boxes)[0]
        for seed in (None, 3):
            fast = diff_generations(
                before, after, ingress,
                rng=None if seed is None else random.Random(seed),
            )
            slow = reference_diff(
                before, after, ingress,
                rng=None if seed is None else random.Random(seed),
            )
            assert fast.cross_manager and not fast.is_empty
            assert untimed(fast.to_json()) == untimed(slow.to_json())

    def test_whole_flip_keeps_its_node_and_still_changes(self):
        """``a`` moves the low half from ``b`` to ``c`` wholesale: the
        atom keeps its BDD node but leaves one port's ``R`` for another,
        so it is an identity pair that must still be walked."""
        live = APClassifier.build(flip_network())
        flip = ("a", ForwardingRule(Match.prefix("dst", 0, 1), ("to_c",), 2))
        shadow = fork_shadow(live)
        before_nodes = {fn.node for fn in shadow.universe.atoms().values()}
        shadow.insert_rule(*flip)
        after_nodes = {fn.node for fn in shadow.universe.atoms().values()}
        assert after_nodes == before_nodes

        report = assert_what_if_matches_reference(live, "a", add=[flip])
        assert report.diff.changed_volume == 32
        (entry,) = report.diff.entries
        assert entry.after.delivered_hosts() == {"hc_low"}


class TestSweepProportional:
    """Stage-2 walks and BDD operations follow the change, not the plane."""

    @pytest.fixture
    def counters(self, monkeypatch):
        """Counts stage-2 walks and, inside the sweep, BDD applies."""
        counts = {"walks": 0, "applies": [], "sweeps": []}
        sweeping = []
        compute = BehaviorComputer.compute
        top_apply = BDDManager._top_apply
        sweep = diff_module._sweep

        def counted_compute(self, *args, **kwargs):
            counts["walks"] += 1
            return compute(self, *args, **kwargs)

        def counted_apply(self, op, u, v):
            if sweeping:
                counts["applies"].append((u, v))
            return top_apply(self, op, u, v)

        def watched_sweep(*args, **kwargs):
            counts["sweeps"].append(args[:4])  # before, after, both atom lists
            sweeping.append(True)
            try:
                return sweep(*args, **kwargs)
            finally:
                sweeping.clear()

        monkeypatch.setattr(BehaviorComputer, "compute", counted_compute)
        monkeypatch.setattr(BDDManager, "_top_apply", counted_apply)
        monkeypatch.setattr(diff_module, "_sweep", watched_sweep)
        return counts

    @staticmethod
    def slots_of(classifier, atom_id):
        universe = classifier.universe
        return {
            slot
            for slot, predicate in classifier.dataplane.iter_slots()
            if universe.contains(predicate.pid, atom_id)
        }

    def test_what_if_walks_only_what_moved(self, counters):
        network = get_scenario("acl-heavy").network()
        live = APClassifier.build(network)
        add = [
            (update.box, update.rule)
            for update in rule_update_stream(
                network, 4, random.Random(11), insert_fraction=1.0
            )
        ]
        report = what_if(live, sorted(network.boxes)[0], add=add)

        (before, shadow, before_atoms, after_atoms), = counters["sweeps"]
        before_ids = {fn.node: atom_id for atom_id, fn in before_atoms}
        identity = {
            after_id: before_ids[fn.node]
            for after_id, fn in after_atoms
            if fn.node in before_ids
        }
        new_nodes = len(after_atoms) - len(identity)
        moved = sum(
            1
            for after_id, before_id in identity.items()
            if self.slots_of(shadow, after_id) != self.slots_of(before, before_id)
        )
        atoms = len(after_atoms)
        assert new_nodes + moved < atoms // 2
        assert counters["walks"] <= 2 * (new_nodes + moved)
        # Identity pairs build nothing: no apply touches their nodes.
        identity_nodes = set(before_ids) & {fn.node for _, fn in after_atoms}
        assert counters["applies"]
        assert not any(
            u in identity_nodes or v in identity_nodes
            for u, v in counters["applies"]
        )
        assert report.diff.pairs_examined >= atoms

    def test_diff_against_own_reload_pairs_by_identity(self, counters):
        live = APClassifier.build(get_scenario("acl-heavy").network())
        reloaded = classifier_from_bytes(classifier_bytes(live))
        report = diff_generations(live, reloaded, "border")
        assert report.is_empty and report.cross_manager
        assert report.pairs_examined == live.universe.atom_count
        assert counters["applies"] == []
