"""Scenario-registry tests: lookup contract, seeding, and the foundry.

The registry (:mod:`repro.datasets.registry`) is the one surface every
consumer (CLI, bench fixtures, ``bench_scenarios``) resolves workloads
through, so its contract is pinned here:

* every registered scenario round-trips -- network, layout, canonical
  update stream, JSON description;
* unknown names/params and badly-typed values fail with the exact typed
  error the CLI relays;
* one master seed determines everything: network, trace, and update
  stream replay bit-identically;
* the foundry scenarios do what they claim: the ACL corpus's atom count
  grows with overlap density, and the IPv6 scenario's classifier
  survives an artifact round-trip at 128-bit width.
"""

from __future__ import annotations

import json

import pytest

from repro import persist
from repro.artifact import load_artifact, save_artifact
from repro.core.atomic import AtomicUniverse
from repro.core.classifier import APClassifier
from repro.datasets import (
    ScenarioError,
    derive_seed,
    get_scenario,
    list_scenarios,
)
from repro.network.dataplane import DataPlane

#: Every scenario the ISSUE requires the registry to serve.
EXPECTED = {
    "internet2",
    "stanford",
    "toy",
    "fattree",
    "clos-ecmp",
    "acl-heavy",
    "ipv6-wan",
    "sdn-policy",
}


class TestRegistryRoundTrip:
    def test_catalog_is_complete(self):
        names = list_scenarios()
        assert EXPECTED <= set(names)
        assert len(names) >= 7
        assert names == sorted(names)  # stable listing order

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_every_scenario_round_trips(self, name):
        scenario = get_scenario(name)
        network = scenario.network()
        assert network.stats()["boxes"] > 0
        # The layout the workloads are generated against is the
        # network's own.
        assert scenario.layout is network.layout
        assert scenario.layout.field_names()
        # The canonical churn stream replays against the network it
        # came from: removals only ever touch inserted rules.
        inserted = set()
        for update in scenario.update_stream(12):
            key = (update.box, update.rule)
            if update.kind == "insert":
                inserted.add(key)
            else:
                assert key in inserted
                inserted.discard(key)
        # The description is the `repro scenarios` row: strict JSON,
        # params carrying their bound values and declared types.
        description = scenario.describe()
        json.dumps(description, allow_nan=False)
        assert description["name"] == name
        assert description["seed"] == scenario.seed
        for key, entry in description["params"].items():
            assert entry["value"] == scenario.params[key]
            assert type(entry["value"]).__name__ == entry["type"]

    def test_network_is_cached(self):
        scenario = get_scenario("toy")
        assert scenario.network() is scenario.network()

    def test_param_binding_overrides_default(self):
        scenario = get_scenario("acl-heavy", lists=3, overlap=0.25)
        assert scenario.params["lists"] == 3
        assert scenario.params["overlap"] == 0.25
        # Untouched params keep their defaults.
        assert scenario.params["rules_per_list"] == 10

    def test_string_params_coerce_like_the_cli(self):
        scenario = get_scenario("acl-heavy", lists="3", overlap="0.25")
        assert scenario.params["lists"] == 3
        assert scenario.params["overlap"] == 0.25


class TestErrorContract:
    def test_unknown_scenario_names_the_catalog(self):
        with pytest.raises(ScenarioError) as excinfo:
            get_scenario("internet3")
        message = str(excinfo.value)
        assert "unknown scenario 'internet3'" in message
        assert "internet2" in message  # the catalog is in the message

    def test_unknown_param_names_the_choices(self):
        with pytest.raises(ScenarioError) as excinfo:
            get_scenario("internet2", prefix_count=4)
        message = str(excinfo.value)
        assert "unknown param 'prefix_count'" in message
        assert "prefixes_per_router" in message
        assert "seed" in message  # seed is always accepted

    def test_badly_typed_value_is_rejected(self):
        with pytest.raises(ScenarioError, match="expects int"):
            get_scenario("internet2", prefixes_per_router="four")
        with pytest.raises(ScenarioError, match="expects int"):
            get_scenario("internet2", prefixes_per_router=2.5)
        with pytest.raises(ScenarioError, match="expects int"):
            get_scenario("internet2", prefixes_per_router=True)

    def test_factory_validation_bubbles_up(self):
        # Param values of the right type but outside the factory's
        # domain still fail loudly at network() time.
        with pytest.raises(ValueError):
            get_scenario("acl-heavy", lists=0).network()


class TestSeedDeterminism:
    def test_one_seed_determines_everything(self):
        """Same seed: bit-identical network, trace, and update stream."""
        first = get_scenario("internet2", prefixes_per_router=2, seed=99)
        second = get_scenario("internet2", prefixes_per_router=2, seed=99)

        box = sorted(first.network().boxes)[0]
        rules_a = [r.describe() for r in first.network().box(box).table]
        rules_b = [r.describe() for r in second.network().box(box).table]
        assert rules_a == rules_b

        classifier = APClassifier.build(first.network())
        trace_a = first.trace(classifier.universe, 200)
        trace_b = second.trace(classifier.universe, 200)
        assert trace_a.headers == trace_b.headers
        assert trace_a.atom_ids == trace_b.atom_ids

        stream_a = first.update_stream(40)
        stream_b = second.update_stream(40)
        assert [
            (u.kind, u.box, u.rule.describe()) for u in stream_a
        ] == [(u.kind, u.box, u.rule.describe()) for u in stream_b]

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_two_builds_give_identical_classifier_text(self, name):
        """One way to build, one output: two fresh builds of a scenario
        (own network object, own manager) serialize to the same text."""
        texts = [
            persist.classifier_to_json(
                APClassifier.build(get_scenario(name).network())
            )
            for _ in range(2)
        ]
        assert texts[0] == texts[1]

    def test_different_seeds_differ(self):
        # The acl-heavy forwarding skeleton is fixed; the seed owns the
        # ACL bodies, so different seeds must draw different ACLs.
        def acls(network):
            return [
                (name, port, rule.describe())
                for name in sorted(network.boxes)
                for port, acl in sorted(network.box(name).output_acls.items())
                for rule in acl
            ]

        a = get_scenario("acl-heavy", lists=4, seed=1).network()
        b = get_scenario("acl-heavy", lists=4, seed=2).network()
        assert acls(a) != acls(b)

    def test_purpose_derived_rngs_are_independent(self):
        # Drawing the update stream first must not perturb the trace.
        scenario = get_scenario("internet2", prefixes_per_router=2, seed=5)
        classifier = APClassifier.build(scenario.network())
        before = scenario.trace(classifier.universe, 100).headers
        scenario.update_stream(50)
        assert scenario.trace(classifier.universe, 100).headers == before

    def test_derive_seed_is_stable_and_purpose_split(self):
        assert derive_seed(7, "trace") == derive_seed(7, "trace")
        assert derive_seed(7, "trace") != derive_seed(7, "updates")
        assert derive_seed(7, "trace") != derive_seed(8, "trace")


class TestAclOverlapMonotonicity:
    def test_atom_count_grows_with_overlap_density(self):
        """The overlap knob is the Hazelhurst dial: denser overlap among
        the hot-region rules means more distinct membership vectors,
        hence more atoms, without changing the rule count."""
        counts = {}
        for overlap in (0.0, 0.5, 1.0):
            scenario = get_scenario(
                "acl-heavy",
                lists=4,
                rules_per_list=6,
                overlap=overlap,
                seed=7,
            )
            dataplane = DataPlane(scenario.network())
            universe = AtomicUniverse.compute(
                dataplane.manager, dataplane.predicates()
            )
            counts[overlap] = universe.atom_count
        assert counts[0.0] < counts[0.5] < counts[1.0]


class TestIpv6ArtifactRoundTrip:
    def test_ipv6_scenario_survives_artifact_round_trip(self, tmp_path):
        scenario = get_scenario("ipv6-wan", prefixes_per_router=1, seed=3)
        assert scenario.layout.total_width == 128
        original = APClassifier.build(scenario.network())
        original.compile()

        path = tmp_path / "ipv6_wan.apc"
        save_artifact(original, path)
        restored = load_artifact(path, deep_verify=True)

        headers = scenario.trace(original.universe, 200).headers
        assert [restored.tree.classify(h) for h in headers] == [
            original.tree.classify(h) for h in headers
        ]
