"""Binary artifact tests: round-trip fidelity and corruption refusal.

The artifact is the warm-start contract (Section VII-B): whatever it
restores must answer *bit-identically* to the classifier that was saved,
and anything short of a pristine file must raise a typed
:class:`ArtifactError` -- a damaged artifact may refuse to load, but it
must never load and answer differently.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.artifact import (
    MAGIC,
    ArtifactCorrupt,
    ArtifactError,
    ArtifactMismatch,
    ArtifactVersionError,
    artifact_bytes,
    classifier_bytes,
    classifier_from_bytes,
    describe_artifact,
    load_artifact,
    load_artifact_buffer,
    load_serving,
    load_serving_buffer,
    save_artifact,
)
from repro.core.classifier import APClassifier
from repro.core.compiled import available_backends
from repro.datasets import (
    internet2_like,
    random_headers,
    rule_update_stream,
    toy_network,
    uniform_over_atoms,
)
from repro.datasets.registry import derive_seed, get_scenario, list_scenarios
from repro.core.aptree import snapshot_tree


def classify_all(classifier, headers):
    return [classifier.tree.classify(header) for header in headers]


def sample_headers(classifier, count=200, seed=7):
    rng = random.Random(seed)
    return random_headers(classifier.dataplane.layout, count, rng)


def apply_updates(classifier, network, count, seed):
    rng = random.Random(seed)
    for update in rule_update_stream(network, count, rng):
        if update.kind == "insert":
            classifier.insert_rule(update.box, update.rule)
        else:
            classifier.remove_rule(update.box, update.rule)


class TestRoundTrip:
    @pytest.mark.parametrize("backend", available_backends())
    def test_file_round_trip_bit_identical(self, tmp_path, backend):
        original = APClassifier.build(toy_network())
        path = tmp_path / "toy.apc"
        written = save_artifact(original, path, backend=backend)
        assert written == path.stat().st_size
        restored = load_artifact(path, backend=backend)
        headers = sample_headers(original)
        assert classify_all(restored, headers) == classify_all(original, headers)

    def test_internet2_round_trip(self, tmp_path, internet2_classifier):
        path = tmp_path / "i2.apc"
        save_artifact(internet2_classifier, path)
        restored = load_artifact(path, deep_verify=True)
        headers = sample_headers(internet2_classifier)
        assert classify_all(restored, headers) == classify_all(
            internet2_classifier, headers
        )

    def test_mmap_and_copy_loads_agree(self, tmp_path):
        original = APClassifier.build(toy_network())
        path = tmp_path / "toy.apc"
        save_artifact(original, path)
        headers = sample_headers(original)
        mapped = load_artifact(path, use_mmap=True)
        copied = load_artifact(path, use_mmap=False)
        assert classify_all(mapped, headers) == classify_all(copied, headers)

    def test_buffer_round_trip(self):
        original = APClassifier.build(toy_network())
        blob = artifact_bytes(original)
        restored = load_artifact_buffer(blob)
        headers = sample_headers(original)
        assert classify_all(restored, headers) == classify_all(original, headers)

    @pytest.mark.parametrize("backend", available_backends())
    def test_serving_only_load(self, tmp_path, backend):
        original = APClassifier.build(toy_network())
        path = tmp_path / "toy.apc"
        save_artifact(original, path, backend=backend)
        engine = load_serving(path, backend=backend)
        headers = sample_headers(original)
        assert list(engine.classify_batch(headers)) == classify_all(
            original, headers
        )

    def test_serving_buffer_load(self):
        original = APClassifier.build(toy_network())
        engine = load_serving_buffer(artifact_bytes(original))
        headers = sample_headers(original)
        assert list(engine.classify_batch(headers)) == classify_all(
            original, headers
        )

    def test_restored_classifier_absorbs_updates(self, tmp_path):
        network = internet2_like(prefixes_per_router=1)
        original = APClassifier.build(network)
        path = tmp_path / "i2.apc"
        save_artifact(original, path)
        restored = load_artifact(path)
        apply_updates(restored, network, 12, seed=3)
        headers = sample_headers(restored, count=120)
        for header in headers:
            assert restored.tree.classify(header) == restored.universe.classify(
                header
            )

    def test_describe_matches_manifest(self, tmp_path):
        original = APClassifier.build(toy_network())
        path = tmp_path / "toy.apc"
        save_artifact(original, path)
        summary = describe_artifact(path)
        from repro.artifact import CLASSIFIER_KIND

        assert summary["kind"] == CLASSIFIER_KIND
        assert summary["bytes"] == path.stat().st_size
        assert summary["atoms"] == original.universe.atom_count

    def test_describe_lists_only_the_fused_program(self, tmp_path):
        original = APClassifier.build(toy_network())
        path = tmp_path / "toy.apc"
        save_artifact(original, path)
        summary = describe_artifact(path)
        assert summary["payload_version"] == 3
        compiled = [name for name in summary["sections"] if name.startswith("c_")]
        assert compiled == ["c_f_var", "c_f_child", "c_f_atom"]


@pytest.mark.parametrize("name", list_scenarios())
def test_scalar_walk_exact_on_every_engine(name, tmp_path):
    """Every registry scenario on every backend: a fresh compile, the
    same program patched by churn, its compaction at save, and the
    engines of a full and a serving-only load all walk the one fused
    program to ``universe.classify``'s atom, as a plain ``int``.  A
    loaded engine lists its zero-copy arrays on the first scalar call."""
    scenario = get_scenario(name)
    classifier = APClassifier.build(
        scenario.network(), maintenance="incremental"
    )
    rng = random.Random(derive_seed(3, name))
    path = tmp_path / f"{name}.apc"

    def assert_exact(engines):
        universe = classifier.universe
        headers = uniform_over_atoms(universe, 128, rng).headers
        expected = [universe.classify(header) for header in headers]
        for engine in engines:
            answers = [engine.classify(header) for header in headers]
            assert answers == expected, engine
            assert all(type(answer) is int for answer in answers), engine

    for seed, backend in enumerate(available_backends()):
        assert_exact([classifier.compile(backend=backend)])
        apply_updates(classifier, scenario.network(), 8, seed)
        patched = classifier.compiled
        assert classifier.compiled_fresh
        save_artifact(classifier, path)  # compacts a patched program
        loaded = [
            load_artifact(path, backend=backend).compiled,
            load_serving(path, backend=backend),
        ]
        for engine in loaded:
            assert engine._shifts is None, backend
        assert_exact([patched, classifier.compiled, *loaded])
        for engine in loaded:
            assert engine._shifts is not None, backend
    assert classifier._engine.patches > 0


class TestGhostPredicates:
    """Updates tombstone predicates the tree still evaluates; the
    artifact must carry those ghosts and keep answers identical."""

    def test_post_update_round_trip(self, tmp_path):
        network = internet2_like(prefixes_per_router=2)
        classifier = APClassifier.build(network)
        apply_updates(classifier, network, 24, seed=11)
        path = tmp_path / "ghost.apc"
        save_artifact(classifier, path)
        restored = load_artifact(path, deep_verify=True)
        headers = sample_headers(classifier, count=300)
        assert classify_all(restored, headers) == classify_all(
            classifier, headers
        )

    def test_second_generation_round_trip(self, tmp_path):
        """Saving a *restored* classifier (negative ghost pids) works."""
        network = internet2_like(prefixes_per_router=2)
        classifier = APClassifier.build(network)
        apply_updates(classifier, network, 24, seed=11)
        gen1 = tmp_path / "gen1.apc"
        save_artifact(classifier, gen1)
        restored = load_artifact(gen1)
        gen2 = tmp_path / "gen2.apc"
        save_artifact(restored, gen2)
        second = load_artifact(gen2, deep_verify=True)
        headers = sample_headers(classifier, count=300)
        assert classify_all(second, headers) == classify_all(
            classifier, headers
        )


@given(updates=st.integers(min_value=0, max_value=20), seed=st.integers(0, 2**16))
@settings(max_examples=12, deadline=None)
def test_round_trip_property(updates, seed, tmp_path_factory):
    """Any update history must survive save/load bit-identically."""
    network = toy_network()
    classifier = APClassifier.build(network)
    apply_updates(classifier, network, updates, seed)
    path = tmp_path_factory.mktemp("prop") / "prop.apc"
    save_artifact(classifier, path)
    restored = load_artifact(path)
    headers = sample_headers(classifier, count=100, seed=seed)
    assert classify_all(restored, headers) == classify_all(classifier, headers)


def structure(classifier):
    """Atom ids, R sets and tree shape, with predicates named by slot:
    a load re-mints pids in the serialized (sorted) box order."""
    dataplane, universe = classifier.dataplane, classifier.universe

    def slot(pid):
        labeled = dataplane.predicate(pid)
        return labeled.kind, labeled.box, labeled.port

    records = snapshot_tree(classifier.tree, universe)
    return (
        universe.atom_ids(),
        {slot(pid): universe.r(pid) for pid in universe.predicate_ids()},
        [
            (pid if pid < 0 else slot(pid), first, second)
            for pid, first, second in zip(
                records[0::3], records[1::3], records[2::3]
            )
        ],
    )


@pytest.mark.parametrize("name", list_scenarios())
def test_registry_round_trips_exact_and_byte_stable(name):
    """Whole artifact and classifier half, every registry scenario: a
    restored classifier has the same atom ids, R sets, tree shape and
    answers; saving twice and save -> load -> save write the same bytes."""
    scenario = get_scenario(name)
    network = scenario.network()
    original = APClassifier.build(network)
    headers = scenario.trace(original.universe, 500).headers
    blob = artifact_bytes(original)
    half = classifier_bytes(original)
    assert artifact_bytes(original) == blob
    assert classifier_bytes(original) == half
    for first, save, load in (
        (blob, artifact_bytes, load_artifact_buffer),
        (half, classifier_bytes, classifier_from_bytes),
    ):
        restored = load(first)
        assert structure(restored) == structure(original)
        assert classify_all(restored, headers) == classify_all(original, headers)
        # Every generation is byte-identical: the load keeps the saved
        # pids, whatever order the boxes were built in.
        second = save(restored)
        assert save(load(second)) == second
        assert second == first


class TestCorruption:
    """Damage must raise a typed error -- never a wrong answer."""

    @pytest.fixture()
    def blob(self, tmp_path):
        classifier = APClassifier.build(toy_network())
        path = tmp_path / "good.apc"
        save_artifact(classifier, path)
        return path.read_bytes()

    def _expect_refusal(self, tmp_path, corrupted: bytes):
        path = tmp_path / "bad.apc"
        path.write_bytes(corrupted)
        with pytest.raises(ArtifactError):
            load_artifact(path)

    def test_truncation(self, tmp_path, blob):
        for cut in (4, len(blob) // 2, len(blob) - 3):
            self._expect_refusal(tmp_path, blob[:cut])

    def test_every_region_detects_a_flipped_byte(self, tmp_path, blob):
        # One flip in the magic, the header, the manifest, and deep in the
        # section data; CRCs make each of them loud.
        for offset in (2, 12, 40, len(blob) - 8):
            mutated = bytearray(blob)
            mutated[offset] ^= 0xFF
            self._expect_refusal(tmp_path, bytes(mutated))

    def test_flipped_bytes_sweep_never_wrong_answers(self, tmp_path, blob):
        """Flip one byte at many offsets: every load either refuses with a
        typed error or -- if the flip landed in dead padding -- still
        answers exactly like the original."""
        original = load_artifact_buffer(blob)
        headers = sample_headers(original, count=50)
        expected = classify_all(original, headers)
        rng = random.Random(99)
        offsets = rng.sample(range(len(blob)), min(60, len(blob)))
        path = tmp_path / "flip.apc"
        for offset in offsets:
            mutated = bytearray(blob)
            mutated[offset] ^= 0x5A
            path.write_bytes(bytes(mutated))
            try:
                restored = load_artifact(path)
            except ArtifactError:
                continue
            assert classify_all(restored, headers) == expected

    def test_bad_magic(self, tmp_path, blob):
        self._expect_refusal(tmp_path, b"NOTANAPC" + blob[len(MAGIC):])

    def test_wrong_container_version(self, tmp_path, blob):
        mutated = bytearray(blob)
        mutated[len(MAGIC)] = 0xEE  # container version field (u32 LE)
        path = tmp_path / "ver.apc"
        path.write_bytes(bytes(mutated))
        with pytest.raises(ArtifactVersionError):
            load_artifact(path)

    def test_wrong_payload_version(self, tmp_path):
        import json

        from repro.artifact import build_artifact_bytes
        from repro.artifact.codec import _manifest_and_sections

        classifier = APClassifier.build(toy_network())
        manifest, sections = _manifest_and_sections(classifier)
        path = tmp_path / "payload.apc"
        # 1 is the pre-image layout (per-root triples + offsets); 2 also
        # saved the tree-shaped scalar program (seven more ``c_*``).
        for version in (1, 2, 999):
            manifest = dict(manifest, payload_version=version)
            path.write_bytes(build_artifact_bytes(manifest, sections))
            with pytest.raises(ArtifactVersionError):
                load_artifact(path)
        del json

    def test_tampered_image_refused_without_crc(self, tmp_path):
        """The CRC only catches accidents, and only while verification
        is on: a tampered ref or var whose CRC is right (or unchecked)
        must still raise, never load a function that answers differently."""
        from repro.artifact import build_artifact_bytes
        from repro.artifact.codec import _manifest_and_sections

        classifier = APClassifier.build(toy_network())
        manifest, sections = _manifest_and_sections(classifier)
        index = [name for name, _, _ in sections].index("bdd_nodes")
        name, dtype, nodes = sections[index]
        for offset, value in ((-3, 99), (-2, -3), (-1, len(nodes)), (-3, -1)):
            tampered = list(nodes)
            tampered[offset] = value
            sections[index] = (name, dtype, tampered)
            blob = build_artifact_bytes(manifest, sections)
            for verify in (True, False):
                with pytest.raises(ArtifactMismatch, match="BDD image"):
                    load_artifact_buffer(blob, verify=verify)
        sections[index] = (name, dtype, nodes)
        index = [name for name, _, _ in sections].index("bdd_roots")
        name, dtype, roots = sections[index]
        sections[index] = (name, dtype, [-1, *roots[1:]])
        with pytest.raises(ArtifactMismatch, match="BDD image"):
            load_artifact_buffer(
                build_artifact_bytes(manifest, sections), verify=False
            )
        sections[index] = (name, dtype, roots[:-1])
        with pytest.raises(ArtifactMismatch, match="stored BDD roots"):
            load_artifact_buffer(
                build_artifact_bytes(manifest, sections), verify=False
            )

    def test_wrong_kind(self, tmp_path):
        from repro.artifact import build_artifact_bytes
        from repro.artifact.codec import _manifest_and_sections

        classifier = APClassifier.build(toy_network())
        manifest, sections = _manifest_and_sections(classifier)
        manifest = dict(manifest, kind="something-else")
        path = tmp_path / "kind.apc"
        path.write_bytes(build_artifact_bytes(manifest, sections))
        with pytest.raises(ArtifactMismatch):
            load_artifact(path)

    def test_empty_file(self, tmp_path):
        self._expect_refusal(tmp_path, b"")

    def test_errors_are_typed(self, tmp_path, blob):
        """Every corruption error is an ArtifactError subclass, so the
        CLI can catch one type and print one line."""
        assert issubclass(ArtifactCorrupt, ArtifactError)
        assert issubclass(ArtifactVersionError, ArtifactError)
        assert issubclass(ArtifactMismatch, ArtifactError)
        path = tmp_path / "t.apc"
        path.write_bytes(blob[: len(blob) // 3])
        with pytest.raises(ArtifactCorrupt):
            load_artifact(path)
