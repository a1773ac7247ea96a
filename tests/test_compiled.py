"""Compiled flat-array engine: agreement, staleness, and backend behavior.

The compiled artifact must be a drop-in for the interpreted tree -- same
atom id for every header, on every backend -- and must go stale (never
serve pre-update answers) the moment the tree changes under it.
"""

from __future__ import annotations

import random

import pytest

import repro.core.compiled as compiled_mod
from repro.core.atomic import AtomicUniverse
from repro.core.classifier import APClassifier
from repro.core.compiled import (
    NUMPY_BACKEND,
    STDLIB_BACKEND,
    CompiledAPTree,
    FlatBDDSet,
    available_backends,
    default_backend,
)
from repro.core import kernel
from repro.core.construction import build_tree
from repro.datasets import internet2_like, rule_update_stream, uniform_over_atoms
from repro.network.dataplane import LabeledPredicate

BACKENDS = available_backends()


def random_headers(count: int, num_vars: int, seed: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.getrandbits(num_vars) for _ in range(count)]


def fresh_classifier() -> APClassifier:
    return APClassifier.build(internet2_like(prefixes_per_router=2))


# ----------------------------------------------------------------------
# FlatBDDSet: flattened predicate evaluation
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
class TestFlatBDDSet:
    def test_scalar_evaluate_matches_functions(self, toy_dataplane, backend):
        labeled = toy_dataplane.predicates()
        flat = FlatBDDSet.compile(
            toy_dataplane.manager, [lp.fn.node for lp in labeled], backend=backend
        )
        headers = random_headers(80, toy_dataplane.manager.num_vars, seed=3)
        for header in headers:
            for index, lp in enumerate(labeled):
                assert flat.evaluate(index, header) == lp.fn.evaluate(header)

    def test_truth_bits_batch_matches_scalar(self, toy_dataplane, backend):
        labeled = toy_dataplane.predicates()
        flat = FlatBDDSet.compile(
            toy_dataplane.manager, [lp.fn.node for lp in labeled], backend=backend
        )
        headers = random_headers(120, toy_dataplane.manager.num_vars, seed=4)
        batch = flat.truth_bits_batch(headers)
        assert batch == [flat.truth_bits(h) for h in headers]
        # Cross-check the bit layout against direct evaluation: root j
        # sits at bit (k - 1 - j), first root at the top.
        k = len(labeled)
        for header, bits in zip(headers, batch):
            for j, lp in enumerate(labeled):
                assert bool((bits >> (k - 1 - j)) & 1) == lp.fn.evaluate(header)

    def test_first_true_batch_matches_linear_scan(self, toy_universe, backend):
        atoms = toy_universe.atoms()
        atom_ids = list(atoms)
        flat = FlatBDDSet.compile(
            toy_universe.manager,
            [atoms[a].node for a in atom_ids],
            backend=backend,
        )
        headers = random_headers(120, toy_universe.manager.num_vars, seed=5)
        indices = flat.first_true_batch(headers)
        assert [flat.first_true(h) for h in headers] == indices
        for header, index in zip(headers, indices):
            assert atom_ids[index] == toy_universe.classify(header)

    def test_first_true_raises_when_nothing_matches(self, toy_dataplane, backend):
        manager = toy_dataplane.manager
        # A single unsatisfiable-for-some-headers root: var 0 must be 1.
        root = manager.var(0)
        flat = FlatBDDSet.compile(manager, [root], backend=backend)
        no_match = 0  # header with var 0 == 0
        with pytest.raises(ValueError):
            flat.first_true(no_match)
        with pytest.raises(ValueError):
            flat.first_true_batch([1 << manager.var_shifts[0], no_match])

    def test_empty_batch(self, toy_dataplane, backend):
        labeled = toy_dataplane.predicates()
        flat = FlatBDDSet.compile(
            toy_dataplane.manager, [lp.fn.node for lp in labeled], backend=backend
        )
        assert flat.truth_bits_batch([]) == []
        assert flat.first_true_batch([]) == []


# ----------------------------------------------------------------------
# CompiledAPTree: agreement with the interpreted tree
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
class TestCompiledAPTree:
    def test_agrees_on_toy_tree(self, toy_universe, backend):
        tree = build_tree(toy_universe, strategy="oapt").tree
        compiled = CompiledAPTree.compile(tree, backend=backend)
        headers = random_headers(200, toy_universe.manager.num_vars, seed=6)
        expected = [tree.classify(h) for h in headers]
        assert compiled.classify_batch(headers) == expected
        assert [compiled.classify(h) for h in headers] == expected

    def test_agrees_on_internet2_tree(self, internet2_classifier, backend):
        tree = internet2_classifier.tree
        num_vars = internet2_classifier.dataplane.manager.num_vars
        compiled = CompiledAPTree.compile(tree, backend=backend)
        headers = random_headers(300, num_vars, seed=7)
        assert compiled.classify_batch(headers) == tree.classify_many(headers)

    def test_small_batch_uses_scalar_path(self, toy_universe, backend):
        tree = build_tree(toy_universe, strategy="oapt").tree
        compiled = CompiledAPTree.compile(tree, backend=backend)
        headers = random_headers(3, toy_universe.manager.num_vars, seed=8)
        assert compiled.classify_batch(headers) == [tree.classify(h) for h in headers]
        assert compiled.classify_batch([]) == []

    def test_single_atom_tree(self, toy_dataplane, backend):
        # A universe with no predicates has one atom: TRUE; the tree is a
        # bare leaf and the compiled program is just that sink.
        universe = AtomicUniverse.compute(toy_dataplane.manager, [])
        tree = build_tree(universe, strategy="oapt").tree
        compiled = CompiledAPTree.compile(tree, backend=backend)
        headers = random_headers(40, toy_dataplane.manager.num_vars, seed=9)
        (atom_id,) = universe.atom_ids()
        assert compiled.classify_batch(headers) == [atom_id] * len(headers)

    def test_stats_shape(self, toy_universe, backend):
        tree = build_tree(toy_universe, strategy="oapt").tree
        compiled = CompiledAPTree.compile(tree, backend=backend)
        stats = compiled.stats()
        assert stats["backend"] == backend
        assert stats["fused_nodes"] == compiled.node_count
        assert stats["estimated_bytes"] > 0


# ----------------------------------------------------------------------
# The scalar/batch cutover (_MIN_BATCH)
# ----------------------------------------------------------------------

#: Both sides of the cutover, and the empty batch.
CUTOVER_SIZES = (0, 1, 2, 127, 128, 129, 256)


@pytest.fixture(params=["internet2_classifier", "stanford_classifier"])
def plane(request):
    """A 1-word (32-bit) and a 2-word (104-bit) header layout."""
    return request.getfixturevalue(request.param)


def atom_headers(classifier: APClassifier) -> list[int]:
    trace = uniform_over_atoms(
        classifier.universe, max(CUTOVER_SIZES), random.Random(12)
    )
    return list(trace.headers)


class TestBatchCutover:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_classify_batch_matches_scalar(self, plane, backend):
        compiled = CompiledAPTree.compile(plane.tree, backend=backend)
        headers = atom_headers(plane)
        for n in CUTOVER_SIZES:
            batch = headers[:n]
            expected = [compiled.classify(h) for h in batch]
            assert expected == [plane.tree.classify(h) for h in batch]
            assert compiled.classify_batch(batch) == expected, n

    @pytest.mark.skipif(
        not kernel.numpy_available(),
        reason="array paths are numpy-backed (REPRO_DISABLE_NUMPY set)",
    )
    @pytest.mark.parametrize(
        "backend", [b for b in BACKENDS if b != STDLIB_BACKEND]
    )
    def test_classify_batch_array_matches_scalar(self, plane, backend):
        import numpy as np

        compiled = CompiledAPTree.compile(plane.tree, backend=backend)
        num_vars = compiled.num_vars
        headers = atom_headers(plane)
        for n in CUTOVER_SIZES:
            batch = headers[:n]
            expected = [compiled.classify(h) for h in batch]
            # A list, and the packed words: (n,) uint64 on the 1-word
            # plane, (n, 2) on the 2-word one.
            words = kernel.pack_headers(batch, num_vars)
            assert words.ndim == (1 if num_vars <= 64 else 2)
            for given in (batch, words):
                got = compiled.classify_batch_array(given)
                assert got.tolist() == expected, (n, type(given))
            # out= is written in place, and only its first n slots.
            out = np.full(n + 3, -7, dtype=np.int64)
            got = compiled.classify_batch_array(words, out=out[:n])
            assert n == 0 or np.shares_memory(got, out)
            assert out.tolist() == expected + [-7] * 3, n


# ----------------------------------------------------------------------
# Backend selection
# ----------------------------------------------------------------------


class TestBackends:
    def test_default_backend_is_available(self):
        assert default_backend() in BACKENDS
        assert STDLIB_BACKEND in BACKENDS  # stdlib is always there

    def test_unknown_backend_rejected(self, toy_universe):
        tree = build_tree(toy_universe, strategy="oapt").tree
        with pytest.raises(ValueError):
            CompiledAPTree.compile(tree, backend="cuda")

    def test_numpy_request_without_numpy_rejected(self, toy_universe, monkeypatch):
        # Simulate a numpy-less host: backend resolution lives in
        # repro.core.kernel, the evaluators in repro.core.compiled --
        # both consult their own import.
        import repro.core.kernel as kernel_mod

        monkeypatch.setattr(compiled_mod, "_np", None)
        monkeypatch.setattr(kernel_mod, "_np", None)
        tree = build_tree(toy_universe, strategy="oapt").tree
        with pytest.raises(ValueError):
            CompiledAPTree.compile(tree, backend=NUMPY_BACKEND)
        # The stdlib backend keeps working and stays the default.
        assert compiled_mod.default_backend() == STDLIB_BACKEND
        compiled = CompiledAPTree.compile(tree)
        headers = random_headers(50, toy_universe.manager.num_vars, seed=10)
        assert compiled.classify_batch(headers) == [tree.classify(h) for h in headers]


# ----------------------------------------------------------------------
# Staleness: compiled artifacts must never serve pre-update answers
# ----------------------------------------------------------------------


class TestStaleness:
    def _first_splitting_update(self, clf: APClassifier, rng: random.Random):
        """Apply inserts until one actually changes the tree."""
        before = clf.tree.version
        for update in rule_update_stream(
            clf.dataplane.network, 40, rng, insert_fraction=1.0
        ):
            clf.insert_rule(update.box, update.rule)
            if clf.tree.version != before:
                return
        pytest.fail("no update changed the tree")

    def test_add_predicate_invalidates(self):
        clf = fresh_classifier()
        clf.compile()
        assert clf.compiled_fresh
        self._first_splitting_update(clf, random.Random(31))
        assert not clf.compiled_fresh

        headers = random_headers(150, clf.dataplane.manager.num_vars, seed=11)
        # Stale artifact: queries fall back to the interpreted tree, so
        # every answer reflects the post-update universe.
        for header in headers:
            assert clf.classify(header) == clf.universe.classify(header)
        assert clf.classify_batch(headers) == [
            clf.universe.classify(h) for h in headers
        ]

        clf.compile()
        assert clf.compiled_fresh
        assert clf.classify_batch(headers) == [
            clf.universe.classify(h) for h in headers
        ]

    def test_remove_predicate_invalidates(self):
        clf = fresh_classifier()
        clf.compile()
        pid = max(clf.universe.predicate_ids())
        clf._engine.remove_predicate(pid)
        assert not clf.compiled_fresh
        headers = random_headers(100, clf.dataplane.manager.num_vars, seed=12)
        assert clf.classify_batch(headers) == [
            clf.universe.classify(h) for h in headers
        ]

    def test_direct_universe_update_invalidates(self, toy_universe):
        tree = build_tree(toy_universe, strategy="oapt").tree
        compiled = CompiledAPTree.compile(tree)
        assert compiled.fresh
        atoms = sorted(toy_universe.atom_ids())
        new_fn = toy_universe.atom_fn(atoms[0]) | toy_universe.atom_fn(atoms[-1])
        from repro.core.update import UpdateEngine

        engine = UpdateEngine(toy_universe, tree)
        engine.add_predicate(
            LabeledPredicate(pid=99_999, kind="forward", box="x", port="p", fn=new_fn)
        )
        assert tree.version > compiled.tree_version
        assert not compiled.fresh

    def test_rebuild_drops_artifact(self):
        clf = fresh_classifier()
        clf.compile()
        assert clf.compiled is not None
        clf.rebuild_tree()
        assert clf.compiled is None
        # And recompiling against the new tree works.
        clf.compile()
        assert clf.compiled_fresh

    def test_artifact_not_fresh_for_other_tree(self, toy_universe):
        tree_a = build_tree(toy_universe, strategy="oapt").tree
        tree_b = build_tree(toy_universe, strategy="quick_ordering").tree
        compiled = CompiledAPTree.compile(tree_a)
        assert compiled.is_fresh_for(tree_a)
        assert not compiled.is_fresh_for(tree_b)

    def test_rebuilt_tree_with_coinciding_version_is_stale(self):
        # Regression guard for the identity half of the freshness check:
        # a full rebuild yields a brand-new tree whose *fresh* version
        # counter can coincide with the version stamped at compile time
        # (both start at 0).  Version comparison alone would call the
        # artifact fresh and serve pre-rebuild atom ids.
        clf = fresh_classifier()
        artifact = clf.compile()
        old_tree = clf.tree
        clf.rebuild_tree()
        assert clf.tree is not old_tree
        assert clf.tree.version == artifact.tree_version  # the trap
        assert not artifact.is_fresh_for(clf.tree)
        assert artifact.stale_reason(clf.tree) == "swapped"
        assert artifact.is_fresh_for(old_tree)

    def test_stale_reason_distinguishes_mutation_from_swap(self, toy_universe):
        tree = build_tree(toy_universe, strategy="oapt").tree
        compiled = CompiledAPTree.compile(tree)
        assert compiled.stale_reason(tree) is None
        tree.touch()
        assert compiled.stale_reason(tree) == "version"
        other = build_tree(toy_universe, strategy="oapt").tree
        assert compiled.stale_reason(other) == "swapped"

    def test_classifier_records_fallback_reasons(self):
        from repro.obs import Recorder

        clf = fresh_classifier()
        recorder = Recorder()
        clf.set_recorder(recorder)
        header = 0
        artifact = clf.compile()
        clf.classify(header)  # fresh artifact: no fallback
        assert recorder.updates.stale_fallbacks == 0
        clf.tree.touch()
        clf.classify(header)
        assert recorder.updates.stale_fallback_version == 1
        # Simulate a stale reference surviving a swap (the classifier
        # normally drops it): the identity mismatch must be recorded as
        # "swapped", not "version".
        clf.rebuild_tree()
        clf._compiled = artifact
        clf.classify(header)
        assert recorder.updates.stale_fallback_swapped == 1
        assert recorder.updates.stale_fallbacks == 2


# ----------------------------------------------------------------------
# Baseline batch paths
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
class TestBaselineBatch:
    def test_aplinear_batch_agrees(self, toy_dataplane, toy_universe, backend):
        from repro.baselines import APLinearClassifier

        clf = APLinearClassifier(toy_dataplane, toy_universe)
        headers = random_headers(90, toy_dataplane.manager.num_vars, seed=13)
        uncompiled = clf.classify_batch(headers)
        clf.compile(backend=backend)
        assert clf.classify_batch(headers) == uncompiled
        assert uncompiled == [toy_universe.classify(h) for h in headers]

    def test_pscan_batch_agrees(self, toy_dataplane, backend):
        from repro.baselines import PScanIdentifier

        scan = PScanIdentifier(toy_dataplane)
        headers = random_headers(90, toy_dataplane.manager.num_vars, seed=14)
        uncompiled = scan.verdict_bits_batch(headers)
        scan.compile(backend=backend)
        assert scan.verdict_bits_batch(headers) == uncompiled
        assert uncompiled == [scan.verdict_bits(h) for h in headers]
