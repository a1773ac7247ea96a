"""Kernel equivalence and plumbing: every engine, one answer.

The hot-path overhaul (word packing, scratch reuse, the optional C
kernel) must be invisible in the answers: for any universe and any
header batch, ``native``, ``numpy``, and ``stdlib`` classification --
through lists, arrays, or engines restored from a serialized artifact --
agree with the interpreted tree walk and the atomic universe's linear
scan.  The property test drives that across random cube universes; the
unit tests pin the packing layout, scratch behavior, and engine
resolution semantics the property test cannot distinguish.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.artifact import artifact_bytes, load_serving_buffer
from repro.bdd import BDDManager, Function
from repro.core import kernel
from repro.core.atomic import AtomicUniverse
from repro.core.compiled import (
    NATIVE_BACKEND,
    NUMPY_BACKEND,
    STDLIB_BACKEND,
    CompiledAPTree,
    available_backends,
)
from repro.core.classifier import APClassifier
from repro.core.construction import build_tree
from repro.datasets import toy_network
from repro.network.dataplane import LabeledPredicate
from repro.headerspace.fields import HeaderLayout

np = pytest.importorskip("numpy")

NUM_VARS = 7

cube = st.dictionaries(
    st.integers(min_value=0, max_value=NUM_VARS - 1),
    st.booleans(),
    min_size=1,
    max_size=4,
)

universe_spec = st.lists(cube, min_size=1, max_size=6)

header = st.integers(min_value=0, max_value=2**NUM_VARS - 1)

# Small batches take the scalar walk, batches from _MIN_BATCH (128) up
# the batch descents: draw from both sides of the cutover.
headers = st.one_of(
    st.lists(header, min_size=0, max_size=64),
    st.lists(header, min_size=128, max_size=160),
)


def build_universe_tree(spec):
    manager = BDDManager(NUM_VARS)
    predicates = [
        LabeledPredicate(
            pid=pid,
            kind="forward",
            box="sim",
            port="sim",
            fn=Function.cube(manager, literals),
        )
        for pid, literals in enumerate(spec)
    ]
    universe = AtomicUniverse.compute(manager, predicates)
    return universe, build_tree(universe, strategy="oapt").tree


@given(universe_spec, headers)
@settings(max_examples=100, deadline=None)
def test_every_engine_matches_interpreted(spec, batch):
    """native = numpy = stdlib = interpreted = linear scan, all paths."""
    universe, tree = build_universe_tree(spec)

    expected = [tree.classify(header) for header in batch]
    assert expected == [universe.classify(header) for header in batch]

    for backend in available_backends():
        compiled = CompiledAPTree.compile(tree, backend=backend)
        # List in, list out.
        assert compiled.classify_batch(batch) == expected, backend
        if not kernel.numpy_available():
            continue  # REPRO_DISABLE_NUMPY leg: no array paths
        array_batch = np.asarray(batch, dtype=np.uint64)
        # Array in: same answers through the ndarray dispatch.
        assert compiled.classify_batch(array_batch) == expected, backend
        if backend != STDLIB_BACKEND:
            # Array in, array out, plus a caller-owned output buffer.
            got = compiled.classify_batch_array(array_batch)
            assert got.tolist() == expected, backend
            out = np.empty(len(batch), dtype=np.int64)
            compiled.classify_batch_array(array_batch, out=out)
            assert out.tolist() == expected, backend


@given(universe_spec, headers)
@settings(max_examples=25, deadline=None)
def test_serving_only_restored_engines_agree(spec, batch):
    """Engines rebuilt from serialized arrays answer identically too."""
    universe, tree = build_universe_tree(spec)
    expected = [tree.classify(header) for header in batch]
    reference = CompiledAPTree.compile(tree, backend=STDLIB_BACKEND)
    for backend in available_backends():
        restored = CompiledAPTree.from_arrays(
            reference.to_arrays(), backend=backend
        )
        assert restored.classify_batch(batch) == expected, backend


@pytest.mark.parametrize("backend", available_backends())
def test_artifact_restored_engines_agree(backend):
    """The mmap-shaped artifact path serves identical answers per engine."""
    import random

    original = APClassifier.build(toy_network())
    blob = artifact_bytes(original)
    engine = load_serving_buffer(blob, backend=backend)
    rng = random.Random(11)
    width = original.dataplane.layout.total_width
    batch = [rng.getrandbits(width) for _ in range(256)]
    expected = [original.tree.classify(header) for header in batch]
    assert list(engine.classify_batch(batch)) == expected


class TestWideHeaders:
    """num_vars > 64: the multi-word (width 2) packing and descents."""

    WIDE_VARS = 70

    def _tree(self):
        manager = BDDManager(self.WIDE_VARS)
        # Predicates probing both words: low bits, high bits, straddling.
        specs = [
            {0: True, 1: False},
            {64: True, 69: False},
            {60: True, 66: True},
            {5: False, 68: True, 33: True},
        ]
        predicates = [
            LabeledPredicate(
                pid=pid, kind="forward", box="sim", port="sim",
                fn=Function.cube(manager, literals),
            )
            for pid, literals in enumerate(specs)
        ]
        universe = AtomicUniverse.compute(manager, predicates)
        return universe, build_tree(universe, strategy="oapt").tree

    def test_width_two_engines_agree(self):
        import random

        universe, tree = self._tree()
        rng = random.Random(3)
        batch = [rng.getrandbits(self.WIDE_VARS) for _ in range(200)]
        expected = [tree.classify(header) for header in batch]
        assert kernel.words_per_header(self.WIDE_VARS) == 2
        for backend in available_backends():
            compiled = CompiledAPTree.compile(tree, backend=backend)
            assert compiled.classify_batch(batch) == expected, backend

    @pytest.mark.skipif(
        not kernel.numpy_available(),
        reason="packing is numpy-backed (REPRO_DISABLE_NUMPY set)",
    )
    def test_wide_packing_layout(self):
        # Little-endian words: word 0 holds packed bits 0..63.
        packed = kernel.pack_headers([1 << 64 | 3], self.WIDE_VARS)
        assert packed.shape == (1, 2)
        assert packed[0, 0] == 3 and packed[0, 1] == 1


def assert_engine_agrees(compiled, batch, expected):
    """One engine answers ``expected`` through lists, words and ``out=``."""
    backend = compiled.backend
    assert compiled.classify_batch(batch) == expected, backend
    if not kernel.numpy_available():
        return  # REPRO_DISABLE_NUMPY leg: no array paths
    words = kernel.pack_headers(batch, compiled.num_vars)
    assert compiled.classify_batch(words) == expected, backend
    if backend == STDLIB_BACKEND:
        return
    assert compiled.classify_batch_array(words).tolist() == expected, backend
    out = np.empty(len(batch), dtype=np.int64)
    assert compiled.classify_batch_array(words, out=out) is out
    assert out.tolist() == expected, backend


class TestDoubledDescent:
    """The numpy descent's unpacked bits and doubled cursors, at the edges:
    three-word headers, read-only wire buffers, patched programs."""

    THREE_WORD_VARS = 130
    #: Packed-integer bit positions on both sides of each word boundary,
    #: plus the lowest and the top bit; variable ``v`` is bit
    #: ``manager.var_shifts[v]``.
    EDGE_BITS = (0, 63, 64, 127, 128, 129)

    def _three_word_tree(self, var_shifts=None):
        manager = BDDManager(self.THREE_WORD_VARS, var_shifts=var_shifts)
        var = {bit: v for v, bit in enumerate(manager.var_shifts)}
        specs = [
            {var[0]: True},
            {var[63]: True, var[64]: False},
            {var[127]: True, var[128]: True},
            {var[129]: True, var[0]: False},
            {var[64]: True, var[127]: False, var[63]: False},
        ]
        predicates = [
            LabeledPredicate(
                pid=pid, kind="forward", box="sim", port="sim",
                fn=Function.cube(manager, literals),
            )
            for pid, literals in enumerate(specs)
        ]
        universe = AtomicUniverse.compute(manager, predicates)
        return universe, build_tree(universe, strategy="oapt").tree

    def test_three_word_headers_reordered_variables(self):
        """Variables in another order than the packed bits: each
        program node reads the bit its variable maps to."""
        import random

        layout = HeaderLayout([("a", 66), ("b", 64)], var_order=["b", "a"])
        universe, tree = self._three_word_tree(layout.var_shifts)
        rng = random.Random(17)
        batch = [rng.getrandbits(self.THREE_WORD_VARS) for _ in range(300)]
        expected = [universe.classify(header) for header in batch]
        assert expected == [tree.classify(header) for header in batch]
        assert len(set(expected)) == len(universe.atom_ids())
        for backend in available_backends():
            compiled = CompiledAPTree.compile(tree, backend=backend)
            for n in (127, 128, 300):
                assert_engine_agrees(compiled, batch[:n], expected[:n])

    def test_three_word_headers(self):
        import random

        universe, tree = self._three_word_tree()
        assert kernel.words_per_header(self.THREE_WORD_VARS) == 3
        rng = random.Random(17)
        batch = [rng.getrandbits(self.THREE_WORD_VARS) for _ in range(300)]
        expected = [tree.classify(header) for header in batch]
        assert expected == [universe.classify(header) for header in batch]
        assert len(set(expected)) == len(universe.atom_ids())
        for backend in available_backends():
            compiled = CompiledAPTree.compile(tree, backend=backend)
            for n in (127, 128, 300):
                assert_engine_agrees(compiled, batch[:n], expected[:n])

    @pytest.mark.skipif(
        not kernel.numpy_available(),
        reason="wire word views are numpy-backed (REPRO_DISABLE_NUMPY set)",
    )
    @pytest.mark.parametrize(
        "num_vars", [NUM_VARS, TestWideHeaders.WIDE_VARS, THREE_WORD_VARS]
    )
    def test_read_only_wire_words(self, num_vars):
        import random

        from repro.serve import proto

        if num_vars == self.THREE_WORD_VARS:
            _, tree = self._three_word_tree()
        elif num_vars == TestWideHeaders.WIDE_VARS:
            _, tree = TestWideHeaders()._tree()
        else:
            _, tree = build_universe_tree([{0: True}, {1: False, 6: True}])
        width = kernel.words_per_header(num_vars)
        rng = random.Random(num_vars)
        batch = [rng.getrandbits(num_vars) for _ in range(200)]
        expected = [tree.classify(header) for header in batch]
        payload = proto.encode_classify(
            kernel.pack_headers(batch, num_vars), width=width
        )
        words, got_width = proto.decode_classify(payload)
        assert got_width == width and not words.flags.writeable
        for backend in available_backends():
            compiled = CompiledAPTree.compile(tree, backend=backend)
            assert compiled.classify_batch(words) == expected, backend
            if backend != STDLIB_BACKEND:
                got = compiled.classify_batch_array(words)
                assert got.tolist() == expected, backend

    @pytest.mark.parametrize("backend", available_backends())
    def test_patched_programs_refresh_their_tables(self, backend):
        import random

        from repro.core.incremental import IncrementalEngine
        from repro.datasets import internet2_like, rule_update_stream
        from repro.datasets import uniform_over_atoms

        classifier = APClassifier.build(
            internet2_like(prefixes_per_router=4), maintenance="incremental"
        )
        classifier.compile(backend=backend)
        engine = classifier._engine
        assert isinstance(engine, IncrementalEngine)
        rng = random.Random(23)
        patched = {"insert": 0, "remove": 0}
        for update in rule_update_stream(classifier.dataplane.network, 24, rng):
            compiled, patches = classifier.compiled, engine.patches
            if update.kind == "insert":
                classifier.insert_rule(update.box, update.rule)
            else:
                classifier.remove_rule(update.box, update.rule)
            assert classifier.compiled_fresh
            if classifier.compiled is compiled and engine.patches > patches:
                patched[update.kind] += 1
            batch = list(
                uniform_over_atoms(classifier.universe, 160, rng).headers
            )
            expected = [classifier.tree.classify(h) for h in batch]
            assert_engine_agrees(classifier.compiled, batch, expected)
        # Both patch kinds ran in place on the engine that then answered.
        assert patched["insert"] > 0 and patched["remove"] > 0, patched


@pytest.mark.skipif(
    not kernel.numpy_available(),
    reason="packing is numpy-backed (REPRO_DISABLE_NUMPY set)",
)
class TestPackHeaders:
    def test_uint64_array_is_zero_copy(self):
        arr = np.arange(16, dtype=np.uint64)
        packed = kernel.pack_headers(arr, 32)
        assert packed is arr or packed.base is arr

    def test_column_vector_flattens(self):
        arr = np.arange(8, dtype=np.uint64).reshape(-1, 1)
        packed = kernel.pack_headers(arr, 32)
        assert packed.shape == (8,)

    def test_non_uint64_coerces_for_narrow_layouts(self):
        packed = kernel.pack_headers(np.arange(4, dtype=np.int64), 32)
        assert packed.dtype == np.uint64
        assert packed.tolist() == [0, 1, 2, 3]

    def test_list_packs_via_scratch_buffer(self):
        scratch = kernel.KernelScratch()
        packed = kernel.pack_headers([7, 9], 32, scratch)
        assert packed.tolist() == [7, 9]
        # Same backing buffer on the next batch: steady state allocates
        # nothing.
        repacked = kernel.pack_headers([1, 2], 32, scratch)
        assert repacked.base is packed.base

    def test_wrong_shape_is_loud(self):
        with pytest.raises(ValueError, match="shape"):
            kernel.pack_headers(np.zeros((4, 2), dtype=np.uint64), 32)


class TestKernelScratch:
    @pytest.mark.skipif(
        not kernel.numpy_available(),
        reason="scratch buffers are numpy-backed (REPRO_DISABLE_NUMPY set)",
    )
    def test_buffers_grow_and_persist(self):
        scratch = kernel.KernelScratch()
        first = scratch.words(10)
        again = scratch.words(10)
        assert first.base is again.base
        bigger = scratch.words(5000)
        assert bigger.shape == (5000,)

    def test_lease_is_exclusive_and_nonblocking(self):
        scratch = kernel.KernelScratch()
        assert scratch.acquire() is True
        # A contended caller must not block -- it allocates fresh.
        assert scratch.acquire() is False
        scratch.release()
        assert scratch.acquire() is True
        scratch.release()


class TestResolution:
    def test_explicit_unknown_backend_is_loud(self):
        with pytest.raises(ValueError, match="unknown backend"):
            kernel.resolve_backend("fortran")

    def test_explicit_native_demand_fails_without_extension(self, monkeypatch):
        from repro import _native

        monkeypatch.setattr(_native, "_KERNEL", None)
        monkeypatch.setattr(_native, "_TRIED", True)
        with pytest.raises(ValueError, match="native backend requested"):
            kernel.resolve_backend(NATIVE_BACKEND)

    def test_env_preference_degrades_gracefully(self, monkeypatch):
        from repro import _native, config

        monkeypatch.setattr(_native, "_KERNEL", None)
        monkeypatch.setattr(_native, "_TRIED", True)
        monkeypatch.setenv(config.ENV_ENGINE, "native")
        # The preference cannot be met: the ladder degrades to the next
        # rung this process can actually run, no error.
        expected = (
            NUMPY_BACKEND if kernel.numpy_available() else STDLIB_BACKEND
        )
        assert kernel.resolve_backend(None) == expected

    def test_auto_prefers_best_available(self):
        assert kernel.default_backend() == available_backends()[0]


@pytest.mark.skipif(
    not kernel.native_available(), reason="native kernel not built"
)
class TestNativeValidation:
    """The C kernel refuses malformed programs instead of walking them."""

    def _program(self):
        universe, tree = build_universe_tree([{0: True}, {1: False}])
        return CompiledAPTree.compile(tree, backend=NATIVE_BACKEND)

    def test_backward_edge_is_loud(self):
        compiled = self._program()
        child = compiled._program.f_child.copy()
        # Point an internal node's low edge back at itself: a cycle the
        # unchecked descent would spin on forever.
        internal = compiled._num_sinks
        child[2 * internal] = internal
        bad = kernel.Program(
            width=compiled._program.width,
            f_word=compiled._program.f_word,
            f_shift=compiled._program.f_shift,
            f_child=child,
            f_atom=compiled._program.f_atom,
            num_sinks=compiled._program.num_sinks,
            f_root=compiled._program.f_root,
        )
        words = np.zeros(4, dtype=np.uint64)
        out = np.empty(4, dtype=np.int64)
        with pytest.raises(ValueError, match="forward"):
            kernel.descend_native(bad, words, out)

    def test_short_words_buffer_is_loud(self):
        compiled = self._program()
        words = np.zeros(4, dtype=np.uint64)
        out = np.empty(8, dtype=np.int64)  # n = 8 > packed headers
        with pytest.raises(ValueError, match="words buffer"):
            kernel.descend_native(compiled._program, words, out)
