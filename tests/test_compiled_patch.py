"""Append-only compiled patches under incremental churn.

``CompiledAPTree.patch_splits`` / ``patch_merges`` keep one invariant:
for every header the patched program answers the atom the universe
assigns it.  The program need not mirror the tree -- merges leave the
test that used to separate the parts in place, and a split appends one
copy of the predicate's slice per cut atom -- so it grows, and the
incremental engine recompiles it (a compaction, counted as a patch
fallback) once it exceeds ``COMPACT_GROWTH`` times its compiled size.
These tests drive seeded insert/remove streams on four registry
scenarios, on every available engine, and check after each update that
the patched program is fresh, exact (batch and scalar walks), keeps
every non-sink edge forward, and gives every live atom a sink.
"""

from __future__ import annotations

import random

import pytest

from repro import artifact
from repro.bdd.function import Function
from repro.bdd.manager import BDDManager
from repro.core.atomic import AtomicUniverse
from repro.core.classifier import APClassifier
from repro.core.compiled import CompiledAPTree, available_backends
from repro.core.construction import build_tree
from repro.core.incremental import COMPACT_GROWTH
from repro.datasets import rule_update_stream, uniform_over_atoms
from repro.datasets.registry import derive_seed, get_scenario

SCENARIOS = ("stanford", "internet2", "acl-heavy", "clos-ecmp")

#: Updates per scenario and engine; the clos-ecmp and internet2
#: programs double (and are compacted) within this many.
UPDATES = 40

#: Headers classified after every update.
TRACE = 256


def build(name: str, backend: str) -> tuple[APClassifier, object]:
    """An incremental classifier compiled for ``backend``, plus its
    scenario.  Each call builds its own network: updates mutate the one
    a ``Scenario`` caches."""
    scenario = get_scenario(name)
    classifier = APClassifier.build(
        scenario.network(), maintenance="incremental"
    )
    classifier.compile(backend=backend)
    return classifier, scenario


def apply(classifier: APClassifier, update) -> None:
    if update.kind == "insert":
        classifier.insert_rule(update.box, update.rule)
    else:
        classifier.remove_rule(update.box, update.rule)


def assert_program_sound(classifier: APClassifier, rng) -> None:
    """The patched program is fresh and exact, edges point forward, and
    its sinks carry exactly the live atoms (plus free ``-1`` slots)."""
    compiled = classifier.compiled
    assert classifier.compiled_fresh
    headers = list(uniform_over_atoms(classifier.universe, TRACE, rng).headers)
    expected = [classifier.tree.classify(h) for h in headers]
    assert compiled.classify_batch(headers) == expected, compiled.backend
    assert [compiled.classify(h) for h in headers] == expected
    ns = compiled._num_sinks
    f_low, f_high = compiled._f_low, compiled._f_high
    for u in range(ns, compiled.node_count):
        assert f_low[u] < ns or f_low[u] > u, u
        assert f_high[u] < ns or f_high[u] > u, u
    sink_atoms = set(compiled._f_atom) - {-1}
    assert sink_atoms == set(classifier.universe.atom_ids())


@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize("name", SCENARIOS)
def test_patched_program_stays_exact(name, backend):
    classifier, scenario = build(name, backend)
    engine = classifier._engine
    rng = random.Random(derive_seed(7, name))
    stream = rule_update_stream(scenario.network(), UPDATES, rng)
    compactions = 0
    for update in stream:
        before = classifier.compiled
        rebuilds = engine.full_rebuilds
        apply(classifier, update)
        compiled = classifier.compiled
        if compiled is not before and engine.full_rebuilds == rebuilds:
            compactions += 1
        assert compiled.node_count <= COMPACT_GROWTH * compiled.compiled_nodes
        assert_program_sound(classifier, rng)
    assert engine.patch_fallbacks == compactions
    assert engine.patches > 0


def program_arrays(compiled) -> dict:
    return {
        name: value.tolist() if hasattr(value, "tolist") else value
        for name, value in compiled.to_arrays().items()
    }


@pytest.mark.parametrize("name", SCENARIOS)
def test_compacted_program_equals_fresh_compile(name):
    """A compaction is a fresh canonical compile, and that program
    depends on the atom partition only: after any patch sequence it
    equals the compile of a tree built from scratch over the same
    universe, array for array."""
    classifier, scenario = build(name, available_backends()[0])
    engine = classifier._engine
    rng = random.Random(derive_seed(11, name))
    for update in rule_update_stream(scenario.network(), UPDATES, rng):
        fallbacks = engine.patch_fallbacks
        apply(classifier, update)
        if engine.patch_fallbacks == fallbacks:
            continue
        scratch = build_tree(classifier.universe, strategy="random").tree
        assert program_arrays(classifier.compiled) == program_arrays(
            CompiledAPTree.compile(scratch)
        )
    assert classifier.compiled.patched
    engine._note_patch_fallback()
    scratch = build_tree(classifier.universe, strategy="random").tree
    assert program_arrays(classifier.compiled) == program_arrays(
        CompiledAPTree.compile(scratch)
    )


@pytest.mark.parametrize("backend", available_backends())
def test_splits_patched_without_compaction(backend):
    """Split after split on one program, never recompiled: the lone
    root sink moves behind the first slice, the sink region regrows and
    the mirrors outgrow their capacity, and every header still lands on
    its atom."""
    manager = BDDManager(8)
    universe = AtomicUniverse.compute(manager, [])
    tree = build_tree(universe, strategy="oapt").tree
    compiled = CompiledAPTree.compile(tree, backend=backend)
    assert compiled.node_count == 1
    parity = Function.cube(manager, {2: True})
    for var in range(3, 8):
        parity = parity ^ Function.cube(manager, {var: True})
    x0, x0x1 = Function.cube(manager, {0: True}), Function.cube(
        manager, {0: True, 1: True}
    )
    # The third predicate's 13-node slice overflows the mirrors' room
    # while a free sink is still left.
    predicates = [x0, x0x1, x0x1 & parity, ~x0 & parity]
    headers = list(range(256))
    for pid, fn in enumerate(predicates):
        splits = universe.add_predicate(pid, fn, tree)
        tree.apply_splits(pid, fn.node, splits)
        compiled.patch_splits(fn.node, splits)
        expected = [universe.classify(h) for h in headers]
        assert compiled.fresh
        assert compiled.classify_batch(headers) == expected
        assert [compiled.classify(h) for h in headers] == expected
    assert universe.atom_count == 5


def test_small_programs_compact():
    """clos-ecmp's program doubles within the stream: compactions happen,
    and each is counted as exactly one patch fallback."""
    classifier, scenario = build("clos-ecmp", available_backends()[0])
    engine = classifier._engine
    rng = random.Random(derive_seed(7, "clos-ecmp"))
    for update in rule_update_stream(scenario.network(), UPDATES, rng):
        apply(classifier, update)
    assert engine.full_rebuilds == 0
    assert engine.patch_fallbacks >= 1


def test_saved_artifact_carries_no_patch_history(tmp_path):
    """A save after churn equals a save right after a fresh compile."""
    scenario = get_scenario("stanford")
    classifier = APClassifier.build(
        scenario.network(), maintenance="incremental"
    )
    classifier.compile()
    for update in scenario.update_stream(300):
        apply(classifier, update)
    assert classifier.compiled.patched
    churned = tmp_path / "churned.apc"
    artifact.save_artifact(classifier, churned)
    assert not classifier.compiled.patched
    classifier.compile()
    compiled = tmp_path / "compiled.apc"
    artifact.save_artifact(classifier, compiled)
    assert churned.read_bytes() == compiled.read_bytes()
    loaded = artifact.load_serving(churned)
    arrays = loaded.to_arrays()
    atoms = list(arrays["f_atom"])
    assert arrays["num_sinks"] == classifier.universe.atom_count
    assert sorted(atoms) == sorted(classifier.universe.atom_ids())
