"""Tests for the MDD classifier baseline ([10]-style)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.mdd import MddClassifier
from repro.core.classifier import APClassifier
from repro.core.compiled import CompiledAPTree
from repro.datasets import internet2_like, random_network, toy_network
from repro.datasets.registry import get_scenario


@pytest.fixture(scope="module")
def toy_pair():
    classifier = APClassifier.build(toy_network())
    return classifier, MddClassifier(classifier.universe)


class TestCorrectness:
    def test_agrees_with_linear_scan_exhaustively_small(self):
        from repro.bdd import BDDManager, Function
        from repro.core.atomic import AtomicUniverse
        from repro.network.dataplane import LabeledPredicate

        mgr = BDDManager(6)
        rng = random.Random(3)
        labeled = []
        for pid in range(4):
            fn = Function.false(mgr)
            for point in range(64):
                if rng.random() < 0.4:
                    fn = fn | Function.cube(
                        mgr, {i: bool((point >> (5 - i)) & 1) for i in range(6)}
                    )
            labeled.append(LabeledPredicate(pid, "forward", "b", f"p{pid}", fn))
        universe = AtomicUniverse.compute(mgr, labeled)
        mdd = MddClassifier(universe, chunk_bits=3)
        for header in range(64):
            assert mdd.classify(header) == universe.classify(header)

    def test_agrees_on_toy(self, toy_pair):
        classifier, mdd = toy_pair
        rng = random.Random(1)
        for _ in range(200):
            header = rng.getrandbits(32)
            assert mdd.classify(header) == classifier.universe.classify(header)

    def test_agrees_on_internet2(self, internet2_classifier):
        mdd = MddClassifier(internet2_classifier.universe)
        rng = random.Random(2)
        for _ in range(200):
            header = rng.getrandbits(32)
            assert mdd.classify(header) == internet2_classifier.universe.classify(
                header
            )

    @given(seed=st.integers(min_value=0, max_value=25))
    @settings(max_examples=10, deadline=None)
    def test_agrees_on_random_networks(self, seed):
        network = random_network(boxes=4, prefixes=5, seed=seed)
        classifier = APClassifier.build(network)
        mdd = MddClassifier(classifier.universe)
        rng = random.Random(seed)
        for _ in range(50):
            header = rng.getrandbits(32)
            assert mdd.classify(header) == classifier.universe.classify(header)


class TestStructure:
    def test_chunk_bits_validated(self, toy_pair):
        classifier, _ = toy_pair
        with pytest.raises(ValueError):
            MddClassifier(classifier.universe, chunk_bits=0)

    def test_node_count_reported(self, toy_pair):
        _, mdd = toy_pair
        assert mdd.node_count >= 1
        assert "nodes" in repr(mdd)

    def test_non_byte_chunks(self, toy_pair):
        classifier, _ = toy_pair
        mdd4 = MddClassifier(classifier.universe, chunk_bits=4)
        rng = random.Random(4)
        for _ in range(100):
            header = rng.getrandbits(32)
            assert mdd4.classify(header) == classifier.universe.classify(header)

    def test_lookup_is_constant_small_steps(self, toy_pair):
        """An MDD lookup touches at most ``levels`` nodes -- the speed
        advantage the paper concedes to [10]."""
        _, mdd = toy_pair
        assert mdd.levels == 4  # 32-bit header / 8-bit chunks


class TestCanonicalProgram:
    """The compiled program is the reduced ordered diagram of the atom
    function: a one-bit-chunk MDD over the same atoms has exactly its
    interior nodes."""

    @pytest.mark.parametrize("name", ["internet2", "stanford", "clos-ecmp"])
    def test_one_bit_mdd_matches_compiled_program(self, name):
        classifier = APClassifier.build(get_scenario(name).network())
        compiled = CompiledAPTree.compile(classifier.tree)
        interior = compiled.node_count - compiled.to_arrays()["num_sinks"]
        mdd = MddClassifier(classifier.universe, chunk_bits=1)
        assert mdd.node_count == interior


class TestVariableOrder:
    def test_chunks_read_the_bits_of_their_variables(self):
        """On a destination-first five-tuple plane a chunk is a run of
        variables, not of packed bits: a 3-bit chunk across the dst/src
        boundary reads two separate bit runs, and lookups stay exact."""
        from repro.datasets import uniform_over_atoms

        classifier = APClassifier.build(get_scenario("stanford").network())
        universe = classifier.universe
        mdd = MddClassifier(universe, chunk_bits=3)
        assert len(mdd._reads[10]) == 2  # variables 30, 31 | 32
        trace = uniform_over_atoms(universe, 1000, random.Random(5)).headers
        assert [mdd.classify(h) for h in trace] == [
            universe.classify(h) for h in trace
        ]


class TestTradeoff:
    def test_mdd_lookup_faster_but_build_slower(self, internet2_classifier):
        """The paper's positioning of [10]: faster lookups, costlier and
        static structure."""
        import time

        universe = internet2_classifier.universe
        started = time.perf_counter()
        mdd = MddClassifier(universe)
        mdd_build = time.perf_counter() - started

        from repro.core.construction import build_oapt

        started = time.perf_counter()
        tree = build_oapt(universe)
        tree_build = time.perf_counter() - started

        rng = random.Random(5)
        headers = [rng.getrandbits(32) for _ in range(4000)]
        started = time.perf_counter()
        for header in headers:
            mdd.classify(header)
        mdd_query = time.perf_counter() - started
        started = time.perf_counter()
        for header in headers:
            tree.classify(header)
        tree_query = time.perf_counter() - started

        assert mdd_query < tree_query  # lookups win...
        assert mdd_build > tree_build * 0.5  # ...but construction doesn't
