"""Fig. 4: query throughput vs. average leaf depth over random AP Trees.

The paper builds 100 random-order trees per network and shows throughput
decreasing with average depth; the star (AP Classifier's OAPT tree) beats
every random construction.  We build a smaller ensemble, verify the
negative correlation, and verify the OAPT point dominates.

The ``engine`` axis repeats the sweep on the compiled engine.  The
compiled program is the decision diagram of the atom partition, not of
the tree, so every tree over one universe compiles to the same arrays:
the compiled axis asserts exactly that, and its timings (emitted for the
table) differ by noise only.  The interpreted axis is the paper's claim.
"""

from __future__ import annotations

import random

import pytest
from conftest import OBS_SIDECARS, emit, emit_obs

from repro.analysis.reporting import render_table
from repro.obs import Recorder
from repro.analysis.stats import measure_batch_throughput, measure_throughput, pearson
from repro.core.compiled import CompiledAPTree
from repro.core.construction import build_oapt, build_random

TRIALS = 25


def _tree_qps(tree, headers, engine: str) -> float:
    # Warm up, then time: host-load noise otherwise swamps the
    # depth signal for trees measured back to back.
    if engine == "compiled":
        batch = CompiledAPTree.compile(tree).classify_batch
        measure_batch_throughput(batch, headers[:300])
        return measure_batch_throughput(batch, headers).qps
    measure_throughput(tree.classify, headers[:300])
    return measure_throughput(tree.classify, headers).qps


def _program_arrays(tree) -> dict:
    arrays = CompiledAPTree.compile(tree).to_arrays()
    return {
        name: value.tolist() if hasattr(value, "tolist") else value
        for name, value in arrays.items()
    }


@pytest.mark.parametrize("engine", ["interpreted", "compiled"])
@pytest.mark.parametrize("which", ["i2", "stan"])
def test_fig4_depth_throughput_scatter(which, engine, i2, stan, benchmark):
    ds = i2 if which == "i2" else stan
    rng = random.Random(41)
    depths: list[float] = []
    throughputs: list[float] = []
    trees = []
    for _ in range(TRIALS):
        tree = build_random(ds.universe, rng)
        trees.append(tree)
        depths.append(tree.average_depth())
        throughputs.append(_tree_qps(tree, ds.headers, engine))

    oapt_tree = ds.classifier.tree
    oapt_depth = oapt_tree.average_depth()
    oapt_qps = _tree_qps(oapt_tree, ds.headers, engine)

    correlation = pearson(depths, throughputs)
    rows = sorted(zip(depths, throughputs))
    table_rows = [(f"{d:.2f}", f"{q / 1e3:.1f} Kqps") for d, q in rows]
    table_rows.append((f"{oapt_depth:.2f} (OAPT *)", f"{oapt_qps / 1e3:.1f} Kqps"))
    emit(
        f"fig4_{ds.name}_{engine}",
        render_table(
            f"Fig. 4 ({ds.name}, {engine} engine): throughput vs average "
            f"depth over {TRIALS} random trees; Pearson r = {correlation:.3f}",
            ["avg depth", "throughput"],
            table_rows,
        ),
    )

    # The star: OAPT is at least as shallow as every random tree.
    assert oapt_depth <= min(depths) * 1.02
    if engine == "interpreted":
        # The paper's observation: smaller depth -> higher throughput. The
        # correlation is typically -0.85..-0.95 on an idle host; leave
        # slack for timing noise on loaded CI machines.
        assert correlation < -0.35
        assert oapt_qps > sum(throughputs) / len(throughputs)
    else:
        # Every random tree compiles to OAPT's program, array for array.
        oapt_arrays = _program_arrays(oapt_tree)
        for tree in trees:
            assert _program_arrays(tree) == oapt_arrays

    if OBS_SIDECARS:
        # Post-hoc observed replay on the OAPT tree -- never during the
        # timed passes above, so the figure numbers stay unbiased.
        recorder = Recorder()
        with recorder.observe_tree(oapt_tree):
            oapt_tree.classify_many(ds.headers)
        emit_obs(f"fig4_{ds.name}_{engine}", recorder)

    benchmark(lambda: build_random(ds.universe, rng))
