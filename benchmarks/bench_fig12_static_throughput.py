"""Fig. 12: query throughput for static networks, all methods.

Paper values (queries/second): Internet2 -- AP Classifier (OAPT) 3.4 M,
Quick-Ordering ~2.2 M, Best-from-Random ~1.7 M, Forwarding Simulation
0.2 M, AP Verifier linear scan lower, Hassel-C (HSA) 6 K.  Stanford --
1.8 M / ~1.35 M / ~1.25 M / 0.16 M / lower / 4.7 K.

Shapes to reproduce: OAPT > Quick-Ordering > Best-from-Random; AP
Classifier an order of magnitude above Forwarding Simulation and PScan;
HSA around three orders of magnitude below AP Classifier.

Absolute numbers here are pure-Python, so everything is uniformly slower
than the paper's C/Java -- the ratios are the result.

The ``engine`` axis re-runs the comparison on the compiled flat-array
engine (batched bit-parallel evaluation): tree methods go through
:class:`~repro.core.compiled.CompiledAPTree`, the scan baselines through
their :meth:`compile`/batch paths.  Forwarding Simulation and HSA have no
batch form and appear only on the interpreted axis.
"""

from __future__ import annotations

import random

import pytest
from conftest import OBS_SIDECARS, emit, emit_obs

from repro.analysis.reporting import format_qps, render_table
from repro.obs import Recorder
from repro.analysis.stats import measure_batch_throughput, measure_throughput
from repro.baselines import (
    APLinearClassifier,
    ForwardingSimulator,
    HsaQuerier,
    PScanIdentifier,
)
from repro.core.compiled import CompiledAPTree, NUMPY_BACKEND, available_backends
from repro.core.construction import best_from_random, build_quick_ordering

HSA_SAMPLE = 60  # HSA is slow enough that a subsample suffices


def _warm_qps(query, headers) -> float:
    """Measure after a warmup pass; keeps method order from biasing results."""
    measure_throughput(query, headers[: max(len(headers) // 4, 1)])
    return measure_throughput(query, headers).qps


def _warm_batch_qps(query_batch, headers) -> float:
    """Batched counterpart of :func:`_warm_qps`."""
    measure_batch_throughput(query_batch, headers[: max(len(headers) // 4, 1)])
    return measure_batch_throughput(query_batch, headers).qps


@pytest.mark.parametrize("engine", ["interpreted", "compiled"])
@pytest.mark.parametrize("which", ["i2", "stan"])
def test_fig12_static_throughput(which, engine, i2, stan, benchmark):
    ds = i2 if which == "i2" else stan
    rng = random.Random(12)
    boxes = sorted(ds.network.boxes)
    ingresses = [rng.choice(boxes) for _ in ds.headers]

    quick_tree = build_quick_ordering(ds.universe)
    bfr_tree, _ = best_from_random(ds.universe, trials=10, rng=rng)
    aplinear = APLinearClassifier(ds.dataplane, ds.universe)
    pscan = PScanIdentifier(ds.dataplane)

    # --- stage-1 classification methods -------------------------------
    if engine == "compiled":
        oapt = CompiledAPTree.compile(ds.classifier.tree)
        oapt_qps = _warm_batch_qps(oapt.classify_batch, ds.headers)
        quick_qps = _warm_batch_qps(
            CompiledAPTree.compile(quick_tree).classify_batch, ds.headers
        )
        bfr_qps = _warm_batch_qps(
            CompiledAPTree.compile(bfr_tree).classify_batch, ds.headers
        )
        aplinear.compile()
        aplinear_qps = _warm_batch_qps(aplinear.classify_batch, ds.headers)
        pscan.compile()
        pscan_qps = _warm_batch_qps(pscan.verdict_bits_batch, ds.headers)
    else:
        oapt_qps = _warm_qps(ds.classifier.tree.classify, ds.headers)
        quick_qps = _warm_qps(quick_tree.classify, ds.headers)
        bfr_qps = _warm_qps(bfr_tree.classify, ds.headers)
        aplinear_qps = _warm_qps(aplinear.classify, ds.headers)
        pscan_qps = _warm_qps(pscan.verdicts, ds.headers)

    rows = [
        ("AP Classifier (OAPT)", format_qps(oapt_qps), "1.0x"),
        ("Quick-Ordering", format_qps(quick_qps), f"{oapt_qps / quick_qps:.1f}x"),
        ("Best from Random", format_qps(bfr_qps), f"{oapt_qps / bfr_qps:.1f}x"),
        ("APLinear (AP Verifier)", format_qps(aplinear_qps), f"{oapt_qps / aplinear_qps:.1f}x"),
        ("PScan", format_qps(pscan_qps), f"{oapt_qps / pscan_qps:.1f}x"),
    ]

    if engine == "interpreted":
        # --- full path-computation methods (no batch form) -------------
        fsim = ForwardingSimulator(ds.dataplane)
        pairs = list(zip(ds.headers, ingresses))
        fsim_qps = len(pairs) / _timed(lambda: [fsim.query(h, b) for h, b in pairs])
        hsa = HsaQuerier(ds.network)
        hsa_pairs = pairs[:HSA_SAMPLE]
        hsa_qps = len(hsa_pairs) / _timed(
            lambda: [hsa.query(h, b) for h, b in hsa_pairs]
        )
        rows.append(
            ("Forwarding Simulation", format_qps(fsim_qps), f"{oapt_qps / fsim_qps:.1f}x")
        )
        rows.append(
            ("HSA (Hassel-style)", format_qps(hsa_qps), f"{oapt_qps / hsa_qps:.0f}x")
        )

    emit(
        f"fig12_{ds.name}_{engine}",
        render_table(
            f"Fig. 12 ({ds.name}, {engine} engine): static query throughput "
            "(speedup = AP Classifier / method)",
            ["method", "throughput", "AP Classifier speedup"],
            rows,
        ),
    )

    if engine == "interpreted":
        assert oapt_qps >= quick_qps * 0.9 >= bfr_qps * 0.8
        assert oapt_qps > pscan_qps * 5
        assert oapt_qps > aplinear_qps * 2
        # HSA's per-query cost scales with the rule count (the paper's
        # ~1000x gap comes from 126K-757K rules); at our reduced rule
        # counts the gap shrinks proportionally but must stay decisive.
        assert oapt_qps > hsa_qps * 5
    elif NUMPY_BACKEND in available_backends():
        # The three trees compile to one program (the atom partition's),
        # so they tie within timing noise; it still beats the scans.
        assert oapt_qps > quick_qps * 0.7
        assert oapt_qps > bfr_qps * 0.7
        assert oapt_qps > pscan_qps * 2
        assert oapt_qps > aplinear_qps * 1.5
    else:
        # The stdlib tree engine walks headers one at a time while the
        # scan baselines propagate big-int lane masks, so the ordering
        # says nothing about the paper's figure; this leg is a
        # correctness/availability smoke only.
        assert min(oapt_qps, quick_qps, bfr_qps, aplinear_qps, pscan_qps) > 0

    if OBS_SIDECARS:
        # Post-hoc observed replay through the classifier (tree search +
        # BDD manager), after every timed/asserted measurement above.
        recorder = Recorder()
        with recorder.observe(ds.classifier):
            ds.classifier.classify_batch(ds.headers)
        emit_obs(f"fig12_{ds.name}_{engine}", recorder)

    benchmark(lambda: ds.classifier.tree.classify(ds.headers[0]))


def _timed(fn) -> float:
    import time

    started = time.perf_counter()
    fn()
    return time.perf_counter() - started
