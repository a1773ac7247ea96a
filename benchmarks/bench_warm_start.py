"""Warm start: binary artifact loads versus the offline build (Fig. 11).

The offline stage dominates bring-up (Fig. 11) while the query
structures are tiny (Section VII-B) -- so a restart should *load* the
compiled classifier, not recompute it.  This bench pins that promise on
the stanford-like dataset:

* **Cold build** -- ``APClassifier.build`` from the network, the Fig. 11
  cost a restart would otherwise pay.
* **Artifact load** -- full updatable restore from the binary container
  via ``mmap``.
* **Serving-only load** -- :func:`repro.artifact.load_serving`, mapping
  just the compiled arrays: the milliseconds standby path.

Acceptance bars: the artifact load must be >= 10x faster than the cold
build and classify the bench trace *bit-identically*; the serving-only
load must beat the full load.  A second leg measures closed-loop TCP
throughput of the multi-worker pool (1 vs 4 workers); its speedup
assertion only applies on multi-core hosts, but the numbers and the
host's CPU count are always recorded.

Results land in ``BENCH_warm_start.json`` at the repo root; with
``REPRO_OBS_SIDECAR=1`` the run writes
``benchmarks/results/warm_start.obs.json``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from conftest import OBS_SIDECARS, emit, emit_obs

from repro import persist
from repro.analysis.reporting import render_table
from repro.artifact import load_serving
from repro.core.classifier import APClassifier
from repro.obs import Recorder
from repro.serve import ServeGrid, closed_loop_qps

RESULT_JSON = Path(__file__).parent.parent / "BENCH_warm_start.json"

MIN_ARTIFACT_SPEEDUP = 10.0
POOL_WORKERS = (1, 4)
POOL_CONNECTIONS = 8
POOL_DURATION_S = 1.0


def _timed(fn):
    started = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - started


def test_warm_start(stan, tmp_path):
    recorder = Recorder()
    headers = list(stan.headers)

    # Cold build: a fresh classifier from the same network -- the cost a
    # restart pays without persistence.
    cold, cold_s = _timed(lambda: APClassifier.build(stan.network, strategy="oapt"))
    expected = cold.classify_batch(headers)

    artifact_path = tmp_path / "stan.apc"
    _, artifact_save_s = _timed(
        lambda: persist.save(cold, artifact_path, recorder=recorder)
    )

    restored, artifact_load_s = _timed(
        lambda: persist.load(artifact_path, use_mmap=True, recorder=recorder)
    )
    engine, serving_load_s = _timed(
        lambda: load_serving(artifact_path, use_mmap=True, recorder=recorder)
    )

    # Bit-identical classification on every load path.
    assert restored.classify_batch(headers) == expected
    assert list(engine.classify_batch(headers)) == expected

    artifact_speedup = cold_s / artifact_load_s
    rows = [
        ("cold build", f"{cold_s * 1000:.1f} ms"),
        ("artifact load (mmap)", f"{artifact_load_s * 1000:.1f} ms"),
        ("serving-only load", f"{serving_load_s * 1000:.1f} ms"),
        ("artifact speedup vs build", f"{artifact_speedup:.1f}x"),
        ("artifact size", f"{artifact_path.stat().st_size} bytes"),
    ]
    emit(
        "warm_start",
        render_table(
            "Warm start (stanford-like): load vs rebuild",
            ["path", "value"],
            rows,
        ),
    )

    assert artifact_speedup >= MIN_ARTIFACT_SPEEDUP, (
        f"artifact load must be >= {MIN_ARTIFACT_SPEEDUP}x faster than the "
        f"cold build, got {artifact_speedup:.1f}x"
    )
    assert serving_load_s < artifact_load_s

    # Multi-worker serving: closed-loop TCP throughput, 1 vs 4 workers
    # mapping the same shared-memory artifact.
    cpu_count = os.cpu_count() or 1
    pool_stats = {}
    for workers in POOL_WORKERS:
        with ServeGrid(cold, replicas=workers, recorder=recorder) as pool:
            stats = closed_loop_qps(
                "127.0.0.1",
                pool.port,
                headers,
                connections=POOL_CONNECTIONS,
                duration_s=POOL_DURATION_S,
            )
        pool_stats[workers] = stats
    worker_speedup = pool_stats[4]["qps"] / pool_stats[1]["qps"]
    emit(
        "warm_start_workers",
        render_table(
            f"Multi-worker serving ({cpu_count} CPU(s), "
            f"{POOL_CONNECTIONS} connections)",
            ["workers", "qps"],
            [(w, f"{pool_stats[w]['qps']:.0f}") for w in POOL_WORKERS],
        ),
    )
    # Worker processes only help with cores to run on; the assertion is
    # gated so a single-core host records the numbers without failing.
    if cpu_count >= 4:
        assert worker_speedup > 1.0, (
            f"4 workers should out-serve 1 on {cpu_count} CPUs, "
            f"got {worker_speedup:.2f}x"
        )

    payload = {
        "dataset": stan.name,
        "trace_len": len(headers),
        "cold_build_s": cold_s,
        "artifact_save_s": artifact_save_s,
        "artifact_load_s": artifact_load_s,
        "serving_load_s": serving_load_s,
        "artifact_speedup_vs_build": artifact_speedup,
        "min_artifact_speedup": MIN_ARTIFACT_SPEEDUP,
        "artifact_bytes": artifact_path.stat().st_size,
        "bit_identical": True,
        "cpu_count": cpu_count,
        "pool_connections": POOL_CONNECTIONS,
        "pool_duration_s": POOL_DURATION_S,
        "pool_qps": {str(w): pool_stats[w]["qps"] for w in POOL_WORKERS},
        "pool_speedup_4_vs_1": worker_speedup,
    }
    RESULT_JSON.write_text(json.dumps(payload, indent=2, allow_nan=False) + "\n")

    if OBS_SIDECARS:
        emit_obs("warm_start", recorder)
