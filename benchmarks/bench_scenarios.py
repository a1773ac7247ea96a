"""Per-scenario bench axis: every workload the registry knows, one table.

Until now every published number (BENCH_kernel, BENCH_serve_throughput,
BENCH_fig13_incremental) was measured on the two friendly WAN-like
datasets. This bench runs the whole registry catalog
-- the WAN baselines plus the adversarial foundry scenarios (ACL-heavy,
Clos/ECMP, IPv6-width, SDN-policy) -- through the same four-measurement
harness:

* offline build wall time,
* predicate/atom structure (the ACL corpus must show its super-linear
  atoms-per-predicate blowup next to the WAN baselines -- asserted),
* compiled classify_batch throughput on the scenario's canonical trace,
* per-update latency of the incremental engine under the scenario's
  canonical churn stream, with the compiled artifact staying fresh.

Results land in ``BENCH_scenarios.json`` at the repo root; with
``REPRO_OBS_SIDECAR=1`` each scenario also writes a
``results/scenario_<name>.obs.json`` sidecar whose ``scenario`` section
carries the registry tag (schema ``repro.obs.snapshot/9``).

``--quick`` shrinks scenario params and iteration counts for CI smoke;
quick rows are not comparable to full rows.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from conftest import TRACE_LEN, emit, emit_obs

from repro.analysis.reporting import render_table
from repro.analysis.stats import percentile
from repro.core.classifier import APClassifier
from repro.datasets import get_scenario
from repro.obs import Recorder

RESULT_JSON = Path(__file__).parent.parent / "BENCH_scenarios.json"

#: The catalog axis: WAN baselines first (the super-linearity yardstick),
#: then the four foundry scenarios.
FULL_SPECS = {
    "internet2": {},
    "stanford": {},
    "acl-heavy": {},
    "clos-ecmp": {"k": 6},
    "ipv6-wan": {},
    "sdn-policy": {},
}
QUICK_SPECS = {
    "internet2": {"prefixes_per_router": 2},
    "stanford": {"subnets_per_zone": 2, "host_ports_per_zone": 1},
    "acl-heavy": {"lists": 6, "rules_per_list": 8},
    "clos-ecmp": {"k": 4},
    "ipv6-wan": {"prefixes_per_router": 2},
    "sdn-policy": {"leaves": 3},
}

WAN_BASELINES = ("internet2", "stanford")

UPDATES = 24
UPDATES_QUICK = 8
#: The scoreboard: the ACL corpus must refine at least this many times
#: more atoms per predicate than the densest WAN baseline.
ACL_SUPERLINEAR_FLOOR = 2.0


def _measure(name: str, params: dict, trace_len: int, updates: int) -> dict:
    """Build, compile, classify, and churn one scenario; return the row."""
    scenario = get_scenario(name, **params)

    started = time.perf_counter()
    classifier = APClassifier.build(
        scenario.network(), strategy="oapt", maintenance="incremental"
    )
    build_s = time.perf_counter() - started
    stats = classifier.stats()

    classifier.compile()
    trace = scenario.trace(classifier.universe, trace_len)
    started = time.perf_counter()
    classifier.classify_batch(trace.headers)
    classify_s = time.perf_counter() - started
    qps = len(trace.headers) / classify_s if classify_s else 0.0

    update_latencies_ms: list[float] = []
    for update in scenario.update_stream(updates):
        started = time.perf_counter()
        if update.kind == "insert":
            classifier.insert_rule(update.box, update.rule)
        else:
            classifier.remove_rule(update.box, update.rule)
        update_latencies_ms.append((time.perf_counter() - started) * 1e3)

    row = {
        "scenario": scenario.name,
        "params": dict(scenario.params),
        "seed": scenario.seed,
        "network_rules": scenario.network().stats()["forwarding_rules"]
        + scenario.network().stats()["acl_rules"],
        "build_s": build_s,
        "predicates": stats.predicates,
        "atoms": stats.atoms,
        "atoms_per_predicate": stats.atoms / stats.predicates,
        "compiled_qps": qps,
        "updates": len(update_latencies_ms),
        "update_mean_ms": sum(update_latencies_ms) / len(update_latencies_ms),
        "update_p95_ms": percentile(update_latencies_ms, 95),
        "compiled_fresh_after_churn": classifier.compiled_fresh,
    }

    # Post-hoc observed replay for the sidecar (never inside the measured
    # sections), tagged with the scenario that produced the workload.
    recorder = Recorder()
    recorder.set_scenario(scenario)
    with recorder.observe(classifier):
        classifier.classify_batch(trace.headers[:256])
        for update in scenario.update_stream(4):
            if update.kind == "insert":
                classifier.insert_rule(update.box, update.rule)
            else:
                classifier.remove_rule(update.box, update.rule)
    emit_obs(f"scenario_{scenario.name}", recorder)
    return row


def test_scenario_axis(quick):
    specs = QUICK_SPECS if quick else FULL_SPECS
    trace_len = 500 if quick else TRACE_LEN
    updates = UPDATES_QUICK if quick else UPDATES

    rows = [
        _measure(name, params, trace_len, updates)
        for name, params in specs.items()
    ]

    table_rows = [
        (
            row["scenario"],
            f"{row['build_s']:.2f} s",
            row["predicates"],
            row["atoms"],
            f"{row['atoms_per_predicate']:.1f}",
            f"{row['compiled_qps'] / 1e3:.1f}k",
            f"{row['update_mean_ms']:.2f} ms",
            f"{row['update_p95_ms']:.2f} ms",
        )
        for row in rows
    ]
    emit(
        "scenarios",
        render_table(
            f"scenario axis ({'quick' if quick else 'full'} mode, "
            f"{trace_len}-packet trace, {updates} churn updates)",
            [
                "scenario",
                "build",
                "preds",
                "atoms",
                "atoms/pred",
                "compiled QPS",
                "update mean",
                "update p95",
            ],
            table_rows,
        ),
    )

    by_name = {row["scenario"]: row for row in rows}
    wan_ratio = max(
        by_name[name]["atoms_per_predicate"] for name in WAN_BASELINES
    )
    acl_ratio = by_name["acl-heavy"]["atoms_per_predicate"]
    payload = {
        "quick": quick,
        "trace_len": trace_len,
        "rows": rows,
        "acl_superlinearity": {
            "acl_atoms_per_predicate": acl_ratio,
            "max_wan_atoms_per_predicate": wan_ratio,
            "ratio": acl_ratio / wan_ratio,
            "floor": ACL_SUPERLINEAR_FLOOR,
        },
    }
    RESULT_JSON.write_text(
        json.dumps(payload, indent=2, allow_nan=False) + "\n"
    )

    # The Hazelhurst regime is the point of the ACL corpus: its atom
    # count grows super-linearly in its predicate count while the WAN
    # baselines stay near one atom per predicate.
    assert acl_ratio > ACL_SUPERLINEAR_FLOOR * wan_ratio, (
        f"acl-heavy atoms/predicate {acl_ratio:.1f} not demonstrably "
        f"super-linear vs WAN baselines ({wan_ratio:.1f})"
    )
    # Incremental maintenance kept the compiled artifact fresh through
    # every scenario's churn stream.
    for row in rows:
        assert row["compiled_fresh_after_churn"], (
            f"{row['scenario']}: compiled artifact went stale under churn"
        )
