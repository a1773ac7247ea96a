"""The perf ledger's one command.

    python3 benchmarks/ledger/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload and prints its metrics, the last line of standard
output being one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  Without ``--workload`` it runs all five, untraced then
traced, each in a process of its own.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = ROOT / "BENCHMARK.json"
#: Artifacts, span files and result records; listed in the root .gitignore.
OUT = HERE / "out"

DEFAULT_SEED = 11
SETUPS = 3  # set-ups per run; ``setup_s`` is their median
SMOKE_SECONDS = 2


def load_workloads() -> dict:
    """Import the workloads; only now is ``repro`` needed."""
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"ledger: {ROOT / 'src' / 'repro'} is missing; the benchmark "
                 "runs the program from source in its checkout")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from library import Churn, Coldstart, WhatIf
    from wire import WireBatch, WireQuery

    return {w.name: w for w in (WireBatch, WireQuery, Churn, Coldstart, WhatIf)}


def run_workload(args, spec: dict) -> int:
    workloads = load_workloads()
    from harness import Tracer, provenance, tail
    from repro.obs import Recorder

    workload = workloads[args.workload](args.seed, OUT)
    trace = bool(args.trace)
    tracer = Tracer()
    recorder = Recorder() if trace else None
    OUT.mkdir(exist_ok=True)
    setups = []
    rounds = 1 if args.smoke else SETUPS
    try:
        for attempt in range(rounds):
            if attempt:
                workload.teardown()
            # Only the set-up that is kept is traced and observed, so the
            # recorder's counts are those of exactly one build.
            tracer.enabled = trace and attempt == rounds - 1
            started = time.perf_counter()
            with tracer.span("setup"):
                workload.setup(tracer, recorder if tracer.enabled else None)
            setups.append(time.perf_counter() - started)
        classifier = workload.classifier
        structure = {
            "core.atomic.atoms": classifier.universe.atom_count,
            "core.atomic.predicates": len(classifier.dataplane.predicates()),
            "core.aptree.avg_depth": classifier.tree.average_depth(),
            "core.aptree.max_depth": classifier.tree.max_depth(),
        }
        tracer.enabled = False
        if trace:
            # Half the window untraced, half traced: the difference
            # between the two is what tracing costs this workload.
            classifier.set_recorder(None)
            base = workload.measure(args.seconds / 2, tracer)
            classifier.set_recorder(recorder)
            tracer.enabled = True
            traced = workload.measure(args.seconds / 2, tracer)
            windows = [base, traced]
            values = {
                **structure,
                **offline_layers(tracer),
                **bdd_layers(classifier.dataplane.manager, recorder),
                **workload.layers(tracer, recorder, traced),
                "trace.overhead_share": traced.p50_ms / base.p50_ms - 1.0,
            }
            percentile, value = tail(base.latencies)
            values["tail.percentile"] = percentile
            values["tail.latency_ms"] = value * 1e3
            values["tail.samples"] = len(base.latencies)
            if workload.reconcile is not None:
                values["trace.residual_share"] = reconcile(tracer, *workload.reconcile)
            tracer.dump(OUT / f"{workload.name}-spans.json")
            listed = spec["per_layer"]
        else:
            measured = workload.measure(args.seconds, tracer)
            windows = [measured]
            values = {
                "setup_s": statistics.median(setups),
                "throughput_per_s": measured.rate,
                "latency_p50_ms": measured.p50_ms,
                "peak_rss_mb": workload.peak_rss_mb(),
            }
            listed = spec["end_to_end"]
        checked, wrong = workload.finish()
    finally:
        workload.teardown()

    unknown = set(values) - {metric["name"] for metric in listed}
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    # A layer the workload never entered did no work there: 0.
    metrics = {
        metric["name"]: {"value": values.get(metric["name"], 0.0), "unit": metric["unit"]}
        for metric in listed
    }
    result = {
        "correct": wrong == 0 and not any(w.failed for w in windows),
        "attempted": checked + sum(w.attempted for w in windows),
        "failed": wrong + sum(w.failed for w in windows),
        "metrics": metrics,
    }
    record = {
        "workload": workload.name,
        "scenario": {"name": workload.scenario[0], "params": workload.scenario[1],
                     "network_seed": "registry default"},
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": trace,
        "smoke": args.smoke,
        "setups_s": setups,
        "samples": [len(w.latencies) for w in windows],
        "provenance": provenance(),
        **result,
    }
    (OUT / f"{workload.name}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    print(f"# {workload.name} seed={args.seed} seconds={args.seconds} trace={int(trace)}"
          f"{' SMOKE' if args.smoke else ''} samples={record['samples']}")
    print("# " + json.dumps(record["provenance"]))
    for name, metric in metrics.items():
        print(f"{name:42s} {metric['value']:>16.6f} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def offline_layers(tracer) -> dict[str, float]:
    return {
        "network.dataplane.convert_s": tracer.median("network.dataplane.convert"),
        "core.atomic.compute_s": tracer.median("core.atomic.compute"),
        "core.construction.build_tree_s": tracer.median("core.construction.build_tree"),
        "core.compiled.compile_s": tracer.median("core.compiled.compile"),
        "persist.save_s": tracer.median("persist.save"),
        "serve.spawn_s": tracer.median("serve.spawn"),
    }


def bdd_layers(manager, recorder) -> dict[str, float]:
    stats = manager.cache_stats()
    bdd = recorder.bdd
    hits = bdd.apply_hits + bdd.ite_hits + bdd.not_hits
    calls = hits + bdd.apply_misses + bdd.ite_misses + bdd.not_misses
    return {
        "bdd.manager.nodes": stats["nodes"],
        "bdd.manager.cache_entries": stats["cache_entries"],
        "bdd.manager.cache_clears": stats["cache_clears"],
        "bdd.manager.apply_calls": bdd.apply_hits + bdd.apply_misses,
        "bdd.manager.ite_calls": bdd.ite_hits + bdd.ite_misses,
        "bdd.manager.memo_hit_rate": hits / calls if calls else 0.0,
    }


def reconcile(tracer, span: str, tolerance: float) -> float:
    """Children plus the parent's self time are the parent by construction;
    the check is that the unnamed part -- the self time -- stays small."""
    share = statistics.median(tracer.self_shares(span))
    if not 0.0 <= share <= tolerance:
        raise RuntimeError(
            f"{span}: self time is {share:.1%} of the span, beyond {tolerance:.0%}"
        )
    return share


# ----------------------------------------------------------------------
# The suite, the repeatability self-check, and comparing two result sets
# ----------------------------------------------------------------------


def run_suite(args, spec: dict, traces=(0, 1)) -> list[dict]:
    """Every workload in a process of its own; the records they wrote."""
    records = []
    for workload in spec["workloads"]:
        for trace in traces:
            command = [sys.executable, str(HERE / "run.py"),
                       "--workload", workload["name"], "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.smoke:
                command.append("--smoke")
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=600)
            sys.stdout.write(done.stdout)
            if done.returncode:
                sys.exit(f"ledger: {workload['name']} trace={trace} failed "
                         f"(exit {done.returncode})")
            records.append(json.loads(
                (OUT / f"{workload['name']}-trace{trace}.json").read_text()
            ))
    return records


def compare(first: list[dict], second: list[dict], spec: dict) -> int:
    """Non-zero when an end-to-end metric moved by more than its bound."""
    stamps = [r["provenance"] for r in first + second]
    for key in ("engine", "nproc"):
        if len({stamp[key] for stamp in stamps}) > 1:
            sys.exit(f"ledger: refusing to compare results whose {key} differ")
    if any(r["smoke"] for r in first + second):
        sys.exit("ledger: smoke results are never comparable")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    after = {r["workload"]: r for r in second if not r["trace"]}
    moved = 0
    for before in (r for r in first if not r["trace"]):
        for name, bound in bounds.items():
            a = before["metrics"][name]["value"]
            b = after[before["workload"]]["metrics"][name]["value"]
            share = abs(b - a) / a
            verdict = "ok" if share <= bound else "MOVED"
            moved += share > bound
            print(f"{before['workload']:11s} {name:17s} {a:14.4f} {b:14.4f} "
                  f"{share:7.2%} (bound {bound:.0%}) {verdict}")
    return 1 if moved else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_SECONDS} s and one set-up; never comparable")
    parser.add_argument("--check-repeat", action="store_true",
                        help="run the untraced suite twice and compare the two")
    parser.add_argument("--compare", nargs=2, metavar="SUITE_JSON")
    args = parser.parse_args(argv)

    if not SPEC.is_file():
        sys.exit(f"ledger: {SPEC} is missing")
    spec = json.loads(SPEC.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else spec["run_seconds"]
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]

    if args.compare:
        first, second = (json.loads(Path(p).read_text()) for p in args.compare)
        return compare(first, second, spec)
    if args.workload:
        return run_workload(args, spec)
    if args.check_repeat:
        first = run_suite(args, spec, traces=(0,))
        second = run_suite(args, spec, traces=(0,))
        return compare(first, second, spec)
    records = run_suite(args, spec)
    path = OUT / f"suite-seed{args.seed}.json"
    path.write_text(json.dumps(records, indent=1))
    print(f"# suite written to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
