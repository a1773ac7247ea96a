"""Command-line interface: inspect datasets, query behaviors, verify
invariants, snapshot networks, and run the online query service.

Examples::

    ap-classifier scenarios
    ap-classifier stats --dataset internet2
    ap-classifier stats --dataset acl-heavy:lists=16,overlap=0.9
    ap-classifier query --dataset internet2 --dst-ip 10.1.0.1 --ingress SEAT
    ap-classifier tree --dataset stanford --strategy quick_ordering
    ap-classifier verify --dataset fattree --ingress edge_0_0
    ap-classifier save --dataset internet2 --out /tmp/i2.apc
    ap-classifier save --dataset internet2 --format network --out /tmp/i2.json
    ap-classifier load /tmp/i2.apc
    ap-classifier query --artifact /tmp/i2.apc --dst-ip 10.1.0.1 --ingress SEAT
    ap-classifier query --snapshot /tmp/i2.json --dst-ip 10.1.0.1 --ingress SEAT
    ap-classifier diff /tmp/before.apc /tmp/after.apc --ingress SEAT
    ap-classifier whatif --dataset internet2 --ingress SEAT \
        --add-rule 'SEAT:dst_ip=10.3.0.0/24->to_SALT'
    ap-classifier serve --dataset internet2 --port 9000 --serve-workers 4

Error contract: operational failures (unknown dataset names, missing or
malformed snapshot files, unknown boxes) exit non-zero with a one-line
``error: ...`` message on stderr -- never a traceback.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from typing import Sequence

from .analysis.memory import memory_report
from .analysis.reporting import render_table
from .core.classifier import APClassifier
from .core.verifier import NetworkVerifier
from .datasets import ScenarioError, get_scenario, list_scenarios
from .headerspace.fields import parse_ipv4
from .headerspace.header import Packet
from .network.builder import Network
from .network.serialize import load_network, save_network

__all__ = ["main"]


class CLIError(Exception):
    """Operational failure reported as a one-line message (exit code 2)."""


def _parse_dataset_spec(spec: str) -> tuple[str, dict[str, str]]:
    """Split ``name[:key=val,...]`` into the scenario name and params.

    Values stay strings; the registry coerces them to each param's
    declared type (and rejects unknown keys or bad values).
    """
    name, _, param_text = spec.partition(":")
    params: dict[str, str] = {}
    if param_text:
        for pair in param_text.split(","):
            key, eq, value = pair.partition("=")
            if not eq or not key.strip():
                raise CLIError(
                    f"malformed dataset param {pair!r} in {spec!r} "
                    "(expected key=value)"
                )
            params[key.strip()] = value.strip()
    return name, params


def _get_scenario(spec: str):
    """A bound :class:`repro.datasets.Scenario` from a CLI dataset spec."""
    name, params = _parse_dataset_spec(spec)
    if name not in list_scenarios():
        raise CLIError(
            f"unknown dataset {name!r}; choose from {list_scenarios()}"
        )
    try:
        return get_scenario(name, **params)
    except ScenarioError as exc:
        raise CLIError(str(exc)) from exc


def _load(args: argparse.Namespace) -> Network:
    snapshot = getattr(args, "snapshot", "")
    if snapshot:
        try:
            return load_network(snapshot)
        except OSError as exc:
            raise CLIError(f"cannot read snapshot {snapshot!r}: {exc}") from exc
        except ValueError as exc:
            raise CLIError(f"malformed snapshot {snapshot!r}: {exc}") from exc
    return _get_scenario(args.dataset).network()


def _load_snapshot(path: str) -> Network:
    try:
        return load_network(path)
    except OSError as exc:
        raise CLIError(f"cannot read snapshot {path!r}: {exc}") from exc
    except ValueError as exc:
        raise CLIError(f"malformed snapshot {path!r}: {exc}") from exc


def _build(args: argparse.Namespace) -> APClassifier:
    artifact = getattr(args, "artifact", "")
    if artifact:
        return _load_classifier_file(artifact)
    return APClassifier.build(_load(args), strategy=args.strategy)


def _load_classifier_file(path: str, *, deep_verify: bool = False) -> APClassifier:
    """A ready classifier from an artifact file."""
    from . import persist
    from .artifact import ArtifactError

    try:
        return persist.load(path, deep_verify=deep_verify)
    except (ArtifactError, ValueError, KeyError) as exc:
        raise _artifact_error(path, exc) from exc


def _artifact_error(path: str, exc: Exception) -> CLIError:
    """One line for an artifact that could not be read or loaded."""
    if isinstance(exc.__cause__, OSError):
        return CLIError(f"cannot read {path!r}: {exc.__cause__}")
    return CLIError(f"cannot load {path!r}: {exc}")


def _instrumented_stats(args: argparse.Namespace) -> int:
    """``stats --instrument``: run a small observed workload, print JSON.

    The workload exercises every instrumented surface on the selected
    dataset: an interpreted classify pass (depth histogram), a compile +
    rule-update churn (update metrics, BDD cache traffic), and a
    post-update query (compiled-artifact staleness fallback).  Output is
    a single strict-JSON :meth:`Recorder.snapshot` document on stdout.
    """
    import json
    import random

    from .datasets import rule_update_stream, uniform_over_atoms
    from .obs import Recorder, validate_snapshot

    classifier = _build(args)
    recorder = Recorder(time_bdd_ops=True)
    if not getattr(args, "snapshot", "") and not getattr(args, "artifact", ""):
        recorder.set_scenario(_get_scenario(args.dataset))
    rng = random.Random(7)
    with recorder.observe(classifier):
        trace = uniform_over_atoms(classifier.universe, 512, rng)
        classifier.classify_batch(trace.headers)
        classifier.compile()
        for update in rule_update_stream(
            classifier.dataplane.network, 24, rng
        ):
            if update.kind == "insert":
                classifier.insert_rule(update.box, update.rule)
            else:
                classifier.remove_rule(update.box, update.rule)
        # The churn staled the artifact; this query takes (and records)
        # the interpreted fallback path.
        classifier.classify(trace.headers[0])
        snapshot = validate_snapshot(recorder.snapshot())
    print(json.dumps(snapshot, indent=2, allow_nan=False))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    if args.instrument:
        return _instrumented_stats(args)
    classifier = _build(args)
    network_stats = classifier.dataplane.network.stats()
    stats = classifier.stats()
    rows = [
        ("boxes", network_stats["boxes"]),
        ("links", network_stats["links"]),
        ("forwarding rules", network_stats["forwarding_rules"]),
        ("ACL rules", network_stats["acl_rules"]),
        ("predicates", stats.predicates),
        ("atomic predicates", stats.atoms),
        ("AP Tree leaves", stats.tree_leaves),
        ("AP Tree avg depth", f"{stats.tree_average_depth:.2f}"),
        ("AP Tree max depth", stats.tree_max_depth),
        ("BDD nodes", stats.bdd_nodes),
        ("estimated memory", f"{stats.estimated_bytes / 1e6:.2f} MB"),
    ]
    print(render_table(f"dataset: {args.dataset}", ["metric", "value"], rows))
    if args.memory:
        print()
        print(
            render_table(
                "memory breakdown",
                ["component", "value"],
                memory_report(classifier).rows(),
            )
        )
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    classifier = _build(args)
    layout = classifier.dataplane.layout
    fields = {"dst_ip": parse_ipv4(args.dst_ip)}
    if "src_ip" in layout and args.src_ip:
        fields["src_ip"] = parse_ipv4(args.src_ip)
    if "dst_port" in layout:
        fields["dst_port"] = args.dst_port
    if "src_port" in layout:
        fields["src_port"] = args.src_port
    if "proto" in layout:
        fields["proto"] = args.proto
    packet = Packet(layout, layout.pack(fields))
    if args.ingress not in classifier.dataplane.network.boxes:
        raise CLIError(f"unknown ingress box {args.ingress!r}")
    behavior = classifier.query(packet, ingress_box=args.ingress)
    print(f"packet: {packet}")
    print(f"atomic predicate: a{behavior.atom_id}")
    for path in behavior.paths():
        print("path: " + " -> ".join(path))
    hosts = sorted(behavior.delivered_hosts())
    print(f"delivered to: {hosts if hosts else 'nowhere (dropped)'}")
    for box, reason in behavior.drops():
        print(f"dropped at {box}: {reason}")
    if args.trace:
        print("\ntrace:")
        print(behavior.format_trace())
        print("\nAP Tree search:")
        for pid, verdict in classifier.tree.explain(packet.value):
            labeled = classifier.dataplane.predicate(pid)
            print(
                f"  {labeled.kind} {labeled.box}:{labeled.port} -> "
                f"{'true' if verdict else 'false'}"
            )
    return 0


def _cmd_reachability(args: argparse.Namespace) -> int:
    from .core.propagation import AtomPropagation

    classifier = _build(args)
    propagation = AtomPropagation(classifier.dataplane, classifier.universe)
    matrix = propagation.all_pairs_host_reachability()
    hosts = sorted({host for _, host in matrix})
    boxes = sorted({box for box, _ in matrix})
    rows = [
        (box, *(len(matrix[(box, host)]) for host in hosts)) for box in boxes
    ]
    print(
        render_table(
            f"reachability matrix ({args.dataset}): packet classes delivered",
            ["ingress \\ host", *hosts],
            rows,
        )
    )
    return 0


def _cmd_tree(args: argparse.Namespace) -> int:
    classifier = _build(args)
    depths = sorted(classifier.tree.leaf_depths().values())
    stats = classifier.stats()
    rows = [
        ("strategy", args.strategy),
        ("leaves", stats.tree_leaves),
        ("average depth", f"{stats.tree_average_depth:.2f}"),
        ("median depth", depths[len(depths) // 2] if depths else 0),
        ("max depth", stats.tree_max_depth),
    ]
    print(render_table(f"AP Tree ({args.dataset})", ["metric", "value"], rows))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    classifier = _build(args)
    if args.ingress not in classifier.dataplane.network.boxes:
        raise CLIError(f"unknown ingress box {args.ingress!r}")
    verifier = NetworkVerifier.from_classifier(classifier)
    loops = verifier.find_loops(args.ingress)
    blackholes = verifier.find_blackholes(args.ingress)
    rows = [
        ("atomic predicates checked", classifier.universe.atom_count),
        ("looping classes", len(loops)),
        ("undeliverable classes", len(blackholes)),
    ]
    exit_code = 0
    if args.waypoint and args.host:
        violations = verifier.verify_waypoint(args.ingress, args.host, args.waypoint)
        rows.append(
            (f"waypoint {args.waypoint} -> {args.host} violations", len(violations))
        )
        if violations:
            exit_code = 1
    print(
        render_table(
            f"verification from {args.ingress} ({args.dataset})",
            ["check", "result"],
            rows,
        )
    )
    for atom_id in sorted(loops)[:5]:
        print(f"loop witness: {verifier.describe_atom(atom_id)}")
    if loops:
        exit_code = 1
    return exit_code


def _cmd_save(args: argparse.Namespace) -> int:
    """``save``: persist the network or the built classifier to a file.

    ``--format network`` writes the bare network JSON (readable back via
    ``--snapshot``); ``--format artifact`` (the default) builds the
    classifier and persists it through :mod:`repro.persist` (readable
    back via ``--artifact`` or ``load``).
    """
    if args.format == "network":
        network = _load(args)
        try:
            save_network(network, args.out)
        except OSError as exc:
            raise CLIError(f"cannot write snapshot {args.out!r}: {exc}") from exc
        print(f"wrote {args.dataset} snapshot to {args.out}")
        return 0
    from . import persist
    from .artifact import ArtifactError

    classifier = _build(args)
    try:
        written = persist.save(
            classifier, args.out, backend=getattr(args, "engine", None)
        )
    except OSError as exc:
        raise CLIError(f"cannot write {args.out!r}: {exc}") from exc
    except ArtifactError as exc:
        raise CLIError(f"cannot save classifier: {exc}") from exc
    print(f"wrote artifact classifier ({written} bytes) to {args.out}")
    return 0


def _cmd_snapshot(args: argparse.Namespace) -> int:
    """Hidden legacy alias: ``snapshot`` == ``save --format network``."""
    args.format = "network"
    return _cmd_save(args)


def _cmd_load(args: argparse.Namespace) -> int:
    """``load``: summarize (and check) a persisted classifier."""
    from .artifact import ArtifactError, describe_artifact

    if not args.deep_verify:
        try:
            summary = describe_artifact(args.path)
        except ArtifactError as exc:
            raise _artifact_error(args.path, exc) from exc
        rows = [(key, summary[key]) for key in sorted(summary) if key != "sections"]
        rows.append(("sections", len(summary["sections"])))
    else:
        stats = _load_classifier_file(args.path, deep_verify=True).stats()
        rows = [
            ("predicates", stats.predicates),
            ("atomic predicates", stats.atoms),
            ("AP Tree leaves", stats.tree_leaves),
            ("AP Tree max depth", stats.tree_max_depth),
            ("verified", "deep"),
        ]
    print(render_table(f"persisted classifier: {args.path}", ["field", "value"], rows))
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    """``diff``: which packets changed behavior between two generations?

    Two modes share the subcommand:

    * two positional paths -- saved classifier artifacts; the exact
      atom-pairing sweep of
      :mod:`repro.diff` runs across their managers and the full report
      (changed classes, sat-count volumes, witnesses) prints as strict
      JSON;
    * ``--before``/``--after`` -- bare network snapshot JSONs; both are
      built fresh on one manager and the same sweep prints as a
      human-readable list of changed classes instead.

    Exit code 1 when any class changed behavior, 0 when none did.
    """
    if args.generations:
        if len(args.generations) != 2:
            raise CLIError(
                "diff takes exactly two saved classifier files "
                "(or --before/--after network snapshots)"
            )
        if args.before or args.after:
            raise CLIError(
                "positional generation files and --before/--after are exclusive"
            )
        return _diff_generation_files(args)
    if not args.before or not args.after:
        raise CLIError(
            "diff needs two saved classifier files or both "
            "--before and --after network snapshots"
        )
    return _diff_snapshots(args)


def _diff_generation_files(args: argparse.Namespace) -> int:
    from .diff import diff_generations

    before = _load_classifier_file(args.generations[0])
    after = _load_classifier_file(args.generations[1])
    for classifier in (before, after):
        if args.ingress not in classifier.dataplane.network.boxes:
            raise CLIError(f"unknown ingress box {args.ingress!r}")
    try:
        report = diff_generations(before, after, args.ingress)
    except ValueError as exc:
        raise CLIError(str(exc)) from exc
    print(json.dumps(report.to_json(args.limit), indent=2, allow_nan=False))
    return 1 if report.entries else 0


def _diff_snapshots(args: argparse.Namespace) -> int:
    from .diff import diff_generations
    from .network.dataplane import DataPlane

    before_net = _load_snapshot(args.before)
    after_net = _load_snapshot(args.after)
    if before_net.layout != after_net.layout:
        raise CLIError("snapshots use different header layouts")
    before = APClassifier.build(before_net, strategy=args.strategy)
    # Share the manager: the sweep then needs no atom transfer.
    after = APClassifier.from_dataplane(
        DataPlane(after_net, before.dataplane.manager), strategy=args.strategy
    )
    if args.ingress not in before_net.boxes or args.ingress not in after_net.boxes:
        raise CLIError(f"unknown ingress box {args.ingress!r}")
    deltas = diff_generations(before, after, args.ingress).entries
    if not deltas:
        print(f"no behavior changes from {args.ingress}")
        return 0
    print(f"{len(deltas)} packet class(es) changed behavior from {args.ingress}:")
    for delta in deltas[: args.limit]:
        print(f"  {delta.describe()}")
    if len(deltas) > args.limit:
        print(f"  ... and {len(deltas) - args.limit} more")
    return 1


def _cmd_whatif(args: argparse.Namespace) -> int:
    """``whatif``: diff a candidate rule change without applying it.

    The base classifier (``--dataset``/``--snapshot``/``--artifact``) is
    never modified: the candidate ``--add-rule``/``--remove-rule`` specs
    are applied to a shadow fork through the incremental engine and the
    shadow is diffed against the base generation.  The report prints as
    strict JSON; exit code is 0 whether or not behavior would change
    (the answer is the report, not a verdict).
    """
    from .diff import parse_rule_spec, what_if

    classifier = _build(args)
    if args.ingress not in classifier.dataplane.network.boxes:
        raise CLIError(f"unknown ingress box {args.ingress!r}")
    layout = classifier.dataplane.layout
    try:
        add = [parse_rule_spec(spec, layout) for spec in args.add_rule]
        remove = [parse_rule_spec(spec, layout) for spec in args.remove_rule]
    except ValueError as exc:
        raise CLIError(str(exc)) from exc
    if not add and not remove:
        raise CLIError("whatif needs at least one --add-rule/--remove-rule")
    try:
        report = what_if(classifier, args.ingress, add=add, remove=remove)
    except (KeyError, ValueError) as exc:
        raise CLIError(str(exc)) from exc
    print(json.dumps(report.to_json(args.limit), indent=2, allow_nan=False))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """``serve``: run the asyncio query service behind the TCP endpoint.

    Builds the classifier for the selected dataset/snapshot, wires a
    :class:`repro.obs.Recorder` (so the ``metrics`` op reports live
    ``serve`` counters), and serves framed and newline-JSON requests
    until interrupted -- in this process, or across a worker pool with
    ``--serve-workers``.  See ``docs/serving.md`` for the wire protocol
    and the batching/backpressure knobs.
    """
    import asyncio

    from . import config
    from .obs import Recorder
    from .serve import QueryService, serve_forever

    if args.max_delay_ms < 0:
        raise CLIError("--max-delay-ms must be >= 0")
    try:
        serve_workers = config.serve_workers(args.serve_workers)
    except ValueError as exc:
        raise CLIError(str(exc)) from exc
    classifier = _build(args)
    service_options = {
        "max_batch": args.max_batch,
        "max_delay_s": args.max_delay_ms / 1e3,
        "queue_limit": args.queue_limit,
        "overflow": args.overflow,
        "timeout_s": args.timeout_ms / 1e3 if args.timeout_ms else None,
        "cache_size": args.cache_size,
    }
    if serve_workers > 1:
        return _serve_grid(args, classifier, service_options, serve_workers)
    service = QueryService(
        classifier,
        recorder=Recorder(),
        backend=args.engine,
        **service_options,
    )
    try:
        asyncio.run(serve_forever(service, args.host, args.port))
    except KeyboardInterrupt:
        print("interrupted; shutting down")
    return 0


def _serve_grid(
    args: argparse.Namespace,
    classifier: APClassifier,
    service_options: dict,
    replicas: int,
) -> int:
    """``serve --serve-workers N``: N workers accept on the public port
    themselves and this process only announces it and waits.  SIGTERM
    stops the pool the way Ctrl-C does, so no worker outlives this
    process.
    """
    import time

    from .artifact import ArtifactError
    from .obs import Recorder
    from .serve import ServeGrid

    try:
        grid = ServeGrid(
            classifier,
            replicas=replicas,
            host=args.host,
            port=args.port,
            backend=args.engine,
            service_options=service_options,
            recorder=Recorder(),
        )
    except (ArtifactError, ValueError) as exc:
        raise CLIError(f"cannot build the serving grid: {exc}") from exc

    try:
        # Before the first member exists, so a SIGTERM that arrives
        # while the grid starts still stops it.
        signal.signal(signal.SIGTERM, signal.default_int_handler)
        try:
            grid.start()
        except (RuntimeError, OSError) as exc:
            raise CLIError(f"cannot start the serving grid: {exc}") from exc
        print(json.dumps({
            "listening": [args.host, grid.port],
            "workers": replicas,
            "protocols": ["framed", "json"],
        }), flush=True)
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        print("interrupted; shutting down")
    finally:
        grid.stop()
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    """``scenarios``: the registry catalog as strict JSON.

    Without an argument, one array entry per registered scenario (name,
    description, stress axis, typed params with defaults). With a
    ``name[:key=val,...]`` spec, the single bound scenario -- so scripts
    can check how a param string resolves before paying for a build.
    Unknown names and params follow the standard error contract (one
    ``error:`` line, exit code 2).
    """
    from .datasets import describe_scenarios

    if args.name:
        payload: object = _get_scenario(args.name).describe()
    else:
        payload = describe_scenarios()
    print(json.dumps(payload, indent=2, allow_nan=False, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ap-classifier",
        description="Network-wide packet behavior identification (AP Classifier).",
    )
    parser.add_argument(
        "--strategy",
        default="oapt",
        choices=("random", "best_from_random", "quick_ordering", "oapt"),
        help="AP Tree construction strategy (default: oapt)",
    )
    # The metavar controls the usage listing; "snapshot" stays
    # registered below as a hidden legacy alias of `save --format network`.
    sub = parser.add_subparsers(
        dest="command",
        required=True,
        metavar="{stats,query,reachability,tree,verify,save,load,diff,whatif,"
        "serve,scenarios}",
    )

    def common(sub_parser: argparse.ArgumentParser) -> None:
        sub_parser.add_argument(
            "--dataset",
            default="internet2",
            help="scenario name, optionally with params: name[:key=val,...] "
            "(see `scenarios` for the catalog)",
        )
        sub_parser.add_argument(
            "--snapshot", default="", help="load the network from a JSON snapshot"
        )
        sub_parser.add_argument(
            "--artifact",
            default="",
            help="skip the build: load a classifier artifact saved by `save`",
        )
        # Accept the global option after the subcommand too.  SUPPRESS
        # keeps the subparser from overwriting a value already parsed at
        # the top level.
        sub_parser.add_argument(
            "--strategy",
            default=argparse.SUPPRESS,
            choices=("random", "best_from_random", "quick_ordering", "oapt"),
            help=argparse.SUPPRESS,
        )

    stats = sub.add_parser("stats", help="dataset and classifier statistics")
    common(stats)
    stats.add_argument(
        "--memory", action="store_true", help="include the memory breakdown"
    )
    stats.add_argument(
        "--instrument",
        action="store_true",
        help="run an observed workload and print the instrumentation "
        "snapshot as JSON instead of the table",
    )
    stats.set_defaults(func=_cmd_stats)

    query = sub.add_parser("query", help="identify one packet's behavior")
    common(query)
    query.add_argument("--dst-ip", required=True)
    query.add_argument("--src-ip", default="")
    query.add_argument("--dst-port", type=int, default=80)
    query.add_argument("--src-port", type=int, default=40000)
    query.add_argument("--proto", type=int, default=6)
    query.add_argument("--ingress", required=True)
    query.add_argument(
        "--trace",
        action="store_true",
        help="show the forwarding tree and AP Tree search trace",
    )
    query.set_defaults(func=_cmd_query)

    reach = sub.add_parser(
        "reachability", help="all-pairs (ingress, host) class counts"
    )
    common(reach)
    reach.set_defaults(func=_cmd_reachability)

    tree = sub.add_parser("tree", help="AP Tree shape statistics")
    common(tree)
    tree.set_defaults(func=_cmd_tree)

    verify = sub.add_parser(
        "verify", help="check loops/blackholes/waypoints from an ingress"
    )
    common(verify)
    verify.add_argument("--ingress", required=True)
    verify.add_argument("--waypoint", default="")
    verify.add_argument("--host", default="")
    verify.set_defaults(func=_cmd_verify)

    save = sub.add_parser(
        "save", help="persist the classifier (artifact) or network"
    )
    common(save)
    save.add_argument("--out", required=True)
    save.add_argument(
        "--format",
        choices=("artifact", "network"),
        default="artifact",
        help="artifact: binary compiled classifier (default); network: "
        "bare network JSON",
    )
    save.add_argument(
        "--engine",
        choices=("native", "numpy", "stdlib"),
        default=None,
        help="engine the compiled artifact is built with (default: "
        "REPRO_ENGINE, else best available)",
    )
    save.set_defaults(func=_cmd_save)

    load_parser = sub.add_parser(
        "load", help="summarize and check a persisted classifier"
    )
    load_parser.add_argument("path")
    load_parser.add_argument(
        "--deep-verify",
        action="store_true",
        help="fully restore and recompile the network to check every "
        "stored predicate BDD (slow, complete)",
    )
    load_parser.set_defaults(func=_cmd_load, dataset="(file)")

    # Hidden legacy alias: pre-`save` scripts used `snapshot` for the
    # bare network JSON.  Same behavior, absent from the usage line.
    snapshot = sub.add_parser("snapshot")
    common(snapshot)
    snapshot.add_argument("--out", required=True)
    snapshot.set_defaults(func=_cmd_snapshot)

    diff = sub.add_parser(
        "diff",
        help="which packets changed behavior between two generations "
        "(saved classifiers -> strict JSON, or network snapshots)",
    )
    diff.add_argument(
        "generations",
        nargs="*",
        metavar="GENERATION",
        help="two saved classifier artifacts (`save`) to diff exactly "
        "via atom pairing",
    )
    diff.add_argument("--before", default="", help="baseline network snapshot JSON")
    diff.add_argument("--after", default="", help="changed network snapshot JSON")
    diff.add_argument("--ingress", required=True)
    diff.add_argument(
        "--limit",
        type=int,
        default=10,
        help="most changed classes shown (summary counters cover all)",
    )
    diff.set_defaults(func=_cmd_diff, dataset="(generations)")

    whatif = sub.add_parser(
        "whatif",
        help="diff a candidate rule change on a shadow fork, live "
        "classifier untouched (strict JSON)",
    )
    common(whatif)
    whatif.add_argument(
        "--add-rule",
        action="append",
        default=[],
        metavar="SPEC",
        help="candidate rule to add, as "
        "BOX:FIELD=VALUE/PLEN->PORT[,PORT...][@PRIO] "
        "(action `drop` discards; repeatable)",
    )
    whatif.add_argument(
        "--remove-rule",
        action="append",
        default=[],
        metavar="SPEC",
        help="candidate rule to remove, same spec syntax (repeatable)",
    )
    whatif.add_argument("--ingress", required=True)
    whatif.add_argument(
        "--limit",
        type=int,
        default=10,
        help="most changed classes shown (summary counters cover all)",
    )
    whatif.set_defaults(func=_cmd_whatif)

    serve = sub.add_parser(
        "serve",
        help="run the online query service (framed binary + newline-JSON "
        "over TCP)",
    )
    common(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (default: pick a free one)")
    serve.add_argument("--max-batch", type=int, default=128,
                       help="most requests coalesced per classify_batch call")
    serve.add_argument("--max-delay-ms", type=float, default=1.0,
                       help="longest a batch is held open while requests "
                       "keep arriving, in milliseconds (it closes at the "
                       "first event-loop pass that adds none)")
    serve.add_argument("--queue-limit", type=int, default=1024,
                       help="admission queue bound")
    serve.add_argument("--overflow", choices=("wait", "shed"), default="wait",
                       help="policy when the queue saturates: backpressure "
                       "callers (wait) or drop with an error (shed)")
    serve.add_argument("--timeout-ms", type=float, default=0.0,
                       help="per-request deadline; 0 disables")
    serve.add_argument("--serve-workers", type=int, default=None,
                       help="worker processes sharing the compiled "
                       "classifier via shared memory (default: the "
                       "REPRO_SERVE_WORKERS environment variable, else 1)")
    serve.add_argument("--engine", choices=("native", "numpy", "stdlib"),
                       default=None,
                       help="classification engine for the compiled "
                       "artifact; an explicit choice fails if unavailable "
                       "(default: REPRO_ENGINE, else best available)")
    serve.add_argument("--cache-size", type=int, default=0,
                       help="hot-header result cache capacity; 0 (default) "
                       "disables the cache")
    serve.set_defaults(func=_cmd_serve)

    scenarios = sub.add_parser(
        "scenarios",
        help="list registered scenarios and their params (strict JSON)",
    )
    scenarios.add_argument(
        "name",
        nargs="?",
        default="",
        help="describe one scenario; accepts name:key=val,... to show "
        "the bound values",
    )
    scenarios.set_defaults(func=_cmd_scenarios, dataset="(registry)")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Parse and dispatch; operational failures become one-line errors.

    Returns the subcommand's exit status, or 2 after printing
    ``error: <message>`` to stderr for a :class:`CLIError` -- scripts
    get a stable non-zero code and a single greppable line instead of a
    traceback.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
