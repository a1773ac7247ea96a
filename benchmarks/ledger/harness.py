"""Shared pieces of the perf ledger: spans, statistics, provenance, set-up.

Everything here wraps *public* functions of ``repro``; nothing reaches
into a module's private names, and nothing under ``src/`` is touched.
``run.py`` puts ``src/`` on ``sys.path`` before importing this module.
"""

from __future__ import annotations

import contextvars
import json
import os
import platform
import statistics
import subprocess
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from repro import cli
from repro.bdd.manager import BDDManager
from repro.core import kernel
from repro.core.atomic import AtomicUniverse
from repro.core.classifier import APClassifier
from repro.core.construction import build_tree
from repro.datasets import get_scenario
from repro.network.dataplane import DataPlane

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------

_CURRENT: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "ledger_span", default=None
)


class Tracer:
    """Spans kept in memory as ``[name, start, end, parent, request]``.

    The enclosing span is tracked per asyncio task (a context variable),
    so two concurrent callers never adopt each other's spans.  A child
    inherits its parent's request id.  While ``enabled`` is false
    :meth:`span` records nothing -- that is the untraced run.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[list] = []

    @contextmanager
    def span(self, name: str, request: int | None = None):
        if not self.enabled:
            yield
            return
        index = self._open(name, time.perf_counter(), request)
        token = _CURRENT.set(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            _CURRENT.reset(token)

    def record(self, name: str, start: float, seconds: float) -> None:
        """A finished child of the current span, from a reported duration."""
        if self.enabled:
            self.spans[self._open(name, start, None)][2] = start + seconds

    def _open(self, name: str, start: float, request: int | None) -> int:
        parent = _CURRENT.get()
        if request is None and parent is not None:
            request = self.spans[parent][4]
        self.spans.append([name, start, None, parent, request])
        return len(self.spans) - 1

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _p, _r in self.spans if n == name]

    def median(self, name: str) -> float:
        """Median duration of the spans called ``name`` (0.0 when none ran)."""
        values = self.durations(name)
        return statistics.median(values) if values else 0.0

    def self_shares(self, name: str) -> list[float]:
        """Per span called ``name``: self time over duration.

        Self time is the span's duration minus what its children cover.
        """
        covered: dict[int, float] = {}
        for _n, start, end, parent, _r in self.spans:
            if parent is not None:
                covered[parent] = covered.get(parent, 0.0) + (end - start)
        return [
            1.0 - covered.get(index, 0.0) / (end - start)
            for index, (n, start, end, _p, _r) in enumerate(self.spans)
            if n == name and end > start
        ]

    def dump(self, path: Path) -> None:
        rows = [
            {"id": i, "name": n, "start": s, "end": e, "parent": p, "request": r}
            for i, (n, s, e, p, r) in enumerate(self.spans)
        ]
        path.write_text(json.dumps(rows))


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float]:
    """``(percentile, value)`` at the highest percentile with at least ten
    samples beyond it; the maximum when there are fewer than twenty."""
    ordered = sorted(values)
    beyond = 10 if len(ordered) >= 20 else 0
    index = len(ordered) - beyond - 1
    return 100.0 * (index + 1) / len(ordered), ordered[index]


def window_rate(stamps: list[float], units: int, start: float, seconds: float) -> float:
    """Median over whole one-second windows of units completed per second."""
    counts = [0] * max(1, int(seconds))
    for stamp in stamps:
        window = int(stamp - start)
        if 0 <= window < len(counts):
            counts[window] += units
    return statistics.median(counts)


@dataclass
class Measured:
    """One timed window of a workload's primary operation."""

    latencies: list[float] = field(default_factory=list)  # seconds, verified ops
    rate: float = 0.0  # verified work units per second
    attempted: int = 0
    failed: int = 0

    @property
    def p50_ms(self) -> float:
        return statistics.median(self.latencies) * 1e3


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------


def serve_flags() -> dict:
    """The CLI's default ``serve`` flags: what the child runs with, and
    what the in-process replay configures its ``QueryService`` from."""
    args = cli.build_parser().parse_args(["serve"])
    return {
        "max_batch": args.max_batch,
        "max_delay_ms": args.max_delay_ms,
        "queue_limit": args.queue_limit,
        "overflow": args.overflow,
        "timeout_ms": args.timeout_ms,
        "cache_size": args.cache_size,
    }


def _git(*argv: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), *argv],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance() -> dict:
    """Where a number was taken: stamped on every result record."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    status = _git("status", "--porcelain")
    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "engine": kernel.default_backend(),
        "commit": _git("rev-parse", "HEAD") or "not a git checkout",
        "dirty": bool(status) if status is not None else None,
        "serve_flags": serve_flags(),
        "load_shape": "1 load generator, 2 closed-loop connections, "
        "loopback 127.0.0.1, REPRO_* unset",
    }


# ----------------------------------------------------------------------
# Inputs and classifier set-up
# ----------------------------------------------------------------------


class Workload:
    """What ``run.py`` drives: ``setup``, ``measure`` (as often as asked),
    ``finish``, ``layers`` (traced runs), ``peak_rss_mb``, ``teardown``."""

    name: str
    scenario: tuple[str, dict]  # registry name and bound params
    #: ``(span, tolerance)``: the span's self time may be at most this
    #: share of it, else the traced run fails.
    reconcile: tuple[str, float] | None = None

    def __init__(self, seed: int, out: Path) -> None:
        self.seed = seed
        self.out = out

    def fixed(self):
        """The scenario at the registry's own seed: a fresh network and the
        canonical update stream.  ``--seed`` reaches only what is drawn on
        top of them (see README, "Seeds")."""
        return get_scenario(self.scenario[0], **self.scenario[1])

    def rng(self, purpose: str):
        """The registry's purpose-derived RNG for ``--seed``."""
        return get_scenario(self.scenario[0], seed=self.seed).rng(purpose)

    def teardown(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return rss_mb()

    def finish(self) -> tuple[int, int]:
        """``(checked, wrong)`` of the checks that wait for the end."""
        return 0, 0


def build_classifier(network, tracer: Tracer, recorder=None,
                     maintenance: str = "tombstone") -> APClassifier:
    """network -> compiled classifier, one span per offline stage.

    The same calls ``APClassifier.build`` makes serially, so the traced
    and the untraced run execute one code path.  With a ``recorder`` the
    BDD manager is observed from its first operation.
    """
    manager = None
    if recorder is not None:
        manager = BDDManager(network.layout.total_width)
        recorder.attach_manager(manager)
    with tracer.span("network.dataplane.convert"):
        dataplane = DataPlane(network, manager)
    with tracer.span("core.atomic.compute"):
        universe = AtomicUniverse.compute(dataplane.manager, dataplane.predicates())
    with tracer.span("core.construction.build_tree"):
        tree = build_tree(universe, strategy="oapt").tree
    classifier = APClassifier(
        dataplane, universe, tree, strategy="oapt", maintenance=maintenance
    )
    with tracer.span("core.compiled.compile"):
        classifier.compile()
    return classifier


def behavior_answer(behavior) -> dict:
    """The observable two-stage answer, in the wire's JSON shape."""
    return {
        "atom": behavior.atom_id,
        "paths": [list(path) for path in behavior.paths()],
        "delivered": sorted(behavior.delivered_hosts()),
        "drops": [[box, reason] for box, reason in behavior.drops()],
    }


def rss_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of a process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")
