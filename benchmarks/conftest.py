"""Shared fixtures for the evaluation benchmarks.

Two bench-scale datasets are built once per session:

* ``i2`` -- Internet2-like at 14 prefixes/router: 159 predicates (paper:
  161), ~136 atoms, OAPT depth ~11 (paper: 10.6);
* ``stan`` -- Stanford-like at 16 subnets x 8 ports/zone: ~210 predicates
  (paper: 507 at full scale), ~2000 atoms, OAPT depth ~15 (paper: 16.8).

Both are resolved through the scenario registry
(:func:`repro.datasets.get_scenario`), as is the ``--scenario`` knob:
pass ``--scenario name[:key=val,...]`` to point any scenario-aware bench
(e.g. the serve churn-storm leg) at any registered workload. The i2/stan
parameter choices and their ``random.Random(17)`` trace are kept
bit-identical to the pre-registry fixtures so published BENCH JSON stays
comparable.

Every bench prints its table/series through :func:`emit`, which also
writes ``benchmarks/results/<name>.txt`` so results survive pytest's
output capture.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro import config
from repro.core.atomic import AtomicUniverse
from repro.core.classifier import APClassifier
from repro.datasets import Scenario, get_scenario, uniform_over_atoms
from repro.datasets.workloads import PacketTrace
from repro.network.dataplane import DataPlane
from repro.obs import validate_snapshot

RESULTS_DIR = Path(__file__).parent / "results"

TRACE_LEN = 2000


def pytest_addoption(parser):
    """``--quick``: trimmed bench parameters for CI smoke legs.

    Works because pytest loads the conftests of directories named on the
    command line *before* parsing options -- so this registers in time
    whenever a bench under ``benchmarks/`` is invoked directly.
    """
    parser.addoption(
        "--quick",
        action="store_true",
        default=False,
        help="run benches with reduced iteration counts (CI smoke)",
    )
    parser.addoption(
        "--scenario",
        default="",
        help="run scenario-aware benches on this registry scenario "
        "(name[:key=val,...], see `repro scenarios`)",
    )


@pytest.fixture(scope="session")
def quick(request) -> bool:
    return request.config.getoption("--quick")


#: Instrumentation sidecars are opt-in: the figure benches replay a small
#: observed workload *after* their measured sections and write
#: ``results/<name>.obs.json`` only when this is set (see README).
OBS_SIDECARS = config.obs_sidecar()


@dataclass
class BenchDataset:
    """Everything a bench needs about one dataset."""

    name: str
    network: object
    dataplane: DataPlane
    universe: AtomicUniverse
    classifier: APClassifier
    trace: PacketTrace
    #: The registry scenario this bundle came from (recorder tagging,
    #: canonical update streams).
    scenario: Scenario | None = None

    @property
    def headers(self) -> tuple[int, ...]:
        return self.trace.headers


def scenario_from_spec(spec: str) -> Scenario:
    """Resolve a CLI-style ``name[:key=val,...]`` spec via the registry."""
    name, _, param_text = spec.partition(":")
    params: dict[str, str] = {}
    if param_text:
        for pair in param_text.split(","):
            key, eq, value = pair.partition("=")
            if not eq or not key.strip():
                raise ValueError(
                    f"malformed scenario param {pair!r} in {spec!r} "
                    "(expected key=value)"
                )
            params[key.strip()] = value.strip()
    return get_scenario(name, **params)


def _bundle(
    name: str, scenario: Scenario, trace_rng: random.Random | None = None
) -> BenchDataset:
    """Build one scenario end to end.

    ``trace_rng`` overrides the scenario's seed-derived trace RNG; the
    legacy fixtures pass ``random.Random(17)`` to keep their published
    numbers comparable.
    """
    classifier = APClassifier.build(scenario.network(), strategy="oapt")
    if trace_rng is None:
        trace = scenario.trace(classifier.universe, TRACE_LEN)
    else:
        trace = uniform_over_atoms(classifier.universe, TRACE_LEN, trace_rng)
    return BenchDataset(
        name=name,
        network=scenario.network(),
        dataplane=classifier.dataplane,
        universe=classifier.universe,
        classifier=classifier,
        trace=trace,
        scenario=scenario,
    )


def bundle_scenario(spec: str) -> BenchDataset:
    """A :class:`BenchDataset` for a ``--scenario`` spec string."""
    scenario = scenario_from_spec(spec)
    return _bundle(scenario.name, scenario)


@pytest.fixture(scope="session")
def scenario_spec(request) -> str:
    return request.config.getoption("--scenario")


@pytest.fixture(scope="session")
def scenario_dataset(scenario_spec) -> BenchDataset:
    """The ``--scenario`` workload, built once; skip when none was given."""
    if not scenario_spec:
        pytest.skip("pass --scenario name[:key=val,...] to run this bench")
    return bundle_scenario(scenario_spec)


@pytest.fixture(scope="session")
def i2() -> BenchDataset:
    return _bundle(
        "internet2-like",
        get_scenario("internet2", prefixes_per_router=14),
        trace_rng=random.Random(17),
    )


@pytest.fixture(scope="session")
def stan() -> BenchDataset:
    return _bundle(
        "stanford-like",
        get_scenario(
            "stanford",
            subnets_per_zone=16,
            host_ports_per_zone=8,
            acl_templates=5,
            te_fraction=0.15,
        ),
        trace_rng=random.Random(17),
    )


@pytest.fixture(scope="session")
def datasets(i2, stan) -> list[BenchDataset]:
    return [i2, stan]


def emit(name: str, text: str) -> None:
    """Print a result table and persist it under benchmarks/results/."""
    print(f"\n{text}\n")
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def emit_json(name: str, payload: dict) -> Path:
    """Persist a machine-readable result as strict JSON (no NaN/Infinity)."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2, allow_nan=False) + "\n")
    return path


def emit_obs(name: str, recorder) -> Path | None:
    """Write a recorder's snapshot sidecar when REPRO_OBS_SIDECAR is set.

    The snapshot is validated against the published schema first, so a
    drifting emitter fails the bench instead of shipping bad sidecars.
    """
    if not OBS_SIDECARS:
        return None
    snapshot = validate_snapshot(recorder.snapshot())
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.obs.json"
    path.write_text(json.dumps(snapshot, indent=2, allow_nan=False) + "\n")
    return path
