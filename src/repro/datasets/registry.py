"""The scenario registry: one typed, seedable API over every dataset.

Every benchmark and CLI entry point used to bake in its own dataset
calls -- a hardcoded dict here, a fixture pair there, each with its own
seeding habits (bare ``random.Random`` objects passed positionally, no
convention for which seed owns what). The registry replaces that with
one surface:

* :func:`get_scenario` / :func:`list_scenarios` -- look up a
  :class:`Scenario` by name with typed, validated keyword params;
* :class:`Scenario` -- the network factory, its
  :class:`~repro.headerspace.fields.HeaderLayout`, the canonical
  :class:`~repro.datasets.workloads.PacketTrace` workload, and the
  canonical update stream, all derived from a **single** ``seed``.

Seed convention: the master ``seed`` is handed unchanged to the network
generator (so ``get_scenario("internet2").network()`` is bit-identical
to the legacy ``internet2_like()`` and published BENCH numbers stay
comparable), while every workload RNG is seeded with
``derive_seed(seed, purpose)`` -- a SHA-256 derivation that is stable
across runs, platforms, and Python versions, and keeps independent
workloads from sharing a stream.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from ..core.atomic import AtomicUniverse
from ..headerspace.fields import HeaderLayout
from ..network.builder import Network
from .acl import acl_heavy
from .fattree import clos_ecmp, fattree
from .internet2 import internet2_like
from .ipv6_wan import ipv6_wan
from .sdn import sdn_policy
from .stanford import stanford_like
from .synthetic import toy_network
from .updates import RuleUpdate, rule_update_stream
from .workloads import PacketTrace, uniform_over_atoms

__all__ = [
    "Scenario",
    "ScenarioError",
    "derive_seed",
    "get_scenario",
    "list_scenarios",
    "describe_scenarios",
]


class ScenarioError(ValueError):
    """Unknown scenario name, unknown param, or a bad param value."""


def derive_seed(seed: int, purpose: str) -> int:
    """A 64-bit sub-seed for ``purpose``, stable across platforms.

    SHA-256 of ``"{seed}:{purpose}"`` -- unlike ``hash()``, never
    randomized per process, so the derived RNG streams are reproducible
    anywhere the same master seed is used.
    """
    digest = hashlib.sha256(f"{seed}:{purpose}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class _Param:
    """One typed scenario parameter; the type is the default's type."""

    default: Any
    doc: str

    @property
    def type(self) -> type:
        return type(self.default)


@dataclass(frozen=True)
class _Spec:
    """A registered scenario: factory plus its typed parameter surface."""

    name: str
    description: str
    stresses: str
    build: Callable[..., Network]
    params: Mapping[str, _Param]
    default_seed: int
    seeded: bool = True  # whether the factory accepts a ``seed`` kwarg


class Scenario:
    """A resolved scenario: bound params + the canonical workloads.

    The network is built lazily and cached; traces and update streams
    use purpose-derived RNGs (see :func:`derive_seed`), so calling
    ``trace`` twice with the same arguments gives the same packets and
    the update stream never perturbs the trace.
    """

    def __init__(self, spec: _Spec, params: dict[str, Any], seed: int) -> None:
        self._spec = spec
        self.name = spec.name
        self.description = spec.description
        self.params = dict(params)
        self.seed = seed
        self._network: Network | None = None

    def rng(self, purpose: str) -> random.Random:
        """A fresh RNG for ``purpose``, derived from the master seed."""
        return random.Random(derive_seed(self.seed, purpose))

    def network(self) -> Network:
        """The scenario's network (built once, cached).

        Every call returns the same :class:`Network` object, and rule
        updates mutate it in place: two classifiers built from one
        ``Scenario`` share forwarding tables, so an update applied
        through one changes the other's network too.  Call
        :func:`get_scenario` once per classifier to keep them apart.
        """
        if self._network is None:
            kwargs = dict(self.params)
            if self._spec.seeded:
                kwargs["seed"] = self.seed
            self._network = self._spec.build(**kwargs)
        return self._network

    @property
    def layout(self) -> HeaderLayout:
        return self.network().layout

    def trace(self, universe: AtomicUniverse, count: int = 2000) -> PacketTrace:
        """The canonical query trace: uniform over the universe's atoms."""
        return uniform_over_atoms(universe, count, self.rng("trace"))

    def update_stream(
        self, count: int = 200, insert_fraction: float = 0.5
    ) -> list[RuleUpdate]:
        """The canonical churn stream against this scenario's network."""
        return rule_update_stream(
            self.network(), count, self.rng("updates"), insert_fraction
        )

    def describe(self) -> dict[str, Any]:
        """A JSON-able summary (the ``repro scenarios`` row)."""
        return {
            "name": self.name,
            "description": self.description,
            "stresses": self._spec.stresses,
            "seed": self.seed,
            "params": {
                name: {
                    "type": param.type.__name__,
                    "default": param.default,
                    "value": self.params[name],
                    "doc": param.doc,
                }
                for name, param in self._spec.params.items()
            },
        }


_REGISTRY: dict[str, _Spec] = {}


def _register(
    name: str,
    description: str,
    stresses: str,
    build: Callable[..., Network],
    params: dict[str, _Param],
    default_seed: int,
    seeded: bool = True,
) -> None:
    _REGISTRY[name] = _Spec(
        name, description, stresses, build, params, default_seed, seeded
    )


def list_scenarios() -> list[str]:
    """All registered scenario names, sorted."""
    return sorted(_REGISTRY)


def describe_scenarios() -> list[dict[str, Any]]:
    """Default-param descriptions of every scenario, sorted by name."""
    return [get_scenario(name).describe() for name in list_scenarios()]


def get_scenario(name: str, **params: Any) -> Scenario:
    """Look up ``name`` and bind ``params`` (plus optional ``seed``).

    Raises :class:`ScenarioError` for an unknown name, an unknown param,
    or a value that does not coerce to the param's declared type.
    String values are coerced (so CLI ``key=val`` pairs work directly);
    everything else must already have the right type.
    """
    spec = _REGISTRY.get(name)
    if spec is None:
        raise ScenarioError(
            f"unknown scenario {name!r}; choose from {list_scenarios()}"
        )
    seed = params.pop("seed", spec.default_seed)
    seed = _coerce(name, "seed", _Param(spec.default_seed, "master seed"), seed)
    resolved = {key: param.default for key, param in spec.params.items()}
    for key, value in params.items():
        if key not in spec.params:
            raise ScenarioError(
                f"unknown param {key!r} for scenario {name!r}; "
                f"choose from {sorted(spec.params) + ['seed']}"
            )
        resolved[key] = _coerce(name, key, spec.params[key], value)
    return Scenario(spec, resolved, seed)


def _coerce(scenario: str, key: str, param: _Param, value: Any) -> Any:
    kind = param.type
    if isinstance(value, str):
        try:
            return kind(value)
        except ValueError:
            raise ScenarioError(
                f"param {key!r} of scenario {scenario!r} expects "
                f"{kind.__name__}, got {value!r}"
            ) from None
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ScenarioError(
            f"param {key!r} of scenario {scenario!r} expects "
            f"{kind.__name__}, got {value!r}"
        )
    return value


_register(
    "internet2",
    "Internet2/Abilene-like IPv4 backbone (the paper's first dataset)",
    "baseline WAN: LPM-only predicates, paper-comparable atom counts",
    internet2_like,
    {
        "prefixes_per_router": _Param(4, "customer /16s per router"),
        "te_fraction": _Param(0.25, "fraction of prefixes with a /24 TE exception"),
    },
    default_seed=2015,
)
_register(
    "stanford",
    "Stanford-like 5-tuple campus with zone ACLs (the paper's second dataset)",
    "ACL predicates + 104-bit headers, template sharing across zones",
    stanford_like,
    {
        "subnets_per_zone": _Param(4, "customer /24s per zone"),
        "host_ports_per_zone": _Param(2, "host-facing ports per zone"),
        "acl_zone_fraction": _Param(0.5, "fraction of zones with ACLs"),
        "acl_rules_per_list": _Param(4, "first-match depth per ACL"),
        "acl_templates": _Param(3, "distinct ACL bodies shared across zones"),
        "te_fraction": _Param(0.2, "fraction of subnets with TE exceptions"),
    },
    default_seed=2017,
)
_register(
    "toy",
    "Two-box teaching example (docs and smoke tests)",
    "nothing; it is the minimal end-to-end check",
    toy_network,
    {},
    default_seed=0,
    seeded=False,
)
_register(
    "fattree",
    "k-ary fat-tree datacenter fabric, deterministic single-path routing",
    "predicate/atom growth with k; datacenter path shapes",
    fattree,
    {
        "k": _Param(4, "fat-tree arity (even)"),
        "hosts_per_edge": _Param(1, "hosts per edge switch"),
    },
    default_seed=0,
    seeded=False,
)
_register(
    "clos-ecmp",
    "k-ary Clos fabric with multipath (ECMP) uplink groups",
    "stage-2 multicast/multipath R-sets; one rule, many out ports",
    clos_ecmp,
    {
        "k": _Param(4, "Clos arity (even)"),
        "hosts_per_edge": _Param(1, "hosts per edge switch"),
        "ecmp_width": _Param(0, "uplinks per multipath group (0 = all k/2)"),
    },
    default_seed=0,
    seeded=False,
)
_register(
    "acl-heavy",
    "Hazelhurst-style firewall corpus: dense overlapping first-match ACLs",
    "worst-case atom counts: super-linear atoms per predicate",
    acl_heavy,
    {
        "lists": _Param(8, "filtered customer ports (distinct ACL chains)"),
        "rules_per_list": _Param(10, "first-match depth per chain"),
        "overlap": _Param(0.8, "fraction of rules drawn from the shared hot region"),
        "port_rule_fraction": _Param(0.3, "hot rules matching dst-port ranges"),
    },
    default_seed=2019,
)
_register(
    "ipv6-wan",
    "Internet2-shaped backbone at IPv6 width (128-bit dst_ip6)",
    "BDD variable count (4x the v4 WAN) and artifact size",
    ipv6_wan,
    {
        "prefixes_per_router": _Param(4, "customer /48s per router"),
        "te_fraction": _Param(0.25, "fraction of prefixes with a /56 TE exception"),
    },
    default_seed=2021,
)
_register(
    "sdn-policy",
    "SDN leaf/spine with nmeta-style policy ACLs at the access edge",
    "serve + incremental together: packet-in queries under policy churn",
    sdn_policy,
    {
        "leaves": _Param(4, "leaf switches"),
        "policies": _Param(3, "distinct policy-ACL templates"),
        "guest_subnets": _Param(2, "guest /24s denied per template"),
    },
    default_seed=2022,
)
