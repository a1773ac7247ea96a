"""Network-wide invariant verification on top of AP Classifier.

The paper's Section I applications -- verification of flow properties,
attack detection, fault localization -- all reduce to evaluating the
behavior of *every* atomic predicate, because the atoms partition the
header space: checking each atom once checks every possible packet.
This module packages those sweeps as an API:

* reachability between boxes/hosts (as sets of atoms, convertible to
  predicates over concrete header fields);
* loop and blackhole detection;
* waypoint enforcement ("all packets from A to B traverse the firewall");
* pairwise isolation ("no packet reaches both tenants").

This is the AP-Verifier-style whole-network analysis the paper contrasts
itself against (Section II) -- included both as a baseline capability and
because AP Classifier makes it cheap: one stage-2 walk per atom.
"""

from __future__ import annotations

from dataclasses import dataclass

from .atomic import AtomicUniverse
from .behavior import Behavior, BehaviorComputer
from ..network.dataplane import DataPlane

__all__ = ["NetworkVerifier", "WaypointViolation"]


@dataclass(frozen=True)
class WaypointViolation:
    """One packet class that reaches the destination around the waypoint."""

    atom_id: int
    path: tuple[str, ...]


class NetworkVerifier:
    """Exhaustive per-atom behavior analysis from a fixed ingress."""

    def __init__(self, dataplane: DataPlane, universe: AtomicUniverse) -> None:
        self.dataplane = dataplane
        self.universe = universe
        self._computer = BehaviorComputer(dataplane, universe)
        self._cache: dict[tuple[int, str, str | None], Behavior] = {}

    @classmethod
    def from_classifier(cls, classifier) -> "NetworkVerifier":
        return cls(classifier.dataplane, classifier.universe)

    def _behavior(
        self, atom_id: int, ingress: str, in_port: str | None = None
    ) -> Behavior:
        key = (atom_id, ingress, in_port)
        cached = self._cache.get(key)
        if cached is None:
            cached = self._computer.compute(atom_id, ingress, in_port)
            self._cache[key] = cached
        return cached

    def invalidate(self) -> None:
        """Drop cached behaviors (call after any data plane change)."""
        self._cache.clear()

    # ------------------------------------------------------------------
    # Reachability
    # ------------------------------------------------------------------

    def atoms_reaching_host(self, ingress: str, host: str) -> frozenset[int]:
        """Packet classes that, injected at ``ingress``, reach ``host``."""
        return frozenset(
            atom_id
            for atom_id in self.universe.atom_ids()
            if host in self._behavior(atom_id, ingress).delivered_hosts()
        )

    def atoms_traversing(self, ingress: str, box: str) -> frozenset[int]:
        """Packet classes whose forwarding trees include ``box``."""
        return frozenset(
            atom_id
            for atom_id in self.universe.atom_ids()
            if box in self._behavior(atom_id, ingress).boxes_traversed()
        )

    def reachability_matrix(self) -> dict[tuple[str, str], frozenset[int]]:
        """(ingress box, host) -> atoms delivered; the network-wide map."""
        hosts = [host for _, host in self.dataplane.network.topology.hosts()]
        matrix: dict[tuple[str, str], frozenset[int]] = {}
        for ingress in sorted(self.dataplane.network.boxes):
            for host in hosts:
                matrix[(ingress, host)] = self.atoms_reaching_host(ingress, host)
        return matrix

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------

    def find_loops(self, ingress: str) -> frozenset[int]:
        """Packet classes that loop when injected at ``ingress``."""
        return frozenset(
            atom_id
            for atom_id in self.universe.atom_ids()
            if self._behavior(atom_id, ingress).has_loop
        )

    def find_blackholes(self, ingress: str) -> frozenset[int]:
        """Packet classes delivered nowhere from ``ingress`` (dropped or
        looped), i.e. candidates for forwarding-correctness review."""
        return frozenset(
            atom_id
            for atom_id in self.universe.atom_ids()
            if self._behavior(atom_id, ingress).is_dropped_everywhere
        )

    def verify_waypoint(
        self, ingress: str, host: str, waypoint: str
    ) -> list[WaypointViolation]:
        """Check every packet class from ``ingress`` to ``host`` passes
        ``waypoint``; returns the violations (empty = property holds)."""
        violations: list[WaypointViolation] = []
        for atom_id in sorted(self.atoms_reaching_host(ingress, host)):
            behavior = self._behavior(atom_id, ingress)
            if waypoint in behavior.boxes_traversed():
                continue
            offending = next(
                (
                    tuple(path)
                    for path in behavior.paths()
                    if path and path[-1] == host
                ),
                tuple(behavior.paths()[0]) if behavior.paths() else (),
            )
            violations.append(WaypointViolation(atom_id=atom_id, path=offending))
        return violations

    def verify_isolation(
        self, ingress: str, host_a: str, host_b: str
    ) -> frozenset[int]:
        """Packet classes from ``ingress`` delivered to BOTH hosts
        (empty = the two endpoints are isolated)."""
        return self.atoms_reaching_host(ingress, host_a) & self.atoms_reaching_host(
            ingress, host_b
        )

    def describe_atom(self, atom_id: int, max_cubes: int = 3) -> str:
        """A human-readable witness for an atom: a few header cubes."""
        layout = self.dataplane.layout
        fn = self.universe.atom_fn(atom_id)
        pieces = []
        for index, cube in enumerate(fn.iter_cubes()):
            if index >= max_cubes:
                pieces.append("...")
                break
            constraints = []
            for field in layout.fields:
                first = field.var_offset
                bits = [
                    (var - first, polarity)
                    for var, polarity in cube.items()
                    if first <= var < first + field.width
                ]
                if not bits:
                    continue
                mask = 0
                value = 0
                for position, polarity in bits:
                    mask |= 1 << (field.width - 1 - position)
                    if polarity:
                        value |= 1 << (field.width - 1 - position)
                constraints.append(f"{field.name}&{mask:#x}=={value:#x}")
            pieces.append(" & ".join(constraints) if constraints else "any")
        return f"a{atom_id}: " + " | ".join(pieces)
