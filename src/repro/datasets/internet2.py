"""Internet2-like synthetic data plane.

The paper's first dataset is the Internet2 backbone snapshot: 9 routers,
126,017 IPv4 forwarding rules, no ACLs, reducing to 161 predicates
(Table I).  That snapshot is not redistributable here, so this generator
builds a structurally equivalent stand-in:

* the real 9-node Abilene/Internet2 backbone topology;
* destination-prefix (LPM) forwarding only, over a 32-bit ``dst_ip``
  header -- exactly the rule shape of the original;
* each router originates a set of customer /16 prefixes, each served by
  its own customer port (so the number of *predicates* -- output ports
  with traffic -- is controlled by ``prefixes_per_router``);
* shortest-path routes toward every prefix from every router, so most
  predicates are unions of whole prefix groups;
* a configurable fraction of "traffic-engineered" /24 exceptions routed to
  a different router, which is what gives real backbones their
  non-hierarchical equivalence classes.

With the default parameters the generated plane has ~150 predicates and
atoms on the same order as the paper's 161 predicates, at rule counts
sized for seconds-scale experiments (scale ``prefixes_per_router`` up
for stress runs; predicates grow with it, since every prefix has its
own port).
"""

from __future__ import annotations

import random
from collections import deque

from ..headerspace.fields import dst_ip_layout
from ..network.builder import Network
from ..network.rules import Match

__all__ = ["internet2_like", "INTERNET2_ROUTERS", "INTERNET2_LINKS"]

INTERNET2_ROUTERS = (
    "ATLA",
    "CHIC",
    "HOUS",
    "KANS",
    "LOSA",
    "NEWY",
    "SALT",
    "SEAT",
    "WASH",
)

#: The classic Abilene backbone adjacency.
INTERNET2_LINKS = (
    ("SEAT", "SALT"),
    ("SEAT", "LOSA"),
    ("LOSA", "SALT"),
    ("LOSA", "HOUS"),
    ("SALT", "KANS"),
    ("KANS", "HOUS"),
    ("KANS", "CHIC"),
    ("HOUS", "ATLA"),
    ("CHIC", "ATLA"),
    ("CHIC", "NEWY"),
    ("ATLA", "WASH"),
    ("NEWY", "WASH"),
)


def _shortest_next_hops(adjacency: dict[str, list[str]]) -> dict[tuple[str, str], str]:
    """(source, destination) -> neighbor on a shortest path.

    BFS per destination with alphabetical tie-breaking, so routing is
    deterministic across runs.
    """
    next_hop: dict[tuple[str, str], str] = {}
    for destination in adjacency:
        parent: dict[str, str] = {destination: destination}
        queue = deque([destination])
        while queue:
            current = queue.popleft()
            for neighbor in sorted(adjacency[current]):
                if neighbor not in parent:
                    parent[neighbor] = current
                    queue.append(neighbor)
        for source in adjacency:
            if source == destination or source not in parent:
                continue
            next_hop[(source, destination)] = parent[source]
    return next_hop


def internet2_like(
    prefixes_per_router: int = 4,
    te_fraction: float = 0.25,
    seed: int = 2015,
) -> Network:
    """Build the Internet2-like network.

    ``prefixes_per_router`` customer /16s per router, each on its own
    customer port; ``te_fraction`` of prefixes also get a /24 exception
    homed at a different router.
    """
    if prefixes_per_router <= 0:
        raise ValueError("prefixes_per_router must be positive")
    rng = random.Random(seed)
    network = Network(dst_ip_layout(), name="internet2-like")
    adjacency: dict[str, list[str]] = {name: [] for name in INTERNET2_ROUTERS}
    for left, right in INTERNET2_LINKS:
        adjacency[left].append(right)
        adjacency[right].append(left)

    for name in INTERNET2_ROUTERS:
        network.add_box(name)
    for left, right in INTERNET2_LINKS:
        network.link(left, f"to_{right}", right, f"to_{left}")
        network.link(right, f"to_{left}", left, f"to_{right}")

    next_hop = _shortest_next_hops(adjacency)

    # Prefix plan: 10.<index>.0.0/16, owner round-robin over routers, each
    # prefix homed on its own customer port of the owner.
    prefixes: list[tuple[int, int, str, str]] = []  # (value, plen, owner, port)
    index = 1
    for position in range(prefixes_per_router):
        for owner in INTERNET2_ROUTERS:
            value = (10 << 24) | (index << 16)
            port = f"cust{position}"
            prefixes.append((value, 16, owner, port))
            index += 1

    # Traffic-engineered /24 exceptions: a sub-prefix homed elsewhere.
    exceptions: list[tuple[int, int, str, str]] = []
    for value, plen, owner, _port in prefixes:
        if rng.random() >= te_fraction:
            continue
        other = rng.choice([r for r in INTERNET2_ROUTERS if r != owner])
        sub_value = value | (rng.randrange(1, 255) << 8)
        exceptions.append((sub_value, 24, other, "te0"))

    # Attach hosts and install routes: every router routes every prefix.
    host_ports: set[tuple[str, str]] = set()
    for value, plen, owner, port in prefixes + exceptions:
        if (owner, port) not in host_ports:
            host_ports.add((owner, port))
            network.attach_host(owner, port, f"net_{owner}_{port}")
        for router in INTERNET2_ROUTERS:
            if router == owner:
                out_port = port
            else:
                out_port = f"to_{next_hop[(router, owner)]}"
            network.add_forwarding_rule(
                router,
                Match.prefix("dst_ip", value, plen),
                out_port,
                priority=plen,
            )
    return network
