"""Network snapshot serialization (JSON).

Persists a :class:`Network` -- layout, topology, forwarding rules, ACLs --
to a JSON document and back. Used to freeze dataset instances to disk
(e.g. to rerun an experiment on the exact plane a bug appeared on), and
to move a plane between processes without re-generating it.

The format is versioned and deliberately flat: one object per rule, no
cross-references, so snapshots stay diff-able and hand-editable.  The
layout's BDD variable order is written as ``var_order`` only when it is
not packing order; a document without it reads as packing order.
"""

from __future__ import annotations

import json
from typing import Any

from ..headerspace.fields import HeaderLayout
from .builder import Network
from .rules import AclRule, FieldMatch, ForwardingRule, Match
from .tables import Acl

__all__ = ["network_to_json", "network_from_json", "save_network", "load_network"]

FORMAT_VERSION = 1


def _match_to_obj(match: Match) -> list[dict[str, int | str]]:
    return [
        {"field": c.field, "value": c.value, "prefix_len": c.prefix_len}
        for c in match.constraints()
    ]


def _match_from_obj(items: list[dict[str, Any]]) -> Match:
    constraints = {
        item["field"]: FieldMatch(item["field"], item["value"], item["prefix_len"])
        for item in items
    }
    return Match(constraints)


def _acl_to_obj(acl: Acl) -> dict[str, Any]:
    return {
        "default_permit": acl.default_permit,
        "rules": [
            {"permit": rule.permit, "match": _match_to_obj(rule.match)}
            for rule in acl
        ],
    }


def _acl_from_obj(obj: dict[str, Any]) -> Acl:
    return Acl(
        [
            AclRule(_match_from_obj(rule["match"]), permit=rule["permit"])
            for rule in obj["rules"]
        ],
        default_permit=obj["default_permit"],
    )


def network_to_json(network: Network) -> str:
    """Serialize a network to a JSON string."""
    boxes = []
    for name in sorted(network.boxes):
        box = network.boxes[name]
        boxes.append(
            {
                "name": name,
                "rules": [
                    {
                        "match": _match_to_obj(rule.match),
                        "out_ports": list(rule.out_ports),
                        "priority": rule.priority,
                    }
                    for rule in box.table
                ],
                "input_acls": {
                    port: _acl_to_obj(acl) for port, acl in sorted(box.input_acls.items())
                },
                "output_acls": {
                    port: _acl_to_obj(acl)
                    for port, acl in sorted(box.output_acls.items())
                },
            }
        )
    layout = network.layout
    payload = {
        "version": FORMAT_VERSION,
        "name": network.name,
        "layout": [[field.name, field.width] for field in layout.fields],
    }
    if not layout.packing_var_order:
        payload["var_order"] = list(layout.var_order)
    payload.update({
        "boxes": boxes,
        "links": [
            {"src_box": src.box, "src_port": src.port,
             "dst_box": dst.box, "dst_port": dst.port}
            for src, dst in sorted(network.topology.links())
        ],
        "hosts": [
            {"box": ref.box, "port": ref.port, "host": host}
            for ref, host in sorted(network.topology.hosts())
        ],
    })
    return json.dumps(payload, indent=2)


def network_from_json(text: str) -> Network:
    """Rebuild a network from :func:`network_to_json` output."""
    payload = json.loads(text)
    version = payload.get("version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported snapshot version {version!r} "
            f"(this build reads version {FORMAT_VERSION})"
        )
    layout = HeaderLayout(
        [(name, width) for name, width in payload["layout"]],
        var_order=payload.get("var_order"),
    )
    network = Network(layout, name=payload["name"])
    for box_obj in payload["boxes"]:
        box = network.add_box(box_obj["name"])
        for rule_obj in box_obj["rules"]:
            box.table.add(
                ForwardingRule(
                    _match_from_obj(rule_obj["match"]),
                    tuple(rule_obj["out_ports"]),
                    rule_obj["priority"],
                )
            )
        for port, acl_obj in box_obj["input_acls"].items():
            box.set_input_acl(port, _acl_from_obj(acl_obj))
        for port, acl_obj in box_obj["output_acls"].items():
            box.set_output_acl(port, _acl_from_obj(acl_obj))
    for link in payload["links"]:
        network.link(
            link["src_box"], link["src_port"], link["dst_box"], link["dst_port"]
        )
    for host in payload["hosts"]:
        network.attach_host(host["box"], host["port"], host["host"])
    return network


def save_network(network: Network, path) -> None:
    """Write a network snapshot to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(network_to_json(network))


def load_network(path) -> Network:
    """Read a network snapshot from ``path``."""
    with open(path, "r", encoding="utf-8") as handle:
        return network_from_json(handle.read())
