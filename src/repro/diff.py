"""Differential and what-if queries over classifier generations.

The artifact machinery makes classifier versions first-class; this module
answers the question those versions beg: **which packets changed
behavior?**  Two generations partition the same header space into two
atom universes; intersecting them (every non-empty before-atom x
after-atom overlap) yields the *common refinement* -- the coarsest
partition uniform in both generations.  Each overlap region is one
answer cell: behavior before, behavior after, the region's BDD, and its
exact header-count volume via BDD model counting.

Three pairings are supported, all through :func:`diff_generations`:

* **live + live** -- two classifiers sharing one BDD manager (the cheap
  path: intersections are direct ``apply_and`` calls);
* **artifact + artifact** -- two independently loaded generations with
  *separate* managers; one side's atoms are re-serialized into the other
  side's manager (:mod:`repro.bdd.serialize`), after which the sweep is
  exactly the shared-manager sweep -- exact for arbitrary planes;
* **live + shadow** -- :func:`what_if` forks a *shadow* classifier
  through the artifact codec's classifier half (its own manager, its
  own tree), applies candidate rule changes through the incremental
  engine, and diffs against the untouched live generation.

Volumes are exact and additive: the overlap regions are pairwise
disjoint, so ``sum(entry.volume) == changed_volume`` counts precisely
the headers whose classification differs (property-tested against
brute-force enumeration on small universes).

Example::

    from repro.diff import diff_generations, what_if, parse_rule_spec
    report = diff_generations(before, after, ingress_box="SEAT")
    print(report.changed_volume, report.changed_share())
    box, rule = parse_rule_spec(
        "SEAT:dst_ip=10.3.0.0/24->to_SALT@24", before.dataplane.layout
    )
    answer = what_if(before, add=[(box, rule)], ingress_box="SEAT")
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from .artifact.codec import classifier_bytes, classifier_from_bytes
from .bdd.function import Function
from .bdd.serialize import dump_image, load_image
from .core.behavior import Behavior
from .core.classifier import APClassifier
from .core.delta import diff_behaviors, first_divergence
from .headerspace.fields import HeaderLayout, format_ipv4, parse_ipv4
from .network.rules import ForwardingRule, Match

__all__ = [
    "ChangedClass",
    "GenerationDiff",
    "WhatIfReport",
    "diff_generations",
    "fork_shadow",
    "what_if",
    "parse_rule_spec",
    "format_rule_spec",
]


# ----------------------------------------------------------------------
# Report structures
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ChangedClass:
    """One cell of the common refinement whose behavior changed.

    ``region`` lives in the manager the sweep ran in -- the *before*
    generation's for :func:`diff_generations`, the shadow's for
    :func:`what_if`; ``volume`` is its exact model count over the full
    header width.
    """

    before_atom: int
    after_atom: int
    region: Function
    volume: int
    witness: int
    before: Behavior
    after: Behavior
    diverges_at: str | None

    def describe(self) -> str:
        """One human-readable line: witness, divergence point, paths."""
        before_paths = [" -> ".join(p) for p in self.before.paths()]
        after_paths = [" -> ".join(p) for p in self.after.paths()]
        where = self.diverges_at if self.diverges_at is not None else "endpoint"
        return (
            f"witness {self.witness:#x} diverges at {where}: "
            f"{before_paths} != {after_paths}"
        )

    def to_json(self, layout: HeaderLayout, total_volume: int) -> dict:
        return {
            "before_atom": self.before_atom,
            "after_atom": self.after_atom,
            "volume": self.volume,
            "share": self.volume / total_volume,
            "witness": self.witness,
            "witness_fields": _witness_fields(layout, self.witness),
            "before": _behavior_json(self.before),
            "after": _behavior_json(self.after),
            "diverges_at": self.diverges_at,
        }


@dataclass
class GenerationDiff:
    """The full answer to "which packets changed behavior?".

    ``entries`` are pairwise-disjoint regions (cells of the common
    refinement of the two atom universes), so ``changed_volume`` is their
    exact sum and ``changed_share()`` the fraction of the header space
    whose behavior from ``ingress`` differs between the generations.
    """

    ingress: str
    num_vars: int
    total_volume: int
    changed_volume: int
    entries: list[ChangedClass]
    atoms_before: int
    atoms_after: int
    pairs_examined: int
    cross_manager: bool
    elapsed_s: float
    sat_count_s: float
    transfer_s: float
    layout: HeaderLayout = field(repr=False, compare=False, default=None)

    @property
    def is_empty(self) -> bool:
        """True iff no packet class changed behavior."""
        return not self.entries

    def changed_share(self) -> float:
        """Fraction of the header space whose behavior changed."""
        return self.changed_volume / self.total_volume

    def to_json(self, limit: int | None = None) -> dict:
        """Strict-JSON report (no NaN/Infinity; plain types only).

        ``limit`` caps the per-class entries (the summary counters always
        cover the full diff); ``classes_truncated`` says how many were cut.
        """
        entries = self.entries if limit is None else self.entries[:limit]
        return {
            "ingress": self.ingress,
            "num_vars": self.num_vars,
            "total_volume": self.total_volume,
            "changed_volume": self.changed_volume,
            "changed_share": self.changed_share(),
            "changed_classes": len(self.entries),
            "classes_truncated": len(self.entries) - len(entries),
            "atoms_before": self.atoms_before,
            "atoms_after": self.atoms_after,
            "pairs_examined": self.pairs_examined,
            "cross_manager": self.cross_manager,
            "elapsed_s": self.elapsed_s,
            "sat_count_s": self.sat_count_s,
            "transfer_s": self.transfer_s,
            "classes": [
                entry.to_json(self.layout, self.total_volume)
                for entry in entries
            ],
        }


@dataclass
class WhatIfReport:
    """A :func:`what_if` answer: the shadow's diff plus fork accounting."""

    diff: GenerationDiff
    applied: list[str]
    shadow_build_s: float
    apply_s: float

    def to_json(self, limit: int | None = None) -> dict:
        payload = self.diff.to_json(limit)
        payload["applied"] = list(self.applied)
        payload["shadow_build_s"] = self.shadow_build_s
        payload["apply_s"] = self.apply_s
        return payload


# ----------------------------------------------------------------------
# The diff sweep
# ----------------------------------------------------------------------


def diff_generations(
    before: APClassifier,
    after: APClassifier,
    ingress_box: str,
    in_port: str | None = None,
    *,
    rng: random.Random | None = None,
    recorder=None,
) -> GenerationDiff:
    """Diff two classifier generations from one ingress point.

    Enumerates every non-empty intersection of a before-atom with an
    after-atom (the common refinement of the two universes), computes
    each side's behavior once per atom, and reports every region whose
    behavior observably differs together with its exact sat-count
    volume.  When the generations live in different BDD managers (two
    loaded artifacts, or a live classifier against a loaded one), the
    after side's atoms are transferred into the before manager by
    re-serialization first -- the sweep itself is always exact.

    The sweep is guided by the before generation's own stage-1
    classifier rather than testing all ``atoms_before x atoms_after``
    pairs: each after-atom is *peeled* -- pick a witness header of what
    remains uncovered, classify it through the before AP tree to find
    the (unique) before-atom containing it, emit that overlap, subtract
    it, repeat.  Atoms partition the space, so the loop runs exactly
    once per non-empty pair: the cost is O(pairs x tree depth) instead
    of O(atoms^2), which is what makes diffing thousand-atom
    generations serveable online.

    ``rng`` picks witness headers inside changed regions (deterministic
    ``first_sat`` when omitted).  ``recorder`` is an optional
    :class:`repro.obs.Recorder`; the comparison lands in its ``diff``
    section.
    """
    return _sweep(
        before, after, ingress_box, in_port, rng, recorder,
        before.dataplane.manager,
    )


def _atoms_in(manager, classifier: APClassifier) -> list[tuple[int, Function]]:
    """``classifier``'s atoms, sorted by id, as functions of ``manager``."""
    atoms = sorted(classifier.universe.atoms().items())
    if classifier.dataplane.manager is manager:
        return atoms
    nodes = load_image(
        manager,
        dump_image(classifier.dataplane.manager, [fn.node for _, fn in atoms]),
    )
    return [
        (atom_id, Function(manager, node))
        for (atom_id, _), node in zip(atoms, nodes)
    ]


def _sweep(
    before: APClassifier,
    after: APClassifier,
    ingress_box: str,
    in_port: str | None,
    rng: random.Random | None,
    recorder,
    manager,
) -> GenerationDiff:
    """:func:`diff_generations`, building every BDD in ``manager``.

    ``manager`` is one of the two generations' managers; the other
    side's atoms are transferred into it.  The manager is append-only,
    so the sweep's nodes stay there for the manager's lifetime.
    """
    if before.dataplane.layout != after.dataplane.layout:
        raise ValueError(
            "cannot diff generations over different header layouts"
        )
    started = time.perf_counter()
    cross_manager = before.dataplane.manager is not after.dataplane.manager
    before_atoms = _atoms_in(manager, before)
    after_atoms = _atoms_in(manager, after)
    transfer_s = time.perf_counter() - started if cross_manager else 0.0

    before_fns = dict(before_atoms)
    before_cache: dict[int, Behavior] = {}
    after_cache: dict[int, Behavior] = {}
    entries: list[ChangedClass] = []
    pairs_examined = 0
    changed_volume = 0
    sat_count_s = 0.0
    for after_id, after_fn in after_atoms:
        # Peel the after-atom: whatever part of it is not yet accounted
        # for, a witness header of that part names (via the before AP
        # tree) the unique before-atom covering it.  Before-atoms
        # partition the space, so ``remaining`` strictly shrinks and
        # the loop body runs exactly once per non-empty overlap.
        remaining = after_fn
        while not remaining.is_false:
            witness = remaining.first_sat()
            before_id = before.classify(witness)
            before_fn = before_fns[before_id]
            overlap = remaining & before_fn
            remaining = remaining & ~before_fn
            pairs_examined += 1
            before_behavior = before_cache.get(before_id)
            if before_behavior is None:
                before_behavior = before_cache[before_id] = (
                    before.behavior_of_atom(before_id, ingress_box, in_port)
                )
            after_behavior = after_cache.get(after_id)
            if after_behavior is None:
                after_behavior = after_cache[after_id] = (
                    after.behavior_of_atom(after_id, ingress_box, in_port)
                )
            if not diff_behaviors(before_behavior, after_behavior):
                continue
            counting_started = time.perf_counter()
            volume = overlap.sat_count()
            sat_count_s += time.perf_counter() - counting_started
            changed_volume += volume
            entries.append(
                ChangedClass(
                    before_atom=before_id,
                    after_atom=after_id,
                    region=overlap,
                    volume=volume,
                    witness=(
                        overlap.random_sat(rng) if rng is not None else witness
                    ),
                    before=before_behavior,
                    after=after_behavior,
                    diverges_at=first_divergence(
                        before_behavior, after_behavior
                    ),
                )
            )
    # Largest change first: the report's head is its headline.
    entries.sort(key=lambda entry: (-entry.volume, entry.before_atom))
    report = GenerationDiff(
        ingress=ingress_box,
        num_vars=manager.num_vars,
        total_volume=1 << manager.num_vars,
        changed_volume=changed_volume,
        entries=entries,
        atoms_before=len(before_atoms),
        atoms_after=len(after_atoms),
        pairs_examined=pairs_examined,
        cross_manager=cross_manager,
        elapsed_s=time.perf_counter() - started,
        sat_count_s=sat_count_s,
        transfer_s=transfer_s,
        layout=before.dataplane.layout,
    )
    if recorder is not None:
        recorder.diff.record_comparison(
            pairs=pairs_examined,
            changed=len(entries),
            share=report.changed_share(),
            sat_count_s=sat_count_s,
        )
    return report


# ----------------------------------------------------------------------
# What-if: shadow forks
# ----------------------------------------------------------------------


def fork_shadow(classifier: APClassifier, *, recorder=None) -> APClassifier:
    """Fork an isolated shadow of a live classifier.

    The shadow round-trips through the artifact codec's classifier half,
    so it owns a fresh BDD manager, network, and tree -- nothing is
    shared with (and nothing can leak back into) the live generation.
    Encoding reads the live classifier but never its compiled program,
    and the shadow comes up uncompiled: a candidate rule would otherwise
    pay a program patch it never uses.  It runs on the incremental
    maintenance engine, ready to absorb candidate rule changes
    atom-by-atom without full rebuilds.
    """
    started = time.perf_counter()
    shadow = classifier_from_bytes(classifier_bytes(classifier))
    shadow.set_maintenance("incremental")
    if recorder is not None:
        recorder.diff.record_shadow_build(time.perf_counter() - started)
    return shadow


def what_if(
    classifier: APClassifier,
    ingress_box: str,
    *,
    add: list[tuple[str, ForwardingRule]] = (),
    remove: list[tuple[str, ForwardingRule]] = (),
    in_port: str | None = None,
    rng: random.Random | None = None,
    recorder=None,
) -> WhatIfReport:
    """Answer "what would change if these rules were applied?".

    Candidate changes are applied to a shadow fork (:func:`fork_shadow`)
    -- the live ``classifier`` is never touched, bit for bit, and its BDD
    manager gains no nodes -- and the shadow is diffed against the live
    generation in the shadow's manager.  ``add``/``remove``
    are ``(box, rule)`` pairs; build them directly or via
    :func:`parse_rule_spec`.
    """
    if not add and not remove:
        raise ValueError("what_if needs at least one rule to add or remove")
    started = time.perf_counter()
    shadow = fork_shadow(classifier, recorder=recorder)
    shadow_build_s = time.perf_counter() - started

    applied: list[str] = []
    apply_started = time.perf_counter()
    for box, rule in add:
        shadow.insert_rule(box, rule)
        applied.append(f"+{format_rule_spec(box, rule, shadow.dataplane.layout)}")
    for box, rule in remove:
        shadow.remove_rule(box, rule)
        applied.append(f"-{format_rule_spec(box, rule, shadow.dataplane.layout)}")
    apply_s = time.perf_counter() - apply_started

    # The sweep runs in the shadow's manager, which dies with the report.
    # In the live manager, which never frees a node, each what-if would
    # leave its overlaps behind: ~20k nodes a call on acl-heavy.
    report = _sweep(
        classifier,
        shadow,
        ingress_box,
        in_port,
        rng,
        recorder,
        shadow.dataplane.manager,
    )
    if recorder is not None:
        recorder.diff.record_whatif()
    return WhatIfReport(
        diff=report,
        applied=applied,
        shadow_build_s=shadow_build_s,
        apply_s=apply_s,
    )


# ----------------------------------------------------------------------
# Rule specs: the wire/CLI syntax for candidate changes
# ----------------------------------------------------------------------


def parse_rule_spec(spec: str, layout: HeaderLayout) -> tuple[str, ForwardingRule]:
    """Parse ``BOX:FIELD=VALUE/PLEN->PORT[,PORT...][@PRIO]`` into a rule.

    ``VALUE`` is dotted-quad for ``*_ip`` fields, decimal otherwise;
    ``->drop`` makes a drop rule; ``@PRIO`` defaults to the prefix
    length (the LPM convention).  Examples::

        SEAT:dst_ip=10.3.0.0/24->to_SALT
        b1:dst_ip=10.1.0.0/16->drop@99
    """
    head, arrow, action = spec.partition("->")
    if not arrow:
        raise ValueError(f"rule spec {spec!r} is missing '->ACTION'")
    box, colon, constraint = head.partition(":")
    if not colon or not box:
        raise ValueError(f"rule spec {spec!r} is missing 'BOX:'")
    field_name, equals, prefix_text = constraint.partition("=")
    if not equals or not field_name:
        raise ValueError(f"rule spec {spec!r} is missing 'FIELD=VALUE/PLEN'")
    if field_name not in layout:
        raise ValueError(
            f"rule spec {spec!r}: unknown field {field_name!r} "
            f"(layout has {layout.field_names()})"
        )
    value_text, slash, plen_text = prefix_text.partition("/")
    if not slash:
        raise ValueError(f"rule spec {spec!r} is missing '/PREFIXLEN'")
    try:
        if field_name.endswith("_ip"):
            value = parse_ipv4(value_text)
        else:
            value = int(value_text, 0)
        prefix_len = int(plen_text)
    except ValueError as exc:
        raise ValueError(f"rule spec {spec!r}: {exc}") from None
    width = layout.field(field_name).width
    if not 0 <= prefix_len <= width:
        raise ValueError(
            f"rule spec {spec!r}: prefix length {prefix_len} exceeds "
            f"field width {width}"
        )
    action, at, priority_text = action.partition("@")
    try:
        priority = int(priority_text) if at else prefix_len
    except ValueError:
        raise ValueError(
            f"rule spec {spec!r}: bad priority {priority_text!r}"
        ) from None
    if action == "drop":
        out_ports: tuple[str, ...] = ()
    elif action:
        out_ports = tuple(port for port in action.split(",") if port)
    else:
        raise ValueError(f"rule spec {spec!r} has an empty action")
    rule = ForwardingRule(
        Match.prefix(field_name, value, prefix_len), out_ports, priority
    )
    return box, rule


def format_rule_spec(
    box: str, rule: ForwardingRule, layout: HeaderLayout
) -> str:
    """Inverse of :func:`parse_rule_spec` for single-field prefix rules."""
    constraints = list(rule.match.constraints())
    if len(constraints) != 1:
        return f"{box}:{rule.describe()}"
    constraint = constraints[0]
    if constraint.field.endswith("_ip"):
        value_text = format_ipv4(constraint.value)
    else:
        value_text = str(constraint.value)
    action = ",".join(rule.out_ports) if rule.out_ports else "drop"
    return (
        f"{box}:{constraint.field}={value_text}/{constraint.prefix_len}"
        f"->{action}@{rule.priority}"
    )


# ----------------------------------------------------------------------
# JSON helpers
# ----------------------------------------------------------------------


def _behavior_json(behavior: Behavior) -> dict:
    """A behavior's observable summary as plain JSON types."""
    return {
        "paths": [list(path) for path in behavior.paths()],
        "delivered": sorted(behavior.delivered_hosts()),
        "dropped_everywhere": behavior.is_dropped_everywhere,
        "has_loop": behavior.has_loop,
    }


def _witness_fields(layout: HeaderLayout, witness: int) -> dict:
    """Per-field view of a witness header, IPs rendered dotted-quad."""
    values = layout.unpack(witness)
    return {
        name: format_ipv4(value) if name.endswith("_ip") else value
        for name, value in values.items()
    }
