"""The three library workloads: ``churn``, ``coldstart`` and ``whatif``.

They call ``APClassifier``, ``repro.persist``, ``repro.artifact`` and
``repro.diff`` in this process; each keeps running its primary operation
until the timed window closes.
"""

from __future__ import annotations

import os
import statistics
import time

from repro import artifact, diff, persist
from repro.datasets import uniform_over_atoms
from repro.datasets.updates import rule_update_stream

from harness import Measured, Tracer, Workload, behavior_answer, build_classifier


class Churn(Workload):
    """Rule inserts and withdrawals, each followed by one read batch."""

    name = "churn"
    scenario = ("stanford", {})
    READ = 4096  # trace headers classified after every update
    FINAL = 512  # trace headers compared against a from-scratch build
    #: A step is its update plus its read; the loop's own share stays small.
    reconcile = ("churn.step", 0.05)

    def setup(self, tracer: Tracer, recorder) -> None:
        scenario = self.fixed()
        self.network = scenario.network()
        self.classifier = build_classifier(
            self.network, tracer, recorder, maintenance="incremental"
        )
        self.headers = list(uniform_over_atoms(
            self.classifier.universe, self.READ, self.rng("trace")
        ).headers)
        # The registry's canonical stream, not a seeded one: one update
        # costs 0.2 to 200 ms by what it hits, and which ones a seed draws
        # moved the median by a sixth.  The seed draws the read trace.
        self.updates = iter(scenario.update_stream(5_000))
        self.fresh = self.steps = 0

    def measure(self, seconds: float, tracer: Tracer) -> Measured:
        clf = self.classifier
        measured = Measured()
        reads = []
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            update = next(self.updates, None)
            if update is None:
                break
            apply = clf.insert_rule if update.kind == "insert" else clf.remove_rule
            with tracer.span("churn.step", request=self.steps):
                started = time.perf_counter()
                with tracer.span("core.incremental." + update.kind):
                    apply(update.box, update.rule)
                updated = time.perf_counter()
                with tracer.span("core.compiled.read"):
                    atoms = clf.classify_batch(self.headers)
                read = time.perf_counter()
            self.steps += 1
            self.fresh += clf.compiled_fresh
            measured.attempted += 1
            if len(atoms) != self.READ:
                measured.failed += 1
                continue
            measured.latencies.append(updated - started)
            reads.append(read - updated)
        measured.rate = self.READ / statistics.median(reads)
        return measured

    def finish(self) -> tuple[int, int]:
        """Behaviours after the churn equal a from-scratch build's."""
        scratch = build_classifier(self.network, Tracer())
        boxes = sorted(self.network.boxes)
        rng = self.rng("final-check")
        wrong = 0
        for header in self.headers[:self.FINAL]:
            ingress = rng.choice(boxes)
            mine = behavior_answer(self.classifier.query(header, ingress))
            theirs = behavior_answer(scratch.query(header, ingress))
            del mine["atom"], theirs["atom"]  # ids differ between the two builds
            wrong += mine != theirs
        return self.FINAL, wrong

    def layers(self, tracer: Tracer, recorder, traced: Measured) -> dict[str, float]:
        updates = recorder.updates
        read_us = tracer.median("core.compiled.read") * 1e6
        return {
            "core.incremental.insert_ms": tracer.median("core.incremental.insert") * 1e3,
            "core.incremental.remove_ms": tracer.median("core.incremental.remove") * 1e3,
            "core.incremental.merges": updates.incremental_merges,
            "core.incremental.splices": updates.incremental_splices,
            "core.incremental.patches": updates.incremental_patches,
            "core.incremental.patch_fallbacks": updates.incremental_patch_fallbacks,
            "core.incremental.full_rebuilds": updates.incremental_full_rebuilds,
            "core.compiled.fresh_share": self.fresh / self.steps,
            "core.compiled.descend_us": read_us,
            "core.compiled.descend_ns_per_header": read_us * 1e3 / self.READ,
        }


class Coldstart(Workload):
    """network -> compiled classifier -> artifact -> first verified batch."""

    name = "coldstart"
    scenario = ("stanford", dict(subnets_per_zone=8, host_ports_per_zone=2,
                                 acl_templates=5, te_fraction=0.15))
    BATCH = 1024
    LOADS = 3  # artifact loads per build: a load is a twelfth of a build
    #: The four offline stages must sum to the build within 5 %.
    reconcile = ("coldstart.build", 0.05)

    def setup(self, tracer: Tracer, recorder) -> None:
        # The trace is drawn from a built universe, so set-up builds once.
        self.classifier = build_classifier(
            self.fixed().network(), tracer, recorder
        )
        self.headers = list(uniform_over_atoms(
            self.classifier.universe, self.BATCH, self.rng("trace")
        ).headers)
        self.artifact = self.out / f"{self.name}-{os.getpid()}.apc"
        self.artifact_bytes = 0

    def teardown(self) -> None:
        self.artifact.unlink(missing_ok=True)

    def measure(self, seconds: float, tracer: Tracer) -> Measured:
        measured = Measured()
        loads = []
        rep = 0
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            network = self.fixed().network()
            with tracer.span("coldstart.rep", request=rep):
                started = time.perf_counter()
                with tracer.span("coldstart.build"):
                    built = build_classifier(network, tracer)
                build_s = time.perf_counter() - started
                expected = built.classify_batch(self.headers)
                with tracer.span("persist.save"):
                    self.artifact_bytes = persist.save(built, self.artifact)
                for _again in range(self.LOADS):
                    started = time.perf_counter()
                    with tracer.span("persist.load"):
                        loaded = persist.load(self.artifact)
                    answers = loaded.classify_batch(self.headers)
                    loads.append(time.perf_counter() - started)
                    if answers != expected:
                        break
                with tracer.span("artifact.load_serving"):
                    engine = artifact.load_serving(self.artifact)
                serving = engine.classify_batch(self.headers)
            rep += 1
            measured.attempted += 1
            if answers == expected and serving == expected:
                measured.latencies.append(build_s)
            else:
                measured.failed += 1
        measured.rate = 1.0 / statistics.median(loads)
        return measured

    def layers(self, tracer: Tracer, recorder, traced: Measured) -> dict[str, float]:
        return {
            "persist.load_s": tracer.median("persist.load"),
            "artifact.load_serving_s": tracer.median("artifact.load_serving"),
            "artifact.bytes": self.artifact_bytes,
        }


class WhatIf(Workload):
    """``repro.diff.what_if`` of four added rules against one live classifier."""

    name = "whatif"
    scenario = ("acl-heavy", {})
    RULES = 4

    def setup(self, tracer: Tracer, recorder) -> None:
        self.network = self.fixed().network()
        self.classifier = build_classifier(self.network, tracer, recorder)
        boxes = sorted(self.network.boxes)
        self.ingress = boxes[0]
        # Seeded draws, but every set holds the same number of rules for
        # each box: a rule at the firewall costs twice one at the border,
        # and the mix would otherwise decide the median.
        queues = {box: [] for box in boxes}
        for update in rule_update_stream(
            self.network, 400 * self.RULES, self.rng("updates"), insert_fraction=1.0
        ):
            queues[update.box].append((update.box, update.rule))
        share = self.RULES // len(boxes)
        self.rule_sets = [
            [rule for queue in queues.values() for rule in queue[at:at + share]]
            for at in range(0, min(map(len, queues.values())) - share + 1, share)
        ]
        self.snapshot = persist.classifier_to_json(self.classifier)
        self.calls = 0

    def measure(self, seconds: float, tracer: Tracer) -> Measured:
        measured = Measured()
        window = time.perf_counter()
        end = window + seconds
        while time.perf_counter() < end:
            rules = self.rule_sets[self.calls % len(self.rule_sets)]
            with tracer.span("diff.what_if", request=self.calls):
                started = time.perf_counter()
                report = diff.what_if(self.classifier, self.ingress, add=rules)
                took = time.perf_counter() - started
                tracer.record("diff.fork_shadow", started, report.shadow_build_s)
                tracer.record("diff.apply", started + report.shadow_build_s, report.apply_s)
            self.calls += 1
            measured.attempted += 1
            if len(report.applied) == self.RULES:
                measured.latencies.append(took)
            else:
                measured.failed += 1
        measured.rate = len(measured.latencies) / (time.perf_counter() - window)
        return measured

    def finish(self) -> tuple[int, int]:
        """No what-if may leak into the live classifier."""
        return 1, int(persist.classifier_to_json(self.classifier) != self.snapshot)

    def layers(self, tracer: Tracer, recorder, traced: Measured) -> dict[str, float]:
        whole = tracer.median("diff.what_if")
        fork = tracer.median("diff.fork_shadow")
        apply = tracer.median("diff.apply")
        return {
            "diff.fork_shadow_s": fork,
            "diff.apply_s": apply,
            "diff.diff_generations_s": whole - fork - apply,
        }
