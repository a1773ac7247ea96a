"""AP Classifier: the user-facing two-stage query engine (Section IV).

Stage 1 classifies a packet to its atomic predicate by searching the AP
Tree; stage 2 computes the packet's network-wide behavior from that atom,
the topology, and the ingress box.  The classifier also owns the dynamic
machinery: rule updates (Section VI-A), visit counting for
distribution-aware trees (Section V-D), and tree rebuilds (Section VI-B).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from ..bdd import BDDManager
from ..headerspace.header import Packet
from ..network.builder import Network
from ..network.dataplane import DataPlane, PredicateChange
from ..network.rules import ForwardingRule
from .aptree import APTree
from .atomic import AtomicUniverse
from .behavior import Behavior, BehaviorComputer
from .compiled import STDLIB_BACKEND, CompiledAPTree
from .construction import build_tree
from .update import UpdateEngine, UpdateResult
from .weights import VisitCounter

__all__ = ["APClassifier", "ClassifierStats"]


@dataclass(frozen=True)
class ClassifierStats:
    """Point-in-time structural statistics (Table I / §VII-B material)."""

    predicates: int
    atoms: int
    tree_leaves: int
    tree_average_depth: float
    tree_max_depth: int
    bdd_nodes: int
    updates_since_rebuild: int
    estimated_bytes: int


class APClassifier:
    """Network-wide packet behavior identification."""

    #: Rough per-BDD-node footprint of a C implementation (var + two child
    #: pointers + unique-table slot), used for the memory estimate the
    #: paper reports; the pure-Python objects are larger, but the estimate
    #: tracks the quantity that matters -- node counts.
    BYTES_PER_BDD_NODE = 20
    BYTES_PER_TREE_NODE = 40

    #: Update-maintenance modes: ``tombstone`` is the paper's Section VI-A
    #: engine (removals tombstone, minimality decays until a rebuild);
    #: ``incremental`` keeps the partition minimal under churn with delta
    #: refinement, local tree splices, and in-place compiled patches
    #: (:mod:`repro.core.incremental`).
    MAINTENANCE_MODES = ("tombstone", "incremental")

    def __init__(
        self,
        dataplane: DataPlane,
        universe: AtomicUniverse,
        tree: APTree,
        strategy: str = "oapt",
        count_visits: bool = False,
        maintenance: str = "tombstone",
    ) -> None:
        if maintenance not in self.MAINTENANCE_MODES:
            raise ValueError(
                f"unknown maintenance mode {maintenance!r} "
                f"(expected one of {self.MAINTENANCE_MODES})"
            )
        self.dataplane = dataplane
        self.universe = universe
        self.tree = tree
        self.strategy = strategy
        self.maintenance = maintenance
        self.counter = VisitCounter() if count_visits else None
        self.behavior_computer = BehaviorComputer(dataplane, universe)
        #: Optional :class:`repro.obs.Recorder`; install via
        #: :meth:`set_recorder` so the tree, update engine, and BDD
        #: manager are wired (and re-wired across tree swaps) together.
        self.recorder = None
        self._engine = self._make_engine(universe, tree)
        self._compiled: CompiledAPTree | None = None

    def _make_engine(self, universe: AtomicUniverse, tree: APTree) -> UpdateEngine:
        if self.maintenance == "incremental":
            # Imported lazily: incremental imports construction, which
            # sits above this module in the package-init order.
            from .incremental import IncrementalEngine

            return IncrementalEngine(
                universe,
                tree,
                self.counter,
                recorder=self.recorder,
                classifier=self,
                strategy=self.strategy,
            )
        return UpdateEngine(universe, tree, self.counter, recorder=self.recorder)

    def set_maintenance(self, maintenance: str) -> None:
        """Switch update-maintenance mode; takes effect immediately.

        The replacement engine adopts the live ``(universe, tree)`` pair
        in place, so mid-stream switches are safe: an incremental engine
        handed a tombstone-era tree detects the dead labels and schedules
        one full rebuild on its first removal.
        """
        if maintenance == self.maintenance:
            return
        if maintenance not in self.MAINTENANCE_MODES:
            raise ValueError(
                f"unknown maintenance mode {maintenance!r} "
                f"(expected one of {self.MAINTENANCE_MODES})"
            )
        self.maintenance = maintenance
        self._engine = self._make_engine(self.universe, self.tree)

    def set_recorder(self, recorder) -> None:
        """Attach (or with ``None``, detach) an observability recorder.

        Covers every instrumented component this classifier owns: the
        interpreted tree's search loops, the update engine, and the
        shared BDD manager.  Tree swaps (:meth:`rebuild_tree`,
        :meth:`reconstruct`) carry the recorder over to the replacement
        structures automatically.
        """
        self.recorder = recorder
        self.tree.recorder = recorder
        self._engine.recorder = recorder
        self.dataplane.manager.recorder = recorder
        if recorder is not None:
            recorder.attach_manager(self.dataplane.manager)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        network: Network,
        strategy: str = "oapt",
        manager: BDDManager | None = None,
        rng: random.Random | None = None,
        trials: int = 100,
        count_visits: bool = False,
        maintenance: str = "tombstone",
    ) -> "APClassifier":
        """Compile a network and build the classifier in one step."""
        dataplane = DataPlane(network, manager)
        return cls.from_dataplane(
            dataplane,
            strategy=strategy,
            rng=rng,
            trials=trials,
            count_visits=count_visits,
            maintenance=maintenance,
        )

    @classmethod
    def from_dataplane(
        cls,
        dataplane: DataPlane,
        strategy: str = "oapt",
        rng: random.Random | None = None,
        trials: int = 100,
        count_visits: bool = False,
        maintenance: str = "tombstone",
    ) -> "APClassifier":
        universe = AtomicUniverse.compute(dataplane.manager, dataplane.predicates())
        report = build_tree(universe, strategy=strategy, rng=rng, trials=trials)
        return cls(
            dataplane,
            universe,
            report.tree,
            strategy=strategy,
            count_visits=count_visits,
            maintenance=maintenance,
        )

    # ------------------------------------------------------------------
    # Compiled engine (flat arrays + batched evaluation)
    # ------------------------------------------------------------------

    def compile(self, backend: str | None = None) -> CompiledAPTree:
        """Compile the current tree into a flat-array artifact.

        Queries use the artifact while it is fresh; any structural
        update (leaf split, tombstone) or tree swap invalidates it, and
        queries transparently fall back to the interpreted tree until
        ``compile()`` is called again -- the query-process /
        reconstruction-process split of Section VI-B.
        """
        self._compiled = CompiledAPTree.compile(self.tree, backend=backend)
        rec = self.recorder
        if rec is not None:
            rec.updates.compiles += 1
        return self._compiled

    def attach_compiled(self, compiled: CompiledAPTree) -> CompiledAPTree:
        """Adopt an externally constructed compiled engine.

        The warm-start half of the persistence story: a binary artifact
        load rebuilds the engine from stored arrays
        (:meth:`CompiledAPTree.from_arrays`) instead of re-flattening
        the tree, then installs it here.  The engine must be stamped
        against this classifier's live tree -- attaching a stale one
        would silently send every query down the interpreted fallback,
        which is exactly the failure mode the freshness check exists to
        catch.
        """
        if not compiled.is_fresh_for(self.tree):
            raise ValueError(
                "compiled engine is stale for this classifier's tree "
                "(stamp it with the live tree before attaching)"
            )
        self._compiled = compiled
        return compiled

    @property
    def compiled(self) -> CompiledAPTree | None:
        """The last compiled artifact, fresh or not (``None`` if never)."""
        return self._compiled

    @property
    def compiled_fresh(self) -> bool:
        """Is there a compiled artifact matching the live tree exactly?"""
        compiled = self._compiled
        return compiled is not None and compiled.is_fresh_for(self.tree)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def classify(self, packet: Packet | int) -> int:
        """Stage 1: the atomic predicate (atom id) of a packet."""
        header = packet.value if isinstance(packet, Packet) else packet
        compiled = self._compiled
        if compiled is not None and compiled.is_fresh_for(self.tree):
            atom_id = compiled.classify(header)
        else:
            rec = self.recorder
            if rec is not None and compiled is not None:
                rec.updates.record_stale_fallback(
                    compiled.stale_reason(self.tree)
                )
            atom_id = self.tree.classify(header)
        if self.counter is not None:
            self.counter.record(atom_id)
        return atom_id

    def classify_batch(self, packets) -> list[int]:
        """Stage 1 for a whole batch.

        Uses the compiled engine's batched bit-parallel path when a
        fresh artifact exists, otherwise the interpreted
        :meth:`APTree.classify_many`; results are identical.
        """
        headers = [
            packet.value if isinstance(packet, Packet) else packet
            for packet in packets
        ]
        compiled = self._compiled
        if compiled is not None and compiled.is_fresh_for(self.tree):
            atom_ids = compiled.classify_batch(headers)
        else:
            rec = self.recorder
            if rec is not None and compiled is not None:
                rec.updates.record_stale_fallback(
                    compiled.stale_reason(self.tree)
                )
            atom_ids = self.tree.classify_many(headers)
        if self.counter is not None:
            record = self.counter.record
            for atom_id in atom_ids:
                record(atom_id)
        return atom_ids

    def classify_batch_array(self, headers, out=None):
        """Stage 1 for a batch, numpy arrays end-to-end.

        ``headers`` is a ``uint64`` header array (adopted zero-copy by
        the compiled kernel) or a plain sequence; the result is an
        ``int64`` atom-id array, written into ``out`` when a reusable
        buffer is supplied.  Requires numpy in the process.  When no
        fresh accelerated artifact exists (stale artifact, or a
        stdlib-backend engine) the batch takes the same exact fallback
        as :meth:`classify_batch` and is copied into the array -- the
        array interface never trades exactness.
        """
        compiled = self._compiled
        if (
            compiled is not None
            and compiled.is_fresh_for(self.tree)
            and compiled.backend != STDLIB_BACKEND
        ):
            atom_ids = compiled.classify_batch_array(headers, out=out)
            if self.counter is not None:
                record = self.counter.record
                for atom_id in atom_ids.tolist():
                    record(atom_id)
            return atom_ids
        import numpy as np

        if isinstance(headers, np.ndarray):
            headers = headers.tolist()
        # classify_batch does the stale-fallback accounting and visit
        # counting for this branch.
        atom_list = self.classify_batch(headers)
        if out is None:
            return np.asarray(atom_list, dtype=np.int64)
        out[: len(atom_list)] = atom_list
        return out

    def behavior_of_atom(
        self, atom_id: int, ingress_box: str, in_port: str | None = None
    ) -> Behavior:
        """Stage 2 only: behavior of a known atom from an ingress box."""
        return self.behavior_computer.compute(atom_id, ingress_box, in_port)

    def query(
        self, packet: Packet | int, ingress_box: str, in_port: str | None = None
    ) -> Behavior:
        """Both stages: full network-wide behavior of a packet.

        Stage 1 (:meth:`classify`) finds the packet's atomic predicate;
        stage 2 (:meth:`behavior_of_atom`) walks the topology from
        ``ingress_box`` using only integer-set membership tests.  The
        returned :class:`~repro.core.behavior.Behavior` exposes
        ``paths()``, ``delivered_hosts()``, and ``drops()``.
        """
        return self.behavior_of_atom(self.classify(packet), ingress_box, in_port)

    # ------------------------------------------------------------------
    # Flow-set queries (Section I: "a flow or a set of flows")
    # ------------------------------------------------------------------

    def atoms_matching(self, match) -> frozenset[int]:
        """Atomic predicates intersecting a rule-style match.

        This is how "which flows does this update affect?" is asked: the
        atoms overlapping the new rule's match are exactly the packet
        classes whose behavior could change.
        """
        fn = self.dataplane.compiler.match_predicate(match)
        if fn.is_true:
            return self.universe.atom_ids()
        return frozenset(
            atom_id
            for atom_id, atom_fn in self.universe.atoms().items()
            if not atom_fn.disjoint(fn)
        )

    def query_flow_set(
        self, match, ingress_box: str, in_port: str | None = None
    ) -> dict[int, Behavior]:
        """Behaviors of every packet class covered by ``match``.

        One stage-2 walk per overlapping atom -- the verification step the
        controller runs on the affected flows before committing a rule.
        """
        return {
            atom_id: self.behavior_of_atom(atom_id, ingress_box, in_port)
            for atom_id in sorted(self.atoms_matching(match))
        }

    # ------------------------------------------------------------------
    # Updates (Section VI-A)
    # ------------------------------------------------------------------

    @property
    def updates_since_rebuild(self) -> int:
        return self._engine.updates_applied

    def apply_changes(self, changes: list[PredicateChange]) -> list[UpdateResult]:
        """Apply predicate diffs produced by the data plane."""
        return self._engine.apply_all(changes)

    def insert_rule(self, box: str, rule: ForwardingRule) -> list[UpdateResult]:
        """Install a forwarding rule and update the classifier in real time."""
        return self.apply_changes(self.dataplane.insert_rule(box, rule))

    def remove_rule(self, box: str, rule: ForwardingRule) -> list[UpdateResult]:
        """Remove a forwarding rule and update the classifier in real time."""
        return self.apply_changes(self.dataplane.remove_rule(box, rule))

    def transaction(self):
        """Open a verify-then-commit update transaction (Section I).

        Returns an :class:`repro.core.transactions.UpdateTransaction`;
        use it as a context manager so failures roll back automatically.
        """
        from .transactions import UpdateTransaction

        return UpdateTransaction(self)

    # ------------------------------------------------------------------
    # Rebuilds (Sections V-D and VI-B)
    # ------------------------------------------------------------------

    def rebuild_tree(self, use_weights: bool = False) -> None:
        """Rebuild the AP Tree over the *current* universe.

        Cheap compared to :meth:`reconstruct`; used when only tree balance
        (not atom minimality) has degraded, and for distribution-aware
        rebuilds from the visit counter. Atoms fragmented by tombstoned
        predicates are coalesced first, so the rebuilt tree is over the
        minimal partition for the *live* predicates.
        """
        mapping = self.universe.coalesce()
        if self.counter is not None:
            self.counter.on_merge(mapping)
        weights = None
        if use_weights:
            if self.counter is None:
                raise ValueError("classifier was built without visit counting")
            weights = self.counter.weights()
        report = build_tree(self.universe, strategy=self.strategy, weights=weights)
        rec = self.recorder
        if rec is not None:
            rec.updates.rebuilds += 1
        self._swap_tree(self.universe, report.tree)

    def reconstruct(self) -> None:
        """Full reconstruction (Section VI-B).

        Recomputes the atomic predicates from the live data plane
        predicates -- shedding tombstoned predicates and re-merging atoms
        that updates fragmented -- then rebuilds the tree.
        """
        universe = AtomicUniverse.compute(
            self.dataplane.manager, self.dataplane.predicates()
        )
        report = build_tree(universe, strategy=self.strategy)
        self.install_rebuild(universe, report.tree)

    def install_rebuild(
        self,
        universe: AtomicUniverse,
        tree: APTree,
        journal: Sequence[PredicateChange] = (),
    ) -> int:
        """Adopt an externally built ``(universe, tree)`` pair.

        The swap half of the Section VI-B split for callers that run the
        rebuild elsewhere -- an executor thread or a worker process (see
        :mod:`repro.core.reconstruction`).  The pair must describe this
        classifier's data plane (same ``BDDManager``).  ``journal``
        holds the changes applied to the live structures after the
        rebuild's predicate snapshot was taken; they are replayed onto
        the pair (:meth:`UpdateEngine.replay`) by an engine of this
        classifier's own ``maintenance`` mode, so the adopted structures
        carry no other mode's history.  Callers serialize this against
        queries, as for any update.  Counts as a reconstruction in
        the observability metrics; the compiled artifact is dropped, so
        queries take the interpreted path until :meth:`compile`.
        Returns the number of journal entries the replay applied.
        """
        rec = self.recorder
        if rec is not None:
            rec.updates.reconstructs += 1
        self._swap_tree(universe, tree)
        return self._engine.replay(journal)

    def _swap_tree(self, universe: AtomicUniverse, tree: APTree) -> None:
        if universe is not self.universe:
            self.universe = universe
            self.behavior_computer = BehaviorComputer(self.dataplane, universe)
            if self.counter is not None:
                self.counter.reset()
        self.tree = tree
        tree.recorder = self.recorder
        self._engine = self._make_engine(universe, tree)
        # The artifact described the old tree; queries fall back to the
        # interpreted path until the caller recompiles.
        self._compiled = None

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def stats(self) -> ClassifierStats:
        bdd_nodes = len(self.dataplane.manager)
        tree_nodes = self.tree.node_count()
        return ClassifierStats(
            predicates=len(self.dataplane),
            atoms=self.universe.atom_count,
            tree_leaves=self.tree.leaf_count(),
            tree_average_depth=self.tree.average_depth(),
            tree_max_depth=self.tree.max_depth(),
            bdd_nodes=bdd_nodes,
            updates_since_rebuild=self.updates_since_rebuild,
            estimated_bytes=(
                bdd_nodes * self.BYTES_PER_BDD_NODE
                + tree_nodes * self.BYTES_PER_TREE_NODE
            ),
        )

    def __repr__(self) -> str:
        return (
            f"APClassifier({self.strategy}, {len(self.dataplane)} predicates, "
            f"{self.universe.atom_count} atoms)"
        )
