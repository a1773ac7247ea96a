"""Parallel AP Tree reconstruction under a dynamic data plane (Section VI-B).

The paper runs two processes on separate cores: a *query process* that
answers queries and applies real-time updates, and a *reconstruction
process* that periodically rebuilds an optimized tree; updates arriving
during a rebuild are replayed onto the new tree before it replaces the old
one (Fig. 8).

The isolated rebuild is three plain-data steps, each defined once here:
:func:`snapshot_predicates` serializes the live predicates (pids + one
BDD image, :mod:`repro.bdd.serialize`) in the query process;
:func:`rebuild_snapshot` computes the atomic universe and a fresh AP
Tree in its *own* manager and returns image + ``R`` + tree records;
:func:`restore_rebuild` wires the result back into the canonical
manager, where :meth:`APClassifier.install_rebuild` (or the simulator)
replays the journaled updates and swaps -- the version-stamp staleness
machinery on the tree is untouched, because the restored tree is a
brand-new object at version 0.  *Where* the middle step runs is the
caller's choice: :class:`repro.serve.QueryService` hands it to the event
loop's executor (a loop cannot block on a pipe);
:class:`ReconstructionProcess` runs it in a long-lived daemon worker on
a second core, so process startup is paid once.

:class:`DynamicSimulation` reproduces the pipeline as a discrete-event
simulation whose costs are *measured* on the host: each update and each
rebuild is actually executed and timed, and query throughput between
events is derived from timed sample queries on the current structure.
That makes Fig. 14's sawtooth (throughput sags as updates accumulate,
snaps back at each swap) reproducible on any machine, with real
predicates and real tree surgery -- only the interleaving clock is
simulated.
"""

from __future__ import annotations

import random
import time
import traceback
from dataclasses import dataclass, replace
from multiprocessing import get_context
from typing import Callable, Sequence

from .. import config
from ..bdd import BDDManager, Function
from ..bdd.serialize import Image, dump_image, image_nbytes, load_image
from ..network.dataplane import LabeledPredicate, PredicateChange
from .aptree import APTree, restore_tree, snapshot_tree
from .atomic import AtomicUniverse
from .compiled import CompiledAPTree, FlatBDDSet
from .construction import build_tree
from .incremental import IncrementalEngine
from .update import UpdateEngine

__all__ = [
    "ReconstructionProcess",
    "ReconstructionWorkerDied",
    "snapshot_predicates",
    "rebuild_snapshot",
    "restore_rebuild",
    "UpdateEvent",
    "poisson_update_schedule",
    "ThroughputSample",
    "DynamicSimulation",
    "QueryCostModel",
]


# ----------------------------------------------------------------------
# The isolated rebuild and the process that runs it
# ----------------------------------------------------------------------


def snapshot_predicates(
    predicates: Sequence[LabeledPredicate],
) -> tuple[list[int], Image]:
    """Submit half: a non-empty predicate set as plain data ``(pids, image)``.

    Must run where the predicates' manager is quiescent (the caller's
    update lock); everything downstream works on the serialized copy.
    """
    return (
        [labeled.pid for labeled in predicates],
        dump_image(
            predicates[0].fn.manager, [labeled.fn.node for labeled in predicates]
        ),
    )


def _snapshot_universe(universe: AtomicUniverse) -> dict:
    """The universe as plain data: one image whose roots are the
    predicates in ``pids`` order, then the atoms in sorted-id order, and
    ``R`` as atom positions."""
    order = sorted(universe.atom_ids())
    position = {atom_id: index for index, atom_id in enumerate(order)}
    pids = universe.predicate_ids()
    return {
        "image": dump_image(
            universe.manager,
            [universe.predicate_fn(p).node for p in pids]
            + [universe.atom_fn(a).node for a in order],
        ),
        "pids": pids,
        "r": [
            sorted(position[atom_id] for atom_id in universe.r(pid))
            for pid in pids
        ],
    }


def _restore_universe(payload: dict, manager: BDDManager) -> AtomicUniverse:
    """Rebuild :func:`_snapshot_universe` output in ``manager``; atoms
    become ids ``0..n-1`` (exactly the ids of a canonical universe)."""
    pids = payload["pids"]
    functions = [
        Function(manager, node) for node in load_image(manager, payload["image"])
    ]
    return AtomicUniverse.assemble(
        manager,
        dict(zip(pids, functions)),  # zip stops at the last predicate
        functions[len(pids):],
        dict(zip(pids, payload["r"])),
    )


def rebuild_snapshot(pids: Sequence[int], image: Image, strategy: str) -> dict:
    """The one isolated rebuild: predicate snapshot in, payload out.

    Receives only plain data and deserializes into a manager of its own,
    so it can run on an executor thread (:class:`repro.serve.QueryService`)
    or in a worker process (:class:`ReconstructionProcess`) without ever
    touching the canonical, lock-free :class:`BDDManager` the query
    process keeps mutating.  Canonical renumbering plus a fixed tree
    ``rng`` make the payload a function of the snapshot alone.
    """
    manager = BDDManager(image[0])  # the image carries its num_vars
    labeled = [
        LabeledPredicate(pid, "forward", "recon", "recon", Function(manager, node))
        for pid, node in zip(pids, load_image(manager, image))
    ]
    universe = AtomicUniverse.compute(manager, labeled).renumber_canonical()
    tree = build_tree(universe, strategy=strategy, rng=random.Random(0)).tree
    return {
        "universe": _snapshot_universe(universe),
        "tree": snapshot_tree(tree, universe),
    }


def restore_rebuild(
    payload: dict, manager: BDDManager
) -> tuple[AtomicUniverse, APTree]:
    """Receive half: a :func:`rebuild_snapshot` payload, wired into ``manager``."""
    universe = _restore_universe(payload["universe"], manager)
    return universe, restore_tree(payload["tree"], universe)


def _reconstruction_worker(conn) -> None:
    """Worker loop: one :func:`rebuild_snapshot` per request, until None."""
    # Ready handshake: under spawn the child re-imports the package
    # before this line runs; signalling here lets the parent charge that
    # startup to construction instead of to the first rebuild.
    conn.send({"ready": True})
    while True:
        request = conn.recv()
        if request is None:
            break
        try:
            started = time.perf_counter()
            payload = rebuild_snapshot(*request)
            payload["elapsed_s"] = time.perf_counter() - started
            conn.send(payload)
        except Exception:  # ship the failure instead of hanging the parent
            conn.send({"error": traceback.format_exc()})
    conn.close()


class ReconstructionWorkerDied(RuntimeError):
    """The reconstruction worker process exited; its handle is unusable."""


class ReconstructionProcess:
    """Handle on a live rebuild worker: submit / poll / receive.

    One rebuild may be in flight at a time (matching the paper's single
    reconstruction core); :meth:`submit` while busy is a logic error.
    A worker that dies (killed, crashed interpreter) surfaces as
    :class:`ReconstructionWorkerDied` from whichever call notices it,
    and the handle is left idle rather than wedged busy.
    """

    def __init__(
        self,
        manager: BDDManager,
        strategy: str = "oapt",
        start_method: str | None = None,
        recorder=None,
    ) -> None:
        self.manager = manager
        self.strategy = strategy
        self.recorder = recorder
        self._busy = False
        context = get_context(config.mp_start(start_method))
        self._conn, child_conn = context.Pipe()
        self._process = context.Process(
            target=_reconstruction_worker,
            args=(child_conn,),
            daemon=True,
        )
        self._process.start()
        child_conn.close()
        ready = self._recv("starting up")
        if not (isinstance(ready, dict) and ready.get("ready")):
            self.close()
            raise RuntimeError("reconstruction worker failed to start")

    def _died(self, doing: str) -> ReconstructionWorkerDied:
        """Reap the dead worker and close the handle; the error naming it."""
        process = self._process
        process.join(timeout=1.0)
        self.close()
        return ReconstructionWorkerDied(
            f"reconstruction worker (pid {process.pid}) died while {doing} "
            f"(exit code {process.exitcode})"
        )

    def _recv(self, doing: str):
        try:
            return self._conn.recv()
        except (EOFError, OSError):
            raise self._died(doing) from None

    @property
    def busy(self) -> bool:
        """True while a submitted rebuild has not been received."""
        return self._busy

    def submit(self, predicates: Sequence[LabeledPredicate]) -> None:
        """Ship a predicate snapshot to the worker (non-blocking)."""
        if self._busy:
            raise RuntimeError("a rebuild is already in flight")
        if self._process is None:
            raise ReconstructionWorkerDied("reconstruction worker is closed")
        pids, image = snapshot_predicates(predicates)
        try:
            self._conn.send((pids, image, self.strategy))
        except OSError:  # BrokenPipeError included
            raise self._died("receiving a rebuild") from None
        if self.recorder is not None:
            self.recorder.parallel.record_shipping(
                to_workers=image_nbytes(image), from_workers=0
            )
        self._busy = True

    def poll(self, timeout: float = 0.0) -> bool:
        """Is a finished rebuild (or news of a dead worker) waiting?"""
        return self._busy and self._conn.poll(timeout)

    def receive(self) -> tuple[AtomicUniverse, APTree, float]:
        """Block for the in-flight result and restore it canonically."""
        if not self._busy:
            raise RuntimeError("no rebuild in flight")
        payload = self._recv("rebuilding")
        self._busy = False
        error = payload.get("error")
        if error is not None:
            raise RuntimeError(f"reconstruction worker failed:\n{error}")
        if self.recorder is not None:
            self.recorder.parallel.record_shipping(
                to_workers=0,
                from_workers=image_nbytes(payload["universe"]["image"]),
            )
        universe, tree = restore_rebuild(payload, self.manager)
        return universe, tree, payload["elapsed_s"]

    def close(self) -> None:
        """Shut the worker down (idempotent); nothing stays in flight."""
        process = self._process
        if process is None:
            return
        self._process = None
        self._busy = False
        try:
            if process.is_alive():
                self._conn.send(None)
                process.join(timeout=5.0)
        except (BrokenPipeError, OSError):
            pass
        if process.is_alive():  # pragma: no cover - unresponsive worker
            process.terminate()
            process.join()
        self._conn.close()

    def __enter__(self) -> "ReconstructionProcess":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "busy" if self._busy else "idle"
        return f"ReconstructionProcess({self.strategy}, {state})"


# ----------------------------------------------------------------------
# Fig. 14: the timeline simulation
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class UpdateEvent:
    """One scheduled data plane change: add or delete a predicate."""

    at: float
    kind: str  # "add" | "delete"

    def __post_init__(self) -> None:
        if self.kind not in ("add", "delete"):
            raise ValueError(f"unknown update kind {self.kind!r}")


def poisson_update_schedule(
    rate_per_s: float, duration_s: float, rng: random.Random
) -> list[UpdateEvent]:
    """Poisson arrivals with equal numbers of additions and deletions.

    Matches the Section VII-E setup: inter-arrival times are exponential
    with mean ``1/rate``; each event is a coin-flip add or delete.
    """
    events: list[UpdateEvent] = []
    now = 0.0
    while True:
        now += rng.expovariate(rate_per_s)
        if now >= duration_s:
            break
        kind = "add" if rng.random() < 0.5 else "delete"
        events.append(UpdateEvent(at=now, kind=kind))
    return events


@dataclass(frozen=True)
class ThroughputSample:
    """Throughput observed over one simulated time bucket."""

    time_s: float
    throughput_qps: float
    event: str = ""  # annotation: "swap", "rebuild_start", ...


class QueryCostModel:
    """Measures the per-query cost of a classify function by timing.

    Costs are re-measured only when the underlying structure changes;
    between changes the cached cost is reused, keeping simulation runtime
    linear in the number of events rather than buckets.
    """

    def __init__(self, sample_headers: Sequence[int], repeat: int = 1) -> None:
        if not sample_headers:
            raise ValueError("need at least one sample header")
        self.sample_headers = list(sample_headers)
        self.repeat = repeat

    def measure(self, classify: Callable[[int], int]) -> float:
        """Average seconds per query for ``classify``."""
        headers = self.sample_headers
        started = time.perf_counter()
        for _ in range(self.repeat):
            for header in headers:
                classify(header)
        elapsed = time.perf_counter() - started
        return elapsed / (len(headers) * self.repeat)

    def measure_batch(self, classify_batch: Callable[[Sequence[int]], object]) -> float:
        """Average seconds per query for a whole-batch classify function.

        Counterpart of :meth:`measure` for the compiled engine, whose
        throughput comes from amortizing work across a batch rather than
        from per-call dispatch.
        """
        headers = self.sample_headers
        started = time.perf_counter()
        for _ in range(self.repeat):
            classify_batch(headers)
        elapsed = time.perf_counter() - started
        return elapsed / (len(headers) * self.repeat)


class _QueryProcess:
    """The live (universe, tree/scanner) pair serving queries."""

    def __init__(
        self, universe: AtomicUniverse, tree, maintenance: str = "tombstone"
    ) -> None:
        self.universe = universe
        self.tree = tree  # None for scan-based methods (APLinear/PScan)
        if maintenance == "incremental":
            self.engine: UpdateEngine = IncrementalEngine(universe, tree)
        else:
            self.engine = UpdateEngine(universe, tree)


class DynamicSimulation:
    """Fig. 14 driver: queries + Poisson updates + periodic reconstruction.

    ``method`` selects what the query process runs:

    * ``"apclassifier"`` -- AP Tree search with real-time updates and a
      reconstruction process rebuilding every ``reconstruct_interval_s``;
    * ``"aplinear"`` -- linear scan over atomic-predicate BDDs (kept exact
      by the same universe updates; no tree, nothing to reconstruct);
    * ``"pscan"`` -- scan over all live predicate BDDs.

    ``engine`` selects how query cost is measured:

    * ``"interpreted"`` -- per-header calls on the live structure
      (pointer-chasing tree walk / BDD scans);
    * ``"compiled"`` -- the structure is flattened
      (:class:`~repro.core.compiled.CompiledAPTree` for the tree,
      :class:`~repro.core.compiled.FlatBDDSet` for the scan baselines)
      and cost comes from the batched descent.  Compile time
      after an update is charged to the query process (the artifact went
      stale and had to be rebuilt inline); compile time at a swap is
      charged to the reconstruction core, like the tree build itself
      (Section VI-B's process split).

    ``reconstruction`` selects where rebuilds execute:

    * ``"inline"`` -- the rebuild runs in this process and its *measured*
      wall time advances the simulated completion clock (the original
      discrete-event treatment);
    * ``"process"`` -- rebuilds run in a real background worker
      (:class:`ReconstructionProcess`): the predicate
      snapshot is serialized out, the universe and tree come back
      serialized, and the swap happens in whichever bucket the worker's
      result actually arrives -- the two-process loop of Fig. 8 executed
      for real.

    ``maintenance`` selects the query process's update engine:
    ``"tombstone"`` is Section VI-A's grow-only discipline (deletions
    leave dead atoms for the next reconstruction to coalesce);
    ``"incremental"`` runs :class:`repro.core.incremental.IncrementalEngine`,
    which merges atoms and splices the tree locally on deletion so the
    partition stays minimal between reconstructions.
    """

    METHODS = ("apclassifier", "aplinear", "pscan")
    ENGINES = ("interpreted", "compiled")
    RECONSTRUCTIONS = ("inline", "process")
    MAINTENANCE = ("tombstone", "incremental")

    def __init__(
        self,
        predicates: Sequence[LabeledPredicate],
        initial_count: int,
        method: str = "apclassifier",
        strategy: str = "oapt",
        reconstruct_interval_s: float = 0.4,
        bucket_s: float = 0.05,
        rng: random.Random | None = None,
        cost_samples: int = 200,
        engine: str = "interpreted",
        backend: str | None = None,
        recorder=None,
        reconstruction: str = "inline",
        maintenance: str = "tombstone",
    ) -> None:
        if method not in self.METHODS:
            raise ValueError(f"unknown method {method!r}")
        if engine not in self.ENGINES:
            raise ValueError(f"unknown engine {engine!r}")
        if reconstruction not in self.RECONSTRUCTIONS:
            raise ValueError(f"unknown reconstruction mode {reconstruction!r}")
        if maintenance not in self.MAINTENANCE:
            raise ValueError(f"unknown maintenance mode {maintenance!r}")
        if not 0 < initial_count <= len(predicates):
            raise ValueError("initial_count out of range")
        if reconstruct_interval_s < bucket_s:
            raise ValueError(
                "reconstruct_interval_s must be >= bucket_s (at most one "
                "rebuild can be triggered per simulation bucket)"
            )
        self.method = method
        self.engine = engine
        self.backend = backend
        self._compile_spent_s = 0.0
        self.strategy = strategy
        self.reconstruct_interval_s = reconstruct_interval_s
        self.bucket_s = bucket_s
        self.rng = rng if rng is not None else random.Random(0)
        self.cost_samples = cost_samples
        #: Optional :class:`repro.obs.Recorder`; the simulation mirrors
        #: its throughput timeline into ``recorder.timeline`` and counts
        #: rebuild/swap events under ``recorder.updates``.
        self.recorder = recorder

        pool = list(predicates)
        self.rng.shuffle(pool)
        self._live: dict[int, LabeledPredicate] = {
            lp.pid: lp for lp in pool[:initial_count]
        }
        self._reserve: list[LabeledPredicate] = pool[initial_count:]
        self.manager = pool[0].fn.manager
        self._next_synthetic_pid = 1 + max(lp.pid for lp in pool)
        self.maintenance = maintenance
        self._process = self._build_process()
        self._staged_process: _QueryProcess | None = None
        # Updates applied while a rebuild is in flight, journaled for
        # replay onto the staged tree.  Instance state (not a run()
        # local) so a process-mode rebuild that outlives one run() call
        # still gets its replay at the swap in a follow-on call.
        self._pending_during_rebuild: list[PredicateChange] = []
        self.reconstruction = reconstruction
        self._recon = None
        if reconstruction == "process" and method == "apclassifier":
            self._recon = ReconstructionProcess(
                self.manager, strategy=strategy, recorder=recorder
            )

    # ------------------------------------------------------------------
    # Structure management
    # ------------------------------------------------------------------

    def _live_labeled(self) -> list[LabeledPredicate]:
        return [self._live[pid] for pid in sorted(self._live)]

    def _build_process(self) -> _QueryProcess:
        universe = AtomicUniverse.compute(self.manager, self._live_labeled())
        tree = None
        if self.method == "apclassifier":
            tree = build_tree(universe, strategy=self.strategy, rng=self.rng).tree
        return _QueryProcess(universe, tree, self.maintenance)

    def _classify_fn(self, process: _QueryProcess) -> Callable[[int], int]:
        if self.method == "apclassifier":
            assert process.tree is not None
            return process.tree.classify
        if self.method == "aplinear":
            return process.universe.classify

        live = self._live

        def pscan(header: int) -> int:
            # PScan has no atom ids; fold the predicate verdict vector so
            # the work (evaluate every predicate) is what gets timed.
            verdict = 0
            for labeled in live.values():
                verdict = (verdict << 1) | labeled.fn.evaluate(header)
            return verdict

        return pscan

    def _batch_fn(
        self, process: _QueryProcess
    ) -> Callable[[Sequence[int]], object]:
        """Flatten the process's structure; return its batch classifier.

        Compile wall time accrues to ``self._compile_spent_s`` so the
        caller can decide which core to charge it to (see class docs).
        """
        started = time.perf_counter()
        if self.method == "apclassifier":
            assert process.tree is not None
            compiled = CompiledAPTree.compile(process.tree, backend=self.backend)
            batch: Callable[[Sequence[int]], object] = compiled.classify_batch
        elif self.method == "aplinear":
            atoms = process.universe.atoms()
            flat = FlatBDDSet.compile(
                self.manager,
                [atoms[atom_id].node for atom_id in atoms],
                backend=self.backend,
            )
            batch = flat.first_true_batch
        else:  # pscan: the per-query work is one verdict per live predicate
            flat = FlatBDDSet.compile(
                self.manager,
                [labeled.fn.node for labeled in self._live.values()],
                backend=self.backend,
            )
            batch = flat.truth_bits_batch
        self._compile_spent_s += time.perf_counter() - started
        return batch

    def _measure_cost(
        self, process: _QueryProcess, cost_model: QueryCostModel
    ) -> float:
        """Seconds per query on the current structure, engine-appropriate."""
        if self.engine == "compiled":
            return cost_model.measure_batch(self._batch_fn(process))
        return cost_model.measure(self._classify_fn(process))

    def _take_compile_time(self) -> float:
        """Drain and return compile seconds accrued since the last drain."""
        spent = self._compile_spent_s
        self._compile_spent_s = 0.0
        return spent

    def _sample_headers(self, process: _QueryProcess) -> list[int]:
        atoms = list(process.universe.atoms().values())
        headers = []
        for _ in range(self.cost_samples):
            atom = self.rng.choice(atoms)
            headers.append(atom.random_sat(self.rng))
        return headers

    # ------------------------------------------------------------------
    # Event application (real work, timed)
    # ------------------------------------------------------------------

    def _pick_update(self, kind: str) -> PredicateChange:
        """Choose what to add/delete; falls back when a side is exhausted.

        The returned change both updates the live process and rides the
        journal into :meth:`UpdateEngine.replay`, so replayed and direct
        builds see the identical :class:`LabeledPredicate`.
        """
        if kind == "add" and not self._reserve:
            kind = "delete"
        if kind == "delete" and len(self._live) <= 1:
            kind = "add"
        if kind == "add":
            reserved = self._reserve.pop(self.rng.randrange(len(self._reserve)))
            # Re-mint under a fresh pid: the same predicate may have been
            # added and deleted before, and universes never reuse pids.
            new_pid = self._next_synthetic_pid
            self._next_synthetic_pid += 1
            return PredicateChange(None, replace(reserved, pid=new_pid))
        pid = self.rng.choice(sorted(self._live))
        return PredicateChange(self._live[pid], None)

    def _apply_update(
        self, process: _QueryProcess, change: PredicateChange
    ) -> float:
        started = time.perf_counter()
        if change.added is not None:
            self._live[change.added.pid] = change.added
        else:
            self._reserve.append(self._live.pop(change.removed.pid))
        process.engine.apply(change)
        return time.perf_counter() - started

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def run(
        self, duration_s: float, update_rate_per_s: float
    ) -> list[ThroughputSample]:
        """Simulate ``duration_s`` seconds; returns the throughput timeline.

        Updates arrive as a Poisson process at ``update_rate_per_s``;
        each :class:`ThroughputSample` covers one ``bucket_s`` bucket
        and carries the bucket's query throughput plus the event that
        landed in it (``"update"``, ``"reconstruct"``, ``"swap"``) --
        the Fig. 14 sawtooth is read straight off this list.
        """
        events = poisson_update_schedule(update_rate_per_s, duration_s, self.rng)
        cost_model = QueryCostModel(self._sample_headers(self._process))
        per_query = self._measure_cost(self._process, cost_model)
        self._take_compile_time()  # initial compile predates the clock

        samples: list[ThroughputSample] = []
        event_index = 0
        rebuild_at = self.reconstruct_interval_s
        rebuild_done_at = float("inf")
        # A process-mode rebuild races real wall time, so it can outlive
        # one run() call: pick its in-flight state (and the updates
        # queued for replay) back up instead of double-submitting.
        in_flight = self._recon is not None and self._recon.busy
        pending_during_rebuild = self._pending_during_rebuild
        now = 0.0

        while now < duration_s:
            bucket_end = min(now + self.bucket_s, duration_s)
            update_time = 0.0
            annotation = ""

            # Reconstruction trigger.  Inline mode builds here and charges
            # the measured wall time to the rebuild clock only, not to the
            # query process; process mode ships the snapshot to the worker
            # and carries on.  A rebuild still in flight is never
            # re-triggered -- the next interval tick finds it done first.
            if (
                rebuild_at <= bucket_end
                and self.method == "apclassifier"
                and not in_flight
            ):
                if self._recon is not None:
                    self._recon.submit(self._live_labeled())
                else:
                    started = time.perf_counter()
                    self._staged_process = self._build_process()
                    build_time = time.perf_counter() - started
                    rebuild_done_at = rebuild_at + build_time
                rebuild_at += self.reconstruct_interval_s
                in_flight = True
                pending_during_rebuild = []
                annotation = "rebuild_start"
                if self.recorder is not None:
                    self.recorder.updates.rebuilds += 1

            # Apply due update events to the live process (and queue them
            # for the staged tree if a rebuild is in flight).
            while event_index < len(events) and events[event_index].at <= bucket_end:
                event = events[event_index]
                event_index += 1
                change = self._pick_update(event.kind)
                update_time += self._apply_update(self._process, change)
                if in_flight:
                    pending_during_rebuild.append(change)

            # Rebuild completion: inline mode completes when the simulated
            # clock passes the measured build time; process mode completes
            # when the worker's result has actually arrived on the pipe.
            done = False
            if in_flight and self.method == "apclassifier":
                if self._recon is not None:
                    if self._recon.poll():
                        universe, tree, _ = self._recon.receive()
                        self._staged_process = _QueryProcess(
                            universe, tree, self.maintenance
                        )
                        done = True
                elif rebuild_done_at <= bucket_end:
                    done = True

            # Replay queued updates onto the new tree, then swap (Fig. 8).
            if done:
                staged = self._staged_process
                assert staged is not None
                replayed = staged.engine.replay(pending_during_rebuild)
                # The staged engine has no recorder of its own (only the
                # live process is observed), so credit the replays here.
                if self.recorder is not None:
                    self.recorder.updates.replayed += replayed
                pending_during_rebuild = []
                self._process = staged
                self._staged_process = None
                rebuild_done_at = float("inf")
                in_flight = False
                annotation = "swap"
                cost_model = QueryCostModel(self._sample_headers(self._process))
                per_query = self._measure_cost(self._process, cost_model)
                # Compiling the fresh tree rides on the reconstruction
                # core, like the build itself: don't charge the queries.
                self._take_compile_time()
            elif update_time > 0:
                # Structure changed: re-measure the per-query cost.  In
                # compiled mode the update stales the artifact, so the
                # inline recompile is paid by the query process.
                per_query = self._measure_cost(self._process, cost_model)
                update_time += self._take_compile_time()

            available = max((bucket_end - now) - update_time, 0.0)
            throughput = available / per_query / (bucket_end - now)
            samples.append(
                ThroughputSample(
                    time_s=bucket_end, throughput_qps=throughput, event=annotation
                )
            )
            if self.recorder is not None:
                self.recorder.record_timeline_sample(
                    time_s=bucket_end,
                    throughput_qps=throughput,
                    event=annotation,
                )
            now = bucket_end
        # A process-mode rebuild still in flight when simulated time runs
        # out stays in flight: a follow-on run() picks it up (see the
        # ``in_flight`` initialization above) and swaps it in with the
        # queued updates replayed, instead of discarding the worker's
        # result.  close() copes with a still-busy worker.
        self._pending_during_rebuild = pending_during_rebuild
        return samples

    def close(self) -> None:
        """Shut down the reconstruction worker, if one is running."""
        recon = self._recon
        self._recon = None
        if recon is not None:
            recon.close()

    def __enter__(self) -> "DynamicSimulation":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
