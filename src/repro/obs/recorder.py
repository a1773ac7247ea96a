"""The :class:`Recorder`: low-overhead pipeline instrumentation.

The paper's whole evaluation (Figs. 4-14) is built on internal counters
-- predicate evaluations per query, AP Tree depth distributions, BDD
cache behavior, update latencies -- that the pipeline otherwise throws
away.  A :class:`Recorder` collects them without taxing the hot paths:

* every instrumented component (``BDDManager``, ``APTree``,
  ``UpdateEngine``, ``APClassifier``, ``DynamicSimulation``) carries a
  ``recorder`` attribute that is ``None`` by default;
* hot loops read that attribute once, up front, and take the exact
  pre-instrumentation code path when it is ``None`` -- the off state
  costs one attribute check per call, nothing per loop iteration
  (``benchmarks/bench_obs_overhead.py`` holds this to <5% on
  ``classify_many``);
* when a recorder is attached, counters are plain attribute increments
  on small ``__slots__`` objects -- no locks, no allocation per event.

One recorder may observe several components at once (a classifier wires
its manager, tree, and update engine together); counters from all of
them land in one :meth:`Recorder.snapshot`, a JSON-serializable dict
whose shape is pinned by :mod:`repro.obs.schema`.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Iterator

__all__ = [
    "BDDCounters",
    "DiffCounters",
    "ParallelCounters",
    "PersistCounters",
    "Recorder",
    "ServeCounters",
    "TreeCounters",
    "UpdateCounters",
]

#: Snapshot format identifier; bump on incompatible shape changes.
#: /2 added the "parallel" section (process shipping volume; its stage
#: and shard keys are no longer fed) and ``updates.replayed``.
#: /3 added the "serve" section (online query service: batch-size
#: histogram, queue depth watermark, sheds/timeouts, service latency).
#: /4 added the "persist" section (artifact/snapshot save and load
#: timings, byte volumes, mmap-vs-copy load counts) and the serve
#: ``workers``/``generations`` counters (multi-worker serving).
#: /5 added the serve ``result_cache`` block (hot-header result cache:
#: hits, misses, evictions, invalidations, hit rate).
#: /6 added ``updates.tombstoned`` (atoms whose membership a removal
#: changed) and the ``updates.incremental`` block (merge/splice/patch
#: counters of the incremental maintenance engine).
#: /7 added the serve ``frames`` counter (batched framed-protocol
#: requests) and the serve ``shard`` block (multi-node router: topology,
#: per-shard routed counts, retries/failovers, generation-handoff count
#: and latency).  The router is gone: ``shards``/``replicas``/``routed``/
#: ``retries``/``failovers`` are constant, the handoff keys count
#: :class:`~repro.serve.ServeGrid` publishes.
#: /8 added the "diff" section (differential/what-if queries: generation
#: comparisons, shadow-fork builds and build time, atom pairs examined,
#: model-counting time, and the changed-volume-share histogram).
#: /9 added the "scenario" section (which registry scenario produced the
#: workload: name, master seed, bound params; empty name = untagged).
SCHEMA_ID = "repro.obs.snapshot/9"

#: Service latencies kept for the percentile summary; same bounded-
#: reservoir treatment as update latencies.
MAX_SERVICE_LATENCY_SAMPLES = 50_000

#: Update latencies kept for the percentile summary.  Beyond this the
#: reservoir stops growing (count/mean/max stay exact; percentiles then
#: describe the first N updates, which is plenty for Fig. 13 shapes).
MAX_LATENCY_SAMPLES = 10_000


def _percentile(ordered: list[float], q: float) -> float:
    """Linear-interpolated percentile of an already-sorted sample."""
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return float(ordered[0])
    position = (len(ordered) - 1) * q / 100.0
    lower = math.floor(position)
    upper = math.ceil(position)
    if lower == upper:
        return float(ordered[lower])
    fraction = position - lower
    return ordered[lower] * (1 - fraction) + ordered[upper] * fraction


def _rate(hits: int, misses: int) -> float:
    total = hits + misses
    return hits / total if total else 0.0


class BDDCounters:
    """Manager-level counters: operation caches, node table, op timings."""

    __slots__ = (
        "apply_hits",
        "apply_misses",
        "ite_hits",
        "ite_misses",
        "not_hits",
        "not_misses",
        "cache_clears",
        "op_calls",
        "op_seconds",
    )

    def __init__(self) -> None:
        self.apply_hits = 0
        self.apply_misses = 0
        self.ite_hits = 0
        self.ite_misses = 0
        self.not_hits = 0
        self.not_misses = 0
        self.cache_clears = 0
        self.op_calls: dict[str, int] = {}
        self.op_seconds: dict[str, float] = {}

    def record_op(self, name: str, seconds: float) -> None:
        """Accrue one timed top-level operation (``time_bdd_ops`` mode)."""
        self.op_calls[name] = self.op_calls.get(name, 0) + 1
        self.op_seconds[name] = self.op_seconds.get(name, 0.0) + seconds


class TreeCounters:
    """Query-side counters: the paper's Fig. 7/8 material."""

    __slots__ = ("queries", "predicate_evaluations", "depth_histogram")

    def __init__(self) -> None:
        self.queries = 0
        self.predicate_evaluations = 0
        self.depth_histogram: dict[int, int] = {}

    def record_query(self, depth: int) -> None:
        """One classified packet that evaluated ``depth`` predicates."""
        self.queries += 1
        self.predicate_evaluations += depth
        histogram = self.depth_histogram
        histogram[depth] = histogram.get(depth, 0) + 1


class UpdateCounters:
    """Update-side counters: splits, rebuilds, staleness fallbacks."""

    __slots__ = (
        "updates_applied",
        "adds",
        "removes",
        "atoms_split",
        "tombstoned",
        "leaf_splits",
        "split_events",
        "rebuilds",
        "reconstructs",
        "replayed",
        "compiles",
        "incremental_merges",
        "incremental_splices",
        "incremental_patches",
        "incremental_patch_fallbacks",
        "incremental_full_rebuilds",
        "stale_fallback_swapped",
        "stale_fallback_version",
        "latency_samples",
        "latency_total_s",
        "latency_count",
        "latency_max_s",
    )

    def __init__(self) -> None:
        self.updates_applied = 0
        self.adds = 0
        self.removes = 0
        self.atoms_split = 0
        self.tombstoned = 0
        self.leaf_splits = 0
        self.split_events = 0
        self.rebuilds = 0
        self.reconstructs = 0
        self.replayed = 0
        self.compiles = 0
        self.incremental_merges = 0
        self.incremental_splices = 0
        self.incremental_patches = 0
        self.incremental_patch_fallbacks = 0
        self.incremental_full_rebuilds = 0
        self.stale_fallback_swapped = 0
        self.stale_fallback_version = 0
        self.latency_samples: list[float] = []
        self.latency_total_s = 0.0
        self.latency_count = 0
        self.latency_max_s = 0.0

    def record_update(
        self,
        added: bool,
        removed: bool,
        atoms_split: int,
        elapsed_s: float,
        tombstoned: int = 0,
    ) -> None:
        """Accounting for one applied :class:`PredicateChange`."""
        self.updates_applied += 1
        if added:
            self.adds += 1
        if removed:
            self.removes += 1
        self.atoms_split += atoms_split
        self.tombstoned += tombstoned
        self.latency_count += 1
        self.latency_total_s += elapsed_s
        if elapsed_s > self.latency_max_s:
            self.latency_max_s = elapsed_s
        if len(self.latency_samples) < MAX_LATENCY_SAMPLES:
            self.latency_samples.append(elapsed_s)

    def record_splits(self, leaves_split: int) -> None:
        """One ``APTree.apply_splits`` call that split ``leaves_split`` leaves."""
        self.split_events += 1
        self.leaf_splits += leaves_split

    def record_stale_fallback(self, reason: str) -> None:
        """A query fell back to the interpreted tree; ``reason`` is the
        :meth:`CompiledAPTree.stale_reason` verdict."""
        if reason == "swapped":
            self.stale_fallback_swapped += 1
        else:
            self.stale_fallback_version += 1

    @property
    def stale_fallbacks(self) -> int:
        return self.stale_fallback_swapped + self.stale_fallback_version


class ParallelCounters:
    """Cross-process shipping volume of the Section VI-B rebuild.

    :class:`repro.core.reconstruction.ReconstructionProcess` feeds the two byte
    counters (BDD images sent to / received from its worker).
    """

    # Only the two byte counters have a writer; the other five keys stay
    # (at 0/{}/[]) so committed ``/9`` sidecars validate, until the schema
    # turns additive (ROADMAP item 8(d)).
    __slots__ = (
        "workers",
        "pool_tasks",
        "stage_seconds",
        "shard_sizes",
        "bytes_to_workers",
        "bytes_from_workers",
        "merge_atom_counts",
    )

    def __init__(self) -> None:
        self.workers = 0
        self.pool_tasks = 0
        self.stage_seconds: dict[str, float] = {}
        self.shard_sizes: dict[str, list[int]] = {}
        self.bytes_to_workers = 0
        self.bytes_from_workers = 0
        self.merge_atom_counts: list[int] = []

    def record_shipping(self, to_workers: int, from_workers: int) -> None:
        """Serialized-BDD bytes sent to / received from workers."""
        self.bytes_to_workers += to_workers
        self.bytes_from_workers += from_workers


class ServeCounters:
    """Online-query-service counters (:mod:`repro.serve`).

    Populated by :class:`repro.serve.QueryService`: admission outcomes
    (served / shed / timed out), micro-batch sizes, the admission-queue
    depth high-water mark, degradation events (stale-artifact serving
    windows, reconstruction swaps), and a service-latency reservoir for
    the p50/p99 summary.
    """

    __slots__ = (
        "requests",
        "served",
        "shed",
        "timeouts",
        "rejected",
        "batches",
        "batched_requests",
        "batch_size_histogram",
        "queue_depth_max",
        "swaps",
        "workers",
        "generations",
        "cache_hits",
        "cache_misses",
        "cache_evictions",
        "cache_invalidations",
        "cache_coalesced",
        "frames",
        "handoffs",
        "handoff_total_s",
        "handoff_last_s",
        "latency_samples",
        "latency_total_s",
        "latency_count",
        "latency_max_s",
    )

    def __init__(self) -> None:
        self.requests = 0
        self.served = 0
        self.shed = 0
        self.timeouts = 0
        self.rejected = 0
        self.batches = 0
        self.batched_requests = 0
        self.batch_size_histogram: dict[int, int] = {}
        self.queue_depth_max = 0
        self.swaps = 0
        self.workers = 0
        self.generations = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_evictions = 0
        self.cache_invalidations = 0
        self.cache_coalesced = 0
        self.frames = 0
        self.handoffs = 0
        self.handoff_total_s = 0.0
        self.handoff_last_s = 0.0
        self.latency_samples: list[float] = []
        self.latency_total_s = 0.0
        self.latency_count = 0
        self.latency_max_s = 0.0

    def record_admission(self, queue_depth: int) -> None:
        """One request admitted with the queue at ``queue_depth``."""
        self.requests += 1
        if queue_depth > self.queue_depth_max:
            self.queue_depth_max = queue_depth

    def record_batch(self, size: int) -> None:
        """One dispatched micro-batch of ``size`` coalesced requests."""
        self.batches += 1
        self.batched_requests += size
        histogram = self.batch_size_histogram
        histogram[size] = histogram.get(size, 0) + 1

    def record_served(self, latency_s: float) -> None:
        """One request answered after ``latency_s`` in the service."""
        self.served += 1
        self.latency_count += 1
        self.latency_total_s += latency_s
        if latency_s > self.latency_max_s:
            self.latency_max_s = latency_s
        if len(self.latency_samples) < MAX_SERVICE_LATENCY_SAMPLES:
            self.latency_samples.append(latency_s)

    def record_frame(self, size: int, latency_s: float) -> None:
        """One framed-protocol batch of ``size`` requests answered.

        The whole frame counts as ``size`` requests/served but one
        latency sample (the frame is one round trip) and one batch.
        """
        self.frames += 1
        self.requests += size
        self.served += size
        self.latency_count += 1
        self.latency_total_s += latency_s
        if latency_s > self.latency_max_s:
            self.latency_max_s = latency_s
        if len(self.latency_samples) < MAX_SERVICE_LATENCY_SAMPLES:
            self.latency_samples.append(latency_s)
        self.record_batch(size)

    def record_handoff(self, seconds: float) -> None:
        """One completed grid-wide generation handoff."""
        self.handoffs += 1
        self.handoff_total_s += seconds
        self.handoff_last_s = seconds
        self.generations += 1

    def summary(self) -> dict:
        """The JSON-shaped ``serve`` snapshot section (schema /7)."""
        ordered = sorted(self.latency_samples)
        return {
            "requests": self.requests,
            "served": self.served,
            "shed": self.shed,
            "timeouts": self.timeouts,
            "rejected": self.rejected,
            "batches": self.batches,
            "batched_requests": self.batched_requests,
            "mean_batch_size": (
                self.batched_requests / self.batches if self.batches else 0.0
            ),
            "batch_size_histogram": {
                str(size): self.batch_size_histogram[size]
                for size in sorted(self.batch_size_histogram)
            },
            "queue_depth_max": self.queue_depth_max,
            "swaps": self.swaps,
            "workers": self.workers,
            "generations": self.generations,
            "result_cache": {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "evictions": self.cache_evictions,
                "invalidations": self.cache_invalidations,
                "coalesced": self.cache_coalesced,
                "hit_rate": _rate(self.cache_hits, self.cache_misses),
            },
            "frames": self.frames,
            # The sharded tier is gone; schema /9 still requires this
            # block, so its topology and routing keys stay constant.
            "shard": {
                "shards": 0,
                "replicas": 0,
                "routed": {},
                "retries": 0,
                "failovers": 0,
                "handoffs": self.handoffs,
                "handoff_s": {
                    "total": self.handoff_total_s,
                    "last": self.handoff_last_s,
                },
            },
            "latency_s": {
                "count": self.latency_count,
                "mean": (
                    self.latency_total_s / self.latency_count
                    if self.latency_count
                    else 0.0
                ),
                "p50": _percentile(ordered, 50.0),
                "p99": _percentile(ordered, 99.0),
                "max": self.latency_max_s,
            },
        }


class PersistCounters:
    """Persistence counters (:mod:`repro.persist` / :mod:`repro.artifact`).

    Populated by the save/load entry points: how many artifacts or
    snapshots were written and restored, the wall time and byte volume
    of each direction, and whether loads went through the ``mmap``
    zero-copy path or the stdlib copy fallback.
    """

    __slots__ = (
        "saves",
        "loads",
        "save_seconds",
        "load_seconds",
        "bytes_written",
        "bytes_read",
        "mmap_loads",
        "copy_loads",
    )

    def __init__(self) -> None:
        self.saves = 0
        self.loads = 0
        self.save_seconds = 0.0
        self.load_seconds = 0.0
        self.bytes_written = 0
        self.bytes_read = 0
        self.mmap_loads = 0
        self.copy_loads = 0

    def record_save(self, size_bytes: int, seconds: float) -> None:
        """One classifier persisted (``size_bytes`` on disk or in shm)."""
        self.saves += 1
        self.bytes_written += size_bytes
        self.save_seconds += seconds

    def record_load(
        self, size_bytes: int, seconds: float, *, mmapped: bool
    ) -> None:
        """One classifier (or serving engine) restored."""
        self.loads += 1
        self.bytes_read += size_bytes
        self.load_seconds += seconds
        if mmapped:
            self.mmap_loads += 1
        else:
            self.copy_loads += 1

    def summary(self) -> dict:
        """The JSON-shaped ``persist`` snapshot section (schema /4)."""
        return {
            "saves": self.saves,
            "loads": self.loads,
            "save_seconds": self.save_seconds,
            "load_seconds": self.load_seconds,
            "bytes_written": self.bytes_written,
            "bytes_read": self.bytes_read,
            "mmap_loads": self.mmap_loads,
            "copy_loads": self.copy_loads,
        }


class DiffCounters:
    """Differential-query counters (:mod:`repro.diff`).

    Populated by :func:`repro.diff.diff_generations` and
    :func:`repro.diff.what_if`: how many generation comparisons and
    what-if queries ran, how many shadow classifiers were forked (and
    how long the forks took), the atom-pair volume each sweep examined,
    and where the model-counting time went.  The changed-volume
    histogram buckets each comparison by the *share* of the header
    space whose behavior changed -- the operational question a diff
    answers ("how big is this change?") at a glance.
    """

    __slots__ = (
        "comparisons",
        "whatifs",
        "shadow_builds",
        "shadow_build_seconds",
        "pairs_examined",
        "changed_classes",
        "sat_count_seconds",
        "share_histogram",
    )

    #: Upper bounds (exclusive) of the changed-volume-share buckets; a
    #: share of exactly zero lands in its own "0" bucket.
    _SHARE_BUCKETS = (
        (0.001, "<0.1%"),
        (0.01, "<1%"),
        (0.1, "<10%"),
        (0.5, "<50%"),
    )

    def __init__(self) -> None:
        self.comparisons = 0
        self.whatifs = 0
        self.shadow_builds = 0
        self.shadow_build_seconds = 0.0
        self.pairs_examined = 0
        self.changed_classes = 0
        self.sat_count_seconds = 0.0
        self.share_histogram: dict[str, int] = {}

    def record_comparison(
        self, *, pairs: int, changed: int, share: float, sat_count_s: float
    ) -> None:
        """One generation diff: its sweep size, outcome, and count time."""
        self.comparisons += 1
        self.pairs_examined += pairs
        self.changed_classes += changed
        self.sat_count_seconds += sat_count_s
        bucket = ">=50%"
        if share == 0.0:
            bucket = "0"
        else:
            for bound, name in self._SHARE_BUCKETS:
                if share < bound:
                    bucket = name
                    break
        self.share_histogram[bucket] = self.share_histogram.get(bucket, 0) + 1

    def record_shadow_build(self, seconds: float) -> None:
        """One shadow classifier forked from a live generation."""
        self.shadow_builds += 1
        self.shadow_build_seconds += seconds

    def record_whatif(self) -> None:
        """One complete what-if query answered."""
        self.whatifs += 1

    def summary(self) -> dict:
        """The JSON-shaped ``diff`` snapshot section (schema /8)."""
        return {
            "comparisons": self.comparisons,
            "whatifs": self.whatifs,
            "shadow_builds": self.shadow_builds,
            "shadow_build_seconds": self.shadow_build_seconds,
            "pairs_examined": self.pairs_examined,
            "changed_classes": self.changed_classes,
            "sat_count_seconds": self.sat_count_seconds,
            "changed_volume_histogram": {
                bucket: self.share_histogram[bucket]
                for bucket in sorted(self.share_histogram)
            },
        }


class Recorder:
    """Collects instrumentation from every component it is attached to.

    ``time_bdd_ops`` additionally times each *top-level* BDD operation
    (``apply_and``/``or``/``xor``/``diff``, ``ite``, ``negate``); it is
    off by default because the per-op clock reads dominate tiny
    operations.
    """

    def __init__(self, time_bdd_ops: bool = False) -> None:
        self.time_bdd_ops = time_bdd_ops
        self.bdd = BDDCounters()
        self.tree = TreeCounters()
        self.updates = UpdateCounters()
        self.parallel = ParallelCounters()
        self.serve = ServeCounters()
        self.persist = PersistCounters()
        self.diff = DiffCounters()
        self.timeline: list[dict] = []
        # Which registry scenario produced the observed workload; the
        # empty name means the run was not scenario-tagged.
        self.scenario: dict = {"name": "", "seed": 0, "params": {}}
        self._managers: list = []  # BDDManager instances under observation
        self._nodes_at_attach: list[int] = []

    def set_scenario(self, scenario) -> None:
        """Tag snapshots with a :class:`repro.datasets.Scenario`.

        Accepts the scenario object itself (name/seed/params attributes)
        or ``None`` to clear the tag.
        """
        if scenario is None:
            self.scenario = {"name": "", "seed": 0, "params": {}}
        else:
            self.scenario = {
                "name": scenario.name,
                "seed": scenario.seed,
                "params": dict(scenario.params),
            }

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------

    def attach_manager(self, manager) -> None:
        """Start observing a :class:`BDDManager` (node growth baseline)."""
        if manager.recorder is not self:
            manager.recorder = self
        if not any(existing is manager for existing in self._managers):
            self._managers.append(manager)
            self._nodes_at_attach.append(len(manager))

    def replace_manager(self, old, new) -> None:
        """Observe ``new`` in place of ``old`` (a classifier moved its
        BDDs to a fresh manager); the node baseline restarts at ``new``'s
        size, and ``old`` is no longer kept alive."""
        for index, existing in enumerate(self._managers):
            if existing is old:
                del self._managers[index]
                del self._nodes_at_attach[index]
                break
        if old.recorder is self:
            old.recorder = None
        self.attach_manager(new)

    def attach_tree(self, tree) -> None:
        """Start observing an :class:`APTree`."""
        tree.recorder = self
        self.attach_manager(tree.manager)

    @contextmanager
    def observe(self, classifier) -> Iterator["Recorder"]:
        """Attach to an :class:`APClassifier` for the duration of a block.

        Benchmarks use this to take an instrumented pass over a shared
        (session-scoped) classifier without leaving the recorder wired
        into later, timing-sensitive measurements.
        """
        classifier.set_recorder(self)
        try:
            yield self
        finally:
            classifier.set_recorder(None)

    @contextmanager
    def observe_tree(self, tree) -> Iterator["Recorder"]:
        """Attach to a bare :class:`APTree` (and its manager) for a block."""
        previous_tree = tree.recorder
        previous_manager = tree.manager.recorder
        self.attach_tree(tree)
        try:
            yield self
        finally:
            tree.recorder = previous_tree
            tree.manager.recorder = previous_manager

    # ------------------------------------------------------------------
    # Event intake (non-counter shaped)
    # ------------------------------------------------------------------

    def record_timeline_sample(
        self, time_s: float, throughput_qps: float, event: str = ""
    ) -> None:
        """One dynamic-simulation throughput bucket (Fig. 14 material)."""
        self.timeline.append(
            {
                "time_s": time_s,
                "throughput_qps": throughput_qps,
                "event": event,
            }
        )

    # ------------------------------------------------------------------
    # Snapshot
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """The collected state as a JSON-serializable dict.

        The shape is pinned by :data:`repro.obs.schema.SNAPSHOT_SCHEMA`
        (currently ``repro.obs.snapshot/9``) and checked by
        :func:`repro.obs.schema.validate_snapshot`; every number is
        finite, so ``json.dumps(..., allow_nan=False)`` always succeeds.
        Sections: ``scenario`` (which registry scenario produced the
        workload), ``bdd`` (cache and node-table counters), ``tree``
        (per-query evaluation counts and depth histogram), ``updates``
        (splits, rebuilds, staleness fallbacks), ``parallel`` (bytes
        shipped to and from the reconstruction process), ``serve`` (the
        query service's batch/queue/latency counters), ``persist``
        (artifact/snapshot save and load traffic), ``diff`` (generation
        diffs and what-if queries), and ``timeline`` (dynamic-run samples).
        """
        bdd = self.bdd
        tree = self.tree
        updates = self.updates
        parallel = self.parallel
        nodes_attached = sum(self._nodes_at_attach)
        nodes_current = sum(len(manager) for manager in self._managers)
        ordered_latencies = sorted(updates.latency_samples)
        return {
            "schema": SCHEMA_ID,
            "scenario": dict(self.scenario),
            "bdd": {
                "apply_cache": {
                    "hits": bdd.apply_hits,
                    "misses": bdd.apply_misses,
                    "hit_rate": _rate(bdd.apply_hits, bdd.apply_misses),
                },
                "ite_cache": {
                    "hits": bdd.ite_hits,
                    "misses": bdd.ite_misses,
                    "hit_rate": _rate(bdd.ite_hits, bdd.ite_misses),
                },
                "not_cache": {
                    "hits": bdd.not_hits,
                    "misses": bdd.not_misses,
                    "hit_rate": _rate(bdd.not_hits, bdd.not_misses),
                },
                "cache_clears": bdd.cache_clears,
                "node_table": {
                    "at_attach": nodes_attached,
                    "current": nodes_current,
                    "growth": nodes_current - nodes_attached,
                },
                "op_timings": {
                    name: {
                        "calls": bdd.op_calls[name],
                        "seconds": bdd.op_seconds.get(name, 0.0),
                    }
                    for name in sorted(bdd.op_calls)
                },
            },
            "tree": {
                "queries": tree.queries,
                "predicate_evaluations": tree.predicate_evaluations,
                "mean_evaluations_per_query": (
                    tree.predicate_evaluations / tree.queries
                    if tree.queries
                    else 0.0
                ),
                "depth_histogram": {
                    str(depth): tree.depth_histogram[depth]
                    for depth in sorted(tree.depth_histogram)
                },
            },
            "updates": {
                "updates_applied": updates.updates_applied,
                "adds": updates.adds,
                "removes": updates.removes,
                "atoms_split": updates.atoms_split,
                "tombstoned": updates.tombstoned,
                "leaf_splits": updates.leaf_splits,
                "split_events": updates.split_events,
                "rebuilds": updates.rebuilds,
                "reconstructs": updates.reconstructs,
                "replayed": updates.replayed,
                "compiles": updates.compiles,
                "incremental": {
                    "merges": updates.incremental_merges,
                    "splices": updates.incremental_splices,
                    "patches": updates.incremental_patches,
                    "patch_fallbacks": updates.incremental_patch_fallbacks,
                    "full_rebuilds": updates.incremental_full_rebuilds,
                },
                "stale_fallbacks": {
                    "total": updates.stale_fallbacks,
                    "swapped": updates.stale_fallback_swapped,
                    "version": updates.stale_fallback_version,
                },
                "latency_s": {
                    "count": updates.latency_count,
                    "mean": (
                        updates.latency_total_s / updates.latency_count
                        if updates.latency_count
                        else 0.0
                    ),
                    "p50": _percentile(ordered_latencies, 50.0),
                    "p95": _percentile(ordered_latencies, 95.0),
                    "max": updates.latency_max_s,
                },
            },
            "parallel": {
                "workers": parallel.workers,
                "pool_tasks": parallel.pool_tasks,
                "stage_seconds": {
                    stage: parallel.stage_seconds[stage]
                    for stage in sorted(parallel.stage_seconds)
                },
                "shard_sizes": {
                    stage: list(parallel.shard_sizes[stage])
                    for stage in sorted(parallel.shard_sizes)
                },
                "bytes_to_workers": parallel.bytes_to_workers,
                "bytes_from_workers": parallel.bytes_from_workers,
                "merge_atom_counts": list(parallel.merge_atom_counts),
            },
            "serve": self.serve.summary(),
            "persist": self.persist.summary(),
            "diff": self.diff.summary(),
            "timeline": list(self.timeline),
        }

    def __repr__(self) -> str:
        return (
            f"Recorder({self.tree.queries} queries, "
            f"{self.updates.updates_applied} updates, "
            f"{len(self.timeline)} timeline samples)"
        )
