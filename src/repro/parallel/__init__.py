"""``repro.parallel``: the multi-core offline pipeline.

The paper's offline phase -- rule conversion, atomic-predicate
computation, AP Tree construction -- parallelizes along three different
seams (per box, per predicate shard, per trial/candidate chunk), and
Section VI-B's reconstruction loop is itself a second process.  This
package provides all four on top of one spawn-safe worker-pool layer:

* :mod:`~repro.parallel.pool` -- pool plumbing (``REPRO_WORKERS``,
  ``REPRO_MP_START``, contiguous sharding, serial fallback);
* :mod:`~repro.parallel.convert` -- sharded rule-to-BDD conversion;
* :mod:`~repro.parallel.atoms` + :mod:`~repro.parallel.merge` --
  divide-and-conquer atoms with a witness-guided universe merge;
* :mod:`~repro.parallel.build` -- fanned Best-from-Random trials and a
  chunked OAPT root scan;
* :mod:`~repro.parallel.recon` + :mod:`~repro.parallel.snapshot` -- the
  one isolated Section VI-B rebuild, a worker process to run it in, and
  the artifact serialization it rides on;
* :mod:`~repro.parallel.pipeline` -- the composed end-to-end pipeline.

Every entry point is output-equivalent to its serial counterpart for
any worker count; see DESIGN.md ("Parallel offline pipeline").
"""

from .atoms import compute_atoms
from .build import (
    parallel_best_from_random,
    parallel_build_oapt,
    parallel_build_tree,
)
from .convert import convert_network, parallel_dataplane
from .merge import merge_universes
from .pipeline import OfflineResult, offline_pipeline
from .pool import (
    ENV_START,
    ENV_WORKERS,
    WorkerPool,
    close_shared_pools,
    default_start_method,
    resolve_workers,
    shard,
    shared_pool,
)
from .recon import ReconstructionProcess
from .snapshot import (
    restore_tree,
    restore_universe,
    snapshot_tree,
    snapshot_universe,
)

__all__ = [
    "ENV_START",
    "ENV_WORKERS",
    "OfflineResult",
    "ReconstructionProcess",
    "WorkerPool",
    "close_shared_pools",
    "compute_atoms",
    "convert_network",
    "default_start_method",
    "merge_universes",
    "offline_pipeline",
    "parallel_best_from_random",
    "parallel_build_oapt",
    "parallel_build_tree",
    "parallel_dataplane",
    "resolve_workers",
    "restore_tree",
    "restore_universe",
    "shard",
    "shared_pool",
    "snapshot_tree",
    "snapshot_universe",
]
