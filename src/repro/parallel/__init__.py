"""``repro.parallel``: the Section VI-B reconstruction process + its snapshots.

The paper computes atomic predicates and the AP Tree in one process and
uses a second process for exactly one thing: Section VI-B's
reconstruction (Fig. 8).  This package holds that and nothing else:

* :mod:`~repro.parallel.recon` -- the one isolated rebuild
  (``snapshot_predicates`` / ``rebuild_snapshot`` / ``restore_rebuild``)
  and :class:`ReconstructionProcess`, a worker process to run it in
  (start method: ``REPRO_MP_START``);
* :mod:`~repro.parallel.snapshot` -- universes and AP Trees as plain
  data, the form they cross the process boundary (and into artifacts)
  in.
"""

from .recon import ReconstructionProcess
from .snapshot import (
    restore_tree,
    restore_universe,
    snapshot_tree,
    snapshot_universe,
)

__all__ = [
    "ReconstructionProcess",
    "restore_tree",
    "restore_universe",
    "snapshot_tree",
    "snapshot_universe",
]
