"""Stage 2 of the parallel offline pipeline: divide-and-conquer atoms.

Serial atom computation refines one working partition by every predicate
in turn, so late predicates pay BDD operations proportional to the
*full* atom count.  Splitting the predicate set into contiguous shards
keeps every worker's intermediate partition small (refinement cost grows
superlinearly in atom count), and the witness-guided
:func:`~repro.parallel.merge.merge_universes` combine step costs only
O(final atoms) BDD operations -- which is why the decomposition wins
even on a single core.

Workers are spawn-safe: each receives ``(pids, image of the predicate
functions)``, computes its shard universe in a private manager, and
ships back an image of the atoms plus positional ``R`` sets.  The parent
reassembles each shard against its own canonical predicate functions,
folds the shards together with ``merge_universes``, and canonically
renumbers -- so the result is bit-identical to serial
``AtomicUniverse.compute(...).renumber_canonical()`` for any worker
count.
"""

from __future__ import annotations

from typing import Sequence

from ..bdd import BDDManager, Function
from ..bdd.serialize import Image, dump_image, image_nbytes, load_image
from ..core.atomic import AtomicUniverse
from ..network.dataplane import LabeledPredicate
from .merge import merge_universes
from .pool import WorkerPool, shard, shared_pool

__all__ = ["compute_atoms"]

#: One worker task: (pids, image of the predicate functions, same order).
_AtomsTask = tuple[tuple[int, ...], Image]


def _atoms_shard(task: _AtomsTask):
    """Worker: full refinement over one predicate shard, privately.

    Returns ``(atom image, r)`` where the image's roots are the atoms in
    sorted-atom-id order and ``r`` maps pid -> positions into that list.
    """
    pids, image = task
    manager = BDDManager(image[0])  # the image carries its num_vars
    labeled = [
        LabeledPredicate(pid, "forward", "shard", "shard", Function(manager, node))
        for pid, node in zip(pids, load_image(manager, image))
    ]
    universe = AtomicUniverse.compute(manager, labeled)
    atom_order = sorted(universe.atom_ids())
    position = {atom_id: index for index, atom_id in enumerate(atom_order)}
    atoms = [universe.atom_fn(atom_id).node for atom_id in atom_order]
    r = {
        pid: sorted(position[atom_id] for atom_id in universe.r(pid))
        for pid in pids
    }
    return dump_image(manager, atoms), r


def compute_atoms(
    manager: BDDManager,
    predicates: Sequence[LabeledPredicate],
    pool: WorkerPool | None = None,
    workers: int | None = None,
    recorder=None,
) -> AtomicUniverse:
    """Atomic predicates of ``predicates``, sharded across the pool.

    Output is independent of the worker count: atoms get canonical
    witness-ordered ids (see :meth:`AtomicUniverse.renumber_canonical`)
    on the serial path too, so ``workers=1`` and ``workers=8`` produce
    identical universes node-for-node.
    """
    if pool is None:
        pool = shared_pool(workers)
    predicates = list(predicates)
    parallel = recorder.parallel if recorder is not None else None
    if pool.serial or len(predicates) <= 1:
        if parallel is not None:
            parallel.record_shards("atoms", [len(predicates)])
        universe = AtomicUniverse.compute(manager, predicates)
        return universe.renumber_canonical()
    shards = shard(predicates, pool.workers)
    tasks: list[_AtomsTask] = []
    for chunk in shards:
        tasks.append(
            (
                tuple(labeled.pid for labeled in chunk),
                dump_image(manager, [labeled.fn.node for labeled in chunk]),
            )
        )
    results = pool.map(_atoms_shard, tasks)
    bytes_to = sum(image_nbytes(image) for _, image in tasks)
    bytes_from = 0
    universes: list[AtomicUniverse] = []
    for chunk, (atom_image, r) in zip(shards, results):
        bytes_from += image_nbytes(atom_image)
        atoms = [
            Function(manager, node) for node in load_image(manager, atom_image)
        ]
        universes.append(
            AtomicUniverse.assemble(
                manager,
                {labeled.pid: labeled.fn for labeled in chunk},
                atoms,
                r,
            )
        )
    merged = universes[0]
    for other in universes[1:]:
        merged = merge_universes(merged, other, recorder=recorder)
    if parallel is not None:
        parallel.record_pool(pool.workers)
        parallel.record_shards("atoms", [len(chunk) for chunk in shards])
        parallel.record_shipping(to_workers=bytes_to, from_workers=bytes_from)
    return merged.renumber_canonical()
