"""Stage 1 of the parallel offline pipeline: sharded rule conversion.

Rule-to-predicate conversion is embarrassingly parallel per box
(Hazelhurst-style per-ACL/per-table independence): each worker gets the
network as JSON plus a contiguous shard of box names, compiles those
boxes' forwarding tables and ACLs into a *private* BDD manager, and ships
the functions back as one image (:mod:`repro.bdd.serialize`).  The parent
re-imports every shard into the canonical manager and mints
:class:`LabeledPredicate` ids in the same box/slot order a serial compile
would use, so pids are identical.
"""

from __future__ import annotations

from ..bdd import BDDManager, Function
from ..bdd.serialize import dump_image, image_nbytes, load_image
from ..network.builder import Network
from ..network.dataplane import DataPlane
from ..network.predicates import PredicateCompiler
from ..network.serialize import network_from_json, network_to_json
from .pool import WorkerPool, shard, shared_pool

__all__ = ["convert_network", "parallel_dataplane"]

#: One worker task: (network JSON, box names to compile).
_ConvertTask = tuple[str, tuple[str, ...]]


def _convert_shard(task: _ConvertTask):
    """Worker: compile a shard of boxes in a private manager.

    Returns ``(entries, image)`` where ``entries[i]`` is the
    ``(box, kind, port)`` provenance of the image's i-th root.
    """
    network_json, box_names = task
    network = network_from_json(network_json)
    compiler = PredicateCompiler(network.layout)
    entries: list[tuple[str, str, str]] = []
    roots: list[int] = []
    for name in box_names:
        for kind, port, fn in compiler.box_predicates(network.box(name)):
            entries.append((name, kind, port))
            roots.append(fn.node)
    return entries, dump_image(compiler.manager, roots)


def convert_network(
    network: Network,
    manager: BDDManager,
    pool: WorkerPool,
    recorder=None,
) -> dict[str, list[tuple[str, str, Function]]]:
    """Compile every box across the pool; functions land in ``manager``.

    Returns the ``precompiled`` mapping :class:`DataPlane` accepts:
    box name -> ``(kind, port, fn)`` in canonical mint order.
    """
    names = list(network.boxes)
    parallel = recorder.parallel if recorder is not None else None
    if pool.serial:
        compiler = PredicateCompiler(network.layout, manager)
        if parallel is not None:
            parallel.record_shards("convert", [len(names)])
        return {
            name: compiler.box_predicates(network.box(name)) for name in names
        }
    network_json = network_to_json(network)
    shards = shard(names, pool.workers)
    tasks: list[_ConvertTask] = [
        (network_json, tuple(chunk)) for chunk in shards
    ]
    results = pool.map(_convert_shard, tasks)
    precompiled: dict[str, list[tuple[str, str, Function]]] = {
        name: [] for name in names
    }
    bytes_from = 0
    for entries, image in results:
        bytes_from += image_nbytes(image)
        for (name, kind, port), node in zip(entries, load_image(manager, image)):
            precompiled[name].append((kind, port, Function(manager, node)))
    if parallel is not None:
        parallel.record_pool(pool.workers)
        parallel.record_shards("convert", [len(chunk) for chunk in shards])
        parallel.record_shipping(
            to_workers=len(network_json) * len(tasks), from_workers=bytes_from
        )
    return precompiled


def parallel_dataplane(
    network: Network,
    manager: BDDManager | None = None,
    workers: int | None = None,
    pool: WorkerPool | None = None,
    recorder=None,
) -> DataPlane:
    """A :class:`DataPlane` whose conversion ran across the pool.

    Bit-identical to ``DataPlane(network, manager)`` -- same pids, same
    function nodes -- because workers replicate the canonical per-box
    compile order and the parent mints in serial box order.
    """
    if pool is None:
        pool = shared_pool(workers)
    if manager is None:
        manager = BDDManager(network.layout.total_width)
    if pool.serial:
        return DataPlane(network, manager)
    precompiled = convert_network(network, manager, pool, recorder=recorder)
    return DataPlane(network, manager, precompiled=precompiled)
