"""Compiled classification engine: flat arrays + batched bit-parallel BDDs.

The interpreted query path (:meth:`repro.core.aptree.APTree.classify`)
spends nearly all of its time inside ``BDDManager.evaluate`` -- a
per-bit Python loop over the manager's global node lists.  This module
trades that pointer-chasing for *compiled* artifacts: once a structure
is built, it is flattened into small contiguous integer arrays that a
tight loop (or a handful of numpy gathers) can walk without touching a
single Python object graph.

Three layers, lowest first:

* :func:`flatten_bdds` -- each referenced BDD becomes one contiguous,
  level-ordered ``(var, low, high)`` slice.  Level order (nodes sorted
  by variable) is simultaneously a topological order, which the batch
  evaluators below rely on, and keeps a top-down walk moving forward
  through memory.
* :class:`FlatBDDSet` -- a set of flattened predicates with batched
  evaluation: every packet's verdict for every root in one pass.  The
  ``aplinear``/``pscan`` baselines use it so Fig. 12's engine comparison
  stays apples-to-apples.
* :class:`CompiledAPTree` -- the atom partition of a built AP Tree
  compiled to one *canonical program*: the reduced ordered decision
  diagram of ``h -> atom of h``, which never tests a variable twice on a
  path.  The tree stays the update index; the program is what serves.
  The scalar :meth:`CompiledAPTree.classify` walks it one header at a
  time; :meth:`CompiledAPTree.classify_batch` runs a whole batch.

Three backends produce identical results and are auto-selected
(preference order ``native`` > ``numpy`` > ``stdlib``, overridable with
the ``REPRO_ENGINE`` environment knob -- see :mod:`repro.core.kernel`):

* ``native`` -- the optional C extension (:mod:`repro._native`) walks
  each packet's path in a GIL-free scalar loop over word-packed
  headers; work is the sum of path lengths.
* ``numpy`` -- packets are packed into uint64 words; all cursors
  advance together with vectorized gathers, finished lanes are
  compacted away.
* ``stdlib`` -- the scalar walk per header.  On the canonical program
  it beats big-int lane-mask propagation on every measured plane, so
  the bit-parallel masks live on only in :class:`FlatBDDSet`.

The batch entry points accept numpy arrays end-to-end:
:meth:`CompiledAPTree.classify_batch_array` takes a ``uint64`` header
array (zero-copy -- for <=64-variable layouts the array *is* the packed
form) and fills an ``int64`` output array without building any Python
list, while :meth:`CompiledAPTree.classify_batch` keeps the
list-in/list-out contract and dispatches on input type instead of
unconditionally copying.

Freshness protocol: a program stamps ``tree.version`` at compile time.
Every structural mutation (leaf splits, tombstones, splices) bumps the
version.  Incremental maintenance patches the program in place and
re-stamps it, so it stays fresh through churn; after any other change
one integer comparison detects the stale program and queries answer
from the interpreted tree (Section VI-B's query process) until the
owner recompiles.
"""

from __future__ import annotations

import gc
from typing import Sequence

from .. import config
from ..bdd.manager import BDDManager, TRUE, checked_shifts, packing_shifts
from . import kernel as _kernel
from .aptree import APTree
from .kernel import (
    NATIVE_BACKEND,
    NUMPY_BACKEND,
    STDLIB_BACKEND,
    available_backends,
    default_backend,
)

try:  # pragma: no cover - exercised via the CI matrix
    if config.numpy_disabled():
        _np = None
    else:
        import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

__all__ = [
    "CompiledAPTree",
    "FlatBDDSet",
    "NATIVE_BACKEND",
    "NUMPY_BACKEND",
    "STDLIB_BACKEND",
    "available_backends",
    "default_backend",
    "flatten_bdds",
]

# Backend resolution (including the REPRO_ENGINE preference and the
# native extension probe) lives in repro.core.kernel -- but the result
# must agree with *this* module's numpy import, which the accelerated
# paths actually use.  If they diverge (tests simulate a numpy-less
# host by nulling ``_np`` here), demand semantics still hold: an
# explicit request for an accelerated backend raises, auto-selection
# degrades to stdlib.
def _resolve_backend(backend: str | None) -> str:
    resolved = _kernel.resolve_backend(backend)
    if resolved != STDLIB_BACKEND and _np is None:
        if backend is not None:
            raise ValueError(
                f"backend {backend!r} requires numpy, which is not "
                f"available (set backend='stdlib' or leave it unset)"
            )
        return STDLIB_BACKEND
    return resolved


def _as_int_list(seq) -> list[int]:
    """Plain python ints: ``tolist`` beats ``list`` for numpy/array
    (``list(np_arr)`` would yield numpy scalars, which are slower in the
    tight scalar loops and don't serialize as JSON)."""
    if isinstance(seq, list):
        return seq
    if hasattr(seq, "tolist"):
        return seq.tolist()
    return list(seq)


def _header_ints(headers, num_vars: int) -> list[int]:
    """Packed header ints from any :func:`~.kernel.pack_headers` input.

    A list is used as-is; an array is validated by ``pack_headers``
    (zero-copy) and unpacked -- ``(n,)`` by ``tolist``, ``(n, W)``
    little-endian words one row at a time.
    """
    if _np is None or not isinstance(headers, _np.ndarray):
        return _as_int_list(headers)
    words = _kernel.pack_headers(headers, num_vars)
    if words.ndim == 1:
        return words.tolist()
    return [int.from_bytes(row.tobytes(), "little") for row in words]


#: Below this batch size the numpy engine walks each header on its own.
#: Measured numpy/scalar time on the fused tree program (i2-14,
#: stanford-like, stanford, acl-heavy): 0.90-1.37 at 48 headers,
#: 0.67-1.04 at 64, 0.50-0.72 at 96, 0.38-0.57 at 128.  No serving
#: workload batches 48-127 headers, so the cutover stays at 128.
_MIN_BATCH = 128

#: The same cutover for the PScan/AP-linear predicate-set baselines,
#: kept where Figs. 12 and 14 were measured.
_MIN_SET_BATCH = 16


# ----------------------------------------------------------------------
# BDD flattening
# ----------------------------------------------------------------------


def flatten_bdds(
    manager: BDDManager, roots: Sequence[int]
) -> tuple[list[int], list[int], list[int], dict[int, int]]:
    """Flatten the BDDs rooted at ``roots`` into contiguous level order.

    Returns ``(var, low, high, entry_of)`` parallel lists plus a map from
    each root to its flat entry index.  Flat indices 0 and 1 are the
    FALSE/TRUE terminals (made self-loops so batch evaluators can treat
    them as fixed points); each distinct root's reachable node set
    occupies one contiguous slice sorted by variable, so within a slice
    every edge points forward -- level order doubles as topological
    order.  Subgraphs shared *between* roots are duplicated on purpose:
    at these sizes contiguity is worth more than sharing.
    """
    mvar, mlow, mhigh = manager.node_arrays()
    var: list[int] = [0, 0]
    low: list[int] = [0, 1]
    high: list[int] = [0, 1]
    entry_of: dict[int, int] = {}
    for root in roots:
        if root in entry_of:
            continue
        if root <= TRUE:
            entry_of[root] = root
            continue
        reach = _level_order(mvar, mlow, mhigh, root)
        base = len(var)
        index = {node: base + offset for offset, node in enumerate(reach)}
        for node in reach:
            var.append(mvar[node])
            lo, hi = mlow[node], mhigh[node]
            low.append(lo if lo <= TRUE else index[lo])
            high.append(hi if hi <= TRUE else index[hi])
        entry_of[root] = base  # min-var node of the slice is its root
    return var, low, high, entry_of


def _level_order(mvar, mlow, mhigh, root: int) -> list[int]:
    """The non-terminal nodes reachable from ``root``, sorted by variable
    (``root`` first: it tests the smallest one)."""
    seen = {root}
    stack = [root]
    reach: list[int] = []
    while stack:
        node = stack.pop()
        reach.append(node)
        for child in (mlow[node], mhigh[node]):
            if child > TRUE and child not in seen:
                seen.add(child)
                stack.append(child)
    reach.sort(key=lambda node: mvar[node])
    return reach


# ----------------------------------------------------------------------
# Header bit columns
# ----------------------------------------------------------------------


def _bit_matrix(headers: Sequence[int], num_vars: int):
    """``(len(headers), num_vars)`` uint8 matrix of header bits (numpy).

    Column ``j`` is bit ``j`` of the packed header (little-endian
    bytes, unpacked little-endian), so variable ``v`` is column
    ``var_shifts[v]``.
    """
    nbytes = (num_vars + 7) // 8
    buf = b"".join(h.to_bytes(nbytes, "little") for h in headers)
    packed = _np.frombuffer(buf, dtype=_np.uint8).reshape(len(headers), nbytes)
    return _np.unpackbits(packed, axis=1, bitorder="little")[:, :num_vars]


class _BitColumns:
    """Lazy per-variable lane masks for the stdlib bit-parallel path.

    Column ``v`` is one big int whose bit ``j`` is header ``j``'s value
    of variable ``v`` (its bit ``var_shifts[v]``).  Columns are built on
    first use: only variables that actually appear in a program are
    ever transposed.
    """

    def __init__(self, headers: Sequence[int], var_shifts) -> None:
        self._headers = headers
        self._var_shifts = var_shifts
        self._cols: dict[int, int] = {}

    def column(self, var: int) -> int:
        col = self._cols.get(var)
        if col is None:
            shift = self._var_shifts[var]
            word = 0
            bit = 0
            parts: list[bytes] = []
            append = parts.append
            for header in self._headers:
                word |= ((header >> shift) & 1) << bit
                bit += 1
                if bit == 64:
                    append(word.to_bytes(8, "little"))
                    word = 0
                    bit = 0
            if bit:
                append(word.to_bytes(8, "little"))
            col = self._cols[var] = int.from_bytes(b"".join(parts), "little")
        return col


# ----------------------------------------------------------------------
# Flat predicate sets (aplinear / pscan substrate)
# ----------------------------------------------------------------------


class FlatBDDSet:
    """An ordered set of BDD roots compiled for batched evaluation.

    The two linear-scan baselines are built on it: ``first_true_batch``
    is APLinear's "first matching atom" semantics with early narrowing,
    ``truth_bits_batch`` is PScan's full verdict vector (one int per
    header, root ``j`` of ``k`` at bit ``k - 1 - j``, i.e. the fold
    ``acc = acc << 1 | verdict`` in root order).
    """

    def __init__(
        self,
        manager: BDDManager,
        roots: Sequence[int],
        backend: str | None = None,
    ) -> None:
        self.manager = manager
        # The native kernel runs only the compiled tree program;
        # predicate sets step down to the numpy descent.
        self.backend = _resolve_backend(backend)
        if self.backend == NATIVE_BACKEND:
            self.backend = NUMPY_BACKEND
        self.num_vars = manager.num_vars
        self.roots = list(roots)
        var, low, high, entry_of = flatten_bdds(manager, self.roots)
        self._var = var
        self._low = low
        self._high = high
        self._entries = [entry_of[root] for root in self.roots]
        var_shifts = manager.var_shifts
        self._shifts = [var_shifts[v] for v in var]
        if self.backend == NUMPY_BACKEND:
            # Per node, the :func:`_bit_matrix` column it tests.
            self._np_column = _np.asarray(self._shifts, dtype=_np.int32)
            child = _np.empty(2 * len(var), dtype=_np.int32)
            child[0::2] = low
            child[1::2] = high
            self._np_child = child

    @classmethod
    def compile(
        cls,
        manager: BDDManager,
        roots: Sequence[int],
        backend: str | None = None,
    ) -> "FlatBDDSet":
        return cls(manager, roots, backend=backend)

    def __len__(self) -> int:
        return len(self.roots)

    @property
    def node_count(self) -> int:
        return len(self._var)

    # -- scalar reference ------------------------------------------------

    def evaluate(self, index: int, header: int) -> bool:
        """Evaluate root ``index`` for one header (flat scalar loop)."""
        shifts = self._shifts
        low = self._low
        high = self._high
        u = self._entries[index]
        while u > TRUE:
            u = high[u] if (header >> shifts[u]) & 1 else low[u]
        return u == TRUE

    def truth_bits(self, header: int) -> int:
        """Scalar counterpart of :meth:`truth_bits_batch` for one header."""
        acc = 0
        for index in range(len(self.roots)):
            acc = (acc << 1) | self.evaluate(index, header)
        return acc

    def first_true(self, header: int) -> int:
        for index in range(len(self.roots)):
            if self.evaluate(index, header):
                return index
        raise ValueError("no root evaluates true for the header")

    # -- batched evaluation ---------------------------------------------

    def _column_masks(self, headers: Sequence[int]) -> list[int]:
        """Per-root lane masks: bit ``j`` of mask ``i`` is root ``i``'s
        verdict for header ``j`` (stdlib bit-parallel propagation)."""
        full = (1 << len(headers)) - 1
        columns = _BitColumns(headers, self.manager.var_shifts)
        return [
            self._propagate(entry, full, columns) for entry in self._entries
        ]

    def _propagate(self, entry: int, initial: int, columns: _BitColumns) -> int:
        """Push a lane mask from ``entry`` to the terminals; returns the
        mask that reached TRUE.  One forward pass over the slice -- level
        order is topological, so each node is finished before read."""
        if entry <= TRUE:
            return initial if entry == TRUE else 0
        var = self._var
        low = self._low
        high = self._high
        masks: dict[int, int] = {entry: initial}
        pop = masks.pop
        true_mask = 0
        # Slice nodes are contiguous from the entry; walk indices upward
        # until every outstanding mask has drained to a terminal.
        u = entry
        while masks:
            mask = pop(u, 0)
            if mask:
                hi_m = mask & columns.column(var[u])
                lo_m = mask ^ hi_m
                if hi_m:
                    target = high[u]
                    if target == TRUE:
                        true_mask |= hi_m
                    elif target > TRUE:
                        masks[target] = masks.get(target, 0) | hi_m
                if lo_m:
                    target = low[u]
                    if target == TRUE:
                        true_mask |= lo_m
                    elif target > TRUE:
                        masks[target] = masks.get(target, 0) | lo_m
            u += 1
        return true_mask

    def truth_bits_batch(self, headers: Sequence[int]) -> list[int]:
        """Verdict vectors for a batch: one packed int per header."""
        if len(headers) < _MIN_SET_BATCH:
            return [self.truth_bits(h) for h in headers]
        if self.backend == NUMPY_BACKEND:
            matrix = self._verdict_matrix_numpy(headers)  # (roots, n)
            k = len(self.roots)
            padded = _np.zeros((-(-k // 8) * 8, len(headers)), dtype=_np.uint8)
            padded[-k:] = matrix  # root 0 at the high bit of the fold
            packed = _np.packbits(padded, axis=0)
            data = packed.T.tobytes()
            width = padded.shape[0] // 8
            return [
                int.from_bytes(data[i * width : (i + 1) * width], "big")
                for i in range(len(headers))
            ]
        out = [0] * len(headers)
        for mask in self._column_masks(headers):
            for j in range(len(headers)):
                out[j] = (out[j] << 1) | ((mask >> j) & 1)
        return out

    def first_true_batch(self, headers: Sequence[int]) -> list[int]:
        """Index of the first true root per header (APLinear semantics).

        Lanes are retired as soon as some root matches, so the expected
        work matches the scalar scan's early exit -- just batched.
        """
        n = len(headers)
        if n < _MIN_SET_BATCH:
            return [self.first_true(h) for h in headers]
        out = [-1] * n
        if self.backend == NUMPY_BACKEND:
            bits = _bit_matrix(headers, self.num_vars)
            lanes = _np.arange(n, dtype=_np.int32)
            flat_bits = _np.ascontiguousarray(bits).ravel()
            base = lanes * self.num_vars
            child = self._np_child
            column = self._np_column
            for index, entry in enumerate(self._entries):
                if base.size == 0:
                    break
                cur = _np.full(base.size, entry, dtype=_np.int32)
                while True:
                    active = cur > TRUE
                    if not active.any():
                        break
                    b = flat_bits.take(base + column.take(cur))
                    step = child.take(2 * cur + b)
                    cur = _np.where(active, step, cur)
                matched = cur == TRUE
                if matched.any():
                    for lane in lanes[matched].tolist():
                        out[lane] = index
                    keep = ~matched
                    lanes = lanes[keep]
                    base = base[keep]
        else:
            columns = _BitColumns(headers, self.manager.var_shifts)
            remaining = (1 << n) - 1
            for index, entry in enumerate(self._entries):
                if not remaining:
                    break
                matched = self._propagate(entry, remaining, columns)
                m = matched
                while m:
                    lsb = m & -m
                    out[lsb.bit_length() - 1] = index
                    m ^= lsb
                remaining ^= matched
        missing = out.count(-1)
        if missing:
            raise ValueError(f"{missing} headers matched no root")
        return out

    def _verdict_matrix_numpy(self, headers: Sequence[int]):
        """uint8 matrix ``(len(roots), len(headers))`` of verdicts."""
        n = len(headers)
        bits = _bit_matrix(headers, self.num_vars)
        flat_bits = _np.ascontiguousarray(bits).ravel()
        base = _np.arange(n, dtype=_np.int32) * self.num_vars
        child = self._np_child
        column = self._np_column
        matrix = _np.empty((len(self._entries), n), dtype=_np.uint8)
        for row, entry in enumerate(self._entries):
            cur = _np.full(n, entry, dtype=_np.int32)
            while True:
                active = cur > TRUE
                if not active.any():
                    break
                b = flat_bits.take(base + column.take(cur))
                step = child.take(2 * cur + b)
                cur = _np.where(active, step, cur)
            matrix[row] = cur
        return matrix

    def __repr__(self) -> str:
        return (
            f"FlatBDDSet({len(self.roots)} roots, {self.node_count} nodes, "
            f"{self.backend})"
        )


# ----------------------------------------------------------------------
# Compiled AP Tree
# ----------------------------------------------------------------------


def _atom_program(manager: BDDManager, atoms) -> tuple[list, list, list, int]:
    """The reduced ordered decision diagram of ``h -> atom of h``.

    Sink ``i`` is atom ``i`` of ``atoms`` (``(atom_id, function)``
    pairs).  A state is the tuple of live ``(sink, cofactor)`` pairs;
    each step splits every cofactor on the smallest top variable and
    drops FALSE ones, and memoising on the state (the atom function on
    the path's subspace) makes the diagram reduced.  With two pairs
    left the second is the first's complement, so the diagram is the
    first's BDD on the two sinks (``two``; most states are of this kind).

    Returns the interior ``(var, low, high)`` lists, sorted by variable
    and numbered from ``len(atoms)``, and the root; children test larger
    variables than their parents, so every edge points forward.
    """
    mvar, mlow, mhigh = manager.node_arrays()
    num_sinks = len(atoms)
    var: list[int] = []
    low: list[int] = []
    high: list[int] = []
    memo: dict[tuple, int] = {}

    def two(inside: int, u: int, outside: int) -> int:
        if u <= TRUE:
            return inside if u == TRUE else outside
        key = (inside, u, outside)
        node = memo.get(key)
        if node is None:
            low_child = two(inside, mlow[u], outside)
            high_child = two(inside, mhigh[u], outside)
            node = memo[key] = num_sinks + len(var)
            var.append(mvar[u])
            low.append(low_child)
            high.append(high_child)
        return node

    def build(live: tuple) -> int:
        if len(live) <= 2:
            if len(live) == 2:
                return two(live[0][0], live[0][1], live[1][0])
            assert live[0][1] == TRUE, "atoms do not partition the header space"
            return live[0][0]
        node = memo.get(live)
        if node is None:
            top = min([mvar[u] for _, u in live])
            lo: list[tuple[int, int]] = []
            hi: list[tuple[int, int]] = []
            for pair in live:
                u = pair[1]
                if mvar[u] == top:
                    if mlow[u]:
                        lo.append((pair[0], mlow[u]))
                    if mhigh[u]:
                        hi.append((pair[0], mhigh[u]))
                else:
                    lo.append(pair)
                    hi.append(pair)
            low_child = build(tuple(lo))
            high_child = build(tuple(hi))
            node = memo[live] = num_sinks + len(var)
            var.append(top)
            low.append(low_child)
            high.append(high_child)
        return node

    # The recursion builds no cycle, so a collection in it reclaims
    # nothing yet traverses every tracked object in the process (a
    # quarter of the compile on the coldstart plane).
    collecting = gc.isenabled()
    gc.disable()
    try:
        root = build(tuple(
            (sink, fn.node) for sink, (_, fn) in enumerate(atoms)
        ))
    finally:
        if collecting:
            gc.enable()
    # Creation order is post-order; renumber in (stable) variable order.
    order = sorted(range(len(var)), key=var.__getitem__)
    renumber = list(range(num_sinks)) + [0] * len(var)
    for position, k in enumerate(order):
        renumber[num_sinks + k] = num_sinks + position
    return (
        [var[k] for k in order],
        [renumber[low[k]] for k in order],
        [renumber[high[k]] for k in order],
        renumber[root],
    )


class CompiledAPTree:
    """The atom partition of an :class:`APTree` compiled to one program.

    The program is the reduced ordered decision diagram of
    ``h -> atom of h`` (:func:`_atom_program`): the sinks ``0 ..
    num_sinks - 1`` are the tree's atoms in id order and self-loop, and
    the interior nodes follow, sorted by variable.  No path tests a
    variable twice, and the program depends on the partition only, not
    on the shape of the tree.  It is four parallel arrays -- ``f_var`` /
    ``f_low`` / ``f_high`` per node, ``f_atom`` per sink -- entered at
    ``f_root``, with every non-sink edge pointing forward.

    Every lane reads this one program: the scalar :meth:`classify`, the
    batch engines, the artifact's ``c_*`` sections and the in-place
    patches of incremental maintenance.  :meth:`from_arrays` also adopts
    the fused tree programs of earlier version-3 artifacts.
    """

    def __init__(self, tree: APTree, backend: str | None = None) -> None:
        self.tree = tree
        self.tree_version = tree.version
        self.backend = _resolve_backend(backend)
        self.num_vars = tree.manager.num_vars
        #: Variable ``v`` is bit ``var_shifts[v]`` of a packed header.
        self.var_shifts = tree.manager.var_shifts
        atoms = sorted(tree.universe.atoms().items())
        assert [atom for atom, _ in atoms] == sorted(tree._leaf_index), (
            "the tree's leaves are not its universe's atoms"
        )
        f_var, f_low, f_high, self._f_root = _atom_program(tree.manager, atoms)
        self._num_sinks = num_sinks = len(atoms)
        self._f_atom = [atom for atom, _ in atoms]
        self._f_var = [0] * num_sinks + f_var
        self._f_low = list(range(num_sinks)) + f_low
        self._f_high = list(range(num_sinks)) + f_high
        var_shifts = self.var_shifts
        self._shifts = [var_shifts[v] for v in self._f_var]
        self._reset_patching()
        self._refresh_accelerated()

    def _reset_patching(self) -> None:
        #: Has a patch changed the arrays since the compile (or load)?
        self.patched = False
        #: Program size at the compile (the compaction yardstick).
        self.compiled_nodes = len(self._f_var)
        # What the in-place patches navigate by (:meth:`_begin_patch`).
        self._atom_sinks: dict[int, list[int]] | None = None
        self._parents: list[list[int]] | None = None
        self._free_sinks: list[int] = []

    def _refresh_accelerated(self, capacity: int = 0) -> None:
        """(Re)build the numpy mirrors + kernel view from the list arrays.

        The node mirrors are capacity buffers of ``max(capacity, size)``
        nodes: a patch appends into the spare room and writes only the
        entries it changed (:meth:`_flush`).  A fresh compile has no
        spare room, so its arrays are exactly the program.
        """
        if self.backend in (NUMPY_BACKEND, NATIVE_BACKEND):
            size = len(self._f_var)
            cap = max(capacity, size)
            f_var = _np.zeros(cap, dtype=_np.int32)
            f_var[:size] = self._f_var
            child = _np.zeros(2 * cap, dtype=_np.int32)
            child[0 : 2 * size : 2] = self._f_low
            child[1 : 2 * size : 2] = self._f_high
            self._np_f_child = child
            self._np_f_atom = _np.asarray(self._f_atom, dtype=_np.int64)
            self._init_kernel(f_var)

    @classmethod
    def compile(
        cls, tree: APTree, backend: str | None = None
    ) -> "CompiledAPTree":
        """Compile ``tree``'s atoms for the given (or auto-selected) backend."""
        return cls(tree, backend=backend)

    # -- persistence (repro.artifact) ------------------------------------

    def to_arrays(self) -> dict:
        """Every array and scalar needed to rebuild this engine.

        The program's children are interleaved (``child[2i]`` =
        low, ``child[2i+1]`` = high) -- exactly the layout the numpy
        descent gathers from, so an artifact section can be mapped
        straight into ``_np_f_child`` without a shuffle.
        """
        if self.backend in (NUMPY_BACKEND, NATIVE_BACKEND):
            f_child = self._program.f_child
        else:
            f_child = [0] * (2 * len(self._f_var))
            f_child[0::2] = _as_int_list(self._f_low)
            f_child[1::2] = _as_int_list(self._f_high)
        return {
            "num_vars": self.num_vars,
            "var_shifts": self.var_shifts,
            "num_sinks": self._num_sinks,
            "f_root": self._f_root,
            "f_var": self._f_var,
            "f_child": f_child,
            "f_atom": self._f_atom,
        }

    @classmethod
    def from_arrays(
        cls,
        arrays: dict,
        *,
        tree: APTree | None = None,
        tree_version: int | None = None,
        backend: str | None = None,
    ) -> "CompiledAPTree":
        """Rebuild an engine from :meth:`to_arrays`-shaped data.

        This is the artifact warm-start entry point: under the numpy
        backend every array is adopted as-is (``np.frombuffer`` views of
        an ``mmap``ed file included -- zero copies), and the python
        lists the scalar walk reads are materialized lazily on its first
        call.  The stdlib backend copies into plain lists up front and
        derives only the walk's shift list lazily.

        ``tree=None`` produces a *serving-only* engine: it classifies
        but is fresh for no live tree (see :meth:`is_fresh_for`).  Pass
        the restored tree plus its version to stamp the engine fresh;
        such an engine is patched in place like a compiled one.
        Without a ``var_shifts`` entry variables follow packing order;
        with a tree, the entry must be its manager's mapping.
        """
        self = cls.__new__(cls)
        self.tree = tree
        self.tree_version = (
            tree.version if tree is not None and tree_version is None
            else (tree_version or 0)
        )
        self.backend = _resolve_backend(backend)
        self.num_vars = int(arrays["num_vars"])
        var_shifts = arrays.get("var_shifts")
        self.var_shifts = (
            packing_shifts(self.num_vars) if var_shifts is None
            else checked_shifts(self.num_vars, var_shifts)
        )
        if tree is not None and tree.manager.var_shifts != self.var_shifts:
            raise ValueError(
                "the program's variable-to-bit mapping is not its tree's"
            )
        self._num_sinks = int(arrays["num_sinks"])
        self._f_root = int(arrays["f_root"])
        self._shifts = None  # derived with the scalar lists
        if self.backend in (NUMPY_BACKEND, NATIVE_BACKEND):
            f_var = _np.asarray(arrays["f_var"], dtype=_np.int32)
            child = _np.asarray(arrays["f_child"], dtype=_np.int32)
            self._np_f_child = child
            self._np_f_atom = _np.asarray(arrays["f_atom"], dtype=_np.int64)
            self._f_var = f_var
            self._f_low = child[0::2]  # strided views until listed
            self._f_high = child[1::2]
            self._f_atom = self._np_f_atom
            self._init_kernel(f_var)
        else:
            f_child = _as_int_list(arrays["f_child"])
            self._f_var = _as_int_list(arrays["f_var"])
            self._f_low = f_child[0::2]
            self._f_high = f_child[1::2]
            self._f_atom = _as_int_list(arrays["f_atom"])
        self._reset_patching()
        return self

    def _materialize_scalar(self) -> None:
        """Build the python lists the scalar :meth:`classify` walks.

        Deferred so a batch-only consumer (a serve worker fed through
        ``classify_batch``) never pays list conversion on the zero-copy
        numpy views.  ``_shifts`` is set last: it is the ready flag.
        """
        self._f_low = _as_int_list(self._f_low)
        self._f_high = _as_int_list(self._f_high)
        self._f_atom = _as_int_list(self._f_atom)
        var_shifts = self.var_shifts
        self._shifts = [var_shifts[v] for v in _as_int_list(self._f_var)]

    def _init_kernel(self, f_var) -> None:
        """Precompute the descent's bit-lookup tables and scratch.

        Derived from the node variables ``f_var`` (for artifact loads
        this is the only consumer of ``f_var`` on the batch path): the
        doubled-cursor ``bit2``/``child2`` tables for the numpy descent,
        the word/shift tables for the C kernel -- each engine builds only
        its own.  The scratch buffer makes steady-state list packing
        allocation-free.
        """
        if self.backend == NATIVE_BACKEND:
            self._f_word, self._f_shift = _kernel.shift_arrays(
                f_var, self.var_shifts
            )
        else:
            self._bit2, self._child2 = _kernel.doubled_tables(
                f_var, self._np_f_child, self.var_shifts
            )
        self._scratch = _kernel.KernelScratch()
        self._sync_program()

    def _sync_program(self) -> None:
        """The :class:`~.kernel.Program` view the descents consume: the
        program's prefix of each (capacity) buffer, current sink count
        and root."""
        size = len(self._f_var)
        if self.backend == NATIVE_BACKEND:
            tables = {
                "f_word": self._f_word[:size],
                "f_shift": self._f_shift[:size],
            }
        else:
            tables = {
                "bit2": self._bit2[: 2 * size],
                "child2": self._child2[: 2 * size],
            }
        self._program = _kernel.Program(
            width=_kernel.words_per_header(self.num_vars),
            f_child=self._np_f_child[: 2 * size],
            f_atom=self._np_f_atom,
            num_sinks=self._num_sinks,
            f_root=self._f_root,
            **tables,
        )

    # -- in-place patches (incremental maintenance) ----------------------
    #
    # Both patches are append-only and keep one invariant: for every
    # header, ``f_atom[descent(h)]`` is the atom the universe assigns it.
    # The patched program computes the atom function exactly but is no
    # longer reduced.  Both finish by re-stamping ``tree_version``, so
    # the fast path never drops into stale-fallback.  They apply to any
    # engine bound to a live tree (``patchable``); the caller recompiles
    # when the program has grown past ``COMPACT_GROWTH`` times
    # ``compiled_nodes`` (:mod:`repro.core.incremental`).

    @property
    def patchable(self) -> bool:
        return self.tree is not None

    @property
    def node_count(self) -> int:
        """Program nodes, spare sink slots included."""
        return len(self._f_var)

    def _begin_patch(self) -> None:
        """Build the patch indices on the first patch: each atom's sinks
        (merges leave several), each sink's parents (nodes with an edge
        into it) and the free sink slots (atom ``-1``).  An adopted
        program (:meth:`from_arrays`) first gets lists and mirrors of
        its own: its arrays may be read-only views of an artifact."""
        if self._parents is not None:
            return
        if self._shifts is None:
            self._materialize_scalar()
        if not isinstance(self._f_var, list):
            self._f_var = self._f_var.tolist()
            self._refresh_accelerated()
        num_sinks = self._num_sinks
        parents: list[list[int]] = [[] for _ in range(num_sinks)]
        for edges in (self._f_low, self._f_high):
            for u in range(num_sinks, len(edges)):
                if edges[u] < num_sinks:
                    parents[edges[u]].append(u)
        self._parents = parents
        self._atom_sinks = {}
        for sink, atom in enumerate(self._f_atom):
            if atom == -1:
                self._free_sinks.append(sink)
            else:
                self._atom_sinks.setdefault(atom, []).append(sink)

    def patch_splits(self, fn_node: int, splits) -> None:
        """Mirror :meth:`APTree.apply_splits` onto the program.

        For each split atom, one copy of the new predicate's flattened
        slice is appended with TRUE going to the atom's first sink
        (reused for the inside atom) and FALSE to a fresh sink (the
        outside atom), and every edge that entered any of the atom's
        sinks (its parents) moves to the copy's root.  Every new edge
        points forward.  The atom's other sinks (merges leave several)
        are now unreachable and become free slots: dead self-loops with
        atom ``-1``.  When no free slot is left the sink region doubles
        (:meth:`_grow_sinks`).
        """
        real = [s for s in splits if s.is_split]
        if real:
            self._begin_patch()
            self.patched = True
            var, low, high, entry_of = flatten_bdds(
                self.tree.manager, [fn_node]
            )
            grown = len(self._free_sinks) < len(real)
            if grown:
                self._grow_sinks(len(real))
            body = list(zip(var[2:], low[2:], high[2:]))
            root = entry_of[fn_node] - 2  # slice-relative root position
            first = len(self._f_var)
            redirected: list[int] = []
            changed: list[int] = []
            for split in real:
                sinks = self._atom_sinks.pop(split.old_id)
                fresh = self._split_sinks(sinks, body, root, redirected)
                self._f_atom[sinks[0]] = split.inside_id
                self._f_atom[fresh] = split.outside_id
                self._atom_sinks[split.inside_id] = [sinks[0]]
                self._atom_sinks[split.outside_id] = [fresh]
                changed += sinks
                changed.append(fresh)
            self._flush(first, redirected, changed, grown)
        self.tree_version = self.tree.version

    def _split_sinks(self, sinks, body, root: int, redirected) -> int:
        """Append one slice copy in front of ``sinks``; returns the fresh
        sink its FALSE edges reach (TRUE reaches ``sinks[0]``).  Nodes
        whose edges moved to the copy are added to ``redirected``."""
        keep = sinks[0]
        fresh = self._free_sinks.pop()
        f_var, f_low, f_high = self._f_var, self._f_low, self._f_high
        shifts = self._shifts
        var_shifts = self.var_shifts
        parents = self._parents
        base = len(f_var)
        entry = base + root
        for sink in sinks:
            for u in parents[sink]:
                if f_low[u] == sink:
                    f_low[u] = entry
                if f_high[u] == sink:
                    f_high[u] = entry
                redirected.append(u)
            parents[sink] = []
            if self._f_root == sink:
                self._f_root = entry
        for sink in sinks[1:]:
            self._f_atom[sink] = -1
            self._free_sinks.append(sink)
        for v, lo, hi in body:
            f_var.append(v)
            shifts.append(var_shifts[v])
            f_low.append(
                keep if lo == TRUE else fresh if lo == 0 else base + lo - 2
            )
            f_high.append(
                keep if hi == TRUE else fresh if hi == 0 else base + hi - 2
            )
        for u in range(base, len(f_var)):
            for child in (f_low[u], f_high[u]):
                if child == keep or child == fresh:
                    parents[child].append(u)
        return fresh

    def _grow_sinks(self, need: int) -> None:
        """Double the sink region (or more, to free ``need`` slots).

        The descent stops at ``cur < num_sinks``, so sinks must stay the
        program's low region: every non-sink index shifts up by the
        growth, one pass over the whole program per doubling.
        """
        old = self._num_sinks
        new = max(2 * old, old + need)
        delta = new - old
        self._f_var = [0] * new + self._f_var[old:]
        self._shifts = [0] * new + self._shifts[old:]
        self._f_low = list(range(new)) + [
            v if v < old else v + delta for v in self._f_low[old:]
        ]
        self._f_high = list(range(new)) + [
            v if v < old else v + delta for v in self._f_high[old:]
        ]
        self._f_atom.extend([-1] * delta)
        if self._f_root >= old:
            self._f_root += delta
        # Parents are interior nodes: they shift with the program.
        self._parents = [
            [u + delta for u in nodes] for nodes in self._parents
        ] + [[] for _ in range(delta)]
        self._free_sinks.extend(range(new - 1, old - 1, -1))
        self._num_sinks = new

    def _flush(self, first: int, nodes, sinks, refresh: bool) -> None:
        """Carry a patch into the numpy mirrors and kernel view.

        Writes only nodes ``first ..`` (appended), ``nodes`` (edges
        moved) and the atoms of ``sinks``; a regrown sink region
        (``refresh``) or exhausted capacity rebuilds the mirrors with
        twice the room instead.
        """
        size = len(self._f_var)
        changed = [*range(first, size), *nodes]
        if __debug__:
            f_low, f_high, ns = self._f_low, self._f_high, self._num_sinks
            for u in changed:
                assert f_low[u] < ns or f_low[u] > u
                assert f_high[u] < ns or f_high[u] > u
        if self.backend == STDLIB_BACKEND:
            return
        if refresh or 2 * size > len(self._np_f_child):
            self._refresh_accelerated(2 * size)
            return
        idx = _np.asarray(changed, dtype=_np.intp)
        low = _np.asarray([self._f_low[u] for u in changed], dtype=_np.intp)
        high = _np.asarray([self._f_high[u] for u in changed], dtype=_np.intp)
        column = _np.asarray([self._shifts[u] for u in changed], dtype=_np.intp)
        self._np_f_child[2 * idx] = low
        self._np_f_child[2 * idx + 1] = high
        if self.backend == NATIVE_BACKEND:
            self._f_word[idx] = column >> 6
            self._f_shift[idx] = column & 63
        else:
            self._bit2[2 * idx] = column
            self._child2[2 * idx] = 2 * low
            self._child2[2 * idx + 1] = 2 * high
        self._np_f_atom[sinks] = [self._f_atom[sink] for sink in sinks]
        self._sync_program()

    def patch_merges(self, merges) -> None:
        """Relabel the sinks of merged atoms.

        ``merges`` is a sequence of ``(merged_id, parts)`` pairs (see
        :class:`~.atomic.AtomMerge`).  Every sink of each part now
        answers ``merged_id``; the test that used to separate the parts
        stays in the program as a redundant test.  No edge moves, so the
        merged atom owns all its parts' sinks.
        """
        changed: list[int] = []
        if merges:
            self._begin_patch()
        for merged_id, parts in merges:
            sinks: list[int] = []
            for part in parts:
                sinks += self._atom_sinks.pop(part)
            for sink in sinks:
                self._f_atom[sink] = merged_id
            self._atom_sinks[merged_id] = sinks
            changed += sinks
        if changed:
            self.patched = True
            if self.backend != STDLIB_BACKEND:
                self._np_f_atom[changed] = [
                    self._f_atom[sink] for sink in changed
                ]
        self.tree_version = self.tree.version

    # -- staleness -------------------------------------------------------

    def is_fresh_for(self, tree: APTree) -> bool:
        """Does this artifact still describe ``tree`` exactly?

        The identity check comes first and is load-bearing: a full
        rebuild produces a *new* ``APTree`` whose fresh ``version``
        counter can coincide with the version this artifact stamped at
        compile time, so comparing versions across different tree
        objects would accept a stale artifact.

        Serving-only engines (loaded from a binary artifact with no
        live tree, ``tree is None``) are fresh for themselves only.
        """
        if tree is None or self.tree is None:
            return tree is self.tree
        return tree is self.tree and tree.version == self.tree_version

    def stale_reason(self, tree: APTree) -> str | None:
        """Why this artifact is stale for ``tree`` (``None`` if fresh).

        ``"swapped"`` -- ``tree`` is a different object (a rebuild or
        reconstruction replaced the tree; version numbers are not
        comparable across objects).  ``"version"`` -- same tree, mutated
        in place since compilation (leaf splits or tombstones bumped its
        version).  The observability layer records fallbacks per reason,
        which is how compiled-artifact churn shows up in snapshots.
        """
        if tree is None or self.tree is None:
            return None if tree is self.tree else "swapped"
        if tree is not self.tree:
            return "swapped"
        if tree.version != self.tree_version:
            return "version"
        return None

    @property
    def fresh(self) -> bool:
        return self.is_fresh_for(self.tree)

    # -- classification --------------------------------------------------

    def classify(self, header: int) -> int:
        """Atom id of one packed header: one walk down the program."""
        shifts = self._shifts
        if shifts is None:
            self._materialize_scalar()
            shifts = self._shifts
        f_low = self._f_low
        f_high = self._f_high
        num_sinks = self._num_sinks
        u = self._f_root
        while u >= num_sinks:
            u = f_high[u] if (header >> shifts[u]) & 1 else f_low[u]
        return self._f_atom[u]

    def classify_batch(self, headers: Sequence[int]) -> list[int]:
        """Atom ids for a whole batch, all packets advanced together.

        Dispatches on input type instead of unconditionally copying:
        accelerated engines route through :meth:`classify_batch_array`
        (``tolist`` only at the very end, to honor the list-out contract
        -- callers that want arrays out call ``classify_batch_array``
        directly); a list is used as-is; only foreign sequences are
        materialized.  The stdlib engine, and the numpy engine below
        ``_MIN_BATCH`` headers, walk each header with the scalar
        :meth:`classify`.
        """
        if self.backend != STDLIB_BACKEND:
            if not isinstance(headers, _np.ndarray):
                headers = _as_int_list(headers)
            return self.classify_batch_array(headers).tolist()
        classify = self.classify
        return [classify(h) for h in _header_ints(headers, self.num_vars)]

    def classify_batch_array(self, headers, out=None):
        """Atom ids as an ``int64`` array -- numpy arrays end-to-end.

        ``headers`` is either a ``uint64`` word array (``(n,)`` for
        <=64-variable layouts, ``(n, W)`` for wider -- adopted with zero
        copies) or a Python sequence (packed once).  ``out`` may supply a reusable ``int64[n]`` result
        buffer; one is allocated when absent.  The list packing buffer
        is leased from the engine's :class:`~.kernel.KernelScratch` when
        uncontended.

        The numpy descent pays a fixed cost per program level
        however few headers it carries, so below ``_MIN_BATCH`` headers
        the numpy engine writes the scalar :meth:`classify` of each
        header into ``out`` instead.  The native loop has no such floor.

        Requires an accelerated backend (``native`` or ``numpy``);
        stdlib engines raise -- their batch is the scalar walk, with no
        array form (use :meth:`classify_batch`).
        """
        if self.backend == STDLIB_BACKEND:
            raise RuntimeError(
                "classify_batch_array requires the native or numpy backend "
                f"(engine backend is {self.backend!r})"
            )
        n = len(headers)
        if out is None:
            out = _np.empty(n, dtype=_np.int64)
        if self.backend == NUMPY_BACKEND and n < _MIN_BATCH:
            classify = self.classify
            out[:] = [classify(h) for h in _header_ints(headers, self.num_vars)]
            return out
        scratch = self._scratch
        leased = scratch.acquire()
        try:
            lease = scratch if leased else None
            words = _kernel.pack_headers(headers, self.num_vars, lease)
            if self.backend == NATIVE_BACKEND:
                _kernel.descend_native(self._program, words, out)
            else:
                _kernel.descend_numpy(self._program, words, out)
        finally:
            if leased:
                scratch.release()
        return out

    # -- accounting ------------------------------------------------------

    def stats(self) -> dict[str, int | str]:
        """Sizes of the compiled program (memory accounting, reports)."""
        # var/low/high/shift per node and one atom per sink
        ints = 4 * len(self._f_var) + len(self._f_atom)
        return {
            "backend": self.backend,
            "fused_nodes": len(self._f_var),
            "estimated_bytes": 4 * ints,  # int32-equivalent footprint
        }

    def __repr__(self) -> str:
        freshness = "fresh" if self.fresh else "stale"
        return (
            f"CompiledAPTree({len(self._f_var)} nodes, "
            f"{self._num_sinks} sinks, {self.backend}, {freshness})"
        )
