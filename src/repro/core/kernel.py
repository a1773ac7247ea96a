"""Zero-copy batch kernel: word-packed headers, reusable scratch, descent.

* **Word packing** (:func:`pack_headers`).  Headers live as little-endian
  ``uint64`` words -- ``ceil(num_vars / 64)`` words per header, word
  ``w`` holding header bits ``64w .. 64w+63`` of the packed integer.
  For the common ``num_vars <= 64`` case a caller-supplied numpy
  ``uint64`` array *is already* the packed form, so array-in callers pay
  zero packing work; list-in callers get one ``np.fromiter`` pass.
  Variable ``v`` of a header is bit ``num_vars - 1 - v`` of the packed
  integer, so where each program node reads its bit is a compile-time
  constant (:func:`doubled_tables` for numpy, :func:`shift_arrays` for
  the C kernel).
* **Scratch reuse** (:class:`KernelScratch`).  The list packing buffer
  is allocated once per engine and reused across batches; a
  non-blocking lock hands it to one caller at a time and concurrent
  callers (multi-threaded engines shared outside the serve loop)
  silently fall back to fresh allocations -- correctness never depends
  on winning the lock.
* **Descent** (:func:`descend_numpy` / :func:`descend_native`).  The
  same branching program either advanced batch-wide with numpy
  (header bits unpacked once per batch, then two gathers and a child
  lookup per program level, finished lanes compacted away) or handed to
  the optional C kernel (:mod:`repro._native`), which walks each
  packet's path in a tight scalar loop over the word-packed headers --
  including arrays mmapped straight out of a binary artifact.

Engine resolution lives in :func:`resolve_backend`: explicit ``backend=``
arguments fail loudly when the engine is unavailable, while the
``REPRO_ENGINE`` environment preference degrades gracefully
(native -> numpy -> stdlib) so one deployment-wide setting works on
hosts with and without the built extension.
"""

from __future__ import annotations

import threading

from .. import config
from .._native import load_kernel, native_build_hint

try:  # pragma: no cover - exercised via the CI matrix
    if config.numpy_disabled():
        _np = None
    else:
        import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

__all__ = [
    "NATIVE_BACKEND",
    "NUMPY_BACKEND",
    "STDLIB_BACKEND",
    "KernelScratch",
    "Program",
    "available_backends",
    "default_backend",
    "doubled_tables",
    "native_available",
    "numpy_available",
    "pack_headers",
    "resolve_backend",
    "shift_arrays",
    "words_per_header",
]

NATIVE_BACKEND = "native"
NUMPY_BACKEND = "numpy"
STDLIB_BACKEND = "stdlib"

#: Iterations between finished-lane compactions of the numpy descent.
_COMPACT_BLOCK = 16


def numpy_available() -> bool:
    return _np is not None


def native_available() -> bool:
    """Is the C kernel importable *and* usable (numpy present)?

    The native kernel computes over numpy-packed word buffers, so it is
    only offered when numpy is importable too; ``REPRO_DISABLE_NUMPY``
    therefore disables both accelerated engines at once.
    """
    return _np is not None and load_kernel() is not None


def available_backends() -> tuple[str, ...]:
    """Backends usable in this process, preferred first."""
    if native_available():
        return (NATIVE_BACKEND, NUMPY_BACKEND, STDLIB_BACKEND)
    if _np is not None:
        return (NUMPY_BACKEND, STDLIB_BACKEND)
    return (STDLIB_BACKEND,)


def default_backend() -> str:
    """The auto-selected backend, honoring the ``REPRO_ENGINE`` preference.

    The environment knob states a *preference*: if the preferred engine
    is not importable here the next one down the native -> numpy ->
    stdlib ladder is chosen, never an error (deployments set the knob
    fleet-wide; individual hosts degrade).  Unset means "best
    available".
    """
    usable = available_backends()
    preferred = config.engine()
    if preferred is not None:
        if preferred in usable:
            return preferred
        # Graceful degradation: start the ladder at the preference.
        for candidate in usable:
            return candidate
    return usable[0]


def resolve_backend(backend: str | None) -> str:
    """Validate an explicit backend, or auto-select for ``None``.

    Unlike the environment preference, an explicit argument is a
    demand: asking for an engine this process cannot run raises with a
    hint instead of silently serving from a slower path.
    """
    if backend is None:
        return default_backend()
    if backend not in config.ENGINES:
        raise ValueError(
            f"unknown backend {backend!r} (expected one of {config.ENGINES})"
        )
    if backend == NATIVE_BACKEND and not native_available():
        if _np is None:
            raise ValueError(
                "native backend requested but numpy is unavailable "
                "(the native kernel packs headers through numpy)"
            )
        raise ValueError(f"native backend requested but {native_build_hint()}")
    if backend == NUMPY_BACKEND and _np is None:
        raise ValueError("numpy backend requested but numpy is unavailable")
    return backend


# ----------------------------------------------------------------------
# Header word packing
# ----------------------------------------------------------------------


def words_per_header(num_vars: int) -> int:
    """uint64 words per packed header (at least 1)."""
    return max(1, (num_vars + 63) // 64)


def shift_arrays(f_var, num_vars: int):
    """Per-program-node ``(word, shift)`` int32 arrays for the C kernel.

    Variable ``v`` is bit ``num_vars - 1 - v`` of the packed header, so
    node ``i`` testing ``f_var[i]`` reads word ``shift >> 6`` at in-word
    shift ``shift & 63``.  Precomputed once at compile/load time.
    """
    shifts = (num_vars - 1) - _np.asarray(f_var, dtype=_np.int64)
    # Sinks carry var 0 placeholders; clamp so derived indices stay valid.
    shifts = _np.maximum(shifts, 0)
    word = (shifts >> 6).astype(_np.int32)
    shift = (shifts & 63).astype(_np.int32)
    return _np.ascontiguousarray(word), _np.ascontiguousarray(shift)


def doubled_tables(f_var, f_child, num_vars: int):
    """Per-program-node ``(bit2, child2)`` intp tables for the numpy descent.

    Its cursors hold ``2 * node``: ``bit2[2i]`` is the bit column node
    ``i`` tests (variable ``v`` is column ``num_vars - 1 - v``; cursors
    are always even, so odd slots are never read), and
    ``child2 = 2 * f_child``, so ``child2[cur + bit]`` is already the
    next doubled cursor.
    """
    bit2 = _np.zeros(2 * len(f_var), dtype=_np.intp)
    column = bit2[0::2]
    _np.subtract(num_vars - 1, f_var, out=column)
    # Sinks carry var 0 placeholders; clamp so derived indices stay valid.
    _np.maximum(column, 0, out=column)
    child2 = f_child.astype(_np.intp)
    child2 <<= 1
    return bit2, child2


def pack_headers(headers, num_vars: int, scratch: "KernelScratch | None" = None):
    """Headers as a C-contiguous ``(n, W)`` or ``(n,)`` uint64 word array.

    Zero-copy when possible: a 1-D ``uint64`` array with ``W == 1`` (or a
    C-contiguous ``(n, W)`` ``uint64`` array) is returned as-is.  Python
    sequences are packed with one ``np.fromiter`` pass for ``W == 1``;
    wider headers fall back to a ``to_bytes`` join (the only remaining
    per-header Python work, and only for >64-variable layouts).  When a
    ``scratch`` is supplied its word buffer is reused for the fromiter
    fast path.
    """
    width = words_per_header(num_vars)
    if isinstance(headers, _np.ndarray):
        arr = headers
        if arr.dtype != _np.uint64:
            if width == 1 and arr.ndim == 1:
                return _np.ascontiguousarray(arr, dtype=_np.uint64)
            raise ValueError(
                f"header array must be uint64 (got {arr.dtype}) for "
                f"{num_vars}-variable layouts"
            )
        if width == 1:
            if arr.ndim == 2 and arr.shape[1] == 1:
                arr = arr.reshape(-1)
            if arr.ndim != 1:
                raise ValueError(
                    f"expected (n,) headers for a <=64-variable layout, "
                    f"got shape {arr.shape}"
                )
            return _np.ascontiguousarray(arr)
        if arr.ndim != 2 or arr.shape[1] != width:
            raise ValueError(
                f"expected (n, {width}) word-packed headers, got shape "
                f"{arr.shape}"
            )
        return _np.ascontiguousarray(arr)
    n = len(headers)
    if width == 1:
        if scratch is not None:
            buf = scratch.words(n)
            for i, header in enumerate(headers):
                buf[i] = header
            return buf
        return _np.fromiter(headers, dtype=_np.uint64, count=n)
    data = b"".join(h.to_bytes(8 * width, "little") for h in headers)
    return _np.frombuffer(data, dtype=_np.uint64).reshape(n, width)


# ----------------------------------------------------------------------
# Program view + reusable scratch buffers
# ----------------------------------------------------------------------


class Program:
    """The compiled branching program as the descents consume it.

    A thin, immutable bundle of the little-endian arrays (built once at
    compile/load time): ``f_child`` interleaved int32 (``child[2i]`` =
    low, ``child[2i+1]`` = high) and ``f_atom`` int64 per sink, plus the
    bit-lookup tables of the engine's descent -- ``bit2``/``child2``
    (:func:`doubled_tables`) for numpy, ``f_word``/``f_shift``
    (:func:`shift_arrays`) for the C kernel.
    """

    __slots__ = (
        "width",
        "f_word",
        "f_shift",
        "bit2",
        "child2",
        "f_child",
        "f_atom",
        "num_sinks",
        "f_root",
    )

    def __init__(
        self, *, width, f_child, f_atom, num_sinks, f_root,
        f_word=None, f_shift=None, bit2=None, child2=None,
    ) -> None:
        self.width = width
        self.f_word = f_word
        self.f_shift = f_shift
        self.bit2 = bit2
        self.child2 = child2
        self.f_child = f_child
        self.f_atom = f_atom
        self.num_sinks = num_sinks
        self.f_root = f_root


class KernelScratch:
    """Per-engine packing buffer, reused across batches.

    One instance lives on each compiled engine; :meth:`acquire` hands the
    buffer to exactly one caller at a time (non-blocking -- a second
    concurrent caller gets ``False`` and allocates fresh temporaries).
    The buffer grows geometrically and never shrinks: the steady state
    of a serving loop packs list batches without allocating.

    The lock matters because engines outlive the asyncio serve loop:
    the multi-worker pool, benchmark harnesses, and user code may share
    one engine across threads, and the serve swap lock only serializes
    *its own* dispatcher -- not foreign threads classifying on the same
    artifact.
    """

    __slots__ = ("_lock", "_words")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._words = None

    def acquire(self) -> bool:
        return self._lock.acquire(blocking=False)

    def release(self) -> None:
        self._lock.release()

    def words(self, n: int):
        """A ``uint64[n]`` packing buffer (W == 1 fast path)."""
        if self._words is None or n > self._words.shape[0]:
            capacity = max(256, 1 << (n - 1).bit_length())
            self._words = _np.empty(capacity, dtype=_np.uint64)
        return self._words[:n]


# ----------------------------------------------------------------------
# Descents
# ----------------------------------------------------------------------


def descend_numpy(program, words, out):
    """Vectorized program descent over word-packed headers.

    ``program`` is the compiled engine's kernel view (built by
    :meth:`repro.core.compiled.CompiledAPTree._init_kernel`).  The
    batch's header bits are unpacked once into one ``uint8`` per bit --
    ``64 * W`` columns a header, column ``j`` holding bit ``j`` of the
    packed integer -- and each lane's cursor holds ``2 * node``, so one
    program level is two gathers plus a child lookup,
    ``cur = child2[cur + bits[base + bit2[cur]]]``, whatever the header
    width.  Lanes that reached a sink are compacted away every
    ``_COMPACT_BLOCK`` levels.  ``out`` is filled with atom ids and
    returned.
    """
    n = out.shape[0]
    if n == 0:
        return out
    stride = 64 * program.width
    bits = _np.unpackbits(
        words.astype("<u8", copy=False).view(_np.uint8), bitorder="little"
    )
    bit2 = program.bit2
    child2 = program.child2
    sunk = 2 * program.num_sinks
    base = _np.arange(0, n * stride, stride, dtype=_np.intp)
    cur = _np.full(n, 2 * program.f_root, dtype=_np.intp)
    while True:
        for _ in range(_COMPACT_BLOCK):
            cur = child2.take(cur + bits.take(base + bit2.take(cur)))
        done = cur < sunk
        if done.any():
            out[base[done] // stride] = program.f_atom.take(cur[done] >> 1)
            keep = ~done
            if not keep.any():
                break
            cur = cur[keep]
            base = base[keep]
    return out


def descend_native(program, words, out):
    """C-kernel descent: same arrays, per-packet scalar loop, no GIL.

    ``words`` and ``out`` must be C-contiguous (callers pack through
    :func:`pack_headers` / :class:`KernelScratch`, which guarantee it).
    """
    kernel = load_kernel()
    n = out.shape[0]
    kernel.classify_words(
        words,
        n,
        program.width,
        program.f_word,
        program.f_shift,
        program.f_child,
        program.f_atom,
        program.num_sinks,
        program.f_root,
        out,
    )
    return out
