"""Optional native (C) classification kernel.

The extension module :mod:`repro._native._kernel` holds one tight loop:
the program descent of :class:`repro.core.compiled.CompiledAPTree`
run directly over the little-endian ``uint64`` word buffers the artifact
format already mmaps -- no numpy temporaries, no Python objects per
packet.  It is built by ``python setup.py build_ext --inplace`` (or any
wheel build); the build is declared *optional*, so environments without
a C compiler simply skip it.

This package imports cleanly whether or not the extension is built:
:func:`load_kernel` returns the module or ``None``, and the engine
selection in :mod:`repro.core.kernel` treats ``None`` as "native
unavailable" and falls back to the numpy or stdlib backend.
"""

from __future__ import annotations

__all__ = ["load_kernel", "native_build_hint"]

_KERNEL = None
_TRIED = False


def load_kernel():
    """The built ``_kernel`` extension module, or ``None``.

    Import is attempted once per process and memoized either way; a
    missing or un-importable extension is never an error here (the
    caller decides whether a fallback or a loud failure is right).
    """
    global _KERNEL, _TRIED
    if not _TRIED:
        _TRIED = True
        try:
            from . import _kernel  # type: ignore[attr-defined]
        except ImportError:
            _KERNEL = None
        else:
            _KERNEL = _kernel
    return _KERNEL


def native_build_hint() -> str:
    """One-line instruction shown when native is requested but absent."""
    return (
        "the native kernel is not built; run "
        "`python setup.py build_ext --inplace` (requires a C compiler)"
    )
