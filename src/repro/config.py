"""Central registry for every ``REPRO_*`` environment knob.

Before this module existed, configuration reads were scattered
(``core.compiled`` peeked at ``REPRO_DISABLE_NUMPY`` at import, the
benchmark conftest read ``REPRO_OBS_SIDECAR``, ...), which made it
impossible to answer "what knobs exist and what do they do?" without
grepping.  Now every knob is declared once in :data:`KNOBS` with a typed
accessor next to it, and the rest of the codebase imports from here.

Semantics shared by all knobs:

* unset or empty string means "use the default";
* boolean knobs accept ``0/1``, ``false/true``, ``no/yes``, ``off/on``
  (case-insensitive); anything else non-empty is an error;
* integer knobs must parse as a base-10 integer;
* a malformed value raises :class:`ValueError` naming the variable --
  never a silent fallback, so typos in CI matrices fail loudly.

Knob reference (also surfaced by :func:`describe` and
``docs/persistence.md``):

``REPRO_MP_START``
    Multiprocessing start method (``fork``/``spawn``/``forkserver``)
    for the reconstruction process and serve workers.
    Default: ``fork`` where available, else ``spawn``.
``REPRO_DISABLE_NUMPY``
    Truthy = never import numpy; the compiled engine and artifact loads
    use the pure-stdlib paths.  Read once at ``repro.core.compiled``
    import time.
``REPRO_ENGINE``
    Preferred classification engine: ``native`` (the optional C
    extension), ``numpy``, or ``stdlib``; unset = auto (best
    available).  A *preference*, not a demand: if the preferred engine
    is not importable in this process the next one down is used, so a
    deployment can set ``REPRO_ENGINE=native`` everywhere and hosts
    without a compiled extension degrade gracefully.  Explicit
    ``backend=`` arguments still fail loudly when unavailable.
``REPRO_OBS_SIDECAR``
    Truthy = benchmarks write ``*.obs.json`` recorder sidecars next to
    their ``BENCH_*.json`` outputs.
``REPRO_SERVE_WORKERS``
    Default process count for ``repro serve`` (the ``--serve-workers``
    flag wins).  ``1`` or unset = single-process serving.
``REPRO_ARTIFACT_MMAP``
    Falsy = artifact loads copy sections into process memory instead of
    ``mmap``-ing the file (default: mmap when the numpy backend is
    available).
``REPRO_ARTIFACT_VERIFY``
    Falsy = skip per-section CRC verification on artifact load (the
    header and manifest are always validated).  Default: verify.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass

__all__ = [
    "ENV_MP_START",
    "ENV_DISABLE_NUMPY",
    "ENV_ENGINE",
    "ENV_OBS_SIDECAR",
    "ENV_SERVE_WORKERS",
    "ENV_ARTIFACT_MMAP",
    "ENV_ARTIFACT_VERIFY",
    "ENGINES",
    "Knob",
    "KNOBS",
    "env_flag",
    "env_int",
    "mp_start",
    "numpy_disabled",
    "engine",
    "obs_sidecar",
    "serve_workers",
    "artifact_mmap",
    "artifact_verify",
    "describe",
]

ENV_MP_START = "REPRO_MP_START"
ENV_DISABLE_NUMPY = "REPRO_DISABLE_NUMPY"
ENV_ENGINE = "REPRO_ENGINE"
ENV_OBS_SIDECAR = "REPRO_OBS_SIDECAR"
ENV_SERVE_WORKERS = "REPRO_SERVE_WORKERS"
ENV_ARTIFACT_MMAP = "REPRO_ARTIFACT_MMAP"
ENV_ARTIFACT_VERIFY = "REPRO_ARTIFACT_VERIFY"

#: Engine names accepted by ``REPRO_ENGINE`` (and ``backend=`` args).
ENGINES = ("native", "numpy", "stdlib")


@dataclass(frozen=True)
class Knob:
    """One declared environment knob (name, type, default, one-liner)."""

    name: str
    kind: str  # "int" | "bool" | "str"
    default: str
    help: str


KNOBS: tuple[Knob, ...] = (
    Knob(ENV_MP_START, "str", "fork if available else spawn",
         "multiprocessing start method"),
    Knob(ENV_DISABLE_NUMPY, "bool", "0",
         "force the pure-stdlib compiled/artifact paths"),
    Knob(ENV_ENGINE, "str", "auto (best available)",
         "preferred classification engine: native | numpy | stdlib"),
    Knob(ENV_OBS_SIDECAR, "bool", "0",
         "benchmarks emit *.obs.json recorder sidecars"),
    Knob(ENV_SERVE_WORKERS, "int", "1",
         "default process count for `repro serve`"),
    Knob(ENV_ARTIFACT_MMAP, "bool", "1",
         "mmap artifact files for zero-copy loads (numpy backend)"),
    Knob(ENV_ARTIFACT_VERIFY, "bool", "1",
         "verify per-section CRCs on artifact load"),
)

_TRUE = frozenset({"1", "true", "yes", "on"})
_FALSE = frozenset({"0", "false", "no", "off"})


def _raw(name: str) -> str:
    return os.environ.get(name, "").strip()


def env_flag(name: str, default: bool = False) -> bool:
    """Parse a boolean knob; unset/empty means ``default``."""
    raw = _raw(name)
    if not raw:
        return default
    lowered = raw.lower()
    if lowered in _TRUE:
        return True
    if lowered in _FALSE:
        return False
    raise ValueError(
        f"{name} must be a boolean flag (0/1/true/false/...), got {raw!r}"
    )


def env_int(name: str, default: int | None = None) -> int | None:
    """Parse an integer knob; unset/empty means ``default``."""
    raw = _raw(name)
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None


def mp_start(explicit: str | None = None) -> str:
    """Validated start method: argument, else env, else fork/spawn."""
    methods = multiprocessing.get_all_start_methods()
    requested = explicit if explicit is not None else _raw(ENV_MP_START)
    if requested:
        if requested not in methods:
            raise ValueError(
                f"{ENV_MP_START}={requested!r} is not available on this "
                f"platform (choose from {methods})"
            )
        return requested
    return "fork" if "fork" in methods else "spawn"


def numpy_disabled() -> bool:
    """Truthy ``REPRO_DISABLE_NUMPY`` (legacy: any non-empty string).

    Historical values like ``yes`` predate the strict flag grammar, so
    this knob alone treats *any* unrecognized non-empty value as true --
    disabling an optional fast path is the safe direction for a typo.
    """
    raw = _raw(ENV_DISABLE_NUMPY)
    if not raw:
        return False
    return raw.lower() not in _FALSE


def engine(explicit: str | None = None) -> str | None:
    """The preferred engine: argument, else ``REPRO_ENGINE``, else None.

    ``None`` means "auto": pick the best engine importable in this
    process (native when the C extension is built, else numpy, else
    stdlib -- see :func:`repro.core.compiled.default_backend`).  A
    malformed value raises; availability is *not* checked here -- the
    compiled engine resolves the preference against what is importable
    and falls back one step at a time.
    """
    requested = explicit if explicit is not None else _raw(ENV_ENGINE)
    if not requested:
        return None
    lowered = requested.lower()
    if lowered == "auto":
        return None
    if lowered not in ENGINES:
        raise ValueError(
            f"{ENV_ENGINE} must be one of {ENGINES} (or auto/unset), "
            f"got {requested!r}"
        )
    return lowered


def obs_sidecar() -> bool:
    return env_flag(ENV_OBS_SIDECAR, False)


def serve_workers(explicit: int | None = None) -> int:
    """Effective ``repro serve`` process count: argument, else env, else 1.

    An explicit argument below 1 is a caller error and raises; a bad env
    value is clamped (the env knob must never crash startup).
    """
    if explicit is None:
        return max(1, env_int(ENV_SERVE_WORKERS, 1))
    explicit = int(explicit)
    if explicit < 1:
        raise ValueError(f"serve workers must be >= 1, got {explicit}")
    return explicit


def artifact_mmap() -> bool:
    return env_flag(ENV_ARTIFACT_MMAP, True)


def artifact_verify() -> bool:
    return env_flag(ENV_ARTIFACT_VERIFY, True)


def describe() -> list[dict[str, str]]:
    """Current settings for every declared knob (docs / debugging aid)."""
    return [
        {
            "name": knob.name,
            "kind": knob.kind,
            "default": knob.default,
            "value": _raw(knob.name),
            "help": knob.help,
        }
        for knob in KNOBS
    ]
