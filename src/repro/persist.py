"""One front door for classifier persistence.

The reproduction grew two on-disk forms: the human-readable JSON
snapshot (:mod:`repro.core.snapshots`) and the binary compiled artifact
(:mod:`repro.artifact`), which adds per-section CRCs and an ``mmap``
warm-start measured in milliseconds (the offline stage in Fig. 11 is
what it avoids; Section VII-B is why the result is small enough to ship
around).  This module unifies them:

* :func:`save` writes either format -- ``format="artifact"`` (default)
  or ``"json"``;
* :func:`load` restores from either, auto-detected by magic bytes, so
  callers never care which format a path holds;
* :func:`classifier_to_json` / :func:`classifier_from_json` are the
  string-level JSON API;
* :func:`detect_format` answers "what is this file?" without loading.

Artifact-only capabilities (serving-only loads, shared-memory buffers,
``describe``) stay in :mod:`repro.artifact`.
"""

from __future__ import annotations

import os

from .artifact import (
    ArtifactError,
    is_artifact,
    load_artifact,
    save_artifact,
)
from .artifact.container import MAGIC
from .core.classifier import APClassifier
from .core.snapshots import SnapshotMismatch, _load_json, _save_json

__all__ = [
    "save",
    "load",
    "detect_format",
    "classifier_to_json",
    "classifier_from_json",
    "ArtifactError",
    "SnapshotMismatch",
]

FORMATS = ("artifact", "json")


def classifier_to_json(classifier: APClassifier) -> str:
    """The classifier as a JSON snapshot string (no file involved)."""
    return _save_json(classifier)


def classifier_from_json(text: str) -> APClassifier:
    """Restore a classifier from :func:`classifier_to_json` output."""
    return _load_json(text)


def save(
    classifier: APClassifier,
    path: str | os.PathLike,
    *,
    format: str = "artifact",
    backend: str | None = None,
    recorder=None,
) -> int:
    """Write ``classifier`` to ``path``; returns bytes written.

    ``format="artifact"`` (default) writes the checksummed binary
    container feeding the mmap warm start; ``format="json"`` writes the
    portable JSON snapshot.  Both are readable back via :func:`load`.
    """
    if format == "artifact":
        return save_artifact(
            classifier, path, backend=backend, recorder=recorder
        )
    if format == "json":
        import time

        start = time.perf_counter()
        text = classifier_to_json(classifier)
        data = text.encode()
        tmp = os.fspath(path) + ".tmp"
        with open(tmp, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
        if recorder is None:
            recorder = classifier.recorder
        if recorder is not None:
            recorder.persist.record_save(
                len(data), time.perf_counter() - start
            )
        return len(data)
    raise ValueError(
        f"unknown persistence format {format!r} (expected one of {FORMATS})"
    )


def detect_format(path: str | os.PathLike) -> str:
    """``"artifact"`` or ``"json"``, sniffed from the file's first bytes."""
    with open(path, "rb") as handle:
        prefix = handle.read(len(MAGIC))
    return "artifact" if is_artifact(prefix) else "json"


def load(
    path: str | os.PathLike,
    *,
    backend: str | None = None,
    use_mmap: bool | None = None,
    verify: bool | None = None,
    deep_verify: bool = False,
    recorder=None,
) -> APClassifier:
    """Restore a classifier from ``path``, whatever format it holds.

    Artifacts honor the mmap/verify knobs; JSON snapshots ignore them
    (the JSON loader always recompiles the network and checks every
    predicate, the ``SnapshotMismatch`` defense).
    """
    if detect_format(path) == "artifact":
        return load_artifact(
            path,
            backend=backend,
            use_mmap=use_mmap,
            verify=verify,
            deep_verify=deep_verify,
            recorder=recorder,
        )
    import time

    start = time.perf_counter()
    with open(path, "rb") as handle:
        data = handle.read()
    classifier = classifier_from_json(data.decode())
    if recorder is not None:
        recorder.persist.record_load(
            len(data), time.perf_counter() - start, mmapped=False
        )
    return classifier
