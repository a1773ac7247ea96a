"""Versioned binary artifacts: the compiled classifier on disk.

The offline stage (atomic predicates + AP Tree, Fig. 11) dominates
bring-up while the query structures are tiny (Section VII-B).  This
package persists the *compiled* classifier -- program arrays, BDD node
arrays, atom ids and ``R`` sets, the tree, and the network -- in a
checksummed binary container so a restart or standby replica warm-starts
via ``mmap`` zero-copy loads instead of recomputing.

Layers:

* :mod:`.container` -- the byte format: magic, manifest JSON,
  CRC-checked little-endian sections, typed :class:`ArtifactError`\\ s;
* :mod:`.codec` -- classifier <-> container, including the
  serving-only :func:`load_serving` fast path and shared-memory buffer
  loads for the multi-worker serve pool.

Most callers want the :mod:`repro.persist` facade instead: one
``save``/``load`` pair.
"""

from .container import (
    FORMAT_VERSION,
    MAGIC,
    Artifact,
    ArtifactCorrupt,
    ArtifactError,
    ArtifactMismatch,
    ArtifactVersionError,
    artifact_from_buffer,
    build_artifact_bytes,
    open_artifact,
    write_artifact,
)
from .codec import (
    CLASSIFIER_KIND,
    PAYLOAD_VERSION,
    artifact_bytes,
    classifier_bytes,
    classifier_from_bytes,
    describe_artifact,
    load_artifact,
    load_artifact_buffer,
    load_serving,
    load_serving_buffer,
    save_artifact,
)

__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "PAYLOAD_VERSION",
    "CLASSIFIER_KIND",
    "Artifact",
    "ArtifactError",
    "ArtifactCorrupt",
    "ArtifactVersionError",
    "ArtifactMismatch",
    "artifact_bytes",
    "artifact_from_buffer",
    "build_artifact_bytes",
    "classifier_bytes",
    "classifier_from_bytes",
    "describe_artifact",
    "load_artifact",
    "load_artifact_buffer",
    "load_serving",
    "load_serving_buffer",
    "open_artifact",
    "save_artifact",
    "write_artifact",
]
