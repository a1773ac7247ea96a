"""One front door for classifier persistence.

A classifier persists in one form: the binary artifact
(:mod:`repro.artifact`), a checksummed container that warm-starts via
``mmap`` in milliseconds (the offline stage in Fig. 11 is what it
avoids; Section VII-B is why the result is small enough to ship
around).

* :func:`save` writes it (:func:`repro.artifact.save_artifact`);
* :func:`load` restores it (:func:`repro.artifact.load_artifact`) --
  anything else, including a classifier JSON file from an older build,
  is refused with a typed :class:`ArtifactError`;
* :func:`classifier_to_json` is a write-only text view of the
  classifier half, for eyeballing and equality checks; nothing reads
  it back.

Artifact-only capabilities (serving-only loads, shared-memory buffers,
in-process copies, ``describe``) stay in :mod:`repro.artifact`.
"""

from __future__ import annotations

import json

from .artifact import ArtifactError
from .artifact.codec import _classifier_half
from .artifact import load_artifact as load
from .artifact import save_artifact as save
from .core.classifier import APClassifier

__all__ = [
    "save",
    "load",
    "classifier_to_json",
    "ArtifactError",
]


def classifier_to_json(classifier: APClassifier) -> str:
    """The classifier half as JSON text: a view, not a format.

    Side-effect free like the half itself (no compile, no new BDD
    nodes), so two calls around an operation tell whether it touched
    the classifier.  There is no reader; persist with :func:`save`.
    """
    manifest, sections = _classifier_half(classifier)
    return json.dumps(
        {
            **manifest,
            "sections": {
                name: bytes(data).decode() if dtype == "u1" else list(data)
                for name, dtype, data in sections
            },
        }
    )
