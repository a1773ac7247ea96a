"""The binary artifact container: magic, manifest, checksummed sections.

Layout (all integers little-endian)::

    offset 0   magic        8 bytes  b"\\x89APC\\r\\n\\x1a\\n"
    offset 8   version      u32      container format version (gate)
    offset 12  manifest_len u32      length of the manifest JSON
    offset 16  manifest_crc u32      zlib.crc32 of the manifest bytes
    offset 20  manifest     utf-8 JSON (kind, counts, section table, ...)
    ...        sections     raw little-endian data, 8-byte aligned

The PNG-style magic makes truncation and transfer corruption detectable
up front (high bit set, CR/LF, ctrl-Z, LF).  Section offsets in the
manifest are relative to an 8-aligned *data base* that follows the
manifest, so the manifest's own length never perturbs the table it
describes.  Every section carries a ``crc32`` checked on load (skippable
via ``REPRO_ARTIFACT_VERIFY=0`` for trusted local restarts).

Integer sections are typed ``i4``/``i8`` and surface as zero-copy
``numpy.frombuffer`` views when numpy is available (over an ``mmap`` of
the file when permitted), or as ``array.array`` copies under the
pure-stdlib fallback.  Corruption never surfaces as a wrong answer: any
structural problem raises a typed :class:`ArtifactError` subclass.
"""

from __future__ import annotations

import io
import json
import mmap
import os
import struct
import sys
import zlib
from array import array as _stdlib_array
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .. import config

try:  # pragma: no cover - exercised via the CI matrix
    if config.numpy_disabled():
        _np = None
    else:
        import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "ArtifactError",
    "ArtifactCorrupt",
    "ArtifactVersionError",
    "ArtifactMismatch",
    "Artifact",
    "write_artifact",
    "build_artifact_bytes",
    "open_artifact",
    "artifact_from_buffer",
]

MAGIC = b"\x89APC\r\n\x1a\n"
FORMAT_VERSION = 1

_HEADER = struct.Struct("<8sIII")  # magic, version, manifest_len, manifest_crc
_ALIGN = 8

#: dtype tag -> (struct size, array.array typecode, numpy dtype string)
_DTYPES = {
    "u1": (1, "B", "u1"),
    "i4": (4, "i", "<i4"),
    "i8": (8, "q", "<i8"),
}


class ArtifactError(Exception):
    """Base class for every artifact load/save failure."""


class ArtifactCorrupt(ArtifactError):
    """Truncated file, bad magic, CRC mismatch, malformed manifest."""


class ArtifactVersionError(ArtifactError):
    """The container (or payload) format version is not supported."""


class ArtifactMismatch(ArtifactError):
    """Internally inconsistent payload, or one that disagrees with the
    network it was saved from."""


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _int_bytes(dtype: str, values) -> bytes:
    """Encode an int sequence as little-endian ``dtype`` bytes."""
    _, typecode, np_dtype = _DTYPES[dtype]
    if _np is not None:
        return _np.asarray(values, dtype=np_dtype).tobytes()
    arr = _stdlib_array(typecode, values)
    if sys.byteorder == "big":  # pragma: no cover - LE everywhere we run
        arr.byteswap()
    return arr.tobytes()


@dataclass(frozen=True)
class _SectionEntry:
    name: str
    dtype: str
    offset: int  # relative to the data base, 8-aligned
    length: int  # in bytes
    crc32: int


class Artifact:
    """A parsed container: manifest plus typed access to its sections."""

    def __init__(
        self,
        manifest: dict,
        buffer,
        data_base: int,
        sections: dict[str, _SectionEntry],
        *,
        source: str = "<buffer>",
        mmapped: bool = False,
    ) -> None:
        self.manifest = manifest
        self.buffer = buffer
        self.mmapped = mmapped
        self._data_base = data_base
        self._sections = sections
        self._source = source

    @property
    def kind(self) -> str:
        return self.manifest.get("kind", "")

    def section_names(self) -> list[str]:
        return list(self._sections)

    def section_bytes(self, name: str) -> memoryview:
        entry = self._sections.get(name)
        if entry is None:
            raise ArtifactMismatch(
                f"{self._source}: missing section {name!r}"
            )
        start = self._data_base + entry.offset
        view = memoryview(self.buffer)[start : start + entry.length]
        if len(view) != entry.length:
            raise ArtifactCorrupt(
                f"{self._source}: truncated section {name!r} "
                f"({len(view)} of {entry.length} bytes)"
            )
        return view

    def section_ints(self, name: str):
        """Section as an int sequence: numpy view (zero-copy) or
        ``array.array`` copy under the stdlib fallback."""
        entry = self._sections.get(name)
        if entry is None:
            raise ArtifactMismatch(
                f"{self._source}: missing section {name!r}"
            )
        size, typecode, np_dtype = _DTYPES[entry.dtype]
        view = self.section_bytes(name)
        if len(view) % size:
            raise ArtifactCorrupt(
                f"{self._source}: section {name!r} length {len(view)} is "
                f"not a multiple of its {size}-byte element"
            )
        if _np is not None:
            return _np.frombuffer(view, dtype=np_dtype)
        arr = _stdlib_array(typecode)
        arr.frombytes(bytes(view))
        if sys.byteorder == "big":  # pragma: no cover
            arr.byteswap()
        return arr

    def verify(self) -> None:
        """Re-check every section CRC (raises :class:`ArtifactCorrupt`)."""
        for entry in self._sections.values():
            actual = zlib.crc32(self.section_bytes(entry.name))
            if actual != entry.crc32:
                raise ArtifactCorrupt(
                    f"{self._source}: CRC mismatch in section "
                    f"{entry.name!r} (stored {entry.crc32:#010x}, "
                    f"actual {actual:#010x})"
                )

    def close(self) -> None:
        """Release an mmap-backed buffer (no-op for plain bytes).

        Only safe once nothing references the section views; loaders
        that hand out zero-copy arrays keep the artifact alive instead.
        """
        if self.mmapped:
            try:
                self.buffer.close()
            except BufferError:  # live views; GC will collect later
                pass

    def __repr__(self) -> str:
        backing = "mmap" if self.mmapped else "bytes"
        return (
            f"Artifact({self.kind!r}, {len(self._sections)} sections, "
            f"{backing}, {self._source})"
        )


# ----------------------------------------------------------------------
# Writing
# ----------------------------------------------------------------------


def build_artifact_bytes(
    manifest: dict, sections: Sequence[tuple[str, str, object]]
) -> bytes:
    """Assemble a container in memory.

    ``sections`` is ``(name, dtype, data)`` with ``dtype`` one of
    ``u1`` (data is bytes-like), ``i4``/``i8`` (data is an int
    sequence).  The manifest must not already carry a section table.
    """
    encoded: list[tuple[str, str, bytes]] = []
    for name, dtype, data in sections:
        if dtype not in _DTYPES:
            raise ValueError(f"unknown section dtype {dtype!r}")
        payload = bytes(data) if dtype == "u1" else _int_bytes(dtype, data)
        encoded.append((name, dtype, payload))

    table = []
    offset = 0
    for name, dtype, payload in encoded:
        offset = _align(offset)
        table.append(
            {
                "name": name,
                "dtype": dtype,
                "offset": offset,
                "length": len(payload),
                "crc32": zlib.crc32(payload),
            }
        )
        offset += len(payload)

    full_manifest = dict(manifest)
    full_manifest["sections"] = table
    manifest_bytes = json.dumps(full_manifest, allow_nan=False).encode()

    out = io.BytesIO()
    out.write(
        _HEADER.pack(
            MAGIC, FORMAT_VERSION, len(manifest_bytes), zlib.crc32(manifest_bytes)
        )
    )
    out.write(manifest_bytes)
    data_base = _align(out.tell())
    out.write(b"\x00" * (data_base - out.tell()))
    for entry, (_, _, payload) in zip(table, encoded):
        pad = data_base + entry["offset"] - out.tell()
        out.write(b"\x00" * pad)
        out.write(payload)
    return out.getvalue()


def write_artifact(
    path: str | os.PathLike,
    manifest: dict,
    sections: Sequence[tuple[str, str, object]],
) -> int:
    """Write a container to ``path`` atomically; returns bytes written.

    The blob lands under a temp name and is ``os.replace``d into place,
    so readers (and the serve worker pool's generation handoff) never
    observe a half-written artifact.
    """
    blob = build_artifact_bytes(manifest, sections)
    path = Path(path)
    tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
    tmp.write_bytes(blob)
    os.replace(tmp, path)
    return len(blob)


# ----------------------------------------------------------------------
# Reading
# ----------------------------------------------------------------------


def _parse(buffer, *, source: str, verify: bool, mmapped: bool) -> Artifact:
    size = len(buffer)
    if size < _HEADER.size:
        raise ArtifactCorrupt(
            f"{source}: too short to be an artifact ({size} bytes)"
        )
    magic, version, manifest_len, manifest_crc = _HEADER.unpack_from(buffer, 0)
    if magic != MAGIC:
        raise ArtifactCorrupt(f"{source}: not a repro artifact (bad magic)")
    if version != FORMAT_VERSION:
        raise ArtifactVersionError(
            f"{source}: container version {version} is not supported "
            f"(this build reads version {FORMAT_VERSION})"
        )
    manifest_end = _HEADER.size + manifest_len
    if manifest_end > size:
        raise ArtifactCorrupt(
            f"{source}: truncated manifest ({size - _HEADER.size} of "
            f"{manifest_len} bytes)"
        )
    manifest_bytes = bytes(memoryview(buffer)[_HEADER.size : manifest_end])
    if zlib.crc32(manifest_bytes) != manifest_crc:
        raise ArtifactCorrupt(f"{source}: manifest CRC mismatch")
    try:
        manifest = json.loads(manifest_bytes)
    except ValueError as exc:  # pragma: no cover - crc catches this first
        raise ArtifactCorrupt(f"{source}: malformed manifest JSON: {exc}")
    raw_table = manifest.get("sections")
    if not isinstance(raw_table, list):
        raise ArtifactCorrupt(f"{source}: manifest has no section table")
    data_base = _align(manifest_end)
    sections: dict[str, _SectionEntry] = {}
    for raw in raw_table:
        try:
            entry = _SectionEntry(
                name=raw["name"],
                dtype=raw["dtype"],
                offset=int(raw["offset"]),
                length=int(raw["length"]),
                crc32=int(raw["crc32"]),
            )
        except (TypeError, KeyError) as exc:
            raise ArtifactCorrupt(
                f"{source}: malformed section table entry: {exc!r}"
            ) from None
        if entry.dtype not in _DTYPES:
            raise ArtifactCorrupt(
                f"{source}: section {entry.name!r} has unknown dtype "
                f"{entry.dtype!r}"
            )
        if data_base + entry.offset + entry.length > size:
            raise ArtifactCorrupt(
                f"{source}: section {entry.name!r} extends past the end "
                "of the file (truncated artifact)"
            )
        sections[entry.name] = entry
    artifact = Artifact(
        manifest,
        buffer,
        data_base,
        sections,
        source=source,
        mmapped=mmapped,
    )
    if verify:
        artifact.verify()
    return artifact


def open_artifact(
    path: str | os.PathLike,
    *,
    use_mmap: bool | None = None,
    verify: bool | None = None,
) -> Artifact:
    """Open and validate a container file.

    ``use_mmap=None`` consults ``REPRO_ARTIFACT_MMAP`` (default on);
    mmap is only worth it when numpy can view the buffer in place, so
    the stdlib fallback always reads the file into bytes.  ``verify``
    defaults to ``REPRO_ARTIFACT_VERIFY``.
    """
    path = Path(path)
    if use_mmap is None:
        use_mmap = config.artifact_mmap()
    if verify is None:
        verify = config.artifact_verify()
    try:
        if use_mmap and _np is not None:
            with open(path, "rb") as handle:
                try:
                    buffer = mmap.mmap(
                        handle.fileno(), 0, access=mmap.ACCESS_READ
                    )
                    mmapped = True
                except ValueError:  # empty file cannot be mapped
                    buffer = handle.read()
                    mmapped = False
        else:
            buffer = path.read_bytes()
            mmapped = False
    except OSError as exc:
        raise ArtifactError(f"cannot open artifact {path}: {exc}") from exc
    return _parse(buffer, source=str(path), verify=verify, mmapped=mmapped)


def artifact_from_buffer(
    buffer, *, verify: bool | None = None, source: str = "<buffer>"
) -> Artifact:
    """Parse a container already in memory (e.g. a shared-memory block).

    The buffer may be any object exposing the buffer protocol; section
    views alias it, so it must outlive the artifact (serve workers keep
    the ``SharedMemory`` handle referenced for exactly this reason).
    """
    if verify is None:
        verify = config.artifact_verify()
    return _parse(buffer, source=source, verify=verify, mmapped=False)
