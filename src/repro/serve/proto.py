"""Length-prefixed binary framing for the serve tier.

The newline-JSON endpoint (:mod:`repro.serve.tcp`) is friendly to
humans and ``nc``, but every request pays JSON encode/decode and one
syscall-sized line per query.  This module defines a tiny
length-prefixed frame format with multi-query classify frames, so one
round trip carries hundreds of headers and the byte layout is exactly
the kernel's word-packed form -- under numpy a received batch is
classified with zero per-header Python work.

Wire format (all integers little-endian)::

    frame   := MAGIC(0xAA) | u32 length | u8 type | payload
    length  := len(payload)   (the type byte is not counted)

The leading magic byte makes frames distinguishable from newline-JSON
on the same port (a JSON request starts with ``{`` or whitespace,
never ``0xAA``), which is how the TCP front end speaks both protocols
per-connection.  Frame types:

===============  ====  ======================================================
``PING``         0x01  empty; answered with ``PONG``
``CLASSIFY``     0x02  ``u32 count | u8 width | count*width u64`` headers
``METRICS``      0x04  empty; answered with ``METRICS_RESULT`` (JSON)
``DIFF``         0x05  UTF-8 JSON request; answered with ``DIFF_RESULT``
``WHATIF``       0x06  UTF-8 JSON request; answered with ``WHATIF_RESULT``
``PONG``         0x81  empty
``RESULT``       0x82  ``u32 count | count i64`` atom ids
``METRICS_RESULT``  0x84  UTF-8 JSON object
``DIFF_RESULT``  0x85  UTF-8 JSON object (the generation-diff report)
``WHATIF_RESULT``  0x86  UTF-8 JSON object (the what-if report)
``ERROR``        0x7F  UTF-8 message
===============  ====  ======================================================

``width`` is the number of u64 words per header
(:func:`repro.core.kernel.words_per_header`); headers are the kernel's
packed form, so ``<=64``-variable layouts ship one word per header.
Types ``0x03`` and ``0x83`` are unassigned; like any other unknown type
they are answered with ``ERROR``.
"""

from __future__ import annotations

import struct
import sys
from array import array

from .. import config

try:  # pragma: no cover - exercised via the CI matrix
    if config.numpy_disabled():
        _np = None
    else:
        import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

__all__ = [
    "FRAME_MAGIC",
    "MAX_FRAME_BYTES",
    "PING",
    "PONG",
    "CLASSIFY",
    "METRICS",
    "DIFF",
    "WHATIF",
    "RESULT",
    "METRICS_RESULT",
    "DIFF_RESULT",
    "WHATIF_RESULT",
    "ERROR",
    "FrameError",
    "RemoteError",
    "pack_frame",
    "read_frame",
    "read_rest_of_frame",
    "encode_classify",
    "decode_classify",
    "encode_result",
    "decode_result",
]

FRAME_MAGIC = 0xAA

#: A classify frame of 64k single-word headers is ~512 KiB; 8 MiB
#: leaves generous headroom without letting a bad length prefix commit
#: the reader to unbounded buffering.
MAX_FRAME_BYTES = 8 * 1024 * 1024

PING = 0x01
CLASSIFY = 0x02
METRICS = 0x04
DIFF = 0x05
WHATIF = 0x06
PONG = 0x81
RESULT = 0x82
METRICS_RESULT = 0x84
DIFF_RESULT = 0x85
WHATIF_RESULT = 0x86
ERROR = 0x7F

_HEADER = struct.Struct("<BIB")
_HEADER_REST = struct.Struct("<IB")


class FrameError(Exception):
    """Malformed frame on the wire (bad magic, length, or payload)."""


class RemoteError(Exception):
    """The peer answered an ``ERROR`` frame."""


def pack_frame(ftype: int, payload: bytes = b"") -> bytes:
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return _HEADER.pack(FRAME_MAGIC, len(payload), ftype) + payload


async def read_frame(reader, *, max_bytes: int = MAX_FRAME_BYTES):
    """Read one ``(type, payload)`` frame from an asyncio stream.

    Raises :class:`FrameError` on a bad magic byte or oversized length
    (the stream is desynchronized -- callers should close), and
    ``asyncio.IncompleteReadError`` on EOF.
    """
    header = await reader.readexactly(_HEADER.size)
    magic, length, ftype = _HEADER.unpack(header)
    if magic != FRAME_MAGIC:
        raise FrameError(f"bad frame magic {magic:#04x}")
    if length > max_bytes:
        raise FrameError(
            f"frame of {length} bytes exceeds the {max_bytes}-byte limit"
        )
    payload = await reader.readexactly(length) if length else b""
    return ftype, payload


async def read_rest_of_frame(reader, *, max_bytes: int = MAX_FRAME_BYTES):
    """Like :func:`read_frame` when the magic byte was already consumed.

    Servers speaking both protocols on one port peek the first byte of
    a connection to pick framed vs newline-JSON; this reads the rest of
    that first frame.
    """
    rest = await reader.readexactly(_HEADER_REST.size)
    length, ftype = _HEADER_REST.unpack(rest)
    if length > max_bytes:
        raise FrameError(
            f"frame of {length} bytes exceeds the {max_bytes}-byte limit"
        )
    payload = await reader.readexactly(length) if length else b""
    return ftype, payload


# ----------------------------------------------------------------------
# Integer-vector codecs (numpy when available, array module otherwise)
# ----------------------------------------------------------------------


def _ints_to_bytes(values, typecode: str, np_dtype) -> bytes:
    if _np is not None:
        return _np.ascontiguousarray(
            _np.asarray(values, dtype=np_dtype)
        ).tobytes()
    arr = values if isinstance(values, array) else array(typecode, values)
    if sys.byteorder == "big":  # pragma: no cover - LE everywhere we run
        arr = array(typecode, arr)
        arr.byteswap()
    return arr.tobytes()


def _bytes_to_ints(buf, typecode: str, np_dtype):
    if _np is not None:
        return _np.frombuffer(buf, dtype=np_dtype)
    arr = array(typecode)
    arr.frombytes(bytes(buf))
    if sys.byteorder == "big":  # pragma: no cover
        arr.byteswap()
    return arr


def _encode_headers(headers, width: int) -> tuple[int, bytes]:
    """``(count, words-bytes)`` for a header batch.

    Accepts the kernel's packed numpy forms zero-copy (``(n,)`` uint64
    for one-word layouts, ``(n, width)`` for wider) or plain int
    sequences (packed via ``to_bytes`` for wide layouts).
    """
    if _np is not None and isinstance(headers, _np.ndarray):
        arr = _np.ascontiguousarray(headers, dtype=_np.uint64)
        count = arr.shape[0]
        if arr.size != count * width:
            raise FrameError(
                f"header array shape {headers.shape} does not match "
                f"width {width}"
            )
        return count, arr.tobytes()
    count = len(headers)
    if width == 1:
        return count, _ints_to_bytes(headers, "Q", _np and _np.uint64)
    data = b"".join(int(h).to_bytes(8 * width, "little") for h in headers)
    return count, data


def _decode_headers(buf, count: int, width: int):
    """Words back into the kernel's batch form.

    Under numpy: a ``(count,)`` or ``(count, width)`` uint64 view of the
    payload (zero-copy) -- exactly what ``classify_batch_array`` wants.
    Without numpy: a list of plain int headers.
    """
    if len(buf) != 8 * count * width:
        raise FrameError(
            f"classify payload of {len(buf)} bytes does not hold "
            f"{count} x {width} words"
        )
    if _np is not None:
        words = _np.frombuffer(buf, dtype=_np.uint64)
        return words if width == 1 else words.reshape(count, width)
    words = _bytes_to_ints(buf, "Q", None)
    if width == 1:
        return list(words)
    return [
        sum(words[i * width + w] << (64 * w) for w in range(width))
        for i in range(count)
    ]


_CLASSIFY_HEAD = struct.Struct("<IB")
_COUNT = struct.Struct("<I")


def encode_classify(headers, *, width: int = 1) -> bytes:
    count, data = _encode_headers(headers, width)
    return _CLASSIFY_HEAD.pack(count, width) + data


def decode_classify(payload: bytes):
    """``(headers, width)`` from a ``CLASSIFY`` payload."""
    if len(payload) < _CLASSIFY_HEAD.size:
        raise FrameError("truncated CLASSIFY payload")
    count, width = _CLASSIFY_HEAD.unpack_from(payload)
    if not width:
        raise FrameError("CLASSIFY width must be >= 1")
    return _decode_headers(payload[_CLASSIFY_HEAD.size :], count, width), width


def encode_result(atoms) -> bytes:
    data = _ints_to_bytes(atoms, "q", _np and _np.int64)
    return _COUNT.pack(len(data) // 8) + data


def decode_result(payload: bytes):
    """Atom ids from a ``RESULT`` payload (numpy int64 view or array)."""
    if len(payload) < _COUNT.size:
        raise FrameError("truncated RESULT payload")
    (count,) = _COUNT.unpack_from(payload)
    data = payload[_COUNT.size :]
    if len(data) != 8 * count:
        raise FrameError(
            f"RESULT payload of {len(data)} bytes does not hold "
            f"{count} atoms"
        )
    return _bytes_to_ints(data, "q", _np and _np.int64)
