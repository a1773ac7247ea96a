"""Packet header field layouts.

The paper models each packet as a fixed-size header "including all fields
that are evaluated by forwarding tables and ACLs" (Section III).  A
:class:`HeaderLayout` fixes which fields exist, their widths, and their bit
offsets; every BDD variable index and every wildcard bit position in the
library is interpreted against one layout.

Bit numbering: variable/bit 0 is the most significant bit of the first
field.  A packed header is therefore a plain integer that compares and
prints naturally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

__all__ = [
    "HeaderField",
    "HeaderLayout",
    "dst_ip_layout",
    "five_tuple_layout",
    "dst_ip6_layout",
    "five_tuple6_layout",
    "parse_ipv4",
    "format_ipv4",
    "parse_ipv6",
    "format_ipv6",
]


def parse_ipv4(text: str) -> int:
    """Parse dotted-quad IPv4 text into a 32-bit integer."""
    parts = text.split(".")
    if len(parts) != 4:
        raise ValueError(f"invalid IPv4 address: {text!r}")
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise ValueError(f"invalid IPv4 octet in {text!r}")
        value = (value << 8) | octet
    return value


def format_ipv4(value: int) -> str:
    """Format a 32-bit integer as dotted-quad IPv4 text."""
    if not 0 <= value < 1 << 32:
        raise ValueError(f"IPv4 value out of range: {value}")
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def parse_ipv6(text: str) -> int:
    """Parse IPv6 text (with ``::`` compression) into a 128-bit integer."""
    if text.count("::") > 1:
        raise ValueError(f"invalid IPv6 address (multiple '::'): {text!r}")

    def parse_groups(part: str) -> list[int]:
        if not part:
            return []
        groups = []
        for token in part.split(":"):
            if not token or len(token) > 4:
                raise ValueError(f"invalid IPv6 group in {text!r}")
            groups.append(int(token, 16))
        return groups

    if "::" in text:
        head_text, _, tail_text = text.partition("::")
        head = parse_groups(head_text)
        tail = parse_groups(tail_text)
        missing = 8 - len(head) - len(tail)
        if missing < 1:
            raise ValueError(f"invalid IPv6 '::' expansion in {text!r}")
        groups = head + [0] * missing + tail
    else:
        groups = parse_groups(text)
        if len(groups) != 8:
            raise ValueError(f"IPv6 address needs 8 groups: {text!r}")
    value = 0
    for group in groups:
        if not 0 <= group <= 0xFFFF:
            raise ValueError(f"IPv6 group out of range in {text!r}")
        value = (value << 16) | group
    return value


def format_ipv6(value: int) -> str:
    """Format a 128-bit integer as IPv6 text (longest zero run compressed)."""
    if not 0 <= value < 1 << 128:
        raise ValueError(f"IPv6 value out of range: {value}")
    groups = [(value >> (112 - 16 * index)) & 0xFFFF for index in range(8)]
    # Find the longest run of zero groups (length >= 2) to compress.
    best_start, best_len = -1, 1
    index = 0
    while index < 8:
        if groups[index] == 0:
            run_start = index
            while index < 8 and groups[index] == 0:
                index += 1
            run_len = index - run_start
            if run_len > best_len:
                best_start, best_len = run_start, run_len
        else:
            index += 1
    if best_start < 0:
        return ":".join(f"{group:x}" for group in groups)
    head = ":".join(f"{group:x}" for group in groups[:best_start])
    tail = ":".join(f"{group:x}" for group in groups[best_start + best_len:])
    return f"{head}::{tail}"


@dataclass(frozen=True)
class HeaderField:
    """One named field: a width in bits, its bit offset in packing order
    and its first BDD variable (``var_offset``)."""

    name: str
    width: int
    offset: int = 0
    var_offset: int = 0

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ValueError(f"field {self.name!r} must have positive width")

    @property
    def max_value(self) -> int:
        return (1 << self.width) - 1


class HeaderLayout:
    """An ordered collection of fields defining the packet header format.

    ``fields`` are ``(name, width)`` pairs in packing order.
    ``var_order`` lists the same names in BDD variable order; omitted,
    variables follow packing order.
    """

    def __init__(
        self,
        fields: Iterable[tuple[str, int]],
        var_order: Iterable[str] | None = None,
    ) -> None:
        specs = list(fields)
        widths: dict[str, int] = {}
        offsets: dict[str, int] = {}
        offset = 0
        for name, width in specs:
            if name in widths:
                raise ValueError(f"duplicate field name {name!r}")
            widths[name] = width
            offsets[name] = offset
            offset += width
        if not specs:
            raise ValueError("a header layout needs at least one field")
        order = tuple(widths) if var_order is None else tuple(var_order)
        if sorted(order) != sorted(widths):
            raise ValueError(
                f"var_order {list(order)} must list each field of "
                f"{list(widths)} exactly once"
            )
        var_offsets: dict[str, int] = {}
        first_var = 0
        for name in order:
            var_offsets[name] = first_var
            first_var += widths[name]
        by_name = {
            name: HeaderField(name, width, offsets[name], var_offsets[name])
            for name, width in specs
        }
        self.fields: tuple[HeaderField, ...] = tuple(by_name.values())
        self._by_name = by_name
        self.total_width = offset
        #: Field names in BDD variable order.
        self.var_order: tuple[str, ...] = order
        shifts = [0] * offset
        for field in self.fields:
            top = offset - 1 - field.offset  # the field's MSB, as a shift
            first = field.var_offset
            shifts[first : first + field.width] = range(
                top, top - field.width, -1
            )
        #: ``var_shifts[v]`` is the right shift that brings variable
        #: ``v`` to bit 0 of a packed header; in packing order it is
        #: ``total_width - 1 - v``.
        self.var_shifts: tuple[int, ...] = tuple(shifts)

    def field(self, name: str) -> HeaderField:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(
                f"unknown field {name!r}; layout has {self.field_names()}"
            ) from None

    def field_names(self) -> list[str]:
        return [field.name for field in self.fields]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    @property
    def packing_var_order(self) -> bool:
        """Do BDD variables follow packing order?"""
        return self.var_order == tuple(field.name for field in self.fields)

    def __eq__(self, other: object) -> bool:
        # ``fields`` carry their var offsets, so equal layouts also
        # agree on the variable order.
        return isinstance(other, HeaderLayout) and self.fields == other.fields

    def __hash__(self) -> int:
        return hash(self.fields)

    # ------------------------------------------------------------------
    # Packing
    # ------------------------------------------------------------------

    def pack(self, values: Mapping[str, int]) -> int:
        """Pack per-field values into one header integer.

        Unspecified fields default to zero; unknown names are an error.
        """
        header = 0
        for name in values:
            if name not in self._by_name:
                raise KeyError(f"unknown field {name!r}")
        for field in self.fields:
            value = values.get(field.name, 0)
            if not 0 <= value <= field.max_value:
                raise ValueError(
                    f"value {value} out of range for {field.name!r} "
                    f"(width {field.width})"
                )
            header = (header << field.width) | value
        return header

    def unpack(self, header: int) -> dict[str, int]:
        """Split a packed header back into per-field values."""
        if not 0 <= header < 1 << self.total_width:
            raise ValueError(f"header {header} out of range for layout")
        values: dict[str, int] = {}
        remaining = header
        for field in reversed(self.fields):
            values[field.name] = remaining & field.max_value
            remaining >>= field.width
        return values

    def extract(self, header: int, name: str) -> int:
        """Read a single field from a packed header."""
        field = self.field(name)
        shift = self.total_width - field.offset - field.width
        return (header >> shift) & field.max_value

    # ------------------------------------------------------------------
    # BDD variable indices
    # ------------------------------------------------------------------

    def bit_positions(self, name: str) -> range:
        """Variable indices covering field ``name``, MSB first."""
        field = self.field(name)
        return range(field.var_offset, field.var_offset + field.width)

    def exact_literals(self, name: str, value: int) -> dict[int, bool]:
        """Literals (var -> polarity) for ``field == value``."""
        field = self.field(name)
        if not 0 <= value <= field.max_value:
            raise ValueError(f"value {value} out of range for {name!r}")
        return {
            field.var_offset + i: bool((value >> (field.width - 1 - i)) & 1)
            for i in range(field.width)
        }

    def prefix_literals(self, name: str, value: int, prefix_len: int) -> dict[int, bool]:
        """Literals for the ``prefix_len`` most significant bits of a field.

        This is the shape of a longest-prefix-match rule: only the top
        ``prefix_len`` bits are constrained.
        """
        field = self.field(name)
        if not 0 <= prefix_len <= field.width:
            raise ValueError(
                f"prefix length {prefix_len} out of range for {name!r}"
            )
        return {
            field.var_offset + i: bool((value >> (field.width - 1 - i)) & 1)
            for i in range(prefix_len)
        }


def dst_ip_layout() -> HeaderLayout:
    """Destination-IP-only layout (Internet2-style pure LPM forwarding)."""
    return HeaderLayout([("dst_ip", 32)])


#: Destination first: every forwarding predicate tests the destination,
#: so refinements are not built below the untested source levels.
_FIVE_TUPLE_VAR_ORDER = ("dst_ip", "src_ip", "src_port", "dst_port", "proto")


def five_tuple_layout() -> HeaderLayout:
    """Classic 5-tuple layout used when ACLs filter on transport fields.

    Packed ``src_ip, dst_ip, src_port, dst_port, proto``; BDD variables
    run destination first.
    """
    return HeaderLayout(
        [
            ("src_ip", 32),
            ("dst_ip", 32),
            ("src_port", 16),
            ("dst_port", 16),
            ("proto", 8),
        ],
        var_order=_FIVE_TUPLE_VAR_ORDER,
    )


def dst_ip6_layout() -> HeaderLayout:
    """Destination-only IPv6 layout (128-bit LPM forwarding)."""
    return HeaderLayout([("dst_ip6", 128)])


def five_tuple6_layout() -> HeaderLayout:
    """IPv6 5-tuple: 296 header bits; exercises the engine at full width.

    Packed source first, BDD variables destination first, like
    :func:`five_tuple_layout`.
    """
    return HeaderLayout(
        [
            ("src_ip6", 128),
            ("dst_ip6", 128),
            ("src_port", 16),
            ("dst_port", 16),
            ("proto", 8),
        ],
        var_order=("dst_ip6", "src_ip6", "src_port", "dst_port", "proto"),
    )
