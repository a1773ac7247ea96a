"""Unit tests for header layouts and field encoding."""

import pytest

from repro.headerspace.fields import (
    HeaderLayout,
    dst_ip_layout,
    five_tuple_layout,
    format_ipv4,
    parse_ipv4,
)


class TestIpv4Helpers:
    def test_parse_round_trip(self):
        for text in ("0.0.0.0", "10.1.2.3", "255.255.255.255", "171.64.0.1"):
            assert format_ipv4(parse_ipv4(text)) == text

    def test_parse_rejects_bad_shapes(self):
        for bad in ("10.0.0", "10.0.0.0.0", "10.0.0.256", "a.b.c.d", ""):
            with pytest.raises(ValueError):
                parse_ipv4(bad)

    def test_format_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            format_ipv4(1 << 32)
        with pytest.raises(ValueError):
            format_ipv4(-1)


class TestLayoutConstruction:
    def test_offsets_accumulate(self):
        layout = five_tuple_layout()
        assert layout.field("src_ip").offset == 0
        assert layout.field("dst_ip").offset == 32
        assert layout.field("src_port").offset == 64
        assert layout.field("dst_port").offset == 80
        assert layout.field("proto").offset == 96
        assert layout.total_width == 104

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            HeaderLayout([("a", 4), ("a", 4)])

    def test_empty_layout_rejected(self):
        with pytest.raises(ValueError):
            HeaderLayout([])

    def test_zero_width_field_rejected(self):
        with pytest.raises(ValueError):
            HeaderLayout([("a", 0)])

    def test_unknown_field_lookup(self):
        with pytest.raises(KeyError):
            dst_ip_layout().field("nope")

    def test_contains_and_names(self):
        layout = five_tuple_layout()
        assert "proto" in layout
        assert "nope" not in layout
        assert layout.field_names()[0] == "src_ip"

    def test_equality_and_hash(self):
        assert dst_ip_layout() == dst_ip_layout()
        assert dst_ip_layout() != five_tuple_layout()
        assert hash(dst_ip_layout()) == hash(dst_ip_layout())


class TestPacking:
    def test_pack_unpack_round_trip(self):
        layout = five_tuple_layout()
        values = {
            "src_ip": parse_ipv4("10.0.0.1"),
            "dst_ip": parse_ipv4("171.64.1.2"),
            "src_port": 40000,
            "dst_port": 80,
            "proto": 6,
        }
        assert layout.unpack(layout.pack(values)) == values

    def test_pack_defaults_missing_to_zero(self):
        layout = five_tuple_layout()
        header = layout.pack({"dst_port": 443})
        assert layout.extract(header, "dst_port") == 443
        assert layout.extract(header, "src_ip") == 0

    def test_pack_rejects_unknown_field(self):
        with pytest.raises(KeyError):
            dst_ip_layout().pack({"nope": 1})

    def test_pack_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            five_tuple_layout().pack({"proto": 256})

    def test_unpack_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            dst_ip_layout().unpack(1 << 32)

    def test_extract_positions(self):
        layout = HeaderLayout([("a", 4), ("b", 4)])
        header = layout.pack({"a": 0xA, "b": 0x5})
        assert header == 0xA5
        assert layout.extract(header, "a") == 0xA
        assert layout.extract(header, "b") == 0x5


class TestLiterals:
    def test_bit_positions(self):
        # Variables run destination first; packing keeps src_ip first.
        layout = five_tuple_layout()
        assert layout.bit_positions("dst_ip") == range(0, 32)
        assert layout.bit_positions("src_ip") == range(32, 64)
        assert layout.bit_positions("proto") == range(96, 104)
        packed = HeaderLayout([(f.name, f.width) for f in layout.fields])
        assert packed.bit_positions("dst_ip") == range(32, 64)

    def test_exact_literals_full_width(self):
        layout = HeaderLayout([("a", 4)])
        literals = layout.exact_literals("a", 0b1010)
        assert literals == {0: True, 1: False, 2: True, 3: False}

    def test_exact_literals_out_of_range(self):
        with pytest.raises(ValueError):
            HeaderLayout([("a", 4)]).exact_literals("a", 16)

    def test_prefix_literals_top_bits_only(self):
        layout = HeaderLayout([("a", 8)])
        literals = layout.prefix_literals("a", 0b1100_0000, 2)
        assert literals == {0: True, 1: True}

    def test_prefix_literals_zero_length_unconstrained(self):
        layout = HeaderLayout([("a", 8)])
        assert layout.prefix_literals("a", 0, 0) == {}

    def test_prefix_literals_with_offset(self):
        layout = HeaderLayout([("a", 4), ("b", 4)])
        literals = layout.prefix_literals("b", 0b1000, 1)
        assert literals == {4: True}

    def test_prefix_length_bounds(self):
        layout = HeaderLayout([("a", 4)])
        with pytest.raises(ValueError):
            layout.prefix_literals("a", 0, 5)


class TestVarOrder:
    """The BDD variable order is separate from the packing order."""

    def test_default_is_packing_order(self):
        layout = HeaderLayout([("a", 4), ("b", 2)])
        assert layout.packing_var_order
        assert layout.var_order == ("a", "b")
        assert layout.var_shifts == (5, 4, 3, 2, 1, 0)
        assert [f.var_offset for f in layout.fields] == [0, 4]

    def test_reordered_shifts(self):
        layout = HeaderLayout([("a", 4), ("b", 2)], var_order=["b", "a"])
        assert not layout.packing_var_order
        # b (bits 1..0) is variables 0..1, a (bits 5..2) variables 2..5.
        assert layout.var_shifts == (1, 0, 5, 4, 3, 2)
        assert layout.field("b").var_offset == 0
        assert layout.field("a").var_offset == 2
        assert layout.field("a").offset == 0
        assert layout.exact_literals("b", 0b10) == {0: True, 1: False}
        header = layout.pack({"a": 0b1001, "b": 0b10})
        assert header == 0b100110
        for var, polarity in layout.exact_literals("a", 0b1001).items():
            assert (header >> layout.var_shifts[var]) & 1 == polarity

    def test_order_is_part_of_equality(self):
        fields = [("a", 4), ("b", 2)]
        packed = HeaderLayout(fields)
        reordered = HeaderLayout(fields, var_order=["b", "a"])
        assert packed != reordered
        assert reordered == HeaderLayout(fields, var_order=("b", "a"))
        assert hash(reordered) == hash(HeaderLayout(fields, ["b", "a"]))
        assert packed == HeaderLayout(fields, var_order=["a", "b"])

    def test_bad_orders_rejected(self):
        for order in (["a"], ["a", "a"], ["a", "c"], ["a", "b", "b"]):
            with pytest.raises(ValueError):
                HeaderLayout([("a", 4), ("b", 2)], var_order=order)

    def test_five_tuple_packing_did_not_move(self):
        # The wire format: packed header ints are packing order, whatever
        # the variable order.
        layout = five_tuple_layout()
        assert layout.var_order[0] == "dst_ip"
        header = layout.pack({
            "src_ip": parse_ipv4("10.0.0.1"),
            "dst_ip": parse_ipv4("171.64.1.2"),
            "src_port": 1234,
            "dst_port": 80,
            "proto": 6,
        })
        assert header == 0x0A000001_AB400102_04D2_0050_06
        assert header == 792281633024015065122548502534
