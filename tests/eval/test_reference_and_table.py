"""Tests for golden-reference extraction and Table 1 rendering."""

from dataclasses import replace

import pytest

from repro.eval import (
    ReferenceWord,
    average_row,
    average_word_size,
    extract_reference_words,
    render_table,
)
from repro.eval.table import BenchmarkRow, TechniqueRow
from repro.netlist import NetlistBuilder


def netlist_with_registers():
    b = NetlistBuilder("t")
    a, c = b.inputs("a", "c")
    d_bits = [b.nand(a, c), b.nand(c, a), b.xor(a, c)]
    for i, d in enumerate(d_bits):
        b.dff(d, output=f"count_reg_{i}")
    b.dff(b.inv(a), output="mode_reg")      # single-bit register
    b.dff(b.nor(a, c), output="plainq")     # non-conventional name
    return b.build(), d_bits


class TestReferenceExtraction:
    def test_registers_grouped_by_name(self):
        nl, d_bits = netlist_with_registers()
        words = extract_reference_words(nl)
        assert len(words) == 1
        assert words[0].register == "count"
        assert words[0].bits == tuple(d_bits)

    def test_bits_are_d_inputs_not_q_outputs(self):
        """Paper: "these words are the input nets to the flip-flops"."""
        nl, d_bits = netlist_with_registers()
        word = extract_reference_words(nl)[0]
        assert not any(bit.startswith("count_reg") for bit in word.bits)

    def test_single_bit_registers_excluded(self):
        nl, _ = netlist_with_registers()
        registers = {w.register for w in extract_reference_words(nl)}
        assert "mode" not in registers

    def test_min_width_configurable(self):
        nl, _ = netlist_with_registers()
        words = extract_reference_words(nl, min_width=4)
        assert words == []

    def test_bits_ordered_by_index(self):
        b = NetlistBuilder("t")
        a, c = b.inputs("a", "c")
        d2 = b.nand(a, c)
        d0 = b.nor(a, c)
        b.dff(d2, output="w_reg_2")  # declared out of order
        b.dff(d0, output="w_reg_0")
        nl = b.build()
        word = extract_reference_words(nl)[0]
        assert word.bits == (d0, d2)

    def test_average_word_size(self):
        words = [ReferenceWord("a", ("x", "y")), ReferenceWord("b", ("z", "w", "v"))]
        assert average_word_size(words) == pytest.approx(2.5)
        assert average_word_size([]) == 0.0


def make_row(name, base_full, ours_full):
    def tech(tech_name, full):
        return TechniqueRow(tech_name, full, 0.2, 10.0, 1.0, 2)

    return BenchmarkRow(
        name=name, num_gates=100, num_nets=120, num_ffs=30,
        num_words=10, avg_word_size=3.0,
        base=tech("Base", base_full), ours=tech("Ours", ours_full),
    )


class TestTable:
    def test_average_row_means(self):
        rows = [make_row("x", 50.0, 70.0), make_row("y", 70.0, 90.0)]
        avg = average_row(rows)
        assert avg.base.pct_full == pytest.approx(60.0)
        assert avg.ours.pct_full == pytest.approx(80.0)
        # Control signals are summed, as in the paper's table footer style.
        assert avg.ours.num_control_signals == 4

    def test_average_row_means_the_design_columns(self):
        rows = [
            make_row("x", 50.0, 70.0),
            replace(
                make_row("y", 70.0, 90.0), num_gates=201, num_nets=240,
                num_ffs=61, num_words=14, avg_word_size=4.5,
            ),
        ]
        avg = average_row(rows)
        # 150.5 gates and 45.5 flip-flops round half to even.
        assert (avg.num_gates, avg.num_nets, avg.num_ffs, avg.num_words) == (
            150, 180, 46, 12,
        )
        assert avg.avg_word_size == pytest.approx(3.75)
        line = render_table(rows).splitlines()[-2]
        assert line.split()[:6] == [
            "Average", "150", "180", "46", "12", "3.75",
        ]

    def test_average_of_nothing_raises(self):
        with pytest.raises(ValueError):
            average_row([])

    def test_render_contains_both_techniques(self):
        text = render_table([make_row("b03", 60.0, 80.0)])
        assert "Base" in text and "Ours" in text
        assert "b03" in text
        assert "Average" in text

    def test_render_without_average(self):
        text = render_table([make_row("b03", 60.0, 80.0)], include_average=False)
        assert "Average" not in text

    def test_render_is_aligned(self):
        text = render_table([make_row("b03", 60.0, 80.0)])
        lines = [l for l in text.splitlines() if l and not l.startswith("-")]
        header = lines[0]
        assert header.index("Full%") > header.index("Tech")
