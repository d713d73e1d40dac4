"""Tests for generic transforms and netlist validation."""

import pytest

from repro.netlist import NetlistBuilder, stats, validate
from repro.netlist.netlist import Netlist, NetlistError
from repro.netlist.transforms import rewire_consumers, sweep_dead_logic
from repro.netlist.cells import AND, DFF, NAND


class TestRewire:
    def test_consumers_move(self):
        b = NetlistBuilder("t")
        a, c, d = b.inputs("a", "c", "d")
        old = b.nand(a, c)
        new = b.nand(a, d)
        out = b.and_(old, d)
        nl = b.build()
        assert rewire_consumers(nl, old, new) == 1
        assert nl.driver(out).inputs == (new, d)
        assert nl.fanouts(old) == ()

    def test_self_rewire_is_noop(self):
        b = NetlistBuilder("t")
        a, c = b.inputs("a", "c")
        n = b.nand(a, c)
        b.and_(n, c)
        nl = b.build()
        assert rewire_consumers(nl, n, n) == 0

    def test_multiple_occurrences_all_move(self):
        b = NetlistBuilder("t")
        a, c = b.inputs("a", "c")
        old = b.nand(a, c)
        nl = b.build()
        nl.add_gate("g", AND, [old, old], "out")
        rewire_consumers(nl, old, a)
        assert nl.gate("g").inputs == (a, a)

    def test_ff_inputs_rewire_too(self):
        b = NetlistBuilder("t")
        a, c = b.inputs("a", "c")
        old = b.nand(a, c)
        b.dff(old, output="r_reg_0")
        nl = b.build()
        rewire_consumers(nl, old, a)
        assert nl.flip_flops()[0].inputs == (a,)


class TestSweep:
    def test_chain_of_dead_gates(self):
        b = NetlistBuilder("t")
        a, c = b.inputs("a", "c")
        d1 = b.nand(a, c)
        d2 = b.inv(d1)
        d3 = b.inv(d2)  # whole chain dead
        live = b.and_(a, c)
        b.netlist.add_output(live)
        nl = b.build()
        assert sweep_dead_logic(nl) == 3
        assert nl.num_gates == 1

    def test_po_protects(self):
        b = NetlistBuilder("t")
        a, c = b.inputs("a", "c")
        n = b.nand(a, c)
        b.netlist.add_output(n)
        nl = b.build()
        assert sweep_dead_logic(nl) == 0


class TestValidate:
    def test_clean_netlist(self):
        b = NetlistBuilder("t")
        a, c = b.inputs("a", "c")
        b.output(b.nand(a, c), name="y")
        assert validate(b.build()).ok

    def test_undriven_input_detected(self):
        nl = Netlist("t")
        nl.add_input("a")
        nl.add_gate("g", NAND, ["a", "ghost"], "n")
        report = validate(nl)
        assert not report.ok
        assert any("ghost" in p for p in report.problems)

    def test_undriven_output_detected(self):
        nl = Netlist("t")
        nl.add_output("floating")
        assert not validate(nl).ok
        assert validate(nl, require_driven_outputs=False).ok

    def test_combinational_cycle_detected(self):
        nl = Netlist("t")
        nl.add_input("a")
        nl.add_gate("g1", NAND, ["a", "n2"], "n1")
        nl.add_gate("g2", NAND, ["n1", "a"], "n2")
        report = validate(nl)
        assert any("cycle" in p for p in report.problems)

    def test_raise_if_failed(self):
        nl = Netlist("t")
        nl.add_output("floating")
        with pytest.raises(NetlistError):
            validate(nl).raise_if_failed()

    def test_stats_row(self):
        b = NetlistBuilder("demo")
        a, c = b.inputs("a", "c")
        b.dff(b.nand(a, c), output="r_reg_0")
        s = stats(b.build())
        assert (s.num_gates, s.num_ffs) == (2, 1)
        assert "demo" in s.row()


class TestPublicApi:
    def test_top_level_imports(self):
        import repro

        assert repro.__version__
