"""Targeted tests for pipeline edge cases and guard rails."""

import pytest

from repro.core import (
    ControlAssignment,
    PipelineConfig,
    identify_words,
    shape_hashing,
)
from repro.core.control import ControlSignalCandidate
from repro.core.stages import _assignments
from repro.netlist import NetlistBuilder, Netlist


class TestAssignmentEnumeration:
    def cands(self, spec):
        return [ControlSignalCandidate(net, values) for net, values in spec]

    def test_singles_before_pairs(self):
        candidates = self.cands([("a", (0,)), ("b", (1,))])
        order = list(_assignments(candidates, 2))
        assert order == [{"a": 0}, {"b": 1}, {"a": 0, "b": 1}]

    def test_value_products_enumerated(self):
        candidates = self.cands([("a", (0, 1))])
        assert list(_assignments(candidates, 2)) == [{"a": 0}, {"a": 1}]

    def test_budget_caps_subset_size(self):
        candidates = self.cands([("a", (0,)), ("b", (0,)), ("c", (0,))])
        sizes = {len(a) for a in _assignments(candidates, 2)}
        assert sizes == {1, 2}
        sizes = {len(a) for a in _assignments(candidates, 3)}
        assert 3 in sizes

    def test_empty_candidates(self):
        assert list(_assignments([], 2)) == []


class TestGuardRails:
    def test_max_control_signals_caps_search(self):
        """A partial subgroup with many candidates only explores the cap."""
        b = NetlistBuilder("t")
        controls = [b.inv(b.input(f"c{i}")) for i in range(12)]
        # Bits share one subtree; the dissimilar subtrees contain many
        # common nets that all become candidates.
        sel = b.inv(b.input("sel"))
        bits = []
        for i in range(2):
            common = b.nand(sel, b.input(f"r{i}"))
            tangle = b.nand(*controls[:4], output=None)
            if i:
                diss = b.nand(tangle, b.nor(controls[4], b.input(f"x{i}")))
            else:
                diss = b.nand(tangle, b.nand(controls[4], b.input(f"x{i}")))
            bits.append(b.nand(common, diss))
        nl = b.build()
        config = PipelineConfig(max_control_signals=2)
        result = identify_words(nl, config)
        # Bounded work: the trace can't have tried more than the cap's
        # worth of assignments (2 singles x values + 1 pair x values).
        assert result.trace.num_assignments_tried <= 8

    def test_empty_netlist(self):
        nl = Netlist("empty")
        result = identify_words(nl)
        assert result.words == [] and result.singletons == []

    def test_purely_combinational_netlist(self):
        b = NetlistBuilder("comb")
        a, c = b.inputs("a", "c")
        n1 = b.nand(a, c)
        n2 = b.nand(c, a)
        b.netlist.add_output(n1)
        b.netlist.add_output(n2)
        result = identify_words(b.build())
        assert result.word_of(n1) is not None  # words need no registers

    def test_all_ff_netlist(self):
        """Registers chained directly: nothing combinational to group."""
        b = NetlistBuilder("t")
        net = b.input("a")
        for i in range(4):
            net = b.dff(net, output=f"s{i}_reg_0")
        result = identify_words(b.build())
        assert result.words == []

    def test_single_gate(self):
        b = NetlistBuilder("t")
        a, c = b.inputs("a", "c")
        b.output(b.nand(a, c), name="y")
        result = identify_words(b.build())
        assert result.words == []


class TestControlAssignmentBookkeeping:
    def test_infeasible_assignments_are_skipped_not_fatal(self):
        """A control signal tied to a constant yields an infeasible
        assignment; the pipeline must move on, not crash."""
        b = NetlistBuilder("t")
        one = b.const1()
        sel = b.inv(b.input("sel"))
        bits = []
        for i in range(2):
            common = b.nand(sel, b.input(f"r{i}"))
            # The "control" net is the constant-one: assigning 0 conflicts.
            if i:
                diss = b.nand(one, b.nor(b.input("e"), b.input(f"x{i}")))
            else:
                diss = b.nand(one, b.nand(b.input("e"), b.input(f"x{i}")))
            bits.append(b.nand(common, diss))
        nl = b.build()
        result = identify_words(nl)  # must not raise
        assert result.runtime_seconds >= 0
