"""Tests for relevant control-signal identification (Section 2.4)."""

import sys

import pytest

sys.path.insert(0, "tests")

from fixtures import figure1_netlist

from repro.core import (
    AnalysisContext,
    find_control_signals,
    form_subgroups,
    signature_of,
)
from repro.netlist import NetlistBuilder


def figure1_subgroup():
    nl, bits = figure1_netlist()
    sigs = [signature_of(nl, b) for b in bits]
    groups = form_subgroups(sigs)
    assert len(groups) == 1
    return nl, groups[0]


def controls(nl, subgroup):
    """Control signals of a subgroup built by ``signature_of`` (default
    depth), read through a fresh context over the same netlist."""
    return find_control_signals(subgroup, AnalysisContext(nl))


class TestFigure1:
    def test_exactly_u201_and_u221_found(self):
        """The paper's walkthrough: common nets minus dominated ones."""
        nl, subgroup = figure1_subgroup()
        candidates = controls(nl, subgroup)
        assert [c.net for c in candidates] == ["U201", "U221"]

    def test_u223_dominated_by_u201(self):
        """U223 is common to all dissimilar subtrees but feeds U201."""
        nl, subgroup = figure1_subgroup()
        nets = {c.net for c in controls(nl, subgroup)}
        assert "U223" not in nets

    def test_values_are_controlling_values(self):
        nl, subgroup = figure1_subgroup()
        by_net = {c.net: c.values for c in controls(nl, subgroup)}
        assert by_net["U201"] == (0,)  # feeds NANDs only
        assert by_net["U221"] == (0, 1)  # feeds a NAND and a NOR

    def test_similar_subtree_controls_excluded(self):
        """U202/U255 select within *matching* subtrees: never candidates."""
        nl, subgroup = figure1_subgroup()
        nets = {c.net for c in controls(nl, subgroup)}
        assert "U202" not in nets and "U255" not in nets


class TestEdgeCases:
    def test_fully_matched_subgroup_has_no_candidates(self):
        b = NetlistBuilder("t")
        sel = b.input("sel")
        nsel = b.inv(sel)
        bits = []
        for i in range(3):
            r = b.input(f"r{i}")
            x = b.input(f"x{i}")
            bits.append(b.nand(b.nand(nsel, r), b.nand(sel, x)))
        nl = b.build()
        groups = form_subgroups([signature_of(nl, n) for n in bits])
        assert groups[0].fully_matched
        assert controls(nl, groups[0]) == []

    def test_no_common_nets_yields_nothing(self):
        """Dissimilar subtrees with disjoint logic (adder-carry style)."""
        b = NetlistBuilder("t")
        shared_in = b.input("s")
        ns = b.inv(shared_in)
        bits = []
        for i in range(2):
            r = b.input(f"r{i}")
            common = b.nand(ns, r)
            if i == 0:
                diss = b.nand(b.input("a0"), b.input("a1"))
            else:
                diss = b.nand(b.input("a2"), b.nor(b.input("a3"), b.input("a4")))
            bits.append(b.nand(common, diss))
        nl = b.build()
        groups = form_subgroups([signature_of(nl, n) for n in bits])
        assert groups[0].partially_matched
        assert controls(nl, groups[0]) == []

    def test_xor_only_feeds_are_dropped(self):
        """A common net feeding only parity gates has no controlling value."""
        b = NetlistBuilder("t")
        c = b.input("c")
        e = b.input("e")
        ns = b.inv(b.input("s"))
        bits = []
        for i in range(2):
            r = b.input(f"r{i}")
            common = b.nand(ns, r)
            if i == 0:
                diss = b.xor(e, b.input("d0"))
            else:
                diss = b.xor(e, b.xnor(c, b.input("d1")))
            bits.append(b.nand(common, diss))
        nl = b.build()
        groups = form_subgroups([signature_of(nl, n) for n in bits])
        candidates = controls(nl, groups[0])
        assert all(cand.net != e for cand in candidates)

    def test_discovery_order_is_deterministic(self):
        nl, subgroup = figure1_subgroup()
        first = [c.net for c in controls(nl, subgroup)]
        second = [c.net for c in controls(nl, subgroup)]
        assert first == second
