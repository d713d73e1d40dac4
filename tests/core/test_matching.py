"""Tests for grouping (Section 2.2) and partial matching (Section 2.3)."""

import pytest

from repro.core import (
    AnalysisContext,
    MatchKind,
    PipelineConfig,
    compare_bits,
    form_subgroups,
    group_by_adjacency,
    group_register_inputs,
    identify_words,
    root_type_of,
    signature_of,
)
from repro.core.hashkey import BitSignature
from repro.core.matching import _merge_compare, full_match_runs
from repro.netlist import NetlistBuilder


class TestMergeCompare:
    def test_identical_lists_fully_match(self):
        matched, a, b = _merge_compare(["k1", "k2"], ["k1", "k2"])
        assert matched == ["k1", "k2"]
        assert a == [] and b == []

    def test_disjoint_lists(self):
        matched, a, b = _merge_compare(["a"], ["b"])
        assert matched == []
        assert a == ["a"] and b == ["b"]

    def test_duplicates_pair_one_to_one(self):
        matched, a, b = _merge_compare(["k", "k", "k"], ["k"])
        assert matched == ["k"]
        assert a == ["k", "k"] and b == []

    def test_interleaved(self):
        matched, a, b = _merge_compare(["a", "c", "e"], ["b", "c", "d"])
        assert matched == ["c"]
        assert a == ["a", "e"] and b == ["b", "d"]


def build_group(n_full=2, n_partial=1, n_other=1):
    """Bits with shared subtree X plus per-class second subtrees."""
    b = NetlistBuilder("t")
    sel = b.input("sel")
    nsel = b.inv(sel)
    bits = []
    for i in range(n_full):
        r = b.input(f"rf{i}")
        shared = b.nand(nsel, r)           # key X
        extra = b.nand(sel, b.input(f"xf{i}"))  # key Y
        bits.append(b.nand(shared, extra))
    for i in range(n_partial):
        r = b.input(f"rp{i}")
        shared = b.nand(nsel, r)           # key X again
        extra = b.nor(sel, b.input(f"xp{i}"))   # key Z (differs)
        bits.append(b.nand(shared, extra))
    for i in range(n_other):
        r = b.input(f"ro{i}")
        bits.append(b.nor(b.inv(r), b.input(f"xo{i}")))  # NOR root
    return b.build(), bits


class TestCompareBits:
    def test_full_match(self):
        nl, bits = build_group(n_full=2, n_partial=0, n_other=0)
        s0, s1 = (signature_of(nl, n) for n in bits)
        assert compare_bits(s0, s1).kind == MatchKind.FULL

    def test_partial_match(self):
        nl, bits = build_group(n_full=1, n_partial=1, n_other=0)
        s0, s1 = (signature_of(nl, n) for n in bits)
        outcome = compare_bits(s0, s1)
        assert outcome.kind == MatchKind.PARTIAL
        assert len(outcome.matched_keys) == 1
        assert len(outcome.unmatched_a) == 1
        assert len(outcome.unmatched_b) == 1

    def test_root_type_mismatch_is_none(self):
        nl, bits = build_group(n_full=1, n_partial=0, n_other=1)
        s0, s1 = (signature_of(nl, n) for n in bits)
        assert compare_bits(s0, s1).kind == MatchKind.NONE

    def test_leaf_only_overlap_not_partial(self):
        """Sharing only anonymous leaves must not count as partial."""
        b = NetlistBuilder("t")
        x1 = b.nand(b.input("a"), b.nand(b.input("c"), b.input("d")))
        x2 = b.nand(b.input("e"), b.nor(b.input("f"), b.input("g")))
        nl = b.build()
        s1, s2 = signature_of(nl, x1), signature_of(nl, x2)
        # Both have one "$" subtree; the structured subtrees differ.
        assert compare_bits(s1, s2).kind == MatchKind.NONE

    def test_leaf_bits_never_match(self):
        b = NetlistBuilder("t")
        a, c = b.inputs("a", "c")
        n = b.nand(a, c)
        nl = b.build()
        assert compare_bits(
            signature_of(nl, a), signature_of(nl, n)
        ).kind == MatchKind.NONE


class TestFormSubgroups:
    def test_full_chain_single_subgroup(self):
        nl, bits = build_group(n_full=3, n_partial=0, n_other=0)
        sigs = [signature_of(nl, n) for n in bits]
        groups = form_subgroups(sigs)
        assert len(groups) == 1
        assert groups[0].fully_matched

    def test_partial_chain_records_dissimilar_subtrees(self):
        nl, bits = build_group(n_full=2, n_partial=1, n_other=0)
        sigs = [signature_of(nl, n) for n in bits]
        groups = form_subgroups(sigs)
        assert len(groups) == 1
        sg = groups[0]
        assert sg.partially_matched and not sg.fully_matched
        # Every bit has exactly one subtree outside the common multiset.
        assert all(len(v) == 1 for v in sg.dissimilar.values())

    def test_partial_disabled_for_baseline(self):
        nl, bits = build_group(n_full=2, n_partial=1, n_other=0)
        sigs = [signature_of(nl, n) for n in bits]
        groups = form_subgroups(sigs, allow_partial=False)
        assert [len(g.bits) for g in groups] == [2, 1]

    def test_input_free_gates_never_chain(self):
        """Bits driven by a constant cell (a TIE a reduction leaves) have
        an empty key multiset and chain neither in ``form_subgroups`` nor
        in the re-check, which states the full-match rule inline."""
        tied = [BitSignature(net, "TIE00", (), ()) for net in ("t0", "t1")]
        groups = form_subgroups(tied, allow_partial=False)
        assert [len(g.bits) for g in groups] == [1, 1]
        assert [len(run) for run in full_match_runs(tied)] == [1, 1]

    def test_chain_breaks_on_no_match(self):
        nl, bits = build_group(n_full=2, n_partial=0, n_other=2)
        sigs = [signature_of(nl, n) for n in bits]
        groups = form_subgroups(sigs)
        assert [len(g.bits) for g in groups] == [2, 2]
        # The NOR-rooted pair fully matches itself.
        assert groups[1].fully_matched

    def test_duplicate_fanin_leftovers_are_consumed_by_position(self):
        """A gate reading one net twice holds the same shared
        :class:`Subtree` twice; both copies are dissimilar roots."""
        b = NetlistBuilder("dup")
        a, c, d, e, f, g = b.inputs("a", "c", "d", "e", "f", "g")
        p = b.or_(c, d)
        bits = [
            b.nand(b.inv(a), p, p),
            b.nand(b.inv(g), b.and_(e, f), b.and_(f, e)),
        ]
        nl = b.build()
        context = AnalysisContext(nl)
        context.precompute_keys()
        sigs = context.signatures(bits)
        assert sigs[0].subtrees[1] is sigs[0].subtrees[2]
        subgroup = form_subgroups(sigs)[0]
        assert subgroup.bits == bits
        assert subgroup.dissimilar[bits[0]] == [p, p]
        reference = form_subgroups([signature_of(nl, n) for n in bits])[0]
        assert reference.dissimilar == subgroup.dissimilar

    def test_comparison_is_adjacent_only(self):
        """A bit joins only its predecessor's subgroup (paper Section 2.3)."""
        nl, bits = build_group(n_full=1, n_partial=0, n_other=1)
        # order: full, other, full -> the two 'full' bits cannot group.
        sigs = [signature_of(nl, n) for n in bits]
        extra_nl, extra_bits = build_group(n_full=1, n_partial=0, n_other=0)
        sigs = [sigs[0], sigs[1], sigs[0]]
        groups = form_subgroups(sigs)
        assert [len(g.bits) for g in groups] == [1, 1, 1]


class TestStage1Grouping:
    def test_adjacent_same_root_type_groups(self):
        b = NetlistBuilder("t")
        ins = b.inputs(*[f"i{k}" for k in range(8)])
        n1 = b.nand(ins[0], ins[1])
        n2 = b.nand(ins[2], ins[3])
        n3 = b.nor(ins[4], ins[5])
        n4 = b.nor(ins[6], ins[7])
        nl = b.build()
        assert group_by_adjacency(nl) == [[n1, n2], [n3, n4]]

    def test_arity_distinguishes_types(self):
        b = NetlistBuilder("t")
        ins = b.inputs(*[f"i{k}" for k in range(5)])
        n1 = b.nand(ins[0], ins[1])
        n2 = b.nand(ins[2], ins[3], ins[4])
        nl = b.build()
        assert group_by_adjacency(nl) == []  # two singletons dropped

    def test_ffs_break_runs(self):
        b = NetlistBuilder("t")
        a, c = b.inputs("a", "c")
        n1 = b.nand(a, c)
        b.dff(n1, output="r_reg_0")
        n2 = b.nand(n1, "r_reg_0")
        nl = b.build()
        assert group_by_adjacency(nl) == []

    def test_root_type_of(self):
        b = NetlistBuilder("t")
        a, c, d = b.inputs("a", "c", "d")
        n = b.nand(a, c, d)
        nl = b.build()
        assert root_type_of(nl.driver(n)) == "NAND3"

    def test_register_grouping_variant(self):
        b = NetlistBuilder("t")
        a, c = b.inputs("a", "c")
        d_nets = [b.nand(a, c), b.nand(c, a), b.nor(a, c)]
        for i, d in enumerate(d_nets):
            b.dff(d, output=f"w_reg_{i}")
        nl = b.build()
        groups = group_register_inputs(nl)
        assert groups == [[d_nets[0], d_nets[1]]]

    def test_register_grouping_lists_a_shared_d_net_once(self):
        """Regression: two flip-flops on one D net made the grouping list
        the net twice, and emission refused the word ``(x, x)``.  A twin
        register neither joins the run nor breaks it."""
        b = NetlistBuilder("t")
        a, c = b.inputs("a", "c")
        x = b.and_(a, c)
        b.dff(x, output="r_reg_0")
        b.dff(x, output="r_reg_1")
        y = b.and_(c, a)
        b.dff(y, output="r_reg_2")
        nl = b.build()
        assert group_register_inputs(nl) == [[x, y]]
        result = identify_words(nl, PipelineConfig(grouping="registers"))
        assert [word.bits for word in result.words] == [(x, y)]
