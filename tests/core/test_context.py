"""AnalysisContext: cache identity, reference-implementation equivalence.

The context is pure bookkeeping — it must produce exactly what the
reference implementations in :mod:`repro.core.hashkey` and
:mod:`repro.netlist.cone` produce, only faster.  Every test here pins one
of those equivalences, one of the identity-sharing guarantees the other
stages rely on, or that a run builds one context.
"""

import sys

import pytest

sys.path.insert(0, "tests")
from fixtures import figure1_netlist

from repro.core import stages
from repro.core.context import AnalysisContext
from repro.core.hashkey import (
    LEAF_TOKEN,
    SignatureIndex,
    hash_key,
    signature_of,
)
from repro.core.pipeline import PipelineConfig, identify_words
from repro.core.reduction import reduce_netlist
from repro.netlist import NetlistBuilder
from repro.netlist.cone import cone_nets as walk_cone_nets
from repro.netlist.cone import extract_cone
from repro.synth.designs import BENCHMARKS


@pytest.fixture(scope="module")
def b03():
    return BENCHMARKS["b03"]()


@pytest.fixture(scope="module")
def fig1():
    netlist, _word_bits = figure1_netlist()
    return netlist


def candidate_bits(netlist):
    return netlist.register_input_nets()


class TestConeCache:
    def test_cone_matches_extract_cone(self, fig1):
        context = AnalysisContext(fig1)
        for bit in candidate_bits(fig1):
            fresh = extract_cone(fig1, bit, context.depth)
            assert context.cone(bit).net == fresh.net
            assert hash_key(context.cone(bit)) == hash_key(fresh)

    def test_repeated_cone_is_same_object(self, fig1):
        context = AnalysisContext(fig1)
        bit = candidate_bits(fig1)[0]
        assert context.cone(bit) is context.cone(bit)

    def test_shared_subtrees_are_shared_objects(self, b03):
        context = AnalysisContext(b03)
        nodes = {}
        duplicates = 0
        for bit in candidate_bits(b03):
            for node in context.cone(bit).walk():
                if node.net in nodes and nodes[node.net] is node:
                    duplicates += 1
                nodes[node.net] = node
        # DAG sharing: at least some node reached from two cones is the
        # same object (b03's bits share fanin logic).
        assert duplicates > 0

    def test_cone_hit_counters_move(self, fig1):
        context = AnalysisContext(fig1)
        bit = candidate_bits(fig1)[0]
        context.cone(bit)
        misses = context.stats.cone_misses
        context.cone(bit)
        assert context.stats.cone_hits == 1
        assert context.stats.cone_misses == misses


class TestKeyEquivalence:
    def test_key_matches_signature_index(self, b03):
        context = AnalysisContext(b03)
        index = SignatureIndex(b03)
        for bit in candidate_bits(b03):
            for levels in range(0, context.depth):
                assert context.key(bit, levels) == index.key(bit, levels)

    def test_precompute_matches_recursive(self, b03):
        """The bulk key tables equal the recursive ``SignatureIndex``."""
        index = SignatureIndex(b03)
        bulk = AnalysisContext(b03)
        assert bulk.precompute_keys()
        for net, _gate in b03.drivers():
            for levels in range(1, bulk.depth):
                assert bulk.key(net, levels) == index.key(net, levels)

    def test_key_reads_only_the_levels_below_the_depth(self, fig1):
        context = AnalysisContext(fig1)
        net = candidate_bits(fig1)[0]
        assert context.key(net, 0) == LEAF_TOKEN
        for levels in (-1, context.depth):
            with pytest.raises(ValueError):
                context.key(net, levels)

    def test_precompute_is_idempotent(self, fig1):
        context = AnalysisContext(fig1)
        context.precompute_keys()
        misses = context.stats.key_misses
        context.precompute_keys()
        assert context.stats.key_misses == misses

    def test_node_hash_key_matches_module_hash_key(self, fig1):
        """Every node of a DAG-shared cone hashes to the ``(net, levels)``
        key for the levels left below it: the context's below the bit
        depth, ``SignatureIndex``'s at the root."""
        context = AnalysisContext(fig1)
        index = SignatureIndex(fig1)
        for bit in candidate_bits(fig1):
            assert hash_key(context.cone(bit)) == index.key(bit, context.depth)
            stack = [
                (child, context.depth - 1)
                for child in context.cone(bit).children
            ]
            while stack:
                node, levels = stack.pop()
                assert hash_key(node) == context.key(node.net, levels)
                stack.extend((child, levels - 1) for child in node.children)


class TestSignatureEquivalence:
    def test_signature_matches_reference(self, b03):
        context = AnalysisContext(b03)
        for bit in candidate_bits(b03):
            expected = signature_of(b03, bit)
            got = context.signature(bit)
            assert got.net == expected.net
            assert got.root_type == expected.root_type
            assert got.sorted_keys == expected.sorted_keys
            assert [s.root_net for s in got.subtrees] == [
                s.root_net for s in expected.subtrees
            ]
            assert [s.key for s in got.subtrees] == [
                s.key for s in expected.subtrees
            ]

    def test_signature_matches_reference_after_precompute(self, b03):
        context = AnalysisContext(b03)
        context.precompute_keys()
        for bit in candidate_bits(b03):
            expected = signature_of(b03, bit)
            got = context.signature(bit)
            assert got.root_type == expected.root_type
            assert got.sorted_keys == expected.sorted_keys

    def test_signature_subtree_cones_resolve(self, fig1):
        context = AnalysisContext(fig1)
        for bit in candidate_bits(fig1):
            for subtree in context.signature(bit).subtrees:
                cone = context.cone(subtree.root_net, context.depth - 1)
                assert cone.net == subtree.root_net
                assert hash_key(cone) == subtree.key

    def test_bulk_signatures_share_one_subtree_per_child_net(self):
        """``signatures()`` hands every gate reading a net the same
        :class:`Subtree` for it, a gate reading it twice included, and
        equals the per-net path field for field."""
        builder = NetlistBuilder("dup")
        builder.inputs("a", "b", "c")
        builder.or_("a", "b", output="p")
        builder.nand("p", "p", output="d0")
        builder.nand("p", "c", output="d1")
        builder.dff("d0", output="r0")
        builder.dff("d1", output="r1")
        netlist = builder.build()
        bulk = AnalysisContext(netlist)
        bulk.precompute_keys()
        d0, d1 = bulk.signatures(["d0", "d1"])
        assert d0.subtrees[0] is d0.subtrees[1] is d1.subtrees[0]
        per_net = AnalysisContext(netlist)
        for got in (d0, d1):
            assert got == per_net.signature(got.net)


class TestConeNets:
    def test_matches_cone_walk(self, b03):
        context = AnalysisContext(b03)
        levels = context.depth - 1
        for bit in candidate_bits(b03):
            driver = b03.driver(bit)
            if driver is None or driver.is_ff:
                continue
            for child in driver.inputs:
                expected = walk_cone_nets(context.cone(child, levels))
                assert context.cone_nets(child, levels) == expected

    def test_leaf_is_singleton(self, fig1):
        context = AnalysisContext(fig1)
        pi = fig1.primary_inputs[0]
        assert context.cone_nets(pi, 3) == frozenset((pi,))


class TestOneContextPerRun:
    def test_parent_is_refused(self, fig1):
        with pytest.raises(TypeError):
            AnalysisContext(fig1, parent=AnalysisContext(fig1))

    @pytest.mark.parametrize("name", ["b03", "b05"])
    def test_a_run_with_reduction_searches_builds_one_context(
        self, name, monkeypatch
    ):
        built = []

        class Counted(AnalysisContext):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(stages, "AnalysisContext", Counted)
        result = identify_words(BENCHMARKS[name](), PipelineConfig())
        assert result.trace.num_subcircuits_extracted > 0
        assert len(built) == 1
        assert result.trace.cache.key_shared_hits == 0


class TestSignaturesAfterReduction:
    def _netlist_with_control(self):
        # Two bits that differ only through a gate controlled by net "sel".
        builder = NetlistBuilder("ctrl")
        builder.inputs("a0", "a1", "b0", "b1", "sel")
        builder.and_("a0", "b0", output="p0")
        builder.and_("a1", "b1", output="p1")
        builder.or_("p0", "sel", output="q0")
        builder.xor("q0", "b0", output="d0")
        builder.xor("p1", "b1", output="d1")
        builder.dff("d0", output="r0")
        builder.dff("d1", output="r1")
        return builder.build()

    def test_matches_fresh_index_on_reduced(self):
        netlist = self._netlist_with_control()
        context = AnalysisContext(netlist)
        bits = candidate_bits(netlist)
        for bit in bits:  # warm the unreduced caches
            context.signature(bit)
        reduced = reduce_netlist(netlist, {"sel": 0})
        got = context.signatures_after_reduction(
            reduced.netlist, reduced.values, bits
        )
        fresh = SignatureIndex(reduced.netlist, context.depth)
        for sig, bit in zip(got, bits):
            expected = fresh.signature(bit)
            assert sig.net == expected.net
            assert sig.root_type == expected.root_type
            assert sig.sorted_keys == expected.sorted_keys

    def test_untouched_bits_reuse_unreduced_signatures(self):
        netlist = self._netlist_with_control()
        context = AnalysisContext(netlist)
        bits = candidate_bits(netlist)
        originals = {bit: context.signature(bit) for bit in bits}
        reduced = reduce_netlist(netlist, {"sel": 0})
        got = context.signatures_after_reduction(
            reduced.netlist, reduced.values, bits
        )
        # d1's cone never sees "sel": its signature object is reused.
        by_net = {sig.net: sig for sig in got}
        assert by_net["d1"] is originals["d1"]
        assert context.stats.reduced_keys_reused > 0

    def test_depth_validation(self, fig1):
        with pytest.raises(ValueError):
            AnalysisContext(fig1, depth=0)
