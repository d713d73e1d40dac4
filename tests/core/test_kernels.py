"""The signature kernel: the bulk path against its per-net references.

The Section 2.3 step — per-bit fanin-cone hash keys and bit signatures —
has one implementation, :class:`~repro.core.context.AnalysisContext`.
The engine runs its bulk pass: :meth:`~AnalysisContext.precompute_keys`
fills interned per-level key tables, then
:meth:`~AnalysisContext.signatures` builds a whole group in one loop.
That pass must equal the per-net reference
(:meth:`AnalysisContext.signature` on the recursive key path) and the
paper transcription (:class:`~repro.core.hashkey.SignatureIndex`) key for
key, with the same cache counters.  This suite pins it three ways:

1. on all twelve ITC99 designs: bulk ≡ per-net ≡ ``SignatureIndex`` over
   every candidate group, and each design's ``result_digest`` equals its
   pinned value;
2. the cache-on ≡ cache-off determinism oracle;
3. Hypothesis properties on random sequential designs — duplicate fanins
   included, where one shared subtree fills two slots of a signature.

``TestKernelSwitch`` pins that the removed ``kernel``, ``jobs`` and
``cone_cache`` knobs stay removed.
"""

from __future__ import annotations

import os

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from repro.api import Session
from repro.core.context import AnalysisContext
from repro.core.grouping import group_by_adjacency
from repro.core.hashkey import SignatureIndex
from repro.core.pipeline import PipelineConfig, identify_words
from repro.netlist.builder import NetlistBuilder
from repro.store import ArtifactStore, result_digest
from repro.synth.designs import BENCHMARKS

settings.register_profile(
    "tier1", settings(derandomize=True, deadline=None, max_examples=30)
)
settings.register_profile(
    "nightly", settings(derandomize=True, deadline=None, max_examples=250)
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))

#: ``result_digest`` of the default configuration on each ITC99 design;
#: an intentional change to identification output must update them.
ITC99_DIGESTS = {
    "b03": "5db028c590dbe28a46a43cb9c74f38530d9dd2afad712d7c8f3632114ccd4eb8",
    "b04": "5bd8ba132da01e68c089cb6c11b4e90297ef42d6e44f9073c310f70cf2fcec83",
    "b05": "b7068916fb844574e51c68c63ee9da3feeca740ebc2e93ce54c1641c0a5bda76",
    "b07": "69cee0b360ac18482a3879c312c243e1de9887aa8a8b60e0abeb5d4a65316fe8",
    "b08": "8a5f88e7be162d6eb61c0620fd89e2a326950f5a991e31355630f655e8b692b3",
    "b11": "f1a3a2f014d1a342eb9e9ffbca248f3fc3d5f287f490a23dd9454f8c14042902",
    "b12": "cfac2727d361fcf21caa5f6e4fa813cca6707cc99c96eaae65c822f094cfe681",
    "b13": "a5de6080723a6ba859af58b75684ed33939ed27a57b4d090e3041ccb18f30cdb",
    "b14": "5f9c61c1cdfd68d2bb5a09c0f4d15b8862e6563dd6c7456c7a5ed28a393b3b13",
    "b15": "6b16e46ca459734e02ebbc9da7bfbaa5dd1c4e311b9c9aec805480559d236870",
    "b17": "7f9b687686a6b3b449736f56f8382769b08da71c31b071a1aa04d41035577ea4",
    "b18": "5b2cb3d9651bcf2f14c3c369ba61816d5a6ec221818706a57d32b1194f89dff3",
}


def _assert_same_signatures(bulk, reference) -> None:
    assert len(bulk) == len(reference)
    for ours, theirs in zip(bulk, reference):
        assert ours.net == theirs.net
        assert ours.root_type == theirs.root_type
        assert ours.sorted_keys == theirs.sorted_keys
        assert [s.root_net for s in ours.subtrees] == [
            s.root_net for s in theirs.subtrees
        ]
        assert [s.key for s in ours.subtrees] == [
            s.key for s in theirs.subtrees
        ]
        # One shared Subtree per child net, a net read twice included
        # (Subgroup.finalize consumes leftovers by position).
        assert len({id(s) for s in ours.subtrees}) == len(
            {s.root_net for s in ours.subtrees}
        )


def _check_bulk(netlist, groups, depth: int = 4) -> None:
    """Bulk signatures of ``groups`` ≡ per-net ≡ SignatureIndex, with the
    counters of a per-net pass over the same precomputed tables."""
    bulk_ctx = AnalysisContext(netlist, depth)
    bulk_ctx.precompute_keys()
    counted_ctx = AnalysisContext(netlist, depth)
    counted_ctx.precompute_keys()
    recursive_ctx = AnalysisContext(netlist, depth)
    index = SignatureIndex(netlist, depth)
    for group in groups:
        bulk = bulk_ctx.signatures(group)
        _assert_same_signatures(
            bulk, [counted_ctx.signature(net) for net in group]
        )
        _assert_same_signatures(
            bulk, [recursive_ctx.signature(net) for net in group]
        )
        _assert_same_signatures(bulk, [index.signature(net) for net in group])
    assert bulk_ctx.stats == counted_ctx.stats


class TestKernelSwitch:
    """There is nothing left to switch: the trace stamps a constant, and a
    kernel selection is refused rather than silently obeyed."""

    def test_trace_records_the_kernel(self):
        result = identify_words(BENCHMARKS["b03"](), PipelineConfig())
        assert result.trace.as_dict()["kernel"] == "python"
        # Provenance, not a result property: outside the digested counters.
        assert "kernel" not in result.trace.counter_dict()

    def test_unknown_kernel_rejected(self):
        """Retired knobs are refused, not silently obeyed: ``backend`` is
        the one strategy selector."""
        from repro.core.stages import AnalysisEngine

        netlist, config = BENCHMARKS["b03"](), PipelineConfig()
        with pytest.raises(TypeError):
            PipelineConfig(kernel="array")
        with pytest.raises(TypeError):
            PipelineConfig(jobs=2)
        with pytest.raises(TypeError):
            identify_words(netlist, config, cone_cache=[])
        with pytest.raises(TypeError):
            PipelineConfig(allow_partial=False)
        with pytest.raises(TypeError):
            Session(baseline=True)
        with pytest.raises(TypeError):
            identify_words(netlist, config, context=None)
        with pytest.raises(TypeError):
            AnalysisEngine(config, stages=())

    def test_trace_keeps_the_retired_cone_tier_keys_at_zero(self):
        result = identify_words(BENCHMARKS["b03"](), PipelineConfig())
        cache = result.trace.as_dict()["cache"]
        for key in (
            "cone_tier_process_hits", "cone_tier_store_hits",
            "cone_tier_misses",
        ):
            assert cache[key] == 0
        assert "jobs" not in result.trace.as_dict()


class TestDifferential:
    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_byte_identical_on_itc99(self, name):
        netlist = BENCHMARKS[name]()
        result = identify_words(netlist, PipelineConfig())
        assert result_digest(result) == ITC99_DIGESTS[name], (
            f"result digest of {name} moved"
        )
        _check_bulk(netlist, group_by_adjacency(netlist))

    def test_cache_parity(self, tmp_path):
        netlist = BENCHMARKS["b11"]()
        config = PipelineConfig()
        bare = identify_words(netlist, config)
        store = ArtifactStore(str(tmp_path / "store"))
        session = Session(config=config, store=store)
        cold = session.analyze(netlist).result
        warm = session.analyze(netlist).result
        assert warm.trace.cache_provenance.get("provenance") == "hit"
        digests = {
            result_digest(bare), result_digest(cold), result_digest(warm)
        }
        assert len(digests) == 1


# ----------------------------------------------------------------------
# properties on random designs
# ----------------------------------------------------------------------

_CELLS = ("inv", "and_", "nand", "or_", "nor", "xor")


@st.composite
def random_designs(draw):
    """Small random sequential netlists: ``(netlist, nets)``.

    Gates draw fanins with replacement, so the same net can feed one gate
    twice — the case where one shared subtree fills two slots of a
    signature.  A sprinkle of flip-flops exercises the cone boundary.
    """
    b = NetlistBuilder("prop")
    nets = list(b.inputs("pa", "pb", "pc", "pd"))
    num_gates = draw(st.integers(min_value=3, max_value=14))
    for _ in range(num_gates):
        kind = draw(st.sampled_from(_CELLS + ("dff", "dff")))
        if kind == "dff":
            nets.append(b.dff(draw(st.sampled_from(nets))))
        elif kind == "inv":
            nets.append(b.inv(draw(st.sampled_from(nets))))
        else:
            width = draw(st.integers(min_value=2, max_value=3))
            fanin = [draw(st.sampled_from(nets)) for _ in range(width)]
            nets.append(getattr(b, kind)(*fanin))
    netlist = b.netlist
    for net in nets[4:]:
        if not netlist.fanouts(net):
            netlist.add_output(net)
    return netlist, nets


class TestProperties:
    @given(random_designs(), st.integers(min_value=1, max_value=5))
    def test_bulk_signatures_match_per_net_signatures(self, design, depth):
        netlist, nets = design
        # D-pin nets (repeats when two registers share one), then every
        # net: leaves, primary inputs and register outputs included.
        groups = [netlist.register_input_nets(), nets]
        _check_bulk(netlist, groups, depth)

    @given(random_designs())
    def test_level_tables_match_recursive_keys(self, design):
        netlist, _ = design
        depth = 4
        ctx = AnalysisContext(netlist, depth)
        ctx.precompute_keys()
        index = SignatureIndex(netlist, depth)
        boundary = netlist.cone_leaf_nets()
        eligible = {
            net
            for net, gate in netlist.drivers()
            if not gate.is_ff and net not in boundary
        }
        for level in range(1, depth):
            table = ctx._level_keys[level]
            assert set(table) == eligible
            for net, key in table.items():
                assert key == index.key(net, level)
            # One string object per shape: equal keys are identical.
            assert len({id(key) for key in table.values()}) == len(
                set(table.values())
            )
