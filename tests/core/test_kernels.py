"""The signature kernel: the engine's shape path and the bulk signature
path against their per-net references.

The Section 2.3 step — per-bit fanin-cone hash keys, bit shapes and bit
signatures — has one implementation,
:class:`~repro.core.context.AnalysisContext`.  The engine runs its bulk
pass: :meth:`~AnalysisContext.precompute_keys` fills per-level key
tables, formatting each key once per distinct shape;
:meth:`~AnalysisContext.shapes` gives every candidate bit its interned
shape, which is all matching compares; and
:meth:`~AnalysisContext.signatures` builds bit signatures for the bits
of partially matched subgroups only, the subgroups control and
reduction read.  The key tables are the context's only key source, so
the references are outside it: the bulk signatures must equal the
per-net ones (:meth:`AnalysisContext.signature`, with the same cache
counters) and the paper transcription
(:class:`~repro.core.hashkey.SignatureIndex`) key for key, and the
engine's subgroups must equal :func:`~repro.core.matching.form_subgroups`
over ``SignatureIndex`` signatures.  This suite pins it five ways:

1. on all twelve ITC99 designs: bulk ≡ per-net ≡ ``SignatureIndex`` over
   every candidate group, and each design's ``result_digest`` equals its
   pinned value;
2. the cache-on ≡ cache-off determinism oracle;
3. Hypothesis properties on random sequential designs — duplicate fanins
   included, where one shared subtree fills two slots of a signature;
4. a Hypothesis differential of the engine's subgroups (bits, kind,
   dissimilar subtrees, task index) against ``form_subgroups``, over
   depths 1–5, both groupings and both staged backends, with registers
   that share a D net, and of the reduction search's inline re-check
   ``full_match_runs`` against ``form_subgroups(..., allow_partial=False)``;
5. counts on b18 (signatures only for the bits of partially matched
   subgroups, none for Base) and the task indices a ``fault_hook`` sees.

``TestKernelSwitch`` pins that the removed ``kernel``, ``jobs``,
``cone_cache`` and ``max_control_signals`` knobs stay removed.
"""

from __future__ import annotations

import os

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from repro.api import Session
from repro.core import stages
from repro.core.context import AnalysisContext
from repro.core.grouping import group_by_adjacency
from repro.core.hashkey import SignatureIndex
from repro.core.matching import form_subgroups, full_match_runs
from repro.core.pipeline import PipelineConfig, identify_words
from repro.core.words import IdentificationResult
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
    index = SignatureIndex(netlist, depth)
    for group in groups:
        bulk = bulk_ctx.signatures(group)
        _assert_same_signatures(
            bulk, [counted_ctx.signature(net) for net in group]
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
            PipelineConfig(max_control_signals=8)
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
    def test_byte_identical_on_itc99(self, name, itc99):
        netlist = itc99(name)
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


# ----------------------------------------------------------------------
# the engine's shape path against form_subgroups
# ----------------------------------------------------------------------

@st.composite
def word_like_designs(draw):
    """Random sequential netlists built in runs of one gate kind, so that
    both groupings find groups with full, partial and broken chains.

    Fanins are drawn with replacement (duplicate fanins).  A run may be
    registered bit by bit, which ``grouping="registers"`` groups, and a
    register may get a twin on the same D net, which that grouping then
    lists twice in one group.
    """
    b = NetlistBuilder("shapes")
    nets = list(b.inputs("pa", "pb", "pc", "pd"))
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        kind = draw(st.sampled_from(_CELLS + ("dff",)))
        if kind == "dff":
            nets.append(b.dff(draw(st.sampled_from(nets))))
            continue
        width = draw(st.integers(min_value=2, max_value=3))
        run = []
        for _ in range(draw(st.integers(min_value=1, max_value=5))):
            if kind == "inv":
                run.append(b.inv(draw(st.sampled_from(nets))))
            else:
                fanin = [draw(st.sampled_from(nets)) for _ in range(width)]
                run.append(getattr(b, kind)(*fanin))
        nets.extend(run)
        if draw(st.booleans()):
            for d in run:
                nets.append(b.dff(d))
                if draw(st.booleans()):
                    nets.append(b.dff(d))
    netlist = b.netlist
    for net in nets[4:]:
        if not netlist.fanouts(net):
            netlist.add_output(net)
    return netlist


def _engine_subgroups(netlist, config):
    """The engine's subgroups after matching, as ``(bits, kind,
    dissimilar, task index)``, and the artifacts they came from."""
    context = AnalysisContext(netlist, config.depth)
    art = stages.StageArtifacts(
        netlist=netlist, config=config, context=context,
        result=IdentificationResult(),
    )
    for stage in (
        stages.GroupingStage(), stages.SignatureStage(),
        stages.MatchingStage(),
    ):
        stage.run(art)
    found = []
    for index, run in enumerate(art.runs):
        if isinstance(run, str):
            found.append(([run], "singleton", {run: []}, index))
        elif isinstance(run, tuple):
            found.append((list(run), "full", dict.fromkeys(run, []), index))
        else:
            subgroup = run.subgroup
            found.append(
                (subgroup.bits, "partial", subgroup.dissimilar, run.index)
            )
    return found, art


def _reference_subgroups(netlist, config, groups):
    """``form_subgroups`` over ``SignatureIndex`` signatures, classified
    as the engine's tasks were before shapes."""
    index = SignatureIndex(netlist, config.depth)
    found = []
    for group in groups:
        for subgroup in form_subgroups(
            [index.signature(net) for net in group], config.allow_partial
        ):
            if len(subgroup.signatures) == 1:
                kind = "singleton"
            elif subgroup.fully_matched:
                kind = "full"
            else:
                kind = "partial"
            found.append(
                (subgroup.bits, kind, subgroup.dissimilar, len(found))
            )
    return found


class TestShapePath:
    @pytest.mark.parametrize("backend", ["ours", "base"])
    @pytest.mark.parametrize("grouping", ["adjacency", "registers"])
    @given(
        netlist=word_like_designs(),
        depth=st.integers(min_value=1, max_value=5),
    )
    def test_engine_subgroups_equal_form_subgroups(
        self, netlist, depth, grouping, backend
    ):
        config = PipelineConfig(
            depth=depth, grouping=grouping, backend=backend
        )
        found, art = _engine_subgroups(netlist, config)
        assert found == _reference_subgroups(netlist, config, art.groups)
        assert art.trace.num_subgroups == len(found)
        assert art.tasks == [
            run for run in art.runs if isinstance(run, stages.SubgroupTask)
        ]
        stats = art.context.stats
        # Signatures only for the bits of partially matched subgroups
        # (a net listed twice is a memo hit), none at all for Base.
        assert stats.signature_hits + stats.signature_misses == sum(
            len(task.subgroup.signatures) for task in art.tasks
        )
        if backend == "base":
            assert not art.tasks and stats.signature_misses == 0

    @pytest.mark.parametrize("backend", ["ours", "base"])
    @given(
        netlist=word_like_designs(),
        depth=st.integers(min_value=1, max_value=5),
    )
    def test_register_grouping_lists_each_net_once(
        self, netlist, depth, backend
    ):
        """Twin registers share a D net; the words and singletons of
        ``grouping="registers"`` still name each net at most once."""
        result = identify_words(netlist, PipelineConfig(
            depth=depth, grouping="registers", backend=backend
        ))
        nets = [net for word in result.words for net in word.bits]
        nets += result.singletons
        assert len(nets) == len(set(nets))

    @given(word_like_designs(), st.integers(min_value=1, max_value=5))
    def test_full_match_runs_equal_form_subgroups(self, netlist, depth):
        """The reduction search's re-check states the full-match case of
        the chain rule inline; it must split as ``form_subgroups`` does."""
        context = AnalysisContext(netlist, depth)
        for group in group_by_adjacency(netlist) + [
            netlist.register_input_nets()
        ]:
            signatures = context.signatures(group)
            assert full_match_runs(signatures) == [
                subgroup.signatures
                for subgroup in form_subgroups(signatures, allow_partial=False)
            ]

    @given(word_like_designs())
    def test_bits_of_one_shape_share_one_record(self, netlist):
        context = AnalysisContext(netlist, 4)
        context.precompute_keys()
        nets = [net for net, _ in netlist.drivers()]
        index = SignatureIndex(netlist, 4)
        signatures = [index.signature(net) for net in nets]
        by_value = {}
        for shape, sig in zip(context.shapes(nets), signatures):
            assert shape.root_type == sig.root_type
            assert shape.sorted_keys == sig.sorted_keys
            assert by_value.setdefault(
                (shape.root_type, shape.sorted_keys), shape
            ) is shape
        assert context.stats.signature_misses == 0


class TestShapeCounts:
    @pytest.fixture
    def built(self, monkeypatch):
        """Counts of the Subgroups and SubgroupTasks the engine builds."""
        counts = {"Subgroup": 0, "SubgroupTask": 0}

        def counting(cls):
            class Counted(cls):
                def __init__(self, *args, **kwargs):
                    counts[cls.__name__] += 1
                    super().__init__(*args, **kwargs)

            return Counted

        monkeypatch.setattr(stages, "Subgroup", counting(stages.Subgroup))
        monkeypatch.setattr(
            stages, "SubgroupTask", counting(stages.SubgroupTask)
        )
        return counts

    @pytest.mark.parametrize(
        "backend, signatures, subgroups",
        [("ours", 13914, 484), ("base", 0, 0)],
    )
    def test_b18_signs_only_partial_subgroups(
        self, itc99, built, backend, signatures, subgroups
    ):
        result = identify_words(itc99("b18"), PipelineConfig(backend=backend))
        trace = result.trace
        assert trace.num_partially_matched_subgroups == subgroups
        # The 22,244 single-bit and 276 one-shape subgroups of Ours build
        # no Subgroup, no SubgroupTask and no bit signature.
        assert built == {"Subgroup": subgroups, "SubgroupTask": subgroups}
        assert trace.cache.signature_misses == signatures
        assert trace.cache.signature_hits == 0
        assert trace.cache.key_misses == 177432

    @pytest.mark.parametrize("name, indices", [
        ("b03", [49, 51, 52]),
        ("b12", [246, 250, 254, 258, 262, 266, 270, 274, 275, 276, 277]),
    ])
    def test_fault_hook_task_indices(self, itc99, name, indices):
        seen = []
        identify_words(itc99(name), PipelineConfig(fault_hook=seen.append))
        assert [task.index for task in seen] == indices
