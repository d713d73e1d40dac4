"""Staged engine: stage order, trace schema, and degenerate-subgroup guards.

The degenerate-partition guards cover subgroups the reduction search can
hand back empty or fragmented.
"""

import sys

sys.path.insert(0, "tests")

from fixtures import figure1_netlist

from repro.core import PipelineConfig, identify_words
from repro.core.hashkey import BitSignature
from repro.core.stages import (
    AnalysisEngine,
    _emit_partition,
    _partition_score,
)
from repro.core.words import IdentificationResult


def sig(net):
    return BitSignature(net, "AND2", (), ("$", "$"))


class TestPartitionScore:
    def test_empty_partition_scores_lowest(self):
        assert _partition_score([]) == (0, 0)
        assert _partition_score([]) < _partition_score([[sig("a")]])

    def test_prefers_larger_best_word(self):
        two = [[sig("a"), sig("b")]]
        one = [[sig("a")], [sig("b")]]
        assert _partition_score(two) > _partition_score(one)

    def test_breaks_ties_on_fewer_fragments(self):
        tight = [[sig("a"), sig("b")]]
        loose = [[sig("a"), sig("b")], [sig("c")]]
        assert _partition_score(tight) > _partition_score(loose)


class TestEmitPartition:
    def test_empty_partition_emits_nothing(self):
        result = IdentificationResult()
        _emit_partition([], None, result)
        assert result.words == []
        assert result.singletons == []

    def test_empty_runs_are_skipped(self):
        result = IdentificationResult()
        _emit_partition([[], [sig("a")], []], None, result)
        assert result.words == []
        assert result.singletons == ["a"]

    def test_all_singleton_runs(self):
        result = IdentificationResult()
        _emit_partition([[sig("a")], [sig("b")]], None, result)
        assert result.words == []
        assert result.singletons == ["a", "b"]


class TestDegenerateSubgroups:
    def test_empty_signature_list_forms_no_subgroups(self):
        from repro.core.matching import form_subgroups

        assert form_subgroups([]) == []

    def test_all_leaf_bits_become_singletons(self):
        # Bits with no expandable driver never chain.
        leaves = [BitSignature(f"n{i}", None, (), ()) for i in range(4)]
        from repro.core.matching import form_subgroups

        subgroups = form_subgroups(leaves)
        assert all(len(s.signatures) == 1 for s in subgroups)

    def test_stage_graph_shape(self):
        names = [stage.name for stage in AnalysisEngine.stages]
        assert names == [
            "grouping",
            "signatures",
            "matching",
            "control",
            "reduction",
            "emission",
        ]


class TestEngineTrace:
    def test_stage_seconds_cover_every_stage(self):
        netlist, _bits = figure1_netlist()
        result = identify_words(netlist, PipelineConfig())
        assert list(result.trace.stage_seconds) == [
            "grouping",
            "signatures",
            "matching",
            "control",
            "reduction",
            "emission",
        ]
        assert all(t >= 0.0 for t in result.trace.stage_seconds.values())

    def test_trace_dict_schema(self):
        netlist, _bits = figure1_netlist()
        result = identify_words(netlist, PipelineConfig())
        dumped = result.trace.as_dict()
        assert set(dumped) == {
            "counters",
            "backend",
            "kernel",
            "stage_seconds",
            "cache",
            "degraded",
            "deadline_hit",
            "failures",
            "preflight",
            "cache_provenance",
        }
        assert dumped["kernel"] == "python"
        assert dumped["cache_provenance"] == {}  # no store attached
        # A clean run carries an empty resilience record.
        assert dumped["degraded"] is False
        assert dumped["deadline_hit"] is False
        assert dumped["failures"] == []
        assert dumped["preflight"] == []

