"""Integration tests for the full identification pipeline (Figure 2)."""

import sys

import pytest

sys.path.insert(0, "tests")

from fixtures import figure1_netlist

from repro.core import (
    PipelineConfig,
    Word,
    identify_words,
    shape_hashing,
)
from repro.netlist import NetlistBuilder


class TestFigure1EndToEnd:
    def test_ours_finds_the_three_bit_word(self):
        nl, bits = figure1_netlist()
        result = identify_words(nl)
        assert result.word_of(bits[0]) is not None
        assert set(bits) <= set(result.word_of(bits[0]).bits)

    def test_base_fragments_the_word(self):
        nl, bits = figure1_netlist()
        result = shape_hashing(nl)
        word = result.word_of(bits[0])
        assert word is not None and bits[2] not in word.bits
        assert bits[2] in result.singletons

    def test_control_assignment_recorded(self):
        nl, bits = figure1_netlist()
        result = identify_words(nl)
        word = result.word_of(bits[0])
        assignment = result.control_assignments[word]
        assert assignment.as_dict() == {"U201": 0}
        assert result.control_signals == ("U201",)

    def test_trace_counts_stages(self):
        nl, _ = figure1_netlist()
        trace = identify_words(nl).trace
        assert trace.num_groups >= 1
        assert trace.num_partially_matched_subgroups == 1
        assert trace.num_control_signal_candidates == 2
        assert trace.num_assignments_tried >= 1
        assert trace.num_reductions_that_matched == 1
        assert len(trace.lines()) == 8

    def test_runtime_recorded(self):
        nl, _ = figure1_netlist()
        assert identify_words(nl).runtime_seconds > 0


class TestNeverWorseThanBaseline:
    """The paper: "our technique never performs worse than the base case"."""

    def test_every_base_word_is_contained_in_an_ours_word(self):
        nl, _ = figure1_netlist()
        base = shape_hashing(nl)
        ours = identify_words(nl)
        for base_word in base.words:
            containing = ours.word_of(base_word.bits[0])
            assert containing is not None
            assert set(base_word.bits) <= set(containing.bits)


class TestConfig:
    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            PipelineConfig(depth=0)

    def test_invalid_simultaneous(self):
        with pytest.raises(ValueError):
            PipelineConfig(max_simultaneous=0)

    def test_invalid_grouping(self):
        with pytest.raises(ValueError):
            PipelineConfig(grouping="psychic")

    def test_baseline_requires_no_partial(self):
        nl, _ = figure1_netlist()
        with pytest.raises(ValueError):
            shape_hashing(nl, PipelineConfig())

    def test_pair_assignment_disabled_with_max_one(self):
        """With max_simultaneous=1 the Figure 1 variant that needs a pair
        must stay fragmented."""
        nl, bits = figure1_netlist()
        # Figure 1 heals with a single signal; sanity: config still works.
        result = identify_words(nl, PipelineConfig(max_simultaneous=1))
        assert result.word_of(bits[0]) is not None

    def test_register_grouping_mode(self):
        nl, bits = figure1_netlist()
        result = identify_words(nl, PipelineConfig(grouping="registers"))
        # D nets of the result register are adjacent in FF order too.
        word = result.word_of(bits[0])
        assert word is not None


class TestShallowDepth:
    def test_depth_one_groups_by_root_only(self):
        """At depth 1 every subtree is a leaf: full matches everywhere."""
        nl, bits = figure1_netlist()
        result = identify_words(nl, PipelineConfig(depth=1))
        word = result.word_of(bits[0])
        assert word is not None
        assert set(bits) <= set(word.bits)


class TestWordsAndResults:
    def test_word_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Word(("a", "a"))

    def test_all_generated_words_includes_singletons(self):
        nl, _ = figure1_netlist()
        result = identify_words(nl)
        generated = result.all_generated_words()
        assert len(generated) == len(result.words) + len(result.singletons)

    def test_partition_is_disjoint(self):
        nl, _ = figure1_netlist()
        result = identify_words(nl)
        seen = set()
        for word in result.all_generated_words():
            for bit in word.bits:
                assert bit not in seen
                seen.add(bit)
