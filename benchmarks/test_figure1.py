"""Regenerate Figure 1 — the b03 case-study walkthrough.

Figure 1 is not a measurement but a worked example; "regenerating" it
means reproducing every claim the paper makes about it on the
reconstructed circuit:

* the three bits group by file adjacency (3-input NAND roots),
* each bit has two similar subtrees and one dissimilar subtree,
* the relevant control signals are exactly {U201, U221} with U223
  dominated away,
* assigning a controlling value removes the dissimilar subtrees and the
  3-bit word emerges,
* shape hashing alone splits the word 2+1 (fragmentation 2/3).

Run: ``pytest benchmarks/test_figure1.py --benchmark-only``
"""

import sys

import pytest

sys.path.insert(0, "examples")

from figure1_case_study import build_figure1

from repro.core import (
    AnalysisContext,
    find_control_signals,
    form_subgroups,
    group_by_adjacency,
    identify_words,
    shape_hashing,
    signature_of,
)
from repro.eval import evaluate, extract_reference_words


@pytest.fixture(scope="module")
def circuit():
    return build_figure1()


def test_figure1_grouping(circuit):
    netlist, bits = circuit
    group = next(g for g in group_by_adjacency(netlist) if bits[0] in g)
    assert group == bits


def test_figure1_subtree_structure(circuit):
    netlist, bits = circuit
    signatures = [signature_of(netlist, b) for b in bits]
    subgroup = form_subgroups(signatures)[0]
    assert subgroup.bits == bits
    # Two similar subtrees per bit, one dissimilar.
    for net in bits:
        assert len(subgroup.dissimilar[net]) == 1


def test_figure1_control_signals(circuit):
    netlist, bits = circuit
    signatures = [signature_of(netlist, b) for b in bits]
    subgroup = form_subgroups(signatures)[0]
    candidates = find_control_signals(subgroup, AnalysisContext(netlist))
    nets = [c.net for c in candidates]
    assert nets == ["U201", "U221"]


def test_figure1_word_recovery(circuit, benchmark):
    netlist, bits = circuit

    result = benchmark.pedantic(
        lambda: identify_words(netlist), rounds=3, iterations=1
    )
    word = result.word_of(bits[0])
    assert word is not None and set(bits) <= set(word.bits)
    assert result.control_assignments[word].as_dict() == {"U201": 0}


def test_figure1_baseline_fragments(circuit):
    netlist, bits = circuit
    reference = extract_reference_words(netlist)
    target = next(w for w in reference if set(w.bits) == set(bits))
    base_metrics = evaluate(reference, shape_hashing(netlist))
    outcome = next(
        o for o in base_metrics.outcomes if o.reference == target
    )
    assert outcome.status == "partial"
    assert outcome.fragments == 2
    assert outcome.fragmentation_rate == pytest.approx(2 / 3)
    ours_metrics = evaluate(reference, identify_words(netlist))
    outcome = next(
        o for o in ours_metrics.outcomes if o.reference == target
    )
    assert outcome.status == "full"
