"""Unit tests for the Trojan-triage anomaly scorer (DESIGN.md §16)."""

import dataclasses
import os
import sys

import pytest

from repro.core.pipeline import identify_words
from repro.synth import insert_trojan
from repro.synth.anonymize import anonymize
from repro.synth.designs import BENCHMARKS
from repro.triage import TriageConfig, TriageResult, triage_netlist

sys.path.insert(0, os.path.dirname(os.path.dirname(__file__)))
from fixtures import figure1_netlist  # noqa: E402


@pytest.fixture(scope="module")
def figure1_triage():
    netlist, _ = figure1_netlist()
    result = identify_words(netlist)
    return netlist, result, triage_netlist(netlist, result)


class TestRanking:
    def test_every_gate_scored_exactly_once(self, figure1_triage):
        netlist, _, triage = figure1_triage
        names = [gate.name for gate in netlist.gates_in_file_order()]
        assert sorted(s.gate for s in triage.scores) == sorted(names)
        assert triage.num_gates == len(names)

    def test_sorted_by_score_then_file_position(self, figure1_triage):
        _, _, triage = figure1_triage
        keys = [(-s.score, s.position) for s in triage.scores]
        assert keys == sorted(keys)

    def test_scores_bounded_and_round_trip_stable(self, figure1_triage):
        _, _, triage = figure1_triage
        for entry in triage.scores:
            assert 0.0 <= entry.score <= 1.0
            assert round(entry.score, 6) == entry.score
            for _, value in entry.features:
                assert round(value, 6) == value

    def test_deterministic(self, figure1_triage):
        netlist, result, triage = figure1_triage
        again = triage_netlist(netlist, result)
        assert again.digest() == triage.digest()
        assert again.as_dict() == triage.as_dict()

    def test_hostile_rename_cannot_move_a_score(self, figure1_triage):
        """The scorer is name-free: anonymizing every net/gate name into
        escaped-identifier shapes leaves the (position, score) sequence
        untouched (the fuzz oracle re-checks this per campaign sample)."""
        netlist, _, triage = figure1_triage
        hostile = anonymize(netlist, naming="hostile").netlist
        renamed = triage_netlist(hostile, identify_words(hostile))
        assert (
            [(s.position, s.score) for s in renamed.scores]
            == [(s.position, s.score) for s in triage.scores]
        )

    def test_injected_trojan_ranks_in_the_top_decile(self):
        netlist = BENCHMARKS["b13"]()
        spec = insert_trojan(netlist, trigger_width=4, seed=2015)
        triage = triage_netlist(netlist, identify_words(netlist))
        decile = {
            s.gate for s in triage.top(max(1, triage.num_gates // 10))
        }
        assert set(spec.gates) <= decile
        for gate in spec.gates:
            assert triage.rank_of(gate) is not None


class TestConfig:
    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="weight_mix"):
            TriageConfig(weight_mix=-0.1)

    def test_decay_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError, match="neighbor_decay"):
            TriageConfig(neighbor_decay=1.5)

    def test_negative_rounds_rejected(self):
        with pytest.raises(ValueError, match="neighbor_rounds"):
            TriageConfig(neighbor_rounds=-1)

    @pytest.mark.parametrize("field", ["weight_mix", "threshold"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_numbers_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a finite"):
            TriageConfig(**{field: value})

    def test_threshold_drives_num_flagged(self, figure1_triage):
        netlist, result, _ = figure1_triage
        triage = triage_netlist(
            netlist, result, TriageConfig(threshold=0.0)
        )
        assert triage.num_flagged == triage.num_gates
        strict = triage_netlist(
            netlist, result, TriageConfig(threshold=2.0)
        )
        assert strict.num_flagged == 0


class TestPayload:
    def test_from_dict_round_trips_the_digest(self, figure1_triage):
        _, _, triage = figure1_triage
        rebuilt = TriageResult.from_dict(triage.as_dict())
        assert rebuilt.digest() == triage.digest()
        assert rebuilt.as_dict() == triage.as_dict()

    def test_result_is_immutable(self, figure1_triage):
        """The digest is computed once per result, so the ranking it
        covers must not change after construction."""
        _, _, triage = figure1_triage
        rebuilt = TriageResult(scores=list(triage.scores))
        assert isinstance(rebuilt.scores, tuple)
        assert rebuilt.digest() == triage.digest()
        with pytest.raises(dataclasses.FrozenInstanceError):
            rebuilt.scores = ()

    def test_truncated_payload_refuses_reconstruction(self, figure1_triage):
        _, _, triage = figure1_triage
        with pytest.raises(ValueError):
            TriageResult.from_dict(triage.as_dict(top=2))

    def test_top_truncates_gates_not_counters(self, figure1_triage):
        _, _, triage = figure1_triage
        payload = triage.as_dict(top=3)
        assert len(payload["gates"]) == 3
        assert payload["num_gates"] == triage.num_gates
        assert payload["triage_digest"] == triage.digest()
