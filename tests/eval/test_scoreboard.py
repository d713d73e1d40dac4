"""Tests for the triage ROC scoring in `repro scoreboard --triage`."""

import json

import pytest

from repro.eval.scoreboard import (
    _roc_auc,
    main,
    render_scoreboard,
    run_scoreboard,
)


class TestRocAuc:
    def test_perfect_separation(self):
        assert _roc_auc([0.9, 0.8], {"0.100000": 3}) == 1.0

    def test_inverted_separation(self):
        assert _roc_auc([0.1], {"0.900000": 4}) == 0.0

    def test_all_ties_is_chance(self):
        assert _roc_auc([0.5], {"0.500000": 2}) == 0.5

    def test_mixed_is_the_exact_mann_whitney_value(self):
        # one win (vs 0.5), one loss (vs 0.9) → 0.5; then tie-half credit
        assert _roc_auc([0.7], {"0.500000": 1, "0.900000": 1}) == 0.5
        assert _roc_auc(
            [0.7], {"0.500000": 1, "0.700000": 1, "0.900000": 2}
        ) == pytest.approx((1.0 + 0.5) / 4)

    def test_empty_class_is_undefined_not_zero(self):
        assert _roc_auc([], {"0.500000": 1}) is None
        assert _roc_auc([0.5], {}) is None


class TestTriageCampaign:
    def test_triage_board_folds_an_roc_section(self, tmp_path):
        journal = str(tmp_path / "sb.jsonl")
        payload = run_scoreboard(
            samples=2, seed=0, backends=("ours",), journal=journal,
            triage=True,
        )
        assert payload["triage"] is True
        board = payload["backends"]["ours"]["triage"]
        assert board["samples"] == 2
        assert board["trojan_gates"] > 0
        assert 0.0 <= board["auc"] <= 1.0
        assert 0.0 <= board["top_decile_rate"] <= 1.0
        rendered = render_scoreboard(payload)
        assert "trojan triage" in rendered

    def test_journal_resume_is_byte_identical(self, tmp_path):
        journal = str(tmp_path / "sb.jsonl")
        first = run_scoreboard(
            samples=2, seed=0, backends=("ours",), journal=journal,
            triage=True,
        )
        resumed = run_scoreboard(
            samples=2, seed=0, backends=("ours",), journal=journal,
            triage=True,
        )
        assert (
            json.dumps(resumed, sort_keys=True)
            == json.dumps(first, sort_keys=True)
        )

    def test_rows_journaled_without_triage_are_rescored(self, tmp_path):
        journal = str(tmp_path / "sb.jsonl")
        plain = run_scoreboard(
            samples=1, seed=0, backends=("ours",), journal=journal,
        )
        assert plain["triage"] is False
        assert plain["backends"]["ours"]["triage"] is None
        upgraded = run_scoreboard(
            samples=1, seed=0, backends=("ours",), journal=journal,
            triage=True,
        )
        assert upgraded["backends"]["ours"]["triage"] is not None


class TestCli:
    @pytest.mark.parametrize("argv", [
        ["--depth", "0"], ["--samples", "0"], ["--samples", "-3"],
    ], ids=["depth-0", "samples-0", "samples-negative"])
    def test_out_of_range_numbers_exit_2_with_one_line(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: ")
