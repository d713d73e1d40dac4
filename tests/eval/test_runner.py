"""Tests for the experiment runner and its CLI."""

import os
import subprocess
import sys

import pytest

sys.path.insert(0, "tests")

from fixtures import figure1_netlist

from repro.eval.runner import (
    DEFAULT_JOURNAL,
    load_journal,
    main,
    run_benchmark,
    run_table1,
)


class TestRunBenchmark:
    def test_produces_consistent_row(self):
        nl, bits = figure1_netlist()
        run = run_benchmark(nl)
        row = run.row()
        assert row.name == "fig1"
        assert row.num_words == len(run.reference) == 1
        assert row.ours.pct_full == 100.0
        assert row.base.pct_full == 0.0
        assert row.ours.num_control_signals == 1
        assert row.base.num_control_signals == 0

    def test_runtime_columns_populated(self):
        nl, _ = figure1_netlist()
        row = run_benchmark(nl).row()
        assert row.base.time_seconds >= 0
        assert row.ours.time_seconds >= 0


class TestRunTable1:
    def test_selected_benchmarks(self):
        rows = run_table1(["b03"])
        assert len(rows) == 1
        assert rows[0].name == "b03"

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(KeyError):
            run_table1(["b99"])


class TestJournal:
    def test_rows_checkpoint_as_they_complete(self, tmp_path):
        journal = str(tmp_path / "t1.jsonl")
        rows = run_table1(["b03", "b04"], journal=journal)
        completed = load_journal(journal)
        assert sorted(completed) == ["b03", "b04"]
        assert completed["b03"] == rows[0]

    def test_resume_skips_completed_benchmarks(self, tmp_path):
        journal = str(tmp_path / "t1.jsonl")
        run_table1(["b03"], journal=journal)
        ran = []
        rows = run_table1(
            ["b03", "b04"],
            on_run=lambda name, run: ran.append(name),
            journal=journal,
            resume=True,
        )
        assert ran == ["b04"]  # b03 came from the journal, not a re-run
        assert [r.name for r in rows] == ["b03", "b04"]
        assert sorted(load_journal(journal)) == ["b03", "b04"]

    def test_fresh_sweep_restarts_the_journal(self, tmp_path):
        journal = str(tmp_path / "t1.jsonl")
        run_table1(["b03", "b04"], journal=journal)
        run_table1(["b03"], journal=journal)  # no resume: start over
        assert sorted(load_journal(journal)) == ["b03"]

    def test_torn_final_line_is_dropped(self, tmp_path):
        journal = tmp_path / "t1.jsonl"
        run_table1(["b03", "b04"], journal=str(journal))
        text = journal.read_text()
        journal.write_text(text[: len(text) - 20])  # kill mid-append
        completed = load_journal(str(journal))
        assert sorted(completed) == ["b03"]

    def test_missing_journal_is_empty(self, tmp_path):
        assert load_journal(str(tmp_path / "nope.jsonl")) == {}


class TestCli:
    def test_main_prints_table(self, capsys):
        assert main(["b03"]) == 0
        out = capsys.readouterr().out
        assert "b03" in out
        assert "Ours" in out

    def test_main_accepts_depth(self, capsys):
        assert main(["b03", "--depth", "3"]) == 0

    def test_main_journal_and_resume(self, tmp_path, capsys):
        journal = str(tmp_path / "t1.jsonl")
        assert main(["b03", "--journal", journal]) == 0
        assert main(["b03", "b04", "--journal", journal, "--resume"]) == 0
        assert sorted(load_journal(journal)) == ["b03", "b04"]

    def test_resume_defaults_the_journal_path(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["b03", "--resume"]) == 0
        assert sorted(load_journal(DEFAULT_JOURNAL)) == ["b03"]

    def test_budget_flags_degrade_instead_of_crashing(self, capsys):
        assert main(["b03", "--budget", "0", "--deadline", "3600"]) == 0
        assert "b03" in capsys.readouterr().out

    def test_invalid_deadline_exits_two(self, capsys):
        for deadline in ("0", "nan"):
            assert main(["b03", "--deadline", deadline]) == 2
            assert capsys.readouterr().err.startswith("error: deadline_s")

    def test_module_entry_point_prints_no_runtime_warning(self):
        """``python -m repro.eval.runner`` runs a module its package did
        not import first, so runpy has nothing to warn about."""
        src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.dirname(
                os.path.abspath(__file__)
            ))),
            "src",
        )
        done = subprocess.run(
            [sys.executable, "-m", "repro.eval.runner", "--help"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode == 0, done.stderr[-2000:]
        assert "usage:" in done.stdout
        assert "RuntimeWarning" not in done.stderr

    def test_the_package_still_exports_the_runner(self):
        import repro
        import repro.eval

        assert repro.eval.run_table1 is run_table1
        assert repro.eval.run_benchmark is run_benchmark
        assert repro.run_benchmark is run_benchmark
        with pytest.raises(AttributeError):
            repro.eval.no_such_name
