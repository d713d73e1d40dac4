"""Tests for the ``repro batch`` corpus orchestrator (repro.batch)."""

import json
import os
import sys

import pytest

from repro.batch import (
    analyze_corpus,
    _itc99_names,
    main,
)
from repro.core import PipelineConfig
from repro.netlist import write_verilog
from repro.schema import SCHEMA_VERSION
from repro.synth.designs import BENCHMARKS

sys.path.insert(0, os.path.dirname(__file__))
from fixtures import figure1_netlist  # noqa: E402


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Two small designs, the second duplicated under another name."""
    root = tmp_path_factory.mktemp("corpus")
    b03 = root / "b03.v"
    b03.write_text(write_verilog(BENCHMARKS["b03"]()))
    fig1 = root / "fig1.v"
    fig1.write_text(write_verilog(figure1_netlist()[0]))
    dup = root / "fig1_copy.v"
    dup.write_text(fig1.read_text())
    return [str(b03), str(fig1), str(dup)]


class TestAnalyzeCorpus:
    def test_cold_then_warm_is_byte_identical(self, corpus, tmp_path):
        store = str(tmp_path / "store")
        cold = analyze_corpus(corpus, store=store)
        warm = analyze_corpus(corpus, store=store)
        assert cold.aggregate["cache_hits"] < len(corpus)
        assert warm.aggregate["cache_hits"] == len(corpus)
        assert warm.aggregate["hit_rate"] == 1.0
        assert (
            warm.aggregate["corpus_digest"] == cold.aggregate["corpus_digest"]
        )
        for before, after in zip(cold.rows, warm.rows):
            assert after["result_digest"] == before["result_digest"]
            assert after["words"] == before["words"]

    def test_duplicate_content_shares_cache_entry(self, corpus, tmp_path):
        report = analyze_corpus(corpus, store=str(tmp_path / "store"))
        fig1, dup = report.rows[1], report.rows[2]
        assert fig1["digest"] == dup["digest"]
        assert dup["cache"] == "hit"  # second occurrence reuses the first
        assert dup["result_digest"] == fig1["result_digest"]

    def test_multiprocess_matches_serial(self, corpus, tmp_path):
        serial = analyze_corpus(corpus, jobs=1)
        parallel = analyze_corpus(
            corpus, store=str(tmp_path / "store"), jobs=2
        )
        assert (
            parallel.aggregate["corpus_digest"]
            == serial.aggregate["corpus_digest"]
        )
        assert [row["path"] for row in parallel.rows] == [
            row["path"] for row in serial.rows
        ]

    def test_rows_come_back_in_input_order(self, corpus):
        report = analyze_corpus(list(reversed(corpus)))
        assert [row["path"] for row in report.rows] == list(reversed(corpus))

    def test_score_rows(self, corpus):
        report = analyze_corpus(corpus[:2], score=True)
        for row in report.rows:
            assert row["score"] is not None
            assert 0.0 <= row["score"]["pct_full"] <= 100.0

    def test_uncached_run_has_no_store(self, corpus):
        report = analyze_corpus(corpus[:1])
        assert report.rows[0]["cache"] == "off"
        assert report.aggregate["cache_hits"] == 0


class TestJournalResume:
    def test_resume_restores_journaled_rows(self, corpus, tmp_path):
        journal = str(tmp_path / "batch.jsonl")
        first = analyze_corpus(corpus, journal=journal)
        resumed = analyze_corpus(corpus, journal=journal, resume=True)
        assert all(row["cache"] == "journal" for row in resumed.rows)
        assert (
            resumed.aggregate["corpus_digest"]
            == first.aggregate["corpus_digest"]
        )

    def test_changed_file_invalidates_its_journal_row(self, tmp_path):
        fig1 = tmp_path / "fig1.v"
        fig1.write_text(write_verilog(figure1_netlist()[0]))
        journal = str(tmp_path / "batch.jsonl")
        analyze_corpus([str(fig1)], journal=journal)
        fig1.write_text(write_verilog(BENCHMARKS["b03"]()))
        resumed = analyze_corpus([str(fig1)], journal=journal, resume=True)
        assert resumed.rows[0]["cache"] != "journal"
        assert resumed.rows[0]["design"] == "b03"

    def test_fresh_run_restarts_the_journal(self, corpus, tmp_path):
        journal = str(tmp_path / "batch.jsonl")
        analyze_corpus(corpus[:1], journal=journal)
        analyze_corpus(corpus[1:2], journal=journal)  # no resume: truncate
        with open(journal, encoding="utf-8") as handle:
            entries = [json.loads(line) for line in handle]
        assert [entry["path"] for entry in entries] == [corpus[1]]


class TestTriage:
    def test_rows_carry_a_triage_summary(self, corpus, tmp_path):
        store = str(tmp_path / "store")
        report = analyze_corpus(corpus, store=store, triage=True)
        for row in report.rows:
            summary = row["triage"]
            assert set(summary) == {
                "backend", "num_flagged", "threshold",
                "triage_digest", "top",
            }
            assert summary["backend"] == "ours"
            assert summary["triage_digest"].startswith("triage:")
            assert summary["top"]
        # identical bytes → identical rankings
        fig1, dup = report.rows[1], report.rows[2]
        assert (
            fig1["triage"]["triage_digest"]
            == dup["triage"]["triage_digest"]
        )

    def test_plain_rows_carry_none_and_stay_cache_compatible(
        self, corpus, tmp_path
    ):
        store = str(tmp_path / "store")
        analyze_corpus(corpus, store=store, triage=True)
        plain = analyze_corpus(corpus, store=store)
        assert all(row["triage"] is None for row in plain.rows)
        # the triage run warmed the ordinary result cache
        assert plain.aggregate["hit_rate"] == 1.0

    def test_resume_refuses_rows_journaled_without_triage(
        self, corpus, tmp_path
    ):
        journal = str(tmp_path / "batch.jsonl")
        analyze_corpus(corpus, journal=journal)
        resumed = analyze_corpus(
            corpus, journal=journal, resume=True, triage=True
        )
        assert all(row["cache"] != "journal" for row in resumed.rows)
        assert all(row["triage"] is not None for row in resumed.rows)
        # and once triaged rows are journaled, resume restores them
        again = analyze_corpus(
            corpus, journal=journal, resume=True, triage=True
        )
        assert all(row["cache"] == "journal" for row in again.rows)
        assert [row["triage"] for row in again.rows] == [
            row["triage"] for row in resumed.rows
        ]


class TestCli:
    def test_empty_corpus_exits_2(self, capsys):
        assert main([]) == 2
        assert "empty corpus" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        assert main(["/nonexistent/x.v"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_bad_jobs_exits_2(self, corpus, capsys):
        assert main([corpus[0], "--jobs", "0"]) == 2

    @pytest.mark.parametrize("seconds", ["0", "-1", "nan", "inf"])
    def test_row_timeout_must_be_finite_and_positive(
        self, corpus, capsys, seconds
    ):
        """A 0 s watchdog would fire at once and quarantine every row."""
        with pytest.raises(ValueError, match="row timeout"):
            analyze_corpus(corpus, row_timeout=float(seconds))
        argv = corpus + ["--jobs", "2", "--row-timeout", seconds]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: row timeout")

    def test_end_to_end_with_report(self, corpus, tmp_path, capsys):
        store = str(tmp_path / "store")
        report_path = str(tmp_path / "report.json")
        assert main(corpus + ["--store", store]) == 0
        first = capsys.readouterr().out
        assert "corpus digest" in first
        assert main(corpus + ["--store", store, "--report", report_path]) == 0
        second = capsys.readouterr().out
        assert f"{len(corpus)} hits" in second
        with open(report_path, encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["aggregate"]["hit_rate"] == 1.0

    def test_metrics_json_dump(self, corpus, tmp_path, capsys):
        """--metrics-json writes a stamped registry snapshot counting
        exactly the corpus rows that ran."""
        from repro import metrics

        metrics.uninstall()  # the flag must install its own registry
        metrics_path = str(tmp_path / "metrics.json")
        try:
            assert main(
                corpus + ["--quiet", "--metrics-json", metrics_path]
            ) == 0
        finally:
            metrics.uninstall()
        with open(metrics_path, encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["schema_version"] == SCHEMA_VERSION
        by_name = {m["name"]: m for m in payload["metrics"]}
        rows = by_name["repro_batch_rows_total"]["samples"]
        assert sum(s["value"] for s in rows) == len(corpus)
        assert "repro_batch_row_seconds" in by_name

    def test_corpus_dir_globs_designs(self, corpus, tmp_path, capsys):
        directory = os.path.dirname(corpus[0])
        assert main(["--corpus-dir", directory, "--quiet"]) == 0
        out = capsys.readouterr().out
        assert f"{len(corpus)} designs" in out


class TestItc99:
    def test_roster_is_the_table1_dozen(self):
        names = _itc99_names()
        assert len(names) == 12
        assert names == sorted(names)
        assert set(names) == set(BENCHMARKS)

    def test_materializes_small_subset(self, tmp_path, monkeypatch):
        # Restrict the roster so the test does not synthesize b17/b18.
        import repro.batch as batch

        monkeypatch.setattr(batch, "_itc99_names", lambda: ["b03"])
        paths = batch.itc99_corpus(str(tmp_path))
        assert [os.path.basename(p) for p in paths] == ["b03.v"]
        assert os.path.exists(paths[0])
        before = os.path.getmtime(paths[0])
        assert batch.itc99_corpus(str(tmp_path)) == paths  # reuses the file
        assert os.path.getmtime(paths[0]) == before
