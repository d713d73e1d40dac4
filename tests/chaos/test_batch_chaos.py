"""Batch-orchestrator chaos: crashed/hung workers, killed runs.

Pins the acceptance contract of DESIGN.md §13: a corpus run survives
worker-process deaths by rebuilding the pool and retrying the rows that
were in flight; a row failing twice is quarantined with a structured
reason; the aggregate reports ``degraded``; the CLI exits
:data:`repro.batch.EXIT_DEGRADED`; and a run killed outright resumes
from its journal without recomputing or duplicating completed rows.

A note on determinism: a worker crash breaks the *pool*, so rows that
were merely in flight alongside the crashing row also burn an attempt.
The tests therefore pin exactly what the contract guarantees — at least
``N - 2`` rows after two crashes, byte-identity of every surviving row,
structured reasons on every quarantined one — rather than racy claims
about which collateral rows finished first.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro import faults
from repro.batch import EXIT_DEGRADED, analyze_corpus, main
from repro.eval.runner import load_journal_entries
from repro.faults import FaultPlan

REPO = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)


def _fault_env(plan):
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        os.path.join(REPO, "src") + os.pathsep + env.get("PYTHONPATH", "")
    )
    env.update(plan.to_env())
    return env


class TestWorkerCrashRecovery:
    def test_two_worker_crashes_still_complete_enough_rows(
        self, corpus, tmp_path
    ):
        """The headline acceptance: two injected worker crashes, and the
        run still completes with >= N-2 rows, every surviving row
        byte-identical to a fault-free run and every lost row carrying
        a structured quarantine reason."""
        clean = analyze_corpus(corpus, store=str(tmp_path / "clean"))
        expected = {row["path"]: row["result_digest"] for row in clean.rows}

        state = str(tmp_path / "fault-state")
        # fig1_copy is last in the corpus, so with jobs=2 it only starts
        # once a worker has finished (and recorded) an earlier row —
        # the crash can never wipe out the whole round.
        faults.install(FaultPlan.from_spec(
            "batch.worker.crash:first=2,match=fig1_copy", state_dir=state
        ))
        report = analyze_corpus(
            corpus, store=str(tmp_path / "store"), jobs=2
        )
        agg = report.aggregate
        assert agg["designs"] >= len(corpus) - 2
        assert agg["degraded"] is True  # fig1_copy crashed both attempts
        assert "worker_crash" in agg["quarantine_reasons"]
        for row in report.rows:
            if row.get("quarantined"):
                assert row["reason"]["type"] == "worker_crash"
                assert row["reason"]["attempts"] == 2
            else:
                assert row["result_digest"] == expected[row["path"]]
        # The schedule was exactly consumed: fig1_copy was called twice
        # globally across the pool and its rebuild (one byte per call
        # in the cross-process counter file), not twice per worker.
        counter = os.path.join(state, "batch_worker_crash.calls")
        assert os.path.getsize(counter) == 2

        # The schedule is finite: a rerun over the same store recovers
        # every row and matches the fault-free digest exactly.
        recovered = analyze_corpus(
            corpus, store=str(tmp_path / "store"), jobs=2
        )
        assert recovered.aggregate["designs"] == len(corpus)
        assert not recovered.aggregate["degraded"]
        assert (
            recovered.aggregate["corpus_digest"]
            == clean.aggregate["corpus_digest"]
        )

    def test_row_crashing_twice_is_quarantined_with_reason(self, corpus):
        faults.install(FaultPlan.from_spec("batch.worker.crash:always"))
        report = analyze_corpus(corpus, jobs=2)
        agg = report.aggregate
        assert agg["degraded"] is True
        assert agg["designs"] == 0
        assert agg["quarantined"] == len(corpus)
        assert agg["quarantine_reasons"] == ["worker_crash"]
        for row in report.rows:
            assert row["quarantined"] is True
            assert row["reason"]["type"] == "worker_crash"
            assert row["reason"]["attempts"] == 2
            assert row["digest"]  # still identifies the input file

    def test_degraded_run_exits_with_the_documented_code(
        self, corpus, tmp_path, capsys
    ):
        faults.install(FaultPlan.from_spec("batch.worker.crash:always"))
        report_path = str(tmp_path / "report.json")
        code = main([
            *corpus, "--jobs", "2", "--quiet", "--report", report_path,
        ])
        assert code == EXIT_DEGRADED
        assert "DEGRADED" in capsys.readouterr().err
        with open(report_path, encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["aggregate"]["degraded"] is True

    def test_quarantine_does_not_leak_into_the_corpus_digest(
        self, corpus, tmp_path
    ):
        """A degraded run's digest covers its *successful* rows, so runs
        that succeeded on the same subset remain comparable.  (Inline
        path: an unparseable file burns its retry and is quarantined as
        a row_error — no pool, fully deterministic.)"""
        broken = tmp_path / "broken.v"
        broken.write_text("this is not ((verilog")
        degraded = analyze_corpus(corpus + [str(broken)])
        agg = degraded.aggregate
        assert agg["degraded"] is True
        assert agg["quarantined"] == 1
        assert agg["quarantine_reasons"] == ["row_error"]
        assert agg["designs"] == len(corpus)

        clean = analyze_corpus(corpus)
        assert agg["corpus_digest"] == clean.aggregate["corpus_digest"]


class TestHungWorkerWatchdog:
    def test_hang_is_killed_and_retried_within_the_deadline(
        self, corpus, tmp_path
    ):
        faults.install(FaultPlan.from_spec(
            "batch.worker.hang:nth=1,delay=300",
            state_dir=str(tmp_path / "fault-state"),
        ))
        started = time.monotonic()
        report = analyze_corpus(corpus, jobs=2, row_timeout=2.0)
        elapsed = time.monotonic() - started
        # No hang past the deadline: the watchdog killed the wedged
        # worker long before the injected 300s sleep finished.
        assert elapsed < 120
        assert report.aggregate["designs"] == len(corpus)
        assert not report.aggregate["degraded"]


class TestJournalResumeAfterKill:
    def test_sigkill_mid_run_resumes_without_recompute_or_duplicates(
        self, corpus, tmp_path
    ):
        """Kill -9 a batch after its fast rows land in the journal, tear
        the final line, then resume: completed rows are restored (not
        recomputed), the torn line is ignored, and no path is journaled
        twice."""
        journal = str(tmp_path / "batch.journal.jsonl")
        store = str(tmp_path / "store")
        # b03 (the slow row) hangs, so the journal deterministically
        # holds exactly the two fast rows when we kill the process.
        plan = FaultPlan.from_spec(
            "batch.worker.hang:always,match=b03,delay=60",
            state_dir=str(tmp_path / "fault-state"),
        )
        # Its own process group, so the kill below also reaches the
        # pool workers (one of them hangs for a minute on b03).
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.batch", *corpus, "--jobs", "2",
             "--store", store, "--journal", journal, "--quiet"],
            env=_fault_env(plan),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if os.path.exists(journal):
                    with open(journal, encoding="utf-8") as handle:
                        if len(handle.read().splitlines()) >= 2:
                            break
                time.sleep(0.05)
            else:
                pytest.fail("journal never saw the fast rows")
        finally:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait(timeout=30)

        completed_before = load_journal_entries(journal, key="path")
        assert len(completed_before) >= 2
        # A crash can also tear the last line mid-write; simulate the
        # worst case explicitly.
        with open(journal, "a", encoding="utf-8") as handle:
            handle.write('{"path": "torn-en')

        report = analyze_corpus(
            corpus, store=store, journal=journal, resume=True
        )
        assert report.aggregate["designs"] == len(corpus)
        assert not report.aggregate["degraded"]
        by_path = {row["path"]: row for row in report.rows}
        for path in completed_before:
            assert by_path[path]["cache"] == "journal"  # not recomputed

        # Resume appended only the missing rows: every path appears
        # exactly once among the valid journal lines.
        paths = []
        with open(journal, encoding="utf-8") as handle:
            for line in handle:
                try:
                    paths.append(json.loads(line)["path"])
                except ValueError:
                    continue  # the torn line
        assert sorted(paths) == sorted(corpus)
