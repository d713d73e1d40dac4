"""``repro batch`` — multi-process corpus analysis over the artifact store.

Corpus-scale reverse engineering is the normal workload: a researcher has
a directory of netlists and wants words for all of them, repeatedly, as
configurations evolve.  This orchestrator shards the corpus across the
worker processes of a :class:`~repro.workers.WorkerPool`, where every
worker opens the *same* content-addressed store (:mod:`repro.store`), so

* duplicate designs inside one corpus are analyzed once;
* a rerun — same files, same config — is pure cache hits and skips both
  parsing and analysis (the warm path reads one JSON file per design);
* a config or algorithm change invalidates exactly the affected entries.

Per-design rows are checkpointed through the same fsynced-JSONL journal
machinery as the Table 1 sweep (:mod:`repro.eval.runner`), so a killed
batch resumes with ``--resume`` losing at most the designs in flight; a
journal row is only reused when the file's content digest still matches.

Usage::

    repro batch designs/*.v --store .repro-cache --jobs 8
    repro batch --corpus-dir designs --store .repro-cache --report out.json
    repro batch --itc99 corpus --store .repro-cache   # Table 1 benchmarks

The aggregate report carries a ``corpus_digest`` — a digest over every
design's deterministic result digest — so two runs are byte-identical on
words/partitions/counters iff their corpus digests match (this is what
the CI cache job asserts between a cold and a warm run).
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import math
import os
import sys
import time
from concurrent.futures import FIRST_COMPLETED, wait
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from . import faults as _faults
from . import metrics as _metrics
from .api import AnalysisReport, Session
from .core.pipeline import PipelineConfig
from .eval.metrics import evaluate
from .eval.reference import extract_reference_words
from .eval.runner import append_journal_entry, load_journal_entries
from .schema import stamp
from .exitcodes import EXIT_DEGRADED, EXIT_OK, EXIT_USAGE
from .store import file_digest
from .workers import BrokenProcessPool, WorkerPool

__all__ = [
    "BatchReport",
    "analyze_corpus",
    "itc99_corpus",
    "main",
    "EXIT_DEGRADED",
    "MAX_ROW_ATTEMPTS",
]

#: Journal path used by ``--resume`` when ``--journal`` is not given.
DEFAULT_JOURNAL = "batch.journal.jsonl"


#: A row is tried this many times before it is quarantined: the first
#: failure is retried once on a rebuilt pool, the second is final.
MAX_ROW_ATTEMPTS = 2


@dataclass
class BatchReport:
    """Everything one corpus run produced: per-design rows + aggregate."""

    rows: List[Dict]
    aggregate: Dict

    def as_dict(self) -> Dict:
        return stamp({"rows": self.rows, "aggregate": self.aggregate})


def itc99_corpus(directory: str) -> List[str]:
    """Materialize the Table 1 benchmarks as Verilog files; return paths.

    Files already present are trusted (builders are deterministic), so a
    warm run touches no synthesis code at all.
    """
    os.makedirs(directory, exist_ok=True)
    paths: List[str] = []
    missing: List[str] = []
    for name in _itc99_names():
        path = os.path.join(directory, name + ".v")
        paths.append(path)
        if not os.path.exists(path):
            missing.append(name)
    if missing:
        from .netlist.verilog import write_verilog
        from .synth.designs import BENCHMARKS

        for name in missing:
            path = os.path.join(directory, name + ".v")
            staging = path + ".tmp"
            with open(staging, "w", encoding="utf-8") as handle:
                handle.write(write_verilog(BENCHMARKS[name]()))
            os.replace(staging, path)
    return paths


def _itc99_names() -> List[str]:
    # The Table 1 roster, without importing the heavy design builders.
    return [
        "b03", "b04", "b05", "b07", "b08", "b11",
        "b12", "b13", "b14", "b15", "b17", "b18",
    ]


def _triage_summary(treport, top: int = 10) -> Dict:
    """One design's Trojan-triage digest for its corpus row.

    Compact by design — the full ranking lives in the store under the
    triage cache key; the row carries enough to rank designs against
    each other (flag counts) and to fetch or verify the full ranking
    (``triage_digest``).
    """
    triage = treport.triage
    return {
        "backend": triage.backend,
        "num_flagged": triage.num_flagged,
        "threshold": triage.config.threshold,
        "triage_digest": triage.digest(),
        "top": [[s.gate, s.score] for s in triage.top(top)],
    }


def _row_from_report(
    report: AnalysisReport,
    score: Optional[Dict],
    wall_seconds: float,
    triage: Optional[Dict] = None,
) -> Dict:
    """One design's journal row / report entry."""
    return stamp({
        "path": report.source,
        "design": report.design,
        "digest": report.digest,
        "key": report.key,
        "cache": report.cache,
        "backend": report.trace.get("backend", "ours"),
        "gates": report.num_gates,
        "nets": report.num_nets,
        "flip_flops": report.num_ffs,
        "num_words": len(report.words),
        "words": [list(bits) for bits in report.words],
        "singletons": list(report.singletons),
        "control_signals": list(report.control_signals),
        "counters": dict(report.trace.get("counters", {})),
        "result_digest": report.result_digest,
        "runtime_seconds": report.runtime_seconds,
        "wall_seconds": wall_seconds,
        "score": score,
        "triage": triage,
    })


def _score_report(session: Session, report: AnalysisReport) -> Optional[Dict]:
    """Score one analyzed design against its golden register names.

    Returns ``None`` when the design carries no recoverable reference
    words (nothing to score against is not an error at corpus scale).
    """
    netlist = session.load_netlist(report.source)
    reference = extract_reference_words(netlist)
    if not reference:
        return None
    metrics = evaluate(reference, report.result)
    return {
        "num_reference_words": metrics.num_reference_words,
        "pct_full": metrics.pct_full,
        "fragmentation_rate": metrics.fragmentation_rate,
        "pct_not_found": metrics.pct_not_found,
    }


def _corpus_task(
    path: str,
    config: PipelineConfig,
    store_root: Optional[str],
    score: bool,
    triage: bool = False,
) -> Dict:
    """Analyze one corpus file (runs inline or in a worker process)."""
    if _faults.fire("batch.worker.crash", path):
        os._exit(3)  # a real worker crash: no cleanup, no goodbye
    hang = _faults.rule_for("batch.worker.hang")
    if hang is not None and _faults.fire("batch.worker.hang", path):
        time.sleep(hang.delay)
    started = time.perf_counter()
    session = Session(config=config, store=store_root)
    if triage:
        treport = session.triage(path)
        report = treport.analysis
        triaged = _triage_summary(treport)
    else:
        report = session.analyze(path)
        triaged = None
    scored = _score_report(session, report) if score else None
    return _row_from_report(
        report, scored, time.perf_counter() - started, triaged
    )


def _quarantine_row(path: str, reason: str, detail: str, attempts: int) -> Dict:
    """The journal/report row of a design that failed its last retry."""
    name = os.path.basename(path)
    for suffix in (".v", ".bench"):
        if name.endswith(suffix):
            name = name[: -len(suffix)]
    try:
        digest = file_digest(path)
    except OSError:
        digest = None
    return stamp({
        "path": path,
        "design": name,
        "digest": digest,
        "quarantined": True,
        "reason": {
            "type": reason,
            "detail": detail,
            "attempts": attempts,
        },
    })


def _publish_quarantine(row: Dict) -> None:
    registry = _metrics.current()
    if registry is None:
        return
    registry.counter(
        "repro_batch_quarantined_total",
        "Corpus rows quarantined after repeated failures, by reason",
        labelnames=("reason",),
    ).inc(reason=str(row["reason"]["type"]))


def _publish_row(row: Dict) -> None:
    """Count one completed corpus row in the installed metrics registry.

    Runs in the orchestrating process as rows arrive, so it also covers
    rows computed by worker processes (whose own in-process registries
    are not visible here).
    """
    registry = _metrics.current()
    if registry is None:
        return
    registry.counter(
        "repro_batch_rows_total",
        "Corpus designs analyzed, by cache provenance",
        labelnames=("cache",),
    ).inc(cache=str(row.get("cache", "off")))
    registry.histogram(
        "repro_batch_row_seconds",
        "Wall-clock seconds per corpus design (orchestrator view)",
    ).observe(float(row.get("wall_seconds", 0.0)))


def _aggregate(rows: Sequence[Dict], wall_seconds: float) -> Dict:
    quarantined = [row for row in rows if row.get("quarantined")]
    rows = [row for row in rows if not row.get("quarantined")]
    hits = sum(1 for row in rows if row["cache"] == "hit")
    misses = sum(1 for row in rows if row["cache"] == "miss")
    digest = hashlib.sha256()
    for row in sorted(rows, key=lambda r: (r["design"], r["digest"])):
        digest.update(
            f"{row['design']}\0{row['digest']}\0{row['result_digest']}\n"
            .encode("utf-8")
        )
    return {
        "designs": len(rows),
        "cache_hits": hits,
        "cache_misses": misses,
        "hit_rate": hits / len(rows) if rows else 0.0,
        "degraded": bool(quarantined),
        "quarantined": len(quarantined),
        "quarantine_reasons": sorted(
            {str(row["reason"]["type"]) for row in quarantined}
        ),
        "total_words": sum(row["num_words"] for row in rows),
        "analysis_seconds": sum(row["runtime_seconds"] for row in rows),
        "wall_seconds": wall_seconds,
        "corpus_digest": digest.hexdigest(),
    }


def _pool_round(
    pool: WorkerPool,
    pending: Sequence[Tuple[int, str]],
    config: PipelineConfig,
    store: Optional[str],
    score: bool,
    row_timeout: Optional[float],
    on_done,
    triage: bool = False,
) -> List[Tuple[int, str, str, str]]:
    """Run ``pending`` on the pool's current executor; returns the failures.

    ``on_done(index, row)`` fires for each completed row as it arrives.
    Failures come back as ``(index, path, reason, detail)`` — a worker
    crash (``BrokenProcessPool``) fails every row that was in flight on
    that executor, and a ``row_timeout`` with no progress gets the
    workers killed, converting a hang into the same failure shape.
    """
    failures: List[Tuple[int, str, str, str]] = []
    futures = {}
    for index, path in pending:
        try:
            future = pool.executor.submit(
                _corpus_task, path, config, store, score, triage
            )
        except BrokenProcessPool as exc:
            # A worker died before every row was submitted: the rows
            # left over fail with the pool, like the ones in flight.
            failures.append(
                (index, path, "worker_crash", str(exc) or "worker_crash")
            )
            continue
        futures[future] = (index, path)
    remaining = set(futures)
    hung = False
    while remaining:
        done, not_done = wait(
            remaining, timeout=row_timeout, return_when=FIRST_COMPLETED,
        )
        if not done:
            # No row finished within row_timeout: the pool is wedged.
            # Kill its workers; the in-flight futures complete
            # exceptionally almost immediately.
            hung = True
            pool.kill()
            done, not_done = wait(remaining, timeout=60)
            if not done:  # workers unkillable — give up this round
                for future in not_done:
                    future.cancel()
                done = {f for f in remaining if f.done()}
        for future in done:
            remaining.discard(future)
            index, path = futures[future]
            if future.cancelled():  # unkillable-worker fallback
                failures.append((
                    index, path, "worker_hang",
                    "cancelled by the progress watchdog",
                ))
                continue
            try:
                row = future.result()
            except BrokenProcessPool as exc:
                reason = "worker_hang" if hung else "worker_crash"
                failures.append((index, path, reason, str(exc) or reason))
            except Exception as exc:
                failures.append((
                    index, path, "row_error",
                    f"{type(exc).__name__}: {exc}",
                ))
            else:
                on_done(index, row)
        remaining -= {f for f in remaining if f.cancelled()}
    return failures


def _check_row_timeout(row_timeout: Optional[float]) -> None:
    # A watchdog at 0 s fires at once and quarantines every row.
    if row_timeout is not None and not (
        math.isfinite(row_timeout) and row_timeout > 0
    ):
        raise ValueError("row timeout must be a finite number of seconds > 0")


def analyze_corpus(
    paths: Sequence[str],
    config: Optional[PipelineConfig] = None,
    store: Optional[str] = None,
    jobs: int = 1,
    journal: Optional[str] = None,
    resume: bool = False,
    score: bool = False,
    on_row=None,
    row_timeout: Optional[float] = None,
    triage: bool = False,
) -> BatchReport:
    """Analyze every path; returns rows in input order plus the aggregate.

    ``store`` is the artifact-store *directory* (each worker process opens
    its own handle on it); ``None`` disables caching.  ``journal`` /
    ``resume`` checkpoint per-design rows exactly like the Table 1 sweep;
    a journaled row is reused only while its content digest still matches
    the file on disk (quarantined journal rows are always retried).
    ``on_row`` is called with each freshly completed row (not for
    journal-restored ones).

    Fault tolerance (DESIGN.md §13): with ``jobs > 1`` a worker-process
    crash (``BrokenProcessPool``) does not kill the run — the pool is
    rebuilt and the rows that were in flight are retried once; a row
    that fails :data:`MAX_ROW_ATTEMPTS` times is *quarantined*: its slot
    carries a ``{"quarantined": true, "reason": {...}}`` row, the
    aggregate reports ``degraded: true``, and every other row is still
    byte-identical to a fault-free run.  ``row_timeout`` arms a progress
    watchdog: when no row completes for that many seconds the pool's
    workers are killed and the hang is handled like a crash; it must be
    a finite number of seconds > 0 (``ValueError`` otherwise).
    """
    _check_row_timeout(row_timeout)
    config = config or PipelineConfig()
    paths = [os.fspath(path) for path in paths]
    started = time.perf_counter()

    completed: Dict[str, Dict] = {}
    if journal is not None:
        if resume:
            completed = load_journal_entries(journal, key="path")
        elif os.path.exists(journal):
            os.remove(journal)  # fresh batch: start the journal over

    rows: List[Optional[Dict]] = [None] * len(paths)
    pending: List[Tuple[int, str]] = []
    for index, path in enumerate(paths):
        entry = completed.get(path)
        if (
            entry is not None
            and not entry.get("quarantined")
            and entry.get("digest") == file_digest(path)
            # A --triage resume cannot reuse rows journaled without one.
            and not (triage and entry.get("triage") is None)
        ):
            entry = dict(entry)
            entry["cache"] = "journal"
            rows[index] = entry
        else:
            pending.append((index, path))

    def record(index: int, row: Dict) -> None:
        rows[index] = row
        if row.get("quarantined"):
            _publish_quarantine(row)
        else:
            _publish_row(row)
        if journal is not None:
            append_journal_entry(journal, row)
        if on_row is not None:
            on_row(row)

    attempts: Dict[int, int] = {}
    if jobs > 1 and len(pending) > 1:
        pool = WorkerPool(min(jobs, len(pending)))
        try:
            while pending:
                failures = _pool_round(
                    pool, pending, config, store, score, row_timeout,
                    record, triage,
                )
                retry: List[Tuple[int, str]] = []
                for index, path, reason, detail in failures:
                    attempts[index] = attempts.get(index, 0) + 1
                    if attempts[index] >= MAX_ROW_ATTEMPTS:
                        record(index, _quarantine_row(
                            path, reason, detail, attempts[index]
                        ))
                    else:
                        retry.append((index, path))
                if retry:
                    # The retry runs on fresh workers, whatever broke.
                    pool.rebuild(pool.executor)
                    registry = _metrics.current()
                    if registry is not None:
                        registry.counter(
                            "repro_batch_pool_rebuilds_total",
                            "Process pools rebuilt after a worker crash/hang",
                        ).inc()
                pending = retry
        finally:
            pool.close()
    else:
        for index, path in pending:
            try:
                row = _corpus_task(path, config, store, score, triage)
            except Exception as exc:
                # Serial retry once, then quarantine — the inline
                # analogue of the pool's rebuild-and-retry.
                try:
                    row = _corpus_task(path, config, store, score, triage)
                except Exception:
                    attempts[index] = MAX_ROW_ATTEMPTS
                    record(index, _quarantine_row(
                        path, "row_error",
                        f"{type(exc).__name__}: {exc}", MAX_ROW_ATTEMPTS,
                    ))
                    continue
            record(index, row)

    final = [row for row in rows if row is not None]
    return BatchReport(
        rows=final,
        aggregate=_aggregate(final, time.perf_counter() - started),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro batch",
        description="Analyze a corpus of netlists with shared caching "
        "(content-addressed artifact store + process pool)",
    )
    parser.add_argument(
        "paths", nargs="*", help="netlist files (.v / .bench)"
    )
    parser.add_argument(
        "--corpus-dir",
        metavar="DIR",
        default=None,
        help="add every *.v and *.bench file under DIR to the corpus",
    )
    parser.add_argument(
        "--itc99",
        metavar="DIR",
        default=None,
        help="materialize the 12 Table 1 benchmarks into DIR (reusing "
        "files already there) and add them to the corpus",
    )
    parser.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="artifact-store directory shared by all workers and reruns "
        "(strongly recommended; without it nothing is cached)",
    )
    parser.add_argument(
        "--max-store-bytes",
        type=int,
        metavar="N",
        default=None,
        help="LRU cap on the store's total size in bytes",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes to shard the corpus across (default 1)",
    )
    parser.add_argument(
        "--row-timeout",
        type=float,
        metavar="S",
        default=None,
        help="progress watchdog: with --jobs > 1, kill the worker pool "
        "when no row completes for S seconds and retry the in-flight "
        "rows (a row failing twice is quarantined)",
    )
    parser.add_argument(
        "--depth", type=int, default=4, help="fanin-cone depth (default 4)"
    )
    parser.add_argument(
        "--max-simultaneous",
        type=int,
        default=2,
        help="control signals assigned at once (default 2)",
    )
    parser.add_argument(
        "--backend",
        default="ours",
        metavar="NAME",
        help="identification backend for every row: ours (default) or "
        "base (see repro.core.backends); rows cache under per-backend "
        "store keys",
    )
    parser.add_argument(
        "--score",
        action="store_true",
        help="also score each design against its golden register names",
    )
    parser.add_argument(
        "--triage",
        action="store_true",
        help="also rank each design's gates by Trojan-region anomaly "
        "(repro triage); rows gain a compact triage summary and the "
        "full rankings are cached in the store",
    )
    parser.add_argument(
        "--journal",
        metavar="PATH",
        default=None,
        help="checkpoint each completed design's row to this JSONL file "
        f"(--resume defaults it to {DEFAULT_JOURNAL})",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="skip designs already journaled with an unchanged content "
        "digest (a killed batch continues where it stopped)",
    )
    parser.add_argument(
        "--report",
        metavar="PATH",
        default=None,
        help="write the versioned JSON report ('-' for stdout)",
    )
    parser.add_argument(
        "--metrics-json",
        metavar="PATH",
        default=None,
        help="install a metrics registry for this run and dump its "
        "snapshot (stage timings, store counters, per-row counts) as "
        "versioned JSON ('-' for stdout); with --jobs > 1 only the "
        "orchestrator-side metrics are captured",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="print only the aggregate summary",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    paths = list(args.paths)
    if args.corpus_dir is not None:
        for pattern in ("*.v", "*.bench"):
            paths.extend(
                sorted(glob.glob(os.path.join(args.corpus_dir, pattern)))
            )
    if args.itc99 is not None:
        paths.extend(itc99_corpus(args.itc99))
    if not paths:
        print(
            "error: empty corpus (give paths, --corpus-dir, or --itc99)",
            file=sys.stderr,
        )
        return EXIT_USAGE
    missing = [path for path in paths if not os.path.exists(path)]
    if missing:
        print(f"error: cannot read {missing[0]}", file=sys.stderr)
        return EXIT_USAGE
    try:
        _check_row_timeout(args.row_timeout)
        config = PipelineConfig(
            depth=args.depth,
            max_simultaneous=args.max_simultaneous,
            backend=args.backend,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    journal = args.journal
    if args.resume and journal is None:
        journal = DEFAULT_JOURNAL
    registry = None
    if args.metrics_json is not None:
        registry = _metrics.current() or _metrics.install()
    if args.store is not None and args.max_store_bytes is not None:
        # Open once up front so the cap is enforced even with jobs=1.
        from .store import ArtifactStore

        try:
            ArtifactStore(args.store, max_bytes=args.max_store_bytes)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE

    def announce(row: Dict) -> None:
        if args.quiet:
            return
        if row.get("quarantined"):
            reason = row["reason"]
            print(
                f"{row['design']}: QUARANTINED after "
                f"{reason['attempts']} attempts ({reason['type']}: "
                f"{reason['detail']})",
                file=sys.stderr,
            )
        else:
            triaged = row.get("triage")
            suffix = (
                f", {triaged['num_flagged']} gates flagged"
                if triaged is not None
                else ""
            )
            print(
                f"{row['design']}: {row['num_words']} words, "
                f"{row['cache']}, {row['wall_seconds']:.2f}s{suffix}"
            )

    report = analyze_corpus(
        paths,
        config,
        store=args.store,
        jobs=args.jobs,
        journal=journal,
        resume=args.resume,
        score=args.score,
        on_row=announce,
        row_timeout=args.row_timeout,
        triage=args.triage,
    )
    agg = report.aggregate
    print(
        f"{agg['designs']} designs: {agg['cache_hits']} hits / "
        f"{agg['cache_misses']} misses ({agg['hit_rate']:.1%} hit rate), "
        f"{agg['total_words']} words, "
        f"analysis {agg['analysis_seconds']:.2f}s, "
        f"wall {agg['wall_seconds']:.2f}s"
    )
    print(f"corpus digest {agg['corpus_digest'][:16]}")
    if agg["degraded"]:
        print(
            f"DEGRADED: {agg['quarantined']} row(s) quarantined "
            f"({', '.join(agg['quarantine_reasons'])}); "
            f"exit code {EXIT_DEGRADED}",
            file=sys.stderr,
        )
    if args.report is not None:
        import json

        payload = json.dumps(report.as_dict(), indent=2)
        if args.report == "-":
            print(payload)
        else:
            with open(args.report, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
    if registry is not None:
        import json

        payload = json.dumps(
            stamp({"metrics": registry.as_dict()}), indent=2
        )
        if args.metrics_json == "-":
            print(payload)
        else:
            with open(args.metrics_json, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
    return EXIT_DEGRADED if report.aggregate["degraded"] else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
