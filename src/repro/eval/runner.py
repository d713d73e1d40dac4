"""Experiment runner: regenerate the paper's Table 1.

For each benchmark this runs the shape-hashing baseline ("Base") and the
control-signal technique ("Ours") on the same synthesized netlist, scores
both against the golden reference words, and assembles a
:class:`~repro.eval.table.BenchmarkRow`.

Run it as ``repro table1`` (or ``python -m repro.eval.runner``)::

    repro table1                    # all 12 benchmarks
    repro table1 b03 b12            # a subset
    repro table1 --jobs 4 --trace   # parallel + stage trace
    repro table1 --journal t1.jsonl # checkpoint each row
    repro table1 --resume           # continue a killed sweep

Checkpointing: with ``--journal`` every completed benchmark's row is
appended (and fsynced) to a JSONL journal as soon as it finishes, so a
killed or crashed sweep loses at most the benchmark that was in flight.
``--resume`` reloads the journal and skips every benchmark already
recorded there instead of restarting all 12.  A partially-written last
line (the process died mid-append) is ignored on reload.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from typing import Dict, List, Optional, Sequence

from ..core.baseline import baseline_config, shape_hashing
from ..core.pipeline import PipelineConfig, identify_words
from ..core.words import IdentificationResult
from ..netlist.netlist import Netlist
from .metrics import EvaluationMetrics, evaluate
from .reference import ReferenceWord, average_word_size, extract_reference_words
from .report import row_from_dict, row_to_dict
from .table import BenchmarkRow, TechniqueRow, render_table

__all__ = [
    "run_benchmark",
    "run_table1",
    "load_journal",
    "load_journal_entries",
    "append_journal_entry",
    "main",
    "BenchmarkRun",
    "DEFAULT_JOURNAL",
]

#: Journal path used by ``--resume`` when ``--journal`` is not given.
DEFAULT_JOURNAL = "table1.journal.jsonl"


class BenchmarkRun:
    """Everything produced by evaluating one benchmark netlist."""

    def __init__(
        self,
        netlist: Netlist,
        reference: List[ReferenceWord],
        base_result: IdentificationResult,
        ours_result: IdentificationResult,
        base_metrics: EvaluationMetrics,
        ours_metrics: EvaluationMetrics,
    ):
        self.netlist = netlist
        self.reference = reference
        self.base_result = base_result
        self.ours_result = ours_result
        self.base_metrics = base_metrics
        self.ours_metrics = ours_metrics

    def row(self) -> BenchmarkRow:
        return BenchmarkRow(
            name=self.netlist.name,
            num_gates=self.netlist.num_gates,
            num_nets=self.netlist.num_nets,
            num_ffs=self.netlist.num_ffs,
            num_words=len(self.reference),
            avg_word_size=average_word_size(self.reference),
            base=_technique_row("Base", self.base_result, self.base_metrics),
            ours=_technique_row("Ours", self.ours_result, self.ours_metrics),
        )


def _technique_row(
    name: str, result: IdentificationResult, metrics: EvaluationMetrics
) -> TechniqueRow:
    return TechniqueRow(
        technique=name,
        pct_full=metrics.pct_full,
        fragmentation_rate=metrics.fragmentation_rate,
        pct_not_found=metrics.pct_not_found,
        time_seconds=result.runtime_seconds,
        num_control_signals=len(result.control_signals),
    )


def run_benchmark(
    netlist: Netlist,
    config: Optional[PipelineConfig] = None,
    store=None,
) -> BenchmarkRun:
    """Evaluate Base and Ours on one netlist against its golden words.

    ``store`` — an optional :class:`repro.store.ArtifactStore`; Base and
    Ours then run through :class:`repro.api.Session` and are cached under
    their own keys (``allow_partial`` is in the fingerprint), so a repeat
    sweep loads both from disk.
    """
    config = config or PipelineConfig()
    reference = extract_reference_words(netlist)
    base_config = replace(
        baseline_config(
            depth=config.depth, grouping=config.grouping, jobs=config.jobs
        ),
        deadline_s=config.deadline_s,
        max_assignments=config.max_assignments,
        max_cone_gates=config.max_cone_gates,
        strict=config.strict,
    )
    if store is None:
        base_result = shape_hashing(netlist, base_config)
        ours_result = identify_words(netlist, config)
    else:
        from ..api import Session

        base_result = Session(base_config, store).analyze(netlist).result
        ours_result = Session(config, store).analyze(netlist).result
    return BenchmarkRun(
        netlist=netlist,
        reference=reference,
        base_result=base_result,
        ours_result=ours_result,
        base_metrics=evaluate(reference, base_result),
        ours_metrics=evaluate(reference, ours_result),
    )


def load_journal_entries(path: str, key: str = "benchmark") -> Dict[str, dict]:
    """Raw entries from a JSONL checkpoint journal, keyed by ``entry[key]``.

    The generic resume primitive shared by the Table 1 sweep and the
    ``repro batch`` corpus orchestrator.  Tolerates a torn final line
    (the run was killed mid-append): the damaged entry is dropped and its
    unit of work simply re-runs.  A missing journal is an empty run, not
    an error.  Later duplicates win, so re-running a unit supersedes its
    old row.
    """
    completed: Dict[str, dict] = {}
    try:
        with open(path) as handle:
            lines = handle.readlines()
    except OSError:
        return completed
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
            completed[entry[key]] = entry
        except (ValueError, KeyError, TypeError):
            continue  # torn or foreign line — re-run that unit
    return completed


def append_journal_entry(path: str, entry: dict) -> None:
    """Append one completed entry and force it to disk (crash-safe).

    A run killed mid-append leaves a torn final line with no newline;
    writing straight after it would fuse the next (valid) entry onto
    the damaged one and silently lose *both*.  Appends therefore start
    on a fresh line whenever the file does not already end in one.
    """
    with open(path, "a+b") as handle:
        handle.seek(0, os.SEEK_END)
        if handle.tell() > 0:
            handle.seek(-1, os.SEEK_END)
            if handle.read(1) != b"\n":
                handle.write(b"\n")
        handle.write((json.dumps(entry) + "\n").encode("utf-8"))
        handle.flush()
        os.fsync(handle.fileno())


def load_journal(path: str) -> Dict[str, BenchmarkRow]:
    """Completed Table 1 rows from a journal, keyed by benchmark name."""
    completed: Dict[str, BenchmarkRow] = {}
    for name, entry in load_journal_entries(path, key="benchmark").items():
        try:
            completed[name] = row_from_dict(entry)
        except (KeyError, TypeError):
            continue  # foreign shape — re-run that benchmark
    return completed


def _append_journal(path: str, row: BenchmarkRow) -> None:
    append_journal_entry(path, row_to_dict(row))


def run_table1(
    names: Optional[Sequence[str]] = None,
    config: Optional[PipelineConfig] = None,
    on_run=None,
    journal: Optional[str] = None,
    resume: bool = False,
    store=None,
) -> List[BenchmarkRow]:
    """Synthesize and evaluate the Table 1 benchmarks; returns their rows.

    ``on_run`` — an optional ``(name, BenchmarkRun)`` callback invoked after
    each benchmark completes — gives callers the full runs (stage traces,
    raw results) without holding every netlist alive in a list.

    ``journal`` — path of a JSONL checkpoint file; each row is appended as
    soon as its benchmark completes.  With ``resume=True``, benchmarks
    already in the journal are returned from it without re-running (and
    ``on_run`` is not called for them); without ``resume``, an existing
    journal is started over.
    """
    from ..synth.designs import BENCHMARKS  # deferred: designs are heavy

    selected = list(names) if names else list(BENCHMARKS)
    completed: Dict[str, BenchmarkRow] = {}
    if journal is not None:
        if resume:
            completed = load_journal(journal)
        elif os.path.exists(journal):
            os.remove(journal)  # fresh sweep: start the journal over
    rows: List[BenchmarkRow] = []
    for name in selected:
        if name not in BENCHMARKS:
            raise KeyError(
                f"unknown benchmark {name!r}; have {sorted(BENCHMARKS)}"
            )
        if name in completed:
            rows.append(completed[name])
            continue
        netlist = BENCHMARKS[name]()
        run = run_benchmark(netlist, config, store=store)
        if on_run is not None:
            on_run(name, run)
        row = run.row()
        if journal is not None:
            _append_journal(journal, row)
        rows.append(row)
    return rows


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro table1",
        description="Reproduce Table 1 of Tashjian & Davoodi, DAC 2015",
    )
    parser.add_argument(
        "benchmarks",
        nargs="*",
        help="benchmark names (default: all of Table 1)",
    )
    parser.add_argument(
        "--depth", type=int, default=4, help="fanin-cone depth (default 4)"
    )
    parser.add_argument(
        "--max-simultaneous",
        type=int,
        default=2,
        help="max control signals assigned at once (default 2)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker threads for the assignment search (results are "
        "identical for any value)",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="print each benchmark's stage timings and cache hit rates",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        metavar="SECONDS",
        default=None,
        help="per-benchmark wall-clock deadline; an expired benchmark "
        "reports its partial words instead of stalling the sweep",
    )
    parser.add_argument(
        "--budget",
        type=int,
        metavar="N",
        default=None,
        help="cap on control-signal assignments tried per subgroup",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="re-raise budget violations and worker failures instead of "
        "degrading",
    )
    parser.add_argument(
        "--journal",
        metavar="PATH",
        default=None,
        help="checkpoint each completed benchmark's row to this JSONL "
        f"file (--resume defaults it to {DEFAULT_JOURNAL})",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="skip benchmarks already recorded in the journal (a killed "
        "sweep continues from the last completed benchmark)",
    )
    parser.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="artifact-store directory; Base and Ours results are cached "
        "there, so a repeat sweep reloads instead of recomputing",
    )
    parser.add_argument(
        "--json", metavar="PATH", help="also write the rows as JSON"
    )
    parser.add_argument(
        "--csv", metavar="PATH", help="also write the rows as CSV"
    )
    args = parser.parse_args(argv)
    journal = args.journal
    if args.resume and journal is None:
        journal = DEFAULT_JOURNAL
    config = PipelineConfig(
        depth=args.depth,
        max_simultaneous=args.max_simultaneous,
        jobs=args.jobs,
        deadline_s=args.deadline,
        max_assignments=args.budget,
        strict=args.strict,
    )

    def print_trace(name: str, run: BenchmarkRun) -> None:
        print(f"--- {name} ---")
        for line in run.ours_result.trace.extended_lines():
            print(f"  {line}")

    store = None
    if args.store is not None:
        from ..store import ArtifactStore

        store = ArtifactStore(args.store)
    rows = run_table1(
        args.benchmarks or None,
        config,
        on_run=print_trace if args.trace else None,
        journal=journal,
        resume=args.resume,
        store=store,
    )
    print(render_table(rows))
    if args.json:
        from .report import rows_to_json

        with open(args.json, "w") as handle:
            handle.write(rows_to_json(rows) + "\n")
    if args.csv:
        from .report import rows_to_csv

        with open(args.csv, "w") as handle:
            handle.write(rows_to_csv(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
