"""Command-line interface: identify words in a netlist file.

This is the tool a downstream user actually runs::

    repro identify design.v                      # structural Verilog
    repro identify design.bench --format bench   # ISCAS .bench
    repro identify design.v --backend base       # shape hashing [6] only
    repro identify design.v --backend regfeat    # feature-vector backend
    repro identify design.v --json report.json   # machine-readable output
    repro identify design.v --depth 5 --max-simultaneous 3
    repro identify design.v --trace              # stage timings + caches
    repro identify design.v --trace-json t.json  # machine-readable trace
    repro identify design.v --propagate          # + word propagation
    repro identify design.v --score              # vs golden register names
    repro identify design.v --deadline 30        # wall-clock budget (s)
    repro identify design.v --budget 500         # assignments per subgroup
    repro identify design.v --strict             # degradations become errors
    repro identify design.v --store .repro-cache # reuse cached results

The file goes through :meth:`repro.api.Session.analyze`, which probes
the store before it parses: with ``--store`` the result is keyed by the
file's bytes (the same key ``repro serve`` uses for a request carrying
those bytes), a warm run parses nothing, and a cold run stores the
file's bytes as the body.  ``--propagate``, ``--operators``, ``--score``
and ``--verify-reductions`` read the netlist itself: a run with one of
them loads the file first (one read, one parse) and analyzes that
netlist, which keeps the file's key; a cold ``--store`` run then stores
the netlist's ``write_verilog`` text as the body.

Exit code 0 on success — including degraded runs, where a deadline or
budget fired, or a subgroup search was quarantined, and the partial words
were still emitted (the degradation reason lands in ``--trace`` /
``--trace-json``).  Exit 2 on unreadable/unparseable input or when
``--score`` finds no golden register names to score against, and 3 when
``--strict`` turned a budget violation, pre-flight diagnostic, or search
failure into an error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .api import AnalysisReport, Session
from .core import PipelineConfig
from .core.modules import identify_operators
from .core.propagation import propagate_words
from .core.resilience import BudgetExceeded, PreflightError
from .core.words import SIGNATURE_KERNEL
from .eval import evaluate, extract_reference_words
from .exitcodes import EXIT_CHECK_FAILED, EXIT_OK, EXIT_STRICT, EXIT_USAGE
from .netlist.bench import BenchError
from .netlist.verilog import VerilogError
from .schema import stamp

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro identify",
        description="Word-level identification in a gate-level netlist "
        "(Tashjian & Davoodi, DAC 2015)",
    )
    parser.add_argument("netlist", help="path to the netlist file")
    parser.add_argument(
        "--format",
        choices=["verilog", "bench"],
        default=None,
        help="input format (default: guessed from the file suffix)",
    )
    parser.add_argument(
        "--depth", type=int, default=4, help="fanin-cone depth (default 4)"
    )
    parser.add_argument(
        "--max-simultaneous",
        type=int,
        default=2,
        help="control signals assigned at once (default 2, the paper's cap)",
    )
    parser.add_argument(
        "--backend",
        default="ours",
        metavar="NAME",
        help="identification backend: ours (default), base (shape "
        "hashing [6]), or regfeat (feature-vector register aggregation); "
        "see repro.core.backends",
    )
    parser.add_argument(
        "--propagate",
        action="store_true",
        help="grow the identified words by WordRev-style propagation",
    )
    parser.add_argument(
        "--operators",
        action="store_true",
        help="recognize datapath operators over the recovered words",
    )
    parser.add_argument(
        "--score",
        action="store_true",
        help="score against golden words from *_reg_<i> register names",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        metavar="SECONDS",
        default=None,
        help="wall-clock deadline for the run; on expiry the partial "
        "words found so far are emitted and the reason is traced",
    )
    parser.add_argument(
        "--budget",
        type=int,
        metavar="N",
        default=None,
        help="cap on control-signal assignments tried per subgroup; a "
        "subgroup that hits it keeps the best partition seen",
    )
    parser.add_argument(
        "--max-cone-gates",
        type=int,
        metavar="N",
        default=None,
        help="skip the reduction search on subgroups whose extracted "
        "subcircuit exceeds N gates",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="turn degradations (budget hits, quarantined subgroups, "
        "pre-flight warnings) into hard errors (exit 3)",
    )
    parser.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="artifact-store directory; the result is loaded from it on "
        "a repeat run and committed to it otherwise (see DESIGN.md §10)",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="print the per-stage trace: counters, timings, cache hit rates",
    )
    parser.add_argument(
        "--trace-json",
        metavar="PATH",
        default=None,
        help="write the machine-readable stage trace ('-' for stdout)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write a machine-readable report ('-' for stdout)",
    )
    parser.add_argument(
        "--min-width",
        type=int,
        default=2,
        help="suppress words narrower than this in the listing (default 2)",
    )
    parser.add_argument(
        "--verify-reductions",
        action="store_true",
        help="re-check every committed control-signal reduction "
        "functionally (simulation on assignment-consistent random "
        "vectors); exit 4 on a mismatch",
    )
    return parser


def _report(
    analysis: AnalysisReport,
    derived,
    operators,
    args,
) -> dict:
    result = analysis.result
    report = stamp({
        "netlist": {
            "name": analysis.design,
            "gates": analysis.num_gates,
            "nets": analysis.num_nets,
            "flip_flops": analysis.num_ffs,
        },
        "config": {
            # "technique" predates the backend registry and mirrors the
            # backend name for old consumers; "backend" is authoritative.
            "technique": result.trace.backend,
            "backend": result.trace.backend,
            "kernel": SIGNATURE_KERNEL,
            "depth": args.depth,
            "max_simultaneous": args.max_simultaneous,
            "deadline_s": args.deadline,
            "max_assignments": args.budget,
            "max_cone_gates": args.max_cone_gates,
            "strict": args.strict,
        },
        "words": [list(w.bits) for w in result.words],
        "control_signals": list(result.control_signals),
        "control_assignments": [
            {"word": list(word.bits), "assignment": assignment.as_dict()}
            for word, assignment in result.control_assignments.items()
        ],
        # Lets callers (the serve-smoke CI job in particular) check that
        # the HTTP and CLI paths produced the same result.
        "result_digest": analysis.result_digest,
        "runtime_seconds": result.runtime_seconds,
        "trace": result.trace.as_dict(),
    })
    if derived is not None:
        report["propagated_words"] = [list(w.bits) for w in derived]
    if operators is not None:
        report["operators"] = [
            {
                "kind": m.kind,
                "output": list(m.output.bits),
                "inputs": [list(w.bits) for w in m.inputs],
                "scalar": m.scalar,
                "verified": m.verified,
            }
            for m in operators
        ]
    return report


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = PipelineConfig(
            depth=args.depth,
            max_simultaneous=args.max_simultaneous,
            backend=args.backend,
            deadline_s=args.deadline,
            max_assignments=args.budget,
            max_cone_gates=args.max_cone_gates,
            strict=args.strict,
            preflight=True,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    session = Session(config=config, store=args.store)
    try:
        netlist = None
        if (
            args.propagate or args.operators or args.score
            or args.verify_reductions
        ):
            # One read and one parse: the loaded netlist keeps the
            # file's key, so analyzing it probes the same entry.
            netlist = session.load_netlist(args.netlist, args.format)
            analysis = session.analyze(netlist)
        else:
            analysis = session.analyze(args.netlist, args.format)
    except OSError as exc:
        print(f"error: cannot read {args.netlist}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (VerilogError, BenchError) as exc:
        print(f"error: cannot parse {args.netlist}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (BudgetExceeded, PreflightError) as exc:
        print(f"error (strict): {exc}", file=sys.stderr)
        return EXIT_STRICT
    except Exception as exc:
        if not args.strict:
            raise
        print(f"error (strict): {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_STRICT
    result = analysis.result

    derived = None
    operators = None
    all_words = list(result.words)
    if args.propagate:
        grown = propagate_words(netlist, result.words)
        derived = grown.derived
        all_words = grown.words

    technique = {
        "base": "shape hashing [6]",
        "ours": "control-signal technique",
        "regfeat": "feature-vector aggregation",
    }.get(config.backend, config.backend)
    print(f"{analysis.design}: {analysis.num_gates} gates, "
          f"{analysis.num_nets} nets, {analysis.num_ffs} flip-flops")
    words = [w for w in result.words if w.width >= args.min_width]
    print(f"{technique}: {len(words)} words "
          f"({result.runtime_seconds:.2f}s)")
    for word in sorted(words, key=lambda w: -w.width):
        suffix = ""
        if word in result.control_assignments:
            suffix = f"    [via {result.control_assignments[word]}]"
        print(f"  [{word.width:>2}] {', '.join(word.bits)}{suffix}")
    if result.control_signals:
        print(f"relevant control signals: "
              f"{', '.join(result.control_signals)}")
    for diag in result.trace.preflight:
        print(f"pre-flight [{diag['severity']}]: {diag['message']}",
              file=sys.stderr)
    if result.trace.degraded:
        suffix = " (deadline hit)" if result.trace.deadline_hit else ""
        print(f"DEGRADED: {len(result.trace.failures)} quarantined "
              f"failure(s){suffix} — words above are partial",
              file=sys.stderr)
        for failure in result.trace.failures:
            print(f"  {failure.describe()}", file=sys.stderr)
    if derived:
        print(f"propagation derived {len(derived)} more words:")
        for word in derived:
            print(f"  [{word.width:>2}] {', '.join(word.bits)}")

    if args.operators:
        operators = [
            m for m in identify_operators(netlist, all_words)
            if m.kind != "buf"
        ]
        print(f"recognized operators: {len(operators)}")
        for match in operators:
            print(f"  {match.describe()}")

    if args.score:
        reference = extract_reference_words(netlist)
        if not reference:
            # A netlist with no recoverable golden register names has
            # nothing to score against: that is a usage error (exit 2),
            # not a 0%-accuracy result or a traceback.
            print(
                f"error: --score needs golden words, but {args.netlist} "
                f"has no *_reg_<i> register names to derive them from",
                file=sys.stderr,
            )
            return EXIT_USAGE
        metrics = evaluate(reference, result)
        print(
            f"score vs {len(reference)} golden words: "
            f"{metrics.pct_full:.1f}% full, "
            f"fragmentation {metrics.fragmentation_rate:.2f}, "
            f"{metrics.pct_not_found:.1f}% not found"
        )

    if args.verify_reductions:
        from .fuzz.oracles import verify_reductions

        problems = verify_reductions(netlist, result, depth=args.depth)
        checked = sum(
            1 for a in result.control_assignments.values() if a.assignments
        )
        if problems:
            print(f"reduction check: {len(problems)} problem(s)",
                  file=sys.stderr)
            for problem in problems:
                print(f"  {problem}", file=sys.stderr)
            return EXIT_CHECK_FAILED
        print(f"reduction check: {checked} committed assignment(s) "
              f"verified functionally")

    if args.trace:
        for line in result.trace.extended_lines():
            print(f"  {line}")

    if args.trace_json is not None:
        payload = json.dumps(stamp(result.trace.as_dict()), indent=2)
        if args.trace_json == "-":
            print(payload)
        else:
            with open(args.trace_json, "w") as handle:
                handle.write(payload + "\n")

    if args.json is not None:
        payload = json.dumps(
            _report(analysis, derived, operators, args), indent=2
        )
        if args.json == "-":
            print(payload)
        else:
            with open(args.json, "w") as handle:
                handle.write(payload + "\n")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
