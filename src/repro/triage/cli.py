"""``repro triage`` — rank a netlist's gates by Trojan-region anomaly.

Runs word identification (any backend, store-accelerated), then
scores every gate against the recovered structure (DESIGN.md §16)::

    repro triage design.v                     # human-readable top 20
    repro triage design.v --top 50 --json -   # machine-readable ranking
    repro triage design.v --backend base      # triage a weaker backend

Exit codes follow :mod:`repro.exitcodes`: ``EXIT_DEGRADED`` when the
underlying identification had to quarantine work (the ranking is then
computed against partial structure), ``EXIT_STRICT`` when ``--strict``
turns that into an abort.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from ..core.pipeline import PipelineConfig
from ..core.resilience import BudgetExceeded, PreflightError
from ..exitcodes import EXIT_DEGRADED, EXIT_OK, EXIT_STRICT, EXIT_USAGE
from ..netlist.bench import BenchError
from ..netlist.verilog import VerilogError
from .scorer import TriageConfig

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro triage",
        description=(
            "Rank every gate by how poorly the identified word-level "
            "structure explains it (Trojan-region triage)."
        ),
    )
    parser.add_argument("netlist", help="gate-level netlist file")
    parser.add_argument(
        "--format", choices=("verilog", "bench"), default=None,
        help="input format (default: by file extension)",
    )
    parser.add_argument(
        "--backend", default="ours",
        help="identification backend to triage against (default: ours)",
    )
    parser.add_argument(
        "--store", default=None, metavar="DIR",
        help="artifact store: caches the identification AND the ranking",
    )
    parser.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="identification deadline (degrades instead of hanging)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="abort (exit 3) instead of triaging degraded structure",
    )
    parser.add_argument(
        "--threshold", type=float, default=TriageConfig.threshold,
        help="score at/above which a gate counts as flagged "
             "(default: %(default)s)",
    )
    parser.add_argument(
        "--top", type=int, default=None, metavar="N",
        help="emit only the N most anomalous gates (default: all in "
             "--json, 20 in the human listing)",
    )
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the stamped ranking as JSON ('-' for stdout)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        pipeline = PipelineConfig(
            backend=args.backend,
            deadline_s=args.deadline,
            strict=args.strict,
            preflight=True,
        )
        triage_config = TriageConfig(threshold=args.threshold)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.top is not None and args.top < 0:
        print("error: --top must be >= 0", file=sys.stderr)
        return EXIT_USAGE

    from ..api import Session

    session = Session(config=pipeline, store=args.store)
    try:
        report = session.triage(
            args.netlist, format=args.format, triage_config=triage_config
        )
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
        print(f"error (strict): {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_STRICT

    triage = report.triage
    degraded = report.analysis.trace.get("degraded", False)
    print(
        f"{report.design}: {triage.num_gates} gates ranked "
        f"(backend {report.backend}, {triage.num_flagged} flagged at "
        f">= {triage.config.threshold})"
    )
    shown = args.top if args.top is not None else 20
    for index, entry in enumerate(triage.top(shown)):
        feats = ", ".join(f"{k}={v:.2f}" for k, v in entry.features)
        print(f"  {index + 1:>3}. {entry.score:.4f}  {entry.gate}  "
              f"[{feats}]")
    if triage.num_gates > shown:
        print(f"  ... {triage.num_gates - shown} more "
              f"(--top to widen, --json for all)")
    print(f"triage digest: {report.triage_digest}")
    if degraded:
        print(
            "DEGRADED: identification quarantined work — ranking is "
            "against partial structure", file=sys.stderr,
        )

    if args.json is not None:
        payload = json.dumps(report.as_dict(top=args.top), indent=2)
        if args.json == "-":
            print(payload)
        else:
            with open(args.json, "w") as handle:
                handle.write(payload + "\n")
    return EXIT_DEGRADED if degraded else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
