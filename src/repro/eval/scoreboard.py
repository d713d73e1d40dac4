"""Per-backend Table-1 scoreboard over the fuzz corpus (exact truth).

The ITC99 sweep (:mod:`repro.eval.runner`) scores techniques against
reference words reconstructed from net naming; the fuzz generator gives
something strictly stronger — samples with *exact* word-level ground
truth and per-word regime labels.  This module runs every registered
identification backend over such a corpus and aggregates the paper's
Table 1 metrics (%full, fragmentation rate, %not-found) per backend and
per structural regime, so a new backend lands with a scorecard against
`ours`/`base` on the same designs, including the adversarial sram/cam
regimes added for exactly this purpose.

Campaigns journal one JSONL row per sample (fsynced, torn-line safe —
the primitives of :mod:`repro.eval.runner`), so an interrupted
``repro scoreboard --journal`` resumes where it stopped.  The final
payload is schema-stamped (``kind: "scoreboard"``).
"""

from __future__ import annotations

import argparse
import bisect
import json
import sys
from dataclasses import replace as dc_replace
from typing import Dict, List, Optional, Sequence

from ..core.backends import backend_names, resolve
from ..core.pipeline import PipelineConfig, identify_words
from ..eval.metrics import FULL, NOT_FOUND, PARTIAL, evaluate
from ..eval.reference import extract_reference_words
from ..exitcodes import EXIT_OK, EXIT_USAGE
from ..fuzz.generator import GeneratorConfig, generate, sample_seed
from ..schema import stamp
from ..triage import triage_netlist
from .runner import append_journal_entry, load_journal_entries

__all__ = [
    "DEFAULT_BACKENDS",
    "DEFAULT_SAMPLES",
    "run_scoreboard",
    "render_scoreboard",
    "main",
]

DEFAULT_BACKENDS = ("ours", "base")

#: The acceptance floor: enough draws that every regime — including the
#: two ~5%-weight sram/cam regimes — appears several times.
DEFAULT_SAMPLES = 50


def _sample_key(campaign_seed: int, index: int) -> str:
    return f"{campaign_seed}:{index}"


# ----------------------------------------------------------------------
# Trojan-triage ROC scoring (repro scoreboard --triage)
# ----------------------------------------------------------------------

def _roc_auc(
    positives: Sequence[float], negatives: Dict[str, int]
) -> Optional[float]:
    """Exact ROC AUC from positive scores + a negative-score histogram.

    AUC is the probability a uniformly drawn (trojan, normal) gate pair
    is ranked correctly, ties counting half — computed directly from the
    Mann-Whitney statistic, no threshold sweep.  ``negatives`` maps the
     6-decimal score spelling (the journal form) to its gate count.
    ``None`` when either class is empty (AUC is undefined, not zero).
    """
    if not positives or not negatives:
        return None
    binned = sorted((float(score), count) for score, count in negatives.items())
    scores = [score for score, _ in binned]
    cumulative = [0]
    for _, count in binned:
        cumulative.append(cumulative[-1] + count)
    total = cumulative[-1]
    wins = 0.0
    for p in positives:
        lo = bisect.bisect_left(scores, p)
        hi = bisect.bisect_right(scores, p)
        wins += cumulative[lo] + 0.5 * (cumulative[hi] - cumulative[lo])
    return wins / (len(positives) * total)


def _triage_section(sample, result, trojan_gates) -> Dict:
    """One backend's triage scorecard on one sample — the journal form.

    Carries the trojan-gate scores and a histogram of everything else
    (scores are already rounded to 6 decimals, and smoothing makes heavy
    ties, so the histogram is small), which is exactly enough to fold an
    *exact* pooled ROC across the whole campaign from journal rows alone.
    """
    triage = triage_netlist(sample.netlist, result)
    positives: List[float] = []
    negatives: Dict[str, int] = {}
    for entry in triage.scores:
        if entry.gate in trojan_gates:
            positives.append(entry.score)
        else:
            key = f"{entry.score:.6f}"
            negatives[key] = negatives.get(key, 0) + 1
    n = triage.num_gates
    top = {entry.gate for entry in triage.top(max(1, n // 10))}
    return {
        "gates": n,
        "trojan_gates": len(positives),
        "auc": _roc_auc(positives, negatives),
        "top_decile": sum(1 for gate in trojan_gates if gate in top),
        "positives": sorted(positives),
        "negatives": negatives,
    }


def _aggregate_triage(
    rows: Sequence[Dict], name: str
) -> Optional[Dict]:
    """Fold per-sample triage sections into one backend's ROC summary."""
    sections = [
        row["backends"][name]["triage"]
        for row in rows
        if "triage" in row["backends"].get(name, {})
    ]
    if not sections:
        return None
    positives: List[float] = []
    negatives: Dict[str, int] = {}
    per_sample: List[float] = []
    trojan_gates = 0
    top_decile = 0
    for section in sections:
        positives.extend(section["positives"])
        for score, count in section["negatives"].items():
            negatives[score] = negatives.get(score, 0) + count
        trojan_gates += section["trojan_gates"]
        top_decile += section["top_decile"]
        if section["auc"] is not None:
            per_sample.append(section["auc"])
    return {
        "samples": len(sections),
        "trojan_samples": len(per_sample),
        "trojan_gates": trojan_gates,
        "auc": _roc_auc(positives, negatives),
        "auc_mean": (
            sum(per_sample) / len(per_sample) if per_sample else None
        ),
        "auc_min": min(per_sample) if per_sample else None,
        "top_decile_rate": (
            top_decile / trojan_gates if trojan_gates else 0.0
        ),
    }


def _score_sample(
    campaign_seed: int,
    index: int,
    backends: Sequence[str],
    depth: int,
    config: GeneratorConfig,
    triage: bool = False,
) -> Dict:
    """One journal row: every backend scored on one generated sample."""
    sample = generate(sample_seed(campaign_seed, index), config)
    reference = extract_reference_words(sample.netlist, min_width=2)
    regime_of = {w.register: w.regime for w in sample.truth}
    trojan_gates = set(sample.trojan_gates)
    row: Dict = {
        "sample": _sample_key(campaign_seed, index),
        "seed": sample.seed,
        "index": index,
        "words": len(sample.truth),
        "backends": {},
    }
    for name in backends:
        run_config = PipelineConfig(depth=depth, backend=name)
        result = identify_words(sample.netlist, run_config)
        metrics = evaluate(reference, result)
        outcomes = []
        for outcome in metrics.outcomes:
            register = outcome.reference.register
            if register not in regime_of:
                continue  # separator/decoy registers are not truth words
            outcomes.append({
                "register": register,
                "regime": regime_of[register],
                "status": outcome.status,
                "fragmentation_rate": outcome.fragmentation_rate,
            })
        scored = {
            "outcomes": outcomes,
            "runtime_seconds": result.runtime_seconds,
        }
        if triage:
            scored["triage"] = _triage_section(sample, result, trojan_gates)
        row["backends"][name] = scored
    return row


def _aggregate(rows: Sequence[Dict], backends: Sequence[str]) -> Dict:
    """Fold journal rows into the per-backend scoreboard payload."""
    boards: Dict[str, Dict] = {}
    for name in backends:
        total = {FULL: 0, PARTIAL: 0, NOT_FOUND: 0}
        frag_rates: List[float] = []
        regimes: Dict[str, Dict[str, int]] = {}
        runtime = 0.0
        for row in rows:
            scored = row["backends"].get(name)
            if scored is None:
                continue
            runtime += scored.get("runtime_seconds", 0.0)
            for outcome in scored["outcomes"]:
                status = outcome["status"]
                total[status] += 1
                if status == PARTIAL:
                    frag_rates.append(outcome["fragmentation_rate"])
                per_regime = regimes.setdefault(
                    outcome["regime"], {FULL: 0, PARTIAL: 0, NOT_FOUND: 0}
                )
                per_regime[status] += 1
        words = sum(total.values())
        boards[name] = {
            "version": resolve(name).version,
            "words": words,
            "full": total[FULL],
            "partial": total[PARTIAL],
            "not_found": total[NOT_FOUND],
            "pct_full": 100.0 * total[FULL] / words if words else 0.0,
            "pct_not_found": (
                100.0 * total[NOT_FOUND] / words if words else 0.0
            ),
            "fragmentation_rate": (
                sum(frag_rates) / len(frag_rates) if frag_rates else 0.0
            ),
            "runtime_seconds": runtime,
            "regimes": {r: regimes[r] for r in sorted(regimes)},
            "triage": _aggregate_triage(rows, name),
        }
    return boards


def run_scoreboard(
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    backends: Sequence[str] = DEFAULT_BACKENDS,
    depth: int = 4,
    journal: Optional[str] = None,
    generator_config: GeneratorConfig = GeneratorConfig(),
    progress=None,
    triage: bool = False,
) -> Dict:
    """Score ``backends`` over ``samples`` generated designs.

    Returns the schema-stamped scoreboard payload.  With ``journal``,
    per-sample rows are appended as they complete and rows already
    journaled (matching campaign seed and index) are not re-run.

    ``triage`` additionally runs the Trojan-region triage scorer
    (:mod:`repro.triage`) per backend per sample and folds an exact
    pooled ROC AUC into each backend's board; unless the caller already
    armed ``generator_config.trojan_rate``, every sample is injected
    with plan-drawn Trojans so the positive class is never empty.
    """
    for name in backends:
        resolve(name)  # fail fast, before any synthesis work
    if triage and not generator_config.trojan_rate:
        generator_config = dc_replace(generator_config, trojan_rate=1.0)
    completed: Dict[str, Dict] = {}
    if journal:
        for key, entry in load_journal_entries(journal, key="sample").items():
            # Only rows from this campaign that cover every requested
            # backend count as done; others re-run (superseding appends).
            # A --triage campaign also needs each backend's triage
            # section — rows journaled without one are re-scored.
            scored = entry.get("backends", {})
            if scored.keys() < set(backends):
                continue
            if triage and any(
                "triage" not in scored[name] for name in backends
            ):
                continue
            completed[key] = entry
    rows: List[Dict] = []
    for index in range(samples):
        key = _sample_key(seed, index)
        row = completed.get(key)
        if row is None:
            row = _score_sample(
                seed, index, backends, depth, generator_config, triage
            )
            if journal:
                append_journal_entry(journal, row)
        rows.append(row)
        if progress is not None:
            progress(index + 1, samples)
    regimes_present = sorted({
        outcome["regime"]
        for row in rows
        for scored in row["backends"].values()
        for outcome in scored["outcomes"]
    })
    return stamp({
        "kind": "scoreboard",
        "campaign_seed": seed,
        "samples": samples,
        "depth": depth,
        "triage": triage,
        "regimes_present": regimes_present,
        "backends": _aggregate(rows, backends),
    })


def render_scoreboard(payload: Dict) -> str:
    """Fixed-width text rendering, one backend per row (Table 1 style)."""
    lines = [
        f"Backend scoreboard — {payload['samples']} fuzz samples "
        f"(campaign seed {payload['campaign_seed']}), "
        f"{len(payload['regimes_present'])} regimes",
        "",
        f"{'backend':<10} {'words':>5} {'full%':>7} {'frag':>6} "
        f"{'notfound%':>9}  {'seconds':>8}",
    ]
    for name, board in payload["backends"].items():
        lines.append(
            f"{name:<10} {board['words']:>5} {board['pct_full']:>7.1f} "
            f"{board['fragmentation_rate']:>6.2f} "
            f"{board['pct_not_found']:>9.1f}  "
            f"{board['runtime_seconds']:>8.2f}"
        )
    if any(board.get("triage") for board in payload["backends"].values()):
        lines.append("")
        lines.append("trojan triage (ROC over injected trojan gates):")
        lines.append(
            f"{'backend':<10} {'auc':>7} {'mean':>7} {'min':>7} "
            f"{'top-decile':>11} {'trojans':>8}"
        )
        for name, board in payload["backends"].items():
            summary = board.get("triage")
            if not summary:
                continue

            def fmt(value):
                return f"{value:.3f}" if value is not None else "n/a"

            lines.append(
                f"{name:<10} {fmt(summary['auc']):>7} "
                f"{fmt(summary['auc_mean']):>7} "
                f"{fmt(summary['auc_min']):>7} "
                f"{summary['top_decile_rate']:>11.1%} "
                f"{summary['trojan_gates']:>8}"
            )
    lines.append("")
    lines.append("full-found words per regime:")
    regimes = payload["regimes_present"]
    header = f"{'regime':<12}" + "".join(
        f"{name:>9}" for name in payload["backends"]
    )
    lines.append(header)
    for regime in regimes:
        cells = []
        for board in payload["backends"].values():
            counts = board["regimes"].get(
                regime, {FULL: 0, PARTIAL: 0, NOT_FOUND: 0}
            )
            words = sum(counts.values())
            cells.append(f"{counts[FULL]:>5}/{words:<3}")
        lines.append(f"{regime:<12}" + "".join(f"{c:>9}" for c in cells))
    return "\n".join(lines)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro scoreboard",
        description="Score identification backends against exact fuzz "
        "ground truth (per-backend Table 1 over generated designs)",
    )
    parser.add_argument(
        "--samples", type=int, default=DEFAULT_SAMPLES,
        help="generated designs to score (default %(default)s)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="campaign seed (default %(default)s)",
    )
    parser.add_argument(
        "--backends", default=",".join(DEFAULT_BACKENDS),
        help="comma-separated backend names (default %(default)s)",
    )
    parser.add_argument(
        "--depth", type=int, default=4,
        help="fanin-cone depth for every backend (default %(default)s)",
    )
    parser.add_argument(
        "--triage",
        action="store_true",
        help="inject plan-drawn Trojans into every sample and score the "
        "triage ranking per backend (pooled ROC AUC over trojan gates)",
    )
    parser.add_argument(
        "--journal", metavar="PATH", default=None,
        help="append per-sample JSONL rows here and resume completed "
        "samples on re-run",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the stamped scoreboard payload to PATH ('-' for "
        "stdout)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    backends = tuple(
        name.strip() for name in args.backends.split(",") if name.strip()
    )
    if args.samples < 1:
        print("error: --samples must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    try:
        PipelineConfig(depth=args.depth)  # a run's own range checks
        for name in backends:
            resolve(name)
    except ValueError as exc:  # an unknown backend included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if not backends:
        print(
            "error: --backends named no backend; registered backends: "
            + ", ".join(backend_names()),
            file=sys.stderr,
        )
        return EXIT_USAGE

    def progress(done: int, total: int) -> None:
        print(f"\rscored {done}/{total} samples", end="", file=sys.stderr)
        if done == total:
            print(file=sys.stderr)

    payload = run_scoreboard(
        samples=args.samples,
        seed=args.seed,
        backends=backends,
        depth=args.depth,
        journal=args.journal,
        progress=progress if sys.stderr.isatty() else None,
        triage=args.triage,
    )
    if args.json == "-":
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        print()
    else:
        if args.json:
            with open(args.json, "w") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
                handle.write("\n")
        print(render_scoreboard(payload))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
