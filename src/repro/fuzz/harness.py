"""The corpus runner behind the ``repro fuzz`` CLI.

A campaign is fully determined by ``(seed, samples, generator config)``:
per-sample seeds come from :func:`repro.fuzz.generator.sample_seed`, so
the same invocation always produces the same corpus, the same verdicts
and the same report digest — which is itself one of the acceptance
checks (re-running a campaign must reproduce its digest byte for byte).

When a sample fails an oracle, the harness *shrinks* it: greedy passes
over the sample's :class:`~repro.fuzz.generator.SamplePlan` (drop a word,
drop the decoys, drop a condition, zero the datapath, halve a width)
keeping each edit only if a originally-failing oracle still fails on the
rebuilt sample.  Because plans are pure data and building is
deterministic, edits compose without RNG-stream coupling.  The shrunk
sample is emitted as a reproducer directory::

    fuzz_failures/s<campaign>-i<index>/
        original.v   # the failing netlist as synthesized
        shrunk.v     # the minimized netlist
        report.json  # seeds, verdicts, original + shrunk plans

Re-running a reproducer needs no corpus state:
``repro fuzz --seed <campaign> --index <index>``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple

from ..core.resilience import Deadline
from ..exitcodes import EXIT_FAILURE, EXIT_OK
from ..netlist.verilog import write_verilog
from .generator import (
    FuzzSample,
    GeneratorConfig,
    SamplePlan,
    build_sample,
    plan_sample,
    sample_seed,
)
from .oracles import DEFAULT_ORACLES, OracleVerdict, run_oracles

__all__ = [
    "HarnessConfig",
    "SampleVerdicts",
    "FailureRecord",
    "FuzzReport",
    "run_campaign",
    "main",
]


@dataclass(frozen=True)
class HarnessConfig:
    """One campaign's knobs (see ``repro fuzz --help``)."""

    seed: int = 0
    samples: int = 50
    index: Optional[int] = None  # run a single corpus index
    depth: int = 4
    shrink: bool = True
    max_shrink_builds: int = 150
    time_budget: Optional[float] = None  # wall-clock seconds for the run
    output_dir: Path = Path("fuzz_failures")
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)


@dataclass
class SampleVerdicts:
    """All oracle verdicts for one corpus sample."""

    index: int
    seed: int
    num_gates: int
    verdicts: List[OracleVerdict]

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    @property
    def failed_oracles(self) -> List[str]:
        return [v.oracle for v in self.verdicts if not v.passed]

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "seed": self.seed,
            "num_gates": self.num_gates,
            "verdicts": [v.as_dict() for v in self.verdicts],
        }


@dataclass
class FailureRecord:
    """A failing sample plus its shrunk reproducer."""

    sample: SampleVerdicts
    plan: SamplePlan
    shrunk_plan: SamplePlan
    shrunk_gates: int
    shrink_builds: int
    reproducer: Optional[Path] = None


@dataclass
class FuzzReport:
    """Everything one campaign produced."""

    config: HarnessConfig
    results: List[SampleVerdicts] = field(default_factory=list)
    failures: List[FailureRecord] = field(default_factory=list)
    stopped_early: bool = False

    @property
    def passed(self) -> bool:
        return not self.failures and not self.stopped_early

    def digest(self) -> str:
        """Deterministic fingerprint of the campaign's verdicts."""
        payload = json.dumps(
            [r.as_dict() for r in self.results],
            sort_keys=True, separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def summary(self) -> str:
        total = len(self.results)
        failing = len(self.failures)
        status = "PASS" if self.passed else "FAIL"
        extra = " (stopped early: time budget)" if self.stopped_early else ""
        return (
            f"{status}: {total - failing}/{total} samples clean{extra}; "
            f"digest {self.digest()[:16]}"
        )


# ----------------------------------------------------------------------
# shrinking
# ----------------------------------------------------------------------

def _plan_edits(plan: SamplePlan) -> List[SamplePlan]:
    """Candidate one-step reductions of ``plan``, most aggressive first."""
    edits: List[SamplePlan] = []
    n = len(plan.words)
    if n > 1:
        for drop in range(n):
            edits.append(replace(
                plan,
                words=plan.words[:drop] + plan.words[drop + 1:],
                separators=(plan.separators[:drop]
                            + plan.separators[drop + 1:]),
            ))
    if plan.decoys:
        edits.append(replace(plan, decoys=()))
    if plan.datapath_rounds:
        edits.append(replace(plan, datapath_rounds=0))
    if len(plan.conditions) > 1:
        for drop in range(len(plan.conditions)):
            edits.append(replace(
                plan,
                conditions=(plan.conditions[:drop]
                            + plan.conditions[drop + 1:]),
            ))
    for i, word in enumerate(plan.words):
        if word.width > 3:
            smaller = replace(word, width=max(3, word.width // 2))
            edits.append(replace(
                plan, words=plan.words[:i] + (smaller,) + plan.words[i + 1:]
            ))
    return edits


def shrink_failure(
    plan: SamplePlan,
    failed_oracles: Sequence[str],
    depth: int,
    max_builds: int,
    deadline: Optional[Deadline] = None,
) -> Tuple[SamplePlan, int]:
    """Greedily minimize ``plan`` while an originally-failing oracle fails.

    Returns the smallest preserving plan found and the number of rebuilds
    spent.  Oracles outside ``failed_oracles`` are not run — a shrink step
    may legitimately fix one failure mode while preserving another.
    """
    watched = [
        (name, check) for name, check in DEFAULT_ORACLES
        if name in set(failed_oracles)
    ]

    def still_fails(candidate: SamplePlan) -> bool:
        try:
            sample = build_sample(candidate)
            verdicts = run_oracles(sample, watched, depth=depth)
        except Exception:
            # A plan edit that breaks generation shrinks nothing — the
            # violation we are preserving is an oracle failure, not a
            # generator crash.
            return False
        return any(not v.passed for v in verdicts)

    builds = 0
    current = plan
    progress = True
    while progress and builds < max_builds:
        progress = False
        for candidate in _plan_edits(current):
            if builds >= max_builds:
                break
            if deadline is not None and deadline.expired():
                return current, builds
            builds += 1
            if still_fails(candidate):
                current = candidate
                progress = True
                break  # restart edits from the smaller plan
    return current, builds


# ----------------------------------------------------------------------
# the campaign loop
# ----------------------------------------------------------------------

def _emit_reproducer(
    record: FailureRecord, campaign_seed: int, out_dir: Path
) -> Path:
    directory = out_dir / f"s{campaign_seed}-i{record.sample.index}"
    directory.mkdir(parents=True, exist_ok=True)
    original = build_sample(record.plan)
    shrunk = build_sample(record.shrunk_plan)
    (directory / "original.v").write_text(write_verilog(original.netlist))
    (directory / "shrunk.v").write_text(write_verilog(shrunk.netlist))
    (directory / "report.json").write_text(json.dumps(
        {
            "campaign_seed": campaign_seed,
            "sample": record.sample.as_dict(),
            "failed_oracles": record.sample.failed_oracles,
            "plan": record.plan.as_dict(),
            "shrunk_plan": record.shrunk_plan.as_dict(),
            "shrunk_gates": record.shrunk_gates,
            "shrink_builds": record.shrink_builds,
            "rerun": (
                f"repro fuzz --seed {campaign_seed} "
                f"--index {record.sample.index}"
            ),
        },
        indent=2,
    ) + "\n")
    return directory


def run_campaign(
    config: HarnessConfig,
    log: Optional[Callable[[str], None]] = None,
) -> FuzzReport:
    """Run one seeded campaign; emit reproducers for every failure."""
    say = log or (lambda message: None)
    report = FuzzReport(config=config)
    deadline = Deadline.after(config.time_budget)
    indices = (
        [config.index] if config.index is not None
        else list(range(config.samples))
    )
    for index in indices:
        if deadline is not None and deadline.expired():
            say(f"time budget exhausted after {len(report.results)} samples")
            report.stopped_early = True
            break
        seed = sample_seed(config.seed, index)
        plan = plan_sample(seed, config.generator)
        sample = build_sample(plan)
        verdicts = run_oracles(sample, depth=config.depth)
        result = SampleVerdicts(
            index=index, seed=seed,
            num_gates=len(sample.netlist), verdicts=verdicts,
        )
        report.results.append(result)
        if result.passed:
            continue
        say(f"sample {index} (seed {seed:#x}) FAILED: "
            f"{', '.join(result.failed_oracles)}")
        shrunk_plan, builds = (plan, 0)
        if config.shrink:
            shrunk_plan, builds = shrink_failure(
                plan, result.failed_oracles, config.depth,
                config.max_shrink_builds, deadline,
            )
        record = FailureRecord(
            sample=result,
            plan=plan,
            shrunk_plan=shrunk_plan,
            shrunk_gates=len(build_sample(shrunk_plan).netlist),
            shrink_builds=builds,
        )
        record.reproducer = _emit_reproducer(
            record, config.seed, config.output_dir
        )
        say(f"  reproducer: {record.reproducer} "
            f"({result.num_gates} -> {record.shrunk_gates} gates, "
            f"{builds} shrink builds)")
        report.failures.append(record)
    return report


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro fuzz",
        description=(
            "Seeded metamorphic fuzzing of the word-identification "
            "pipeline on generated ground-truth netlists."
        ),
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="campaign seed (default 0)")
    parser.add_argument("--samples", type=int, default=50,
                        help="corpus size (default 50)")
    parser.add_argument("--index", type=int, default=None,
                        help="run a single corpus index (reproducer mode)")
    parser.add_argument("--depth", type=int, default=4,
                        help="pipeline cone depth (default 4)")
    parser.add_argument("--time-budget", type=float, default=None,
                        metavar="SECONDS",
                        help="stop the campaign after this many seconds")
    parser.add_argument("--no-shrink", action="store_true",
                        help="emit failing samples without minimizing them")
    parser.add_argument("--out", type=Path, default=Path("fuzz_failures"),
                        help="reproducer directory (default fuzz_failures/)")
    parser.add_argument("--mutate", default=None, metavar="NAME",
                        help="run with a known bug injected (oracle "
                             "sensitivity check; see repro.fuzz.mutations)")
    parser.add_argument("--quiet", action="store_true",
                        help="print only the final summary line")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    options = _parser().parse_args(argv)
    if options.samples < 1 and options.index is None:
        _parser().error("--samples must be at least 1")
    config = HarnessConfig(
        seed=options.seed,
        samples=options.samples,
        index=options.index,
        depth=options.depth,
        shrink=not options.no_shrink,
        time_budget=options.time_budget,
        output_dir=options.out,
    )
    say = (lambda message: None) if options.quiet else print

    if options.mutate is not None:
        from .mutations import apply_mutation

        with apply_mutation(options.mutate):
            report = run_campaign(config, log=say)
        # Under an injected bug the *expected* outcome is failure; exit 0
        # when the oracles caught it, 1 when they missed it.
        caught = bool(report.failures)
        print(f"mutation {options.mutate}: "
              f"{'caught' if caught else 'MISSED'} "
              f"({len(report.failures)}/{len(report.results)} samples)")
        return EXIT_OK if caught else EXIT_FAILURE

    report = run_campaign(config, log=say)
    print(report.summary())
    return EXIT_OK if report.passed else EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
