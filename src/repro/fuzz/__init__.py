"""Fuzzing and metamorphic-oracle subsystem.

The Table 1 benchmarks pin the pipeline to 12 fixed designs; this package
turns its correctness claims into continuously-tested properties on an
unbounded corpus:

:mod:`generator`
    A seeded random word-oriented design generator.  Every sample lowers
    through the real synthesis flow (:mod:`repro.synth.flow`) and carries
    its exact word ground truth, so differential oracles have labels to
    check against — the same move WordRev-style tools use to validate
    recovery on synthetic designs with labelled registers.
:mod:`oracles`
    Metamorphic and differential oracles: identified words must be
    invariant under net renaming, structured gate reordering and bit-order
    permutation; a stored result must equal the computed one byte for
    byte; words fully found by the baseline must be fully found by the control-signal
    technique; every control-signal reduction must preserve circuit
    function under simulation; serialization must round-trip.
:mod:`harness`
    The corpus runner behind the ``repro fuzz`` CLI: seed-driven sample
    loop, greedy failure shrinking, reproducer emission and wall-clock
    budgets from :mod:`repro.core.resilience`.
:mod:`mutations`
    Test-only injected bugs used to measure that the oracles actually
    catch regressions (the mutation smoke test).
"""

from .generator import (
    FuzzSample,
    GeneratorConfig,
    SamplePlan,
    TrueWord,
    build_sample,
    generate,
    plan_sample,
    sample_seed,
)
from .harness import FuzzReport, HarnessConfig, main, run_campaign
from .oracles import (
    DEFAULT_ORACLES,
    OracleContext,
    OracleVerdict,
    run_oracles,
    verify_reductions,
)

__all__ = [
    "FuzzSample",
    "GeneratorConfig",
    "SamplePlan",
    "TrueWord",
    "build_sample",
    "generate",
    "plan_sample",
    "sample_seed",
    "FuzzReport",
    "HarnessConfig",
    "main",
    "run_campaign",
    "DEFAULT_ORACLES",
    "OracleContext",
    "OracleVerdict",
    "run_oracles",
    "verify_reductions",
]
