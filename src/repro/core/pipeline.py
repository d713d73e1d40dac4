"""The word-identification pipeline — the paper's Figure 2 flow.

Stages, in order (each a stage object in :mod:`repro.core.stages`, run by
an :class:`~repro.core.stages.AnalysisEngine` that times every stage and
aggregates cache statistics into the result's
:class:`~repro.core.words.StageTrace`):

1. *Find potential bits of a word* (Section 2.2): scan the netlist file and
   group adjacent lines by root gate type.
2. *Find bits with fully/partially matching structures* (Section 2.3):
   sequential pairwise comparison of second-level subtree hash keys;
   dissimilar subtrees are remembered.  Signatures come from a shared
   :class:`~repro.core.context.AnalysisContext`.
3. *Find relevant control signals* (Section 2.4): nets common to all
   dissimilar subtrees, minus dominated ones.
4. *Assign values / simplify circuit* (Section 2.5): controlling values are
   tried one signal at a time, then in pairs (``max_simultaneous``
   configurable — the paper stops at 2 and names >2 as future work).
5. *Words found?* — after each reduction the subgroup is re-checked for
   full similarity; the first assignment that makes every bit match wins.
   If no assignment fully unifies the subgroup, the best partition seen is
   kept (falling back to the unreduced full-match partition, which is what
   the baseline would produce).  The re-check is incremental: only the
   subtrees an assignment actually touched are rehashed
   (:meth:`~repro.core.context.AnalysisContext.signatures_after_reduction`),
   instead of rebuilding a signature index per reduced netlist.
6. *Emission*: per-subgroup outcomes are merged in deterministic subgroup
   order, so results are identical for any ``jobs`` setting.

Reduction runs on the subcircuit induced by the subgroup's fanin cones:
everything the hash keys can observe lives there, so simplifying the whole
netlist (as the paper phrases it) and simplifying the cone union are
equivalent for the re-check, and the latter keeps per-subgroup cost small.
With ``jobs > 1`` the per-subgroup searches run on a thread pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..netlist.netlist import Netlist
from .context import AnalysisContext
from .stages import (
    PIPELINE_VERSION,
    AnalysisEngine,
    _assignments,
    _emit_partition,
    _full_match_partition,
    _partition_score,
)
from .words import IdentificationResult

__all__ = ["PIPELINE_VERSION", "PipelineConfig", "identify_words"]

# Re-exported for callers of the pre-stage API (tests, notebooks).
_assignments = _assignments
_emit_partition = _emit_partition
_full_match_partition = _full_match_partition
_partition_score = _partition_score


@dataclass(frozen=True)
class PipelineConfig:
    """Tuning knobs for :func:`identify_words`.

    ``depth``
        Fanin-cone depth in gate levels (paper: 4).
    ``max_simultaneous``
        Largest number of control signals assigned at once (paper: 2).
    ``allow_partial``
        With ``False`` the pipeline degrades to the shape-hashing baseline
        of [6]: full matches only, no control signals, no reduction.
    ``grouping``
        ``"adjacency"`` (Section 2.2, default) or ``"registers"`` (the
        netlist-order-independent variation).
    ``max_control_signals``
        Safety cap on candidates per subgroup; the paper observes the
        number is small in practice, this guards degenerate inputs.
    ``accept_partial_heals``
        The paper accepts an assignment only when it makes the whole
        subgroup fully similar ("we recheck if words can be identified").
        Enabling this extension also keeps the best partial unification
        seen — more words grouped, at the cost of extra control signals
        spent on non-word structures (evaluated in the ablation bench).
    ``jobs``
        Worker threads for the per-subgroup reduction search.  Results
        and trace counters are byte-identical for any value; 1 (default)
        runs fully serial.
    ``backend``
        Which registered identification strategy runs
        (:mod:`repro.core.backends`): ``"ours"`` (default, the paper's
        technique), ``"base"`` (shape hashing [6]), or ``"regfeat"``
        (feature-vector register aggregation).  ``backend="base"`` and
        ``allow_partial=False`` are two spellings of the same strategy
        and are normalized onto each other, so either spelling produces
        identical results *and* identical store fingerprints.

    Resilience knobs (see :mod:`repro.core.resilience` and DESIGN.md §8 —
    all default to "unlimited", in which case every budget check is a
    no-op and results stay byte-identical to an unbudgeted run):

    ``deadline_s``
        Wall-clock deadline for the whole run, in seconds.  Checked
        cooperatively at stage and assignment boundaries; on expiry the
        run degrades to the partial words found so far.
    ``max_assignments``
        Per-subgroup cap on control-signal assignments tried; a subgroup
        that hits it keeps the best partition seen.
    ``max_cone_gates``
        Cap on the gate count of a subgroup's extracted subcircuit; an
        oversized subgroup skips the reduction search entirely.
    ``strict``
        ``True`` re-raises budget violations, pre-flight errors, and
        worker exceptions instead of quarantining them (the default
        degrades gracefully and records the reason on the trace).
    ``preflight``
        Run the netlist validator before analysis and record its
        diagnostics on ``StageTrace.preflight`` (with ``strict=True``
        any diagnostic aborts the run).
    ``fault_hook``
        Test-only fault-injection point: called with each partial
        subgroup's :class:`~repro.core.stages.SubgroupTask` at the start
        of its reduction search; anything it raises exercises the
        worker's retry/quarantine path.
    """

    depth: int = 4
    max_simultaneous: int = 2
    allow_partial: bool = True
    grouping: str = "adjacency"
    max_control_signals: int = 8
    accept_partial_heals: bool = False
    jobs: int = 1
    backend: str = "ours"
    deadline_s: Optional[float] = None
    max_assignments: Optional[int] = None
    max_cone_gates: Optional[int] = None
    strict: bool = False
    preflight: bool = False
    fault_hook: Optional[Callable] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if self.max_simultaneous < 1:
            raise ValueError("max_simultaneous must be >= 1")
        if self.grouping not in ("adjacency", "registers"):
            raise ValueError(f"unknown grouping {self.grouping!r}")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        from .backends import resolve

        resolve(self.backend)  # raises UnknownBackendError (a ValueError)
        # "base" and "ours without partial matching" are one strategy on
        # one engine; normalizing the two spellings onto each other keeps
        # results, trace provenance, and store fingerprints identical no
        # matter which one a caller used.
        if self.backend == "base":
            object.__setattr__(self, "allow_partial", False)
        elif self.backend == "ours" and not self.allow_partial:
            object.__setattr__(self, "backend", "base")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be > 0")
        if self.max_assignments is not None and self.max_assignments < 0:
            raise ValueError("max_assignments must be >= 0")
        if self.max_cone_gates is not None and self.max_cone_gates < 1:
            raise ValueError("max_cone_gates must be >= 1")


def identify_words(
    netlist: Netlist,
    config: Optional[PipelineConfig] = None,
    context: Optional[AnalysisContext] = None,
    cone_cache=None,
) -> IdentificationResult:
    """Run the word-identification flow ``config.backend`` selects.

    This is the registry dispatch point (:mod:`repro.core.backends`):
    the default ``backend="ours"`` runs the staged Figure-2 engine
    exactly as before the registry existed (byte-identical results, the
    ``backend`` fuzz oracle pins it), ``"base"`` the shape-hashing
    comparison point, ``"regfeat"`` the feature-vector aggregator.

    ``context`` — an optional pre-warmed
    :class:`~repro.core.context.AnalysisContext` for ``netlist`` — lets
    repeated analyses (ablations, baseline-vs-ours comparisons, repeated
    service queries) share cone and hash-key caches; by default a fresh
    context is created per call.

    ``cone_cache`` — cone-level memoization (DESIGN.md §12).  ``None``
    (default) or ``False`` disables it; a
    :class:`~repro.core.conecache.ConeCacheTier` (or sequence of tiers)
    is used verbatim.  Cone-cached runs are byte-identical to uncached
    ones on everything the determinism oracles compare.

    This function always computes.  Caching whole results in an
    artifact store is :class:`repro.api.Session`'s job: it keys the
    request, probes, and commits around this call.
    """
    config = config or PipelineConfig()
    from .backends import resolve

    return resolve(config.backend).run(
        netlist, config, context=context, cone_cache=cone_cache
    )
