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
6. *Emission*: per-subgroup outcomes are merged in subgroup order.

Reduction runs on the subcircuit induced by the subgroup's fanin cones:
everything the hash keys can observe lives there, so simplifying the whole
netlist (as the paper phrases it) and simplifying the cone union are
equivalent for the re-check, and the latter keeps per-subgroup cost small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..netlist.netlist import Netlist
from .backends import resolve
from .stages import PIPELINE_VERSION
from .words import IdentificationResult

__all__ = ["PIPELINE_VERSION", "PipelineConfig", "identify_words"]


@dataclass(frozen=True)
class PipelineConfig:
    """Tuning knobs for :func:`identify_words`.

    ``depth``
        Fanin-cone depth in gate levels (paper: 4).
    ``max_simultaneous``
        Largest number of control signals assigned at once (paper: 2).
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
    ``backend``
        Which identification strategy runs (:mod:`repro.core.backends`):
        ``"ours"`` (default, the paper's technique), ``"base"`` (shape
        hashing [6]: full matches only, no control signals, no
        reduction), or ``"regfeat"`` (feature-vector register
        aggregation).  It is the only strategy selector.

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
        search exceptions instead of quarantining them (the default
        degrades gracefully and records the reason on the trace).
    ``preflight``
        Run the netlist validator before analysis and record its
        diagnostics on ``StageTrace.preflight`` (with ``strict=True``
        any diagnostic aborts the run).
    ``fault_hook``
        Test-only fault-injection point: called with each partial
        subgroup's :class:`~repro.core.stages.SubgroupTask` at the start
        of its reduction search; anything it raises exercises the
        search's retry/quarantine path.
    """

    depth: int = 4
    max_simultaneous: int = 2
    grouping: str = "adjacency"
    max_control_signals: int = 8
    accept_partial_heals: bool = False
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
        resolve(self.backend)  # raises UnknownBackendError (a ValueError)
        if self.deadline_s is not None:
            # A NaN deadline never expires: reject it, do not run unbounded.
            if not math.isfinite(self.deadline_s):
                raise ValueError("deadline_s must be a finite number")
            if self.deadline_s <= 0:
                raise ValueError("deadline_s must be > 0")
        if self.max_assignments is not None and self.max_assignments < 0:
            raise ValueError("max_assignments must be >= 0")
        if self.max_cone_gates is not None and self.max_cone_gates < 1:
            raise ValueError("max_cone_gates must be >= 1")

    @property
    def allow_partial(self) -> bool:
        """Whether bits may chain on partial matches: every backend but
        ``"base"``.  Derived, not settable; it stays in the store
        fingerprint, so keys do not move."""
        return self.backend != "base"


def identify_words(
    netlist: Netlist,
    config: Optional[PipelineConfig] = None,
) -> IdentificationResult:
    """Run the word-identification flow ``config.backend`` selects.

    This is the dispatch point (:mod:`repro.core.backends`): the default
    ``backend="ours"`` runs the staged Figure-2 engine (byte-identical
    to running it directly, the ``backend`` fuzz oracle pins it),
    ``"base"`` the shape-hashing comparison point, ``"regfeat"`` the
    feature-vector aggregator.  Every call builds its own
    :class:`~repro.core.context.AnalysisContext`.

    This function always computes.  Caching whole results in an
    artifact store is :class:`repro.api.Session`'s job: it keys the
    request, probes, and commits around this call.
    """
    config = config or PipelineConfig()
    return resolve(config.backend).runner(netlist, config)
