"""The staged analysis engine behind :func:`~repro.core.pipeline.identify_words`.

The paper's Figure 2 flow is decomposed into six explicit stages, each a
small object consuming and producing typed artifacts on a shared
:class:`StageArtifacts` record:

======================  ===================================================
stage                   artifact produced
======================  ===================================================
:class:`GroupingStage`  ``groups`` — first-level candidate groups (Sec 2.2)
:class:`SignatureStage` ``group_shapes`` — each bit's interned
                        :class:`~repro.core.hashkey.BitShape` via the
                        shared :class:`~repro.core.context.AnalysisContext`
:class:`MatchingStage`  ``runs`` — every subgroup in task order (Sec 2.3),
                        and ``tasks`` — a :class:`SubgroupTask`, with bit
                        signatures, per partially matched subgroup
:class:`ControlStage`   per-task control-signal candidates (Sec 2.4)
:class:`ReductionStage` per-task :class:`SubgroupOutcome` from the
                        assignment search (Sec 2.5), one subgroup at a
                        time in task order
:class:`EmissionStage`  the final :class:`IdentificationResult`
======================  ===================================================

The engine (:class:`AnalysisEngine`) times every stage into
``StageTrace.stage_seconds``.  A run has one :class:`AnalysisContext`:
every stage, each reduction search included, reads and writes its memos,
and its cache statistics are the trace's.

Resilience (DESIGN.md §8): the engine builds one
:class:`~repro.core.resilience.RunBudget` per run and checks it at every
stage boundary; the reduction search checks it at every assignment
boundary.  A budget that fires or a search that crashes degrades one
subgroup (quarantined as a :class:`~repro.core.resilience.SubgroupFailure`
on the trace, after one retry for crashes) — the rest of the run
completes and emits the partial words.  ``PipelineConfig.strict`` turns
every degradation into a raised exception.  Failure records are attached
to outcomes and merged in task order at emission, so degraded runs are as
deterministic as clean ones.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .. import metrics as _metrics
from ..netlist.cone import extract_subcircuit
from ..netlist.netlist import Netlist
from ..netlist.validate import diagnose
from .context import AnalysisContext
from .control import ControlSignalCandidate, find_control_signals
from .grouping import group_by_adjacency, group_register_inputs
from .hashkey import BitShape, BitSignature
from .matching import Subgroup, chain_runs, chains, full_match_runs
from .reduction import InfeasibleAssignment, reduce_netlist
from .resilience import (
    BudgetExceeded,
    PreflightError,
    RunBudget,
    SubgroupFailure,
)
from .words import ControlAssignment, IdentificationResult, Word

__all__ = [
    "PIPELINE_VERSION",
    "MAX_CONTROL_SIGNALS",
    "AnalysisEngine",
    "StageArtifacts",
    "SubgroupTask",
    "SubgroupOutcome",
    "GroupingStage",
    "SignatureStage",
    "MatchingStage",
    "ControlStage",
    "ReductionStage",
    "EmissionStage",
]


#: Version of the identification *algorithm* implemented by these stages.
#: It is baked into every artifact-store cache key (see
#: :mod:`repro.store.keys`) and into the versioned JSON payloads, so any
#: change that can alter the words, partitions, counters, or assignments a
#: run produces MUST bump this constant — that is what invalidates every
#: previously cached result.  Pure performance work that provably keeps
#: output byte-identical does not bump it.
PIPELINE_VERSION = "2.0.0"

#: Cap on the control-signal candidates a partial subgroup's search tries;
#: the paper observes the number is small in practice, this guards
#: degenerate inputs.  ``PipelineConfig.max_control_signals`` reads it.
MAX_CONTROL_SIGNALS = 8


# ----------------------------------------------------------------------
# artifacts
# ----------------------------------------------------------------------

@dataclass
class SubgroupTask:
    """One partially matched subgroup's unit of work: control discovery
    and reduction search.

    ``index`` is the subgroup's position among all of the run's subgroups
    (``StageArtifacts.runs``), the index failure records report.  Only
    these subgroups carry bit signatures; a single bit or a run of one
    shape (a fully matched word) needs neither.
    """

    index: int
    subgroup: Subgroup
    candidates: List[ControlSignalCandidate] = field(default_factory=list)
    outcome: Optional["SubgroupOutcome"] = None


@dataclass
class SubgroupOutcome:
    """What the reduction search decided for one partial subgroup.

    ``failure`` is the quarantined degradation record when the search was
    cut short (budget fired, search crashed twice) — the ``partition`` is
    still the best one seen, so the subgroup degrades instead of
    disappearing.  It is merged onto the trace in task order at emission.
    """

    partition: List[List[BitSignature]]
    assignment: Optional[ControlAssignment] = None
    assignments_tried: int = 0
    infeasible: int = 0
    subcircuits: int = 0
    failure: Optional[SubgroupFailure] = None


@dataclass
class StageArtifacts:
    """The typed state threaded through the stage graph."""

    netlist: Netlist
    config: "PipelineConfig"  # noqa: F821 - import cycle; see pipeline.py
    context: AnalysisContext
    result: IdentificationResult
    budget: RunBudget = field(default_factory=RunBudget)
    groups: List[List[str]] = field(default_factory=list)
    group_shapes: List[List[BitShape]] = field(default_factory=list)
    #: Every subgroup in task order (a subgroup's task index is its
    #: position here): a single bit's net, a one-shape run's bits, or the
    #: :class:`SubgroupTask` of a partially matched subgroup.
    runs: List[Union[str, Tuple[str, ...], SubgroupTask]] = field(
        default_factory=list
    )
    tasks: List[SubgroupTask] = field(default_factory=list)

    @property
    def trace(self):
        return self.result.trace


# ----------------------------------------------------------------------
# stages
# ----------------------------------------------------------------------

class Stage:
    """One box of the Figure 2 flow; mutates the shared artifacts."""

    name: str = "stage"

    def run(self, art: StageArtifacts) -> None:
        raise NotImplementedError


class GroupingStage(Stage):
    """Find potential bits of a word (Section 2.2)."""

    name = "grouping"

    def run(self, art: StageArtifacts) -> None:
        if art.config.grouping == "adjacency":
            art.groups = group_by_adjacency(art.netlist)
        else:
            art.groups = group_register_inputs(art.netlist)
        art.trace.num_groups = len(art.groups)
        art.trace.num_candidate_nets = sum(len(g) for g in art.groups)


class SignatureStage(Stage):
    """Compute each candidate bit's shape through the shared context.

    A key pass the run budget cuts ends the stage with no shape: the run
    is over, and the next stage boundary records it.
    """

    name = "signatures"

    def run(self, art: StageArtifacts) -> None:
        if art.context.precompute_keys():
            art.group_shapes = [
                art.context.shapes(group) for group in art.groups
            ]


class MatchingStage(Stage):
    """Form subgroups (Section 2.3) and make a task of each partial one.

    Bits chain by shape (:func:`~repro.core.matching.chains`), and each
    distinct pair of adjacent shapes is decided once.  A run of one bit
    is recorded as its net, and a run of one shape, a fully matched word,
    as its bits: neither needs a bit signature.  A run of several shapes
    is a partially matched subgroup; control and reduction read its
    dissimilar subtrees, so only its bits get signatures, through
    :meth:`~repro.core.context.AnalysisContext.signatures`.  With
    ``backend="base"`` only full matches chain, so no signature is built.
    """

    name = "matching"

    def run(self, art: StageArtifacts) -> None:
        allow_partial = art.config.allow_partial
        signatures = art.context.signatures
        decided: Dict[Tuple[BitShape, BitShape], bool] = {}

        def joins(prev: BitShape, cur: BitShape, allow_partial: bool) -> bool:
            pair = (prev, cur)
            joined = decided.get(pair)
            if joined is None:
                joined = decided[pair] = chains(prev, cur, allow_partial)
            return joined

        runs: List[Union[str, Tuple[str, ...], SubgroupTask]] = []
        tasks: List[SubgroupTask] = []
        for group, shapes in zip(art.groups, art.group_shapes):
            for start, end in chain_runs(shapes, allow_partial, joins):
                if end - start == 1:
                    runs.append(group[start])
                    continue
                first = shapes[start]
                if all(shape is first for shape in shapes[start + 1:end]):
                    runs.append(tuple(group[start:end]))
                    continue
                subgroup = Subgroup(
                    signatures(group[start:end], shapes[start:end])
                )
                subgroup.finalize()
                task = SubgroupTask(index=len(runs), subgroup=subgroup)
                runs.append(task)
                tasks.append(task)
        art.runs = runs
        art.tasks = tasks
        art.trace.num_subgroups += len(runs)


class ControlStage(Stage):
    """Find relevant control signals for partial subgroups (Section 2.4)."""

    name = "control"

    def run(self, art: StageArtifacts) -> None:
        for task in art.tasks:
            art.trace.num_partially_matched_subgroups += 1
            task.candidates = find_control_signals(
                task.subgroup, context=art.context
            )[:MAX_CONTROL_SIGNALS]
            art.trace.num_control_signal_candidates += len(task.candidates)


class ReductionStage(Stage):
    """Assign values / simplify circuit / re-check (Section 2.5).

    Each partial subgroup is searched on its own, in task order.  A
    search is fault-isolated: an exception is retried once and otherwise
    quarantined into the outcome's
    :class:`~repro.core.resilience.SubgroupFailure`, with the unreduced
    full-match partition as the fallback result — sibling subgroups are
    untouched.  The run budget is checked at every assignment boundary, so
    a deadline (or the budget's abort event) stops the search promptly
    instead of after its full quadratic enumeration.
    """

    name = "reduction"

    def run(self, art: StageArtifacts) -> None:
        for task in art.tasks:
            task.outcome = self.guarded_search(art, task)

    def guarded_search(
        self, art: StageArtifacts, task: SubgroupTask
    ) -> SubgroupOutcome:
        """Fault-isolation wrapper around :meth:`search` for one subgroup.

        Budget stops are handled inside :meth:`search` (they keep the best
        partition found so far); this wrapper handles *crashes*: retry the
        whole search once, then quarantine with the unreduced fallback
        partition.  In strict mode a crash aborts the run instead.
        """
        budget = art.budget
        reason = budget.stop_reason()
        if reason is not None:
            # The run is already over (deadline passed / aborted): drain
            # the remaining tasks without paying for subcircuit extraction.
            if art.config.strict:
                raise BudgetExceeded(reason, f"subgroup {task.index}")
            return SubgroupOutcome(
                partition=full_match_runs(task.subgroup.signatures),
                failure=self._failure(task, reason),
            )
        try:
            return self.search(art, task)
        except BudgetExceeded:
            # Raised by search only in strict mode; never retried.
            raise
        except Exception:
            if art.config.strict:
                raise
            try:
                return self.search(art, task)
            except Exception as retry_exc:
                return SubgroupOutcome(
                    partition=full_match_runs(task.subgroup.signatures),
                    failure=self._failure(
                        task,
                        "error",
                        detail=f"{type(retry_exc).__name__}: {retry_exc}",
                        retried=True,
                    ),
                )

    def _failure(
        self,
        task: SubgroupTask,
        kind: str,
        detail: str = "",
        retried: bool = False,
        assignments_tried: int = 0,
    ) -> SubgroupFailure:
        return SubgroupFailure(
            index=task.index,
            bits=tuple(task.subgroup.bits),
            stage=self.name,
            kind=kind,
            detail=detail,
            retried=retried,
            assignments_tried=assignments_tried,
        )

    def search(self, art: StageArtifacts, task: SubgroupTask) -> SubgroupOutcome:
        """Run the assignment search for one partial subgroup.

        Each assignment reduces the subgroup's subcircuit (the cut of its
        bits' cones), and the run's context re-checks the bits on it.
        """
        config = art.config
        budget = art.budget
        subgroup = task.subgroup
        bits = subgroup.bits

        if config.fault_hook is not None:
            config.fault_hook(task)

        baseline_partition = full_match_runs(subgroup.signatures)
        outcome = SubgroupOutcome(partition=baseline_partition)
        best_score = _partition_score(baseline_partition)
        if not task.candidates:
            return outcome

        subcircuit = extract_subcircuit(
            art.netlist, bits, config.depth, boundary=art.context.boundary
        )
        outcome.subcircuits = 1
        if (
            budget.max_cone_gates is not None
            and subcircuit.num_gates > budget.max_cone_gates
        ):
            detail = (
                f"{subcircuit.num_gates} gates > cap {budget.max_cone_gates}"
            )
            if config.strict:
                raise BudgetExceeded(
                    "cone_gates", f"subgroup {task.index}", detail
                )
            outcome.failure = self._failure(task, "cone_gates", detail)
            return outcome
        for assignment in _assignments(
            task.candidates, config.max_simultaneous
        ):
            reason = budget.stop_reason(outcome.assignments_tried)
            if reason is not None:
                if config.strict:
                    raise BudgetExceeded(
                        reason,
                        f"subgroup {task.index}",
                        f"after {outcome.assignments_tried} assignments",
                    )
                outcome.failure = self._failure(
                    task,
                    reason,
                    assignments_tried=outcome.assignments_tried,
                )
                break
            outcome.assignments_tried += 1
            try:
                reduced = reduce_netlist(subcircuit, assignment)
            except InfeasibleAssignment:
                outcome.infeasible += 1
                continue
            new_signatures = art.context.signatures_after_reduction(
                reduced.netlist, reduced.values, bits
            )
            partition = full_match_runs(new_signatures)
            if len(partition) == 1 and len(partition[0]) == len(bits):
                # Every bit unified: the word is found, stop searching.
                outcome.partition = partition
                outcome.assignment = ControlAssignment.of(assignment)
                break
            if config.accept_partial_heals:
                score = _partition_score(partition)
                if score > best_score:
                    best_score = score
                    outcome.partition = partition
                    outcome.assignment = ControlAssignment.of(assignment)
        return outcome


class EmissionStage(Stage):
    """Merge every subgroup into the result, in task order."""

    name = "emission"

    def run(self, art: StageArtifacts) -> None:
        result = art.result
        trace = art.trace
        for run in art.runs:
            if isinstance(run, str):
                result.singletons.append(run)
            elif isinstance(run, tuple):
                trace.num_fully_matched_subgroups += 1
                result.words.append(Word(run))
            else:
                outcome = run.outcome or SubgroupOutcome(
                    partition=full_match_runs(run.subgroup.signatures)
                )
                trace.num_assignments_tried += outcome.assignments_tried
                trace.num_infeasible_assignments += outcome.infeasible
                trace.num_subcircuits_extracted += outcome.subcircuits
                if outcome.assignment is not None:
                    trace.num_reductions_that_matched += 1
                if outcome.failure is not None:
                    # Quarantine records are merged here, in task order,
                    # so degraded runs are as deterministic as clean ones.
                    trace.failures.append(outcome.failure)
                    if outcome.failure.kind == "deadline":
                        trace.deadline_hit = True
                _emit_partition(
                    outcome.partition, outcome.assignment, result
                )


# ----------------------------------------------------------------------
# engine
# ----------------------------------------------------------------------

class AnalysisEngine:
    """Run the stage graph over a netlist, timing every stage.

    The engine computes; it never reads or writes identification
    results.  :class:`repro.api.Session` owns the store key and the
    result commit.  Each run builds its own
    :class:`~repro.core.context.AnalysisContext`, the only one it uses.
    """

    #: The Figure 2 stage graph, in execution order (the stages keep no
    #: state between runs).
    stages: Tuple[Stage, ...] = (
        GroupingStage(),
        SignatureStage(),
        MatchingStage(),
        ControlStage(),
        ReductionStage(),
        EmissionStage(),
    )

    def __init__(self, config: "PipelineConfig"):  # noqa: F821
        self.config = config

    def run(self, netlist: Netlist) -> IdentificationResult:
        started = perf_counter()
        context = AnalysisContext(netlist, self.config.depth)
        budget = RunBudget.from_config(self.config)
        context.budget = budget
        result = IdentificationResult()
        result.trace.backend = self.config.backend
        art = StageArtifacts(
            netlist=netlist,
            config=self.config,
            context=context,
            result=result,
            budget=budget,
        )
        self._preflight(art)
        skipped_from: Optional[str] = None
        for stage in self.stages:
            if stage.name != "emission":
                # Stage-boundary budget check.  Once the run is over,
                # everything except emission is skipped so the words found
                # so far still come out (strict mode raises instead).
                reason = budget.stop_reason()
                if reason is not None:
                    if self.config.strict:
                        raise BudgetExceeded(reason, f"stage {stage.name}")
                    if skipped_from is None:
                        skipped_from = stage.name
                        result.trace.failures.append(
                            SubgroupFailure(
                                index=-1,
                                bits=(),
                                stage=stage.name,
                                kind=reason,
                            )
                        )
                        if reason == "deadline":
                            result.trace.deadline_hit = True
                    continue
            stage_started = perf_counter()
            stage.run(art)
            result.trace.stage_seconds[stage.name] = (
                perf_counter() - stage_started
            )
        result.trace.cache = context.stats
        result.runtime_seconds = perf_counter() - started
        self._publish_metrics(result)
        return result

    def _publish_metrics(self, result: IdentificationResult) -> None:
        """Aggregate this run into the installed metrics registry.

        A no-op when no registry is installed (the default outside
        ``repro serve`` / ``--metrics-json`` runs), so :class:`StageTrace`
        remains the only observability surface and the engine's output
        stays byte-identical either way — the registry is written *after*
        the trace is complete and never read by any stage.
        """
        registry = _metrics.current()
        if registry is None:
            return
        stage_hist = registry.histogram(
            "repro_stage_seconds",
            "Wall-clock seconds per analysis stage",
            labelnames=("stage",),
        )
        for name, seconds in result.trace.stage_seconds.items():
            stage_hist.observe(seconds, stage=name)
        registry.histogram(
            "repro_analysis_seconds",
            "End-to-end wall-clock seconds per analysis run",
        ).observe(result.runtime_seconds)
        registry.counter(
            "repro_analyses_total", "Completed analysis runs"
        ).inc()
        registry.counter(
            "repro_backend_runs_total",
            "Completed analysis runs per identification backend",
            labelnames=("backend",),
        ).inc(backend=result.trace.backend)
        if result.trace.degraded:
            registry.counter(
                "repro_degraded_runs_total",
                "Analysis runs that quarantined at least one degradation",
            ).inc()

    def _preflight(self, art: StageArtifacts) -> None:
        """Validator pre-flight (``PipelineConfig.preflight``).

        Structural diagnostics land on ``StageTrace.preflight``; in strict
        mode any diagnostic — warnings included — aborts the run by
        raising :class:`~repro.core.resilience.PreflightError`.
        """
        if not self.config.preflight:
            return
        diagnostics = diagnose(art.netlist)
        art.trace.preflight = [d.as_dict() for d in diagnostics]
        if self.config.strict and diagnostics:
            raise PreflightError(diagnostics)


# ----------------------------------------------------------------------
# search helpers
# ----------------------------------------------------------------------

def _assignments(
    candidates: Sequence[ControlSignalCandidate], max_simultaneous: int
) -> Iterator[Dict[str, int]]:
    """Candidate value assignments: single signals first, then pairs, ...

    For each subset of signals, the cartesian product of their feasible
    values is tried.  The paper explores singles then pairs; the subset
    size cap is ``max_simultaneous``.
    """
    for size in range(1, max_simultaneous + 1):
        if size > len(candidates):
            return
        for subset in itertools.combinations(candidates, size):
            value_choices = [c.values for c in subset]
            for values in itertools.product(*value_choices):
                yield {c.net: v for c, v in zip(subset, values)}


def _partition_score(
    partition: List[List[BitSignature]],
) -> Tuple[int, int]:
    """Order partitions: larger best word first, then fewer fragments.

    An empty partition (a degenerate subgroup with no signatures) scores
    below every real one.
    """
    if not partition:
        return (0, 0)
    largest = max(len(run) for run in partition)
    return (largest, -len(partition))


def _emit_partition(
    partition: List[List[BitSignature]],
    assignment: Optional[ControlAssignment],
    result: IdentificationResult,
) -> None:
    for run in partition:
        if not run:  # degenerate runs carry no bits; never emit them
            continue
        if len(run) >= 2:
            word = Word(tuple(sig.net for sig in run))
            result.words.append(word)
            if assignment is not None:
                result.control_assignments[word] = assignment
        else:
            result.singletons.append(run[0].net)
