"""The staged analysis engine behind :func:`~repro.core.pipeline.identify_words`.

The paper's Figure 2 flow is decomposed into six explicit stages, each a
small object consuming and producing typed artifacts on a shared
:class:`StageArtifacts` record:

======================  ============================================to=====
stage                   artifact produced
======================  ===================================================
:class:`GroupingStage`  ``groups`` — first-level candidate groups (Sec 2.2)
:class:`SignatureStage` ``group_signatures`` — bit signatures via the
                        shared :class:`~repro.core.context.AnalysisContext`
:class:`MatchingStage`  ``tasks`` — classified :class:`SubgroupTask` list
                        (Sec 2.3)
:class:`ControlStage`   per-task control-signal candidates (Sec 2.4)
:class:`ReductionStage` per-task :class:`SubgroupOutcome` from the
                        assignment search (Sec 2.5) — the only parallel
                        stage (``PipelineConfig.jobs``)
:class:`EmissionStage`  the final :class:`IdentificationResult`
======================  ===================================================

The engine (:class:`AnalysisEngine`) times every stage into
``StageTrace.stage_seconds`` and merges per-task cache statistics in task
order, so results *and* trace counters are byte-identical for any ``jobs``
value: parallelism only reorders execution, never observation.  Worker
tasks each own a sub-:class:`AnalysisContext` (parent = the shared
context) and only read shared state, so the thread pool needs no locks.

Resilience (DESIGN.md §8): the engine builds one
:class:`~repro.core.resilience.RunBudget` per run and checks it at every
stage boundary; the reduction workers check it at every assignment
boundary.  A budget that fires or a worker that crashes degrades one
subgroup (quarantined as a :class:`~repro.core.resilience.SubgroupFailure`
on the trace, after one serial retry for crashes) — the rest of the run
completes and emits the partial words.  ``PipelineConfig.strict`` turns
every degradation into a raised exception.  Failure records are attached
to outcomes and merged in task order at emission, so degraded runs stay
deterministic for any ``jobs`` value too.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .. import metrics as _metrics
from ..netlist.cone import extract_subcircuit
from ..netlist.netlist import Netlist
from ..netlist.validate import diagnose
from .conecache import (
    CanonicalCone,
    ConeCacheChain,
    ConeCacheTier,
    canonicalize_subgroup,
    cone_fingerprint,
    valid_cone_entry,
)
from .context import AnalysisContext
from .control import ControlSignalCandidate, find_control_signals
from .grouping import group_by_adjacency, group_register_inputs
from .hashkey import BitSignature
from .matching import Subgroup, form_subgroups, full_match_runs
from .reduction import InfeasibleAssignment, reduce_netlist
from .resilience import (
    BudgetExceeded,
    PreflightError,
    RunBudget,
    SubgroupFailure,
)
from .words import CacheStats, ControlAssignment, IdentificationResult, Word

__all__ = [
    "PIPELINE_VERSION",
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
    "default_stages",
]


#: Version of the identification *algorithm* implemented by these stages.
#: It is baked into every artifact-store cache key (see
#: :mod:`repro.store.keys`) and into the versioned JSON payloads, so any
#: change that can alter the words, partitions, counters, or assignments a
#: run produces MUST bump this constant — that is what invalidates every
#: previously cached result.  Pure performance work that provably keeps
#: output byte-identical (the ``jobs`` contract) does not bump it.
PIPELINE_VERSION = "2.0.0"


# ----------------------------------------------------------------------
# artifacts
# ----------------------------------------------------------------------

@dataclass
class SubgroupTask:
    """One subgroup's unit of work, classified by the matching stage.

    ``kind`` is one of ``"singleton"`` (one bit — emitted alone),
    ``"full"`` (already fully matched — emitted as a word), ``"mixed"``
    (degenerate or partial matching disabled — emitted as its full-match
    partition), or ``"partial"`` (partially matched — goes through control
    discovery and reduction search).

    The trailing fields belong to the cone-cache fast path (DESIGN.md
    §12) and are filled by the reduction stage's batched pre-pass:
    ``subcircuit`` (extracted once, reused by the search), ``canonical``
    (the task's canonical envelope), ``cached_entry`` (a tier hit to
    replay instead of searching), and ``fresh_entry`` (a clean outcome
    staged for the batched commit).
    """

    index: int
    subgroup: Subgroup
    kind: str
    candidates: List[ControlSignalCandidate] = field(default_factory=list)
    outcome: Optional["SubgroupOutcome"] = None
    subcircuit: Optional[Netlist] = field(default=None, repr=False)
    canonical: Optional[CanonicalCone] = field(default=None, repr=False)
    cached_entry: Optional[Dict] = field(default=None, repr=False)
    fresh_entry: Optional[Dict] = field(default=None, repr=False)


@dataclass
class SubgroupOutcome:
    """What the reduction search decided for one partial subgroup.

    ``failure`` is the quarantined degradation record when the search was
    cut short (budget fired, worker crashed twice) — the ``partition`` is
    still the best one seen, so the subgroup degrades instead of
    disappearing.  It is merged onto the trace in task order at emission.
    """

    partition: List[List[BitSignature]]
    assignment: Optional[ControlAssignment] = None
    assignments_tried: int = 0
    infeasible: int = 0
    subcircuits: int = 0
    cache: Optional[CacheStats] = None
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
    group_signatures: List[List[BitSignature]] = field(default_factory=list)
    tasks: List[SubgroupTask] = field(default_factory=list)
    # Per-run cone-cache chain (None = cone caching off for this run).
    cone_cache: Optional[ConeCacheChain] = None

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
    """Compute bit signatures through the shared context's caches."""

    name = "signatures"

    def run(self, art: StageArtifacts) -> None:
        art.context.precompute_keys()
        art.group_signatures = [
            art.context.signatures(group) for group in art.groups
        ]


class MatchingStage(Stage):
    """Form subgroups (Section 2.3) and classify each into a task."""

    name = "matching"

    def run(self, art: StageArtifacts) -> None:
        config = art.config
        tasks: List[SubgroupTask] = []
        for signatures in art.group_signatures:
            subgroups = form_subgroups(
                signatures, allow_partial=config.allow_partial
            )
            art.trace.num_subgroups += len(subgroups)
            for subgroup in subgroups:
                tasks.append(
                    SubgroupTask(
                        index=len(tasks),
                        subgroup=subgroup,
                        kind=self._classify(subgroup, config),
                    )
                )
        art.tasks = tasks

    @staticmethod
    def _classify(subgroup: Subgroup, config) -> str:
        if len(subgroup.signatures) == 1:
            return "singleton"
        if subgroup.fully_matched:
            return "full"
        if not subgroup.partially_matched or not config.allow_partial:
            return "mixed"
        return "partial"


class ControlStage(Stage):
    """Find relevant control signals for partial subgroups (Section 2.4)."""

    name = "control"

    def run(self, art: StageArtifacts) -> None:
        cap = art.config.max_control_signals
        for task in art.tasks:
            if task.kind != "partial":
                continue
            art.trace.num_partially_matched_subgroups += 1
            task.candidates = find_control_signals(
                task.subgroup, context=art.context
            )[:cap]
            art.trace.num_control_signal_candidates += len(task.candidates)


class ReductionStage(Stage):
    """Assign values / simplify circuit / re-check (Section 2.5).

    Each partial subgroup is searched independently; with
    ``config.jobs > 1`` the searches run on a thread pool.  Results are
    attached to the tasks and later merged in task order, so the output is
    deterministic regardless of scheduling.

    Workers are fault-isolated: an exception in one subgroup's search is
    retried once serially and otherwise quarantined into the outcome's
    :class:`~repro.core.resilience.SubgroupFailure`, with the unreduced
    full-match partition as the fallback result — sibling subgroups are
    untouched.  The run budget is checked at every assignment boundary, so
    a deadline (or Ctrl-C, which sets the budget's abort event) stops every
    in-flight worker promptly instead of after its full quadratic search.
    """

    name = "reduction"

    def run(self, art: StageArtifacts) -> None:
        tasks = [t for t in art.tasks if t.kind == "partial"]
        if art.cone_cache is not None and tasks:
            self._probe_cone_cache(art, tasks)
        jobs = min(art.config.jobs, len(tasks)) or 1
        if jobs > 1:
            outcomes = self._run_parallel(art, tasks, jobs)
        else:
            outcomes = [self.guarded_search(art, task) for task in tasks]
        for task, outcome in zip(tasks, outcomes):
            task.outcome = outcome
        if art.cone_cache is not None:
            self._commit_cone_cache(art, tasks)

    def _probe_cone_cache(
        self, art: StageArtifacts, tasks: List[SubgroupTask]
    ) -> None:
        """Batched tier probe: extract, canonicalize, and look up every
        searchable subgroup in one round trip per tier.

        Subcircuits are extracted here (the search reuses them), so the
        cone-gate cap can be applied *before* any probe: a capped
        subgroup degrades identically with the cache on or off, and its
        envelope is never probed nor committed.  Tasks past a fired
        budget are left untouched — the drain path never pays for
        extraction, exactly as without a cache.
        """
        config = art.config
        budget = art.budget
        eligible: List[SubgroupTask] = []
        for task in tasks:
            if not task.candidates:
                continue
            if budget.stop_reason() is not None:
                break
            subcircuit = extract_subcircuit(
                art.netlist,
                task.subgroup.bits,
                config.depth,
                boundary=art.context.boundary,
            )
            task.subcircuit = subcircuit
            if (
                budget.max_cone_gates is not None
                and subcircuit.num_gates > budget.max_cone_gates
            ):
                continue
            task.canonical = canonicalize_subgroup(
                subcircuit, task.subgroup.bits, task.candidates
            )
            if task.canonical is not None:
                eligible.append(task)
        if not eligible:
            return
        hits = art.cone_cache.probe_many(
            [task.canonical.digest for task in eligible]
        )
        for task in eligible:
            entry = hits.get(task.canonical.digest)
            if entry is not None and valid_cone_entry(
                entry, len(task.subgroup.bits)
            ):
                task.cached_entry = entry

    def _commit_cone_cache(
        self, art: StageArtifacts, tasks: List[SubgroupTask]
    ) -> None:
        """Batched write-through of every fresh, clean outcome."""
        entries = {
            task.canonical.digest: task.fresh_entry
            for task in tasks
            if task.fresh_entry is not None and task.canonical is not None
        }
        art.cone_cache.commit_many(entries)

    @staticmethod
    def _replay(task: SubgroupTask, outcome: SubgroupOutcome) -> SubgroupOutcome:
        """Reconstruct a search outcome from a cone-cache entry.

        The cached partition is stored as run lengths over the bit order;
        emission only ever reads ``sig.net`` from partition runs, so the
        runs are rebuilt from the subgroup's *unreduced* signatures at
        the same indices — byte-identical words, singletons, and
        counters to the fresh search (``outcome.cache`` stays ``None``:
        sub-context statistics describe work that was skipped, and cache
        statistics are outside the determinism contract).
        """
        entry = task.cached_entry
        signatures = task.subgroup.signatures
        partition: List[List[BitSignature]] = []
        position = 0
        for length in entry["runs"]:
            partition.append(list(signatures[position:position + length]))
            position += length
        outcome.partition = partition
        assignment = entry.get("assignment")
        if assignment is not None:
            net_of = task.canonical.net_of
            outcome.assignment = ControlAssignment.of(
                {net_of[cid]: int(val) for cid, val in assignment.items()}
            )
        outcome.assignments_tried = entry["tried"]
        outcome.infeasible = entry["infeasible"]
        return outcome

    def _run_parallel(
        self, art: StageArtifacts, tasks: List[SubgroupTask], jobs: int
    ) -> List[SubgroupOutcome]:
        # Managed by hand instead of a `with` block: the context manager's
        # shutdown(wait=True) made Ctrl-C hang until every queued search
        # finished.  On any raise (KeyboardInterrupt, strict-mode failure)
        # we set the abort event — in-flight workers notice at their next
        # assignment boundary — cancel everything still queued, and return
        # without waiting.
        pool = ThreadPoolExecutor(max_workers=jobs)
        futures = [
            pool.submit(self.guarded_search, art, task) for task in tasks
        ]
        try:
            outcomes = [future.result() for future in futures]
        except BaseException:
            art.budget.abort.set()
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        pool.shutdown(wait=True)
        return outcomes

    def guarded_search(
        self, art: StageArtifacts, task: SubgroupTask
    ) -> SubgroupOutcome:
        """Fault-isolation wrapper around :meth:`search` for one subgroup.

        Budget stops are handled inside :meth:`search` (they keep the best
        partition found so far); this wrapper handles *crashes*: retry the
        whole search once serially, then quarantine with the unreduced
        fallback partition.  In strict mode a crash aborts the run instead.
        """
        budget = art.budget
        reason = budget.stop_reason()
        if reason is not None:
            # The run is already over (deadline passed / aborted): drain
            # the queue without paying for subcircuit extraction.
            if art.config.strict:
                raise BudgetExceeded(reason, f"subgroup {task.index}")
            return SubgroupOutcome(
                partition=full_match_runs(task.subgroup.signatures),
                failure=self._failure(task, reason),
            )
        try:
            return self.search(art, task)
        except BudgetExceeded:
            # Raised by search only in strict mode; abort siblings and
            # let the engine propagate it.
            budget.abort.set()
            raise
        except Exception as exc:
            if art.config.strict:
                budget.abort.set()
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
        """Run the assignment search for one partial subgroup."""
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

        subcircuit = task.subcircuit
        if subcircuit is None:
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
        if task.cached_entry is not None:
            return self._replay(task, outcome)
        sub = AnalysisContext(
            subcircuit, config.depth, parent=art.context
        )
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
            new_signatures = sub.signatures_after_reduction(
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
        outcome.cache = sub.stats
        if (
            art.cone_cache is not None
            and task.canonical is not None
            and outcome.failure is None
        ):
            task.fresh_entry = self._entry_from_outcome(task, outcome)
        return outcome

    @staticmethod
    def _entry_from_outcome(
        task: SubgroupTask, outcome: SubgroupOutcome
    ) -> Optional[Dict]:
        """Translate a clean fresh outcome into a cacheable cone entry.

        The partition is stored as run lengths over the subgroup's bit
        order; the assignment (if any) is translated from design net
        names into canonical cone ids.  Returns ``None`` — cache
        nothing — when the outcome cannot be expressed in the canonical
        frame (an assignment net outside the cone, or a partition that
        does not cover every bit), which keeps correctness independent
        of envelope completeness.
        """
        runs = [len(run) for run in outcome.partition]
        if sum(runs) != len(task.subgroup.bits):
            return None
        assignment = None
        if outcome.assignment is not None:
            id_of = task.canonical.id_of
            try:
                assignment = {
                    str(id_of[net]): int(val)
                    for net, val in outcome.assignment.assignments
                }
            except KeyError:
                return None
        return {
            "runs": runs,
            "assignment": assignment,
            "tried": outcome.assignments_tried,
            "infeasible": outcome.infeasible,
        }


class EmissionStage(Stage):
    """Merge per-subgroup outcomes into the result, in task order."""

    name = "emission"

    def run(self, art: StageArtifacts) -> None:
        result = art.result
        trace = art.trace
        for task in art.tasks:
            subgroup = task.subgroup
            if task.kind == "singleton":
                result.singletons.extend(subgroup.bits)
            elif task.kind == "full":
                trace.num_fully_matched_subgroups += 1
                result.words.append(Word(tuple(subgroup.bits)))
            elif task.kind == "mixed":
                _emit_partition(
                    full_match_runs(subgroup.signatures), None, result
                )
            else:
                outcome = task.outcome or SubgroupOutcome(
                    partition=full_match_runs(subgroup.signatures)
                )
                trace.num_assignments_tried += outcome.assignments_tried
                trace.num_infeasible_assignments += outcome.infeasible
                trace.num_subcircuits_extracted += outcome.subcircuits
                if outcome.cache is not None:
                    trace.cache.merge(outcome.cache)
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


def default_stages() -> Tuple[Stage, ...]:
    """The Figure 2 stage graph, in execution order."""
    return (
        GroupingStage(),
        SignatureStage(),
        MatchingStage(),
        ControlStage(),
        ReductionStage(),
        EmissionStage(),
    )


# ----------------------------------------------------------------------
# engine
# ----------------------------------------------------------------------

class AnalysisEngine:
    """Run the stage graph over a netlist, timing every stage.

    The engine computes; it never reads or writes identification
    results.  :class:`repro.api.Session` owns the store key and the
    result commit, and hands the engine only cone-cache tiers
    (``cone_cache``, DESIGN.md §12).
    """

    def __init__(
        self,
        config: "PipelineConfig",  # noqa: F821
        stages: Optional[Sequence[Stage]] = None,
        cone_cache=None,
    ):
        self.config = config
        self.stages: Tuple[Stage, ...] = tuple(stages or default_stages())
        self.cone_tiers = self._resolve_cone_tiers(cone_cache)

    def _resolve_cone_tiers(
        self, cone_cache
    ) -> Optional[List[ConeCacheTier]]:
        """Resolve the ``cone_cache`` argument into a tier sequence.

        ``None`` or ``False`` disables cone caching; a single
        :class:`ConeCacheTier` or a sequence of tiers is used verbatim —
        but only on clean configurations: a ``fault_hook`` injects
        failures that must not leak into (or be masked by) any cache, so
        it always disables cone caching.
        """
        if (
            self.config.fault_hook is not None
            or cone_cache is None
            or cone_cache is False
        ):
            return None
        if isinstance(cone_cache, ConeCacheTier):
            return [cone_cache]
        return list(cone_cache) or None

    def run(
        self,
        netlist: Netlist,
        context: Optional[AnalysisContext] = None,
    ) -> IdentificationResult:
        started = perf_counter()
        if context is None:
            context = AnalysisContext(netlist, self.config.depth)
        elif context.depth != self.config.depth:
            raise ValueError(
                f"context depth {context.depth} != config depth "
                f"{self.config.depth}"
            )
        budget = RunBudget.from_config(self.config)
        context.budget = budget
        result = IdentificationResult()
        result.trace.backend = getattr(self.config, "backend", "ours")
        result.trace.jobs = self.config.jobs
        chain: Optional[ConeCacheChain] = None
        if self.cone_tiers:
            chain = ConeCacheChain(
                cone_fingerprint(self.config), self.cone_tiers
            )
        art = StageArtifacts(
            netlist=netlist,
            config=self.config,
            context=context,
            result=result,
            budget=budget,
            cone_cache=chain,
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
        result.trace.cache.merge(context.stats)
        if chain is not None:
            chain.add_to(result.trace.cache)
            chain.publish_metrics()
        result.runtime_seconds = perf_counter() - started
        self._publish_metrics(result)
        return result

    @staticmethod
    def _publish_metrics(result: IdentificationResult) -> None:
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
# search helpers (shared with the legacy pipeline API)
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


def _full_match_partition(
    signatures: Sequence[BitSignature],
) -> List[List[BitSignature]]:
    """Partition bits into maximal runs of fully-matching structure."""
    return full_match_runs(signatures)


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
