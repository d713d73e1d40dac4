"""Result datatypes shared across the word-identification pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .resilience import SubgroupFailure

__all__ = [
    "Word",
    "ControlAssignment",
    "CacheStats",
    "StageTrace",
    "IdentificationResult",
    "SIGNATURE_KERNEL",
]

#: The ``kernel`` field of trace payloads and ``--json`` config blocks.
#: Signatures have a single implementation, so the field is a constant;
#: it stays in the payloads so their shape (``SCHEMA_VERSION``) holds.
SIGNATURE_KERNEL = "python"

#: Counters of the retired cross-run cone cache.  ``StageTrace.as_dict``
#: still writes them as constant zeros under ``cache`` for readers that
#: index them, like the ``kernel`` constant above.
RETIRED_CACHE_COUNTERS = (
    "cone_tier_process_hits",
    "cone_tier_store_hits",
    "cone_tier_misses",
)


@dataclass(frozen=True)
class Word:
    """A group of nets identified as belonging to one word.

    ``bits`` preserves discovery order (netlist file order); the set view is
    what the evaluation metrics consume.
    """

    bits: Tuple[str, ...]

    def __post_init__(self):
        if len(set(self.bits)) != len(self.bits):
            raise ValueError(f"duplicate bits in word: {self.bits}")

    @property
    def width(self) -> int:
        return len(self.bits)

    @property
    def bit_set(self) -> FrozenSet[str]:
        return frozenset(self.bits)

    def __contains__(self, net: str) -> bool:
        return net in self.bits

    def __str__(self) -> str:
        return "{" + ", ".join(self.bits) + "}"


@dataclass(frozen=True)
class ControlAssignment:
    """Control-signal values that made a partially-matched group fully match.

    ``assignments`` maps net → constant (0/1); the value is always the
    controlling value of a gate the signal feeds inside the dissimilar
    subtrees (Section 2.5).
    """

    assignments: Tuple[Tuple[str, int], ...]

    @classmethod
    def of(cls, mapping: Dict[str, int]) -> "ControlAssignment":
        return cls(tuple(sorted(mapping.items())))

    @property
    def signals(self) -> Tuple[str, ...]:
        return tuple(net for net, _ in self.assignments)

    def as_dict(self) -> Dict[str, int]:
        return dict(self.assignments)

    def __str__(self) -> str:
        return ", ".join(f"{net}={val}" for net, val in self.assignments)


@dataclass
class CacheStats:
    """Hit/miss counters of the caches of a run's one
    :class:`~repro.core.context.AnalysisContext`.

    ``signature_hits`` / ``signature_misses`` count the bit signatures a
    run builds or reuses.  The engine matches bits by interned shape and
    asks for signatures only for the bits of partially matched subgroups
    (a reduction search reads the memoized signature of a bit an
    assignment leaves untouched), so a ``backend="base"`` run counts none.  ``key_hits`` counts the subtree
    keys those signatures read; ``key_misses`` counts the keys a run
    computes (the key tables: every eligible net per level).
    ``key_shared_hits`` counted the keys a reduction search's sub-context
    copied from the run's context; with one context per run it reads 0,
    and stays in the trace payload for the readers that index it.
    ``netset_hits`` / ``netset_misses`` count the reads of the cone
    net-set memo (control-signal discovery and the reduced re-hash).

    ``reduced_keys_reused`` / ``reduced_keys_rehashed`` record the incremental
    re-check after each control-signal assignment: reused keys were taken
    verbatim from the unreduced circuit because the assignment provably did
    not touch that subtree; rehashed keys had to be recomputed.

    Cache statistics are outside :meth:`StageTrace.counter_dict`.
    """

    cone_hits: int = 0
    cone_misses: int = 0
    key_hits: int = 0
    key_misses: int = 0
    key_shared_hits: int = 0
    signature_hits: int = 0
    signature_misses: int = 0
    netset_hits: int = 0
    netset_misses: int = 0
    reduced_keys_reused: int = 0
    reduced_keys_rehashed: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

    @staticmethod
    def _rate(hits: int, misses: int) -> float:
        total = hits + misses
        return hits / total if total else 0.0

    @property
    def cone_hit_rate(self) -> float:
        return self._rate(self.cone_hits, self.cone_misses)

    @property
    def key_hit_rate(self) -> float:
        return self._rate(self.key_hits + self.key_shared_hits, self.key_misses)

    @property
    def reduced_reuse_rate(self) -> float:
        return self._rate(self.reduced_keys_reused, self.reduced_keys_rehashed)

    def lines(self) -> List[str]:
        return [
            f"cone cache:          {self.cone_hits} hits / "
            f"{self.cone_misses} misses ({self.cone_hit_rate:.1%})",
            f"hash-key cache:      {self.key_hits} hits + "
            f"{self.key_shared_hits} shared / {self.key_misses} misses "
            f"({self.key_hit_rate:.1%})",
            f"signature cache:     {self.signature_hits} hits / "
            f"{self.signature_misses} misses",
            f"cone net-set cache:  {self.netset_hits} hits / "
            f"{self.netset_misses} misses",
            f"reduced-key reuse:   {self.reduced_keys_reused} reused / "
            f"{self.reduced_keys_rehashed} rehashed "
            f"({self.reduced_reuse_rate:.1%})",
        ]


@dataclass
class StageTrace:
    """Per-stage counters exposed for the Figure 2 flow inspection.

    Every counter corresponds to one box of the paper's flowchart, so
    ``examples/quickstart.py --trace`` can narrate the run.  On top of the
    paper-facing counters the trace carries the engine's observability
    layer: per-stage wall-clock (``stage_seconds``, keyed by stage name in
    execution order), cache hit/miss statistics (``cache``), and
    assignment-search statistics.  ``as_dict`` is the machine-readable
    schema dumped by ``repro identify --trace-json``.
    """

    num_candidate_nets: int = 0
    num_groups: int = 0
    num_subgroups: int = 0
    num_fully_matched_subgroups: int = 0
    num_partially_matched_subgroups: int = 0
    num_control_signal_candidates: int = 0
    num_assignments_tried: int = 0
    num_reductions_that_matched: int = 0
    num_infeasible_assignments: int = 0
    num_subcircuits_extracted: int = 0
    # Which identification backend produced the run (repro.core.backends).
    # Provenance, not a counter: the backend is part of the store
    # fingerprint (different backends produce different results, so they
    # never share cache entries), but within one backend the result
    # digest must not depend on how the backend was selected — so it
    # stays outside counter_dict().
    backend: str = "ours"
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    cache: CacheStats = field(default_factory=CacheStats)
    # Resilience layer (see core/resilience.py and DESIGN.md §8): every
    # quarantined degradation, whether the run's deadline fired, and the
    # pre-flight validator diagnostics.  All empty on a clean run, so the
    # determinism contract is unchanged when no budget fires.
    failures: List[SubgroupFailure] = field(default_factory=list)
    deadline_hit: bool = False
    preflight: List[Dict] = field(default_factory=list)
    # Artifact-store provenance (see repro.store): empty when no store was
    # consulted, else {"provenance": "hit"|"miss", "key": <cache key>}.
    # Deliberately outside counter_dict(): it describes how the result was
    # obtained, not what the result is, so hit and miss runs stay
    # byte-identical on everything the determinism oracles compare.
    cache_provenance: Dict[str, str] = field(default_factory=dict)

    @property
    def degraded(self) -> bool:
        """Whether any subgroup or stage was degraded instead of completed."""
        return bool(self.failures) or self.deadline_hit

    def lines(self) -> List[str]:
        return [
            f"candidate nets scanned:          {self.num_candidate_nets}",
            f"first-level groups (Sec 2.2):    {self.num_groups}",
            f"subgroups (Sec 2.3):             {self.num_subgroups}",
            f"  fully matched:                 {self.num_fully_matched_subgroups}",
            f"  partially matched:             {self.num_partially_matched_subgroups}",
            f"control signals found (Sec 2.4): {self.num_control_signal_candidates}",
            f"assignments tried (Sec 2.5):     {self.num_assignments_tried}",
            f"reductions that matched:         {self.num_reductions_that_matched}",
        ]

    def counter_dict(self) -> Dict[str, int]:
        """The deterministic integer counters (the result digest's)."""
        return {
            name: getattr(self, name)
            for name in (
                "num_candidate_nets",
                "num_groups",
                "num_subgroups",
                "num_fully_matched_subgroups",
                "num_partially_matched_subgroups",
                "num_control_signal_candidates",
                "num_assignments_tried",
                "num_reductions_that_matched",
                "num_infeasible_assignments",
                "num_subcircuits_extracted",
            )
        }

    def timing_lines(self) -> List[str]:
        total = sum(self.stage_seconds.values())
        out = [
            f"{name:<12} {seconds * 1000.0:9.1f} ms"
            for name, seconds in self.stage_seconds.items()
        ]
        if out:
            out.append(f"{'total':<12} {total * 1000.0:9.1f} ms")
        return out

    def extended_lines(self) -> List[str]:
        """Counters plus timings and cache statistics, for ``--trace``."""
        out = self.lines()
        out.append(f"infeasible assignments:          "
                   f"{self.num_infeasible_assignments}")
        out.append(f"subcircuits extracted:           "
                   f"{self.num_subcircuits_extracted}")
        out.append(f"backend:                         {self.backend}")
        if self.stage_seconds:
            out.append("stage timings:")
            out.extend(f"  {line}" for line in self.timing_lines())
        out.append("caches:")
        out.extend(f"  {line}" for line in self.cache.lines())
        if self.preflight:
            out.append(f"pre-flight diagnostics:           {len(self.preflight)}")
            out.extend(
                f"  [{diag['severity']}] {diag['message']}"
                for diag in self.preflight
            )
        if self.degraded:
            out.append(
                f"DEGRADED: {len(self.failures)} quarantined failure(s)"
                + (" (deadline hit)" if self.deadline_hit else "")
            )
            out.extend(f"  {f.describe()}" for f in self.failures)
        return out

    def as_dict(self) -> Dict:
        """Machine-readable trace: counters, timings, cache statistics, and
        the resilience record (degradations, deadline, pre-flight)."""
        return {
            "counters": self.counter_dict(),
            "backend": self.backend,
            "kernel": SIGNATURE_KERNEL,
            "stage_seconds": dict(self.stage_seconds),
            "cache": {
                **self.cache.as_dict(),
                **dict.fromkeys(RETIRED_CACHE_COUNTERS, 0),
            },
            "degraded": self.degraded,
            "deadline_hit": self.deadline_hit,
            "failures": [f.as_dict() for f in self.failures],
            "preflight": list(self.preflight),
            "cache_provenance": dict(self.cache_provenance),
        }


@dataclass
class IdentificationResult:
    """Output of a word-identification technique on one netlist.

    ``words`` contains multi-bit words only; ``singletons`` are candidate
    bits that ended up alone (each is its own generated word for the
    fragmentation metric).  ``control_assignments`` records, per identified
    word, the assignment that unlocked it (empty for words matched without
    reduction).  ``runtime_seconds`` is wall-clock for the Table 1 column.
    """

    words: List[Word] = field(default_factory=list)
    singletons: List[str] = field(default_factory=list)
    control_assignments: Dict[Word, ControlAssignment] = field(default_factory=dict)
    trace: StageTrace = field(default_factory=StageTrace)
    runtime_seconds: float = 0.0

    @property
    def control_signals(self) -> Tuple[str, ...]:
        """Distinct control signals that unlocked a word (Table 1 last column)."""
        seen: List[str] = []
        for assignment in self.control_assignments.values():
            for net in assignment.signals:
                if net not in seen:
                    seen.append(net)
        return tuple(seen)

    def word_of(self, net: str) -> Optional[Word]:
        """The generated multi-bit word containing ``net``, if any."""
        for word in self.words:
            if net in word:
                return word
        return None

    def all_generated_words(self) -> List[Word]:
        """Multi-bit words plus singleton words, as the metrics see them."""
        return self.words + [Word((net,)) for net in self.singletons]
