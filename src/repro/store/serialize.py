"""Lossless (de)serialization of pipeline results for the artifact store.

The persisted form is plain JSON so entries are inspectable with ``jq``
and survive interpreter upgrades (no pickle).  ``result_from_dict`` is
the exact inverse of ``result_to_dict`` on everything deterministic:
words, singletons, control assignments, trace counters, cache statistics,
and pre-flight diagnostics round-trip bit-for-bit.  Wall-clock fields
(``runtime_seconds``, ``stage_seconds``) are carried along verbatim —
they describe the original computation, not the (near-free) cache load.

Degraded results (quarantined failures, expired deadlines) are *not*
serializable by design: a degraded run reflects one machine's budget
pressure, not the design, so the store refuses to persist it and the next
run simply recomputes.

:func:`result_digest` derives a SHA-256 over the deterministic subset
only; the batch orchestrator and the CI cache job compare these digests
to assert that cached and uncached runs are byte-identical.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict

from ..core.stages import AnalysisEngine
from ..core.words import (
    SIGNATURE_KERNEL,
    CacheStats,
    ControlAssignment,
    IdentificationResult,
    StageTrace,
    Word,
)

__all__ = [
    "result_to_dict",
    "result_from_dict",
    "result_digest",
    "UnserializableResult",
]


class UnserializableResult(ValueError):
    """Raised when a result must not be persisted (degraded runs)."""


def _trace_to_dict(trace: StageTrace) -> Dict:
    if trace.degraded:
        raise UnserializableResult(
            "degraded results are not cacheable: "
            f"{len(trace.failures)} failure(s), "
            f"deadline_hit={trace.deadline_hit}"
        )
    return {
        "counters": trace.counter_dict(),
        "backend": trace.backend,
        "kernel": SIGNATURE_KERNEL,
        "stage_seconds": dict(trace.stage_seconds),
        "cache": trace.cache.as_dict(),
        "preflight": list(trace.preflight),
    }


#: The engine's six stage names in run order.  Envelopes are stored with
#: sorted keys, so a loaded trace lists its stages in this order, as the
#: run that stored it did.
_STAGE_RANK = {
    stage.name: rank for rank, stage in enumerate(AnalysisEngine.stages)
}


def _trace_from_dict(payload: Dict) -> StageTrace:
    trace = StageTrace()
    for name, value in payload.get("counters", {}).items():
        if name in trace.counter_dict():
            setattr(trace, name, value)
    # Entries persisted before the backend field existed were computed by
    # the default technique.  Stored ``kernel`` and ``jobs`` fields, and
    # cache counters of retired caches, are ignored: no past value of
    # either knob changed a result.
    trace.backend = payload.get("backend", "ours")
    stored = payload.get("stage_seconds", {})
    trace.stage_seconds = {
        name: stored[name]
        for name in sorted(
            stored, key=lambda name: _STAGE_RANK.get(name, len(_STAGE_RANK))
        )
    }
    cache_fields = payload.get("cache", {})
    trace.cache = CacheStats(**{
        name: cache_fields.get(name, 0)
        for name in CacheStats.__dataclass_fields__
    })
    trace.preflight = list(payload.get("preflight", []))
    return trace


def result_to_dict(result: IdentificationResult) -> Dict:
    """One identification result as a JSON-ready dict (store payload)."""
    return {
        "words": [list(word.bits) for word in result.words],
        "singletons": list(result.singletons),
        "control_assignments": [
            {"word": list(word.bits), "assignment": assignment.as_dict()}
            for word, assignment in result.control_assignments.items()
        ],
        "runtime_seconds": result.runtime_seconds,
        "trace": _trace_to_dict(result.trace),
    }


def result_from_dict(payload: Dict) -> IdentificationResult:
    """Inverse of :func:`result_to_dict`."""
    result = IdentificationResult()
    result.words = [Word(tuple(bits)) for bits in payload["words"]]
    result.singletons = list(payload["singletons"])
    for entry in payload["control_assignments"]:
        word = Word(tuple(entry["word"]))
        result.control_assignments[word] = ControlAssignment.of(
            {net: int(val) for net, val in entry["assignment"].items()}
        )
    result.runtime_seconds = payload.get("runtime_seconds", 0.0)
    result.trace = _trace_from_dict(payload.get("trace", {}))
    return result


def result_digest(result: IdentificationResult) -> str:
    """SHA-256 over the deterministic subset of a result.

    Two runs of the same design and configuration — cached or freshly
    computed, in any process — must produce the same digest; anything
    else is a correctness bug (this is the ``cache-on ≡ cache-off``
    oracle's comparison key).  Timings are deliberately excluded.
    """
    canonical = {
        "words": [list(word.bits) for word in result.words],
        "singletons": list(result.singletons),
        "control_assignments": [
            {"word": list(word.bits), "assignment": assignment.as_dict()}
            for word, assignment in result.control_assignments.items()
        ],
        "counters": result.trace.counter_dict(),
    }
    text = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
