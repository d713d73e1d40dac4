"""Deadline/budget primitives and failure records for the staged engine.

The reduction search of Section 2.5 is quadratic in relevant control
signals per subgroup and unbounded on adversarial netlists, so a
production run needs three cooperative limits:

* a **wall-clock deadline** for the whole run (``PipelineConfig.deadline_s``),
* a **per-subgroup assignment budget** (``PipelineConfig.max_assignments``),
* a **subcircuit size cap** (``PipelineConfig.max_cone_gates``).

All three are *cooperative*: the engine checks them at stage boundaries,
the reduction search at assignment boundaries, and
:class:`~repro.core.context.AnalysisContext` between precompute levels.
When nothing is configured every check short-circuits to a no-op, which
preserves the engine's byte-identical determinism guarantee.

A budget that fires — or a subgroup search that crashes — degrades one
subgroup, never the run: the search's best partition so far (falling back
to the unreduced full-match partition) is still emitted, and the reason is
quarantined into a :class:`SubgroupFailure` on the
:class:`~repro.core.words.StageTrace`.  ``strict=True`` re-raises instead.

:class:`RunBudget` also carries the run's ``abort`` event: setting it
(from another thread, say) stops the run at its next stage or assignment
boundary instead of after a long search.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from time import monotonic
from typing import Dict, List, Optional, Tuple

__all__ = [
    "BudgetExceeded",
    "DeadlineExceeded",
    "Deadline",
    "PreflightError",
    "RunBudget",
    "SubgroupFailure",
]


class BudgetExceeded(RuntimeError):
    """A configured resource limit fired (strict mode re-raises this).

    ``reason`` is one of ``"deadline"``, ``"assignments"``,
    ``"cone_gates"`` or ``"aborted"``; ``where`` names the stage or
    checkpoint that noticed.
    """

    def __init__(self, reason: str, where: str = "", detail: str = ""):
        self.reason = reason
        self.where = where
        self.detail = detail
        parts = [f"budget exceeded: {reason}"]
        if where:
            parts.append(f"at {where}")
        if detail:
            parts.append(f"({detail})")
        super().__init__(" ".join(parts))


class DeadlineExceeded(BudgetExceeded):
    """The run's wall-clock deadline expired."""

    def __init__(self, where: str = "", detail: str = ""):
        super().__init__("deadline", where, detail)


class PreflightError(RuntimeError):
    """Strict-mode pre-flight rejection: the netlist validator found
    structural diagnostics (``strict=True`` turns warnings into errors).

    ``diagnostics`` holds the structured
    :class:`~repro.netlist.validate.Diagnostic` records.
    """

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        lines = "\n  ".join(d.message for d in self.diagnostics)
        super().__init__(
            f"pre-flight validation failed "
            f"({len(self.diagnostics)} diagnostic(s)):\n  {lines}"
        )


class Deadline:
    """A wall-clock deadline on the monotonic clock.

    ``Deadline.after(None)`` is ``None`` — callers hold an optional and
    skip the clock read entirely when no deadline is configured.
    """

    __slots__ = ("seconds", "_expires_at")

    def __init__(self, seconds: float):
        self.seconds = seconds
        self._expires_at = monotonic() + seconds

    @classmethod
    def after(cls, seconds: Optional[float]) -> Optional["Deadline"]:
        return None if seconds is None else cls(seconds)

    def expired(self) -> bool:
        return monotonic() >= self._expires_at

    def remaining(self) -> float:
        return max(0.0, self._expires_at - monotonic())

    def check(self, where: str = "") -> None:
        if self.expired():
            raise DeadlineExceeded(where, f"limit {self.seconds:g}s")

    def __repr__(self) -> str:
        return f"<Deadline {self.seconds:g}s, {self.remaining():.3f}s left>"


class RunBudget:
    """One run's shared limits plus its cooperative abort flag.

    The engine builds one per :meth:`AnalysisEngine.run` from the
    ``PipelineConfig`` and threads it through the stage artifacts; every
    stage and subgroup search consults the same instance.
    """

    __slots__ = ("deadline", "max_assignments", "max_cone_gates", "abort")

    def __init__(
        self,
        deadline: Optional[Deadline] = None,
        max_assignments: Optional[int] = None,
        max_cone_gates: Optional[int] = None,
    ):
        self.deadline = deadline
        self.max_assignments = max_assignments
        self.max_cone_gates = max_cone_gates
        self.abort = threading.Event()

    @classmethod
    def from_config(cls, config) -> "RunBudget":
        return cls(
            deadline=Deadline.after(getattr(config, "deadline_s", None)),
            max_assignments=getattr(config, "max_assignments", None),
            max_cone_gates=getattr(config, "max_cone_gates", None),
        )

    @property
    def active(self) -> bool:
        """Whether any limit is configured at all."""
        return (
            self.deadline is not None
            or self.max_assignments is not None
            or self.max_cone_gates is not None
        )

    def expired(self) -> bool:
        """Whether the run should stop (deadline passed or abort set)."""
        if self.abort.is_set():
            return True
        return self.deadline is not None and self.deadline.expired()

    def stop_reason(
        self, assignments_tried: Optional[int] = None
    ) -> Optional[str]:
        """The first limit that has fired, or ``None`` to keep going.

        This is the per-assignment check of the reduction search; it
        costs one event probe when no limit is configured.
        """
        if self.abort.is_set():
            return "aborted"
        if self.deadline is not None and self.deadline.expired():
            return "deadline"
        if (
            self.max_assignments is not None
            and assignments_tried is not None
            and assignments_tried >= self.max_assignments
        ):
            return "assignments"
        return None

    def check(self, where: str = "") -> None:
        """Raise :class:`BudgetExceeded` if the run should stop."""
        if self.abort.is_set():
            raise BudgetExceeded("aborted", where)
        if self.deadline is not None:
            self.deadline.check(where)


@dataclass(frozen=True)
class SubgroupFailure:
    """One quarantined degradation, surfaced on the stage trace.

    ``index`` is the subgroup task index (``-1`` for a stage-level event
    such as a deadline firing between stages); ``kind`` is one of
    ``"error"`` (a search exception survived its retry), ``"deadline"``,
    ``"assignments"``, ``"cone_gates"`` or ``"aborted"``.  ``retried``
    records whether the retry ran before quarantine.  The dict form
    is the ``failures`` entry schema of ``repro identify --trace-json``
    (documented in DESIGN.md §8).
    """

    index: int
    bits: Tuple[str, ...]
    stage: str
    kind: str
    detail: str = ""
    retried: bool = False
    assignments_tried: int = 0

    def as_dict(self) -> Dict:
        return {
            "index": self.index,
            "bits": list(self.bits),
            "stage": self.stage,
            "kind": self.kind,
            "detail": self.detail,
            "retried": self.retried,
            "assignments_tried": self.assignments_tried,
        }

    def describe(self) -> str:
        scope = f"subgroup {self.index}" if self.index >= 0 else "run"
        suffix = f": {self.detail}" if self.detail else ""
        return f"{scope} [{self.stage}] {self.kind}{suffix}"
