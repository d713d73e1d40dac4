"""Resilience layer: budgets, fault-isolated searches, graceful degradation.

The contract under test (ISSUE 2 / DESIGN.md §8):

* a budget that fires degrades one subgroup — or, for the wall-clock
  deadline, the remainder of the run — while partial words still come out
  and the reason lands on the trace;
* a crashing subgroup search is retried once and otherwise quarantined
  without corrupting sibling results;
* ``strict=True`` re-raises instead of degrading;
* when no budget fires, results stay byte-identical.
"""

import sys
import time

import pytest

sys.path.insert(0, "tests")

from fixtures import figure1_netlist

from repro.core import PipelineConfig, identify_words
from repro.core.resilience import (
    BudgetExceeded,
    Deadline,
    DeadlineExceeded,
    PreflightError,
    RunBudget,
    SubgroupFailure,
)
from repro.netlist.cells import NAND
from repro.netlist.netlist import Netlist
from repro.synth.designs import BENCHMARKS


def _snapshot(result):
    """Everything the determinism contract covers, as plain data."""
    return {
        "words": [w.bits for w in result.words],
        "singletons": list(result.singletons),
        "assignments": {
            w.bits: a.assignments
            for w, a in result.control_assignments.items()
        },
        "counters": result.trace.counter_dict(),
        "failures": [f.as_dict() for f in result.trace.failures],
    }


def _partial_indices(netlist):
    """Task indices of the reduction-searched subgroups of ``netlist``."""
    seen = []

    def spy(task):
        seen.append(task.index)

    identify_words(netlist, PipelineConfig(fault_hook=spy))
    return seen


# ----------------------------------------------------------------------
# primitives
# ----------------------------------------------------------------------

class TestPrimitives:
    def test_deadline_after_none_is_none(self):
        assert Deadline.after(None) is None
        assert Deadline.after(10.0).seconds == 10.0

    def test_deadline_expiry(self):
        assert not Deadline(3600).expired()
        assert Deadline(1e-9).expired()
        with pytest.raises(DeadlineExceeded):
            Deadline(1e-9).check("here")
        Deadline(3600).check("here")  # no raise

    def test_budget_inactive_by_default(self):
        budget = RunBudget()
        assert not budget.active
        assert budget.stop_reason() is None
        assert budget.stop_reason(assignments_tried=10**9) is None
        budget.check("anywhere")  # no raise

    def test_stop_reasons(self):
        budget = RunBudget(max_assignments=5)
        assert budget.stop_reason(4) is None
        assert budget.stop_reason(5) == "assignments"
        budget.abort.set()
        assert budget.stop_reason(0) == "aborted"

    def test_deadline_reason(self):
        budget = RunBudget(deadline=Deadline(1e-9))
        assert budget.stop_reason() == "deadline"
        assert budget.expired()
        with pytest.raises(BudgetExceeded) as info:
            budget.check("stage x")
        assert info.value.reason == "deadline"

    def test_failure_dict_schema(self):
        failure = SubgroupFailure(
            index=3,
            bits=("a", "b"),
            stage="reduction",
            kind="error",
            detail="boom",
            retried=True,
            assignments_tried=7,
        )
        assert failure.as_dict() == {
            "index": 3,
            "bits": ["a", "b"],
            "stage": "reduction",
            "kind": "error",
            "detail": "boom",
            "retried": True,
            "assignments_tried": 7,
        }
        assert "subgroup 3" in failure.describe()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PipelineConfig(deadline_s=0)
        for deadline in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                PipelineConfig(deadline_s=deadline)
        with pytest.raises(ValueError):
            PipelineConfig(max_assignments=-1)
        with pytest.raises(ValueError):
            PipelineConfig(max_cone_gates=0)


# ----------------------------------------------------------------------
# budgets degrade, never crash
# ----------------------------------------------------------------------

class TestBudgets:
    def test_assignment_budget_keeps_partial_words(self):
        netlist = BENCHMARKS["b03"]()
        result = identify_words(
            netlist, PipelineConfig(max_assignments=0)
        )
        assert result.words  # partial words still emitted
        assert result.trace.degraded
        assert {f.kind for f in result.trace.failures} == {"assignments"}
        assert all(
            f.assignments_tried == 0 for f in result.trace.failures
        )
        assert result.trace.num_assignments_tried == 0

    def test_cone_gate_cap_quarantines_oversized_subgroups(self):
        netlist = BENCHMARKS["b03"]()
        result = identify_words(netlist, PipelineConfig(max_cone_gates=1))
        assert result.words
        assert {f.kind for f in result.trace.failures} == {"cone_gates"}

    def test_expired_deadline_still_returns_a_result(self):
        netlist = BENCHMARKS["b03"]()
        result = identify_words(netlist, PipelineConfig(deadline_s=1e-9))
        assert result.trace.deadline_hit
        assert result.trace.degraded
        # The run-level failure names the first skipped stage.
        run_level = [f for f in result.trace.failures if f.index == -1]
        assert run_level and run_level[0].kind == "deadline"
        assert run_level[0].stage == "grouping"

    def test_deadline_mid_reduction_yields_partial_words(self):
        netlist = BENCHMARKS["b03"]()
        clean = identify_words(netlist, PipelineConfig())

        def burn(task):
            # First searched subgroup burns the whole deadline: the run
            # expires *inside* the reduction stage.
            time.sleep(0.08)

        result = identify_words(
            netlist, PipelineConfig(deadline_s=0.05, fault_hook=burn)
        )
        assert result.words  # partial words, not an empty crash
        assert result.trace.deadline_hit
        kinds = {f.kind for f in result.trace.failures}
        assert "deadline" in kinds
        # Fully-matched subgroups never entered the search: their words
        # survive verbatim.
        clean_full = set(w.bits for w in clean.words) - {
            w.bits for w in clean.control_assignments
        }
        assert clean_full <= set(w.bits for w in result.words)

    def test_unfired_budgets_are_byte_identical(self):
        netlist = BENCHMARKS["b03"]()
        clean = identify_words(netlist, PipelineConfig())
        loose = identify_words(
            netlist,
            PipelineConfig(
                deadline_s=3600.0,
                max_assignments=10**9,
                max_cone_gates=10**9,
            ),
        )
        assert _snapshot(loose) == _snapshot(clean)
        assert not loose.trace.degraded

    def test_strict_budget_raises(self):
        netlist = BENCHMARKS["b03"]()
        with pytest.raises(BudgetExceeded) as info:
            identify_words(
                netlist, PipelineConfig(max_assignments=0, strict=True)
            )
        assert info.value.reason == "assignments"

    def test_strict_deadline_raises(self):
        netlist = BENCHMARKS["b03"]()
        with pytest.raises(BudgetExceeded) as info:
            identify_words(
                netlist, PipelineConfig(deadline_s=1e-9, strict=True)
            )
        assert info.value.reason == "deadline"


# ----------------------------------------------------------------------
# fault-isolated searches
# ----------------------------------------------------------------------

class TestFaultIsolation:
    def test_crash_is_quarantined_without_corrupting_siblings(self):
        netlist = BENCHMARKS["b03"]()
        clean = identify_words(netlist, PipelineConfig())
        victim = _partial_indices(netlist)[0]

        def boom(task):
            if task.index == victim:
                raise RuntimeError("injected fault")

        result = identify_words(netlist, PipelineConfig(fault_hook=boom))
        failures = result.trace.failures
        assert [f.index for f in failures] == [victim]
        assert failures[0].kind == "error"
        assert failures[0].retried  # the serial retry ran first
        assert "injected fault" in failures[0].detail
        # Every word not unlocked by the quarantined subgroup survives.
        assert set(w.bits for w in clean.words) - {
            w.bits for w in clean.control_assignments
        } <= set(w.bits for w in result.words)

    def test_transient_crash_is_healed_by_the_retry(self):
        netlist = BENCHMARKS["b03"]()
        clean = identify_words(netlist, PipelineConfig())
        victim = _partial_indices(netlist)[0]
        calls = {"n": 0}

        def flaky(task):
            if task.index == victim:
                calls["n"] += 1
                if calls["n"] == 1:
                    raise RuntimeError("transient")

        result = identify_words(netlist, PipelineConfig(fault_hook=flaky))
        assert calls["n"] == 2
        assert not result.trace.failures
        assert _snapshot(result)["words"] == _snapshot(clean)["words"]

    def test_quarantine_is_deterministic_across_jobs(self):
        netlist = BENCHMARKS["b03"]()
        victim = _partial_indices(netlist)[0]

        def boom(task):
            if task.index == victim:
                raise RuntimeError("injected fault")

        first = identify_words(netlist, PipelineConfig(fault_hook=boom))
        again = identify_words(netlist, PipelineConfig(fault_hook=boom))
        assert _snapshot(again) == _snapshot(first)

    def test_strict_crash_propagates(self):
        netlist = BENCHMARKS["b03"]()
        victim = _partial_indices(netlist)[0]

        def boom(task):
            if task.index == victim:
                raise RuntimeError("injected fault")

        with pytest.raises(RuntimeError, match="injected fault"):
            identify_words(
                netlist, PipelineConfig(fault_hook=boom, strict=True)
            )

    def test_keyboard_interrupt_cancels_parallel_run(self):
        # Ctrl-C during one subgroup's search propagates out of the run
        # at once: it is neither retried nor quarantined.
        netlist = BENCHMARKS["b03"]()
        victim = _partial_indices(netlist)[0]

        def interrupt(task):
            if task.index == victim:
                raise KeyboardInterrupt

        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            identify_words(netlist, PipelineConfig(fault_hook=interrupt))
        assert time.monotonic() - started < 30.0


# ----------------------------------------------------------------------
# pre-flight validation
# ----------------------------------------------------------------------

class TestPreflight:
    @staticmethod
    def _floating_input_netlist():
        nl = Netlist("t")
        nl.add_input("a")
        nl.add_gate("g", NAND, ["a", "ghost"], "n1")
        nl.add_output("n1")
        return nl

    def test_preflight_records_diagnostics(self):
        result = identify_words(
            self._floating_input_netlist(),
            PipelineConfig(preflight=True),
        )
        assert result.trace.preflight
        kinds = {d["kind"] for d in result.trace.preflight}
        assert "floating-input" in kinds

    def test_preflight_off_by_default(self):
        result = identify_words(
            self._floating_input_netlist(), PipelineConfig()
        )
        assert result.trace.preflight == []

    def test_strict_preflight_raises(self):
        with pytest.raises(PreflightError) as info:
            identify_words(
                self._floating_input_netlist(),
                PipelineConfig(preflight=True, strict=True),
            )
        assert info.value.diagnostics

    def test_clean_netlist_passes_strict_preflight(self):
        netlist, _bits = figure1_netlist()
        result = identify_words(
            netlist, PipelineConfig(preflight=True, strict=True)
        )
        assert result.trace.preflight == []
        assert result.words
