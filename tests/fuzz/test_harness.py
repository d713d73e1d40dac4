"""Harness behaviour: campaigns, shrinking, reproducers, CLI contract."""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.fuzz.generator import GeneratorConfig, plan_sample, sample_seed
from repro.fuzz.harness import (
    HarnessConfig,
    main,
    run_campaign,
    shrink_failure,
)
from repro.fuzz.mutations import apply_mutation


def _config(tmp_path: Path, **overrides) -> HarnessConfig:
    defaults = dict(seed=0, samples=4, output_dir=tmp_path / "failures")
    defaults.update(overrides)
    return HarnessConfig(**defaults)


class TestCampaign:
    def test_clean_campaign_passes(self, tmp_path):
        report = run_campaign(_config(tmp_path))
        assert report.passed
        assert len(report.results) == 4
        assert not report.failures
        assert not (tmp_path / "failures").exists()

    def test_digest_is_deterministic(self, tmp_path):
        first = run_campaign(_config(tmp_path))
        second = run_campaign(_config(tmp_path))
        assert first.digest() == second.digest()

    def test_digest_depends_on_seed(self, tmp_path):
        a = run_campaign(_config(tmp_path, seed=0, samples=2))
        b = run_campaign(_config(tmp_path, seed=1, samples=2))
        assert a.digest() != b.digest()

    def test_single_index_mode(self, tmp_path):
        report = run_campaign(_config(tmp_path, index=3))
        assert [r.index for r in report.results] == [3]
        assert report.results[0].seed == sample_seed(0, 3)

    def test_time_budget_stops_early(self, tmp_path):
        report = run_campaign(_config(tmp_path, time_budget=0.0))
        assert report.stopped_early
        assert not report.passed
        assert not report.results

    def test_mutated_campaign_fails_and_emits_reproducer(self, tmp_path):
        with apply_mutation("no-controls"):
            report = run_campaign(_config(tmp_path, samples=1))
        assert not report.passed
        (record,) = report.failures
        assert record.reproducer is not None
        assert (record.reproducer / "original.v").exists()
        assert (record.reproducer / "shrunk.v").exists()
        payload = json.loads((record.reproducer / "report.json").read_text())
        assert payload["campaign_seed"] == 0
        assert payload["failed_oracles"]
        assert payload["rerun"].startswith("repro fuzz --seed 0 --index 0")
        assert record.shrunk_gates <= record.sample.num_gates


class TestShrinking:
    def test_shrink_reduces_a_failing_plan(self):
        plan = plan_sample(sample_seed(0, 0))
        with apply_mutation("no-controls"):
            shrunk, builds = shrink_failure(
                plan, ["expectation"], depth=4, max_builds=60,
            )
        assert builds > 0
        assert len(shrunk.words) < len(plan.words)

    def test_shrink_keeps_plan_when_nothing_fails(self):
        # With no mutation the watched oracle passes everywhere, so no
        # edit is accepted and the original plan survives.
        plan = plan_sample(sample_seed(0, 0))
        shrunk, _ = shrink_failure(
            plan, ["expectation"], depth=4, max_builds=30,
        )
        assert shrunk == plan


class TestCli:
    def test_clean_run_exit_zero(self, tmp_path, capsys):
        code = main([
            "--seed", "0", "--samples", "2", "--quiet",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_mutate_caught_exit_zero(self, tmp_path, capsys):
        code = main([
            "--seed", "0", "--samples", "1", "--quiet",
            "--mutate", "no-controls", "--out", str(tmp_path / "out"),
        ])
        assert code == 0
        assert "caught" in capsys.readouterr().out

    def test_usage_error_exit_two(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["--samples", "0"])
        assert excinfo.value.code == 2


@pytest.mark.fuzz
def test_nightly_campaign(tmp_path):
    """The seeded nightly sweep (200 samples by default).

    Runs only under ``-m fuzz``; CI's nightly job sets FUZZ_SAMPLES /
    FUZZ_SEED and uploads ``fuzz_failures/`` when this fails.
    """
    samples = int(os.environ.get("FUZZ_SAMPLES", "200"))
    seed = int(os.environ.get("FUZZ_SEED", "0"))
    out = Path(os.environ.get("FUZZ_OUT", "fuzz_failures"))
    report = run_campaign(
        HarnessConfig(seed=seed, samples=samples, output_dir=out),
        log=print,
    )
    print(report.summary())
    assert report.passed, report.summary()
