"""Tests for the stable ``repro.api`` facade (Session / AnalysisReport)."""

import dataclasses
import os
import sys

import pytest

from repro.api import AnalysisReport, Session
from repro.core import PipelineConfig
from repro.core.baseline import shape_hashing as core_shape_hashing
from repro.core.pipeline import identify_words as core_identify_words
from repro.netlist import write_verilog
from repro.schema import PIPELINE_VERSION, SCHEMA_VERSION
from repro.store import ArtifactStore, result_digest
from repro.synth.designs import BENCHMARKS

sys.path.insert(0, os.path.dirname(__file__))
from fixtures import figure1_netlist  # noqa: E402


@pytest.fixture(scope="module")
def netlist():
    return figure1_netlist()[0]


@pytest.fixture(scope="module")
def design_path(tmp_path_factory, netlist):
    path = tmp_path_factory.mktemp("api") / "fig1.v"
    path.write_text(write_verilog(netlist))
    return str(path)


class TestAnalyze:
    def test_matches_legacy_identify_words(self, netlist):
        report = Session().analyze(netlist)
        legacy = core_identify_words(netlist, PipelineConfig())
        assert report.words == tuple(w.bits for w in legacy.words)
        assert report.singletons == tuple(legacy.singletons)
        assert report.control_signals == legacy.control_signals
        assert report.result_digest == result_digest(legacy)

    @pytest.mark.parametrize("name", ["b03", "b13"])
    def test_benchmark_round_trip_vs_legacy(self, name):
        netlist = BENCHMARKS[name]()
        report = Session().analyze(netlist)
        legacy = core_identify_words(netlist)
        assert report.words == tuple(w.bits for w in legacy.words)
        assert report.result_digest == result_digest(legacy)

    @pytest.mark.slow
    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_every_benchmark_round_trips_vs_legacy(self, name):
        """Acceptance bar: the facade equals the legacy path everywhere."""
        netlist = BENCHMARKS[name]()
        report = Session().analyze(netlist)
        legacy = core_identify_words(netlist)
        assert report.words == tuple(w.bits for w in legacy.words)
        assert report.result_digest == result_digest(legacy)

    def test_cache_off_without_store(self, netlist):
        report = Session().analyze(netlist)
        assert report.cache == "off"
        assert report.key is None

    def test_path_cold_miss_then_warm_hit(self, design_path, tmp_path):
        session = Session(store=str(tmp_path / "store"))
        cold = session.analyze(design_path)
        warm = session.analyze(design_path)
        assert (cold.cache, warm.cache) == ("miss", "hit")
        assert cold.key == warm.key is not None
        assert warm.words == cold.words
        assert warm.result_digest == cold.result_digest
        assert warm.num_gates == cold.num_gates
        assert warm.design == cold.design == "fig1"

    def test_baseline_session(self, netlist):
        report = Session(PipelineConfig(backend="base")).analyze(netlist)
        legacy = core_shape_hashing(netlist)
        assert report.words == tuple(w.bits for w in legacy.words)

    def test_accepts_existing_store_instance(self, design_path, tmp_path):
        store = ArtifactStore(str(tmp_path / "s"))
        session = Session(store=store)
        assert session.store is store
        assert session.analyze(design_path).cache == "miss"


class TestAnalysisReport:
    def test_is_frozen(self, netlist):
        report = Session().analyze(netlist)
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.design = "other"

    def test_as_dict_is_version_stamped(self, netlist):
        payload = Session().analyze(netlist).as_dict()
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["pipeline_version"] == PIPELINE_VERSION
        assert payload["result_digest"]

    def test_equality_ignores_result_object(self, netlist):
        first = Session().analyze(netlist)
        second = Session().analyze(netlist)
        assert first.result is not second.result
        assert first == dataclasses.replace(
            second,
            runtime_seconds=first.runtime_seconds,
            trace=first.trace,
        )
