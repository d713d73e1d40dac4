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
        report = Session(baseline=True).analyze(netlist)
        legacy = core_shape_hashing(netlist)
        assert report.words == tuple(w.bits for w in legacy.words)

    def test_baseline_rejects_partial_config(self):
        with pytest.raises(ValueError):
            Session(config=PipelineConfig(allow_partial=True), baseline=True)

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


class TestAnalyzeMany:
    def test_preserves_input_order(self, design_path, tmp_path):
        b03 = tmp_path / "b03.v"
        b03.write_text(write_verilog(BENCHMARKS["b03"]()))
        session = Session(store=str(tmp_path / "store"))
        reports = session.analyze_many([str(b03), design_path])
        assert [r.design for r in reports] == ["b03", "fig1"]

    def test_multiprocess_matches_serial(self, design_path, tmp_path):
        b03 = tmp_path / "b03.v"
        b03.write_text(write_verilog(BENCHMARKS["b03"]()))
        paths = [str(b03), design_path]
        serial = Session().analyze_many(paths, jobs=1)
        parallel = Session(store=str(tmp_path / "store")).analyze_many(
            paths, jobs=2
        )
        assert [r.design for r in parallel] == [r.design for r in serial]
        assert [r.result_digest for r in parallel] == [
            r.result_digest for r in serial
        ]

    def test_workers_share_the_store(self, design_path, tmp_path):
        session = Session(store=str(tmp_path / "store"))
        session.analyze(design_path)  # prime the cache
        (report,) = session.analyze_many([design_path], jobs=2)
        assert report.cache == "hit"

    def test_accepts_netlists_inline(self, netlist, design_path):
        reports = Session().analyze_many([netlist, design_path])
        assert len(reports) == 2
        assert reports[0].source is None
        assert reports[1].source == design_path

    def test_rejects_bad_jobs(self, design_path):
        with pytest.raises(ValueError):
            Session().analyze_many([design_path], jobs=0)


class TestAnalyzeIncremental:
    """Incremental re-analysis: byte-identical to from-scratch, with the
    edit diff and cone-cache reuse reported alongside."""

    @staticmethod
    def _one_gate_edit(netlist):
        from repro.netlist.cells import AND, OR

        edited = netlist.copy()
        gate = next(
            g for g in edited.gates_in_file_order()
            if not g.is_ff
            and g.cell.name in ("AND", "OR")
            and len(g.inputs) >= 2
        )
        swapped = OR if gate.cell.name == "AND" else AND
        edited.replace_gate(gate.name, swapped, gate.inputs)
        return edited, gate.name

    def test_requires_a_store(self, netlist):
        with pytest.raises(ValueError, match="store"):
            Session().analyze_incremental("netlist:x", netlist)

    def test_unknown_base_digest_raises_key_error(self, netlist, tmp_path):
        session = Session(store=str(tmp_path / "store"))
        with pytest.raises(KeyError, match="unknown base digest"):
            session.analyze_incremental("netlist:" + "0" * 64, netlist)

    def test_edit_report_and_byte_identity(self, tmp_path):
        base = BENCHMARKS["b03"]()
        edited, edited_gate = self._one_gate_edit(base)
        session = Session(store=str(tmp_path / "store"))
        base_report = session.analyze(base)
        inc = session.analyze_incremental(base_report.digest, edited)

        assert inc.base_digest == base_report.digest
        assert inc.gates_changed == (edited_gate,)
        assert inc.gates_added == () and inc.gates_removed == ()
        assert inc.num_edits == 1
        assert 0 < inc.dirty_bits <= inc.total_bits
        assert inc.total_bits == len(base.register_input_nets())

        scratch = Session(config=session.config).analyze(edited)
        assert inc.report.words == scratch.words
        assert inc.report.singletons == scratch.singletons
        assert inc.report.result_digest == scratch.result_digest

    def test_chaining_through_the_returned_digest(self, tmp_path):
        base = BENCHMARKS["b03"]()
        edited, _ = self._one_gate_edit(base)
        session = Session(store=str(tmp_path / "store"))
        first = session.analyze(base)
        inc = session.analyze_incremental(first.digest, edited)
        # The edited digest is a valid base for the next edit (here: an
        # edit back to the original design).
        back = session.analyze_incremental(inc.digest, base)
        assert back.base_digest == inc.digest
        assert back.report.result_digest == first.result_digest

    def test_as_dict_shape(self, tmp_path):
        base = BENCHMARKS["b03"]()
        edited, _ = self._one_gate_edit(base)
        session = Session(store=str(tmp_path / "store"))
        inc = session.analyze_incremental(
            session.analyze(base).digest, edited
        )
        payload = inc.as_dict()
        assert payload["schema_version"] == SCHEMA_VERSION
        assert set(payload["diff"]) == {
            "gates_added", "gates_removed", "gates_changed",
            "dirty_nets", "dirty_bits", "total_bits",
        }
        assert set(payload["cone_cache"]) == {
            "hits", "misses", "commits", "reuse_rate",
        }
        assert payload["report"]["result_digest"] == inc.report.result_digest
        assert 0.0 <= payload["cone_cache"]["reuse_rate"] <= 1.0

    def test_accepts_text_paths_and_netlists(self, tmp_path):
        base = BENCHMARKS["b03"]()
        edited, _ = self._one_gate_edit(base)
        session = Session(store=str(tmp_path / "store"))
        digest = session.analyze(base).digest
        text = write_verilog(edited)
        path = tmp_path / "edited.v"
        path.write_text(text)
        from_text = session.analyze_incremental(digest, text)
        from_path = session.analyze_incremental(digest, str(path))
        from_netlist = session.analyze_incremental(digest, edited)
        assert (
            from_text.report.result_digest
            == from_path.report.result_digest
            == from_netlist.report.result_digest
        )
