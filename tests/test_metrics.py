"""Unit tests for the dependency-free metrics registry (repro.metrics).

The registry is the observability backbone of ``repro serve`` and
``repro batch --metrics-json``: counters/gauges/histograms with labels,
thread-safe mutation, Prometheus text rendering, and opt-in global
installation.  Exactness under concurrency matters — the serve-smoke CI
job asserts precise counts off these instruments.
"""

import json
import threading

import pytest

from repro import metrics
from repro.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("x_total")
        assert c.value() == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value() == 3.5

    def test_rejects_negative_increments(self):
        c = Counter("x_total")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_labelled_children_are_independent(self):
        c = Counter("req_total", labelnames=("endpoint",))
        c.inc(endpoint="/a")
        c.inc(3, endpoint="/b")
        assert c.value(endpoint="/a") == 1.0
        assert c.value(endpoint="/b") == 3.0

    def test_label_set_must_match_declaration(self):
        c = Counter("req_total", labelnames=("endpoint",))
        with pytest.raises(ValueError):
            c.inc()
        with pytest.raises(ValueError):
            c.inc(endpoint="/a", extra="nope")


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("depth")
        g.set(5)
        g.inc(2)
        g.dec(4)
        assert g.value() == 3.0


class TestHistogram:
    def test_observations_land_in_the_first_covering_bucket(self):
        h = Histogram("t_seconds", buckets=(0.1, 1.0, 10.0))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(99.0)  # beyond the last bound: only +Inf catches it
        assert h.count() == 3
        assert h.sum() == pytest.approx(99.55)
        sample = h.samples()[0]["value"]
        assert sample["buckets"] == {"0.1": 1, "1": 1, "10": 0}

    def test_rendered_buckets_are_cumulative_with_inf(self):
        h = Histogram("t_seconds", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(50.0)
        lines = list(h.render_lines())
        assert 't_seconds_bucket{le="0.1"} 1' in lines
        assert 't_seconds_bucket{le="1"} 2' in lines
        assert 't_seconds_bucket{le="+Inf"} 3' in lines
        assert "t_seconds_count 3" in lines

    def test_needs_at_least_one_bucket(self):
        with pytest.raises(ValueError):
            Histogram("t", buckets=())

    def test_default_buckets_cover_stage_to_corpus_scales(self):
        assert DEFAULT_BUCKETS[0] <= 0.001
        assert DEFAULT_BUCKETS[-1] >= 60.0


class TestRegistry:
    def test_get_or_create_returns_the_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a_total") is reg.counter("a_total")

    def test_kind_mismatch_is_an_error(self):
        reg = MetricsRegistry()
        reg.counter("a_total")
        with pytest.raises(ValueError):
            reg.gauge("a_total")

    def test_label_mismatch_is_an_error(self):
        reg = MetricsRegistry()
        reg.counter("a_total", labelnames=("x",))
        with pytest.raises(ValueError):
            reg.counter("a_total", labelnames=("y",))

    def test_render_is_prometheus_text(self):
        reg = MetricsRegistry()
        reg.counter("b_total", "things counted").inc(2)
        reg.gauge("a_gauge").set(1.5)
        text = reg.render()
        assert "# HELP b_total things counted" in text
        assert "# TYPE b_total counter" in text
        assert "\nb_total 2\n" in text
        assert "# TYPE a_gauge gauge" in text
        assert "a_gauge 1.5" in text
        assert text.endswith("\n")

    def test_as_dict_is_json_ready_and_sorted(self):
        reg = MetricsRegistry()
        reg.counter("z_total").inc()
        reg.counter("a_total", labelnames=("k",)).inc(k="v")
        dump = reg.as_dict()
        assert [m["name"] for m in dump] == ["a_total", "z_total"]
        assert dump[0]["samples"] == [{"labels": {"k": "v"}, "value": 1.0}]
        json.dumps(dump)  # must round-trip as JSON

    def test_threaded_increments_are_exact(self):
        """16 threads x 500 increments lose nothing: the store hit/miss
        counters and serve shed counts must be exact, not approximate."""
        reg = MetricsRegistry()
        counter = reg.counter("n_total")
        hist = reg.histogram("h_seconds", buckets=(1.0,))

        def hammer():
            for _ in range(500):
                counter.inc()
                hist.observe(0.5)

        threads = [threading.Thread(target=hammer) for _ in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value() == 16 * 500
        assert hist.count() == 16 * 500


class TestGlobalInstall:
    def teardown_method(self):
        metrics.uninstall()

    def test_off_by_default_install_uninstall(self):
        metrics.uninstall()
        assert metrics.current() is None
        reg = metrics.install()
        assert metrics.current() is reg
        mine = MetricsRegistry()
        assert metrics.install(mine) is mine
        assert metrics.current() is mine
        metrics.uninstall()
        assert metrics.current() is None

    def test_pipeline_publishes_only_when_installed(self):
        """An analysis run publishes stage metrics iff a registry is
        installed; with none installed, nothing breaks and StageTrace
        still carries the timings."""
        import sys, os
        sys.path.insert(0, os.path.dirname(__file__))
        from fixtures import figure1_netlist
        from repro.core import PipelineConfig, identify_words

        netlist, _ = figure1_netlist()
        config = PipelineConfig()
        metrics.uninstall()
        result = identify_words(netlist, config)
        assert result.trace.stage_seconds  # StageTrace unaffected

        reg = metrics.install()
        identify_words(netlist, config)
        analyses = reg.get("repro_analyses_total")
        assert analyses is not None and analyses.value() == 1.0
        stage_hist = reg.get("repro_stage_seconds")
        assert stage_hist is not None
        assert stage_hist.count(stage="grouping") >= 1


class TestConeAndIncrementalMetricNames:
    """Pins the wire names of the incremental metrics, and that the
    retired cone-cache metrics stay gone.

    Dashboards key on these exact names; a rename is a breaking change
    and must show up here, not in Grafana.
    """

    def teardown_method(self):
        metrics.uninstall()

    def test_incremental_metrics_from_one_incremental_run(self, tmp_path):
        from repro.api import Session
        from repro.netlist.cells import AND, NAND
        from repro.synth.designs import BENCHMARKS

        base = BENCHMARKS["b03"]()
        edited = base.copy()
        gate = next(
            g for g in edited.gates_in_file_order()
            if not g.is_ff and g.cell.name in ("AND", "OR")
            and len(g.inputs) >= 2
        )
        edited.replace_gate(gate.name, NAND, gate.inputs)

        session = Session(store=str(tmp_path / "store"))
        digest = session.analyze(base).digest
        reg = metrics.install()
        inc = session.analyze_incremental(digest, edited)

        runs = reg.get("repro_incremental_runs_total")
        dirty = reg.get("repro_incremental_dirty_bits_total")
        assert runs is not None and runs.value() == 1.0
        assert dirty is not None and dirty.value() == float(inc.dirty_bits)
        assert not [
            m for m in reg.as_dict() if "cone_tier" in m["name"]
        ]
