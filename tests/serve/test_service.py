"""In-process tests of the serve request handling (no sockets).

`AnalysisService.call` exercises the exact routing/admission/worker code
the TCP layer feeds, so everything here — status mapping, digest lookups,
backpressure, drain semantics — holds verbatim for the socket path
(covered separately in test_server.py).
"""

import os
import sys
import threading
import time

import pytest

from repro import metrics
from repro.api import Session
from repro.metrics import MetricsRegistry
from repro.netlist import write_verilog
from repro.schema import SCHEMA_VERSION
from repro.serve.service import AnalysisService

sys.path.insert(0, os.path.dirname(os.path.dirname(__file__)))
from fixtures import figure1_netlist  # noqa: E402


@pytest.fixture()
def verilog_text():
    netlist, _ = figure1_netlist()
    return write_verilog(netlist)


@pytest.fixture()
def service(tmp_path):
    session = Session(store=str(tmp_path / "store"))
    service = AnalysisService(session, workers=2, queue_size=4)
    yield service
    service.close()


class TestIdentify:
    def test_round_trip_matches_the_library_call(self, service, verilog_text):
        response = service.call(
            "POST", "/v1/identify", {"verilog": verilog_text}
        )
        assert response.status == 200
        served = response.json
        direct = service.session.analyze(
            figure1_netlist()[0]
        )
        assert served["result_digest"] == direct.result_digest
        assert served["words"] == [list(b) for b in direct.words]
        assert served["schema_version"] == SCHEMA_VERSION

    def test_post_hits_entries_committed_by_the_cli_path(
        self, tmp_path, verilog_text
    ):
        """Cross-path cache sharing (DESIGN.md §11): a POST of the exact
        bytes `repro identify --store` already analyzed is a hit, via
        the engine's canonical netlist digest."""
        from repro.cli import main as cli_main

        design = tmp_path / "fig1.v"
        design.write_text(verilog_text)
        store = str(tmp_path / "store")
        assert cli_main([str(design), "--store", store]) == 0

        # preflight=True matches the identify CLI's fingerprint — the
        # same config `repro serve` boots with (server.main).
        from repro.core import PipelineConfig

        session = Session(config=PipelineConfig(preflight=True), store=store)
        service = AnalysisService(session, workers=1, queue_size=1)
        try:
            response = service.call(
                "POST", "/v1/identify", {"verilog": verilog_text}
            )
        finally:
            service.close()
        assert response.status == 200
        assert response.json["cache"] == "hit"

    def test_repeat_post_hits_the_shared_store(self, service, verilog_text):
        first = service.call("POST", "/v1/identify", {"verilog": verilog_text})
        second = service.call("POST", "/v1/identify", {"verilog": verilog_text})
        assert first.json["cache"] == "miss"
        assert second.json["cache"] == "hit"
        assert second.json["result_digest"] == first.json["result_digest"]

    def test_digest_lookup_after_a_post(self, service, verilog_text):
        posted = service.call(
            "POST", "/v1/identify", {"verilog": verilog_text}
        ).json
        by_digest = service.call(
            "POST", "/v1/identify", {"digest": posted["digest"]}
        )
        assert by_digest.status == 200
        assert by_digest.json["result_digest"] == posted["result_digest"]

    def test_unknown_digest_is_404(self, service):
        response = service.call(
            "POST", "/v1/identify", {"digest": "file:" + "0" * 64}
        )
        assert response.status == 404
        assert response.json["error"] == "unknown_digest"

    def test_request_needs_exactly_one_source(self, service, verilog_text):
        neither = service.call("POST", "/v1/identify", {})
        both = service.call(
            "POST", "/v1/identify",
            {"verilog": verilog_text, "digest": "file:" + "0" * 64},
        )
        assert neither.status == 400
        assert both.status == 400

    def test_unparseable_netlist_is_400(self, service):
        response = service.call(
            "POST", "/v1/identify", {"verilog": "garbage((("}
        )
        assert response.status == 400
        assert response.json["error"] == "bad_netlist"

    def test_malformed_json_is_400(self, service):
        import asyncio

        response = asyncio.run(
            service.handle("POST", "/v1/identify", b"{nope")
        )
        assert response.status == 400
        assert response.json["error"] == "bad_json"

    def test_strict_deadline_is_408(self, service, verilog_text):
        response = service.call(
            "POST",
            "/v1/identify",
            {"verilog": verilog_text, "deadline_s": 1e-9, "strict": True},
        )
        assert response.status == 408
        assert response.json["error"] == "deadline"

    def test_lax_deadline_degrades_instead(self, service, verilog_text):
        response = service.call(
            "POST",
            "/v1/identify",
            {"verilog": verilog_text, "deadline_s": 1e-9, "strict": False},
        )
        assert response.status == 200
        assert response.json["trace"]["degraded"] is True


class TestRouting:
    def test_health_ready_metrics(self, service):
        health = service.call("GET", "/healthz")
        assert health.status == 200 and health.json["status"] == "ok"
        ready = service.call("GET", "/readyz")
        assert ready.status == 200 and ready.json["status"] == "ready"
        metrics = service.call("GET", "/metrics")
        assert metrics.status == 200
        assert metrics.content_type.startswith("text/plain")
        text = metrics.body.decode("utf-8")
        assert "repro_serve_requests_total" in text

    @pytest.mark.parametrize("timeout", ["nan", "inf", "0"])
    def test_read_timeout_must_be_finite_and_positive(self, timeout):
        """``/healthz`` reports the timeout, and NaN or Infinity there
        would not be JSON."""
        with pytest.raises(ValueError, match="read_timeout"):
            AnalysisService(Session(), read_timeout=float(timeout))

    @pytest.mark.parametrize("timeout", ["nan", "inf"])
    def test_cli_refuses_a_non_finite_read_timeout(
        self, timeout, monkeypatch, capsys
    ):
        import repro.serve.server

        def served(*args):
            raise AssertionError("the server started")

        monkeypatch.setattr(repro.serve.server, "_amain", served)
        # serve installs a global metrics registry; restore it afterwards.
        monkeypatch.setattr(metrics, "_installed", None)
        code = repro.serve.server.main(
            ["--port", "0", "--read-timeout", timeout]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: read_timeout must be a finite number > 0\n"

    def test_cli_refuses_the_retired_journal_flag(
        self, monkeypatch, capsys
    ):
        import repro.serve.server

        def served(*args):
            raise AssertionError("the server started")

        monkeypatch.setattr(repro.serve.server, "_amain", served)
        monkeypatch.setattr(metrics, "_installed", None)
        with pytest.raises(SystemExit) as exited:
            repro.serve.server.main(["--port", "0", "--journal", "rows.jsonl"])
        assert exited.value.code == 2
        assert "unrecognized arguments: --journal" in capsys.readouterr().err

    def test_unknown_route_is_404(self, service):
        assert service.call("GET", "/nope").status == 404

    def test_retired_batch_route_is_404(self, service, verilog_text):
        # `repro batch` is the one corpus path; serve answers one design
        # per request.
        response = service.call(
            "POST", "/v1/batch", {"netlists": [{"verilog": verilog_text}]}
        )
        assert response.status == 404
        assert response.json["error"] == "not_found"

    def test_journal_is_not_a_parameter(self):
        with pytest.raises(TypeError):
            AnalysisService(Session(), journal="rows.jsonl")

    def test_wrong_methods_are_405(self, service):
        assert service.call("POST", "/healthz").status == 405
        assert service.call("GET", "/v1/identify").status == 405

    def test_request_metrics_accumulate(self, verilog_text, tmp_path):
        registry = MetricsRegistry()
        session = Session(store=str(tmp_path / "store"))
        service = AnalysisService(session, registry=registry)
        try:
            service.call("POST", "/v1/identify", {"verilog": verilog_text})
            service.call("GET", "/healthz")
        finally:
            service.close()
        requests = registry.get("repro_serve_requests_total")
        assert requests.value(endpoint="/v1/identify", status="200") == 1.0
        assert requests.value(endpoint="/healthz", status="200") == 1.0
        latency = registry.get("repro_serve_request_seconds")
        assert latency.count(endpoint="/v1/identify") == 1

    @pytest.mark.parametrize("pool", ["thread", "process"])
    def test_triage_runs_count_their_cache_outcome(
        self, verilog_text, tmp_path, pool
    ):
        """A re-sent triage skips the scorer; /metrics must show it."""
        registry = metrics.install(MetricsRegistry())
        service = AnalysisService(
            Session(store=str(tmp_path / "store")), workers=1,
            queue_size=1, registry=registry, pool=pool,
        )
        try:
            for _ in range(2):
                response = service.call(
                    "POST", "/v1/triage", {"verilog": verilog_text}
                )
                assert response.status == 200
            text = service.call("GET", "/metrics").body.decode("utf-8")
        finally:
            service.close()
            metrics.uninstall()
        assert 'repro_triage_runs_total{cache="miss"} 1' in text
        assert 'repro_triage_runs_total{cache="hit"} 1' in text


class TestAdmissionControl:
    def test_burst_beyond_capacity_sheds_429_never_500(self, tmp_path,
                                                       verilog_text):
        """workers=1 + queue=1 and a held worker: a burst of 6 gets
        exactly its two admissible requests served and the rest shed."""
        registry = MetricsRegistry()
        session = Session(store=str(tmp_path / "store"))
        service = AnalysisService(
            session, workers=1, queue_size=1, hold_s=0.3, registry=registry
        )
        statuses = []
        lock = threading.Lock()

        def post():
            response = service.call(
                "POST", "/v1/identify", {"verilog": verilog_text}
            )
            with lock:
                statuses.append(response.status)

        try:
            threads = [threading.Thread(target=post) for _ in range(6)]
            for t in threads:
                t.start()
                time.sleep(0.02)  # deterministic arrival order
            for t in threads:
                t.join()
        finally:
            service.close()
        assert sorted(statuses) == [200, 200, 429, 429, 429, 429]
        assert registry.get("repro_serve_shed_total").value() == 4.0

    def test_shed_request_is_not_decoded(self, tmp_path, verilog_text):
        """At capacity a body is refused before its JSON is read: a body
        that is no JSON at all answers 429, not 400, and counts as
        shed."""
        import asyncio

        registry = MetricsRegistry()
        service = AnalysisService(
            Session(store=str(tmp_path / "store")), workers=1,
            queue_size=0, hold_s=0.5, registry=registry,
        )
        held = threading.Thread(target=service.call, args=(
            "POST", "/v1/identify", {"verilog": verilog_text},
        ))
        try:
            held.start()
            deadline = time.monotonic() + 10
            while service.in_flight == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert service.in_flight == 1
            response = asyncio.run(
                service.handle("POST", "/v1/identify", b"{not json")
            )
        finally:
            held.join()
            service.close()
        assert response.status == 429
        assert response.json["error"] == "overloaded"
        assert registry.get("repro_serve_shed_total").value() == 1.0

    def test_draining_service_refuses_new_work(self, service, verilog_text):
        service.begin_drain()
        ready = service.call("GET", "/readyz")
        assert ready.status == 503 and ready.json["status"] == "draining"
        identify = service.call(
            "POST", "/v1/identify", {"verilog": verilog_text}
        )
        assert identify.status == 503
        assert identify.json["error"] == "draining"
        # healthz still answers: the process is alive, just not admitting.
        assert service.call("GET", "/healthz").status == 200
        assert service.drained()


class TestValidation:
    """Pins the 400 body shape: the uniform error envelope plus
    field-level Diagnostic-style records (DESIGN.md §15)."""

    def test_error_envelope_shape(self, service, verilog_text):
        response = service.call(
            "POST", "/v1/identify", {"verilog": verilog_text, "bogus": 1}
        )
        assert response.status == 400
        body = response.json
        assert body["error"] == "invalid_request"
        assert body["detail"] == "1 invalid field(s)"
        assert set(body) == {
            "schema_version", "pipeline_version",
            "error", "detail", "diagnostics",
        }

    def test_diagnostic_record_shape(self, service, verilog_text):
        response = service.call(
            "POST", "/v1/identify", {"verilog": verilog_text, "bogus": 1}
        )
        (diag,) = response.json["diagnostics"]
        assert set(diag) == {"field", "severity", "message"}
        assert diag["field"] == "bogus"
        assert diag["severity"] == "error"
        assert "unknown field" in diag["message"]

    def test_unknown_backend_diagnostic(self, service, verilog_text):
        # The retired feature-vector backend is one more unknown name.
        for name in ("nope", "regfeat"):
            response = service.call(
                "POST", "/v1/identify",
                {"verilog": verilog_text, "backend": name},
            )
            assert response.status == 400
            assert response.json["error"] == "invalid_request"
            (diag,) = response.json["diagnostics"]
            assert diag["field"] == "backend"
            assert f"unknown backend {name!r}" in diag["message"]
            assert diag["message"].endswith(
                "registered backends: ours, base"
            )

    @pytest.mark.parametrize(
        "value", ["file:" + "0" * 64, None], ids=["string", "null"]
    )
    def test_retired_base_digest_is_an_unknown_field(
        self, service, verilog_text, value
    ):
        # Incremental re-analysis is gone; a client that still sends the
        # field, even as null, is told so rather than served a plain
        # identify.
        response = service.call(
            "POST", "/v1/identify",
            {"verilog": verilog_text, "base_digest": value},
        )
        assert response.status == 400
        assert response.json["error"] == "invalid_request"
        (diag,) = response.json["diagnostics"]
        assert diag["field"] == "base_digest"
        assert diag["message"].startswith("unknown field")

    def test_unknown_kernel_diagnostic(self, service, verilog_text):
        # Signatures have one implementation: "kernel" is not a field.
        response = service.call(
            "POST", "/v1/identify",
            {"verilog": verilog_text, "kernel": "python"},
        )
        assert response.status == 400
        (diag,) = response.json["diagnostics"]
        assert diag["field"] == "kernel"
        assert diag["message"].startswith("unknown field")

    def test_bad_types_collected_not_shortcircuited(self, service,
                                                    verilog_text):
        response = service.call("POST", "/v1/identify", {
            "verilog": verilog_text,
            "deadline_s": True,     # bool is not a number here
            "strict": "yes",
        })
        assert response.status == 400
        body = response.json
        assert body["detail"] == "2 invalid field(s)"
        fields = {d["field"] for d in body["diagnostics"]}
        assert fields == {"deadline_s", "strict"}

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), 10 ** 400],
        ids=["nan", "inf", "huge-int"],
    )
    def test_non_finite_numbers_are_field_level_400s(
        self, service, verilog_text, value
    ):
        """Stdlib ``json`` reads ``NaN``/``Infinity``: a NaN deadline
        would never expire, and a NaN threshold would be echoed back as
        invalid JSON.  An integer beyond the float range is no usable
        number either."""
        bodies = {
            "/v1/identify": {"verilog": verilog_text},
            "/v1/triage": {"verilog": verilog_text},
        }
        for path, body in bodies.items():
            fields = ["deadline_s"] + (
                ["threshold"] if path == "/v1/triage" else []
            )
            for field in fields:
                response = service.call("POST", path, {**body, field: value})
                assert response.status == 400, (path, field)
                assert response.json["diagnostics"] == [{
                    "field": field, "severity": "error",
                    "message": "must be a finite number",
                }]


class TestRequestBackend:
    """Per-request backend selection."""

    def test_identify_backend_lands_in_response(self, service,
                                                verilog_text):
        response = service.call(
            "POST", "/v1/identify",
            {"verilog": verilog_text, "backend": "base"},
        )
        assert response.status == 200
        assert response.json["backend"] == "base"

    def test_base_request_matches_base_server(self, tmp_path,
                                              verilog_text):
        from repro.core import PipelineConfig

        ours_service = AnalysisService(
            Session(store=str(tmp_path / "a")), workers=1, queue_size=2
        )
        base_service = AnalysisService(
            Session(
                config=PipelineConfig(backend="base"),
                store=str(tmp_path / "b"),
            ),
            workers=1, queue_size=2,
        )
        try:
            overridden = ours_service.call(
                "POST", "/v1/identify",
                {"verilog": verilog_text, "backend": "base"},
            )
            native = base_service.call(
                "POST", "/v1/identify", {"verilog": verilog_text}
            )
        finally:
            ours_service.close()
            base_service.close()
        assert overridden.status == native.status == 200
        assert (
            overridden.json["result_digest"]
            == native.json["result_digest"]
        )


class TestNullFields:
    """A JSON ``null`` is "not set": the request runs under the server
    default, exactly as if the field were omitted, on every POST
    endpoint."""

    @staticmethod
    def _bodies(verilog_text):
        return {
            "/v1/identify": {"verilog": verilog_text},
            "/v1/triage": {"verilog": verilog_text},
        }

    def test_null_deadline_and_strict_keep_server_defaults(
        self, verilog_text
    ):
        from repro.core import PipelineConfig

        # A strict server whose default deadline always fires: every
        # request it runs under its defaults answers 408.
        service = AnalysisService(
            Session(config=PipelineConfig(deadline_s=1e-6, strict=True)),
            workers=1, queue_size=2, default_deadline_s=1e-6, strict=True,
        )
        try:
            for path, body in self._bodies(verilog_text).items():
                omitted = service.call("POST", path, body)
                assert omitted.status == 408, path
                for field in ("deadline_s", "strict"):
                    nulled = service.call("POST", path, {**body, field: None})
                    assert nulled.status == 408, (path, field)
                    assert nulled.json["error"] == omitted.json["error"]
        finally:
            service.close()

    def test_null_backend_keeps_server_default(self, verilog_text):
        from repro.core import PipelineConfig

        service = AnalysisService(
            Session(config=PipelineConfig(backend="base")),
            workers=1, queue_size=2,
        )
        try:
            for path, body in self._bodies(verilog_text).items():
                omitted = service.call("POST", path, body)
                nulled = service.call(
                    "POST", path, {**body, "backend": None}
                )
                assert omitted.status == nulled.status == 200, path
                assert nulled.json["backend"] == "base", path
                assert (
                    nulled.json["result_digest"]
                    == omitted.json["result_digest"]
                ), path
        finally:
            service.close()
