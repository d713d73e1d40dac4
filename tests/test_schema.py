"""Golden-file pinning of every versioned JSON payload the tools emit.

Each machine-readable payload (identify ``--json`` report, ``--trace-json``
trace, eval-journal row, ``AnalysisReport.as_dict``, batch rows/report,
artifact-store envelopes) carries ``schema_version`` /
``pipeline_version`` (see :mod:`repro.schema`).  This module pins the
exact field set of every payload kind against ``tests/golden/schema.json``
so that adding, removing, or renaming a field without bumping
``SCHEMA_VERSION`` fails CI.

After an intentional shape change, bump ``repro.schema.SCHEMA_VERSION``
and regenerate the golden file::

    PYTHONPATH=src python tests/test_schema.py --regen
"""

import json
import os
import sys
import tempfile

from repro.api import Session
from repro.batch import analyze_corpus
from repro.cli import main as identify_main
from repro.eval.report import row_to_dict
from repro.eval.runner import run_benchmark
from repro.metrics import MetricsRegistry
from repro.schema import PIPELINE_VERSION, SCHEMA_VERSION, stamp
from repro.netlist import write_verilog
from repro.serve.service import AnalysisService
from repro.store import ArtifactStore, cache_key

sys.path.insert(0, os.path.dirname(__file__))
from fixtures import figure1_netlist  # noqa: E402

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "schema.json")

BUMP_HINT = (
    "payload shape changed without a schema bump: raise "
    "repro.schema.SCHEMA_VERSION and regenerate the golden file with "
    "`PYTHONPATH=src python tests/test_schema.py --regen`"
)


def current_shapes():
    """Sorted field lists of every payload kind, computed end to end."""
    netlist, _ = figure1_netlist()
    shapes = {}
    with tempfile.TemporaryDirectory(prefix="schema-golden-") as tmp:
        design = os.path.join(tmp, "fig1.v")
        with open(design, "w", encoding="utf-8") as handle:
            handle.write(write_verilog(netlist))
        report_path = os.path.join(tmp, "report.json")
        trace_path = os.path.join(tmp, "trace.json")

        # repro identify --json / --trace-json (optional sections forced
        # on so their fields are pinned too).
        code = identify_main([
            design, "--propagate", "--operators",
            "--json", report_path, "--trace-json", trace_path,
        ])
        assert code == 0
        with open(report_path, encoding="utf-8") as handle:
            report = json.load(handle)
        shapes["identify_json"] = sorted(report)
        shapes["identify_json.netlist"] = sorted(report["netlist"])
        shapes["identify_json.config"] = sorted(report["config"])
        with open(trace_path, encoding="utf-8") as handle:
            trace = json.load(handle)
        shapes["trace_json"] = sorted(trace)
        shapes["trace_json.counters"] = sorted(trace["counters"])
        shapes["trace_json.cache"] = sorted(trace["cache"])

        # Eval-journal row (the Table 1 sweep checkpoint shape).
        row = row_to_dict(run_benchmark(netlist).row())
        shapes["journal_row"] = sorted(row)
        shapes["journal_row.technique"] = sorted(row["ours"])

        # The facade's AnalysisReport and the store's result envelope.
        store_root = os.path.join(tmp, "store")
        session = Session(store=store_root)
        analysis = session.analyze(design)
        payload = analysis.as_dict()
        shapes["analysis_report"] = sorted(payload)
        store = ArtifactStore(store_root)
        envelope = store.get(analysis.key)
        shapes["store_result_envelope"] = sorted(envelope)
        shapes["store_result_payload"] = sorted(envelope["result"])
        shapes["store_result_payload.trace"] = sorted(
            envelope["result"]["trace"]
        )
        body = store.get(cache_key(analysis.digest, "", kind="netlist"))
        shapes["store_netlist_envelope"] = sorted(body)

        # Trojan triage: the report payload (CLI --json / serve / store)
        # and its store envelope.
        treport = session.triage(design)
        tpayload = treport.as_dict()
        shapes["triage_report"] = sorted(tpayload)
        shapes["triage_report.config"] = sorted(tpayload["config"])
        shapes["triage_report.gate"] = sorted(tpayload["gates"][0])
        triage_envelopes = [
            e for e in (store.get(key) for key in store.keys())
            if e and e.get("kind") == "triage"
        ]
        assert triage_envelopes, "triage committed no store entry"
        shapes["store_triage_envelope"] = sorted(triage_envelopes[0])

        # repro batch rows and aggregate (--triage adds a row summary).
        batch = analyze_corpus([design], store=store_root)
        shapes["batch_row"] = sorted(batch.rows[0])
        shapes["batch_aggregate"] = sorted(batch.aggregate)
        shapes["batch_report"] = sorted(batch.as_dict())
        triaged_batch = analyze_corpus([design], store=store_root,
                                       triage=True)
        shapes["batch_row.triage"] = sorted(triaged_batch.rows[0]["triage"])

        # The serve response envelopes, through the in-process service
        # (same handler code as the socket path, no port needed).
        with open(design, encoding="utf-8") as handle:
            text = handle.read()
        service = AnalysisService(session, workers=1, queue_size=1)
        try:
            identify = service.call(
                "POST", "/v1/identify", {"verilog": text}
            )
            assert identify.status == 200
            shapes["serve_identify_response"] = sorted(identify.json)
            served_triage = service.call(
                "POST", "/v1/triage", {"verilog": text}
            )
            assert served_triage.status == 200
            shapes["serve_triage_response"] = sorted(served_triage.json)
            error = service.call("POST", "/v1/identify", {})
            assert error.status == 400
            shapes["serve_error"] = sorted(error.json)
            invalid = service.call(
                "POST", "/v1/identify", {"verilog": text, "bogus": 1}
            )
            assert invalid.status == 400
            shapes["serve_validation_diagnostic"] = sorted(
                invalid.json["diagnostics"][0]
            )
            health = service.call("GET", "/healthz")
            shapes["serve_healthz"] = sorted(health.json)
            ready = service.call("GET", "/readyz")
            shapes["serve_readyz"] = sorted(ready.json)
        finally:
            service.close()

        # The backend scoreboard payload (`repro scoreboard --json`).
        from repro.eval.scoreboard import run_scoreboard

        scoreboard = run_scoreboard(samples=1, seed=0, triage=True)
        shapes["scoreboard"] = sorted(scoreboard)
        board = next(iter(scoreboard["backends"].values()))
        shapes["scoreboard.backend"] = sorted(board)
        assert board["triage"], "triage run produced no ROC section"
        shapes["scoreboard.backend.triage"] = sorted(board["triage"])

        # The metrics snapshot (`repro batch --metrics-json` / registry).
        registry = MetricsRegistry()
        registry.counter("repro_example_total", "example").inc()
        registry.histogram("repro_example_seconds", "example").observe(0.1)
        dump = stamp({"metrics": registry.as_dict()})
        shapes["metrics_json"] = sorted(dump)
        shapes["metrics_json.metric"] = sorted(dump["metrics"][0])
        shapes["metrics_json.sample"] = sorted(
            dump["metrics"][0]["samples"][0]
        )
    return shapes


def load_golden():
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


class TestVersionStamps:
    def test_schema_version_is_12(self):
        assert SCHEMA_VERSION == 12

    def test_stamp_prepends_current_versions(self):
        stamped = stamp({"x": 1, "schema_version": 999})
        assert stamped["schema_version"] == SCHEMA_VERSION
        assert stamped["pipeline_version"] == PIPELINE_VERSION
        assert stamped["x"] == 1
        assert list(stamped)[:2] == ["schema_version", "pipeline_version"]

    def test_stamp_does_not_mutate_input(self):
        payload = {"x": 1}
        stamp(payload)
        assert payload == {"x": 1}


class TestGolden:
    def test_golden_tracks_schema_version(self):
        golden = load_golden()
        assert golden["schema_version"] == SCHEMA_VERSION, (
            "SCHEMA_VERSION was bumped: regenerate the golden file with "
            "`PYTHONPATH=src python tests/test_schema.py --regen`"
        )

    def test_every_payload_shape_matches_golden(self):
        golden = load_golden()["shapes"]
        shapes = current_shapes()
        assert sorted(shapes) == sorted(golden), BUMP_HINT
        for kind in sorted(shapes):
            assert shapes[kind] == golden[kind], f"{kind}: {BUMP_HINT}"

    def test_every_top_level_payload_is_stamped(self):
        golden = load_golden()["shapes"]
        for kind in (
            "identify_json",
            "trace_json",
            "journal_row",
            "analysis_report",
            "store_result_envelope",
            "batch_row",
            "batch_report",
            "serve_identify_response",
            "triage_report",
            "serve_triage_response",
            "serve_error",
            "serve_healthz",
            "metrics_json",
        ):
            assert "schema_version" in golden[kind], kind
            assert "pipeline_version" in golden[kind], kind

    def test_serve_response_envelope_is_the_analysis_report(self):
        """The identify endpoint answers AnalysisReport.as_dict verbatim:
        clients written against the facade's JSON shape read the serve
        response with zero translation."""
        golden = load_golden()["shapes"]
        assert (
            golden["serve_identify_response"] == golden["analysis_report"]
        )

    def test_serve_triage_envelope_is_the_triage_report(self):
        """/v1/triage likewise answers TriageReport.as_dict verbatim —
        the byte-identity contract starts with an identical field set."""
        golden = load_golden()["shapes"]
        assert golden["serve_triage_response"] == golden["triage_report"]


def _regen() -> None:
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    payload = {"schema_version": SCHEMA_VERSION, "shapes": current_shapes()}
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH} (schema_version {SCHEMA_VERSION})")


if __name__ == "__main__":
    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)
        sys.exit(2)
