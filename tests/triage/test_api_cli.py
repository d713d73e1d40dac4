"""Session-facade and CLI tests for `repro triage`."""

import json
import os
import sys

import pytest

from repro.api import Session
from repro.exitcodes import EXIT_OK, EXIT_USAGE
from repro.netlist import write_verilog
from repro.schema import SCHEMA_VERSION
from repro.triage import TriageConfig
from repro.triage.cli import main as triage_main

sys.path.insert(0, os.path.dirname(os.path.dirname(__file__)))
from fixtures import figure1_netlist  # noqa: E402


@pytest.fixture()
def design(tmp_path):
    netlist, _ = figure1_netlist()
    path = tmp_path / "fig1.v"
    path.write_text(write_verilog(netlist))
    return str(path)


class TestSession:
    def test_storeless_run_reports_cache_off(self):
        netlist, _ = figure1_netlist()
        report = Session().triage(netlist)
        assert report.cache == "off"
        assert report.key is None
        assert report.triage.num_gates == netlist.num_gates

    def test_store_misses_then_hits(self, tmp_path, design):
        session = Session(store=str(tmp_path / "store"))
        cold = session.triage(design)
        assert cold.cache == "miss"
        warm = session.triage(design)
        assert warm.cache == "hit"
        assert warm.as_dict() == cold.as_dict()

    def test_text_and_path_share_digests_and_bytes(self, tmp_path, design):
        """A served body and a CLI file run on the same bytes are one
        cache entry and one payload."""
        store = str(tmp_path / "store")
        from_path = Session(store=store).triage(design)
        with open(design, encoding="utf-8") as handle:
            text = handle.read()
        from_text = Session(store=store).triage_text(text)
        assert from_text.digest == from_path.digest
        assert from_text.cache == "hit"
        assert from_text.as_dict() == from_path.as_dict()

    def test_triage_digest_answers_committed_bodies_only(
        self, tmp_path, design
    ):
        session = Session(store=str(tmp_path / "store"))
        assert session.triage_digest("file:" + "0" * 64) is None
        first = session.triage(design)
        by_digest = session.triage_digest(first.digest)
        assert by_digest is not None
        assert by_digest.as_dict() == first.as_dict()

    def test_storeless_session_has_no_digest_lookup(self):
        assert Session().triage_digest("file:" + "0" * 64) is None

    def test_config_re_keys_the_ranking_cache(self, tmp_path, design):
        session = Session(store=str(tmp_path / "store"))
        default = session.triage(design)
        tuned = session.triage(
            design, triage_config=TriageConfig(threshold=0.9)
        )
        assert tuned.cache == "miss"
        assert tuned.key != default.key
        assert session.triage(
            design, triage_config=TriageConfig(threshold=0.9)
        ).cache == "hit"


class TestCli:
    def test_json_payload_is_the_report_dict(self, tmp_path, design):
        out = tmp_path / "triage.json"
        assert triage_main([design, "--json", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["backend"] == "ours"
        assert payload["triage_digest"].startswith("triage:")
        assert payload == Session().triage(design).as_dict()

    def test_top_truncates_the_emitted_ranking(self, tmp_path, design):
        out = tmp_path / "triage.json"
        assert triage_main(
            [design, "--top", "2", "--json", str(out)]
        ) == EXIT_OK
        payload = json.loads(out.read_text())
        assert len(payload["gates"]) == 2
        assert payload["num_gates"] > 2

    def test_negative_top_exits_2_with_one_line(self, design, capsys):
        assert triage_main([design, "--top", "-1"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --top must be >= 0\n"

    def test_bad_jobs_is_a_usage_error(self, design):
        # The engine's thread pool is gone, and ``--jobs`` with it.
        with pytest.raises(SystemExit) as exited:
            triage_main([design, "--jobs", "0"])
        assert exited.value.code == EXIT_USAGE

    def test_unreadable_file_is_a_usage_error(self, tmp_path):
        assert triage_main([str(tmp_path / "missing.v")]) == EXIT_USAGE

    def test_non_utf8_file_is_one_error_line(self, tmp_path, design, capsys):
        bad = tmp_path / "latin1.v"
        with open(design, "rb") as handle:
            bad.write_bytes(b"// caf\xe9\n" + handle.read())
        assert triage_main([str(bad)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {bad}: ")
        assert len(err.strip().splitlines()) == 1
