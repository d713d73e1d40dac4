"""One key and one result entry per request, and one canonical
serialization: ``Session`` alone probes and commits results, under the
``file:`` digest of the bytes for paths and text, and the stored body
reuses the ``write_verilog`` text a ``netlist:`` digest produced."""

import hashlib
import os
import sys

import pytest

import repro.api as api
import repro.store.disk as disk
import repro.store.keys as keys
from repro.api import Session
from repro.cli import main as identify_main
from repro.core import PipelineConfig
from repro.fuzz import generate, sample_seed
from repro.netlist import AND, parse_verilog, write_verilog
from repro.store import ArtifactStore, cache_key, netlist_digest
from repro.store.keys import take_canonical_verilog
from repro.synth.designs import BENCHMARKS

sys.path.insert(0, os.path.dirname(os.path.dirname(__file__)))
from fixtures import figure1_netlist  # noqa: E402

#: SHA-256 of ``write_verilog`` output.  The writer's text *is* the
#: ``netlist:`` digest input and the stored body, so a reordering here
#: would silently fork every cache key.
GOLDEN_WRITE_SHA256 = {
    "b03": "12e83ba12043ec38ae0f6832e5bfe234e77f66d98767030e6fbce583ebc6c8b5",
    "b13": "1286f321c0b960344f1c6c60f442e03459615cf7c6af481eb484c50f8f1d47a2",
    "b14": "78bb8bc6713307785bac1c10b4700458088908948abcca0d677e92a05316e180",
}


@pytest.fixture()
def writes(monkeypatch):
    """Counts ``write_verilog`` calls made by the store layer."""
    calls = []
    for module in (keys, disk):
        original = module.write_verilog

        def counted(netlist, _original=original):
            calls.append(netlist.name)
            return _original(netlist)

        monkeypatch.setattr(module, "write_verilog", counted)
    return calls


@pytest.fixture()
def text():
    return write_verilog(figure1_netlist()[0])


class TestOneWritePerRequest:
    def test_cold_text_request_writes_once_warm_writes_never(
        self, tmp_path, text, writes
    ):
        session = Session(store=str(tmp_path / "store"))
        cold = session.analyze_text(text)
        assert cold.cache == "miss"
        assert len(writes) == 1
        warm = session.analyze_text(text)
        assert warm.cache == "hit"
        assert len(writes) == 1
        assert warm.result_digest == cold.result_digest

    def test_cold_path_request_writes_once(self, tmp_path, text, writes):
        path = tmp_path / "fig1.v"
        path.write_text(text)
        session = Session(store=str(tmp_path / "store"))
        assert session.analyze(str(path)).cache == "miss"
        assert len(writes) == 1
        assert session.analyze(str(path)).cache == "hit"
        assert len(writes) == 1

    def test_cold_netlist_request_writes_once(self, tmp_path, writes):
        netlist = figure1_netlist()[0]
        session = Session(store=str(tmp_path / "store"))
        session.analyze(netlist)
        assert len(writes) == 1

    def test_stored_body_is_the_digested_text(self, tmp_path, text):
        store = ArtifactStore(str(tmp_path / "store"))
        report = Session(store=store).analyze_text(text)
        assert report.cache == "miss"
        body = store.get(cache_key(report.digest, "", kind="netlist"))
        digest = "netlist:" + hashlib.sha256(
            body["verilog"].encode("utf-8")
        ).hexdigest()
        assert digest == netlist_digest(parse_verilog(text))
        assert body["verilog"] == write_verilog(parse_verilog(text))


@pytest.fixture()
def calls(monkeypatch):
    """Counts the calls a request makes into the key and store layers,
    patched where their callers look them up."""
    counts = {}

    def count(owner, name, label):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[label] = counts.get(label, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(api, "netlist_digest", "netlist_digest")
    count(disk, "netlist_digest", "netlist_digest")
    count(api, "parse_verilog", "parse_verilog")
    count(ArtifactStore, "probe_result", "probe_result")
    count(ArtifactStore, "commit_result", "commit_result")
    return counts


def _kinds(store):
    kinds = {}
    for key in store.keys():
        kind = store.get(key)["kind"]
        kinds[kind] = kinds.get(kind, 0) + 1
    return kinds


class TestOneEntryPerRequest:
    def test_cold_text_request_keys_once_and_commits_once(
        self, tmp_path, text, calls
    ):
        store = ArtifactStore(str(tmp_path / "store"))
        report = Session(store=store).analyze_text(text)
        assert report.cache == "miss"
        assert report.digest.startswith("file:")
        assert calls.get("netlist_digest", 0) == 0
        assert (calls["probe_result"], calls["commit_result"]) == (1, 1)
        kinds = _kinds(store)
        assert (kinds["result"], kinds["netlist"]) == (1, 1)
        assert set(kinds) <= {"result", "netlist", "cone"}

    def test_warm_triage_text_writes_nothing(self, tmp_path, text, writes):
        store = ArtifactStore(str(tmp_path / "store"))
        session = Session(store=store)
        assert session.triage_text(text).cache == "miss"
        puts, written = store.stats.puts, len(writes)
        warm = session.triage_text(text)
        assert (warm.cache, warm.analysis.cache) == ("hit", "hit")
        assert store.stats.puts == puts
        assert len(writes) == written

    def test_cli_primed_store_answers_text_without_parsing(
        self, tmp_path, text, calls, capsys
    ):
        path = tmp_path / "fig1.v"
        path.write_text(text)
        store = str(tmp_path / "store")
        assert identify_main([str(path), "--store", store]) == 0
        capsys.readouterr()
        assert calls["parse_verilog"] == 1  # the CLI parses its file once
        session = Session(config=PipelineConfig(preflight=True), store=store)
        report = session.analyze_text(text)
        assert report.cache == "hit"
        assert report.design == "fig1"
        assert calls["parse_verilog"] == 1

    @pytest.mark.parametrize("entry", ["analyze_text", "analyze_digest"])
    def test_warm_hit_reads_its_entry_once(self, tmp_path, text, entry):
        """Regression: a hit loaded its envelope twice and counted two
        hits (``repro_store_hits_total`` double-counted)."""
        store = ArtifactStore(str(tmp_path / "store"))
        session = Session(store=store)
        cold = session.analyze_text(text)
        hits = store.stats.hits
        if entry == "analyze_text":
            warm = session.analyze_text(text)
        else:
            warm = session.analyze_digest(cold.digest)
        assert warm.cache == "hit"
        assert warm.num_gates == cold.num_gates
        assert store.stats.hits == hits + 1

    def test_loaded_netlist_keeps_its_file_key_until_mutated(self, tmp_path):
        netlist = figure1_netlist()[0]
        path = tmp_path / "fig1.v"
        path.write_text(write_verilog(netlist))
        session = Session(store=str(tmp_path / "store"))
        loaded = session.load_netlist(str(path))
        assert session.analyze(loaded).digest == session.analyze(
            str(path)
        ).digest
        _edit(loaded, "gate")
        assert session.analyze(loaded).digest == netlist_digest(loaded)


class TestMemoLifetime:
    def test_body_commit_releases_the_text(self, tmp_path):
        netlist = figure1_netlist()[0]
        store = ArtifactStore(str(tmp_path / "store"))
        digest = netlist_digest(netlist)
        store.commit_netlist(digest, netlist)
        assert take_canonical_verilog(netlist) is None

    def test_store_less_session_keeps_no_text(self):
        netlist = figure1_netlist()[0]
        Session().analyze(netlist)
        assert take_canonical_verilog(netlist) is None

    def test_memo_is_the_written_text(self):
        netlist = figure1_netlist()[0]
        netlist_digest(netlist)
        assert take_canonical_verilog(netlist) == write_verilog(netlist)
        assert take_canonical_verilog(netlist) is None

    @pytest.mark.parametrize("edit", ["gate", "output", "rename"])
    def test_mutation_after_digest_yields_a_fresh_digest(self, edit, writes):
        netlist = figure1_netlist()[0]
        before = netlist_digest(netlist)
        assert netlist_digest(netlist) == before and len(writes) == 1
        _edit(netlist, edit)
        after = netlist_digest(netlist)
        assert after != before
        assert after == netlist_digest(parse_verilog(write_verilog(netlist)))

    @pytest.mark.parametrize("edit", ["gate", "output", "rename"])
    def test_stale_text_is_never_committed(self, edit):
        netlist = figure1_netlist()[0]
        netlist_digest(netlist)
        _edit(netlist, edit)
        assert take_canonical_verilog(netlist) is None


def _edit(netlist, edit):
    if edit == "gate":
        first = netlist.primary_inputs[0]
        netlist.add_gate("extra", AND, [first, first], "extra_net")
    elif edit == "output":
        netlist.add_output(netlist.primary_inputs[0])
    else:
        netlist.name = "renamed"


class TestCanonicalForm:
    @pytest.mark.parametrize("index", range(6))
    def test_digest_survives_write_parse_round_trip(self, index):
        netlist = generate(sample_seed(0, index)).netlist
        reparsed = parse_verilog(write_verilog(netlist))
        assert netlist_digest(reparsed) == netlist_digest(netlist)

    @pytest.mark.parametrize("name", sorted(GOLDEN_WRITE_SHA256))
    def test_writer_output_is_pinned(self, name):
        text = write_verilog(BENCHMARKS[name]())
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == GOLDEN_WRITE_SHA256[name]


def test_incremental_commits_the_edited_body_once(tmp_path, monkeypatch):
    netlist = figure1_netlist()[0]
    store = ArtifactStore(str(tmp_path / "store"))
    session = Session(store=store)
    base = session.analyze(netlist)
    edited = netlist.copy()
    first = edited.primary_inputs[0]
    edited.add_gate("extra", AND, [first, first], "extra_net")
    commits = []
    original = ArtifactStore.commit_netlist

    def counted(self, digest, body):
        commits.append(digest)
        return original(self, digest, body)

    monkeypatch.setattr(ArtifactStore, "commit_netlist", counted)
    report = session.analyze_incremental(base.digest, edited)
    assert commits == [report.digest]
    assert report.gates_added == ("extra",)
    assert session.store.probe_netlist(report.digest) == edited
