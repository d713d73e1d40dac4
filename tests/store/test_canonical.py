"""One canonical serialization per request: the ``netlist:`` digest, the
engine's probe and commit, and the stored body all share one
``write_verilog`` text, which the body commit releases."""

import hashlib
import os
import sys

import pytest

import repro.store.keys as keys
from repro.api import Session
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
    import repro.store.disk as disk

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
