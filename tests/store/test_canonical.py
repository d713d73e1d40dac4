"""One key and one result entry per request, and at most one
serialization: ``Session`` alone probes and commits results, under the
``file:`` digest of the bytes for paths and text, and the stored body is
the text the key digests — the request's own text, or the
``write_verilog`` text a ``netlist:`` digest hashed."""

import hashlib
import json
import os
import sys

import pytest

import repro.api as api
import repro.netlist.verilog as verilog
import repro.store.disk as disk
import repro.store.keys as keys
import repro.triage.scorer as scorer
from repro.api import Session
from repro.cli import main as identify_main
from repro.core import PipelineConfig
from repro.fuzz import generate, sample_seed
from repro.netlist import (
    AND,
    Netlist,
    parse_bench,
    parse_verilog,
    write_verilog,
)
from repro.netlist.bench import write_bench
from repro.store import ArtifactStore, bytes_digest, cache_key, netlist_digest
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
    """Counts ``write_verilog`` calls made by the facade and the store
    layer, patched where each looks the writer up."""
    calls = []
    for module in (api, keys, disk):
        original = module.write_verilog

        def counted(netlist, _original=original):
            calls.append(netlist.name)
            return _original(netlist)

        monkeypatch.setattr(module, "write_verilog", counted)
    return calls


@pytest.fixture()
def text():
    return write_verilog(figure1_netlist()[0])


def _body(store, digest):
    return store.get(cache_key(digest, "", kind="netlist"))


class TestOneWritePerRequest:
    def test_text_request_never_serializes(self, tmp_path, text, writes):
        session = Session(store=str(tmp_path / "store"))
        cold = session.analyze_text(text)
        assert cold.cache == "miss"
        assert writes == []
        warm = session.analyze_text(text)
        assert warm.cache == "hit"
        assert writes == []
        assert warm.result_digest == cold.result_digest

    def test_path_request_never_serializes(self, tmp_path, text, writes):
        path = tmp_path / "fig1.v"
        path.write_text(text)
        session = Session(store=str(tmp_path / "store"))
        assert session.analyze(str(path)).cache == "miss"
        assert session.triage(str(path)).cache == "miss"
        assert writes == []
        assert session.analyze(str(path)).cache == "hit"
        assert writes == []

    def test_cold_netlist_request_writes_once(self, tmp_path, writes):
        netlist = figure1_netlist()[0]
        store = ArtifactStore(str(tmp_path / "store"))
        report = Session(store=store).analyze(netlist)
        assert len(writes) == 1
        assert _body(store, report.digest)["text"] == write_verilog(netlist)

    def test_stored_body_is_the_digested_text(self, tmp_path, text):
        store = ArtifactStore(str(tmp_path / "store"))
        report = Session(store=store).analyze_text(text)
        assert report.cache == "miss"
        body = _body(store, report.digest)
        assert (body["format"], body["text"]) == ("verilog", text)
        assert bytes_digest(body["text"].encode("utf-8")) == report.digest
        assert store.probe_netlist(report.digest) == parse_verilog(text)

    def test_bench_body_stays_bench(self, tmp_path, writes):
        bench = write_bench(figure1_netlist()[0])
        store = ArtifactStore(str(tmp_path / "store"))
        report = Session(store=store).analyze_text(bench, format="bench")
        assert writes == []
        body = _body(store, report.digest)
        assert (body["format"], body["text"]) == ("bench", bench)
        assert store.probe_netlist(report.digest) == parse_bench(bench)
        # the body is all a digest-only triage needs to recompute
        other = Session(PipelineConfig(preflight=True), store=store)
        triaged = other.triage_digest(report.digest)
        assert triaged.analysis.cache == "miss"
        assert triaged.design == parse_bench(bench).name

    def test_digest_only_triage_keeps_the_stored_body(self, tmp_path, writes):
        """A body read back from the store is not committed again: a
        digest-only triage under another config recomputes the
        identification from the stored ``.bench`` body and leaves that
        body as it was."""
        bench = write_bench(figure1_netlist()[0])
        store = ArtifactStore(str(tmp_path / "store"))
        digest = Session(store=store).analyze_text(bench, "bench").digest
        other = Session(PipelineConfig(preflight=True), store)
        assert other.triage_digest(digest).analysis.cache == "miss"
        assert writes == []
        body = _body(store, digest)
        assert (body["format"], body["text"]) == ("bench", bench)

    def test_commit_netlist_round_trips_the_given_text(self, tmp_path):
        bench = write_bench(figure1_netlist()[0])
        store = ArtifactStore(str(tmp_path / "store"))
        digest = bytes_digest(bench.encode("utf-8"))
        store.commit_netlist(digest, bench, "bench")
        assert _body(store, digest)["text"] == bench
        assert store.probe_netlist(digest) == parse_bench(bench)


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
    # ArtifactStore.probe_netlist imports parse_verilog at call time.
    count(verilog, "parse_verilog", "parse_verilog")
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
        assert _kinds(store) == {"result": 1, "netlist": 1}

    def test_cold_request_builds_the_net_set_once(
        self, tmp_path, text, monkeypatch
    ):
        """The report and the stored result share one netlist summary."""
        built = []
        original = Netlist.nets

        def counted(netlist):
            built.append(netlist.name)
            return original(netlist)

        monkeypatch.setattr(Netlist, "nets", counted)
        report = Session(store=str(tmp_path / "store")).analyze_text(text)
        assert report.cache == "miss"
        assert built == ["fig1"]
        assert report.num_nets == parse_verilog(text).num_nets

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


class TestIdentifyCli:
    """``repro identify`` goes through ``Session.analyze(path)``, which
    probes before it parses: a cold ``--store`` run stores the file's
    bytes, a warm run parses only for the flags that read the netlist,
    and the listing reads the report's counts."""

    @pytest.fixture()
    def design(self, tmp_path):
        path = tmp_path / "b03.v"
        path.write_text(write_verilog(BENCHMARKS["b03"]()))
        return str(path), str(tmp_path / "store")

    def test_cold_store_run_stores_the_files_bytes(
        self, design, writes, capsys
    ):
        path, store = design
        assert identify_main([path, "--store", store]) == 0
        assert writes == []
        with open(path, "rb") as handle:
            data = handle.read()
        body = _body(ArtifactStore(store), bytes_digest(data))
        assert (body["format"], body["text"]) == ("verilog", data.decode())

    @pytest.mark.parametrize("flag, parses", [
        (None, 0), ("--propagate", 1), ("--operators", 1), ("--score", 1),
        ("--verify-reductions", 1),
    ])
    def test_warm_run_parses_only_for_flags_that_read_the_netlist(
        self, design, calls, capsys, flag, parses
    ):
        path, store = design
        assert identify_main([path, "--store", store]) == 0
        assert calls["parse_verilog"] == 1
        argv = [path, "--store", store] + ([flag] if flag else [])
        assert identify_main(argv) == 0
        assert calls["parse_verilog"] == 1 + parses

    @pytest.mark.parametrize("flag", [
        "--propagate", "--operators", "--score", "--verify-reductions",
    ])
    def test_cold_run_with_a_netlist_flag_parses_once(
        self, design, calls, writes, capsys, flag
    ):
        path, store = design
        assert identify_main([path, "--store", store, flag]) == 0
        assert calls["parse_verilog"] == 1
        # The loaded netlist's text is the body, as for any netlist
        # whose source text is not kept.
        assert writes == ["b03"]
        # The entry is keyed by the file's bytes: a plain run hits it.
        assert identify_main([path, "--store", store, "--json", "-"]) == 0
        out = capsys.readouterr().out
        report = json.loads(out[out.index("{"):])
        assert report["trace"]["cache_provenance"]["provenance"] == "hit"
        assert calls["parse_verilog"] == 1

    def test_a_run_builds_the_net_set_once(
        self, design, monkeypatch, capsys
    ):
        path, store = design
        built = []
        original = Netlist.nets

        def counted(netlist):
            built.append(netlist.name)
            return original(netlist)

        monkeypatch.setattr(Netlist, "nets", counted)
        assert identify_main([path, "--store", store, "--json", "-"]) == 0
        cold = capsys.readouterr().out
        assert built == ["b03"]
        assert identify_main([path, "--store", store, "--json", "-"]) == 0
        warm = capsys.readouterr().out
        assert built == ["b03"]  # a hit reads the stored summary
        assert warm[:warm.index("{")] == cold[:cold.index("{")]
        assert json.loads(warm[warm.index("{"):])["netlist"] == json.loads(
            cold[cold.index("{"):]
        )["netlist"]
        netlist = BENCHMARKS["b03"]()
        assert cold.startswith(
            f"b03: {netlist.num_gates} gates, {netlist.num_nets} nets, "
            f"{netlist.num_ffs} flip-flops\n"
        )
        assert json.loads(cold[cold.index("{"):])["netlist"] == {
            "name": "b03", "gates": netlist.num_gates,
            "nets": netlist.num_nets, "flip_flops": netlist.num_ffs,
        }


class TestWarmTriage:
    """A triage reads the identification, then the ranking, and parses
    the design only when one of them misses."""

    @pytest.fixture()
    def primed(self, tmp_path, text):
        path = tmp_path / "fig1.v"
        path.write_text(text)
        store = ArtifactStore(str(tmp_path / "store"))
        session = Session(store=store)
        cold = session.triage(str(path))
        assert (cold.cache, cold.analysis.cache) == ("miss", "miss")
        return session, str(path), cold

    @pytest.mark.parametrize(
        "entry", ["triage_text", "triage", "triage_digest"]
    )
    def test_warm_triage_parses_nothing_and_writes_nothing(
        self, primed, text, calls, entry
    ):
        session, path, cold = primed
        parses, puts = calls.get("parse_verilog", 0), session.store.stats.puts
        if entry == "triage_text":
            warm = session.triage_text(text)
        elif entry == "triage":
            warm = session.triage(path)
        else:
            warm = session.triage_digest(cold.digest)
        assert (warm.cache, warm.analysis.cache) == ("hit", "hit")
        assert calls.get("parse_verilog", 0) == parses
        assert session.store.stats.puts == puts
        assert warm.design == cold.design == "fig1"
        assert warm.as_dict() == cold.as_dict()

    @pytest.mark.parametrize("entry", ["triage_text", "triage_digest"])
    def test_ranking_miss_parses_once(self, tmp_path, text, calls, entry):
        session = Session(store=str(tmp_path / "store"))
        analysis = session.analyze_text(text)
        parses = calls["parse_verilog"]
        if entry == "triage_text":
            report = session.triage_text(text)
        else:
            report = session.triage_digest(analysis.digest)
        assert (report.cache, report.analysis.cache) == ("miss", "hit")
        assert calls["parse_verilog"] == parses + 1

    def test_cold_triage_parses_once(self, tmp_path, text, calls):
        session = Session(store=str(tmp_path / "store"))
        report = session.triage_text(text)
        assert (report.cache, report.analysis.cache) == ("miss", "miss")
        assert calls["parse_verilog"] == 1

    def test_warm_triage_hashes_the_ranking_once(
        self, primed, text, monkeypatch
    ):
        session, _, cold = primed
        hashed = []
        original = scorer._ranking_digest

        def counted(scores):
            hashed.append(len(scores))
            return original(scores)

        monkeypatch.setattr(scorer, "_ranking_digest", counted)
        warm = session.triage_text(text)
        assert warm.as_dict() == cold.as_dict()
        assert warm.triage_digest == cold.triage_digest
        assert hashed == [cold.triage.num_gates]

    def test_stale_ranking_digest_is_a_miss_that_rewrites_the_entry(
        self, primed, text
    ):
        session, _, cold = primed
        store = session.store
        envelope = store.get(cold.key)
        stored = json.dumps(envelope["triage"], sort_keys=True)
        envelope["triage"]["gates"][0]["score"] += 0.5
        store.put(cold.key, "triage", {
            field: envelope[field]
            for field in ("digest", "result_digest", "config", "triage")
        })
        puts = store.stats.puts
        warm = session.triage_text(text)
        assert (warm.cache, warm.analysis.cache) == ("miss", "hit")
        assert store.stats.puts == puts + 1
        assert json.dumps(
            store.get(cold.key)["triage"], sort_keys=True
        ) == stored
        assert json.dumps(warm.as_dict(), sort_keys=True) == json.dumps(
            cold.as_dict(), sort_keys=True
        )


class TestMemoLifetime:
    """No serialized text outlives its request: a netlist carries no
    canonical-text memo, so a mutated netlist digests and stores its
    current text."""

    def test_store_less_session_keeps_no_text(self, writes):
        netlist = figure1_netlist()[0]
        Session().analyze(netlist)
        Session().analyze(netlist)
        assert len(writes) == 2

    @pytest.mark.parametrize("edit", ["gate", "output", "rename"])
    def test_mutation_after_digest_yields_a_fresh_digest(self, edit, writes):
        netlist = figure1_netlist()[0]
        before = netlist_digest(netlist)
        assert netlist_digest(netlist) == before and len(writes) == 2
        _edit(netlist, edit)
        after = netlist_digest(netlist)
        assert after != before
        assert after == netlist_digest(parse_verilog(write_verilog(netlist)))

    @pytest.mark.parametrize("edit", ["gate", "output", "rename"])
    def test_stale_text_is_never_committed(self, edit, tmp_path):
        netlist = figure1_netlist()[0]
        store = ArtifactStore(str(tmp_path / "store"))
        session = Session(store=store)
        session.analyze(netlist)
        _edit(netlist, edit)
        report = session.analyze(netlist)
        assert report.digest == netlist_digest(netlist)
        assert _body(store, report.digest)["text"] == write_verilog(netlist)


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

    def counted(self, digest, text, format):
        commits.append(digest)
        return original(self, digest, text, format)

    monkeypatch.setattr(ArtifactStore, "commit_netlist", counted)
    report = session.analyze_incremental(base.digest, edited)
    assert commits == [report.digest]
    assert report.gates_added == ("extra",)
    assert session.store.probe_netlist(report.digest) == edited
