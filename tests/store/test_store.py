"""Tests for the content-addressed artifact store (repro.store)."""

import json
import multiprocessing
import os

import pytest

from repro.api import Session
from repro.core import PipelineConfig, identify_words
from repro.netlist import write_verilog
from repro.store import (
    ArtifactStore,
    cache_key,
    config_fingerprint,
    file_digest,
    netlist_digest,
    result_digest,
    result_from_dict,
    result_to_dict,
)
from repro.store.serialize import UnserializableResult

import sys
sys.path.insert(0, os.path.dirname(os.path.dirname(__file__)))
from fixtures import figure1_netlist  # noqa: E402


@pytest.fixture()
def netlist():
    return figure1_netlist()[0]


@pytest.fixture()
def store(tmp_path):
    return ArtifactStore(str(tmp_path / "store"))


def _analyze(netlist, config, store):
    """One store-attached analysis: ``Session`` probes and commits."""
    return Session(config=config, store=store).analyze(netlist).result


def _probe(store, netlist, config):
    hit = store.probe_result(netlist_digest(netlist), config)
    return None if hit is None else hit[0]


def _result_keys(store):
    """Keys of the ``result`` entries (Session also commits the body)."""
    return [
        key for key in store.keys() if store.get(key)["kind"] == "result"
    ]


class TestKeys:
    def test_netlist_digest_is_content_addressed(self, netlist):
        assert netlist_digest(netlist) == netlist_digest(netlist.copy())
        renamed = netlist.copy("other_top")
        assert netlist_digest(netlist) != netlist_digest(renamed)

    def test_file_and_netlist_digest_spaces_are_disjoint(
        self, netlist, tmp_path
    ):
        from repro.netlist import write_verilog

        path = tmp_path / "n.v"
        path.write_text(write_verilog(netlist))
        assert file_digest(str(path)).startswith("file:")
        assert netlist_digest(netlist).startswith("netlist:")

    def test_fingerprint_excludes_execution_only_knobs(self):
        base = PipelineConfig()
        assert config_fingerprint(base) == config_fingerprint(
            PipelineConfig(strict=True, deadline_s=1000.0)
        )

    def test_fingerprint_covers_result_affecting_knobs(self):
        base = PipelineConfig()
        for variant in (
            PipelineConfig(depth=5),
            PipelineConfig(max_simultaneous=3),
            PipelineConfig(backend="base"),
            PipelineConfig(grouping="registers"),
            PipelineConfig(max_assignments=7),
            PipelineConfig(preflight=True),
        ):
            assert config_fingerprint(base) != config_fingerprint(variant)

    def test_kind_separates_namespaces(self):
        assert cache_key("d", "c", kind="result") != cache_key(
            "d", "c", kind="netlist"
        )


class TestSerialize:
    def test_result_roundtrip_is_lossless(self, netlist):
        result = identify_words(netlist, PipelineConfig())
        restored = result_from_dict(result_to_dict(result))
        assert [w.bits for w in restored.words] == [
            w.bits for w in result.words
        ]
        assert restored.singletons == result.singletons
        assert restored.control_assignments == result.control_assignments
        assert restored.trace.counter_dict() == result.trace.counter_dict()
        assert restored.trace.cache.as_dict() == result.trace.cache.as_dict()
        assert result_digest(restored) == result_digest(result)

    def test_retired_trace_fields_are_ignored_on_load(self, netlist):
        # Entries written while ``jobs``, the ``kernel`` knob and the
        # cone cache existed still load, to the same result.
        result = identify_words(netlist, PipelineConfig())
        payload = result_to_dict(result)
        assert "jobs" not in payload["trace"]
        payload["trace"]["jobs"] = 4
        payload["trace"]["kernel"] = "array"
        payload["trace"]["cache"]["cone_tier_commits"] = 3
        restored = result_from_dict(payload)
        assert result_digest(restored) == result_digest(result)
        assert restored.trace.cache.as_dict() == result.trace.cache.as_dict()

    def test_degraded_results_are_refused(self, netlist):
        result = identify_words(netlist, PipelineConfig())
        result.trace.deadline_hit = True
        with pytest.raises(UnserializableResult):
            result_to_dict(result)


class TestStoreBasics:
    def test_probe_miss_then_commit_then_hit(self, store, netlist):
        config = PipelineConfig()
        assert _probe(store, netlist, config) is None
        result = _analyze(netlist, config, store)
        assert result.trace.cache_provenance["provenance"] == "miss"
        cached = _analyze(netlist, config, store)
        assert cached.trace.cache_provenance["provenance"] == "hit"
        assert result_digest(cached) == result_digest(result)
        assert cached.trace.counter_dict() == result.trace.counter_dict()

    def test_changing_depth_must_miss(self, store, netlist):
        _analyze(netlist, PipelineConfig(depth=4), store)
        other = _analyze(netlist, PipelineConfig(depth=5), store)
        assert other.trace.cache_provenance["provenance"] == "miss"
        # One result entry per depth (the body rides along in its own
        # kind and doesn't collide with the result space).
        assert len(_result_keys(store)) == 2

    def test_degraded_run_is_not_committed(self, store, netlist):
        config = PipelineConfig(deadline_s=1e-9)
        degraded = _analyze(netlist, config, store)
        assert degraded.trace.degraded
        assert _result_keys(store) == []

    def test_netlist_artifact_roundtrip(self, store, netlist):
        text = write_verilog(netlist)
        digest = netlist_digest(netlist)
        store.commit_netlist(digest, text, "verilog")
        restored = store.probe_netlist(digest)
        assert restored == netlist


class TestSelfHealing:
    def _single_entry_path(self, store):
        (key,) = _result_keys(store)
        return store._path(key), key

    def test_truncated_entry_is_a_miss_and_healed(self, store, netlist):
        config = PipelineConfig()
        _analyze(netlist, config, store)
        path, _key = self._single_entry_path(store)
        payload = open(path, encoding="utf-8").read()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(payload[: len(payload) // 2])  # torn write
        assert _probe(store, netlist, config) is None
        assert store.stats.healed == 1
        assert not os.path.exists(path)
        # The next analysis recomputes and rewrites the entry.
        rewritten = _analyze(netlist, config, store)
        assert rewritten.trace.cache_provenance["provenance"] == "miss"
        assert _probe(store, netlist, config) is not None

    def test_garbage_json_is_a_miss_and_healed(self, store, netlist):
        config = PipelineConfig()
        _analyze(netlist, config, store)
        path, _ = self._single_entry_path(store)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{not json")
        assert _probe(store, netlist, config) is None
        assert not os.path.exists(path)

    def test_wrong_key_content_is_rejected(self, store, netlist):
        config = PipelineConfig()
        _analyze(netlist, config, store)
        path, key = self._single_entry_path(store)
        envelope = json.loads(open(path, encoding="utf-8").read())
        envelope["key"] = "0" * 64  # foreign entry copied into place
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(envelope, handle)
        assert store.get(key) is None

    def test_pipeline_version_mismatch_is_a_miss(self, store, netlist):
        config = PipelineConfig()
        _analyze(netlist, config, store)
        path, key = self._single_entry_path(store)
        envelope = json.loads(open(path, encoding="utf-8").read())
        envelope["pipeline_version"] = "0.0.1"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(envelope, handle)
        assert store.get(key) is None


class TestLRU:
    def _put(self, store, name, mtime):
        key = cache_key(f"digest-{name}", "cfg")
        store.put(key, "result", {"payload": "x" * 512})
        os.utime(store._path(key), (mtime, mtime))
        return key

    def test_oldest_read_entries_evicted_first(self, tmp_path):
        store = ArtifactStore(str(tmp_path), max_bytes=4096)
        old = self._put(store, "old", 1_000)
        mid = self._put(store, "mid", 2_000)
        new = self._put(store, "new", 3_000)
        assert store.total_bytes() <= 4096
        # Grow past the cap: eviction removes the LRU entry ("old").
        big = cache_key("digest-big", "cfg")
        store.put(big, "result", {"payload": "y" * 2048})
        keys = set(store.keys())
        assert big in keys  # the just-written entry is never evicted
        assert old not in keys
        assert store.stats.evictions >= 1
        assert store.total_bytes() <= 4096
        assert {mid, new} & keys  # newer entries survive before older ones

    def test_read_refreshes_lru_position(self, tmp_path):
        store = ArtifactStore(str(tmp_path), max_bytes=3000)
        old = self._put(store, "old", 1_000)
        mid = self._put(store, "mid", 2_000)
        store.get(old)  # bump: "old" becomes most-recently-used
        store.put(
            cache_key("digest-big", "cfg"), "result",
            {"payload": "y" * 1500},
        )
        keys = set(store.keys())
        assert old in keys
        assert mid not in keys

    def test_unbounded_store_never_evicts(self, store):
        for index in range(20):
            store.put(cache_key(f"d{index}", "c"), "result", {"n": index})
        assert len(store) == 20
        assert store.stats.evictions == 0

    def test_put_enforces_the_cap_protecting_its_own_key(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "s"), max_bytes=1)
        old_key, new_key = "f" * 8, "0" * 8
        store.put(old_key, "result", {"payload": "x" * 64})
        evictions_before = store.stats.evictions
        store.put(new_key, "result", {"payload": "y" * 64})
        # The put's own write survives; the older entry is the victim.
        assert store.get(new_key) is not None
        assert store.get(old_key) is None
        assert store.stats.evictions == evictions_before + 1

    def test_approximate_size_resyncs_on_eviction_scan(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "s"), max_bytes=10_000)
        for index in range(3):
            store.put(f"{index:08d}", "result", {"payload": "z" * 16})
        # Another process shrinking the store drifts the running total;
        # a forced scan resyncs it with the directory truth.
        os.unlink(store._path("00000000"))
        assert store._approx_bytes > store.total_bytes()
        store._evict()
        assert store._approx_bytes == store.total_bytes()
        assert store._puts_since_rescan == 0

    def test_uncapped_store_never_scans_on_put(self, store, monkeypatch):
        calls = []
        original = ArtifactStore._evict
        monkeypatch.setattr(
            ArtifactStore, "_evict",
            lambda self, keep=(): calls.append(keep) or original(
                self, keep
            ),
        )
        store.put("a" * 8, "result", {"x": 1})
        store.put("b" * 8, "result", {"x": 2})
        assert calls == []


def _hammer_writer(root: str, key: str, marker: int, rounds: int) -> None:
    writer = ArtifactStore(root)
    for _ in range(rounds):
        writer.put(key, "result", {"marker": marker, "pad": "z" * 256})


class TestConcurrency:
    def test_two_processes_writing_the_same_key(self, tmp_path):
        """Two processes hammer one key while the parent reads it.

        Lockless contract: every read observes either a miss or one
        writer's complete envelope — never a torn or mixed entry.
        """
        root = str(tmp_path / "shared")
        store = ArtifactStore(root)
        key = cache_key("contended", "cfg")
        workers = [
            multiprocessing.Process(
                target=_hammer_writer, args=(root, key, marker, 200)
            )
            for marker in (1, 2)
        ]
        for proc in workers:
            proc.start()
        observed = set()
        try:
            while any(proc.is_alive() for proc in workers):
                envelope = store.get(key)
                if envelope is not None:
                    assert envelope["key"] == key
                    assert envelope["pad"] == "z" * 256
                    observed.add(envelope["marker"])
        finally:
            for proc in workers:
                proc.join(timeout=30)
        for proc in workers:
            assert proc.exitcode == 0
        final = store.get(key)
        assert final is not None and final["marker"] in (1, 2)
        assert observed <= {1, 2}
        assert store.stats.healed == 0  # atomic writes: nothing torn

    def test_two_processes_committing_same_analysis(self, tmp_path, netlist):
        """Concurrent identical commits are benign (last-replace-wins)."""
        from repro.netlist import write_verilog

        root = str(tmp_path / "shared")
        path = tmp_path / "design.v"
        path.write_text(write_verilog(netlist))
        workers = [
            multiprocessing.Process(
                target=_analyze_in_child, args=(root, str(path))
            )
            for _ in range(2)
        ]
        for proc in workers:
            proc.start()
        for proc in workers:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        session_store = ArtifactStore(root)
        config = PipelineConfig()
        from repro.store import file_digest as fdigest

        assert session_store.probe_result(
            fdigest(str(path)), config
        ) is not None


def _analyze_in_child(root: str, path: str) -> None:
    from repro.api import Session

    report = Session(store=root).analyze(path)
    assert report.cache in ("hit", "miss")
