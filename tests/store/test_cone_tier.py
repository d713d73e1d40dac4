"""Tests for the store-backed cone-cache tier and its key discipline.

Three concerns live here: (1) every :class:`PipelineConfig` field must be
classified as cone-fingerprint or cone-neutral — the partition test fails
the moment someone adds a config knob without deciding whether it can
change a subgroup outcome; (2) :class:`StoreConeTier` round-trips entries
through the ``cone:`` digest space, self-healing anything corrupt; (3)
the disk store's batched writes enforce the LRU cap once per batch with
the batch's own keys protected.
"""

import json
import os
import sys

import pytest

from repro.api import Session
from repro.core import PipelineConfig, identify_words
from repro.core.conecache import ProcessConeCache, cone_fingerprint
from repro.store import (
    ArtifactStore,
    CONE_FINGERPRINT_FIELDS,
    CONE_NEUTRAL_FIELDS,
    StoreConeTier,
    cone_cache_key,
    result_digest,
)
from repro.store.serialize import (
    UnserializableResult,
    cone_entry_from_dict,
    cone_entry_to_dict,
)

sys.path.insert(0, os.path.dirname(os.path.dirname(__file__)))
from fixtures import figure1_netlist  # noqa: E402

ENTRY = {"runs": [2, 1], "assignment": {"n4": 0}, "tried": 3,
         "infeasible": 1}
FP = cone_fingerprint(PipelineConfig())


@pytest.fixture()
def store(tmp_path):
    return ArtifactStore(str(tmp_path / "store"))


class TestFingerprintDiscipline:
    def test_every_config_field_is_classified(self):
        """Adding a PipelineConfig field without classifying it as
        cone-fingerprint or cone-neutral must fail loudly: an
        unclassified result-affecting field would let stale entries
        replay under configs they were never computed for."""
        declared = set(CONE_FINGERPRINT_FIELDS) | set(CONE_NEUTRAL_FIELDS)
        actual = set(PipelineConfig.__dataclass_fields__)
        assert declared == actual, (
            "classify new PipelineConfig fields in "
            "repro.core.conecache.CONE_FINGERPRINT_FIELDS or "
            f"CONE_NEUTRAL_FIELDS: {sorted(declared ^ actual)}"
        )

    def test_the_two_classes_are_disjoint(self):
        overlap = set(CONE_FINGERPRINT_FIELDS) & set(CONE_NEUTRAL_FIELDS)
        assert not overlap

    def test_fingerprint_is_canonical_json_of_declared_fields(self):
        fields = json.loads(cone_fingerprint(PipelineConfig()))
        assert set(fields) == set(CONE_FINGERPRINT_FIELDS)


class TestConeEntrySerialization:
    def test_round_trip_normalizes_types(self):
        payload = cone_entry_to_dict(ENTRY)
        assert cone_entry_from_dict(payload) == ENTRY
        assert cone_entry_from_dict(json.loads(json.dumps(payload))) == ENTRY

    @pytest.mark.parametrize("entry", [
        {"runs": [0], "assignment": None, "tried": 0, "infeasible": 0},
        {"runs": [1], "assignment": {"n0": 2}, "tried": 0, "infeasible": 0},
        {"runs": [1], "assignment": None, "tried": -1, "infeasible": 0},
        {"runs": "x", "assignment": None, "tried": 0, "infeasible": 0},
        {"assignment": None, "tried": 0, "infeasible": 0},
    ])
    def test_malformed_entries_are_refused(self, entry):
        with pytest.raises(UnserializableResult):
            cone_entry_to_dict(entry)


class TestStoreConeTier:
    def test_round_trip_and_key_space(self, store):
        tier = store.cone_tier()
        assert isinstance(tier, StoreConeTier)
        tier.commit_many({"cone:abc": ENTRY}, FP)
        assert tier.probe_many(["cone:abc"], FP) == {"cone:abc": ENTRY}
        assert tier.probe_many(["cone:missing"], FP) == {}
        key = cone_cache_key("cone:abc", FP)
        assert store.get(key)["kind"] == "cone"

    def test_fingerprint_scopes_the_key(self, store):
        tier = store.cone_tier()
        tier.commit_many({"cone:abc": ENTRY}, FP)
        other = cone_fingerprint(PipelineConfig(depth=3))
        assert tier.probe_many(["cone:abc"], other) == {}

    def test_cone_neutral_config_change_still_hits(self, store):
        """Two runs differing only in cone-neutral fields (jobs, strict,
        deadline) address the same entries."""
        tier = store.cone_tier()
        tier.commit_many({"cone:abc": ENTRY}, FP)
        neutral = cone_fingerprint(
            PipelineConfig(jobs=4, strict=True, deadline_s=9.0)
        )
        assert neutral == FP
        assert tier.probe_many(["cone:abc"], neutral) == {
            "cone:abc": ENTRY
        }

    def test_key_accepts_config_or_fingerprint(self):
        assert cone_cache_key("cone:abc", PipelineConfig()) == (
            cone_cache_key("cone:abc", FP)
        )

    def test_corrupt_entry_is_healed_to_a_miss(self, store):
        tier = store.cone_tier()
        tier.commit_many({"cone:abc": ENTRY}, FP)
        key = cone_cache_key("cone:abc", FP)
        path = store._path(key)
        envelope = json.load(open(path))
        envelope["entry"]["runs"] = [0, -3]
        with open(path, "w") as handle:
            json.dump(envelope, handle)
        healed_before = store.stats.healed
        assert tier.probe_many(["cone:abc"], FP) == {}
        assert store.stats.healed == healed_before + 1
        assert not os.path.exists(path)

    def test_digest_mismatch_inside_envelope_is_healed(self, store):
        tier = store.cone_tier()
        tier.commit_many({"cone:abc": ENTRY}, FP)
        key = cone_cache_key("cone:abc", FP)
        path = store._path(key)
        envelope = json.load(open(path))
        envelope["digest"] = "cone:other"
        with open(path, "w") as handle:
            json.dump(envelope, handle)
        assert tier.probe_many(["cone:abc"], FP) == {}
        assert not os.path.exists(path)

    def test_unserializable_commit_is_skipped_not_fatal(self, store):
        tier = store.cone_tier()
        bad = {"runs": [0], "assignment": None, "tried": 0, "infeasible": 0}
        tier.commit_many({"cone:bad": bad, "cone:good": ENTRY}, FP)
        assert tier.probe_many(["cone:bad", "cone:good"], FP) == {
            "cone:good": ENTRY
        }


class TestBatchedStoreOps:
    def test_get_many_bumps_stats_once_per_batch(self, store):
        store.put("a" * 8, "cone", {"x": 1})
        store.put("b" * 8, "cone", {"x": 2})
        before_hits, before_misses = store.stats.hits, store.stats.misses
        found = store.get_many(["a" * 8, "a" * 8, "b" * 8, "c" * 8])
        assert set(found) == {"a" * 8, "b" * 8}
        assert store.stats.hits == before_hits + 2
        assert store.stats.misses == before_misses + 1

    def test_put_many_enforces_the_cap_once_protecting_the_batch(
        self, tmp_path
    ):
        store = ArtifactStore(str(tmp_path / "s"), max_bytes=1)
        old_key, batch = "f" * 8, [
            (f"{i:08d}", "cone", {"payload": "y" * 64}) for i in range(5)
        ]
        store.put(old_key, "cone", {"payload": "x" * 64})
        evictions_before = store.stats.evictions
        store.put_many(batch)
        # The batch's own writes survive; older entries are the victims.
        for key, _, _ in batch:
            assert store.get(key) is not None
        assert store.get(old_key) is None
        assert store.stats.evictions == evictions_before + 1

    def test_approximate_size_resyncs_on_eviction_scan(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "s"), max_bytes=10_000)
        store.put_many(
            [(f"{i:08d}", "cone", {"payload": "z" * 16}) for i in range(3)]
        )
        # Another process shrinking the store drifts the running total;
        # a forced scan resyncs it with the directory truth.
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
        store.put("a" * 8, "cone", {"x": 1})
        store.put_many([("b" * 8, "cone", {"x": 2})])
        assert calls == []


class TestEngineStoreIntegration:
    def _same(self, a, b):
        assert a.words == b.words
        assert a.singletons == b.singletons
        assert a.control_assignments == b.control_assignments
        assert a.trace.counter_dict() == b.trace.counter_dict()
        assert result_digest(a) == result_digest(b)

    def test_store_attaches_the_cone_tier_by_default(self, store):
        """A store-attached Session wires [process, store] tiers: a
        fresh process (simulated with a cold private chain) still hits
        the entries a previous run persisted."""
        from repro.core.conecache import process_cone_cache

        process_cone_cache().clear()  # other tests may have warmed it
        netlist, _ = figure1_netlist()
        config = PipelineConfig()
        plain = identify_words(netlist, config)
        cold = Session(config=config, store=store).analyze(netlist).result
        assert cold.trace.cache.cone_tier_commits > 0

        # New process: an empty process tier, the same store.
        warm = identify_words(
            netlist, config,
            cone_cache=[ProcessConeCache(), store.cone_tier()],
        )
        self._same(plain, cold)
        self._same(plain, warm)
        assert warm.trace.cache.cone_tier_store_hits > 0
        assert warm.trace.cache.cone_tier_misses == 0
