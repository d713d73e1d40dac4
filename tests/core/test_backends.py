"""Tests of the identification-backend table.

Pins the contracts DESIGN.md §15 promises:

- the table's contents and resolution errors;
- ``backend`` is the one strategy selector: ``allow_partial`` is derived
  from it, not a settable field;
- dispatch purity — resolving ``"ours"`` through the table is
  byte-identical to running the staged engine directly;
- fingerprint discipline — backend (name + version) is in the store
  fingerprint, so store keys are disjoint across backends, while a
  stored ``kernel`` stamp never splits the cache;
- the ``regfeat`` aggregator's output shape (valid partition over the
  candidate FF D nets, deterministic, provenance-stamped).
"""

import dataclasses
import glob
import json

import pytest

from repro.api import Session
from repro.core import backends
from repro.core.backends import (
    BackendSpec,
    UnknownBackendError,
    backend_names,
    resolve,
)
from repro.core.pipeline import PipelineConfig, identify_words
from repro.core.stages import AnalysisEngine
from repro.store import ArtifactStore, result_digest
from repro.store.keys import (
    FINGERPRINT_FIELDS,
    cache_key,
    config_fingerprint,
    netlist_digest,
)
from repro.store.serialize import result_from_dict, result_to_dict

import os as _os
import sys as _sys

_sys.path.insert(0, _os.path.dirname(_os.path.dirname(__file__)))
from fixtures import figure1_netlist  # noqa: E402


@pytest.fixture(scope="module")
def netlist():
    return figure1_netlist()[0]


class TestRegistry:
    def test_builtins_are_registered(self):
        assert backend_names() == ("ours", "base", "regfeat")

    def test_specs_carry_name_version_and_runner_only(self):
        fields = [f.name for f in dataclasses.fields(BackendSpec)]
        assert fields == ["name", "version", "runner"]
        for name in backend_names():
            spec = resolve(name)
            assert spec.name == name
            assert spec.version == "1.0.0"
        assert not hasattr(backends, "register")

    def test_unknown_backend_error_lists_registered_names(self):
        with pytest.raises(UnknownBackendError) as excinfo:
            resolve("nope")
        assert excinfo.value.name == "nope"
        assert excinfo.value.known == backend_names()
        message = str(excinfo.value)
        for name in backend_names():
            assert name in message

    def test_unknown_backend_error_is_a_value_error(self):
        with pytest.raises(ValueError):
            resolve("nope")

    def test_resolve_rejects_non_strings(self):
        with pytest.raises(UnknownBackendError):
            resolve(7)
        with pytest.raises(UnknownBackendError):
            resolve(None)


class TestConfigNormalization:
    """What ``PipelineConfig`` derives from, and checks on, ``backend``."""

    def test_backend_base_forces_allow_partial_off(self):
        """``allow_partial`` is derived from ``backend``: no field, no
        setter, and ``base`` is the only backend without it."""
        assert not PipelineConfig(backend="base").allow_partial
        assert PipelineConfig(backend="ours").allow_partial
        assert PipelineConfig(backend="regfeat").allow_partial
        fields = [f.name for f in dataclasses.fields(PipelineConfig)]
        assert len(fields) == 12
        assert "allow_partial" not in fields
        with pytest.raises(AttributeError):
            PipelineConfig().allow_partial = False

    def test_unknown_backend_raises_value_error(self):
        with pytest.raises(ValueError, match="registered backends"):
            PipelineConfig(backend="nope")


class TestDispatchParity:
    def test_registry_ours_is_byte_identical_to_direct_engine(self, netlist):
        config = PipelineConfig()
        via_registry = identify_words(netlist, config)
        direct = AnalysisEngine(config).run(netlist)
        assert result_digest(via_registry) == result_digest(direct)
        assert (
            via_registry.trace.counter_dict() == direct.trace.counter_dict()
        )

    def test_trace_backend_stamped_per_backend(self, netlist):
        for name in backend_names():
            result = identify_words(netlist, PipelineConfig(backend=name))
            assert result.trace.backend == name

    def test_trace_backend_survives_serialization(self, netlist):
        result = identify_words(netlist, PipelineConfig(backend="regfeat"))
        restored = result_from_dict(result_to_dict(result))
        assert restored.trace.backend == "regfeat"

    def test_backend_outside_counter_dict(self, netlist):
        """Provenance must not leak into the digest-bearing counters."""
        result = identify_words(netlist, PipelineConfig())
        assert "backend" not in result.trace.counter_dict()


class TestRegfeat:
    def test_valid_partition_over_candidate_nets(self, netlist):
        result = identify_words(netlist, PipelineConfig(backend="regfeat"))
        candidates = {ff.inputs[0] for ff in netlist.flip_flops()}
        seen = set()
        for word in result.all_generated_words():
            for bit in word.bits:
                assert bit not in seen, f"{bit} emitted twice"
                seen.add(bit)
                assert netlist.has_net(bit)
        assert seen == candidates

    def test_deterministic(self, netlist):
        config = PipelineConfig(backend="regfeat")
        first = identify_words(netlist, config)
        second = identify_words(netlist, config)
        assert result_digest(first) == result_digest(second)

    def test_counters_populated(self, netlist):
        result = identify_words(netlist, PipelineConfig(backend="regfeat"))
        counters = result.trace.counter_dict()
        assert counters["num_candidate_nets"] > 0
        assert counters["num_groups"] > 0
        assert set(result.trace.stage_seconds) == {
            "features", "pairing", "emission",
        }


class TestFingerprintDiscipline:
    def test_backend_is_a_fingerprint_field(self):
        assert "backend" in FINGERPRINT_FIELDS
        assert "kernel" not in FINGERPRINT_FIELDS

    def test_fingerprints_differ_across_backends(self):
        prints = {
            name: config_fingerprint(PipelineConfig(backend=name))
            for name in backend_names()
        }
        assert len(set(prints.values())) == len(prints)

    def test_backend_version_joins_the_fingerprint(self):
        fields = json.loads(config_fingerprint(PipelineConfig()))
        assert fields["backend"] == "ours"
        assert fields["backend_version"] == resolve("ours").version

    def test_kernel_is_fingerprint_neutral(self, netlist, tmp_path):
        """An entry committed by a version that ran the numpy array kernel
        (its stored trace says ``"kernel": "array"``) is still a hit, with
        the same digest and the constant ``kernel`` on the way out."""
        root = tmp_path / "store"
        store = ArtifactStore(str(root))
        session = Session(store=store)
        cold = session.analyze(netlist).result
        rewritten = 0
        for path in glob.glob(str(root / "**" / "*.json"), recursive=True):
            with open(path, encoding="utf-8") as handle:
                envelope = json.load(handle)
            if envelope.get("kind") != "result":
                continue
            assert envelope["result"]["trace"]["kernel"] == "python"
            envelope["result"]["trace"]["kernel"] = "array"
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(envelope, handle, sort_keys=True)
            rewritten += 1
        assert rewritten == 1
        warm = session.analyze(netlist).result
        assert warm.trace.cache_provenance["provenance"] == "hit"
        assert result_digest(warm) == result_digest(cold)
        assert warm.trace.as_dict()["kernel"] == "python"

    def test_store_keys_disjoint_across_backends(self, netlist, tmp_path):
        """One design, three backends, three distinct store entries."""
        store = ArtifactStore(str(tmp_path / "store"))
        digest = netlist_digest(netlist)
        keys = {}
        for name in backend_names():
            config = PipelineConfig(backend=name)
            Session(config=config, store=store).analyze(netlist)
            keys[name] = cache_key(digest, config)
        assert len(set(keys.values())) == len(keys)
        # and each backend's probe answers with its own words
        for name in backend_names():
            config = PipelineConfig(backend=name)
            hit = store.probe_result(digest, config)
            assert hit is not None
            assert hit[0].trace.backend == name
