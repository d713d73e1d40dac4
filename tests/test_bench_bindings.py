"""The names the benchmark patches still resolve.

``perfbench/`` times each layer of a request by rebinding names where
their callers look them up (``repro.api.parse_verilog``,
``repro.store.disk.write_verilog``, ``ArtifactStore.commit_netlist``,
...).  Renaming or dropping one breaks the benchmark without failing
anything else, so every binding is pinned here.
"""

import importlib.util
import os

import pytest

from repro.api import AnalysisReport, Session, TriageReport
from repro.serve import service
from repro.store.disk import ArtifactStore

TRACER = os.path.join(
    os.path.dirname(os.path.dirname(__file__)), "perfbench", "tracer.py"
)


def _layer_bindings():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(owner, attr) for owner, attr, _, _ in tracer.layer_bindings()]


#: Patched by ``tracer.installed`` itself and by ``traced_serve.py``.
EXTRA_BINDINGS = [
    (ArtifactStore, "_note_written"),
    (service.AnalysisService, "execute"),
    (Session, "analyze_text"),
    (Session, "analyze_digest"),
    (Session, "triage_text"),
    (Session, "triage_digest"),
    (AnalysisReport, "as_dict"),
    (TriageReport, "as_dict"),
    (service, "_json_response"),
]


@pytest.mark.parametrize(
    "owner, attr",
    _layer_bindings() + EXTRA_BINDINGS,
    ids=lambda value: getattr(value, "__name__", value),
)
def test_binding_resolves(owner, attr):
    assert callable(getattr(owner, attr, None))
