"""Store fingerprints are pinned byte for byte.

``PipelineConfig.backend`` is the one strategy selector; the derived
``allow_partial`` stays in the fingerprint, so every key a store already
holds keeps resolving.  The configs pinned here are the library's and
the ones ``repro identify``, ``triage``, ``serve`` and ``batch`` build
from their default flags and from ``--backend base``.
"""

import pytest

import repro.api
import repro.batch
import repro.cli
import repro.metrics
import repro.serve.server
import repro.triage.cli
from repro.api import Session
from repro.core import PipelineConfig
from repro.netlist import write_verilog
from repro.serve.service import AnalysisService
from repro.store.keys import config_fingerprint
from repro.synth.designs import BENCHMARKS


#: ``config_fingerprint`` strings of the released keys, by (backend,
#: preflight).
PINNED = {
    ("ours", False): (
        '{"accept_partial_heals":false,"allow_partial":true,'
        '"backend":"ours","backend_version":"1.0.0","depth":4,'
        '"grouping":"adjacency","max_assignments":null,'
        '"max_cone_gates":null,"max_control_signals":8,'
        '"max_simultaneous":2,"preflight":false}'
    ),
    ("base", False): (
        '{"accept_partial_heals":false,"allow_partial":false,'
        '"backend":"base","backend_version":"1.0.0","depth":4,'
        '"grouping":"adjacency","max_assignments":null,'
        '"max_cone_gates":null,"max_control_signals":8,'
        '"max_simultaneous":2,"preflight":false}'
    ),
    ("ours", True): (
        '{"accept_partial_heals":false,"allow_partial":true,'
        '"backend":"ours","backend_version":"1.0.0","depth":4,'
        '"grouping":"adjacency","max_assignments":null,'
        '"max_cone_gates":null,"max_control_signals":8,'
        '"max_simultaneous":2,"preflight":true}'
    ),
    ("base", True): (
        '{"accept_partial_heals":false,"allow_partial":false,'
        '"backend":"base","backend_version":"1.0.0","depth":4,'
        '"grouping":"adjacency","max_assignments":null,'
        '"max_cone_gates":null,"max_control_signals":8,'
        '"max_simultaneous":2,"preflight":true}'
    ),
}


@pytest.mark.parametrize("backend", ["ours", "base"])
def test_library_config(backend):
    config = PipelineConfig(backend=backend)
    assert config_fingerprint(config) == PINNED[(backend, False)]


class _Captured(Exception):
    """Raised by :func:`_spy` with the config a CLI built."""


def _spy(*args, **kwargs):
    raise _Captured(next(
        value for value in (*args, *kwargs.values())
        if isinstance(value, PipelineConfig)
    ))


@pytest.fixture(scope="module")
def design_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("pins") / "b03.v"
    path.write_text(write_verilog(BENCHMARKS["b03"]()))
    return str(path)


#: (entry point, owner and name of what receives its config, takes a
#: netlist path, runs with preflight)
SURFACES = {
    "identify": (repro.cli.main, repro.cli, "Session", True, True),
    # repro.triage.cli imports Session from repro.api at call time
    "triage": (repro.triage.cli.main, repro.api, "Session", True, True),
    "serve": (repro.serve.server.main, repro.serve.server, "Session",
              False, True),
    "batch": (repro.batch.main, repro.batch, "analyze_corpus", True, False),
}


@pytest.mark.parametrize("backend", ["ours", "base"])
@pytest.mark.parametrize("surface", sorted(SURFACES))
def test_cli_config(surface, backend, design_path, monkeypatch):
    main, owner, name, takes_path, preflight = SURFACES[surface]
    monkeypatch.setattr(owner, name, _spy)
    # serve installs a global metrics registry; restore it afterwards.
    monkeypatch.setattr(repro.metrics, "_installed", None)
    argv = [design_path] if takes_path else ["--port", "0"]
    if backend != "ours":
        argv += ["--backend", backend]
    with pytest.raises(_Captured) as captured:
        main(argv)
    config = captured.value.args[0]
    assert config_fingerprint(config) == PINNED[(backend, preflight)]


@pytest.mark.parametrize("server, request_backend", [
    ("ours", "base"),
    ("base", "ours"),
])
def test_serve_request_backend_override(server, request_backend):
    """A per-request ``backend`` lands in that backend's own keys, on a
    server booted with either backend."""
    config = PipelineConfig(backend=server, preflight=True)
    service = AnalysisService(Session(config))
    try:
        session = service._request_session({"backend": request_backend})
    finally:
        service.close()
    assert config_fingerprint(session.config) == PINNED[
        (request_backend, True)
    ]
