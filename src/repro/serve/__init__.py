"""``repro serve`` — the long-lived analysis service (DESIGN.md §11).

Turns the one-shot pipeline into resident infrastructure: one process
keeps the artifact store, parsed-netlist cache, and metrics registry warm
across requests and answers

=======================  =============================================
``POST /v1/identify``    netlist body (or store digest) →
                         :class:`~repro.api.AnalysisReport` JSON
``POST /v1/triage``      netlist body (or store digest) →
                         :class:`~repro.api.TriageReport` JSON
``GET /healthz``         liveness (200 while the process runs)
``GET /readyz``          readiness (503 while draining, or while a
                         broken worker pool is rebuilt)
``GET /metrics``         Prometheus text exposition
=======================  =============================================

with bounded admission (429 load shedding), per-request deadlines
(partial reports by default, 408 under ``strict``), and graceful drain
on SIGTERM.  Layers:

* :mod:`repro.serve.service` — transport-independent request handling,
  admission control, worker-pool offload (callable in-process by tests
  and the fuzz ``serve`` oracle);
* :mod:`repro.serve.pool` — what runs inside a worker process;
* :mod:`repro.serve.server` — the asyncio socket listener, HTTP/1.1
  framing, signal handling, and the ``repro serve`` CLI;
* :mod:`repro.serve.client` — a minimal blocking client.
"""

from .client import ReadyStatus, ServeClient, ServeError
from .server import AnalysisServer, main
from .service import AnalysisService, Response

__all__ = [
    "AnalysisServer",
    "AnalysisService",
    "ReadyStatus",
    "Response",
    "ServeClient",
    "ServeError",
    "main",
]
