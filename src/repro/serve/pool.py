"""The worker side of ``repro serve --pool process``.

``repro serve --pool process`` runs each admitted analysis in a worker
*process* instead of a worker thread, sidestepping the GIL that makes
thread workers take turns on CPU-bound requests.  The processes belong
to a :class:`~repro.workers.WorkerPool`; this module runs inside them.
The split of responsibilities:

* The **parent** keeps everything request-shaped: the socket layer, the
  admission counter (shed-with-429, drain), the retry of a request whose
  worker died, and the authoritative
  :class:`~repro.metrics.MetricsRegistry` behind ``GET /metrics``.
* Each **worker** (built by :func:`init_worker`, in the first pool and
  in every rebuilt one) owns a full :class:`~repro.api.Session` over the
  *shared* artifact store plus a process-local registry, and serves
  requests for the life of the process.

Netlists are never shipped between processes: requests travel as their
JSON payloads, and designs move through the content-addressed store —
the first request to touch a design commits its parsed body and result
under its byte digest; every later request, in any worker, probes by
digest and re-parses nothing.  This is why ``--pool auto`` only picks
the process pool when a store is configured.

Metric movement inside a worker (store hits, engine counters, triage
runs) would be invisible to the parent's ``/metrics``, so every request
returns alongside its :class:`~repro.serve.service.Response` a *delta*
of the worker registry since the previous request, and the parent merges
it (:func:`merge_deltas`).  Counters add; histograms merge bucket
counts; gauges are deliberately dropped — the parent owns the only
admission gauges, and a worker's instantaneous values are meaningless
once the request has finished.
"""

from __future__ import annotations

import os
import signal
from typing import Dict, List, Optional, Tuple

from .. import faults as _faults
from .. import metrics as _metrics
from ..api import Session
from ..core.pipeline import PipelineConfig

__all__ = [
    "init_worker",
    "run_request",
    "merge_deltas",
]

#: Worker-process state: the per-process service and the metric snapshot
#: taken after the previous request (deltas are diffs against it).
_SERVICE = None
_LAST_SNAPSHOT: Optional[Dict] = None


def init_worker(
    config: PipelineConfig,
    store_root: Optional[str],
    max_store_bytes: Optional[int],
    default_deadline_s: Optional[float],
    strict: bool,
    hold_s: float,
) -> None:
    """Build this worker's session, service, and process-local registry.

    Everything a request needs is built here, once per worker, so
    :func:`run_request` is a plain ``(endpoint, payload)`` call: nothing
    configuration-shaped crosses the process boundary per request.
    """
    # Imported here, not at module top: service.py imports this module.
    from .service import AnalysisService

    # A forked worker inherits the server's asyncio signal handling,
    # whose wakeup fd is the parent's event-loop socket: a signal to the
    # worker would reach the parent as its own, and the pool's SIGTERM to
    # the siblings of a crashed worker would read as a drain request.
    # SIGTERM ends a worker; SIGINT is the parent's to drain on.
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    global _SERVICE, _LAST_SNAPSHOT
    registry = _metrics.install()  # fresh, replaces any forked-in parent one
    session = Session(
        config=config, store=store_root, max_store_bytes=max_store_bytes
    )
    _SERVICE = AnalysisService(
        session,
        workers=1,
        queue_size=0,
        default_deadline_s=default_deadline_s,
        strict=strict,
        registry=registry,
        hold_s=hold_s,
    )
    _LAST_SNAPSHOT = _snapshot(registry)


def run_request(endpoint: str, payload: Dict) -> Tuple[object, Dict]:
    """Worker entry: run one request, return (Response, metric deltas)."""
    if _faults.fire("serve.worker.crash", endpoint):
        os._exit(3)  # a real worker crash: no cleanup, no goodbye
    service = _SERVICE
    if service is None:  # pragma: no cover - initializer always ran
        raise RuntimeError("serve worker used before init_worker")
    response = service.execute(endpoint, payload)
    return response, _drain_deltas(service.registry)


# ----------------------------------------------------------------------
# metric deltas
# ----------------------------------------------------------------------

def _snapshot(registry: _metrics.MetricsRegistry) -> Dict:
    """Flat ``{(name, labelkey): value}`` maps for counters/histograms."""
    counters: Dict[Tuple, float] = {}
    histograms: Dict[Tuple, Tuple] = {}
    meta: Dict[str, Tuple] = {}
    for metric in registry:
        if metric.kind == "counter":
            meta[metric.name] = (metric.help, metric.labelnames, None)
            for sample in metric.samples():
                labels = sample["labels"]
                key = tuple(labels[n] for n in metric.labelnames)
                counters[(metric.name, key)] = float(sample["value"])
        elif metric.kind == "histogram":
            meta[metric.name] = (metric.help, metric.labelnames, metric.buckets)
            for sample in metric.samples():
                labels = sample["labels"]
                key = tuple(labels[n] for n in metric.labelnames)
                value = sample["value"]
                # ``buckets`` preserves bound order (insertion-ordered).
                histograms[(metric.name, key)] = (
                    tuple(value["buckets"].values()),
                    float(value["sum"]),
                    int(value["count"]),
                )
    return {"counters": counters, "histograms": histograms, "meta": meta}


def _drain_deltas(registry: _metrics.MetricsRegistry) -> Dict:
    """Movement since the previous request, as a picklable delta bundle."""
    global _LAST_SNAPSHOT
    last = _LAST_SNAPSHOT or {"counters": {}, "histograms": {}, "meta": {}}
    now = _snapshot(registry)
    _LAST_SNAPSHOT = now

    counter_deltas: List[Tuple] = []
    for (name, key), value in now["counters"].items():
        moved = value - last["counters"].get((name, key), 0.0)
        if moved > 0:
            help_, labelnames, _ = now["meta"][name]
            counter_deltas.append((name, help_, labelnames, key, moved))

    histogram_deltas: List[Tuple] = []
    for (name, key), (buckets, total, count) in now["histograms"].items():
        prev = last["histograms"].get(
            (name, key), ((0,) * len(buckets), 0.0, 0)
        )
        moved_count = count - prev[2]
        if moved_count <= 0:
            continue
        help_, labelnames, bounds = now["meta"][name]
        histogram_deltas.append((
            name,
            help_,
            labelnames,
            bounds,
            key,
            tuple(b - p for b, p in zip(buckets, prev[0])),
            total - prev[1],
            moved_count,
        ))
    return {"counters": counter_deltas, "histograms": histogram_deltas}


def merge_deltas(registry: _metrics.MetricsRegistry, deltas: Dict) -> None:
    """Fold a worker's delta bundle into the parent registry."""
    for name, help_, labelnames, key, moved in deltas.get("counters", ()):
        counter = registry.counter(name, help_, labelnames)
        counter.inc(moved, **dict(zip(labelnames, key)))
    for entry in deltas.get("histograms", ()):
        name, help_, labelnames, bounds, key, buckets, total, count = entry
        histogram = registry.histogram(
            name, help_, labelnames, buckets=bounds
        )
        histogram.merge(
            buckets, total, count, **dict(zip(labelnames, key))
        )
