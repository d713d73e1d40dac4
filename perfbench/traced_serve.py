"""``repro serve`` with the benchmark's layer spans published on /metrics.

    python3 perfbench/traced_serve.py <repro serve arguments>

Installs the wrappers of :mod:`tracer` (plus the service's request,
session and serialization entry points) and counts every finished span
into the server's own metrics registry as
``perfbench_span_{calls,seconds,self_seconds,size}_total{span=...}``, so
the benchmark reads per-layer numbers from ``/metrics`` like every other
server-side number.
"""

from __future__ import annotations

import sys

from inputs import require_source
from tracer import Tracer, installed

SPAN_FIELDS = ("calls", "seconds", "self_seconds", "size")


def main(argv) -> int:
    require_source()
    from repro import metrics
    from repro.api import AnalysisReport, Session, TriageReport
    from repro.serve import server, service

    registry = metrics.install()
    counters = [
        registry.counter(
            f"perfbench_span_{field}_total",
            f"Benchmark span {field}, by span",
            labelnames=("span",),
        )
        for field in SPAN_FIELDS
    ]

    def publish(name, seconds, self_seconds, size):
        for counter, amount in zip(
            counters, (1, seconds, self_seconds, size)
        ):
            counter.inc(amount, span=name)

    extra = [
        (service.AnalysisService, "execute", "serve.execute", None),
        (Session, "analyze_text", "api", None),
        (Session, "analyze_digest", "api", None),
        (Session, "triage_text", "api", None),
        (Session, "triage_digest", "api", None),
        (AnalysisReport, "as_dict", "api.serialize", None),
        (TriageReport, "as_dict", "api.serialize", None),
        (service, "_json_response", "api.serialize", None),
    ]
    with installed(Tracer(publish), extra):
        return server.main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
