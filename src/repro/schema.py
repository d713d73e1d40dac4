"""Versioning of every machine-readable payload the project emits.

All JSON the tools write — ``repro identify --json`` reports,
``--trace-json`` traces, eval-journal rows, batch reports, and
artifact-store entries — carries two version fields:

``schema_version``
    The *shape* of the payload: which fields exist and what they mean.
    Bump :data:`SCHEMA_VERSION` whenever a field is added, removed, or
    reinterpreted.  A golden-file test (``tests/test_schema.py``) pins the
    exact field set of every payload kind against the current version, so
    a shape change without a bump fails CI.

``pipeline_version``
    The *algorithm* that produced the payload
    (:data:`repro.core.stages.PIPELINE_VERSION`).  Bump it when the
    identification algorithm changes output; it invalidates every cached
    artifact (the store bakes it into cache keys).

The two move independently: renaming a JSON field bumps the schema but
not the pipeline; an algorithm fix bumps the pipeline but not the schema.
"""

from __future__ import annotations

from typing import Dict

from .core.stages import PIPELINE_VERSION

__all__ = ["SCHEMA_VERSION", "PIPELINE_VERSION", "stamp"]

#: Current payload-shape version (see module docstring for the bump rule).
#: v3: serve response envelopes (identify/batch/error/health), the
#: ``--metrics-json`` dump, and ``result_digest`` in identify ``--json``.
#: v4: cone-cache tier counters in trace ``cache`` and batch rows, the
#: ``cone`` store-envelope kind, and the incremental-report payload
#: (library ``as_dict`` and the serve ``base_digest`` response).
#: v5: failure-model fields (DESIGN.md §13) — quarantined batch rows and
#: the ``degraded``/``quarantined``/``quarantine_reasons`` aggregate
#: fields, ``read_timeout_seconds`` on ``/healthz``, and ``store_mode``
#: on ``/readyz``.
#: v6: the ``kernel`` trace field in ``--trace-json`` / report traces and
#: stored result envelopes (a constant ``"python"`` since the signature
#: stage has one implementation), plus the ``BENCH_serve`` load-benchmark
#: report (``scripts/serve_smoke.py --bench``).
#: v7: pluggable backends (``repro.core.backends``) — the ``backend``
#: trace/provenance field in report traces, identify ``--json`` config
#: blocks, batch rows, and stored result envelopes; the uniform serve
#: error envelope (``error``/``detail``/``diagnostics`` with field-level
#: validation records); and the ``scoreboard`` payload
#: (``repro scoreboard``).
#: v8: the triage subsystem (``repro.triage``) — the triage report
#: payload (``repro triage --json`` / ``POST /v1/triage`` / stored
#: triage envelopes), the ``triage`` summary field on batch rows
#: (``repro batch --triage``), and the ``triage`` ROC section in the
#: scoreboard payload (``repro scoreboard --triage``).
#: v9: the cross-run cone cache and the engine's ``jobs`` knob are gone —
#: no ``jobs`` in traces, stored result envelopes or the identify
#: ``--json`` config block; no ``cone`` store-envelope kind; no
#: ``cone_cache`` section in incremental reports; no ``cone_cache`` row
#: field or ``cone_tier_*`` aggregate fields in batch reports; the trace
#: ``cache`` section drops ``cone_tier_commits`` and keeps the other three
#: ``cone_tier_*`` keys as constant zeros.
#: v10: the trace ``cache`` section drops ``node_key_hits`` and
#: ``node_key_misses``; the stored ``netlist`` envelope is
#: ``{digest, format, text}`` — the text the digest was taken from —
#: instead of ``{digest, netlist, verilog}``.
SCHEMA_VERSION = 10


def stamp(payload: Dict) -> Dict:
    """Return ``payload`` with the version fields prepended.

    The input mapping is not mutated; version keys already present are
    overwritten so a re-stamp can never emit stale versions.
    """
    stamped = {
        "schema_version": SCHEMA_VERSION,
        "pipeline_version": PIPELINE_VERSION,
    }
    for key, value in payload.items():
        if key not in stamped:
            stamped[key] = value
    return stamped
