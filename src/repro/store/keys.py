"""Cache-key derivation for the content-addressed artifact store.

A cached artifact is addressed by the SHA-256 of three components joined
with NUL separators::

    key = sha256(pipeline_version \\0 netlist_digest \\0 config_fingerprint)

``netlist_digest``
    SHA-256 of the design's content.  For an in-memory
    :class:`~repro.netlist.netlist.Netlist` this is the canonical
    structural Verilog produced by
    :func:`~repro.netlist.verilog.write_verilog` (so two parses of the
    same file, or a bench/verilog pair describing the same gates in the
    same order, share a digest).  For a file on disk,
    :func:`file_digest` hashes the raw bytes instead — which lets a warm
    probe skip parsing entirely.  The two digest spaces are disjoint by
    construction (distinct prefixes), so a raw-file entry can never
    shadow a canonical-netlist entry.  :class:`repro.api.Session` alone
    picks one digest per request: the bytes for a path or source text
    (and for a netlist it parsed from them), the canonical form only for
    a netlist built in memory.  Either way it holds the text the digest
    was taken from, and that text is the request's stored body.

``config_fingerprint``
    A canonical JSON document of exactly the
    :class:`~repro.core.pipeline.PipelineConfig` fields that can change a
    run's *output* (words, partitions, assignments, counters).  Fields
    proven not to affect output — ``strict`` (raises instead of
    returning), ``deadline_s`` (a deadline that fires degrades the run,
    and degraded runs are never committed; one that does not fire leaves
    the run identical) — are excluded, so e.g. a ``strict=True`` run hits
    an entry committed by a default one.

``pipeline_version``
    :data:`repro.core.stages.PIPELINE_VERSION`; bumping it on algorithm
    change orphans every old entry (they age out via the LRU cap).
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Union

from ..core import backends
from ..core.pipeline import PIPELINE_VERSION, PipelineConfig
from ..netlist.netlist import Netlist
from ..netlist.verilog import write_verilog

__all__ = [
    "FINGERPRINT_FIELDS",
    "bytes_digest",
    "cache_key",
    "canonical_digest",
    "config_fingerprint",
    "file_digest",
    "netlist_digest",
]

#: PipelineConfig fields that affect a run's output, in fingerprint order.
#: Adding a result-affecting knob to PipelineConfig must extend this tuple
#: (tests/store/test_store.py pins the invalidation behaviour).
#: ``backend`` selects which identification strategy runs, so it is here.
FINGERPRINT_FIELDS = (
    "depth",
    "max_simultaneous",
    "allow_partial",
    "grouping",
    "max_control_signals",
    "accept_partial_heals",
    "max_assignments",
    "max_cone_gates",
    "preflight",
    "backend",
)


def config_fingerprint(config: PipelineConfig) -> str:
    """Canonical JSON of the result-affecting configuration fields.

    Beyond :data:`FINGERPRINT_FIELDS` the document carries the resolved
    backend's *version* (:mod:`repro.core.backends`): bumping one
    backend's version orphans only that backend's entries, and two
    backends — or two versions of one — can never read each other's
    cached artifacts (DESIGN.md §15 fingerprint discipline).
    """
    fields: Dict[str, object] = {
        name: getattr(config, name) for name in FINGERPRINT_FIELDS
    }
    fields["backend_version"] = backends.resolve(config.backend).version
    return json.dumps(fields, sort_keys=True, separators=(",", ":"))


def netlist_digest(netlist: Netlist) -> str:
    """Content digest of an in-memory netlist (canonical Verilog form)."""
    return canonical_digest(write_verilog(netlist))


def canonical_digest(text: str) -> str:
    """The :func:`netlist_digest` of the netlist ``text`` was written
    from: the digest of :func:`~repro.netlist.verilog.write_verilog`
    output, for callers that keep the text as well."""
    return "netlist:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def bytes_digest(data: bytes) -> str:
    """Content digest of in-memory netlist source bytes.

    Shares the ``file:`` digest space deliberately: a netlist body POSTed
    to ``repro serve`` whose bytes equal a file on disk hits the entry a
    CLI run of that file committed, and vice versa.
    """
    return "file:" + hashlib.sha256(data).hexdigest()


def file_digest(path: str) -> str:
    """Content digest of a netlist file's raw bytes (no parse needed)."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return "file:" + digest.hexdigest()


def cache_key(
    digest: str, config: Union[PipelineConfig, str], kind: str = "result"
) -> str:
    """The store address of one artifact.

    ``digest`` comes from :func:`netlist_digest` / :func:`file_digest`;
    ``config`` is a :class:`PipelineConfig` (fingerprinted here) or an
    already-computed fingerprint string.  ``kind`` separates artifact
    namespaces ("result", "netlist", ...) sharing one store.
    """
    if isinstance(config, PipelineConfig):
        config = config_fingerprint(config)
    material = "\0".join((PIPELINE_VERSION, kind, digest, config))
    return hashlib.sha256(material.encode("utf-8")).hexdigest()

