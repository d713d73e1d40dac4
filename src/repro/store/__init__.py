"""Content-addressed artifact store (DESIGN.md §10).

Persists the expensive products of the pipeline — identification results
(words, partitions, control assignments, stage traces) and the netlist
text each was computed from — on disk, keyed by ``(content SHA-256, configuration
fingerprint, pipeline version)``.  Repeat analyses of the same design
under the same semantics become O(read one JSON file); any change to the
input bytes, to a result-affecting configuration field, or to
:data:`~repro.core.stages.PIPELINE_VERSION` changes the key and misses.

The store is shared safely by concurrent threads and processes with no
locks: writes are atomic (tmp-file + rename), reads self-heal corrupt
entries into misses, and an optional LRU byte cap bounds disk use.  See
:mod:`repro.store.disk` for the concurrency model and
:mod:`repro.store.keys` for key derivation and invalidation rules.

Entry point: :class:`repro.api.Session` is the only code that reads or
writes identification results, one key per request; every other caller
(``repro identify``, ``repro batch``, ``repro serve``, ``repro table1
--store``) goes through it.  The engine never sees the store.
"""

from .disk import (
    DEFAULT_DEGRADED_AFTER,
    ArtifactStore,
    StoreStats,
    netlist_summary,
)
from .keys import (
    FINGERPRINT_FIELDS,
    bytes_digest,
    cache_key,
    config_fingerprint,
    file_digest,
    netlist_digest,
)
from .serialize import (
    UnserializableResult,
    result_digest,
    result_from_dict,
    result_to_dict,
)

__all__ = [
    "ArtifactStore",
    "StoreStats",
    "DEFAULT_DEGRADED_AFTER",
    "netlist_summary",
    "FINGERPRINT_FIELDS",
    "cache_key",
    "config_fingerprint",
    "bytes_digest",
    "file_digest",
    "netlist_digest",
    "UnserializableResult",
    "result_digest",
    "result_from_dict",
    "result_to_dict",
]
