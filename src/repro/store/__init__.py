"""Content-addressed artifact store (DESIGN.md §10).

Persists the expensive products of the pipeline — identification results
(words, partitions, control assignments, stage traces) and parsed
netlists — on disk, keyed by ``(content SHA-256, configuration
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
--store``) goes through it.  The engine sees only the store's cone tier.
"""

from .cones import StoreConeTier
from .disk import DEFAULT_DEGRADED_AFTER, ArtifactStore, StoreStats
from .keys import (
    CONE_FINGERPRINT_FIELDS,
    CONE_NEUTRAL_FIELDS,
    FINGERPRINT_FIELDS,
    bytes_digest,
    cache_key,
    cone_cache_key,
    cone_fingerprint,
    config_fingerprint,
    file_digest,
    netlist_digest,
)
from .serialize import (
    UnserializableResult,
    cone_entry_from_dict,
    cone_entry_to_dict,
    result_digest,
    result_from_dict,
    result_to_dict,
)

__all__ = [
    "ArtifactStore",
    "StoreStats",
    "DEFAULT_DEGRADED_AFTER",
    "StoreConeTier",
    "CONE_FINGERPRINT_FIELDS",
    "CONE_NEUTRAL_FIELDS",
    "FINGERPRINT_FIELDS",
    "cache_key",
    "cone_cache_key",
    "cone_fingerprint",
    "config_fingerprint",
    "bytes_digest",
    "file_digest",
    "netlist_digest",
    "UnserializableResult",
    "cone_entry_from_dict",
    "cone_entry_to_dict",
    "result_digest",
    "result_from_dict",
    "result_to_dict",
]
