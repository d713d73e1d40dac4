"""Disk-backed, content-addressed artifact store.

Layout (everything under one root directory, safe to delete wholesale)::

    <root>/objects/<k[:2]>/<key>.json   one artifact per file
    <root>/tmp/                         staging area for atomic writes

Concurrency model — no locks anywhere:

* **Writes are atomic.**  An artifact is staged in ``tmp/`` (same
  filesystem) and published with :func:`os.replace`, so a reader sees
  either the complete old entry, the complete new entry, or no entry —
  never a torn file.  Two processes committing the same key race
  harmlessly: both payloads are byte-identical by the determinism
  contract, and last-replace-wins.
* **Reads are lockless and self-healing.**  Any entry that fails to
  parse, fails envelope validation (wrong key, schema, or pipeline
  version), or was truncated by a crashed writer is treated as a miss,
  unlinked best-effort, and recomputed by the caller — a corrupt cache
  can cost time, never correctness.
* **The size cap is LRU.**  Reads bump the entry's mtime; when a write
  pushes the store past ``max_bytes``, the oldest-read entries are
  evicted (never the entry just written).  Eviction tolerates concurrent
  deletion of the same files.
"""

from __future__ import annotations

import errno
import json
import os
import tempfile
import threading
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .. import faults as _faults
from .. import metrics as _metrics
from ..core.pipeline import PIPELINE_VERSION, PipelineConfig
from ..core.words import IdentificationResult
from ..netlist.bench import parse_bench
from ..netlist.netlist import Netlist
from ..netlist.verilog import (  # noqa: F401
    write_verilog,  # unused here, but perfbench/tracer.py patches it
)
from ..schema import SCHEMA_VERSION, stamp
from .keys import (  # noqa: F401
    cache_key,
    config_fingerprint,
    netlist_digest,  # unused here, but perfbench/tracer.py patches it
)
from .serialize import UnserializableResult, result_from_dict, result_to_dict

__all__ = [
    "ArtifactStore",
    "StoreStats",
    "DEFAULT_DEGRADED_AFTER",
    "netlist_summary",
]

#: Swallowed-``OSError`` count at which a store flips to degraded
#: (write-bypass) mode.  Override per instance with ``degraded_after``
#: or process-wide with the ``REPRO_STORE_DEGRADED_AFTER`` environment
#: variable (which is how batch worker processes, whose stores are
#: opened from a bare root path, pick the threshold up).
DEFAULT_DEGRADED_AFTER = 16

#: ``StoreStats`` counter names for suppressed I/O errors, by operation.
IO_ERROR_COUNTERS = (
    "read_errors",
    "write_errors",
    "touch_errors",
    "heal_errors",
    "evict_errors",
    "scan_errors",
)


@dataclass
class StoreStats:
    """Per-instance counters (not persisted; a fresh store starts at 0).

    Counters are bumped through :meth:`bump`, which holds a lock — one
    store instance is shared by every request of the serve thread pool,
    and unlocked ``+= 1`` increments would lose counts under that
    concurrency.  Each bump is also published to the installed
    :mod:`repro.metrics` registry (``repro_store_<name>_total``), so
    ``GET /metrics`` sees store traffic without polling instances.
    """

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    healed: int = 0
    bypassed_puts: int = 0
    read_errors: int = 0
    write_errors: int = 0
    touch_errors: int = 0
    heal_errors: int = 0
    evict_errors: int = 0
    scan_errors: int = 0

    def __post_init__(self):
        self._lock = threading.Lock()

    def bump(self, name: str) -> None:
        """Thread-safely increment one counter and publish it."""
        with self._lock:
            setattr(self, name, getattr(self, name) + 1)
        registry = _metrics.current()
        if registry is not None:
            registry.counter(
                f"repro_store_{name}_total",
                f"Artifact-store {name} across all requests",
            ).inc()

    def bump_io_error(self, op: str) -> None:
        """Count one suppressed ``OSError`` under its operation name.

        ``op`` is one of read/write/touch/heal/evict/scan; the matching
        ``<op>_errors`` field is bumped and the error is published as
        ``repro_store_io_error_total{op=...}``, so a fault burst shows
        up on ``/metrics`` even though no individual call ever raised.
        """
        name = op + "_errors"
        if name not in IO_ERROR_COUNTERS:
            raise ValueError(f"unknown I/O error op {op!r}")
        with self._lock:
            setattr(self, name, getattr(self, name) + 1)
        registry = _metrics.current()
        if registry is not None:
            registry.counter(
                "repro_store_io_error_total",
                "OSErrors swallowed by the artifact store, by operation",
                labelnames=("op",),
            ).inc(op=op)

    @property
    def io_errors(self) -> int:
        """Total suppressed I/O errors across every operation."""
        with self._lock:
            return sum(getattr(self, name) for name in IO_ERROR_COUNTERS)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> Dict[str, float]:
        payload = {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
            "healed": self.healed,
            "bypassed_puts": self.bypassed_puts,
            "hit_rate": self.hit_rate,
            "io_errors": self.io_errors,
        }
        for name in IO_ERROR_COUNTERS:
            payload[name] = getattr(self, name)
        return payload


def netlist_summary(netlist: Netlist) -> Dict[str, object]:
    """What a result envelope records of its design (``{"name",
    "gates", "nets", "flip_flops"}``), so a hit can report the design
    without parsing it."""
    return {
        "name": netlist.name,
        "gates": netlist.num_gates,
        "nets": netlist.num_nets,
        "flip_flops": netlist.num_ffs,
    }


class ArtifactStore:
    """Content-addressed cache of pipeline artifacts (see module docstring).

    ``max_bytes`` caps the total size of ``objects/``; ``None`` (default)
    means unbounded.  One store may be shared by any number of threads
    and processes simultaneously.

    ``degraded_after`` is the disk-health circuit breaker: once that
    many *real* I/O errors (``FileNotFoundError`` races with concurrent
    eviction do not count) have been swallowed, the store flips to a
    degraded write-bypass mode — reads are still attempted (they
    self-heal to misses), but nothing is written to a disk that is
    evidently failing, so analyses keep producing byte-identical
    results at cache-off speed instead of dying on ``ENOSPC``.  The
    flip is one-way for the life of the instance and is reported by
    :attr:`mode`, ``stats``, the ``repro_store_degraded`` gauge, and
    ``repro serve``'s ``/readyz``.  ``None`` picks the
    ``REPRO_STORE_DEGRADED_AFTER`` environment variable or
    :data:`DEFAULT_DEGRADED_AFTER`; ``0`` disables the breaker.
    """

    def __init__(
        self,
        root: str,
        max_bytes: Optional[int] = None,
        degraded_after: Optional[int] = None,
    ):
        # Checked before the disk is touched: a negative cap would evict
        # every entry.
        if max_bytes is not None and max_bytes < 0:
            raise ValueError(f"store cap must be >= 0 bytes, not {max_bytes}")
        self.root = os.fspath(root)
        self.max_bytes = max_bytes
        if degraded_after is None:
            degraded_after = int(
                os.environ.get(
                    "REPRO_STORE_DEGRADED_AFTER", DEFAULT_DEGRADED_AFTER
                )
            )
        self.degraded_after = degraded_after
        self._degraded = False
        self._degraded_reason: Optional[str] = None
        self._disk_errors = 0
        self.stats = StoreStats()
        self._objects = os.path.join(self.root, "objects")
        self._tmp = os.path.join(self.root, "tmp")
        # Approximate running size of objects/ (see _note_written): lets
        # a capped store skip the full-directory rescan on most puts.
        self._size_lock = threading.Lock()
        self._approx_bytes = 0
        self._puts_since_rescan = 0
        os.makedirs(self._objects, exist_ok=True)
        os.makedirs(self._tmp, exist_ok=True)
        if max_bytes is not None:
            self._evict()  # a tightened cap applies to existing entries
        else:
            self._approx_bytes = self.total_bytes()

    # ------------------------------------------------------------------
    # degraded mode (the disk-health circuit breaker)
    # ------------------------------------------------------------------
    @property
    def degraded(self) -> bool:
        return self._degraded

    @property
    def mode(self) -> str:
        """``"ok"`` or ``"degraded"`` (write-bypass), for health probes."""
        return "degraded" if self._degraded else "ok"

    @property
    def degraded_reason(self) -> Optional[str]:
        """Machine-readable reason the breaker tripped, or ``None``."""
        return self._degraded_reason

    def _record_io_error(self, op: str, exc: OSError) -> None:
        """Count one suppressed ``OSError``; maybe trip the breaker.

        ``FileNotFoundError`` is counted (it was still suppressed) but
        never advances the breaker — losing a race with a concurrent
        eviction or heal is the lockless design working, not the disk
        failing.
        """
        self.stats.bump_io_error(op)
        if isinstance(exc, FileNotFoundError):
            return
        with self._size_lock:
            self._disk_errors += 1
            tripped = (
                not self._degraded
                and self.degraded_after > 0
                and self._disk_errors >= self.degraded_after
            )
            if tripped:
                self._degraded = True
                self._degraded_reason = (
                    f"io_error_burst: {self._disk_errors} I/O errors "
                    f"(threshold {self.degraded_after}), last: "
                    f"{op}: {exc}"
                )
        if tripped:
            registry = _metrics.current()
            if registry is not None:
                registry.gauge(
                    "repro_store_degraded",
                    "1 when the store has flipped to write-bypass mode",
                ).set(1)

    # ------------------------------------------------------------------
    # generic object layer
    # ------------------------------------------------------------------
    def _path(self, key: str) -> str:
        return os.path.join(self._objects, key[:2], key + ".json")

    def _load(self, key: str) -> Optional[Dict]:
        """The validated envelope under ``key`` — no stats, no LRU touch.

        Corrupt, truncated, foreign, or version-mismatched entries are
        self-healed: unlinked (best-effort) and reported as a miss; an
        I/O error while reading is additionally counted as one.
        """
        path = self._path(key)
        try:
            if _faults.fire("store.read", key):
                raise OSError(errno.EIO, "injected I/O error", path)
            with open(path, encoding="utf-8") as handle:
                envelope = json.load(handle)
        except FileNotFoundError:
            return None
        except OSError as exc:
            self._record_io_error("read", exc)
            self._heal(path)
            return None
        except ValueError:
            self._heal(path)
            return None
        if (
            not isinstance(envelope, dict)
            or envelope.get("schema_version") != SCHEMA_VERSION
            or envelope.get("pipeline_version") != PIPELINE_VERSION
            or envelope.get("key") != key
        ):
            self._heal(path)
            return None
        return envelope

    def _touch(self, key: str) -> None:
        try:  # LRU bump; losing the race to an eviction is harmless
            os.utime(self._path(key))
        except OSError as exc:
            self._record_io_error("touch", exc)

    def get(self, key: str) -> Optional[Dict]:
        """The validated envelope stored under ``key``, or ``None``."""
        envelope = self._load(key)
        if envelope is None:
            self.stats.bump("misses")
            return None
        self._touch(key)
        self.stats.bump("hits")
        return envelope

    def _write(self, key: str, kind: str, fields: Dict) -> None:
        """Atomically publish one artifact (tmp-file + rename)."""
        envelope = stamp({"kind": kind, "key": key, **fields})
        payload = json.dumps(envelope, sort_keys=True) + "\n"
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        if _faults.fire("store.write", key):
            raise OSError(errno.ENOSPC, "injected: no space left", path)
        fd, staging = tempfile.mkstemp(
            prefix=key[:8] + ".", suffix=".tmp", dir=self._tmp
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(payload)
            if _faults.fire("store.truncate", key):
                # A crashing writer: publish a torn entry the next
                # reader must detect and self-heal.
                with open(staging, "r+b") as torn:
                    torn.truncate(max(1, len(payload) // 2))
            os.replace(staging, path)
        except BaseException:
            try:
                os.unlink(staging)
            except OSError:
                pass
            raise
        self.stats.bump("puts")
        self._note_written(len(payload.encode("utf-8")))

    def _note_written(self, nbytes: int) -> None:
        with self._size_lock:
            self._approx_bytes += nbytes
            self._puts_since_rescan += 1

    def _over_cap_or_stale(self) -> bool:
        """Whether the approximate size calls for a full eviction scan.

        The running total only grows (overwrites and concurrent
        processes drift it upward), so it is conservative: it can
        trigger a scan early, never skip one that is needed — except
        for drift from *other* processes shrinking the store, which the
        periodic rescan (every 64 puts) corrects.
        """
        with self._size_lock:
            return (
                self._approx_bytes > self.max_bytes
                or self._puts_since_rescan >= 64
            )

    def _try_write(self, key: str, kind: str, fields: Dict) -> bool:
        """One guarded write: a cache write failing must never fail the
        caller's analysis — the error is counted (possibly tripping the
        breaker) and the entry is simply not cached."""
        if self._degraded:
            self.stats.bump("bypassed_puts")
            return False
        try:
            self._write(key, kind, fields)
        except OSError as exc:
            self._record_io_error("write", exc)
            return False
        return True

    def put(self, key: str, kind: str, fields: Dict) -> None:
        """Publish an artifact (atomic, best-effort), enforce the cap."""
        if not self._try_write(key, kind, fields):
            return
        if self.max_bytes is not None and self._over_cap_or_stale():
            self._evict(keep=(key,))

    def _heal(self, path: str) -> None:
        try:
            os.unlink(path)
            self.stats.bump("healed")
        except FileNotFoundError:
            pass  # a concurrent reader healed it first — already done
        except OSError as exc:
            self._record_io_error("heal", exc)

    def _entries(self) -> Iterator[Tuple[str, int, int]]:
        """``(path, size, mtime_ns)`` for every object currently on disk."""
        try:
            shards = os.scandir(self._objects)
        except OSError as exc:
            self._record_io_error("scan", exc)
            return
        with shards:
            for shard in shards:
                if not shard.is_dir():
                    continue
                try:
                    files = os.scandir(shard.path)
                except FileNotFoundError:
                    continue  # shard emptied and removed concurrently
                except OSError as exc:
                    self._record_io_error("scan", exc)
                    continue
                with files:
                    for entry in files:
                        if not entry.name.endswith(".json"):
                            continue
                        try:
                            info = entry.stat()
                        except OSError:
                            continue  # evicted by a concurrent process
                        yield entry.path, info.st_size, info.st_mtime_ns

    def _evict(self, keep: Sequence[str] = ()) -> None:
        """Full-scan LRU eviction; also resyncs the approximate size."""
        entries: List[Tuple[str, int, int]] = list(self._entries())
        total = sum(size for _, size, _ in entries)
        if self.max_bytes is not None and total > self.max_bytes:
            protected = {self._path(key) for key in keep}
            # Oldest access first; path breaks mtime ties
            # deterministically.
            entries.sort(key=lambda item: (item[2], item[0]))
            for path, size, _ in entries:
                if total <= self.max_bytes:
                    break
                if path in protected:
                    continue
                try:
                    os.unlink(path)
                    self.stats.bump("evictions")
                except FileNotFoundError:
                    pass  # already gone — still freed
                except OSError as exc:
                    self._record_io_error("evict", exc)
                total -= size
        with self._size_lock:
            self._approx_bytes = total
            self._puts_since_rescan = 0

    def keys(self) -> List[str]:
        """Keys of every artifact currently on disk (unordered scan)."""
        return [
            os.path.basename(path)[: -len(".json")]
            for path, _, _ in self._entries()
        ]

    def total_bytes(self) -> int:
        return sum(size for _, size, _ in self._entries())

    def __len__(self) -> int:
        return sum(1 for _ in self._entries())

    def clear(self) -> None:
        for path, _, _ in self._entries():
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass
            except OSError as exc:
                self._record_io_error("evict", exc)

    # ------------------------------------------------------------------
    # identification results
    # ------------------------------------------------------------------
    def probe_result(
        self, digest: str, config: PipelineConfig
    ) -> Optional[Tuple[IdentificationResult, Dict]]:
        """The cached result under a content digest, with the summary of
        the netlist it was computed from (``{"name", "gates", "nets",
        "flip_flops"}``).

        One envelope read, one ``hits``/``misses`` count.  On a hit the
        result's ``trace.cache_provenance`` records
        ``{"provenance": "hit", "key": <key>}``.
        """
        key = cache_key(digest, config, kind="result")
        envelope = self.get(key)
        if envelope is None:
            return None
        try:
            result = result_from_dict(envelope["result"])
        except (KeyError, TypeError, ValueError):
            self._heal(self._path(key))
            return None
        result.trace.cache_provenance = {"provenance": "hit", "key": key}
        return result, envelope.get("netlist") or {}

    def commit_result(
        self,
        digest: str,
        config: PipelineConfig,
        result: IdentificationResult,
        summary: Dict[str, object],
    ) -> Optional[str]:
        """Persist a result; returns its key, or ``None`` if uncacheable.

        ``summary`` (:func:`netlist_summary` of the analyzed design) is
        stored in the envelope and comes back from :meth:`probe_result`.
        Degraded results and runs with a ``fault_hook`` installed are
        refused — both describe the run environment, not the design.  On a successful commit the result's
        ``trace.cache_provenance`` records ``{"provenance": "miss", "key":
        <key>}``.
        """
        if config.fault_hook is not None:
            return None
        try:
            serialized = result_to_dict(result)
        except UnserializableResult:
            return None
        key = cache_key(digest, config, kind="result")
        self.put(
            key,
            "result",
            {
                "digest": digest,
                "config": config_fingerprint(config),
                "netlist": summary,
                "result": serialized,
            },
        )
        result.trace.cache_provenance = {"provenance": "miss", "key": key}
        return key

    # ------------------------------------------------------------------
    # netlist bodies
    # ------------------------------------------------------------------
    def probe_netlist(self, digest: str) -> Optional[Netlist]:
        """A previously analyzed netlist, parsed from its stored body."""
        from ..netlist.verilog import parse_verilog

        key = cache_key(digest, "", kind="netlist")
        envelope = self.get(key)
        if envelope is None:
            return None
        try:
            if envelope["format"] == "bench":
                return parse_bench(envelope["text"])
            return parse_verilog(envelope["text"])
        except Exception:
            self._heal(self._path(key))
            return None

    def commit_netlist(self, digest: str, text: str, format: str) -> str:
        """Persist a design's source ``text`` in ``format`` (``"verilog"``
        or ``"bench"``) under its content digest.

        The body is the text the caller keyed the request by — the
        request's bytes for a ``file:`` digest, canonical Verilog for a
        ``netlist:`` one — so it is stored as given and never
        re-serialized here; a ``.bench`` body stays ``.bench``.
        """
        key = cache_key(digest, "", kind="netlist")
        self.put(
            key,
            "netlist",
            {"digest": digest, "format": format, "text": text},
        )
        return key
