"""Tiered canonical-cone memoization (DESIGN.md §12).

The reduction search (Section 2.5) dominates pipeline cost: per partial
subgroup it extracts a subcircuit, tries control-signal assignments, and
re-hashes signatures after every reduction.  Its outcome is a pure
function of the subcircuit's *structure*, the bit order, the candidate
list, and a handful of configuration fields — net names and file order
never enter it.  This module caches those outcomes under a canonical,
serializable digest so they are shared across three tiers:

1. **In-context identity memos** — the per-run
   :class:`~repro.core.context.AnalysisContext` tables, unchanged.
2. **Per-process table** — :class:`ProcessConeCache`, a bounded LRU dict
   shared by every engine in the process (repeated serve requests,
   ablation sweeps, fuzz regimes).
3. **Store-backed tier** — ``repro.store.cones.StoreConeTier`` persists
   entries in the ``cone:`` digest space of the artifact store, so one
   design's run hits entries committed by *another* design's run, and an
   ECO respin re-derives only the cones it actually dirtied.

Canonical form: nets are renumbered by a deterministic first-visit
traversal from the subgroup bits (in bit order, driver inputs in input
order), then the gate graph, the bit list, and the candidate list are
serialized with canonical ids only.  Two isomorphic subgroups — same
structure, same bit/candidate layout, any net names, any file order —
share a digest; the cached outcome is replayed by translating the
winning assignment back through the probing design's own id map.  The
mapping is conservative (a permuted-but-isomorphic subgroup may get a
fresh digest and simply miss), never unsound: the ``cone_cache`` fuzz
oracle enforces cone-cache-on ≡ cone-cache-off byte identity.

Entries are tiny (a run-length partition, an assignment, two counters)
and never record degraded searches — a budget that fired describes one
machine's pressure, not the design.

Configuration discipline: :data:`CONE_FINGERPRINT_FIELDS` lists exactly
the :class:`~repro.core.pipeline.PipelineConfig` fields that can change
a subgroup outcome given its envelope; :data:`CONE_NEUTRAL_FIELDS` lists
every other field.  The two tuples must partition the config dataclass —
``tests/store/test_cone_tier.py`` fails when a new field is added
without classifying it.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from .. import metrics as _metrics
from ..netlist.netlist import Netlist
from .hashkey import CONE_DIGEST_VERSION

__all__ = [
    "CONE_FINGERPRINT_FIELDS",
    "CONE_NEUTRAL_FIELDS",
    "CanonicalCone",
    "ConeCacheChain",
    "ConeCacheTier",
    "ProcessConeCache",
    "canonicalize_subgroup",
    "cone_fingerprint",
    "process_cone_cache",
    "valid_cone_entry",
]

#: PipelineConfig fields that can change a subgroup's search outcome
#: *given its canonical envelope* (subcircuit + bits + candidates).
#: ``depth`` shapes the subcircuit and the re-hash; ``max_simultaneous``
#: bounds the assignment enumeration; ``allow_partial`` gates the search
#: entirely; ``max_control_signals`` truncates the candidate list (it is
#: applied before the envelope is built, but a truncated list under one
#: cap must not alias an untruncated one under another, so it stays in
#: the fingerprint); ``accept_partial_heals`` changes the win condition.
#: ``backend`` joins conservatively: only the staged backends reach the
#: cone tier today (``regfeat`` performs no reduction search), and
#: ``base``/``ours`` are already split by ``allow_partial``, but a future
#: backend sharing the search must not silently alias entries computed
#: under different win conditions.
CONE_FINGERPRINT_FIELDS = (
    "depth",
    "max_simultaneous",
    "allow_partial",
    "max_control_signals",
    "accept_partial_heals",
    "backend",
)

#: PipelineConfig fields proven not to change a subgroup outcome, so two
#: runs differing only here share cone entries: ``grouping`` picks which
#: subgroups exist, not what one searches to; ``jobs`` only schedules;
#: ``strict`` raises instead of quarantining; ``deadline_s`` /
#: ``max_assignments`` only produce degraded outcomes, which are never
#: cached; ``max_cone_gates`` is checked before any probe or commit;
#: ``preflight`` is diagnostics-only; a run with a ``fault_hook``
#: disables cone caching entirely.
CONE_NEUTRAL_FIELDS = (
    "grouping",
    "jobs",
    "deadline_s",
    "max_assignments",
    "max_cone_gates",
    "strict",
    "preflight",
    "fault_hook",
)


def cone_fingerprint(config) -> str:
    """Canonical JSON of the cone-affecting configuration fields."""
    fields: Dict[str, object] = {
        name: getattr(config, name) for name in CONE_FINGERPRINT_FIELDS
    }
    return json.dumps(fields, sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# canonical envelopes
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CanonicalCone:
    """One subgroup's canonical envelope: digest plus the net↔id maps.

    ``digest`` lives in the ``cone:`` digest space (disjoint from the
    store's ``netlist:`` / ``file:`` spaces by prefix).  ``id_of`` maps
    this design's net names to canonical ids; ``net_of`` is the inverse,
    used to translate a cached winning assignment back into local nets.
    """

    digest: str
    id_of: Dict[str, str] = field(compare=False, repr=False)
    net_of: Dict[str, str] = field(compare=False, repr=False)


def canonicalize_subgroup(
    subcircuit: Netlist,
    bits: Sequence[str],
    candidates: Sequence,
) -> Optional[CanonicalCone]:
    """The canonical envelope of one reduction-search input, or ``None``.

    Canonical ids are assigned by a deterministic first-visit DFS from
    the bits in bit order, following driver inputs in input order — a
    pure function of structure, independent of net names and file order.
    Every gate of an extracted subcircuit is fanin-reachable from a bit,
    so the traversal covers the whole netlist the search observes
    (including its ``primary_outputs``, which are exactly ``bits``).

    Returns ``None`` when a candidate net falls outside the traversal —
    a defensive impossibility for real extractions; such a subgroup is
    simply not cached rather than risking an unsound digest.
    """
    id_of: Dict[str, str] = {}
    order: List[str] = []
    for bit in bits:
        stack = [bit]
        while stack:
            net = stack.pop()
            if net in id_of:
                continue
            id_of[net] = f"n{len(id_of)}"
            order.append(net)
            driver = subcircuit.driver(net)
            if driver is not None and not driver.is_ff:
                stack.extend(reversed(driver.inputs))
    nets: List[List[object]] = []
    for net in order:
        driver = subcircuit.driver(net)
        if driver is None or driver.is_ff:
            nets.append([id_of[net], None, []])
        else:
            nets.append([
                id_of[net],
                driver.cell.name,
                [id_of[child] for child in driver.inputs],
            ])
    try:
        canonical_candidates = [
            [id_of[c.net], list(c.values)] for c in candidates
        ]
    except KeyError:
        return None
    material = {
        "v": CONE_DIGEST_VERSION,
        "bits": [id_of[bit] for bit in bits],
        "nets": nets,
        "candidates": canonical_candidates,
    }
    text = json.dumps(material, sort_keys=True, separators=(",", ":"))
    digest = "cone:" + hashlib.sha256(text.encode("utf-8")).hexdigest()
    return CanonicalCone(
        digest=digest,
        id_of=id_of,
        net_of={cid: net for net, cid in id_of.items()},
    )


def valid_cone_entry(entry, num_bits: int) -> bool:
    """Shape-check a (possibly store-loaded) entry against its subgroup.

    ``runs`` must be positive run lengths covering exactly ``num_bits``
    bits; ``assignment`` maps canonical ids to 0/1 (or is absent);
    ``tried`` / ``infeasible`` are non-negative counters.  Anything else
    is treated as a miss — a corrupt cache may cost time, never
    correctness.
    """
    if not isinstance(entry, dict):
        return False
    runs = entry.get("runs")
    if not isinstance(runs, list) or not all(
        isinstance(r, int) and r > 0 for r in runs
    ):
        return False
    if sum(runs) != num_bits:
        return False
    assignment = entry.get("assignment")
    if assignment is not None:
        if not isinstance(assignment, dict) or not all(
            isinstance(k, str) and v in (0, 1)
            for k, v in assignment.items()
        ):
            return False
    tried = entry.get("tried")
    infeasible = entry.get("infeasible")
    if not isinstance(tried, int) or tried < 0:
        return False
    if not isinstance(infeasible, int) or infeasible < 0:
        return False
    return True


# ----------------------------------------------------------------------
# tiers
# ----------------------------------------------------------------------

class ConeCacheTier:
    """Protocol for one pluggable cone-cache tier.

    A tier is keyed by ``(fingerprint, digest)``; both probe and commit
    are *batched* so one reduction stage pays one round trip per tier,
    not one per subgroup.  Implementations must be safe under concurrent
    calls from parallel engines (the built-ins are).
    """

    name: str = "tier"

    def probe_many(
        self, digests: Sequence[str], fingerprint: str
    ) -> Dict[str, Dict]:
        """Entries found for ``digests``, keyed by digest."""
        raise NotImplementedError

    def commit_many(
        self, entries: Mapping[str, Dict], fingerprint: str
    ) -> None:
        """Persist ``{digest: entry}`` mappings."""
        raise NotImplementedError


class ProcessConeCache(ConeCacheTier):
    """Tier 2: a process-wide, thread-safe, bounded LRU of cone entries.

    Shared by every engine in the process through
    :func:`process_cone_cache`; private instances serve tests and the
    fuzz oracle.  Entries are small dicts, so the default cap of 8192
    bounds the table to a few megabytes.
    """

    name = "process"

    def __init__(self, max_entries: int = 8192):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: "OrderedDict" = OrderedDict()

    def probe_many(
        self, digests: Sequence[str], fingerprint: str
    ) -> Dict[str, Dict]:
        hits: Dict[str, Dict] = {}
        with self._lock:
            for digest in digests:
                key = (fingerprint, digest)
                entry = self._entries.get(key)
                if entry is not None:
                    self._entries.move_to_end(key)
                    hits[digest] = entry
        return hits

    def commit_many(
        self, entries: Mapping[str, Dict], fingerprint: str
    ) -> None:
        with self._lock:
            for digest, entry in entries.items():
                key = (fingerprint, digest)
                self._entries[key] = entry
                self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


_PROCESS_CACHE = ProcessConeCache()


def process_cone_cache() -> ProcessConeCache:
    """The process-wide shared tier-2 table."""
    return _PROCESS_CACHE


# ----------------------------------------------------------------------
# the chain
# ----------------------------------------------------------------------

class ConeCacheChain:
    """Per-run composition of tiers, with per-tier hit accounting.

    Probes walk the tiers in order and *promote* hits into every earlier
    tier (a store hit lands in the process table, so the next run in
    this process skips the disk).  Commits write through every tier.
    The chain object is per-run — it carries that run's counters — while
    the tiers themselves are long-lived and shared.
    """

    def __init__(self, fingerprint: str, tiers: Sequence[ConeCacheTier]):
        self.fingerprint = fingerprint
        self.tiers = list(tiers)
        self.hits: Dict[str, int] = {tier.name: 0 for tier in self.tiers}
        self.misses = 0
        self.commits = 0

    def probe_many(self, digests: Sequence[str]) -> Dict[str, Dict]:
        requested = list(digests)
        missing = list(dict.fromkeys(requested))
        found: Dict[str, Dict] = {}
        tier_of: Dict[str, str] = {}
        for index, tier in enumerate(self.tiers):
            if not missing:
                break
            hits = tier.probe_many(missing, self.fingerprint)
            if hits:
                for digest in hits:
                    tier_of[digest] = tier.name
                for earlier in self.tiers[:index]:
                    earlier.commit_many(hits, self.fingerprint)
                found.update(hits)
                missing = [d for d in missing if d not in found]
        # Hit/miss accounting is per *request*, not per unique digest: a
        # design instantiating one cone four times records four answered
        # searches, which is what "hit rate" means to a caller.
        for digest in requested:
            if digest in found:
                name = tier_of[digest]
                self.hits[name] = self.hits.get(name, 0) + 1
            else:
                self.misses += 1
        return found

    def commit_many(self, entries: Mapping[str, Dict]) -> None:
        if not entries:
            return
        for tier in self.tiers:
            tier.commit_many(entries, self.fingerprint)
        self.commits += len(entries)

    def add_to(self, stats) -> None:
        """Fold this run's tier traffic into a
        :class:`~repro.core.words.CacheStats` (the ``process`` tier maps
        to ``cone_tier_process_hits``, every later tier to
        ``cone_tier_store_hits``)."""
        for name, count in self.hits.items():
            if name == "process":
                stats.cone_tier_process_hits += count
            else:
                stats.cone_tier_store_hits += count
        stats.cone_tier_misses += self.misses
        stats.cone_tier_commits += self.commits

    def publish_metrics(self) -> None:
        """Count this run's tier traffic in the installed registry."""
        registry = _metrics.current()
        if registry is None:
            return
        hits = registry.counter(
            "repro_cone_tier_hits_total",
            "Cone-cache hits, by tier",
            labelnames=("tier",),
        )
        for name, count in self.hits.items():
            if count:
                hits.inc(count, tier=name)
        if self.misses:
            registry.counter(
                "repro_cone_tier_misses_total",
                "Subgroup searches not found in any cone-cache tier",
            ).inc(self.misses)
        if self.commits:
            registry.counter(
                "repro_cone_tier_commits_total",
                "Fresh subgroup outcomes committed to the cone cache",
            ).inc(self.commits)
