"""The stable public facade: one front door for every caller.

Everything a downstream user needs lives behind two names::

    from repro.api import Session

    session = Session(store=".repro-cache")      # or store=None: no cache
    report = session.analyze("design.v")         # path, or a Netlist
    print(report.words, report.cache)            # ("hit" on a warm rerun)

:class:`Session` owns an optional
:class:`~repro.store.ArtifactStore` handle plus a
:class:`~repro.core.pipeline.PipelineConfig`, and every analysis returns a
frozen :class:`AnalysisReport` — a versioned, serializable bundle of
words, trace, diagnostics, and cache provenance.  The facade is the
compatibility contract: the modules underneath
(:mod:`repro.core`, :mod:`repro.store`, :mod:`repro.batch`) may be
refactored freely, but a name leaves ``Session`` / ``AnalysisReport``
only in a major version, and their JSON forms only change with a
``schema_version`` bump.

``Session`` is also the only code that reads or writes identification
results in the store (DESIGN.md §10).  Each request has one key: the
``file:`` digest of the raw bytes for a path or source text, the
canonical ``netlist:`` digest for a netlist built in memory.  The text a
key digests is the body a cold request stores beside its result.
"""

from __future__ import annotations

import errno
import functools
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple, Union

from . import metrics as _metrics
from .core.pipeline import PipelineConfig, _gc_paused, identify_words
from .core.words import IdentificationResult
from .netlist.bench import parse_bench
from .netlist.netlist import Netlist
from .netlist.verilog import parse_verilog, write_verilog
from .schema import stamp
from .store import (  # noqa: F401
    ArtifactStore,
    bytes_digest,
    cache_key,
    netlist_digest,  # unused here, but perfbench/tracer.py patches it
    netlist_summary,
    result_digest,
)
from .store.keys import canonical_digest
from .triage import TriageConfig, TriageResult, triage_netlist

__all__ = [
    "AnalysisReport",
    "Session",
    "TriageReport",
]

PathLike = Union[str, "os.PathLike[str]"]


@dataclass(frozen=True)
class AnalysisReport:
    """Everything one analysis produced, as an immutable record.

    ``cache`` is the provenance of the result: ``"hit"`` (loaded from the
    artifact store), ``"miss"`` (computed and committed), or ``"off"``
    (no store configured).  ``digest`` is the content digest the store
    key was (or would have been) derived from.  ``result`` keeps the full
    :class:`~repro.core.words.IdentificationResult` for callers that need
    the rich objects; it is excluded from equality so reports compare on
    their deterministic content.
    """

    design: str
    source: Optional[str]
    digest: str
    cache: str
    key: Optional[str]
    num_gates: int
    num_nets: int
    num_ffs: int
    words: Tuple[Tuple[str, ...], ...]
    singletons: Tuple[str, ...]
    control_signals: Tuple[str, ...]
    diagnostics: Tuple[Dict, ...]
    trace: Dict
    runtime_seconds: float
    result: IdentificationResult = field(compare=False, repr=False)

    @property
    def result_digest(self) -> str:
        """Digest of the deterministic result content (see repro.store)."""
        return result_digest(self.result)

    def as_dict(self) -> Dict:
        """Versioned JSON-ready form (``schema_version`` stamped)."""
        return stamp({
            "design": self.design,
            "source": self.source,
            "digest": self.digest,
            "cache": self.cache,
            "key": self.key,
            "backend": self.trace.get("backend", "ours"),
            "netlist": {
                "name": self.design,
                "gates": self.num_gates,
                "nets": self.num_nets,
                "flip_flops": self.num_ffs,
            },
            "words": [list(bits) for bits in self.words],
            "singletons": list(self.singletons),
            "control_signals": list(self.control_signals),
            "control_assignments": [
                {"word": list(word.bits), "assignment": assignment.as_dict()}
                for word, assignment in
                self.result.control_assignments.items()
            ],
            "diagnostics": [dict(d) for d in self.diagnostics],
            "result_digest": self.result_digest,
            "runtime_seconds": self.runtime_seconds,
            "trace": dict(self.trace),
        })


@dataclass(frozen=True)
class TriageReport:
    """One Trojan-triage run: the identification plus the gate ranking.

    ``analysis`` is the identification the scores were computed against;
    ``triage`` the ranking itself.  ``cache`` is the provenance of the
    *triage* entry (``"hit"``/``"miss"``/``"off"``) — deliberately kept
    out of :meth:`as_dict`, which contains only deterministic content so
    a served response is byte-identical to a CLI run on the same inputs,
    warm or cold, thread pool or process pool.
    """

    design: str
    source: Optional[str]
    digest: str
    result_digest: str
    cache: str
    key: Optional[str]
    analysis: AnalysisReport = field(compare=False, repr=False)
    triage: TriageResult = field(compare=False, repr=False)

    @property
    def backend(self) -> str:
        return self.triage.backend

    @property
    def triage_digest(self) -> str:
        return self.triage.digest()

    def as_dict(self, top: Optional[int] = None) -> Dict:
        """Versioned, fully deterministic JSON form.

        ``top`` truncates the emitted ranking (the summary counters and
        ``triage_digest`` still describe the full one).
        """
        body = self.triage.as_dict(top)
        return stamp({
            "design": self.design,
            "digest": self.digest,
            "result_digest": self.result_digest,
            "backend": body["backend"],
            "config": body["config"],
            "num_gates": body["num_gates"],
            "num_flagged": body["num_flagged"],
            "degraded": self.analysis.trace.get("degraded", False),
            "triage_digest": body["triage_digest"],
            "gates": body["gates"],
        })


class Session:
    """A configured analysis context: config + (optional) artifact store.

    ``config``
        The :class:`PipelineConfig` every analysis uses (default: paper
        settings).  ``config.backend`` selects the identification
        strategy (:mod:`repro.core.backends`): ``Session(
        PipelineConfig(backend="base"))`` runs the shape-hashing
        baseline.
    ``store``
        ``None`` (no caching), a directory path (an
        :class:`~repro.store.ArtifactStore` is opened there), or an
        existing store instance.  One store may back many sessions and
        many processes at once.
    ``max_store_bytes``
        LRU cap forwarded when ``store`` is a path.

    Sessions are cheap; hold one per configuration.  ``analyze``
    accepts either a filesystem path (cheapest: a warm store hit skips
    parsing entirely, keyed on the raw file bytes) or an in-memory
    :class:`Netlist` (keyed on its canonical structural form — unless
    :meth:`load_netlist` read it, in which case it keeps its file's key).
    """

    def __init__(
        self,
        config: Optional[PipelineConfig] = None,
        store: Union[None, PathLike, ArtifactStore] = None,
        max_store_bytes: Optional[int] = None,
    ):
        self.config = config or PipelineConfig()
        if store is None or isinstance(store, ArtifactStore):
            self.store = store
        else:
            self.store = ArtifactStore(
                os.fspath(store), max_bytes=max_store_bytes
            )

    # ------------------------------------------------------------------
    # single-design analysis
    # ------------------------------------------------------------------
    def analyze(
        self,
        source: Union[PathLike, Netlist],
        format: Optional[str] = None,
    ) -> AnalysisReport:
        """Identify words in one design; cached when a store is attached."""
        if isinstance(source, Netlist):
            digest, text = self._key(source)
            return self._analyze(digest, lambda: source, text)
        path = os.fspath(source)
        digest, text, format = _read(path, format)
        return self._analyze(
            digest, lambda: _parse(text, format, digest), text, format,
            source=path, name=path,
        )

    def analyze_text(
        self,
        text: str,
        format: str = "verilog",
        name: Optional[str] = None,
    ) -> AnalysisReport:
        """Identify words in netlist *source text* (no file needed).

        The store key is the digest of the raw UTF-8 bytes — identical to
        :func:`~repro.store.file_digest` of a file with the same content,
        so a served request warms (and is warmed by) CLI runs over the
        same design file.  ``name`` labels the report when the text hits
        the cache before being parsed.
        """
        digest = bytes_digest(text.encode("utf-8"))
        return self._analyze(
            digest, lambda: _parse(text, format, digest), text, format,
            name=name,
        )

    def _analyze(
        self,
        digest: str,
        parse: Callable[[], Netlist],
        text: Optional[str],
        format: str = "verilog",
        source: Optional[str] = None,
        name: Optional[str] = None,
        stored: bool = False,
    ) -> AnalysisReport:
        """The one analysis path: a store hit under ``digest``, or else
        ``parse()`` the design, run the backend, and commit the result
        and the body under ``digest``.

        The body is ``text`` in ``format``, the text ``digest`` was taken
        from.  ``None`` means that text is not in hand (a netlist
        :meth:`load_netlist` parsed): the parsed netlist is then stored
        as canonical Verilog.  ``stored`` means ``parse()`` reads the
        body back from the store (:meth:`triage_digest`), so it is not
        committed again.  The body makes ``digest`` answerable by
        :meth:`triage_digest`.  ``name`` labels a hit report when the
        envelope carries no design name.
        """
        cached = self._probe(digest, source, name)
        if cached is not None:
            return cached
        store = self.store
        with _gc_paused():
            netlist = parse()
            summary = netlist_summary(netlist)
            result = identify_words(netlist, self.config)
            cache, key = "off", None
            if store is not None:
                cache = "miss"
                key = store.commit_result(
                    digest, self.config, result, summary
                )
                if not stored:
                    if text is None:
                        text, format = write_verilog(netlist), "verilog"
                    store.commit_netlist(digest, text, format)
            # Freed while the collector is still off, so its next pass
            # does not walk a netlist that is about to die anyway.
            del netlist
        return _report(digest, source, cache, key, summary, result)

    def _key(self, netlist: Netlist) -> Tuple[str, Optional[str]]:
        """The key of an in-memory netlist, and the text it digests.

        The digest of the bytes this session parsed it from while it is
        unchanged (see :meth:`load_netlist`), whose text was not kept
        (``None``); otherwise the canonical ``netlist:`` digest
        (:func:`~repro.store.netlist_digest`) and the
        :func:`~repro.netlist.verilog.write_verilog` text it hashed, from
        one serialization.
        """
        read = netlist._source_digest
        if read is not None and read[:2] == (netlist.revision, netlist.name):
            return read[2], None
        text = write_verilog(netlist)
        return canonical_digest(text), text

    def _probe(
        self,
        digest: str,
        source: Optional[str],
        name: Optional[str],
    ) -> Optional[AnalysisReport]:
        """Build a hit report straight from the store, or ``None``."""
        if self.store is None:
            return None
        hit = self.store.probe_result(digest, self.config)
        if hit is None:
            return None
        cached, recorded = hit
        if name is not None:
            fallback = _design_name(name)
        else:
            fallback = digest.split(":", 1)[-1][:12]
        summary = {
            "name": fallback, "gates": 0, "nets": 0, "flip_flops": 0,
            **recorded,
        }
        return _report(
            digest, source, "hit", cached.trace.cache_provenance["key"],
            summary, cached,
        )

    def analyze_digest(self, digest: str) -> Optional[AnalysisReport]:
        """The cached report for an already-known content digest, if any.

        Returns ``None`` on a store miss (there is nothing to compute
        from) or when the session has no store.  This is the serve fast
        path: a client that knows its design's digest skips shipping the
        netlist body entirely.
        """
        return self._probe(digest, None, None)

    # ------------------------------------------------------------------
    # Trojan-region triage
    # ------------------------------------------------------------------
    def triage(
        self,
        source: Union[PathLike, Netlist],
        format: Optional[str] = None,
        triage_config: Optional[TriageConfig] = None,
    ) -> TriageReport:
        """Identify words, then rank every gate by anomaly against the
        recovered structure (:mod:`repro.triage`, DESIGN.md §16).

        Identification goes through the ordinary :meth:`analyze` cache;
        the ranking itself is additionally cached under the *result*
        digest, so re-triaging a design whose identification did not
        change is O(read one JSON file) even across backends and pools.
        A path is keyed by its bytes, as in :meth:`analyze`, and parsed
        only when one of the two entries misses.
        """
        if isinstance(source, Netlist):
            digest, text = self._key(source)
            return self._triage(
                digest, lambda: source, text, "verilog", triage_config
            )
        path = os.fspath(source)
        digest, text, format = _read(path, format)
        return self._triage(
            digest, lambda: _parse(text, format, digest), text, format,
            triage_config, path, path,
        )

    def triage_text(
        self,
        text: str,
        format: str = "verilog",
        name: Optional[str] = None,
        triage_config: Optional[TriageConfig] = None,
    ) -> TriageReport:
        """:meth:`triage` over netlist source text (the serve path).

        Shares digests with :meth:`triage` on a file of the same bytes,
        so served triage requests warm — and are warmed by — CLI runs.
        ``name`` labels the report as in :meth:`analyze_text`.
        """
        digest = bytes_digest(text.encode("utf-8"))
        return self._triage(
            digest, lambda: _parse(text, format, digest), text, format,
            triage_config, name=name,
        )

    def triage_digest(
        self,
        digest: str,
        triage_config: Optional[TriageConfig] = None,
    ) -> Optional[TriageReport]:
        """:meth:`triage` for an already-stored content digest, if any.

        The serve fast path: a client that knows its design's digest
        skips shipping the netlist body.  A warm request reads the
        identification and the ranking and nothing else.  When either
        misses, triage needs the parsed *body* (it reads structure the
        cached result alone does not pin), so the answer is ``None``
        unless the store holds the netlist itself — which every
        store-backed analysis commits.
        """
        store = self.store
        if store is None:
            return None

        def body() -> Netlist:
            netlist = store.probe_netlist(digest)
            if netlist is None:
                raise _NoBody(digest)
            return netlist

        try:
            return self._triage(
                digest, body, None, "verilog", triage_config, stored=True
            )
        except _NoBody:
            return None

    def _triage(
        self,
        digest: str,
        parse: Callable[[], Netlist],
        text: Optional[str],
        format: str,
        triage_config: Optional[TriageConfig],
        source: Optional[str] = None,
        name: Optional[str] = None,
        stored: bool = False,
    ) -> TriageReport:
        """The one triage path, shaped like :meth:`_analyze`: the
        identification and then the ranking are read from the store
        under ``digest``, and ``parse()`` runs at most once, only when
        one of them misses.  ``text``, ``format`` and ``stored`` describe
        the body, as in :meth:`_analyze`."""
        triage_config = triage_config or TriageConfig()
        netlist = functools.cache(parse)
        # The identification goes through the one analysis path under
        # the request's own digest, so triage rows digest-match their
        # plain-analysis counterparts.
        analysis = self._analyze(
            digest, netlist, text, format, source, name, stored
        )
        rd = analysis.result_digest
        key = None
        cache = "off"
        triage = None
        if self.store is not None:
            # Keyed by the identification's result digest (plus the
            # netlist digest — triage reads structure the result alone
            # does not pin) and the triage config fingerprint.
            key = cache_key(
                f"{digest}\x00{rd}", _triage_fingerprint(triage_config),
                kind="triage",
            )
            envelope = self.store.get(key)
            if envelope is not None:
                try:
                    triage = TriageResult.from_dict(envelope["triage"])
                    cache = "hit"
                except (KeyError, TypeError, ValueError):
                    triage = None
        if triage is None:
            with _gc_paused():
                triage = triage_netlist(
                    netlist(), analysis.result, triage_config
                )
            if self.store is not None:
                if analysis.result.trace.degraded:
                    # A degraded identification is an environment
                    # artifact, not a property of the design — like
                    # degraded results, its triage is never persisted.
                    cache = "off"
                    key = None
                else:
                    self.store.put(key, "triage", {
                        "digest": digest,
                        "result_digest": rd,
                        "config": _triage_fingerprint(triage_config),
                        "triage": triage.as_dict(),
                    })
                    cache = "miss"
        registry = _metrics.current()
        if registry is not None:
            registry.counter(
                "repro_triage_runs_total",
                "Completed triage rankings, by triage cache outcome",
                labelnames=("cache",),
            ).inc(cache=cache)
        # On a hit the design name comes from the result envelope, which
        # recorded the parsed netlist's name.
        return TriageReport(
            design=analysis.design,
            source=source,
            digest=digest,
            result_digest=rd,
            cache=cache,
            key=key,
            analysis=analysis,
            triage=triage,
        )

    # ------------------------------------------------------------------
    # supporting queries
    # ------------------------------------------------------------------
    def load_netlist(
        self, path: PathLike, format: Optional[str] = None
    ) -> Netlist:
        """Read and parse a netlist file.

        The netlist keeps the ``file:`` digest of the bytes it was parsed
        from while it is unchanged, so analyzing or triaging it keys by
        those bytes: ``repro identify --store`` and a served request for
        the same file share one store entry, and the file is parsed once.
        """
        digest, text, format = _read(os.fspath(path), format)
        return _parse(text, format, digest)


class _NoBody(Exception):
    """Internal: :meth:`Session.triage_digest` found no stored body."""


def _report(
    digest: str,
    source: Optional[str],
    cache: str,
    key: Optional[str],
    summary: Dict,
    result: IdentificationResult,
) -> AnalysisReport:
    """An :class:`AnalysisReport` from a result and the
    :func:`~repro.store.netlist_summary` of its design."""
    return AnalysisReport(
        design=summary["name"],
        source=source,
        digest=digest,
        cache=cache,
        key=key,
        num_gates=summary["gates"],
        num_nets=summary["nets"],
        num_ffs=summary["flip_flops"],
        words=tuple(w.bits for w in result.words),
        singletons=tuple(result.singletons),
        control_signals=result.control_signals,
        diagnostics=tuple(result.trace.preflight),
        trace=result.trace.as_dict(),
        runtime_seconds=result.runtime_seconds,
        result=result,
    )


def _read(path: str, format: Optional[str]) -> Tuple[str, str, str]:
    """A netlist file's ``file:`` digest, the text of the bytes the
    digest was taken from, and its format (one read)."""
    with open(path, "rb") as handle:
        data = handle.read()
    return bytes_digest(data), _decode(path, data), _format(path, format)


def _decode(path: str, data: bytes) -> str:
    """A netlist file's text.  Bytes that are not UTF-8 make the file
    unreadable: an :class:`OSError`, reported like a missing file."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise OSError(
            errno.EILSEQ,
            f"not UTF-8 text (byte {exc.start}: {exc.reason})",
            path,
        ) from None


def _format(path: str, format: Optional[str]) -> str:
    if format is None:
        return "bench" if path.endswith(".bench") else "verilog"
    return format


def _parse(text: str, format: Optional[str], digest: str) -> Netlist:
    """Parse netlist source text; the netlist keeps ``digest``, the
    digest of the bytes, as its key (see :meth:`Session._key`)."""
    netlist = parse_bench(text) if format == "bench" else parse_verilog(text)
    netlist._source_digest = (netlist.revision, netlist.name, digest)
    return netlist


def _triage_fingerprint(config: TriageConfig) -> str:
    """Canonical fingerprint of the triage-affecting configuration."""
    import json

    return json.dumps(
        config.as_dict(), sort_keys=True, separators=(",", ":")
    )


def _design_name(path: str) -> str:
    name = os.path.basename(path)
    for suffix in (".v", ".bench"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name

