"""Per-layer spans, recorded by wrapping each layer's public functions.

:func:`installed` rebinds the functions where their callers look them up
(``repro.api.parse_verilog``, ``repro.store.disk.write_verilog``, the
``ArtifactStore`` probe/commit methods, ...) to timing wrappers and puts
the originals back on exit, so the program's own files stay untouched.

A span's *self* time is its duration minus the time covered by the spans
it encloses: ``netlist_digest`` calls ``write_verilog``, so its self time
is the hashing alone.  Spans nest per thread, so the serve thread pool can
be traced too.
"""

from __future__ import annotations

import functools
import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, Optional, Tuple

#: name -> (calls, seconds, self seconds, size)
Spans = Dict[str, Tuple[int, float, float, int]]

#: The Figure-2 stages, named as ``StageTrace.stage_seconds`` names them,
#: and the per-layer metric each one reports as.
STAGES = {
    "grouping": "stages.grouping_s",
    "signatures": "stages.signature_s",
    "matching": "stages.matching_s",
    "control": "stages.control_s",
    "reduction": "stages.reduction_s",
    "emission": "stages.emission_s",
}


class Tracer:
    """Aggregates spans by name; ``sink`` also sees every finished span."""

    def __init__(
        self, sink: Optional[Callable[[str, float, float, int], None]] = None
    ):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._totals: Dict[str, list] = {}
        self.sink = sink

    def reset(self) -> None:
        with self._lock:
            self._totals = {}

    def snapshot(self) -> Spans:
        with self._lock:
            return {name: tuple(entry) for name, entry in self._totals.items()}

    def record(
        self, name: str, seconds: float = 0.0, self_seconds: float = 0.0,
        size: int = 0,
    ) -> None:
        with self._lock:
            entry = self._totals.setdefault(name, [0, 0.0, 0.0, 0])
            entry[0] += 1
            entry[1] += seconds
            entry[2] += self_seconds
            entry[3] += size
        if self.sink is not None:
            self.sink(name, seconds, self_seconds, size)

    @contextmanager
    def span(self, name: str, size: int = 0) -> Iterator[None]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        children = [0.0]
        stack.append(children)
        started = perf_counter()
        try:
            yield
        finally:
            seconds = perf_counter() - started
            stack.pop()
            if stack:
                stack[-1][0] += seconds
            self.record(name, seconds, max(0.0, seconds - children[0]), size)

    def wrap(self, fn: Callable, name: str, size_of=None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, size_of(args) if size_of else 0):
                return fn(*args, **kwargs)

        return traced


def _text_size(args) -> int:
    return len(args[0])


def layer_bindings():
    """``(owner, attribute, span name, size_of)`` for every traced layer."""
    import repro.api as api
    import repro.netlist.verilog as verilog
    import repro.store.disk as disk
    import repro.store.keys as keys

    store = disk.ArtifactStore
    return [
        (api, "parse_verilog", "verilog.parse", _text_size),
        # ArtifactStore.probe_netlist imports parse_verilog at call time.
        (verilog, "parse_verilog", "verilog.parse", _text_size),
        (api, "bytes_digest", "keys.bytes_digest", None),
        (api, "netlist_digest", "keys.netlist_digest", None),
        (disk, "netlist_digest", "keys.netlist_digest", None),
        (keys, "write_verilog", "verilog.write", None),
        (disk, "write_verilog", "verilog.write", None),
        (api, "identify_words", "engine.identify", None),
        (api, "triage_netlist", "triage.score", None),
        (store, "probe_result", "disk.probe_result", None),
        (store, "probe_netlist", "disk.probe_netlist", None),
        (store, "commit_result", "disk.commit_result", None),
        (store, "commit_netlist", "disk.commit_netlist", None),
    ]


@contextmanager
def installed(tracer: Tracer, extra=()) -> Iterator[Tracer]:
    """Wrap every binding of :func:`layer_bindings` (plus ``extra``)."""
    from repro.store.disk import ArtifactStore

    patches = []

    def patch(owner, attr, wrap):
        original = (
            owner.__dict__[attr] if isinstance(owner, type)
            else getattr(owner, attr)
        )
        patches.append((owner, attr, original))
        setattr(owner, attr, wrap(original))

    try:
        for owner, attr, name, size_of in [*layer_bindings(), *extra]:
            patch(owner, attr, functools.partial(
                tracer.wrap, name=name, size_of=size_of
            ))

        def count_written(fn):
            @functools.wraps(fn)
            def noted(self, nbytes):
                tracer.record("disk.written", size=nbytes)
                return fn(self, nbytes)

            return noted

        # Every store entry written passes through here with its size.
        patch(ArtifactStore, "_note_written", count_written)
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def span_metrics(spans: Spans, requests: int) -> Dict[str, float]:
    """Per-request layer metrics from aggregated spans."""
    empty = (0, 0.0, 0.0, 0)

    def calls(name: str) -> float:
        return spans.get(name, empty)[0] / requests

    def total(name: str) -> float:
        return spans.get(name, empty)[1] / requests

    def self_s(*names: str) -> float:
        return sum(spans.get(name, empty)[2] for name in names) / requests

    parse = spans.get("verilog.parse", empty)
    return {
        "verilog.parse_s": total("verilog.parse"),
        "verilog.parse_mb_per_s": (
            parse[3] / 1e6 / parse[1] if parse[1] > 0 else 0.0
        ),
        "verilog.write_calls": calls("verilog.write"),
        "verilog.write_s": self_s("verilog.write"),
        "keys.netlist_digest_calls": calls("keys.netlist_digest"),
        "keys.netlist_digest_s": self_s("keys.netlist_digest"),
        "keys.bytes_digest_s": self_s("keys.bytes_digest"),
        "disk.probe_s": self_s("disk.probe_result", "disk.probe_netlist"),
        "disk.commit_s": self_s("disk.commit_result", "disk.commit_netlist"),
        "disk.probe_result_calls": calls("disk.probe_result"),
        "disk.commit_result_calls": calls("disk.commit_result"),
        "disk.entries_written": calls("disk.written"),
        "disk.bytes_written": spans.get("disk.written", empty)[3] / requests,
        "engine.identify_s": total("engine.identify"),
        "engine.self_s": self_s("engine.identify"),
        "triage.score_s": total("triage.score"),
        "api.self_s": self_s("api"),
        "api.serialize_s": total("api.serialize"),
    }
