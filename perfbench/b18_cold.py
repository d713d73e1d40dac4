"""The ``b18_cold`` workload: b18 through one long-lived ``Session``, cold.

One request is b18's netlist text (7.1 MB) handed to
``Session.analyze_text`` until the JSON-encoded report is in hand.  A
closed loop with a single caller sends it through one ``Session``, each
request against a fresh store, so every request parses, digests, runs the
six stages and commits.  A discarded warm-up request goes first.  From
then on the process cone tier answers all 14 of b18's cones: that is
long-lived-process behaviour, and it is measured as such.

With tracing on, even-numbered requests are traced and odd ones are not.
The per-layer metrics are means over the first ``TRACED_REQUESTS`` traced
requests, a fixed count so counts repeat exactly between runs, and the
tracing overhead is the traced minus the untraced median latency.
"""

from __future__ import annotations

import json
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Dict, List

from inputs import SRC, Inputs, pin, scratch_dir, words_full
from tracer import STAGES, Tracer, installed, span_metrics

#: Fresh interpreters started to time set-up; the median is reported.
SETUP_LAUNCHES = 5
TRACED_REQUESTS = 2

_SETUP_CHILD = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from repro.api import Session; Session(store=sys.argv[2]); "
    "print('ready', flush=True)"
)


def setup_seconds(scratch: Path) -> float:
    """Median time from launching an interpreter to an open ``Session``."""
    samples = []
    for launch in range(SETUP_LAUNCHES):
        store = scratch / f"setup-{launch}"
        started = perf_counter()
        child = subprocess.Popen(
            [sys.executable, "-c", _SETUP_CHILD, str(SRC), str(store)],
            stdout=subprocess.PIPE, text=True,
        )
        try:
            line = child.stdout.readline().strip()
            samples.append(perf_counter() - started)
        finally:
            child.stdout.close()
            child.wait(timeout=60)
        if line != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up child failed: {line!r}")
    return median(samples)


def run(workload: str, seed: int, seconds: float, trace: bool) -> Dict:
    del seed  # one fixed design: the seed has no choice to make here
    item = Inputs().design("b18")
    scratch = scratch_dir(workload)
    try:
        setup = None if trace else setup_seconds(scratch)
        records, wall = _drive(item, scratch, seconds, trace)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return _summarize(records, wall, setup, trace)


def _drive(item, scratch: Path, seconds: float, trace: bool):
    from repro.api import Session
    from repro.store import ArtifactStore

    session = Session()
    tracer = Tracer()
    opened = 0

    def one(traced: bool) -> Dict:
        nonlocal opened
        opened += 1
        store_dir = scratch / f"store-{opened}"
        session.store = store = ArtifactStore(str(store_dir))
        if traced:
            tracer.reset()
            with installed(tracer):
                started = perf_counter()
                with tracer.span("request"):
                    with tracer.span("api"):
                        report = session.analyze_text(item.text)
                    with tracer.span("api.serialize"):
                        payload = report.as_dict()
                        json.dumps(payload, sort_keys=True)
                latency = perf_counter() - started
        else:
            started = perf_counter()
            report = session.analyze_text(item.text)
            payload = report.as_dict()
            json.dumps(payload, sort_keys=True)
            latency = perf_counter() - started
        record = {
            "latency": latency,
            "ok": pin(payload["result_digest"]) == item.result_digest,
            "full": words_full(item.truth, payload["words"]),
            "truth": len(item.truth),
            "kernel": payload["trace"]["kernel"],
            "backend": payload["backend"],
        }
        if traced:
            record.update(
                spans=tracer.snapshot(),
                stages=payload["trace"]["stage_seconds"],
                cache=payload["trace"]["cache"],
                store=(store.stats.hits, store.stats.misses),
            )
        shutil.rmtree(store_dir, ignore_errors=True)
        return record

    one(traced=False)  # warm-up, discarded
    records: List[Dict] = []
    traced_done = 0
    started = perf_counter()
    deadline = started + seconds
    while perf_counter() < deadline or (
        trace and traced_done < TRACED_REQUESTS
    ):
        traced = trace and len(records) % 2 == 0
        records.append(one(traced))
        traced_done += traced
    return records, perf_counter() - started


def _summarize(records, wall, setup, trace) -> Dict:
    from repro.serve.bench import percentile

    if not trace:
        return {"records": records, "metrics": {
            "setup_s": setup,
            "latency_p50_s": percentile([r["latency"] for r in records], 50),
            "latency_p90_s": percentile([r["latency"] for r in records], 90),
            "throughput_rps": len(records) / wall,
            "words_full_pct": 100.0 * sum(r["full"] for r in records)
            / sum(r["truth"] for r in records),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF
            ).ru_maxrss / 1024.0,
        }}
    traced = [r for r in records if "spans" in r][:TRACED_REQUESTS]
    untraced = [r["latency"] for r in records if "spans" not in r]
    metrics = _layer_metrics(traced)
    metrics["trace.overhead_s"] = (
        percentile([r["latency"] for r in traced], 50)
        - percentile(untraced, 50)
    )
    return {"records": records, "metrics": metrics}


def _layer_metrics(traced: List[Dict]) -> Dict[str, float]:
    requests = len(traced)
    spans: Dict[str, list] = {}
    for record in traced:
        for name, values in record["spans"].items():
            merged = spans.setdefault(name, [0, 0.0, 0.0, 0])
            for slot, value in enumerate(values):
                merged[slot] += value
    metrics = span_metrics(spans, requests)
    for stage, name in STAGES.items():
        metrics[name] = sum(r["stages"].get(stage, 0.0) for r in traced) / requests
    cache = {
        key: sum(r["cache"][key] for r in traced) for key in traced[0]["cache"]
    }

    def rate(hits: int, misses: int) -> float:
        return hits / (hits + misses) if hits + misses else 0.0

    metrics.update({
        "engine.key_hit_rate": rate(
            cache["key_hits"] + cache["key_shared_hits"], cache["key_misses"]
        ),
        "engine.cone_hit_rate": rate(cache["cone_hits"], cache["cone_misses"]),
        "conecache.process_hits": cache["cone_tier_process_hits"] / requests,
        "conecache.store_hits": cache["cone_tier_store_hits"] / requests,
        "conecache.misses": cache["cone_tier_misses"] / requests,
        "disk.hits": sum(r["store"][0] for r in traced) / requests,
        "disk.misses": sum(r["store"][1] for r in traced) / requests,
        "trace.request_s": spans["request"][1] / requests,
    })
    return metrics
