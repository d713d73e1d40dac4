"""The ``serve_mixed`` workload: HTTP against a live ``repro serve``.

The server runs as ``repro serve --workers 2 --pool thread --store <fresh
dir>``.  Before timing, b14 and the warm part of the fuzz pool are
identified and triaged once, so the store holds their results, bodies and
rankings.  The primed set is the same for every seed; the seed drives the
schedule and the order of the cold samples.  Then one client
process drives two closed-loop connections through a seeded schedule:

* ``warm``   50%  identify re-send of a primed input (a read that still
                  ships the body)
* ``digest`` 15%  digest-only identify of a primed input (no body)
* ``cold``   20%  identify of a fuzz sample the server has not seen (a
                  write)
* ``triage`` 15%  ``/v1/triage`` re-send of a primed input

Should the pool's unseen samples run out, cold slots become warm ones.

A request is timed from the POST until its decoded report is in hand.
Per-layer numbers come from ``/metrics`` read before and after the timed
window.  With tracing on, the first half of the window runs against a
plain server and the second half against ``traced_serve.py``, which adds
the benchmark's spans to ``/metrics``; the difference of the two medians
is the tracing overhead.
"""

from __future__ import annotations

import os
import random
import re
import resource
import shutil
import signal
import subprocess
import sys
import threading
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Dict, List, Tuple

from inputs import (
    POOL_SIZE, ROOT, SRC, WARM_POOL, Inputs, pin, scratch_dir, words_full,
)
from tracer import STAGES, span_metrics
from traced_serve import SPAN_FIELDS

MIX = (("warm", 0.50), ("digest", 0.15), ("cold", 0.20), ("triage", 0.15))
CONNECTIONS = 2
SETUP_LAUNCHES = 5
SERVE_ARGS = ("--port", "0", "--workers", "2", "--pool", "thread")
ENDPOINTS = ("/v1/identify", "/v1/triage")

_BANNER = re.compile(r"listening on http://[^:]+:(\d+)")
_LABEL = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')


class Server:
    """One ``repro serve`` child process, stopped with SIGTERM."""

    def __init__(self, store: Path, traced: bool):
        from repro.serve.client import ServeClient

        program = (
            [str(Path(__file__).with_name("traced_serve.py"))]
            if traced else ["-m", "repro", "serve"]
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (str(SRC), env.get("PYTHONPATH")))
        )
        started = perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, *program, *SERVE_ARGS, "--store", str(store)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env,
        )
        try:
            match = _BANNER.search(self.process.stdout.readline())
            if match is None:
                raise RuntimeError("repro serve printed no banner")
            self.client = ServeClient(port=int(match.group(1)))
            if not self.client.wait_ready(timeout=60):
                raise RuntimeError("repro serve never became ready")
        except BaseException:
            self.stop()
            raise
        self.setup_s = perf_counter() - started

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()


def scrape(text: str) -> Dict[Tuple[str, Tuple], float]:
    """Prometheus exposition text as ``{(name, labels): value}``."""
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        head, value = line.rsplit(" ", 1)
        name, _, labels = head.partition("{")
        samples[(name, tuple(sorted(_LABEL.findall(labels))))] = float(value)
    return samples


def _delta(before, after, name: str, **labels: str) -> float:
    wanted = set(labels.items())
    return sum(
        value - before.get(key, 0.0)
        for key, value in after.items()
        if key[0] == name and wanted <= set(key[1])
    )


def run(workload: str, seed: int, seconds: float, trace: bool) -> Dict:
    inputs = Inputs()
    rng = random.Random(seed)
    primed = [inputs.design("b14")] + [
        inputs.fuzz(index) for index in range(WARM_POOL)
    ]
    cold_order = list(range(WARM_POOL, POOL_SIZE))
    rng.shuffle(cold_order)
    cold = [inputs.fuzz(index) for index in cold_order]

    scratch = scratch_dir(f"{workload}-{seed}")
    try:
        if not trace:
            return _untraced(primed, cold, seed, seconds, scratch)
        return _traced(primed, cold, seed, seconds, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _untraced(primed, cold, seed, seconds, scratch) -> Dict:
    setups = []
    for launch in range(SETUP_LAUNCHES):
        server = Server(scratch / f"store-{launch}", traced=False)
        setups.append(server.setup_s)
        if launch < SETUP_LAUNCHES - 1:
            server.stop()
    try:
        window = _window(server, primed, cold, seed, seconds)
    finally:
        server.stop()
    records = window["records"]
    from repro.serve.bench import percentile

    latencies = [r["latency"] for r in records]
    identified = [r for r in records if r["kind"] != "triage"]
    window["metrics"] = {
        "setup_s": median(setups),
        "latency_p50_s": percentile(latencies, 50),
        "latency_p90_s": percentile(latencies, 90),
        "throughput_rps": len(records) / window["wall"],
        "words_full_pct": 100.0 * sum(r["full"] for r in identified)
        / sum(r["truth"] for r in identified),
        # The largest waited-for child: the workload's server.
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_CHILDREN
        ).ru_maxrss / 1024.0,
    }
    return window


def _traced(primed, cold, seed, seconds, scratch) -> Dict:
    from repro.serve.bench import percentile

    halves = []
    for traced in (False, True):
        server = Server(
            scratch / ("store-traced" if traced else "store-plain"), traced
        )
        try:
            halves.append(
                _window(server, primed, cold, seed, seconds / 2, scrape_too=True)
            )
        finally:
            server.stop()
    plain, window = halves
    records = window["records"]
    requests = len(records)
    before, after = window["scrapes"]

    def delta(name, **labels):
        return _delta(before, after, name, **labels)

    spans = {}
    for key, value in after.items():
        if key[0].startswith("perfbench_span_"):
            span = dict(key[1])["span"]
            field = key[0][len("perfbench_span_"):-len("_total")]
            entry = spans.setdefault(span, [0, 0.0, 0.0, 0])
            entry[SPAN_FIELDS.index(field)] = value - before.get(key, 0.0)
    metrics = span_metrics(spans, requests)
    for stage, name in STAGES.items():
        metrics[name] = delta("repro_stage_seconds_sum", stage=stage) / requests
    server_seconds = sum(
        delta("repro_serve_request_seconds_sum", endpoint=e) for e in ENDPOINTS
    )
    served = sum(
        delta("repro_serve_request_seconds_count", endpoint=e)
        for e in ENDPOINTS
    )
    triage_requests = delta("repro_serve_requests_total", endpoint="/v1/triage")
    triage_runs = spans.get("triage.score", [0])[0]
    client_mean = sum(r["latency"] for r in records) / requests
    execute = spans.get("serve.execute", [0, 0.0])
    tier_hits = delta("repro_cone_tier_hits_total")
    process_hits = delta("repro_cone_tier_hits_total", tier="process")
    metrics.update({
        "conecache.process_hits": process_hits / requests,
        "conecache.store_hits": (tier_hits - process_hits) / requests,
        "conecache.misses": delta("repro_cone_tier_misses_total") / requests,
        "disk.hits": delta("repro_store_hits_total") / requests,
        "disk.misses": delta("repro_store_misses_total") / requests,
        "triage.cache_hit_rate": (
            1.0 - triage_runs / triage_requests if triage_requests else 0.0
        ),
        "serve.server_s": server_seconds / served,
        "serve.transport_s": client_mean - server_seconds / served,
        "serve.shed": delta("repro_serve_shed_total") / requests,
        "client.retries": sum(r["retries"] for r in records) / requests,
        "trace.request_s": execute[1] / execute[0] if execute[0] else 0.0,
        "trace.overhead_s": (
            percentile([r["latency"] for r in records], 50)
            - percentile([r["latency"] for r in plain["records"]], 50)
        ),
    })
    return {
        "records": plain["records"] + records,
        "primed_ok": plain["primed_ok"] and window["primed_ok"],
        "metrics": metrics,
    }


def _prime(client, primed) -> Tuple[Dict[str, str], bool]:
    """Identify and triage every primed input once; their byte digests."""
    digests = {}
    ok = True
    for item in primed:
        status, report = client.identify(verilog=item.text)
        ok &= status == 200 and pin(report["result_digest"]) == item.result_digest
        digests[item.name] = report.get("digest")
        status, ranking = client.request(
            "POST", "/v1/triage", {"verilog": item.text}
        )
        ok &= status == 200 and pin(ranking["triage_digest"]) == item.triage_digest
    return digests, ok


def _schedule(rng: random.Random, primed, cold):
    """Seeded requests with the exact ``MIX`` in every block of 20.

    Each kind walks its own shuffled passes over the primed inputs, so b14
    is every 65th triage, not a coin flip away from four times as many:
    runs of different seeds then differ in order, not in composition.
    """
    deck = [kind for kind, share in MIX for _ in range(round(share * 20))]

    def passes():
        while True:
            order = list(primed)
            rng.shuffle(order)
            yield from order

    picks = {kind: passes() for kind, _ in MIX}
    unseen = iter(cold)
    while True:
        rng.shuffle(deck)
        for kind in deck:
            item = next(unseen, None) if kind == "cold" else None
            if item is None:
                kind = "warm" if kind == "cold" else kind
                item = next(picks[kind])
            yield kind, item


def _send(client, kind: str, item, digests) -> Dict:
    started = perf_counter()
    if kind == "triage":
        status, body = client.request(
            "POST", "/v1/triage", {"verilog": item.text}
        )
    elif kind == "digest":
        status, body = client.identify(digest=digests[item.name])
    else:
        status, body = client.identify(verilog=item.text)
    latency = perf_counter() - started
    record = {
        "kind": kind,
        "latency": latency,
        "retries": client.last_retries,
        "ok": False,
        "full": 0,
        "truth": len(item.truth),
    }
    if status != 200:
        return record
    if kind == "triage":
        record["ok"] = pin(body["triage_digest"]) == item.triage_digest
    else:
        record["ok"] = pin(body["result_digest"]) == item.result_digest
        record["full"] = words_full(item.truth, body["words"])
        record["kernel"] = body["trace"]["kernel"]
        record["backend"] = body["backend"]
    return record


def _window(server, primed, cold, seed, seconds, scrape_too=False) -> Dict:
    from repro.serve.client import ServeClient

    digests, primed_ok = _prime(server.client, primed)
    schedule = _schedule(random.Random(seed), primed, cold)
    lock = threading.Lock()
    records: List[Dict] = []
    errors: List[BaseException] = []
    before = scrape(server.client.metrics()) if scrape_too else None
    started = perf_counter()
    deadline = started + seconds

    def connection(index: int) -> None:
        client = ServeClient(
            port=server.client.port, retry_seed=seed * CONNECTIONS + index
        )
        try:
            while True:
                with lock:
                    if perf_counter() >= deadline:
                        return
                    kind, item = next(schedule)
                record = _send(client, kind, item, digests)
                with lock:
                    records.append(record)
        except BaseException as exc:  # re-raised on the main thread
            errors.append(exc)

    threads = [
        threading.Thread(target=connection, args=(index,))
        for index in range(CONNECTIONS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = perf_counter() - started
    if errors:
        raise errors[0]
    window = {"records": records, "wall": wall, "primed_ok": primed_ok}
    if scrape_too:
        window["scrapes"] = (before, scrape(server.client.metrics()))
    return window
