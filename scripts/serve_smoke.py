#!/usr/bin/env python
"""CI smoke test for ``repro serve`` (also runnable locally).

Proves, over live TCP against real subprocesses, the four serve
guarantees DESIGN.md §11 and §13 make:

1. **Byte-identity** — every ITC99 benchmark POSTed to ``/v1/identify``
   answers the same ``result_digest`` the ``repro identify`` CLI wrote
   for the same file, and repeat POSTs (b13 x20) hit the shared artifact
   store (``repro_store_hits_total`` ≥ 1 on ``/metrics``).
2. **Load shedding** — a server with ``--workers 1 --queue-size 1`` and
   a held worker sheds a burst of 8 with 429s and answers zero 500s.
3. **Worker loss** — one worker of a ``--store`` server's process pool
   (``--pool auto`` picks it) is SIGKILLed; all 12 designs still answer
   200 with the CLI's ``result_digest``, ``/readyz`` answers 200, and
   ``/metrics`` counts exactly one pool rebuild.
4. **Graceful drain** — every server exits 0 on SIGTERM.

With ``--bench OUT.json`` it additionally runs a sustained load
benchmark: concurrent clients posting unique (cache-missing) designs
against ``--workers 1/2/4`` servers for a fixed window each, reporting
p50/p90/p99 latency and req/s per sweep into a schema-stamped
``BENCH_serve.json`` (shape: :mod:`repro.serve.bench`).

Usage::

    PYTHONPATH=src python scripts/serve_smoke.py [--scratch DIR]
        [--bench BENCH_serve.json] [--bench-duration S]
"""

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.batch import itc99_corpus  # noqa: E402
from repro.serve.bench import build_report  # noqa: E402
from repro.serve.client import ServeClient  # noqa: E402

BANNER = re.compile(r"listening on http://([\d.]+):(\d+)")


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        os.path.join(REPO, "src") + os.pathsep + env.get("PYTHONPATH", "")
    )
    return env


def start_server(*args, max_retries=3):
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--port", "0", *args],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=_env(),
    )
    banner = process.stdout.readline()
    process._banner = banner  # replayed by process_banner() for the bench
    match = BANNER.search(banner)
    assert match, f"no banner from repro serve: {banner!r}"
    client = ServeClient(
        match.group(1), int(match.group(2)), timeout=300,
        max_retries=max_retries,
    )
    ready = client.wait_ready(timeout=15)
    if not ready:
        print(f"[smoke] server never became ready: {ready.reason} "
              f"({ready.detail})", file=sys.stderr)
        process.send_signal(signal.SIGTERM)
        raise AssertionError(f"wait_ready failed: {ready.reason}")
    return process, client


def drain(process):
    process.send_signal(signal.SIGTERM)
    code = process.wait(timeout=60)
    assert code == 0, f"server exited {code} instead of draining cleanly"


def cli_digests(designs, store):
    """result_digest per design, via the `repro identify` CLI path."""
    digests = {}
    for path in designs:
        report_path = path + ".report.json"
        subprocess.run(
            [sys.executable, "-m", "repro.cli", path,
             "--store", store, "--json", report_path],
            check=True, env=_env(), stdout=subprocess.DEVNULL,
        )
        with open(report_path, encoding="utf-8") as handle:
            digests[path] = json.load(handle)["result_digest"]
    return digests


def pool_workers(process):
    """PIDs of a server's worker processes (its child processes)."""
    found = subprocess.run(
        ["pgrep", "-P", str(process.pid)], capture_output=True, text=True
    )
    return [int(pid) for pid in found.stdout.split()]


def check_byte_identity(scratch):
    corpus_dir = os.path.join(scratch, "corpus")
    store = os.path.join(scratch, "store")
    designs = itc99_corpus(corpus_dir)
    print(f"[smoke] CLI pass over {len(designs)} ITC99 designs...")
    expected = cli_digests(designs, store)

    process, client = start_server("--store", store, "--workers", "4")
    try:
        for path in designs:
            status, report = client.identify_path(path)
            assert status == 200, f"{path}: HTTP {status}: {report}"
            assert report["result_digest"] == expected[path], (
                f"{path}: serve digest {report['result_digest']} != "
                f"CLI digest {expected[path]}"
            )
            # Not just equal: *served from* the entry the CLI committed
            # (the cross-path cache-sharing contract of DESIGN.md §11).
            assert report["cache"] == "hit", (
                f"{path}: expected a store hit off the CLI-primed store, "
                f"got cache={report['cache']!r}"
            )
        print(f"[smoke] serve == CLI on all {len(designs)} designs "
              f"(every one a store hit off the CLI-primed store)")

        b13 = next(p for p in designs if p.endswith("b13.v"))
        for _ in range(20):
            status, report = client.identify_path(b13)
            assert status == 200 and report["cache"] == "hit"
        hits = client.metric_value("repro_store_hits_total")
        assert hits and hits >= 1, f"expected store hits, metrics said {hits}"
        shed = client.metric_value("repro_serve_shed_total")
        print(f"[smoke] b13 x20 served from store "
              f"(hits={hits:.0f}, shed={0 if shed is None else shed:.0f})")
    finally:
        drain(process)
    print("[smoke] byte-identity server drained cleanly")
    return designs, expected


def check_worker_loss(scratch, designs, expected):
    store = os.path.join(scratch, "store")
    process, client = start_server("--store", store, "--workers", "2")
    try:
        assert "pool=process" in process_banner(process), (
            f"--pool auto did not pick the process pool: "
            f"{process_banner(process)!r}"
        )
        status, _ = client.identify_path(designs[0])  # starts the workers
        assert status == 200, f"HTTP {status} before the kill"
        workers = pool_workers(process)
        assert len(workers) == 2, f"expected 2 pool workers, saw {workers}"
        os.kill(workers[0], signal.SIGKILL)
        for path in designs:
            status, report = client.identify_path(path)
            assert status == 200, f"{path}: HTTP {status}: {report}"
            assert report["result_digest"] == expected[path], (
                f"{path}: digest {report['result_digest']} after the "
                f"kill != CLI digest {expected[path]}"
            )
        ready = client.wait_ready(timeout=15)
        assert ready, f"/readyz after the kill: {ready.reason} {ready.detail}"
        assert client.readyz()[0] == 200
        restarts = client.metric_value("repro_serve_worker_restarts_total")
        assert restarts == 1, f"expected 1 pool rebuild, /metrics: {restarts}"
    finally:
        drain(process)
    print(f"[smoke] SIGKILLed pool worker {workers[0]}: all {len(designs)} "
          f"designs == CLI, /readyz 200, 1 rebuild; drained cleanly")


def check_load_shedding(scratch):
    design = os.path.join(scratch, "corpus", "b13.v")
    with open(design, encoding="utf-8") as handle:
        text = handle.read()
    # max_retries=0: the burst must *observe* the 429s, not retry past
    # them (the default client would absorb shedding into retries).
    process, client = start_server(
        "--workers", "1", "--queue-size", "1", "--hold-s", "0.3",
        max_retries=0,
    )
    statuses, lock = [], threading.Lock()

    def post():
        status, _ = client.identify(verilog=text)
        with lock:
            statuses.append(status)

    try:
        threads = [threading.Thread(target=post) for _ in range(8)]
        for thread in threads:
            thread.start()
            time.sleep(0.02)
        for thread in threads:
            thread.join()
    finally:
        drain(process)
    assert 500 not in statuses, f"internal errors under burst: {statuses}"
    assert statuses.count(429) > 0, f"no load shedding seen: {statuses}"
    assert statuses.count(200) >= 1, f"nothing served under burst: {statuses}"
    print(f"[smoke] burst of 8 on capacity 2: "
          f"{statuses.count(200)}x200 / {statuses.count(429)}x429, no 500s; "
          f"shedding server drained cleanly")


def _bench_sweep(client, base_text, tag, duration_s, concurrency):
    """Hammer one server with unique (cache-missing) designs.

    Each request appends a never-repeated comment line, so its byte
    digest — and therefore its store key — is fresh: every request pays
    for a real analysis, which is what worker scaling acts on.
    """
    stop_at = time.monotonic() + duration_s
    latencies, errors = [], []
    lock = threading.Lock()

    def worker(slot):
        n = 0
        while time.monotonic() < stop_at:
            n += 1
            text = f"{base_text}\n// bench {tag} client {slot} request {n}\n"
            started = time.perf_counter()
            status, _ = client.identify(verilog=text)
            elapsed = time.perf_counter() - started
            with lock:
                if status == 200:
                    latencies.append(elapsed)
                elif status != 429:  # shedding is back-pressure, not failure
                    errors.append(status)

    started = time.monotonic()
    threads = [
        threading.Thread(target=worker, args=(slot,))
        for slot in range(concurrency)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return latencies, len(errors), time.monotonic() - started


def check_sustained_load(scratch, output, duration_s, design="b13",
                         workers_sweep=(1, 2, 4), concurrency=6):
    corpus_dir = os.path.join(scratch, "corpus")
    designs = itc99_corpus(corpus_dir)
    path = next(p for p in designs if p.endswith(f"{design}.v"))
    with open(path, encoding="utf-8") as handle:
        base_text = handle.read()

    sweeps = []
    pool = None
    for workers in workers_sweep:
        store = os.path.join(scratch, f"bench-store-w{workers}")
        process, client = start_server(
            "--store", store, "--workers", str(workers),
            "--queue-size", "32", max_retries=0,
        )
        if pool is None:
            pool = "process" if "pool=process" in process_banner(process) \
                else "thread"
        try:
            # One warm-up request absorbs worker start-up cost.
            client.identify(verilog=base_text + f"\n// warmup w{workers}\n")
            latencies, errors, elapsed = _bench_sweep(
                client, base_text, f"w{workers}", duration_s, concurrency
            )
        finally:
            drain(process)
        assert latencies, f"no successful requests at workers={workers}"
        assert errors == 0, f"{errors} non-429 failures at workers={workers}"
        sweeps.append({
            "workers": workers,
            "latencies_s": latencies,
            "errors": errors,
            "elapsed_s": elapsed,
        })
        print(f"[bench] workers={workers}: {len(latencies)} requests in "
              f"{elapsed:.1f}s ({len(latencies) / elapsed:.1f} req/s)")

    report = build_report(design, pool or "thread", concurrency, sweeps)
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    scaling = report["scaling"]
    print(f"[bench] wrote {output} (workers {workers_sweep[0]}→"
          f"{workers_sweep[-1]} throughput ratio "
          f"{scaling:.2f}x on {report['cpu_count']} CPU core(s))")


def process_banner(process):
    """The banner line already consumed by start_server, replayed.

    start_server reads exactly one stdout line (the banner); keep a copy
    on the process object so the bench can report the pool mode.
    """
    return getattr(process, "_banner", "")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scratch", default=None,
        help="working directory (default: a fresh temp dir)",
    )
    parser.add_argument(
        "--bench", metavar="OUT.json", default=None,
        help="also run the sustained load benchmark and write its "
        "schema-stamped report (BENCH_serve.json) here",
    )
    parser.add_argument(
        "--bench-duration", type=float, default=6.0,
        help="seconds per --workers sweep of the load benchmark "
        "(default %(default)s)",
    )
    parser.add_argument(
        "--bench-only", action="store_true",
        help="skip the smoke checks and run only the --bench sweeps",
    )
    args = parser.parse_args()

    def run(scratch):
        if not args.bench_only:
            designs, expected = check_byte_identity(scratch)
            check_worker_loss(scratch, designs, expected)
            check_load_shedding(scratch)
        if args.bench:
            check_sustained_load(scratch, args.bench, args.bench_duration)

    if args.scratch:
        os.makedirs(args.scratch, exist_ok=True)
        run(args.scratch)
    else:
        with tempfile.TemporaryDirectory(prefix="serve-smoke-") as scratch:
            run(scratch)
    print("[smoke] PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
