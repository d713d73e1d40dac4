#!/usr/bin/env python
"""Gate what an attached artifact store costs a cold request.

A cold ``Session.analyze_text`` with a store attached parses, digests,
runs the six stages and commits the result plus the netlist body; without
a store it only parses and runs the stages.  The difference is store
bookkeeping (canonical serialization, hashing, envelope writes), which
must stay a modest fraction of the analysis itself.

The script synthesizes one design (b18 by default), sends its text
through one long-lived ``Session`` -- alternately with a fresh store and
with none, after one discarded store-attached warm-up request -- and
exits 1 when the median store-attached latency exceeds ``--max-ratio``
times the median store-less one.  The two
arms must also agree on ``result_digest``.  Gating on a ratio rather than
on seconds keeps the check meaningful on noisy shared runners.

Usage::

    PYTHONPATH=src python scripts/store_overhead.py \\
        [--design b18] [--repeats 3] [--max-ratio 1.6]
"""

import argparse
import os
import shutil
import statistics
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.api import Session  # noqa: E402
from repro.netlist.verilog import write_verilog  # noqa: E402
from repro.store import ArtifactStore  # noqa: E402
from repro.synth.designs import BENCHMARKS  # noqa: E402


def timed_request(session, text):
    started = time.perf_counter()
    report = session.analyze_text(text)
    return time.perf_counter() - started, report.result_digest


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--design", default="b18", choices=sorted(BENCHMARKS))
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--max-ratio", type=float, default=1.6)
    args = parser.parse_args(argv)

    text = write_verilog(BENCHMARKS[args.design]())
    scratch = tempfile.mkdtemp(prefix="store-overhead-")
    session = Session()
    timings = {"store": [], "none": []}
    digests = set()
    try:
        for run in range(args.repeats + 1):
            store_dir = os.path.join(scratch, f"store-{run}")
            session.store = ArtifactStore(store_dir)
            seconds, digest = timed_request(session, text)
            shutil.rmtree(store_dir, ignore_errors=True)
            digests.add(digest)
            if run == 0:
                continue  # warm-up: one-time first-request costs
            timings["store"].append(seconds)
            session.store = None
            seconds, digest = timed_request(session, text)
            timings["none"].append(seconds)
            digests.add(digest)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    with_store = statistics.median(timings["store"])
    without = statistics.median(timings["none"])
    ratio = with_store / without
    print(
        f"{args.design} cold analyze_text, median of {args.repeats}: "
        f"store {with_store:.2f}s, no store {without:.2f}s, "
        f"ratio {ratio:.2f}x (bound {args.max_ratio:.2f}x)"
    )
    if len(digests) != 1:
        print(f"FAIL: result digests differ across runs: {sorted(digests)}")
        return 1
    if ratio > args.max_ratio:
        print("FAIL: the store costs a cold request more than the bound")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
