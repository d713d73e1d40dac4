#!/usr/bin/env python
"""Gate how much cheaper Base's Section 2.3 stages are than Ours's.

Base (``backend="base"``, shape hashing) chains bits on full matches
only, so its matching never needs bit signatures, while Ours builds them
for the bits of partially matched subgroups.  The script synthesizes b18
and runs ``identify_words`` on it in ten pairs, one run with
``backend="base"`` and one with ``backend="ours"``, alternating which
runs first (``identify_words`` pauses the cyclic garbage collector
itself, as inside a request).  It exits 1 when Ours's ``result_digest``
differs from the pin in ``tests/core/test_kernels.py``, when Base's
differs between runs, or when the median over the pairs of Base's
``signatures`` + ``matching`` stage time divided by Ours's is more than
``--max-ratio``.  Gating on a ratio rather than on seconds keeps the
check meaningful on noisy shared runners, and a ratio per pair cancels
host drift slower than one pair, which a ratio of two medians taken
over the whole run does not.

Usage::

    PYTHONPATH=src python scripts/stage_speed.py [--max-ratio 0.8]
"""

import argparse
import ast
import os
import statistics
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.core.pipeline import PipelineConfig, identify_words  # noqa: E402
from repro.store import result_digest  # noqa: E402
from repro.synth.designs import BENCHMARKS  # noqa: E402

DESIGN = "b18"
REPEATS = 10
BACKENDS = ("base", "ours")
STAGES = ("signatures", "matching")


def pinned_digest():
    """Ours's ``result_digest`` of :data:`DESIGN` from ``ITC99_DIGESTS`` in
    ``tests/core/test_kernels.py``, read without importing the test."""
    path = os.path.join(REPO, "tests", "core", "test_kernels.py")
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) == "ITC99_DIGESTS"
            for target in node.targets
        ):
            return ast.literal_eval(node.value)[DESIGN]
    raise LookupError(f"no ITC99_DIGESTS in {path}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--max-ratio", type=float, default=0.8)
    args = parser.parse_args(argv)

    netlist = BENCHMARKS[DESIGN]()
    timings = {backend: [] for backend in BACKENDS}
    digests = {backend: set() for backend in BACKENDS}
    for pair in range(REPEATS):
        for backend in BACKENDS[::-1] if pair % 2 else BACKENDS:
            result = identify_words(netlist, PipelineConfig(backend=backend))
            seconds = result.trace.stage_seconds
            timings[backend].append(sum(seconds[s] for s in STAGES))
            digests[backend].add(result_digest(result))
            del result

    base = statistics.median(timings["base"])
    ours = statistics.median(timings["ours"])
    ratio = statistics.median(
        b / o for b, o in zip(timings["base"], timings["ours"])
    )
    print(
        f"{DESIGN} signatures + matching, {REPEATS} pairs: "
        f"median base {base:.3f}s, ours {ours:.3f}s "
        f"(ratio of medians {base / ours:.2f}x); "
        f"median pair ratio {ratio:.2f}x (bound {args.max_ratio:.2f}x)"
    )
    pin = pinned_digest()
    if digests["ours"] != {pin}:
        print(f"FAIL: ours's result digests {sorted(digests['ours'])} "
              f"differ from the pin {pin}")
        return 1
    if len(digests["base"]) != 1:
        print(f"FAIL: base's result digest varies: {sorted(digests['base'])}")
        return 1
    if ratio > args.max_ratio:
        print("FAIL: base's Section 2.3 stages cost too close to ours's")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
