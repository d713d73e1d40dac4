#!/usr/bin/env python
"""Gate how much faster the fast Verilog reader is than the general parser.

``parse_verilog`` reads ``write_verilog``'s own layout with a fast
reader and hands any other text to the general (recovering) parser.  The
script synthesizes one design (b18 by default), writes it, and parses
that text alternately with the fast reader alone and with the general
parser alone, ``--repeats`` times each, with the cyclic garbage
collector off as it is inside a request.  It exits 1 when the fast
reader declines the text, when the two netlists' ``netlist_digest``s
differ, or when the median fast parse takes more than ``--max-ratio``
times the median general one.  Gating on a ratio rather than on seconds
keeps the check meaningful on noisy shared runners.

Usage::

    PYTHONPATH=src python scripts/parse_speed.py \\
        [--design b18] [--repeats 5] [--max-ratio 0.6]
"""

import argparse
import gc
import os
import statistics
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.netlist import LIBRARY  # noqa: E402
from repro.netlist.verilog import (  # noqa: E402
    _parse_recovering,
    _read_canonical,
    write_verilog,
)
from repro.store import netlist_digest  # noqa: E402
from repro.synth.designs import BENCHMARKS  # noqa: E402

ARMS = {
    "fast": lambda text: _read_canonical(text, LIBRARY),
    "general": lambda text: _parse_recovering(text, LIBRARY, 10),
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--design", default="b18", choices=sorted(BENCHMARKS))
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--max-ratio", type=float, default=0.6)
    args = parser.parse_args(argv)

    text = write_verilog(BENCHMARKS[args.design]())
    timings = {arm: [] for arm in ARMS}
    digests = {}
    gc.collect()
    gc.disable()
    try:
        for _ in range(args.repeats):
            for arm, parse in ARMS.items():
                started = time.perf_counter()
                netlist = parse(text)
                timings[arm].append(time.perf_counter() - started)
                if netlist is None:
                    print(f"FAIL: the fast reader declined {args.design}'s "
                          f"writer text")
                    return 1
                if arm not in digests:
                    digests[arm] = netlist_digest(netlist)
                del netlist
    finally:
        gc.enable()

    fast = statistics.median(timings["fast"])
    general = statistics.median(timings["general"])
    ratio = fast / general
    mb = len(text.encode("utf-8")) / 1e6
    print(
        f"{args.design} writer text ({mb:.1f} MB), median of {args.repeats}: "
        f"fast {fast:.3f}s, general {general:.3f}s, "
        f"ratio {ratio:.2f}x (bound {args.max_ratio:.2f}x)"
    )
    if digests["fast"] != digests["general"]:
        print(f"FAIL: netlist digests differ: {digests}")
        return 1
    if ratio > args.max_ratio:
        print("FAIL: the fast reader is not fast enough")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
