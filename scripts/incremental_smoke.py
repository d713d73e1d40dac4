#!/usr/bin/env python
"""CI smoke test for incremental re-analysis (also runnable locally).

Edits one gate of b18 and re-analyzes it with
``Session.analyze_incremental`` against the stored original.  The diff
must name exactly the edited gate, and the report must be byte-identical
to a from-scratch analysis of the edited design (DESIGN.md §12).  The
measured re-analysis is journaled to ``BENCH_incremental.json``.

Usage::

    PYTHONPATH=src python scripts/incremental_smoke.py [--scratch DIR]
"""

import argparse
import json
import os
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.api import Session  # noqa: E402
from repro.netlist.cells import AND, OR  # noqa: E402
from repro.synth.designs import BENCHMARKS  # noqa: E402

EDIT_TARGET = "b18"


def log(message):
    print(message, flush=True)


def one_gate_edit(netlist):
    """Swap the first 2+-input combinational AND/OR; returns the copy."""
    edited = netlist.copy()
    gate = next(
        g for g in edited.gates_in_file_order()
        if not g.is_ff
        and g.cell.name in ("AND", "OR")
        and len(g.inputs) >= 2
    )
    swapped = OR if gate.cell.name == "AND" else AND
    edited.replace_gate(gate.name, swapped, gate.inputs)
    return edited, gate.name


def incremental_pass(store_root):
    session = Session(store=store_root)
    base_netlist = BENCHMARKS[EDIT_TARGET]()
    base = session.analyze(base_netlist)
    edited, edited_gate = one_gate_edit(base_netlist)

    started = time.perf_counter()
    inc = session.analyze_incremental(base.digest, edited)
    elapsed = time.perf_counter() - started

    assert inc.gates_changed == (edited_gate,), inc.gates_changed
    scratch = Session(config=session.config).analyze(edited)
    assert inc.report.result_digest == scratch.result_digest, (
        "incremental report differs from a from-scratch analysis"
    )
    assert inc.report.words == scratch.words
    log(
        f"{EDIT_TARGET} one-gate edit ({edited_gate}): "
        f"{inc.dirty_bits}/{inc.total_bits} bits dirtied, "
        f"re-analysis {elapsed:.2f}s, report byte-identical"
    )
    return {
        "design": EDIT_TARGET,
        "edited_gate": edited_gate,
        "dirty_bits": inc.dirty_bits,
        "total_bits": inc.total_bits,
        "reanalysis_seconds": elapsed,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scratch", default=None,
        help="working directory (default: a fresh temp dir)",
    )
    args = parser.parse_args(argv)
    if args.scratch:
        os.makedirs(args.scratch, exist_ok=True)
        scratch = args.scratch
    else:
        scratch = tempfile.mkdtemp(prefix="incremental-smoke-")

    incremental = incremental_pass(os.path.join(scratch, "store"))

    bench_path = os.path.join(REPO, "BENCH_incremental.json")
    with open(bench_path, "w", encoding="utf-8") as handle:
        json.dump(incremental, handle, indent=2, sort_keys=True)
        handle.write("\n")
    log(f"wrote {bench_path}")
    log("incremental smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
