"""End-to-end benchmark of word identification: netlist text in, report out.

    python3 perfbench/run.py --workload b18_cold --seed 1 --seconds 25 --trace 0

Workloads (``BENCHMARK.json`` says why each exists): ``b18_cold`` runs in
this process (:mod:`b18_cold`), ``serve_mixed`` drives a ``repro serve``
child over HTTP (:mod:`serve_mixed`).  Every run uses the
program's default code path: no kernel, backend or environment override.

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` reports the per-layer metrics of a traced run instead (a
layer the workload does not exercise reports 0).  Every per-layer time or
count is a mean per request.  Inputs are made from the seed before the
timed window, every response is checked against the digest pinned for its
input in ``pins.json``, and a mismatch counts as a failed request.

Output: one line per metric, a ``stamp`` line naming the host and the
resolved kernel and backend (numbers from different boxes or kernels are
not comparable), and last one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import sys

from inputs import ROOT, require_source


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def _numpy_version():
    try:
        import numpy
    except ImportError:
        return None
    return numpy.__version__


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    require_source()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}",
              file=sys.stderr)
        return 2

    # Each workload lives in the module of its name.
    workload = importlib.import_module(args.workload)
    result = workload.run(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    records = result["records"]
    failed = sum(1 for record in records if not record["ok"])

    metrics = {}
    for declared in spec["per_layer" if args.trace else "end_to_end"]:
        name, unit = declared["name"], declared["unit"]
        value = result["metrics"].get(name)
        if value is None and not args.trace:
            raise RuntimeError(f"{args.workload} did not measure {name}")
        value = float(value or 0.0)
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:<28} {value:14.6f} {unit}")

    stamped = next((r for r in records if "kernel" in r), {})
    print("stamp " + json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "requests": len(records),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _numpy_version(),
        "kernel": stamped.get("kernel"),
        "backend": stamped.get("backend"),
    }, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and result.get("primed_ok", True),
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
