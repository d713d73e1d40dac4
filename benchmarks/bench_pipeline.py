"""Micro-benchmark of the staged analysis engine.

Runs ``identify_words`` on one mid-size ITC99 benchmark (b12 by default)
and writes ``BENCH_pipeline.json``: per-stage wall-clock, aggregate cache
hit rates, the deterministic trace counters, and the artifact store's
warm-vs-cold numbers (a cold run that commits to a fresh store, then warm
probes that load the cached result).  CI uploads the file as an artifact
so the perf trajectory of the engine is recorded per commit.

Usage::

    PYTHONPATH=src python benchmarks/bench_pipeline.py [--design b12]
        [--repeats 5] [--jobs 1] [--output BENCH_pipeline.json]

The reported timing is the *minimum* over the repeats — the most
contention-robust estimator on shared CI runners.
"""

from __future__ import annotations

import argparse
import json
import platform
import tempfile
import time

from repro.api import Session
from repro.core.pipeline import PipelineConfig, identify_words
from repro.store import result_digest
from repro.synth.designs import BENCHMARKS


def _timed_runs(netlist, config: PipelineConfig, repeats: int):
    """(best_seconds, all_seconds, best_result) over ``repeats`` runs."""
    best = None
    best_result = None
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = identify_words(netlist, config)
        elapsed = time.perf_counter() - start
        times.append(elapsed)
        if best is None or elapsed < best:
            best = elapsed
            best_result = result
    return best, times, best_result


def run(design: str, repeats: int, jobs: int) -> dict:
    netlist = BENCHMARKS[design]()
    config = PipelineConfig(jobs=jobs)
    best, times, best_result = _timed_runs(netlist, config, repeats)
    best_trace = best_result.trace
    cache = best_trace.cache
    store_numbers = _bench_store(netlist, config, repeats)
    payload = {
        "design": design,
        "gates": netlist.num_gates,
        "flip_flops": netlist.num_ffs,
        "jobs": jobs,
        "repeats": repeats,
        "python": platform.python_version(),
        "result_digest": result_digest(best_result),
        "wall_seconds": best,
        "wall_seconds_all": times,
        "stage_seconds": dict(best_trace.stage_seconds),
        "cache_hit_rates": {
            "cone": cache.cone_hit_rate,
            "hash_key": cache.key_hit_rate,
            "reduced_key_reuse": cache.reduced_reuse_rate,
        },
        "cache": cache.as_dict(),
        "counters": best_trace.counter_dict(),
        "store": store_numbers,
    }
    return payload


def _bench_store(netlist, config: PipelineConfig, repeats: int) -> dict:
    """Warm-vs-cold artifact-store numbers on a throwaway store.

    Both runs go through :class:`repro.api.Session`, the only code that
    reads or writes results.  ``cold_seconds`` includes the digest +
    commit overhead a caching run pays on a miss; ``warm_seconds`` is the
    best probe-only rerun.  The digests of both results are compared so
    the benchmark doubles as a cache-correctness smoke check.
    """
    with tempfile.TemporaryDirectory(prefix="bench-store-") as root:
        session = Session(config=config, store=root)
        start = time.perf_counter()
        cold_report = session.analyze(netlist)
        cold = time.perf_counter() - start
        warm = None
        warm_report = None
        for _ in range(max(repeats, 1)):
            start = time.perf_counter()
            warm_report = session.analyze(netlist)
            elapsed = time.perf_counter() - start
            if warm is None or elapsed < warm:
                warm = elapsed
        if warm_report.cache != "hit":
            raise AssertionError("warm rerun did not hit the store")
        if cold_report.result_digest != warm_report.result_digest:
            raise AssertionError("cached result differs from computed one")
        return {
            "cold_seconds": cold,
            "warm_seconds": warm,
            "speedup": cold / warm if warm else float("inf"),
        }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--design", default="b12", choices=sorted(BENCHMARKS)
    )
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--output", default="BENCH_pipeline.json")
    args = parser.parse_args()
    payload = run(args.design, args.repeats, args.jobs)
    with open(args.output, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(
        f"{payload['design']}: {payload['wall_seconds'] * 1000.0:.1f} ms "
        f"(min of {args.repeats}), "
        f"key cache {payload['cache_hit_rates']['hash_key']:.1%}, "
        f"store warm {payload['store']['warm_seconds'] * 1000.0:.1f} ms "
        f"({payload['store']['speedup']:.0f}x) -> "
        f"{args.output}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
