"""CI smoke test for the Trojan-triage subsystem (DESIGN.md §16).

For each of two ITC99 benchmarks (b04, b13):

1. insert a seeded rare-trigger Trojan (`repro.synth.trojan`) so the
   ground-truth gate set is known exactly;
2. run ``repro triage --json`` and assert **every** injected gate lands
   in the top decile of the ranking;
3. POST the same bytes to ``/v1/triage`` (the in-process service — the
   same handler code the socket path runs), then POST only the CLI
   report's ``digest``, and assert each response is byte-identical to
   the CLI payload, including the triage digest;
4. assert neither served call writes to the store the CLI warmed.

Run from the repository root::

    PYTHONPATH=src python scripts/triage_smoke.py
"""

import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.api import Session  # noqa: E402
from repro.core import PipelineConfig  # noqa: E402
from repro.netlist import write_verilog  # noqa: E402
from repro.serve.service import AnalysisService  # noqa: E402
from repro.synth import insert_trojan  # noqa: E402
from repro.synth.designs import BENCHMARKS  # noqa: E402
from repro.triage.cli import main as triage_main  # noqa: E402

DESIGNS = ("b04", "b13")
TRIGGER_WIDTH = 4
SEED = 2015


def check_design(name: str, tmp: str) -> None:
    netlist = BENCHMARKS[name]()
    spec = insert_trojan(netlist, trigger_width=TRIGGER_WIDTH, seed=SEED)
    injected = set(spec.gates)
    design = os.path.join(tmp, f"{name}_trojan.v")
    with open(design, "w", encoding="utf-8") as handle:
        handle.write(write_verilog(netlist))

    # CLI run, store-backed (the serve call below must hit this store
    # and still answer identical bytes).
    store = os.path.join(tmp, "store")
    report_path = os.path.join(tmp, f"{name}.triage.json")
    code = triage_main([design, "--store", store, "--json", report_path])
    assert code == 0, f"{name}: repro triage exited {code}"
    with open(report_path, encoding="utf-8") as handle:
        cli = json.load(handle)

    # Localization: every injected gate in the top decile.
    ranking = [entry["gate"] for entry in cli["gates"]]
    assert set(ranking) >= injected, f"{name}: ranking missing trojan gates"
    decile = set(ranking[: max(1, len(ranking) // 10)])
    missed = sorted(injected - decile)
    assert not missed, (
        f"{name}: trojan gates outside the top decile: {missed}"
    )
    worst = max(ranking.index(gate) + 1 for gate in injected)

    # Serve identity: same bytes in, byte-identical payload out.
    with open(design, encoding="utf-8") as handle:
        text = handle.read()
    # Configured as `repro serve` configures its session: preflight is
    # in the store fingerprint, and the CLI run above used it.
    session = Session(config=PipelineConfig(preflight=True), store=store)
    service = AnalysisService(session, workers=1, queue_size=1)
    canonical = json.dumps(cli, sort_keys=True).encode("utf-8")
    try:
        for body in ({"verilog": text}, {"digest": cli["digest"]}):
            request = next(iter(body))
            puts = session.store.stats.puts
            response = service.call("POST", "/v1/triage", body)
            assert response.status == 200, (
                f"{name}: serve answered {response.status} to {request}"
            )
            assert response.body == canonical, (
                f"{name}: /v1/triage by {request} differs from "
                f"repro triage --json"
            )
            assert session.store.stats.puts == puts, (
                f"{name}: warm /v1/triage by {request} wrote to the store"
            )
    finally:
        service.close()

    print(
        f"{name}: {len(ranking)} gates ranked, {len(injected)} trojan "
        f"gates all within top decile (worst rank {worst}), "
        f"serve by text and by digest == CLI "
        f"({cli['triage_digest'][:23]}...), no store writes"
    )


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="triage-smoke-") as tmp:
        for name in DESIGNS:
            check_design(name, tmp)
    print("triage smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
