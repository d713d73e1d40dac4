"""Recompute ``pins.json``: the digests every benchmark input must produce.

    python3 perfbench/pin.py

Run it only when results are meant to change (a new pipeline version or
different inputs); the benchmark counts any response whose digest differs
from its pin as a failed request.  Digests come from a store-less
``Session``, the plainest path through the program.
"""

from __future__ import annotations

import json

from inputs import PINS, POOL_SIZE, WARM_POOL, Inputs, pin


def main() -> int:
    inputs = Inputs(pins={})
    from repro.api import Session

    session = Session()

    def digests(item, triage: bool) -> dict:
        entry = {"result": pin(session.analyze_text(item.text).result_digest)}
        if triage:
            entry["triage"] = pin(session.triage_text(item.text).triage_digest)
        return entry

    pins = {
        "b18": digests(inputs.design("b18"), triage=False),
        "b14": digests(inputs.design("b14"), triage=True),
    }
    fuzz = [
        digests(inputs.fuzz(index), triage=index < WARM_POOL)
        for index in range(POOL_SIZE)
    ]
    pins["fuzz"] = {
        "result": [entry["result"] for entry in fuzz],
        "triage": [entry["triage"] for entry in fuzz[:WARM_POOL]],
    }
    PINS.write_text(json.dumps(pins, indent=1) + "\n", encoding="utf-8")
    print(f"pinned {len(fuzz)} fuzz samples, b14 and b18 into {PINS}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
