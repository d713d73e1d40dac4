"""Digests and retry jitter must not depend on ``PYTHONHASHSEED``.

Serve's process pool hands a request to whichever worker is free, and
every interpreter draws its own string-hash seed, so anything that
reaches a digest (or the client's retry schedule) through set or dict
iteration over strings would differ by process.  The netlist's port sets
in particular must only ever answer membership, never decide order.
"""

import json
import os
import subprocess
import sys

from repro.serve.client import ServeClient, default_retry_seed

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

_CHILD = """
import json
from repro.api import Session
from repro.fuzz import generate, sample_seed
from repro.serve.client import ServeClient
from repro.store import netlist_digest
from repro.synth.designs import BENCHMARKS

out = {}
for name, netlist in (
    ("b03", BENCHMARKS["b03"]()),
    ("fuzz0", generate(sample_seed(0, 0)).netlist),
):
    session = Session()
    out[name] = {
        "netlist": netlist_digest(netlist),
        "result": session.analyze(netlist).result_digest,
        "triage": session.triage(netlist).triage_digest,
    }
out["jitter"] = [ServeClient(port=8100).backoff_s(i) for i in range(4)]
print(json.dumps(out, sort_keys=True))
"""


def _digests_under(hashseed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", _CHILD],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(done.stdout)


def test_digests_are_identical_under_two_hash_seeds():
    first, second = _digests_under("0"), _digests_under("1")
    assert first == second
    assert first["b03"]["netlist"].startswith("netlist:")


def test_default_retry_seed_is_pinned():
    assert default_retry_seed("127.0.0.1", 8100) == 3247249431
    client = ServeClient("127.0.0.1", 8100)
    twin = ServeClient("127.0.0.1", 8100, retry_seed=3247249431)
    assert [client.backoff_s(i) for i in range(4)] == [
        twin.backoff_s(i) for i in range(4)
    ]
