"""Benchmark inputs: b18, b14 and a fixed pool of fuzz samples.

Every input is netlist text plus its ground-truth words and the digests
pinned for it in ``pins.json``.  The program under test only ever sees the
text.  Synthesizing b18 takes several seconds, so generated inputs are
cached under ``.perfbench_cache/inputs-<key>/`` at the checkout root.  The
key hashes every source file of ``repro.synth``, ``repro.fuzz`` and
``repro.netlist`` (home of ``write_verilog``), so a change to any of them
regenerates the cache instead of reusing stale text.

The fuzz pool is ``repro.fuzz.generate(sample_seed(POOL_SEED, i))`` for
``i < POOL_SIZE``.  A workload's ``--seed`` picks an order over the pool;
a finite pool is what lets every input carry a pinned digest.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CACHE = ROOT / ".perfbench_cache"
PINS = Path(__file__).resolve().parent / "pins.json"

POOL_SEED = 0
POOL_SIZE = 2048
#: Pool indices a serve run may prime (and re-send, and triage); their
#: triage digests are pinned too.  Cold serve requests use the rest.
WARM_POOL = 64
#: Pinned digests are this many hex characters of the full digest.
PIN_CHARS = 16

#: Source trees whose change must regenerate the cached inputs.
_INPUT_SOURCES = ("repro/synth", "repro/fuzz", "repro/netlist")


def require_source() -> None:
    """Put ``src/`` on the import path; exit 2 if the program is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def source_key() -> str:
    """Digest of every source file that shapes the generated text."""
    digest = hashlib.sha256()
    for tree in _INPUT_SOURCES:
        for path in sorted((SRC / tree).rglob("*.py")):
            digest.update(str(path.relative_to(SRC)).encode("utf-8"))
            digest.update(b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


@dataclass(frozen=True)
class Input:
    """One request body with its ground truth and pinned digests."""

    name: str
    text: str
    truth: Tuple[Tuple[str, ...], ...]
    result_digest: str
    triage_digest: Optional[str] = None


def pin(digest: str) -> str:
    """The pinned form of a digest: its first hex characters."""
    return digest.split(":", 1)[-1][:PIN_CHARS]


class Inputs:
    """Loads (generating on a cache miss) the inputs of one checkout."""

    def __init__(self, pins: Optional[Dict] = None):
        require_source()
        self.dir = CACHE / f"inputs-{source_key()}"
        if not self.dir.is_dir():
            for stale in CACHE.glob("inputs-*"):
                shutil.rmtree(stale, ignore_errors=True)
            self.dir.mkdir(parents=True, exist_ok=True)
        if pins is None:
            pins = json.loads(PINS.read_text(encoding="utf-8"))
        self.pins = pins

    def _cached(self, name: str, build) -> Dict:
        path = self.dir / f"{name}.json"
        if path.is_file():
            return json.loads(path.read_text(encoding="utf-8"))
        entry = build()
        staging = path.with_suffix(f".{os.getpid()}.tmp")
        staging.write_text(json.dumps(entry), encoding="utf-8")
        os.replace(staging, path)
        return entry

    def _input(self, name: str, build, pins: Dict) -> Input:
        entry = self._cached(name, build)
        return Input(
            name=name,
            text=entry["text"],
            truth=tuple(tuple(bits) for bits in entry["truth"]),
            result_digest=pins.get("result", ""),
            triage_digest=pins.get("triage"),
        )

    def design(self, name: str) -> Input:
        """An ITC99 design; truth is the golden register-name reference."""

        def build() -> Dict:
            from repro.eval.reference import extract_reference_words
            from repro.netlist.verilog import write_verilog
            from repro.synth.designs import BENCHMARKS

            netlist = BENCHMARKS[name]()
            return {
                "text": write_verilog(netlist),
                "truth": [
                    list(word.bits)
                    for word in extract_reference_words(netlist, min_width=2)
                ],
            }

        return self._input(name, build, self.pins.get(name, {}))

    def fuzz(self, index: int) -> Input:
        """Pool sample ``index``; truth is ``FuzzSample.truth``."""
        if not 0 <= index < POOL_SIZE:
            raise IndexError(f"fuzz pool index {index} out of range")

        def build() -> Dict:
            from repro.fuzz import generate, sample_seed
            from repro.netlist.verilog import write_verilog

            sample = generate(sample_seed(POOL_SEED, index))
            return {
                "text": write_verilog(sample.netlist),
                "truth": [list(word.bits) for word in sample.truth],
            }

        fuzz_pins = self.pins.get("fuzz", {})
        pins = {}
        if index < len(fuzz_pins.get("result", ())):
            pins["result"] = fuzz_pins["result"][index]
        if index < len(fuzz_pins.get("triage", ())):
            pins["triage"] = fuzz_pins["triage"][index]
        return self._input(f"fuzz-{index}", build, pins)


def scratch_dir(label: str) -> Path:
    """An emptied working directory (stores, set-up probes) for one run."""
    path = CACHE / "tmp" / label
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def words_full(truth, words) -> int:
    """Ground-truth words some response word contains entirely.

    The FULL rule of :func:`repro.eval.metrics.evaluate`, applied to the
    ``words`` of a JSON report instead of an in-memory result.
    """
    found = [set(word) for word in words]
    return sum(
        1 for bits in truth if any(set(bits) <= word for word in found)
    )
