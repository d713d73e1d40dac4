"""repro — word-level identification in gate-level netlists.

A faithful, self-contained reproduction of

    Edward Tashjian and Azadeh Davoodi,
    "On Using Control Signals for Word-Level Identification in A
    Gate-Level Netlist", DAC 2015.

Subpackages
-----------
:mod:`repro.api`
    **The stable public facade** — start here.  ``Session`` /
    ``AnalysisReport`` wrap everything below behind one versioned front
    door.
:mod:`repro.netlist`
    Gate-level substrate: cell library, netlist model, Verilog/BENCH I/O,
    fanin cones, simulation, validation.
:mod:`repro.core`
    The paper's algorithm: adjacency grouping, hash-key partial matching,
    relevant-control-signal discovery, circuit reduction, the Figure 2
    pipeline — plus the shape-hashing baseline [6].
:mod:`repro.store`
    Content-addressed artifact store: cached parses, results, and traces
    keyed by (content SHA-256, config fingerprint, pipeline version).
:mod:`repro.batch`
    Multi-process corpus analysis over a shared store (``repro batch``).
:mod:`repro.synth`
    The synthesis flow and ITC99-like benchmark designs standing in for
    the paper's commercial netlists.
:mod:`repro.eval`
    Golden-reference extraction, the full/partial/not-found metrics, and
    the Table 1 runner (``repro table1``).

Quick start
-----------
::

    from repro.api import Session

    session = Session(store=".repro-cache")   # store=None disables caching
    report = session.analyze("design.v")      # a path or a Netlist
    report.words, report.cache                # ..., "miss" ("hit" on rerun)

The store-less library entry points ``identify_words`` and
``shape_hashing`` live in :mod:`repro.core`.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, Mapping, Sequence

__version__ = "9.0.0"


def _lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Callable[[str], object]:
    """A module ``__getattr__`` (PEP 562) that imports a package's public
    names on first use.

    ``exports`` maps a submodule, relative to ``package``, to the names
    it defines.  A name resolves from its submodule and is then bound in
    the package, so it resolves once; any other name raises
    ``AttributeError``, which leaves ``from package import submodule`` to
    the import system.  ``repro``, ``repro.core`` and ``repro.netlist``
    re-export this way, so a command loads only the modules it runs:
    ``repro --help`` none of them, and an analysis neither the simulator,
    the equivalence checker nor the evaluation harness.
    """
    owners: Dict[str, str] = {
        name: module for module, names in exports.items() for name in names
    }

    def __getattr__(name: str) -> object:
        module = owners.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__


__getattr__ = _lazy_exports(__name__, {
    ".api": ("AnalysisReport", "Session"),
    ".core": ("IdentificationResult", "PipelineConfig", "Word"),
    ".eval": ("evaluate", "extract_reference_words"),
    ".eval.runner": ("run_benchmark",),
    ".netlist": (
        "Netlist", "NetlistBuilder", "parse_verilog", "write_verilog",
    ),
    ".store": ("ArtifactStore",),
})

__all__ = [
    "AnalysisReport",
    "ArtifactStore",
    "IdentificationResult",
    "PipelineConfig",
    "Session",
    "Word",
    "evaluate",
    "extract_reference_words",
    "run_benchmark",
    "Netlist",
    "NetlistBuilder",
    "parse_verilog",
    "write_verilog",
    "__version__",
]

