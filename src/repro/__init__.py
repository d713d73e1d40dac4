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

from .api import AnalysisReport, Session
from .core import (
    IdentificationResult,
    PipelineConfig,
    Word,
)
from .eval import evaluate, extract_reference_words, run_benchmark
from .netlist import Netlist, NetlistBuilder, parse_verilog, write_verilog
from .store import ArtifactStore

__version__ = "5.0.0"

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

