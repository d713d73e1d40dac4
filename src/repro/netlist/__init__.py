"""Gate-level netlist substrate.

This subpackage is everything the word-identification algorithm needs from
the circuit side: a cell library with controlling-value semantics
(:mod:`~repro.netlist.cells`), an order-preserving netlist data model
(:mod:`~repro.netlist.netlist`), readers/writers for structural Verilog and
ISCAS ``.bench`` (:mod:`~repro.netlist.verilog`,
:mod:`~repro.netlist.bench`), depth-limited fanin-cone extraction
(:mod:`~repro.netlist.cone`), three-valued simulation for equivalence
checking (:mod:`~repro.netlist.simulate`), and structural validation
(:mod:`~repro.netlist.validate`).
"""

from .cells import (
    AND,
    BUF,
    CellLibrary,
    CellType,
    DFF,
    INV,
    LIBRARY,
    MUX,
    NAND,
    NOR,
    OR,
    TIE0,
    TIE1,
    XNOR,
    XOR,
)
from .netlist import Gate, Netlist, NetlistError
from .builder import NetlistBuilder
from .cone import ConeNode, cone_gates, cone_nets, extract_cone
from .verilog import VerilogError, parse_verilog, parse_verilog_file, write_verilog
from .bench import BenchError, parse_bench, parse_bench_file, write_bench
from .equiv import EquivalenceResult, check_equivalence
from .simulate import Simulator, evaluate_combinational, exhaustive_inputs, step
from .validate import NetlistStats, ValidationReport, stats, validate

__all__ = [
    "AND", "BUF", "CellLibrary", "CellType", "DFF", "INV", "LIBRARY", "MUX",
    "NAND", "NOR", "OR", "TIE0", "TIE1", "XNOR", "XOR",
    "Gate", "Netlist", "NetlistError", "NetlistBuilder",
    "ConeNode", "cone_gates", "cone_nets", "extract_cone",
    "VerilogError", "parse_verilog", "parse_verilog_file", "write_verilog",
    "BenchError", "parse_bench", "parse_bench_file", "write_bench",
    "EquivalenceResult", "check_equivalence",
    "Simulator", "evaluate_combinational", "exhaustive_inputs", "step",
    "NetlistStats", "ValidationReport", "stats", "validate",
]
