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

from .. import _lazy_exports

# ``validate`` is also the name of its submodule: bound lazily, the
# package attribute would be whichever the import system set first.
from .validate import validate

# Every other public name is imported from its module on first use: an
# analysis never loads simulate or equiv.
__getattr__ = _lazy_exports(__name__, {
    ".cells": (
        "AND", "BUF", "CellLibrary", "CellType", "DFF", "INV", "LIBRARY",
        "MUX", "NAND", "NOR", "OR", "TIE0", "TIE1", "XNOR", "XOR",
    ),
    ".netlist": ("Gate", "Netlist", "NetlistError"),
    ".builder": ("NetlistBuilder",),
    ".cone": ("ConeNode", "cone_gates", "cone_nets", "extract_cone"),
    ".verilog": (
        "VerilogError", "parse_verilog", "parse_verilog_file",
        "write_verilog",
    ),
    ".bench": ("BenchError", "parse_bench", "parse_bench_file", "write_bench"),
    ".equiv": ("EquivalenceResult", "check_equivalence"),
    ".simulate": (
        "Simulator", "evaluate_combinational", "exhaustive_inputs", "step",
    ),
    ".validate": ("NetlistStats", "ValidationReport", "stats"),
})

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
