"""ISCAS ``.bench`` format reader and writer.

The ``.bench`` format is the lingua franca of the classic reverse
engineering literature (Hansen et al.'s ISCAS-85 study [2] in the paper's
references works on these circuits), so the library speaks it alongside
structural Verilog.  Example::

    # a comment
    INPUT(a)
    INPUT(b)
    OUTPUT(y)
    n1 = NAND(a, b)
    y = NOT(n1)
    s = DFF(y)

Line order of gate definitions is preserved, as required by the grouping
stage.  ``DFF`` lines define registers; their left-hand net is the register
output (cone leaf) and the argument is the D-input net (word candidate).
"""

from __future__ import annotations

import re
from typing import List

from .cells import CellLibrary, LIBRARY
from .netlist import Netlist, NetlistError

__all__ = ["parse_bench", "parse_bench_file", "write_bench", "BenchError"]

_IO_RE = re.compile(r"^(INPUT|OUTPUT)\s*\(\s*([^)]+?)\s*\)$", re.IGNORECASE)
_GATE_RE = re.compile(r"^(\S+)\s*=\s*(\w+)\s*\(\s*([^)]*?)\s*\)$")


class BenchError(ValueError):
    """Raised on malformed ``.bench`` input."""


def parse_bench(text: str, library: CellLibrary = LIBRARY) -> Netlist:
    """Parse ``.bench`` source into a :class:`Netlist`."""
    netlist = Netlist("bench")
    counter = 0
    for raw_line in text.splitlines():
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        io_match = _IO_RE.match(line)
        if io_match:
            kind, net = io_match.groups()
            try:
                if kind.upper() == "INPUT":
                    netlist.add_input(net.strip())
                else:
                    netlist.add_output(net.strip())
            except NetlistError as exc:
                raise BenchError(f"{line!r}: {exc}") from exc
            continue
        gate_match = _GATE_RE.match(line)
        if gate_match:
            output, cell_name, args = gate_match.groups()
            try:
                cell = library.get(cell_name)
            except KeyError as exc:
                raise BenchError(f"{line!r}: {exc}") from exc
            inputs = [a.strip() for a in args.split(",") if a.strip()]
            counter += 1
            try:
                netlist.add_gate(f"g{counter}_{output}", cell, inputs, output)
            except (NetlistError, ValueError) as exc:
                raise BenchError(f"{line!r}: {exc}") from exc
            continue
        raise BenchError(f"unsupported line: {raw_line!r}")
    return netlist


def parse_bench_file(path, library: CellLibrary = LIBRARY) -> Netlist:
    with open(path) as handle:
        return parse_bench(handle.read(), library)


def write_bench(netlist: Netlist) -> str:
    """Serialize to ``.bench``, keeping gate definition order."""
    lines: List[str] = [f"# {netlist.name}"]
    for net in netlist.primary_inputs:
        lines.append(f"INPUT({net})")
    for net in netlist.primary_outputs:
        lines.append(f"OUTPUT({net})")
    for gate in netlist.gates_in_file_order():
        name = "NOT" if gate.cell.name == "INV" else gate.cell.name
        lines.append(f"{gate.output} = {name}({', '.join(gate.inputs)})")
    return "\n".join(lines) + "\n"
