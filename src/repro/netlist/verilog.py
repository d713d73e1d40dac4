r"""Structural Verilog reader and writer for flat gate-level netlists.

This supports the subset that synthesized, flattened netlists (such as the
ITC99 gate-level releases) actually use:

* one ``module`` with a port list,
* ``input`` / ``output`` / ``wire`` declarations, scalar or vectored
  (``input [7:0] a;`` — vector bits are canonicalized to ``a_<i>``),
* gate instantiations with named connections
  (``NAND2 U7 (.A(n1), .B(n2), .Z(n3));``) or positional connections with
  the output first (``nand U7 (n3, n1, n2);``),
* ``assign y = x;``, ``assign y = 1'b0;`` and ``assign y = 1'b1;``
  (lowered to BUF / TIE gates),
* ``//`` line comments and ``/* */`` block comments,
* escaped identifiers (``\count[3] ``, ``\3$bad.name ``): a leading
  backslash up to the next whitespace names the net/instance/module
  literally (no bit-select canonicalization inside).  The writer escapes
  any name that is not a plain Verilog identifier, so a parse → write →
  parse round-trip is the identity even on hostile namespaces (e.g. the
  ones :func:`repro.synth.anonymize.anonymize` produces in ``hostile``
  naming mode).

Pin conventions: the output pin is named ``Z``, ``Y``, ``O``, ``OUT`` or
``Q``; a flip-flop's data pin is ``D``; a mux's select pin is ``S`` and its
data pins ``A`` (sel=0) and ``B`` (sel=1); other input pins are taken in
alphabetical order (``A``, ``B``, ``C``...), which matches how the writer
emits them.  Clock/reset pins (``CK``, ``CLK``, ``CP``, ``R``, ``RN``,
``RST``) on flip-flops are accepted and dropped — the structural analysis
treats registers as cone boundaries, so clock wiring is irrelevant to it.

Line order of gate instantiations is preserved: the first-level grouping of
the paper (Section 2.2) depends on it.

Gates with more inputs than there are pin letters before ``Z`` (25) are
written with positional connections, output first.

Two readers share :func:`parse_verilog`.  A fast reader takes
:func:`write_verilog`'s own layout line by line (one statement per line,
plain identifiers, the writer's pin order); on the first line outside
that layout it gives up and the whole text goes to the general parser.
Both build the same netlist from any text the fast reader accepts
(``tests/netlist/test_parse_fuzz.py`` checks this differentially).

Error handling: the general parser runs in recovery mode — a bad
statement is recorded as a :class:`VerilogDiagnostic` (source line,
column, offending token) and parsing continues with the next statement,
so one corrupted netlist surfaces *all* of its problems (up to
``max_errors``) in a single :class:`VerilogError` instead of one at a
time.  It is the only source of diagnostics.  A vector range may not
declare more nets, in total, than the source text has characters, so a
short hostile body cannot make the parser allocate without bound.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .cells import BUF, CellLibrary, CellType, LIBRARY, TIE0, TIE1
from .netlist import Netlist, NetlistError

__all__ = [
    "parse_verilog",
    "parse_verilog_file",
    "write_verilog",
    "escape_identifier",
    "VerilogError",
    "VerilogDiagnostic",
]

_OUTPUT_PINS = ("Z", "Y", "O", "OUT", "Q")

_COMMENT_RE = re.compile(r"//[^\n]*|/\*.*?\*/", re.DOTALL)
_DECL_RE = re.compile(
    r"^(input|output|wire)\s+(?:\[(\d+)\s*:\s*(\d+)\]\s+)?(.+)$", re.DOTALL
)
_INSTANCE_RE = re.compile(r"^(\w+)\s+(\S+)\s*\((.*)\)$", re.DOTALL)
_NAMED_PIN_RE = re.compile(r"\.\s*(\w+)\s*\(\s*([^)]*?)\s*\)")
_ASSIGN_RE = re.compile(r"^assign\s+(\S+)\s*=\s*(\S+)$")
_BIT_SELECT_RE = re.compile(r"^(\w+)\s*\[\s*(\d+)\s*\]$")
_MODULE_RE = re.compile(r"^module\s+(\\\S+|\w+)")
_PLAIN_ID_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
#: Names the writer must escape even though they lex as identifiers.
_VERILOG_KEYWORDS = frozenset(
    ("module", "endmodule", "input", "output", "wire", "assign")
)

#: Input pins of a combinational cell, in order: the letters before the
#: output pin ``Z``.  A wider gate is written positionally.
_INPUT_PINS = tuple(chr(code) for code in range(ord("A"), ord("Z")))

# write_verilog's layout, as _read_canonical reads it: one statement per
# line, two-space indentation, plain ASCII identifiers.
_CANON_ID = r"[A-Za-z_][A-Za-z0-9_]*"
_CANON_HEADER_RE = re.compile(rf"module ({_CANON_ID}) \([^;]*\);")
_CANON_DECL_RE = re.compile(rf"  (input|output|wire) ({_CANON_ID});")
_CANON_INSTANCE_RE = re.compile(
    rf"  ({_CANON_ID}) ({_CANON_ID}) \(\.([A-Z])\(({_CANON_ID})\)"
    rf"((?:, \.[A-Z]\({_CANON_ID}\))*)\);"
)
_CANON_PIN_RE = re.compile(rf", \.([A-Z])\(({_CANON_ID})\)")
#: The writer's two-input line (most gates of a mapped design), read
#: with one match instead of the instance and pin patterns.
_CANON_PAIR_RE = re.compile(
    rf"  ({_CANON_ID}) ({_CANON_ID}) \(\.Z\(({_CANON_ID})\), "
    rf"\.A\(({_CANON_ID})\), \.B\(({_CANON_ID})\)\);"
)
#: A statement starting with a keyword is never an instance (the general
#: parser reads ``module...`` as a header and ``input x`` etc. as
#: declarations), so the fast reader leaves such cells to it.
_KEYWORD_PREFIXES = tuple(_VERILOG_KEYWORDS)


def escape_identifier(name: str) -> str:
    """``name`` as it must appear in Verilog source.

    Plain identifiers pass through; anything else (bracketed bits, leading
    digits, ``$``/``.``/``:`` characters, keywords) becomes an escaped
    identifier — a backslash followed by the name and a terminating space,
    per the Verilog LRM.  Names containing whitespace or the structural
    delimiters ``( ) ; , /`` cannot be represented and are rejected.
    """
    if _PLAIN_ID_RE.match(name) and name not in _VERILOG_KEYWORDS:
        return name
    if (
        not name
        or any(c in name for c in "();,/\\")
        or any(c.isspace() for c in name)
    ):
        raise VerilogError(f"name {name!r} cannot be written to Verilog")
    return f"\\{name} "


@dataclass(frozen=True)
class VerilogDiagnostic:
    """One parse problem: where it is and what was found there.

    ``line`` / ``column`` are 1-based source coordinates; ``token`` is the
    offending token when the parser could isolate one (e.g. the unknown
    cell type), empty otherwise.
    """

    line: int
    column: int
    message: str
    token: str = ""

    def describe(self) -> str:
        suffix = f" (token {self.token!r})" if self.token else ""
        return f"line {self.line}:{self.column}: {self.message}{suffix}"

    def as_dict(self) -> Dict:
        return {
            "line": self.line,
            "column": self.column,
            "message": self.message,
            "token": self.token,
        }


class VerilogError(ValueError):
    """Raised when the input is outside the supported structural subset.

    ``diagnostics`` lists every problem collected before giving up (at
    most the ``max_errors`` passed to :func:`parse_verilog`); ``token``
    is set on single-statement errors that could isolate the offending
    token.
    """

    def __init__(self, message: str, diagnostics=None, token: str = ""):
        self.diagnostics: List[VerilogDiagnostic] = list(diagnostics or [])
        self.token = token
        super().__init__(message)


def _canon_net(token: str) -> str:
    """Canonicalize a net reference: ``a[3]`` becomes ``a_3``.

    An escaped identifier (leading backslash) names the net literally —
    its brackets are part of the name, never a bit select.
    """
    token = token.strip()
    if token.startswith("\\"):
        return token[1:]
    match = _BIT_SELECT_RE.match(token)
    if match:
        return f"{match.group(1)}_{match.group(2)}"
    return token


def _strip_comments(text: str) -> str:
    """Blank out comments, preserving every newline for line numbering."""
    return _COMMENT_RE.sub(
        lambda m: "\n" * m.group(0).count("\n") + " ", text
    )


def _split_statements(text: str) -> List[Tuple[str, int, int]]:
    """Strip comments and split on ``;`` into (statement, line, column).

    Statement text is kept intact (internal newlines included) so error
    reports can locate tokens inside it; line and column (1-based) are
    where the statement's first non-blank character sits in the source.
    """
    text = _strip_comments(text)
    statements: List[Tuple[str, int, int]] = []
    line = 1
    for chunk in text.split(";"):
        stripped = chunk.strip()
        if stripped:
            leading = chunk[: len(chunk) - len(chunk.lstrip())]
            last_nl = leading.rfind("\n")
            column = len(leading) - last_nl if last_nl >= 0 else len(leading) + 1
            statements.append((stripped, line + leading.count("\n"), column))
        line += chunk.count("\n")
    return statements


def _locate(
    stmt: str, start_line: int, start_col: int, token: str
) -> Tuple[int, int]:
    """(line, column) of ``token`` inside a statement starting at
    ``start_line``/``start_col`` — the statement start when the token
    can't be found."""
    idx = stmt.find(token) if token else -1
    if idx < 0:
        return start_line, start_col
    prefix = stmt[:idx]
    newlines = prefix.count("\n")
    last_nl = prefix.rfind("\n")
    if last_nl >= 0:
        return start_line + newlines, idx - last_nl
    return start_line, start_col + idx


def parse_verilog(
    text: str, library: CellLibrary = LIBRARY, max_errors: int = 10
) -> Netlist:
    """Parse structural Verilog source into a :class:`Netlist`.

    Text in :func:`write_verilog`'s layout is read by a fast reader;
    anything else, and any text the fast reader cannot build a netlist
    from, goes to the general parser.  That parser recovers from bad
    statements: each is recorded as a :class:`VerilogDiagnostic` and the
    parser moves to the next statement, raising one :class:`VerilogError`
    carrying every diagnostic at the end (or as soon as ``max_errors``
    are collected).
    """
    if max_errors < 1:
        raise ValueError("max_errors must be >= 1")
    netlist = _read_canonical(text, library)
    if netlist is None:
        netlist = _parse_recovering(text, library, max_errors)
    return netlist


def _parse_recovering(
    text: str, library: CellLibrary, max_errors: int
) -> Netlist:
    """The general parser: statement by statement, collecting a
    diagnostic for each bad one (see :func:`parse_verilog`)."""
    statements = _split_statements(text)
    netlist: Optional[Netlist] = None
    tie_counter = 0
    # Nets the vector declarations may still expand to (see
    # _apply_declaration).
    vector_budget = len(text)
    diagnostics: List[VerilogDiagnostic] = []

    def record(
        stmt: str, start_line: int, start_col: int, message: str, token: str
    ) -> None:
        line, column = _locate(stmt, start_line, start_col, token)
        diagnostics.append(
            VerilogDiagnostic(
                line=line, column=column, message=message, token=token
            )
        )
        if len(diagnostics) >= max_errors:
            _raise_collected(diagnostics, truncated=True)

    for raw_stmt, start_line, start_col in statements:
        stmt = " ".join(raw_stmt.split())
        try:
            if stmt.startswith("module"):
                header = _MODULE_RE.match(stmt)
                if not header:
                    raise VerilogError(f"malformed module header: {stmt!r}")
                name = header.group(1)
                if name.startswith("\\"):
                    name = name[1:]
                netlist = Netlist(name)
                continue
            if stmt == "endmodule":
                continue
            if netlist is None:
                raise VerilogError("statement before module header")
            decl = _DECL_RE.match(stmt)
            if decl:
                vector_budget = _apply_declaration(
                    netlist, decl, vector_budget
                )
                continue
            assign = _ASSIGN_RE.match(stmt)
            if assign:
                tie_counter = _apply_assign(netlist, assign, tie_counter)
                continue
            # An instance ends with ")".  Checking that first keeps the
            # regex from retrying a long statement that lacks one from
            # every "(" in it, which is quadratic in its length.
            inst = stmt.endswith(")") and _INSTANCE_RE.match(stmt)
            if inst:
                _apply_instance(netlist, inst, library)
                continue
            raise VerilogError(f"unsupported statement: {stmt!r}")
        except VerilogError as exc:
            record(raw_stmt, start_line, start_col, str(exc), exc.token)
    if diagnostics:
        _raise_collected(diagnostics, truncated=False)
    if netlist is None:
        raise VerilogError("no module found")
    return netlist


def _raise_collected(
    diagnostics: List[VerilogDiagnostic], truncated: bool
) -> None:
    count = f"{len(diagnostics)}{'+' if truncated else ''}"
    listing = "\n  ".join(d.describe() for d in diagnostics)
    raise VerilogError(
        f"{count} parse error(s):\n  {listing}", diagnostics=diagnostics
    )


def parse_verilog_file(path, library: CellLibrary = LIBRARY) -> Netlist:
    with open(path) as handle:
        return parse_verilog(handle.read(), library)


class _OffLayout(Exception):
    """Internal: a line outside :func:`write_verilog`'s layout."""


def _read_canonical(text: str, library: CellLibrary) -> Optional[Netlist]:
    """Read text in :func:`write_verilog`'s exact layout, or ``None``.

    The layout is the module header on the first line, then one
    two-space-indented statement per line — ``input``/``output``/``wire``
    of one plain identifier, or an instance with the writer's named pins
    (``.Q .D`` for flip-flops, ``.Z .S .A .B`` for muxes, ``.Z .A .B ...``
    otherwise) — and ``endmodule`` on the last line.  The netlist is
    built while the lines are read, by :meth:`Netlist._from_rows`, which
    refuses what :meth:`Netlist.add_gate` refuses.  Where this returns a
    netlist, the general parser builds an equal one; on any other line,
    an unknown cell, or a refused gate, it returns ``None`` and leaves
    the text (and its diagnostics) to that parser.
    """
    if "/" in text or "\\" in text:  # comments, escaped identifiers
        return None
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    if len(lines) < 2 or lines[-1] != "endmodule":
        return None
    header = _CANON_HEADER_RE.fullmatch(lines[0])
    if header is None:  # the port list is ignored, as the parser does
        return None
    inputs: List[str] = []
    outputs: List[str] = []
    try:
        return Netlist._from_rows(
            header.group(1), inputs, outputs,
            _canonical_rows(lines, library, inputs, outputs),
        )
    except (_OffLayout, ValueError):  # NetlistError, or an arity check
        return None


def _canonical_rows(
    lines: List[str],
    library: CellLibrary,
    inputs: List[str],
    outputs: List[str],
) -> Iterator[Tuple[str, CellType, Tuple[str, ...], str]]:
    """The gate rows of the statement lines ``lines[1:-1]``, for
    :meth:`Netlist._from_rows`; port declarations are appended to
    ``inputs``/``outputs`` on the way.  Raises :class:`_OffLayout` on a
    line outside the layout or an instance of an unknown cell.

    Every name is kept as one ``str`` per distinct spelling: a net is
    written once per declaration, driver and fanout pin, and the writer
    often names a gate after its output, so the rows and ports share one
    object per name instead of a copy per occurrence."""
    declaration = _CANON_DECL_RE.fullmatch
    pair = _CANON_PAIR_RE.fullmatch
    instance = _CANON_INSTANCE_RE.fullmatch
    pins_of = _CANON_PIN_RE.findall
    names: Dict[str, str] = {}
    intern = names.setdefault
    cells: Dict[str, CellType] = {}
    pair_cells: Dict[str, CellType] = {}
    for index in range(1, len(lines) - 1):
        line = lines[index]
        decl = declaration(line)
        if decl is not None:
            kind, net = decl.groups()
            if kind == "input":
                inputs.append(intern(net, net))
            elif kind == "output":
                outputs.append(intern(net, net))
            continue
        match = pair(line)
        if match is not None:
            cell_name, name, output, a, b = match.groups()
            cell = pair_cells.get(cell_name)
            if cell is None:
                cell = _pair_cell(cell_name, library)
                if cell is None:
                    raise _OffLayout
                pair_cells[cell_name] = cell
            yield (
                intern(name, name), cell, (intern(a, a), intern(b, b)),
                intern(output, output),
            )
            continue
        match = instance(line)
        if match is None:
            raise _OffLayout
        cell_name, name, out_pin, output, connections = match.groups()
        cell = cells.get(cell_name)
        if cell is None:
            if (
                cell_name.startswith(_KEYWORD_PREFIXES)
                or cell_name not in library
            ):
                raise _OffLayout
            cell = cells[cell_name] = library.get(cell_name)
        pairs = pins_of(connections)
        pins = tuple([pin for pin, _ in pairs])
        if (out_pin, pins) != _pin_names(cell, len(pins)):
            raise _OffLayout
        yield (
            intern(name, name), cell,
            tuple([intern(net, net) for _, net in pairs]),
            intern(output, output),
        )


def _pair_cell(cell_name: str, library: CellLibrary) -> Optional[CellType]:
    """The cell of a two-input line ``.Z .A .B`` of ``cell_name``, or
    ``None`` where the instance path would refuse the line: a keyword
    cell name, a cell outside the library, or a cell whose writer pins
    are not ``.Z .A .B`` (flip-flops, muxes)."""
    if cell_name.startswith(_KEYWORD_PREFIXES) or cell_name not in library:
        return None
    cell = library.get(cell_name)
    if _pin_names(cell, 2) != ("Z", ("A", "B")):
        return None
    return cell


def _apply_declaration(
    netlist: Netlist, decl: "re.Match[str]", budget: int
) -> int:
    """Declare the ports one ``input``/``output`` statement names.

    ``budget`` is how many more nets vector ranges may expand to (it
    starts at the source text's length); a range that would overdraw it
    is a diagnostic, raised before any net is built.  Returns what is
    left of it.
    """
    kind, msb, lsb, names = decl.groups()
    if kind == "wire":
        return budget  # wires need no declaration in the model
    add = netlist.add_input if kind == "input" else netlist.add_output
    for raw in names.split(","):
        base = raw.strip()
        if not base:
            continue
        if base.startswith("\\"):
            # Escaped identifier: the name is literal, never a vector.
            nets = [base[1:].strip()]
        elif msb is not None:
            try:
                hi, lo = int(msb), int(lsb)
                width = abs(hi - lo) + 1
            except ValueError:  # more digits than int() converts
                width = budget + 1
            if width > budget:
                raise VerilogError(
                    f"vector range [{msb}:{lsb}] on {base!r} would declare "
                    f"more nets than the source text has characters",
                    token=msb,
                )
            budget -= width
            step = 1 if hi >= lo else -1
            nets = [f"{base}_{i}" for i in range(lo, hi + step, step)]
        else:
            nets = [base]
        try:
            for net in nets:
                add(net)
        except NetlistError as exc:
            raise VerilogError(f"{kind} declaration: {exc}") from exc
    return budget


def _apply_assign(netlist: Netlist, match: "re.Match[str]", tie_counter: int) -> int:
    target = _canon_net(match.group(1))
    source = match.group(2)
    if source in ("1'b0", "1'B0"):
        name, cell, inputs = f"_tie{tie_counter}", TIE0, []
        tie_counter += 1
    elif source in ("1'b1", "1'B1"):
        name, cell, inputs = f"_tie{tie_counter}", TIE1, []
        tie_counter += 1
    else:
        name, cell, inputs = f"_buf_{target}", BUF, [_canon_net(source)]
    try:
        netlist.add_gate(name, cell, inputs, target)
    except (NetlistError, ValueError) as exc:
        raise VerilogError(f"assign to {target!r}: {exc}") from exc
    return tie_counter


def _apply_instance(
    netlist: Netlist, match: "re.Match[str]", library: CellLibrary
) -> None:
    cell_name, inst_name, body = match.groups()
    if inst_name.startswith("\\"):
        inst_name = inst_name[1:]
    try:
        cell = library.get(cell_name)
    except KeyError as exc:
        raise VerilogError(
            f"unknown cell type {cell_name!r} on instance {inst_name!r}",
            token=cell_name,
        ) from exc
    # A pin ends with ")", so none starts after the body's last one.
    # The bound keeps the lazy match from scanning to the end of the body
    # from every "." after it, which is quadratic in its length.
    named = _NAMED_PIN_RE.findall(body, 0, body.rfind(")") + 1)
    if named:
        pins: Dict[str, str] = {
            pin.upper(): _canon_net(net) for pin, net in named if net.strip()
        }
        output = None
        for candidate in _OUTPUT_PINS:
            if candidate in pins:
                output = pins.pop(candidate)
                break
        if output is None:
            raise VerilogError(f"no output pin on instance {inst_name!r}")
        if cell.sequential:
            if "D" not in pins:
                raise VerilogError(f"flip-flop {inst_name!r} has no D pin")
            inputs = [pins["D"]]  # clock/reset pins are dropped (see module doc)
        elif cell.family == "mux":
            try:
                inputs = [pins["S"], pins["A"], pins["B"]]
            except KeyError as exc:
                raise VerilogError(
                    f"mux {inst_name!r} needs pins S, A, B"
                ) from exc
        else:
            inputs = [pins[pin] for pin in sorted(pins)]
    else:
        nets = [_canon_net(t) for t in body.split(",") if t.strip()]
        if not nets:
            raise VerilogError(f"empty connection list on {inst_name!r}")
        output, inputs = nets[0], nets[1:]
    try:
        netlist.add_gate(inst_name, cell, inputs, output)
    except (NetlistError, ValueError) as exc:
        raise VerilogError(f"instance {inst_name!r}: {exc}") from exc


# ----------------------------------------------------------------------
# writer
# ----------------------------------------------------------------------

def _pin_names(cell: CellType, count: int) -> Tuple[str, Tuple[str, ...]]:
    """(output pin, input pins) the writer names for a ``cell`` gate with
    ``count`` inputs; the fast reader accepts exactly these."""
    if cell.sequential:
        return "Q", ("D",)
    if cell.family == "mux":
        return "Z", ("S", "A", "B")
    return "Z", _INPUT_PINS[:count]


def _sized_cell_name(gate) -> str:
    """NAND with 3 inputs is written ``NAND3``, matching mapped netlists."""
    if gate.cell.family in ("and", "or", "xor") and len(gate.inputs) >= 2:
        return f"{gate.cell.name}{len(gate.inputs)}"
    return gate.cell.name


def write_verilog(netlist: Netlist) -> str:
    """Serialize a netlist to structural Verilog (named connections).

    Gate instantiations are written in file order so a parse/write
    round-trip preserves the adjacency structure the grouping stage uses.
    Names outside the plain-identifier grammar are written as escaped
    identifiers, so ``parse_verilog(write_verilog(n)) == n`` holds for any
    netlist this package can represent.
    """
    escaped: Dict[str, str] = {}

    def esc(name: str) -> str:
        # A net is written once per declaration, driver and fanout pin;
        # check its spelling once.
        text = escaped.get(name)
        if text is None:
            text = escaped[name] = escape_identifier(name)
        return text

    ports = netlist.ports()
    lines = [
        f"module {esc(netlist.name)} ({', '.join(esc(p) for p in ports)});"
    ]
    for net in netlist.primary_inputs:
        lines.append(f"  input {esc(net)};")
    for net in netlist.primary_outputs:
        lines.append(f"  output {esc(net)};")
    for net in sorted(netlist.internal_nets()):
        lines.append(f"  wire {esc(net)};")
    for gate in netlist.gates_in_file_order():
        if len(gate.inputs) > len(_INPUT_PINS):
            # More inputs than pin letters: positional, output first.
            conns = [esc(gate.output)]
            conns.extend(esc(net) for net in gate.inputs)
        else:
            out_pin, in_pins = _pin_names(gate.cell, len(gate.inputs))
            conns = [f".{out_pin}({esc(gate.output)})"]
            conns.extend(
                f".{pin}({esc(net)})"
                for pin, net in zip(in_pins, gate.inputs)
            )
        lines.append(
            f"  {_sized_cell_name(gate)} {esc(gate.name)} "
            f"({', '.join(conns)});"
        )
    # The trailing newline rides on the last line: appending it to the
    # joined text would copy the whole file (7 MB on b18) at the peak of
    # a request, when the store commits the body after the analysis.
    lines.append("endmodule\n")
    return "\n".join(lines)
