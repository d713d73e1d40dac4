"""The two Verilog readers agree, and neither parser raises a stray error.

``parse_verilog`` first tries ``_read_canonical``, a fast reader for
``write_verilog``'s own layout, and hands any other text to the general
(recovering) parser, which is the only source of diagnostics.  The
contract between them, checked on writer text and on line and character
mutations of it:

* the fast reader returns ``None`` or a netlist equal to the general
  parser's (``==`` and ``netlist_digest``);
* whenever the general parser raises, the fast reader returns ``None``.

Separately, ``parse_verilog`` raises nothing but ``VerilogError`` and
``parse_bench`` nothing but ``BenchError`` on any input, and the fast
path really fires on the designs the pipeline reads: all 12 ITC99
designs and the first 64 samples of the seed-0 fuzz campaign.
"""

from __future__ import annotations

import functools
import itertools
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fuzz import generate, sample_seed
from repro.netlist import AND, LIBRARY, CellLibrary, CellType, Netlist
from repro.netlist import NetlistBuilder
from repro.netlist.bench import BenchError, parse_bench, write_bench
from repro.netlist.verilog import (
    VerilogError,
    _parse_recovering,
    _read_canonical,
    parse_verilog,
    write_verilog,
)
from repro.store import netlist_digest
from repro.synth.anonymize import anonymize
from repro.synth.designs import BENCHMARKS

FUZZ = settings(
    derandomize=True,
    deadline=None,
    max_examples=(
        2000 if os.environ.get("HYPOTHESIS_PROFILE") == "nightly" else 150
    ),
    suppress_health_check=[HealthCheck.too_slow],
)
REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)
)))


def _wide(inputs: int) -> Netlist:
    netlist = Netlist(f"wide{inputs}")
    nets = [f"i{k}" for k in range(inputs)]
    for net in nets:
        netlist.add_input(net)
    netlist.add_gate("g", AND, nets, "y")
    netlist.add_output("y")
    return netlist


def _cells() -> Netlist:
    """One of every pin layout the writer emits (DFF, MUX, TIE, INV,
    NAND, XOR)."""
    b = NetlistBuilder("cells")
    x, y, s = b.inputs("x", "y", "s")
    n = b.nand(x, y)
    q = b.dff(n, output="state_reg_0")
    z = b.mux(s, n, q)
    w = b.xor(z, x)
    b.output(b.inv(w), name="out")
    netlist = b.build()
    netlist.add_gate("tie", LIBRARY.get("TIE1"), [], "one")
    # A register on an undriven net: with its pins swapped, the fast
    # reader could build it backwards without an add_gate error.
    netlist.add_gate("hold", LIBRARY.get("DFF"), ["loose"], "held")
    return netlist


@functools.lru_cache(maxsize=None)
def _seeds():
    """Writer texts the mutations start from: small ITC99 designs, fuzz
    samples, a hostile-anonymized design, every pin layout, and gates
    just at and just past the named-pin limit."""
    netlists = [BENCHMARKS[name]() for name in ("b03", "b04", "b13")]
    netlists += [generate(sample_seed(0, i)).netlist for i in range(3)]
    netlists.append(anonymize(netlists[0], naming="hostile").netlist)
    netlists += [_cells(), _wide(25), _wide(26)]
    return tuple(write_verilog(n) for n in netlists)


#: Names that collide with statement keywords or look like them.
_NAMES = (
    "module", "moduleX", "endmodule", "input", "inputs", "output", "wire",
    "assign", "Module", "AND2", "and3", "NAND9", "DFF", "MUX2", "BOGUS",
    "x", "_u", "9z",
)


def _instance_lines(lines):
    return [i for i, line in enumerate(lines) if " (." in line]


@st.composite
def mutated_verilog(draw):
    text = draw(st.sampled_from(_seeds()))
    lines = text.split("\n")
    kind = draw(st.sampled_from((
        "none", "swap_pins", "drop_pin", "dup_pin", "cell_name",
        "instance_name", "crlf", "comment", "after_endmodule",
        "two_modules", "move_line", "dup_line", "drop_line",
        "drive_input", "char", "indent", "pin_case", "vector", "named_26",
    )))
    gates = _instance_lines(lines)
    if kind in ("swap_pins", "drop_pin", "dup_pin", "cell_name",
                "instance_name", "pin_case") and gates:
        index = draw(st.sampled_from(gates))
        line = lines[index]
        head, _, body = line.partition(" (")
        pins = body[:-2].split(", ")
        if kind == "swap_pins" and len(pins) > 1:
            a = draw(st.integers(0, len(pins) - 1))
            b = draw(st.integers(0, len(pins) - 1))
            pins[a], pins[b] = pins[b], pins[a]
        elif kind == "drop_pin":
            del pins[draw(st.integers(0, len(pins) - 1))]
        elif kind == "dup_pin":
            pins.append(pins[draw(st.integers(0, len(pins) - 1))])
        elif kind == "pin_case":
            at = draw(st.integers(0, len(pins) - 1))
            pins[at] = pins[at][:2].lower() + pins[at][2:]
        words = head.split(" ")  # ["", "", cell, instance]
        if kind == "cell_name":
            words[2] = draw(st.sampled_from(_NAMES))
        elif kind == "instance_name":
            words[3] = draw(st.sampled_from(_NAMES))
        lines[index] = " ".join(words) + " (" + ", ".join(pins) + ");"
    elif kind == "crlf":
        return text.replace("\n", "\r\n")
    elif kind == "comment":
        at = draw(st.integers(1, len(lines) - 2))
        lines.insert(at, draw(st.sampled_from(
            ("  // a comment", "  /* block */", "/* a\n b */")
        )))
    elif kind == "after_endmodule":
        return text + draw(st.sampled_from((
            "\n", "  AND2 late (.Z(late), .A(a), .B(b));\n", "junk\n",
            ";\n", "endmodule\n",
        )))
    elif kind == "two_modules":
        return text + draw(
            st.sampled_from((text, "module other ();\nendmodule\n"))
        )
    elif kind in ("move_line", "dup_line", "drop_line"):
        at = draw(st.integers(1, len(lines) - 3))
        line = lines[at] if kind != "drop_line" else lines.pop(at)
        if kind == "move_line":
            lines.pop(at)
        if kind != "drop_line":
            lines.insert(draw(st.integers(1, len(lines) - 2)), line)
    elif kind == "drive_input" and gates:
        # Declare a gate-driven net as a primary input.
        line = lines[draw(st.sampled_from(gates))]
        net = line.split("(", 2)[2].split(")", 1)[0]
        lines.insert(len(lines) - 2, f"  input {net};")
    elif kind == "char":
        text = "\n".join(lines)
        at = draw(st.integers(0, len(text) - 1))
        char = draw(st.sampled_from(" ;,.()[]:\\/\t\nZAQD0_$é"))
        return text[:at] + char + text[at + 1:]
    elif kind == "indent":
        at = draw(st.integers(1, len(lines) - 3))
        pad = draw(st.sampled_from(("", " ", "   ", "\t")))
        lines[at] = pad + lines[at].lstrip(" ")
    elif kind == "vector":
        lines.insert(1, draw(st.sampled_from(
            ("  input [3:0] vec;", "  wire [1:0] w;", "  output [0:0] o;")
        )))
    elif kind == "named_26":
        # A 26-input gate with named pins: the 26th input's pin is .Z,
        # the output pin (what the writer produced before it switched
        # wide gates to positional connections).
        pins = [f".{chr(65 + k)}(i{k})" for k in range(26)]
        lines.insert(
            len(lines) - 2, f"  AND26 old (.Z(old), {', '.join(pins)});"
        )
    return "\n".join(lines)


def _check_contract(text: str, library: CellLibrary = LIBRARY) -> None:
    fast = _read_canonical(text, library)
    try:
        general = _parse_recovering(text, library, 10)
    except VerilogError:
        assert fast is None
        return
    if fast is not None:
        assert fast == general
        assert netlist_digest(fast) == netlist_digest(general)


class TestDifferential:
    @FUZZ
    @given(mutated_verilog())
    def test_fast_reader_agrees_with_the_general_parser(self, text):
        _check_contract(text)

    def test_seed_texts(self):
        for text in _seeds():
            _check_contract(text)

    @pytest.mark.parametrize("inputs", [25, 26, 30])
    def test_wide_gates_round_trip(self, inputs):
        netlist = _wide(inputs)
        text = write_verilog(netlist)
        assert parse_verilog(text) == netlist
        # Up to 25 inputs the pins are named A..Y; wider gates are
        # written positionally, which only the general parser reads.
        assert (_read_canonical(text, LIBRARY) is not None) == (inputs <= 25)

    def test_narrow_gates_keep_their_named_pins(self):
        line = write_verilog(_wide(25)).splitlines()[-2]
        assert line.startswith("  AND25 g (.Z(y), .A(i0), .B(i1), ")
        assert line.endswith(", .Y(i24));")

    def test_a_26_pin_named_gate_is_left_to_the_general_parser(self):
        pins = ", ".join(f".{chr(65 + k)}(i{k})" for k in range(26))
        text = f"module m ();\n  AND26 g (.Z(y), {pins});\nendmodule\n"
        assert _read_canonical(text, LIBRARY) is None
        # The general parser takes the last .Z as the output pin.
        assert parse_verilog(text).gate("g").output == "i25"

    @pytest.mark.parametrize(
        "cell", ["module", "moduleX", "input", "output", "wire", "assign"]
    )
    def test_statement_keywords_are_never_instances(self, cell):
        # Even where the library has a cell of that name, the general
        # parser reads the line as a header or a declaration.
        library = CellLibrary([
            *LIBRARY.types(), CellType(cell.upper(), "and", False, 2, None)
        ])
        text = f"module m ();\n  {cell} g (.Z(y), .A(a), .B(b));\nendmodule\n"
        assert _read_canonical(text, library) is None
        _check_contract(text, library)

    def test_every_pin_order_of_every_layout(self):
        """Each instance line of the writer's layouts (DFF, MUX, TIE,
        INV, NAND, XOR) with its pins permuted, one dropped or one
        duplicated: only the writer's own order may take the fast path."""
        lines = write_verilog(_cells()).split("\n")
        for index in _instance_lines(lines):
            head, _, body = lines[index].partition(" (")
            pins = body[:-2].split(", ")
            variants = set(itertools.permutations(pins))
            variants.update(
                (*pins[:k], *pins[k + 1:]) for k in range(len(pins))
            )
            variants.update((*pins, pin) for pin in pins)
            for variant in variants:
                mutated = list(lines)
                mutated[index] = f"{head} ({', '.join(variant)});"
                text = "\n".join(mutated)
                _check_contract(text)
                if list(variant) != pins:
                    assert _read_canonical(text, LIBRARY) is None, variant

    def test_sized_names_go_through_the_library(self):
        text = (
            "module m ();\n"
            "  AND2 g (.Z(y), .A(a), .B(b), .C(c));\n"
            "endmodule\n"
        )
        fast = _read_canonical(text, LIBRARY)
        assert fast is not None
        assert fast.gate("g").cell is AND
        assert fast.gate("g").inputs == ("a", "b", "c")
        assert fast == _parse_recovering(text, LIBRARY, 10)


# ----------------------------------------------------------------------
# errors: nothing but VerilogError / BenchError
# ----------------------------------------------------------------------

_VERILOG_TOKENS = (
    "module", "endmodule", "input", "output", "wire", "assign", "AND2",
    "DFF", "MUX", "TIE0", "x", "y", "g1", "\\esc[1] ", "[3:0]",
    "[99999999999:0]", "[" + "9" * 5000 + ":0]", "(", ")", ".A", ".Z",
    ".Q", ".D", ".S", ",", ";", "=", "1'b0", "1'b1", "//", "/*", "*/",
    "\n", " ", "é",
)
_BENCH_TOKENS = (
    "INPUT", "OUTPUT", "(", ")", "=", "AND", "NOT", "DFF", "BOGUS", "x",
    "y", "n1", ",", "#", "\n", " ",
)


@st.composite
def verilog_inputs(draw):
    if draw(st.booleans()):
        return draw(mutated_verilog())
    tokens = st.lists(st.sampled_from(_VERILOG_TOKENS), max_size=40)
    return "".join(draw(tokens))


@functools.lru_cache(maxsize=None)
def _bench_seeds():
    return tuple(write_bench(n) for n in (_cells(), BENCHMARKS["b03"]()))


@st.composite
def bench_inputs(draw):
    if draw(st.booleans()):
        tokens = st.lists(st.sampled_from(_BENCH_TOKENS), max_size=40)
        return "".join(draw(tokens))
    lines = draw(st.sampled_from(_bench_seeds())).split("\n")
    at = draw(st.integers(0, len(lines) - 1))
    action = draw(st.sampled_from(("drop", "dup", "input_of_output", "char")))
    if action == "drop":
        lines.pop(at)
    elif action == "dup":
        lines.insert(at, lines[at])
    elif action == "input_of_output":
        driven = [line.split(" = ")[0] for line in lines if " = " in line]
        lines.append(f"INPUT({draw(st.sampled_from(driven))})")
    else:
        line = lines[at]
        if line:
            pos = draw(st.integers(0, len(line) - 1))
            char = draw(st.sampled_from("(),=# x"))
            lines[at] = line[:pos] + char + line[pos + 1:]
    return "\n".join(lines)


class TestErrors:
    @FUZZ
    @given(verilog_inputs())
    def test_parse_verilog_raises_only_verilog_errors(self, text):
        try:
            parse_verilog(text)
        except VerilogError as exc:
            assert exc.diagnostics or str(exc)

    @FUZZ
    @given(bench_inputs())
    def test_parse_bench_raises_only_bench_errors(self, text):
        try:
            parse_bench(text)
        except BenchError:
            pass

    def test_declaring_a_driven_net_is_a_diagnostic(self):
        text = (
            "module m (a, y);\n"
            "  input a;\n"
            "  INV g (.Z(y), .A(a));\n"
            "  input y;\n"
            "endmodule\n"
        )
        with pytest.raises(VerilogError) as info:
            parse_verilog(text)
        (diag,) = info.value.diagnostics
        assert (diag.line, diag.column) == (4, 3)
        assert "already driven" in diag.message

    def test_a_huge_vector_range_is_a_diagnostic_before_any_allocation(
        self
    ):
        """Regression: ``input [99999999999:0] a;`` made the parser build
        10^11 net names.  The child runs under an address-space cap, so a
        regression fails here with a MemoryError instead of exhausting
        the machine."""
        text = "module m (a);\n  input [99999999999:0] a;\nendmodule\n"
        child = (
            "import resource, sys\n"
            "from repro.netlist.verilog import VerilogError, parse_verilog\n"
            "cap = 1 << 30\n"
            "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
            "try:\n"
            "    parse_verilog(sys.argv[1])\n"
            "except VerilogError as exc:\n"
            "    print(exc.diagnostics[0].describe())\n"
        )
        src = os.path.join(REPO, "src")
        done = subprocess.run(
            [sys.executable, "-c", child, text], capture_output=True,
            text=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode == 0, done.stderr[-2000:]
        assert done.stdout.startswith(
            "line 2:10: vector range [99999999999:0]"
        )

    def test_vector_ranges_share_one_budget(self):
        """The cap is on the nets all ranges expand to together, so many
        names under one wide range cannot multiply past it either."""
        assert parse_verilog(
            "module m ();\n  input [30:0] a;\nendmodule\n"
        ).primary_inputs[-1] == "a_30"
        with pytest.raises(VerilogError) as info:
            parse_verilog("module m ();\n  input [30:0] a, b;\nendmodule\n")
        (diag,) = info.value.diagnostics
        assert "on 'b'" in diag.message

    def test_bench_input_of_a_driven_net_is_a_bench_error(self):
        with pytest.raises(BenchError, match="already driven"):
            parse_bench("INPUT(a)\ny = NOT(a)\nINPUT(y)\n")


# ----------------------------------------------------------------------
# coverage: the fast path fires on what the pipeline actually reads
# ----------------------------------------------------------------------

class TestCoverage:
    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_itc99_writer_text_takes_the_fast_path(self, name):
        netlist = BENCHMARKS[name]()
        fast = _read_canonical(write_verilog(netlist), LIBRARY)
        assert fast is not None
        assert fast == netlist

    def test_fuzz_pool_writer_text_takes_the_fast_path(self):
        for index in range(64):
            netlist = generate(sample_seed(0, index)).netlist
            fast = _read_canonical(write_verilog(netlist), LIBRARY)
            assert fast is not None, index
            assert fast == netlist, index
