"""Parser and validator diagnostics on corrupted netlists.

The hardened Verilog parser recovers from bad statements and reports every
problem (up to ``max_errors``) with 1-based line/column coordinates and the
offending token; :func:`repro.netlist.validate.diagnose` turns structural
corruption into machine-readable :class:`Diagnostic` records the engine's
pre-flight check consumes.
"""

import pytest

from repro.netlist import validate
from repro.netlist.cells import AND, NAND
from repro.netlist.netlist import Netlist
from repro.netlist.validate import (
    KIND_COMBINATIONAL_LOOP,
    KIND_FLOATING_INPUT,
    KIND_MULTI_DRIVEN,
    KIND_UNDRIVEN_OUTPUT,
    diagnose,
)
from repro.netlist.verilog import VerilogError, parse_verilog

GOOD = """\
module t (a, b, y);
  input a;
  input b;
  output y;
  NAND2 u1 (.A(a), .B(b), .Y(y));
endmodule
"""


class TestParserDiagnostics:
    def test_good_source_parses(self):
        nl = parse_verilog(GOOD)
        assert nl.num_gates == 1

    def test_unknown_cell_reports_line_and_token(self):
        bad = GOOD.replace("NAND2 u1", "FROB2 u1")
        with pytest.raises(VerilogError) as info:
            parse_verilog(bad)
        (diag,) = info.value.diagnostics
        assert diag.line == 5
        assert diag.column == 3  # two spaces of indentation
        assert diag.token == "FROB2"
        assert "unknown cell type 'FROB2'" in diag.message
        assert "line 5:3" in diag.describe()
        assert "line 5:3" in str(info.value)

    def test_multiple_errors_collected_in_one_raise(self):
        bad = (
            "module t (a, y);\n"
            "  input a;\n"
            "  output y;\n"
            "  FROB2 u1 (.A(a), .B(a), .Y(n1));\n"
            "  garbage statement here;\n"
            "  NAND2 u2 (.A(n1), .B(a), .Y(y));\n"
            "endmodule\n"
        )
        with pytest.raises(VerilogError) as info:
            parse_verilog(bad)
        diags = info.value.diagnostics
        assert len(diags) == 2
        assert [d.line for d in diags] == [4, 5]
        assert "2 parse error(s)" in str(info.value)

    def test_max_errors_caps_collection(self):
        body = "\n".join(
            f"  FROB2 u{i} (.A(a), .B(a), .Y(n{i}));" for i in range(8)
        )
        bad = f"module t (a);\n  input a;\n{body}\nendmodule\n"
        with pytest.raises(VerilogError) as info:
            parse_verilog(bad, max_errors=3)
        assert len(info.value.diagnostics) == 3
        assert "3+ parse error(s)" in str(info.value)

    def test_max_errors_must_be_positive(self):
        with pytest.raises(ValueError):
            parse_verilog(GOOD, max_errors=0)

    def test_comments_do_not_shift_line_numbers(self):
        bad = GOOD.replace(
            "  input b;", "  /* a\n     multi-line\n     comment */ input b;"
        ).replace("NAND2 u1", "FROB2 u1")
        with pytest.raises(VerilogError) as info:
            parse_verilog(bad)
        (diag,) = info.value.diagnostics
        assert diag.line == 7  # comment added two lines above the instance

    def test_diagnostic_dict_schema(self):
        with pytest.raises(VerilogError) as info:
            parse_verilog(GOOD.replace("NAND2", "FROB2"))
        assert info.value.diagnostics[0].as_dict() == {
            "line": 5,
            "column": 3,
            "message": info.value.diagnostics[0].message,
            "token": "FROB2",
        }

    def test_parse_continues_past_bad_statement(self):
        # The recoverable parser still reports the good gates' nets in
        # the diagnostics of later statements, proving it kept going.
        bad = GOOD.replace("  input b;", "  bogus b;")
        with pytest.raises(VerilogError) as info:
            parse_verilog(bad)
        assert len(info.value.diagnostics) == 1
        assert "unsupported statement" in info.value.diagnostics[0].message


    @pytest.mark.parametrize("assign, message", [
        ("  assign y = b;\n", "assign to 'y'"),
        ("  assign a = b;\n", "net 'a' is a primary input"),
    ], ids=["second-driver", "onto-input"])
    def test_conflicting_assign_is_a_diagnostic(self, assign, message):
        # Line 6, after a first ``assign y = a;``; the parser keeps going
        # and still reports the bad instance on line 7.
        bad = (
            "module t (a, b, y);\n  input a;\n  input b;\n  output y;\n"
            "  assign y = a;\n" + assign
            + "  FROB2 u1 (.A(a), .Y(n1));\nendmodule\n"
        )
        with pytest.raises(VerilogError) as info:
            parse_verilog(bad)
        first, second = info.value.diagnostics
        assert (first.line, first.column) == (6, 3)
        assert message in first.message
        assert (second.line, second.token) == (7, "FROB2")


class TestValidatorDiagnostics:
    def test_floating_input_is_a_warning(self):
        nl = Netlist("t")
        nl.add_input("a")
        nl.add_gate("g", NAND, ["a", "ghost"], "n1")
        nl.add_output("n1")
        (diag,) = diagnose(nl)
        assert diag.kind == KIND_FLOATING_INPUT
        assert diag.severity == "warning"
        assert diag.nets == ("ghost",)

    def test_combinational_loop_reports_cycle_nets(self):
        nl = Netlist("t")
        nl.add_input("a")
        nl.add_gate("g1", NAND, ["a", "n2"], "n1")
        nl.add_gate("g2", NAND, ["n1", "a"], "n2")
        nl.add_output("n1")
        diags = diagnose(nl)
        loops = [d for d in diags if d.kind == KIND_COMBINATIONAL_LOOP]
        assert len(loops) == 1
        assert loops[0].severity == "error"
        assert set(loops[0].nets) == {"n1", "n2"}
        assert "cycle" in loops[0].message

    def test_multiply_driven_net_is_an_error(self):
        nl = Netlist("t")
        nl.add_input("a")
        nl.add_gate("g1", AND, ["a", "a"], "n1")
        nl.add_gate("g2", AND, ["a", "a"], "n2")
        nl.add_output("n1")
        # add_gate refuses duplicate drivers, so corrupt the stored gate
        # directly — exactly what a buggy transform would produce.
        nl._gates["g2"].output = "n1"
        diags = diagnose(nl)
        multi = [d for d in diags if d.kind == KIND_MULTI_DRIVEN]
        assert len(multi) == 1
        assert multi[0].severity == "error"
        assert multi[0].nets == ("n1",)
        assert "g1" in multi[0].message and "g2" in multi[0].message

    def test_undriven_output_is_a_warning(self):
        nl = Netlist("t")
        nl.add_input("a")
        nl.add_gate("g", AND, ["a", "a"], "n1")
        nl.add_output("n1")
        nl.add_output("nowhere")
        diags = diagnose(nl)
        kinds = [d.kind for d in diags]
        assert kinds == [KIND_UNDRIVEN_OUTPUT]
        assert diags[0].nets == ("nowhere",)

    def test_clean_netlist_has_no_diagnostics(self):
        nl = Netlist("t")
        nl.add_input("a")
        nl.add_input("b")
        nl.add_gate("g", AND, ["a", "b"], "y")
        nl.add_output("y")
        assert diagnose(nl) == []
        report = validate(nl)
        assert report.ok
        assert report.diagnostics == []

    def test_validate_mirrors_diagnostics(self):
        nl = Netlist("t")
        nl.add_input("a")
        nl.add_gate("g", NAND, ["a", "ghost"], "n1")
        nl.add_output("n1")
        report = validate(nl)
        assert not report.ok
        assert report.problems == [d.message for d in report.diagnostics]
