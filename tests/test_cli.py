"""Tests for the ``repro identify`` command-line interface."""

import json

import pytest

from repro.cli import main
from repro.netlist import write_bench, write_verilog
from repro.synth.designs import BENCHMARKS


@pytest.fixture(scope="module")
def verilog_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "b03.v"
    path.write_text(write_verilog(BENCHMARKS["b03"]()))
    return str(path)


@pytest.fixture(scope="module")
def bench_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "b03.bench"
    path.write_text(write_bench(BENCHMARKS["b03"]()))
    return str(path)


class TestBasics:
    def test_identify_verilog(self, verilog_path, capsys):
        assert main([verilog_path]) == 0
        out = capsys.readouterr().out
        assert "control-signal technique" in out
        assert "relevant control signals" in out

    def test_bench_format_by_suffix(self, bench_path, capsys):
        assert main([bench_path]) == 0
        assert "words" in capsys.readouterr().out

    def test_baseline_flag(self, verilog_path, capsys):
        """``--backend base`` selects the baseline."""
        assert main([verilog_path, "--backend", "base"]) == 0
        out = capsys.readouterr().out
        assert "shape hashing [6]" in out
        assert "[via" not in out

    def test_score_flag(self, verilog_path, capsys):
        assert main([verilog_path, "--score"]) == 0
        out = capsys.readouterr().out
        assert "score vs 7 golden words: 85.7% full" in out

    def test_trace_flag(self, verilog_path, capsys):
        assert main([verilog_path, "--trace"]) == 0
        assert "first-level groups" in capsys.readouterr().out

    def test_propagate_flag(self, verilog_path, capsys):
        assert main([verilog_path, "--propagate"]) == 0
        assert "propagation derived" in capsys.readouterr().out


class TestJson:
    def test_json_to_stdout(self, verilog_path, capsys):
        assert main([verilog_path, "--json", "-"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["netlist"]["name"] == "b03"
        assert payload["config"]["technique"] == "ours"
        assert any(payload["control_assignments"])

    def test_json_to_file(self, verilog_path, tmp_path, capsys):
        target = tmp_path / "report.json"
        assert main([verilog_path, "--json", str(target)]) == 0
        payload = json.loads(target.read_text())
        assert payload["netlist"]["gates"] > 0
        assert isinstance(payload["words"], list)

    def test_propagated_words_in_json(self, verilog_path, capsys):
        assert main([verilog_path, "--propagate", "--json", "-"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert "propagated_words" in payload


class TestErrors:
    def test_missing_file(self, capsys):
        assert main(["/nonexistent/design.v"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_unparseable_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.v"
        bad.write_text("this is not verilog")
        assert main([str(bad)]) == 2
        assert "cannot parse" in capsys.readouterr().err

    def test_non_utf8_file_is_one_error_line(self, tmp_path, capsys):
        """Regression: one non-UTF-8 byte, even inside a comment, used to
        escape as a UnicodeDecodeError traceback with exit 1."""
        bad = tmp_path / "latin1.v"
        text = write_verilog(BENCHMARKS["b03"]())
        bad.write_bytes(b"// caf\xe9\n" + text.encode("utf-8"))
        assert main([str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {bad}: ")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("assigns", [
        "  assign y = a;\n  assign y = b;\n",
        "  assign a = b;\n",
    ], ids=["two-drivers", "onto-input"])
    def test_conflicting_assign_is_a_parse_error(
        self, tmp_path, capsys, assigns
    ):
        """Regression: a conflicting ``assign`` escaped the parser as a
        ``NetlistError`` traceback with exit 1."""
        bad = tmp_path / "assign.v"
        bad.write_text(
            "module t (a, b, y);\n  input a;\n  input b;\n  output y;\n"
            + assigns + "endmodule\n"
        )
        assert main([str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot parse {bad}: ")
        assert "Traceback" not in err

    def test_declaring_a_driven_net_is_a_parse_error(self, tmp_path, capsys):
        """Regression: an ``input`` declaration of a net a gate drives
        escaped the parser as a ``NetlistError`` traceback with exit 1."""
        bad = tmp_path / "driven.v"
        bad.write_text(
            "module t (a, y);\n  input a;\n  INV g (.Z(y), .A(a));\n"
            "  input y;\nendmodule\n"
        )
        assert main([str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot parse {bad}: ")
        assert "line 4:3: input declaration: net 'y' already driven" in err
        assert "Traceback" not in err

    def test_config_flags_forwarded(self, verilog_path, capsys):
        assert main([verilog_path, "--depth", "3",
                     "--max-simultaneous", "1"]) == 0


class TestBackendFlag:
    def test_backend_ours_is_the_default(self, verilog_path, capsys):
        assert main([verilog_path, "--json", "-"]) == 0
        out = capsys.readouterr().out
        report = json.loads(out[out.index("{"):])
        assert report["config"]["backend"] == "ours"
        assert report["config"]["technique"] == "ours"

    def test_backend_base_matches_shape_hashing(self, verilog_path, capsys):
        """The CLI's Base is the library's Base (``shape_hashing``)."""
        from repro.core import shape_hashing
        from repro.netlist import parse_verilog
        from repro.store import result_digest

        assert main([verilog_path, "--backend", "base", "--json", "-"]) == 0
        out = capsys.readouterr().out
        by_backend = json.loads(out[out.index("{"):])
        with open(verilog_path) as handle:
            library = shape_hashing(parse_verilog(handle.read()))
        assert by_backend["config"]["backend"] == "base"
        assert by_backend["result_digest"] == result_digest(library)

    def test_unknown_backend_exits_2_with_one_line_diagnostic(
        self, verilog_path, capsys
    ):
        # The retired feature-vector backend is one more unknown name.
        for name in ("nope", "regfeat"):
            assert main([verilog_path, "--backend", name]) == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1
            assert f"unknown backend {name!r}" in err
            assert err.rstrip().endswith("registered backends: ours, base")

    def test_unknown_kernel_exits_2(self, verilog_path, capsys):
        # Signatures have one implementation: no CLI takes --kernel.
        from repro.batch import main as batch_main
        from repro.serve.server import main as serve_main
        from repro.triage.cli import main as triage_main

        for entry in (main, batch_main, serve_main, triage_main):
            with pytest.raises(SystemExit) as exited:
                entry([verilog_path, "--kernel", "python"])
            assert exited.value.code == 2, entry.__module__
            assert "--kernel" in capsys.readouterr().err

    def test_report_config_keeps_constant_kernel(self, verilog_path, capsys):
        assert main([verilog_path, "--json", "-"]) == 0
        out = capsys.readouterr().out
        report = json.loads(out[out.index("{"):])
        assert report["config"]["kernel"] == "python"


class TestScore:
    def test_no_golden_names_exits_2_with_diagnostic(self, tmp_path, capsys):
        """Regression: --score on an unscoreable netlist used to fall
        through to an empty/unhelpful report instead of failing fast."""
        src = (
            "module t (a, b, y);\n"
            "  input a, b;\n"
            "  output y;\n"
            "  NAND2 u1 (.A(a), .B(b), .Y(y));\n"
            "endmodule\n"
        )
        path = tmp_path / "noregs.v"
        path.write_text(src)
        assert main([str(path), "--score"]) == 2
        err = capsys.readouterr().err
        assert "--score needs golden words" in err
        assert len(err.strip().splitlines()) == 1

    def test_scoreable_netlist_still_exits_0(self, verilog_path, capsys):
        assert main([verilog_path, "--score"]) == 0
        assert "score vs" in capsys.readouterr().out


class TestStoreFlag:
    def test_warm_rerun_prints_identical_report(
        self, verilog_path, tmp_path, capsys
    ):
        store = str(tmp_path / "store")
        assert main([verilog_path, "--store", store]) == 0
        cold = capsys.readouterr().out
        assert main([verilog_path, "--store", store]) == 0
        warm = capsys.readouterr().out
        # The cached result carries the original run's timings verbatim,
        # so hit and miss runs print byte-identical reports.
        assert warm == cold

    def test_provenance_lands_in_trace_json(
        self, verilog_path, tmp_path, capsys
    ):
        store = str(tmp_path / "store")
        assert main([verilog_path, "--store", store,
                     "--trace-json", "-"]) == 0
        out = capsys.readouterr().out
        cold = json.loads(out[out.index("{"):])
        assert cold["cache_provenance"]["provenance"] == "miss"
        assert main([verilog_path, "--store", store,
                     "--trace-json", "-"]) == 0
        out = capsys.readouterr().out
        warm = json.loads(out[out.index("{"):])
        assert warm["cache_provenance"]["provenance"] == "hit"
        assert warm["cache_provenance"]["key"] == \
            cold["cache_provenance"]["key"]


class TestResilienceFlags:
    def test_budget_degrades_with_exit_zero(self, verilog_path, capsys):
        assert main([verilog_path, "--budget", "0"]) == 0
        captured = capsys.readouterr()
        assert "words" in captured.out
        assert "DEGRADED" in captured.err
        assert "assignments" in captured.err

    def test_deadline_degrades_with_exit_zero(self, verilog_path, capsys):
        assert main([verilog_path, "--deadline", "1e-9"]) == 0
        captured = capsys.readouterr()
        assert "deadline hit" in captured.err

    def test_unfired_budgets_stay_silent(self, verilog_path, capsys):
        assert main([verilog_path, "--deadline", "3600",
                     "--budget", "1000000"]) == 0
        assert "DEGRADED" not in capsys.readouterr().err

    def test_strict_budget_exits_three(self, verilog_path, capsys):
        assert main([verilog_path, "--budget", "0", "--strict"]) == 3
        assert "error (strict)" in capsys.readouterr().err

    def test_invalid_deadline_exits_two(self, verilog_path, capsys):
        # A NaN deadline never expires: it must not run unbounded.
        for deadline in ("0", "nan", "inf"):
            assert main([verilog_path, "--deadline", deadline]) == 2
            assert "error" in capsys.readouterr().err

    def test_failures_land_in_trace_json(self, verilog_path, capsys):
        assert main([verilog_path, "--budget", "0",
                     "--trace-json", "-"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["degraded"] is True
        assert payload["failures"]
        assert all(f["kind"] == "assignments" for f in payload["failures"])

    def test_preflight_warning_reported(self, tmp_path, capsys):
        src = (
            "module t (a, y);\n"
            "  input a;\n"
            "  output y;\n"
            "  wire ghost;\n"
            "  NAND2 u1 (.A(a), .B(ghost), .Y(y));\n"
            "endmodule\n"
        )
        path = tmp_path / "float.v"
        path.write_text(src)
        assert main([str(path)]) == 0
        assert "pre-flight [warning]" in capsys.readouterr().err

    def test_strict_preflight_exits_three(self, tmp_path, capsys):
        src = (
            "module t (a, y);\n"
            "  input a;\n"
            "  output y;\n"
            "  wire ghost;\n"
            "  NAND2 u1 (.A(a), .B(ghost), .Y(y));\n"
            "endmodule\n"
        )
        path = tmp_path / "float.v"
        path.write_text(src)
        assert main([str(path), "--strict"]) == 3
        assert "pre-flight" in capsys.readouterr().err

    def test_parse_diagnostics_reach_stderr(self, tmp_path, capsys):
        bad = tmp_path / "bad.v"
        bad.write_text(
            "module t (a, y);\n"
            "  input a;\n"
            "  output y;\n"
            "  FROB2 u1 (.A(a), .Y(y));\n"
            "endmodule\n"
        )
        assert main([str(bad)]) == 2
        err = capsys.readouterr().err
        assert "line 4" in err
        assert "FROB2" in err
