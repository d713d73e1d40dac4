"""Tests for the ``repro`` command and its subcommand dispatch."""

import json
import os
import re
import sys

import pytest

import repro
import repro.batch
import repro.cli
import repro.eval.runner
import repro.fuzz.harness
import repro.serve.server
from repro.main import COMMANDS, main
from repro.netlist import write_verilog
from repro.synth.designs import BENCHMARKS

sys.path.insert(0, os.path.dirname(__file__))
from fixtures import figure1_netlist  # noqa: E402


@pytest.fixture(scope="module")
def design_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("umbrella") / "fig1.v"
    path.write_text(write_verilog(figure1_netlist()[0]))
    return str(path)


class TestDispatch:
    def test_no_args_prints_usage_and_exits_2(self, capsys):
        assert main([]) == 2
        assert "usage: repro <command>" in capsys.readouterr().out

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        for command in COMMANDS:
            assert command in out

    def test_version(self, capsys):
        assert main(["--version"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("repro ")
        assert "pipeline" in out and "schema" in out

    def test_version_matches_pyproject(self):
        import pathlib

        # A regex, not tomllib: Python 3.10 has no tomllib.
        pyproject = pathlib.Path(__file__).parent.parent / "pyproject.toml"
        project = re.search(
            r"^\[project\]\n(.*?)(?=^\[|\Z)", pyproject.read_text(),
            re.M | re.S,
        )
        version = re.search(r'^version = "([^"]+)"$', project.group(1), re.M)
        assert repro.__version__ == version.group(1)

    def test_unknown_command_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2
        assert "unknown command" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["identify", "table1", "serve"])
    def test_jobs_flag_is_gone(self, command, design_path, capsys):
        """The engine's thread pool is gone; worker processes remain
        (``repro batch --jobs``).  ``triage`` is covered in its own suite."""
        args = [design_path] if command == "identify" else []
        with pytest.raises(SystemExit) as exited:
            main([command, *args, "--jobs", "2"])
        assert exited.value.code == 2
        assert "unrecognized arguments: --jobs" in capsys.readouterr().err

    def test_baseline_flag_is_gone(self, design_path, capsys):
        """``--backend base`` is the one spelling of the baseline."""
        with pytest.raises(SystemExit) as exited:
            main(["identify", design_path, "--baseline"])
        assert exited.value.code == 2
        assert "unrecognized arguments: --baseline" in capsys.readouterr().err

    def test_subcommands_are_the_alias_entry_points(self):
        """`repro X` runs module X's own `main` (so `python -m repro.cli`
        and `repro identify` are one code path)."""
        assert COMMANDS["identify"][1]() is repro.cli.main
        assert COMMANDS["table1"][1]() is repro.eval.runner.main
        assert COMMANDS["fuzz"][1]() is repro.fuzz.harness.main
        assert COMMANDS["batch"][1]() is repro.batch.main
        assert COMMANDS["serve"][1]() is repro.serve.server.main

    def test_console_scripts_registered(self):
        import pathlib

        pyproject = pathlib.Path(__file__).parent.parent / "pyproject.toml"
        text = pyproject.read_text()
        section = text.split("[project.scripts]\n", 1)[1].split("\n\n")[0]
        # One console script: the repro-<command> aliases are gone.
        assert section.strip().splitlines() == ['repro = "repro.main:main"']


class TestAliasEquivalence:
    def test_identify_spellings_byte_identical(
        self, design_path, tmp_path, capsys
    ):
        """Warm store runs of `python -m repro.cli` and `repro identify`
        print identical reports."""
        store = str(tmp_path / "store")
        assert repro.cli.main([design_path, "--store", store]) == 0
        capsys.readouterr()  # discard the priming (cold) run
        assert repro.cli.main([design_path, "--store", store]) == 0
        alias_out = capsys.readouterr().out
        assert main(["identify", design_path, "--store", store]) == 0
        umbrella_out = capsys.readouterr().out
        assert umbrella_out == alias_out
        assert "words" in alias_out

    def test_identify_spellings_same_json(self, design_path, capsys):
        """Cache-less runs agree on everything but wall-clock timings."""

        def report(argv):
            runner = main if argv[0] == "identify" else repro.cli.main
            assert runner(argv) == 0
            out = capsys.readouterr().out
            start = out.index("{")
            payload = json.loads(out[start:])
            del payload["runtime_seconds"]
            payload["trace"].pop("stage_seconds")
            return payload

        alias = report([design_path, "--json", "-"])
        umbrella = report(["identify", design_path, "--json", "-"])
        assert umbrella == alias

    def test_batch_spelling_shares_exit_codes(self, capsys):
        assert main(["batch"]) == 2
        assert "empty corpus" in capsys.readouterr().err


class TestModuleEntry:
    def test_python_dash_m_repro(self, design_path):
        import subprocess

        env = dict(os.environ)
        src = os.path.join(
            os.path.dirname(os.path.dirname(__file__)), "src"
        )
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "identify", design_path],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert "words" in proc.stdout
