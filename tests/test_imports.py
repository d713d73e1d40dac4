"""What importing the package loads.

``pyproject.toml`` declares ``dependencies = []``, and the import cost of
``repro.api`` is the setup every process pays before its first request
(a CLI run, a serve or batch worker).  A fresh interpreter that imports
the public entry points and opens a store-backed ``Session`` must not
pull in numpy or networkx, even where they are installed.

``repro``, ``repro.core`` and ``repro.netlist`` resolve their public
names on first use, so a command loads only what it runs: ``repro
--help`` loads nothing but the command table, and an analysis loads
neither the evaluation harness, the operator and propagation stages,
the simulator and equivalence checker, nor a process pool.
"""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

_CHILD = """
import json
import sys

import repro
import repro.api
import repro.serve.server

repro.api.Session(store=sys.argv[1])
print(json.dumps(sorted(
    name for name in ("numpy", "networkx") if name in sys.modules
)))
"""


def _run(*args):
    return subprocess.run(
        [sys.executable, *args], env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=120, check=True,
    )


def test_session_imports_neither_numpy_nor_networkx(tmp_path):
    done = _run("-c", _CHILD, str(tmp_path / "store"))
    assert json.loads(done.stdout) == []


def _imported(stderr):
    """The modules ``-X importtime`` listed, one per stderr line."""
    return {
        line.rsplit("|", 1)[1].strip()
        for line in stderr.splitlines()
        if line.startswith("import time:")
    }


def test_help_loads_only_the_command_table():
    done = _run("-X", "importtime", "-m", "repro", "--help")
    assert done.stdout.startswith("usage: repro")
    loaded = _imported(done.stderr)
    assert {
        name for name in loaded if name.split(".")[0] == "repro"
    } <= {"repro", "repro.__main__", "repro.main", "repro.exitcodes"}


#: Modules no analysis runs.
_NOT_FOR_ANALYSIS = (
    "repro.eval",
    "repro.core.modules",
    "repro.core.propagation",
    "repro.netlist.equiv",
    "repro.netlist.simulate",
    "concurrent.futures.process",
    "repro.workers",
)

_DESIGN = (
    "module m (a, b, y, z);\n"
    "  input a;\n  input b;\n  output y;\n  output z;\n"
    "  AND2 g1 (.Z(y), .A(a), .B(b));\n"
    "  AND2 g2 (.Z(z), .A(b), .B(a));\n"
    "endmodule\n"
)

_ANALYSIS_CHILD = """
import json
import sys

import repro.api

session = repro.api.Session(store=sys.argv[1])
text = open(sys.argv[2]).read()
session.analyze_text(text)
session.triage_text(text)
print(json.dumps(sorted(name for name in sys.argv[3:] if name in sys.modules)))
"""


def test_an_analysis_loads_no_module_it_does_not_run(tmp_path):
    design = tmp_path / "m.v"
    design.write_text(_DESIGN)
    done = _run(
        "-c", _ANALYSIS_CHILD, str(tmp_path / "store"), str(design),
        *_NOT_FOR_ANALYSIS,
    )
    assert json.loads(done.stdout) == []
    # repro identify imports what --propagate, --operators and --score
    # need only when they are given.
    done = _run("-X", "importtime", "-m", "repro", "identify", str(design))
    assert done.stdout.startswith("m: 2 gates")
    loaded = _imported(done.stderr)
    assert loaded.isdisjoint(_NOT_FOR_ANALYSIS)


_EXPORTS_CHILD = """
import importlib
import json
import pkgutil
import types

problems = []
for package_name in ("repro", "repro.core", "repro.netlist"):
    package = importlib.import_module(package_name)
    own = set(vars(package))
    # Importing a submodule binds its name in the package, which must not
    # shadow a public name of the same spelling (repro.netlist.validate).
    submodules = [
        importlib.import_module(f"{package_name}.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)
        if info.name != "__main__"
    ]
    for name in package.__all__:
        value = getattr(package, name)
        bound = [
            module.__name__ for module in submodules
            if getattr(module, name, value) is not value
        ]
        defined = any(hasattr(module, name) for module in submodules)
        if (
            isinstance(value, types.ModuleType) or bound
            or not (defined or name in own)
        ):
            problems.append([package_name, name, bound])
print(json.dumps(problems))
"""


def test_every_public_name_resolves_to_its_submodules_object():
    """Each ``__all__`` name of the three packages is the object its
    submodules bind to that name (none binds another), as the eager
    ``from .submodule import name`` re-exports made it."""
    assert json.loads(_run("-c", _EXPORTS_CHILD).stdout) == []
