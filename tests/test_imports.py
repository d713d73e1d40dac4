"""The package has no third-party runtime dependencies.

``pyproject.toml`` declares ``dependencies = []``, and the import cost of
``repro.api`` is the setup every process pays before its first request
(a CLI run, a serve or batch worker).  A fresh interpreter that imports
the public entry points and opens a store-backed ``Session`` must not
pull in numpy or networkx, even where they are installed.
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


def test_session_imports_neither_numpy_nor_networkx(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, str(tmp_path / "store")],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert json.loads(done.stdout) == []
