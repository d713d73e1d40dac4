"""The ``repro`` command: the package's one console script.

::

    repro identify design.v --score
    repro table1 b03 b12 --trace
    repro fuzz --seed 0 --samples 8
    repro batch designs/*.v --store .cache

Each subcommand dispatches to its module's ``main`` (``repro identify``
is :func:`repro.cli.main`, which ``python -m repro.cli`` also runs).
Subcommand modules are imported lazily; ``repro --help`` stays instant.
"""

from __future__ import annotations

import sys
from typing import Callable, Dict, Optional, Sequence, Tuple

from .exitcodes import EXIT_OK, EXIT_USAGE

__all__ = ["main", "COMMANDS"]


def _identify_main():
    from .cli import main

    return main


def _table1_main():
    from .eval.runner import main

    return main


def _fuzz_main():
    from .fuzz.harness import main

    return main


def _batch_main():
    from .batch import main

    return main


def _serve_main():
    from .serve.server import main

    return main


def _scoreboard_main():
    from .eval.scoreboard import main

    return main


def _triage_main():
    from .triage.cli import main

    return main


#: Subcommand name -> (one-line help, loader returning its ``main``).
COMMANDS: Dict[str, Tuple[str, Callable[[], Callable]]] = {
    "identify": ("identify words in one netlist", _identify_main),
    "table1": ("reproduce the paper's Table 1 sweep", _table1_main),
    "fuzz": ("run a metamorphic fuzzing campaign", _fuzz_main),
    "batch": (
        "analyze a corpus with shared caching and worker processes",
        _batch_main,
    ),
    "serve": (
        "run the long-lived analysis HTTP service",
        _serve_main,
    ),
    "scoreboard": (
        "score identification backends against exact fuzz ground truth",
        _scoreboard_main,
    ),
    "triage": (
        "rank gates by Trojan-region anomaly against identified words",
        _triage_main,
    ),
}


def _usage() -> str:
    lines = [
        "usage: repro <command> [options]",
        "",
        "Word-level identification in gate-level netlists "
        "(Tashjian & Davoodi, DAC 2015).",
        "",
        "commands:",
    ]
    for name, (summary, _) in COMMANDS.items():
        lines.append(f"  {name:<10} {summary}")
    lines.append("")
    lines.append("run `repro <command> --help` for command options")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(_usage())
        return EXIT_OK if argv else EXIT_USAGE
    if argv[0] == "--version":
        from . import __version__
        from .schema import PIPELINE_VERSION, SCHEMA_VERSION

        print(
            f"repro {__version__} "
            f"(pipeline {PIPELINE_VERSION}, schema {SCHEMA_VERSION})"
        )
        return EXIT_OK
    command, rest = argv[0], argv[1:]
    entry = COMMANDS.get(command)
    if entry is None:
        print(f"error: unknown command {command!r}", file=sys.stderr)
        print(_usage(), file=sys.stderr)
        return EXIT_USAGE
    return entry[1]()(rest)


if __name__ == "__main__":
    sys.exit(main())
