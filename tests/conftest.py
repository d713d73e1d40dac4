"""Suite-wide checks and shared designs.

A test that starts ``python -m repro.batch`` must also stop it and its
pool workers: a leaked worker keeps running after the suite ends (a hung
one for a minute), competing with whatever runs next.  The session
fixture below fails the run when a live ``repro.batch`` process still
names this run's temporary directory on its command line.

Synthesizing an ITC99 design is slow (b18 takes seconds), so the
``itc99`` fixture builds each design once per run and hands every test
its own copy.
"""

import functools
import os
import time

import pytest


@functools.cache
def _synthesized(name):
    from repro.synth.designs import BENCHMARKS

    return BENCHMARKS[name]()


@pytest.fixture(scope="session")
def itc99():
    """``itc99(name)``: a private copy of ITC99 design ``name``,
    synthesized once per test run."""
    return lambda name: _synthesized(name).copy()


def _live_batch_processes(basetemp: str):
    """``(pid, command line)`` of every live (non-zombie) ``repro.batch``
    process whose command line names ``basetemp``; empty without
    ``/proc``."""
    if not os.path.isdir("/proc"):
        return []
    found = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                command = handle.read().replace(b"\0", b" ").decode(
                    "utf-8", "replace"
                )
            with open(f"/proc/{pid}/stat", "rb") as handle:
                stat = handle.read()
        except OSError:
            continue  # exited while we looked
        # The state letter follows the parenthesized command name.
        state = stat[stat.rindex(b")") + 2:][:1]
        if state != b"Z" and "repro.batch" in command and basetemp in command:
            found.append((int(pid), command.strip()))
    return found


@pytest.fixture(scope="session", autouse=True)
def no_leaked_batch_processes(tmp_path_factory):
    basetemp = str(tmp_path_factory.getbasetemp())
    yield
    # A process killed a moment ago may still be on its way out.
    deadline = time.monotonic() + 5.0
    leaked = _live_batch_processes(basetemp)
    while leaked and time.monotonic() < deadline:
        time.sleep(0.1)
        leaked = _live_batch_processes(basetemp)
    assert not leaked, "repro.batch processes outlived the test run:\n" + (
        "\n".join(f"  pid {pid}: {command}" for pid, command in leaked)
    )
