"""A request's objects are freed by reference counting.

Everything a cold request builds — the parsed netlist, the analysis
context and its memos, the signatures — is plain data with one owner, so
it is freed as soon as the caller drops the report, without waiting for
the cyclic garbage collector.  One reference cycle anywhere in a request
(a recursive closure, a bound method stored on data its object holds)
would keep all of it alive until the next full collection, which on
large designs is hundreds of megabytes and a pause of about a second.
"""

import gc
import weakref

import pytest

import repro.api as api
from repro.api import Session
from repro.netlist import write_verilog
from repro.synth.designs import BENCHMARKS


@pytest.fixture(scope="module")
def text():
    return write_verilog(BENCHMARKS["b03"]())


@pytest.fixture()
def parsed(monkeypatch):
    """Weak references to every netlist the facade parses."""
    refs = []
    original = api._parse

    def tracked(*args):
        netlist = original(*args)
        refs.append(weakref.ref(netlist))
        return netlist

    monkeypatch.setattr(api, "_parse", tracked)
    return refs


@pytest.fixture()
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize("entry", ["analyze_text", "triage_text"])
def test_cold_request_leaves_no_cyclic_garbage(
    tmp_path, text, parsed, collector_off, entry
):
    session = Session(store=str(tmp_path / "store"))
    report = getattr(session, entry)(text)
    assert report.cache == "miss"
    assert len(parsed) == 1
    del report
    assert parsed[0]() is None
    assert gc.collect() == 0
