"""A request's objects are freed by reference counting, so the cyclic
collector can stay off while one computes.

Everything a cold request builds — the parsed netlist, the analysis
context and its memos, the signatures — is plain data with one owner, so
it is freed as soon as the caller drops the report, without waiting for
the cyclic garbage collector.  One reference cycle anywhere in a request
(a recursive closure, a bound method stored on data its object holds)
would keep all of it alive until the next full collection, which on
large designs is hundreds of megabytes and a pause of about a second.
"""

import gc
import sys
import threading
import weakref

import pytest

import repro.api as api
from repro.api import Session
from repro.netlist import write_verilog
from repro.netlist.verilog import VerilogError
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


class TestCollectorPause:
    """The cyclic collector is off while a request computes (there is
    nothing for it to find) and is handed back exactly as it was: on
    after a hit, a miss or a parse error, off if the caller had it off,
    and on only once the last of two overlapping requests is done."""

    @pytest.fixture(autouse=True)
    def collector_on(self):
        was = gc.isenabled()
        gc.enable()
        yield
        if not was:
            gc.disable()

    @pytest.mark.parametrize("entry", ["analyze_text", "triage_text"])
    def test_state_restored_after_a_miss_and_a_hit(
        self, tmp_path, text, entry
    ):
        session = Session(store=str(tmp_path / "store"))
        seen = []

        def observed(original):
            def call(*args):
                seen.append((original.__name__, gc.isenabled()))
                return original(*args)
            return call

        with pytest.MonkeyPatch.context() as patch:
            for name in ("identify_words", "triage_netlist"):
                patch.setattr(api, name, observed(getattr(api, name)))
            assert getattr(session, entry)(text).cache == "miss"
            assert gc.isenabled()
            assert getattr(session, entry)(text).cache == "hit"
        assert gc.isenabled()
        expected = [("identify_words", False)]
        if entry == "triage_text":
            expected.append(("triage_netlist", False))
        assert seen == expected

    def test_state_restored_after_a_parse_error(self):
        with pytest.raises(VerilogError):
            Session().analyze_text("module m (a);\n  BOGUS g (.Z(a));\n")
        assert gc.isenabled()

    def test_a_caller_that_disabled_the_collector_keeps_it_off(
        self, tmp_path, text
    ):
        session = Session(store=str(tmp_path / "store"))
        gc.disable()
        assert session.analyze_text(text).cache == "miss"
        assert not gc.isenabled()
        assert session.analyze_text(text).cache == "hit"
        assert not gc.isenabled()

    def test_overlapping_requests(self, text, monkeypatch):
        both_inside = threading.Barrier(2, timeout=30)
        first_done = threading.Event()
        original = api._parse

        def parse(*args):
            both_inside.wait()
            if threading.current_thread().name == "second":
                first_done.wait(timeout=30)
            return original(*args)

        monkeypatch.setattr(api, "_parse", parse)
        errors = []

        def request():
            try:
                Session().analyze_text(text)
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        first = threading.Thread(target=request, name="first")
        second = threading.Thread(target=request, name="second")
        first.start()
        second.start()
        first.join(timeout=60)
        # The second request is still inside its pause.
        assert not gc.isenabled()
        first_done.set()
        second.join(timeout=60)
        assert not errors
        assert gc.isenabled()

    def test_many_threads_never_lose_a_pause(self):
        """Eight threads (more than cores) enter and leave pauses with a
        tiny switch interval: a lost update to the pause count would
        leave the collector off, or switch it on inside a pause."""
        inside_on = []

        def worker():
            for _ in range(5000):
                with api._gc_paused():
                    if gc.isenabled():
                        inside_on.append(True)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not inside_on
        assert gc.isenabled()
