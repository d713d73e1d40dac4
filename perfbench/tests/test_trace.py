"""Exact per-request layer counts, and wrappers that change no result.

    python3 -m pytest perfbench/tests -q
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from inputs import require_source, words_full  # noqa: E402

require_source()

from repro.api import Session  # noqa: E402
from repro.eval.metrics import evaluate  # noqa: E402
from repro.eval.reference import ReferenceWord  # noqa: E402
from repro.fuzz import generate, sample_seed  # noqa: E402
from repro.netlist.verilog import write_verilog  # noqa: E402
from repro.store import ArtifactStore  # noqa: E402
from serve_mixed import _delta, scrape  # noqa: E402
from tracer import Tracer, installed, span_metrics  # noqa: E402

#: Layer calls of one store-attached cold ``Session.analyze_text``.
COLD_REQUEST_COUNTS = {
    "verilog.write_calls": 3,
    "keys.netlist_digest_calls": 2,
    "disk.probe_result_calls": 2,
    "disk.commit_result_calls": 2,
}


def _texts(count):
    return [
        write_verilog(generate(sample_seed(0, index)).netlist)
        for index in range(count)
    ]


def _cold(session, text, store_dir, tracer=None):
    """One cold request on a fresh store: its digest and layer metrics."""
    session.store = ArtifactStore(str(store_dir))
    if tracer is None:
        return session.analyze_text(text).result_digest, None
    tracer.reset()
    with installed(tracer):
        with tracer.span("api"):
            digest = session.analyze_text(text).result_digest
    return digest, span_metrics(tracer.snapshot(), 1)


def test_cold_request_counts_are_exact_and_repeat(tmp_path):
    session = Session()
    text = _texts(1)[0]
    _cold(session, text, tmp_path / "warm-up")  # fills the process cone tier
    tracer = Tracer()
    counts = []
    for run in range(2):
        _, metrics = _cold(session, text, tmp_path / f"run-{run}", tracer)
        # Bytes written are not a count: stored envelopes carry timings.
        counts.append({
            name: value for name, value in metrics.items()
            if name.endswith(("_calls", "entries_written"))
        })
    assert counts[0] == counts[1]
    assert {
        name: counts[0][name] for name in COLD_REQUEST_COUNTS
    } == COLD_REQUEST_COUNTS


def test_wrappers_leave_result_digests_unchanged(tmp_path):
    session = Session()
    tracer = Tracer()
    for index, text in enumerate(_texts(4)):
        plain, _ = _cold(session, text, tmp_path / f"plain-{index}")
        traced, _ = _cold(session, text, tmp_path / f"traced-{index}", tracer)
        assert traced == plain


def test_wrappers_are_removed_on_exit():
    import repro.api as api
    from repro.store.disk import ArtifactStore as Store

    before = (api.parse_verilog, Store.__dict__["commit_result"])
    with installed(Tracer()):
        assert api.parse_verilog is not before[0]
    assert (api.parse_verilog, Store.__dict__["commit_result"]) == before


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            time.sleep(0.02)
    spans = tracer.snapshot()
    calls, seconds, self_seconds, _ = spans["outer"]
    assert calls == 1
    assert self_seconds < 0.01 < spans["inner"][2]
    assert abs(seconds - self_seconds - spans["inner"][1]) < 1e-6


def test_words_full_matches_evaluate():
    sample = generate(sample_seed(0, 3))
    result = Session().analyze(sample.netlist).result
    truth = [word.bits for word in sample.truth]
    references = [
        ReferenceWord(word.register, word.bits) for word in sample.truth
    ]
    words = [word.bits for word in result.words]
    assert words_full(truth, words) == evaluate(references, result).num_full


def test_metric_deltas_from_exposition_text():
    before = scrape(
        '# HELP x\nrepro_serve_request_seconds_sum{endpoint="/v1/identify"} 1.5\n'
    )
    after = scrape(
        'repro_serve_request_seconds_sum{endpoint="/v1/identify"} 4\n'
        'repro_serve_request_seconds_sum{endpoint="/metrics"} 9\n'
        "repro_serve_shed_total 2\n"
    )
    assert _delta(
        before, after, "repro_serve_request_seconds_sum",
        endpoint="/v1/identify",
    ) == 2.5
    assert _delta(before, after, "repro_serve_shed_total") == 2.0
