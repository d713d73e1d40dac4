"""Socket-layer tests: a real ``repro serve`` subprocess on a TCP port.

These pin the operational contract of DESIGN.md §11 end to end — the
HTTP framing, the ServeClient, and the graceful-shutdown sequence: on
SIGTERM ``/readyz`` flips to 503 *first* (while the listener is still
up), the in-flight request finishes and ships its response, and only
then does the listener close and the process exit 0.
"""

import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.netlist import write_verilog
from repro.serve.client import ServeClient, ServeError
from repro.serve.service import MAX_BODY_BYTES

sys.path.insert(0, os.path.dirname(os.path.dirname(__file__)))
from fixtures import figure1_netlist  # noqa: E402

BANNER = re.compile(r"listening on http://([\d.]+):(\d+)")


def _spawn(*extra_args):
    """Start `repro serve` on a free port; returns (process, client)."""
    env = dict(os.environ)
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src"
    )
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--port", "0", *extra_args],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    deadline = time.monotonic() + 15
    banner = ""
    while time.monotonic() < deadline:
        banner = process.stdout.readline()
        if banner:
            break
        if process.poll() is not None:
            raise RuntimeError("server died before printing its banner")
    match = BANNER.search(banner)
    if match is None:
        process.kill()
        raise RuntimeError(f"unexpected banner: {banner!r}")
    # max_retries=0: these tests assert on raw statuses (429 bursts,
    # 503 during drain); the client's transient-retry layer would mask
    # exactly what they observe.
    client = ServeClient(
        match.group(1), int(match.group(2)), timeout=30, max_retries=0
    )
    ready = client.wait_ready(timeout=10)
    assert ready, f"server not ready: {ready.reason} ({ready.detail})"
    return process, client


def _terminate(process, timeout=15):
    """SIGTERM and reap; returns the exit code."""
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
    try:
        process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        pytest.fail("server did not drain within the timeout")
    return process.returncode


@pytest.fixture()
def verilog_text():
    netlist, _ = figure1_netlist()
    return write_verilog(netlist)


class TestClientKey:
    def test_identify_path_ships_the_files_exact_bytes(
        self, tmp_path, verilog_text, monkeypatch
    ):
        """The served key is the CLI's ``file:`` digest, CRLF files too."""
        from repro.store import bytes_digest, file_digest

        design = tmp_path / "crlf.v"
        design.write_bytes(verilog_text.replace("\n", "\r\n").encode())
        client = ServeClient()
        sent = {}

        def identify(**payload):
            sent.update(payload)
            return 200, {}

        monkeypatch.setattr(client, "identify", identify)
        client.identify_path(str(design))
        assert bytes_digest(sent["verilog"].encode("utf-8")) == file_digest(
            str(design)
        )


class TestSocketRoundTrip:
    def test_identify_over_tcp_matches_the_library(self, tmp_path,
                                                   verilog_text):
        design = tmp_path / "fig1.v"
        design.write_text(verilog_text)
        process, client = _spawn("--store", str(tmp_path / "store"))
        try:
            status, report = client.identify_path(str(design))
            assert status == 200
            from repro.api import Session

            direct = Session().analyze(figure1_netlist()[0])
            assert report["result_digest"] == direct.result_digest

            # Same bytes again: served from the shared artifact store.
            status, again = client.identify(verilog=verilog_text)
            assert status == 200 and again["cache"] == "hit"
            assert client.metric_value("repro_store_hits_total") >= 1

            status, health = client.healthz()
            assert status == 200 and health["status"] == "ok"
            assert client.readyz()[0] == 200
            assert "repro_serve_requests_total" in client.metrics()
        finally:
            assert _terminate(process) == 0


class TestGracefulShutdown:
    def test_sigterm_finishes_in_flight_and_refuses_new_work(
        self, verilog_text
    ):
        """The drain sequence, observed from outside: readyz flips to
        503 while a held request is still executing, that request still
        completes with 200, and the process exits 0."""
        process, client = _spawn("--workers", "1", "--hold-s", "1.0")
        result = {}

        def held_post():
            result["response"] = client.identify(verilog=verilog_text)

        poster = threading.Thread(target=held_post)
        poster.start()
        time.sleep(0.3)  # the request is now held inside its worker
        process.send_signal(signal.SIGTERM)
        time.sleep(0.2)

        # Drain has begun but the listener is still up: readyz answers
        # 503 and new analysis work is refused, all over live TCP.
        status, body = client.readyz()
        assert status == 503 and body["status"] == "draining"
        refused_status, refused = client.identify(verilog=verilog_text)
        assert refused_status == 503 and refused["error"] == "draining"

        # The in-flight request still completes and ships its report.
        poster.join(timeout=30)
        status, report = result["response"]
        assert status == 200 and report["words"]

        # Already signalled once: a graceful drain exits 0 on its own —
        # a second SIGTERM would request the force path (exit 1).
        assert process.wait(timeout=15) == 0
        banner = process.stdout.read()
        assert "drained cleanly" in banner

        # Fully drained: the port no longer accepts connections.
        with pytest.raises(ServeError):
            client.healthz()

    def test_load_shedding_under_burst(self, verilog_text):
        """workers=1, queue=1, held workers: a burst of 6 concurrent
        posts yields exactly 2 successes and 4 sheds — and zero 500s."""
        process, client = _spawn(
            "--workers", "1", "--queue-size", "1", "--hold-s", "0.4"
        )
        statuses = []
        lock = threading.Lock()

        def post():
            status, _ = client.identify(verilog=verilog_text)
            with lock:
                statuses.append(status)

        try:
            threads = [threading.Thread(target=post) for _ in range(6)]
            for t in threads:
                t.start()
                time.sleep(0.03)
            for t in threads:
                t.join()
            assert sorted(statuses) == [200, 200, 429, 429, 429, 429]
            assert client.metric_value("repro_serve_shed_total") == 4
        finally:
            assert _terminate(process) == 0


@pytest.fixture(scope="module")
def served():
    """One server shared by the framing cases; each checks it survives."""
    process, client = _spawn()
    yield client
    assert _terminate(process) == 0


def _raw_exchange(client, request: bytes):
    """Send ``request`` bytes as-is; ``(status, JSON body)`` of the answer."""
    with socket.create_connection(
        (client.host, client.port), timeout=10
    ) as sock:
        sock.sendall(request)
        sock.shutdown(socket.SHUT_WR)
        answer = b"".join(iter(lambda: sock.recv(65536), b""))
    head, _, body = answer.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


_PAD = b"a" * (65 * 1024)  # past asyncio's 64 KiB line limit


@pytest.mark.parametrize("request_bytes, status", [
    (b"POST /v1/identify HTTP/1.1\r\nContent-Length: -5\r\n\r\n", 400),
    (b"POST /v1/identify HTTP/1.1\r\nContent-Length: 2\r\n"
     b"Content-Length: 40\r\n\r\n{}", 400),
    (b"POST /v1/identify HTTP/1.1\r\nContent-Length: 1e3\r\n\r\n", 400),
    (b"GET /" + _PAD + b" HTTP/1.1\r\n\r\n", 400),
    (b"GET /healthz HTTP/1.1\r\nX-Pad: " + _PAD + b"\r\n\r\n", 400),
    (b"GET /healthz HTTP/1.1\r\nX-Pad: " + _PAD * 16 + b"\r\n\r\n", 400),
    (b"HELLO\r\n\r\n", 400),
    (b"POST /v1/identify HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
     % (MAX_BODY_BYTES + 1), 413),
], ids=[
    "negative-length", "repeated-length", "non-digit-length",
    "long-request-line", "long-header-line", "1-mib-header-line",
    "malformed-request-line", "oversized-length",
])
def test_every_malformed_frame_gets_the_error_envelope(
    served, request_bytes, status
):
    answered, body = _raw_exchange(served, request_bytes)
    assert answered == status
    assert set(body) == {
        "schema_version", "pipeline_version", "error", "detail",
        "diagnostics",
    }
    assert served.healthz()[0] == 200
