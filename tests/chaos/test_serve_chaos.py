"""Serve-path chaos: torn responses, stalls, lost workers, client retries.

Three layers under test.  The :class:`ServeClient` retry contract is
pinned against a scripted in-process HTTP server (exact attempt counts,
no real sleeps to speak of): bounded attempts, jittered exponential
backoff, retry *only* on transport errors and 429/503 — never on other
4xx.  Then the ``serve.response.reset`` / ``serve.response.delay``
fault sites are exercised against a real ``repro serve`` subprocess,
showing the retrying client rides through both.  Last, the process
pool loses workers — SIGKILLed, or crashed by ``serve.worker.crash`` —
and the service rebuilds it, retries the request once, and answers a
typed 503 ``worker_lost`` when the retry dies too.
"""

import http.server
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

from repro import faults, workers
from repro.api import Session
from repro.faults import FaultPlan
from repro.metrics import MetricsRegistry
from repro.netlist import write_verilog
from repro.serve.client import ReadyStatus, ServeClient, ServeError
from repro.serve.service import AnalysisService

from fixtures import figure1_netlist

REPO = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
BANNER = re.compile(r"listening on http://([\d.]+):(\d+)")


# ----------------------------------------------------------------------
# a scripted origin: answers each request with the next status in line
# ----------------------------------------------------------------------

class _ScriptedHandler(http.server.BaseHTTPRequestHandler):
    def _answer(self):
        server = self.server
        with server.lock:
            server.hits += 1
            index = min(server.hits - 1, len(server.script) - 1)
        status = server.script[index]
        body = json.dumps({"status": status}).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    do_GET = _answer
    do_POST = _answer

    def log_message(self, *args):
        pass


@pytest.fixture
def scripted():
    """A live HTTP server answering a scripted status sequence.

    Yields ``(client_factory, server)``; set ``server.script`` before
    calling, read ``server.hits`` after.
    """
    server = http.server.ThreadingHTTPServer(
        ("127.0.0.1", 0), _ScriptedHandler
    )
    server.script = [200]
    server.hits = 0
    server.lock = threading.Lock()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()

    def client(**kwargs):
        kwargs.setdefault("backoff_base", 0.001)
        kwargs.setdefault("backoff_cap", 0.01)
        return ServeClient(
            "127.0.0.1", server.server_address[1], timeout=5, **kwargs
        )

    yield client, server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def _free_port_with_nothing_listening():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


class TestRetryPolicy:
    def test_connection_errors_retry_bounded_then_raise(self):
        client = ServeClient(
            "127.0.0.1", _free_port_with_nothing_listening(),
            max_retries=2, backoff_base=0.001, backoff_cap=0.01,
        )
        with pytest.raises(ServeError, match="after 3 attempts"):
            client.request("GET", "/healthz")
        assert client.last_attempts == 3  # 1 try + 2 retries, no more
        assert client.last_retries == 2

    def test_429_is_retried_then_surfaced(self, scripted):
        make, server = scripted
        server.script = [429]
        client = make(max_retries=2)
        status, body = client.request("GET", "/v1/identify")
        assert status == 429  # the last answer, not an exception
        assert client.last_attempts == 3
        assert server.hits == 3

    def test_503_then_success_recovers(self, scripted):
        make, server = scripted
        server.script = [503, 503, 200]
        client = make(max_retries=3)
        status, body = client.request("GET", "/readyz")
        assert status == 200
        assert client.last_attempts == 3
        assert server.hits == 3

    @pytest.mark.parametrize("status", [400, 404, 422])
    def test_other_4xx_never_retried(self, scripted, status):
        make, server = scripted
        server.script = [status]
        client = make(max_retries=5)
        answered, _ = client.request("POST", "/v1/identify", {"bad": 1})
        assert answered == status
        assert client.last_attempts == 1  # the request is wrong; once
        assert server.hits == 1

    def test_max_retries_zero_disables_retries(self, scripted):
        make, server = scripted
        server.script = [503]
        client = make(max_retries=0)
        status, _ = client.request("GET", "/readyz")
        assert status == 503
        assert server.hits == 1

    def test_backoff_is_exponential_capped_and_seeded(self):
        client = ServeClient(
            port=1, backoff_base=0.05, backoff_cap=2.0, retry_seed=7
        )
        twin = ServeClient(
            port=1, backoff_base=0.05, backoff_cap=2.0, retry_seed=7
        )
        sleeps = [client.backoff_s(i) for i in range(8)]
        # Jitter is deterministic per seed…
        assert sleeps == [twin.backoff_s(i) for i in range(8)]
        # …and every draw stays inside the jitter window of the
        # exponential ceiling, which never exceeds the cap.
        for index, value in enumerate(sleeps):
            ceiling = min(2.0, 0.05 * (2 ** index))
            assert 0.5 * ceiling <= value < ceiling
        other = ServeClient(
            port=1, backoff_base=0.05, backoff_cap=2.0, retry_seed=8
        )
        assert sleeps != [other.backoff_s(i) for i in range(8)]

    def test_negative_max_retries_rejected(self):
        with pytest.raises(ValueError):
            ServeClient(max_retries=-1)


class TestWaitReadyReasons:
    def test_nothing_listening_reports_connection_refused(self):
        client = ServeClient(
            "127.0.0.1", _free_port_with_nothing_listening(),
            backoff_base=0.001,
        )
        status = client.wait_ready(timeout=0.3, interval=0.05)
        assert not status
        assert isinstance(status, ReadyStatus)
        assert status.reason == "connection_refused"
        assert status.detail

    def test_answering_but_unready_reports_not_ready(self, scripted):
        make, server = scripted
        server.script = [503]
        client = make()
        status = client.wait_ready(timeout=0.3, interval=0.05)
        assert not status
        assert status.reason == "not_ready"
        assert "503" in status.detail

    def test_ready_is_truthy_with_reason(self, scripted):
        make, server = scripted
        server.script = [200]
        status = make().wait_ready(timeout=2)
        assert status
        assert status.reason == "ready"


# ----------------------------------------------------------------------
# the real socket layer under injected response faults
# ----------------------------------------------------------------------

def _spawn_server(plan=None, *extra_args):
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        os.path.join(REPO, "src") + os.pathsep + env.get("PYTHONPATH", "")
    )
    if plan is not None:
        env.update(plan.to_env())
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--port", "0", *extra_args],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env,
    )
    banner = process.stdout.readline()
    match = BANNER.search(banner)
    if match is None:
        process.kill()
        raise RuntimeError(f"no banner from repro serve: {banner!r}")
    return process, match.group(1), int(match.group(2))


def _terminate(process):
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
    return process.wait(timeout=30)


class TestInjectedResponseFaults:
    def test_connection_reset_mid_response_is_retried_through(self):
        plan = FaultPlan.from_spec(
            "serve.response.reset:nth=1,match=/healthz"
        )
        process, host, port = _spawn_server(plan)
        try:
            client = ServeClient(
                host, port, timeout=10,
                max_retries=3, backoff_base=0.01, backoff_cap=0.1,
            )
            assert client.wait_ready(timeout=15)
            status, body = client.healthz()
            assert status == 200 and body["status"] == "ok"
            assert client.last_attempts >= 2  # the first answer was torn
        finally:
            assert _terminate(process) == 0

    def test_delay_past_client_timeout_is_retried_through(self):
        plan = FaultPlan.from_spec(
            "serve.response.delay:nth=1,match=/healthz,delay=5"
        )
        process, host, port = _spawn_server(plan)
        try:
            client = ServeClient(
                host, port, timeout=1.0,
                max_retries=3, backoff_base=0.01, backoff_cap=0.1,
            )
            assert client.wait_ready(timeout=15)
            started = time.monotonic()
            status, body = client.healthz()
            assert status == 200 and body["status"] == "ok"
            assert client.last_attempts >= 2  # attempt 1 timed out
            # Bounded: we never sat out the full injected 5s stall.
            assert time.monotonic() - started < 5
        finally:
            assert _terminate(process) == 0

    def test_read_timeout_is_configurable_and_reported(self):
        process, host, port = _spawn_server(None, "--read-timeout", "7.5")
        try:
            client = ServeClient(host, port, timeout=10)
            assert client.wait_ready(timeout=15)
            status, health = client.healthz()
            assert status == 200
            assert health["read_timeout_seconds"] == 7.5
        finally:
            assert _terminate(process) == 0

    def test_readyz_reports_store_mode(self, tmp_path):
        process, host, port = _spawn_server(
            None, "--store", str(tmp_path / "store")
        )
        try:
            client = ServeClient(host, port, timeout=10)
            assert client.wait_ready(timeout=15)
            status, ready = client.readyz()
            assert status == 200
            assert ready["store_mode"] == "ok"
        finally:
            assert _terminate(process) == 0

    def test_readyz_store_mode_off_without_store(self):
        process, host, port = _spawn_server(None)
        try:
            client = ServeClient(host, port, timeout=10)
            assert client.wait_ready(timeout=15)
            assert client.readyz()[1]["store_mode"] == "off"
        finally:
            assert _terminate(process) == 0


# ----------------------------------------------------------------------
# the process pool loses a worker
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def design():
    return write_verilog(figure1_netlist()[0])


def _process_service(tmp_path):
    return AnalysisService(
        Session(store=str(tmp_path / "store")), workers=2, queue_size=4,
        registry=MetricsRegistry(), pool="process",
    )


def _restarts(service):
    counter = service.registry.get("repro_serve_worker_restarts_total")
    return 0 if counter is None else counter.value()


def _kill_one_worker(service):
    """SIGKILL one pool worker; return once the pool has seen it die."""
    victim = next(iter(service._pool.executor._processes.values()))
    os.kill(victim.pid, signal.SIGKILL)
    deadline = time.monotonic() + 30
    while not service._pool.broken:
        assert time.monotonic() < deadline, "the pool never saw the kill"
        time.sleep(0.01)


def _fault_free_triage(tmp_path, design):
    """The triage body a thread-pool service without faults answers."""
    service = AnalysisService(
        Session(store=str(tmp_path / "clean-store")), workers=1,
        queue_size=1, registry=MetricsRegistry(),
    )
    try:
        response = service.call("POST", "/v1/triage", {"verilog": design})
    finally:
        service.close()
    assert response.status == 200
    return response.body


class TestWorkerLoss:
    def test_sigkilled_worker_costs_no_request(self, tmp_path, design):
        service = _process_service(tmp_path)
        body = {"verilog": design}
        try:
            assert service.call("POST", "/v1/identify", body).status == 200
            expected = service.call("POST", "/v1/identify", body)
            assert expected.json["cache"] == "hit"
            _kill_one_worker(service)
            for _ in range(3):
                response = service.call("POST", "/v1/identify", body)
                assert response.status == 200
                assert response.body == expected.body
            assert service.call("GET", "/readyz").status == 200
            assert _restarts(service) == 1
            metrics = service.call("GET", "/metrics").body.decode("utf-8")
            assert "repro_serve_worker_restarts_total 1\n" in metrics
        finally:
            service.close()

    def test_readyz_answers_503_while_the_pool_is_broken(
        self, tmp_path, design
    ):
        service = _process_service(tmp_path)
        try:
            assert service.call(
                "POST", "/v1/identify", {"verilog": design}
            ).status == 200
            _kill_one_worker(service)
            lost = service.call("GET", "/readyz")
            assert lost.status == 503
            assert lost.json["status"] == "worker_lost"
            # That probe started the rebuild: the pool is ready again.
            ready = service.call("GET", "/readyz")
            assert ready.status == 200 and ready.json["status"] == "ready"
            assert service.call(
                "POST", "/v1/identify", {"verilog": design}
            ).status == 200
            assert _restarts(service) == 1
        finally:
            service.close()

    def test_crashed_request_is_retried_to_a_200(self, tmp_path, design):
        state = tmp_path / "fault-state"
        faults.install(FaultPlan.from_spec(
            "serve.worker.crash:first=1", state_dir=str(state)
        ))
        service = _process_service(tmp_path)
        try:
            response = service.call("POST", "/v1/triage", {"verilog": design})
        finally:
            service.close()
        assert response.status == 200
        assert response.body == _fault_free_triage(tmp_path, design)
        assert _restarts(service) == 1
        # One crash and one retry across both executors' workers.
        assert os.path.getsize(state / "serve_worker_crash.calls") == 2

    def test_retry_that_dies_too_answers_503_worker_lost(
        self, tmp_path, design
    ):
        faults.install(FaultPlan.from_spec(
            "serve.worker.crash:first=2",
            state_dir=str(tmp_path / "fault-state"),
        ))
        service = _process_service(tmp_path)
        try:
            lost = service.call("POST", "/v1/triage", {"verilog": design})
            after = service.call("POST", "/v1/triage", {"verilog": design})
        finally:
            service.close()
        assert lost.status == 503
        assert lost.json["error"] == "worker_lost"
        assert after.status == 200
        assert after.body == _fault_free_triage(tmp_path, design)
        assert _restarts(service) == 2

    def test_thread_pool_never_fires_the_site(self, tmp_path, design):
        clean = _fault_free_triage(tmp_path, design)
        plan = faults.install(FaultPlan.from_spec("serve.worker.crash:always"))
        service = AnalysisService(
            Session(store=str(tmp_path / "store")), workers=1,
            queue_size=1, registry=MetricsRegistry(),
        )
        try:
            triage = service.call("POST", "/v1/triage", {"verilog": design})
            ready = service.call("GET", "/readyz")
        finally:
            service.close()
        assert triage.status == 200 and triage.body == clean
        assert ready.status == 200 and ready.json["status"] == "ready"
        assert plan.fired == {}
        assert service.registry.get(
            "repro_serve_worker_restarts_total"
        ) is None

    def test_rebuild_does_not_block_the_event_loop_on_teardown(
        self, tmp_path, design, monkeypatch
    ):
        """The broken executor's teardown is held for as long as the
        test likes; the request that found the pool broken is answered
        from the rebuilt pool meanwhile."""
        released = threading.Event()
        shut = workers._shut

        def held_shut(executor):
            released.wait(30)
            shut(executor)

        monkeypatch.setattr(workers, "_shut", held_shut)
        service = _process_service(tmp_path)
        try:
            assert service.call(
                "POST", "/v1/identify", {"verilog": design}
            ).status == 200
            _kill_one_worker(service)
            started = time.monotonic()
            response = service.call(
                "POST", "/v1/identify", {"verilog": design}
            )
            assert response.status == 200
            assert not released.is_set()  # the teardown is still held
            assert time.monotonic() - started < 20
            assert _restarts(service) == 1
        finally:
            released.set()
            service.close()

    def test_client_retries_worker_lost_against_a_live_server(
        self, tmp_path, design
    ):
        """``repro serve --pool process`` under a fault plan: the 503
        ``worker_lost`` is one of the statuses ``ServeClient`` retries."""
        plan = FaultPlan.from_spec(
            "serve.worker.crash:first=2",
            state_dir=str(tmp_path / "fault-state"),
        )
        process, host, port = _spawn_server(
            plan, "--pool", "process", "--store", str(tmp_path / "store")
        )
        try:
            client = ServeClient(
                host, port, timeout=30,
                max_retries=3, backoff_base=0.01, backoff_cap=0.1,
            )
            assert client.wait_ready(timeout=15)
            status, report = client.identify(verilog=design)
            assert status == 200 and report["words"]
            assert client.last_attempts == 2  # the 503, then the 200
            assert client.metric_value(
                "repro_serve_worker_restarts_total"
            ) == 2
        finally:
            assert _terminate(process) == 0
