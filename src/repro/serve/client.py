"""A minimal blocking client for the ``repro serve`` HTTP API.

Stdlib :mod:`http.client` only — the server speaks plain HTTP/1.1, so
any HTTP client works; this one exists so tests, the CI smoke job, and
scripted callers do not each hand-roll request bodies.

::

    from repro.serve.client import ServeClient

    client = ServeClient(port=8100)
    client.wait_ready(timeout=10)
    status, report = client.identify_path("designs/b13.v")
    assert status == 200 and report["result_digest"]
    print(client.metrics())          # Prometheus text

Every call opens a fresh connection (the server closes after each
response); a call returns the status code plus the decoded JSON (or raw
text for ``/metrics``).

Retries (DESIGN.md §13): analysis requests are idempotent — the server
answers by content digest, so replaying one can change *where* the
answer comes from (cache vs engine) but never *what* it is.  The client
therefore retries transport failures (connection refused/reset, read
timeouts, torn responses) and the two explicitly transient statuses 429
and 503, with capped exponential backoff and deterministic seeded
jitter.  No other status is ever retried — a 400/404/422 means the
request itself is wrong and would fail identically forever.  The
attempt count of the last call is surfaced as :attr:`ServeClient.
last_attempts` / :attr:`ServeClient.last_retries`.
"""

from __future__ import annotations

import http.client
import json
import random
import socket
import time
import zlib
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

__all__ = ["ServeClient", "ServeError", "ReadyStatus", "default_retry_seed"]

#: HTTP statuses that are safe and useful to retry: the server shed load
#: (429) or is draining/starting (503).  Everything else is final.
RETRYABLE_STATUSES = (429, 503)


class ServeError(ConnectionError):
    """The server could not be reached (connection refused / timeout)."""


@dataclass(frozen=True)
class ReadyStatus:
    """The outcome of :meth:`ServeClient.wait_ready`, truthiness-compatible.

    ``reason`` is machine-readable: ``"ready"``, ``"connection_refused"``
    (nothing ever answered the port), or ``"not_ready"`` (the server
    answered, but ``/readyz`` never reached 200 — booting, draining, or
    degraded).  ``detail`` carries the last observed error or status for
    humans.
    """

    ready: bool
    reason: str
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ready


def default_retry_seed(host: str, port: int) -> int:
    """The jitter seed of a client at ``host:port`` with no ``retry_seed``.

    A CRC-32 of the address, so it is the same in every process
    (builtin ``hash`` of a string changes with ``PYTHONHASHSEED``).
    """
    return zlib.crc32(f"{host}:{port}".encode("utf-8"))


class ServeClient:
    """Blocking HTTP client bound to one server address.

    ``max_retries`` bounds the *extra* attempts per request (so a call
    makes at most ``1 + max_retries`` attempts); ``backoff_base`` /
    ``backoff_cap`` shape the exponential backoff between them, and
    ``retry_seed`` makes the jitter reproducible (``None`` seeds from
    the address via :func:`default_retry_seed`, the same in every
    process).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8100,
        timeout: float = 120.0,
        max_retries: int = 3,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        retry_seed: Optional[int] = None,
    ):
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.host = host
        self.port = port
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        if retry_seed is None:
            retry_seed = default_retry_seed(host, port)
        self._rng = random.Random(retry_seed)
        #: Attempts made by the most recent request (1 = no retries).
        self.last_attempts = 0

    @property
    def last_retries(self) -> int:
        """Retries (attempts beyond the first) of the last request."""
        return max(0, self.last_attempts - 1)

    def backoff_s(self, retry_index: int) -> float:
        """The jittered sleep before retry ``retry_index`` (0-based).

        Exponential in the retry index, capped, and scaled by a seeded
        uniform draw in ``[0.5, 1.0)`` — concurrent clients hammered by
        the same outage spread out instead of retrying in lockstep.
        """
        ceiling = min(self.backoff_cap, self.backoff_base * (2 ** retry_index))
        return ceiling * (0.5 + 0.5 * self._rng.random())

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def _request_once(
        self,
        method: str,
        path: str,
        body: Optional[str],
        headers: Dict[str, str],
    ) -> Tuple[int, Union[Dict, str]]:
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            raw = response.read()
            content_type = response.getheader("Content-Type", "")
            if content_type.startswith("application/json"):
                return response.status, json.loads(raw.decode("utf-8"))
            return response.status, raw.decode("utf-8")
        finally:
            connection.close()

    def request(
        self,
        method: str,
        path: str,
        payload: Optional[Dict] = None,
        max_retries: Optional[int] = None,
    ) -> Tuple[int, Union[Dict, str]]:
        """One request (with bounded retries); ``(status, decoded body)``.

        JSON bodies decode to dicts; anything else (``/metrics``) comes
        back as text.  Transport failures and 429/503 responses are
        retried up to ``max_retries`` times (default: the client's
        setting; pass ``0`` to disable) with jittered exponential
        backoff; when every attempt fails to connect the last error is
        raised as :class:`ServeError`, and when the last attempt still
        answered 429/503 that response is returned as-is.
        """
        body = None
        headers: Dict[str, str] = {}
        if payload is not None:
            body = json.dumps(payload)
            headers["Content-Type"] = "application/json"
        retries = self.max_retries if max_retries is None else max_retries
        attempts = 1 + retries
        last_exc: Optional[Exception] = None
        for attempt in range(attempts):
            self.last_attempts = attempt + 1
            try:
                status, decoded = self._request_once(
                    method, path, body, headers
                )
            except (
                ConnectionError,
                socket.timeout,
                socket.gaierror,
                http.client.HTTPException,
                OSError,
            ) as exc:
                # Covers refused/reset connections, read timeouts, and
                # responses torn mid-flight (RemoteDisconnected,
                # IncompleteRead, BadStatusLine).
                last_exc = exc
            else:
                if (
                    status not in RETRYABLE_STATUSES
                    or attempt == attempts - 1
                ):
                    return status, decoded
                last_exc = None
            if attempt < attempts - 1:
                time.sleep(self.backoff_s(attempt))
        assert last_exc is not None
        raise ServeError(
            f"{self.host}:{self.port}: {last_exc} "
            f"(after {self.last_attempts} attempts)"
        ) from last_exc

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------
    def identify(
        self,
        verilog: Optional[str] = None,
        digest: Optional[str] = None,
        format: str = "verilog",
        name: Optional[str] = None,
        deadline_s: Optional[float] = None,
        strict: Optional[bool] = None,
    ) -> Tuple[int, Dict]:
        payload: Dict = {}
        if verilog is not None:
            payload["verilog"] = verilog
            payload["format"] = format
        if digest is not None:
            payload["digest"] = digest
        if name is not None:
            payload["name"] = name
        if deadline_s is not None:
            payload["deadline_s"] = deadline_s
        if strict is not None:
            payload["strict"] = strict
        return self.request("POST", "/v1/identify", payload)

    def identify_path(self, path: str, **kwargs) -> Tuple[int, Dict]:
        """Identify a netlist file (ships its exact bytes as text, so the
        server-side store key equals the CLI's ``file:`` digest)."""
        with open(path, encoding="utf-8", newline="") as handle:
            text = handle.read()
        format = "bench" if str(path).endswith(".bench") else "verilog"
        return self.identify(verilog=text, format=format, **kwargs)

    def healthz(self) -> Tuple[int, Dict]:
        return self.request("GET", "/healthz")

    def readyz(self) -> Tuple[int, Dict]:
        return self.request("GET", "/readyz")

    def metrics(self) -> str:
        status, text = self.request("GET", "/metrics")
        if status != 200:
            raise ServeError(f"/metrics answered {status}")
        assert isinstance(text, str)
        return text

    def metric_value(self, line_prefix: str) -> Optional[float]:
        """The value of the first exposition line starting with a prefix.

        ``client.metric_value("repro_store_hits_total")`` → float or
        ``None`` when the metric has not been published yet.
        """
        for line in self.metrics().splitlines():
            if line.startswith(line_prefix) and " " in line:
                try:
                    return float(line.rsplit(" ", 1)[1])
                except ValueError:
                    continue
        return None

    def wait_ready(
        self, timeout: float = 10.0, interval: float = 0.05
    ) -> ReadyStatus:
        """Poll ``/readyz`` until it answers 200; a :class:`ReadyStatus`.

        Truthy exactly when the server became ready, so existing
        ``assert client.wait_ready(...)`` callers keep working; on
        failure ``.reason`` distinguishes ``"connection_refused"``
        (nothing listening) from ``"not_ready"`` (the server answered
        but never reached 200 — e.g. still booting or draining), with
        the last observation in ``.detail``.
        """
        deadline = time.monotonic() + timeout
        reason, detail = "connection_refused", "no response on the port"
        while time.monotonic() < deadline:
            try:
                # No per-request retries: this loop *is* the retry.
                status, body = self.request(
                    "GET", "/readyz", max_retries=0
                )
            except ServeError as exc:
                reason, detail = "connection_refused", str(exc)
            else:
                if status == 200:
                    return ReadyStatus(True, "ready")
                reason = "not_ready"
                detail = f"/readyz answered {status}: {body}"
            time.sleep(interval)
        return ReadyStatus(False, reason, detail)
