"""Transport-independent request handling for the analysis service.

:class:`AnalysisService` owns everything the HTTP layer does not: the
shared :class:`~repro.api.Session` (one artifact store, one base
configuration), the worker pool analyses run on (threads, or the
supervised worker processes of :mod:`repro.workers`), the bounded
admission counter, the readiness/drain state machine, and the
:class:`~repro.metrics.MetricsRegistry` behind ``GET /metrics``.

The socket server (:mod:`repro.serve.server`) feeds it
``(method, path, body)`` triples; tests and the fuzz ``serve`` oracle
call :meth:`AnalysisService.call` directly — same admission control,
same response bytes, no port needed.

Admission model (DESIGN.md §11): at most ``workers`` analyses execute at
once (the worker pool) and at most ``queue_size`` more may wait.  A
request beyond ``workers + queue_size`` is shed immediately with 429 —
the service degrades by refusing work it cannot start soon, never by
letting latency grow without bound.  ``GET /healthz`` answers as long as
the process is alive; ``GET /readyz`` flips to 503 the moment a drain
begins, *before* the listener closes, so load balancers stop routing to
an instance that will still finish its in-flight work.
"""

from __future__ import annotations

import asyncio
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Dict, Optional

from .. import metrics as _metrics
from . import pool as _pool
from ..api import Session
from ..core.resilience import BudgetExceeded, PreflightError
from ..schema import stamp
from ..triage import TriageConfig
from ..workers import BrokenProcessPool, WorkerPool

__all__ = ["AnalysisService", "Response"]

#: Largest accepted request body (netlist sources are text; 64 MiB covers
#: every ITC99-scale design with two orders of magnitude to spare).
MAX_BODY_BYTES = 64 * 1024 * 1024


@dataclass(frozen=True)
class Response:
    """One HTTP response, transport-agnostic."""

    status: int
    body: bytes
    content_type: str = "application/json"

    @property
    def json(self) -> Dict:
        return json.loads(self.body.decode("utf-8"))


def _json_response(status: int, payload: Dict) -> Response:
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    return Response(status, body)


def _error(
    status: int, error: str, detail: str = "", diagnostics=()
) -> Response:
    """The uniform error envelope: ``error`` (a stable machine-readable
    code), ``detail`` (one human-readable line), and ``diagnostics`` —
    field-level records (:func:`_field_diag`) for request-validation
    failures, empty for every other error class."""
    return _json_response(status, stamp({
        "error": error,
        "detail": detail,
        "diagnostics": list(diagnostics),
    }))


# ----------------------------------------------------------------------
# structured request validation
# ----------------------------------------------------------------------

def _field_diag(field: str, message: str) -> Dict[str, str]:
    """One field-level validation record, shaped like the netlist
    validator's :class:`~repro.netlist.validate.Diagnostic` dicts so
    clients can reuse their pre-flight rendering."""
    return {"field": field, "severity": "error", "message": message}


_FORMATS = ("verilog", "bench")
#: Fields every analysis request may carry.
_COMMON_FIELDS = ("deadline_s", "strict", "backend")
#: The fields each endpoint accepts.
_IDENTIFY_FIELDS = _COMMON_FIELDS + (
    "verilog", "digest", "format", "name",
)
_ENDPOINT_FIELDS = {
    "identify": _IDENTIFY_FIELDS,
    "triage": _IDENTIFY_FIELDS + ("top", "threshold"),
}


def _number_error(value) -> Optional[str]:
    """Why ``value`` is not a finite JSON number, or ``None``.  Stdlib
    ``json`` parses ``NaN`` and ``Infinity``: neither is a usable
    deadline or threshold, and echoing one back is not strict JSON."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return "must be a number"
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        finite = False
    return None if finite else "must be a finite number"


def _validate_source(payload: Dict, diags) -> None:
    """Checks of the fields that name the request's one design."""
    digest = payload.get("digest")
    text = payload.get("verilog")
    if (digest is None) == (text is None):
        diags.append(_field_diag(
            "verilog",
            "exactly one of 'verilog' or 'digest' is required",
        ))
    if digest is not None and not isinstance(digest, str):
        diags.append(_field_diag("digest", "must be a string"))
    if text is not None and not isinstance(text, str):
        diags.append(_field_diag("verilog", "must be a string"))
    fmt = payload.get("format", "verilog")
    if fmt not in _FORMATS:
        diags.append(_field_diag(
            "format",
            f"unknown format {fmt!r}; expected one of {list(_FORMATS)}",
        ))
    name = payload.get("name")
    if name is not None and not isinstance(name, str):
        diags.append(_field_diag("name", "must be a string"))


def _validate_request(payload: Dict, endpoint: str):
    """Field-level validation of one ``/v1/identify`` or ``/v1/triage``
    body; returns :func:`_field_diag` records (empty when valid).

    Unknown fields are rejected rather than ignored — a typoed
    ``"bakcend"`` silently running the default backend would be a
    correctness trap, not a convenience.
    """
    diags = []
    allowed = _ENDPOINT_FIELDS[endpoint]
    for field in sorted(set(payload) - set(allowed)):
        diags.append(_field_diag(
            field, f"unknown field; expected one of {sorted(allowed)}"
        ))
    deadline = payload.get("deadline_s")
    if deadline is not None:
        error = _number_error(deadline)
        if error is None and deadline <= 0:
            error = "must be > 0"
        if error is not None:
            diags.append(_field_diag("deadline_s", error))
    strict = payload.get("strict")
    if strict is not None and not isinstance(strict, bool):
        diags.append(_field_diag("strict", "must be a boolean"))
    backend = payload.get("backend")
    if backend is not None:
        from ..core.backends import backend_names

        if backend not in backend_names():
            diags.append(_field_diag(
                "backend",
                f"unknown backend {backend!r}; registered backends: "
                + ", ".join(backend_names()),
            ))
    if endpoint == "triage":
        top = payload.get("top")
        if top is not None:
            if isinstance(top, bool) or not isinstance(top, int):
                diags.append(_field_diag("top", "must be an integer"))
            elif top < 0:
                diags.append(_field_diag("top", "must be >= 0"))
        threshold = payload.get("threshold")
        if threshold is not None:
            error = _number_error(threshold)
            if error is not None:
                diags.append(_field_diag("threshold", error))
    _validate_source(payload, diags)
    return diags


class AnalysisService:
    """The long-lived analysis service behind ``repro serve``.

    ``session``
        The shared :class:`~repro.api.Session` (configuration + optional
        artifact store).  Every request without overrides runs under its
        config; requests carrying ``deadline_s`` / ``strict`` /
        ``backend`` get a derived config over the *same* store —
        deadline/strict leave cache keys unchanged (neither is in the
        store fingerprint), while ``backend`` addresses that backend's
        own fingerprint space.
    ``workers`` / ``queue_size``
        Admission bounds: concurrent analyses and waiting requests.
    ``default_deadline_s`` / ``strict``
        Per-request defaults applied when the request does not override
        them.
    ``hold_s``
        Artificial per-request delay inside the worker, used by drain
        and load-shedding tests to hold a slot open deterministically.
    ``read_timeout``
        The socket layer's request-read timeout in seconds (``repro
        serve --read-timeout``).  The service only *reports* it (on
        ``/healthz``); enforcement lives in the transport.
    ``pool``
        ``"thread"`` (default) runs analyses on a thread pool sharing
        this process's session; ``"process"`` runs them in the worker
        processes of a :class:`~repro.workers.WorkerPool`, each with a
        session over the same store (:mod:`repro.serve.pool`: designs
        travel by content digest, never re-parsed; worker metric
        movement is merged back into ``registry``).  Admission, drain,
        and response bytes are identical either way.
    """

    def __init__(
        self,
        session: Session,
        workers: int = 2,
        queue_size: int = 16,
        default_deadline_s: Optional[float] = None,
        strict: bool = False,
        registry: Optional[_metrics.MetricsRegistry] = None,
        hold_s: float = 0.0,
        read_timeout: float = 30.0,
        pool: str = "thread",
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if queue_size < 0:
            raise ValueError("queue_size must be >= 0")
        if not (math.isfinite(read_timeout) and read_timeout > 0):
            raise ValueError("read_timeout must be a finite number > 0")
        if pool not in ("thread", "process"):
            raise ValueError("pool must be 'thread' or 'process'")
        self.session = session
        self.read_timeout = read_timeout
        self.workers = workers
        self.queue_size = queue_size
        self.default_deadline_s = default_deadline_s
        self.strict = strict
        self.hold_s = hold_s
        self.registry = (
            registry
            if registry is not None
            else (_metrics.current() or _metrics.MetricsRegistry())
        )
        self.pool = pool
        if pool == "process":
            store = session.store
            self._pool = WorkerPool(workers, _pool.init_worker, (
                session.config,
                store.root if store is not None else None,
                store.max_bytes if store is not None else None,
                default_deadline_s,
                strict,
                hold_s,
            ))
        else:
            self._pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-serve"
            )
        self._admitted = 0
        self._draining = False
        self._started_at = time.monotonic()
        reg = self.registry
        self._requests = reg.counter(
            "repro_serve_requests_total",
            "Requests handled, by endpoint and status code",
            labelnames=("endpoint", "status"),
        )
        self._latency = reg.histogram(
            "repro_serve_request_seconds",
            "Wall-clock seconds per request, by endpoint",
            labelnames=("endpoint",),
        )
        self._queue_depth = reg.gauge(
            "repro_serve_queue_depth",
            "Admitted requests waiting for a worker",
        )
        self._inflight = reg.gauge(
            "repro_serve_inflight",
            "Requests currently executing on the worker pool",
        )
        self._shed = reg.counter(
            "repro_serve_shed_total",
            "Requests rejected with 429 because the admission queue was full",
        )
        self._queue_depth.set(0)
        self._inflight.set(0)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        return self._admitted

    def begin_drain(self) -> None:
        """Stop admitting work; in-flight requests run to completion."""
        self._draining = True

    def drained(self) -> bool:
        return self._draining and self._admitted == 0

    def _store_mode(self) -> str:
        """The artifact store's health for ``/readyz``: ``"ok"``,
        ``"degraded"`` (write-bypass after an I/O-error burst, DESIGN.md
        §13), or ``"off"`` when the instance runs without a store."""
        store = self.session.store
        if store is None:
            return "off"
        return store.mode

    def close(self) -> None:
        """Shut the worker pool down (after the last request finished)."""
        if self.pool == "process":
            self._pool.close()
        else:
            self._pool.shutdown(wait=True)

    def _readiness(self) -> str:
        """``/readyz``'s status; a broken process pool answers
        ``"worker_lost"`` and starts its rebuild, for the next probe."""
        if self._draining:
            return "draining"
        if self.pool == "process" and self._pool.broken:
            self._rebuild(self._pool.executor)
            return "worker_lost"
        return "ready"

    def _rebuild(self, executor) -> None:
        if self._pool.rebuild(executor):
            self.registry.counter(
                "repro_serve_worker_restarts_total",
                "Worker process pools rebuilt after a worker died",
            ).inc()

    # ------------------------------------------------------------------
    # request handling
    # ------------------------------------------------------------------
    async def handle(self, method: str, path: str, body: bytes) -> Response:
        """Serve one request; never raises (errors become 5xx JSON)."""
        started = time.perf_counter()
        endpoint = path.split("?", 1)[0]
        try:
            response = await self._route(method, endpoint, body)
        except Exception as exc:  # the contract: zero unhandled escapes
            response = _error(
                500, "internal", f"{type(exc).__name__}: {exc}"
            )
        self._requests.inc(endpoint=endpoint, status=str(response.status))
        self._latency.observe(
            time.perf_counter() - started, endpoint=endpoint
        )
        return response

    def call(
        self, method: str, path: str, payload: Optional[Dict] = None
    ) -> Response:
        """Blocking convenience wrapper for tests and in-process oracles."""
        body = b"" if payload is None else json.dumps(payload).encode("utf-8")
        return asyncio.run(self.handle(method, path, body))

    async def _route(self, method: str, path: str, body: bytes) -> Response:
        if path == "/healthz":
            if method != "GET":
                return _error(405, "method_not_allowed", "use GET")
            return _json_response(200, stamp({
                "status": "ok",
                "uptime_seconds": time.monotonic() - self._started_at,
                "in_flight": self._admitted,
                "read_timeout_seconds": self.read_timeout,
            }))
        if path == "/readyz":
            if method != "GET":
                return _error(405, "method_not_allowed", "use GET")
            status = self._readiness()
            return _json_response(200 if status == "ready" else 503, stamp({
                "status": status,
                "store_mode": self._store_mode(),
            }))
        if path == "/metrics":
            if method != "GET":
                return _error(405, "method_not_allowed", "use GET")
            return Response(
                200,
                self.registry.render().encode("utf-8"),
                "text/plain; version=0.0.4; charset=utf-8",
            )
        if path == "/v1/identify":
            if method != "POST":
                return _error(405, "method_not_allowed", "use POST")
            return await self._admitted_request(body, "identify")
        if path == "/v1/triage":
            if method != "POST":
                return _error(405, "method_not_allowed", "use POST")
            return await self._admitted_request(body, "triage")
        return _error(404, "not_found", f"no route for {method} {path}")

    # ------------------------------------------------------------------
    # admission control
    # ------------------------------------------------------------------
    async def _admitted_request(self, body: bytes, endpoint: str) -> Response:
        if self._draining:
            return _error(503, "draining", "service is shutting down")
        if len(body) > MAX_BODY_BYTES:
            return _error(413, "body_too_large", f"max {MAX_BODY_BYTES} bytes")
        # Shed before decoding: a refused request pays for no parse.
        if self._admitted >= self.workers + self.queue_size:
            self._shed.inc()
            return _error(
                429,
                "overloaded",
                f"{self._admitted} requests admitted "
                f"(capacity {self.workers}+{self.queue_size})",
            )
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
        except (ValueError, UnicodeDecodeError) as exc:
            return _error(400, "bad_json", str(exc))
        if not isinstance(payload, dict):
            return _error(400, "bad_json", "request body must be an object")
        self._admitted += 1
        self._update_gauges()
        try:
            if self.pool == "process":
                return await self._in_worker(endpoint, payload)
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(
                self._pool, self.execute, endpoint, payload
            )
        finally:
            self._admitted -= 1
            self._update_gauges()

    async def _in_worker(self, endpoint: str, payload: Dict) -> Response:
        """Run one request in a worker process.  A request is one design
        keyed by its content digest, so when its worker dies it runs once
        more on the rebuilt pool; a second death answers 503."""
        loop = asyncio.get_running_loop()
        for _ in range(2):
            executor = self._pool.executor
            try:
                response, deltas = await loop.run_in_executor(
                    executor, _pool.run_request, endpoint, payload
                )
            except BrokenProcessPool:
                self._rebuild(executor)
                continue
            _pool.merge_deltas(self.registry, deltas)
            return response
        return _error(
            503, "worker_lost", "the worker process died twice on this request"
        )

    def _update_gauges(self) -> None:
        self._inflight.set(min(self._admitted, self.workers))
        self._queue_depth.set(max(0, self._admitted - self.workers))

    def execute(self, endpoint: str, payload: Dict) -> Response:
        """Run one admitted request body to a :class:`Response`, inline.

        This is the whole per-request analysis path below admission —
        the thread pool calls it on a worker thread; the process pool
        calls it inside the worker process (via
        :func:`repro.serve.pool.run_request`).
        """
        handler = self._identify if endpoint == "identify" else self._triage
        if self.hold_s > 0:
            time.sleep(self.hold_s)
        try:
            return handler(payload)
        except BudgetExceeded as exc:
            status = 408 if exc.reason == "deadline" else 422
            return _error(status, exc.reason, str(exc))
        except PreflightError as exc:
            return _error(422, "preflight", str(exc))
        except ValueError as exc:  # parse/validation errors (VerilogError…)
            return _error(400, "bad_netlist", str(exc))

    # ------------------------------------------------------------------
    # endpoints (run on the worker pool)
    # ------------------------------------------------------------------
    def _request_session(self, payload: Dict) -> Session:
        """The session a request runs under (overrides share the store).

        ``deadline_s``/``strict`` overrides leave cache keys unchanged
        (neither is in the store fingerprint); a ``backend`` override
        derives a config whose keys land in that backend's own
        fingerprint space, so per-request backends never cross-contaminate
        the shared store.  A JSON ``null`` is "not set", as in
        validation: the field keeps the server default.
        """
        base = self.session.config
        overrides = {
            name: payload[name]
            for name in _COMMON_FIELDS
            if payload.get(name) is not None
        }
        deadline = overrides.get("deadline_s", self.default_deadline_s)
        strict = bool(overrides.get("strict", self.strict))
        backend = overrides.get("backend", base.backend)
        if (
            deadline == base.deadline_s
            and strict == base.strict
            and backend == base.backend
        ):
            return self.session
        config = replace(
            base, deadline_s=deadline, strict=strict, backend=backend
        )
        return Session(config=config, store=self.session.store)

    def _identify(self, payload: Dict) -> Response:
        diagnostics = _validate_request(payload, "identify")
        if diagnostics:
            return _error(
                400, "invalid_request",
                f"{len(diagnostics)} invalid field(s)", diagnostics,
            )
        session = self._request_session(payload)
        digest = payload.get("digest")
        if digest is not None:
            report = session.analyze_digest(digest)
            if report is None:
                return _error(404, "unknown_digest", digest)
        else:
            report = session.analyze_text(
                payload["verilog"],
                format=payload.get("format", "verilog"),
                name=payload.get("name"),
            )
        return _json_response(200, report.as_dict())

    def _triage(self, payload: Dict) -> Response:
        """``POST /v1/triage``: identify, then rank every gate by
        Trojan-region anomaly (DESIGN.md §16).  The response is
        :meth:`repro.api.TriageReport.as_dict` — deterministic content
        only, so it is byte-for-byte the ``repro triage --json`` payload
        for the same design, config, and backend, on either pool."""
        diagnostics = _validate_request(payload, "triage")
        if diagnostics:
            return _error(
                400, "invalid_request",
                f"{len(diagnostics)} invalid field(s)", diagnostics,
            )
        session = self._request_session(payload)
        threshold = payload.get("threshold")
        config = (
            TriageConfig()
            if threshold is None
            else TriageConfig(threshold=float(threshold))
        )
        digest = payload.get("digest")
        if digest is not None:
            report = session.triage_digest(digest, triage_config=config)
            if report is None:
                return _error(404, "unknown_digest", digest)
        else:
            report = session.triage_text(
                payload["verilog"],
                format=payload.get("format", "verilog"),
                name=payload.get("name"),
                triage_config=config,
            )
        return _json_response(200, report.as_dict(top=payload.get("top")))
