"""The asyncio socket layer and CLI of ``repro serve``.

Stdlib only: :func:`asyncio.start_server` plus a hand-rolled HTTP/1.1
request reader (request line, headers, ``Content-Length`` body; every
response is ``Connection: close``).  The protocol surface is four
endpoints — see :mod:`repro.serve.service` and DESIGN.md §11 — so a real
HTTP stack would buy nothing but a dependency.

Shutdown contract (exercised by ``tests/serve`` and the CI serve-smoke
job): on SIGTERM/SIGINT the server

1. flips ``/readyz`` to 503 and starts refusing new analysis requests
   (503) while the listener stays up, so clients and load balancers can
   observe the drain;
2. lets every in-flight analysis finish and ship its response (batch
   journal rows are fsynced per append, so nothing needs flushing);
3. closes the listener and exits 0.

A second signal skips the wait and exits immediately (exit code 1).
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
from typing import Optional, Sequence, Tuple

from .. import faults as _faults
from .. import metrics as _metrics
from ..api import Session
from ..core.pipeline import PipelineConfig
from ..exitcodes import EXIT_FAILURE, EXIT_OK, EXIT_USAGE
from .service import MAX_BODY_BYTES, AnalysisService, Response

__all__ = ["AnalysisServer", "main"]

#: Default seconds a connection may take to deliver its request before we
#: hang up (slowloris guard; also bounds how long a dead connection can
#: stall a drain).  Configurable per instance via ``repro serve
#: --read-timeout``; the active value is reported on ``/healthz``.
REQUEST_READ_TIMEOUT = 30.0

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    413: "Payload Too Large", 422: "Unprocessable Entity",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable",
}


class AnalysisServer:
    """Bind an :class:`AnalysisService` to a TCP port."""

    def __init__(
        self,
        service: AnalysisService,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.service = service
        self.host = host
        self.port = port
        # The service owns the configured value so /healthz can report it.
        self.read_timeout = service.read_timeout
        self._server: Optional[asyncio.base_events.Server] = None
        self._drain_requested = asyncio.Event()
        self._force_exit = False

    async def start(self) -> Tuple[str, int]:
        """Start listening; returns the bound ``(host, port)``."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        sockname = self._server.sockets[0].getsockname()
        self.port = sockname[1]
        return sockname[0], sockname[1]

    def request_drain(self) -> None:
        """Begin graceful shutdown (idempotent; signal-handler safe).

        The second call flips to forced exit for operators who really
        mean it.
        """
        if self._drain_requested.is_set():
            self._force_exit = True
        self._drain_requested.set()

    async def serve_until_drained(self) -> int:
        """Block until a drain is requested and completed; exit code."""
        await self._drain_requested.wait()
        self.service.begin_drain()  # readyz → 503, new work → 503 …
        while self.service.in_flight > 0:  # … while in-flight finishes
            if self._force_exit:
                break
            await asyncio.sleep(0.05)
        assert self._server is not None
        self._server.close()  # now refuse connections outright
        await self._server.wait_closed()
        self.service.close()
        return EXIT_FAILURE if self._force_exit else EXIT_OK

    # ------------------------------------------------------------------
    # one connection = one request = one response
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                method, path, body = await asyncio.wait_for(
                    _read_request(reader), self.read_timeout
                )
            except _BadRequest as exc:
                await _write_response(
                    writer, Response(exc.status, exc.body)
                )
                return
            except (asyncio.TimeoutError, asyncio.IncompleteReadError,
                    ConnectionError):
                return  # client vanished or stalled; nothing to answer
            response = await self.service.handle(method, path, body)
            if _faults.fire("serve.response.delay", path):
                rule = _faults.rule_for("serve.response.delay")
                await asyncio.sleep(rule.delay if rule else 1.0)
            if _faults.fire("serve.response.reset", path):
                # Ship a head promising more bytes than we send, then
                # abort: the client sees a torn response (IncompleteRead
                # or ECONNRESET), exactly like a mid-flight crash.
                writer.write(
                    b"HTTP/1.1 200 OK\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Content-Length: 1048576\r\n"
                    b"Connection: close\r\n\r\n{\"torn\":"
                )
                await writer.drain()
                writer.transport.abort()
                return
            await _write_response(writer, response)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


class _BadRequest(Exception):
    def __init__(self, status: int, message: str):
        self.status = status
        self.body = (
            b'{"error": "bad_request", "detail": "' +
            message.encode("ascii", "replace") + b'"}'
        )
        super().__init__(message)


async def _read_request(
    reader: asyncio.StreamReader,
) -> Tuple[str, str, bytes]:
    request_line = await reader.readline()
    if not request_line:
        raise asyncio.IncompleteReadError(b"", None)
    parts = request_line.decode("latin-1").split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise _BadRequest(400, "malformed request line")
    method, target = parts[0].upper(), parts[1]
    content_length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        if len(line) > 16 * 1024:
            raise _BadRequest(400, "header line too long")
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise _BadRequest(400, "malformed header")
        if name.strip().lower() == "content-length":
            try:
                content_length = int(value.strip())
            except ValueError:
                raise _BadRequest(400, "bad content-length")
    if content_length < 0 or content_length > MAX_BODY_BYTES:
        raise _BadRequest(413, "body too large")
    body = await reader.readexactly(content_length) if content_length else b""
    return method, target, body


async def _write_response(
    writer: asyncio.StreamWriter, response: Response
) -> None:
    reason = _REASONS.get(response.status, "Unknown")
    head = (
        f"HTTP/1.1 {response.status} {reason}\r\n"
        f"Content-Type: {response.content_type}\r\n"
        f"Content-Length: {len(response.body)}\r\n"
        f"Connection: close\r\n"
        f"\r\n"
    )
    writer.write(head.encode("latin-1") + response.body)
    await writer.drain()


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Long-lived word-identification service: POST "
        "netlists to /v1/identify, scrape /metrics, drain on SIGTERM "
        "(DESIGN.md §11)",
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default %(default)s)"
    )
    parser.add_argument(
        "--port", type=int, default=8100,
        help="TCP port; 0 picks a free one (default %(default)s)",
    )
    parser.add_argument(
        "--workers", type=int, default=2,
        help="concurrent analyses (thread pool; the engine is CPU-bound "
        "per netlist, default %(default)s)",
    )
    parser.add_argument(
        "--pool", choices=("auto", "thread", "process"), default="auto",
        help="worker pool type: 'process' gives each analysis a worker "
        "process (CPU parallelism; designs ship between processes by "
        "store digest, so it needs --store); 'auto' picks process when "
        "a store is configured and no fault plan is active "
        "(default %(default)s)",
    )
    parser.add_argument(
        "--queue-size", type=int, default=16,
        help="admitted requests allowed to wait beyond --workers before "
        "load shedding with 429 (default %(default)s)",
    )
    parser.add_argument(
        "--store", metavar="DIR", default=None,
        help="artifact-store directory shared by all requests "
        "(strongly recommended; repeat requests become cache hits)",
    )
    parser.add_argument(
        "--max-store-bytes", type=int, metavar="N", default=None,
        help="LRU cap on the store's total size in bytes",
    )
    parser.add_argument(
        "--deadline", type=float, metavar="S", default=None,
        help="default per-request deadline in seconds (requests may "
        "override with their own deadline_s)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="default strict mode: deadline/budget hits answer 408/422 "
        "instead of returning partial (degraded) reports",
    )
    parser.add_argument(
        "--read-timeout", type=float, metavar="S",
        default=REQUEST_READ_TIMEOUT,
        help="seconds a connection may take to deliver its request "
        "before the server hangs up (slowloris guard; reported on "
        "/healthz, default %(default)s)",
    )
    parser.add_argument(
        "--journal", metavar="PATH", default=None,
        help="append every /v1/batch row to this JSONL journal "
        "(fsynced per row, same shape as repro batch --journal)",
    )
    parser.add_argument(
        "--backend", default="ours",
        help="default identification backend for requests that do not "
        "name one (see `repro identify --backend`, default %(default)s)",
    )
    parser.add_argument(
        "--depth", type=int, default=4, help="fanin-cone depth (default 4)"
    )
    parser.add_argument(
        "--max-simultaneous", type=int, default=2,
        help="control signals assigned at once (default 2)",
    )
    # Test/ops hook: hold every request in its worker for S seconds, so
    # drain and load-shedding behaviour can be exercised deterministically.
    parser.add_argument(
        "--hold-s", type=float, default=0.0, help=argparse.SUPPRESS
    )
    return parser


async def _amain(args: argparse.Namespace, service: AnalysisService) -> int:
    server = AnalysisServer(service, args.host, args.port)
    host, port = await server.start()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, server.request_drain)
        except NotImplementedError:  # non-Unix event loops
            pass
    print(f"repro-serve listening on http://{host}:{port} "
          f"(workers={service.workers}, queue={service.queue_size}, "
          f"pool={service.pool})",
          flush=True)
    code = await server.serve_until_drained()
    print("repro-serve drained cleanly" if code == 0
          else "repro-serve force-exited", flush=True)
    return code


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = PipelineConfig(
            depth=args.depth,
            max_simultaneous=args.max_simultaneous,
            deadline_s=args.deadline,
            strict=args.strict,
            backend=args.backend,
            # Match `repro identify`: preflight is in the store
            # fingerprint, so the served POST of a file's bytes hits the
            # cache entry a CLI run on that file committed.
            preflight=True,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    registry = _metrics.current() or _metrics.install()
    session = Session(
        config=config,
        store=args.store,
        max_store_bytes=args.max_store_bytes,
    )
    pool = args.pool
    if pool == "auto":
        # Process workers need the store (that is how designs reach
        # them), and fault plans count per-process state the chaos tests
        # assert on — keep those runs single-process.
        pool = (
            "process"
            if session.store is not None and _faults.current() is None
            else "thread"
        )
    try:
        service = AnalysisService(
            session,
            workers=args.workers,
            queue_size=args.queue_size,
            default_deadline_s=args.deadline,
            strict=args.strict,
            journal=args.journal,
            registry=registry,
            hold_s=args.hold_s,
            read_timeout=args.read_timeout,
            pool=pool,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return asyncio.run(_amain(args, service))
    except KeyboardInterrupt:
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
