"""The asyncio front-end: JSON over HTTP on TCP and/or a Unix socket.

Deliberately dependency-free: a minimal HTTP/1.1 implementation over
``asyncio`` streams (keep-alive, ``Content-Length`` framing, no
chunked encoding) is all the service needs, and the stdlib is the
project's only floor.  Routes:

* ``POST /query`` — one JSON query document per request
  (:mod:`repro.serve.protocol`); the response is
  ``{"ok": true, "result": ...}`` or ``{"ok": false, "error": ...}``;
* ``GET /metrics`` — the process-wide registry rendered as
  OpenMetrics, including counters merged back from worker shards;
* ``GET /healthz`` — liveness (``{"ok": true}``).

Per-request accounting: ``serve.requests`` (plus ``serve.errors`` for
400/500s) and the ``serve.latency_seconds`` histogram, measured with
the monotonic clock from first byte parsed to response flushed.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Any, Dict, Optional, Tuple

from repro.runtime import METRICS, span
from repro.serve.coalescer import Coalescer
from repro.serve.config import ServeConfig
from repro.serve.pool import ShardedPool
from repro.serve.protocol import (
    QueryError,
    error_response,
    ok_response,
    parse_query,
)

#: (method, path, headers, body) of one parsed HTTP request.
_Request = Tuple[str, str, Dict[str, str], bytes]

_JSON_TYPE = "application/json"
_METRICS_TYPE = ("application/openmetrics-text; version=1.0.0; "
                 "charset=utf-8")
_MAX_BODY = 4 * 1024 * 1024


class _BadRequest(Exception):
    """An unparseable HTTP request (connection is closed after 400)."""


async def _readline(reader: asyncio.StreamReader) -> bytes:
    """One line; a line past the stream's limit is a bad request."""
    try:
        return await reader.readline()
    except ValueError as exc:
        raise _BadRequest("request line or header too long") from exc


async def _read_request(reader: asyncio.StreamReader
                        ) -> Optional[_Request]:
    """Parse one HTTP/1.1 request; ``None`` on clean EOF."""
    try:
        line = await _readline(reader)
    except (ConnectionError, asyncio.IncompleteReadError):
        return None
    if not line:
        return None
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3:
        raise _BadRequest("malformed request line")
    method, path, _version = parts
    headers: Dict[str, str] = {}
    while True:
        raw = await _readline(reader)
        if raw in (b"\r\n", b"\n"):
            break
        if not raw:
            raise _BadRequest("truncated headers")
        name, sep, value = raw.decode("latin-1").partition(":")
        if not sep:
            raise _BadRequest("malformed header")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0") or "0")
    except ValueError as exc:
        raise _BadRequest("bad Content-Length") from exc
    if length < 0 or length > _MAX_BODY:
        raise _BadRequest("unacceptable Content-Length")
    body = b""
    if length:
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise _BadRequest("truncated body") from exc
    return method, path, headers, body


def _encode_response(status: int, reason: str, body: bytes,
                     content_type: str, keep_alive: bool) -> bytes:
    connection = "keep-alive" if keep_alive else "close"
    head = (f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {connection}\r\n\r\n")
    return head.encode("latin-1") + body


class ReproServer:
    """The ``repro serve`` service object.

    Owns the sharded pool and the coalescer; binds TCP and/or Unix
    listeners per its :class:`~repro.serve.config.ServeConfig`.  After
    :meth:`start`, :attr:`port` holds the actually bound TCP port
    (useful with ``port=0``).
    """

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.pool = ShardedPool(config.shards)
        self.coalescer = Coalescer(self.pool)
        self.port: Optional[int] = None
        self._servers: list = []
        self._closing = asyncio.Event()

    # -- lifecycle --------------------------------------------------

    async def start(self) -> None:
        """Bind listeners and prewarm the worker shards."""
        with span("serve.start", shards=self.config.shards):
            if self.config.host:
                server = await asyncio.start_server(
                    self._handle, self.config.host, self.config.port)
                self.port = server.sockets[0].getsockname()[1]
                self._servers.append(server)
            if self.config.socket:
                server = await asyncio.start_unix_server(
                    self._handle, path=self.config.socket)
                self._servers.append(server)
            if not self._servers:
                raise ValueError(
                    "nothing to bind: need a host or a socket path")
            await self.pool.warm()

    async def close(self) -> None:
        """Stop accepting, drain in-flight batches, stop the pool.
        Idempotent: a second call finds nothing left to stop."""
        for server in self._servers:
            server.close()
        for server in self._servers:
            await server.wait_closed()
        self._servers = []
        await self.coalescer.drain()
        self.pool.close()
        if self.config.socket:
            import os
            try:
                os.unlink(self.config.socket)
            except OSError:
                pass
        self._closing.set()

    async def serve_forever(self) -> None:
        """Block until :meth:`close` (or cancellation)."""
        await self._closing.wait()

    # -- request handling -------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        METRICS.count("serve.connections")
        try:
            while True:
                try:
                    request = await _read_request(reader)
                except _BadRequest as exc:
                    METRICS.count("serve.errors")
                    body = json.dumps(
                        error_response(str(exc))).encode("utf-8")
                    writer.write(_encode_response(
                        400, "Bad Request", body, _JSON_TYPE, False))
                    await writer.drain()
                    break
                if request is None:
                    break
                started = time.perf_counter()
                status, reason, body, ctype = await self._route(
                    *request)
                keep_alive = request[2].get(
                    "connection", "keep-alive").lower() != "close"
                writer.write(_encode_response(
                    status, reason, body, ctype, keep_alive))
                await writer.drain()
                METRICS.observe("serve.latency_seconds",
                                time.perf_counter() - started)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            # The handler task may itself be getting cancelled
            # (server shutdown); the close must not re-raise out of
            # this finally or asyncio logs a spurious traceback.
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError,
                    asyncio.CancelledError):
                pass

    async def _route(self, method: str, path: str,
                     headers: Dict[str, str], body: bytes
                     ) -> Tuple[int, str, bytes, str]:
        """Dispatch one request; always returns a complete response."""
        if method == "POST" and path == "/query":
            return await self._handle_query(body)
        if method == "GET" and path == "/metrics":
            text = METRICS.to_openmetrics()
            return 200, "OK", text.encode("utf-8"), _METRICS_TYPE
        if method == "GET" and path == "/healthz":
            payload: Dict[str, Any] = {"ok": True,
                                       "shards": self.config.shards}
            return (200, "OK", json.dumps(payload).encode("utf-8"),
                    _JSON_TYPE)
        body_out = json.dumps(error_response(
            f"no route for {method} {path}")).encode("utf-8")
        return 404, "Not Found", body_out, _JSON_TYPE

    async def _handle_query(self, body: bytes
                            ) -> Tuple[int, str, bytes, str]:
        METRICS.count("serve.requests")
        try:
            document = json.loads(body.decode("utf-8"))
            query = parse_query(document)
        except (UnicodeDecodeError, json.JSONDecodeError,
                QueryError) as exc:
            METRICS.count("serve.errors")
            payload = json.dumps(error_response(str(exc)))
            return 400, "Bad Request", payload.encode("utf-8"), \
                _JSON_TYPE
        try:
            result = await self.coalescer.submit(query)
        except Exception as exc:  # noqa: BLE001 - one bad query must
            # never take the service down with it.
            METRICS.count("serve.errors")
            payload = json.dumps(error_response(
                f"{type(exc).__name__}: {exc}"))
            return (500, "Internal Server Error",
                    payload.encode("utf-8"), _JSON_TYPE)
        try:
            # Strict JSON: a finite query the model overflows on (an
            # ``mc`` line of 1e300 mm) must not answer ``NaN``.
            payload = json.dumps(ok_response(result), allow_nan=False)
        except ValueError:
            METRICS.count("serve.errors")
            payload = json.dumps(error_response(
                "result is not finite: the query lies outside the "
                "model's numeric range"))
            return 400, "Bad Request", payload.encode("utf-8"), \
                _JSON_TYPE
        return 200, "OK", payload.encode("utf-8"), _JSON_TYPE
