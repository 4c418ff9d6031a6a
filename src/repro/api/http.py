"""Minimal stdlib HTTP/1.1 server over the :class:`FrontDoor`.

``asyncio.start_server`` + hand-rolled request parsing — no external
web framework (the container policy), and nothing here is load-bearing
for correctness: every endpoint is a one-line serialization of a
:class:`~repro.api.frontdoor.FrontDoor` coroutine, which is what the
tests exercise in memory.

Endpoints
---------
==========================  ==========================================
``GET /query``              ``source`` (required), ``top_k``,
                            ``budget_s`` query params -> PPR vector;
                            503 + ``Retry-After`` when shed, 504 when
                            the deadline budget is exhausted.
``POST /update``            JSON ``{"u", "v", "kind"}`` -> assigned
                            fabric version + ack set.
``POST /reconfigure``       JSON ``{"lambda_q", "lambda_u"}`` ->
                            per-shard QuotaController decisions.
``GET /healthz``            fleet health; 503 while any range is shed.
``GET /metrics``            aggregated manager + per-worker metrics
                            (JSON).
==========================  ==========================================

Connections are single-request (``Connection: close``): the closed-loop
clients this serves open one request at a time and the parser stays
trivially correct.
"""

from __future__ import annotations

import asyncio
import json
import math
import time
from typing import TYPE_CHECKING
from urllib.parse import parse_qs, urlsplit

from repro.api.frontdoor import ApiResponse, FrontDoor

if TYPE_CHECKING:
    from asyncio import AbstractServer, StreamReader, StreamWriter

#: refuse bodies / header blocks beyond this (pre-auth memory bound)
MAX_HEADER_BYTES = 16 * 1024
MAX_BODY_BYTES = 1 * 1024 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


def _render(response: ApiResponse) -> bytes:
    body = json.dumps(response.body).encode()
    reason = _REASONS.get(response.status_code, "Unknown")
    lines = [
        f"HTTP/1.1 {response.status_code} {reason}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    if response.retry_after_s is not None:
        # Retry-After is integer seconds; round up so the hint never
        # tells a client to come back too early
        lines.append(f"Retry-After: {max(1, math.ceil(response.retry_after_s))}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode() + body


def _bad(status_code: int, message: str) -> ApiResponse:
    return ApiResponse(status_code, {"status": "error", "error": message})


def _query_param(
    params: dict[str, list[str]], name: str
) -> str | None:
    values = params.get(name)
    return values[0] if values else None


class HttpServer:
    """One listening socket serving a :class:`FrontDoor`."""

    def __init__(
        self,
        frontdoor: FrontDoor,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.frontdoor = frontdoor
        self.host = host
        self.port = port
        self._server: "AbstractServer | None" = None

    async def start(self) -> "HttpServer":
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        sockets = self._server.sockets
        if sockets:
            self.port = sockets[0].getsockname()[1]
        return self

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------
    async def _handle(
        self, reader: "StreamReader", writer: "StreamWriter"
    ) -> None:
        received_s = time.perf_counter()
        try:
            response = await self._dispatch(reader, received_s)
        except Exception as exc:  # pragma: no cover - defensive edge
            response = _bad(500, f"internal error: {exc!r}")
        try:
            writer.write(_render(response))
            await writer.drain()
        except (ConnectionError, OSError):  # pragma: no cover - client gone
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _dispatch(
        self, reader: "StreamReader", received_s: float
    ) -> ApiResponse:
        try:
            header_block = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError:
            return _bad(400, "truncated request")
        except asyncio.LimitOverrunError:
            return _bad(413, "header block too large")
        if len(header_block) > MAX_HEADER_BYTES:
            return _bad(413, "header block too large")
        head, *header_lines = header_block.decode(
            "latin-1"
        ).rstrip("\r\n").split("\r\n")
        parts = head.split()
        if len(parts) != 3:
            return _bad(400, f"malformed request line {head!r}")
        method, target, _version = parts
        headers = {}
        for line in header_lines:
            name, sep, value = line.partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        body = b""
        length = headers.get("content-length")
        if length is not None:
            try:
                n = int(length)
            except ValueError:
                return _bad(400, "bad Content-Length")
            if n > MAX_BODY_BYTES:
                return _bad(413, "body too large")
            try:
                body = await reader.readexactly(n)
            except asyncio.IncompleteReadError:
                return _bad(400, "truncated body")
        url = urlsplit(target)
        route = (method.upper(), url.path)
        if route == ("GET", "/query"):
            return await self._query(parse_qs(url.query), received_s)
        if route == ("POST", "/update"):
            return await self._update(body)
        if route == ("POST", "/reconfigure"):
            return await self._reconfigure(body)
        if route == ("GET", "/healthz"):
            return await self.frontdoor.healthz()
        if route == ("GET", "/metrics"):
            return await self.frontdoor.metrics_snapshot()
        if url.path in ("/query", "/update", "/reconfigure", "/healthz", "/metrics"):
            return _bad(405, f"{method} not allowed on {url.path}")
        return _bad(404, f"no route {url.path!r}")

    # ------------------------------------------------------------------
    async def _query(
        self, params: dict[str, list[str]], received_s: float
    ) -> ApiResponse:
        raw_source = _query_param(params, "source")
        if raw_source is None:
            return _bad(400, "missing required query param 'source'")
        try:
            source = int(raw_source)
            raw_top_k = _query_param(params, "top_k")
            top_k = int(raw_top_k) if raw_top_k is not None else None
            raw_budget = _query_param(params, "budget_s")
            budget_s = float(raw_budget) if raw_budget is not None else None
        except ValueError as exc:
            return _bad(400, f"bad query param: {exc}")
        return await self.frontdoor.query(
            source, budget_s=budget_s, top_k=top_k, received_s=received_s
        )

    async def _update(self, body: bytes) -> ApiResponse:
        payload = _parse_json(body)
        if payload is None:
            return _bad(400, "body must be a JSON object")
        try:
            u = int(payload["u"])
            v = int(payload["v"])
            kind = str(payload.get("kind", "toggle"))
        except (KeyError, TypeError, ValueError) as exc:
            return _bad(400, f"bad update body: {exc!r}")
        return await self.frontdoor.update(u, v, kind)

    async def _reconfigure(self, body: bytes) -> ApiResponse:
        payload = _parse_json(body)
        if payload is None:
            return _bad(400, "body must be a JSON object")
        try:
            lambda_q = float(payload["lambda_q"])
            lambda_u = float(payload["lambda_u"])
        except (KeyError, TypeError, ValueError) as exc:
            return _bad(400, f"bad reconfigure body: {exc!r}")
        return await self.frontdoor.reconfigure(lambda_q, lambda_u)


def _parse_json(body: bytes) -> dict[str, object] | None:
    try:
        payload = json.loads(body.decode() or "{}")
    except (ValueError, UnicodeDecodeError):
        return None
    return payload if isinstance(payload, dict) else None
