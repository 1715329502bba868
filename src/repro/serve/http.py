"""Minimal stdlib HTTP front for the feasibility service.

A deliberately small HTTP/1.1 server on :func:`asyncio.start_server` —
no framework dependency, ``Connection: close`` semantics, four routes:

* ``GET /healthz`` — liveness (``{"status": "ok"}``);
* ``GET /metrics`` — live Prometheus exposition of the service registry;
* ``GET /stats`` — the counter/gauge/queue snapshot as JSON;
* ``POST /query`` — a :class:`FeasibilityQuery` as JSON in, a
  :class:`QueryResponse` as JSON out (400 on an invalid query, 500 with
  the structured failure record when execution failed, 503 with a
  ``Retry-After`` header when the service sheds the request — full
  queue, open circuit breaker, or draining for shutdown).
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, Optional, Tuple

from ..obs import PROMETHEUS_CONTENT_TYPE, render_registry
from .breaker import ServiceOverloaded
from .schema import FeasibilityQuery
from .service import FeasibilityService

__all__ = ["start_http_server"]

_STATUS_TEXT = {200: "OK", 400: "Bad Request", 404: "Not Found",
                500: "Internal Server Error",
                503: "Service Unavailable"}

#: Refuse request bodies beyond this size (a query is a few hundred bytes).
_MAX_BODY = 1 << 20


async def _read_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
    line = await reader.readline()
    if not line:
        return None
    parts = line.decode("latin-1").split()
    if len(parts) < 2:
        return None
    method, path = parts[0].upper(), parts[1]
    headers: Dict[str, str] = {}
    while True:
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n", b""):
            break
        name, _, value = raw.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0") or 0)
    except ValueError:
        return None
    if length < 0 or length > _MAX_BODY:
        return None
    body = await reader.readexactly(length) if length else b""
    return method, path, headers, body


def _response(status: int, body: str,
              content_type: str = "application/json",
              extra_headers: Optional[Dict[str, str]] = None) -> bytes:
    payload = body.encode("utf-8")
    head = (f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n")
    for name, value in (extra_headers or {}).items():
        head += f"{name}: {value}\r\n"
    head += "Connection: close\r\n\r\n"
    return head.encode("latin-1") + payload


async def _handle(service: FeasibilityService,
                  reader: asyncio.StreamReader,
                  writer: asyncio.StreamWriter) -> None:
    try:
        request = await _read_request(reader)
        if request is None:
            writer.write(_response(400, json.dumps(
                {"error": "malformed request"})))
            return
        method, path, _, body = request
        if method == "GET" and path == "/healthz":
            writer.write(_response(200, json.dumps({"status": "ok"})))
        elif method == "GET" and path == "/metrics":
            writer.write(_response(200, render_registry(service.registry),
                                   content_type=PROMETHEUS_CONTENT_TYPE))
        elif method == "GET" and path == "/stats":
            writer.write(_response(200, json.dumps(service.stats(),
                                                   sort_keys=True)))
        elif method == "POST" and path == "/query":
            try:
                payload = json.loads(body.decode("utf-8"))
                query = FeasibilityQuery.from_dict(payload)
            except (ValueError, KeyError, TypeError) as exc:
                writer.write(_response(400, json.dumps(
                    {"error": f"invalid query: {exc}"})))
                return
            try:
                response = await service.submit(query)
            except ServiceOverloaded as exc:
                writer.write(_response(
                    503,
                    json.dumps({"error": str(exc), "reason": exc.reason,
                                "retry_after": exc.retry_after}),
                    extra_headers={"Retry-After": f"{exc.retry_after:g}"}))
                return
            status = 200 if response.ok else 500
            writer.write(_response(status, json.dumps(
                response.to_dict(), sort_keys=True)))
        else:
            writer.write(_response(404, json.dumps(
                {"error": f"no route {method} {path}"})))
    except (asyncio.IncompleteReadError, ConnectionError):
        pass
    finally:
        try:
            await writer.drain()
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, RuntimeError):
            pass


async def start_http_server(
    service: FeasibilityService,
    host: str = "127.0.0.1",
    port: int = 8765,
) -> asyncio.base_events.Server:
    """Serve ``service`` over HTTP; ``port=0`` picks a free port.

    Returns the :class:`asyncio.Server`; the bound port is
    ``server.sockets[0].getsockname()[1]``.
    """

    async def handler(reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        await _handle(service, reader, writer)

    return await asyncio.start_server(handler, host, port)
