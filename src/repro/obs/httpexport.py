"""Live metrics plane: a per-node HTTP ``/metrics`` + ``/healthz`` endpoint.

Until now every metric was post-mortem — JSONL journals merged after
the run.  :class:`MetricsServer` makes a running node scrapable: a
minimal asyncio HTTP/1.0-style server (stdlib only; the container has
no aiohttp) answering

* ``GET /metrics`` — Prometheus text exposition (version 0.0.4),
  rendered by the same :func:`repro.obs.telemetry.render_prometheus`
  the post-mortem path uses, so a live scrape and the final snapshot
  expose identical series names;
* ``GET /healthz`` — a JSON liveness/role summary (node id, leader,
  view, lease state, applied cursor).

Each request is answered and the connection closed — no keep-alive,
no pipelining; scrapers are low-rate.  The callables are invoked on
the node's event loop, so they read single-threaded state safely.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Callable, Dict, Optional, Set, Tuple

from repro.obs.telemetry import render_prometheus

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Cap on an inbound request head; scrape requests are tiny.
_MAX_REQUEST_BYTES = 8192


class MetricsServer:
    """One node's HTTP observability endpoint."""

    def __init__(
        self,
        node: int,
        snapshot_fn: Callable[[], Dict[str, Any]],
        health_fn: Optional[Callable[[], Dict[str, Any]]] = None,
    ) -> None:
        self.node = node
        self._snapshot_fn = snapshot_fn
        self._health_fn = health_fn
        self._server: Optional[asyncio.AbstractServer] = None
        self.port: Optional[int] = None

    async def start(self, host: str, port: int) -> None:
        self._server = await asyncio.start_server(self._handle, host, port)
        sockets = self._server.sockets or []
        self.port = sockets[0].getsockname()[1] if sockets else port

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError,
                ConnectionError):
            writer.close()
            return
        if len(head) > _MAX_REQUEST_BYTES:
            await self._respond(writer, 400, "text/plain", "request too large\n")
            return
        request_line = head.split(b"\r\n", 1)[0].decode("latin-1", "replace")
        parts = request_line.split()
        method, path = (parts[0], parts[1]) if len(parts) >= 2 else ("", "")
        path = path.split("?", 1)[0]
        if method not in ("GET", "HEAD"):
            await self._respond(writer, 405, "text/plain", "method not allowed\n")
            return
        try:
            if path == "/metrics":
                body = render_prometheus({self.node: self._snapshot_fn()})
                await self._respond(writer, 200, PROMETHEUS_CONTENT_TYPE, body)
            elif path == "/healthz":
                health = self._health_fn() if self._health_fn is not None else {}
                health.setdefault("node", self.node)
                await self._respond(
                    writer, 200, "application/json",
                    json.dumps(health, sort_keys=True) + "\n",
                )
            else:
                await self._respond(writer, 404, "text/plain", "not found\n")
        except Exception as exc:  # scrape must never take the node down
            await self._respond(writer, 500, "text/plain", f"error: {exc}\n")

    async def _respond(
        self, writer: asyncio.StreamWriter, status: int, ctype: str, body: str
    ) -> None:
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                  405: "Method Not Allowed", 500: "Internal Server Error"}
        payload = body.encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {reason.get(status, 'Unknown')}\r\n"
            f"Content-Type: {ctype}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: close\r\n\r\n"
        )
        try:
            writer.write(head.encode("latin-1") + payload)
            await writer.drain()
        except (ConnectionError, OSError):
            pass
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def http_get(
    host: str, port: int, path: str, timeout_s: float = 5.0
) -> Tuple[int, str]:
    """Minimal HTTP GET for scraping a :class:`MetricsServer`.

    Returns ``(status_code, body)``.  Raises ``OSError`` /
    ``asyncio.TimeoutError`` on connection failure, like any client.
    """
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port), timeout_s
    )
    try:
        writer.write(
            f"GET {path} HTTP/1.1\r\nHost: {host}\r\n"
            "Connection: close\r\n\r\n".encode("latin-1")
        )
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), timeout_s)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    head, _, body = raw.partition(b"\r\n\r\n")
    status_line = head.split(b"\r\n", 1)[0].decode("latin-1", "replace")
    parts = status_line.split()
    status = int(parts[1]) if len(parts) >= 2 and parts[1].isdigit() else 0
    return status, body.decode("utf-8", "replace")


async def fetch_metrics(host: str, port: int, timeout_s: float = 5.0) -> str:
    """Scrape ``/metrics``; returns the Prometheus text body."""
    status, body = await http_get(host, port, "/metrics", timeout_s)
    if status != 200:
        raise OSError(f"metrics scrape returned HTTP {status}")
    return body


def prometheus_metric_names(text: str, suffix: str = "_total") -> Set[str]:
    """Metric names (optionally filtered by suffix) in an exposition.

    Used by the serve runner's scrape-parity gate: every counter series
    a live scrape exposes must appear in the set the post-mortem
    snapshot renders.
    """
    names: Set[str] = set()
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name = line.split("{", 1)[0].split(" ", 1)[0]
        if name.endswith(suffix):
            names.add(name)
    return names
