"""Small JSON-over-HTTP server base used by the SLO and carbon APIs.

Routes are (method, path regex) pairs; handlers take a Request and the
regex's named groups and return a JSON-serializable object, or a
(status, object) tuple. Domain errors map onto HTTP statuses so handlers
can just raise. Runs on the line-JSON transport's listener: every
accepted connection is served by the stdlib HTTP request handler, HTTP/1.1
with explicit Content-Length so client connections can stay alive.
"""

from __future__ import annotations

import json
import logging
import re
import socket
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler
from urllib.parse import parse_qsl, urlsplit

from . import linejson
from .errors import (ControllerUnreachableError, OutOfRangeError,
                     UnknownEntityError, ValidationError)

log = logging.getLogger("casca.web")

STATUS_BY_ERROR = (
    (OutOfRangeError, 416),
    (UnknownEntityError, 404),
    (ControllerUnreachableError, 502),
    (ValidationError, 400),
)


@dataclass
class Request:
    method: str
    path: str
    query: dict
    body: object = None


class _Handler(BaseHTTPRequestHandler):
    """One connection's requests, dispatched on `self.server`'s routes."""

    protocol_version = "HTTP/1.1"
    server_version = "casca"
    # Loopback round-trips otherwise stall ~40ms on the
    # Nagle / delayed-ACK interaction.
    disable_nagle_algorithm = True

    def log_message(self, fmt, *args):
        log.debug("%s %s", self.server.name, fmt % args)

    def _respond(self, status: int, obj) -> None:
        if status == 204:
            self.send_response(status)
            self.end_headers()
            return
        body = json.dumps(obj).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _dispatch(self) -> None:
        method = self.command
        parts = urlsplit(self.path)
        body = None
        length = int(self.headers.get("Content-Length") or 0)
        if length:
            raw = self.rfile.read(length)
            try:
                body = json.loads(raw)
            except json.JSONDecodeError:
                self._respond(400, {"error": "request body is not valid JSON"})
                return
        req = Request(method=method, path=parts.path,
                      query=dict(parse_qsl(parts.query)),
                      body=body)
        for m, pattern, fn in self.server._routes:
            if m != method:
                continue
            match = pattern.fullmatch(parts.path)
            if match is None:
                continue
            try:
                result = fn(req, **match.groupdict())
            except Exception as exc:  # mapped below; anything else is a 500
                self._respond(*self.server._error_response(exc))
                return
            if isinstance(result, tuple):
                self._respond(result[0], result[1])
            else:
                self._respond(200, result)
            return
        self._respond(404, {"error": f"no such resource: {parts.path}"})

    do_GET = do_PUT = do_POST = _dispatch


class JsonHttpServer(linejson.Server):
    """Route table served over HTTP from the moment the constructor returns.

    `routes` is a list of (method, path regex, handler); every route is in
    place before the listener accepts, so no request meets a partial table.
    """

    def __init__(self, listen: str, name: str, routes):
        self.name = name
        self._routes: list[tuple[str, re.Pattern, object]] = []
        for method, pattern, fn in routes:
            self.route(method, pattern, fn)
        super().__init__(listen, self._serve_http)

    def _serve_http(self, conn: socket.socket) -> None:
        _Handler(conn, conn.getpeername(), self)

    def _error_response(self, exc: Exception) -> tuple[int, dict]:
        for cls, status in STATUS_BY_ERROR:
            if isinstance(exc, cls):
                return status, {"error": str(exc)}
        log.exception("unhandled error in %s handler", self.name)
        return 500, {"error": f"internal error: {exc}"}

    def route(self, method: str, pattern: str, fn) -> None:
        self._routes.append((method, re.compile(pattern), fn))


def require_int(query: dict, key: str) -> int:
    if key not in query:
        raise ValidationError(f"missing query parameter {key!r}")
    try:
        return int(query[key])
    except ValueError:
        raise ValidationError(f"query parameter {key!r} must be an integer, got {query[key]!r}")
