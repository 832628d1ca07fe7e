"""Small JSON-over-HTTP server base used by the SLO and carbon APIs.

Routes are (method, path regex) pairs; handlers take a Request and the
regex's named groups and return a JSON-serializable object, or a
(status, object) tuple. Domain errors map onto HTTP statuses so handlers
can just raise. Built on the stdlib threading server; HTTP/1.1 with
explicit Content-Length so client sessions can keep connections alive.
"""

from __future__ import annotations

import json
import logging
import re
import threading
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qsl, urlsplit

from .errors import (ControllerUnreachableError, OutOfRangeError,
                     UnknownEntityError, ValidationError)
from .linejson import parse_addr

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


class JsonHttpServer:
    """Route table plus lifecycle around ThreadingHTTPServer."""

    def __init__(self, listen: str, name: str = "api"):
        host, port = parse_addr(listen)
        self.name = name
        self._routes: list[tuple[str, re.Pattern, object]] = []
        outer = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            server_version = "casca"
            # Loopback round-trips otherwise stall ~40ms on the
            # Nagle / delayed-ACK interaction.
            disable_nagle_algorithm = True

            def log_message(self, fmt, *args):
                log.debug("%s %s", outer.name, fmt % args)

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

            def _dispatch(self, method: str) -> None:
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
                for m, pattern, fn in outer._routes:
                    if m != method:
                        continue
                    match = pattern.fullmatch(parts.path)
                    if match is None:
                        continue
                    try:
                        result = fn(req, **match.groupdict())
                    except Exception as exc:  # mapped below; anything else is a 500
                        self._respond(*outer._error_response(exc))
                        return
                    if isinstance(result, tuple):
                        self._respond(result[0], result[1])
                    else:
                        self._respond(200, result)
                    return
                self._respond(404, {"error": f"no such resource: {parts.path}"})

            def do_GET(self):
                self._dispatch("GET")

            def do_PUT(self):
                self._dispatch("PUT")

            def do_POST(self):
                self._dispatch("POST")

        self._server = ThreadingHTTPServer((host, port), Handler)
        self._server.daemon_threads = True
        self.address = "%s:%d" % self._server.server_address[:2]
        self._thread: threading.Thread | None = None

    def _error_response(self, exc: Exception) -> tuple[int, dict]:
        for cls, status in STATUS_BY_ERROR:
            if isinstance(exc, cls):
                return status, {"error": str(exc)}
        log.exception("unhandled error in %s handler", self.name)
        return 500, {"error": f"internal error: {exc}"}

    def route(self, method: str, pattern: str, fn) -> None:
        self._routes.append((method, re.compile(pattern), fn))

    def start(self) -> None:
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        daemon=True, name=f"{self.name}-http")
        self._thread.start()

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None


def require_int(query: dict, key: str) -> int:
    if key not in query:
        raise ValidationError(f"missing query parameter {key!r}")
    try:
        return int(query[key])
    except ValueError:
        raise ValidationError(f"query parameter {key!r} must be an integer, got {query[key]!r}")
