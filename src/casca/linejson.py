"""Line-JSON over TCP: the one transport behind the bus, store and control sockets.

Every message is one JSON object on one UTF-8 line. `Server` owns the
listener, the accept loop and a daemon thread per connection; what a
connection means is up to its `serve_conn(conn)`, so the HTTP servers
(`webutil`) run on it too. `answering` turns a `handle(request) -> reply`
function into such a `serve_conn` for request/response protocols, and
`Client` is the matching caller: one lazily opened connection, one write
and one reply line per request.
"""

from __future__ import annotations

import json
import socket
import threading

from .errors import ValidationError

BACKLOG = 64


def parse_addr(addr: str) -> tuple[str, int]:
    host, _, port = addr.rpartition(":")
    if not host or not port.isdigit():
        raise ValidationError(f"bad address {addr!r}, expected host:port")
    return host, int(port)


def encode(obj) -> bytes:
    return (json.dumps(obj) + "\n").encode("utf-8")


class Server:
    """Listener plus accept loop; `serve_conn(conn)` runs per connection.

    `stop()` shuts the listener and every open connection, so a connection
    thread sees end-of-file and exits on its own; it is not joined.
    """

    def __init__(self, listen: str, serve_conn):
        host, port = parse_addr(listen)
        self._serve_conn = serve_conn
        self._lock = threading.Lock()
        self._conns: set[socket.socket] = set()
        self._stopping = False
        # SO_REUSEADDR is set, and the socket is closed again if bind fails
        self._sock = socket.create_server((host, port), backlog=BACKLOG)
        self.address = "%s:%d" % self._sock.getsockname()[:2]
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True,
                                               name=f"accept-{self.address}")
        self._accept_thread.start()

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            with self._lock:
                if self._stopping:
                    conn.close()
                    return
                self._conns.add(conn)
            threading.Thread(target=self._run_conn, args=(conn,), daemon=True).start()

    def _run_conn(self, conn: socket.socket) -> None:
        try:
            self._serve_conn(conn)
        except OSError:
            pass
        finally:
            with self._lock:
                self._conns.discard(conn)
            conn.close()

    def stop(self) -> None:
        with self._lock:
            self._stopping = True
            conns = list(self._conns)
        # shutdown wakes a blocked accept() or readline(); close alone does not
        for sock in [self._sock, *conns]:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        self._sock.close()
        self._accept_thread.join(timeout=2)


def answering(handle):
    """A `serve_conn` that answers every request line with `handle(request)`."""

    def serve_conn(conn: socket.socket) -> None:
        with conn.makefile("r", encoding="utf-8", newline="\n") as rfile:
            for line in rfile:
                if not line.strip():
                    continue
                try:
                    req = json.loads(line)
                except json.JSONDecodeError as exc:
                    resp = {"ok": False, "error": f"bad json: {exc}"}
                else:
                    resp = handle(req)
                conn.sendall(encode(resp))
    return serve_conn


class Client:
    """Request/response caller over one connection, opened on first use.

    Subclasses map failures onto their own errors: `unreachable` is raised
    when the connection fails, closes, or carries a reply that is not JSON
    (the connection is then dropped and the next request reconnects);
    `rejected` builds the error for a reply with `ok: false`.
    """

    peer = "server"
    unreachable: type[Exception] = ConnectionError

    def __init__(self, address: str):
        self.address = address
        self._lock = threading.Lock()
        self._sock: socket.socket | None = None
        self._rfile = None

    def rejected(self, message: str) -> Exception:
        return ValidationError(message)

    def _exchange(self, data: bytes, reply: bool) -> str:
        """One write, then one line read when `reply`; hold `_lock` around it."""
        try:
            if self._sock is None:
                self._sock = socket.create_connection(parse_addr(self.address), timeout=10)
                self._rfile = self._sock.makefile("r", encoding="utf-8", newline="\n")
            self._sock.sendall(data)
            return self._rfile.readline() if reply else ""
        except OSError as exc:
            self._drop()
            raise self.unreachable(f"{self.peer} at {self.address} unreachable: {exc}") from exc

    def request(self, req: dict) -> dict:
        with self._lock:
            line = self._exchange(encode(req), reply=True)
            try:
                resp = json.loads(line) if line else None
            except json.JSONDecodeError:
                resp = None
            if not isinstance(resp, dict):
                self._drop()
                problem = "sent a reply that is not a JSON object" if line else "closed the connection"
                raise self.unreachable(f"{self.peer} at {self.address} {problem}")
        if not resp.get("ok"):
            raise self.rejected(resp.get("error", f"{self.peer} rejected the request"))
        return resp

    def _drop(self) -> None:
        if self._sock is not None:
            try:
                self._rfile.close()
                self._sock.close()
            except OSError:
                pass
        self._sock = None
        self._rfile = None

    def close(self) -> None:
        with self._lock:
            self._drop()
