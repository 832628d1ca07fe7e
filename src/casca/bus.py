"""Topic-based publish/subscribe telemetry middleware.

A single `Broker` holds the subscription table and can be used three ways:

* in-process, queue-backed subscriptions (`Broker.subscribe`) -- ordered
  streams for consumers running their own loop;
* in-process, synchronous callbacks (`Broker.attach`) -- delivery happens
  inside `publish`, which gives scenario schedulers quiescence for free;
* over TCP via `BusServer` / `BusClient` with a newline-delimited JSON wire
  format, one envelope object per line with keys `t`, `p`, `ts`.

Wildcards: a `+` segment matches exactly one topic segment, a trailing `#`
matches any (possibly empty) suffix. No QoS, retained messages, or auth.
"""

from __future__ import annotations

import collections
import json
import logging
import queue
import socket
import threading
from dataclasses import dataclass

from . import linejson
from .errors import BusConnectionError, ValidationError
from .linejson import parse_addr

log = logging.getLogger("casca.bus")

DEFAULT_LISTEN = "127.0.0.1:7811"


def validate_topic(topic: str) -> None:
    if not isinstance(topic, str) or not topic:
        raise ValidationError("topic must be a non-empty string")
    if any(ch.isspace() for ch in topic):
        raise ValidationError(f"topic {topic!r} contains whitespace")
    if any(seg == "" for seg in topic.split("/")):
        raise ValidationError(f"topic {topic!r} has an empty segment")
    if "+" in topic or "#" in topic:
        raise ValidationError(f"topic {topic!r} contains wildcard characters")


def validate_pattern(pattern: str) -> None:
    if not isinstance(pattern, str) or not pattern:
        raise ValidationError("pattern must be a non-empty string")
    if any(ch.isspace() for ch in pattern):
        raise ValidationError(f"pattern {pattern!r} contains whitespace")
    segments = pattern.split("/")
    for i, seg in enumerate(segments):
        if seg == "":
            raise ValidationError(f"pattern {pattern!r} has an empty segment")
        if seg == "#" and i != len(segments) - 1:
            raise ValidationError(f"'#' is only allowed as the final segment of {pattern!r}")
        if ("#" in seg or "+" in seg) and seg not in ("#", "+"):
            raise ValidationError(f"wildcard must be a whole segment in {pattern!r}")


def topic_matches(pattern: str, topic: str) -> bool:
    """True when `topic` is selected by `pattern`.

    `+` matches exactly one segment; a trailing `#` matches the remainder,
    including the empty remainder (so `a/#` selects `a` itself).
    """
    pseg = pattern.split("/")
    tseg = topic.split("/")
    i = 0
    while i < len(pseg):
        p = pseg[i]
        if p == "#":
            return True
        if i >= len(tseg):
            return False
        if p != "+" and p != tseg[i]:
            return False
        i += 1
    return i == len(tseg)


@dataclass(frozen=True)
class Envelope:
    """One telemetry message: topic, arbitrary JSON payload, epoch-ms timestamp."""

    topic: str
    payload: object
    ts: int

    def validate(self) -> "Envelope":
        validate_topic(self.topic)
        if not isinstance(self.ts, int) or self.ts < 0:
            raise ValidationError(f"ts must be a non-negative integer, got {self.ts!r}")
        return self


def encode_envelope(env: Envelope) -> bytes:
    return linejson.encode({"t": env.topic, "p": env.payload, "ts": env.ts})


def decode_envelope(line: str) -> Envelope:
    obj = json.loads(line)
    if not isinstance(obj, dict) or "t" not in obj or "ts" not in obj:
        raise ValidationError(f"not an envelope object: {line!r}")
    return Envelope(topic=obj["t"], payload=obj.get("p"), ts=obj["ts"]).validate()


class Subscription:
    """Queue-backed ordered stream of envelopes for one pattern."""

    def __init__(self, broker: "Broker", pattern: str):
        self.pattern = pattern
        self._broker = broker
        self._queue: queue.Queue = queue.Queue()
        self.closed = False

    def _deliver(self, env: Envelope) -> None:
        self._queue.put(env)

    def get(self, timeout: float | None = None) -> Envelope | None:
        """Next envelope, or None on timeout / after close drained."""
        try:
            item = self._queue.get(timeout=timeout)
        except queue.Empty:
            return None
        return item

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self._broker._remove(self)
            self._queue.put(None)


class Broker:
    """Subscription table plus fan-out. Thread-safe; per-topic FIFO."""

    def __init__(self):
        self._lock = threading.Lock()
        self._subs: list[Subscription] = []
        self._callbacks: list[tuple[str, object]] = []

    def subscribe(self, pattern: str) -> Subscription:
        validate_pattern(pattern)
        sub = Subscription(self, pattern)
        with self._lock:
            self._subs.append(sub)
        return sub

    def attach(self, pattern: str, callback) -> None:
        """Register a callback invoked synchronously inside publish()."""
        validate_pattern(pattern)
        with self._lock:
            self._callbacks.append((pattern, callback))

    def detach(self, callback) -> None:
        # equality, not identity: bound methods are re-created per access
        with self._lock:
            self._callbacks = [(p, c) for (p, c) in self._callbacks if c != callback]

    def _remove(self, sub: Subscription) -> None:
        with self._lock:
            if sub in self._subs:
                self._subs.remove(sub)

    def publish(self, env: Envelope) -> None:
        env.validate()
        # Snapshot under the lock; enqueue under it too so concurrent
        # publishers cannot interleave within one topic.
        with self._lock:
            targets = [s for s in self._subs if topic_matches(s.pattern, env.topic)]
            callbacks = [c for (p, c) in self._callbacks if topic_matches(p, env.topic)]
            for sub in targets:
                sub._deliver(env)
        for cb in callbacks:
            try:
                cb(env)
            except Exception:
                log.exception("subscriber callback failed for topic %s", env.topic)


class BusServer(linejson.Server):
    """TCP front-end for a Broker.

    A connection whose first line is `{"sub": "<pattern>"}` becomes a
    subscriber and receives matching envelopes as NDJSON; any other
    connection is a publisher and every line it sends is one publish.
    """

    def __init__(self, broker: Broker | None = None, listen: str = DEFAULT_LISTEN):
        self.broker = broker if broker is not None else Broker()
        super().__init__(listen, self._serve_bus_conn)

    def _serve_bus_conn(self, conn: socket.socket) -> None:
        with conn.makefile("r", encoding="utf-8", newline="\n") as rfile:
            first = rfile.readline()
            if not first:
                return
            try:
                obj = json.loads(first)
            except json.JSONDecodeError:
                log.warning("dropping malformed line from client")
                obj = None
            if isinstance(obj, dict) and set(obj.keys()) == {"sub"}:
                self._serve_subscriber(conn, rfile, obj["sub"])
                return
            if obj is not None:
                self._publish_line(first)
            for line in rfile:
                if line.strip():
                    self._publish_line(line)

    def _publish_line(self, line: str) -> None:
        try:
            self.broker.publish(decode_envelope(line))
        except (ValidationError, json.JSONDecodeError) as exc:
            log.warning("dropping malformed publish: %s", exc)

    def _serve_subscriber(self, conn: socket.socket, rfile, pattern: str) -> None:
        try:
            sub = self.broker.subscribe(pattern)
        except ValidationError as exc:
            conn.sendall(linejson.encode({"error": str(exc)}))
            return
        threading.Thread(target=self._unsubscribe_at_eof, args=(rfile, sub), daemon=True).start()
        try:
            while (env := sub.get()) is not None:   # None once sub is closed
                conn.sendall(encode_envelope(env))
        finally:
            sub.close()

    @staticmethod
    def _unsubscribe_at_eof(rfile, sub: Subscription) -> None:
        """Close `sub` when the connection ends: client close or reset, or server stop."""
        try:
            rfile.read()
        except (OSError, ValueError):
            pass
        sub.close()


class BusClient(linejson.Client):
    """Publisher handle for a remote broker. One TCP connection, line-per-publish."""

    peer = "broker"
    unreachable = BusConnectionError

    def __init__(self, address: str = DEFAULT_LISTEN):
        super().__init__(address)

    def publish(self, env: Envelope) -> None:
        env.validate()
        data = encode_envelope(env)
        with self._lock:
            self._exchange(data, reply=False)


class RemoteSubscription:
    """Client side of a subscriber connection; `get` like Subscription."""

    def __init__(self, address: str, pattern: str):
        validate_pattern(pattern)
        self.pattern = pattern
        host, port = parse_addr(address)
        try:
            self._sock = socket.create_connection((host, port), timeout=5)
        except OSError as exc:
            raise BusConnectionError(f"cannot reach broker at {address}: {exc}") from exc
        self._sock.sendall(linejson.encode({"sub": pattern}))
        # Lines are split here, not by a socket file: after one read
        # timeout a socket file refuses every later read.
        self._lines: collections.deque[bytes] = collections.deque()
        self._partial = b""
        self.closed = False

    def get(self, timeout: float | None = None) -> Envelope | None:
        """Next envelope; None on timeout, or with `closed` set at end of stream."""
        self._sock.settimeout(timeout)
        while not self._lines:
            try:
                chunk = self._sock.recv(65536)
            except TimeoutError:
                return None
            except OSError:
                chunk = b""
            if not chunk:
                self.closed = True
                return None
            *lines, self._partial = (self._partial + chunk).split(b"\n")
            self._lines.extend(lines)
        return decode_envelope(self._lines.popleft().decode("utf-8"))

    def close(self) -> None:
        """End the subscription: the broker sees end-of-file and drops it."""
        self.closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


def subscribe_remote(address: str, pattern: str) -> RemoteSubscription:
    return RemoteSubscription(address, pattern)
