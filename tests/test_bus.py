"""Tests for the telemetry bus: topic matching, broker fan-out, TCP framing."""

import json
import random
import socket
import struct
import threading
import time

import pytest

from casca.bus import (
    Broker,
    BusClient,
    BusServer,
    Envelope,
    decode_envelope,
    encode_envelope,
    parse_addr,
    subscribe_remote,
    topic_matches,
    validate_pattern,
    validate_topic,
)
from casca.errors import BusConnectionError, ValidationError


class TestTopicValidation:
    def test_plain_topics_pass(self):
        for t in ("a", "a/b", "power/plug/SENSOR", "fps/c-1", "x_1/y_2"):
            validate_topic(t)

    def test_bad_topics_rejected(self):
        for t in ("", "a//b", "/a", "a/", "a b", "a/\tb", "a/+", "a/#", None, 7):
            with pytest.raises(ValidationError):
                validate_topic(t)

    def test_pattern_wildcards(self):
        for p in ("#", "+", "a/+/c", "a/b/#", "+/+", "+/#"):
            validate_pattern(p)

    def test_bad_patterns_rejected(self):
        # '#' must be final, wildcards must be whole segments
        for p in ("#/a", "a/#/b", "a+", "a/b+", "#b", "", "a//#"):
            with pytest.raises(ValidationError):
                validate_pattern(p)


class TestTopicMatching:
    CASES = [
        ("a", "a", True),
        ("a", "b", False),
        ("a/b", "a/b", True),
        ("a/b", "a", False),
        ("a", "a/b", False),
        ("+", "a", True),
        ("+", "a/b", False),
        ("a/+", "a/b", True),
        ("a/+", "a/b/c", False),
        ("+/b", "a/b", True),
        ("+/+", "a/b", True),
        ("#", "a", True),
        ("#", "a/b/c", True),
        ("a/#", "a", True),  # '#' also matches the parent level
        ("a/#", "a/b", True),
        ("a/#", "a/b/c", True),
        ("a/#", "b/a", False),
        ("a/+/c", "a/b/c", True),
        ("a/+/c", "a/b/d", False),
        ("power/#", "power/plug/SENSOR", True),
        ("fps/+", "fps/c1", True),
        ("fps/+", "fps/c1/extra", False),
    ]

    def test_match_table(self):
        for pattern, topic, expected in self.CASES:
            assert topic_matches(pattern, topic) is expected, (pattern, topic)

    def test_randomized_against_reference(self):
        """Compare the iterative matcher with a recursive reference matcher."""

        def ref(pseg, tseg):
            if not pseg:
                return not tseg
            if pseg[0] == "#":
                return True
            if not tseg:
                return False
            if pseg[0] != "+" and pseg[0] != tseg[0]:
                return False
            return ref(pseg[1:], tseg[1:])

        rng = random.Random(42)
        alphabet = ["a", "b", "c"]
        for _ in range(2000):
            tlen = rng.randint(1, 4)
            topic = "/".join(rng.choice(alphabet) for _ in range(tlen))
            plen = rng.randint(1, 4)
            pseg = [rng.choice(alphabet + ["+"]) for _ in range(plen)]
            if rng.random() < 0.3:
                pseg[-1] = "#"
            pattern = "/".join(pseg)
            assert topic_matches(pattern, topic) == ref(pseg, topic.split("/"))


class TestEnvelope:
    def test_roundtrip(self):
        env = Envelope(topic="a/b", payload={"fps": 29.5}, ts=1000)
        line = encode_envelope(env).decode("utf-8")
        assert line.endswith("\n")
        back = decode_envelope(line)
        assert back == env

    def test_wire_keys(self):
        obj = json.loads(encode_envelope(Envelope("t", None, 1)).decode())
        assert set(obj) == {"t", "p", "ts"}

    def test_validate_rejects_bad_ts(self):
        with pytest.raises(ValidationError):
            Envelope("a", {}, -5).validate()
        with pytest.raises(ValidationError):
            Envelope("a", {}, 1.5).validate()

    def test_decode_rejects_non_envelope(self):
        with pytest.raises(ValidationError):
            decode_envelope('{"x": 1}')
        with pytest.raises(json.JSONDecodeError):
            decode_envelope("not json")


class TestBroker:
    def test_fanout_to_matching_subscribers(self):
        broker = Broker()
        a = broker.subscribe("fps/+")
        b = broker.subscribe("#")
        c = broker.subscribe("power/#")
        broker.publish(Envelope("fps/c1", {"fps": 30.0}, 1))
        assert a.get(timeout=1).topic == "fps/c1"
        assert b.get(timeout=1).topic == "fps/c1"
        assert c.get(timeout=0.05) is None

    def test_order_preserved_per_topic(self):
        broker = Broker()
        sub = broker.subscribe("a")
        for i in range(50):
            broker.publish(Envelope("a", i, i))
        got = [sub.get(timeout=1).payload for _ in range(50)]
        assert got == list(range(50))

    def test_attach_callback_runs_inside_publish(self):
        broker = Broker()
        seen = []
        broker.attach("a/#", seen.append)
        broker.publish(Envelope("a/b", 1, 1))
        # synchronous delivery: visible immediately, no polling needed
        assert len(seen) == 1 and seen[0].payload == 1
        broker.detach(seen.append)

    def test_detach_stops_delivery(self):
        broker = Broker()
        seen = []
        cb = seen.append
        broker.attach("#", cb)
        broker.publish(Envelope("a", 1, 1))
        broker.detach(cb)
        broker.publish(Envelope("a", 2, 2))
        assert [e.payload for e in seen] == [1]

    def test_callback_exception_does_not_break_publish(self):
        broker = Broker()
        seen = []

        def boom(env):
            raise RuntimeError("boom")

        broker.attach("#", boom)
        broker.attach("#", seen.append)
        broker.publish(Envelope("a", 1, 1))
        assert len(seen) == 1

    def test_closed_subscription_detached(self):
        broker = Broker()
        sub = broker.subscribe("#")
        sub.close()
        broker.publish(Envelope("a", 1, 1))
        # the close sentinel is the only queue item
        assert sub.get(timeout=0.2) is None

    def test_publish_validates(self):
        broker = Broker()
        with pytest.raises(ValidationError):
            broker.publish(Envelope("bad topic", 1, 1))


class TestParseAddr:
    def test_ok(self):
        assert parse_addr("127.0.0.1:7811") == ("127.0.0.1", 7811)

    def test_bad(self):
        for addr in ("nohost", ":123", "h:", "h:x"):
            with pytest.raises(ValidationError):
                parse_addr(addr)


class TestBusOverTcp:
    def test_publish_and_subscribe_roundtrip(self):
        server = BusServer(listen="127.0.0.1:0")
        try:
            sub = subscribe_remote(server.address, "fps/#")
            pub = BusClient(server.address)
            time.sleep(0.05)  # let the server register the subscriber
            pub.publish(Envelope("fps/c1", {"fps": 25.0}, 123))
            env = sub.get(timeout=2)
            assert env is not None
            assert env.topic == "fps/c1"
            assert env.payload == {"fps": 25.0}
            assert env.ts == 123
            sub.close()
            pub.close()
        finally:
            server.stop()

    def test_malformed_lines_dropped_stream_continues(self):
        server = BusServer(listen="127.0.0.1:0")
        try:
            sub = subscribe_remote(server.address, "#")
            time.sleep(0.05)
            host, port = parse_addr(server.address)
            raw = socket.create_connection((host, port))
            raw.sendall(b'this is not json\n')
            raw.sendall(b'{"t": "a", "p": 1, "ts": 7}\n')
            raw.sendall(b'{"t": "bad topic", "p": 1, "ts": 8}\n')
            raw.sendall(b'{"t": "b", "p": 2, "ts": 9}\n')
            got = [sub.get(timeout=2), sub.get(timeout=2)]
            assert [e.topic for e in got] == ["a", "b"]
            raw.close()
            sub.close()
        finally:
            server.stop()

    def test_shared_broker_bridges_local_and_remote(self):
        broker = Broker()
        server = BusServer(broker, listen="127.0.0.1:0")
        try:
            local = broker.subscribe("x/+")
            pub = BusClient(server.address)
            pub.publish(Envelope("x/y", "hello", 1))
            env = local.get(timeout=2)
            assert env is not None and env.payload == "hello"
            pub.close()
        finally:
            server.stop()

    def test_stop_ends_subscriber_threads_after_a_reset(self):
        before = threading.active_count()
        server = BusServer(listen="127.0.0.1:0")
        subscribers = [socket.create_connection(parse_addr(server.address)) for _ in range(2)]
        for s in subscribers:
            s.sendall(b'{"sub": "#"}\n')
        time.sleep(0.05)
        pub = BusClient(server.address)
        pub.publish(Envelope("a", 1, 1))
        time.sleep(0.05)
        # closing with the envelope unread and linger 0 resets the connection
        subscribers[0].setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        subscribers[0].close()
        time.sleep(0.05)
        server.stop()
        deadline = time.monotonic() + 5.0
        while threading.active_count() > before and time.monotonic() < deadline:
            time.sleep(0.01)
        assert threading.active_count() <= before
        pub.close()
        subscribers[1].close()

    def test_remote_subscription_survives_a_timeout_and_closes_at_once(self):
        server = BusServer(listen="127.0.0.1:0")
        pub = BusClient(server.address)
        try:
            sub = subscribe_remote(server.address, "fps/#")
            deadline = time.monotonic() + 2.0
            while not server.broker._subs and time.monotonic() < deadline:
                time.sleep(0.01)
            assert sub.get(timeout=0.1) is None
            assert not sub.closed
            pub.publish(Envelope("fps/c1", {"fps": 25.0}, 123))
            env = sub.get(timeout=0.5)
            assert env is not None and env.payload == {"fps": 25.0}
            sub.close()
            # no `del sub`: close() alone must end the broker's subscription
            deadline = time.monotonic() + 1.0
            while server.broker._subs and time.monotonic() < deadline:
                time.sleep(0.01)
            assert len(server.broker._subs) == 0
        finally:
            pub.close()
            server.stop()

    def test_client_raises_when_broker_unreachable(self):
        # grab a port and close it again so nothing is listening there
        s = socket.socket()
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
        s.close()
        client = BusClient(f"127.0.0.1:{port}")
        with pytest.raises(BusConnectionError):
            client.publish(Envelope("a", 1, 1))
