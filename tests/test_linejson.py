"""The shared line-JSON transport: server stop, typed client failures, reconnects."""

import socket
import threading
import time

import pytest

from casca import linejson
from casca.errors import ControllerUnreachableError, ValidationError
from casca.mock_service import THREAD_SETTING, ControlServer, MockService, WorkloadModel
from casca.service_api import MockServiceControllerClient
from casca.store import RemoteStore, StoreServer, TelemetryPoint, TimeSeriesStore


def store_server(listen):
    return StoreServer(TimeSeriesStore(), listen=listen)


def control_server(listen):
    return ControlServer(MockService(WorkloadModel(), initial_threads=3), listen=listen)


# (server factory, client class, typed error, one request that succeeds)
KINDS = {
    "store": (store_server, RemoteStore, ValidationError,
              lambda c: c.write(TelemetryPoint("fps", {}, {"value": 1.0}, 1000))),
    "controller": (control_server, MockServiceControllerClient, ControllerUnreachableError,
                   lambda c: c.get(THREAD_SETTING)),
}


def not_json(conn):
    for _ in conn.makefile("rb"):
        conn.sendall(b"this is not json\n")


@pytest.mark.parametrize("kind", list(KINDS))
def test_client_failures_are_typed_and_the_client_reconnects(kind):
    make_server, client_cls, error, call = KINDS[kind]
    server = make_server("127.0.0.1:0")
    address = server.address
    client = client_cls(address)
    try:
        call(client)
        server.stop()
        # the connection opened above was shut by stop(), not left answering
        with pytest.raises(error):
            call(client)

        server = linejson.Server(address, not_json)
        with pytest.raises(error, match="not a JSON object"):
            call(client)
        server.stop()

        # same address, same client object: the next request reconnects
        server = make_server(address)
        call(client)
    finally:
        client.close()
        server.stop()


def test_request_response_framing_and_bad_json():
    server = linejson.Server("127.0.0.1:0", linejson.answering(lambda req: {"ok": True, "echo": req}))
    try:
        with socket.create_connection(linejson.parse_addr(server.address), timeout=5) as sock:
            rfile = sock.makefile("r", encoding="utf-8")
            sock.sendall(b'{"a": 1}\n\nnot json\n')
            assert rfile.readline() == '{"ok": true, "echo": {"a": 1}}\n'
            assert rfile.readline().startswith('{"ok": false, "error": "bad json: ')
    finally:
        server.stop()


def test_stop_ends_open_connection_threads():
    before = threading.active_count()
    server = linejson.Server("127.0.0.1:0", linejson.answering(lambda req: {"ok": True}))
    client = linejson.Client(server.address)
    client.request({})
    server.stop()
    deadline = time.monotonic() + 5.0
    while threading.active_count() > before and time.monotonic() < deadline:
        time.sleep(0.01)
    assert threading.active_count() <= before
    client.close()
