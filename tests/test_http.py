"""The JSON-over-HTTP servers (gateway, carbon API) and their clients."""

import threading
import time

import pytest

from casca.clients import EmmaApiClient, ServiceApiClient, SloApiClient
from casca.emma import EmmaService
from casca.errors import CascaError, ValidationError
from casca.orchestrator import Stack, load_scenario

SERVERS = {
    "gateway": ("api", ServiceApiClient, lambda c: c.list_slos()),
    "emma": ("emma", EmmaApiClient, lambda c: c.sources()),
}


@pytest.mark.parametrize("name", list(SERVERS))
def test_stop_right_after_a_request_is_fast_and_final(platform, name):
    attr, client_cls, call = SERVERS[name]
    stack = Stack(load_scenario(platform.write_scenario("http.json")))
    stack.boot()
    try:
        server = getattr(stack, attr)
        before = set(threading.enumerate())
        client = client_cls(server.address)
        call(client)   # leaves the connection open, its handler waiting for more

        t0 = time.perf_counter()
        server.stop()
        assert time.perf_counter() - t0 < 0.1

        deadline = time.monotonic() + 2.0
        while set(threading.enumerate()) - before and time.monotonic() < deadline:
            time.sleep(0.01)
        assert set(threading.enumerate()) - before == set()
        # the kept-alive connection was shut too, not left answering
        with pytest.raises(CascaError):
            call(client)
        client.close()
    finally:
        stack.stop()


def test_client_reconnects_to_a_restarted_server(platform):
    service = EmmaService(platform.sources, platform.locations, listen="127.0.0.1:0")
    address = service.address
    client = EmmaApiClient(address)
    try:
        first = client.sources()
        service.stop()
        service = EmmaService(platform.sources, platform.locations, listen=address)
        # same client object: its stale connection fails once and is reopened
        assert client.sources() == first
    finally:
        client.close()
        service.stop()


def test_https_endpoints_are_rejected():
    with pytest.raises(ValidationError, match="https://127.0.0.1:1"):
        SloApiClient("https://127.0.0.1:1")
