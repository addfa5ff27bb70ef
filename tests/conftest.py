import threading
import traceback

import pytest

from rmaws.server.handlers import HandlerRegistry, make_synthetic
from rmaws.server.http import RmawsServer, ServerConfig

TOKEN = "test-token"


@pytest.fixture
def live_server():
    """Factory fixture: start a loopback server, stop it on teardown."""
    servers = []
    errors = []

    def start(services=None, registry=None, *, auth_token=TOKEN, clock=None,
              cache_ttl_ms=None, push_idle_timeout_ms=300_000, break_dedup=False):
        config = ServerConfig(
            bind_host="127.0.0.1",
            bind_port=0,
            auth_token=auth_token,
            cache_ttl_ms=cache_ttl_ms,
            push_idle_timeout_ms=push_idle_timeout_ms,
            services=services or [],
        )
        if registry is None and not config.services:
            registry = HandlerRegistry().add(make_synthetic("echo"))
        server = RmawsServer(config, registry, clock=clock, break_dedup=break_dedup)
        # A connection thread that ends in an exception prints a traceback
        # and closes; malformed input must end in a defined answer instead.
        server._httpd.handle_error = lambda request, address: errors.append(
            (address, traceback.format_exc()))
        server.start()
        servers.append(server)
        return server

    yield start
    for server in servers:
        name = f"rmaws-conn-{server.port}"
        server.stop(drain_timeout_s=5.0)
        # A connection thread that outlives stop() is a leaked keep-alive
        # or push connection.
        leaked = [t for t in threading.enumerate() if t.name == name]
        assert leaked == [], f"{len(leaked)} connection thread(s) alive after stop()"
    assert errors == [], "connection thread(s) ended in an exception"
