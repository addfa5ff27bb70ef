import http.client
import socket
import socketserver
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

import rmaws.server.http
from rmaws import http1, ws
from rmaws.client import Client, ClientError, SendOptions, build
from rmaws.push import PushSession
from rmaws.envelope import (CHANNEL_HEADER, RID_HEADER, STATUS_HEADER, Channel, ResponseStatus,
                            decode_request)
from rmaws.server.handlers import HandlerRegistry, ServiceHandler, make_synthetic
from rmaws.server.http import _Httpd

from conftest import TOKEN


class FrozenClock:
    def __init__(self, t=1_700_000_000_000):
        self.t = t

    def __call__(self):
        return self.t


def counting_handler(name, body=b"BODY", delay_ms=0):
    calls = []

    def fn(payload):
        calls.append(payload)
        return body

    return ServiceHandler(name=name, fn=fn, delay_ms=delay_ms), calls


def make_client(server, **kw):
    kw.setdefault("auth_token", TOKEN)
    host, port = server.address
    return Client(host, port, **kw)


def test_happy_path_http(live_server):
    server = live_server([{"name": "echo"}])
    client = make_client(server)
    outcome = client.send("echo", b"hello world")
    assert outcome.status is ResponseStatus.OK
    assert outcome.channel is Channel.HTTP
    assert outcome.body == b"hello world"
    assert outcome.trials_used == 1


def test_healthz(live_server):
    server = live_server([{"name": "echo"}])
    conn = http.client.HTTPConnection(*server.address)
    conn.request("GET", "/healthz")
    resp = conn.getresponse()
    assert resp.status == 200
    assert resp.read() == b"ok"
    conn.close()


def test_direct_matches_rmaws_body(live_server):
    server = live_server([{"name": "gen", "output_size": 4096}])
    client = make_client(server)
    payload = b"x" * 25
    direct = client.send_direct("gen", payload)
    enveloped = client.send("gen", payload)
    assert direct.body == enveloped.body
    assert direct.channel is Channel.HTTP
    assert len(direct.body) == 4096


def test_unknown_service_rejected(live_server):
    server = live_server([{"name": "echo"}])
    client = make_client(server)
    with pytest.raises(ClientError) as err:
        client.send("nope", b"x")
    assert err.value.kind == "Rejected"
    assert "UnknownService" in err.value.detail


def test_bad_token_rejected(live_server):
    server = live_server([{"name": "echo"}])
    client = make_client(server, auth_token="wrong")
    with pytest.raises(ClientError) as err:
        client.send("echo", b"x")
    assert err.value.kind == "Rejected"
    assert "Unauthorized" in err.value.detail


def test_malformed_envelope_gets_validation_response(live_server):
    server = live_server([{"name": "echo"}])
    conn = http.client.HTTPConnection(*server.address)
    conn.request("POST", "/services/echo", body=b"garbage" * 40,
                 headers={"X-RMAWS-Token": TOKEN})
    resp = conn.getresponse()
    assert resp.status == 400
    assert resp.headers["X-RMAWS-Status"] == "ValidationError"
    resp.read()
    conn.close()


def test_repeat_rid_replays_from_cache(live_server):
    handler, calls = counting_handler("orders")
    server = live_server(registry=HandlerRegistry().add(handler))
    client = make_client(server, clock=FrozenClock())
    first = client.send("orders", b"p")
    second = client.send("orders", b"p")
    assert first.channel is Channel.HTTP
    assert second.channel is Channel.CACHE_REPLAY
    assert second.body == first.body == b"BODY"
    assert len(calls) == 1


def test_sixteen_concurrent_sends_execute_once(live_server):
    handler, calls = counting_handler("orders", delay_ms=150)
    server = live_server(registry=HandlerRegistry().add(handler))
    clock = FrozenClock()
    outcomes = []
    errors = []

    def worker():
        client = make_client(server, clock=clock)
        try:
            outcomes.append(client.send("orders", b"p", SendOptions(
                http_timeout_ms=5_000, auth_token=TOKEN)))
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(16)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    assert len(calls) == 1
    assert len(outcomes) == 16
    assert {o.body for o in outcomes} == {b"BODY"}
    key = outcomes[0].rid.dedup_key
    assert server.core.execution_count(key) == 1


def test_timeout_recovers_via_push(live_server):
    handler, calls = counting_handler("slow", body=b"finally", delay_ms=600)
    server = live_server(registry=HandlerRegistry().add(handler))
    client = make_client(server)
    outcome = client.send("slow", b"p", SendOptions(
        http_timeout_ms=200, push_wait_ms=10_000, auth_token=TOKEN))
    assert outcome.status is ResponseStatus.OK
    assert outcome.channel is Channel.PUSH
    assert outcome.body == b"finally"
    assert outcome.trials_used == 1
    assert len(calls) == 1
    assert server.core.execution_count(outcome.rid.dedup_key) == 1


def test_forced_reexecution_overwrites_cache(live_server):
    bodies = [b"first", b"second"]
    calls = []

    def fn(payload):
        calls.append(payload)
        return bodies[len(calls) - 1]

    server = live_server(registry=HandlerRegistry().add(ServiceHandler("orders", fn)))
    clock = FrozenClock()
    client = make_client(server, clock=clock)
    plain = client.send("orders", b"p")
    assert plain.body == b"first"
    forced = client.send("orders", b"p", SendOptions(forced=True, auth_token=TOKEN))
    assert forced.body == b"second"
    replay = client.send("orders", b"p")
    assert replay.channel is Channel.CACHE_REPLAY
    assert replay.body == b"second"
    assert len(calls) == 2


def test_default_clock_gives_each_send_its_own_identity():
    # Back-to-back stamps land in one wall-clock millisecond; two Client
    # objects for one device share the process-wide allocator.
    first, second = Client("127.0.0.1", 9), Client("127.0.0.1", 9)
    stamps = [client.clock() for _ in range(50) for client in (first, second)]
    assert len(set(stamps)) == len(stamps)


def test_reused_identity_with_other_payload_rejected(live_server):
    handler, calls = counting_handler("orders")
    server = live_server(registry=HandlerRegistry().add(handler))
    client = make_client(server, clock=FrozenClock())
    first = client.send("orders", b"p")
    with pytest.raises(ClientError) as err:
        client.send("orders", b"q")
    assert err.value.kind == "Rejected"
    assert "IdentityConflict" in err.value.detail
    assert calls == [b"p"]
    assert server.core.execution_count(first.rid.dedup_key) == 1


def test_failed_execution_reexecutes_on_retry(live_server):
    server = live_server(registry=HandlerRegistry().add(
        make_synthetic("flaky", fail_times=1)))
    clock = FrozenClock()
    client = make_client(server, clock=clock)
    first = client.send("flaky", b"p")
    assert first.status is ResponseStatus.SERVICE_ERROR
    assert first.body is None
    second = client.send("flaky", b"p")
    assert second.status is ResponseStatus.OK
    assert second.body == b"p"
    assert server.core.execution_count(second.rid.dedup_key) == 2


def test_path_envelope_mismatch_rejected(live_server):
    from rmaws.client import build
    from rmaws.envelope import encode_request

    server = live_server([{"name": "echo"}, {"name": "other"}])
    env = build("other", b"p", False, 1, lambda: 1, "devA")
    conn = http.client.HTTPConnection(*server.address)
    conn.request("POST", "/services/echo", body=encode_request(env),
                 headers={"X-RMAWS-Token": TOKEN})
    resp = conn.getresponse()
    assert resp.status == 400
    resp.read()
    conn.close()


def test_graceful_stop_drains_inflight_delivery(live_server):
    handler, _ = counting_handler("slow", body=b"drained", delay_ms=500)
    server = live_server(registry=HandlerRegistry().add(handler))
    client = make_client(server)
    result = {}

    def sender():
        result["outcome"] = client.send("slow", b"p", SendOptions(
            http_timeout_ms=5_000, auth_token=TOKEN))

    t = threading.Thread(target=sender)
    t.start()
    time.sleep(0.15)  # request is in flight
    server.stop(drain_timeout_s=10.0)
    t.join(timeout=5.0)
    assert result["outcome"].body == b"drained"
    assert result["outcome"].status is ResponseStatus.OK
    with pytest.raises(OSError):
        http.client.HTTPConnection(*server.address, timeout=0.5).request("GET", "/healthz")


def test_refused_connection_is_transport_error():
    client = Client("127.0.0.1", 9, auth_token=TOKEN)  # discard port, nothing listens
    with pytest.raises(ClientError) as err:
        client.send("echo", b"x", SendOptions(http_timeout_ms=200, auth_token=TOKEN))
    assert err.value.kind == "Transport"
    with pytest.raises(ClientError):
        client.send_direct("echo", b"x", SendOptions(http_timeout_ms=200, auth_token=TOKEN))


# -- keep-alive -------------------------------------------------------------

def count_accepts(monkeypatch):
    """Record every connection the server accepts from now on."""
    accepts = []
    original = _Httpd.process_request

    def process_request(httpd, request, client_address):
        accepts.append(client_address)
        return original(httpd, request, client_address)

    monkeypatch.setattr(_Httpd, "process_request", process_request)
    return accepts


def test_sequential_sends_share_one_connection(live_server, monkeypatch):
    accepts = count_accepts(monkeypatch)
    server = live_server([{"name": "echo"}])
    client = make_client(server)
    for i in range(50):
        outcome = client.send("echo", b"p%d" % i)
        assert (outcome.channel, outcome.body, outcome.trials_used) == (Channel.HTTP, b"p%d" % i, 1)
    for i in range(5):
        assert client.send_direct("echo", b"d%d" % i).body == b"d%d" % i
    assert len(accepts) == 1


def test_timed_out_connection_is_not_reused(live_server):
    slow, _ = counting_handler("slow", body=b"slow body", delay_ms=300)
    server = live_server(registry=HandlerRegistry().add(slow).add(make_synthetic("echo")))
    client = make_client(server)
    pushed = client.send("slow", b"p", SendOptions(
        http_timeout_ms=100, push_wait_ms=10_000, auth_token=TOKEN))
    assert (pushed.channel, pushed.body) == (Channel.PUSH, b"slow body")
    # Had the abandoned connection been pooled, the slow response written
    # on it would now answer this send.
    fast = client.send("echo", b"fast payload")
    assert (fast.channel, fast.body, fast.trials_used) == (Channel.HTTP, b"fast payload", 1)


def test_send_after_server_closed_idle_connection(live_server, monkeypatch):
    monkeypatch.setattr(rmaws.server.http, "KEEPALIVE_IDLE_S", 0.2)
    accepts = count_accepts(monkeypatch)
    handler, calls = counting_handler("orders")
    server = live_server(registry=HandlerRegistry().add(handler))
    client = make_client(server)
    client.send("orders", b"first")
    time.sleep(0.6)  # the server closes the pooled connection meanwhile
    outcome = client.send("orders", b"second")
    assert (outcome.channel, outcome.body, outcome.trials_used) == (Channel.HTTP, b"BODY", 1)
    assert server.core.execution_count(outcome.rid.dedup_key) == 1
    assert calls == [b"first", b"second"]
    assert len(accepts) == 2


def test_pooled_connection_after_stop_is_transport_error(live_server):
    server = live_server([{"name": "echo"}])
    client = make_client(server)
    client.send("echo", b"before")
    server.stop(drain_timeout_s=5.0)
    started = time.monotonic()
    with pytest.raises(ClientError) as err:
        client.send("echo", b"after", SendOptions(http_timeout_ms=2_000, auth_token=TOKEN))
    assert err.value.kind == "Transport"
    assert time.monotonic() - started < 1.0


@pytest.mark.parametrize("length", ["abc", "-1", "1_0"])
def test_bad_content_length_gets_400_and_close(live_server, length):
    server = live_server([{"name": "echo"}])
    with socket.create_connection(server.address, timeout=5.0) as sock:
        sock.sendall(f"POST /services/echo HTTP/1.1\r\nHost: x\r\n"
                     f"Content-Length: {length}\r\n\r\n".encode("ascii"))
        data = b""
        while chunk := sock.recv(4096):  # ends only when the server closes
            data += chunk
    head = data.split(b"\r\n\r\n")[0]
    assert head.startswith(b"HTTP/1.1 400 ")
    assert b"\r\nConnection: close" in head


def exchange_until_close(address, data: bytes) -> bytes:
    """Send raw bytes, then read until the server closes. The read times
    out well before the server's idle close would end it."""
    with socket.create_connection(address, timeout=2.0) as sock:
        sock.sendall(data)
        out = b""
        while chunk := sock.recv(65536):
            out += chunk
    return out


SMUGGLED = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"


@pytest.mark.parametrize("request_bytes, status", [
    (b"POST /direct/echo HTTP/1.1\r\nHost: x\r\nContent-Length: 3\r\nContent-Length: 40\r\n"
     b"\r\nabc" + SMUGGLED, 400),
    (b"POST /direct/echo HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n"
     b"3\r\nabc\r\n0\r\n\r\n" + SMUGGLED, 400),
    (b"GET /healthz HTTP/1.1\r\nHost: x\r\nX-A: 1\r\n folded\r\n\r\n" + SMUGGLED, 400),
    (b"GET /healthz HTTP/1.1\r\nHost : x\r\n\r\n" + SMUGGLED, 400),
    (b"GET /healthz HTTP/1.1\r\nHost x\r\n\r\n" + SMUGGLED, 400),
    (b"GET  /healthz HTTP/1.1\r\nHost: x\r\n\r\n" + SMUGGLED, 400),
    (b"DELETE /healthz HTTP/1.1\r\nHost: x\r\n\r\n" + SMUGGLED, 501),
    (b"GET /healthz HTTP/2.0\r\nHost: x\r\n\r\n" + SMUGGLED, 505),
    (b"GET /healthz HTTP/1.1\r\n" + b"X: y\r\n" * 101 + b"\r\n" + SMUGGLED, 431),
    # Exactly one byte past each limit, so that the server reads every
    # byte sent and its close is a FIN, not a reset.
    (b"GET /" + b"a" * 65532, 414),
    (b"GET /healthz HTTP/1.1\r\nX: " + b"a" * 65534, 431),
], ids=["duplicate-content-length", "transfer-encoding", "obs-fold", "space-before-colon",
        "no-colon", "bad-request-line", "unknown-method", "http2", "too-many-fields",
        "long-request-line", "long-fields"])
def test_unframeable_request_gets_one_answer_and_close(live_server, request_bytes, status):
    server = live_server([{"name": "echo"}])
    data = exchange_until_close(server.address, request_bytes)
    head, _, body = data.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 %d " % status)
    assert b"\r\nConnection: close" in head
    # Nothing follows the one answer: the bytes after the bad head were
    # never read as a second request.
    assert data.count(b"HTTP/1.1 ") == 1
    assert len(body) == int(head.split(b"Content-Length: ")[1].split(b"\r\n")[0])


def test_expect_100_continue_gets_an_interim_response(live_server):
    server = live_server([{"name": "echo"}])
    with socket.create_connection(server.address, timeout=2.0) as sock:
        sock.sendall(b"POST /direct/echo HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\n"
                     b"Content-Length: 5\r\n\r\n")
        assert sock.recv(4096) == b"HTTP/1.1 100 Continue\r\n\r\n"
        sock.sendall(b"hello")
        resp = http.client.HTTPResponse(sock)
        resp.begin()
        assert (resp.status, resp.read(), resp.will_close) == (200, b"hello", False)
        resp.close()


class _CannedHandler(socketserver.StreamRequestHandler):
    """Answers the one request of each connection with the server's canned
    response, carrying the request's rid, then closes."""

    def handle(self):
        head = http1.parse_request(http1.read_head(self.rfile))
        body = self.rfile.read(http1.body_length(head.fields) or 0)
        rid = decode_request(body).rid.canonical() if head.target.startswith("/services/") else ""
        self.wfile.write(self.server.canned.replace(b"{rid}", rid.encode("ascii")))


CANNED_HEAD = (b"HTTP/1.1 200 OK\r\nX-RMAWS-Rid: {rid}\r\nX-RMAWS-Channel: Http\r\n"
               b"X-RMAWS-Status: Ok\r\n")


@pytest.mark.parametrize("framing, broken", [
    (b"Content-Length: 4\r\nContent-Length: 4\r\n\r\nBODY", True),
    (b"Content-Length: 4\r\nContent-Length: 8\r\n\r\nBODYBODY", True),
    (b"Transfer-Encoding: chunked\r\n\r\n4\r\nBODY\r\n0\r\n\r\n", True),
    (b"\r\nBODY", True),
    (b"Content-Length: 10\r\n\r\nBODY", True),
    (b"Content-Length: 4\r\n\r\nBODY", False),
], ids=["duplicate-content-length", "conflicting-content-length", "transfer-encoding",
        "no-content-length", "body-cut-short", "well-framed"])
def test_unframeable_response_is_broken(framing, broken):
    stub = socketserver.ThreadingTCPServer(("127.0.0.1", 0), _CannedHandler)
    stub.canned = CANNED_HEAD + framing
    thread = threading.Thread(target=stub.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    try:
        with Client(*stub.server_address[:2], auth_token=TOKEN) as client:
            opts = SendOptions(http_timeout_ms=5_000, push_wait_ms=50, max_trials=1,
                               auth_token=TOKEN)
            started = time.monotonic()
            if broken:
                # The send falls back to push, which the stub does not
                # speak: its one trial ends Exhausted, without a wait.
                with pytest.raises(ClientError) as err:
                    client.send("echo", b"mine", opts)
                assert err.value.kind == "Exhausted"
            else:
                outcome = client.send("echo", b"mine", opts)
                assert (outcome.channel, outcome.body) == (Channel.HTTP, b"BODY")
            assert time.monotonic() - started < 2.0
    finally:
        stub.shutdown()
        stub.server_close()
        thread.join(timeout=5.0)
    assert not thread.is_alive()


def count_handshakes(monkeypatch):
    """Record every WebSocket handshake a client makes from now on."""
    handshakes = []
    original = ws.client_handshake

    def client_handshake(*args):
        handshakes.append(args)
        return original(*args)

    monkeypatch.setattr(ws, "client_handshake", client_handshake)
    return handshakes


def test_push_connection_outlives_a_fallback(live_server, monkeypatch):
    handshakes = count_handshakes(monkeypatch)
    handler, calls = counting_handler("slow", body=b"late", delay_ms=300)
    server = live_server(registry=HandlerRegistry().add(handler))
    opts = SendOptions(http_timeout_ms=100, push_wait_ms=10_000, auth_token=TOKEN)
    with make_client(server) as client:
        outcomes = [client.send("slow", b"p%d" % i, opts) for i in range(2)]
    assert [(o.channel, o.body) for o in outcomes] == [(Channel.PUSH, b"late")] * 2
    assert len(calls) == 2
    assert len(handshakes) == 1


def test_push_reconnects_after_server_idle_close(live_server, monkeypatch):
    handshakes = count_handshakes(monkeypatch)
    handler, calls = counting_handler("slow", body=b"late", delay_ms=150)
    server = live_server(registry=HandlerRegistry().add(handler), push_idle_timeout_ms=300)
    opts = SendOptions(http_timeout_ms=50, push_wait_ms=10_000, max_trials=1, auth_token=TOKEN)
    client = make_client(server)
    first = client.send("slow", b"first", opts)
    time.sleep(0.6)  # the server closes the idle push connection meanwhile
    second = client.send("slow", b"second", opts)
    assert [(o.channel, o.body, o.trials_used) for o in (first, second)] == \
        [(Channel.PUSH, b"late", 1)] * 2
    assert calls == [b"first", b"second"]
    assert len(handshakes) == 2


def test_register_lost_to_idle_close_goes_out_again(live_server, monkeypatch):
    # The server drops the second Register and closes the connection
    # without an answer, as when its idle close crosses the Register.
    registers = []
    on_register = PushSession._on_register

    def dropping_on_register(session, frame):
        registers.append(frame.rid.dedup_key)
        return len(registers) != 2 and on_register(session, frame)

    monkeypatch.setattr(PushSession, "_on_register", dropping_on_register)
    handshakes = count_handshakes(monkeypatch)
    handler, calls = counting_handler("slow", body=b"late", delay_ms=150)
    server = live_server(registry=HandlerRegistry().add(handler))
    opts = SendOptions(http_timeout_ms=50, push_wait_ms=10_000, max_trials=1, auth_token=TOKEN)
    client = make_client(server)
    outcomes = [client.send("slow", b"p%d" % i, opts) for i in range(2)]
    assert [(o.channel, o.body, o.trials_used) for o in outcomes] == [(Channel.PUSH, b"late", 1)] * 2
    assert len(calls) == 2
    assert len(registers) == 3 and registers[1] == registers[2]
    assert len(handshakes) == 2


def test_device_id_with_leading_space_is_answered_over_http(live_server):
    server = live_server([{"name": "echo"}])
    client = make_client(server, device_id=" " + "d" * 31)
    outcome = client.send("echo", b"spaced")
    assert (outcome.channel, outcome.body, outcome.trials_used) == (Channel.HTTP, b"spaced", 1)
    assert outcome.rid.dedup_key.startswith(" d")


class _ForeignRidHandler(BaseHTTPRequestHandler):
    """Answers every POST with a well-formed response for another rid."""

    protocol_version = "HTTP/1.1"

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        foreign = build("echo", b"", False, 1, lambda: 1, "someone-else").rid
        self.send_response(200)
        self.send_header("Content-Length", "4")
        self.send_header(RID_HEADER, foreign.canonical())
        self.send_header(CHANNEL_HEADER, Channel.HTTP.value)
        self.send_header(STATUS_HEADER, ResponseStatus.OK.value)
        self.end_headers()
        self.wfile.write(b"BODY")

    def log_message(self, fmt, *args):
        pass


def test_response_for_another_rid_is_not_accepted():
    stub = ThreadingHTTPServer(("127.0.0.1", 0), _ForeignRidHandler)
    thread = threading.Thread(target=stub.serve_forever, daemon=True)
    thread.start()
    try:
        client = Client(*stub.server_address[:2], auth_token=TOKEN)
        with pytest.raises(ClientError) as err:
            client.send("echo", b"mine", SendOptions(
                http_timeout_ms=2_000, push_wait_ms=50, max_trials=1, auth_token=TOKEN))
        assert err.value.kind == "Exhausted"
        client.close()
    finally:
        stub.shutdown()
        stub.server_close()
        thread.join(timeout=5.0)
    assert not thread.is_alive()


def test_dropped_client_closes_its_connections(live_server):
    handler, _ = counting_handler("slow", body=b"late", delay_ms=150)
    server = live_server(registry=HandlerRegistry().add(handler).add(make_synthetic("echo")))
    client = make_client(server)
    client.send("slow", b"p", SendOptions(http_timeout_ms=50, push_wait_ms=10_000, auth_token=TOKEN))
    client.send("echo", b"kept")
    name = f"rmaws-conn-{server.port}"

    def open_connections():
        return sum(t.name == name for t in threading.enumerate())

    assert open_connections() == 2  # the push connection and the idle HTTP one
    del client
    deadline = time.monotonic() + 2.0
    while open_connections() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert open_connections() == 0
