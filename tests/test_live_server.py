import http.client
import itertools
import os
import socket
import socketserver
import subprocess
import sys
import threading
import time
import zlib
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

import rmaws.server.http
from rmaws import http1, ws
from rmaws.client import Client, ClientError, PushClient, SendOptions, build
from rmaws.push import PushSession
from rmaws.envelope import (CHANNEL_HEADER, RID_HEADER, STATUS_HEADER, Channel, ResponseEnvelope,
                            ResponseStatus, decode_request, encode_request, make_request_id,
                            payload_digest)
from rmaws.server.handlers import HandlerRegistry, ServiceHandler, make_synthetic
from rmaws.server.http import RmawsRequestHandler

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


def test_envelope_no_name_renders_to_gets_validation_response(live_server):
    # A service field with a leading space passes every layout check and
    # the CRC, but names no service: decoding raises EnvelopeError, not
    # MalformedEnvelope, and that must get an answer too.
    server = live_server([{"name": "echo"}])
    wire = bytearray(encode_request(build("echo", b"hi", False, 1, lambda: 1, "dev")))
    wire[59:91] = wire[100:132] = b" echo".ljust(32)
    wire[133:141] = b"%08x" % zlib.crc32(bytes(wire[215:225]), zlib.crc32(bytes(wire[:133])))
    conn = http.client.HTTPConnection(*server.address)
    conn.request("POST", "/services/echo", body=bytes(wire), headers={"X-RMAWS-Token": TOKEN})
    resp = conn.getresponse()
    assert resp.status == 400
    assert resp.headers["X-RMAWS-Status"] == "ValidationError"
    assert b"service_name" in resp.read()
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


def test_reused_identity_whose_rejection_is_lost_is_rejected_over_push(live_server,
                                                                       monkeypatch):
    # The 409 of the second send is lost, so it falls back to push: its
    # Register carries the digest of its own payload, and the server
    # answers it as it answered the request, not with the first body.
    handler, calls = counting_handler("orders")
    server = live_server(registry=HandlerRegistry().add(handler))
    swallowed = []
    post_envelope = Client._post_envelope

    def swallowing_post_envelope(self, env, timeout_ms, owed):
        kind, resp = post_envelope(self, env, timeout_ms, owed)
        if kind == "response" and resp.status is ResponseStatus.VALIDATION_ERROR:
            swallowed.append(resp)
            return "timeout", None
        return kind, resp

    with make_client(server, clock=FrozenClock()) as client:
        first = client.send("orders", b"p")
        monkeypatch.setattr(Client, "_post_envelope", swallowing_post_envelope)
        with pytest.raises(ClientError) as err:
            client.send("orders", b"q", SendOptions(http_timeout_ms=2_000, push_wait_ms=5_000,
                                                    max_trials=1, auth_token=TOKEN))
    assert err.value.kind == "Rejected"
    assert err.value.detail.startswith("IdentityConflict")
    assert [resp.body for resp in swallowed] == [err.value.detail.encode("utf-8")]
    assert calls == [b"p"]
    assert server.core.execution_count(first.rid.dedup_key) == 1


def test_reused_identity_on_one_push_connection_leaves_each_send_its_own_answer(
        live_server, monkeypatch):
    # The first send waits on push while the second reuses its id, and the
    # second's 409 is lost. A Deliver names the payload it answers, so the
    # second registers on the same connection at once and gets the
    # rejection over push in its first trial, while the first ends with
    # its own body over push.
    calls = []

    def fn(payload):
        calls.append(payload)
        return b"BODY-" + payload

    server = live_server(registry=HandlerRegistry().add(
        ServiceHandler(name="orders", fn=fn, delay_ms=600)))
    post_envelope = Client._post_envelope

    def swallowing_post_envelope(self, env, timeout_ms, owed):
        kind, resp = post_envelope(self, env, timeout_ms, owed)
        if kind == "response" and resp.status is ResponseStatus.VALIDATION_ERROR:
            return "timeout", None
        return kind, resp

    monkeypatch.setattr(Client, "_post_envelope", swallowing_post_envelope)
    results = {}

    def send(name, payload, push_wait_ms):
        try:
            results[name] = client.send("orders", payload, SendOptions(
                http_timeout_ms=100, push_wait_ms=push_wait_ms, max_trials=3,
                auth_token=TOKEN))
        except ClientError as exc:
            results[name] = exc

    key = make_request_id("client", FrozenClock()(), "orders", 1).dedup_key
    with make_client(server, clock=FrozenClock()) as client:
        first = threading.Thread(target=send, args=("first", b"p", 5_000))
        first.start()
        deadline = time.monotonic() + 5
        while server.core.presence_route(key) is None:
            assert time.monotonic() < deadline, "the first send never waited on push"
            time.sleep(0.01)
        second = threading.Thread(target=send, args=("second", b"q", 1_000))
        second.start()
        first.join(10)
        second.join(10)
        assert not first.is_alive() and not second.is_alive()
    done = results["first"]
    assert (done.body, done.channel, done.trials_used) == (b"BODY-p", Channel.PUSH, 1)
    err = results["second"]
    assert isinstance(err, ClientError) and err.kind == "Rejected", err
    assert err.detail.startswith("IdentityConflict")
    assert err.trials_used == 1
    assert calls == [b"p"]
    assert server.core.execution_count(done.rid.dedup_key) == 1


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
    original = RmawsRequestHandler.__init__

    def init(handler, server, sock, address):
        accepts.append(address)
        original(handler, server, sock, address)

    monkeypatch.setattr(RmawsRequestHandler, "__init__", init)
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


def record_services_connections(monkeypatch):
    """Record, from now on, the connection that serves each /services request."""
    served = []
    original = RmawsRequestHandler._handle_service

    def handle_service(handler, raw):
        served.append(handler)
        original(handler, raw)

    monkeypatch.setattr(RmawsRequestHandler, "_handle_service", handle_service)
    return served


PUSHED = SendOptions(http_timeout_ms=50, push_wait_ms=10_000, max_trials=1, auth_token=TOKEN)


def test_owed_response_is_not_taken_for_the_next_answer(live_server, monkeypatch):
    served = record_services_connections(monkeypatch)
    slow, _ = counting_handler("slow", body=b"slow body", delay_ms=300)
    server = live_server(registry=HandlerRegistry().add(slow).add(make_synthetic("echo")))
    client = make_client(server)
    pushed = client.send("slow", b"p", SendOptions(
        http_timeout_ms=100, push_wait_ms=10_000, auth_token=TOKEN))
    assert (pushed.channel, pushed.body) == (Channel.PUSH, b"slow body")
    # The timed-out exchange's connection is reused: "slow" read and
    # dropped the response written on it before it returned.
    fast = client.send("echo", b"fast payload")
    assert (fast.channel, fast.body, fast.trials_used) == (Channel.HTTP, b"fast payload", 1)
    assert len(served) == 2 and served[0] is served[1]


def test_sends_answered_over_push_share_one_services_connection(live_server, monkeypatch):
    served = record_services_connections(monkeypatch)
    handler, calls = counting_handler("slow", body=b"late", delay_ms=150)
    server = live_server(registry=HandlerRegistry().add(handler))
    with make_client(server) as client:
        outcomes = [client.send("slow", b"p%d" % i, PUSHED) for i in range(5)]
    assert [(o.channel, o.body, o.trials_used) for o in outcomes] == \
        [(Channel.PUSH, b"late", 1)] * 5
    assert len(calls) == 5
    assert len(served) == 5 and len(set(served)) == 1


def test_send_exhausted_while_its_handler_runs_closes_its_connection(live_server, monkeypatch):
    served = record_services_connections(monkeypatch)
    slow, _ = counting_handler("slow", body=b"late", delay_ms=150)
    stuck, _ = counting_handler("stuck", delay_ms=1_000)
    server = live_server(registry=HandlerRegistry().add(slow).add(stuck)
                         .add(make_synthetic("echo")))
    with make_client(server) as client:
        client.send("slow", b"p", PUSHED)
        with pytest.raises(ClientError) as err:
            client.send("stuck", b"q", SendOptions(http_timeout_ms=50, push_wait_ms=50,
                                                   max_trials=1, auth_token=TOKEN))
        assert err.value.kind == "Exhausted"
        started = time.monotonic()
        fast = client.send("echo", b"fast")
        elapsed = time.monotonic() - started
    assert (fast.channel, fast.body, fast.trials_used) == (Channel.HTTP, b"fast", 1)
    # "stuck" went out on the connection "slow" timed out on and read its
    # answer from; "stuck" ended without an answer, so that connection
    # closed, and "echo" did not wait out the stuck handler.
    assert served[1] is served[0] and served[2] is not served[1]
    assert elapsed < 0.5


def test_a_send_that_ends_leaves_no_push_waiter(live_server):
    slow, _ = counting_handler("slow", body=b"late", delay_ms=150)
    stuck, _ = counting_handler("stuck", delay_ms=1_000)
    server = live_server(registry=HandlerRegistry().add(slow).add(stuck))
    with make_client(server) as client:
        assert client.send("slow", b"p", PUSHED).channel is Channel.PUSH
        assert client._push._waits._waits == {}
        with pytest.raises(ClientError) as err:
            client.send("stuck", b"q", SendOptions(http_timeout_ms=50, push_wait_ms=50,
                                                   max_trials=2, auth_token=TOKEN))
        assert (err.value.kind, err.value.trials_used) == ("Exhausted", 2)
        assert client._push._waits._waits == {}


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


SPLIT_IDS = ["after-the-first-byte", "inside-a-field-line", "before-the-empty-line",
             "inside-the-empty-line", "after-the-head"]


@pytest.mark.parametrize("split_after", [
    b"P", b"X-RMAWS-To", b"Content-Length: 231\r\n", b"Content-Length: 231\r\n\r",
    b"Content-Length: 231\r\n\r\n"], ids=SPLIT_IDS)
def test_request_head_split_across_writes_is_answered(live_server, split_after):
    server = live_server([{"name": "echo"}])
    body = encode_request(envelope(b"split", 1))
    assert len(body) == 231
    data = (b"POST /services/echo HTTP/1.1\r\nHost: x\r\nX-RMAWS-Token: %s\r\n"
            b"Content-Length: 231\r\n\r\n%s" % (TOKEN.encode("ascii"), body))
    at = data.index(split_after) + len(split_after)
    with socket.create_connection(server.address, timeout=2.0) as sock:
        sock.sendall(data[:at])
        time.sleep(0.05)
        sock.sendall(data[at:])
        resp = http.client.HTTPResponse(sock)
        resp.begin()
        assert (resp.status, resp.getheader(STATUS_HEADER), resp.read(), resp.will_close) == \
            (200, ResponseStatus.OK.value, b"split", False)
        resp.close()


@pytest.mark.parametrize("over", [1, 8 * 2**20], ids=["one-byte", "8MiB"])
def test_send_over_the_body_bound_is_rejected(live_server, monkeypatch, over):
    # 8 MiB is far past the socket buffers: unless the server reads and
    # drops it after the 413, the client's write of it ends in a reset
    # before the 413 is read. The over-bound send reuses the connection
    # of the send at the bound.
    monkeypatch.setattr(http1, "MAX_BODY_BYTES", 1000)
    handler, calls = counting_handler("echo")
    server = live_server(registry=HandlerRegistry().add(handler))
    overhead = len(encode_request(envelope(b"", 1)))
    client = make_client(server)
    assert client.send("echo", b"x" * (1000 - overhead)).body == b"BODY"  # at the bound
    with pytest.raises(ClientError) as err:
        client.send("echo", b"x" * (1000 - overhead + over))
    assert (err.value.kind, err.value.trials_used) == ("Rejected", 1)
    with pytest.raises(ClientError) as err:
        client.send_direct("echo", b"x" * (1000 + over))
    assert err.value.detail == "direct call failed: HTTP 413"
    assert len(calls) == 1


@pytest.mark.parametrize("path", ["/direct/echo", "/services/echo"])
@pytest.mark.parametrize("length", [10, 10**13], ids=["short", "huge"])
def test_body_cut_short_gets_400_and_reaches_no_handler(live_server, monkeypatch, path,
                                                        length):
    # The peer sends 3 of the bytes it announced, then closes its side. A
    # huge Content-Length within the server's bound must not be allocated
    # up front either: the fixture fails a connection thread that ends in
    # MemoryError.
    monkeypatch.setattr(http1, "MAX_BODY_BYTES", length)
    handler, calls = counting_handler("echo")
    server = live_server(registry=HandlerRegistry().add(handler))
    with socket.create_connection(server.address, timeout=2.0) as sock:
        sock.sendall(b"POST %s HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\nabc"
                     % (path.encode("ascii"), length))
        sock.shutdown(socket.SHUT_WR)
        data = b""
        while chunk := sock.recv(65536):
            data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400 ")
    assert b"\r\nConnection: close" in head
    assert body == b"request body cut short"
    assert calls == []


def test_stop_does_not_wait_for_a_poll_interval(live_server):
    server = live_server([{"name": "echo"}])
    started = time.monotonic()
    server.stop()
    # An accept loop that polled for the stop flag, as socketserver's
    # serve_forever does every 0.5 s, would take longer.
    assert time.monotonic() - started < 0.25


class _CannedHandler(socketserver.StreamRequestHandler):
    """Answers the one request of each connection with the server's canned
    response, carrying the request's rid, then closes."""

    def handle(self):
        head = http1.parse_request(http1.read_head(self.rfile))
        body = self.rfile.read(http1.body_length(head.fields) or 0)
        rid = decode_request(body).rid.canonical() if head.target.startswith("/services/") else ""
        self.send(self.server.canned.replace(b"{rid}", rid.encode("ascii")))

    def send(self, response: bytes) -> None:
        self.wfile.write(response)


class _SplitHandler(_CannedHandler):
    """As ``_CannedHandler``, but the response goes out in two writes
    50 ms apart, split after the first ``server.split_after``."""

    def send(self, response: bytes) -> None:
        at = response.index(self.server.split_after) + len(self.server.split_after)
        self.wfile.write(response[:at])
        time.sleep(0.05)
        self.wfile.write(response[at:])


CANNED_HEAD = (b"HTTP/1.1 200 OK\r\nX-RMAWS-Rid: {rid}\r\nX-RMAWS-Channel: Http\r\n"
               b"X-RMAWS-Status: Ok\r\n")


@pytest.mark.parametrize("framing, broken", [
    (b"Content-Length: 4\r\nContent-Length: 4\r\n\r\nBODY", True),
    (b"Content-Length: 4\r\nContent-Length: 8\r\n\r\nBODYBODY", True),
    (b"Transfer-Encoding: chunked\r\n\r\n4\r\nBODY\r\n0\r\n\r\n", True),
    (b"\r\nBODY", True),
    (b"Content-Length: 10\r\n\r\nBODY", True),
    (b"Content-Length: 10000000000000\r\n\r\nBODY", True),
    (b"Content-Length: 4\r\n\r\nBODY", False),
], ids=["duplicate-content-length", "conflicting-content-length", "transfer-encoding",
        "no-content-length", "body-cut-short", "huge-content-length", "well-framed"])
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


@pytest.mark.parametrize("split_after", [
    b"H", b"X-RMAWS-Ri", b"Content-Length: 4\r\n", b"Content-Length: 4\r\n\r",
    b"Content-Length: 4\r\n\r\n"], ids=SPLIT_IDS)
def test_response_head_split_across_writes_is_read_whole(split_after):
    stub = socketserver.ThreadingTCPServer(("127.0.0.1", 0), _SplitHandler)
    stub.canned = CANNED_HEAD + b"Content-Length: 4\r\n\r\nBODY"
    stub.split_after = split_after
    thread = threading.Thread(target=stub.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    try:
        with Client(*stub.server_address[:2], auth_token=TOKEN) as client:
            opts = SendOptions(http_timeout_ms=5_000, push_wait_ms=50, max_trials=1,
                               auth_token=TOKEN)
            outcome = client.send("echo", b"mine", opts)
    finally:
        stub.shutdown()
        stub.server_close()
        thread.join(timeout=5.0)
    assert not thread.is_alive()
    assert (outcome.status, outcome.channel, outcome.body, outcome.trials_used) == \
        (ResponseStatus.OK, Channel.HTTP, b"BODY", 1)


class _OwingHandler(socketserver.StreamRequestHandler):
    """The first request of all is answered with the peer's ``owed``
    bytes once ``release`` is set, and its connection then closes if
    ``then_close``; every other request is answered well. Each request is recorded
    as (connection number, rid), and each connection's end too."""

    def handle(self):
        peer = self.server
        number = next(peer.numbers)
        try:
            while (block := http1.read_head(self.rfile)) is not None:
                head = http1.parse_request(block)
                body = http1.read_body(self.rfile, http1.body_length(head.fields) or 0)
                rid = decode_request(body).rid.canonical().encode("ascii")
                peer.requests.append((number, rid))
                if (number, rid) != peer.requests[0]:
                    self.wfile.write((CANNED_HEAD + b"Content-Length: 4\r\n\r\nBODY")
                                     .replace(b"{rid}", rid))
                elif peer.release.wait(5.0):
                    self.wfile.write(peer.owed.replace(b"{rid}", rid))
                    if peer.then_close:
                        return
        except ConnectionError:
            pass
        finally:
            peer.ended.append(number)


class _OwingPeer(socketserver.ThreadingTCPServer):
    daemon_threads = True

    def __init__(self, owed: bytes, *, then_close: bool = False):
        super().__init__(("127.0.0.1", 0), _OwingHandler)
        self.owed, self.then_close = owed, then_close
        self.release = threading.Event()
        self.numbers = itertools.count()
        self.requests: list[tuple[int, bytes]] = []
        self.ended: list[int] = []

    def __enter__(self):
        self.thread = threading.Thread(target=self.serve_forever, args=(0.05,), daemon=True)
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.release.set()
        self.shutdown()
        self.server_close()
        self.thread.join(timeout=5.0)
        assert not self.thread.is_alive()


def envelope(payload: bytes, ts: int):
    return build("echo", payload, False, 1, lambda: ts, "dev")


FOREIGN_RID = build("echo", b"", False, 1, lambda: 1, "someone-else").rid.canonical()


@pytest.mark.parametrize("owed, then_close, reused", [
    (CANNED_HEAD + b"Content-Length: 4\r\n\r\nLATE", False, True),
    (CANNED_HEAD.replace(b"{rid}", FOREIGN_RID.encode("ascii"))
     + b"Content-Length: 4\r\n\r\nLATE", False, False),
    (CANNED_HEAD + b"Content-Length: 10\r\n\r\nLATE", True, False),
    # The peer keeps reading, to see whether the request comes on anyway.
    (CANNED_HEAD + b"Connection: close\r\nContent-Length: 4\r\n\r\nLATE", False, False),
], ids=["well-formed", "another-key", "cut-short", "connection-close"])
def test_owed_response_decides_whether_its_connection_is_reused(owed, then_close, reused):
    with _OwingPeer(owed, then_close=then_close) as peer, \
            Client(*peer.server_address[:2], auth_token=TOKEN) as client:
        first, second = envelope(b"first", 1), envelope(b"second", 2)
        owed = []
        assert client._post_envelope(first, 100, owed) == ("timeout", None)
        peer.release.set()
        client._drain(owed, first.rid.dedup_key, 2.0)
        kind, resp = client._post_envelope(second, 2_000, [])
        assert (kind, resp.body) == ("response", b"BODY")
    # The second request went out once: on the first connection after a
    # good owed response, otherwise on a new one, the first one closed.
    rids = [env.rid.canonical().encode("ascii") for env in (first, second)]
    assert peer.requests == [(0, rids[0]), (0 if reused else 1, rids[1])]
    assert peer.ended.count(0) == 1


def test_time_out_inside_a_response_closes_the_connection():
    with _OwingPeer(b"HTTP/1.1 200 OK\r\n") as peer, \
            Client(*peer.server_address[:2], auth_token=TOKEN) as client:
        peer.release.set()
        first, second = envelope(b"first", 1), envelope(b"second", 2)
        owed = []
        assert client._post_envelope(first, 200, owed) == ("timeout", None)
        assert owed == []
        deadline = time.monotonic() + 2.0
        while peer.ended != [0] and time.monotonic() < deadline:
            time.sleep(0.01)
        assert peer.ended == [0]
        kind, resp = client._post_envelope(second, 2_000, [])
        assert (kind, resp.body) == ("response", b"BODY")
    assert [number for number, _ in peer.requests] == [0, 1]


class _EarlyAnswerHandler(socketserver.StreamRequestHandler):
    """Answers a POST whose body is over 1000 B with a 413 that carries
    the validation fields, and closes with that body unread, so the
    client's write of it meets a reset; any other POST gets a 200 and the
    connection stays open. Anything else is closed unanswered."""

    def handle(self):
        while (block := http1.read_head(self.rfile)) is not None:
            head = http1.parse_request(block)
            length = http1.body_length(head.fields) or 0
            if head.method != "POST":
                return
            if length > 1000:
                self.wfile.write(b"HTTP/1.1 413 Content Too Large\r\nX-RMAWS-Channel: Http\r\n"
                                 b"X-RMAWS-Status: ValidationError\r\nConnection: close\r\n"
                                 b"Content-Length: 8\r\n\r\nTooLarge")
                return
            rid = decode_request(http1.read_body(self.rfile, length)).rid.canonical()
            self.wfile.write((CANNED_HEAD + b"Content-Length: 4\r\n\r\nBODY")
                             .replace(b"{rid}", rid.encode("ascii")))


@pytest.mark.parametrize("reused", [False, True], ids=["fresh", "reused"])
def test_answer_before_a_reset_write_is_read(reused):
    stub = socketserver.ThreadingTCPServer(("127.0.0.1", 0), _EarlyAnswerHandler)
    stub.daemon_threads = True
    thread = threading.Thread(target=stub.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    try:
        with Client(*stub.server_address[:2], auth_token=TOKEN) as client:
            opts = SendOptions(http_timeout_ms=5_000, push_wait_ms=5_000, max_trials=2,
                               auth_token=TOKEN)
            if reused:
                assert client.send("echo", b"small", opts).body == b"BODY"
            started = time.monotonic()
            with pytest.raises(ClientError) as err:
                client.send("echo", b"x" * 8 * 2**20, opts)
            elapsed = time.monotonic() - started
    finally:
        stub.shutdown()
        stub.server_close()
        thread.join(timeout=5.0)
    assert not thread.is_alive()
    assert (err.value.kind, err.value.detail, err.value.trials_used) == \
        ("Rejected", "TooLarge", 1)
    assert elapsed < 1.0


def answered_over_push(client, machine, step, deadline):
    """Stands in for ``Client._drive_push``: the push wait ends at once
    with the send's answer."""
    return machine.on_push_delivered(
        ResponseEnvelope(machine.rid, ResponseStatus.OK, Channel.PUSH, b"pushed"))


def test_owed_response_never_written_costs_its_send_at_most_one_timeout(monkeypatch):
    # The peer takes connections into its backlog and never writes a byte.
    monkeypatch.setattr(Client, "_drive_push", answered_over_push)
    with socket.create_server(("127.0.0.1", 0)) as silent, \
            Client(*silent.getsockname()[:2], auth_token=TOKEN) as client:
        started = time.monotonic()
        outcome = client.send("echo", b"first", SendOptions(http_timeout_ms=200,
                                                            auth_token=TOKEN))
        elapsed = time.monotonic() - started
        assert (outcome.channel, outcome.body) == (Channel.PUSH, b"pushed")
        assert client._idle == []
        silent.settimeout(5.0)
        conn, _ = silent.accept()
        with conn:
            conn.settimeout(5.0)
            data = b""
            while chunk := conn.recv(65536):  # ends only once the client closes
                data += chunk
    assert outcome.rid.canonical().encode("ascii") in data
    # 200 ms for the post, then at most 200 ms for the owed response.
    assert 0.38 < elapsed < 0.55


def test_owed_response_never_written_leaves_the_next_post_its_own_timeout(monkeypatch):
    monkeypatch.setattr(Client, "_drive_push", answered_over_push)
    with socket.create_server(("127.0.0.1", 0)) as silent, \
            Client(*silent.getsockname()[:2], auth_token=TOKEN) as client:
        client.send("echo", b"first", SendOptions(http_timeout_ms=100, auth_token=TOKEN))
        second, owed = envelope(b"second", 2), []
        started = time.monotonic()
        assert client._post_envelope(second, 300, owed) == ("timeout", None)
        elapsed = time.monotonic() - started
        silent.settimeout(5.0)
        received = []
        for _ in range(2):
            conn, _ = silent.accept()
            with conn:
                conn.settimeout(5.0)
                received.append(conn.recv(65536))
        for conn in owed:
            conn.close()
    # The first send closed its connection; the request went out once, on
    # a new one, and got 300 ms in all.
    assert [second.rid.canonical().encode("ascii") in data for data in received] == [False, True]
    assert 0.28 < elapsed < 0.45


def test_push_handshake_without_an_answer_fails_the_registration():
    # A peer that takes the connection and never answers the upgrade: the
    # connect timeout bounds the handshake, and the lock is free again.
    with socket.create_server(("127.0.0.1", 0)) as silent:
        push = PushClient(*silent.getsockname()[:2], TOKEN, connect_timeout_s=0.2)
        rid = build("echo", b"p", False, 1, lambda: 1, "dev").rid
        results = []
        thread = threading.Thread(
            target=lambda: results.append(push.register(rid, payload_digest(b"p"))), daemon=True)
        started = time.monotonic()
        thread.start()
        thread.join(timeout=5.0)
        assert results == [None]
        assert time.monotonic() - started < 2.0
        push.close()


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
        if len(registers) == 2:
            session.close()
        else:
            on_register(session, frame)

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

    # "echo" reused the connection "slow" timed out on: "slow" read the
    # answer it owed before it returned.
    assert open_connections() == 2  # the push connection and the idle HTTP one
    del client
    deadline = time.monotonic() + 2.0
    while open_connections() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert open_connections() == 0


# A server whose process may hold 64 descriptors; it stops on a line from stdin.
_FD_STARVED_SERVER = """
import resource, sys
from rmaws.server.http import RmawsServer, ServerConfig
resource.setrlimit(resource.RLIMIT_NOFILE, (64, resource.getrlimit(resource.RLIMIT_NOFILE)[1]))
server = RmawsServer(ServerConfig()).start()
print(server.port, flush=True)
sys.stdin.readline()
server.stop(drain_timeout_s=1.0)
"""


def _cpu_s(pid: int) -> float:
    """User plus system CPU time a process has used so far."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def test_accept_loop_rests_while_out_of_file_descriptors():
    # Past the limit, accept() fails with EMFILE and the connection stays
    # queued, so the listener is ready again at once.
    src = os.path.dirname(os.path.dirname(rmaws.__file__))
    proc = subprocess.Popen([sys.executable, "-c", _FD_STARVED_SERVER], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src})
    socks = []
    try:
        port = int(proc.stdout.readline())
        socks = [socket.create_connection(("127.0.0.1", port), timeout=5.0) for _ in range(80)]
        time.sleep(0.2)  # the server accepts what it can
        before = _cpu_s(proc.pid)
        time.sleep(2.0)
        used = _cpu_s(proc.pid) - before
        start = time.monotonic()
        proc.stdin.write(b"stop\n")
        proc.stdin.flush()
        code = proc.wait(timeout=10.0)
        stop_s = time.monotonic() - start
    finally:
        for sock in socks:
            sock.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdin.close()
        proc.stdout.close()
    assert used < 0.4, f"{used:.2f} s of CPU in 2 s while out of descriptors"
    assert (code, stop_s < 3.0) == (0, True)


# A server with the default configuration; it stops on a line from stdin.
_DEFAULT_SERVER = """
import sys
from rmaws.server.http import RmawsServer, ServerConfig
server = RmawsServer(ServerConfig(services=[{"name": "echo"}])).start()
print(server.port, flush=True)
sys.stdin.readline()
server.stop(drain_timeout_s=1.0)
"""


@pytest.mark.parametrize("path, expect", [
    (b"/services/echo", b""),
    (b"/direct/echo", b""),
    (b"/services/echo", b"Expect: 100-continue\r\n"),
], ids=["services", "direct", "services-expecting-100"])
def test_body_over_the_default_bound_gets_413_before_it_is_read(path, expect):
    # Only the head goes out, with no token, declaring 200 MiB: a server
    # that waited for the body would leave the socket's 1 s read timing out.
    src = os.path.dirname(os.path.dirname(rmaws.__file__))
    proc = subprocess.Popen([sys.executable, "-c", _DEFAULT_SERVER], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src})
    try:
        port = int(proc.stdout.readline())
        with socket.create_connection(("127.0.0.1", port), timeout=1.0) as sock:
            sock.sendall(b"POST %s HTTP/1.1\r\nHost: x\r\n%sContent-Length: %d\r\n\r\n"
                         % (path, expect, 200 * 2**20))
            data = b""
            while chunk := sock.recv(65536):
                data += chunk
        proc.stdin.write(b"stop\n")
        proc.stdin.flush()
        assert proc.wait(timeout=10.0) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdin.close()
        proc.stdout.close()
    head, _, body = data.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 413 ")
    assert b"\r\nConnection: close" in head
    assert body == b"request body over %d B" % http1.MAX_BODY_BYTES
    validation = b"\r\n%s: %s" % (STATUS_HEADER.encode("ascii"),
                                    ResponseStatus.VALIDATION_ERROR.value.encode("ascii"))
    assert (validation in head) == path.startswith(b"/services/")
