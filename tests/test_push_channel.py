import http.client
import os
import socket
import struct
import threading
import time

import pytest

from rmaws import http1, ws
from rmaws.client import Client, ClientError, SendOptions, build
from rmaws.envelope import (
    CHANNEL_HEADER,
    FRAME_HEADER_BYTES,
    TOKEN_HEADER,
    Channel,
    PAYLOAD_DIGEST_BYTES,
    FrameKind,
    decode_push_frame,
    encode_push_frame,
    encode_request,
    make_request_id,
    payload_digest,
    register_frame,
)
from rmaws.server.handlers import HandlerRegistry, ServiceHandler, make_synthetic, synthetic_body

from conftest import TOKEN


class RawPushClient:
    """Frame-level test client speaking the push protocol directly."""

    def __init__(self, server):
        host, port = server.address
        sock = socket.create_connection((host, port), timeout=5.0)
        self.conn = ws.client_handshake(sock, f"{host}:{port}", "/push")
        self.conn.sock.settimeout(5.0)

    def send(self, frame):
        self.conn.send_binary(encode_push_frame(frame))

    def recv(self):
        message = self.conn.recv_message()
        return None if message is None else decode_push_frame(message)

    def close(self):
        self.conn.shutdown()


def frozen_clock(t=1_700_000_000_000):
    return lambda: t


P_DIGEST = payload_digest(b"p")


def test_register_acks_not_cached_for_unknown_rid(live_server):
    server = live_server([{"name": "echo"}])
    raw = RawPushClient(server)
    rid = make_request_id("devP", 1, "echo")
    raw.send(register_frame(rid, P_DIGEST, TOKEN))
    ack = raw.recv()
    assert ack.kind is FrameKind.REGISTER_ACK
    assert ack.meta == "NC"
    raw.close()


def test_register_bad_token_gets_error_frame_then_close(live_server):
    server = live_server([{"name": "echo"}])
    raw = RawPushClient(server)
    rid = make_request_id("devP", 1, "echo")
    raw.send(register_frame(rid, P_DIGEST, "wrong"))
    ack = raw.recv()
    assert ack.kind is FrameKind.REGISTER_ACK
    assert ack.meta == "UA"
    assert raw.recv() is None  # server closed the connection
    raw.close()


def test_register_without_a_payload_digest_closes_the_connection(live_server):
    server = live_server([{"name": "echo"}])
    raw = RawPushClient(server)
    rid = make_request_id("devP", 1, "echo")
    # Built by hand: a PushFrame always names a digest of its full size.
    raw.conn.send_binary(b"R" + rid.canonical().encode("ascii") + b"--"
                         + b"%010d" % len(TOKEN) + TOKEN.encode("utf-8"))
    assert raw.recv() is None  # no ack: the server closed the connection
    raw.close()


def test_register_for_another_payload_gets_identity_conflict(live_server):
    server = live_server(registry=HandlerRegistry().add(make_synthetic("echo")))
    client = Client(*server.address, auth_token=TOKEN, clock=frozen_clock())
    outcome = client.send("echo", b"p")
    raw = RawPushClient(server)
    raw.send(register_frame(outcome.rid.with_trial(2), payload_digest(b"q"), TOKEN))
    ack, deliver = raw.recv(), raw.recv()
    assert (ack.kind, ack.meta) == (FrameKind.REGISTER_ACK, "OK")
    assert (deliver.kind, deliver.meta) == (FrameKind.DELIVER, "VE")
    # The rejection names the payload whose Register it answers.
    assert deliver.digest == payload_digest(b"q")
    assert deliver.body.startswith(b"IdentityConflict: ")
    assert server.core.presence_route(outcome.rid.dedup_key) is None
    raw.close()


def test_reused_identity_after_a_restart_is_rejected(live_server, tmp_path):
    # A record saved to the store names its payload's digest, so the
    # restarted server refuses another payload under the same id, over
    # HTTP and over push, instead of replaying the first payload's body.
    store_path = str(tmp_path / "records.jsonl")
    server = live_server([{"name": "echo"}], store_path=store_path)
    with Client(*server.address, auth_token=TOKEN, clock=frozen_clock()) as client:
        assert client.send("echo", b"first").body == b"first"
    server.stop(drain_timeout_s=5.0)

    server = live_server([{"name": "echo"}], store_path=store_path)
    with Client(*server.address, auth_token=TOKEN, clock=frozen_clock()) as client:
        with pytest.raises(ClientError) as err:
            client.send("echo", b"second")
        assert err.value.kind == "Rejected"
        assert err.value.detail.startswith("IdentityConflict")
        assert client.send("echo", b"first").channel is Channel.CACHE_REPLAY
    raw = RawPushClient(server)
    raw.send(register_frame(err.value.rid.with_trial(2), payload_digest(b"second"), TOKEN))
    ack, deliver = raw.recv(), raw.recv()
    assert (ack.kind, ack.meta) == (FrameKind.REGISTER_ACK, "OK")
    assert (deliver.kind, deliver.meta, deliver.digest) == (
        FrameKind.DELIVER, "VE", payload_digest(b"second"))
    assert deliver.body.startswith(b"IdentityConflict: ")
    assert server.core.execution_count(err.value.rid.dedup_key) == 1
    raw.close()


def test_register_before_completion_gets_deliver(live_server):
    server = live_server(registry=HandlerRegistry().add(
        make_synthetic("slow", output_size=64, delay_ms=400)))
    client = Client(*server.address, auth_token=TOKEN, clock=frozen_clock())
    raw = RawPushClient(server)
    rid = make_request_id("client", 1_700_000_000_000, "slow")

    start = threading.Thread(
        target=lambda: client.send("slow", b"p", SendOptions(
            http_timeout_ms=5_000, auth_token=TOKEN)))
    start.start()
    time.sleep(0.1)  # execution is pending now
    raw.send(register_frame(rid, P_DIGEST, TOKEN))
    ack = raw.recv()
    assert ack.meta == "OK"
    deliver = raw.recv()
    assert deliver.kind is FrameKind.DELIVER
    assert deliver.meta == "OK"
    assert deliver.digest == P_DIGEST  # the executed payload's
    assert len(deliver.body) == 64
    start.join()
    raw.close()


def test_register_after_completion_delivers_immediately(live_server):
    server = live_server(registry=HandlerRegistry().add(
        make_synthetic("echo")))
    client = Client(*server.address, auth_token=TOKEN, clock=frozen_clock())
    outcome = client.send("echo", b"cached-bytes")
    assert outcome.channel is Channel.HTTP

    raw = RawPushClient(server)
    raw.send(register_frame(outcome.rid.with_trial(2), payload_digest(b"cached-bytes"),
                                  TOKEN))
    ack = raw.recv()
    assert ack.kind is FrameKind.REGISTER_ACK and ack.meta == "OK"
    deliver = raw.recv()
    assert deliver.kind is FrameKind.DELIVER
    assert (deliver.digest, deliver.body) == (payload_digest(b"cached-bytes"), b"cached-bytes")
    # Exactly one Deliver frame: nothing further arrives before close.
    raw.conn.send_close()
    assert raw.recv() is None
    raw.close()


def test_double_register_one_ack_one_deliver(live_server):
    server = live_server(registry=HandlerRegistry().add(
        make_synthetic("slow", output_size=16, delay_ms=400)))
    client = Client(*server.address, auth_token=TOKEN, clock=frozen_clock())
    rid = make_request_id("client", 1_700_000_000_000, "slow")
    raw = RawPushClient(server)

    sender = threading.Thread(
        target=lambda: client.send("slow", b"p", SendOptions(
            http_timeout_ms=5_000, auth_token=TOKEN)))
    sender.start()
    time.sleep(0.1)
    raw.send(register_frame(rid, P_DIGEST, TOKEN))
    raw.send(register_frame(rid, P_DIGEST, TOKEN))  # duplicate: idempotent
    frames = [raw.recv(), raw.recv()]
    sender.join()
    kinds = [f.kind for f in frames]
    assert kinds == [FrameKind.REGISTER_ACK, FrameKind.DELIVER]
    raw.close()


def test_client_close_deregisters_presence(live_server):
    server = live_server(registry=HandlerRegistry().add(
        make_synthetic("slow", output_size=16, delay_ms=600)))
    client = Client(*server.address, auth_token=TOKEN, clock=frozen_clock())
    rid = make_request_id("client", 1_700_000_000_000, "slow")
    raw = RawPushClient(server)

    sender = threading.Thread(
        target=lambda: client.send("slow", b"p", SendOptions(
            http_timeout_ms=5_000, auth_token=TOKEN)))
    sender.start()
    time.sleep(0.1)
    raw.send(register_frame(rid, P_DIGEST, TOKEN))
    assert raw.recv().kind is FrameKind.REGISTER_ACK
    assert server.core.presence_route(rid.dedup_key) is not None
    raw.conn.send_close()  # the WebSocket close: the server drops the registration
    deadline = time.time() + 2
    while server.core.presence_route(rid.dedup_key) is not None and time.time() < deadline:
        time.sleep(0.02)
    assert server.core.presence_route(rid.dedup_key) is None
    sender.join()
    raw.close()


def test_http_arrival_supersedes_push_registration(live_server):
    """A client registered on /push that sends the key's next trial over
    HTTP waits on that exchange: the body comes back there, and no Deliver
    frame for the key reaches the push connection."""
    server = live_server(registry=HandlerRegistry().add(
        make_synthetic("slow", output_size=64, delay_ms=300)))
    env = build("slow", b"p", False, 2, lambda: 1_700_000_000_000, "devS")
    raw = RawPushClient(server)
    raw.send(register_frame(env.rid.with_trial(1), P_DIGEST, TOKEN))
    assert raw.recv().meta == "NC"

    conn = http.client.HTTPConnection(*server.address, timeout=5)
    try:
        conn.request("POST", "/services/slow", body=encode_request(env),
                     headers={TOKEN_HEADER: TOKEN})
        resp = conn.getresponse()
        body = resp.read()
    finally:
        conn.close()
    assert (resp.status, resp.getheader(CHANNEL_HEADER)) == (200, Channel.HTTP.value)
    assert body == synthetic_body("slow", b"p", 64)
    # The execution wrote any push delivery before this HTTP answer, so a
    # Deliver frame would arrive ahead of the close.
    raw.conn.send_close()
    assert raw.recv() is None
    raw.close()


def test_large_body_pushed_byte_exact(live_server):
    server = live_server(registry=HandlerRegistry().add(
        make_synthetic("huge", output_size=2_167_000, delay_ms=300)))
    client = Client(*server.address, auth_token=TOKEN)
    outcome = client.send("huge", b"p", SendOptions(
        http_timeout_ms=100, push_wait_ms=30_000, auth_token=TOKEN))
    assert outcome.channel is Channel.PUSH
    assert len(outcome.body) == 2_167_000
    from rmaws.server.handlers import synthetic_body
    assert outcome.body == synthetic_body("huge", b"p", 2_167_000)


def test_push_after_client_death_leaves_response_cached(live_server):
    server = live_server(registry=HandlerRegistry().add(
        make_synthetic("slow", output_size=32, delay_ms=500)))
    client = Client(*server.address, auth_token=TOKEN, clock=frozen_clock())
    rid = make_request_id("client", 1_700_000_000_000, "slow")
    raw = RawPushClient(server)

    sender = threading.Thread(
        target=lambda: client.send("slow", b"p", SendOptions(
            http_timeout_ms=5_000, auth_token=TOKEN)))
    sender.start()
    time.sleep(0.1)
    raw.send(register_frame(rid, P_DIGEST, TOKEN))
    assert raw.recv().kind is FrameKind.REGISTER_ACK
    # Kill the socket hard before the execution completes. Its reader
    # holds it open until that closes too.
    raw.conn.rfile.close()
    raw.conn.sock.close()
    sender.join()
    record = server.core.record(rid.dedup_key)
    assert record is not None
    assert record.body is not None and len(record.body) == 32


def test_idle_connection_closed_by_server(live_server):
    server = live_server([{"name": "echo"}], push_idle_timeout_ms=300)
    raw = RawPushClient(server)
    start = time.time()
    assert raw.recv() is None  # the server's WebSocket close
    assert time.time() - start < 3.0
    raw.close()


def test_zero_length_body_deliver(live_server):
    server = live_server(registry=HandlerRegistry().add(
        ServiceHandler("empty", lambda p: b"", delay_ms=300)))
    client = Client(*server.address, auth_token=TOKEN)
    outcome = client.send("empty", b"p", SendOptions(
        http_timeout_ms=100, push_wait_ms=10_000, auth_token=TOKEN))
    assert outcome.channel is Channel.PUSH
    assert outcome.body == b""


def test_register_sent_with_the_upgrade_is_answered(live_server):
    # The upgrade head is read through a buffered reader, which may take
    # in the Register frame too; the WebSocket must read on from there.
    server = live_server([{"name": "echo"}])
    upgrade = (b"GET /push HTTP/1.1\r\nHost: x\r\nUpgrade: websocket\r\nConnection: Upgrade\r\n"
               b"Sec-WebSocket-Key: dGhlIHNhbXBsZSBub25jZQ==\r\nSec-WebSocket-Version: 13\r\n"
               b"Sec-WebSocket-Protocol: %s\r\n\r\n" % ws.SUBPROTOCOL.encode("ascii"))
    register = encode_push_frame(register_frame(make_request_id("devP", 1, "echo"), P_DIGEST, TOKEN))
    with socket.create_connection(server.address, timeout=5.0) as sock, \
            sock.makefile("rb") as rfile:
        sock.sendall(upgrade + ws._encode_frame(ws.OP_BINARY, register, mask=True))
        assert http1.parse_response(http1.read_head(rfile)).status == 101
        opcode, length = rfile.read(2)  # an unmasked frame, shorter than 126 B
        ack = decode_push_frame(rfile.read(length))
    assert (opcode, ack.kind, ack.meta) == (0x80 | ws.OP_BINARY, FrameKind.REGISTER_ACK, "NC")


def test_stop_says_goodbye_on_a_push_connection(live_server):
    server = live_server([{"name": "echo"}])
    raw = RawPushClient(server)
    raw.send(register_frame(make_request_id("devP", 1, "echo"), P_DIGEST, TOKEN))
    assert raw.recv().kind is FrameKind.REGISTER_ACK  # the server's end is up
    server.stop(drain_timeout_s=5.0)
    assert raw.recv() is None  # the server's WebSocket close
    assert raw.conn.rfile.read() == b""  # then EOF
    raw.close()


@pytest.mark.parametrize("length", [FRAME_HEADER_BYTES + PAYLOAD_DIGEST_BYTES + len(TOKEN) + 1,
                                    300 << 20], ids=["largest-register-plus-one", "300-MiB"])
def test_message_longer_than_the_largest_register_gets_close_1009(live_server, length):
    # Only the frame's header is sent: the server must refuse the message
    # before it waits for the payload.
    server = live_server([{"name": "echo"}])
    raw = RawPushClient(server)
    raw.conn.sock.settimeout(1.0)
    raw.conn.sock.sendall(bytes([0x80 | ws.OP_BINARY, 0x80 | 127]) + struct.pack(">Q", length)
                          + os.urandom(4))
    assert raw.conn._read_frame() == (ws.OP_CLOSE, struct.pack(">H", 1009))
    assert raw.conn.rfile.read() == b""  # then EOF
    raw.close()
