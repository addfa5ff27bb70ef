import socket
import threading

import pytest

from rmaws import http1, ws


def frame_pair():
    a, b = socket.socketpair()
    # A frame refused at the wrong point leaves a read waiting: fail, not hang.
    a.settimeout(5.0)
    b.settimeout(5.0)
    return (ws.WsConnection(a, a.makefile("rb"), mask_outgoing=True),
            ws.WsConnection(b, b.makefile("rb"), mask_outgoing=False))


def test_masked_binary_round_trip():
    client, server = frame_pair()
    client.send_binary(b"hello \xff\x00 world")
    assert server.recv_message() == b"hello \xff\x00 world"
    server.send_binary(b"back")
    assert client.recv_message() == b"back"
    client.shutdown()
    server.shutdown()


@pytest.mark.parametrize("size", [0, 125, 126, 65535, 65536, 2_167_000])
def test_length_encodings(size):
    client, server = frame_pair()
    payload = bytes(i % 256 for i in range(size))
    t = threading.Thread(target=client.send_binary, args=(payload,))
    t.start()
    assert server.recv_message() == payload
    t.join()
    client.shutdown()
    server.shutdown()


def test_close_handshake():
    client, server = frame_pair()
    client.send_close()
    assert server.recv_message() is None  # close echoed back
    assert client.recv_message() is None
    client.shutdown()
    server.shutdown()


def test_ping_is_answered():
    client, server = frame_pair()
    server.sock.sendall(ws._encode_frame(ws.OP_PING, b"p", mask=False))
    client.send_binary(b"data")  # client loop should answer the ping first
    got = []
    def reader():
        got.append(server.recv_message())
    t = threading.Thread(target=reader)
    t.start()
    t.join()
    assert got == [b"data"]
    client.shutdown()
    server.shutdown()


def test_fragmented_rejected():
    client, server = frame_pair()
    # fin=0 binary frame
    server.sock.sendall(bytes([ws.OP_BINARY, 1]) + b"x")
    with pytest.raises(ws.WsError):
        client.recv_message()
    client.shutdown()
    server.shutdown()


def test_unmasked_client_frame_is_refused():
    client, server = frame_pair()
    client.sock.sendall(ws._encode_frame(ws.OP_BINARY, b"x", mask=False))
    with pytest.raises(ws.WsError, match="unmasked"):
        server.recv_message()
    client.shutdown()
    server.shutdown()


def test_masked_server_frame_is_refused():
    client, server = frame_pair()
    server.sock.sendall(ws._encode_frame(ws.OP_BINARY, b"x", mask=True))
    with pytest.raises(ws.WsError, match="masked"):
        client.recv_message()
    client.shutdown()
    server.shutdown()


CONTROL_OPCODES = pytest.mark.parametrize("opcode", [ws.OP_CLOSE, ws.OP_PING, ws.OP_PONG],
                                          ids=["close", "ping", "pong"])


@CONTROL_OPCODES
@pytest.mark.parametrize("length_field", [bytes([126]) + (126).to_bytes(2, "big"),
                                          bytes([127]) + (1 << 40).to_bytes(8, "big")],
                         ids=["126-bytes", "1-TiB"])
def test_control_frame_over_125_bytes_is_refused_before_its_payload(opcode, length_field):
    # Only the head is sent: reading the payload it announces would block.
    client, server = frame_pair()
    server.sock.sendall(bytes([0x80 | opcode]) + length_field)
    with pytest.raises(ws.WsError, match="125"):
        client.recv_message()
    client.shutdown()
    server.shutdown()


@CONTROL_OPCODES
def test_control_frame_without_fin_is_refused(opcode):
    client, server = frame_pair()
    server.sock.sendall(bytes([opcode, 1]) + b"p")
    with pytest.raises(ws.WsError, match="fragmented"):
        client.recv_message()
    client.shutdown()
    server.shutdown()


def test_control_frame_of_125_bytes_is_answered():
    client, server = frame_pair()
    server.sock.sendall(ws._encode_frame(ws.OP_PING, b"p" * 125, mask=False))
    server.sock.sendall(ws._encode_frame(ws.OP_BINARY, b"data", mask=False))
    assert client.recv_message() == b"data"
    assert server._read_frame() == (ws.OP_PONG, b"p" * 125)
    client.shutdown()
    server.shutdown()


def test_handshake_over_tcp():
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    port = listener.getsockname()[1]
    results = {}

    def serve():
        conn, _ = listener.accept()
        rfile = conn.makefile("rb")
        head = http1.parse_request(http1.read_head(rfile))
        conn.sendall(ws.server_handshake_response(head.fields))
        server_conn = ws.WsConnection(conn, rfile, mask_outgoing=False)
        results["got"] = server_conn.recv_message()
        server_conn.send_binary(b"pong")
        server_conn.shutdown()

    t = threading.Thread(target=serve)
    t.start()
    sock = socket.create_connection(("127.0.0.1", port))
    client = ws.client_handshake(sock, f"127.0.0.1:{port}", "/push")
    client.send_binary(b"ping")
    assert client.recv_message() == b"pong"
    t.join()
    assert results["got"] == b"ping"
    client.shutdown()
    listener.close()


@pytest.mark.parametrize("extra, ok", [
    (b"", True),
    (b"Upgrade websocket\r\n", False),  # no colon
    (b" folded\r\n", False),  # obs-fold
    (b"X : y\r\n", False),  # white space before the colon
])
def test_client_handshake_reads_the_101_strictly(extra, ok):
    client_sock, server_sock = socket.socketpair()

    def serve():
        buf = b""
        while b"\r\n\r\n" not in buf:
            buf += server_sock.recv(4096)
        response = ws.server_handshake_response(http1.parse_request(buf).fields)
        server_sock.sendall(response[:-2] + extra + b"\r\n")

    t = threading.Thread(target=serve)
    t.start()
    try:
        if ok:
            ws.client_handshake(client_sock, "h", "/push").shutdown()
        else:
            with pytest.raises(ws.WsError):
                ws.client_handshake(client_sock, "h", "/push")
    finally:
        t.join(timeout=5.0)
        client_sock.close()
        server_sock.close()
    assert not t.is_alive()


def test_handshake_requires_subprotocol():
    head = http1.parse_request(
        b"GET /push HTTP/1.1\r\nUpgrade: websocket\r\nConnection: Upgrade\r\n"
        b"Sec-WebSocket-Version: 13\r\nSec-WebSocket-Key: abc\r\n\r\n"
    )
    with pytest.raises(ws.WsError):
        ws.server_handshake_response(head.fields)


def test_accept_key_rfc_vector():
    # Known-answer vector from the RFC 6455 handshake example.
    assert ws.accept_key("dGhlIHNhbXBsZSBub25jZQ==") == "s3pPLMBiTxaQ9kYGzzhZRbK+xOo="
