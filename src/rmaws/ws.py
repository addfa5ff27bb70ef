"""Minimal synchronous WebSocket layer (RFC 6455) for the push channel.

Implements exactly what the push channel needs: the HTTP upgrade
handshake, unfragmented binary messages, the close handshake, and
ping/pong. Client-to-server frames are masked as the RFC requires.
Fragmented messages, text frames and extensions are rejected with a
protocol-error close.
"""

from __future__ import annotations

import base64
import hashlib
import os
import socket
import struct
import threading

from . import http1

_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"
SUBPROTOCOL = "rmaws.v1"

OP_CONT = 0x0
OP_TEXT = 0x1
OP_BINARY = 0x2
OP_CLOSE = 0x8
OP_PING = 0x9
OP_PONG = 0xA

_MAX_HANDSHAKE = 16 * 1024
_RECV_CHUNK = 65536


class WsError(ConnectionError):
    """Protocol violation or transport failure on a WebSocket connection."""


def accept_key(client_key: str) -> str:
    digest = hashlib.sha1((client_key + _GUID).encode("ascii")).digest()
    return base64.b64encode(digest).decode("ascii")


def _mask(data: bytes, key: bytes) -> bytes:
    if not data:
        return data
    reps = -(-len(data) // 4)
    stream = (key * reps)[: len(data)]
    n = int.from_bytes(data, "little") ^ int.from_bytes(stream, "little")
    return n.to_bytes(len(data), "little")


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(min(n - len(buf), _RECV_CHUNK))
        if not chunk:
            raise WsError("connection closed mid-frame")
        buf += chunk
    return bytes(buf)


def _encode_frame(opcode: int, payload: bytes, mask: bool) -> bytes:
    head = bytearray([0x80 | opcode])
    mask_bit = 0x80 if mask else 0
    n = len(payload)
    if n < 126:
        head.append(mask_bit | n)
    elif n < 1 << 16:
        head.append(mask_bit | 126)
        head += struct.pack(">H", n)
    else:
        head.append(mask_bit | 127)
        head += struct.pack(">Q", n)
    if mask:
        key = os.urandom(4)
        return bytes(head) + key + _mask(payload, key)
    return bytes(head) + payload


class WsConnection:
    """One open WebSocket. ``mask_outgoing`` is True on the client side.

    Writes are serialized with a lock so multiple threads may push frames;
    reads are expected from a single reader thread.
    """

    def __init__(self, sock: socket.socket, mask_outgoing: bool, initial: bytes = b""):
        self.sock = sock
        self.mask_outgoing = mask_outgoing
        self._write_lock = threading.Lock()
        self._close_sent = False
        self._pending = bytearray(initial)  # bytes read past the handshake

    def _recv_exact(self, n: int) -> bytes:
        if self._pending:
            take = bytes(self._pending[:n])
            del self._pending[:len(take)]
            if len(take) == n:
                return take
            return take + _recv_exact(self.sock, n - len(take))
        return _recv_exact(self.sock, n)

    def send_binary(self, payload: bytes) -> None:
        self._send(OP_BINARY, payload)

    def _send(self, opcode: int, payload: bytes) -> None:
        frame = _encode_frame(opcode, payload, self.mask_outgoing)
        with self._write_lock:
            if self._close_sent and opcode != OP_CLOSE:
                raise WsError("connection closing")
            try:
                self.sock.sendall(frame)
            except OSError as exc:
                raise WsError(f"send failed: {exc}") from exc

    def _read_frame(self) -> tuple[int, bytes]:
        b1, b2 = self._recv_exact(2)
        fin = b1 & 0x80
        if b1 & 0x70:
            raise WsError("reserved bits set")
        opcode = b1 & 0x0F
        if not fin and opcode in (OP_BINARY, OP_TEXT, OP_CONT):
            raise WsError("fragmented messages not supported")
        masked = b2 & 0x80
        n = b2 & 0x7F
        if n == 126:
            (n,) = struct.unpack(">H", self._recv_exact(2))
        elif n == 127:
            (n,) = struct.unpack(">Q", self._recv_exact(8))
        key = self._recv_exact(4) if masked else b""
        payload = self._recv_exact(n) if n else b""
        if masked:
            payload = _mask(payload, key)
        return opcode, payload

    def recv_message(self) -> bytes | None:
        """Next binary message, or None once the peer closes cleanly.

        Control frames are handled inline. socket timeouts propagate as
        ``socket.timeout`` so callers can implement idle policies.
        """
        while True:
            opcode, payload = self._read_frame()
            if opcode == OP_BINARY:
                return payload
            if opcode == OP_PING:
                self._send(OP_PONG, payload)
            elif opcode == OP_PONG:
                continue
            elif opcode == OP_CLOSE:
                self.send_close()
                return None
            else:
                raise WsError(f"unsupported opcode 0x{opcode:x}")

    def send_close(self, code: int = 1000) -> None:
        with self._write_lock:
            if self._close_sent:
                return
            self._close_sent = True
            try:
                self.sock.sendall(_encode_frame(OP_CLOSE, struct.pack(">H", code), self.mask_outgoing))
            except OSError:
                pass

    def shutdown(self) -> None:
        self.send_close()
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()


def _header_token_present(value: str, token: str) -> bool:
    return token.lower() in (part.strip().lower() for part in value.split(","))


def server_handshake_response(headers) -> bytes:
    """Validate an upgrade request and build the 101 response bytes.

    ``headers`` is any case-insensitive mapping, such as the
    ``http1.Fields`` of a parsed request head. Raises WsError when the
    request is not a conforming upgrade.
    """
    if (headers.get("Upgrade") or "").lower() != "websocket":
        raise WsError("missing Upgrade: websocket")
    if not _header_token_present(headers.get("Connection") or "", "upgrade"):
        raise WsError("missing Connection: Upgrade")
    if (headers.get("Sec-WebSocket-Version") or "") != "13":
        raise WsError("unsupported websocket version")
    key = headers.get("Sec-WebSocket-Key")
    if not key:
        raise WsError("missing Sec-WebSocket-Key")
    offered = headers.get("Sec-WebSocket-Protocol") or ""
    if not _header_token_present(offered, SUBPROTOCOL):
        raise WsError(f"client did not offer subprotocol {SUBPROTOCOL}")
    return (
        "HTTP/1.1 101 Switching Protocols\r\n"
        "Upgrade: websocket\r\n"
        "Connection: Upgrade\r\n"
        f"Sec-WebSocket-Accept: {accept_key(key)}\r\n"
        f"Sec-WebSocket-Protocol: {SUBPROTOCOL}\r\n"
        "\r\n"
    ).encode("ascii")


def client_handshake(sock: socket.socket, host: str, path: str) -> WsConnection:
    """Send the upgrade request and validate the 101 response."""
    key = base64.b64encode(os.urandom(16)).decode("ascii")
    request = (
        f"GET {path} HTTP/1.1\r\n"
        f"Host: {host}\r\n"
        "Upgrade: websocket\r\n"
        "Connection: Upgrade\r\n"
        f"Sec-WebSocket-Key: {key}\r\n"
        "Sec-WebSocket-Version: 13\r\n"
        f"Sec-WebSocket-Protocol: {SUBPROTOCOL}\r\n"
        "\r\n"
    )
    sock.sendall(request.encode("ascii"))

    buf = bytearray()
    while b"\r\n\r\n" not in buf:
        if len(buf) > _MAX_HANDSHAKE:
            raise WsError("oversized handshake response")
        chunk = sock.recv(4096)
        if not chunk:
            raise WsError("connection closed during handshake")
        buf += chunk
    head_bytes, rest = bytes(buf).split(b"\r\n\r\n", 1)
    try:
        head = http1.parse_response(head_bytes)
    except http1.HttpError as exc:
        raise WsError(f"malformed handshake response: {exc.reason}") from exc
    if head.status != 101:
        raise WsError(f"upgrade refused: {head.status} {head.reason}")
    fields = head.fields
    if fields.get("sec-websocket-accept") != accept_key(key):
        raise WsError("bad Sec-WebSocket-Accept")
    if fields.get("sec-websocket-protocol") != SUBPROTOCOL:
        raise WsError("server did not select subprotocol")
    return WsConnection(sock, mask_outgoing=True, initial=rest)
