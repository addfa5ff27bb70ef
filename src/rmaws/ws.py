"""Minimal synchronous WebSocket layer (RFC 6455) for the push channel.

Implements exactly what the push channel needs: the HTTP upgrade
handshake, unfragmented binary messages, the close handshake, and
ping/pong. Client-to-server frames are masked as the RFC requires. A
frame masked the wrong way for its sender (§5.1), a control frame over
125 B or without FIN (§5.5), a fragmented message, a text frame and an
extension bit are refused: reading raises ``WsError``, and the caller
closes the connection. So is a message longer than the reader's
``max_message``, with close 1009 (§7.4.1) before any of its payload is
read.
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

OP_BINARY = 0x2
OP_CLOSE = 0x8
OP_PING = 0x9
OP_PONG = 0xA

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

    Frames are read from ``rfile``, the connection's one buffered reader,
    so bytes read ahead of a frame are never lost; a payload is read in
    bounded chunks, so memory grows with the bytes that arrive, not with
    the length a frame claims. Writes are serialized with a lock so
    multiple threads may push frames; reads are expected from a single
    reader thread.
    """

    def __init__(self, sock: socket.socket, rfile, mask_outgoing: bool,
                 max_message: int | None = None):
        self.sock = sock
        self.rfile = rfile
        self.mask_outgoing = mask_outgoing
        self.max_message = max_message
        self._write_lock = threading.Lock()
        self._close_sent = False

    def _read(self, n: int) -> bytes:
        try:
            return http1.read_body(self.rfile, n)
        except (http1.HttpError, ValueError):  # EOF, or a reader closed meanwhile
            raise WsError("connection closed mid-frame") from None

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
        b1, b2 = self._read(2)
        fin = b1 & 0x80
        if b1 & 0x70:
            raise WsError("reserved bits set")
        opcode = b1 & 0x0F
        if not fin:  # §5.5: a control frame is never fragmented either
            raise WsError("fragmented frames not supported")
        masked = b2 & 0x80
        if bool(masked) == self.mask_outgoing:
            # RFC 6455 §5.1: a client masks every frame, a server none.
            raise WsError("masked frame from the server" if masked else
                          "unmasked frame from the client")
        n = b2 & 0x7F
        if opcode & 0x8 and n > 125:  # §5.5
            raise WsError("control frame over 125 B")
        if n == 126:
            (n,) = struct.unpack(">H", self._read(2))
        elif n == 127:
            (n,) = struct.unpack(">Q", self._read(8))
        key = self._read(4) if masked else b""
        if self.max_message is not None and n > self.max_message:
            self.send_close(1009)
            raise WsError(f"{n} B message over {self.max_message} B")
        payload = self._read(n)
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
        self.rfile.close()
        self.sock.close()


def _header_token_present(value: str, token: str) -> bool:
    return token.lower() in (part.strip().lower() for part in value.split(","))


def server_handshake_response(headers) -> bytes:
    """Validate an upgrade request and build the 101 response bytes.

    ``headers`` maps lower-case field names to values, as the fields of
    a head ``http1`` parsed do. Raises WsError when the request is not a
    conforming upgrade.
    """
    if headers.get("upgrade", "").lower() != "websocket":
        raise WsError("missing Upgrade: websocket")
    if not _header_token_present(headers.get("connection", ""), "upgrade"):
        raise WsError("missing Connection: Upgrade")
    if headers.get("sec-websocket-version") != "13":
        raise WsError("unsupported websocket version")
    key = headers.get("sec-websocket-key")
    if not key:
        raise WsError("missing Sec-WebSocket-Key")
    offered = headers.get("sec-websocket-protocol", "")
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
    rfile = sock.makefile("rb")
    try:
        try:
            block = http1.read_head(rfile)
            if block is None:
                raise WsError("connection closed during handshake")
            head = http1.parse_response(block)
        except http1.HttpError as exc:
            raise WsError(f"malformed handshake response: {exc.reason}") from exc
        if head.status != 101:
            raise WsError(f"upgrade refused: {head.status} {head.reason}")
        if head.fields.get("sec-websocket-accept") != accept_key(key):
            raise WsError("bad Sec-WebSocket-Accept")
        if head.fields.get("sec-websocket-protocol") != SUBPROTOCOL:
            raise WsError("server did not select subprotocol")
    except BaseException:
        rfile.close()
        raise
    return WsConnection(sock, rfile, mask_outgoing=True)
