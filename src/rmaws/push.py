"""Server side of the push channel: per-connection session state.

A session is transport-agnostic: it is fed decoded-from-the-wire frame
bytes via :meth:`PushSession.on_message` and writes frames through a
``send`` callable. The live server wires it to a WebSocket; the simulator
wires it to an in-process pipe carrying the same frame encodings.
"""

from __future__ import annotations

import logging
from enum import Enum

from .envelope import (
    FrameKind,
    MalformedFrame,
    META_UNAUTHORIZED,
    ResponseEnvelope,
    close_frame,
    decode_push_frame,
    deliver_frame,
    encode_push_frame,
    register_ack_frame,
)

log = logging.getLogger(__name__)


class ConnState(str, Enum):
    OPEN = "Open"
    CLOSING = "Closing"
    CLOSED = "Closed"


class PushSession:
    """One accepted push connection.

    One connection may hold registrations for many request ids. They
    live in the core's presence table, not in the session: the core
    consumes a key's registration when its execution finishes, drops it
    when an HTTP arrival for the key supersedes it, and drops all of the
    connection's registrations in ``mark_dead``.
    """

    def __init__(self, core, send, conn_id: str):
        self.core = core
        self._send = send
        self.conn_id = conn_id
        self.state = ConnState.OPEN

    def _write(self, frame) -> bool:
        try:
            self._send(encode_push_frame(frame))
            return True
        except Exception as exc:
            log.debug("push write failed on %s: %s", self.conn_id, exc)
            self.mark_dead()
            return False

    def on_message(self, data: bytes) -> bool:
        """Handle one inbound frame. Returns False when the connection
        must close (client Close, auth failure, protocol violation)."""
        if self.state is not ConnState.OPEN:
            return False
        try:
            frame = decode_push_frame(data)
        except MalformedFrame as exc:
            log.warning("malformed frame on %s: %s", self.conn_id, exc)
            return False
        if frame.kind is FrameKind.REGISTER:
            return self._on_register(frame)
        if frame.kind is FrameKind.CLOSE:
            self.core.emit("push_close_received", conn=self.conn_id)
            self.state = ConnState.CLOSING
            return False
        log.warning("unexpected %s frame from client on %s", frame.kind.value, self.conn_id)
        return False

    def _on_register(self, frame) -> bool:
        token = frame.body.decode("utf-8", errors="replace")
        meta, immediate = self.core.register_push(frame.rid, self, token)
        if meta == META_UNAUTHORIZED:
            self._write(register_ack_frame(frame.rid, META_UNAUTHORIZED))
            return False
        if meta == "DUP":
            return True  # idempotent re-registration: no second ack
        if immediate is not None:
            # Completed before the registration landed: ack, then deliver
            # right away so the race never loses the response.
            ok = self._write(register_ack_frame(frame.rid, meta))
            return ok and self._write(deliver_frame(immediate))
        return self._write(register_ack_frame(frame.rid, meta))

    def push_response(self, resp: ResponseEnvelope) -> bool:
        """Write a Deliver frame; on failure the registration dies with the
        connection and the response stays in the cache for replay."""
        if self.state is not ConnState.OPEN:
            return False
        return self._write(deliver_frame(resp))

    def mark_dead(self) -> None:
        if self.state is ConnState.CLOSED:
            return
        self.state = ConnState.CLOSED
        self.core.conn_closed(self)

    def send_goodbye(self) -> None:
        """Best-effort Close frame ahead of dropping the transport."""
        if self.state is ConnState.OPEN:
            self._write(close_frame())
        self.mark_dead()
