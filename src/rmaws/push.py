"""Both ends of one push connection, as sans-IO state.

``PushSession`` is the server's end: it is fed each message through
:meth:`PushSession.on_message`, None when the client closes, and writes
frames and closes through a transport. ``PushWaits`` is the client's
end: it builds each Register frame and says what each frame from the
server means. The live server and ``PushClient`` wire them to a
WebSocket, whose close ends a connection; the simulator wires both to an
in-process pipe carrying the same frame encodings and the same close, so
the live stack and the simulator run one protocol.
"""

from __future__ import annotations

import logging
import threading
from typing import NamedTuple

from .envelope import (
    Channel,
    FrameKind,
    MalformedFrame,
    META_UNAUTHORIZED,
    PushFrame,
    ResponseEnvelope,
    RequestId,
    decode_push_frame,
    deliver_frame,
    encode_push_frame,
    register_ack_frame,
    register_frame,
    status_from_code,
)

log = logging.getLogger(__name__)


class PushSession:
    """The server's end of one accepted push connection.

    ``conn`` is the transport, with ``send_binary`` and ``send_close``.
    Every way the connection ends (the client's close, a bad token, a
    malformed or unexpected frame, a failed write, the idle timeout, the
    server's stop) runs :meth:`close`.

    A Register names the payload digest and carries the auth token; one
    too short to hold the digest is a malformed frame, which closes the
    connection. A Deliver names the digest of the payload it answers and
    carries the response body. One connection may hold registrations for
    many request ids. They live in the core's presence table, not in the
    session: the core consumes a key's registration when its execution
    finishes, drops it when an HTTP arrival for the key supersedes it, and
    drops all of the connection's registrations when the session closes.
    """

    def __init__(self, core, conn, conn_id: str):
        self.core = core
        self.conn = conn
        self.conn_id = conn_id
        self.open = True
        # stop(), the connection thread and a failed Deliver write may close at once.
        self._closing = threading.Lock()

    def _write(self, frame) -> bool:
        try:
            self.conn.send_binary(encode_push_frame(frame))
            return True
        except Exception as exc:
            log.debug("push write failed on %s: %s", self.conn_id, exc)
            self.close()
            return False

    def on_message(self, data: bytes | None) -> None:
        """Handle one inbound message; None is the client's close. A
        message that ends the connection closes the session."""
        if not self.open or data is None:
            self.close()  # does nothing once closed
            return
        try:
            frame = decode_push_frame(data)
        except MalformedFrame as exc:
            log.warning("malformed frame on %s: %s", self.conn_id, exc)
            self.close()
            return
        if frame.kind is FrameKind.REGISTER:
            self._on_register(frame)
        else:
            log.warning("unexpected %s frame from client on %s", frame.kind.value, self.conn_id)
            self.close()

    def _on_register(self, frame) -> None:
        token = frame.body.decode("utf-8", errors="replace")
        meta, immediate = self.core.register_push(frame.rid, frame.digest, self, token)
        if meta == "DUP":
            return  # idempotent re-registration: no second ack
        acked = self._write(register_ack_frame(frame.rid, meta))
        if meta == META_UNAUTHORIZED:
            self.close()
        elif acked and immediate is not None:
            # Completed before the registration landed, or refused as an
            # identity conflict: deliver the answer right after the ack,
            # naming this Register's payload.
            self._write(deliver_frame(immediate, frame.digest))

    def push_response(self, resp: ResponseEnvelope, digest: bytes) -> bool:
        """Write a Deliver frame naming the payload ``digest``; on failure
        the registration dies with the connection and the response stays
        in the cache for replay."""
        return self.open and self._write(deliver_frame(resp, digest))

    def close(self) -> None:
        """Send the transport's close and drop the connection's
        registrations; a second call does nothing. The close is sent under
        the lock, so a second call returns only once it is out: the
        connection thread, which closes the socket after its own call,
        cannot close it under the close that stop() is writing."""
        with self._closing:
            if not self.open:
                return
            self.open = False
            self.conn.send_close()
        self.core.conn_closed(self)


class Heard(NamedTuple):
    """What one frame from the server means for the connection."""

    resp: ResponseEnvelope | None = None  # a Deliver's response
    waiter: object = None  # the waiter it answers, now forgotten
    ack: str | None = None  # a RegisterAck's meta
    open: bool = True  # False after an unauthorized ack: the connection must close


class PushWaits:
    """The client's end of one push connection: its waiters by dedup key
    and payload digest.

    A waiter is whatever its caller wakes: a ``_PushSlot`` in
    ``PushClient``, a send in the simulator. A Deliver names the digest of
    the payload it answers and wakes only the waiter for its key and
    digest, so sends under one reused id each get their own answer. A
    RegisterAck names only a rid, so it answers every Register for its
    key. A Register that followed another on the connection and got no
    answer before it died is lost: most likely the server closed the
    connection while idle just as the Register went out.
    """

    def __init__(self, token: str):
        self.token = token
        # (key, payload digest) -> [waiter, followed another, answered]
        self._waits: dict[tuple[str, bytes], list] = {}
        self._used = False

    def keys(self) -> list[str]:
        return [key for key, _ in self._waits]

    def register(self, rid: RequestId, digest: bytes, waiter) -> bytes:
        """Make ``waiter`` the one that rid's key and ``digest``, the
        payload's, answer; return the Register frame. It goes out even when
        they already wait: an HTTP arrival may have superseded the server's
        registration, and the server ignores one that still stands."""
        self._waits[rid.dedup_key, digest] = [waiter, self._used, False]
        self._used = True
        return encode_push_frame(register_frame(rid, digest, self.token))

    def release(self, key: str, digest: bytes) -> None:
        """Forget the waiter for the key and payload, if any."""
        self._waits.pop((key, digest), None)

    @staticmethod
    def decode(data: bytes) -> PushFrame | None:
        """The frame in ``data``, or None when it does not decode. It needs
        no state, so a reader may decode outside the lock it holds for
        :meth:`on_frame`."""
        try:
            return decode_push_frame(data)
        except MalformedFrame as exc:
            log.warning("undecodable push frame: %s", exc)
            return None

    def on_frame(self, frame: PushFrame | None) -> Heard:
        """What a decoded frame from the server means; an undecodable one
        (None), or a Register, is ignored."""
        if frame is None or frame.kind is FrameKind.REGISTER:
            return Heard()
        key = frame.rid.dedup_key
        if frame.kind is FrameKind.DELIVER:
            wait = self._waits.pop((key, frame.digest), None)
            return Heard(ResponseEnvelope(frame.rid, status_from_code(frame.meta), Channel.PUSH,
                                          frame.body), wait and wait[0])
        for (waited, _), wait in self._waits.items():  # a RegisterAck
            if waited == key:
                wait[2] = True
        return Heard(ack=frame.meta, open=frame.meta != META_UNAUTHORIZED)

    def dead(self) -> list[tuple[object, bool]]:
        """Every waiter, in registration order, with whether its Register
        was lost; all are forgotten."""
        waits = [(waiter, followed and not answered)
                 for waiter, followed, answered in self._waits.values()]
        self._waits.clear()
        return waits
