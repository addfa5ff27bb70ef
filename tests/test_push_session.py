"""The server's end of a push connection, driven without a transport:
every way a connection ends closes the transport once and drops the
connection's registrations, and a closed session writes nothing."""

import pytest

from rmaws.envelope import (
    Channel,
    FrameKind,
    RequestEnvelope,
    ResponseEnvelope,
    ResponseStatus,
    decode_push_frame,
    encode_push_frame,
    make_request_id,
    payload_digest,
    register_ack_frame,
    register_frame,
)
from rmaws.push import PushSession
from rmaws.server import HandlerRegistry, ServerCore, make_synthetic

TOKEN = "tok"
P = payload_digest(b"p")
CLOSE = "close"


class FakeConn:
    """Records, in order, each frame the session writes and each close."""

    def __init__(self):
        self.log: list = []
        self.fail_writes = False

    def send_binary(self, data: bytes) -> None:
        if self.fail_writes:
            raise ConnectionError("peer gone")
        frame = decode_push_frame(data)
        self.log.append((frame.kind, frame.meta))

    def send_close(self) -> None:
        self.log.append(CLOSE)


def rid(ts=1):
    return make_request_id("devA", ts, "svc")


def register(ts=1, token=TOKEN) -> bytes:
    return encode_push_frame(register_frame(rid(ts), P, token))


@pytest.fixture
def opened():
    """A session holding one registration, for a key whose request runs."""
    core = ServerCore(HandlerRegistry().add(make_synthetic("svc")), auth_token=TOKEN)
    core.submit(RequestEnvelope(rid(), b"p"), object())
    conn = FakeConn()
    session = PushSession(core, conn, "c1")
    session.on_message(register())
    assert conn.log == [(FrameKind.REGISTER_ACK, "OK")]
    assert core.presence_route(rid().dedup_key).conn is session
    return core, conn, session


def failed_write(session, conn):
    conn.fail_writes = True
    assert not session.push_response(ResponseEnvelope(rid(), ResponseStatus.OK, Channel.PUSH, b""), P)


def close_twice(session, conn):
    session.close()
    session.close()


ENDS = {
    "client-close": lambda session, conn: session.on_message(None),
    "malformed": lambda session, conn: session.on_message(b"junk"),
    "ack-from-client": lambda session, conn: session.on_message(
        encode_push_frame(register_ack_frame(rid(), "OK"))),
    # Built by hand: a PushFrame always names a digest of its full size.
    "short-register": lambda session, conn: session.on_message(
        b"R" + rid(2).canonical().encode("ascii") + b"--" + b"%010d" % (len(P) - 1) + P[:-1]),
    "bad-token": lambda session, conn: session.on_message(register(ts=2, token="wrong")),
    "failed-write": failed_write,
    "close-twice": close_twice,
}


@pytest.mark.parametrize("end", ENDS.values(), ids=ENDS.keys())
def test_each_end_closes_once_and_drops_the_registrations(opened, end):
    core, conn, session = opened
    end(session, conn)
    assert conn.log.count(CLOSE) == 1
    assert not session.open
    assert core.presence_route(rid().dedup_key) is None
    # From now on the session writes nothing and registers nothing.
    conn.fail_writes = False
    written = list(conn.log)
    session.on_message(register(ts=3))
    assert not session.push_response(ResponseEnvelope(rid(3), ResponseStatus.OK, Channel.PUSH, b""), P)
    assert conn.log == written
    assert core.presence_route(rid(3).dedup_key) is None


def test_bad_token_is_acked_before_the_close(opened):
    core, conn, session = opened
    session.on_message(register(ts=2, token="wrong"))
    assert conn.log[1:] == [(FrameKind.REGISTER_ACK, "UA"), CLOSE]

