"""The client's end of one push connection, without a transport: the rule
that both ``PushClient`` and the simulator run."""

import pytest

from rmaws.envelope import (
    Channel,
    FrameKind,
    ResponseEnvelope,
    ResponseStatus,
    decode_push_frame,
    deliver_frame,
    encode_push_frame,
    make_request_id,
    payload_digest,
    register_ack_frame,
)
from rmaws.push import PushWaits

DIGEST = payload_digest(b"p")
OTHER = payload_digest(b"q")


def rid(ts=1, trial=1):
    return make_request_id("devW", ts, "echo", trial)


def deliver(r, status=ResponseStatus.OK, body=b"BODY", digest=DIGEST):
    return encode_push_frame(deliver_frame(ResponseEnvelope(r, status, Channel.PUSH, body), digest))


def ack(r, meta="OK"):
    return encode_push_frame(register_ack_frame(r, meta))


def hear(waits, data):
    return waits.on_frame(PushWaits.decode(data))


def test_register_frame_carries_digest_then_token():
    waits = PushWaits("tok")
    frame = decode_push_frame(waits.register(rid(), DIGEST, "w"))
    assert (frame.kind, frame.rid, frame.digest, frame.body) == \
        (FrameKind.REGISTER, rid(), DIGEST, b"tok")
    assert waits.keys() == [rid().dedup_key]


def test_deliver_for_a_waited_key_returns_its_waiter_and_forgets_the_key():
    waits = PushWaits("tok")
    waits.register(rid(), DIGEST, "w")
    heard = hear(waits, deliver(rid(trial=2)))
    assert heard.waiter == "w" and heard.open
    assert (heard.resp.rid, heard.resp.status, heard.resp.channel, heard.resp.body) == \
        (rid(trial=2), ResponseStatus.OK, Channel.PUSH, b"BODY")
    assert waits.keys() == []
    assert hear(waits, deliver(rid())).waiter is None
    assert waits.dead() == []


@pytest.mark.parametrize("status", list(ResponseStatus))
def test_deliver_keeps_its_status(status):
    waits = PushWaits("tok")
    waits.register(rid(), DIGEST, "w")
    assert hear(waits, deliver(rid(), status)).resp.status is status


def test_deliver_for_an_unknown_key_keeps_the_connection():
    waits = PushWaits("tok")
    waits.register(rid(ts=1), DIGEST, "w")
    heard = hear(waits, deliver(rid(ts=2)))
    assert heard.resp is not None and heard.waiter is None and heard.open
    assert waits.keys() == [rid(ts=1).dedup_key]


@pytest.mark.parametrize("frame, is_open", [
    (ack(rid(), "OK"), True),
    (ack(rid(), "NC"), True),
    (ack(rid(), "UA"), False),
], ids=["ack-ok", "ack-nc", "ack-unauthorized"])
def test_unauthorized_ack_and_close_close_the_connection(frame, is_open):
    waits = PushWaits("tok")
    waits.register(rid(), DIGEST, "w")
    heard = hear(waits, frame)
    assert heard.open is is_open
    assert heard.waiter is None and heard.resp is None


def test_undecodable_frame_is_ignored():
    waits = PushWaits("tok")
    waits.register(rid(), DIGEST, "w")
    assert PushWaits.decode(b"junk") is None
    assert hear(waits, b"junk") == hear(waits, b"") == (None, None, None, True)
    assert waits.keys() == [rid().dedup_key]


def test_deliver_too_short_to_name_a_digest_is_undecodable():
    waits = PushWaits("tok")
    waits.register(rid(), DIGEST, "w")
    # Built by hand: a PushFrame always names a digest of its full size.
    short = (b"D" + rid().canonical().encode("ascii") + b"OK"
             + b"%010d" % (len(DIGEST) - 1) + DIGEST[:-1])
    assert PushWaits.decode(short) is None
    assert hear(waits, short) == (None, None, None, True)
    assert PushWaits.decode(deliver(rid(), body=b"")) is not None  # a digest and an empty body
    assert waits.keys() == [rid().dedup_key]


def test_on_death_only_an_unanswered_register_that_followed_another_is_lost():
    waits = PushWaits("tok")
    waits.register(rid(ts=1), DIGEST, "first")  # opened the connection
    waits.register(rid(ts=2), DIGEST, "answered")
    waits.register(rid(ts=3), DIGEST, "unanswered")
    hear(waits, ack(rid(ts=2)))
    assert waits.dead() == [("first", False), ("answered", False), ("unanswered", True)]
    assert waits.keys() == [] and waits.dead() == []


def test_register_again_needs_a_new_answer():
    waits = PushWaits("tok")
    waits.register(rid(ts=1), DIGEST, "first")
    waits.register(rid(ts=2), DIGEST, "old")
    hear(waits, ack(rid(ts=2)))
    waits.register(rid(ts=2, trial=2), DIGEST, "new")  # replaces the waiter
    assert waits.dead() == [("first", False), ("new", True)]


def test_register_with_the_same_digest_replaces_the_waiter():
    waits = PushWaits("tok")
    waits.register(rid(), DIGEST, "old")
    frame = decode_push_frame(waits.register(rid(trial=2), DIGEST, "new"))
    assert (frame.kind, frame.rid) == (FrameKind.REGISTER, rid(trial=2))
    assert hear(waits, deliver(rid())).waiter == "new"
    assert waits.keys() == []


def test_register_for_another_payload_on_a_waited_key_waits_beside_it():
    # A reused id: a Deliver names the payload it answers, so each
    # payload's waiter gets its own answer, in whichever order they come.
    waits = PushWaits("tok")
    waits.register(rid(ts=1), DIGEST, "p")
    frame = decode_push_frame(waits.register(rid(ts=1, trial=2), OTHER, "q"))
    assert (frame.digest, frame.body) == (OTHER, b"tok")
    assert waits.keys() == [rid().dedup_key] * 2
    heard = hear(waits, deliver(rid(ts=1), ResponseStatus.VALIDATION_ERROR, digest=OTHER))
    assert (heard.waiter, heard.resp.status) == ("q", ResponseStatus.VALIDATION_ERROR)
    assert hear(waits, deliver(rid(ts=1), body=b"P", digest=OTHER)).waiter is None
    heard = hear(waits, deliver(rid(ts=1), body=b"P"))
    assert (heard.waiter, heard.resp.body) == ("p", b"P")
    assert waits.dead() == []


def test_deliver_for_a_released_payload_wakes_nothing():
    # The first payload's Deliver may still be in flight when its send
    # has been answered elsewhere and a send under the same id waits.
    waits = PushWaits("tok")
    waits.register(rid(), DIGEST, "a")
    waits.release(rid().dedup_key, DIGEST)
    waits.register(rid(), OTHER, "b")
    heard = hear(waits, deliver(rid(), body=b"A"))
    assert heard.resp.body == b"A" and heard.waiter is None and heard.open
    assert waits.keys() == [rid().dedup_key]
    assert hear(waits, deliver(rid(), body=b"B", digest=OTHER)).waiter == "b"
    assert waits.keys() == []


def test_ack_answers_every_register_for_its_key():
    # A RegisterAck names only a rid: it cannot tell which payload's
    # Register it answers, so none of them counts as lost.
    waits = PushWaits("tok")
    waits.register(rid(ts=1), DIGEST, "first")
    waits.register(rid(ts=2), DIGEST, "p")
    waits.register(rid(ts=2), OTHER, "q")
    waits.register(rid(ts=3), DIGEST, "other key")
    hear(waits, ack(rid(ts=2)))
    assert waits.dead() == [("first", False), ("p", False), ("q", False), ("other key", True)]


def test_first_register_on_the_next_connection_is_not_lost():
    old = PushWaits("tok")
    old.register(rid(ts=1), DIGEST, "a")
    old.register(rid(ts=2), DIGEST, "b")
    assert old.dead() == [("a", False), ("b", True)]
    new = PushWaits("tok")  # the lost Register goes out again here
    new.register(rid(ts=2), DIGEST, "b")
    assert new.dead() == [("b", False)]


def test_release_forgets_the_key():
    waits = PushWaits("tok")
    waits.register(rid(), DIGEST, "w")
    waits.release(rid().dedup_key, DIGEST)
    waits.release(rid().dedup_key, DIGEST)
    assert waits.keys() == []
    assert hear(waits, deliver(rid())).waiter is None


def test_release_for_another_payload_keeps_the_waiter():
    waits = PushWaits("tok")
    waits.register(rid(), DIGEST, "w")
    waits.release(rid().dedup_key, OTHER)  # another send under the key
    assert hear(waits, deliver(rid())).waiter == "w"
