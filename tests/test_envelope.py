import dataclasses
import json
import pathlib
import string
import zlib

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from rmaws.envelope import (
    _decode_checked,
    _decode_matched,
    OVERHEAD_BYTES,
    PAYLOAD_DIGEST_BYTES,
    RID_WIDTH,
    FRAME_HEADER_BYTES,
    EnvelopeError,
    FrameKind,
    InvalidDeviceId,
    InvalidServiceName,
    InvalidTimestamp,
    MalformedEnvelope,
    MalformedFrame,
    PushFrame,
    RequestEnvelope,
    RequestId,
    TrialOverflow,
    decode_push_frame,
    decode_request,
    deliver_frame,
    encode_push_frame,
    encode_request,
    make_request_id,
    parse_rid,
    payload_digest,
    register_ack_frame,
    register_frame,
    Channel,
    ResponseEnvelope,
    ResponseStatus,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"

names = st.text(alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-.", min_size=1, max_size=32)
timestamps = st.integers(min_value=0, max_value=10**20 - 1)
trials = st.integers(min_value=1, max_value=99)
# Every character a device id or service name may hold; a service name
# must keep one that is not a space.
wire_names = st.text(alphabet=sorted(set(string.printable) - set("|\t\n\r\x0b\x0c")),
                     min_size=1, max_size=32).filter(str.strip)


def fixture_envelope(payload: bytes) -> RequestEnvelope:
    return RequestEnvelope(make_request_id("devA", 1700000000000, "orders", trial=1, forced=False),
                           payload)


@st.composite
def envelopes(draw, names=names):
    rid = make_request_id(
        draw(names), draw(timestamps), draw(names), draw(trials), draw(st.booleans())
    )
    return RequestEnvelope(rid, draw(st.binary(max_size=2048)))


def text_of(chars: str, size: int):
    return st.text(alphabet=chars, min_size=size, max_size=size)


@st.composite
def rid_texts(draw):
    """Rid texts near the canonical form: fields of legal characters, the
    space among them, so a service field often starts with one, and maybe
    one character set to a space, a separator, a letter or one outside
    ASCII."""
    text = "".join((draw(text_of(" 0a~", 32)), draw(text_of("0123456789", 20)),
                    draw(text_of(" a~", 32)), draw(text_of("0129", 2)), draw(text_of("01", 1))))
    if draw(st.booleans()):
        pos = draw(st.integers(min_value=0, max_value=RID_WIDTH - 1))
        text = text[:pos] + draw(st.sampled_from(" |xé")) + text[pos + 1:]
    return text


# Bytes that a header field may or may not accept: separators, digits,
# hex, padding, name characters and bytes outside ASCII.
_EDGE_BYTES = b"|01 9afAZ~\x7f\x00\xff"


@st.composite
def mangled_requests(draw):
    """A valid request with a few bytes replaced or copied from elsewhere
    in its header, maybe with its CRC sealed again so that checks past the
    CRC are reached, maybe cut short or extended."""
    wire = bytearray(encode_request(draw(envelopes())))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        pos = draw(st.integers(min_value=0, max_value=OVERHEAD_BYTES - 1))
        wire[pos] = draw(st.one_of(
            st.sampled_from(_EDGE_BYTES),
            st.integers(min_value=0, max_value=255),
            st.integers(min_value=0, max_value=OVERHEAD_BYTES - 1).map(wire.__getitem__)))
    if draw(st.booleans()):
        wire = bytearray(sealed(wire))
    end = len(wire) + draw(st.integers(min_value=-3, max_value=3))
    return bytes(wire[:end]) + b"x" * max(0, end - len(wire))


def sealed(wire: bytearray) -> bytes:
    """``wire`` with the CRC field set to the CRC of the header it holds."""
    crc = zlib.crc32(bytes(wire[215:225]), zlib.crc32(bytes(wire[:133])))
    wire[133:141] = b"%08x" % crc
    return bytes(wire)


def assert_paths_agree(data: bytes) -> None:
    """The single-match path may only accept what the field-by-field
    checks accept, and must build the same envelope from it."""
    matched = outcome(_decode_matched, data)
    checked = outcome(_decode_checked, data)
    if matched is not None:
        assert matched == checked
    assert outcome(decode_request, data) == checked


def outcome(decode, data):
    """What ``decode`` makes of ``data``: its result, or the error's type,
    offset and reason."""
    try:
        return decode(data)
    except MalformedEnvelope as exc:
        return type(exc), exc.offset, exc.reason
    except EnvelopeError as exc:
        return type(exc), str(exc)


class TestRequestId:
    def test_deterministic(self):
        a = make_request_id("devA", 1000, "orders", 1, False)
        b = make_request_id("devA", 1000, "orders", 1, False)
        assert a == b
        assert a.canonical() == b.canonical()

    def test_timestamp_changes_dedup_key(self):
        a = make_request_id("devA", 1000, "orders", 1, False)
        b = make_request_id("devA", 1001, "orders", 1, False)
        assert a.dedup_key != b.dedup_key

    def test_bulk_uniqueness(self):
        # Oracle: insert every rendered dedup key into a set and count.
        keys = set()
        n = 0
        for dev in range(100):
            for ts in range(1000):
                keys.add(make_request_id(f"dev{dev}", ts, "orders").dedup_key)
                n += 1
        assert n == 100_000
        assert len(keys) == 100_000

    @given(names, timestamps, names, trials, st.booleans())
    def test_fixed_width_rendering(self, dev, ts, svc, trial, forced):
        rid = make_request_id(dev, ts, svc, trial, forced)
        assert len(rid.canonical()) == RID_WIDTH

    @given(names, timestamps, names, st.booleans())
    def test_dedup_key_ignores_trial_and_forced(self, dev, ts, svc, forced):
        base = make_request_id(dev, ts, svc, 1, False)
        for trial in (1, 2, 99):
            other = make_request_id(dev, ts, svc, trial, forced)
            assert other.dedup_key == base.dedup_key

    def test_trial_out_of_range(self):
        with pytest.raises(TrialOverflow):
            make_request_id("d", 0, "svc", trial=100)
        with pytest.raises(TrialOverflow):
            make_request_id("d", 0, "svc", trial=0)

    def test_bad_service_name(self):
        with pytest.raises(InvalidServiceName):
            make_request_id("d", 0, "")
        with pytest.raises(InvalidServiceName):
            make_request_id("d", 0, "   ")
        with pytest.raises(InvalidServiceName):
            make_request_id("d", 0, "a|b")

    def test_long_service_name_is_truncated(self):
        rid = make_request_id("d", 0, "x" * 40)
        assert rid.service_name == "x" * 32

    def test_bad_device(self):
        with pytest.raises(InvalidDeviceId):
            make_request_id("", 0, "svc")
        with pytest.raises(InvalidDeviceId):
            make_request_id("d" * 33, 0, "svc")
        with pytest.raises(InvalidDeviceId):
            make_request_id("a|b", 0, "svc")

    def test_bad_timestamp(self):
        with pytest.raises(InvalidTimestamp):
            make_request_id("d", -1, "svc")
        with pytest.raises(InvalidTimestamp):
            make_request_id("d", 10**20, "svc")

    @pytest.mark.parametrize("device, stamp, service, error", [
        ("d", 2.5, "svc", InvalidTimestamp),
        ("d", True, "svc", InvalidTimestamp),
        ("d", "5", "svc", InvalidTimestamp),
        (5, 0, "svc", InvalidDeviceId),
        (["d"], 0, "svc", InvalidDeviceId),
        ("d", 0, 5, InvalidServiceName),
    ], ids=["stamp-fraction", "stamp-bool", "stamp-text", "device-int", "device-list",
            "service-int"])
    def test_mistyped_fields(self, device, stamp, service, error):
        """A fraction or a bool was formatted into the rid as an integer;
        the rest failed with a ``TypeError`` or an ``AttributeError``."""
        with pytest.raises(error):
            make_request_id(device, stamp, service)

    def test_with_trial_keeps_identity(self):
        rid = make_request_id("devA", 5, "orders")
        assert rid.with_trial(7).dedup_key == rid.dedup_key
        assert rid.with_trial(7).trial == 7

    def test_is_its_text(self):
        rid = make_request_id("devA", 5, "orders", 3, True)
        text = rid.canonical()
        assert text == "devA".rjust(32, "0") + "5".rjust(20, "0") + "orders".ljust(32) + "031"
        again = RequestId(text)
        assert again is not rid and again == rid and hash(again) == hash(rid)
        assert len({rid, again, rid.with_trial(4)}) == 2
        assert rid != text and rid != rid.with_trial(4)
        assert (rid.device_id, rid.timestamp_ms, rid.service_name, rid.trial, rid.forced) == \
            ("devA".rjust(32, "0"), 5, "orders".ljust(32), 3, True)
        assert (rid.dedup_key, rid.service) == (text[:84], "orders")

    def test_cannot_be_changed(self):
        rid = make_request_id("devA", 5, "orders")
        for name in ("trial", "forced", "dedup_key", "service", "device_id", "_text", "other"):
            with pytest.raises(AttributeError):
                setattr(rid, name, 2)
            with pytest.raises(AttributeError):
                delattr(rid, name)
        assert rid == make_request_id("devA", 5, "orders")

    @pytest.mark.parametrize("size", [0, 84, 86, 88])
    def test_text_of_another_length_is_refused(self, size):
        with pytest.raises(EnvelopeError, match=f"got {size}"):
            RequestId(make_request_id("devA", 5, "orders").canonical().ljust(88, "0")[:size])


class TestRequestCodec:
    @pytest.mark.parametrize("size", [0, 25, 55, 1024, 191745])
    def test_constant_overhead(self, size):
        env = fixture_envelope(b"x" * size)
        assert len(encode_request(env)) == size + OVERHEAD_BYTES

    def test_known_sizes(self):
        assert len(encode_request(fixture_envelope(b"a" * 25))) == 251
        assert len(encode_request(fixture_envelope(b"a" * 55))) == 281

    def test_golden_fixture_25(self):
        payload = b"payload-0123456789ABCDEF!"
        assert len(payload) == 25
        expected = (GOLDEN / "request_25.bin").read_bytes()
        assert encode_request(fixture_envelope(payload)) == expected
        assert len(expected) == 251

    def test_golden_fixture_55(self):
        payload = b"0123456789" * 5 + b"ABCDE"
        assert len(payload) == 55
        expected = (GOLDEN / "request_55.bin").read_bytes()
        assert encode_request(fixture_envelope(payload)) == expected
        assert len(expected) == 281

    @given(envelopes())
    def test_round_trip(self, env):
        assert decode_request(encode_request(env)) == env

    @given(envelopes(wire_names))
    def test_decoded_rid_is_the_encoded_one(self, env):
        # The decoder keeps the rid's text rather than formatting it again.
        rid, sent = decode_request(encode_request(env)).rid, env.rid
        assert (rid, hash(rid), repr(rid)) == (sent, hash(sent), repr(sent))
        assert (rid.canonical(), rid.dedup_key) == (sent.canonical(), sent.dedup_key)
        assert rid.with_trial(99) == sent.with_trial(99)
        frame = decode_push_frame(encode_push_frame(register_frame(sent, payload_digest(b""), "")))
        assert (frame.rid, frame.rid.canonical()) == (sent, sent.canonical())

    @given(envelopes())
    def test_overhead_is_constant_for_any_envelope(self, env):
        assert len(encode_request(env)) - len(env.payload) == OVERHEAD_BYTES

    def test_truncated_input(self):
        encoded = encode_request(fixture_envelope(b"hello"))
        with pytest.raises(MalformedEnvelope):
            decode_request(encoded[:OVERHEAD_BYTES - 1])
        with pytest.raises(MalformedEnvelope):
            decode_request(b"")

    def test_length_mismatch(self):
        encoded = encode_request(fixture_envelope(b"hello"))
        with pytest.raises(MalformedEnvelope):
            decode_request(encoded + b"x")
        with pytest.raises(MalformedEnvelope):
            decode_request(encoded[:-1])

    def test_exhaustive_single_byte_corruption(self):
        # Oracle: flip every byte of a 251-byte fixture to every other value.
        # A header flip must never decode; a payload flip may decode but must
        # leave every header-derived field untouched. Each header flip must
        # be rejected with the offset and reason that the field-by-field
        # checks alone give, recorded from a decoder that had no other path
        # in golden/corruption_rejections.json as, per header byte, runs of
        # [first delta, last delta, offset, index into "reasons"].
        recorded = json.loads((GOLDEN / "corruption_rejections.json").read_text())
        expected = {}
        for pos, runs in enumerate(recorded["rejections"]):
            for first, last, offset, reason in runs:
                for delta in range(first, last + 1):
                    expected[pos, delta] = (offset, recorded["reasons"][reason])
        assert len(expected) == OVERHEAD_BYTES * 255
        original = fixture_envelope(b"payload-0123456789ABCDEF!")
        encoded = encode_request(original)
        assert len(encoded) == 251
        for pos in range(len(encoded)):
            for delta in range(1, 256):
                corrupted = bytearray(encoded)
                corrupted[pos] = (corrupted[pos] + delta) % 256
                try:
                    decoded = decode_request(bytes(corrupted))
                except MalformedEnvelope as exc:
                    assert (exc.offset, exc.reason) == expected[pos, delta], (pos, delta)
                    continue
                assert pos >= OVERHEAD_BYTES, f"corruption at header byte {pos} decoded silently"
                assert decoded.rid == original.rid
                assert decoded.service_name == original.service_name
                assert decoded.is_forced == original.is_forced

    @settings(max_examples=400)
    @given(st.one_of(mangled_requests(), st.binary(max_size=300)))
    def test_matched_and_checked_paths_agree(self, data):
        assert_paths_agree(data)

    @pytest.mark.parametrize("field", [b" " * 32, b" orders".ljust(32)],
                             ids=["blank", "leading-space"])
    def test_service_field_that_no_name_renders_to(self, field):
        # Both copies of the service field changed alike, and the CRC
        # sealed: only the service checks can reject it.
        wire = bytearray(encode_request(fixture_envelope(b"payload")))
        wire[59:91] = wire[100:132] = field
        data = sealed(wire)
        assert outcome(decode_request, data) == (MalformedEnvelope, 59, "service field is not canonical")
        assert_paths_agree(data)

    def test_paths_agree_on_every_sealed_single_byte_change(self):
        # Each header byte set to each edge byte, with the CRC sealed again,
        # so that every check past the CRC (the mirrors above all) is met.
        encoded = encode_request(fixture_envelope(b"payload"))
        for pos in range(OVERHEAD_BYTES):
            for value in _EDGE_BYTES:
                wire = bytearray(encoded)
                wire[pos] = value
                assert_paths_agree(sealed(wire))

    def test_envelope_is_a_rid_and_a_payload(self):
        rid = make_request_id("devA", 1, "orders", forced=True)
        env = RequestEnvelope(rid, b"p")
        assert [field.name for field in dataclasses.fields(env)] == ["rid", "payload"]
        assert (env.is_forced, env.service_name) == (True, "orders")
        wire = encode_request(env)
        assert decode_request(wire) == env
        # The header's forced, trial and service fields copy the rid's.
        assert (wire[95:96], wire[97:99], wire[100:132]) == (b"1", b"01", b"orders".ljust(32))

    @pytest.mark.parametrize("start, field, error", [
        (52, " orders".ljust(32), (52, "service field is not canonical")),
        (0, "dév".rjust(32, "0"), (0, "illegal characters in device id")),
        (52, "ordérs".ljust(32), (52, "illegal characters in service name")),
    ], ids=["leading-space", "device-not-ascii", "service-not-ascii"])
    def test_parse_rid_refuses_what_no_client_builds(self, start, field, error):
        text = make_request_id("devA", 1, "orders").canonical()
        with pytest.raises(MalformedEnvelope) as info:
            parse_rid(text[:start] + field + text[start + 32:])
        assert (info.value.offset, info.value.reason) == error
        assert parse_rid(text) == make_request_id("devA", 1, "orders")

    @settings(max_examples=300)
    @given(rid_texts())
    def test_every_rid_the_codec_accepts_is_one_a_client_builds(self, text):
        frame = b"R" + text.encode("utf-8") + b"--" + b"0" * 10
        for decode in (lambda: parse_rid(text), lambda: decode_push_frame(frame).rid):
            try:
                rid = decode()
            except (MalformedEnvelope, MalformedFrame):
                continue
            assert rid.canonical() == text
            assert rid == make_request_id(rid.device_id, rid.timestamp_ms, rid.service_name,
                                          rid.trial, rid.forced)


class TestPushFrameCodec:
    def response(self, body: bytes) -> ResponseEnvelope:
        rid = make_request_id("devA", 42, "orders")
        return ResponseEnvelope(rid=rid, status=ResponseStatus.OK, channel=Channel.PUSH, body=body)

    def test_register_round_trip(self):
        rid = make_request_id("devA", 42, "orders")
        digest = payload_digest(b"payload")
        frame = register_frame(rid, digest, "secret-token")
        data = encode_push_frame(frame)
        decoded = decode_push_frame(data)
        assert decoded == frame
        assert (decoded.digest, decoded.body) == (digest, b"secret-token")
        assert len(digest) == PAYLOAD_DIGEST_BYTES
        # On the wire the body is the digest, then the token.
        assert data == (b"R" + rid.canonical().encode("ascii") + b"--"
                        + b"%010d" % (PAYLOAD_DIGEST_BYTES + 12) + digest + b"secret-token")

    @pytest.mark.parametrize("size", [0, 1, 191745])
    def test_deliver_body_exact(self, size):
        digest = payload_digest(b"payload")
        frame = deliver_frame(self.response(b"\xff" * size), digest)
        data = encode_push_frame(frame)
        decoded = decode_push_frame(data)
        assert decoded.kind is FrameKind.DELIVER
        assert (decoded.digest, decoded.body) == (digest, b"\xff" * size)
        assert data[FRAME_HEADER_BYTES:] == digest + b"\xff" * size  # the digest, then the body

    def test_ack_round_trip(self):
        rid = make_request_id("devA", 42, "orders")
        for meta in ("OK", "UA", "NC"):
            decoded = decode_push_frame(encode_push_frame(register_ack_frame(rid, meta)))
            assert decoded.meta == meta

    @given(names, timestamps, names, trials, st.booleans(), st.binary(max_size=4096),
           st.binary(min_size=PAYLOAD_DIGEST_BYTES, max_size=PAYLOAD_DIGEST_BYTES))
    def test_round_trip_any_register(self, dev, ts, svc, trial, forced, body, digest):
        rid = make_request_id(dev, ts, svc, trial, forced)
        frame = PushFrame(FrameKind.REGISTER, rid, None, body, digest)
        assert decode_push_frame(encode_push_frame(frame)) == frame

    @pytest.mark.parametrize("tag", [b"R", b"D"])
    @pytest.mark.parametrize("size", [0, 1, PAYLOAD_DIGEST_BYTES - 1])
    def test_register_or_deliver_too_short_for_a_digest_is_malformed(self, tag, size):
        rid = make_request_id("devA", 42, "orders")
        meta = b"--" if tag == b"R" else b"OK"
        data = tag + rid.canonical().encode("ascii") + meta + b"%010d" % size + b"d" * size
        with pytest.raises(MalformedFrame) as info:
            decode_push_frame(data)
        assert info.value.offset == FRAME_HEADER_BYTES
        assert info.value.reason.endswith("body too short for a payload digest")

    @pytest.mark.parametrize("frame", [
        PushFrame(FrameKind.REGISTER, make_request_id("devA", 42, "orders"), None, b"t", b"d" * 31),
        PushFrame(FrameKind.DELIVER, make_request_id("devA", 42, "orders"), "OK", b"b"),
        PushFrame(FrameKind.REGISTER_ACK, make_request_id("devA", 42, "orders"), "OK", b"",
                  b"d" * PAYLOAD_DIGEST_BYTES),
    ])
    def test_a_digest_of_the_wrong_size_is_not_encoded(self, frame):
        with pytest.raises(EnvelopeError, match="digest is"):
            encode_push_frame(frame)

    def test_malformed_frames(self):
        rid = make_request_id("devA", 42, "orders")
        good = encode_push_frame(register_frame(rid, payload_digest(b""), "t"))
        with pytest.raises(MalformedFrame):
            decode_push_frame(b"X" + good[1:])  # unknown kind tag
        with pytest.raises(MalformedFrame):
            decode_push_frame(good[:50])  # short header
        with pytest.raises(MalformedFrame):
            decode_push_frame(good + b"extra")  # length mismatch
        with pytest.raises(MalformedFrame):
            decode_push_frame(good[:1] + b"0" * RID_WIDTH + good[1 + RID_WIDTH:])  # zero rid

    def test_bad_meta_rejected(self):
        rid = make_request_id("devA", 42, "orders")
        with pytest.raises(EnvelopeError):
            encode_push_frame(PushFrame(FrameKind.DELIVER, rid, "ZZ", b""))

    def test_service_field_with_a_leading_space_is_refused(self):
        good = encode_push_frame(register_frame(make_request_id("devA", 42, "orders"),
                                                payload_digest(b""), "t"))
        bad = good[:53] + b" orders".ljust(32) + good[85:]
        with pytest.raises(MalformedFrame) as info:
            decode_push_frame(bad)
        assert (info.value.offset, info.value.reason) == (53, "service field is not canonical")

    def test_deliver_with_ack_only_meta_rejected(self):
        # "NC" is a RegisterAck meta; no response status has that code.
        good = encode_push_frame(deliver_frame(self.response(b"body"), payload_digest(b"p")))
        meta_at = 1 + RID_WIDTH
        assert good[meta_at:meta_at + 2] == b"OK"
        with pytest.raises(MalformedFrame) as info:
            decode_push_frame(good[:meta_at] + b"NC" + good[meta_at + 2:])
        assert info.value.offset == 88
