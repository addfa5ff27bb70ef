"""Wire types and canonical codecs for the RMAWS protocol.

A request travels as a fixed 226-byte header followed by the raw payload,
so the envelope adds a constant number of bytes regardless of payload size.
Push-channel frames use a 100-byte header plus a raw body segment. Both
codecs are strict: any byte that deviates from the canonical form is a
decode error, and the request header carries a CRC32 so corruption of any
header field is detected rather than silently accepted.

Everything in this module is a pure function over immutable values, apart
from ``wall_ms``, the clock that request timestamps are read from.

A request identity (``RequestId``) is its 87-character canonical text,
and a request envelope is that id plus its payload. Every rid the codec
accepts, in a request header or a push frame, is one that
``make_request_id`` builds from the rid's own fields.

Decoding takes one precompiled match over the whole header on the common
path; only a header that fails it goes through the field-by-field checks,
which name the first offending byte.
"""

from __future__ import annotations

import functools
import hashlib
import re
import string
import time
import zlib
from dataclasses import dataclass
from enum import Enum

MAGIC = b"RMAWS1"

DEVICE_WIDTH = 32
TIMESTAMP_WIDTH = 20
SERVICE_WIDTH = 32
TRIAL_WIDTH = 2
RID_WIDTH = DEVICE_WIDTH + TIMESTAMP_WIDTH + SERVICE_WIDTH + TRIAL_WIDTH + 1  # 87
DEDUP_KEY_WIDTH = DEVICE_WIDTH + TIMESTAMP_WIDTH + SERVICE_WIDTH  # 84
# Where the service field and the forced flag start in a rid's text.
_RID_SERVICE = DEVICE_WIDTH + TIMESTAMP_WIDTH  # 52
_RID_FORCED = DEDUP_KEY_WIDTH + TRIAL_WIDTH  # 86
# Device field, zero-padded timestamp, service field, zero-padded trial, forced.
_RID_FORMAT = "%%s%%0%dd%%s%%0%dd%%s" % (TIMESTAMP_WIDTH, TRIAL_WIDTH)

MAX_TRIAL = 99
MAX_TIMESTAMP_MS = 10**TIMESTAMP_WIDTH - 1
LENGTH_WIDTH = 10
MAX_PAYLOAD = 10**LENGTH_WIDTH - 1
PAYLOAD_DIGEST_BYTES = 32  # SHA-256: what the server compares a key's payloads by

# Request header layout (all offsets in bytes):
#   RMAWS1|<rid:87>|<forced:1>|<trial:2>|<svc:32>|<pad:81>|<len:10>|<payload>
# The pad region holds an 8-hex-digit CRC32 of the rest of the header
# followed by constant filler; its width is what fixes the header at
# exactly OVERHEAD_BYTES.
OVERHEAD_BYTES = 226

_OFF_RID = 7
_OFF_FORCED = 95
_OFF_TRIAL = 97
_OFF_SVC = 100
_OFF_PAD = 133
_CRC_WIDTH = 8
_OFF_FILLER = _OFF_PAD + _CRC_WIDTH  # 141
_PAD_WIDTH = OVERHEAD_BYTES - (_OFF_PAD + 1 + LENGTH_WIDTH + 1)  # 81
_FILLER = b"0" * (_PAD_WIDTH - _CRC_WIDTH)
_OFF_LEN = _OFF_PAD + _PAD_WIDTH + 1  # 215
_SEPARATORS = (6, 94, 96, 99, 132, _OFF_PAD + _PAD_WIDTH, _OFF_LEN + LENGTH_WIDTH)

assert _OFF_LEN + LENGTH_WIDTH + 1 == OVERHEAD_BYTES

# Characters legal inside device ids and service names. '|' is the field
# separator and is banned; everything else printable-ASCII is opaque data.
_NAME_CHARS = frozenset(string.printable) - frozenset("|\t\n\r\x0b\x0c")

# The same set as a bytes character class, for the header patterns below.
_NAME_CLASS = ("[" + re.escape("".join(sorted(_NAME_CHARS))) + "]").encode("ascii")

# HTTP headers of /services exchanges. Metadata rides here so that the
# response body stays byte-identical to the service output.
TOKEN_HEADER = "X-RMAWS-Token"
RID_HEADER = "X-RMAWS-Rid"
CHANNEL_HEADER = "X-RMAWS-Channel"
STATUS_HEADER = "X-RMAWS-Status"


class EnvelopeError(ValueError):
    """Base class for all codec and identifier errors."""


class TrialOverflow(EnvelopeError):
    """Trial number outside the 1..99 range the wire format can carry."""


class InvalidServiceName(EnvelopeError):
    pass


class InvalidDeviceId(EnvelopeError):
    pass


class InvalidTimestamp(EnvelopeError):
    pass


class MalformedEnvelope(EnvelopeError):
    """Request bytes violate the canonical layout.

    ``offset`` is the byte position of the first violation; for whole-field
    checks (CRC, mirror equality, payload length) it is the start of the
    field that failed.
    """

    def __init__(self, offset: int, reason: str):
        super().__init__(f"malformed envelope at byte {offset}: {reason}")
        self.offset = offset
        self.reason = reason


class MalformedFrame(EnvelopeError):
    """Push frame bytes violate the frame layout."""

    def __init__(self, offset: int, reason: str):
        super().__init__(f"malformed frame at byte {offset}: {reason}")
        self.offset = offset
        self.reason = reason


class ResponseStatus(str, Enum):
    OK = "Ok"
    SERVICE_ERROR = "ServiceError"
    VALIDATION_ERROR = "ValidationError"


class Channel(str, Enum):
    HTTP = "Http"
    PUSH = "Push"
    CACHE_REPLAY = "CacheReplay"


class FrameKind(str, Enum):
    REGISTER = "Register"
    REGISTER_ACK = "RegisterAck"
    DELIVER = "Deliver"


_KIND_TAGS = {
    FrameKind.REGISTER: b"R",
    FrameKind.REGISTER_ACK: b"A",
    FrameKind.DELIVER: b"D",
}
_TAG_KINDS = {v: k for k, v in _KIND_TAGS.items()}

# Two-character status codes used in the frame meta slot.
META_NONE = "--"
META_UNAUTHORIZED = "UA"
_STATUS_CODES = {
    ResponseStatus.OK: "OK",
    ResponseStatus.SERVICE_ERROR: "SE",
    ResponseStatus.VALIDATION_ERROR: "VE",
}
_CODE_STATUSES = {v: k for k, v in _STATUS_CODES.items()}


def status_code(status: ResponseStatus) -> str:
    return _STATUS_CODES[status]


def status_from_code(code: str) -> ResponseStatus:
    try:
        return _CODE_STATUSES[code]
    except KeyError:
        raise EnvelopeError(f"unknown status code {code!r}") from None


class RequestId:
    """Globally unique request identity: its 87-character canonical text.

    The text is the device id (zero-padded to 32 characters), the
    timestamp (20 digits), the service name (space-padded to 32), the
    trial (2 digits) and the forced flag (``0``/``1``); its first 84
    characters are the dedup key. An id is built only from text that
    ``make_request_id``, ``with_trial`` or the codec made or checked. It
    cannot be changed, and equals and hashes by its text. What a send
    reads on every step is sliced once, when the id is built.
    """

    __slots__ = ("_text", "dedup_key", "trial", "forced", "service")

    def __init__(self, text: str):
        if len(text) != RID_WIDTH:
            raise EnvelopeError(f"rid text must be {RID_WIDTH} characters, got {len(text)}")
        init = object.__setattr__
        init(self, "_text", text)
        init(self, "dedup_key", text[:DEDUP_KEY_WIDTH])
        init(self, "trial", int(text[DEDUP_KEY_WIDTH:_RID_FORCED]))
        init(self, "forced", text[_RID_FORCED] == "1")
        init(self, "service", text[_RID_SERVICE:DEDUP_KEY_WIDTH].rstrip())

    def __setattr__(self, name, value=None):
        raise AttributeError(f"a RequestId cannot be changed ({name!r})")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return self._text == other._text if isinstance(other, RequestId) else NotImplemented

    def __hash__(self):
        return hash(self._text)

    def __repr__(self):
        return f"RequestId({self._text!r})"

    @property
    def device_id(self) -> str:
        return self._text[:DEVICE_WIDTH]

    @property
    def timestamp_ms(self) -> int:
        return int(self._text[DEVICE_WIDTH:_RID_SERVICE])

    @property
    def service_name(self) -> str:
        """The service field with its padding, as it is on the wire."""
        return self._text[_RID_SERVICE:DEDUP_KEY_WIDTH]

    def canonical(self) -> str:
        return self._text

    def with_trial(self, trial: int) -> "RequestId":
        check_int("trial", trial, 1, MAX_TRIAL, TrialOverflow)
        return RequestId("%s%02d%s" % (self.dedup_key, trial, self._text[_RID_FORCED]))


def wall_ms() -> int:
    """Wall-clock time in milliseconds, the unit of ``timestamp_ms``."""
    return int(time.time() * 1000)


# Validating a name is a pure function of the string, and a process sees
# few distinct names, so the field is cached. The bound keeps a process
# that names many from growing the cache without limit.
@functools.lru_cache(maxsize=1024)
def service_field(name: str) -> str:
    """Strip and validate a service name, then cut or pad it to the field."""
    name = name.strip()
    if not name:
        raise InvalidServiceName("service name is empty")
    bad = set(name) - _NAME_CHARS
    if bad:
        raise InvalidServiceName(f"service name contains illegal characters {sorted(bad)!r}")
    return name[:SERVICE_WIDTH].ljust(SERVICE_WIDTH)


@functools.lru_cache(maxsize=1024)
def device_field(device_id: str) -> str:
    """Validate a device id, then pad it to the field."""
    if not device_id:
        raise InvalidDeviceId("device id is empty")
    if len(device_id) > DEVICE_WIDTH:
        raise InvalidDeviceId(f"device id longer than {DEVICE_WIDTH} characters")
    bad = set(device_id) - _NAME_CHARS
    if bad:
        raise InvalidDeviceId(f"device id contains illegal characters {sorted(bad)!r}")
    return device_id.rjust(DEVICE_WIDTH, "0")


def check_int(name: str, value, low: int = 0, high: int | None = None, error=ValueError) -> None:
    """The one integer rule: an ``int`` in ``low..high`` (no bound when None);
    a bool, a fraction or text is refused. Raises ``error`` naming ``name``."""
    if type(value) is not int or value < low or high is not None and value > high:
        bound = f"of at least {low}" if high is None else f"in {low}..{high}"
        raise error(f"{name} must be an integer {bound}, got {value!r}")


def check_keys(where: str, raw: dict, known, error=ValueError) -> None:
    """The one rule for a document's keys: each is one of ``known``. A
    misspelt key would otherwise leave its field at the default without a
    word. Raises ``error`` naming ``where`` and the unknown keys."""
    unknown = sorted(repr(key) for key in raw if key not in known)
    if unknown:
        raise error(f"{where} has unknown key(s) {', '.join(unknown)}")


def rid_fields(device_id: str, timestamp_ms: int, service_name: str,
               trial: int = 1) -> tuple[str, str]:
    """The owner of a rid's field rules: the device id and the service name
    are text a rid can hold, the timestamp an integer in 0..MAX_TIMESTAMP_MS
    and the trial one in 1..MAX_TRIAL. Gives the device and service fields
    as the rid holds them, without building its text."""
    check_int("trial", trial, 1, MAX_TRIAL, TrialOverflow)
    check_int("timestamp_ms", timestamp_ms, 0, MAX_TIMESTAMP_MS, InvalidTimestamp)
    if not isinstance(device_id, str):
        raise InvalidDeviceId(f"device id {device_id!r} is not text")
    if not isinstance(service_name, str):
        raise InvalidServiceName(f"service name {service_name!r} is not text")
    return device_field(device_id), service_field(service_name)


def make_request_id(
    device_id: str,
    timestamp_ms: int,
    service_name: str,
    trial: int = 1,
    forced: bool = False,
) -> RequestId:
    """Build a canonical RequestId from fields that ``rid_fields`` accepts.
    Deterministic for identical inputs."""
    device, service = rid_fields(device_id, timestamp_ms, service_name, trial)
    return RequestId(_RID_FORMAT % (device, timestamp_ms, service, trial, "1" if forced else "0"))


@dataclass(frozen=True, slots=True)
class RequestEnvelope:
    """Canonical request message: an identity and its opaque payload.
    Whether it is forced and the service it names (unpadded) are the rid's."""

    rid: RequestId
    payload: bytes

    @property
    def is_forced(self) -> bool:
        return self.rid.forced

    @property
    def service_name(self) -> str:
        return self.rid.service


@dataclass(frozen=True)
class ResponseEnvelope:
    """A delivered response: body bytes are exactly the handler's output."""

    rid: RequestId
    status: ResponseStatus
    channel: Channel
    body: bytes


@dataclass(frozen=True)
class PushFrame:
    """One message on the push channel.

    A Register frame's ``digest`` is the SHA-256 digest of the send's
    payload (``PAYLOAD_DIGEST_BYTES`` raw bytes), and its body is the auth
    token; a Deliver frame's ``digest`` is that of the payload it answers,
    and its body is the byte-exact response body, whose status is the
    meta segment. A RegisterAck names no digest. On the wire the digest
    opens the frame's body. Every frame carries a rid; a connection ends
    with the WebSocket close.
    """

    kind: FrameKind
    rid: RequestId
    meta: str | None
    body: bytes = b""
    digest: bytes = b""


def payload_digest(payload: bytes) -> bytes:
    return hashlib.sha256(payload).digest()


def register_frame(rid: RequestId, digest: bytes, token: str) -> PushFrame:
    return PushFrame(FrameKind.REGISTER, rid, None, token.encode("utf-8"), digest)


def register_ack_frame(rid: RequestId, meta: str) -> PushFrame:
    return PushFrame(FrameKind.REGISTER_ACK, rid, meta, b"")


def deliver_frame(resp: ResponseEnvelope, digest: bytes) -> PushFrame:
    return PushFrame(FrameKind.DELIVER, resp.rid, status_code(resp.status), resp.body, digest)


# What a well-formed rid field and request header match, in one pattern
# each. A header matches only if every check of the field-by-field path
# below, short of the CRC and the payload length, would pass; the
# backreferences require each mirror to equal the rid's own digits.
_RID_PATTERN = (
    b"(?P<rid>%s{%d}[0-9]{%d}(?P<svc>(?! )%s{%d})"
    b"(?P<trial>0[1-9]|[1-9][0-9])(?P<forced>[01]))"
    % (_NAME_CLASS, DEVICE_WIDTH, TIMESTAMP_WIDTH, _NAME_CLASS, SERVICE_WIDTH)
)
_RID = re.compile(_RID_PATTERN)
_HEADER = re.compile(
    b"%s\\|%s\\|(?P=forced)\\|(?P=trial)\\|(?P=svc)\\|(?P<crc>[0-9a-f]{%d})%s\\|(?P<len>[0-9]{%d})\\|"
    % (re.escape(MAGIC), _RID_PATTERN, _CRC_WIDTH, _FILLER, LENGTH_WIDTH)
)


def _parse_rid_field(field: bytes, base: int) -> RequestId:
    """Parse the 87-byte rid region; ``base`` is its absolute offset."""
    match = _RID.fullmatch(field)
    if match is not None:
        return RequestId(match["rid"].decode("ascii"))
    # Find and name the first field that breaks the layout.
    text = field.decode("ascii", errors="replace")
    ts_text = text[DEVICE_WIDTH:_RID_SERVICE]
    svc = text[_RID_SERVICE:DEDUP_KEY_WIDTH]
    trial_text = text[DEDUP_KEY_WIDTH:_RID_FORCED]

    if set(text[:DEVICE_WIDTH]) - _NAME_CHARS:
        raise MalformedEnvelope(base, "illegal characters in device id")
    if not ts_text.isascii() or not ts_text.isdigit():
        raise MalformedEnvelope(base + DEVICE_WIDTH, "timestamp is not decimal")
    if set(svc) - _NAME_CHARS:
        raise MalformedEnvelope(base + _RID_SERVICE, "illegal characters in service name")
    # Legal name characters hold no white space but the space, so the
    # field is what ``make_request_id`` renders its name to (left-aligned,
    # space-padded) unless it starts with a space, as a blank one does.
    if svc[0] == " ":
        raise MalformedEnvelope(base + _RID_SERVICE, "service field is not canonical")
    if not trial_text.isascii() or not trial_text.isdigit():
        raise MalformedEnvelope(base + DEDUP_KEY_WIDTH, "trial is not decimal")
    if int(trial_text) < 1:
        raise MalformedEnvelope(base + DEDUP_KEY_WIDTH, "trial below 1")
    if text[_RID_FORCED] not in "01":
        raise MalformedEnvelope(base + _RID_FORCED, "forced flag is not 0/1")
    return RequestId(text)


def parse_rid(text: str) -> RequestId:
    """Parse an 87-character canonical rid rendering. A character outside
    ASCII encodes to more than one byte, none of which a field takes."""
    if len(text) != RID_WIDTH:
        raise EnvelopeError(f"rid rendering must be {RID_WIDTH} characters, got {len(text)}")
    return _parse_rid_field(text.encode("utf-8", "surrogatepass"), 0)


def _header_crc(data: bytes) -> bytes:
    crc = zlib.crc32(data[:_OFF_PAD])
    crc = zlib.crc32(data[_OFF_LEN:_OFF_LEN + LENGTH_WIDTH], crc)
    return b"%08x" % crc


def encode_request(env: RequestEnvelope) -> bytes:
    """Render the canonical byte form: always ``len(payload) + 226`` bytes."""
    if len(env.payload) > MAX_PAYLOAD:
        raise EnvelopeError(f"payload exceeds {MAX_PAYLOAD} bytes")
    # The mirrors are copies of the rid's own forced, trial and service bytes.
    rid = env.rid._text.encode("ascii")
    head = b"%s|%s|%s|%s|%s|" % (MAGIC, rid, rid[_RID_FORCED:], rid[DEDUP_KEY_WIDTH:_RID_FORCED],
                                 rid[_RID_SERVICE:DEDUP_KEY_WIDTH])
    length = b"%0*d" % (LENGTH_WIDTH, len(env.payload))
    # CRC covers every header byte outside the pad region itself.
    crc = zlib.crc32(head)
    crc = zlib.crc32(length, crc)
    pad = b"%08x" % crc + _FILLER
    out = head + pad + b"|" + length + b"|" + env.payload
    assert len(out) == len(env.payload) + OVERHEAD_BYTES
    return out


def decode_request(data: bytes) -> RequestEnvelope:
    """Inverse of :func:`encode_request`; strict about every header byte.

    A rejection raises :class:`MalformedEnvelope` naming the first
    offending byte, as found by the field-by-field checks."""
    env = _decode_matched(data)
    return env if env is not None else _decode_checked(data)


def _decode_matched(data: bytes) -> RequestEnvelope | None:
    """The common path: one match over the header, then the CRC and the
    payload length. None when any of them fails."""
    match = _HEADER.match(data)
    if match is None or _header_crc(data) != match["crc"] \
            or len(data) != OVERHEAD_BYTES + int(match["len"]):
        return None
    return RequestEnvelope(RequestId(match["rid"].decode("ascii")), data[OVERHEAD_BYTES:])


def _decode_checked(data: bytes) -> RequestEnvelope:
    """Check the header field by field, in layout order, and raise for the
    first violation. Accepts exactly what :func:`_decode_matched` does."""
    if len(data) < OVERHEAD_BYTES:
        raise MalformedEnvelope(len(data), f"header needs {OVERHEAD_BYTES} bytes, got {len(data)}")
    if data[:len(MAGIC)] != MAGIC:
        off = next(i for i, (a, b) in enumerate(zip(data, MAGIC)) if a != b)
        raise MalformedEnvelope(off, "bad magic")
    for off in _SEPARATORS:
        if data[off:off + 1] != b"|":
            raise MalformedEnvelope(off, "missing field separator")

    rid = _parse_rid_field(data[_OFF_RID:_OFF_RID + RID_WIDTH], _OFF_RID)

    forced_mirror = data[_OFF_FORCED:_OFF_FORCED + 1]
    if forced_mirror not in (b"0", b"1"):
        raise MalformedEnvelope(_OFF_FORCED, "forced mirror is not 0/1")
    trial_mirror = data[_OFF_TRIAL:_OFF_TRIAL + TRIAL_WIDTH]
    if not trial_mirror.isdigit():
        raise MalformedEnvelope(_OFF_TRIAL, "trial mirror is not decimal")
    svc_mirror = data[_OFF_SVC:_OFF_SVC + SERVICE_WIDTH]

    pad = data[_OFF_PAD:_OFF_PAD + _PAD_WIDTH]
    crc_field = pad[:_CRC_WIDTH]
    if not all(c in b"0123456789abcdef" for c in crc_field):
        raise MalformedEnvelope(_OFF_PAD, "crc field is not lowercase hex")
    if pad[_CRC_WIDTH:] != _FILLER:
        bad = next(i for i, (a, b) in enumerate(zip(pad[_CRC_WIDTH:], _FILLER)) if a != b)
        raise MalformedEnvelope(_OFF_FILLER + bad, "padding filler corrupted")

    len_field = data[_OFF_LEN:_OFF_LEN + LENGTH_WIDTH]
    if not len_field.isdigit():
        raise MalformedEnvelope(_OFF_LEN, "payload length is not decimal")

    if _header_crc(data) != crc_field:
        raise MalformedEnvelope(_OFF_PAD, "header checksum mismatch")

    # Mirror fields must agree with the rid, the single source of truth.
    if (forced_mirror == b"1") != rid.forced:
        raise MalformedEnvelope(_OFF_FORCED, "forced mirror disagrees with rid")
    if int(trial_mirror) != rid.trial:
        raise MalformedEnvelope(_OFF_TRIAL, "trial mirror disagrees with rid")
    if svc_mirror.decode("ascii", errors="replace") != rid.service_name:
        raise MalformedEnvelope(_OFF_SVC, "service mirror disagrees with rid")

    payload_len = int(len_field)
    if len(data) != OVERHEAD_BYTES + payload_len:
        raise MalformedEnvelope(
            OVERHEAD_BYTES, f"expected {payload_len} payload bytes, got {len(data) - OVERHEAD_BYTES}"
        )
    return RequestEnvelope(rid, data[OVERHEAD_BYTES:])


# Push frame layout: 1-byte kind tag, 87-byte rid, 2-byte meta code,
# 10-digit body length, raw body: a Register's or Deliver's opens with its payload digest.
FRAME_HEADER_BYTES = 1 + RID_WIDTH + 2 + LENGTH_WIDTH  # 100

_FRAME_OFF_RID = 1
_FRAME_OFF_META = 1 + RID_WIDTH
_FRAME_OFF_LEN = _FRAME_OFF_META + 2

_DIGEST_BYTES = {FrameKind.REGISTER: PAYLOAD_DIGEST_BYTES, FrameKind.REGISTER_ACK: 0,
                 FrameKind.DELIVER: PAYLOAD_DIGEST_BYTES}
_VALID_META = {
    FrameKind.REGISTER: {META_NONE},
    FrameKind.REGISTER_ACK: {"OK", META_UNAUTHORIZED, "NC"},
    FrameKind.DELIVER: set(_CODE_STATUSES),
}


def encode_push_frame(frame: PushFrame) -> bytes:
    size = len(frame.digest) + len(frame.body)
    if size > MAX_PAYLOAD:
        raise EnvelopeError(f"frame body exceeds {MAX_PAYLOAD} bytes")
    meta = frame.meta if frame.meta is not None else META_NONE
    if meta not in _VALID_META[frame.kind]:
        raise EnvelopeError(f"meta {meta!r} not valid for {frame.kind.value}")
    if len(frame.digest) != _DIGEST_BYTES[frame.kind]:
        raise EnvelopeError(f"a {frame.kind.value} digest is {_DIGEST_BYTES[frame.kind]} bytes, "
                            f"got {len(frame.digest)}")
    return (
        _KIND_TAGS[frame.kind]
        + frame.rid._text.encode("ascii")
        + meta.encode("ascii")
        + b"%0*d" % (LENGTH_WIDTH, size)
        + frame.digest
        + frame.body
    )


def decode_push_frame(data: bytes) -> PushFrame:
    if len(data) < FRAME_HEADER_BYTES:
        raise MalformedFrame(len(data), f"frame header needs {FRAME_HEADER_BYTES} bytes, got {len(data)}")
    kind = _TAG_KINDS.get(data[:1])
    if kind is None:
        raise MalformedFrame(0, f"unknown frame kind tag {data[:1]!r}")
    try:
        rid = _parse_rid_field(data[_FRAME_OFF_RID:_FRAME_OFF_RID + RID_WIDTH], _FRAME_OFF_RID)
    except MalformedEnvelope as exc:
        raise MalformedFrame(exc.offset, exc.reason) from None
    meta = data[_FRAME_OFF_META:_FRAME_OFF_META + 2].decode("ascii", errors="replace")
    if meta not in _VALID_META[kind]:
        raise MalformedFrame(_FRAME_OFF_META, f"meta {meta!r} not valid for {kind.value}")
    len_field = data[_FRAME_OFF_LEN:_FRAME_OFF_LEN + LENGTH_WIDTH]
    if not len_field.isdigit():
        raise MalformedFrame(_FRAME_OFF_LEN, "body length is not decimal")
    body_len = int(len_field)
    if len(data) != FRAME_HEADER_BYTES + body_len:
        raise MalformedFrame(
            FRAME_HEADER_BYTES, f"expected {body_len} body bytes, got {len(data) - FRAME_HEADER_BYTES}"
        )
    cut = FRAME_HEADER_BYTES + _DIGEST_BYTES[kind]
    if len(data) < cut:
        raise MalformedFrame(FRAME_HEADER_BYTES, f"{kind.value} body too short for a payload digest")
    return PushFrame(kind, rid, None if meta == META_NONE else meta, data[cut:],
                     data[FRAME_HEADER_BYTES:cut])
