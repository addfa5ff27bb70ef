"""HTTP/1.1 heads (RFC 9112): one strict parser and writer for both ends.

``parse_request`` and ``parse_response`` take a complete head as bytes:
the start line and the field lines, with or without the empty line that
ends the head. ``read_head`` reads such a block from a buffered binary
reader within fixed limits. Every malformed head raises ``HttpError``
carrying the status a server answers it with:

- 400: a malformed start line; a field line that starts with whitespace
  (obs-fold), has whitespace before its colon, has no colon, or holds a
  control character; a head cut short;
- 414: a start line longer than ``MAX_LINE`` bytes;
- 431: field lines longer than ``MAX_FIELD_BYTES`` in total, or more than
  ``MAX_FIELDS`` of them;
- 505: an HTTP major version other than 1.

A head's ``fields`` is a plain dict keyed by lower-case field name, so
it is read with lower-case names only. A name that occurs on several
lines maps to its values joined with ", " (RFC 9110 §5.3).

``body_length`` adds the message-body framing rule: a plain
``Content-Length`` or no body at all. Any ``Transfer-Encoding``, and a
``Content-Length`` that is repeated or not one run of digits, get 400.
``read_body`` reads a body so framed, in bounded chunks; a body cut
short gets 400 too. A server answers a body over ``MAX_BODY_BYTES``
with 413 before reading any of it.

A head normally takes one pass. ``read_head`` looks for the head's end,
its first empty line (``\\n\\r?\\n``), in the bytes a reader with ``peek``
already holds, and takes the whole head with one ``read``. It falls back
to reading line by line for a reader without ``peek``, a head not yet
wholly buffered, a leading empty line and a head longer than the
limits. The parsers take a head whose every line ends in CR LF with one
precompiled match. They fall back to the strict line parser for a head
that does not match, repeats a field name or has more than
``MAX_FIELDS`` field lines. Only the strict parser raises, so both
paths give the same head or the same ``HttpError`` for the same bytes.
"""

from __future__ import annotations

import re
import time
from http import HTTPStatus

MAX_LINE = 65536
MAX_FIELD_BYTES = 65536
MAX_FIELDS = 100
# A body is read at most this many bytes at a time, so a reader holds only
# the bytes that arrived, whatever Content-Length the peer claims.
BODY_CHUNK_BYTES = 64 * 1024
# A server answers a request whose Content-Length is over this with 413.
MAX_BODY_BYTES = 16 * 1024 * 1024

_TOKEN = r"[!#$%&'*+.^_`|~0-9A-Za-z-]+"
_TARGET_TEXT = r"[^\x00-\x20\x7f]+"
# A value may hold SP, HTAB, visible ASCII and obs-text.
_VALUE_TEXT = r"[^\x00-\x08\x0a-\x1f\x7f]*"
_REQUEST_LINE = re.compile(rf"({_TOKEN}) ({_TARGET_TEXT}) (HTTP/(\d)\.(\d))")
_STATUS_LINE = re.compile(rf"(HTTP/(\d)\.(\d)) (\d{{3}})(?: ({_VALUE_TEXT}))?")
# Leading white space of a value is dropped here, trailing white space
# by the caller.
_FIELD_LINE = re.compile(rf"({_TOKEN}):[ \t]*({_VALUE_TEXT})")
_TARGET = re.compile(_TARGET_TEXT)
_FIELD_NAME = re.compile(_TOKEN)
_FIELD_VALUE = re.compile(_VALUE_TEXT)
# The fast path: a whole head, every line ended by CR LF, HTTP major
# version 1. Group "fields" holds the field lines, each with its CR LF.
_FIELD_LINES = rf"(?P<fields>(?:{_TOKEN}:{_VALUE_TEXT}\r\n)*)\r\n"
_REQUEST_HEAD = re.compile(rf"({_TOKEN}) ({_TARGET_TEXT}) (HTTP/1\.\d)\r\n{_FIELD_LINES}")
_RESPONSE_HEAD = re.compile(rf"(HTTP/1\.\d) (\d{{3}})(?: ({_VALUE_TEXT}))?\r\n{_FIELD_LINES}")
_HEAD_END = re.compile(rb"\n\r?\n")
# A whole head no longer than this is within both reading limits.
_HEAD_FITS = min(MAX_LINE, MAX_FIELD_BYTES)

_STATUS_LINES = {status.value: f"HTTP/1.1 {status.value} {status.phrase}\r\n".encode("ascii")
                 for status in HTTPStatus}
CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"

_DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


class HttpError(Exception):
    """A head or body that breaks the framing rules. ``status`` is the
    code a server answers it with; the connection cannot be framed after
    it, so it closes."""

    def __init__(self, status: int, reason: str):
        super().__init__(f"{status} {reason}")
        self.status = status
        self.reason = reason


class RequestHead:
    __slots__ = ("method", "target", "version", "fields", "keep_alive")

    def __init__(self, method: str, target: str, version: str, fields: dict[str, str]):
        self.method = method
        self.target = target
        self.version = version
        self.fields = fields
        self.keep_alive = _keep_alive(version, fields)


class ResponseHead:
    __slots__ = ("status", "reason", "version", "fields", "keep_alive")

    def __init__(self, status: int, reason: str, version: str, fields: dict[str, str]):
        self.status = status
        self.reason = reason
        self.version = version
        self.fields = fields
        self.keep_alive = _keep_alive(version, fields)


def _keep_alive(version: str, fields: dict[str, str]) -> bool:
    """HTTP/1.1 and later keep the connection open unless a side says
    ``Connection: close``; HTTP/1.0 closes it."""
    if version == "HTTP/1.0":
        return False
    connection = fields.get("connection")
    return connection is None or "close" not in (
        token.strip().lower() for token in connection.split(","))


# -- reading -------------------------------------------------------------

def read_head(rfile) -> bytes | None:
    """Read one head from a buffered binary reader, through the empty line
    that ends it. None when the stream ends before the head's first byte;
    one empty line before the start line is skipped (RFC 9112 §2.2).
    Raises ``HttpError`` 414 or 431 past the limits, and 400 when the
    stream ends inside the head."""
    # The line loop below stops at the first empty line, as _HEAD_END does.
    peek = getattr(rfile, "peek", None)
    if peek is not None:
        buffered = peek(1)
        if not buffered.startswith((b"\n", b"\r\n")):
            end = _HEAD_END.search(buffered)
            if end is not None and end.end() <= _HEAD_FITS:
                return rfile.read(end.end())
    line = rfile.readline(MAX_LINE + 1)
    if line in (b"\r\n", b"\n"):
        line = rfile.readline(MAX_LINE + 1)
    if not line:
        return None
    if len(line) > MAX_LINE:
        raise HttpError(414, "start line too long")
    lines = [line]
    budget = MAX_FIELD_BYTES
    while line not in (b"\r\n", b"\n"):
        if not line.endswith(b"\n"):
            raise HttpError(400, "connection closed inside the head")
        line = rfile.readline(budget + 1)
        budget -= len(line)
        if budget < 0:
            raise HttpError(431, "field lines too long")
        lines.append(line)
    return b"".join(lines)


# -- parsing -------------------------------------------------------------

def _lines(text: str) -> list[str]:
    lines = text.replace("\r\n", "\n").split("\n")
    while lines and not lines[-1]:
        lines.pop()  # the empty line that ends the head
    if not lines:
        raise HttpError(400, "empty head")
    return lines


def _major_version(major: str) -> None:
    if major != "1":
        raise HttpError(505, f"HTTP/{major} is not supported")


def _fields(lines: list[str]) -> dict[str, str]:
    if len(lines) > MAX_FIELDS:
        raise HttpError(431, f"more than {MAX_FIELDS} field lines")
    fields = {}
    for line in lines:
        match = _FIELD_LINE.fullmatch(line)
        if match is None:
            raise HttpError(400, _field_problem(line))
        name, value = match.group(1).lower(), match.group(2).rstrip(" \t")
        previous = fields.get(name)
        fields[name] = value if previous is None else f"{previous}, {value}"
    return fields


def _field_problem(line: str) -> str:
    if line[:1] in (" ", "\t"):
        return "obs-fold: a field line starts with white space"
    name, colon, _ = line.partition(":")
    if not colon:
        return "field line without a colon"
    if name != name.rstrip(" \t"):
        return "white space between a field name and its colon"
    return "malformed field line"


def _matched_fields(match: re.Match) -> dict[str, str] | None:
    """The fields of a head ``_REQUEST_HEAD`` or ``_RESPONSE_HEAD`` matched;
    None when a name repeats or there are more than ``MAX_FIELDS`` lines,
    which the strict parser joins or refuses."""
    lines = match["fields"].split("\r\n")
    lines.pop()  # what follows the last CR LF
    if len(lines) > MAX_FIELDS:
        return None
    fields = {}
    for line in lines:
        name, _, value = line.partition(":")
        fields[name.lower()] = value.strip(" \t")
    return fields if len(fields) == len(lines) else None


def parse_request(block: bytes) -> RequestHead:
    """Parse a request head; raises ``HttpError`` (400, 431, 505)."""
    text = block.decode("latin-1")
    match = _REQUEST_HEAD.fullmatch(text)
    if match is not None:
        fields = _matched_fields(match)
        if fields is not None:
            return RequestHead(match[1], match[2], match[3], fields)
    return _strict_request(text)


def _strict_request(text: str) -> RequestHead:
    """The strict line parser behind ``parse_request``, for a head decoded
    as latin-1."""
    lines = _lines(text)
    match = _REQUEST_LINE.fullmatch(lines[0])
    if match is None:
        raise HttpError(400, "malformed request line")
    method, target, version, major, _ = match.groups()
    _major_version(major)
    return RequestHead(method, target, version, _fields(lines[1:]))


def parse_response(block: bytes) -> ResponseHead:
    """Parse a response head; raises ``HttpError`` as ``parse_request``."""
    text = block.decode("latin-1")
    match = _RESPONSE_HEAD.fullmatch(text)
    if match is not None:
        fields = _matched_fields(match)
        if fields is not None:
            return ResponseHead(int(match[2]), match[3] or "", match[1], fields)
    return _strict_response(text)


def _strict_response(text: str) -> ResponseHead:
    """The strict line parser behind ``parse_response``."""
    lines = _lines(text)
    match = _STATUS_LINE.fullmatch(lines[0])
    if match is None:
        raise HttpError(400, "malformed status line")
    version, major, _, status, reason = match.groups()
    _major_version(major)
    return ResponseHead(int(status), reason or "", version, _fields(lines[1:]))


def body_length(fields: dict[str, str]) -> int | None:
    """The message's Content-Length, or None when it has none. Raises
    ``HttpError`` 400 for any Transfer-Encoding and for a Content-Length
    that is not one run of ASCII digits: a repeated or conflicting one
    reads as "3, 40" here (RFC 9112 §6.3)."""
    if fields.get("transfer-encoding") is not None:
        raise HttpError(400, "Transfer-Encoding is not supported")
    length = fields.get("content-length")
    if length is None:
        return None
    if not (length.isascii() and length.isdigit()):
        raise HttpError(400, f"invalid Content-Length {length!r}")
    return int(length)


def read_body(rfile, length: int) -> bytes:
    """``length`` bytes from a buffered binary reader. Raises ``HttpError``
    400 when the stream ends first."""
    chunks = []
    missing = length
    while missing:
        chunk = rfile.read(min(missing, BODY_CHUNK_BYTES))
        if not chunk:
            raise HttpError(400, f"body cut short at {length - missing} of {length} B")
        chunks.append(chunk)
        missing -= len(chunk)
    return b"".join(chunks)


# -- writing -------------------------------------------------------------

def field_lines(fields: dict) -> bytes:
    """``Name: value`` lines for a head. Raises ValueError for a name that
    is not a token or a value that holds CR, LF or another control
    character, which would split the head."""
    out = []
    for name, value in fields.items():
        if not _FIELD_NAME.fullmatch(name) or not _FIELD_VALUE.fullmatch(value):
            raise ValueError(f"invalid header field {name!r}: {value!r}")
        out.append(f"{name}: {value}\r\n")
    return "".join(out).encode("latin-1")


def request(method: str, target: str, field_block: bytes, body: bytes) -> bytes:
    """A whole request, head and body, for one write. ``field_block`` comes
    from ``field_lines``; Content-Length is added here."""
    if not _TARGET.fullmatch(target):
        raise ValueError(f"invalid request target {target!r}")
    return b"%s %s HTTP/1.1\r\n%sContent-Length: %d\r\n\r\n%s" % (
        method.encode("ascii"), target.encode("latin-1"), field_block, len(body), body)


def response(status: int, field_block: bytes, body: bytes) -> bytes:
    """A whole response, head and body, for one write."""
    return b"%s%sContent-Length: %d\r\n\r\n%s" % (
        _STATUS_LINES[status], field_block, len(body), body)


def http_date(seconds: float) -> str:
    """An IMF-fixdate (RFC 9110 §5.6.7), independent of the locale."""
    t = time.gmtime(seconds)
    return (f"{_DAYS[t.tm_wday]}, {t.tm_mday:02d} {_MONTHS[t.tm_mon - 1]} {t.tm_year} "
            f"{t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d} GMT")
