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

``body_length`` adds the message-body framing rule: a plain
``Content-Length`` or no body at all. Any ``Transfer-Encoding``, and a
``Content-Length`` that is repeated or not one run of digits, get 400.
"""

from __future__ import annotations

import re
import time
from http import HTTPStatus

MAX_LINE = 65536
MAX_FIELD_BYTES = 65536
MAX_FIELDS = 100

_TOKEN = r"[!#$%&'*+.^_`|~0-9A-Za-z-]+"
_REQUEST_LINE = re.compile(rf"({_TOKEN}) ([^\x00-\x20\x7f]+) (HTTP/(\d)\.(\d))")
_STATUS_LINE = re.compile(r"(HTTP/(\d)\.(\d)) (\d{3})(?: ([^\x00-\x08\x0a-\x1f\x7f]*))?")
# A value may hold SP, HTAB, visible ASCII and obs-text; leading white
# space is dropped here, trailing white space by the caller.
_FIELD_LINE = re.compile(rf"({_TOKEN}):[ \t]*([^\x00-\x08\x0a-\x1f\x7f]*)")
_TARGET = re.compile(r"[^\x00-\x20\x7f]+")
_FIELD_NAME = re.compile(_TOKEN)
_FIELD_VALUE = re.compile(r"[^\x00-\x08\x0a-\x1f\x7f]*")

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


class Fields(dict):
    """Field values by lower-cased name, looked up case-insensitively.
    A name that occurs on several lines maps to its values joined with
    ", " (RFC 9110 §5.3)."""

    def get(self, name, default=None):
        return dict.get(self, name.lower(), default)

    def __getitem__(self, name):
        return dict.__getitem__(self, name.lower())

    def __contains__(self, name):
        return dict.__contains__(self, name.lower())


class RequestHead:
    __slots__ = ("method", "target", "version", "fields", "keep_alive")

    def __init__(self, method: str, target: str, version: str, fields: Fields):
        self.method = method
        self.target = target
        self.version = version
        self.fields = fields
        self.keep_alive = _keep_alive(version, fields)


class ResponseHead:
    __slots__ = ("status", "reason", "version", "fields", "keep_alive")

    def __init__(self, status: int, reason: str, version: str, fields: Fields):
        self.status = status
        self.reason = reason
        self.version = version
        self.fields = fields
        self.keep_alive = _keep_alive(version, fields)


def _keep_alive(version: str, fields: Fields) -> bool:
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

def _lines(block: bytes) -> list[str]:
    lines = block.decode("latin-1").replace("\r\n", "\n").split("\n")
    while lines and not lines[-1]:
        lines.pop()  # the empty line that ends the head
    if not lines:
        raise HttpError(400, "empty head")
    return lines


def _major_version(major: str) -> None:
    if major != "1":
        raise HttpError(505, f"HTTP/{major} is not supported")


def _fields(lines: list[str]) -> Fields:
    if len(lines) > MAX_FIELDS:
        raise HttpError(431, f"more than {MAX_FIELDS} field lines")
    fields = Fields()
    for line in lines:
        match = _FIELD_LINE.fullmatch(line)
        if match is None:
            raise HttpError(400, _field_problem(line))
        name, value = match.group(1).lower(), match.group(2).rstrip(" \t")
        previous = dict.get(fields, name)
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


def parse_request(block: bytes) -> RequestHead:
    """Parse a request head; raises ``HttpError`` (400, 431, 505)."""
    lines = _lines(block)
    match = _REQUEST_LINE.fullmatch(lines[0])
    if match is None:
        raise HttpError(400, "malformed request line")
    method, target, version, major, _ = match.groups()
    _major_version(major)
    return RequestHead(method, target, version, _fields(lines[1:]))


def parse_response(block: bytes) -> ResponseHead:
    """Parse a response head; raises ``HttpError`` as ``parse_request``."""
    lines = _lines(block)
    match = _STATUS_LINE.fullmatch(lines[0])
    if match is None:
        raise HttpError(400, "malformed status line")
    version, major, _, status, reason = match.groups()
    _major_version(major)
    return ResponseHead(int(status), reason or "", version, _fields(lines[1:]))


def body_length(fields: Fields) -> int | None:
    """The message's Content-Length, or None when it has none. Raises
    ``HttpError`` 400 for any Transfer-Encoding and for a Content-Length
    that is not one run of ASCII digits: a repeated or conflicting one
    reads as "3, 40" here (RFC 9112 §6.3)."""
    if "transfer-encoding" in fields:
        raise HttpError(400, "Transfer-Encoding is not supported")
    length = fields.get("content-length")
    if length is None:
        return None
    if not (length.isascii() and length.isdigit()):
        raise HttpError(400, f"invalid Content-Length {length!r}")
    return int(length)


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
