import email.utils
import http.client
import io

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rmaws import http1

TCHARS = "!#$%&'*+-.^_`|~0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
# Visible ASCII, SP, HTAB and obs-text. U+0085 is left out: http.client
# feeds the head to email's parser, which splits lines at it.
VALUE_CHARS = "".join(chr(c) for c in [9, *range(0x20, 0x7f), *range(0x80, 0x100)] if c != 0x85)

names = st.text(TCHARS, min_size=1, max_size=12)
field_lines = st.tuples(
    st.one_of(names, st.sampled_from(["Host", "host", "X-RMAWS-Rid", "x-rmaws-rid"])),
    st.sampled_from(["", " ", "\t", "  "]),
    st.text(VALUE_CHARS, max_size=30),
).map(lambda t: f"{t[0]}:{t[1]}{t[2]}")


def stdlib_fields(lines: list[str]) -> dict:
    """The same field lines through http.client, with its two known
    differences undone: it keeps trailing white space, and its ``get``
    returns only the first of repeated lines."""
    msg = http.client.parse_headers(io.BytesIO("".join(
        f"{line}\r\n" for line in lines).encode("latin-1") + b"\r\n"))
    return {name.lower(): ", ".join(v.rstrip(" \t") for v in msg.get_all(name))
            for name in msg.keys()}


def request_block(lines: list[str]) -> bytes:
    return ("GET /x HTTP/1.1\r\n" + "".join(f"{line}\r\n" for line in lines) + "\r\n").encode(
        "latin-1")


@given(st.lists(field_lines, max_size=http1.MAX_FIELDS))
@example(["Content-Length: 3", "content-length:40"])
@example(["X:  spaced value \t"])
def test_valid_heads_agree_with_http_client(lines):
    head = http1.parse_request(request_block(lines))
    assert (head.method, head.target, head.version) == ("GET", "/x", "HTTP/1.1")
    assert dict(head.fields) == stdlib_fields(lines)


def test_fields_are_case_insensitive_and_repeats_join():
    head = http1.parse_request(b"POST /services/echo HTTP/1.1\r\nX-A: 1\r\nx-a: 2\r\n"
                               b"Connection: Keep-Alive, CLOSE\r\n\r\n")
    assert head.fields["X-A"] == head.fields.get("x-A") == "1, 2"
    assert "X-a" in head.fields and head.fields.get("missing", "d") == "d"
    assert head.keep_alive is False


@pytest.mark.parametrize("block, keep_alive", [
    (b"GET / HTTP/1.1\r\n\r\n", True),
    (b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n", False),
    (b"GET / HTTP/1.0\r\n\r\n", False),
    (b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", False),
    (b"GET / HTTP/1.1\n\n", True),  # bare LF line ends are recognised
])
def test_keep_alive(block, keep_alive):
    assert http1.parse_request(block).keep_alive is keep_alive


OVER_FIELD_COUNT = b"GET / HTTP/1.1\r\n" + b"X: y\r\n" * (http1.MAX_FIELDS + 1) + b"\r\n"


@pytest.mark.parametrize("block, status", [
    (b"GET / HTTP/1.1\r\nHost: x\r\n folded\r\n\r\n", 400),  # obs-fold
    (b"GET / HTTP/1.1\r\nHost: x\r\n\tfolded\r\n\r\n", 400),  # obs-fold
    (b"GET / HTTP/1.1\r\nHost : x\r\n\r\n", 400),  # white space before the colon
    (b"GET / HTTP/1.1\r\nHost\t: x\r\n\r\n", 400),
    (b"GET / HTTP/1.1\r\nHost x\r\n\r\n", 400),  # no colon
    (b"GET / HTTP/1.1\r\n: x\r\n\r\n", 400),  # empty name
    (b"GET / HTTP/1.1\r\nX(y): z\r\n\r\n", 400),  # name is not a token
    (b"GET / HTTP/1.1\r\nX: a\x00b\r\n\r\n", 400),  # NUL
    (b"GET / HTTP/1.1\r\nX: a\rb\r\n\r\n", 400),  # bare CR
    (b"GET / HTTP/1.1\r\nA: b\r\n\r\nC: d\r\n\r\n", 400),  # empty line inside
    (b"GET /  HTTP/1.1\r\n\r\n", 400),
    (b"GET / HTTP/1.1 extra\r\n\r\n", 400),
    (b" GET / HTTP/1.1\r\n\r\n", 400),
    (b"GET /\r\n\r\n", 400),  # HTTP/0.9
    (b"GET / HTTP/1\r\n\r\n", 400),
    (b"GET / http/1.1\r\n\r\n", 400),
    (b"G(T / HTTP/1.1\r\n\r\n", 400),
    (b"GET /a\x7fb HTTP/1.1\r\n\r\n", 400),
    (b"", 400),
    (b"\r\n", 400),
    (b"GET / HTTP/2.0\r\n\r\n", 505),
    (b"PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n", 505),
    (b"GET / HTTP/3.0\r\n\r\n", 505),
    (b"GET / HTTP/0.9\r\n\r\n", 505),
    (OVER_FIELD_COUNT, 431),
])
def test_invalid_request_heads(block, status):
    with pytest.raises(http1.HttpError) as err:
        http1.parse_request(block)
    assert err.value.status == status


@pytest.mark.parametrize("fields, length", [
    (b"", None),
    (b"Content-Length: 0\r\n", 0),
    (b"Content-Length: 007\r\n", 7),
    (b"Content-Length:  12 \r\n", 12),
])
def test_body_length(fields, length):
    head = http1.parse_request(b"POST / HTTP/1.1\r\n" + fields + b"\r\n")
    assert http1.body_length(head.fields) == length


@pytest.mark.parametrize("fields", [
    b"Content-Length: 3\r\nContent-Length: 40\r\n",  # conflicting
    b"Content-Length: 3\r\nContent-Length: 3\r\n",  # repeated
    b"Content-Length: 3, 3\r\n",
    b"Content-Length: abc\r\n",
    b"Content-Length: -1\r\n",
    b"Content-Length: +1\r\n",
    b"Content-Length: 1_0\r\n",
    b"Content-Length: \r\n",
    "Content-Length: ²\r\n".encode("latin-1"),  # a digit, but not ASCII
    b"Transfer-Encoding: chunked\r\n",
    b"Transfer-Encoding: identity\r\nContent-Length: 3\r\n",
])
def test_unframeable_body_lengths(fields):
    head = http1.parse_request(b"POST / HTTP/1.1\r\n" + fields + b"\r\n")
    with pytest.raises(http1.HttpError) as err:
        http1.body_length(head.fields)
    assert err.value.status == 400


def test_response_heads():
    head = http1.parse_response(b"HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\n")
    assert (head.status, head.reason, head.keep_alive) == (200, "OK", True)
    assert http1.parse_response(b"HTTP/1.1 204\r\n\r\n").reason == ""
    assert http1.parse_response(b"HTTP/1.0 200 OK\r\n\r\n").keep_alive is False
    for bad in (b"HTTP/1.1 2000 OK\r\n\r\n", b"HTTP/1.1 OK\r\n\r\n", b"ICY 200 OK\r\n\r\n",
                b"HTTP/1.1 200 OK\r\nX : y\r\n\r\n"):
        with pytest.raises(http1.HttpError):
            http1.parse_response(bad)
    with pytest.raises(http1.HttpError) as err:
        http1.parse_response(b"HTTP/2.0 200 OK\r\n\r\n")
    assert err.value.status == 505


# -- reading from a stream -------------------------------------------------

def read(data: bytes):
    return http1.read_head(io.BytesIO(data))


def test_read_head_stops_at_the_empty_line():
    stream = io.BytesIO(b"GET /a HTTP/1.1\r\nX: 1\r\n\r\nGET /b HTTP/1.1\r\n\r\n")
    assert http1.read_head(stream) == b"GET /a HTTP/1.1\r\nX: 1\r\n\r\n"
    assert http1.read_head(stream) == b"GET /b HTTP/1.1\r\n\r\n"
    assert http1.read_head(stream) is None


def test_read_head_skips_one_leading_empty_line():
    assert read(b"\r\nGET / HTTP/1.1\r\n\r\n") == b"GET / HTTP/1.1\r\n\r\n"
    assert read(b"\r\n") is None


@pytest.mark.parametrize("data, status", [
    (b"G" * (http1.MAX_LINE + 1), 414),
    (b"GET /" + b"a" * http1.MAX_LINE + b" HTTP/1.1\r\n\r\n", 414),
    (b"GET / HTTP/1.1\r\nX: " + b"a" * http1.MAX_FIELD_BYTES + b"\r\n\r\n", 431),
    (b"GET / HTTP/1.1\r\n" + b"X: aaaaaaaaaa\r\n" * (http1.MAX_FIELD_BYTES // 15 + 1), 431),
    (b"GET / HTTP/1.1", 400),
    (b"GET / HTTP/1.1\r\nHost: x\r\n", 400),
    (b"GET / HTTP/1.1\r\nHost: x", 400),
])
def test_read_head_limits(data, status):
    with pytest.raises(http1.HttpError) as err:
        read(data)
    assert err.value.status == status


def test_read_head_takes_a_head_at_the_limits():
    fields = b"X: " + b"a" * (http1.MAX_FIELD_BYTES - 7) + b"\r\n\r\n"
    assert read(b"GET / HTTP/1.1\r\n" + fields) == b"GET / HTTP/1.1\r\n" + fields
    line = b"GET /" + b"a" * (http1.MAX_LINE - 16) + b" HTTP/1.1\r\n"
    assert len(line) == http1.MAX_LINE
    assert read(line + b"\r\n") == line + b"\r\n"


VALID = b"POST /services/echo HTTP/1.1\r\nHost: h\r\nContent-Length: 3\r\n\r\n"


@given(st.one_of(
    st.binary(max_size=200),
    st.tuples(st.integers(0, len(VALID)), st.integers(0, 8), st.binary(max_size=8)).map(
        lambda t: VALID[:t[0]] + t[2] + VALID[t[0] + t[1]:]),
))
@example(b"GET / HTTP/1.1\r\n\xff\r\n\r\n")
def test_any_bytes_end_in_a_head_or_a_defined_rejection(data):
    """Whatever arrives, the reader and both parsers return or raise
    HttpError with a defined status, never another exception."""
    for parse in (http1.parse_request, http1.parse_response):
        try:
            parse(data)
        except http1.HttpError as exc:
            assert exc.status in (400, 431, 505)
    try:
        block = read(data)
    except http1.HttpError as exc:
        assert exc.status in (400, 414, 431)
        return
    if block is not None:
        try:
            http1.body_length(http1.parse_request(block).fields)
        except http1.HttpError as exc:
            assert exc.status in (400, 431, 505)


# -- writing ---------------------------------------------------------------

def test_written_messages_parse_back():
    block = http1.field_lines({"Host": "h:1", "X-RMAWS-Token": "t"})
    wire = http1.request("POST", "/services/echo", block, b"body")
    head_bytes, body = wire.split(b"\r\n\r\n", 1)
    head = http1.parse_request(head_bytes)
    assert (head.method, head.target, head.fields["x-rmaws-token"], body) == \
        ("POST", "/services/echo", "t", b"body")
    assert http1.body_length(head.fields) == 4
    wire = http1.response(404, b"Server: s\r\n", b"nope")
    head_bytes, body = wire.split(b"\r\n\r\n", 1)
    head = http1.parse_response(head_bytes)
    assert (head.status, head.reason, http1.body_length(head.fields), body) == \
        (404, "Not Found", 4, b"nope")


@pytest.mark.parametrize("fields", [{"X": "a\r\nInjected: 1"}, {"X": "a\nb"}, {"X y": "z"},
                                    {"X:": "z"}, {"": "z"}])
def test_field_lines_reject_what_would_split_a_head(fields):
    with pytest.raises(ValueError):
        http1.field_lines(fields)


@pytest.mark.parametrize("target", ["/a b", "/a\r\nX: y", ""])
def test_request_rejects_a_target_that_would_split_the_line(target):
    with pytest.raises(ValueError):
        http1.request("POST", target, b"", b"")


@given(st.integers(0, 2**32))
def test_http_date_matches_email_utils(seconds):
    assert http1.http_date(seconds) == email.utils.formatdate(seconds, usegmt=True)
