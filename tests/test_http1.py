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


# -- the fast paths agree with the strict ones -------------------------------

class Trickle(io.RawIOBase):
    """A raw stream that returns at most ``step`` bytes per read, as a
    socket may."""

    def __init__(self, data: bytes, step: int):
        self.data, self.at, self.step = memoryview(data), 0, step

    def readable(self):
        return True

    def readinto(self, buffer):
        n = min(len(buffer), self.step, len(self.data) - self.at)
        buffer[:n] = self.data[self.at:self.at + n]
        self.at += n
        return n


class NoLineReads(io.BufferedReader):
    """A buffered reader that fails a test whose head falls back to the
    line loop."""

    def readline(self, size=-1):
        raise AssertionError("read_head read line by line")


def head_and_rest(stream):
    """What ``read_head`` takes from ``stream`` and what it leaves there,
    or the status and reason it raises."""
    try:
        head = http1.read_head(stream)
    except http1.HttpError as exc:
        return exc.status, exc.reason
    return head, stream.read()


def parsed(parse, block: bytes):
    """A parsed head as a tuple of its attributes, or the status and
    reason of the ``HttpError`` raised."""
    try:
        head = parse(block)
    except http1.HttpError as exc:
        return exc.status, exc.reason
    return tuple(dict(value) if isinstance(value, dict) else value
                 for value in (getattr(head, name) for name in head.__slots__))


def strictly(strict):
    return lambda block: strict(block.decode("latin-1"))


START_LINES = [b"GET / HTTP/1.1", b"POST /services/echo HTTP/1.0", b"HTTP/1.1 200 OK",
               b"HTTP/1.1 204", b"HTTP/1.0 404 Not Found", b"GET / HTTP/2.0", b"HTTP/2.0 200 OK",
               b"GET  / HTTP/1.1", b"", b"\r", b"GET /\xff HTTP/1.1", b"HTTP/1.1 200 \xe9t\xe9"]
FIELD_LINES = [b"Host: x", b"host: y", b"Content-Length: 3", b"Connection: close",
               b"X-RMAWS-Rid: \xff", b"A:\t b \t", b"A:", b" folded", b"\tfolded", b"X : y",
               b"X y", b": x", b"X(y): z", b"X: a\x00b", b"X: a\rb", b""]
ENDINGS = [b"\r\n", b"\r\n", b"\r\n", b"\n", b"\r", b""]
heads = st.builds(
    lambda start, end, lines, last, rest: start + end + b"".join(a + b for a, b in lines)
    + last + rest,
    st.sampled_from(START_LINES), st.sampled_from(ENDINGS),
    st.lists(st.tuples(st.sampled_from(FIELD_LINES), st.sampled_from(ENDINGS)), max_size=8),
    st.sampled_from([b"\r\n", b"\n", b"", b"\r\n\r\n"]), st.binary(max_size=8))
any_bytes = st.one_of(
    heads,
    st.binary(max_size=200),
    st.tuples(st.integers(0, len(VALID)), st.integers(0, 8), st.binary(max_size=8)).map(
        lambda t: VALID[:t[0]] + t[2] + VALID[t[0] + t[1]:]),
)


@given(any_bytes, st.integers(1, 300), st.sampled_from([1, 16, 64, 8192]))
@example(b"GET / HTTP/1.1\n\nX\r\n\r\n", 300, 8192)
@example(b"\r\nGET / HTTP/1.1\r\n\r\nX", 300, 8192)
@example(b"GET / HTTP/1.1\r\nA: b\n\r\n", 300, 8192)
def test_buffered_read_agrees_with_the_line_loop(data, step, buffer_size):
    buffered = io.BufferedReader(Trickle(data, step), buffer_size)
    assert head_and_rest(buffered) == head_and_rest(io.BytesIO(data))


@given(any_bytes)
@example(b"GET / HTTP/1.1\r\nX-A: 1\r\nx-a: 2\r\n\r\n")
@example(b"GET / HTTP/1.1\r\nHost: x\r\n folded\r\n\r\n")
@example(b"GET / HTTP/1.1\r\n\r\n\r\n")
@example(b"HTTP/1.1 200 OK\r\nX: y\r\n")
def test_parsers_agree_with_the_strict_ones(block):
    assert parsed(http1.parse_request, block) == parsed(strictly(http1._strict_request), block)
    assert parsed(http1.parse_response, block) == parsed(strictly(http1._strict_response), block)


def fast_read(data: bytes, buffer_size: int = 8192) -> bytes:
    return http1.read_head(NoLineReads(io.BytesIO(data), buffer_size))


def test_fast_read_ends_a_head_at_its_first_empty_line():
    # A search for CR LF CR LF alone would take "X\r\n" into this head.
    data = b"GET / HTTP/1.1\n\nX\r\n\r\n"
    reader = NoLineReads(io.BytesIO(data))
    assert http1.read_head(reader) == b"GET / HTTP/1.1\n\n"
    assert reader.read() == b"X\r\n\r\n"
    assert fast_read(b"GET / HTTP/1.1\r\nA: b\n\r\nC: d\r\n\r\n") == b"GET / HTTP/1.1\r\nA: b\n\r\n"


@pytest.mark.parametrize("data", [
    b"\r\nGET / HTTP/1.1\r\n\r\n",  # a leading empty line
    b"\nGET / HTTP/1.1\r\n\r\n",
    b"GET / HTTP/1.1\r\nHost: x\r\n",  # no empty line yet
])
def test_fast_read_leaves_other_heads_to_the_line_loop(data):
    with pytest.raises(AssertionError, match="line by line"):
        fast_read(data)
    assert head_and_rest(io.BufferedReader(io.BytesIO(data))) == head_and_rest(io.BytesIO(data))


AT_FIELD_LIMIT = b"GET / HTTP/1.1\r\nX: " + b"a" * (http1.MAX_FIELD_BYTES - 7) + b"\r\n\r\n"
AT_LINE_LIMIT = b"GET /" + b"a" * (http1.MAX_LINE - 16) + b" HTTP/1.1\r\n\r\n"
# The longest head the fast path takes, and one byte more.
AT_FAST_LIMIT = b"GET / HTTP/1.1\r\nX: " + b"a" * (http1._HEAD_FITS - 23) + b"\r\n\r\n"


@pytest.mark.parametrize("data", [
    AT_FIELD_LIMIT, AT_LINE_LIMIT, AT_FAST_LIMIT,
    AT_FAST_LIMIT.replace(b"X: ", b"X:  "),
    AT_FIELD_LIMIT.replace(b"X: ", b"X:  "),  # 431
    AT_LINE_LIMIT.replace(b"GET /", b"GET //"),  # 414
    b"GET / HTTP/1.1\r\n" + b"X: aaaaaaaaaa\r\n" * (http1.MAX_FIELD_BYTES // 15 + 1),  # 431
], ids=["fields-at-limit", "line-at-limit", "fast-limit", "fast-limit+1", "fields-over-limit",
        "line-over-limit", "many-fields-over-limit"])
def test_heads_at_the_limits_read_alike_through_a_buffer(data):
    assert len(AT_FAST_LIMIT) == http1._HEAD_FITS
    buffered = io.BufferedReader(io.BytesIO(data + b"rest"), 2 * len(data))
    assert head_and_rest(buffered) == head_and_rest(io.BytesIO(data + b"rest"))


def test_fast_read_takes_heads_up_to_its_limit():
    assert fast_read(AT_FAST_LIMIT, 2 * len(AT_FAST_LIMIT)) == AT_FAST_LIMIT
    with pytest.raises(AssertionError, match="line by line"):
        fast_read(AT_FAST_LIMIT.replace(b"X: ", b"X:  "), 2 * len(AT_FAST_LIMIT))


def test_field_count_limit_reads_alike_through_both_parsers():
    names = [f"X-{i}: v" for i in range(http1.MAX_FIELDS + 1)]
    for count in (http1.MAX_FIELDS, http1.MAX_FIELDS + 1):
        block = request_block(names[:count])
        assert parsed(http1.parse_request, block) == \
            parsed(strictly(http1._strict_request), block)
    assert len(http1.parse_request(request_block(names[:http1.MAX_FIELDS])).fields) == \
        http1.MAX_FIELDS


@given(st.lists(field_lines, max_size=http1.MAX_FIELDS))
@example(["Content-Length: 3", "content-length:40"])
@example(["X:  spaced value \t"])
def test_valid_heads_agree_with_http_client_through_the_fast_path(lines):
    block = request_block(lines)
    assert fast_read(block + b"rest") == block
    match = http1._REQUEST_HEAD.fullmatch(block.decode("latin-1"))
    assert match is not None
    names = [line.partition(":")[0].lower() for line in lines]
    fields = http1._matched_fields(match)
    if len(set(names)) == len(names):
        assert dict(fields) == stdlib_fields(lines)
    else:
        assert fields is None  # the strict parser joins repeated names
    assert dict(http1.parse_request(block).fields) == stdlib_fields(lines)
