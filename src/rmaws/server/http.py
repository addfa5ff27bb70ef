"""Live threaded server: /services, /direct, /push and /healthz.

The server owns its listening socket and one thread per accepted
connection. Each connection serves HTTP/1.1 keep-alive requests one
after another through one buffered reader, which a /push upgrade hands
on to the WebSocket, so frames sent with the upgrade are not lost; an
idle connection is closed after ``KEEPALIVE_IDLE_S``. Heads are read,
parsed and written by ``rmaws.http1``: a head or body length that
breaks its framing rules gets that module's status code (400, 414, 431
or 505) and the connection closes, since the rest of the stream cannot
be framed; so does a body cut short, which gets 400 and never reaches a
handler. A ``Content-Length`` over ``http1.MAX_BODY_BYTES`` gets 413
before any of the body is read; what the peer still sends of it is read
and dropped for at most ``DISCARD_BODY_S``, and the connection closes.
A body is read in bounded chunks, so memory grows with the bytes that
arrive, not with the length a request claims.

The request sequence itself runs in ``ServerCore``, the same code the
simulator drives: ``receive`` validates and submits a request, and when
it hands back an execution ticket, the request thread sleeps the
handler's ``delay_ms`` and calls ``execute``, which runs the handler and
completes every exchange waiting on that key. Duplicate arrivals for
the key park on a one-shot latch until then. Every live exchange writes
the completed response on its own connection, in one write with Nagle's
algorithm off, whether or not the client still waits for it. Push
deliveries are written by the executing thread. A client whose /services
wait timed out before the response began keeps the connection until its
send ends; a send that has its answer reads that response and then
reuses the connection. Otherwise, and after a /direct time-out, the
client closes the connection, and the write fails or is discarded
unread. Either way the answer is cached by then, and delivered on push
if the client registered there.

``stop()`` wakes the accept loop through a socket pair, so it does not
wait for a polling interval to end. One registry holds every open
connection, for ``stop()`` to close each push session, which sends the
WebSocket close, and to shut each connection down.
"""

from __future__ import annotations

import errno
import json
import logging
import os
import selectors
import socket
import threading
import time
import uuid
from dataclasses import dataclass, field

from .. import http1, ws
from ..envelope import (
    CHANNEL_HEADER,
    FRAME_HEADER_BYTES,
    PAYLOAD_DIGEST_BYTES,
    RID_HEADER,
    STATUS_HEADER,
    TOKEN_HEADER,
    Channel,
    EnvelopeError,
    RequestEnvelope,
    ResponseEnvelope,
    ResponseStatus,
    check_int,
    decode_request,
)
from ..push import PushSession
from .core import ServerCore, ValidationError
from .handlers import HandlerRegistry
from .store import AppendOnlyFileStore

log = logging.getLogger(__name__)

_HTTP_CODES = {ResponseStatus.OK: 200, ResponseStatus.SERVICE_ERROR: 500}
_VALIDATION_HTTP_CODES = {"UnknownService": 404, "Unauthorized": 401, "IdentityConflict": 409}
DEFAULT_CACHE_TTL_MS = 24 * 60 * 60 * 1000
WAITER_CAP_S = 600.0
# Bounds every blocking read and write on an HTTP connection: the wait
# for the next keep-alive request, and a peer that stalls mid-request or
# stops reading a response. /push connections use push_idle_timeout_ms.
# Until it ends, an idle connection holds a thread and about 28 KB; a
# client that sends again within the bound saves a connect per send.
KEEPALIVE_IDLE_S = 5.0
# After a 413, how long the server reads and drops the body the peer is
# still sending before it closes the connection; see ``_discard_body``.
DISCARD_BODY_S = 1.0
# How long the accept loop rests when accept() fails for want of
# descriptors or memory: the connection stays queued, so the listener
# would be ready again at once and the loop would spin.
ACCEPT_REST_S = 0.1
_ACCEPT_EXHAUSTED = frozenset({errno.EMFILE, errno.ENFILE, errno.ENOBUFS, errno.ENOMEM})
SERVER_NAME = "rmaws/0.1"


@dataclass
class ServerConfig:
    bind_host: str = "127.0.0.1"
    bind_port: int = 0
    auth_token: str = ""
    cache_ttl_ms: int | None = DEFAULT_CACHE_TTL_MS
    push_idle_timeout_ms: int = 300_000
    store_path: str | None = None
    services: list = field(default_factory=list)

    def __post_init__(self):
        # A negative TTL would make every retry run again. A negative idle
        # timeout makes settimeout raise in each /push connection thread,
        # and zero makes the socket non-blocking, which closes it at once.
        # A number for the store's path would be opened as a descriptor.
        for name in ("bind_host", "auth_token"):
            if not isinstance(getattr(self, name), str):
                raise ValueError(f"{name} must be a string, got {getattr(self, name)!r}")
        check_int("bind_port", self.bind_port, 0, 65535)
        if self.cache_ttl_ms is not None:
            check_int("cache_ttl_ms", self.cache_ttl_ms)
        check_int("push_idle_timeout_ms", self.push_idle_timeout_ms, 1)
        if self.store_path is not None and not isinstance(self.store_path, str):
            raise ValueError(f"store_path must be null or a string, got {self.store_path!r}")
        if not isinstance(self.services, list):
            raise ValueError(f"services must be a list, got {self.services!r}")

    @classmethod
    def from_dict(cls, raw: dict) -> "ServerConfig":
        fields = {name: raw[name] for name in ("auth_token", "cache_ttl_ms",
                                               "push_idle_timeout_ms", "store_path",
                                               "services") if name in raw}
        if "bind" in raw:
            fields["bind_host"], fields["bind_port"] = _bind(raw["bind"])
        return cls(**fields)

    @classmethod
    def load(cls, path: str, env: dict | None = None) -> "ServerConfig":
        """Read the JSON config file, put each RMAWS_* value set in the
        environment (``RMAWS_AUTH_TOKEN`` even if empty) in place of its
        field, and build it with ``from_dict``, which checks both alike."""
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError("the config must be a JSON object")
        env = env if env is not None else os.environ
        for name in ("bind", "auth_token", "cache_ttl_ms", "push_idle_timeout_ms", "store_path"):
            var = f"RMAWS_{name.upper()}"
            text = env.get(var)
            if text or text is not None and name == "auth_token":
                raw[name] = _int(var, text) if name.endswith("_ms") else text
        return cls.from_dict(raw)


def _bind(text) -> tuple[str, int]:
    """``host:port`` text with a decimal port, which ``ServerConfig``
    range-checks; an empty host means the loopback address."""
    host, colon, port = text.rpartition(":") if isinstance(text, str) else ("", "", "")
    if not (colon and port.isascii() and port.isdigit()):
        raise ValueError(f"bind must be host:port text, got {text!r}")
    return host or "127.0.0.1", int(port)


def _int(name: str, text: str) -> int:
    """An environment value, in decimal."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {text!r}") from None


class LiveExchange:
    """An open HTTP exchange acting as the waiter for its request.

    The core answers it with ``complete``; the thread that serves its
    connection then writes that answer with ``deliver``. A waiter
    attached to an execution in flight parks on a one-shot latch: a lock
    taken when the exchange is made and released by ``complete``. It
    costs less to make than a ``threading.Event``; an exchange the core
    has already answered finds the latch open."""

    def __init__(self, handler: "RmawsRequestHandler", env: RequestEnvelope):
        self.handler = handler
        self.env = env
        self.answer: tuple[ResponseEnvelope, int] | None = None
        self._latch = threading.Lock()
        self._latch.acquire()

    def complete(self, resp: ResponseEnvelope, error: ValidationError | None) -> None:
        code = _HTTP_CODES[resp.status] if error is None else _VALIDATION_HTTP_CODES[error.reason]
        self.answer = (resp, code)
        self._latch.release()

    def deliver(self) -> None:
        """Wait for ``complete``, then write its response on this
        connection. An exchange never completed within ``WAITER_CAP_S``
        gets no answer, and its connection closes."""
        if self._latch.acquire(timeout=WAITER_CAP_S):
            self.respond(*self.answer)

    def respond(self, resp: ResponseEnvelope, http_code: int) -> bool:
        return self.handler.write_response(http_code, resp.body, (
            f"{RID_HEADER}: {resp.rid.canonical()}\r\n{CHANNEL_HEADER}: {resp.channel.value}\r\n"
            f"{STATUS_HEADER}: {resp.status.value}\r\n").encode("latin-1"))


class RmawsServer:
    """Composition root for the live server; it owns the listening socket."""

    def __init__(self, config: ServerConfig, registry: HandlerRegistry | None = None,
                 *, clock=None, break_dedup: bool = False):
        self.config = config
        self.registry = registry if registry is not None else HandlerRegistry.from_config(config.services)
        store = AppendOnlyFileStore(config.store_path) if config.store_path else None
        self.core = ServerCore(
            self.registry,
            auth_token=config.auth_token,
            clock=clock,
            store=store,
            cache_ttl_ms=config.cache_ttl_ms,
            break_dedup=break_dedup,
        )
        # A backlog of 5 overflows when more clients connect at once; the
        # kernel drops their SYNs, and they retry only after 1 s.
        self._listener = socket.create_server((config.bind_host, config.bind_port),
                                              backlog=socket.SOMAXCONN)
        # Read once: stop() closes the socket, and it may run twice.
        self.address: tuple[str, int] = self._listener.getsockname()[:2]
        self.port = self.address[1]
        self._fixed_fields: tuple[int, bytes] = (-1, b"")
        self._thread: threading.Thread | None = None
        self._wake: tuple[socket.socket, socket.socket] | None = None
        # Guarded by _active_lock: requests in flight, each open connection
        # with the thread serving it, and whether stop() has drained (after
        # which no request starts).
        self._active = 0
        self._connections: dict[RmawsRequestHandler, threading.Thread] = {}
        self._drained = False
        self._active_lock = threading.Lock()
        self._idle = threading.Condition(self._active_lock)
        self._stopping = False

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "RmawsServer":
        self._wake = socket.socketpair()
        self._thread = threading.Thread(target=self._accept_loop, args=(self._wake[0],),
                                        name="rmaws-accept", daemon=True)
        self._thread.start()
        log.info("serving on %s:%d", *self.address)
        return self

    def _accept_loop(self, wake: socket.socket) -> None:
        """Accept connections until stop() writes to ``wake``, sleeping
        until one or the other arrives; out of descriptors or memory, rest
        ``ACCEPT_REST_S`` on ``wake`` alone. A connection is registered
        before its thread starts, so stop(), which waits for this loop,
        finds it."""
        with selectors.DefaultSelector() as selector, selectors.DefaultSelector() as wake_only:
            selector.register(self._listener, selectors.EVENT_READ)
            selector.register(wake, selectors.EVENT_READ)
            wake_only.register(wake, selectors.EVENT_READ)
            while True:
                selector.select()
                if self._stopping:
                    return
                try:
                    sock, address = self._listener.accept()
                except OSError as exc:
                    log.debug("accept failed: %s", exc)
                    if exc.errno in _ACCEPT_EXHAUSTED:
                        wake_only.select(ACCEPT_REST_S)
                    continue
                handler = RmawsRequestHandler(self, sock, address)
                thread = threading.Thread(target=handler.run, name=f"rmaws-conn-{self.port}",
                                          daemon=True)
                with self._active_lock:
                    self._connections[handler] = thread
                try:
                    thread.start()
                except RuntimeError as exc:  # no thread to be had
                    log.warning("connection from %s refused: %s", address[0], exc)
                    handler.close()

    def stop(self, *, drain_timeout_s: float = 30.0) -> None:
        """Graceful stop: stop accepting, drain in-flight requests, close
        push connections with the WebSocket close, shut down every
        connection that is left (idle keep-alive ones included), wait for
        their threads to end and release the socket. A thread still
        running a handler when the drain times out is given one more
        second."""
        self._stopping = True
        if self._wake is not None:
            self._wake[1].send(b"\0")
            self._thread.join(timeout=5.0)
        deadline = time.monotonic() + drain_timeout_s
        with self._idle:
            while self._active > 0 and time.monotonic() < deadline:
                self._idle.wait(timeout=max(0.0, deadline - time.monotonic()))
            self._drained = True
            connections = list(self._connections.items())
        for handler, _ in connections:
            handler.shut_down()
        join_until = max(deadline, time.monotonic() + 1.0)
        for _, thread in connections:
            thread.join(timeout=max(0.0, join_until - time.monotonic()))
        self._listener.close()
        if self._wake is not None:
            for sock in self._wake:
                sock.close()
            self._wake = None

    def _begin_request(self) -> bool:
        """Count a request in flight; False once stop() has drained."""
        with self._active_lock:
            if self._drained:
                return False
            self._active += 1
            return True

    def _end_request(self) -> None:
        with self._idle:
            self._active -= 1
            if self._active == 0:
                self._idle.notify_all()

    def fixed_fields(self) -> bytes:
        """The Server, Date and Content-Type lines of every response. The
        date changes once a second, so it is formatted once a second."""
        now = int(time.time())
        second, block = self._fixed_fields
        if second != now:
            block = (f"Server: {SERVER_NAME}\r\nDate: {http1.http_date(now)}\r\n"
                     "Content-Type: application/octet-stream\r\n").encode("ascii")
            self._fixed_fields = (now, block)
        return block

    # -- direct (baseline) route ------------------------------------------

    def run_direct(self, name: str, payload: bytes) -> tuple[int, bytes]:
        handler = self.registry.get(name)
        if handler is None:
            return 404, b"unknown service"
        if handler.delay_ms:
            time.sleep(handler.delay_ms / 1000.0)
        try:
            return 200, handler.run(payload)
        except Exception as exc:
            return 500, f"service error: {type(exc).__name__}: {exc}".encode("utf-8")


_VALIDATION_FIELDS = (f"{STATUS_HEADER}: {ResponseStatus.VALIDATION_ERROR.value}\r\n"
                      f"{CHANNEL_HEADER}: {Channel.HTTP.value}\r\n").encode("ascii")
_TOKEN_FIELD = TOKEN_HEADER.lower()


class RmawsRequestHandler:
    """Serves one connection's requests one after another, through one
    buffered reader for its whole life; a /push upgrade hands it on."""

    def __init__(self, server: RmawsServer, sock: socket.socket, address):
        self.server = server
        self.connection = sock
        self.client_address = address
        self.session: PushSession | None = None
        # TCP_NODELAY on every accepted socket, /push included: a response
        # or push frame leaves at once instead of waiting for the peer's
        # delayed ACK of the previous segment.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(KEEPALIVE_IDLE_S)
        self.rfile = sock.makefile("rb")

    def run(self):
        """The connection thread: however ``handle`` ends, the connection
        closes, and an exception it did not expect reaches the excepthook."""
        try:
            self.handle()
        finally:
            self.close()

    def close(self) -> None:
        # FIN first, so a peer whose last bytes went unread reads EOF, not a reset.
        try:
            self.connection.shutdown(socket.SHUT_WR)
        except OSError:
            pass
        self.rfile.close()
        self.connection.close()
        with self.server._active_lock:
            self.server._connections.pop(self, None)

    def shut_down(self) -> None:
        """Called by stop(): close a push connection's session, which sends
        the WebSocket close, then shut the socket down, which ends the
        connection thread's blocking read."""
        if self.session is not None:
            self.session.close()
        try:
            self.connection.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass

    def handle(self):
        self.close_connection = False
        try:
            while not self.close_connection:
                self.handle_one_request()
        except ConnectionError as exc:
            log.debug("connection from %s reset: %s", self.client_address[0], exc)

    def handle_one_request(self):
        """Read one request head, then answer the request. The connection
        ends here when the peer closes it, when it stays idle or stalls
        for ``KEEPALIVE_IDLE_S``, and after a head that breaks the framing
        rules, which gets the status code of ``http1.HttpError``."""
        self.close_connection = True
        try:
            block = http1.read_head(self.rfile)
            if block is None:
                return
            head = http1.parse_request(block)
        except TimeoutError:
            return
        except http1.HttpError as exc:
            self.write_response(exc.status, exc.reason.encode("latin-1"))
            return
        self.head, self.command, self.path = head, head.method, head.target
        self.close_connection = not head.keep_alive
        try:
            if head.method == "GET" and head.target == "/push":
                self._handle_push_upgrade()
            elif head.method in ("GET", "POST"):
                self._serve()
            else:
                self.close_connection = True
                self.write_response(501, b"method not implemented")
        except TimeoutError:
            self.close_connection = True

    def _read_body(self) -> bytes | None:
        """The request body, or None once the request has been answered
        400 or 413, after which the connection closes: the rest of the
        stream cannot be framed. 400: the body is not framed by a plain
        Content-Length, or the peer closed before sending all of it. 413:
        the Content-Length is over ``http1.MAX_BODY_BYTES``; the body is
        never kept, and on /services the answer carries the validation
        fields, so the client ends its send rejected. ``http1.read_body``
        reads the body in bounded chunks, so a huge Content-Length
        reserves nothing up front. ``Expect: 100-continue`` gets its
        interim response first."""
        fields = self.head.fields
        try:
            size = http1.body_length(fields) or 0
        except http1.HttpError as exc:
            self.close_connection = True
            self.write_response(exc.status, exc.reason.encode("latin-1"))
            return None
        if size > http1.MAX_BODY_BYTES:
            self.close_connection = True
            self.write_response(413, b"request body over %d B" % http1.MAX_BODY_BYTES,
                                _VALIDATION_FIELDS if self.path.startswith("/services/") else b"")
            self._discard_body(size)
            return None
        if (self.head.version != "HTTP/1.0"
                and fields.get("expect", "").lower() == "100-continue"):
            self.connection.sendall(http1.CONTINUE)
        try:
            return http1.read_body(self.rfile, size)
        except http1.HttpError:
            self.close_connection = True
            self.write_response(400, b"request body cut short")
            return None

    def _discard_body(self, size: int) -> None:
        """End the stream after a 413 with FIN, then read and drop what the
        peer still sends of its ``size`` B body, for at most
        ``DISCARD_BODY_S``. Closing a socket with bytes unread sends a
        reset, which would fail a client's write of the rest of the body
        before it read the 413."""
        deadline = time.monotonic() + DISCARD_BODY_S
        try:
            self.connection.shutdown(socket.SHUT_WR)
            while size > 0 and (left := deadline - time.monotonic()) > 0:
                self.connection.settimeout(left)
                chunk = self.rfile.read1(min(size, http1.BODY_CHUNK_BYTES))
                if not chunk:
                    break
                size -= len(chunk)
        except OSError as exc:
            log.debug("body after 413 not read: %s", exc)

    def write_response(self, code: int, body: bytes, field_block: bytes = b"") -> bool:
        """Write the status line, the fixed fields, ``field_block`` and the
        body with one sendall, so a kept-alive response never waits on
        Nagle's algorithm. Returns False if the write failed. Says
        ``Connection: close`` when the connection ends after this
        response."""
        if self.server._stopping:
            self.close_connection = True
        fields = self.server.fixed_fields() + field_block
        if self.close_connection:
            fields += b"Connection: close\r\n"
        try:
            self.connection.sendall(http1.response(code, fields, body))
        except OSError as exc:
            log.debug("response write failed: %s", exc)
            return False
        self._responded = True
        log.debug("%s <- %d, %d B", self.client_address[0], code, len(body))
        return True

    def _serve(self):
        """Read the body, route, answer. The request counts as in flight,
        so stop() drains it; a request that got no complete answer closes
        its connection, because the client may still wait for one."""
        server = self.server
        self._responded = False
        if not server._begin_request():
            self.close_connection = True
            return
        try:
            body = self._read_body()
            if body is None:
                return
            if self.command == "GET" and self.path == "/healthz":
                self.write_response(200, b"ok")
            elif self.command == "POST" and self.path.startswith("/services/"):
                self._handle_service(body)
            elif self.command == "POST" and self.path.startswith("/direct/"):
                self.write_response(*server.run_direct(self.path[len("/direct/"):], body))
            else:
                self.write_response(404, b"not found")
        finally:
            if not self._responded:
                self.close_connection = True
            server._end_request()

    def _handle_service(self, raw: bytes) -> None:
        try:
            env = decode_request(raw)
        except EnvelopeError as exc:
            self.write_response(400, str(exc).encode("utf-8"), _VALIDATION_FIELDS)
            return
        if self.path[len("/services/"):] != env.service_name:
            self.write_response(400, b"path does not match envelope service", _VALIDATION_FIELDS)
            return
        core = self.server.core
        exchange = LiveExchange(self, env)
        ticket = core.receive(env, self.head.fields.get(_TOKEN_FIELD, ""), exchange)
        if ticket is not None:
            delay_ms = core.handlers.get(env.service_name).delay_ms
            if delay_ms:
                time.sleep(delay_ms / 1000.0)
            core.execute(ticket)
        exchange.deliver()

    def _handle_push_upgrade(self):
        server = self.server
        self.close_connection = True
        try:
            response = ws.server_handshake_response(self.head.fields)
        except ws.WsError as exc:
            self.write_response(400, str(exc).encode("utf-8"))
            return
        self.connection.sendall(response)
        # No message may be longer than the largest Register this server accepts.
        token_bytes = len(server.config.auth_token.encode("utf-8", "surrogatepass"))
        conn = ws.WsConnection(self.connection, self.rfile, mask_outgoing=False,
                               max_message=FRAME_HEADER_BYTES + PAYLOAD_DIGEST_BYTES + token_bytes)
        self.session = session = PushSession(server.core, conn, conn_id=uuid.uuid4().hex[:8])
        self.connection.settimeout(server.config.push_idle_timeout_ms / 1000.0)
        try:
            while session.open:
                try:
                    message = conn.recv_message()
                except socket.timeout:
                    log.info("closing idle push connection %s", session.conn_id)
                    break
                except (ws.WsError, OSError):
                    break
                session.on_message(message)
        finally:
            session.close()
