"""Live threaded server: /services, /direct, /push and /healthz.

Each accepted connection runs on its own thread and serves HTTP/1.1
keep-alive requests one after another; an idle connection is closed
after ``KEEPALIVE_IDLE_S``. Heads are read, parsed and written by
``rmaws.http1`` on a ``socketserver`` base: a head or body length that
breaks its framing rules gets that module's status code (400, 414, 431
or 505) and the connection closes, since the rest of the stream cannot
be framed. A request thread that wins the execution runs
the handler itself; duplicate arrivals for the same dedup key park on
the in-flight record and every live exchange writes the completed
response on its own connection, in one write with Nagle's algorithm off.
Push deliveries are written by the finishing thread. A client abandons
an exchange by closing its connection; a zero-byte peek before each
write detects that, which is what turns an abandoned exchange into the
push/cache fallback path.
"""

from __future__ import annotations

import json
import logging
import os
import socket
import socketserver
import threading
import time
import uuid
from dataclasses import dataclass, field

from .. import http1, ws
from ..envelope import (
    CHANNEL_HEADER,
    RID_HEADER,
    STATUS_HEADER,
    TOKEN_HEADER,
    Channel,
    MalformedEnvelope,
    RequestEnvelope,
    ResponseEnvelope,
    ResponseStatus,
    decode_request,
)
from ..push import PushSession
from .core import HttpRoute, ServerCore, ValidationError
from .handlers import HandlerRegistry
from .store import AppendOnlyFileStore

log = logging.getLogger(__name__)

_VALIDATION_HTTP_CODES = {"BadId": 400, "UnknownService": 404, "Unauthorized": 401,
                          "IdentityConflict": 409}
DEFAULT_CACHE_TTL_MS = 24 * 60 * 60 * 1000
WAITER_CAP_S = 600.0
# Bounds every blocking read and write on an HTTP connection: the wait
# for the next keep-alive request, and a peer that stalls mid-request or
# stops reading a response. /push connections use push_idle_timeout_ms.
# Until it ends, an idle connection holds a thread and about 28 KB; a
# client that sends again within the bound saves a connect per send.
KEEPALIVE_IDLE_S = 5.0
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

    @classmethod
    def from_dict(cls, raw: dict) -> "ServerConfig":
        cfg = cls()
        if "bind" in raw:
            host, _, port = str(raw["bind"]).rpartition(":")
            cfg.bind_host, cfg.bind_port = host or "127.0.0.1", int(port)
        cfg.auth_token = str(raw.get("auth_token", cfg.auth_token))
        if "cache_ttl_ms" in raw:
            ttl = raw["cache_ttl_ms"]
            cfg.cache_ttl_ms = None if ttl is None else int(ttl)
        cfg.push_idle_timeout_ms = int(raw.get("push_idle_timeout_ms", cfg.push_idle_timeout_ms))
        cfg.store_path = raw.get("store_path")
        cfg.services = list(raw.get("services", []))
        return cfg

    @classmethod
    def load(cls, path: str, env: dict | None = None) -> "ServerConfig":
        """Read the JSON config file, then apply RMAWS_* env overrides."""
        with open(path, "r", encoding="utf-8") as fh:
            cfg = cls.from_dict(json.load(fh))
        env = env if env is not None else os.environ
        if env.get("RMAWS_BIND"):
            host, _, port = env["RMAWS_BIND"].rpartition(":")
            cfg.bind_host, cfg.bind_port = host or "127.0.0.1", int(port)
        if env.get("RMAWS_AUTH_TOKEN") is not None and "RMAWS_AUTH_TOKEN" in env:
            cfg.auth_token = env["RMAWS_AUTH_TOKEN"]
        if env.get("RMAWS_CACHE_TTL_MS"):
            cfg.cache_ttl_ms = int(env["RMAWS_CACHE_TTL_MS"])
        if env.get("RMAWS_PUSH_IDLE_TIMEOUT_MS"):
            cfg.push_idle_timeout_ms = int(env["RMAWS_PUSH_IDLE_TIMEOUT_MS"])
        if env.get("RMAWS_STORE_PATH"):
            cfg.store_path = env["RMAWS_STORE_PATH"]
        return cfg


class LiveExchange:
    """An open HTTP exchange acting as the waiter for its request."""

    def __init__(self, handler: "RmawsRequestHandler", env: RequestEnvelope):
        self.handler = handler
        self.env = env
        self.event = threading.Event()
        self.plan = None

    def complete(self, plan) -> None:
        self.plan = plan
        self.event.set()

    def alive(self) -> bool:
        return _socket_alive(self.handler.connection)

    def respond(self, resp: ResponseEnvelope, http_code: int) -> bool:
        if not self.alive():
            return False
        return self.handler.write_response(http_code, resp.body, {
            RID_HEADER: resp.rid.canonical(),
            CHANNEL_HEADER: resp.channel.value,
            STATUS_HEADER: resp.status.value,
        })


def _socket_alive(sock: socket.socket) -> bool:
    """Peek for EOF without consuming or waiting; a closed peer reads as
    b"". The socket is switched to non-blocking for the peek: under a
    timeout, Python waits for the socket to become readable even with
    MSG_DONTWAIT."""
    timeout = sock.gettimeout()
    sock.settimeout(0.0)
    try:
        return bool(sock.recv(1, socket.MSG_PEEK))
    except (BlockingIOError, InterruptedError):
        return True
    except OSError:
        return False
    finally:
        sock.settimeout(timeout)


def _http_code_for(resp: ResponseEnvelope, validation: ValidationError | None = None) -> int:
    if resp.status is ResponseStatus.OK:
        return 200
    if resp.status is ResponseStatus.SERVICE_ERROR:
        return 500
    if validation is not None:
        return _VALIDATION_HTTP_CODES.get(validation.reason, 400)
    return 400


class RmawsServer:
    """Composition root for the live server."""

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
        self._httpd = _Httpd((config.bind_host, config.bind_port), RmawsRequestHandler)
        self._httpd.rmaws = self
        self._thread: threading.Thread | None = None
        self._sessions: set[PushSession] = set()
        self._sessions_lock = threading.Lock()
        # Guarded by _active_lock: requests in flight, each connection
        # with the thread serving it, and whether stop() has drained
        # (after which no request starts).
        self._active = 0
        self._connections: dict[socket.socket, threading.Thread] = {}
        self._drained = False
        self._active_lock = threading.Lock()
        self._idle = threading.Condition(self._active_lock)
        self._stopping = False

    # -- lifecycle ------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        host, port = self._httpd.server_address[:2]
        return host, port

    @property
    def port(self) -> int:
        return self.address[1]

    def start(self) -> "RmawsServer":
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        name="rmaws-accept", daemon=True)
        self._thread.start()
        log.info("serving on %s:%d", *self.address)
        return self

    def stop(self, *, drain_timeout_s: float = 30.0) -> None:
        """Graceful stop: stop accepting, drain in-flight requests, say
        goodbye on push connections, shut down every connection that is
        left (idle keep-alive ones included), wait for their threads to
        end and release the socket. A thread still running a handler
        when the drain times out is given one more second."""
        self._stopping = True
        self._httpd.shutdown()
        deadline = time.monotonic() + drain_timeout_s
        with self._idle:
            while self._active > 0 and time.monotonic() < deadline:
                self._idle.wait(timeout=max(0.0, deadline - time.monotonic()))
            self._drained = True
            connections = list(self._connections.items())
        with self._sessions_lock:
            sessions = list(self._sessions)
        for session in sessions:
            session.send_goodbye()
        for sock, _ in connections:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        join_until = max(deadline, time.monotonic() + 1.0)
        for _, thread in connections:
            thread.join(timeout=max(0.0, join_until - time.monotonic()))
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._httpd.server_close()

    def _track(self, sock: socket.socket, thread: threading.Thread) -> None:
        # Threads are forgotten only once they have ended, so stop() also
        # waits for one that has closed its socket but not yet returned.
        with self._active_lock:
            self._connections = {s: t for s, t in self._connections.items() if t.is_alive()}
            self._connections[sock] = thread

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

    # -- request orchestration -------------------------------------------

    def handle_request(self, env: RequestEnvelope, exchange: LiveExchange, token: str):
        """Full request sequence: validate, dedup, execute or join, deliver.

        Returns (channel | None, ResponseStatus) for logging; None channel
        means the response was parked in the cache for later replay.
        """
        err = self.core.validate(env, token)
        if err is None:
            result = self.core.submit(env, exchange, route=HttpRoute(exchange))
            err = result.error
        if err is not None:
            resp = err.response_for(env.rid, Channel.HTTP)
            exchange.respond(resp, _http_code_for(resp, err))
            return Channel.HTTP, ResponseStatus.VALIDATION_ERROR

        if result.kind == "replay":
            delivered = exchange.respond(result.response, 200)
            return (Channel.CACHE_REPLAY if delivered else None), result.response.status

        if result.kind == "execute":
            handler = self.registry.get(env.service_name)
            if handler.delay_ms:
                time.sleep(handler.delay_ms / 1000.0)
            try:
                body = handler.run(env.payload)
                plan = self.core.finish(result.ticket, body=body)
            except Exception as exc:
                log.info("handler %s failed: %s", env.service_name, exc)
                plan = self.core.finish(result.ticket,
                                        error_code=f"{type(exc).__name__}: {exc}")
            self._deliver(plan)
        # Both the executor and attached duplicates wait on their own
        # exchange; whoever finished has completed every waiter by now.
        if not exchange.event.wait(timeout=WAITER_CAP_S):
            return None, ResponseStatus.SERVICE_ERROR  # pragma: no cover
        plan = exchange.plan
        resp = plan.response_for(env.rid, Channel.HTTP)
        delivered = exchange.respond(resp, _http_code_for(resp))
        if not delivered:
            self.core.deregister_presence(env.rid.dedup_key, HttpRoute(exchange))
            return None, resp.status
        return Channel.HTTP, resp.status

    def _deliver(self, plan) -> None:
        for waiter in plan.waiters:
            waiter.complete(plan)
        if plan.push is not None:
            resp = plan.response_for(plan.push.rid, Channel.PUSH)
            if plan.push.conn.push_response(resp):
                self.core.emit("push_delivered", key=plan.key, size=len(resp.body))
            else:
                log.info("push write failed for %s; response stays cached", plan.key)

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

    # -- push sessions ------------------------------------------------------

    def attach_session(self, session: PushSession) -> None:
        with self._sessions_lock:
            self._sessions.add(session)

    def detach_session(self, session: PushSession) -> None:
        with self._sessions_lock:
            self._sessions.discard(session)


class _Httpd(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    # The default listen backlog of 5 overflows when more clients than
    # that connect at once; the kernel drops their SYNs and they retry
    # only after 1 s.
    request_queue_size = socket.SOMAXCONN
    rmaws: "RmawsServer"
    _fixed_fields: tuple[int, bytes] = (-1, b"")

    def process_request(self, request, client_address):
        # One thread per connection, tracked so that stop() can shut the
        # connection down and wait for its thread.
        thread = threading.Thread(target=self.process_request_thread,
                                  args=(request, client_address),
                                  name=f"rmaws-conn-{self.server_address[1]}", daemon=True)
        self.rmaws._track(request, thread)
        thread.start()

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


_VALIDATION_HEADERS = {STATUS_HEADER: ResponseStatus.VALIDATION_ERROR.value,
                       CHANNEL_HEADER: Channel.HTTP.value}


class RmawsRequestHandler(socketserver.StreamRequestHandler):
    """Serves the requests of one connection, one after another."""

    # TCP_NODELAY on every accepted socket, /push included: a response or
    # push frame leaves at once instead of waiting for the peer's delayed
    # ACK of the previous segment.
    disable_nagle_algorithm = True

    @property
    def rmaws(self) -> RmawsServer:
        return self.server.rmaws

    def setup(self):
        self.timeout = KEEPALIVE_IDLE_S
        super().setup()

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
        """The request body, or None once a request whose body is not
        framed by a plain Content-Length has been answered 400. The
        connection then closes: the rest of the stream cannot be framed.
        ``Expect: 100-continue`` gets its interim response first."""
        fields = self.head.fields
        try:
            size = http1.body_length(fields) or 0
        except http1.HttpError as exc:
            self.close_connection = True
            self.write_response(exc.status, exc.reason.encode("latin-1"))
            return None
        if self.head.version != "HTTP/1.0" and fields.get("expect", "").lower() == "100-continue":
            self.connection.sendall(http1.CONTINUE)
        body = self.rfile.read(size) if size else b""
        if len(body) < size:
            self.close_connection = True  # the peer closed mid-body
        return body

    def write_response(self, code: int, body: bytes, headers: dict | None = None) -> bool:
        """Write the status line, headers and body with one sendall, so a
        kept-alive response never waits on Nagle's algorithm. Returns
        False if the write failed. Says ``Connection: close`` when the
        connection ends after this response."""
        if self.rmaws._stopping:
            self.close_connection = True
        fields = self.server.fixed_fields()
        if headers:
            fields += "".join(f"{name}: {value}\r\n"
                              for name, value in headers.items()).encode("latin-1")
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
        server = self.rmaws
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
        except MalformedEnvelope as exc:
            self.write_response(400, str(exc).encode("utf-8"), _VALIDATION_HEADERS)
            return
        if self.path[len("/services/"):] != env.service_name:
            self.write_response(400, b"path does not match envelope service", _VALIDATION_HEADERS)
            return
        self.rmaws.handle_request(env, LiveExchange(self, env),
                                  self.head.fields.get(TOKEN_HEADER, ""))

    def _handle_push_upgrade(self):
        server = self.rmaws
        try:
            response = ws.server_handshake_response(self.head.fields)
        except ws.WsError as exc:
            self.close_connection = True
            self.write_response(400, str(exc).encode("utf-8"))
            return
        try:
            self.connection.sendall(response)
        except OSError:
            return
        conn = ws.WsConnection(self.connection, mask_outgoing=False)
        session = PushSession(server.core, conn.send_binary, conn_id=uuid.uuid4().hex[:8])
        server.attach_session(session)
        idle_s = server.config.push_idle_timeout_ms / 1000.0
        self.connection.settimeout(idle_s)
        try:
            while True:
                try:
                    message = conn.recv_message()
                except socket.timeout:
                    log.info("closing idle push connection %s", session.conn_id)
                    session.send_goodbye()
                    break
                except (ws.WsError, OSError):
                    break
                if message is None:
                    break
                if not session.on_message(message):
                    break
        finally:
            session.mark_dead()
            conn.send_close()
            server.detach_session(session)
            self.close_connection = True
