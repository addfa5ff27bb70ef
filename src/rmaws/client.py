"""Client SDK: identified sends with timeout fallback and stable retries.

``SendMachine`` is the sans-IO state machine behind one logical send: it
builds the request identity once and walks HTTP wait -> push wait ->
retry. Each transition returns one step: the driver's next action or the
send's result. The live driver (``Client``) takes each step with
blocking sockets; the simulator takes the same steps with virtual-clock
events, so both exercise identical protocol behaviour.

``Client`` frames HTTP/1.1 itself through ``rmaws.http1``: each request
goes out as head and body in one write on a kept-alive socket, and each
response is read through the buffered reader that socket keeps. A
/services exchange that times out before any byte of its response
arrives keeps its connection, which stays with its send. When the send
ends with an answer, the server has written that response too, so the
send reads and drops it within its own timeout, and the connection is
reused if that response is framed, names the send's key and keeps it
open (RFC 9112 §9.3). A send that ends any other way, a /direct
time-out, a time-out inside a response and any other error close the
connection. A response that cannot be framed (no plain
``Content-Length``, any ``Transfer-Encoding``, a body cut short) or that
answers another rid counts as a broken exchange: its connection closes
and the send falls back to push, as after a timeout.

``PushClient`` keeps the push connection's socket, lock and reader
thread; what is sent on it and what each frame from the server means is
``rmaws.push.PushWaits``, which the simulator drives too.
"""

from __future__ import annotations

import logging
import socket
import threading
import time
import weakref
from dataclasses import dataclass, field

from . import http1, ws
from .envelope import (
    CHANNEL_HEADER,
    DEDUP_KEY_WIDTH,
    MAX_TRIAL,
    RID_HEADER,
    RID_WIDTH,
    STATUS_HEADER,
    TOKEN_HEADER,
    Channel,
    RequestEnvelope,
    RequestId,
    ResponseEnvelope,
    ResponseStatus,
    check_int,
    encode_request,
    make_request_id,
    payload_digest,
    wall_ms,
)
from .push import Heard, PushWaits

log = logging.getLogger(__name__)

DEFAULT_PUSH_WAIT_MS = 30_000
# Bounds a push connection's TCP connect and its WebSocket handshake.
PUSH_CONNECT_TIMEOUT_S = 5.0
# X-RMAWS-Status and X-RMAWS-Channel values; any other value is broken.
_STATUSES = {status.value: status for status in ResponseStatus}
_CHANNELS = {channel.value: channel for channel in Channel}
# Response fields are keyed by lower-case name.
_RID_FIELD = RID_HEADER.lower()
_STATUS_FIELD = STATUS_HEADER.lower()
_CHANNEL_FIELD = CHANNEL_HEADER.lower()
# What a kept-alive connection that the server closed while idle raises
# when it is used again, before any byte of a response arrives.
_STALE_CONNECTION_ERRORS = (ConnectionResetError, BrokenPipeError)


@dataclass(frozen=True)
class SendOptions:
    """How one send waits and retries, and the owner of the options' rules:
    the timeouts are integers of at least 1, ``max_trials`` one in
    1..MAX_TRIAL and ``forced`` a bool; anything else is a ``ValueError``.
    Nothing reads ``auth_token``: a ``Client`` sends its own."""

    http_timeout_ms: int = 2_000
    push_wait_ms: int = DEFAULT_PUSH_WAIT_MS
    max_trials: int = 3
    forced: bool = False
    auth_token: str = ""

    def __post_init__(self):
        check_int("http_timeout_ms", self.http_timeout_ms, 1)
        check_int("push_wait_ms", self.push_wait_ms, 1)
        check_int("max_trials", self.max_trials, 1, MAX_TRIAL)
        if type(self.forced) is not bool:
            raise ValueError(f"forced must be true or false, got {self.forced!r}")


@dataclass(frozen=True)
class Outcome:
    status: ResponseStatus
    body: bytes | None
    channel: Channel
    trials_used: int
    rid: RequestId | None

    def __post_init__(self):
        if (self.body is not None) != (self.status is ResponseStatus.OK):
            raise ValueError("body must be present exactly when status is Ok")


class ClientError(Exception):
    """Terminal send failure: Exhausted, Transport or Rejected."""

    def __init__(self, kind: str, detail: str, *, rid: RequestId | None = None,
                 trials_used: int = 0):
        super().__init__(f"{kind}: {detail}")
        self.kind = kind
        self.detail = detail
        self.rid = rid
        self.trials_used = trials_used


def build(
    service: str,
    payload: bytes,
    forced: bool,
    trial: int,
    clock,
    device_id: str,
) -> RequestEnvelope:
    """Construct an identified envelope; the timestamp comes from ``clock``."""
    return RequestEnvelope(make_request_id(device_id, clock(), service, trial=trial, forced=forced),
                           payload)


class TimestampAllocator:
    """Per-device monotonic request timestamps: ``max(now, last + 1)``.

    The timestamp is what tells two sends from one device to one service
    apart, so two sends may never be stamped with the same millisecond.
    A burst runs ahead of the clock by one ms per send and falls back to
    it once the clock catches up. Uniqueness holds within one allocator;
    a clock that steps back across a process restart can still reuse a
    timestamp, which the server's identity-conflict guard reports, across
    a restart of a server with a store too.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._last: dict[str, int] = {}

    def allocate(self, device_id: str, now_ms: int) -> int:
        with self._lock:
            last = self._last.get(device_id)
            ts = now_ms if last is None else max(now_ms, last + 1)
            self._last[device_id] = ts
            return ts


# Shared by every live Client in the process, so sends from different
# Client objects with one device id still get distinct timestamps.
_PROCESS_TIMESTAMPS = TimestampAllocator()


# -- machine steps ---------------------------------------------------------

@dataclass(frozen=True)
class SendHttp:
    env: RequestEnvelope
    timeout_ms: int
    epoch: int


@dataclass(frozen=True)
class RegisterPush:
    rid: RequestId
    wait_ms: int
    epoch: int
    digest: bytes  # of the payload, for the server to check the key against


@dataclass(frozen=True)
class Pause:
    ms: int
    epoch: int


class SendMachine:
    """State machine for one logical send.

    The identity (device, timestamp, service) is fixed at construction;
    retries only increment the trial digits, so every attempt shares one
    dedup key. The first completed delivery wins; later deliveries for the
    same key are dropped.

    Each transition returns one step: the driver's next action
    (``SendHttp``, ``RegisterPush`` or ``Pause``); the send's result, the
    ``Outcome`` or ``ClientError`` it also keeps in ``result``; or None
    when the event changes nothing (a stale epoch, a duplicate or foreign
    delivery, a send already done). Once ``result`` is set, the driver
    releases the push wait, if ``digest`` says that one began.
    """

    WAIT_HTTP = "wait_http"
    WAIT_PUSH = "wait_push"
    PAUSED = "paused"
    DONE = "done"

    def __init__(self, service: str, payload: bytes, opts: SendOptions, device_id: str,
                 now_ms: int):
        self.opts = opts
        self.payload = payload
        self.rid = make_request_id(device_id, now_ms, service, trial=1, forced=opts.forced)
        self.state = SendMachine.WAIT_HTTP
        self.epoch = 0
        self.digest: bytes | None = None  # the payload's, once a push wait began
        self.register_lost = False  # the push wait's Register was lost once
        self.result: Outcome | ClientError | None = None

    @property
    def key(self) -> str:
        return self.rid.dedup_key

    def _send_http(self) -> SendHttp:
        self.state = SendMachine.WAIT_HTTP
        self.epoch += 1
        env = RequestEnvelope(self.rid, self.payload)
        return SendHttp(env, self.opts.http_timeout_ms, self.epoch)

    def _register_push(self) -> RegisterPush:
        return RegisterPush(self.rid, self.opts.push_wait_ms, self.epoch, self.digest)

    def start(self) -> SendHttp:
        return self._send_http()

    def _end(self, result: Outcome | ClientError) -> Outcome | ClientError:
        self.state = SendMachine.DONE
        self.result = result
        return result

    def _fail(self, kind: str, detail: str) -> ClientError:
        return self._end(ClientError(kind, detail, rid=self.rid, trials_used=self.rid.trial))

    def _next_trial(self) -> SendHttp | ClientError:
        if self.rid.trial >= self.opts.max_trials:
            return self._fail("Exhausted", f"no response after {self.rid.trial} trials")
        self.rid = self.rid.with_trial(self.rid.trial + 1)
        return self._send_http()

    def _delivery(self, resp: ResponseEnvelope) -> Outcome | ClientError | None:
        if self.state == SendMachine.DONE or resp.rid.dedup_key != self.key:
            log.debug("dropping duplicate/foreign delivery for %r", resp.rid)
            return None
        if resp.status is ResponseStatus.VALIDATION_ERROR:
            return self._fail("Rejected", resp.body.decode("utf-8", "replace"))
        return self._end(Outcome(
            status=resp.status,
            body=resp.body if resp.status is ResponseStatus.OK else None,
            channel=resp.channel,
            trials_used=self.rid.trial,
            rid=self.rid,
        ))

    def on_http_response(self, resp: ResponseEnvelope) -> Outcome | ClientError | None:
        return self._delivery(resp)

    def on_http_timeout(self, epoch: int) -> RegisterPush | None:
        if self.state != SendMachine.WAIT_HTTP or epoch != self.epoch:
            return None
        self.state = SendMachine.WAIT_PUSH
        self.epoch += 1
        self.register_lost = False
        self.digest = self.digest or payload_digest(self.payload)  # a digest is never empty
        return self._register_push()

    def on_http_transport_error(self, refused: bool) -> RegisterPush | ClientError | None:
        """Connection refused is terminal; a reset after sending means the
        response may be lost in flight, which is exactly what the push
        fallback recovers, so it is treated like a timeout."""
        if self.state != SendMachine.WAIT_HTTP:
            return None
        if refused:
            return self._fail("Transport", "connection refused")
        return self.on_http_timeout(self.epoch)

    def on_push_delivered(self, resp: ResponseEnvelope) -> Outcome | ClientError | None:
        return self._delivery(resp)

    def on_push_timeout(self, epoch: int) -> SendHttp | ClientError | None:
        if self.state != SendMachine.WAIT_PUSH or epoch != self.epoch:
            return None
        return self._next_trial()

    def on_push_register_failed(self) -> Pause | None:
        """Could not open or register on the push channel: keep the push
        wait as a pacing delay, then retry over HTTP."""
        if self.state != SendMachine.WAIT_PUSH:
            return None
        self.state = SendMachine.PAUSED
        self.epoch += 1
        return Pause(self.opts.push_wait_ms, self.epoch)

    def on_push_dead(self) -> SendHttp | ClientError | None:
        """An established push connection died: retry immediately."""
        if self.state != SendMachine.WAIT_PUSH:
            return None
        return self._next_trial()

    def on_push_lost(self) -> RegisterPush | SendHttp | ClientError | None:
        """The push connection died with the wait's Register unanswered,
        most likely closed by the server while idle just then: register
        once more in the same wait, which is safe. A second loss in one
        wait is the channel dying."""
        if self.state != SendMachine.WAIT_PUSH:
            return None
        if self.register_lost:
            return self.on_push_dead()
        self.register_lost = True
        return self._register_push()

    def on_pause_done(self, epoch: int) -> SendHttp | ClientError | None:
        if self.state != SendMachine.PAUSED or epoch != self.epoch:
            return None
        return self._next_trial()


# -- live driver -----------------------------------------------------------

class _PushSlot:
    """One send's wait on the push connection; the reader thread settles it."""

    def __init__(self):
        self.event = threading.Event()
        self.outcome: tuple[str, ResponseEnvelope | None] = ("timeout", None)

    def settle(self, kind: str, resp: ResponseEnvelope | None = None) -> None:
        self.outcome = (kind, resp)
        self.event.set()


class PushClient:
    """Shared push connection: one reader thread hands each frame to the
    connection's ``PushWaits`` and wakes the send it answers. Opened
    lazily on first timeout and kept open across sends until ``close()``,
    or until the PushClient is freed. When the server closes it (after
    ``push_idle_timeout_ms`` idle, or on stop), the next registration
    connects again."""

    def __init__(self, host: str, port: int, token: str):
        self.host = host
        self.port = port
        self.token = token
        self._lock = threading.Lock()
        self._conn: ws.WsConnection | None = None
        self._waits: PushWaits | None = None

    def register(self, rid: RequestId, digest: bytes) -> _PushSlot | None:
        """Ensure a live connection and a registration for rid's key and
        the payload ``digest``.

        Each Register gets its own slot, which replaces the key's earlier
        waiter for the same payload; a waiter for another payload keeps
        its own. Returns the wait slot, or None when the channel is
        unavailable."""
        with self._lock:
            if self._conn is None:
                try:
                    sock = socket.create_connection((self.host, self.port),
                                                    timeout=PUSH_CONNECT_TIMEOUT_S)
                except OSError as exc:
                    log.debug("push connect failed: %s", exc)
                    return None
                try:
                    # The connect timeout bounds the handshake too; the
                    # reader thread then blocks without one.
                    self._conn = ws.client_handshake(sock, f"{self.host}:{self.port}", "/push")
                    sock.settimeout(None)
                except (OSError, ws.WsError) as exc:
                    log.debug("push handshake failed: %s", exc)
                    sock.close()
                    return None
                self._waits = PushWaits(self.token)
                self._close_conn = weakref.finalize(self, self._conn.shutdown)
                threading.Thread(target=PushClient._reader,
                                 args=(weakref.ref(self), self._conn, self._waits),
                                 daemon=True).start()
            slot = _PushSlot()
            try:
                self._conn.send_binary(self._waits.register(rid, digest, slot))
            except ws.WsError as exc:
                log.debug("push register failed: %s", exc)
                self._mark_dead_locked()
                return None
            return slot

    def wait(self, slot: _PushSlot, timeout_ms: int) -> tuple[str, ResponseEnvelope | None]:
        """("deliver", resp), ("dead", None), ("lost", None) when the
        connection died with the Register lost, or ("timeout", None)."""
        slot.event.wait(timeout_ms / 1000.0)
        return slot.outcome

    def release(self, rid: RequestId, digest: bytes) -> None:
        """Drop the registration; the connection stays open."""
        with self._lock:
            if self._waits is not None:
                self._waits.release(rid.dedup_key, digest)

    def close(self) -> None:
        """Close the connection; ``WsConnection.shutdown`` sends the
        WebSocket close. A send still waiting on it sees the channel die."""
        with self._lock:
            self._mark_dead_locked()

    def _mark_dead_locked(self) -> None:
        if self._conn is not None:
            self._close_conn()
            self._conn = None
            for slot, lost in self._waits.dead():
                slot.settle("lost" if lost else "dead")

    @staticmethod
    def _reader(ref: weakref.ref, conn: ws.WsConnection, waits: PushWaits) -> None:
        # Holds the PushClient only while handling a message: a dropped
        # Client frees it, and its finalizer closes the connection.
        while True:
            try:
                message = conn.recv_message()
            except (ws.WsError, OSError):
                message = None
            frame = PushWaits.decode(message) if message is not None else None
            push = ref()
            if push is None:
                return
            with push._lock:
                heard = waits.on_frame(frame) if message is not None else Heard(open=False)
                if not heard.open and push._conn is conn:
                    push._mark_dead_locked()
            if heard.waiter is not None:
                heard.waiter.settle("deliver", heard.resp)
            if not heard.open:
                return
            del push


class Client:
    """Live SDK over a running server.

    Each send is stamped by ``clock``. The default stamps wall-clock ms
    through the process-wide allocator, so every send gets its own dedup
    key. A clock passed in is trusted as-is: a frozen clock re-sends one
    identity on purpose, and a clock that repeats a value for different
    payloads gets the server's ``IdentityConflict`` rejection.

    HTTP exchanges reuse kept-alive connections to the server, and the
    push connection stays open once made; ``close()``, or leaving a
    ``with`` block, closes them, and so does dropping the Client.
    """

    def __init__(self, host: str, port: int, *, device_id: str = "client",
                 auth_token: str = "", clock=None, defaults: SendOptions | None = None):
        self.host = host
        self.port = port
        self.device_id = device_id
        self.auth_token = auth_token
        if clock is None:
            # Not a bound method: a Client that refers to itself is freed
            # only by the cycle collector, and until then its idle
            # connections hold a server thread each.
            def clock() -> int:
                return _PROCESS_TIMESTAMPS.allocate(device_id, wall_ms())
        self.clock = clock
        self.defaults = defaults if defaults is not None else SendOptions(auth_token=auth_token)
        self._push = PushClient(host, port, auth_token)
        authority = f"[{host}]" if ":" in host else host
        fields = {"Host": f"{authority}:{port}", "Content-Type": "application/octet-stream"}
        self._direct_fields = http1.field_lines(fields)
        self._service_fields = http1.field_lines({**fields, TOKEN_HEADER: auth_token})
        self._idle: list[_Connection] = []
        self._idle_lock = threading.Lock()
        # A Client dropped without close() still closes its connections.
        weakref.finalize(self, _close_all, self._idle)

    def close(self) -> None:
        """Close the idle HTTP connections and the push connection. A send
        made afterwards opens new ones."""
        with self._idle_lock:
            idle = self._idle[:]
            self._idle.clear()
        _close_all(idle)
        self._push.close()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the send state machine, interpreted with blocking IO ---------

    def send(self, service: str, payload: bytes, opts: SendOptions | None = None) -> Outcome:
        opts = opts if opts is not None else self.defaults
        machine = SendMachine(service, payload, opts, self.device_id, self.clock())
        step = machine.start()
        wait_epoch, deadline = None, 0.0  # a Register sent again keeps its wait's deadline
        owed: list[_Connection] = []  # of the send's timed-out exchanges
        try:
            while machine.result is None:
                if isinstance(step, SendHttp):
                    step = self._drive_http(machine, step, owed)
                elif isinstance(step, RegisterPush):
                    if step.epoch != wait_epoch:
                        wait_epoch, deadline = step.epoch, time.monotonic() + step.wait_ms / 1000.0
                    step = self._drive_push(machine, step, deadline)
                elif isinstance(step, Pause):
                    time.sleep(step.ms / 1000.0)
                    step = machine.on_pause_done(step.epoch)
                else:
                    raise RuntimeError("send machine stalled")  # pragma: no cover
        finally:
            if machine.digest is not None:
                self._push.release(machine.rid, machine.digest)
            if isinstance(machine.result, Outcome):
                self._drain(owed, machine.key, opts.http_timeout_ms / 1000.0)
            else:  # Exhausted, Transport or Rejected: nothing says the server answers
                _close_all(owed)
        if isinstance(machine.result, ClientError):
            raise machine.result
        return machine.result

    def _drain(self, owed: list[_Connection], key: str, timeout_s: float) -> None:
        """The send for ``key`` has its answer, so the server has written,
        or is writing, the response each connection in ``owed`` holds. Read
        and drop them within ``timeout_s`` in all; a connection is reused
        only if its response is framed, names ``key`` and keeps it open."""
        deadline = time.monotonic() + timeout_s
        for conn in owed:
            if conn.read_owed(key, deadline):
                with self._idle_lock:
                    self._idle.append(conn)
            else:
                conn.close()

    def _drive_http(self, machine: SendMachine, step: SendHttp, owed: list[_Connection]):
        kind, resp = self._post_envelope(step.env, step.timeout_ms, owed)
        if kind == "response":
            return machine.on_http_response(resp)
        if kind == "timeout":
            return machine.on_http_timeout(step.epoch)
        return machine.on_http_transport_error(refused=(kind == "refused"))

    def _drive_push(self, machine: SendMachine, step: RegisterPush, deadline: float):
        slot = self._push.register(step.rid, step.digest)
        if slot is None:
            return machine.on_push_register_failed()
        kind, resp = self._push.wait(slot, max(0.0, deadline - time.monotonic()) * 1000.0)
        if kind == "deliver":
            return machine.on_push_delivered(resp)
        if kind == "timeout":
            return machine.on_push_timeout(step.epoch)
        if kind == "lost":
            return machine.on_push_lost()
        return machine.on_push_dead()

    def _post(self, path: str, body: bytes, field_block: bytes, timeout_s: float,
              rid: RequestId | None = None,
              owed: list[_Connection] | None = None) -> tuple[http1.ResponseHead, bytes]:
        """POST on a kept-alive connection; return the response head and body.

        Head and body go out in one write, and each read or write waits at
        most what is left of ``timeout_s``. The connection goes back to the
        free-list after a complete response that leaves it open, so a
        connection on the free-list owes nothing. A /services post that
        times out before any byte of its response arrives appends its
        connection to ``owed``, its send's list, and the send decides when
        it ends whether that connection is reused (``send``). A /direct
        time-out, a time-out inside a response and any other error close
        the connection.

        A write or a first read that fails with a reset or a broken pipe
        first looks for a response already on the connection: a server
        may answer before it has read the whole request and close, as
        with a 413 for a body over its bound, and what it wrote stays
        readable after the reset. That response is the answer. Otherwise,
        on a reused connection, it is closed and the request goes out once
        more on a new one, within what is left of ``timeout_s``. The usual
        cause is a server that closed the connection while idle. A re-send
        is safe: the server closes an idle connection only between
        requests, and a re-sent /services request carries the same rid,
        so the server replays it or attaches it.

        A response that ``http1`` cannot frame (no plain Content-Length,
        any Transfer-Encoding, a body cut short) raises ``HttpError``, and
        so does one whose rid header names another identity than ``rid``:
        in both cases the stream is out of step. The body is read in
        bounded chunks, so a huge Content-Length reserves nothing.
        """
        request = http1.request("POST", path, field_block, body)
        deadline = time.monotonic() + timeout_s
        with self._idle_lock:
            conn = self._idle.pop() if self._idle else None
        reused = conn is not None
        try:
            if not reused:
                conn = _Connection(self.host, self.port, timeout_s)
            while True:
                try:
                    conn.sock.settimeout(_time_left(deadline))
                    conn.sock.sendall(request)
                    try:
                        started = conn.rfile.peek(1)
                    except TimeoutError:
                        if owed is not None:
                            conn.owe()
                            owed.append(conn)
                            conn = None
                        raise
                    if not started:
                        raise ConnectionResetError("connection closed before a response")
                    break
                except _STALE_CONNECTION_ERRORS:
                    if conn.answered():
                        break
                    if not reused:
                        raise
                    conn.close()
                    conn = _Connection(self.host, self.port, _time_left(deadline))
                    reused = False
            head, data = conn.read_response()
            answered = head.fields.get(_RID_FIELD)
            if rid is not None and answered is not None and not _names_key(answered, rid.dedup_key):
                raise http1.HttpError(400, f"response for another request: {answered!r}")
        except BaseException:
            if conn is not None:
                conn.close()
            raise
        if head.keep_alive:
            with self._idle_lock:
                self._idle.append(conn)
        else:
            conn.close()
        return head, data

    def _post_envelope(self, env: RequestEnvelope, timeout_ms: int, owed: list[_Connection]):
        try:
            head, body = self._post(f"/services/{env.service_name}", encode_request(env),
                                    self._service_fields, timeout_ms / 1000.0, env.rid, owed)
        except ConnectionRefusedError:
            return "refused", None
        except (socket.timeout, TimeoutError):
            return "timeout", None
        except (OSError, ValueError, http1.HttpError) as exc:
            log.debug("http transport error: %s", exc)
            return "broken", None
        status = _STATUSES.get(head.fields.get(_STATUS_FIELD))
        channel = _CHANNELS.get(head.fields.get(_CHANNEL_FIELD))
        if status is None or channel is None:
            return "broken", None
        return "response", ResponseEnvelope(env.rid, status, channel, body)

    def send_direct(self, service: str, payload: bytes, opts: SendOptions | None = None) -> Outcome:
        """Baseline path: raw payload, no envelope, no dedup, no fallback."""
        opts = opts if opts is not None else self.defaults
        try:
            head, body = self._post(f"/direct/{service}", payload, self._direct_fields,
                                    opts.http_timeout_ms / 1000.0)
        except (socket.timeout, TimeoutError) as exc:
            raise ClientError("Transport", "direct call timed out") from exc
        except (OSError, ValueError, http1.HttpError) as exc:
            raise ClientError("Transport", f"direct call failed: {exc}") from exc
        if head.status != 200:
            raise ClientError("Transport", f"direct call failed: HTTP {head.status}")
        return Outcome(status=ResponseStatus.OK, body=body, channel=Channel.HTTP,
                       trials_used=1, rid=None)


class _Connection:
    """A socket to the server and its buffered reader, kept from one
    response to the next, so bytes read ahead are never lost.

    A /services exchange that timed out here before any byte of its
    response arrived leaves the connection owing that response, which the
    server still writes on it; the send reads it with ``read_owed`` when
    it ends, before the connection carries another request. A reader refuses every read after
    a socket time-out, so ``owe`` gives the connection a new one. Nothing
    is lost by that: the time-out came while the old reader's buffer was
    empty."""

    def __init__(self, host: str, port: int, timeout_s: float):
        self.sock = socket.create_connection((host, port), timeout=timeout_s)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb")

    def owe(self) -> None:
        self.rfile.close()
        self.rfile = self.sock.makefile("rb")

    def answered(self) -> bool:
        """Whether bytes of a response wait to be read. Called once the
        connection is reset or closed, when a read returns at once."""
        try:
            return bool(self.rfile.peek(1))
        except OSError:
            return False

    def read_response(self) -> tuple[http1.ResponseHead, bytes]:
        """One response, framed by a plain Content-Length; raises
        ``HttpError`` for any other framing."""
        block = http1.read_head(self.rfile)
        if block is None:
            raise http1.HttpError(400, "connection closed before a response")
        head = http1.parse_response(block)
        length = http1.body_length(head.fields)
        if length is None:
            raise http1.HttpError(400, "response without Content-Length")
        return head, http1.read_body(self.rfile, length)

    def read_owed(self, key: str, deadline: float) -> bool:
        """Read and discard the owed response by ``deadline``; return
        whether it was framed, named the dedup key ``key`` and kept the
        connection open."""
        try:
            self.sock.settimeout(_time_left(deadline))
            head, _ = self.read_response()
        except (OSError, http1.HttpError) as exc:
            log.debug("owed response not read: %s", exc)
            return False
        answered = head.fields.get(_RID_FIELD)
        return answered is not None and _names_key(answered, key) and head.keep_alive

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()


def _names_key(answered: str, key: str) -> bool:
    """Whether an ``X-RMAWS-Rid`` value names the dedup key ``key``. Leading
    white space of a field value is not part of it; a rid is fixed-width,
    so padding restores that of a device id."""
    return answered.rjust(RID_WIDTH)[:DEDUP_KEY_WIDTH] == key


def _time_left(deadline: float) -> float:
    """Seconds until ``deadline``; raises ``TimeoutError`` once it has passed."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError("timed out")
    return left


def _close_all(connections: list[_Connection]) -> None:
    for conn in connections:
        conn.close()
