"""Client SDK: identified sends with timeout fallback and stable retries.

``SendMachine`` is the sans-IO state machine behind one logical send: it
builds the request identity once, walks HTTP wait -> push wait -> retry
transitions, and emits effects for a driver to perform. The live driver
(``Client``) interprets effects with blocking sockets; the simulator
interprets the same machine with virtual-clock events, so both exercise
identical protocol behaviour.

``Client`` frames HTTP/1.1 itself through ``rmaws.http1``: each request
goes out as head and body in one write on a kept-alive socket, and each
response is read through the one buffered reader that socket keeps. A
response that cannot be framed (no plain ``Content-Length``, any
``Transfer-Encoding``, a body cut short) or that answers another rid
counts as a broken exchange: its connection closes and the send falls
back to push, as after a timeout.
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
    RID_HEADER,
    RID_WIDTH,
    STATUS_HEADER,
    TOKEN_HEADER,
    Channel,
    RequestEnvelope,
    RequestId,
    ResponseEnvelope,
    ResponseStatus,
    FrameKind,
    close_frame,
    decode_push_frame,
    encode_push_frame,
    encode_request,
    make_request_id,
    register_frame,
)

log = logging.getLogger(__name__)

DEFAULT_PUSH_WAIT_MS = 30_000
# What a kept-alive connection that the server closed while idle raises
# when it is used again, before any byte of a response arrives.
_STALE_CONNECTION_ERRORS = (ConnectionResetError, BrokenPipeError)


@dataclass(frozen=True)
class SendOptions:
    http_timeout_ms: int = 2_000
    push_wait_ms: int = DEFAULT_PUSH_WAIT_MS
    max_trials: int = 3
    forced: bool = False
    auth_token: str = ""

    def __post_init__(self):
        if self.http_timeout_ms <= 0 or self.push_wait_ms <= 0:
            raise ValueError("timeouts must be positive")
        if not 1 <= self.max_trials <= 99:
            raise ValueError("max_trials must be in 1..99")


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
    rid = make_request_id(device_id, clock(), service, trial=trial, forced=forced)
    return RequestEnvelope(rid=rid, is_forced=forced, service_name=rid.service_name.rstrip(),
                           payload=payload)


class TimestampAllocator:
    """Per-device monotonic request timestamps: ``max(now, last + 1)``.

    The timestamp is what tells two sends from one device to one service
    apart, so two sends may never be stamped with the same millisecond.
    A burst runs ahead of the clock by one ms per send and falls back to
    it once the clock catches up. Uniqueness holds within one allocator;
    a clock that steps back across a process restart can still reuse a
    timestamp, which the server's identity-conflict guard reports.
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


# -- machine effects -------------------------------------------------------

@dataclass(frozen=True)
class SendHttp:
    env: RequestEnvelope
    timeout_ms: int
    epoch: int


@dataclass(frozen=True)
class AbandonHttp:
    trial: int


@dataclass(frozen=True)
class RegisterPush:
    rid: RequestId
    wait_ms: int
    epoch: int


@dataclass(frozen=True)
class Pause:
    ms: int
    epoch: int


@dataclass(frozen=True)
class ReleasePush:
    rid: RequestId


@dataclass(frozen=True)
class Finished:
    outcome: Outcome


@dataclass(frozen=True)
class Failed:
    error: ClientError


class SendMachine:
    """State machine for one logical send.

    The identity (device, timestamp, service) is fixed at construction;
    retries only increment the trial digits, so every attempt shares one
    dedup key. The first completed delivery wins; later deliveries for the
    same key are dropped.
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
        self.service = self.rid.service_name.rstrip()
        self.state = SendMachine.WAIT_HTTP
        self.epoch = 0
        self.registered = False
        self.result: Outcome | ClientError | None = None

    @property
    def key(self) -> str:
        return self.rid.dedup_key

    def _envelope(self) -> RequestEnvelope:
        return RequestEnvelope(self.rid, self.opts.forced, self.service, self.payload)

    def _send_effects(self) -> list:
        self.state = SendMachine.WAIT_HTTP
        self.epoch += 1
        return [SendHttp(self._envelope(), self.opts.http_timeout_ms, self.epoch)]

    def start(self) -> list:
        return self._send_effects()

    def _finish(self, resp: ResponseEnvelope) -> list:
        self.state = SendMachine.DONE
        effects = []
        if self.registered:
            effects.append(ReleasePush(self.rid))
        if resp.status is ResponseStatus.VALIDATION_ERROR:
            self.result = ClientError("Rejected", resp.body.decode("utf-8", "replace"),
                                      rid=self.rid, trials_used=self.rid.trial)
            effects.append(Failed(self.result))
        else:
            self.result = Outcome(
                status=resp.status,
                body=resp.body if resp.status is ResponseStatus.OK else None,
                channel=resp.channel,
                trials_used=self.rid.trial,
                rid=self.rid,
            )
            effects.append(Finished(self.result))
        return effects

    def _fail(self, kind: str, detail: str) -> list:
        self.state = SendMachine.DONE
        self.result = ClientError(kind, detail, rid=self.rid, trials_used=self.rid.trial)
        effects = []
        if self.registered:
            effects.append(ReleasePush(self.rid))
        effects.append(Failed(self.result))
        return effects

    def _next_trial(self) -> list:
        if self.rid.trial >= self.opts.max_trials:
            return self._fail("Exhausted", f"no response after {self.rid.trial} trials")
        self.rid = self.rid.with_trial(self.rid.trial + 1)
        return self._send_effects()

    def _delivery(self, resp: ResponseEnvelope) -> list:
        if self.state == SendMachine.DONE or resp.rid.dedup_key != self.key:
            log.debug("dropping duplicate/foreign delivery for %s", resp.rid.short())
            return []
        return self._finish(resp)

    def on_http_response(self, resp: ResponseEnvelope) -> list:
        return self._delivery(resp)

    def on_http_timeout(self, epoch: int) -> list:
        if self.state != SendMachine.WAIT_HTTP or epoch != self.epoch:
            return []
        self.state = SendMachine.WAIT_PUSH
        self.epoch += 1
        self.registered = True
        return [
            AbandonHttp(self.rid.trial),
            RegisterPush(self.rid, self.opts.push_wait_ms, self.epoch),
        ]

    def on_http_transport_error(self, refused: bool) -> list:
        """Connection refused is terminal; a reset after sending means the
        response may be lost in flight, which is exactly what the push
        fallback recovers, so it is treated like a timeout."""
        if self.state != SendMachine.WAIT_HTTP:
            return []
        if refused:
            return self._fail("Transport", "connection refused")
        return self.on_http_timeout(self.epoch)

    def on_push_delivered(self, resp: ResponseEnvelope) -> list:
        return self._delivery(resp)

    def on_push_timeout(self, epoch: int) -> list:
        if self.state != SendMachine.WAIT_PUSH or epoch != self.epoch:
            return []
        return self._next_trial()

    def on_push_register_failed(self) -> list:
        """Could not open or register on the push channel: keep the push
        wait as a pacing delay, then retry over HTTP."""
        if self.state != SendMachine.WAIT_PUSH:
            return []
        self.state = SendMachine.PAUSED
        self.epoch += 1
        return [Pause(self.opts.push_wait_ms, self.epoch)]

    def on_push_dead(self) -> list:
        """An established push connection died: retry immediately."""
        if self.state != SendMachine.WAIT_PUSH:
            return []
        return self._next_trial()

    def on_pause_done(self, epoch: int) -> list:
        if self.state != SendMachine.PAUSED or epoch != self.epoch:
            return []
        return self._next_trial()


# -- live driver -----------------------------------------------------------

class _PushSlot:
    def __init__(self):
        self.event = threading.Event()
        self.resp: ResponseEnvelope | None = None
        self.dead = False
        # Whether the last Register went out on a connection that was
        # already open, and whether the server has answered it since.
        self.reused = False
        self.answered = False

    @property
    def lost_on_reuse(self) -> bool:
        """The connection died before answering a Register sent on it
        after it had been kept open: most likely the server closed it
        while idle just as the Register went out, and dropped it."""
        return self.dead and self.reused and not self.answered


class PushClient:
    """Shared push connection: one reader thread dispatches Deliver frames
    to waiting sends by dedup key. Opened lazily on first timeout and kept
    open across sends until ``close()``, or until the PushClient is freed.
    When the server closes it (after ``push_idle_timeout_ms`` idle, or on
    stop), the next registration connects again."""

    def __init__(self, host: str, port: int, token: str, *, connect_timeout_s: float = 5.0):
        self.host = host
        self.port = port
        self.token = token
        self.connect_timeout_s = connect_timeout_s
        self._lock = threading.Lock()
        self._conn: ws.WsConnection | None = None
        self._slots: dict[str, _PushSlot] = {}

    def register(self, rid: RequestId) -> _PushSlot | None:
        """Ensure a live connection and a registration for rid's key.

        The Register frame is re-sent even when a local slot already
        exists: an interleaved HTTP retry may have replaced and consumed
        the server-side registration. The server treats a still-standing
        duplicate as idempotent. Returns the wait slot, or None when the
        channel is unavailable."""
        with self._lock:
            reused = self._conn is not None
            if self._conn is None:
                try:
                    sock = socket.create_connection((self.host, self.port),
                                                    timeout=self.connect_timeout_s)
                except OSError as exc:
                    log.debug("push connect failed: %s", exc)
                    return None
                try:
                    sock.settimeout(None)
                    self._conn = ws.client_handshake(sock, f"{self.host}:{self.port}", "/push")
                except (OSError, ws.WsError) as exc:
                    log.debug("push handshake failed: %s", exc)
                    sock.close()
                    return None
                self._close_conn = weakref.finalize(self, self._conn.shutdown)
                threading.Thread(target=PushClient._reader, args=(weakref.ref(self), self._conn),
                                 daemon=True).start()
            slot = self._slots.get(rid.dedup_key)
            if slot is None:
                slot = _PushSlot()
                self._slots[rid.dedup_key] = slot
            slot.reused, slot.answered = reused, False
            try:
                self._conn.send_binary(encode_push_frame(register_frame(rid, self.token)))
            except ws.WsError as exc:
                log.debug("push register failed: %s", exc)
                self._mark_dead_locked()
                return None
            return slot

    def wait(self, slot: _PushSlot, timeout_ms: int) -> tuple[str, ResponseEnvelope | None]:
        slot.event.wait(timeout_ms / 1000.0)
        if slot.resp is not None:
            return "deliver", slot.resp
        if slot.dead:
            return "dead", None
        return "timeout", None

    def release(self, rid: RequestId) -> None:
        """Drop the registration; the connection stays open."""
        with self._lock:
            self._slots.pop(rid.dedup_key, None)

    def close(self) -> None:
        """Send a Close frame and close the connection; a send still
        waiting on it sees the channel die."""
        with self._lock:
            if self._conn is not None:
                try:
                    self._conn.send_binary(encode_push_frame(close_frame()))
                except ws.WsError:
                    pass
            self._mark_dead_locked()

    def _mark_dead_locked(self) -> None:
        if self._conn is not None:
            self._close_conn()
            self._conn = None
        for slot in self._slots.values():
            slot.dead = True
            slot.event.set()
        self._slots.clear()

    @staticmethod
    def _reader(ref: weakref.ref, conn: ws.WsConnection) -> None:
        # Holds the PushClient only while handling a message: a dropped
        # Client frees it, and its finalizer closes the connection.
        while True:
            try:
                message = conn.recv_message()
            except (ws.WsError, OSError):
                message = None
            push = ref()
            if push is None:
                return
            if message is None or not push._dispatch(message):
                with push._lock:
                    if push._conn is conn:
                        push._mark_dead_locked()
                return
            del push

    def _dispatch(self, message: bytes) -> bool:
        """Handle one push frame; False when the connection must close."""
        try:
            frame = decode_push_frame(message)
        except Exception as exc:
            log.warning("undecodable push frame: %s", exc)
            return True
        if frame.kind is FrameKind.DELIVER:
            resp = ResponseEnvelope(
                frame.rid,
                _status_from_meta(frame.meta),
                Channel.PUSH,
                frame.body,
            )
            with self._lock:
                slot = self._slots.pop(frame.rid.dedup_key, None)
            if slot is None:
                log.debug("dropping unmatched Deliver for %s", frame.rid.short())
                return True
            slot.resp = resp
            slot.event.set()
        elif frame.kind is FrameKind.REGISTER_ACK:
            if frame.meta == "UA":
                log.warning("push registration unauthorized; closing")
                return False
            log.debug("register ack %s for %s", frame.meta, frame.rid.short())
            with self._lock:
                slot = self._slots.get(frame.rid.dedup_key)
                if slot is not None:
                    slot.answered = True
        elif frame.kind is FrameKind.CLOSE:
            # The server is closing the connection (idle, or stopping):
            # a Register sent from now on would be lost.
            return False
        return True


def _status_from_meta(meta: str | None) -> ResponseStatus:
    from .envelope import status_from_code

    return status_from_code(meta) if meta else ResponseStatus.OK


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
                return _PROCESS_TIMESTAMPS.allocate(device_id, _wall_ms())
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
        effects = machine.start()
        while True:
            produced = None
            for eff in effects:
                if isinstance(eff, Finished):
                    return eff.outcome
                if isinstance(eff, Failed):
                    raise eff.error
                if isinstance(eff, ReleasePush):
                    self._push.release(eff.rid)
                elif isinstance(eff, AbandonHttp):
                    log.debug("abandoning HTTP exchange for trial %d", eff.trial)
                elif isinstance(eff, SendHttp):
                    produced = self._drive_http(machine, eff)
                elif isinstance(eff, RegisterPush):
                    produced = self._drive_push(machine, eff)
                elif isinstance(eff, Pause):
                    time.sleep(eff.ms / 1000.0)
                    produced = machine.on_pause_done(eff.epoch)
            if produced is None:
                raise RuntimeError("send machine stalled")  # pragma: no cover
            effects = produced

    def _drive_http(self, machine: SendMachine, eff: SendHttp) -> list:
        kind, resp = self._post_envelope(eff.env, eff.timeout_ms)
        if kind == "response":
            return machine.on_http_response(resp)
        if kind == "timeout":
            return machine.on_http_timeout(eff.epoch)
        return machine.on_http_transport_error(refused=(kind == "refused"))

    def _drive_push(self, machine: SendMachine, eff: RegisterPush) -> list:
        deadline = time.monotonic() + eff.wait_ms / 1000.0
        for _ in range(2):
            slot = self._push.register(eff.rid)
            if slot is None:
                return machine.on_push_register_failed()
            kind, resp = self._push.wait(slot, max(0.0, deadline - time.monotonic()) * 1000.0)
            # A Register lost to the server closing the kept-open push
            # connection goes out once more, on a new connection, within
            # the same wait and trial. Registering a key again is safe.
            if not slot.lost_on_reuse:
                break
        if kind == "deliver":
            return machine.on_push_delivered(resp)
        if kind == "dead":
            return machine.on_push_dead()
        return machine.on_push_timeout(eff.epoch)

    def _post(self, path: str, body: bytes, field_block: bytes, timeout_s: float,
              rid: RequestId | None = None) -> tuple[http1.ResponseHead, bytes]:
        """POST on a kept-alive connection; return the response head and body.

        Head and body go out in one write. The connection goes back to the
        free-list only after a complete response that leaves it open.
        After a timeout or any other error it is closed, never reused:
        closing is how the server learns that the exchange was abandoned.
        A reused connection that fails before any byte of a response
        arrives was most likely closed by the server while idle, so the
        request goes out once more on a new connection. That is safe: the
        server closes an idle connection only between requests, and a
        re-sent /services request carries the same rid, so the server
        replays it or attaches it.

        A response that ``http1`` cannot frame (no plain Content-Length,
        any Transfer-Encoding, a body cut short) raises ``HttpError``, and
        so does one whose rid header names another identity than ``rid``:
        in both cases the stream is out of step.
        """
        request = http1.request("POST", path, field_block, body)
        with self._idle_lock:
            conn = self._idle.pop() if self._idle else None
        reused = conn is not None
        try:
            if reused:
                conn.sock.settimeout(timeout_s)
            else:
                conn = _Connection(self.host, self.port, timeout_s)
            while True:
                try:
                    conn.sock.sendall(request)
                    block = http1.read_head(conn.rfile)
                    if block is None:
                        raise ConnectionResetError("connection closed before a response")
                    break
                except _STALE_CONNECTION_ERRORS:
                    if not reused:
                        raise
                    conn.close()
                    conn = _Connection(self.host, self.port, timeout_s)
                    reused = False
            head = http1.parse_response(block)
            length = http1.body_length(head.fields)
            if length is None:
                raise http1.HttpError(400, "response without Content-Length")
            data = conn.rfile.read(length) if length else b""
            if len(data) < length:
                raise http1.HttpError(400, f"response body cut short at {len(data)} of {length} B")
            answered = head.fields.get(RID_HEADER)
            # Leading white space of a field value is not part of it; a
            # rid is fixed-width, so padding restores that of a device id.
            if rid is not None and answered is not None \
                    and answered.rjust(RID_WIDTH)[:DEDUP_KEY_WIDTH] != rid.dedup_key:
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

    def _post_envelope(self, env: RequestEnvelope, timeout_ms: int):
        try:
            head, body = self._post(f"/services/{env.service_name}", encode_request(env),
                                    self._service_fields, timeout_ms / 1000.0, env.rid)
        except ConnectionRefusedError:
            return "refused", None
        except (socket.timeout, TimeoutError):
            return "timeout", None
        except (OSError, ValueError, http1.HttpError) as exc:
            log.debug("http transport error: %s", exc)
            return "broken", None
        try:
            status = ResponseStatus(head.fields.get(STATUS_HEADER))
            channel = Channel(head.fields.get(CHANNEL_HEADER))
        except ValueError:
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
    """A socket to the server and the one buffered reader it keeps for its
    whole life, so bytes read ahead are never lost between responses."""

    def __init__(self, host: str, port: int, timeout_s: float):
        self.sock = socket.create_connection((host, port), timeout=timeout_s)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb")

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()


def _close_all(connections: list[_Connection]) -> None:
    for conn in connections:
        conn.close()


def _wall_ms() -> int:
    return int(time.time() * 1000)
