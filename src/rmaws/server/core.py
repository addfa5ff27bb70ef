"""Protocol engine: execution cache, deduplication, presence, routing.

The core runs the server side of every request for both drivers, the
live HTTP server and the virtual-clock simulator: ``receive`` validates
and submits a request, and ``execute`` runs its handler, records the
result and delivers it to every waiting exchange and to a push route.
The drivers keep only transport and timers: they decode envelopes,
carry each answer back through their exchange's ``complete(resp,
error)``, and wait out a handler's ``delay_ms`` before ``execute``.

A completed response goes where the client waits. An open HTTP exchange
waits in its key's entry, among the execution's waiters. The presence
table holds only push registrations: a map from dedup key to the
``PushRoute`` that ``register_push`` stored. An HTTP arrival that is
granted the execution or attached to it supersedes the key's push
registration, since the client now waits on that exchange; ``finish``
consumes whatever registration is left, and a closed push connection
drops its own.

Locking: a single registry lock guards all record and presence mutations.
It is held only for bookkeeping (microseconds), never while a handler
runs, so executions for different keys proceed in parallel while all
mutations for one dedup key are serialized.
"""

from __future__ import annotations

import hmac
import logging
import threading
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

from ..envelope import (
    MAX_TIMESTAMP_MS,
    MAX_TRIAL,
    Channel,
    RequestEnvelope,
    RequestId,
    ResponseEnvelope,
    ResponseStatus,
    payload_digest,
    wall_ms,
)
from .handlers import HandlerRegistry
from .store import RecordStore, StoredRecord

log = logging.getLogger(__name__)


class RecordState(str, Enum):
    PENDING = "Pending"
    COMPLETED = "Completed"
    FAILED = "Failed"


@dataclass(frozen=True)
class ExecutionRecord:
    """Snapshot of the per-key server state (the dedup/cache unit)."""

    dedup_key: str
    state: RecordState
    body: bytes | None
    error_code: str | None
    created_at: int
    completed_at: int | None
    execution_count: int


@dataclass(frozen=True)
class ValidationError:
    reason: str  # BadId | UnknownService | Unauthorized | IdentityConflict
    detail: str

    def response_for(self, rid: RequestId, channel: Channel) -> ResponseEnvelope:
        body = f"{self.reason}: {self.detail}".encode("utf-8")
        return ResponseEnvelope(rid, ResponseStatus.VALIDATION_ERROR, channel, body)


_IDENTITY_CONFLICT = ValidationError(
    "IdentityConflict", "request id already used for a different payload")


@dataclass
class PushRoute:
    """Client is waiting on a push connection, registered under ``rid``."""

    conn: object
    rid: RequestId
    digest: bytes  # of the payload the Register named


@dataclass(slots=True)
class _Entry:
    """The state of one dedup key; ``ServerCore`` maps the key to it."""

    created_at: int
    execution_count: int = 0
    pending: bool = False
    result: tuple | None = None  # ("ok", body) | ("failed", error_code)
    completed_at: int | None = None
    waiters: list = field(default_factory=list)  # exchanges of the execution in flight
    # sha256 of the payload that owns the key; None for records loaded
    # from a store, which are not checked for identity conflicts.
    payload_digest: bytes | None = None


def _response(rid: RequestId, result: tuple, channel: Channel) -> ResponseEnvelope:
    """The response that an entry's ``result`` gives ``rid``."""
    kind, value = result
    if kind == "ok":
        return ResponseEnvelope(rid, ResponseStatus.OK, channel, value)
    return ResponseEnvelope(rid, ResponseStatus.SERVICE_ERROR, channel,
                            f"service error: {value}".encode("utf-8"))


@dataclass(slots=True)
class ExecutionTicket:
    """Permission to run the handler for one granted execution."""

    env: RequestEnvelope
    _entry: _Entry

    @property
    def key(self) -> str:
        return self.env.rid.dedup_key


@dataclass(slots=True)
class DeliveryPlan:
    """One completed execution: its result, the exchanges waiting for it
    and the push route, if the client waits on one."""

    result: tuple
    waiters: list
    push: PushRoute | None
    digest: bytes | None  # the key owner's payload's; None for a record loaded from a store


@dataclass(slots=True)
class SubmitResult:
    kind: str  # "replay" | "execute" | "wait" | "reject"
    response: ResponseEnvelope | None = None
    ticket: ExecutionTicket | None = None
    error: ValidationError | None = None


class ServerCore:
    """State machine shared by the live server and the simulator."""

    def __init__(
        self,
        handlers: HandlerRegistry,
        *,
        auth_token: str = "",
        clock: Callable[[], int] | None = None,
        store: RecordStore | None = None,
        cache_ttl_ms: int | None = None,
        events: Callable[[str, dict], None] | None = None,
        break_dedup: bool = False,
    ):
        self.handlers = handlers
        self.auth_token = auth_token
        self.clock = clock if clock is not None else wall_ms
        self.store = store
        self.cache_ttl_ms = cache_ttl_ms
        self.break_dedup = break_dedup
        self._events = events
        self._lock = threading.RLock()
        self._entries: dict[str, _Entry] = {}
        self._presence: dict[str, PushRoute] = {}
        if store is not None:
            for key, rec in store.load_all().items():
                entry = _Entry(created_at=rec.completed_at)
                entry.execution_count = rec.execution_count
                entry.completed_at = rec.completed_at
                if rec.status == "ok":
                    entry.result = ("ok", rec.body)
                else:
                    entry.result = ("failed", rec.error_code or "unknown")
                self._entries[key] = entry

    def emit(self, kind: str, **fields) -> None:
        """Report one protocol event to the sink, or to the debug log.
        With neither, it returns at once: it runs several times per send."""
        if self._events is not None:
            fields["t"] = self.clock()  # ``fields`` is this call's own dict
            self._events(kind, fields)
        elif log.isEnabledFor(logging.DEBUG):
            log.debug("%s %s", kind, fields)

    def _token_ok(self, token: str) -> bool:
        """Compare in constant time, so the time taken does not tell how
        much of a guessed token is right. Bytes, because compare_digest
        takes only ASCII strings."""
        return hmac.compare_digest(token.encode("utf-8", "surrogatepass"),
                                   self.auth_token.encode("utf-8", "surrogatepass"))

    # -- validation ---------------------------------------------------

    def validate(self, env: RequestEnvelope, token: str) -> ValidationError | None:
        rid = env.rid
        if not (1 <= rid.trial <= MAX_TRIAL) or not (0 <= rid.timestamp_ms <= MAX_TIMESTAMP_MS):
            return ValidationError("BadId", "identifier fields out of range")
        if self.handlers.get(env.service_name) is None:
            return ValidationError("UnknownService", env.service_name)
        if not self._token_ok(token):
            return ValidationError("Unauthorized", "bad token")
        return None

    # -- execution cache ----------------------------------------------

    def _expired(self, entry: _Entry, now: int) -> bool:
        return (
            self.cache_ttl_ms is not None
            and entry.result is not None
            and entry.completed_at is not None
            and now - entry.completed_at > self.cache_ttl_ms
        )

    def submit(self, env: RequestEnvelope, waiter) -> SubmitResult:
        """Run the cache check and claim or join an execution.

        "replay": a completed response exists; respond immediately.
        "execute": the caller must run the handler and call finish().
        "wait": joined an in-flight execution; the waiter is notified.
        "reject": the key already belongs to a different payload; answer
        ``error`` (``IdentityConflict``) as a failed validation.
        On "execute"/"wait" the exchange ``waiter`` takes the response, so
        a push registration for the key is dropped; replay and reject
        paths never touch presence. With ``break_dedup`` (a mutation mode
        for the invariant checker) there is no replay and no wait: every
        request executes.

        The conflict check compares payload digests on a live entry. It
        applies to forced requests too: ``is_forced`` re-runs the same
        request, not a different one under its key. An expired entry takes
        the new payload's digest. Records loaded from a store carry no
        digest and are never reported as conflicts.
        """
        now = self.clock()
        key = env.rid.dedup_key
        digest = payload_digest(env.payload)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                entry = _Entry(created_at=now, payload_digest=digest)
                self._entries[key] = entry
            if self._expired(entry, now):
                self.emit("cache_expired", key=key)
                entry.result = None
                entry.completed_at = None
                if not entry.pending:  # the running execution still owns the key
                    entry.payload_digest = digest
            if entry.payload_digest is not None and entry.payload_digest != digest:
                self.emit("identity_conflict", key=key, trial=env.rid.trial)
                return SubmitResult("reject", error=_IDENTITY_CONFLICT)

            if not self.break_dedup:
                if not env.is_forced and entry.result is not None and entry.result[0] == "ok":
                    self.emit("cache_hit", key=key, trial=env.rid.trial)
                    return SubmitResult("replay", response=_response(
                        env.rid, entry.result, Channel.CACHE_REPLAY))
                if entry.pending:
                    entry.waiters.append(waiter)
                    self._supersede_push_locked(key)
                    self.emit("attach_wait", key=key, trial=env.rid.trial)
                    return SubmitResult("wait")

            # Miss: fresh key, failed record, expired entry, or forced
            # re-execution (the prior completed result, if any, stays
            # replayable until the new execution completes).
            entry.pending = True
            entry.execution_count += 1
            entry.waiters.append(waiter)
            self._supersede_push_locked(key)
            self.emit("execute_begin", key=key, count=entry.execution_count, forced=env.is_forced)
            return SubmitResult("execute", ticket=ExecutionTicket(env, entry))

    def finish(self, ticket: ExecutionTicket, *, body: bytes | None = None,
               error_code: str | None = None) -> DeliveryPlan:
        """Record the execution result and plan its delivery.

        The key's push registration, if any, is consumed here; the plan
        holds it and the exchanges waiting on the key for ``execute`` to
        answer.
        """
        now = self.clock()
        key = ticket.key
        entry = ticket._entry
        with self._lock:
            entry.pending = False
            entry.completed_at = now
            if error_code is None:
                entry.result = ("ok", body if body is not None else b"")
                self.emit("record_completed", key=key, size=len(entry.result[1]),
                          count=entry.execution_count)
            else:
                entry.result = ("failed", error_code)
                self.emit("record_failed", key=key, error=error_code)
            waiters = entry.waiters
            entry.waiters = []
            push = self._presence.pop(key, None)
            if push is not None:
                self.emit("presence_consumed", key=key, route="push")
            if self.store is not None:
                self.store.save(key, StoredRecord(
                    status="ok" if error_code is None else "failed",
                    body=entry.result[1] if error_code is None else b"",
                    error_code=error_code,
                    completed_at=now,
                    execution_count=entry.execution_count,
                ))
            return DeliveryPlan(entry.result, waiters, push, entry.payload_digest)

    # -- request sequence ------------------------------------------------

    def receive(self, env: RequestEnvelope, token: str, exchange) -> ExecutionTicket | None:
        """Validate and submit one request that arrived on ``exchange``,
        an object with the request's ``env`` and a ``complete`` method.

        A rejection or a replay is answered at once through
        ``exchange.complete(resp, error)``; otherwise the exchange waits
        for the execution. Returns the ticket when this request must run
        it: the driver waits the handler's ``delay_ms``, then calls
        ``execute``."""
        err = self.validate(env, token)
        if err is None:
            result = self.submit(env, exchange)
            if result.kind == "execute":
                return result.ticket
            if result.kind == "replay":
                exchange.complete(result.response, None)
            if result.kind != "reject":
                return None
            err = result.error
        self.emit("validation_failed", key=env.rid.dedup_key, trial=env.rid.trial,
                  reason=err.reason)
        exchange.complete(err.response_for(env.rid, Channel.HTTP), err)
        return None

    def execute(self, ticket: ExecutionTicket) -> None:
        """Run the handler for a granted execution and deliver its result:
        each waiting exchange gets a response under its own rid, and the
        push route, if the client waits on one, gets a Deliver frame naming
        the payload. A push write that fails leaves the result in the
        cache for replay."""
        env = ticket.env
        try:
            body, error = self.handlers.get(env.service_name).run(env.payload), None
        except Exception as exc:
            log.info("handler %s failed: %s", env.service_name, exc)
            body, error = None, f"{type(exc).__name__}: {exc}"
        plan = self.finish(ticket, body=body, error_code=error)
        for waiter in plan.waiters:
            waiter.complete(_response(waiter.env.rid, plan.result, Channel.HTTP), None)
        if plan.push is not None:
            resp = _response(plan.push.rid, plan.result, Channel.PUSH)
            if plan.push.conn.push_response(resp, plan.digest or plan.push.digest):
                self.emit("push_delivered", key=ticket.key, size=len(resp.body))
            else:
                self.emit("push_write_failed", key=ticket.key)

    # -- presence -------------------------------------------------------

    def _supersede_push_locked(self, key: str) -> None:
        """An HTTP exchange now waits for the key: drop its push route."""
        if self._presence.pop(key, None) is not None:
            self.emit("presence_deregister", key=key, route="push", reason="http_arrival")

    def presence_route(self, dedup_key: str):
        with self._lock:
            return self._presence.get(dedup_key)

    def presence_keys(self) -> list[str]:
        """The keys that hold a push registration."""
        with self._lock:
            return list(self._presence)

    # -- push channel ----------------------------------------------------

    def register_push(self, rid: RequestId, digest: bytes, conn,
                      token: str) -> tuple[str, ResponseEnvelope | None]:
        """Bind a rid to a push connection; ``digest`` is the SHA-256 of
        the payload that the client sent under it.

        Returns (ack_meta, immediate_response). ack_meta is "UA" for a bad
        token, "DUP" for an idempotent re-registration (same connection and
        digest; no ack is sent), "NC" when the key has no record yet, else
        "OK". When the record is already complete the response is returned
        for immediate delivery and no presence is stored (the registration
        is consumed at once). A digest that differs from a live or pending
        entry's is answered as ``submit`` answers it: ``IdentityConflict``,
        for immediate delivery. Records loaded from a store are not checked.
        """
        if not self._token_ok(token):
            self.emit("push_register_denied", rid=rid.canonical())
            return "UA", None
        now = self.clock()
        key = rid.dedup_key
        with self._lock:
            entry = self._entries.get(key)
            live = entry is not None and (entry.pending or not self._expired(entry, now))
            if live and entry.payload_digest not in (None, digest):
                self.emit("identity_conflict", key=key, trial=rid.trial)
                return "OK", _IDENTITY_CONFLICT.response_for(rid, Channel.PUSH)
            cur = self._presence.get(key)
            if cur is not None and cur.conn is conn and cur.digest == digest:
                self.emit("push_register_duplicate", key=key)
                return "DUP", None
            if live and entry.result is not None and not entry.pending:
                self.emit("push_register_completed", key=key)
                return "OK", _response(rid, entry.result, Channel.PUSH)
            self._presence[key] = PushRoute(conn, rid, digest)
            self.emit("presence_register", key=key, route="push",
                      replaced="push" if cur is not None else None)
            return ("OK" if entry is not None else "NC"), None

    def conn_closed(self, conn) -> None:
        """Drop every registration held by a closed push connection."""
        with self._lock:
            stale = [
                key for key, route in self._presence.items()
                if route.conn is conn
            ]
            for key in stale:
                del self._presence[key]
                self.emit("presence_deregister", key=key, route="push")

    # -- introspection ----------------------------------------------------

    def execution_count(self, dedup_key: str) -> int:
        with self._lock:
            entry = self._entries.get(dedup_key)
            return entry.execution_count if entry else 0

    def execution_counts(self) -> dict[str, int]:
        with self._lock:
            return {k: e.execution_count for k, e in self._entries.items()}

    def completed_keys(self) -> list[str]:
        """The keys whose record is ``COMPLETED``: a success is cached."""
        with self._lock:
            return [k for k, e in self._entries.items()
                    if e.result is not None and e.result[0] == "ok"]

    def record(self, dedup_key: str) -> ExecutionRecord | None:
        with self._lock:
            entry = self._entries.get(dedup_key)
            if entry is None:
                return None
            if entry.result is not None and entry.result[0] == "ok":
                state = RecordState.COMPLETED
                body, error = entry.result[1], None
            elif entry.pending:
                state, body, error = RecordState.PENDING, None, None
            else:  # ``submit`` leaves no entry without a result idle
                state, body, error = RecordState.FAILED, None, entry.result[1]
            return ExecutionRecord(
                dedup_key=dedup_key,
                state=state,
                body=body,
                error_code=error,
                created_at=entry.created_at,
                completed_at=entry.completed_at,
                execution_count=entry.execution_count,
            )
