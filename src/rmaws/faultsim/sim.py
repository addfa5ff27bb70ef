"""Virtual-clock simulation of the full protocol stack.

One single-threaded event loop drives real protocol components: the
server core, the server-side push sessions, and the client send machines
are the same classes the live stack uses; only transports and timers are
virtual. Each event a send's ``SendMachine`` is told of returns one step,
which ``SimWorld._interpret`` takes as ``Client.send`` does: the next
action, or the send's result, on which the push wait is released. The
server side of a request is ``ServerCore.receive`` and
``execute``, as in the live server, with the handler's ``delay_ms``
scheduled in between. An abandoned or offline exchange is only marked
dead: the core holds no registration for it to remove, and when the
execution answers it, the answer is dropped (``http_write_dead``), as
the live send that abandoned it drops it when it ends. A ``PushSession`` writes and closes through
its ``SimPushConn`` as through a live WebSocket, and every way a push
connection ends runs ``PushSession.close``. The client's end is a
``PushWaits``, driven as ``PushClient`` drives it: the connection stays
open after a release, the server's close reaches it as None, and a lost
Register goes out once more, on a new connection, when
``SendMachine.on_push_lost`` says so. Requests travel as real
encoded bytes through the real codecs, so wire accounting and body
transparency are checked end to end.

Everything is deterministic for a given scenario: time advances only
through the event queue and no unordered collection feeds the trace.
"""

from __future__ import annotations

import heapq

from ..client import (
    Outcome,
    Pause,
    RegisterPush,
    SendHttp,
    SendMachine,
    SendOptions,
    TimestampAllocator,
)
from ..envelope import ResponseEnvelope, decode_request, encode_request
from ..push import Heard, PushSession, PushWaits
from ..server.core import RecordState, ServerCore, ValidationError
from ..server.handlers import HandlerRegistry, make_synthetic, synthetic_body
from .scenario import DROP_FAULT_KINDS, TIMED_FAULT_KINDS, ScenarioSpec
from .trace import Trace, TraceRecorder, body_digest

# Events one run may process. A scenario that needs more is diverging (an
# event that keeps rescheduling itself); the checker reports it.
MAX_STEPS = 1_000_000


class SimExchange:
    """Server-side view of one in-flight HTTP request/response pair."""

    def __init__(self, world: "SimWorld", send: "SimSend", env):
        self.world = world
        self.send = send
        self.env = env
        self.trial = env.rid.trial
        self.alive = True

    def complete(self, resp: ResponseEnvelope, error: ValidationError | None) -> None:
        self.world._send_http_response(self, resp)


class SimPushConn:
    """One client<->server push connection over the in-process pipe, and
    the transport of its ``PushSession``: each frame, and the close (as
    None), reaches the client ``push_ms`` later. Nothing crosses a dead
    pipe."""

    def __init__(self, world: "SimWorld", conn_id: str, client: "SimClient", token: str):
        self.world = world
        self.id = conn_id
        self.client = client
        self.session = PushSession(world.core, self, conn_id)
        self.waits = PushWaits(token)
        self.alive = True

    def send_binary(self, data: bytes) -> None:
        if not self.alive:
            raise ConnectionError(f"push connection {self.id} is dead")
        world = self.world
        world.wire["push_bytes"] += len(data)
        world.trace.emit("push_write", conn=self.id, bytes=len(data))
        world.schedule(world.lat_push, lambda: world._client_push_message(self, data))

    def send_close(self) -> None:
        if self.alive:
            world = self.world
            world.trace.emit("push_close", conn=self.id)
            world.schedule(world.lat_push, lambda: world._client_push_message(self, None))


class SimClient:
    def __init__(self, name: str):
        self.name = name
        self.online = True
        self.conn: SimPushConn | None = None
        self.conn_counter = 0


class SimSend:
    def __init__(self, index: int, spec, client: SimClient):
        self.index = index
        self.spec = spec
        self.client = client
        self.machine: SendMachine | None = None
        self.current_exchange: SimExchange | None = None
        self.push_epoch: int | None = None  # of the push wait whose timer runs


class SimWorld:
    def __init__(self, scenario: ScenarioSpec, *, break_dedup: bool = False):
        scenario.validate()
        self.scenario = scenario
        self.now = 0
        self._heap: list = []
        self._seq = 0
        self.trace = TraceRecorder(lambda: self.now)

        registry = HandlerRegistry()
        self.profiles = {}
        for svc in scenario.services:
            registry.add(make_synthetic(svc.name, output_size=svc.output_size,
                                        delay_ms=svc.delay_ms, fail_times=svc.fail_times))
            self.profiles[svc.name] = svc
        self.core = ServerCore(
            registry,
            auth_token=scenario.auth_token,
            clock=lambda: self.now,
            events=self._core_event,
            break_dedup=break_dedup,
        )
        self.lat_req = int(scenario.latency["request_ms"])
        self.lat_resp = int(scenario.latency["response_ms"])
        self.lat_push = int(scenario.latency["push_ms"])

        self.clients: dict[str, SimClient] = {}
        self.sends: list[SimSend] = []
        for index, spec in enumerate(scenario.sends):
            client = self.clients.get(spec.client)
            if client is None:
                client = SimClient(spec.client)
                self.clients[spec.client] = client
            self.sends.append(SimSend(index, spec, client))

        self.drop_faults = [f for f in scenario.faults if f.kind in DROP_FAULT_KINDS]
        self.timed_faults = [f for f in scenario.faults if f.kind in TIMED_FAULT_KINDS]

        self.wire = {"requests_bytes": 0, "request_count": 0,
                     "responses_bytes": 0, "push_bytes": 0}
        self.request_sizes: list[list[int]] = []
        self.timestamps = TimestampAllocator()
        self.expected_bodies: dict[str, str] = {}
        self.send_expected_bodies: dict[int, str] = {}
        self.forced_keys: set[str] = set()
        self.failed_keys: set[str] = set()
        self.diverged = False

    # -- plumbing ---------------------------------------------------------

    def _core_event(self, kind: str, fields: dict) -> None:
        if kind == "record_failed":
            self.failed_keys.add(fields.get("key", ""))
        self.trace.emit(f"server_{kind}", **fields)

    def schedule(self, delay_ms: int, fn) -> None:
        heapq.heappush(self._heap, (self.now + max(0, int(delay_ms)), self._seq, fn))
        self._seq += 1

    def _dropped(self, kind: str, send_index: int, trial: int) -> bool:
        return any(f.kind == kind and f.matches_attempt(send_index, trial)
                   for f in self.drop_faults)

    # -- run ---------------------------------------------------------------

    def run(self) -> Trace:
        for send in self.sends:
            self.schedule(send.spec.t, lambda s=send: self._start_send(s))
        for fault in self.timed_faults:
            self.schedule(fault.t, lambda f=fault: self._apply_fault(f))

        steps = 0
        end = self.scenario.end_time_ms
        while self._heap and self._heap[0][0] <= end:
            if steps == MAX_STEPS:
                self.diverged = True
                break
            t, _, fn = heapq.heappop(self._heap)
            self.now = t
            fn()
            steps += 1
        return self._assemble()

    # -- client side ---------------------------------------------------------

    def _opts(self, spec) -> SendOptions:
        return SendOptions(
            http_timeout_ms=spec.http_timeout_ms,
            push_wait_ms=spec.push_wait_ms,
            max_trials=spec.max_trials,
            forced=spec.forced,
            auth_token=self.scenario.auth_token,
        )

    def _start_send(self, send: SimSend) -> None:
        spec = send.spec
        device = spec.device_id if spec.device_id is not None else spec.client
        payload = spec.payload(send.index)
        stamp = (spec.timestamp_ms if spec.timestamp_ms is not None
                 else self.timestamps.allocate(device, self.now))
        send.machine = SendMachine(spec.service, payload, self._opts(spec), device, stamp)
        key = send.machine.key
        if spec.forced:
            self.forced_keys.add(key)
        profile = self.profiles[spec.service]
        if profile.output_size is None:
            reference = payload
        else:
            reference = synthetic_body(spec.service, payload, profile.output_size)
        reference_sha = body_digest(reference)
        self.send_expected_bodies[send.index] = reference_sha
        self.expected_bodies.setdefault(key, reference_sha)
        self.trace.emit("send_start", send=send.index, key=key,
                        rid=send.machine.rid.canonical(), forced=spec.forced)
        self._interpret(send, send.machine.start())

    def _interpret(self, send: SimSend, step) -> None:
        """Take one step of ``send``'s machine. On its result, release the
        push wait, as ``PushClient.release`` does: the connection stays open."""
        machine = send.machine
        if isinstance(step, SendHttp):
            self._post(send, step)
        elif isinstance(step, RegisterPush):
            self._register_push(send, step)
        elif isinstance(step, Pause):
            self.trace.emit("pause", send=send.index, ms=step.ms)
            self.schedule(step.ms, lambda: self._interpret(send, machine.on_pause_done(step.epoch)))
        elif step is not None:
            if machine.digest is not None and send.client.conn is not None:
                send.client.conn.waits.release(machine.key, machine.digest)
            if isinstance(step, Outcome):
                self.trace.emit("send_done", send=send.index, status=step.status.value,
                                channel=step.channel.value, trials=step.trials_used,
                                body_len=len(step.body or b""))
            else:
                self.trace.emit("send_failed", send=send.index, error=step.kind,
                                detail=step.detail, trials=step.trials_used)

    def _post(self, send: SimSend, eff: SendHttp) -> None:
        data = encode_request(eff.env)
        self.wire["requests_bytes"] += len(data)
        self.wire["request_count"] += 1
        self.request_sizes.append([len(data), len(eff.env.payload)])
        trial = eff.env.rid.trial
        self.trace.emit("http_post", send=send.index, trial=trial, bytes=len(data),
                        payload_len=len(eff.env.payload), key=eff.env.rid.dedup_key)
        exchange = SimExchange(self, send, eff.env)
        send.current_exchange = exchange
        self.schedule(eff.timeout_ms, lambda s=send, e=eff: self._http_timer(s, e.epoch))
        if not send.client.online:
            self.trace.emit("request_lost_offline", send=send.index, trial=trial)
            return
        if self._dropped("drop_request", send.index, trial):
            self.trace.emit("fault_drop_request", send=send.index, trial=trial)
            return
        self.schedule(self.lat_req, lambda: self._server_receive(send, exchange, data))

    def _http_timer(self, send: SimSend, epoch: int) -> None:
        """The HTTP wait ran out: abandon its exchange, then register."""
        step = send.machine.on_http_timeout(epoch)
        if step is None:
            return
        self.trace.emit("http_timeout", send=send.index, trial=send.machine.rid.trial)
        exchange = send.current_exchange
        if exchange.alive:
            exchange.alive = False
            self.trace.emit("http_abandon", send=send.index, trial=exchange.trial)
        self._interpret(send, step)

    # -- server side --------------------------------------------------------

    def _server_receive(self, send: SimSend, exchange: SimExchange, data: bytes) -> None:
        env = decode_request(data)
        self.trace.emit("server_receive", send=send.index, trial=env.rid.trial,
                        key=env.rid.dedup_key)
        ticket = self.core.receive(env, self.scenario.auth_token, exchange)
        if ticket is not None:
            # The key's body is the one its owner's payload gives; with a
            # reused id, the owner need not be the first send under it.
            self.expected_bodies[ticket.key] = self.send_expected_bodies[send.index]
            self.schedule(self.profiles[env.service_name].delay_ms,
                          lambda: self.core.execute(ticket))

    def _send_http_response(self, exchange: SimExchange, resp: ResponseEnvelope) -> None:
        send = exchange.send
        if not exchange.alive:
            self.trace.emit("http_write_dead", send=send.index, trial=exchange.trial)
            return
        self.wire["responses_bytes"] += len(resp.body)
        self.trace.emit("http_write", send=send.index, trial=exchange.trial,
                        status=resp.status.value, channel=resp.channel.value,
                        bytes=len(resp.body))
        if self._dropped("drop_http_response", send.index, exchange.trial):
            self.trace.emit("fault_drop_http_response", send=send.index,
                            trial=exchange.trial)
            return
        self.schedule(self.lat_resp, lambda: self._client_receive_http(exchange, resp))

    def _client_receive_http(self, exchange: SimExchange, resp: ResponseEnvelope) -> None:
        send = exchange.send
        if not send.client.online or not exchange.alive:
            self.trace.emit("response_lost", send=send.index, trial=exchange.trial)
            return
        self.trace.emit("http_response", send=send.index, trial=exchange.trial,
                        status=resp.status.value, channel=resp.channel.value,
                        bytes=len(resp.body), body_sha=body_digest(resp.body))
        step = send.machine.on_http_response(resp)
        if step is None:
            self.trace.emit("duplicate_dropped", send=send.index, via="http")
            return
        self._interpret(send, step)

    # -- push channel ---------------------------------------------------------

    def _register_push(self, send: SimSend, eff: RegisterPush) -> None:
        """Register for ``eff``'s push wait. A lost Register sent again
        keeps its wait's timer, so the deadline stays."""
        client = send.client
        key = eff.rid.dedup_key
        if eff.epoch != send.push_epoch:
            send.push_epoch = eff.epoch
            self.schedule(eff.wait_ms, lambda s=send, e=eff: self._push_timer(s, e.epoch))
        if not client.online:
            self.trace.emit("push_register_failed", send=send.index, reason="offline")
            self.schedule(self.lat_push, lambda s=send: self._interpret(
                s, s.machine.on_push_register_failed()))
            return
        conn = client.conn
        if conn is None or not conn.alive:
            client.conn_counter += 1
            conn = SimPushConn(self, f"{client.name}-p{client.conn_counter}", client,
                               self.scenario.auth_token)
            client.conn = conn
            self.trace.emit("push_conn_open", conn=conn.id)
        data = conn.waits.register(eff.rid, eff.digest, send)
        self.wire["push_bytes"] += len(data)
        self.trace.emit("push_register_sent", send=send.index, key=key, conn=conn.id,
                        bytes=len(data))
        self.schedule(self.lat_push, lambda c=conn, d=data: self._server_push_message(c, d))

    def _server_push_message(self, conn: SimPushConn, data: bytes) -> None:
        if not conn.alive or not conn.session.open:
            self.trace.emit("frame_lost", conn=conn.id, direction="up")
            return
        conn.session.on_message(data)

    def _client_push_message(self, conn: SimPushConn, data: bytes | None) -> None:
        """Handle a frame, or the server's close (None), as ``PushClient``'s
        reader does."""
        if not conn.alive or not conn.client.online:
            self.trace.emit("frame_lost", conn=conn.id, direction="down")
            return
        heard = conn.waits.on_frame(PushWaits.decode(data)) if data is not None else Heard(open=False)
        if heard.ack is not None:
            self.trace.emit("push_ack", conn=conn.id, meta=heard.ack)
        if heard.resp is not None:
            resp = heard.resp
            self.trace.emit("push_deliver", conn=conn.id, key=resp.rid.dedup_key,
                            status=resp.status.value, bytes=len(resp.body),
                            body_sha=body_digest(resp.body))
            if heard.waiter is None:
                self.trace.emit("duplicate_dropped", conn=conn.id, via="push")
                return
            send = heard.waiter
            step = send.machine.on_push_delivered(resp)
            if step is None:
                self.trace.emit("duplicate_dropped", send=send.index, via="push")
                return
            self._interpret(send, step)
        if not heard.open:
            self.trace.emit("push_conn_closed", conn=conn.id, by="server_goodbye")
            self._push_conn_died(conn)

    def _push_conn_died(self, conn: SimPushConn) -> None:
        """The client sees its push connection die, as in ``Client``: a
        send whose Register was lost is told so, and may register again;
        every other waiting send sees the channel die."""
        conn.alive = False
        for send, lost in conn.waits.dead():
            step = send.machine.on_push_lost() if lost else send.machine.on_push_dead()
            if isinstance(step, RegisterPush):
                self.trace.emit("push_register_lost", send=send.index, conn=conn.id)
            self._interpret(send, step)

    def _push_timer(self, send: SimSend, epoch: int) -> None:
        step = send.machine.on_push_timeout(epoch)
        if step is not None:
            self.trace.emit("push_timeout", send=send.index)
            self._interpret(send, step)

    # -- faults ----------------------------------------------------------------

    def _apply_fault(self, fault) -> None:
        client = self.clients.get(fault.client)
        if client is None:
            return
        if fault.kind == "client_offline":
            if not client.online:
                return
            client.online = False
            self.trace.emit("client_offline", client=client.name)
            for send in self.sends:
                if send.client is client and send.current_exchange is not None \
                        and send.current_exchange.alive:
                    send.current_exchange.alive = False
            self._kill_conn(client, reason="offline")
        elif fault.kind == "client_online":
            if not client.online:
                client.online = True
                self.trace.emit("client_online", client=client.name)
        elif fault.kind == "kill_push_conn":
            self._kill_conn(client, reason="killed")
        elif fault.kind == "push_idle_close":
            # What the live server does once the connection has been idle
            # for push_idle_timeout_ms: it closes the session, which sends
            # the close and stops reading. The client learns of it when
            # the close arrives.
            conn = client.conn
            if conn is not None and conn.session.open:
                self.trace.emit("fault_push_idle_close", conn=conn.id)
                conn.session.close()

    def _kill_conn(self, client: SimClient, reason: str) -> None:
        conn = client.conn
        if conn is None or not conn.alive:
            return
        self.trace.emit("push_conn_killed", conn=conn.id, reason=reason)
        conn.alive = False  # first, so the session's close does not cross it
        conn.session.close()
        self._push_conn_died(conn)

    # -- assembly ----------------------------------------------------------------

    def _assemble(self) -> Trace:
        outcomes = []
        raw_bodies: dict[int, bytes] = {}
        for send in self.sends:
            row: dict = {"send": send.index, "client": send.client.name,
                         "forced": send.spec.forced}
            result = None
            if send.machine is not None:
                row["key"] = send.machine.key
                row["rid"] = send.machine.rid.canonical()
                row["trials"] = send.machine.rid.trial
                result = send.machine.result
            if isinstance(result, Outcome):
                row["status"] = result.status.value
                row["channel"] = result.channel.value
                row["body_len"] = len(result.body or b"")
                row["body_sha"] = body_digest(result.body or b"")
                if result.body is not None:
                    raw_bodies[send.index] = result.body
            elif result is not None:
                row["error"] = result.kind
            else:
                row["status"] = "incomplete"
            outcomes.append(row)

        counts = self.core.execution_counts()
        cached = [key for key in counts
                  if (rec := self.core.record(key)) is not None
                  and rec.state is RecordState.COMPLETED]
        open_regs: list[str] = []
        for name in sorted(self.clients):
            client = self.clients[name]
            if client.conn is not None and client.conn.alive:
                open_regs.extend(client.conn.waits.keys())
        push_presence = [key for key in counts if self.core.presence_route(key) is not None]

        return Trace(
            scenario_name=self.scenario.name,
            end_time_ms=self.scenario.end_time_ms,
            latency=dict(self.scenario.latency),
            events=self.trace.events,
            outcomes=outcomes,
            execution_counts=counts,
            forced_keys=sorted(self.forced_keys),
            failed_keys=sorted(self.failed_keys),
            expected_bodies=self.expected_bodies,
            cached_keys_at_end=cached,
            open_client_registrations=open_regs,
            push_presence_at_end=push_presence,
            clients_online_at_end={name: c.online for name, c in self.clients.items()},
            wire=self.wire,
            request_sizes=self.request_sizes,
            raw_bodies=raw_bodies,
            send_expected_bodies=self.send_expected_bodies,
            diverged=self.diverged,
        )


def run(scenario: ScenarioSpec, *, break_dedup: bool = False) -> Trace:
    """Deterministic: identical scenarios yield byte-identical traces."""
    return SimWorld(scenario, break_dedup=break_dedup).run()
