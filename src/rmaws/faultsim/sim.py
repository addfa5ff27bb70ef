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

A run reads its faults only through its ``tree.Path``: at each drop
check, and at each step of an instant of its tree's timed faults, where
one event applies the scenario's faults at that instant in order and
skips each that would change nothing now (``SimWorld._fault_acts``).
``run(scenario, tree=tree)`` asks the tree once (``DecisionTree.answer``):
a scenario that agrees with an earlier run of the tree at every decision
that run reached gets that run's trace, under its own name, in one walk
of the tree; any other gets the ``Path`` that it is simulated through
(see ``tree``). The traces of one behaviour share one ``Trace.verdict``.
A run that hits ``MAX_STEPS`` is never shared: its scenario gets the
trace of a plain run. A plain ``run(scenario)`` is a run whose tree
holds only the scenario's own faults and is dropped after it; its trace
has no verdict to share.
"""

from __future__ import annotations

import functools
import heapq

from ..client import (
    Outcome,
    Pause,
    RegisterPush,
    SendHttp,
    SendMachine,
    TimestampAllocator,
)
from ..envelope import ResponseEnvelope, decode_request, encode_request
from ..push import Heard, PushSession, PushWaits
from ..server.core import ServerCore, ValidationError
from ..server.handlers import HandlerRegistry, make_synthetic, synthetic_body
from .scenario import ScenarioSpec, send_options
from .trace import Trace, TraceRecorder, Verdict, body_digest
from .tree import DecisionTree, Path

# An event names a status or a channel by its enum member's ``_value_``:
# ``.value`` is a descriptor call, and a run reads several per send.

# Events one run may process. A scenario that needs more is diverging (an
# event that keeps rescheduling itself); the checker reports it.
MAX_STEPS = 1_000_000

# Every scenario of an enumeration sends the template's payloads alike, so
# what they give (the handler's bodies and their digests; a send's options,
# see ``scenario.send_options``) is made once per process. Each is a pure
# function of its arguments, and its value is immutable: nothing carries
# over from one run to the next. A handler's count of scripted failures
# stays each run's own.
_synthetic_body = functools.lru_cache(maxsize=256)(synthetic_body)
_body_digest = functools.lru_cache(maxsize=256)(body_digest)


class SimExchange:
    """Server-side view of one in-flight HTTP request/response pair."""

    def __init__(self, world: "SimWorld", send: "SimSend", env):
        self.world = world
        self.send = send
        self.env = env
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
        world.schedule(world.lat_push, world._client_push_message, self, data)

    def send_close(self) -> None:
        if self.alive:
            world = self.world
            world.trace.emit("push_close", conn=self.id)
            world.schedule(world.lat_push, world._client_push_message, self, None)


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
    def __init__(self, scenario: ScenarioSpec, *, break_dedup: bool = False,
                 path: Path | None = None):
        """``path`` is the scenario's way through a tree shared by many
        runs; without it, the run has a tree of the scenario's own."""
        if path is None:  # an empty tree answers every scenario with a path
            path = DecisionTree(scenario, scenario.faults,
                                break_dedup=break_dedup).answer(scenario, break_dedup)
        self.scenario = scenario
        self.now = 0
        self._heap: list = []
        self._seq = 0
        self.trace = TraceRecorder(lambda: self.now)
        path.begin(self.trace.events)
        self.path = path

        registry = HandlerRegistry()
        self.profiles = {}
        for svc in scenario.services:
            registry.add(make_synthetic(svc.name, output_size=svc.output_size,
                                        delay_ms=svc.delay_ms, fail_times=svc.fail_times,
                                        body=_synthetic_body))
            self.profiles[svc.name] = svc
        self.core = ServerCore(
            registry,
            auth_token=scenario.auth_token,
            clock=lambda: self.now,
            events=self._core_event,
            break_dedup=break_dedup,
        )
        self.lat_req = scenario.latency["request_ms"]
        self.lat_resp = scenario.latency["response_ms"]
        self.lat_push = scenario.latency["push_ms"]

        self.clients: dict[str, SimClient] = {}
        self.sends: list[SimSend] = []
        for index, spec in enumerate(scenario.sends):
            client = self.clients.get(spec.client)
            if client is None:
                client = SimClient(spec.client)
                self.clients[spec.client] = client
            self.sends.append(SimSend(index, spec, client))

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
        self.trace.record(f"server_{kind}", fields)  # the core's emit gives up its dict

    def schedule(self, delay_ms: int, fn, *args) -> None:
        """Call ``fn(*args)`` ``delay_ms`` from now, after every event
        already due at that instant."""
        heapq.heappush(self._heap, (self.now + max(0, int(delay_ms)), self._seq, fn, args))
        self._seq += 1

    # -- run ---------------------------------------------------------------

    def run(self) -> Trace:
        for send in self.sends:
            self.schedule(send.spec.t, self._start_send, send)
        # One event per instant keeps each trace as one event per fault
        # gave it: a scenario's faults at one instant are consecutive there.
        for t in self.path.tree.instants:
            self.schedule(t, self._instant, t)

        steps = 0
        end = self.scenario.end_time_ms
        heap = self._heap
        while heap and heap[0][0] <= end:
            if steps == MAX_STEPS:
                self.diverged = True
                break
            t, _, fn, args = heapq.heappop(heap)
            self.now = t
            fn(*args)
            steps += 1
        trace = self._assemble()
        self.path.end(trace, self.diverged)
        return trace

    # -- client side ---------------------------------------------------------

    def _start_send(self, send: SimSend) -> None:
        spec = send.spec
        device = spec.device_id if spec.device_id is not None else spec.client
        payload = spec.payload(send.index)
        stamp = (spec.timestamp_ms if spec.timestamp_ms is not None
                 else self.timestamps.allocate(device, self.now))
        opts = send_options(spec.http_timeout_ms, spec.push_wait_ms, spec.max_trials,
                            spec.forced, self.scenario.auth_token)
        send.machine = SendMachine(spec.service, payload, opts, device, stamp)
        key = send.machine.key
        if spec.forced:
            self.forced_keys.add(key)
        # The digest of the body the direct-mode handler run gives the
        # payload: what a delivery's body is checked against.
        size = self.profiles[spec.service].output_size
        reference_sha = _body_digest(
            payload if size is None else _synthetic_body(spec.service, payload, size))
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
            self.schedule(step.ms, self._pause_done, send, step.epoch)
        elif step is not None:
            if machine.digest is not None and send.client.conn is not None:
                send.client.conn.waits.release(machine.key, machine.digest)
            if isinstance(step, Outcome):
                self.trace.emit("send_done", send=send.index, status=step.status._value_,
                                channel=step.channel._value_, trials=step.trials_used,
                                body_len=len(step.body or b""))
            else:
                self.trace.emit("send_failed", send=send.index, error=step.kind,
                                detail=step.detail, trials=step.trials_used)

    def _pause_done(self, send: SimSend, epoch: int) -> None:
        self._interpret(send, send.machine.on_pause_done(epoch))

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
        self.schedule(eff.timeout_ms, self._http_timer, send, eff.epoch)
        if not send.client.online:
            self.trace.emit("request_lost_offline", send=send.index, trial=trial)
            return
        if self.path.dropped("drop_request", send.index, trial):
            self.trace.emit("fault_drop_request", send=send.index, trial=trial)
            return
        self.schedule(self.lat_req, self._server_receive, send, exchange, data)

    def _http_timer(self, send: SimSend, epoch: int) -> None:
        """The HTTP wait ran out: abandon its exchange, then register."""
        step = send.machine.on_http_timeout(epoch)
        if step is None:
            return
        self.trace.emit("http_timeout", send=send.index, trial=send.machine.rid.trial)
        exchange = send.current_exchange
        if exchange.alive:
            exchange.alive = False
            self.trace.emit("http_abandon", send=send.index, trial=exchange.env.rid.trial)
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
            self.expected_bodies[env.rid.dedup_key] = self.send_expected_bodies[send.index]
            self.schedule(self.profiles[env.service_name].delay_ms, self.core.execute, ticket)

    def _send_http_response(self, exchange: SimExchange, resp: ResponseEnvelope) -> None:
        send = exchange.send
        trial = exchange.env.rid.trial
        if not exchange.alive:
            self.trace.emit("http_write_dead", send=send.index, trial=trial)
            return
        self.wire["responses_bytes"] += len(resp.body)
        self.trace.emit("http_write", send=send.index, trial=trial,
                        status=resp.status._value_, channel=resp.channel._value_,
                        bytes=len(resp.body))
        if self.path.dropped("drop_http_response", send.index, trial):
            self.trace.emit("fault_drop_http_response", send=send.index, trial=trial)
            return
        self.schedule(self.lat_resp, self._client_receive_http, exchange, resp)

    def _client_receive_http(self, exchange: SimExchange, resp: ResponseEnvelope) -> None:
        send = exchange.send
        if not send.client.online or not exchange.alive:
            self.trace.emit("response_lost", send=send.index, trial=exchange.env.rid.trial)
            return
        self.trace.emit("http_response", send=send.index, trial=exchange.env.rid.trial,
                        status=resp.status._value_, channel=resp.channel._value_,
                        bytes=len(resp.body), body_sha=_body_digest(resp.body))
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
            self.schedule(eff.wait_ms, self._push_timer, send, eff.epoch)
        if not client.online:
            self.trace.emit("push_register_failed", send=send.index, reason="offline")
            self.schedule(self.lat_push, self._push_register_failed, send)
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
        self.schedule(self.lat_push, self._server_push_message, conn, data)

    def _push_register_failed(self, send: SimSend) -> None:
        self._interpret(send, send.machine.on_push_register_failed())

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
                            status=resp.status._value_, bytes=len(resp.body),
                            body_sha=_body_digest(resp.body))
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

    def _instant(self, t) -> None:
        """Apply the scenario's faults at instant ``t``, in order, skipping
        each that would change nothing now."""
        faults = self.path.tree.instants[t]
        while True:
            index = self.path.pick(t, tuple(map(self._fault_acts, faults)))
            if index < 0:
                return
            self._apply_fault(faults[index])

    def _fault_acts(self, fault) -> bool:
        """Whether applying ``fault``, a timed fault of the tree, which names
        a client of the sends, would change anything now."""
        client = self.clients[fault.client]
        kind = fault.kind
        if kind == "client_offline":
            return client.online
        if kind == "client_online":
            return not client.online
        conn = client.conn
        if kind == "kill_push_conn":
            return conn is not None and conn.alive
        return conn is not None and conn.session.open  # push_idle_close

    def _apply_fault(self, fault) -> None:
        """Apply ``fault``, which ``Path.pick`` chose because it acts now."""
        client = self.clients[fault.client]
        if fault.kind == "client_offline":
            client.online = False
            self.trace.emit("client_offline", client=client.name)
            for send in self.sends:
                if send.client is client and send.current_exchange is not None \
                        and send.current_exchange.alive:
                    send.current_exchange.alive = False
            self._kill_conn(client, reason="offline")
        elif fault.kind == "client_online":
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

    def close(self) -> None:
        """Let go of everything the run built; the world is unusable after.
        The clocks, the exchanges, the push connections and the queued
        events all point back at the world, so without this its objects
        live on as cycles until the garbage collector finds them, which,
        in an enumeration, it then does every few scenarios."""
        self.__dict__.clear()

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
                row["status"] = result.status._value_
                row["channel"] = result.channel._value_
                row["body_len"] = len(result.body or b"")
                row["body_sha"] = _body_digest(result.body or b"")
                if result.body is not None:
                    raw_bodies[send.index] = result.body
            elif result is not None:
                row["error"] = result.kind
            else:
                row["status"] = "incomplete"
            outcomes.append(row)

        counts = self.core.execution_counts()
        open_regs: list[str] = []
        for name in sorted(self.clients):
            client = self.clients[name]
            if client.conn is not None and client.conn.alive:
                open_regs.extend(client.conn.waits.keys())
        presence = set(self.core.presence_keys())
        push_presence = [key for key in counts if key in presence]

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
            cached_keys_at_end=self.core.completed_keys(),
            open_client_registrations=open_regs,
            push_presence_at_end=push_presence,
            clients_online_at_end={name: c.online for name, c in self.clients.items()},
            wire=self.wire,
            request_sizes=self.request_sizes,
            raw_bodies=raw_bodies,
            send_expected_bodies=self.send_expected_bodies,
            diverged=self.diverged,
        )


def run(scenario: ScenarioSpec, *, break_dedup: bool = False,
        tree: DecisionTree | None = None) -> Trace:
    """Deterministic: identical scenarios yield byte-identical traces.

    With ``tree``, a scenario that agrees with an earlier run of the tree
    at every decision that run reached gets that run's trace under its
    own name, from one walk of the tree; any other is simulated through
    the path that the tree gives, and its run joins the tree."""
    if tree is None:
        return _simulate(SimWorld(scenario, break_dedup=break_dedup))
    answer = tree.answer(scenario, break_dedup)
    if not isinstance(answer, Path):
        return answer
    tree.runs += 1
    trace = _simulate(SimWorld(scenario, break_dedup=break_dedup, path=answer))
    if trace.diverged:
        tree.runs += 1
        return _simulate(SimWorld(scenario, break_dedup=break_dedup))
    # The tree keeps this trace for its behaviour: every scenario it
    # answers with it shares its verdict.
    trace.verdict = Verdict()
    return trace


def _simulate(world: SimWorld) -> Trace:
    try:
        return world.run()
    finally:
        world.close()
