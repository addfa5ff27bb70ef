import json
import threading

import pytest

from rmaws.envelope import (Channel, RequestEnvelope, ResponseStatus,
                            make_request_id, payload_digest)
from rmaws.server import (
    AppendOnlyFileStore,
    HandlerRegistry,
    MemoryStore,
    ServerCore,
    StoredRecord,
    make_synthetic,
    synthetic_body,
)
from rmaws.server.core import _response

TOKEN = "sekrit"
P = payload_digest(b"p")  # the digest of ``envelope()``'s payload


class FakeClock:
    def __init__(self, t=0):
        self.t = t

    def __call__(self):
        return self.t


def envelope(service="orders", ts=1000, trial=1, forced=False, payload=b"p", device="devA"):
    return RequestEnvelope(make_request_id(device, ts, service, trial, forced), payload)


def counting_registry(name="orders", output=b"BODY", delay_ms=0):
    calls = []

    def fn(payload):
        calls.append(payload)
        return output

    reg = HandlerRegistry()
    reg.add(make_synthetic(name, delay_ms=delay_ms))
    reg.get(name).fn = fn
    return reg, calls


def make_core(reg=None, **kw):
    if reg is None:
        reg, _ = counting_registry()
    kw.setdefault("auth_token", TOKEN)
    kw.setdefault("clock", FakeClock())
    return ServerCore(reg, **kw)


def run_once(core, env, waiter=None):
    """Drive one request to completion the way a driver would."""
    handler = core.handlers.get(env.service_name)
    result = core.submit(env, waiter or object())
    if result.kind == "replay":
        return result.response, None
    assert result.kind == "execute"
    try:
        body = handler.run(env.payload)
        plan = core.finish(result.ticket, body=body)
    except Exception as exc:
        plan = core.finish(result.ticket, error_code=f"{type(exc).__name__}: {exc}")
    return _response(env.rid, plan.record, Channel.HTTP), plan


class FakeExchange:
    """An exchange as the core sees one: the request's env, and
    ``complete`` for its answer."""

    def __init__(self, env):
        self.env = env
        self.answers = []

    def complete(self, resp, error):
        self.answers.append((resp, error))


class FakePushConn:
    def __init__(self, writes_ok=True):
        self.writes_ok = writes_ok
        self.sent = []
        self.digests = []  # the payload each Deliver names

    def push_response(self, resp, digest):
        self.sent.append(resp)
        self.digests.append(digest)
        return self.writes_ok


def recording_core(reg=None, **kw):
    events = []
    core = make_core(reg, events=lambda kind, fields: events.append((kind, fields)), **kw)
    return core, events


def kinds(events):
    return [kind for kind, _ in events]


class TestReceiveExecute:
    """The request sequence both drivers run: ``receive``, then, for the
    request that must run, ``execute``."""

    @pytest.mark.parametrize("reason,env,token", [
        ("UnknownService", envelope(service="nope"), TOKEN),
        ("Unauthorized", envelope(), "wrong"),
    ])
    def test_validation_reasons_answer_at_once(self, reason, env, token):
        core, events = recording_core()
        exchange = FakeExchange(env)
        assert core.receive(env, token, exchange) is None
        [(resp, error)] = exchange.answers
        assert error.reason == reason
        assert resp.status is ResponseStatus.VALIDATION_ERROR
        assert resp.rid == env.rid and resp.channel is Channel.HTTP
        assert resp.body.startswith(reason.encode("ascii") + b": ")
        assert events[-1] == ("validation_failed", {"key": env.rid.dedup_key,
                                                    "trial": env.rid.trial,
                                                    "reason": reason, "t": 0})
        assert core.record(env.rid.dedup_key) is None

    def test_identity_conflict_answers_at_once(self):
        reg, calls = counting_registry()
        core, events = recording_core(reg)
        owner = envelope(payload=b"p")
        core.execute(core.receive(owner, TOKEN, FakeExchange(owner)))
        other = envelope(trial=2, payload=b"q")
        exchange = FakeExchange(other)
        assert core.receive(other, TOKEN, exchange) is None
        [(resp, error)] = exchange.answers
        assert error.reason == "IdentityConflict"
        assert resp.status is ResponseStatus.VALIDATION_ERROR and resp.rid == other.rid
        assert kinds(events)[-2:] == ["identity_conflict", "validation_failed"]
        assert calls == [b"p"]

    def test_execute_answers_under_the_executing_rid(self):
        reg, calls = counting_registry()
        core, events = recording_core(reg)
        env = envelope()
        exchange = FakeExchange(env)
        ticket = core.receive(env, TOKEN, exchange)
        assert ticket is not None and exchange.answers == []
        core.execute(ticket)
        [(resp, error)] = exchange.answers
        assert error is None
        assert (resp.rid, resp.status, resp.channel, resp.body) == (
            env.rid, ResponseStatus.OK, Channel.HTTP, b"BODY")
        assert calls == [b"p"]
        assert "push_delivered" not in kinds(events)

    def test_replay_answers_at_once(self):
        reg, calls = counting_registry()
        core = make_core(reg)
        core.execute(core.receive(envelope(), TOKEN, FakeExchange(envelope())))
        retry = envelope(trial=2)
        exchange = FakeExchange(retry)
        assert core.receive(retry, TOKEN, exchange) is None
        [(resp, error)] = exchange.answers
        assert error is None
        assert (resp.rid, resp.channel, resp.body) == (retry.rid, Channel.CACHE_REPLAY, b"BODY")
        assert calls == [b"p"]

    def test_two_waiters_each_answered_under_their_own_rid(self):
        reg, calls = counting_registry()
        core = make_core(reg)
        first, second = envelope(trial=1), envelope(trial=2)
        owner, waiter = FakeExchange(first), FakeExchange(second)
        ticket = core.receive(first, TOKEN, owner)
        assert core.receive(second, TOKEN, waiter) is None
        assert waiter.answers == []
        core.execute(ticket)
        assert [resp.rid for resp, _ in owner.answers] == [first.rid]
        assert [resp.rid for resp, _ in waiter.answers] == [second.rid]
        assert {resp.body for resp, _ in owner.answers + waiter.answers} == {b"BODY"}
        assert calls == [b"p"]

    def test_handler_that_raises_answers_service_error(self):
        reg = HandlerRegistry().add(make_synthetic("orders", fail_times=1))
        core, events = recording_core(reg)
        env = envelope()
        exchange = FakeExchange(env)
        core.execute(core.receive(env, TOKEN, exchange))
        [(resp, error)] = exchange.answers
        assert error is None
        assert resp.status is ResponseStatus.SERVICE_ERROR
        assert resp.body == b"service error: HandlerFailure: scripted failure in orders"
        record = core.record(env.rid.dedup_key)
        assert (record.status, record.body, record.error_code) == (
            "failed", b"", "HandlerFailure: scripted failure in orders")
        assert "record_failed" in kinds(events)
        # A failed record runs again on the next trial.
        retry = envelope(trial=2)
        assert core.receive(retry, TOKEN, FakeExchange(retry)) is not None

    def test_push_route_gets_the_body_under_its_rid(self):
        core, events = recording_core()
        env = envelope()
        ticket = core.receive(env, TOKEN, FakeExchange(env))
        conn = FakePushConn()
        assert core.register_push(env.rid.with_trial(2), P, conn, TOKEN) == ("OK", None)
        core.execute(ticket)
        [resp] = conn.sent
        assert (resp.rid, resp.channel, resp.body) == (env.rid.with_trial(2), Channel.PUSH, b"BODY")
        assert conn.digests == [P]
        assert events[-1] == ("push_delivered", {"key": env.rid.dedup_key, "size": 4, "t": 0})

    def test_push_route_for_a_reloaded_key_names_its_owner(self, tmp_path):
        # A record loaded from a store names its owner's payload: another
        # payload under the key is refused, and the forced re-run of the
        # owner's is delivered naming it.
        store = AppendOnlyFileStore(str(tmp_path / "records.log"))
        run_once(make_core(store=store), envelope())
        core = make_core(store=AppendOnlyFileStore(str(tmp_path / "records.log")))
        other = envelope(trial=2, forced=True, payload=b"q")
        exchange = FakeExchange(other)
        assert core.receive(other, TOKEN, exchange) is None
        assert exchange.answers[0][1].reason == "IdentityConflict"
        forced = envelope(trial=3, forced=True)
        ticket = core.receive(forced, TOKEN, FakeExchange(forced))
        conn = FakePushConn()
        assert core.register_push(forced.rid, P, conn, TOKEN) == ("OK", None)
        core.execute(ticket)
        assert conn.digests == [P]
        assert core.record(forced.rid.dedup_key).payload_digest == P

    def test_http_arrival_supersedes_push_registration(self):
        core = make_core()
        first, second = envelope(trial=1), envelope(trial=2)
        ticket = core.receive(first, TOKEN, FakeExchange(first))
        conn = FakePushConn()
        assert core.register_push(first.rid, P, conn, TOKEN) == ("OK", None)
        waiter = FakeExchange(second)
        assert core.receive(second, TOKEN, waiter) is None
        core.execute(ticket)
        [(resp, error)] = waiter.answers
        assert error is None
        assert (resp.rid, resp.channel, resp.body) == (second.rid, Channel.HTTP, b"BODY")
        assert conn.sent == []

    def test_failed_push_write_leaves_the_body_replayable(self):
        core, events = recording_core()
        env = envelope()
        ticket = core.receive(env, TOKEN, FakeExchange(env))
        conn = FakePushConn(writes_ok=False)
        core.register_push(env.rid.with_trial(2), P, conn, TOKEN)
        core.execute(ticket)
        assert len(conn.sent) == 1
        assert events[-1] == ("push_write_failed", {"key": env.rid.dedup_key, "t": 0})
        assert core.presence_route(env.rid.dedup_key) is None
        retry = envelope(trial=3)
        exchange = FakeExchange(retry)
        assert core.receive(retry, TOKEN, exchange) is None
        [(resp, _)] = exchange.answers
        assert (resp.channel, resp.body) == (Channel.CACHE_REPLAY, b"BODY")


class TestValidate:
    def test_ok(self):
        core = make_core()
        assert core.validate(envelope(), TOKEN) is None

    def test_unknown_service(self):
        core = make_core()
        err = core.validate(envelope(service="nope"), TOKEN)
        assert err is not None and err.reason == "UnknownService"

    def test_unauthorized(self):
        core = make_core()
        err = core.validate(envelope(), "wrong")
        assert err is not None and err.reason == "Unauthorized"
        resp = err.response_for(envelope().rid, Channel.HTTP)
        assert resp.status is ResponseStatus.VALIDATION_ERROR

    # Wrong tokens of the right one's length, shorter, longer and empty,
    # one not ASCII and one with a lone surrogate: compare_digest takes
    # str only when it is ASCII, so every token is compared as bytes.
    WRONG_TOKENS = ["sekriT", "sekri", "sekrit!", "", "s\u00e9krit", "sekri\ud800"]

    @pytest.mark.parametrize("token", WRONG_TOKENS)
    def test_wrong_token_of_any_length_is_unauthorized(self, token):
        core = make_core()
        err = core.validate(envelope(), token)
        assert err is not None and err.reason == "Unauthorized"
        assert core.register_push(envelope().rid, P, "conn", token) == ("UA", None)
        assert core.presence_route(envelope().rid.dedup_key) is None

    def test_non_ascii_server_token(self):
        core = make_core(auth_token="s\u00e9krit")
        assert core.validate(envelope(), "s\u00e9krit") is None
        assert core.validate(envelope(), "sekrit").reason == "Unauthorized"


class TestCacheLookup:
    """The cache check that submit makes before it grants an execution."""

    def test_fresh_key_misses(self):
        core = make_core()
        env = envelope()
        assert core.record(env.rid.dedup_key) is None
        assert core.submit(env, object()).kind == "execute"

    def test_completed_hit_and_forced_miss(self):
        core = make_core()
        env = envelope()
        run_once(core, env)
        assert core.record(env.rid.dedup_key).status == "ok"
        replay = core.submit(envelope(trial=2), object())
        assert replay.kind == "replay" and replay.response.body == b"BODY"
        assert core.submit(envelope(trial=3, forced=True), object()).kind == "execute"

    def test_pending(self):
        core = make_core()
        env = envelope()
        result = core.submit(env, object())
        assert result.kind == "execute"
        assert core.record(env.rid.dedup_key) is None  # no completion yet
        assert core.submit(envelope(trial=2), object()).kind == "wait"


class TestDeduplication:
    def test_repeat_rid_replays_without_reexecution(self):
        # Oracle: the handler's own invocation counter.
        reg, calls = counting_registry()
        core = make_core(reg)
        first = envelope(trial=1)
        retry = envelope(trial=2)
        resp1, _ = run_once(core, first)
        resp2, _ = run_once(core, retry)
        assert len(calls) == 1
        assert core.execution_count(first.rid.dedup_key) == 1
        assert resp2.channel is Channel.CACHE_REPLAY
        assert resp2.body == resp1.body

    def test_failed_record_is_not_replayed(self):
        # Oracle: invocation counter reaches 2 after a scripted failure.
        reg = HandlerRegistry().add(make_synthetic("orders", fail_times=1))
        calls = []
        inner = reg.get("orders").fn

        def fn(payload):
            calls.append(payload)
            return inner(payload)

        reg.get("orders").fn = fn
        core = make_core(reg)
        env = envelope()
        resp1, _ = run_once(core, env)
        assert resp1.status is ResponseStatus.SERVICE_ERROR
        assert core.record(env.rid.dedup_key).status == "failed"
        resp2, _ = run_once(core, envelope(trial=2))
        assert resp2.status is ResponseStatus.OK
        assert len(calls) == 2
        assert core.execution_count(env.rid.dedup_key) == 2

    def test_single_flight_attaches_waiters(self):
        reg, calls = counting_registry()
        core = make_core(reg)
        env = envelope()
        grant = core.submit(env, "w0")
        assert grant.kind == "execute"
        for i in range(5):
            attached = core.submit(envelope(trial=i + 2), f"w{i + 1}")
            assert attached.kind == "wait"
        body = core.handlers.get("orders").run(env.payload)
        plan = core.finish(grant.ticket, body=body)
        assert len(plan.waiters) == 6
        assert len(calls) == 1
        assert _response(env.rid, plan.record, Channel.HTTP).body == b"BODY"
        assert plan.record is core.record(env.rid.dedup_key)  # one record, cached and delivered

    def test_single_flight_under_threads(self):
        release = threading.Event()
        calls = []

        def slow(payload):
            calls.append(payload)
            release.wait(5)
            return b"S"

        reg = HandlerRegistry().add(make_synthetic("orders"))
        reg.get("orders").fn = slow
        core = make_core(reg)
        results = []

        def worker(trial):
            resp, _ = run_once(core, envelope(trial=trial))
            results.append(resp.body)

        first = core.submit(envelope(trial=1), "owner")
        assert first.kind == "execute"
        threads = [threading.Thread(target=lambda t=t: results.append(core.submit(envelope(trial=t), f"t{t}").kind))
                   for t in range(2, 10)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        release.set()
        plan = core.finish(first.ticket, body=core.handlers.get("orders").run(b"p"))
        assert results.count("wait") == 8
        assert len(plan.waiters) == 9
        assert len(calls) == 1

    def test_break_dedup_reexecutes(self):
        reg, calls = counting_registry()
        core = make_core(reg, break_dedup=True)
        run_once(core, envelope(trial=1))
        run_once(core, envelope(trial=2))
        assert len(calls) == 2
        assert core.execution_count(envelope().rid.dedup_key) == 2


class TestForced:
    def test_forced_reexecutes_and_overwrites(self):
        bodies = iter([b"first", b"second"])
        reg = HandlerRegistry().add(make_synthetic("orders"))
        reg.get("orders").fn = lambda p: next(bodies)
        core = make_core(reg)
        plain = envelope()
        resp1, _ = run_once(core, plain)
        assert resp1.body == b"first"

        forced = envelope(trial=2, forced=True)
        resp2, _ = run_once(core, forced)
        assert resp2.body == b"second"
        assert core.execution_count(plain.rid.dedup_key) == 2

        resp3, _ = run_once(core, envelope(trial=3))
        assert resp3.channel is Channel.CACHE_REPLAY
        assert resp3.body == b"second"
        assert core.execution_count(plain.rid.dedup_key) == 2

    def test_old_result_replayable_while_forced_runs(self):
        reg, calls = counting_registry()
        core = make_core(reg)
        run_once(core, envelope())
        grant = core.submit(envelope(trial=2, forced=True), "forced-waiter")
        assert grant.kind == "execute"
        mid = core.submit(envelope(trial=3), "plain-waiter")
        assert mid.kind == "replay"
        assert mid.response.body == b"BODY"
        core.finish(grant.ticket, body=b"NEW")
        after = core.submit(envelope(trial=4), "w")
        assert after.response.body == b"NEW"

    def test_concurrent_forced_coalesce(self):
        core = make_core()
        run_once(core, envelope())
        g1 = core.submit(envelope(trial=2, forced=True), "a")
        g2 = core.submit(envelope(trial=3, forced=True), "b")
        assert g1.kind == "execute"
        assert g2.kind == "wait"


class TestIdentityConflict:
    """A duplicate key whose payload differs is another request under a
    colliding id: it is rejected, never answered with the owner's body."""

    def test_completed_key_rejects_different_payload(self):
        reg, calls = counting_registry()
        core = make_core(reg)
        owner = envelope(payload=b"p")
        run_once(core, owner)
        result = core.submit(envelope(trial=2, payload=b"q"), "w")
        assert result.kind == "reject"
        assert result.error.reason == "IdentityConflict"
        resp = result.error.response_for(owner.rid, Channel.HTTP)
        assert resp.status is ResponseStatus.VALIDATION_ERROR
        assert core.execution_count(owner.rid.dedup_key) == 1
        assert calls == [b"p"]
        assert core.presence_route(owner.rid.dedup_key) is None
        # The owner's own retry still replays.
        assert core.submit(envelope(trial=3, payload=b"p"), "w").kind == "replay"

    def test_pending_key_rejects_instead_of_coalescing(self):
        core = make_core()
        grant = core.submit(envelope(payload=b"p"), "owner")
        assert grant.kind == "execute"
        result = core.submit(envelope(trial=2, payload=b"q"), "other")
        assert result.kind == "reject"
        plan = core.finish(grant.ticket, body=b"BODY")
        assert plan.waiters == ["owner"]
        assert core.execution_count(grant.ticket.key) == 1

    def test_forced_with_different_payload_rejected(self):
        core = make_core()
        run_once(core, envelope(payload=b"p"))
        result = core.submit(envelope(trial=2, forced=True, payload=b"q"), "w")
        assert result.kind == "reject"
        assert core.execution_count(envelope().rid.dedup_key) == 1

    def test_expired_entry_takes_new_payload(self):
        clock = FakeClock(0)
        reg, calls = counting_registry()
        core = make_core(reg, clock=clock, cache_ttl_ms=100)
        run_once(core, envelope(payload=b"p"))
        clock.t = 150
        run_once(core, envelope(trial=2, payload=b"q"))
        assert calls == [b"p", b"q"]
        assert core.submit(envelope(trial=3, payload=b"p"), "w").kind == "reject"

    def test_reloaded_record_rejects_different_payload(self, tmp_path):
        path = str(tmp_path / "records.jsonl")
        run_once(make_core(store=AppendOnlyFileStore(path)), envelope(payload=b"p"))
        reg, calls = counting_registry()
        core = make_core(reg, store=AppendOnlyFileStore(path))
        result = core.submit(envelope(trial=2, payload=b"q"), "w")
        assert result.kind == "reject"
        assert result.error.reason == "IdentityConflict"
        assert core.submit(envelope(trial=3, payload=b"p"), "w").kind == "replay"
        assert calls == []


class TestPresence:
    """Presence holds push registrations only. An HTTP arrival that is
    granted the execution or attached to it supersedes the key's push
    registration; replays and rejections leave it alone."""

    @pytest.mark.parametrize("pending", [False, True])
    def test_http_arrival_supersedes_push_registration(self, pending):
        core, events = recording_core()
        env = envelope()
        key = env.rid.dedup_key
        grant = core.submit(env, "w1") if pending else None
        assert core.register_push(env.rid, P, "conn1", TOKEN)[0] == ("OK" if pending else "NC")
        result = core.submit(envelope(trial=2), "w2")
        assert result.kind == ("wait" if pending else "execute")
        assert core.presence_route(key) is None
        assert ("presence_deregister", {"key": key, "route": "push",
                                        "reason": "http_arrival", "t": 0}) in events
        plan = core.finish((grant or result).ticket, body=b"B")
        assert plan.push is None
        assert plan.waiters == (["w1", "w2"] if pending else ["w2"])

    def test_register_after_supersede_is_stored_again(self):
        core = make_core()
        env = envelope()
        grant = core.submit(env, "w1")
        core.register_push(env.rid, P, "conn1", TOKEN)
        assert core.submit(envelope(trial=2), "w2").kind == "wait"
        # The client gives up on trial 2's exchange and registers again on
        # the same connection: a new registration, not a duplicate.
        assert core.register_push(env.rid.with_trial(2), P, "conn1", TOKEN) == ("OK", None)
        plan = core.finish(grant.ticket, body=b"B")
        assert (plan.push.conn, plan.push.rid) == ("conn1", env.rid.with_trial(2))

    def test_replay_and_reject_leave_push_registration(self):
        core = make_core()
        run_once(core, envelope(payload=b"p"))
        forced = core.submit(envelope(trial=2, forced=True, payload=b"p"), "w")
        key = envelope().rid.dedup_key
        core.register_push(envelope().rid.with_trial(3), P, "conn1", TOKEN)
        assert core.submit(envelope(trial=4, payload=b"p"), "w").kind == "replay"
        assert core.submit(envelope(trial=5, payload=b"q"), "w").kind == "reject"
        assert core.presence_route(key).conn == "conn1"
        assert core.finish(forced.ticket, body=b"B").push.conn == "conn1"

    def test_abandoned_exchange_leaves_body_cached(self):
        core = make_core()
        env = envelope()
        # The client has abandoned the exchange, so its answer goes nowhere.
        ticket = core.receive(env, TOKEN, FakeExchange(env))
        core.execute(ticket)
        assert core.record(env.rid.dedup_key).status == "ok"
        retry = envelope(trial=2)
        exchange = FakeExchange(retry)
        assert core.receive(retry, TOKEN, exchange) is None
        [(resp, _)] = exchange.answers
        assert (resp.channel, resp.body) == (Channel.CACHE_REPLAY, b"BODY")
        meta, pushed = core.register_push(env.rid.with_trial(3), P, "conn1", TOKEN)
        assert (meta, pushed.channel, pushed.body) == ("OK", Channel.PUSH, b"BODY")

    def test_finish_returns_push_route(self):
        core = make_core()
        env = envelope()
        grant = core.submit(env, "w")
        meta, resp = core.register_push(env.rid.with_trial(2), P, "conn1", TOKEN)
        assert (meta, resp) == ("OK", None)
        plan = core.finish(grant.ticket, body=b"B")
        assert plan.push is not None and plan.push.conn == "conn1"
        assert core.presence_route(env.rid.dedup_key) is None


class TestRegisterPush:
    def test_bad_token(self):
        core = make_core()
        assert core.register_push(envelope().rid, P, "c", "nope") == ("UA", None)

    def test_no_record_acks_not_cached(self):
        core = make_core()
        meta, resp = core.register_push(envelope().rid, P, "c", TOKEN)
        assert (meta, resp) == ("NC", None)

    def test_completed_record_delivers_immediately(self):
        core = make_core()
        env = envelope()
        run_once(core, env)
        meta, resp = core.register_push(env.rid.with_trial(2), P, "c", TOKEN)
        assert meta == "OK"
        assert resp.channel is Channel.PUSH
        assert resp.body == b"BODY"
        assert core.presence_route(env.rid.dedup_key) is None

    def test_duplicate_registration_is_idempotent(self):
        core = make_core()
        env = envelope()
        core.submit(env, "w")
        assert core.register_push(env.rid, P, "c", TOKEN)[0] == "OK"
        assert core.register_push(env.rid, P, "c", TOKEN)[0] == "DUP"

    def test_register_for_another_payload_on_the_same_connection_is_not_a_duplicate(self):
        # No record yet, so nothing to check the payloads against: the
        # later Register replaces the route, and the Deliver names its payload.
        core = make_core()
        rid = envelope().rid
        assert core.register_push(rid, P, "c", TOKEN) == ("NC", None)
        assert core.register_push(rid, payload_digest(b"q"), "c", TOKEN) == ("NC", None)
        assert core.presence_route(rid.dedup_key).digest == payload_digest(b"q")

    @pytest.mark.parametrize("pending", [True, False])
    def test_other_payload_gets_identity_conflict(self, pending):
        core, events = recording_core()
        env = envelope()
        grant = core.submit(env, "w")
        core.register_push(env.rid, P, "owner", TOKEN)
        if not pending:
            core.finish(grant.ticket, body=b"BODY")
        meta, resp = core.register_push(env.rid.with_trial(2), payload_digest(b"q"), "c", TOKEN)
        assert meta == "OK"
        assert (resp.rid, resp.status, resp.channel) == \
            (env.rid.with_trial(2), ResponseStatus.VALIDATION_ERROR, Channel.PUSH)
        assert resp.body.startswith(b"IdentityConflict: ")
        assert ("identity_conflict", {"key": env.rid.dedup_key, "trial": 2, "t": 0}) in events
        route = core.presence_route(env.rid.dedup_key)
        assert (route and route.conn) == ("owner" if pending else None)

    def test_expired_entry_is_not_checked(self):
        clock = FakeClock(0)
        core = make_core(clock=clock, cache_ttl_ms=100)
        run_once(core, envelope())
        clock.t = 150
        meta, resp = core.register_push(envelope(trial=2).rid, payload_digest(b"q"), "c", TOKEN)
        assert (meta, resp) == ("OK", None)
        assert core.presence_route(envelope().rid.dedup_key).conn == "c"

    def test_reloaded_record_gives_other_payload_identity_conflict(self, tmp_path):
        store = AppendOnlyFileStore(str(tmp_path / "records.log"))
        run_once(make_core(store=store), envelope())
        core = make_core(store=AppendOnlyFileStore(str(tmp_path / "records.log")))
        meta, resp = core.register_push(envelope(trial=2).rid, payload_digest(b"q"), "c", TOKEN)
        assert (meta, resp.status, resp.channel) == ("OK", ResponseStatus.VALIDATION_ERROR,
                                                     Channel.PUSH)
        assert resp.body.startswith(b"IdentityConflict: ")
        meta, resp = core.register_push(envelope(trial=3).rid, P, "c", TOKEN)
        assert (meta, resp.status, resp.body) == ("OK", ResponseStatus.OK, b"BODY")

    def test_conn_closed_clears_only_its_keys(self):
        core = make_core()
        ridA = envelope(ts=1).rid
        ridB = envelope(ts=2).rid
        core.submit(envelope(ts=1), "w1")
        core.submit(envelope(ts=2), "w2")
        core.register_push(ridA, P, "connA", TOKEN)
        core.register_push(ridB, P, "connB", TOKEN)
        core.conn_closed("connA")
        assert core.presence_route(ridA.dedup_key) is None
        assert core.presence_route(ridB.dedup_key) is not None


class TestTtl:
    def test_expired_entry_reexecutes(self):
        clock = FakeClock(0)
        reg, calls = counting_registry()
        core = make_core(reg, clock=clock, cache_ttl_ms=100)
        run_once(core, envelope())
        clock.t = 90
        assert core.submit(envelope(trial=2), object()).kind == "replay"
        clock.t = 150
        run_once(core, envelope(trial=3))
        assert len(calls) == 2
        assert core.record(envelope().rid.dedup_key).completed_at == 150


class TestStore:
    def test_memory_store_round_trip(self):
        store = MemoryStore()
        reg, _ = counting_registry()
        core = make_core(reg, store=store)
        run_once(core, envelope())
        key = envelope().rid.dedup_key
        assert store.load_all()[key] is core.record(key)  # the record it caches, not a copy

        reg2, calls2 = counting_registry()
        core2 = make_core(reg2, store=store)
        assert core2.record(key).payload_digest == P
        resp, _ = run_once(core2, envelope(trial=2))
        assert resp.channel is Channel.CACHE_REPLAY
        assert calls2 == []

    def test_file_store_round_trip(self, tmp_path):
        path = str(tmp_path / "records.jsonl")
        store = AppendOnlyFileStore(path)
        reg, _ = counting_registry()
        core = make_core(reg, store=store)
        env = envelope()
        run_once(core, env)
        saved = core.record(env.rid.dedup_key)
        assert AppendOnlyFileStore(path).load_all() == {env.rid.dedup_key: saved}
        assert saved.payload_digest == P

        reg2, calls2 = counting_registry()
        core2 = make_core(reg2, store=AppendOnlyFileStore(path))
        resp, _ = run_once(core2, envelope(trial=2))
        assert resp.channel is Channel.CACHE_REPLAY
        assert resp.body == b"BODY"
        assert calls2 == []

    def test_file_store_round_trips_a_failed_record(self, tmp_path):
        path = str(tmp_path / "records.jsonl")
        failed = StoredRecord("failed", b"", "HandlerFailure: x", 7, 2, P)
        AppendOnlyFileStore(path).save("k", failed)
        assert AppendOnlyFileStore(path).load_all() == {"k": failed}

    def test_file_store_drops_a_torn_last_record(self, tmp_path):
        # A crash in the middle of ``save`` cuts the last line short at any
        # byte: the whole records before it load, the file is cut back to
        # them, and the next record saved starts a line of its own.
        path = tmp_path / "records.jsonl"
        store = AppendOnlyFileStore(str(path))
        first, second, third = (StoredRecord("ok", b"body%d" % i, None, i, 1, P) for i in range(3))
        store.save("k0", first)
        store.save("k1", second)
        whole = path.read_bytes()
        cut = whole.rindex(b"\n", 0, len(whole) - 1) + 1
        for end in range(cut, len(whole)):
            path.write_bytes(whole[:end])
            assert AppendOnlyFileStore(str(path)).load_all() == {"k0": first}
            assert path.read_bytes() == whole[:cut]
            store.save("k2", third)
            assert AppendOnlyFileStore(str(path)).load_all() == {"k0": first, "k2": third}

    def test_file_store_refuses_a_corrupt_whole_line(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_bytes(b'{"key": "k0", "status\n')
        with pytest.raises(ValueError, match=r"records\.jsonl:1: not a record"):
            AppendOnlyFileStore(str(path)).load_all()

    GOOD = {"key": "k", "status": "ok", "body": "Qk9EWQ==", "error_code": None,
            "completed_at": 1, "execution_count": 1, "payload_digest": P.hex()}

    BAD_LINES = {
        "array": b"[1, 2]",
        "string": b'"text"',
        "not-utf8": b"\xff\xfe",
        "nested-too-deep": b"[" * 100_000,
        "no-body": b'{"key":"k","status":"ok","completed_at":1,"execution_count":1}',
        # A whole record as saved before records named their payload's digest.
        "no-digest": json.dumps({k: v for k, v in GOOD.items() if k != "payload_digest"}).encode(),
        "int-key": json.dumps(dict(GOOD, key=7)).encode(),
        "unknown-status": json.dumps(dict(GOOD, status="done")).encode(),
        "ok-with-error": json.dumps(dict(GOOD, error_code="Boom")).encode(),
        "failed-without-error": json.dumps(dict(GOOD, status="failed")).encode(),
        "text-time": json.dumps(dict(GOOD, completed_at="1")).encode(),
        "fraction-time": json.dumps(dict(GOOD, completed_at=1.5)).encode(),
        "bool-count": json.dumps(dict(GOOD, execution_count=True)).encode(),
        "body-not-base64": json.dumps(dict(GOOD, body="not base64!")).encode(),
        "body-unpadded": json.dumps(dict(GOOD, body="QQ")).encode(),
        "short-digest": json.dumps(dict(GOOD, payload_digest=P.hex()[:-2])).encode(),
        "digest-not-hex": json.dumps(dict(GOOD, payload_digest="g" * 64)).encode(),
        "digest-with-space": json.dumps(dict(GOOD, payload_digest=" " + P.hex()[1:])).encode(),
        "null-digest": json.dumps(dict(GOOD, payload_digest=None)).encode(),
    }

    @pytest.mark.parametrize("line", BAD_LINES.values(), ids=BAD_LINES.keys())
    def test_file_store_names_the_line_that_is_not_a_record(self, tmp_path, line):
        path = tmp_path / "records.jsonl"
        path.write_bytes(json.dumps(self.GOOD).encode() + b"\n" + line + b"\n")
        with pytest.raises(ValueError, match=r"records\.jsonl:2: not a record: "):
            AppendOnlyFileStore(str(path)).load_all()

    def test_file_store_loads_a_well_formed_line(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_bytes(json.dumps(self.GOOD).encode() + b"\n")
        assert AppendOnlyFileStore(str(path)).load_all() == {
            "k": StoredRecord("ok", b"BODY", None, 1, 1, P)}


class TestSyntheticHandlers:
    def test_synthetic_body_deterministic_and_sized(self):
        a = synthetic_body("svc", b"p", 191745)
        b = synthetic_body("svc", b"p", 191745)
        assert a == b
        assert len(a) == 191745
        assert synthetic_body("svc", b"q", 64) != synthetic_body("svc", b"p", 64)

    @pytest.mark.parametrize("size", [5, 191745])
    def test_configured_output_size(self, size):
        handler = make_synthetic("orders", output_size=size)
        assert len(handler.run(b"payload")) == size

    def test_echo_by_default(self):
        handler = make_synthetic("orders")
        assert handler.run(b"zz") == b"zz"

    def test_fail_times(self):
        handler = make_synthetic("orders", fail_times=2)
        for _ in range(2):
            with pytest.raises(Exception):
                handler.run(b"p")
        assert handler.run(b"p") == b"p"
