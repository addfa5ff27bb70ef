import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmaws.client import (
    ClientError,
    Outcome,
    Pause,
    RegisterPush,
    SendHttp,
    SendMachine,
    SendOptions,
    TimestampAllocator,
    build,
)
from rmaws.envelope import (
    Channel,
    ResponseEnvelope,
    ResponseStatus,
    decode_request,
    encode_request,
)

OPTS = SendOptions(http_timeout_ms=1000, push_wait_ms=2000, max_trials=3)


def machine(opts=OPTS, forced=False):
    if forced:
        opts = SendOptions(http_timeout_ms=opts.http_timeout_ms, push_wait_ms=opts.push_wait_ms,
                           max_trials=opts.max_trials, forced=True)
    return SendMachine("orders", b"payload", opts, "devA", now_ms=1_000)


def ok_response(m, channel=Channel.HTTP, body=b"B"):
    return ResponseEnvelope(m.rid, ResponseStatus.OK, channel, body)


class TestBuild:
    def test_encoded_size_is_payload_plus_overhead(self):
        env = build("orders", b"x" * 25, False, 1, lambda: 1000, "devA")
        assert len(encode_request(env)) == 251

    def test_trials_share_identity(self):
        e1 = build("orders", b"p", False, 1, lambda: 1000, "devA")
        e2 = build("orders", b"p", False, 2, lambda: 1000, "devA")
        assert e1.rid.dedup_key == e2.rid.dedup_key
        assert (e1.rid.trial, e2.rid.trial) == (1, 2)

    def test_forced_flag_round_trips(self):
        env = build("orders", b"p", True, 1, lambda: 1000, "devA")
        decoded = decode_request(encode_request(env))
        assert decoded.is_forced is True
        assert decoded.rid.forced is True


class TestTimestampAllocator:
    def test_same_instant_gets_distinct_stamps_per_device(self):
        alloc = TimestampAllocator()
        assert [alloc.allocate("devA", 1_000) for _ in range(3)] == [1_000, 1_001, 1_002]
        assert alloc.allocate("devB", 1_000) == 1_000

    def test_follows_the_clock_once_it_catches_up(self):
        alloc = TimestampAllocator()
        alloc.allocate("devA", 1_000)
        assert alloc.allocate("devA", 500) == 1_001  # clock stepped back
        assert alloc.allocate("devA", 5_000) == 5_000

    def test_concurrent_allocations_never_repeat(self):
        alloc = TimestampAllocator()
        stamps: list[int] = []
        lock = threading.Lock()

        def worker():
            mine = [alloc.allocate("devA", 1_000) for _ in range(500)]
            with lock:
                stamps.extend(mine)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10.0)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert sorted(stamps) == list(range(1_000, 1_000 + 8 * 500))


class TestHappyPath:
    def test_http_response_finishes(self):
        m = machine()
        step = m.start()
        assert isinstance(step, SendHttp)
        assert step.timeout_ms == 1000
        outcome = m.on_http_response(ok_response(m))
        assert isinstance(outcome, Outcome) and outcome is m.result
        assert outcome.channel is Channel.HTTP
        assert outcome.trials_used == 1
        assert outcome.body == b"B"

    def test_service_error_is_an_outcome_without_body(self):
        m = machine()
        m.start()
        resp = ResponseEnvelope(m.rid, ResponseStatus.SERVICE_ERROR, Channel.HTTP, b"boom")
        outcome = m.on_http_response(resp)
        assert isinstance(outcome, Outcome)
        assert outcome.status is ResponseStatus.SERVICE_ERROR
        assert outcome.body is None

    def test_validation_error_rejects(self):
        m = machine()
        m.start()
        resp = ResponseEnvelope(m.rid, ResponseStatus.VALIDATION_ERROR, Channel.HTTP, b"bad")
        error = m.on_http_response(resp)
        assert isinstance(error, ClientError) and error is m.result
        assert error.kind == "Rejected"


class TestTimeoutFallback:
    def test_timeout_abandons_and_registers(self):
        m = machine()
        start = m.start()
        reg = m.on_http_timeout(start.epoch)
        assert m.state == SendMachine.WAIT_PUSH  # the HTTP wait is over
        assert isinstance(reg, RegisterPush)
        assert reg.rid == m.rid
        assert reg.wait_ms == 2000
        assert reg.digest == m.digest

    def test_push_delivery_finishes_with_push_channel(self):
        m = machine()
        start = m.start()
        reg = m.on_http_timeout(start.epoch)
        outcome = m.on_push_delivered(ok_response(m, channel=Channel.PUSH))
        assert isinstance(outcome, Outcome) and outcome is m.result
        assert outcome.channel is Channel.PUSH
        assert outcome.trials_used == 1
        assert reg.epoch == m.epoch
        assert m.digest is not None  # the driver releases the push wait

    def test_push_timeout_retries_with_same_key(self):
        m = machine()
        start = m.start()
        reg = m.on_http_timeout(start.epoch)
        retry = m.on_push_timeout(reg.epoch)
        assert isinstance(retry, SendHttp)
        assert retry.env.rid.trial == 2
        assert retry.env.rid.dedup_key == reg.rid.dedup_key

    def test_exhaustion_after_max_trials(self):
        m = machine(SendOptions(http_timeout_ms=10, push_wait_ms=10, max_trials=2))
        step = m.start()
        for expected_trial in (1, 2):
            assert m.rid.trial == expected_trial
            reg = m.on_http_timeout(step.epoch)
            step = m.on_push_timeout(reg.epoch)
        assert isinstance(step, ClientError) and step is m.result
        assert step.kind == "Exhausted"
        assert step.trials_used == 2
        assert m.digest is not None  # the driver releases the push wait

    def test_transport_reset_falls_back_like_timeout(self):
        m = machine()
        m.start()
        assert isinstance(m.on_http_transport_error(refused=False), RegisterPush)

    def test_connection_refused_is_terminal(self):
        m = machine()
        m.start()
        error = m.on_http_transport_error(refused=True)
        assert isinstance(error, ClientError) and error is m.result
        assert error.kind == "Transport"
        assert m.digest is None  # no push wait began, so none to release


class TestPushChannelFailures:
    def test_register_failure_paces_then_retries(self):
        m = machine()
        start = m.start()
        m.on_http_timeout(start.epoch)
        paused = m.on_push_register_failed()
        assert isinstance(paused, Pause)
        assert paused.ms == 2000
        retry = m.on_pause_done(paused.epoch)
        assert isinstance(retry, SendHttp)
        assert retry.env.rid.trial == 2

    def test_dead_connection_retries_immediately(self):
        m = machine()
        start = m.start()
        m.on_http_timeout(start.epoch)
        retry = m.on_push_dead()
        assert isinstance(retry, SendHttp)
        assert retry.env.rid.trial == 2


class TestLostRegister:
    def test_first_loss_registers_again_in_the_same_wait(self):
        m = machine()
        start = m.start()
        reg = m.on_http_timeout(start.epoch)
        again = m.on_push_lost()
        assert again == reg  # same rid, wait, epoch and digest
        assert m.state == SendMachine.WAIT_PUSH and m.rid.trial == 1
        assert m.on_push_timeout(reg.epoch).env.rid.trial == 2  # the wait's timer still counts

    def test_second_loss_in_one_wait_moves_to_the_next_trial(self):
        m = machine()
        start = m.start()
        m.on_http_timeout(start.epoch)
        m.on_push_lost()
        retry = m.on_push_lost()
        assert isinstance(retry, SendHttp)
        assert retry.env.rid.trial == 2

    def test_each_wait_may_register_again_once(self):
        m = machine()
        start = m.start()
        reg = m.on_http_timeout(start.epoch)
        m.on_push_lost()
        retry = m.on_push_timeout(reg.epoch)
        reg2 = m.on_http_timeout(retry.epoch)
        assert m.on_push_lost() == reg2
        assert reg2.rid.trial == 2 and reg2.digest == reg.digest

    def test_loss_after_the_wait_ended_does_nothing(self):
        m = machine()
        start = m.start()
        reg = m.on_http_timeout(start.epoch)
        m.on_push_timeout(reg.epoch)  # back to waiting on HTTP
        assert m.on_push_lost() is None
        m.on_http_response(ok_response(m))
        assert m.state == SendMachine.DONE
        assert m.on_push_lost() is None


class TestRaces:
    def test_late_http_response_after_done_is_dropped(self):
        m = machine()
        start = m.start()
        m.on_http_timeout(start.epoch)
        m.on_push_delivered(ok_response(m, channel=Channel.PUSH))
        assert m.on_http_response(ok_response(m)) is None

    def test_duplicate_push_delivery_dropped(self):
        m = machine()
        start = m.start()
        m.on_http_timeout(start.epoch)
        first = m.on_push_delivered(ok_response(m, channel=Channel.PUSH))
        assert isinstance(first, Outcome)
        assert m.on_push_delivered(ok_response(m, channel=Channel.PUSH)) is None
        assert m.result is first

    def test_stale_timer_epochs_ignored(self):
        m = machine()
        start = m.start()
        stale = start.epoch
        m.on_http_timeout(stale)
        assert m.on_http_timeout(stale) is None
        assert m.on_push_timeout(stale) is None

    def test_foreign_delivery_ignored(self):
        m = machine()
        m.start()
        other = SendMachine("orders", b"p", OPTS, "devB", now_ms=1_000)
        assert m.on_http_response(ok_response(other)) is None


# Each event a driver may feed the machine, with what it needs: an epoch
# as an offset from the machine's current one, or a response.
EVENTS = st.one_of(
    st.tuples(st.sampled_from(["on_http_timeout", "on_push_timeout", "on_pause_done"]),
              st.integers(-2, 1)),
    st.tuples(st.sampled_from(["on_http_response", "on_push_delivered"]),
              st.sampled_from(["ok", "error", "rejected", "foreign"])),
    st.tuples(st.just("on_http_transport_error"), st.booleans()),
    st.tuples(st.sampled_from(["on_push_register_failed", "on_push_dead", "on_push_lost"]),
              st.none()),
)
FOREIGN = SendMachine("orders", b"p", OPTS, "devB", now_ms=1_000)


def feed(m: SendMachine, name: str, arg):
    transition = getattr(m, name)
    if name == "on_http_transport_error":
        return transition(refused=arg)
    if arg is None:
        return transition()
    if isinstance(arg, int):
        return transition(m.epoch + arg)
    channel = Channel.HTTP if name == "on_http_response" else Channel.PUSH
    rid = FOREIGN.rid if arg == "foreign" else m.rid
    status = {"ok": ResponseStatus.OK, "error": ResponseStatus.SERVICE_ERROR,
              "rejected": ResponseStatus.VALIDATION_ERROR, "foreign": ResponseStatus.OK}[arg]
    return transition(ResponseEnvelope(rid, status, channel, b"B"))


@settings(max_examples=300, deadline=None)
@given(events=st.lists(EVENTS, max_size=30), max_trials=st.integers(1, 3))
def test_each_transition_returns_one_step(events, max_trials):
    m = machine(SendOptions(http_timeout_ms=10, push_wait_ms=10, max_trials=max_trials))
    assert isinstance(m.start(), SendHttp)
    registered = False
    for name, arg in events:
        ended = m.result is not None
        step = feed(m, name, arg)
        if ended:
            assert step is None
        elif step is not None and not isinstance(step, (SendHttp, RegisterPush, Pause)):
            assert isinstance(step, (Outcome, ClientError)) and step is m.result
        if isinstance(step, RegisterPush):
            assert m.state == SendMachine.WAIT_PUSH
            registered = True
        assert (m.digest is not None) == registered


class TestOptionsValidation:
    def test_bad_durations(self):
        with pytest.raises(ValueError):
            SendOptions(http_timeout_ms=0)
        with pytest.raises(ValueError):
            SendOptions(push_wait_ms=-1)

    def test_bad_trials(self):
        with pytest.raises(ValueError):
            SendOptions(max_trials=0)
        with pytest.raises(ValueError):
            SendOptions(max_trials=100)

    @pytest.mark.parametrize("field, value", [
        ("forced", "no"), ("forced", 1), ("max_trials", True), ("max_trials", 2.5),
        ("http_timeout_ms", 2.5), ("push_wait_ms", "300"),
    ])
    def test_mistyped_options_are_refused(self, field, value):
        """``forced="no"`` once sent a forced rid, a fraction was taken as a
        duration and a string failed the comparison with a TypeError."""
        with pytest.raises(ValueError, match=field):
            SendOptions(**{field: value})

    def test_outcome_body_presence_invariant(self):
        with pytest.raises(ValueError):
            Outcome(status=ResponseStatus.OK, body=None, channel=Channel.HTTP,
                    trials_used=1, rid=None)
        with pytest.raises(ValueError):
            Outcome(status=ResponseStatus.SERVICE_ERROR, body=b"x", channel=Channel.HTTP,
                    trials_used=1, rid=None)
