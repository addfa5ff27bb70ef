import sys
import threading

import pytest

from rmaws.client import (
    AbandonHttp,
    ClientError,
    Failed,
    Finished,
    Pause,
    RegisterPush,
    ReleasePush,
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
        effects = m.start()
        assert isinstance(effects[0], SendHttp)
        assert effects[0].timeout_ms == 1000
        done = m.on_http_response(ok_response(m))
        assert isinstance(done[0], Finished)
        outcome = done[0].outcome
        assert outcome.channel is Channel.HTTP
        assert outcome.trials_used == 1
        assert outcome.body == b"B"

    def test_service_error_is_an_outcome_without_body(self):
        m = machine()
        m.start()
        resp = ResponseEnvelope(m.rid, ResponseStatus.SERVICE_ERROR, Channel.HTTP, b"boom")
        done = m.on_http_response(resp)
        assert isinstance(done[0], Finished)
        assert done[0].outcome.status is ResponseStatus.SERVICE_ERROR
        assert done[0].outcome.body is None

    def test_validation_error_rejects(self):
        m = machine()
        m.start()
        resp = ResponseEnvelope(m.rid, ResponseStatus.VALIDATION_ERROR, Channel.HTTP, b"bad")
        done = m.on_http_response(resp)
        assert isinstance(done[0], Failed)
        assert done[0].error.kind == "Rejected"


class TestTimeoutFallback:
    def test_timeout_abandons_and_registers(self):
        m = machine()
        start = m.start()
        effects = m.on_http_timeout(start[0].epoch)
        assert isinstance(effects[0], AbandonHttp)
        assert isinstance(effects[1], RegisterPush)
        assert effects[1].rid == m.rid
        assert effects[1].wait_ms == 2000

    def test_push_delivery_finishes_with_push_channel(self):
        m = machine()
        start = m.start()
        reg = m.on_http_timeout(start[0].epoch)[1]
        done = m.on_push_delivered(ok_response(m, channel=Channel.PUSH))
        assert isinstance(done[0], ReleasePush)
        assert isinstance(done[1], Finished)
        assert done[1].outcome.channel is Channel.PUSH
        assert done[1].outcome.trials_used == 1
        assert reg.epoch == m.epoch

    def test_push_timeout_retries_with_same_key(self):
        m = machine()
        start = m.start()
        reg = m.on_http_timeout(start[0].epoch)[1]
        retry = m.on_push_timeout(reg.epoch)
        assert isinstance(retry[0], SendHttp)
        assert retry[0].env.rid.trial == 2
        assert retry[0].env.rid.dedup_key == reg.rid.dedup_key

    def test_exhaustion_after_max_trials(self):
        m = machine(SendOptions(http_timeout_ms=10, push_wait_ms=10, max_trials=2))
        effects = m.start()
        for expected_trial in (1, 2):
            assert m.rid.trial == expected_trial
            reg = m.on_http_timeout(effects[0].epoch if expected_trial == 1 else m.epoch)[1]
            effects = m.on_push_timeout(reg.epoch)
        assert isinstance(effects[0], ReleasePush)
        assert isinstance(effects[1], Failed)
        assert effects[1].error.kind == "Exhausted"
        assert effects[1].error.trials_used == 2

    def test_transport_reset_falls_back_like_timeout(self):
        m = machine()
        m.start()
        effects = m.on_http_transport_error(refused=False)
        assert isinstance(effects[1], RegisterPush)

    def test_connection_refused_is_terminal(self):
        m = machine()
        m.start()
        effects = m.on_http_transport_error(refused=True)
        assert isinstance(effects[0], Failed)
        assert effects[0].error.kind == "Transport"


class TestPushChannelFailures:
    def test_register_failure_paces_then_retries(self):
        m = machine()
        start = m.start()
        m.on_http_timeout(start[0].epoch)
        paused = m.on_push_register_failed()
        assert isinstance(paused[0], Pause)
        assert paused[0].ms == 2000
        retry = m.on_pause_done(paused[0].epoch)
        assert isinstance(retry[0], SendHttp)
        assert retry[0].env.rid.trial == 2

    def test_dead_connection_retries_immediately(self):
        m = machine()
        start = m.start()
        m.on_http_timeout(start[0].epoch)
        retry = m.on_push_dead()
        assert isinstance(retry[0], SendHttp)
        assert retry[0].env.rid.trial == 2


class TestLostRegister:
    def test_first_loss_registers_again_in_the_same_wait(self):
        m = machine()
        start = m.start()
        reg = m.on_http_timeout(start[0].epoch)[1]
        again = m.on_push_lost()
        assert again == [reg]  # same rid, wait, epoch and digest
        assert m.state == SendMachine.WAIT_PUSH and m.rid.trial == 1
        assert m.on_push_timeout(reg.epoch)[0].env.rid.trial == 2  # the wait's timer still counts

    def test_second_loss_in_one_wait_moves_to_the_next_trial(self):
        m = machine()
        start = m.start()
        m.on_http_timeout(start[0].epoch)
        m.on_push_lost()
        retry = m.on_push_lost()
        assert isinstance(retry[0], SendHttp)
        assert retry[0].env.rid.trial == 2

    def test_each_wait_may_register_again_once(self):
        m = machine()
        start = m.start()
        reg = m.on_http_timeout(start[0].epoch)[1]
        m.on_push_lost()
        retry = m.on_push_timeout(reg.epoch)
        reg2 = m.on_http_timeout(retry[0].epoch)[1]
        assert m.on_push_lost() == [reg2]
        assert reg2.rid.trial == 2 and reg2.digest == reg.digest

    def test_loss_after_the_wait_ended_does_nothing(self):
        m = machine()
        start = m.start()
        reg = m.on_http_timeout(start[0].epoch)[1]
        m.on_push_timeout(reg.epoch)  # back to waiting on HTTP
        assert m.on_push_lost() == []
        m.on_http_response(ok_response(m))
        assert m.state == SendMachine.DONE
        assert m.on_push_lost() == []


class TestRaces:
    def test_late_http_response_after_done_is_dropped(self):
        m = machine()
        start = m.start()
        m.on_http_timeout(start[0].epoch)
        m.on_push_delivered(ok_response(m, channel=Channel.PUSH))
        assert m.on_http_response(ok_response(m)) == []

    def test_duplicate_push_delivery_dropped(self):
        m = machine()
        start = m.start()
        m.on_http_timeout(start[0].epoch)
        first = m.on_push_delivered(ok_response(m, channel=Channel.PUSH))
        assert any(isinstance(e, Finished) for e in first)
        assert m.on_push_delivered(ok_response(m, channel=Channel.PUSH)) == []

    def test_stale_timer_epochs_ignored(self):
        m = machine()
        start = m.start()
        stale = start[0].epoch
        m.on_http_timeout(stale)
        assert m.on_http_timeout(stale) == []
        assert m.on_push_timeout(stale) == []

    def test_foreign_delivery_ignored(self):
        m = machine()
        m.start()
        other = SendMachine("orders", b"p", OPTS, "devB", now_ms=1_000)
        assert m.on_http_response(ok_response(other)) == []


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

    def test_outcome_body_presence_invariant(self):
        from rmaws.client import Outcome
        with pytest.raises(ValueError):
            Outcome(status=ResponseStatus.OK, body=None, channel=Channel.HTTP,
                    trials_used=1, rid=None)
        with pytest.raises(ValueError):
            Outcome(status=ResponseStatus.SERVICE_ERROR, body=b"x", channel=Channel.HTTP,
                    trials_used=1, rid=None)
