import pathlib

import pytest

from rmaws.envelope import MAX_TIMESTAMP_MS, OVERHEAD_BYTES
from rmaws.faultsim import (
    FaultSpec,
    ScenarioInvalid,
    ScenarioSpec,
    SendSpec,
    ServiceProfile,
    SimWorld,
    Trace,
    TraceRecorder,
    Violation,
    body_digest,
    check_invariants,
    run,
)
import rmaws.faultsim.sim
from rmaws.faultsim.invariants import SIMULATION_DIVERGED
from rmaws.server.handlers import synthetic_body


def scenario(sends, faults=(), services=None, end=60_000):
    return ScenarioSpec(
        name="t",
        end_time_ms=end,
        services=services if services is not None else [
            ServiceProfile(name="svc", delay_ms=50, output_size=64)],
        sends=list(sends),
        faults=list(faults),
    )


def one_send(**kw):
    kw.setdefault("t", 100)
    kw.setdefault("service", "svc")
    kw.setdefault("payload_size", 25)
    kw.setdefault("http_timeout_ms", 200)
    kw.setdefault("push_wait_ms", 300)
    kw.setdefault("max_trials", 3)
    return SendSpec(**kw)


class TestHappyPath:
    def test_http_channel_single_execution(self):
        trace = run(scenario([one_send()]))
        out = trace.outcomes[0]
        assert out["status"] == "Ok"
        assert out["channel"] == "Http"
        assert out["trials"] == 1
        assert trace.execution_counts[out["key"]] == 1
        assert check_invariants(trace) == []

    def test_body_matches_reference(self):
        trace = run(scenario([one_send()]))
        out = trace.outcomes[0]
        expected = synthetic_body("svc", SendSpec(t=0, service="svc", payload_size=25).payload(0), 64)
        assert trace.raw_bodies[0] == expected
        assert out["body_sha"] == body_digest(expected)

    def test_wire_accounting(self):
        trace = run(scenario([one_send(payload_size=55)]))
        assert trace.request_sizes == [[55 + OVERHEAD_BYTES, 55]]
        assert trace.wire["requests_bytes"] == 55 + OVERHEAD_BYTES


class TestTimeoutRecovery:
    def test_slow_handler_delivers_via_push(self):
        # handler delay = 2 x http_timeout
        services = [ServiceProfile(name="svc", delay_ms=400, output_size=64)]
        trace = run(scenario([one_send(http_timeout_ms=200, push_wait_ms=5_000)],
                             services=services))
        out = trace.outcomes[0]
        assert out["status"] == "Ok"
        assert out["channel"] == "Push"
        assert out["trials"] == 1
        assert trace.execution_counts[out["key"]] == 1
        assert len(trace.events_of("push_deliver")) == 1
        assert check_invariants(trace) == []

    def test_dropped_response_recovered_by_push(self):
        faults = [FaultSpec(kind="drop_http_response", send=0, trial=1)]
        trace = run(scenario([one_send()], faults))
        out = trace.outcomes[0]
        assert out["status"] == "Ok"
        assert out["channel"] == "Push"
        assert trace.execution_counts[out["key"]] == 1
        assert check_invariants(trace) == []

    def test_dropped_request_retries_over_http(self):
        faults = [FaultSpec(kind="drop_request", send=0, trial=1)]
        trace = run(scenario([one_send()], faults))
        out = trace.outcomes[0]
        assert out["status"] == "Ok"
        assert out["channel"] == "Http"
        assert out["trials"] == 2
        assert trace.execution_counts[out["key"]] == 1


class TestOfflineRecovery:
    def test_offline_at_completion_then_cache_replay(self):
        faults = [
            FaultSpec(kind="client_offline", client="c1", t=200),
            FaultSpec(kind="client_online", client="c1", t=500),
        ]
        services = [ServiceProfile(name="svc", delay_ms=150, output_size=64)]
        trace = run(scenario([one_send()], faults, services=services))
        out = trace.outcomes[0]
        assert out["status"] == "Ok"
        assert out["channel"] == "CacheReplay"
        assert trace.execution_counts[out["key"]] == 1
        assert out["body_sha"] == trace.expected_bodies[out["key"]]
        assert trace.events_of("http_write_dead"), "completion hit a dead exchange"
        assert check_invariants(trace) == []

    def test_killed_push_conn_retries_and_replays(self):
        # Execution completes at t=355 and the Deliver frame departs; the
        # connection dies at t=358 with the frame still in flight, so the
        # client retries and hits the cache.
        faults = [FaultSpec(kind="kill_push_conn", client="c1", t=358)]
        services = [ServiceProfile(name="svc", delay_ms=250, output_size=64)]
        trace = run(scenario([one_send(http_timeout_ms=150, push_wait_ms=1_000)],
                             faults, services=services))
        out = trace.outcomes[0]
        assert out["status"] == "Ok"
        assert out["channel"] == "CacheReplay"
        assert out["trials"] == 2
        assert trace.execution_counts[out["key"]] == 1
        assert trace.events_of("frame_lost"), "the Deliver frame was lost in flight"
        assert check_invariants(trace) == []


class TestSendsThatGiveUp:
    """Whether a send that ends Exhausted lost a delivery depends on when
    its key completed."""

    def test_gave_up_before_its_key_completed_is_not_a_lost_delivery(self):
        services = [ServiceProfile(name="svc", delay_ms=900, output_size=64)]
        trace = run(scenario([one_send(push_wait_ms=100)], services=services))
        assert [(e["t"], e["error"]) for e in trace.events_of("send_failed")] == \
            [(1000, "Exhausted")]
        assert [e["t"] for e in trace.events_of("server_record_completed")] == [1005]
        assert trace.open_client_registrations == []
        assert check_invariants(trace) == []

    def test_gave_up_after_its_key_completed_is_a_lost_delivery(self):
        # Every HTTP response is dropped, and no Register reaches the
        # server before the end.
        trace = run(ScenarioSpec(
            name="t", end_time_ms=3_000,
            latency={"request_ms": 5, "response_ms": 5, "push_ms": 5_000},
            services=[ServiceProfile(name="svc", delay_ms=50, output_size=64)],
            sends=[one_send(push_wait_ms=100)],
            faults=[FaultSpec(kind="drop_http_response", send=0)]))
        assert [(e["t"], e["error"]) for e in trace.events_of("send_failed")] == \
            [(1000, "Exhausted")]
        assert [e["t"] for e in trace.events_of("server_record_completed")] == [155]
        assert len(trace.events_of("push_register_sent")) == 3
        assert trace.open_client_registrations == []
        assert [v.kind for v in check_invariants(trace)] == ["DeliveryLost"]


class TestForcedInSim:
    def test_forced_reexecution(self):
        sends = [
            one_send(t=100),
            one_send(t=1_000, device_id="c1", forced=False),
        ]
        trace = run(scenario(sends))
        assert trace.outcomes[0]["channel"] == "Http"
        assert trace.outcomes[1]["channel"] == "Http"  # distinct timestamps: distinct keys

    def test_same_device_same_instant_dedups(self):
        # Two different sends in one millisecond are two requests: each
        # gets its own identity, executes once and receives its own body.
        sends = [one_send(t=100), one_send(t=100)]
        trace = run(scenario(sends))
        keys = [out["key"] for out in trace.outcomes]
        assert len(set(keys)) == 2
        for i, key in enumerate(keys):
            assert trace.execution_counts[key] == 1
            assert trace.raw_bodies[i] == synthetic_body("svc", sends[i].payload(i), 64)
        assert check_invariants(trace) == []


class TestDeterminism:
    def test_byte_identical_traces(self):
        spec = scenario(
            [one_send()],
            [FaultSpec(kind="drop_http_response", send=0, trial=1),
             FaultSpec(kind="client_offline", client="c1", t=250),
             FaultSpec(kind="client_online", client="c1", t=600)],
        )
        first = run(spec).to_jsonl()
        second = run(spec).to_jsonl()
        assert first == second
        assert first.encode("utf-8") == second.encode("utf-8")


class TestGoldenTraces:
    """Frozen regression traces for the bundled scenarios. After a change
    that is meant to move them, regenerate each from the repository root::

        PYTHONPATH=src python -m rmaws.cli sim <name> --out tests/golden/<name>.trace.jsonl
    """

    @pytest.mark.parametrize("name", ["happy_path", "timeout_recovery",
                                      "offline_replay", "dropped_response"])
    def test_bundled_scenario_matches_golden(self, name):
        from rmaws.cli import _read_document

        spec = ScenarioSpec.loads(_read_document(name))
        trace = run(spec)
        golden = pathlib.Path(__file__).parent / "golden" / f"{name}.trace.jsonl"
        assert trace.to_jsonl() == golden.read_text()
        assert check_invariants(trace) == []


class TestScenarioValidation:
    def test_unknown_service(self):
        with pytest.raises(ScenarioInvalid):
            scenario([one_send(service="nope")]).validate()

    def test_bad_fault_kind(self):
        with pytest.raises(ScenarioInvalid):
            scenario([one_send()], [FaultSpec(kind="meteor", client="c1")]).validate()

    def test_drop_fault_needs_send_index(self):
        with pytest.raises(ScenarioInvalid):
            scenario([one_send()], [FaultSpec(kind="drop_request", send=5)]).validate()

    def test_json_round_trip(self):
        spec = scenario([one_send()], [FaultSpec(kind="drop_request", send=0, trial=1)])
        again = ScenarioSpec.loads(spec.dumps())
        assert again.to_dict() == spec.to_dict()

    @pytest.mark.parametrize("size", [-1, True, 2.5, "64"])
    def test_bad_output_size(self, size):
        with pytest.raises(ScenarioInvalid, match="output_size"):
            scenario([one_send()], services=[
                ServiceProfile(name="svc", output_size=size)]).validate()

    @pytest.mark.parametrize("delay", [-5, True, 2.5, "50"])
    def test_bad_delay_ms(self, delay):
        with pytest.raises(ScenarioInvalid, match="delay_ms"):
            scenario([one_send()], services=[
                ServiceProfile(name="svc", delay_ms=delay)]).validate()

    @pytest.mark.parametrize("times", [-3, True, 1.7, "2"])
    def test_bad_fail_times(self, times):
        with pytest.raises(ScenarioInvalid, match="fail_times"):
            scenario([one_send()], services=[
                ServiceProfile(name="svc", fail_times=times)]).validate()

    @pytest.mark.parametrize("stamp", [-1, True, 2.5, MAX_TIMESTAMP_MS + 1])
    def test_bad_timestamp_ms(self, stamp):
        with pytest.raises(ScenarioInvalid, match="timestamp_ms"):
            scenario([one_send(timestamp_ms=stamp)]).validate()

    @pytest.mark.parametrize("send, named", [
        ({"max_trials": 0}, "send 0: max_trials"),
        ({"http_timeout_ms": 0}, "send 0: http_timeout_ms"),
        ({"push_wait_ms": -1}, "send 0: push_wait_ms"),
        ({"payload_hex": "zz"}, "send 0: payload_hex"),
        ({"client": "a|b"}, "send 0: client"),
        ({"device_id": "d" * 33}, "send 0: device_id"),
        ({"t": "100"}, "send 0: t must be"),
        ({"payload_size": "25"}, "send 0: payload_size"),
        ({"forced": "no"}, "send 0: forced"),
    ], ids=["max_trials", "http_timeout_ms", "push_wait_ms", "payload_hex", "client",
            "device_id", "t-text", "payload_size-text", "forced-text"])
    def test_what_a_run_refuses_is_refused(self, send, named):
        """Each of these passed ``validate`` and then failed the run with a
        traceback, or ran misread: ``"forced": "no"`` sent a forced rid."""
        with pytest.raises(ScenarioInvalid, match=named):
            scenario([one_send(**send)]).validate()

    def test_a_service_name_a_rid_cannot_hold(self):
        with pytest.raises(ScenarioInvalid, match=r"service 'a\|b': name"):
            scenario([one_send(service="a|b")],
                     services=[ServiceProfile(name="a|b")]).validate()

    @pytest.mark.parametrize("value", [5.5, "5", True, None])
    def test_a_latency_that_is_not_an_integer(self, value):
        spec = scenario([one_send()])
        spec.latency["push_ms"] = value
        with pytest.raises(ScenarioInvalid, match="latency push_ms"):
            spec.validate()

    @pytest.mark.parametrize("fault, named", [
        (FaultSpec(kind="drop_request", send=0, trial="1"), "trial must be"),
        (FaultSpec(kind="drop_request", send=0, trial=0), "trial must be"),
        (FaultSpec(kind="drop_request", send="0"), "valid send index"),
        (FaultSpec(kind="kill_push_conn", client="c1", t="350"), "t must be"),
        (FaultSpec(kind="drop_request", send=0, client="c1"), "does not read"),
        (FaultSpec(kind="client_offline", client="c1", t=350, trial=1), "does not read"),
    ], ids=["trial-text", "trial-0", "send-text", "t-text", "drop-client",
            "timed-trial"])
    def test_a_fault_field_that_a_run_misreads_is_refused(self, fault, named):
        """A drop fault with ``"trial": "1"`` never fired; a mistyped ``send``
        or ``t`` failed the run with a traceback; a field the kind does not
        read was ignored."""
        with pytest.raises(ScenarioInvalid, match=named):
            scenario([one_send()], [fault]).validate()

    @pytest.mark.parametrize("field, value", [
        ("auth_token", 5), ("auth_token", None), ("name", 5), ("end_time_ms", 2.5),
        ("end_time_ms", "60000"),
    ])
    def test_a_mistyped_scenario_field_is_refused(self, field, value):
        """An integer ``auth_token`` failed the run with a traceback; a
        fractional ``end_time_ms`` was cut to an integer."""
        doc = scenario([one_send()]).to_dict()
        doc[field] = value
        with pytest.raises(ScenarioInvalid, match=field):
            ScenarioSpec.from_dict(doc)

    @pytest.mark.parametrize("field", ["services", "sends", "faults"])
    @pytest.mark.parametrize("value", ["", {}], ids=["text", "object"])
    def test_a_list_field_that_is_not_a_list_is_refused(self, field, value):
        """Iterating an empty text or object read it as an empty list."""
        doc = scenario([one_send()]).to_dict()
        doc[field] = value
        with pytest.raises(ScenarioInvalid, match=f"{field} must be a list"):
            ScenarioSpec.from_dict(doc)

    def test_push_idle_close_needs_a_known_client(self):
        with pytest.raises(ScenarioInvalid):
            scenario([one_send()], [FaultSpec(kind="push_idle_close", client="c9")]).validate()

    def test_loads_rejects_garbage(self):
        with pytest.raises(ScenarioInvalid):
            ScenarioSpec.loads("not json")
        with pytest.raises(ScenarioInvalid):
            ScenarioSpec.loads("[1,2,3]")


class TestTraceRecorder:
    def test_field_order_does_not_reach_the_jsonl(self):
        lines = []
        for fields in ({"send": 1, "key": "k", "bytes": 9},
                       {"bytes": 9, "key": "k", "send": 1}):
            recorder = TraceRecorder(lambda: 7)
            recorder.emit("http_post", **fields)
            lines.append(synthetic_trace(events=recorder.events).to_jsonl())
        assert lines[0] == lines[1]
        assert lines[0].splitlines()[0] == (
            '{"bytes":9,"key":"k","kind":"http_post","send":1,"seq":0,"t":7}')

    def test_seq_runs_without_gaps(self):
        trace = run(scenario([one_send(), one_send(t=150)]))
        assert [e["seq"] for e in trace.events] == list(range(len(trace.events)))


class TestSimulationDiverged:
    def test_self_rescheduling_event_is_a_violation(self, monkeypatch):
        monkeypatch.setattr(rmaws.faultsim.sim, "MAX_STEPS", 1_000)
        world = SimWorld(scenario([one_send()]))

        def spin():
            world.schedule(0, spin)

        world.schedule(200, spin)
        trace = world.run()
        assert trace.diverged
        assert [v.kind for v in check_invariants(trace)] == [SIMULATION_DIVERGED]
        assert "diverged" not in trace.to_jsonl()


def synthetic_trace(**overrides) -> Trace:
    base = dict(
        scenario_name="hand",
        end_time_ms=1_000,
        latency={"request_ms": 5, "response_ms": 5, "push_ms": 5},
        events=[],
        outcomes=[],
        execution_counts={},
        forced_keys=[],
        failed_keys=[],
        expected_bodies={},
        cached_keys_at_end=[],
        open_client_registrations=[],
        push_presence_at_end=[],
        clients_online_at_end={},
        wire={"requests_bytes": 0, "request_count": 0, "responses_bytes": 0, "push_bytes": 0},
        request_sizes=[],
    )
    base.update(overrides)
    return Trace(**base)


class TestInvariantPredicates:
    def test_happy_trace_is_clean(self):
        trace = synthetic_trace(
            outcomes=[{"send": 0, "client": "c1", "key": "k", "status": "Ok",
                       "body_sha": "aa", "forced": False}],
            execution_counts={"k": 1},
            expected_bodies={"k": "aa"},
            events=[{"t": 1, "seq": 0, "kind": "server_record_completed", "key": "k"},
                    {"t": 2, "seq": 1, "kind": "http_response", "send": 0}],
            cached_keys_at_end=["k"],
            clients_online_at_end={"c1": True},
        )
        assert check_invariants(trace) == []

    def test_double_execution_flagged(self):
        trace = synthetic_trace(execution_counts={"k": 2})
        kinds = [v.kind for v in check_invariants(trace)]
        assert kinds == ["AtMostOnceViolated"]

    def test_forced_and_failed_keys_exempt(self):
        trace = synthetic_trace(execution_counts={"k": 2, "j": 2},
                                forced_keys=["k"], failed_keys=["j"])
        assert check_invariants(trace) == []

    def test_delivery_lost_flagged(self):
        trace = synthetic_trace(
            outcomes=[{"send": 0, "client": "c1", "key": "k", "error": "Exhausted",
                       "forced": False}],
            execution_counts={"k": 1},
            events=[{"t": 1, "seq": 0, "kind": "server_record_completed", "key": "k"}],
            cached_keys_at_end=["k"],
            clients_online_at_end={"c1": True},
        )
        kinds = [v.kind for v in check_invariants(trace)]
        assert kinds == ["DeliveryLost"]

    @pytest.mark.parametrize("detail,kinds", [
        ("IdentityConflict: request id already used for a different payload", []),
        ("Unauthorized: bad token", ["DeliveryLost"]),
    ])
    def test_identity_conflict_is_not_owed_the_body(self, detail, kinds):
        # Send 1 reused send 0's id: it is answered with a rejection, and
        # the body completed under the key belongs to send 0.
        trace = synthetic_trace(
            outcomes=[{"send": 0, "client": "c1", "key": "k", "status": "Ok",
                       "body_sha": "aa", "forced": False},
                      {"send": 1, "client": "c1", "key": "k", "error": "Rejected",
                       "forced": False}],
            execution_counts={"k": 1},
            expected_bodies={"k": "aa"},
            events=[{"t": 1, "seq": 0, "kind": "server_record_completed", "key": "k"},
                    {"t": 2, "seq": 1, "kind": "http_response", "send": 0},
                    {"t": 3, "seq": 2, "kind": "send_failed", "send": 1, "error": "Rejected",
                     "detail": detail, "trials": 1}],
            cached_keys_at_end=["k"],
            clients_online_at_end={"c1": True},
        )
        assert [v.kind for v in check_invariants(trace)] == kinds

    def test_delivery_lost_requires_reachable_client(self):
        trace = synthetic_trace(
            outcomes=[{"send": 0, "client": "c1", "key": "k", "error": "Exhausted",
                       "forced": False}],
            execution_counts={"k": 1},
            events=[{"t": 1, "seq": 0, "kind": "server_record_completed", "key": "k"}],
            cached_keys_at_end=["k"],
            clients_online_at_end={"c1": False},
        )
        assert check_invariants(trace) == []

    def test_body_mismatch_flagged(self):
        trace = synthetic_trace(
            outcomes=[{"send": 0, "client": "c1", "key": "k", "status": "Ok",
                       "body_sha": "bb", "forced": False}],
            execution_counts={"k": 1},
            expected_bodies={"k": "aa"},
            events=[{"t": 1, "seq": 0, "kind": "server_record_completed", "key": "k"},
                    {"t": 2, "seq": 1, "kind": "http_response", "send": 0}],
            cached_keys_at_end=["k"],
            clients_online_at_end={"c1": True},
        )
        kinds = [v.kind for v in check_invariants(trace)]
        assert kinds == ["BodyMismatch"]

    def test_shared_key_body_mismatch_flagged(self):
        # Two sends share key "k"; send 1 is answered with send 0's body.
        # The per-key reference agrees with that body, the per-send one
        # does not.
        events = [{"t": 1, "seq": 0, "kind": "server_record_completed", "key": "k"},
                  {"t": 2, "seq": 1, "kind": "http_response", "send": 0},
                  {"t": 3, "seq": 2, "kind": "http_response", "send": 1}]
        trace = synthetic_trace(
            outcomes=[{"send": 0, "client": "c1", "key": "k", "status": "Ok",
                       "body_sha": "aa", "forced": False},
                      {"send": 1, "client": "c1", "key": "k", "status": "Ok",
                       "body_sha": "aa", "forced": False}],
            execution_counts={"k": 1},
            expected_bodies={"k": "aa"},
            send_expected_bodies={0: "aa", 1: "bb"},
            events=events,
            cached_keys_at_end=["k"],
            clients_online_at_end={"c1": True},
        )
        violations = check_invariants(trace)
        assert [v.kind for v in violations] == ["BodyMismatch"]
        assert "send 1" in violations[0].detail

    def test_socket_hygiene_flagged(self):
        trace = synthetic_trace(
            outcomes=[{"send": 0, "client": "c1", "key": "k", "status": "Ok",
                       "body_sha": "aa", "forced": False}],
            execution_counts={"k": 1},
            expected_bodies={"k": "aa"},
            events=[{"t": 1, "seq": 0, "kind": "server_record_completed", "key": "k"},
                    {"t": 2, "seq": 1, "kind": "http_response", "send": 0}],
            cached_keys_at_end=["k"],
            open_client_registrations=["k"],
            clients_online_at_end={"c1": True},
        )
        kinds = [v.kind for v in check_invariants(trace)]
        assert kinds == ["SocketHygieneViolated"]

    @pytest.mark.parametrize("outcome,where,kinds", [
        ({"status": "Ok", "body_sha": "aa"}, "open_client_registrations",
         ["SocketHygieneViolated"]),
        ({"error": "Exhausted"}, "open_client_registrations", ["SocketHygieneViolated"]),
        ({"error": "Rejected"}, "open_client_registrations", ["SocketHygieneViolated"]),
        ({"status": "incomplete"}, "open_client_registrations", []),
        # The server cannot tell a send that gave up from one still waiting.
        ({"error": "Exhausted"}, "push_presence_at_end", []),
    ], ids=["ok", "exhausted", "rejected", "still-waiting", "exhausted-server-side"])
    def test_socket_hygiene_covers_every_ended_send(self, outcome, where, kinds):
        trace = synthetic_trace(
            outcomes=[{"send": 0, "client": "c1", "key": "k", "forced": False, **outcome}],
            clients_online_at_end={"c1": True},
            **{where: ["k"]},
        )
        assert [v.kind for v in check_invariants(trace)] == kinds

    def test_wire_accounting_flagged(self):
        trace = synthetic_trace(request_sizes=[[100, 10]])
        kinds = [v.kind for v in check_invariants(trace)]
        assert kinds == ["WireAccountingViolated"]

    def test_conservation_flagged(self):
        trace = synthetic_trace(
            events=[{"t": 1, "seq": 0, "kind": "server_record_completed", "key": "k"}],
            execution_counts={"k": 1},
        )
        kinds = [v.kind for v in check_invariants(trace)]
        assert kinds == ["ResponseConservationViolated"]

    def test_violation_is_serializable(self):
        v = Violation("AtMostOnceViolated", "detail")
        assert v.to_dict() == {"kind": "AtMostOnceViolated", "detail": "detail"}
