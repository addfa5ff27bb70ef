import math

import pytest

import rmaws.faultsim.enumeration as enumeration
import rmaws.faultsim.sim as sim
from rmaws.faultsim import (
    FaultSpec,
    ScenarioInvalid,
    ScenarioSpec,
    SendSpec,
    ServiceProfile,
    check_invariants,
    enumerate_and_check,
    expected_scenario_count,
    normalize_sites,
    run,
)


def template():
    return ScenarioSpec(
        name="atmostonce",
        end_time_ms=60_000,
        services=[ServiceProfile(name="svc", delay_ms=50, output_size=64)],
        sends=[SendSpec(t=100, service="svc", payload_size=25,
                        http_timeout_ms=200, push_wait_ms=300, max_trials=3)],
    )


def standard_sites():
    """One site per fault kind the protocol must absorb, with <= 2 retries."""
    return [
        FaultSpec(kind="drop_request", send=0, trial=1),
        FaultSpec(kind="drop_http_response", send=0, trial=1),
        [FaultSpec(kind="client_offline", client="c1", t=150),
         FaultSpec(kind="client_online", client="c1", t=450)],
        FaultSpec(kind="kill_push_conn", client="c1", t=350),
    ]


class TestEnumeration:
    def test_zero_sites_runs_one_clean_scenario(self):
        report = enumerate_and_check(template(), [])
        assert report.total_scenarios == 1
        assert report.ok
        assert report.findings == []

    def test_all_fault_combinations_hold_invariants(self):
        sites = standard_sites()
        report = enumerate_and_check(template(), sites)
        # Arithmetic oracle: all timed faults sit at distinct instants, so
        # the scenario count is exactly the power set of the sites.
        assert report.total_scenarios == 2 ** len(sites)
        assert report.total_scenarios == expected_scenario_count(normalize_sites(sites))
        assert report.ok, report.findings[0].to_dict() if report.findings else None

    def test_same_instant_sites_multiply_orderings(self):
        sites = [
            [FaultSpec(kind="client_offline", client="c1", t=200),
             FaultSpec(kind="client_online", client="c1", t=400)],
            FaultSpec(kind="kill_push_conn", client="c1", t=200),
        ]
        normalized = normalize_sites(sites)
        # subsets: {} -> 1, {A} -> 1, {B} -> 1, {A,B} -> 2! at t=200
        assert expected_scenario_count(normalized) == 1 + 1 + 1 + math.factorial(2)
        report = enumerate_and_check(template(), sites)
        assert report.total_scenarios == expected_scenario_count(normalized)
        assert report.ok

    def test_broken_dedup_is_flagged(self):
        # Mutation test: with deduplication disabled the enumerator itself
        # must catch at-most-once violations.
        report = enumerate_and_check(template(), standard_sites(), break_dedup=True)
        assert not report.ok
        kinds = {v.kind for finding in report.findings for v in finding.violations}
        assert "AtMostOnceViolated" in kinds
        first = report.first_violation
        assert first is not None
        assert "sends" in first.scenario  # replayable verbatim scenario document

    def test_violating_scenario_is_replayable(self):
        report = enumerate_and_check(template(), standard_sites(), break_dedup=True)
        first = report.first_violation
        replay = ScenarioSpec.from_dict(first.scenario)
        trace = run(replay, break_dedup=True)
        assert any(v.kind == "AtMostOnceViolated" for v in check_invariants(trace))

    def test_site_cap(self):
        sites = [FaultSpec(kind="drop_request", send=0, trial=1)] * 13
        with pytest.raises(ScenarioInvalid):
            enumerate_and_check(template(), sites)

    def test_bad_site_shape_rejected(self):
        with pytest.raises(ScenarioInvalid):
            normalize_sites(["nope"])
        with pytest.raises(ScenarioInvalid):
            normalize_sites([[]])

    def test_report_serializes(self):
        report = enumerate_and_check(template(), [FaultSpec(kind="drop_request", send=0, trial=1)])
        doc = report.to_dict()
        assert doc["total_scenarios"] == 2
        assert doc["violation_count"] == 0
        assert doc["sites"] == ["drop_request[s0.t1@0]"]


def misbehaving_clock_template():
    """Two sends from one device to one service, stamped with one
    timestamp but carrying different payloads: the second reuses the
    first one's id. They come from two clients, so a fault on the first
    never delays the second past its answer; the second starts after the
    first has finished in every scenario."""
    return ScenarioSpec(
        name="misbehaving_clock",
        end_time_ms=60_000,
        services=[ServiceProfile(name="svc", delay_ms=50, output_size=64)],
        sends=[SendSpec(t=100, service="svc", client="c1", device_id="dev", timestamp_ms=100,
                        payload_size=25, http_timeout_ms=200, push_wait_ms=300, max_trials=3),
               SendSpec(t=5_000, service="svc", client="c2", device_id="dev", timestamp_ms=100,
                        payload_size=25, http_timeout_ms=200, push_wait_ms=300, max_trials=3)],
    )


class TestMisbehavingClock:
    def test_reused_id_is_rejected_and_never_runs(self):
        trace = run(misbehaving_clock_template())
        first, second = trace.outcomes
        assert first["key"] == second["key"]
        assert first["status"] == "Ok"
        assert second["error"] == "Rejected"
        assert trace.execution_counts == {first["key"]: 1}
        assert [e["kind"] for e in trace.events if e["kind"].startswith("server_identity")] \
            == ["server_identity_conflict"]
        assert check_invariants(trace) == []

    def test_enumeration_holds(self):
        # The send that reuses the id is faulted too: when its rejection is
        # lost it falls back to push, and its Register's payload digest
        # gets it the same rejection, never the first send's body.
        sites = standard_sites() + [FaultSpec(kind="drop_http_response", send=1, trial=1)]
        report = enumerate_and_check(misbehaving_clock_template(), sites)
        assert report.total_scenarios == 2 ** len(sites)
        assert report.ok, report.findings[0].to_dict() if report.findings else None


def one_connection_template(push_ms=5):
    """The misbehaving clock on one client: the second send reuses the
    first one's id while the first still waits on push, so both may wait
    on one push connection under one key."""
    return ScenarioSpec(
        name="one_connection",
        end_time_ms=60_000,
        latency={"request_ms": 5, "response_ms": 5, "push_ms": push_ms},
        services=[ServiceProfile(name="svc", delay_ms=600, output_size=64)],
        sends=[SendSpec(t=t, service="svc", client="c1", device_id="dev", timestamp_ms=100,
                        payload_size=25, http_timeout_ms=200, push_wait_ms=1_000, max_trials=3)
               for t in (100, 400)],
    )


class TestReusedIdOnOneConnection:
    LOST_REJECTION = FaultSpec(kind="drop_http_response", send=1, trial=1)

    def test_other_payload_registers_beside_it(self):
        # A Deliver names the payload it answers, so the second payload's
        # Register goes out while the first still waits on the key, and
        # its rejection comes over push in its first trial.
        scenario = one_connection_template()
        scenario.faults = [self.LOST_REJECTION]
        trace = run(scenario)
        first, second = trace.outcomes
        assert (first["status"], first["channel"]) == ("Ok", "Push")
        assert first["body_sha"] == trace.send_expected_bodies[0]
        assert (second["error"], second["trials"]) == ("Rejected", 1)
        assert [e["send"] for e in trace.events_of("push_register_sent")] == [0, 1]
        assert {e["conn"] for e in trace.events_of("push_register_sent")} == {"c1-p1"}
        assert [e["status"] for e in trace.events_of("push_deliver")] == ["ValidationError", "Ok"]
        assert trace.events_of("push_register_failed") == []
        assert check_invariants(trace) == []

    def test_deliver_in_flight_is_not_the_next_answer(self):
        # Send 0 registers after its key completed, so the server answers
        # the Register at once; with a slow push channel that Deliver is
        # still in flight when send 0's next trial gets the cache replay
        # and releases the key. Send 1 reuses the id, its 409 is lost and
        # it registers as send 0's Deliver arrives, which names send 0's
        # payload and so does not end send 1.
        scenario = one_connection_template(push_ms=150)
        scenario.services[0].delay_ms = 300
        for send in scenario.sends:
            send.push_wait_ms = 100
        scenario.faults = [self.LOST_REJECTION]
        trace = run(scenario)
        first, second = trace.outcomes
        assert (first["status"], first["channel"]) == ("Ok", "CacheReplay")
        assert second["error"] == "Rejected"
        assert [(e["t"], e["status"]) for e in trace.events_of("push_deliver")] == \
            [(600, "Ok"), (900, "ValidationError")]
        assert [e["t"] for e in trace.events_of("push_register_sent") if e["send"] == 1] == [600]
        assert [e["t"] for e in trace.events_of("duplicate_dropped")] == [600, 900]
        assert check_invariants(trace) == []

    def test_enumeration_holds(self):
        # With send 0's request dropped, send 1 owns the key and gets its
        # own body over push. A push channel slower than the requests
        # keeps Delivers in flight past the sends' next trials.
        sites = standard_sites() + [self.LOST_REJECTION,
                                    FaultSpec(kind="drop_http_response", send=1, trial=2)]
        for push_ms in (5, 150, 600):
            report = enumerate_and_check(one_connection_template(push_ms), sites)
            assert report.total_scenarios == 2 ** len(sites)
            assert report.ok, (push_ms, report.findings[0].to_dict() if report.findings else None)


def idle_close_template():
    """Two sends from one client fall back to push. The first opens the
    push connection, which stays open after it; the second registers on
    it at t=1200, the instant the server may close it as idle."""
    return ScenarioSpec(
        name="idle_close",
        end_time_ms=60_000,
        services=[ServiceProfile(name="svc", delay_ms=400, output_size=64)],
        sends=[SendSpec(t=t, service="svc", payload_size=25, http_timeout_ms=200,
                        push_wait_ms=1_000, max_trials=3) for t in (100, 1_000)],
    )


class TestPushIdleClose:
    SITES = [FaultSpec(kind="push_idle_close", client="c1", t=1_200),
             FaultSpec(kind="drop_http_response", send=0, trial=1),
             FaultSpec(kind="kill_push_conn", client="c1", t=700)]

    def test_register_lost_to_idle_close_goes_out_again_in_the_same_trial(self):
        spec = idle_close_template()
        spec.faults = [self.SITES[0]]
        trace = run(spec)
        registers = [(e["conn"], e["t"]) for e in trace.events_of("push_register_sent")
                     if e["send"] == 1]
        assert registers == [("c1-p1", 1_200), ("c1-p2", 1_205)]
        assert [e["conn"] for e in trace.events_of("push_register_lost")] == ["c1-p1"]
        # The idle close is the transport's close, not a frame written on the pipe.
        assert [(e["conn"], e["t"]) for e in trace.events_of("push_close")] == [("c1-p1", 1_200)]
        assert [e for e in trace.events_of("push_write") if e["t"] == 1_200] == []
        assert [e["trial"] for e in trace.events_of("http_post") if e["send"] == 1] == [1]
        second = trace.outcomes[1]
        assert (second["status"], second["channel"], second["trials"]) == ("Ok", "Push", 1)
        assert trace.execution_counts[second["key"]] == 1
        assert check_invariants(trace) == []

    def test_without_the_fault_the_connection_is_reused(self):
        trace = run(idle_close_template())
        assert [e["conn"] for e in trace.events_of("push_register_sent")] == ["c1-p1", "c1-p1"]
        assert [o["channel"] for o in trace.outcomes] == ["Push", "Push"]
        assert check_invariants(trace) == []

    def test_enumeration_holds(self):
        report = enumerate_and_check(idle_close_template(), self.SITES)
        assert report.total_scenarios == 2 ** len(self.SITES)
        assert report.ok, report.findings[0].to_dict() if report.findings else None

    def test_register_left_from_an_ended_wait_is_not_sent_again(self):
        # Trial 2's Register is a duplicate the server does not ack, so it
        # stays unanswered on the reused connection; the connection dies in
        # trial 3, after that push wait ended. Only a send still in the
        # wait re-registers (SendMachine.on_push_lost).
        spec = ScenarioSpec(
            name="ended_wait",
            services=[ServiceProfile(name="svc", delay_ms=1_700, output_size=64)],
            sends=[SendSpec(t=100, service="svc", payload_size=25, http_timeout_ms=200,
                            push_wait_ms=300, max_trials=4)],
            faults=[FaultSpec(kind="drop_request", send=0, trial=2),
                    FaultSpec(kind="kill_push_conn", client="c1", t=1_150)],
        )
        trace = run(spec)
        assert [e["t"] for e in trace.events_of("server_push_register_duplicate")] == [805]
        assert trace.events_of("push_conn_killed")
        assert trace.events_of("push_register_lost") == []
        assert trace.outcomes[0]["status"] == "Ok"
        assert check_invariants(trace) == []


def test_a_warm_enumeration_repeats_every_cold_trace(monkeypatch):
    """The simulator's caches carry nothing from one scenario to the next:
    enumerating a template again in the same process gives byte-identical
    traces. The template has a handler that fails once, whose counter
    belongs to each run, and a forced send."""
    template = ScenarioSpec(
        name="warm",
        services=[ServiceProfile(name="flaky", delay_ms=50, output_size=64, fail_times=1),
                  ServiceProfile(name="svc", delay_ms=50, output_size=64)],
        sends=[SendSpec(t=100, service="flaky", payload_size=25, http_timeout_ms=200,
                        push_wait_ms=300, max_trials=3),
               SendSpec(t=120, client="c2", service="svc", payload_size=55,
                        http_timeout_ms=200, push_wait_ms=300, max_trials=3, forced=True)],
    )
    sites = standard_sites() + [FaultSpec(kind="drop_http_response", send=1, trial=1)]
    for cache in (sim._synthetic_body, sim._body_digest, sim._send_options):
        cache.cache_clear()
    traces = []
    real_run = enumeration.run

    def recording_run(scenario, **kwargs):
        trace = real_run(scenario, **kwargs)
        traces.append(trace.to_jsonl())
        return trace

    monkeypatch.setattr(enumeration, "run", recording_run)
    cold = enumerate_and_check(template, sites)
    cold_traces, traces[:] = traces[:], []
    warm = enumerate_and_check(template, sites)
    assert sim._synthetic_body.cache_info().hits > 0
    assert cold.to_dict() == warm.to_dict()
    assert len(cold_traces) == cold.total_scenarios == 2 ** len(sites)
    assert traces == cold_traces
    assert any('"kind":"server_record_failed"' in t for t in cold_traces)


def test_an_enumeration_validates_its_template_once(monkeypatch):
    """The tree validates the template and the sites once; each scenario
    is only matched against them, not validated again."""
    calls = []
    real_validate = ScenarioSpec.validate

    def counting_validate(spec):
        calls.append(spec.name)
        real_validate(spec)

    monkeypatch.setattr(ScenarioSpec, "validate", counting_validate)
    report = enumerate_and_check(template(), standard_sites()[:2])
    assert report.total_scenarios == 4
    assert calls == ["atmostonce"]
