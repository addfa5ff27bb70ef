"""An enumeration simulates each behaviour once: every scenario's trace is
the one a plain ``run`` of it gives, byte for byte."""

import dataclasses
import random

from hypothesis import given, settings
import hypothesis.strategies as st
import pytest

import trace_digest  # noqa: F401  (puts perfbench on the path)
from workloads import load_template

import rmaws.faultsim.enumeration as enumeration
import rmaws.faultsim.invariants as invariants
import rmaws.faultsim.sim as sim
from rmaws.cli import _load_template
from rmaws.faultsim import (
    FaultSpec,
    ScenarioInvalid,
    ScenarioSpec,
    SendSpec,
    ServiceProfile,
    SimWorld,
    enumerate_and_check,
)
from rmaws.faultsim.tree import DecisionTree


def enumerate_recording(template, sites, **kwargs):
    """Enumerate, and return the report with each scenario and its trace,
    counting the calls that the contract fixes."""
    seen = []
    calls = {"run": 0, "check": 0, "world": 0}
    real_run, real_check, real_world_run = enumeration.run, enumeration.check_invariants, \
        SimWorld.run

    def run(scenario, **kw):
        calls["run"] += 1
        trace = real_run(scenario, **kw)
        seen.append((scenario, trace, None))
        return trace

    def check(trace):
        calls["check"] += 1
        violations = real_check(trace)
        scenario, run_trace, _ = seen[-1]
        assert run_trace is trace
        seen[-1] = (scenario, trace, violations)
        return violations

    def world_run(world):
        calls["world"] += 1
        return real_world_run(world)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(enumeration, "run", run)
        patch.setattr(enumeration, "check_invariants", check)
        patch.setattr(SimWorld, "run", world_run)
        report = enumerate_and_check(template, sites, **kwargs)
    return report, seen, calls


def assert_plain(seen, break_dedup):
    """Each scenario's trace, and the verdict that the enumeration's check
    gave it, are those of a fresh plain run of the scenario."""
    for scenario, trace, violations in seen:
        plain = sim.run(scenario, break_dedup=break_dedup)
        assert trace.to_jsonl() == plain.to_jsonl(), scenario.name
        assert violations == invariants.check_invariants(plain), scenario.name


def count_predicates(patch):
    """Count the runs of the invariant predicates from now on."""
    calls = []
    real = invariants._violations

    def counting(trace):
        calls.append(trace.scenario_name)
        return real(trace)

    patch.setattr(invariants, "_violations", counting)
    return calls


def faults_template():
    return load_template(random.Random(42))


def atmostonce_template():
    return _load_template("atmostonce_template")


@pytest.mark.parametrize("break_dedup", [False, True], ids=["dedup", "break-dedup"])
@pytest.mark.parametrize("load, scenarios, runs", [
    (faults_template, 560, 65),
    (atmostonce_template, 16, 7),
], ids=["faults_template", "atmostonce_template"])
def test_every_trace_is_its_plain_run(load, scenarios, runs, break_dedup):
    template, sites = load()
    report, seen, calls = enumerate_recording(template, sites, break_dedup=break_dedup)
    assert report.total_scenarios == len(seen) == scenarios
    assert calls == {"run": scenarios, "check": scenarios, "world": runs}
    assert report.simulator_runs == runs
    assert report.to_dict()["simulator_runs"] == runs
    assert len({scenario.name for scenario, _, _ in seen}) == scenarios
    assert all(trace.scenario_name == scenario.name for scenario, trace, _ in seen)
    assert_plain(seen, break_dedup)


@pytest.mark.parametrize("break_dedup", [False, True], ids=["dedup", "break-dedup"])
@pytest.mark.parametrize("load, runs", [
    (faults_template, 65),
    (atmostonce_template, 7),
], ids=["faults_template", "atmostonce_template"])
def test_the_predicates_run_once_per_behaviour(monkeypatch, load, runs, break_dedup):
    """Every scenario still passes through the check, and the scenarios of
    one behaviour share the verdict of its first."""
    template, sites = load()
    predicates = count_predicates(monkeypatch)
    report, seen, calls = enumerate_recording(template, sites, break_dedup=break_dedup)
    assert calls["check"] == report.total_scenarios > runs
    assert len(predicates) == runs
    assert len({id(trace.verdict) for _, trace, _ in seen}) == runs


@pytest.mark.parametrize("max_steps", [3, 10])
def test_a_diverged_run_is_never_shared(monkeypatch, max_steps):
    """With the step cap low, a run that hits it leaves no trace in the
    tree: its scenario gets the trace of a plain run. At 3 every run hits
    it, so each scenario runs twice and nothing is shared; at 10 about
    half do."""
    monkeypatch.setattr(sim, "MAX_STEPS", max_steps)
    template, sites = atmostonce_template()
    predicates = count_predicates(monkeypatch)
    report, seen, calls = enumerate_recording(template, sites)
    assert any(trace.diverged for _, trace, _ in seen)
    assert all(trace.verdict is None for _, trace, _ in seen if trace.diverged)
    if max_steps == 3:
        assert all(trace.diverged for _, trace, _ in seen)
        assert report.simulator_runs == calls["world"] == 2 * report.total_scenarios
        # A diverged run's trace shares no verdict: each is checked in full.
        assert len(predicates) == report.total_scenarios
    assert_plain(seen, False)


class TestTheTreeAnswersOnlyItsOwnScenarios:
    def setup_method(self):
        self.template, self.sites = atmostonce_template()
        self.faults = [f for site in self.sites for f in site]
        self.tree = DecisionTree(self.template, self.faults)

    def scenario(self, **changes):
        return dataclasses.replace(self.template, name="s", **changes)

    def test_a_scenario_of_its_template_and_sites_is_answered(self):
        sim.run(self.scenario(faults=self.faults[:1]), tree=self.tree)
        trace = sim.run(self.scenario(faults=self.faults[:1]), tree=self.tree)
        assert self.tree.runs == 1
        assert trace.to_jsonl() == sim.run(self.scenario(faults=self.faults[:1])).to_jsonl()

    @pytest.mark.parametrize("changes", [
        {"end_time_ms": 30_000},
        {"auth_token": "other"},
        {"latency": {"request_ms": 6, "response_ms": 5, "push_ms": 5}},
        {"services": [ServiceProfile(name="orders", delay_ms=51, output_size=2048)]},
        {"sends": []},
    ], ids=["end_time", "token", "latency", "services", "sends"])
    def test_a_foreign_template_is_refused(self, changes):
        with pytest.raises(ScenarioInvalid, match="not of the tree's template"):
            sim.run(self.scenario(**changes), tree=self.tree)

    @pytest.mark.parametrize("fault", [
        FaultSpec(kind="drop_request", send=0, trial=2),
        FaultSpec(kind="drop_http_response", send=0, trial=None),
        FaultSpec(kind="kill_push_conn", client="c1", t=351),
        FaultSpec(kind="push_idle_close", client="c1", t=350),
    ], ids=["drop-other-trial", "drop-every-trial", "other-instant", "other-kind"])
    def test_a_fault_outside_the_sites_is_refused(self, fault):
        with pytest.raises(ScenarioInvalid, match="not one of the tree's"):
            sim.run(self.scenario(faults=[fault]), tree=self.tree)

    def test_two_checks_of_one_behaviour_give_distinct_lists(self):
        tree = DecisionTree(self.template, self.faults, break_dedup=True)
        offline_window = self.faults[2:4]
        first, second = (sim.run(self.scenario(faults=offline_window), tree=tree,
                                 break_dedup=True) for _ in range(2))
        assert second.verdict is first.verdict is not None
        violations = invariants.check_invariants(first)
        assert [v.kind for v in violations] == ["AtMostOnceViolated"]
        expected = list(violations)
        violations.clear()
        again = invariants.check_invariants(second)
        assert again == expected and again is not violations
        assert invariants.check_invariants(first) == expected

    def test_a_changed_copy_of_a_tree_trace_is_judged_afresh(self):
        """``dataclasses.replace`` drops the verdict: a copy with one event
        changed (a completion under a key no response reached) is checked in
        full, and the tree's own trace keeps its verdict."""
        trace = sim.run(self.scenario(faults=self.faults[:1]), tree=self.tree)
        assert trace.verdict is not None and invariants.check_invariants(trace) == []
        at = next(i for i, e in enumerate(trace.events)
                  if e["kind"] == "server_record_completed")
        events = list(trace.events)
        events[at] = dict(events[at], key="ghost")
        copy = dataclasses.replace(trace, events=events)
        assert copy.verdict is None
        assert [v.kind for v in invariants.check_invariants(copy)] == \
            ["ResponseConservationViolated"]
        assert invariants.check_invariants(trace) == []

    def test_a_plain_run_shares_no_verdict(self):
        assert sim.run(self.scenario(faults=self.faults[:1])).verdict is None

    def test_another_dedup_mode_is_refused(self):
        with pytest.raises(ScenarioInvalid):
            sim.run(self.scenario(), tree=self.tree, break_dedup=True)

    def test_an_invalid_scenario_is_refused_before_any_answer(self):
        sim.run(self.scenario(), tree=self.tree)
        bad = self.scenario(faults=[FaultSpec(kind="drop_request", send=9, trial=1)])
        with pytest.raises(ScenarioInvalid, match="valid send index"):
            sim.run(bad, tree=self.tree)


# -- random templates ----------------------------------------------------------

INSTANTS = (150, 300)
TIMED_KINDS = ("client_offline", "client_online", "kill_push_conn", "push_idle_close")


@st.composite
def templates(draw):
    """A small template and up to five fault sites. Timed faults fall on
    two instants of one client, so several share an instant; drops name
    one trial or every trial; two sends may reuse one id."""
    fail_times = draw(st.integers(0, 1))
    delay = draw(st.sampled_from([0, 50, 250]))
    services = [ServiceProfile(name="svc", delay_ms=delay, output_size=64,
                               fail_times=fail_times)]
    count = draw(st.integers(1, 2))
    reuse = count == 2 and draw(st.booleans())
    sends = []
    for index in range(count):
        sends.append(SendSpec(
            t=draw(st.sampled_from([100, 120, 320])), service="svc",
            client="c1" if index == 0 or reuse else "c2", payload_size=8 + index,
            http_timeout_ms=200, push_wait_ms=300, max_trials=draw(st.integers(1, 3)),
            forced=draw(st.booleans()), timestamp_ms=1_000 if reuse else None))
    timed = st.builds(lambda kind, t: FaultSpec(kind=kind, client="c1", t=t),
                      st.sampled_from(TIMED_KINDS), st.sampled_from(INSTANTS))
    drop = st.builds(lambda kind, send, trial: FaultSpec(kind=kind, send=send, trial=trial),
                     st.sampled_from(["drop_request", "drop_http_response"]),
                     st.integers(0, count - 1), st.sampled_from([None, 1, 2]))
    sites = draw(st.lists(timed | drop, min_size=1, max_size=5))
    template = ScenarioSpec(name="random", end_time_ms=10_000, services=services,
                            sends=sends)
    return template, sites


@settings(max_examples=40, deadline=None)
@given(templates(), st.booleans())
def test_random_templates_share_only_equal_traces(drawn, break_dedup):
    template, sites = drawn
    report, seen, calls = enumerate_recording(template, sites, break_dedup=break_dedup)
    assert len(seen) == report.total_scenarios
    assert calls["world"] == report.simulator_runs <= report.total_scenarios
    assert_plain(seen, break_dedup)
