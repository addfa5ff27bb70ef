"""Randomized scenario fuzzing: protocol invariants under arbitrary
bounded fault mixes.

The generator keeps scenarios inside the protocol's contract so the
invariants must hold: every fault lands within the first 1.2 s, at most
one offline window no longer than 600 ms, and four trials whose combined
recovery horizon comfortably covers that window. Within those bounds any
interleaving the generator finds is a real counterexample.
"""

import json

from hypothesis import example, given, settings
import hypothesis.strategies as st

from rmaws.cli import _read_document, bundled_scenarios
from rmaws.faultsim import (
    FaultSpec,
    ScenarioInvalid,
    ScenarioSpec,
    SendSpec,
    ServiceProfile,
    check_invariants,
    run,
)
from rmaws.server.handlers import HandlerRegistry
from rmaws.server.http import ServerConfig

TRIALS = 4
HTTP_TIMEOUT = 200
PUSH_WAIT = 300


def _scenario(delay_ms, send_times, drop_faults, offline_window, kill_times):
    sends = [
        SendSpec(t=t, service="svc", payload_size=16 + i,
                 http_timeout_ms=HTTP_TIMEOUT, push_wait_ms=PUSH_WAIT,
                 max_trials=TRIALS)
        for i, t in enumerate(send_times)
    ]
    faults = []
    for send_index, trial, kind in drop_faults:
        if send_index < len(sends):
            faults.append(FaultSpec(kind=kind, send=send_index, trial=trial))
    timed = []
    if offline_window is not None:
        start, length = offline_window
        timed.append(FaultSpec(kind="client_offline", client="c1", t=start))
        timed.append(FaultSpec(kind="client_online", client="c1", t=start + length))
    timed.extend(FaultSpec(kind="kill_push_conn", client="c1", t=t) for t in kill_times)
    faults.extend(sorted(timed, key=lambda f: f.t))
    return ScenarioSpec(
        name="fuzz",
        end_time_ms=120_000,
        services=[ServiceProfile(name="svc", delay_ms=delay_ms, output_size=128)],
        sends=sends,
        faults=faults,
    )


scenarios = st.builds(
    _scenario,
    delay_ms=st.integers(min_value=0, max_value=450),
    send_times=st.lists(st.integers(min_value=0, max_value=400),
                        min_size=1, max_size=2),
    drop_faults=st.lists(
        st.tuples(st.integers(0, 1), st.integers(1, 2),
                  st.sampled_from(["drop_request", "drop_http_response"])),
        max_size=4,
    ),
    offline_window=st.none() | st.tuples(st.integers(0, 1_000), st.integers(50, 600)),
    kill_times=st.lists(st.integers(0, 1_200), max_size=2),
)


@settings(max_examples=80, deadline=None)
@given(scenarios)
# Two sends from one device in one millisecond once shared a dedup key:
# with the drop, send 0's retry was replayed send 1's body; without it,
# send 1 silently coalesced onto send 0's execution and got its body.
@example(_scenario(delay_ms=0, send_times=[0, 0], drop_faults=[(0, 1, "drop_request")],
                   offline_window=None, kill_times=[]))
@example(_scenario(delay_ms=0, send_times=[0, 0], drop_faults=[],
                   offline_window=None, kill_times=[]))
def test_invariants_hold_under_random_fault_mixes(scenario):
    trace = run(scenario)
    violations = check_invariants(trace)
    assert violations == [], [v.to_dict() for v in violations]


@settings(max_examples=25, deadline=None)
@given(scenarios)
def test_traces_are_deterministic(scenario):
    assert run(scenario).to_jsonl() == run(scenario).to_jsonl()


# -- mistyped documents ----------------------------------------------------------

JSON_VALUES = (st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
               | st.text(max_size=6) | st.lists(st.integers(), max_size=2)
               | st.dictionaries(st.text(max_size=4), st.integers(), max_size=2))
SCENARIOS = [json.loads(_read_document(name)) for name in bundled_scenarios()
             if not name.endswith("_template")]
CONFIG = {"bind": "127.0.0.1:0", "auth_token": "t", "cache_ttl_ms": 1_000,
          "push_idle_timeout_ms": 300_000, "store_path": None,
          "services": [{"name": "orders", "delay_ms": 5, "output_size": 64, "fail_times": 0}]}


def _places(doc, path=()):
    """The key path of every value in a JSON document, nested ones included."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) \
        if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _places(value, path + (key,))


@st.composite
def mistyped(draw, documents):
    """One of ``documents`` with one value, at any depth, replaced by a
    value of another JSON type (an integer and a fraction count as two)."""
    doc = json.loads(json.dumps(draw(st.sampled_from(documents))))
    *parents, last = draw(st.sampled_from(list(_places(doc))))
    holder = doc
    for key in parents:
        holder = holder[key]
    old = holder[last]
    holder[last] = draw(JSON_VALUES.filter(lambda new: type(new) is not type(old)))
    return doc


@settings(max_examples=150, deadline=None)
@given(mistyped(SCENARIOS))
def test_a_mistyped_scenario_is_refused_or_runs(doc):
    try:
        spec = ScenarioSpec.from_dict(doc)
    except ScenarioInvalid:
        return
    run(spec)


@settings(max_examples=150, deadline=None)
@given(mistyped([CONFIG]))
def test_a_mistyped_config_is_refused_or_serves(doc):
    try:
        HandlerRegistry.from_config(ServerConfig.from_dict(doc).services)
    except ValueError:
        pass
