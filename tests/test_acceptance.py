"""Acceptance suite: one test per shipping criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines inline.
"""

import pathlib
import statistics
import threading
import time

import pytest

from rmaws.client import Client, SendOptions
from rmaws.envelope import Channel, OVERHEAD_BYTES, RequestEnvelope, ResponseStatus, make_request_id, encode_request
from rmaws.faultsim import (
    FaultSpec,
    ScenarioSpec,
    SendSpec,
    ServiceProfile,
    check_invariants,
    enumerate_and_check,
    run,
)
from rmaws.server.handlers import HandlerRegistry, ServiceHandler, make_synthetic, synthetic_body

from conftest import TOKEN

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _line(num: int, ok: bool, desc: str) -> None:
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'} - {desc}")


class Ticker:
    """Monotonic millisecond clock: a fresh dedup key per call."""

    def __init__(self, start=1_700_000_000_000):
        self.t = start
        self._lock = threading.Lock()

    def __call__(self):
        with self._lock:
            self.t += 1
            return self.t


class Frozen:
    def __init__(self, t=1_700_000_000_000):
        self.t = t

    def __call__(self):
        return self.t


def test_criterion_1_constant_request_overhead():
    ok = False
    try:
        started = time.perf_counter()
        rid = make_request_id("devA", 1_700_000_000_000, "orders")
        for size in (0, 25, 55, 1024, 191745):
            env = RequestEnvelope(rid, b"x" * size)
            assert len(encode_request(env)) == size + OVERHEAD_BYTES

        p25 = b"payload-0123456789ABCDEF!"
        p55 = b"0123456789" * 5 + b"ABCDE"
        e25 = encode_request(RequestEnvelope(rid, p25))
        e55 = encode_request(RequestEnvelope(rid, p55))
        assert len(e25) == 251 and len(e55) == 281
        assert e25 == (GOLDEN / "request_25.bin").read_bytes()
        assert e55 == (GOLDEN / "request_55.bin").read_bytes()
        assert time.perf_counter() - started < 1.0
        ok = True
    finally:
        _line(1, ok, "envelope adds exactly 226 bytes; 25->251 and 55->281 bit-exact")


def test_criterion_2_response_transparency(live_server):
    ok = False
    try:
        started = time.perf_counter()
        sizes = [5, 191745, 2_167_000]
        registry = HandlerRegistry()
        for size in sizes:
            registry.add(make_synthetic(f"fast{size}", output_size=size))
            registry.add(make_synthetic(f"slow{size}", output_size=size, delay_ms=600))
        server = live_server(registry=registry)
        payload = b"transparency-probe"

        for size in sizes:
            reference = synthetic_body(f"fast{size}", payload, size)
            client = Client(*server.address, auth_token=TOKEN, clock=Frozen())

            over_http = client.send(f"fast{size}", payload)
            assert over_http.channel is Channel.HTTP
            assert over_http.body == reference

            replay = client.send(f"fast{size}", payload)
            assert replay.channel is Channel.CACHE_REPLAY
            assert replay.body == reference

            direct = client.send_direct(f"fast{size}", payload)
            assert direct.body == reference

            slow_reference = synthetic_body(f"slow{size}", payload, size)
            pushed = Client(*server.address, auth_token=TOKEN).send(
                f"slow{size}", payload,
                SendOptions(http_timeout_ms=250, push_wait_ms=30_000, auth_token=TOKEN))
            assert pushed.channel is Channel.PUSH
            assert pushed.body == slow_reference
        assert time.perf_counter() - started < 30.0
        ok = True
    finally:
        _line(2, ok, "bodies of 5/191745/2167000 bytes byte-identical on Http, Push, CacheReplay")


def test_criterion_3_at_most_once_enumeration():
    ok = False
    try:
        started = time.perf_counter()
        template = ScenarioSpec(
            name="acceptance_atmostonce",
            end_time_ms=60_000,
            services=[ServiceProfile(name="orders", delay_ms=50, output_size=64)],
            sends=[SendSpec(t=100, service="orders", payload_size=25,
                            http_timeout_ms=200, push_wait_ms=300, max_trials=3)],
        )
        sites = [
            FaultSpec(kind="drop_request", send=0, trial=1),
            FaultSpec(kind="drop_http_response", send=0, trial=1),
            [FaultSpec(kind="client_offline", client="c1", t=150),
             FaultSpec(kind="client_online", client="c1", t=450)],
            FaultSpec(kind="kill_push_conn", client="c1", t=350),
        ]
        report = enumerate_and_check(template, sites)
        assert report.total_scenarios == 16
        assert report.ok, report.findings[0].to_dict()
        assert time.perf_counter() - started < 60.0
        ok = True
    finally:
        _line(3, ok, "execution_count <= 1 across all fault combinations (16 scenarios)")


def test_criterion_4_timeout_recovery_deterministic():
    ok = False
    try:
        scenario = ScenarioSpec.loads(
            (pathlib.Path(__file__).parents[1] / "src/rmaws/scenarios/timeout_recovery.json")
            .read_text())
        # handler delay is exactly twice the client's HTTP timeout
        assert scenario.services[0].delay_ms == 2 * scenario.sends[0].http_timeout_ms
        trace = run(scenario)
        out = trace.outcomes[0]
        assert out["status"] == "Ok" and out["channel"] == "Push"
        assert len(trace.events_of("push_deliver")) == 1
        assert trace.execution_counts[out["key"]] == 1
        assert check_invariants(trace) == []
        assert run(scenario).to_jsonl() == trace.to_jsonl()
        ok = True
    finally:
        _line(4, ok, "handler delay 2x timeout delivers exactly one Push response, one execution")


def test_criterion_5_absence_caching_and_replay():
    ok = False
    try:
        scenario = ScenarioSpec.loads(
            (pathlib.Path(__file__).parents[1] / "src/rmaws/scenarios/offline_replay.json")
            .read_text())
        trace = run(scenario)
        out = trace.outcomes[0]
        assert out["status"] == "Ok" and out["channel"] == "CacheReplay"
        assert out["key"] in trace.cached_keys_at_end
        assert out["body_sha"] == trace.expected_bodies[out["key"]]
        assert trace.execution_counts[out["key"]] == 1
        assert trace.events_of("http_write_dead"), "completion found the client absent"
        assert check_invariants(trace) == []
        ok = True
    finally:
        _line(5, ok, "client offline at completion -> cached; reconnect replays identical body")


def test_criterion_6_is_forced_semantics(live_server):
    ok = False
    try:
        versions = [b"version-one", b"version-two"]
        calls = []

        def fn(payload):
            calls.append(payload)
            return versions[len(calls) - 1]

        server = live_server(registry=HandlerRegistry().add(ServiceHandler("orders", fn)))
        client = Client(*server.address, auth_token=TOKEN, clock=Frozen())

        first = client.send("orders", b"p")
        assert first.body == b"version-one"
        key = first.rid.dedup_key
        assert server.core.execution_count(key) == 1

        forced = client.send("orders", b"p", SendOptions(forced=True, auth_token=TOKEN))
        assert forced.body == b"version-two"
        assert server.core.execution_count(key) == 2

        replay = client.send("orders", b"p")
        assert replay.channel is Channel.CACHE_REPLAY
        assert replay.body == b"version-two"
        assert server.core.execution_count(key) == 2
        ok = True
    finally:
        _line(6, ok, "forced=true re-executes and overwrites; forced=false replays without increment")


def test_criterion_7_constant_work_latency_overhead(live_server):
    ok = False
    try:
        server = live_server(registry=HandlerRegistry().add(make_synthetic("echo")))
        client = Client(*server.address, auth_token=TOKEN, clock=Ticker())
        payload = b"x" * 25
        opts = SendOptions(http_timeout_ms=30_000, auth_token=TOKEN)
        direct_ms, rmaws_ms = [], []
        for _ in range(100):
            t0 = time.perf_counter()
            client.send_direct("echo", payload, opts)
            direct_ms.append((time.perf_counter() - t0) * 1000)
            t0 = time.perf_counter()
            outcome = client.send("echo", payload, opts)
            rmaws_ms.append((time.perf_counter() - t0) * 1000)
            assert outcome.channel is Channel.HTTP
        delta = statistics.median(rmaws_ms) - statistics.median(direct_ms)
        print(f"\n    median direct={statistics.median(direct_ms):.3f} ms, "
              f"rmaws={statistics.median(rmaws_ms):.3f} ms, delta={delta:.3f} ms")
        assert delta < 50.0
        ok = True
    finally:
        _line(7, ok, "median enveloped-minus-direct latency < 50 ms over 100 loopback sends")


def test_criterion_8_sim_determinism(tmp_path):
    ok = False
    try:
        from rmaws.cli import main
        for name in ("happy_path", "timeout_recovery", "offline_replay", "dropped_response"):
            a = tmp_path / f"{name}-a.jsonl"
            b = tmp_path / f"{name}-b.jsonl"
            assert main(["sim", name, "--out", str(a)]) == 0
            assert main(["sim", name, "--out", str(b)]) == 0
            assert a.read_bytes() == b.read_bytes()
        ok = True
    finally:
        _line(8, ok, "sim produces byte-identical trace JSON across consecutive runs")


def test_criterion_9_race_safety(live_server):
    ok = False
    try:
        calls = []
        release_delay = 0.03

        def fn(payload):
            calls.append(payload)
            time.sleep(release_delay)
            return b"race-body"

        server = live_server(registry=HandlerRegistry().add(ServiceHandler("orders", fn)))
        opts = SendOptions(http_timeout_ms=10_000, auth_token=TOKEN)
        violations = []
        ticker = Ticker()
        for rep in range(50):
            frozen = Frozen(ticker())
            outcomes = []
            errors = []

            def worker():
                c = Client(*server.address, auth_token=TOKEN, clock=frozen)
                try:
                    outcomes.append(c.send("orders", b"p", opts))
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            before = len(calls)
            threads = [threading.Thread(target=worker) for _ in range(16)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            invoked = len(calls) - before
            bodies = {o.body for o in outcomes}
            if errors or invoked != 1 or len(outcomes) != 16 or bodies != {b"race-body"}:
                violations.append((rep, invoked, len(outcomes), errors))
        assert violations == []
        ok = True
    finally:
        _line(9, ok, "16 concurrent same-key sends x 50 reps: 1 execution, 16 identical bodies")
