"""Tests of the benchmark itself: a smoke run of every workload, and proof
that its checks catch a broken server.

    python3 -m pytest perfbench -q

They run ``run.py`` as the benchmark is run, from the root of the
checkout, with ``--seconds 1``. The whole file takes well under a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _fh:
    BENCH = json.load(_fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def bench(workload: str, *extra: str, trace: int = 0, cwd: str = ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def result_of(done) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_end_to_end(workload):
    result = result_of(bench(workload))
    assert result["correct"], result
    assert result["attempted"] >= 1 and result["failed"] == 0
    for metric in BENCH["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert got["value"] > 0, metric["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_per_layer(workload):
    done = bench(workload, trace=1)
    result = result_of(done)
    assert result["correct"], done.stderr
    assert result["failed"] == 0
    assert "tracing overhead" in done.stdout
    assert set(result["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["envelope.overhead_bytes"] == 226
    assert metrics["server.core.executions_per_identity"] == 1.0
    assert metrics["client.trials_per_send"] == 1.0 or workload == "enumerate_faults"
    if workload == "timeout_push":
        assert metrics["client.sends_via_push"] > 0 and metrics["push.ws_handshake_us"] > 0
        assert metrics["push.finish_to_deliver_ms"] > 0


def test_retry_bulk_catches_broken_dedup():
    """With deduplication off, re-sends execute again and come back via Http."""
    done = bench("retry_bulk", "--break-dedup", trace=1)
    result = result_of(done)
    assert not result["correct"]
    assert "re-send came back via Http, not CacheReplay" in done.stderr
    assert result["metrics"]["server.core.executions_per_identity"]["value"] > 1.0
    assert "executions per identity, not 1" in done.stderr


def test_enumerate_faults_catches_broken_dedup():
    done = bench("enumerate_faults", "--break-dedup")
    result = result_of(done)
    assert not result["correct"]
    assert "AtMostOnceViolated" in done.stderr


def test_scenario_count_is_computed_from_the_sites():
    sys.path.insert(0, HERE)
    from rmaws.faultsim import FaultSpec
    from workloads import scenario_count

    a = [FaultSpec("kill_push_conn", t=350, client="c1")]
    b = [FaultSpec("kill_push_conn", t=350, client="c2")]
    drop = [FaultSpec("drop_request", send=0, trial=1)]
    # subsets: {}, a, b, drop, a+drop, b+drop -> 1 each; a+b and a+b+drop -> 2! each
    assert scenario_count([a, b, drop]) == 10


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = bench("fresh_small", cwd=str(tmp_path))
    assert done.returncode != 0
    assert done.stdout.strip() == ""
