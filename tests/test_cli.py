import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from rmaws.cli import bundled_scenarios, main


def run_cli(*argv):
    return main(list(argv))


def _free_port() -> int:
    import socket

    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def serve_and_exit(cfg, env=None, timeout_s=20.0):
    """Run ``rmaws serve`` in its own process and return its exit code and
    stderr. A bad config that the server accepts would serve until a
    signal; the timeout then fails the test instead of hanging it."""
    proc = subprocess.run(
        [sys.executable, "-m", "rmaws.cli", "serve", "--config", str(cfg)],
        capture_output=True, text=True, timeout=timeout_s,
        env=dict(os.environ, **(env or {})))
    return proc.returncode, proc.stderr


def _wait_for_health(port: int, timeout_s: float = 10.0) -> None:
    deadline = time.time() + timeout_s
    while time.time() < deadline:
        try:
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=1.0)
            conn.request("GET", "/healthz")
            if conn.getresponse().status == 200:
                conn.close()
                return
        except OSError:
            time.sleep(0.05)
    raise TimeoutError("server did not come up")


class TestSim:
    def test_bundled_happy_path_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        code = run_cli("sim", "happy_path", "--out", str(out))
        assert code == 0
        assert "all invariants hold" in capsys.readouterr().out
        lines = out.read_text().strip().splitlines()
        assert json.loads(lines[-1])["kind"] == "summary"

    def test_timeout_recovery_uses_push(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        code = run_cli("sim", "timeout_recovery", "--out", str(out))
        assert code == 0
        assert "via Push" in capsys.readouterr().out
        events = [json.loads(line) for line in out.read_text().strip().splitlines()]
        assert any(e.get("kind") == "push_deliver" for e in events)

    def test_offline_replay_uses_cache(self, tmp_path, capsys):
        code = run_cli("sim", "offline_replay", "--out", str(tmp_path / "t.jsonl"))
        assert code == 0
        assert "via CacheReplay" in capsys.readouterr().out

    def test_missing_scenario_exits_two(self, tmp_path, capsys):
        assert run_cli("sim", "no_such_scenario", "--out", str(tmp_path / "t")) == 2

    def test_malformed_scenario_exits_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"sends": [{"service": "ghost", "t": 1}]}')
        assert run_cli("sim", str(bad), "--out", str(tmp_path / "t")) == 2

    def test_break_dedup_flags_violation(self, tmp_path, capsys):
        # The client is offline when the execution completes, so its retry
        # reaches the server again: deduplication answers it from the cache,
        # and without deduplication it executes a second time.
        spec = {
            "name": "dup",
            "end_time_ms": 20000,
            "services": [{"name": "svc", "delay_ms": 50, "output_size": 16}],
            "sends": [
                {"t": 100, "client": "c1", "service": "svc", "payload_size": 4,
                 "http_timeout_ms": 200, "push_wait_ms": 300, "max_trials": 3}
            ],
            "faults": [{"kind": "client_offline", "client": "c1", "t": 150},
                       {"kind": "client_online", "client": "c1", "t": 450}]
        }
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(spec))
        assert run_cli("sim", str(path), "--out", str(tmp_path / "ok")) == 0
        capsys.readouterr()
        code = run_cli("sim", str(path), "--out", str(tmp_path / "t"), "--break-dedup")
        assert code == 1
        err = capsys.readouterr().err
        assert "AtMostOnce" in err
        assert "executed 2 times" in err


class TestEnumerate:
    def test_bundled_template_is_clean(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run_cli("enumerate", "atmostonce_template", "--out", str(out))
        assert code == 0
        report = json.loads(out.read_text())
        assert report["total_scenarios"] == 16
        assert report["simulator_runs"] == 7
        assert report["violation_count"] == 0
        assert ("16 scenario(s) over 4 fault site(s), 7 simulator run(s); 0 violating"
                in capsys.readouterr().out)
        assert run_cli("report", str(out)) == 0
        assert "scenarios: 16  simulator runs: 7  violations: 0" in capsys.readouterr().out

    def test_break_dedup_exits_one(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run_cli("enumerate", "atmostonce_template", "--out", str(out),
                       "--break-dedup")
        assert code == 1
        report = json.loads(out.read_text())
        assert report["violation_count"] > 0
        # the report command can render it back
        assert run_cli("report", str(out)) == 0

    def test_every_finding_replays_through_sim(self, tmp_path, capsys):
        """A finding's scenario is a document ``rmaws sim`` takes as it is:
        it has no key that the scenario reader refuses."""
        out = tmp_path / "report.json"
        assert run_cli("enumerate", "atmostonce_template", "--out", str(out),
                       "--break-dedup") == 1
        findings = json.loads(out.read_text())["findings"]
        assert findings
        for index, finding in enumerate(findings):
            path = tmp_path / f"finding{index}.json"
            path.write_text(json.dumps(finding["scenario"]))
            capsys.readouterr()
            assert run_cli("sim", str(path), "--out", str(tmp_path / "t.jsonl"),
                           "--break-dedup") == 1
            err = capsys.readouterr().err
            assert all(v["kind"] in err for v in finding["violations"])

    def test_missing_template(self, tmp_path):
        assert run_cli("enumerate", "nope", "--out", str(tmp_path / "r")) == 2

    def test_a_site_that_no_scenario_can_hold_exits_two(self, tmp_path, capsys):
        path = tmp_path / "template.json"
        path.write_text(json.dumps({
            "services": [{"name": "svc"}], "sends": [{"t": 1, "service": "svc"}],
            "fault_sites": [{"kind": "drop_request", "send": 7, "trial": 1}]}))
        assert run_cli("enumerate", str(path), "--out", str(tmp_path / "r")) == 2
        assert capsys.readouterr().err.startswith("error: drop_request fault needs")


@pytest.mark.parametrize("command", ["sim", "enumerate"])
@pytest.mark.parametrize("change, named", [
    ({"sends": [{"t": 1, "service": "svc", "max_trials": 0}]}, "send 0: max_trials"),
    ({"sends": [{"t": 1, "service": "svc", "http_timeout_ms": 0}]}, "send 0: http_timeout_ms"),
    ({"sends": [{"t": 1, "service": "svc", "push_wait_ms": -1}]}, "send 0: push_wait_ms"),
    ({"sends": [{"t": 1, "service": "svc", "payload_hex": "zz"}]}, "send 0: payload_hex"),
    ({"sends": [{"t": 1, "service": "svc", "client": "a|b"}]}, "send 0: client"),
    ({"sends": [{"t": 1, "service": "svc", "device_id": "d" * 33}]}, "send 0: device_id"),
    ({"services": [{"name": "a|b"}], "sends": [{"t": 1, "service": "a|b"}]},
     "service 'a|b': name"),
    ({"latency": {"request_ms": 5.5}}, "latency request_ms"),
    ({"sends": [{"t": "1", "service": "svc"}]}, "send 0: t must be"),
    ({"sends": [{"t": 1, "service": "svc", "payload_size": "8"}]}, "send 0: payload_size"),
    ({"sends": [{"t": 1, "service": "svc", "forced": "no"}]}, "send 0: forced"),
    ({"auth_token": 5}, "auth_token must be text"),
    ({"faults": [{"kind": "drop_request", "send": 0, "trial": "1"}]}, "trial must be"),
    ({"faults": [{"kind": "drop_request", "send": "0"}]}, "valid send index"),
    ({"services": [{"name": 5}], "sends": [{"t": 1, "service": "svc"}]}, "service 5: name"),
    ({"services": [{"name": "svc "}], "sends": [{"t": 1, "service": "svc "}]},
     "service 'svc ': name"),
    ({"end_time": 5_000}, "unknown key(s) 'end_time'"),
], ids=["max_trials", "http_timeout_ms", "push_wait_ms", "payload_hex", "client",
        "device_id", "service_name", "latency", "t-text", "payload_size-text", "forced-text",
        "auth_token-int", "fault-trial-text", "fault-send-text", "service_name-int",
        "service_name-spaced", "unknown-key"])
def test_a_scenario_that_a_run_refuses_exits_two(tmp_path, capsys, command, change, named):
    """Each of these passed validation and then ended the command with a
    traceback, or ran it with the field misread or ignored."""
    doc = {"services": [{"name": "svc"}], "sends": [{"t": 1, "service": "svc"}], **change}
    if command == "enumerate":
        doc["fault_sites"] = []
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert run_cli(command, str(path), "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert err.count("\n") == 1 and "Traceback" not in err


class TestBenchAndReport:
    def test_bench_desk_scale(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run_cli("bench", "--payload-sizes", "25,55", "--response-sizes", "5,191745",
                       "--out", str(out))
        assert code == 0
        report = json.loads(out.read_text())
        rows = {(r["payload_size"], r["response_size"]): r for r in report["rows"]}
        assert rows[(25, 5)]["request_bytes_rmaws"] == 251
        assert rows[(55, 5)]["request_bytes_rmaws"] == 281
        assert all(r["overhead_bytes"] == 226 for r in report["rows"])
        assert all(r["response_bytes_direct"] == r["response_bytes_rmaws"]
                   for r in report["rows"])
        text = capsys.readouterr().out
        # text table and JSON carry identical numbers
        assert "251" in text and "281" in text
        assert run_cli("report", str(out)) == 0

    def test_report_rejects_garbage(self, tmp_path):
        bad = tmp_path / "r.json"
        bad.write_text("{}")
        assert run_cli("report", str(bad)) == 2
        assert run_cli("report", str(tmp_path / "missing.json")) == 2


class TestServeConfig:
    def test_bad_config_path_exits_two(self, capsys):
        assert run_cli("serve", "--config", "/nonexistent/config.json") == 2

    def test_negative_output_size_exits_two(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "bind": "127.0.0.1:0",
            "services": [{"name": "orders", "output_size": -1}],
        }))
        code, err = serve_and_exit(cfg)
        assert code == 2
        assert err.count("\n") == 1
        assert err.startswith("error: ") and "output_size" in err

    @pytest.mark.parametrize("row,named", [
        ({"name": "orders", "delay_ms": -5}, "delay_ms"),
        ({"output_size": 5}, "services[0]"),
        ({"name": 5}, "service 5: name"),
        # A rid carries these names stripped or cut, so no request could
        # reach them; an unknown key would be ignored.
        ({"name": "orders "}, "service 'orders ': name"),
        ({"name": "o" * 40}, f"service {'o' * 40!r}: name"),
        ({"name": "orders", "delay": 500}, "services[0] has unknown key(s) 'delay'"),
    ])
    def test_bad_service_row_exits_two_with_one_line(self, tmp_path, row, named):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bind": "127.0.0.1:0", "services": [row]}))
        code, err = serve_and_exit(cfg)
        assert code == 2
        assert err.count("\n") == 1
        assert err.startswith("error: ") and named in err

    @pytest.mark.parametrize("fields,env,named", [
        ({"cache_ttl_ms": -1}, {}, "cache_ttl_ms"),
        ({"push_idle_timeout_ms": 0}, {}, "push_idle_timeout_ms"),
        ({}, {"RMAWS_PUSH_IDLE_TIMEOUT_MS": "-5"}, "push_idle_timeout_ms"),
        ({"store_path": 7}, {}, "store_path"),
        ({"auth_token": None}, {}, "auth_token"),
        ({"bind": 7}, {}, "bind"),
        ({"bind": "127.0.0.1:99999"}, {}, "bind_port"),
        ({}, {"RMAWS_BIND": "127.0.0.1:99999"}, "bind_port"),
        ({"services": 5}, {}, "services must be a list"),
        ({"cache_ttl": 5}, {}, "the config has unknown key(s) 'cache_ttl'"),
    ])
    def test_bad_server_setting_exits_two_with_one_line(self, tmp_path, fields, env, named):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bind": "127.0.0.1:0", "services": [{"name": "orders"}],
                                   **fields}))
        code, err = serve_and_exit(cfg, env)
        assert code == 2
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("error: ") and named in err

    @pytest.mark.parametrize("line", [
        # A record without a body: it once ended the load in a KeyError.
        b'{"key":"k","status":"ok","completed_at":1,"execution_count":1}',
        # A whole record as saved before records named their payload's digest.
        b'{"body": "", "completed_at": 1, "error_code": null, "execution_count": 1, '
        b'"key": "k", "status": "ok"}',
    ], ids=["no-body", "no-digest"])
    def test_store_line_that_is_not_a_record_exits_two_with_one_line(self, tmp_path, line):
        store = tmp_path / "records.jsonl"
        store.write_bytes(line + b"\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bind": "127.0.0.1:0", "store_path": str(store),
                                   "services": [{"name": "orders"}]}))
        code, err = serve_and_exit(cfg)
        assert code == 2
        assert err.count("\n") == 1
        assert err.startswith("error: ") and f"{store}:1: not a record" in err

    def test_sigterm_drains_inflight_then_exits_zero(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        port = _free_port()
        cfg.write_text(json.dumps({
            "bind": f"127.0.0.1:{port}",
            "auth_token": "cli-token",
            "services": [{"name": "slow", "delay_ms": 600, "output_size": 128}],
        }))
        proc = subprocess.Popen(
            [sys.executable, "-m", "rmaws.cli", "serve", "--config", str(cfg)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            _wait_for_health(port)
            from rmaws.client import Client, SendOptions
            result = {}

            def sender():
                client = Client("127.0.0.1", port, auth_token="cli-token")
                result["outcome"] = client.send("slow", b"p", SendOptions(
                    http_timeout_ms=10_000, auth_token="cli-token"))

            t = threading.Thread(target=sender)
            t.start()
            time.sleep(0.2)  # the slow request is in flight
            proc.send_signal(signal.SIGTERM)
            t.join(timeout=10)
            assert result["outcome"].body is not None
            assert len(result["outcome"].body) == 128
            assert proc.wait(timeout=10) == 0
        finally:
            proc.kill()
            proc.communicate()  # reads and closes the pipes

    def test_bundled_listing(self):
        names = bundled_scenarios()
        assert "happy_path" in names
        assert "timeout_recovery" in names
        assert "atmostonce_template" in names


class TestConfigLoading:
    def test_file_and_env_overrides(self, tmp_path, monkeypatch):
        from rmaws.server.http import ServerConfig
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "bind": "127.0.0.1:8123",
            "auth_token": "from-file",
            "cache_ttl_ms": 1000,
            "services": [{"name": "orders", "delay_ms": 5, "output_size": 64}],
        }))
        cfg = ServerConfig.load(str(cfg_path), env={})
        assert cfg.bind_port == 8123
        assert cfg.auth_token == "from-file"
        assert cfg.cache_ttl_ms == 1000
        assert cfg.services[0]["name"] == "orders"

        cfg = ServerConfig.load(str(cfg_path), env={
            "RMAWS_BIND": "0.0.0.0:9999",
            "RMAWS_AUTH_TOKEN": "from-env",
            "RMAWS_CACHE_TTL_MS": "5000",
        })
        assert (cfg.bind_host, cfg.bind_port) == ("0.0.0.0", 9999)
        assert cfg.auth_token == "from-env"
        assert cfg.cache_ttl_ms == 5000
        # An empty token in the environment still overrides the file's.
        assert ServerConfig.load(str(cfg_path), env={"RMAWS_AUTH_TOKEN": ""}).auth_token == ""

    @pytest.mark.parametrize("fields,env,named", [
        ({"cache_ttl_ms": -1}, {}, "cache_ttl_ms"),
        ({"push_idle_timeout_ms": 0}, {}, "push_idle_timeout_ms"),
        ({"push_idle_timeout_ms": -1}, {}, "push_idle_timeout_ms"),
        ({"push_idle_timeout_ms": None}, {}, "push_idle_timeout_ms"),
        ({"cache_ttl_ms": "soon"}, {}, "cache_ttl_ms"),
        ({}, {"RMAWS_CACHE_TTL_MS": "-1"}, "cache_ttl_ms"),
        ({}, {"RMAWS_PUSH_IDLE_TIMEOUT_MS": "-1"}, "push_idle_timeout_ms"),
        ({}, {"RMAWS_PUSH_IDLE_TIMEOUT_MS": "0"}, "push_idle_timeout_ms"),
        ({}, {"RMAWS_CACHE_TTL_MS": "soon"}, "RMAWS_CACHE_TTL_MS"),
        ({"store_path": 7}, {}, "store_path must be null or a string"),
        ({"store_path": ["records.jsonl"]}, {}, "store_path must be null or a string"),
        ({"auth_token": None}, {}, "auth_token must be a string"),
        ({"auth_token": 7}, {}, "auth_token must be a string"),
        ({"bind": 7}, {}, "bind must be host:port"),
        ({"bind": "127.0.0.1"}, {}, "bind must be host:port"),
        ({"bind": "127.0.0.1:99999"}, {}, "bind_port must be an integer in 0..65535"),
        ({}, {"RMAWS_BIND": "127.0.0.1:99999"}, "bind_port must be an integer in 0..65535"),
        ({"services": 5}, {}, "services must be a list"),
        ({"services": {"name": "orders"}}, {}, "services must be a list"),
        ([{"bind": "127.0.0.1:0"}], {}, "must be a JSON object"),
    ])
    def test_settings_that_break_the_protocol_are_refused(self, tmp_path, fields, env, named):
        from rmaws.server.http import ServerConfig
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(fields))
        with pytest.raises(ValueError) as info:
            ServerConfig.load(str(cfg_path), env=env)
        assert named in str(info.value)

    @pytest.mark.parametrize("fields,named", [
        ({"cache_ttl_ms": 1.5}, "cache_ttl_ms"),
        ({"cache_ttl_ms": True}, "cache_ttl_ms"),
        ({"push_idle_timeout_ms": 1500.5}, "push_idle_timeout_ms"),
        ({"push_idle_timeout_ms": True}, "push_idle_timeout_ms"),
        ({"services": [{"name": "orders", "fail_times": 1.7}]}, "fail_times"),
        ({"services": [{"name": "orders", "fail_times": True}]}, "fail_times"),
        ({"services": [{"name": "orders", "fail_times": "2"}]}, "fail_times"),
        ({"services": [{"name": "orders", "fail_times": -3}]}, "fail_times"),
    ])
    def test_config_integers_must_be_integers(self, tmp_path, fields, named):
        from rmaws.server.handlers import HandlerRegistry
        from rmaws.server.http import ServerConfig
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(fields))
        with pytest.raises(ValueError, match=named):
            HandlerRegistry.from_config(ServerConfig.load(str(cfg_path), env={}).services)

    def test_environment_integers_are_decimal_text(self, tmp_path):
        from rmaws.server.http import ServerConfig
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({}))
        cfg = ServerConfig.load(str(cfg_path), env={"RMAWS_CACHE_TTL_MS": "1500",
                                                    "RMAWS_PUSH_IDLE_TIMEOUT_MS": "250"})
        assert (cfg.cache_ttl_ms, cfg.push_idle_timeout_ms) == (1500, 250)

    @pytest.mark.parametrize("fields", [{"cache_ttl_ms": -1}, {"push_idle_timeout_ms": 0},
                                        {"store_path": 7}])
    def test_direct_construction_is_refused_too(self, fields):
        from rmaws.server.http import ServerConfig
        with pytest.raises(ValueError, match=next(iter(fields))):
            ServerConfig(**fields)

    def test_boundary_settings_are_accepted(self, tmp_path):
        from rmaws.server.http import ServerConfig
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"cache_ttl_ms": 0, "push_idle_timeout_ms": 1}))
        cfg = ServerConfig.load(str(cfg_path), env={})
        assert (cfg.cache_ttl_ms, cfg.push_idle_timeout_ms) == (0, 1)
        cfg_path.write_text(json.dumps({"cache_ttl_ms": None, "store_path": None}))
        cfg = ServerConfig.load(str(cfg_path), env={})
        assert (cfg.cache_ttl_ms, cfg.store_path) == (None, None)
