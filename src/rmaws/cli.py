"""Command-line entry point: serve, bench, sim, enumerate, report."""

from __future__ import annotations

import argparse
import importlib.resources
import json
import logging
import os
import signal
import sys
import threading

from .bench import (
    DEFAULT_PAYLOAD_SIZES,
    DEFAULT_RESPONSE_SIZES,
    FULL_RESPONSE_SIZES,
    BenchReport,
    bench_registry,
    run_bench,
)
from .faultsim import (
    FaultSpec,
    ScenarioInvalid,
    ScenarioSpec,
    check_invariants,
    enumerate_and_check,
    normalize_sites,
    run,
)
from .server.http import RmawsServer, ServerConfig

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_BAD_INPUT = 2


def _read_document(path: str) -> str:
    """Read a scenario/template: a filesystem path, or a bundled name."""
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    name = path if path.endswith(".json") else f"{path}.json"
    resource = importlib.resources.files("rmaws.scenarios").joinpath(name)
    if resource.is_file():
        return resource.read_text(encoding="utf-8")
    raise FileNotFoundError(path)


def bundled_scenarios() -> list[str]:
    names = []
    for entry in importlib.resources.files("rmaws.scenarios").iterdir():
        if entry.name.endswith(".json"):
            names.append(entry.name[:-len(".json")])
    return sorted(names)


def cmd_serve(args) -> int:
    try:
        server = RmawsServer(ServerConfig.load(args.config), break_dedup=args.break_dedup)
    except (OSError, ValueError) as exc:
        print(f"error: cannot serve config {args.config!r}: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    server.start()
    print(f"rmaws serving on {server.address[0]}:{server.address[1]} "
          f"(services: {', '.join(server.registry.names()) or 'none'})")
    stop = threading.Event()

    def on_signal(signum, frame):
        stop.set()

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    stop.wait()
    print("draining and shutting down ...")
    server.stop()
    return EXIT_OK


def _parse_sizes(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def cmd_bench(args) -> int:
    response_sizes = (_parse_sizes(args.response_sizes)
                      if args.response_sizes else list(DEFAULT_RESPONSE_SIZES))
    if args.full:
        response_sizes = response_sizes + [s for s in FULL_RESPONSE_SIZES
                                           if s not in response_sizes]
    payload_sizes = (_parse_sizes(args.payload_sizes)
                     if args.payload_sizes else list(DEFAULT_PAYLOAD_SIZES))

    server = None
    if args.server:
        host, _, port = args.server.rpartition(":")
        host, port = host or "127.0.0.1", int(port)
        token = args.token
    else:
        config = ServerConfig(bind_host="127.0.0.1", bind_port=0, auth_token=args.token,
                              cache_ttl_ms=None)
        server = RmawsServer(config, bench_registry(response_sizes)).start()
        host, port = server.address
    try:
        report = run_bench(host, port, args.token, payload_sizes=payload_sizes,
                           response_sizes=response_sizes)
    except Exception as exc:
        print(f"error: bench failed: {exc}", file=sys.stderr)
        if server is not None:
            server.stop()
        return EXIT_BAD_INPUT
    if server is not None:
        server.stop()

    text = report.render_text()
    print(text, end="")
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(report.to_json())
    print(f"report written to {args.out}")
    problems = report.problems()
    for problem in problems:
        print(f"invariant violated: {problem}", file=sys.stderr)
    return EXIT_VIOLATIONS if problems else EXIT_OK


def cmd_sim(args) -> int:
    try:
        scenario = ScenarioSpec.loads(_read_document(args.scenario))
    except FileNotFoundError:
        print(f"error: no such scenario {args.scenario!r} "
              f"(bundled: {', '.join(bundled_scenarios())})", file=sys.stderr)
        return EXIT_BAD_INPUT
    except ScenarioInvalid as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    trace = run(scenario, break_dedup=args.break_dedup)
    out_path = args.out or f"{scenario.name}.trace.jsonl"
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(trace.to_jsonl())
    violations = check_invariants(trace)
    for row in trace.outcomes:
        status = row.get("status") or row.get("error")
        channel = row.get("channel", "-")
        print(f"send {row['send']}: {status} via {channel} "
              f"after {row.get('trials', '?')} trial(s)")
    print(f"trace written to {out_path} ({len(trace.events)} events)")
    if violations:
        for violation in violations:
            print(f"invariant violated: {violation.kind}: {violation.detail}",
                  file=sys.stderr)
        return EXIT_VIOLATIONS
    print("all invariants hold")
    return EXIT_OK


def _load_template(path: str) -> tuple[ScenarioSpec, list]:
    raw = json.loads(_read_document(path))
    if not isinstance(raw, dict):
        raise ScenarioInvalid("template must be a JSON object")
    raw_sites = raw.pop("fault_sites", [])
    template = ScenarioSpec.from_dict(raw)
    if not isinstance(raw_sites, list):
        raise ScenarioInvalid(f"fault_sites must be a list, got {raw_sites!r}")
    sites = []
    for site in raw_sites:
        group = site if isinstance(site, list) else [site]
        sites.append([FaultSpec(**fault) for fault in group])
    return template, normalize_sites(sites)


def cmd_enumerate(args) -> int:
    try:
        template, sites = _load_template(args.template)
    except FileNotFoundError:
        print(f"error: no such template {args.template!r}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (ScenarioInvalid, TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        report = enumerate_and_check(template, sites, break_dedup=args.break_dedup)
    except ScenarioInvalid as exc:  # a fault site that no scenario can hold
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    out_path = args.out or f"{template.name}.enumeration.json"
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"{report.total_scenarios} scenario(s) over {len(sites)} fault site(s), "
          f"{report.simulator_runs} simulator run(s); {len(report.findings)} violating")
    print(f"report written to {out_path}")
    if not report.ok:
        first = report.first_violation
        print(f"first violation: sites={first.sites} "
              f"{[v.kind for v in first.violations]}", file=sys.stderr)
        return EXIT_VIOLATIONS
    return EXIT_OK


def cmd_report(args) -> int:
    try:
        with open(args.report, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read report {args.report!r}: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    if "rows" in raw:
        report = BenchReport(raw.get("payload_sizes", []), raw.get("response_sizes", []),
                             raw["rows"])
        print(report.render_text(), end="")
        return EXIT_OK
    if "total_scenarios" in raw:
        print(f"template: {raw.get('template')}")
        print(f"scenarios: {raw.get('total_scenarios')}  "
              f"simulator runs: {raw.get('simulator_runs')}  "
              f"violations: {raw.get('violation_count')}")
        for finding in raw.get("findings", []):
            kinds = [v["kind"] for v in finding.get("violations", [])]
            print(f"  sites={finding.get('sites')} -> {kinds}")
        return EXIT_OK
    print("error: unrecognized report document", file=sys.stderr)
    return EXIT_BAD_INPUT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rmaws",
        description="Reliable request/response delivery: dedup, caching, push fallback.",
    )
    parser.add_argument("--verbose", "-v", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("serve", help="run the live server until signalled")
    p.add_argument("--config", required=True, help="JSON config file")
    p.add_argument("--break-dedup", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("bench", help="compare direct and enveloped wire sizes")
    p.add_argument("--server", help="host:port of a running server (default: in-process)")
    p.add_argument("--token", default="", help="auth token for the server")
    p.add_argument("--payload-sizes", help="comma-separated request payload sizes")
    p.add_argument("--response-sizes", help="comma-separated response body sizes")
    p.add_argument("--full", action="store_true",
                   help="include the multi-megabyte response rows")
    p.add_argument("--out", default="report.json")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("sim", help="run one scenario and check invariants")
    p.add_argument("scenario", help="scenario JSON path or bundled name")
    p.add_argument("--out", help="trace output path (default <name>.trace.jsonl)")
    p.add_argument("--break-dedup", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(fn=cmd_sim)

    p = sub.add_parser("enumerate", help="run every fault combination of a template")
    p.add_argument("template", help="template JSON path or bundled name")
    p.add_argument("--out", help="report output path (default <name>.enumeration.json)")
    p.add_argument("--break-dedup", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("report", help="render a previously written report.json")
    p.add_argument("report")
    p.set_defaults(fn=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.WARNING,
                        format="%(asctime)s %(name)s %(levelname)s %(message)s")
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
