"""Size report comparing direct and enveloped request paths.

For each (payload size, response size) pair the harness drives both the
raw ``/direct`` route and the full protocol path against a live server
and records wire sizes, which are deterministic byte counts. Timing is
``perfbench``'s job (``python3 perfbench/run.py``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .client import Client, SendOptions, build
from .envelope import OVERHEAD_BYTES, ResponseStatus, encode_request
from .server.handlers import HandlerRegistry, make_synthetic

DEFAULT_PAYLOAD_SIZES = [25, 55]
DEFAULT_RESPONSE_SIZES = [5, 191745, 2167000]
FULL_RESPONSE_SIZES = [4592949, 6828571]  # multi-MB rows, behind --full


def service_name_for(response_size: int) -> str:
    return f"bench{response_size}"


def bench_registry(response_sizes: list[int]) -> HandlerRegistry:
    registry = HandlerRegistry()
    for size in response_sizes:
        registry.add(make_synthetic(service_name_for(size), output_size=size))
    return registry


def bench_services_config(response_sizes: list[int]) -> list[dict]:
    return [{"name": service_name_for(size), "output_size": size, "delay_ms": 0}
            for size in response_sizes]


@dataclass
class BenchReport:
    payload_sizes: list[int]
    response_sizes: list[int]
    rows: list[dict] = field(default_factory=list)

    def problems(self) -> list[str]:
        """Check the report's own invariants."""
        out = []
        overheads = {row["overhead_bytes"] for row in self.rows}
        if len(overheads) > 1:
            out.append(f"overhead differs across rows: {sorted(overheads)}")
        if overheads and overheads != {OVERHEAD_BYTES}:
            out.append(f"overhead is {sorted(overheads)}, expected {OVERHEAD_BYTES}")
        for row in self.rows:
            if row["response_bytes_direct"] != row["response_bytes_rmaws"]:
                out.append(
                    f"response sizes differ on row {row['payload_size']}/{row['response_size']}")
        return out

    def to_dict(self) -> dict:
        return {
            "payload_sizes": self.payload_sizes,
            "response_sizes": self.response_sizes,
            "overhead_bytes": OVERHEAD_BYTES,
            "rows": self.rows,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def render_text(self) -> str:
        headers = [
            "payload", "response", "req_direct", "req_rmaws", "overhead",
            "resp_direct", "resp_rmaws",
        ]
        keys = [
            "payload_size", "response_size", "request_bytes_direct", "request_bytes_rmaws",
            "overhead_bytes", "response_bytes_direct", "response_bytes_rmaws",
        ]
        table = [headers] + [[str(row[k]) for k in keys] for row in self.rows]
        widths = [max(len(line[i]) for line in table) for i in range(len(headers))]
        lines = []
        for i, line in enumerate(table):
            lines.append("  ".join(cell.rjust(widths[j]) for j, cell in enumerate(line)))
            if i == 0:
                lines.append("  ".join("-" * widths[j] for j in range(len(widths))))
        return "\n".join(lines) + "\n"


def run_bench(
    host: str,
    port: int,
    auth_token: str,
    *,
    payload_sizes: list[int] | None = None,
    response_sizes: list[int] | None = None,
    device_id: str = "bench",
) -> BenchReport:
    payload_sizes = payload_sizes if payload_sizes is not None else list(DEFAULT_PAYLOAD_SIZES)
    response_sizes = response_sizes if response_sizes is not None else list(DEFAULT_RESPONSE_SIZES)
    report = BenchReport(payload_sizes, response_sizes)

    # A counter clock guarantees a fresh dedup key per row so every
    # enveloped request actually executes instead of replaying.
    tick = [1_700_000_000_000]

    def clock() -> int:
        tick[0] += 1
        return tick[0]

    opts = SendOptions(http_timeout_ms=120_000, push_wait_ms=120_000, max_trials=1,
                       auth_token=auth_token)
    with Client(host, port, device_id=device_id, auth_token=auth_token, clock=clock) as client:
        for payload_size in payload_sizes:
            payload = bytes(i % 256 for i in range(payload_size))
            for response_size in response_sizes:
                service = service_name_for(response_size)
                direct = client.send_direct(service, payload, opts)
                enveloped = client.send(service, payload, opts)
                if enveloped.status is not ResponseStatus.OK:
                    raise RuntimeError(f"bench send failed: {enveloped.status}")
                if direct.body != enveloped.body:
                    raise RuntimeError("direct and enveloped bodies differ")
                # Measure the wire size off the real codec rather than assuming
                # the constant; the report invariant then cross-checks it.
                wire_request = len(encode_request(build(service, payload, False, 1,
                                                        lambda: 1, device_id)))
                report.rows.append({
                    "payload_size": payload_size,
                    "response_size": response_size,
                    "request_bytes_direct": payload_size,
                    "request_bytes_rmaws": wire_request,
                    "overhead_bytes": wire_request - payload_size,
                    "response_bytes_direct": len(direct.body),
                    "response_bytes_rmaws": len(enveloped.body),
                })
    return report
