"""Scenario scripts for the deterministic fault simulator.

A scenario is a JSON document: service profiles, timed client sends, and
timed faults, all on one virtual clock. Fault kinds cover the transient
failures the protocol is built to survive: lost requests, lost responses,
client connectivity windows, dying push connections, and the server
closing an idle push connection.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from ..envelope import MAX_TIMESTAMP_MS
from ..server.handlers import check_delay_ms, check_output_size

# Drop faults target one send's attempts; timed faults act on a client at
# an instant of the virtual clock.
DROP_FAULT_KINDS = ("drop_request", "drop_http_response")
TIMED_FAULT_KINDS = ("client_offline", "client_online", "kill_push_conn", "push_idle_close")
FAULT_KINDS = DROP_FAULT_KINDS + TIMED_FAULT_KINDS

DEFAULT_LATENCY = {"request_ms": 5, "response_ms": 5, "push_ms": 5}


class ScenarioInvalid(ValueError):
    pass


@dataclass
class ServiceProfile:
    name: str
    delay_ms: int = 0
    output_size: int | None = None
    fail_times: int = 0


@dataclass
class SendSpec:
    t: int
    service: str
    client: str = "c1"
    device_id: str | None = None  # defaults to the client name
    payload_size: int = 0
    payload_hex: str | None = None
    http_timeout_ms: int = 2_000
    push_wait_ms: int = 3_000
    max_trials: int = 3
    forced: bool = False
    # Stamps the send as given instead of through the per-device
    # allocator: a misbehaving clock, which may reuse another send's id.
    timestamp_ms: int | None = None

    def payload(self, index: int) -> bytes:
        if self.payload_hex is not None:
            return bytes.fromhex(self.payload_hex)
        return bytes((index * 31 + i * 7) % 256 for i in range(self.payload_size))


@dataclass
class FaultSpec:
    kind: str
    t: int = 0
    send: int | None = None  # index into sends, for drop_* kinds
    trial: int | None = None  # specific trial, or None for every trial
    client: str | None = None  # for the timed kinds

    def matches_attempt(self, send_index: int, trial: int) -> bool:
        return self.send == send_index and (self.trial is None or self.trial == trial)


@dataclass
class ScenarioSpec:
    name: str = "scenario"
    end_time_ms: int = 60_000
    auth_token: str = "sim-token"
    latency: dict = field(default_factory=lambda: dict(DEFAULT_LATENCY))
    services: list[ServiceProfile] = field(default_factory=list)
    sends: list[SendSpec] = field(default_factory=list)
    faults: list[FaultSpec] = field(default_factory=list)

    def validate(self) -> None:
        known = {svc.name for svc in self.services}
        if len(known) != len(self.services):
            raise ScenarioInvalid("duplicate service profiles")
        for svc in self.services:
            try:
                check_output_size(svc.name, svc.output_size)
                check_delay_ms(svc.name, svc.delay_ms)
            except ValueError as exc:
                raise ScenarioInvalid(str(exc)) from None
        for spec in self.sends:
            if spec.service not in known:
                raise ScenarioInvalid(f"send references unknown service {spec.service!r}")
            if spec.t < 0 or spec.t > self.end_time_ms:
                raise ScenarioInvalid(f"send at t={spec.t} outside scenario window")
            ts = spec.timestamp_ms
            if ts is not None and (isinstance(ts, bool) or not isinstance(ts, int)
                                   or not 0 <= ts <= MAX_TIMESTAMP_MS):
                raise ScenarioInvalid(f"send timestamp_ms {ts!r} is not a valid timestamp")
        clients = {spec.client for spec in self.sends}
        last_t = None
        for fault in self.faults:
            if fault.kind not in FAULT_KINDS:
                raise ScenarioInvalid(f"unknown fault kind {fault.kind!r}")
            if fault.kind in DROP_FAULT_KINDS:
                if fault.send is None or not 0 <= fault.send < len(self.sends):
                    raise ScenarioInvalid(f"{fault.kind} fault needs a valid send index")
            else:
                if fault.client is None or fault.client not in clients:
                    raise ScenarioInvalid(f"{fault.kind} fault needs a known client")
                if fault.t < 0:
                    raise ScenarioInvalid("fault time must be non-negative")
                if last_t is not None and fault.t < last_t:
                    raise ScenarioInvalid("timed faults must be sorted by time")
                last_t = fault.t
        for key in self.latency:
            if key not in DEFAULT_LATENCY:
                raise ScenarioInvalid(f"unknown latency key {key!r}")

    # -- JSON ------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "end_time_ms": self.end_time_ms,
            "auth_token": self.auth_token,
            "latency": dict(self.latency),
            "services": [asdict(s) for s in self.services],
            "sends": [asdict(s) for s in self.sends],
            "faults": [asdict(f) for f in self.faults],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioSpec":
        try:
            spec = cls(
                name=raw.get("name", "scenario"),
                end_time_ms=int(raw.get("end_time_ms", 60_000)),
                auth_token=raw.get("auth_token", "sim-token"),
                latency={**DEFAULT_LATENCY, **raw.get("latency", {})},
                services=[ServiceProfile(**row) for row in raw.get("services", [])],
                sends=[SendSpec(**row) for row in raw.get("sends", [])],
                faults=[FaultSpec(**row) for row in raw.get("faults", [])],
            )
        except (TypeError, ValueError) as exc:
            raise ScenarioInvalid(f"bad scenario document: {exc}") from exc
        spec.validate()
        return spec

    @classmethod
    def loads(cls, text: str) -> "ScenarioSpec":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioInvalid(f"not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ScenarioInvalid("scenario document must be a JSON object")
        return cls.from_dict(raw)

    @classmethod
    def load(cls, path: str) -> "ScenarioSpec":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.loads(fh.read())
