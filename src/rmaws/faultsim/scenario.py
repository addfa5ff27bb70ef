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

from ..envelope import MAX_TIMESTAMP_MS, MAX_TRIAL, EnvelopeError, device_field, service_field
from ..server.handlers import check_delay_ms, check_fail_times, check_output_size

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


def _validate_send(index: int, spec: SendSpec) -> None:
    """Refuse what a run of the send would fail on: its options, its
    payload, and a device id that a rid cannot hold."""
    if type(spec.http_timeout_ms) is not int or spec.http_timeout_ms <= 0:
        raise ScenarioInvalid(f"send {index}: http_timeout_ms {spec.http_timeout_ms!r} "
                              f"is not a positive integer")
    if type(spec.push_wait_ms) is not int or spec.push_wait_ms <= 0:
        raise ScenarioInvalid(f"send {index}: push_wait_ms {spec.push_wait_ms!r} "
                              f"is not a positive integer")
    if type(spec.max_trials) is not int or not 1 <= spec.max_trials <= MAX_TRIAL:
        raise ScenarioInvalid(f"send {index}: max_trials {spec.max_trials!r} "
                              f"is not in 1..{MAX_TRIAL}")
    if spec.payload_hex is not None:
        try:
            bytes.fromhex(spec.payload_hex)
        except (TypeError, ValueError):
            raise ScenarioInvalid(f"send {index}: payload_hex is not hex") from None
    name, device = ("client", spec.client) if spec.device_id is None \
        else ("device_id", spec.device_id)
    try:
        device_field(device)
    except (EnvelopeError, TypeError):
        raise ScenarioInvalid(f"send {index}: {name} {device!r} cannot be a rid's device id") \
            from None


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
        """Refuse a scenario that a run could not carry out. An enumeration
        validates every scenario it answers, so this reads each field once."""
        known: set[str] = set()
        for svc in self.services:
            if not isinstance(svc.name, str):
                raise ScenarioInvalid(f"service name {svc.name!r} is not text")
            if svc.name in known:
                raise ScenarioInvalid("duplicate service profiles")
            known.add(svc.name)
            try:
                service_field(svc.name)
            except EnvelopeError as exc:
                raise ScenarioInvalid(f"service {svc.name!r}: name: {exc}") from None
            try:
                check_output_size(svc.name, svc.output_size)
                check_delay_ms(svc.name, svc.delay_ms)
                check_fail_times(svc.name, svc.fail_times)
            except ValueError as exc:
                raise ScenarioInvalid(str(exc)) from None
        clients: set[str] = set()
        for index, spec in enumerate(self.sends):
            if spec.service not in known:
                raise ScenarioInvalid(f"send references unknown service {spec.service!r}")
            if spec.t < 0 or spec.t > self.end_time_ms:
                raise ScenarioInvalid(f"send at t={spec.t} outside scenario window")
            ts = spec.timestamp_ms
            if ts is not None and (type(ts) is not int or not 0 <= ts <= MAX_TIMESTAMP_MS):
                raise ScenarioInvalid(f"send timestamp_ms {ts!r} is not a valid timestamp")
            _validate_send(index, spec)
            clients.add(spec.client)
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
        for key, value in self.latency.items():
            if key not in DEFAULT_LATENCY:
                raise ScenarioInvalid(f"unknown latency key {key!r}")
            if type(value) is not int:
                raise ScenarioInvalid(f"latency {key} {value!r} is not an integer")
        if len(self.latency) != len(DEFAULT_LATENCY):
            raise ScenarioInvalid(f"latency needs {sorted(DEFAULT_LATENCY)}")

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
