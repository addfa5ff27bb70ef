"""Scenario scripts for the deterministic fault simulator.

A scenario is a JSON document: service profiles, timed client sends, and
timed faults, all on one virtual clock. Fault kinds cover the transient
failures the protocol is built to survive: lost requests, lost responses,
client connectivity windows, dying push connections, and the server
closing an idle push connection.
"""

from __future__ import annotations

import functools
import json
from dataclasses import asdict, dataclass, field, fields

from ..client import SendOptions
from ..envelope import MAX_TRIAL, InvalidDeviceId, check_int, check_keys, rid_fields
from ..server.handlers import make_synthetic

# Drop faults target one send's attempts; timed faults act on a client at
# an instant of the virtual clock.
DROP_FAULT_KINDS = ("drop_request", "drop_http_response")
TIMED_FAULT_KINDS = ("client_offline", "client_online", "kill_push_conn", "push_idle_close")

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


# Every scenario of an enumeration sends with the template's options, so
# they are made once per process, for the validation and the run alike.
# Typed, so that ``True`` and ``1`` are not one entry: ``SendOptions``
# refuses a forced flag of 1 and accepts True.
@functools.lru_cache(maxsize=256, typed=True)
def send_options(http_timeout_ms: int, push_wait_ms: int, max_trials: int, forced: bool,
                 auth_token: str) -> SendOptions:
    return SendOptions(http_timeout_ms=http_timeout_ms, push_wait_ms=push_wait_ms,
                       max_trials=max_trials, forced=forced, auth_token=auth_token)


def _validate_send(spec: SendSpec, scenario: "ScenarioSpec") -> None:
    """Refuse a send that its run would fail on or misread, by building its
    options as the run does and checking its first rid's fields;
    ``ValueError`` names the field."""
    check_int("t", spec.t, 0, scenario.end_time_ms)
    check_int("payload_size", spec.payload_size)
    if spec.payload_hex is not None:
        try:
            bytes.fromhex(spec.payload_hex)
        except (TypeError, ValueError):
            raise ValueError("payload_hex is not hex") from None
    if not isinstance(spec.client, str):
        raise ValueError(f"client {spec.client!r} is not text")
    try:
        send_options(spec.http_timeout_ms, spec.push_wait_ms, spec.max_trials, spec.forced,
                     scenario.auth_token)
    except TypeError:  # a value the cache cannot hash, which SendOptions names
        SendOptions(spec.http_timeout_ms, spec.push_wait_ms, spec.max_trials, spec.forced)
    name, device = ("client", spec.client) if spec.device_id is None \
        else ("device_id", spec.device_id)
    try:
        rid_fields(device, spec.t if spec.timestamp_ms is None else spec.timestamp_ms,
                   spec.service)
    except InvalidDeviceId as exc:
        raise ValueError(f"{name} {device!r} cannot be a rid's device id: {exc}") from None


def _rows(raw: dict, key: str) -> list:
    rows = raw.get(key, [])
    if not isinstance(rows, list):  # text or an object would be read as another list
        raise TypeError(f"{key} must be a list, got {rows!r}")
    return rows


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
        """Refuse a scenario that a run could not carry out or would misread.
        A rule's owner checks its fields: ``make_synthetic`` a service,
        ``SendOptions`` and ``rid_fields`` a send. A ``DecisionTree``
        runs this once for its template, not once per scenario."""
        for key in ("name", "auth_token"):
            if not isinstance(getattr(self, key), str):
                raise ScenarioInvalid(f"{key} must be text, got {getattr(self, key)!r}")
        check_int("end_time_ms", self.end_time_ms, error=ScenarioInvalid)
        if self.latency.keys() != DEFAULT_LATENCY.keys():
            raise ScenarioInvalid(f"latency needs exactly {sorted(DEFAULT_LATENCY)}")
        for key, value in self.latency.items():
            check_int(f"latency {key}", value, error=ScenarioInvalid)
        for svc in self.services:
            try:
                make_synthetic(svc.name, output_size=svc.output_size, delay_ms=svc.delay_ms,
                               fail_times=svc.fail_times)
            except ValueError as exc:
                raise ScenarioInvalid(str(exc)) from None
        known = {svc.name for svc in self.services}
        if len(known) != len(self.services):
            raise ScenarioInvalid("duplicate service profiles")
        for index, spec in enumerate(self.sends):
            try:
                _validate_send(spec, self)
            except ValueError as exc:
                raise ScenarioInvalid(f"send {index}: {exc}") from None
            if spec.service not in known:
                raise ScenarioInvalid(f"send references unknown service {spec.service!r}")
        for fault in self.faults:
            self.validate_fault(fault)
        timed = [fault.t for fault in self.faults if fault.kind not in DROP_FAULT_KINDS]
        if timed != sorted(timed):
            raise ScenarioInvalid("timed faults must be sorted by time")

    def validate_fault(self, fault: FaultSpec) -> None:
        """Refuse a fault that no run of the sends can apply: ``t`` is an
        integer of at least 0, a drop names a send and a trial (null for
        all), a timed fault a client; a field its kind does not read is null."""
        kind = fault.kind
        check_int(f"{kind} fault's t", fault.t, error=ScenarioInvalid)
        if kind in DROP_FAULT_KINDS:
            check_int(f"{kind} fault needs a valid send index: send", fault.send, 0,
                      len(self.sends) - 1, ScenarioInvalid)
            if fault.trial is not None:
                check_int(f"{kind} fault's trial", fault.trial, 1, MAX_TRIAL, ScenarioInvalid)
            unread = (fault.client,)
        elif kind in TIMED_FAULT_KINDS:
            if fault.client not in [send.client for send in self.sends]:
                raise ScenarioInvalid(f"{kind} fault needs a known client")
            unread = (fault.send, fault.trial)
        else:
            raise ScenarioInvalid(f"unknown fault kind {kind!r}")
        if any(value is not None for value in unread):
            raise ScenarioInvalid(f"{kind} fault has a field that its kind does not read")

    # -- JSON ------------------------------------------------------------

    def to_dict(self) -> dict:
        return asdict(self)

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioSpec":
        """Build and validate a scenario document; any key that is not one
        of the fields raises ``ScenarioInvalid`` naming it."""
        check_keys("the scenario", raw, {f.name for f in fields(cls)}, ScenarioInvalid)
        try:
            spec = cls(
                name=raw.get("name", "scenario"),
                end_time_ms=raw.get("end_time_ms", 60_000),
                auth_token=raw.get("auth_token", "sim-token"),
                latency={**DEFAULT_LATENCY, **raw.get("latency", {})},
                services=[ServiceProfile(**row) for row in _rows(raw, "services")],
                sends=[SendSpec(**row) for row in _rows(raw, "sends")],
                faults=[FaultSpec(**row) for row in _rows(raw, "faults")],
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
