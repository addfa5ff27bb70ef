"""Trace: the totally ordered event log and summary of one simulation."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field


def body_digest(body: bytes) -> str:
    return hashlib.sha256(body).hexdigest()


class TraceRecorder:
    """Collects events in virtual-time order with a monotonic sequence;
    ``clock()`` gives the virtual time in integer milliseconds."""

    def __init__(self, clock):
        self._clock = clock
        self.events: list[dict] = []

    def emit(self, kind: str, **fields) -> None:
        # ``fields`` is a fresh dict, so it becomes the event; key order is
        # irrelevant because ``Trace.to_jsonl`` sorts keys.
        fields["t"] = self._clock()
        fields["seq"] = len(self.events)
        fields["kind"] = kind
        self.events.append(fields)

    def record(self, kind: str, fields: dict) -> None:
        """``emit`` for a dict that the caller hands over: it becomes the
        event."""
        fields["t"] = self._clock()
        fields["seq"] = len(self.events)
        fields["kind"] = kind
        self.events.append(fields)


class Verdict:
    """The violations that one behaviour's traces show, or None until the
    first of them is checked; see ``invariants.check_invariants``."""

    __slots__ = ("violations",)

    def __init__(self):
        self.violations: tuple | None = None


@dataclass
class Trace:
    """Everything a run produced. ``to_jsonl`` is byte-deterministic for a
    given scenario; raw bodies, per-send reference digests and the
    divergence flag stay in memory only."""

    scenario_name: str
    end_time_ms: int
    latency: dict
    events: list[dict]
    outcomes: list[dict]
    execution_counts: dict[str, int]
    forced_keys: list[str]
    failed_keys: list[str]
    expected_bodies: dict[str, str]  # dedup key -> reference body sha256 of its owner's payload
    cached_keys_at_end: list[str]
    open_client_registrations: list[str]
    push_presence_at_end: list[str]
    clients_online_at_end: dict[str, bool]
    wire: dict[str, int]
    request_sizes: list[list[int]]  # [wire_len, payload_len] per post
    raw_bodies: dict[int, bytes] = field(default_factory=dict, repr=False)
    # send index -> sha256 of the body that send's own payload produces
    send_expected_bodies: dict[int, str] = field(default_factory=dict, repr=False)
    # True when the run hit the simulator's step cap with events still due
    # inside the scenario window: the trace then ends early.
    diverged: bool = field(default=False, repr=False)
    # Set on a trace that a ``DecisionTree`` keeps, and shared by every
    # trace of its behaviour; None checks the trace in full on each call.
    # Not an ``__init__`` argument, so ``dataclasses.replace`` drops it.
    verdict: Verdict | None = field(default=None, init=False, repr=False, compare=False)

    def renamed(self, scenario_name: str) -> "Trace":
        """This trace under another scenario's name, sharing every other
        value with it, its ``verdict`` too. Copying the instance's fields
        skips the dataclass constructor, which checks nothing here."""
        trace = object.__new__(Trace)
        trace.__dict__.update(self.__dict__)
        trace.scenario_name = scenario_name
        return trace

    def summary(self) -> dict:
        return {
            "kind": "summary",
            "scenario": self.scenario_name,
            "end_time_ms": self.end_time_ms,
            "latency": {k: self.latency[k] for k in sorted(self.latency)},
            "outcomes": self.outcomes,
            "execution_counts": {k: self.execution_counts[k] for k in sorted(self.execution_counts)},
            "forced_keys": sorted(self.forced_keys),
            "failed_keys": sorted(self.failed_keys),
            "expected_bodies": {k: self.expected_bodies[k] for k in sorted(self.expected_bodies)},
            "cached_keys_at_end": sorted(self.cached_keys_at_end),
            "open_client_registrations": sorted(self.open_client_registrations),
            "push_presence_at_end": sorted(self.push_presence_at_end),
            "clients_online_at_end": {k: self.clients_online_at_end[k]
                                      for k in sorted(self.clients_online_at_end)},
            "wire": {k: self.wire[k] for k in sorted(self.wire)},
            "request_sizes": self.request_sizes,
        }

    def to_jsonl(self) -> str:
        lines = [json.dumps(event, sort_keys=True, separators=(",", ":"))
                 for event in self.events]
        lines.append(json.dumps(self.summary(), sort_keys=True, separators=(",", ":")))
        return "\n".join(lines) + "\n"

    def events_of(self, kind: str) -> list[dict]:
        return [e for e in self.events if e["kind"] == kind]
