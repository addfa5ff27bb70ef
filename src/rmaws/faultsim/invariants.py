"""Named protocol invariants, checked as pure predicates over a trace."""

from __future__ import annotations

from dataclasses import dataclass

from ..envelope import OVERHEAD_BYTES
from .trace import Trace

AT_MOST_ONCE = "AtMostOnceViolated"
DELIVERY_LOST = "DeliveryLost"
BODY_MISMATCH = "BodyMismatch"
SOCKET_HYGIENE = "SocketHygieneViolated"
WIRE_ACCOUNTING = "WireAccountingViolated"
RESPONSE_CONSERVATION = "ResponseConservationViolated"
SIMULATION_DIVERGED = "SimulationDiverged"


@dataclass(frozen=True)
class Violation:
    kind: str
    detail: str

    def to_dict(self) -> dict:
        return {"kind": self.kind, "detail": self.detail}


def check_invariants(trace: Trace) -> list[Violation]:
    """The invariants that ``trace`` violates, as a new list on each call.

    A trace with a ``verdict`` shares it with every trace of its behaviour
    that a ``DecisionTree`` gives: the first check of any of them runs the
    predicates and fills it, and each later one answers from it. That is
    sound because those traces are read-only and differ only in
    ``scenario_name``, which no predicate reads. A trace without one (a
    plain run, a run that diverged, one built by hand or a
    ``dataclasses.replace`` copy) is checked in full on every call."""
    verdict = trace.verdict
    if verdict is None:
        return _violations(trace)
    if verdict.violations is None:
        verdict.violations = tuple(_violations(trace))
    return list(verdict.violations)


def _violations(trace: Trace) -> list[Violation]:
    violations: list[Violation] = []
    # A run cut off by the step cap ended early: its trace proves nothing,
    # and the predicates below would judge a scenario that never finished.
    if trace.diverged:
        violations.append(Violation(
            SIMULATION_DIVERGED, "the simulation hit its step cap before the scenario ended"))
    forced = set(trace.forced_keys)
    failed = set(trace.failed_keys)

    # One pass over the events gathers what the predicates below read, in
    # event order: the keys completed, the sends exempt from delivery, the
    # keys some response reached, and the push deliveries whose body is
    # not the reference.
    key_of = {out["send"]: out.get("key") for out in trace.outcomes}
    completed_keys = set()
    exempt = set()
    receipt_keys = set()
    push_mismatches = []
    for e in trace.events:
        kind = e["kind"]
        if kind == "server_record_completed":
            completed_keys.add(e.get("key"))
        elif kind == "send_failed":
            # Two failed sends are owed nothing. One the server refused as
            # IdentityConflict reused another request's id, so the body
            # completed under that key was never its to receive, and the
            # rejection was its answer. One that gave up before its key
            # first completed had nothing to receive while it waited.
            if key_of.get(e["send"]) not in completed_keys \
                    or e.get("detail", "").startswith("IdentityConflict"):
                exempt.add(e["send"])
        elif kind == "http_response":
            receipt_keys.add(key_of.get(e.get("send")))
        elif kind == "push_deliver":
            receipt_keys.add(e.get("key"))
            if e.get("status") == "Ok":
                expected = trace.expected_bodies.get(e.get("key"))
                if expected is not None and e.get("body_sha") != expected:
                    push_mismatches.append(Violation(
                        BODY_MISMATCH, f"push delivery for {e.get('key')!r} body mismatch"))

    # At-most-once: a key whose sends all carry forced=false executes at
    # most once, no matter the fault interleaving. Handler failures are
    # exempt by design: a Failed record re-executes on retry.
    for key in sorted(trace.execution_counts):
        count = trace.execution_counts[key]
        if count > 1 and key not in forced and key not in failed:
            violations.append(Violation(
                AT_MOST_ONCE, f"key {key!r} executed {count} times without is_forced"))

    # Eventual delivery: a completed response must reach any client that
    # is reachable again by the end of the scenario, unless its send is
    # exempt (above).
    for out in trace.outcomes:
        key = out.get("key")
        if key is None or out.get("status") == "Ok" or out["send"] in exempt:
            continue
        if key in completed_keys and trace.clients_online_at_end.get(out["client"], False):
            violations.append(Violation(
                DELIVERY_LOST,
                f"send {out['send']} never received the completed response for {key!r}"))

    # Body transparency: every successful delivery carries exactly the
    # bytes the reference (direct-mode) handler run produces for that
    # send's own payload, so a send answered with another send's body is
    # caught even when the two share a key.
    for out in trace.outcomes:
        if out.get("status") != "Ok":
            continue
        expected = trace.send_expected_bodies.get(out["send"],
                                                  trace.expected_bodies.get(out["key"]))
        if expected is not None and out.get("body_sha") != expected:
            violations.append(Violation(
                BODY_MISMATCH, f"send {out['send']} body differs from the direct-mode run"))
    violations.extend(push_mismatches)

    # Socket hygiene: once every send for a key has ended (Ok, Exhausted,
    # Rejected, ...), the client holds no registration for it; once one is
    # answered, neither does the server. The server cannot tell a send that
    # gave up from one still waiting, so its registration may outlive one.
    ok_keys = {out["key"] for out in trace.outcomes if out.get("status") == "Ok"}
    waiting_keys = {out.get("key") for out in trace.outcomes if out.get("status") == "incomplete"}
    for key in sorted(set(trace.open_client_registrations) - waiting_keys):
        violations.append(Violation(
            SOCKET_HYGIENE, f"client registration for {key!r} survived its sends"))
    for key in sorted(set(trace.push_presence_at_end) & ok_keys):
        violations.append(Violation(
            SOCKET_HYGIENE, f"registration for {key!r} survived a successful outcome"))

    # Wire accounting: the codec's constant envelope overhead holds inside
    # a full system run, for every request that went on the wire.
    for wire_len, payload_len in trace.request_sizes:
        if wire_len - payload_len != OVERHEAD_BYTES:
            violations.append(Violation(
                WIRE_ACCOUNTING,
                f"request wire size {wire_len} != payload {payload_len} + {OVERHEAD_BYTES}"))

    # Conservation: every completed execution is delivered somewhere or
    # still sits in the cache at end time.
    cached = set(trace.cached_keys_at_end)
    for key in sorted(k for k in completed_keys if k is not None):
        if key not in receipt_keys and key not in cached:
            violations.append(Violation(
                RESPONSE_CONSERVATION, f"completed response for {key!r} vanished"))

    return violations
