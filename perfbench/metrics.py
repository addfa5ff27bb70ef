"""End-to-end and per-layer metrics from one measurement."""

from __future__ import annotations

import math
import statistics

from spans import durations_us, mean, self_times_us


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def windows(values: list, size: int) -> list[list]:
    """``values`` cut into consecutive windows of ``size``; a remainder
    too short for a window is left out, unless there is no whole window."""
    whole = [values[i:i + size] for i in range(0, len(values) - size + 1, size)]
    return whole or [values]


def _beyond(n: int, pct: float) -> int:
    return n - max(1, math.ceil(pct / 100.0 * n))


def tail(workload, phase) -> tuple[float, str]:
    """``latency_tail_ms`` in seconds, and a note of how it was taken.

    Live workloads: the median over windows of ``workload.tail_window``
    operations of each window's ``workload.tail_pct`` percentile, so a
    slow spell of the host moves the tail of the few windows it falls in,
    not the median. The simulator runs the same scenarios in the same
    order in every block (one enumeration): the percentile is over
    scenarios, of each scenario's median time over the blocks, so it
    speaks of the slowest scenarios rather than of the host's jitter.
    """
    pct = workload.tail_pct
    if workload.tail_by_scenario:
        runs = windows(phase.latencies, phase.blocks[0].ops)
        sample = [statistics.median(times) for times in zip(*runs)]
        return percentile(sample, pct), (
            f"latency_tail_ms is p{pct:g} over {len(sample)} scenarios of each scenario's "
            f"median over {len(runs)} enumeration(s) ({_beyond(len(sample), pct)} beyond it)")
    parts = windows(phase.latencies, workload.tail_window)
    value = statistics.median(percentile(w, pct) for w in parts)
    return value, (f"latency_tail_ms is the median over {len(parts)} window(s) of "
                   f"{len(parts[0])} sends of each window's p{pct:g} "
                   f"({_beyond(len(parts[0]), pct)} beyond it)")


def per_block(phase, value) -> float:
    """The median over ``phase``'s blocks of ``value(block)``."""
    return statistics.median(value(b) for b in phase.blocks)


def end_to_end(workload, m) -> dict:
    main, direct = m.main, m.direct
    values = {
        "setup_s": (statistics.median(m.setups_s), "s"),
        "throughput_rps": (per_block(main, lambda b: b.ops / b.wall_s), "1/s"),
        "latency_p50_ms": (statistics.median(main.latencies) * 1e3, "ms"),
        "latency_tail_ms": (tail(workload, main)[0] * 1e3, "ms"),
        "goodput_mbps": (per_block(main, lambda b: b.body_bytes / b.wall_s / 1e6), "MB/s"),
        "direct_rps": (per_block(direct, lambda b: b.ops / b.wall_s), "1/s"),
        "server_rss_mb": (m.rss_mb, "MB"),
        "server_cpu_us_per_op": (per_block(main, lambda b: b.cpu_s / max(1, b.ops) * 1e6),
                                 "us"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


# -- per layer ---------------------------------------------------------------------------

PER_LAYER_UNITS = {
    "server.http.connections_per_send": "count",
    "server.http.request_self_us": "us",
    "server.http.respond_us": "us",
    "server.handlers.run_us": "us",
    "client.http_wait_ms": "ms",
    "server.core.entries_held": "count",
    "server.core.body_bytes_held": "bytes",
    "push.finish_to_deliver_ms": "ms",
    "push.ws_connects_per_fallback": "count",
    "push.ws_handshake_us": "us",
    "push.deliver_us": "us",
    "client.register_to_deliver_ms": "ms",
    "faultsim.run_us": "us",
    "faultsim.check_us": "us",
    "faultsim.events_per_scenario": "count",
    "server.core.submit_us": "us",
    "server.core.finish_us": "us",
    "server.core.register_push_us": "us",
    "envelope.encode_request_us": "us",
    "envelope.decode_request_us": "us",
    "envelope.push_frame_us": "us",
    "server.core.executions_per_identity": "count",
    "server.core.cache_hits": "count",
    "server.core.attach_waits": "count",
    "server.core.identity_conflicts": "count",
    "client.trials_per_send": "count",
    "client.sends_via_http": "count",
    "client.sends_via_push": "count",
    "client.sends_via_cache_replay": "count",
    "envelope.overhead_bytes": "bytes",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _gaps_ms(spans, ends: set[str], starts: set[str]) -> list[float]:
    """Per key, from the end of each ``ends`` span to the start of the
    next ``starts`` span for that key."""
    by_key: dict[str, list] = {}
    for span in spans:
        if span[5] is not None and (span[0] in ends or span[0] in starts):
            by_key.setdefault(span[5], []).append(span)
    gaps = []
    for events in by_key.values():
        events.sort(key=lambda s: s[1])
        opened = None
        for span in events:
            if span[0] in ends:
                opened = span[2]
            elif opened is not None:
                gaps.append((span[1] - opened) / 1e6)
                opened = None
    return gaps


def _cross_gaps_ms(ends, starts) -> list[float]:
    """From the end of the latest ``ends`` span of a key to the start of
    each ``starts`` span of that key; the two may come from different
    processes on one host."""
    last_end: dict[str, list[int]] = {}
    for span in ends:
        last_end.setdefault(span[5], []).append(span[2])
    gaps = []
    for span in starts:
        before = [t for t in last_end.get(span[5], ()) if t <= span[1]]
        if before:
            gaps.append((span[1] - max(before)) / 1e6)
    return gaps


def per_layer(m) -> dict:
    """Per-layer metrics from the span dumps of a traced run.

    ``m.docs`` holds the bench process's dump and, for a live workload,
    the server process's. Times are means per call; a layer that a
    workload does not run reads 0.
    """
    all_spans = [s for doc in m.docs for s in doc["spans"]]
    counts: dict[str, int] = {}
    for doc in m.docs:
        for name, n in doc["counts"].items():
            counts[name] = counts.get(name, 0) + n

    def us(*names):
        return mean(d for name in names for d in durations_us(all_spans, name))

    def spans_named(name):
        return [s for s in all_spans if s[0] == name]

    services_request = "server.http.request/services"
    server_spans = m.docs[-1]["spans"]
    # a request span's parent is the connection span it arrived on
    connections = {s[4] for s in server_spans if s[0] == services_request}
    fallbacks = len(spans_named("client.machine.on_http_timeout"))
    values = {
        "server.http.connections_per_send": _ratio(len(connections),
                                                   len(spans_named("client.send"))),
        "server.http.request_self_us": mean(self_times_us(server_spans, services_request)),
        "server.http.respond_us": us("server.http.respond"),
        "server.handlers.run_us": us("server.handlers.run"),
        "client.http_wait_ms": mean(_gaps_ms(
            all_spans, {"client.machine.start"},
            {"client.machine.on_http_response", "client.machine.on_http_timeout",
             "client.machine.on_http_transport_error"})),
        "server.core.entries_held": _ratio(counts.get("server.core.entries_held", 0),
                                           counts.get("server.core.cores", 0)),
        "server.core.body_bytes_held": _ratio(counts.get("server.core.body_bytes_held", 0),
                                              counts.get("server.core.cores", 0)),
        "push.finish_to_deliver_ms": mean(_cross_gaps_ms(
            spans_named("server.core.finish"), spans_named("client.machine.on_push_delivered"))),
        "push.ws_connects_per_fallback": _ratio(len(spans_named("push.ws_handshake")),
                                                fallbacks),
        "push.ws_handshake_us": us("push.ws_handshake"),
        "push.deliver_us": us("push.deliver"),
        "client.register_to_deliver_ms": mean(_gaps_ms(
            all_spans, {"client.machine.on_http_timeout"},
            {"client.machine.on_push_delivered"})),
        "faultsim.run_us": us("faultsim.run"),
        "faultsim.check_us": us("faultsim.check"),
        "faultsim.events_per_scenario": _ratio(counts.get("faultsim.events", 0),
                                               counts.get("faultsim.scenarios", 0)),
        "server.core.submit_us": us("server.core.submit"),
        "server.core.finish_us": us("server.core.finish"),
        "server.core.register_push_us": us("server.core.register_push"),
        "envelope.encode_request_us": us("envelope.encode_request"),
        "envelope.decode_request_us": us("envelope.decode_request"),
        "envelope.push_frame_us": us("envelope.encode_push_frame", "envelope.decode_push_frame"),
        "server.core.executions_per_identity": _ratio(
            counts.get("server.core.executions", 0), counts.get("server.core.entries_held", 0)),
        "server.core.cache_hits": counts.get("server.core.cache_hits", 0),
        "server.core.attach_waits": counts.get("server.core.attach_waits", 0),
        "server.core.identity_conflicts": counts.get("server.core.identity_conflicts", 0),
        "client.trials_per_send": _ratio(sum(m.trials), len(m.trials)),
        "client.sends_via_http": m.channels.get("Http", 0),
        "client.sends_via_push": m.channels.get("Push", 0),
        "client.sends_via_cache_replay": m.channels.get("CacheReplay", 0),
        "envelope.overhead_bytes": _ratio(counts.get("envelope.overhead_bytes_total", 0),
                                          counts.get("envelope.requests_encoded", 0)),
    }
    return {name: {"value": values[name], "unit": PER_LAYER_UNITS[name]} for name in values}
