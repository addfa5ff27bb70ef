"""Wrappers around the public callables of each rmaws layer.

``install(tracer)`` patches, from outside the package:

- ``envelope``: the request and push-frame codec functions, in every
  module that imported them by name;
- ``client``: ``Client.send``/``send_direct``, ``PushClient.register`` and
  the ``SendMachine`` transitions;
- ``server.core``: ``ServerCore.validate``/``submit``/``finish``/
  ``register_push``, and ``emit``, which only counts events;
  ``add_holdings`` reads what a core holds once a run ends;
- ``server.handlers``: ``ServiceHandler.run``;
- ``server.http``: ``RmawsRequestHandler.handle`` (one TCP connection),
  ``handle_one_request`` (one HTTP request, named by its path) and
  ``LiveExchange.respond``;
- ``push``: ``PushSession.push_response`` and ``ws.client_handshake``;
- ``faultsim``: the ``run`` and ``check_invariants`` that the enumeration
  calls per scenario, and ``SimWorld.run``, which only counts.

The same call installs everything in the bench process and in the server
process; each process records the layers that run in it.
"""

from __future__ import annotations

import rmaws.client
import rmaws.envelope
import rmaws.faultsim.enumeration
import rmaws.faultsim.sim
import rmaws.push
import rmaws.server.http
import rmaws.ws
from rmaws.client import Client, PushClient, SendMachine
from rmaws.faultsim.sim import SimWorld
from rmaws.push import PushSession
from rmaws.server.core import ServerCore
from rmaws.server.handlers import ServiceHandler
from rmaws.server.http import LiveExchange, RmawsRequestHandler

_CODEC_USERS = (rmaws.envelope, rmaws.client, rmaws.push, rmaws.server.http, rmaws.faultsim.sim)

MACHINE_TRANSITIONS = ("start", "on_http_response", "on_http_timeout",
                       "on_http_transport_error", "on_push_delivered", "on_push_timeout",
                       "on_push_register_failed", "on_push_dead", "on_pause_done")

COUNTED_EVENTS = {"cache_hit": "server.core.cache_hits",
                  "attach_wait": "server.core.attach_waits",
                  "identity_conflict": "server.core.identity_conflicts"}


def add_holdings(tracer, core: ServerCore) -> None:
    """Count what ``core`` holds, read through its public API: dedup
    entries, executions over them, and cached response-body bytes."""
    executions = core.execution_counts()
    body_bytes = 0
    for key in executions:
        record = core.record(key)
        if record is not None and record.body is not None:
            body_bytes += len(record.body)
    tracer.count("server.core.cores")
    tracer.count("server.core.entries_held", len(executions))
    tracer.count("server.core.executions", sum(executions.values()))
    tracer.count("server.core.body_bytes_held", body_bytes)


def _patch_function(tracer, name: str, span_name: str, key=None, after=None) -> None:
    original = getattr(rmaws.envelope, name)
    wrapped = tracer.wrap(span_name, original, key=key, after=after)
    for module in _CODEC_USERS:
        if getattr(module, name, None) is original:
            setattr(module, name, wrapped)


def _patch_method(tracer, cls, name: str, span_name: str, key=None, after=None) -> None:
    setattr(cls, name, tracer.wrap(span_name, getattr(cls, name), key=key, after=after))


def install(tracer) -> None:
    count = tracer.count

    # envelope
    def overhead(span, args, wire):
        count("envelope.requests_encoded")
        count("envelope.overhead_bytes_total", len(wire) - len(args[0].payload))

    _patch_function(tracer, "encode_request", "envelope.encode_request",
                    key=lambda a: a[0].rid.dedup_key, after=overhead)
    _patch_function(tracer, "decode_request", "envelope.decode_request")
    _patch_function(tracer, "encode_push_frame", "envelope.encode_push_frame")
    _patch_function(tracer, "decode_push_frame", "envelope.decode_push_frame")

    # client
    _patch_method(tracer, Client, "send", "client.send")
    _patch_method(tracer, Client, "send_direct", "client.send_direct")
    _patch_method(tracer, PushClient, "register", "client.push_register",
                  key=lambda a: a[1].dedup_key)
    for name in MACHINE_TRANSITIONS:
        _patch_method(tracer, SendMachine, name, f"client.machine.{name}",
                      key=lambda a: a[0].key)

    # server.core
    _patch_method(tracer, ServerCore, "validate", "server.core.validate")
    _patch_method(tracer, ServerCore, "submit", "server.core.submit",
                  key=lambda a: a[1].rid.dedup_key)
    _patch_method(tracer, ServerCore, "finish", "server.core.finish", key=lambda a: a[1].key)
    _patch_method(tracer, ServerCore, "register_push", "server.core.register_push",
                  key=lambda a: a[1].dedup_key)
    original_emit = ServerCore.emit

    def emit(core, kind, **fields):
        counted = COUNTED_EVENTS.get(kind)
        if counted is not None:
            count(counted)
        return original_emit(core, kind, **fields)

    ServerCore.emit = emit

    # server.handlers
    _patch_method(tracer, ServiceHandler, "run", "server.handlers.run")

    # server.http
    def name_by_path(span, args, result):
        # "/services/echo" -> "server.http.request/services"
        path = getattr(args[0], "path", "") or ""
        span[0] = "server.http.request/" + path.split("/")[1] if path.startswith("/") \
            else "server.http.request"

    _patch_method(tracer, RmawsRequestHandler, "handle", "server.http.connection")
    _patch_method(tracer, RmawsRequestHandler, "handle_one_request", "server.http.request",
                  after=name_by_path)
    _patch_method(tracer, LiveExchange, "respond", "server.http.respond",
                  key=lambda a: a[0].env.rid.dedup_key)

    # push
    _patch_method(tracer, PushSession, "push_response", "push.deliver",
                  key=lambda a: a[1].rid.dedup_key)
    rmaws.ws.client_handshake = tracer.wrap("push.ws_handshake", rmaws.ws.client_handshake)

    # faultsim
    def scenario_events(span, args, trace):
        count("faultsim.scenarios")
        count("faultsim.events", len(trace.events))

    enumeration = rmaws.faultsim.enumeration
    enumeration.run = tracer.wrap("faultsim.run", enumeration.run, after=scenario_events)
    enumeration.check_invariants = tracer.wrap("faultsim.check", enumeration.check_invariants)
    world_run = SimWorld.run

    def run_and_count_holdings(world):
        trace = world_run(world)
        add_holdings(tracer, world.core)
        return trace

    SimWorld.run = run_and_count_holdings
