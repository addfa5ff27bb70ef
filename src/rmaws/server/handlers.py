"""Service handlers: named payload -> body functions with bench knobs.

Handlers are pluggable. The synthetic handler used by benchmarks and the
simulator produces a deterministic pseudo-random body of a configured
size, so body equality checks are meaningful end to end; with no
configured size it echoes the payload. The body is the first ``size``
bytes of the SHAKE-256 output of the UTF-8 service name, one zero byte
and the payload::

    hashlib.shake_256(service.encode("utf-8") + b"\x00" + payload).digest(size)

so anyone holding the service name and the payload can recompute it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable

from ..envelope import SERVICE_WIDTH, InvalidServiceName, check_int, check_keys, service_field


class HandlerFailure(Exception):
    """Raised by a handler to signal a service-level failure."""


def synthetic_body(service: str, payload: bytes, size: int) -> bytes:
    """Deterministic body of exactly ``size`` bytes for (service, payload);
    a shorter body is a prefix of a longer one."""
    return hashlib.shake_256(service.encode("utf-8") + b"\x00" + payload).digest(size)


@dataclass
class ServiceHandler:
    """A named service. ``delay_ms`` is scheduled by the driver, not here."""

    name: str
    fn: Callable[[bytes], bytes]
    delay_ms: int = 0

    def run(self, payload: bytes) -> bytes:
        return self.fn(payload)


def make_synthetic(
    name: str,
    *,
    output_size: int | None = None,
    delay_ms: int = 0,
    fail_times: int = 0,
    body: Callable[[str, bytes, int], bytes] = synthetic_body,
) -> ServiceHandler:
    """Synthetic handler; the first ``fail_times`` invocations fail. With
    an ``output_size``, ``body(name, payload, output_size)`` makes each
    output: ``synthetic_body``, or, for a caller that runs the same
    payloads over and over as the simulator does, a cached one.

    It owns a service profile's rules, for the config and the simulator:
    the name is text a rid can hold, in the form a rid carries it (the
    registry keys the handler by the name, a request by its rid's),
    ``delay_ms``, ``fail_times`` and any ``output_size`` integers of at
    least 0; else ``ValueError`` names it."""
    where = f"service {name!r}"
    if not isinstance(name, str):
        raise ValueError(f"{where}: name must be text")
    try:
        carried = service_field(name).rstrip()
    except InvalidServiceName as exc:
        raise ValueError(f"{where}: name: {exc}") from None
    if carried != name:
        raise ValueError(f"{where}: name: a rid carries it as {carried!r}: it must have no "
                         f"surrounding spaces and at most {SERVICE_WIDTH} characters")
    if output_size is not None:
        check_int(f"{where}: output_size", output_size)
    check_int(f"{where}: delay_ms", delay_ms)
    check_int(f"{where}: fail_times", fail_times)
    remaining = [fail_times]

    def fn(payload: bytes) -> bytes:
        if remaining[0] > 0:
            remaining[0] -= 1
            raise HandlerFailure(f"scripted failure in {name}")
        if output_size is None:
            return payload
        return body(name, payload, output_size)

    return ServiceHandler(name=name, fn=fn, delay_ms=delay_ms)


_ROW_KEYS = ("name", "delay_ms", "output_size", "fail_times")


@dataclass
class HandlerRegistry:
    _handlers: dict[str, ServiceHandler] = field(default_factory=dict)

    def add(self, handler: ServiceHandler) -> "HandlerRegistry":
        self._handlers[handler.name] = handler
        return self

    def get(self, name: str) -> ServiceHandler | None:
        return self._handlers.get(name)

    def names(self) -> list[str]:
        return sorted(self._handlers)

    @classmethod
    def from_config(cls, services: list[dict]) -> "HandlerRegistry":
        """Build a registry from config rows: name, delay_ms, output_size,
        fail_times. A row that is not an object with a ``name``, or that has
        another key, raises ``ValueError`` naming its index."""
        reg = cls()
        for index, row in enumerate(services):
            if not isinstance(row, dict) or "name" not in row:
                raise ValueError(f"services[{index}] must be an object with a \"name\"")
            check_keys(f"services[{index}]", row, _ROW_KEYS)
            reg.add(make_synthetic(
                row["name"],
                output_size=row.get("output_size"),
                delay_ms=row.get("delay_ms", 0),
                fail_times=row.get("fail_times", 0),
            ))
        return reg
