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


class HandlerFailure(Exception):
    """Raised by a handler to signal a service-level failure."""


def synthetic_body(service: str, payload: bytes, size: int) -> bytes:
    """Deterministic body of exactly ``size`` bytes for (service, payload);
    a shorter body is a prefix of a longer one."""
    return hashlib.shake_256(service.encode("utf-8") + b"\x00" + payload).digest(size)


def check_output_size(name: str, output_size) -> None:
    """Raise ``ValueError`` unless ``output_size`` is None or an int >= 0."""
    if output_size is None:
        return
    if isinstance(output_size, bool) or not isinstance(output_size, int) or output_size < 0:
        raise ValueError(f"service {name!r}: output_size must be null or a "
                         f"non-negative integer, not {output_size!r}")


def check_delay_ms(name: str, delay_ms) -> None:
    """Raise ``ValueError`` unless ``delay_ms`` is an int >= 0."""
    if isinstance(delay_ms, bool) or not isinstance(delay_ms, int) or delay_ms < 0:
        raise ValueError(f"service {name!r}: delay_ms must be a non-negative "
                         f"integer, not {delay_ms!r}")


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
) -> ServiceHandler:
    """Synthetic handler; the first ``fail_times`` invocations fail."""
    check_output_size(name, output_size)
    check_delay_ms(name, delay_ms)
    remaining = [fail_times]

    def fn(payload: bytes) -> bytes:
        if remaining[0] > 0:
            remaining[0] -= 1
            raise HandlerFailure(f"scripted failure in {name}")
        if output_size is None:
            return payload
        return synthetic_body(name, payload, output_size)

    return ServiceHandler(name=name, fn=fn, delay_ms=delay_ms)


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
        """Build a registry from config rows: name, delay_ms, output_size.
        A row that is not an object with a ``name`` raises ``ValueError``
        naming its index."""
        reg = cls()
        for index, row in enumerate(services):
            if not isinstance(row, dict) or "name" not in row:
                raise ValueError(f"services[{index}] must be an object with a \"name\"")
            reg.add(make_synthetic(
                row["name"],
                output_size=row.get("output_size"),
                delay_ms=row.get("delay_ms", 0),
                fail_times=int(row.get("fail_times", 0)),
            ))
        return reg
