"""Pluggable persistence for completed execution records.

A ``StoredRecord`` is the one record of a completed execution: the
server core caches it, saves it, answers from it and reports it. It
names the digest of the payload that owns its key, so a restarted
server refuses another payload under that key as a live one does.

The live server keeps records in memory either way; a store only adds
durability so a restarted server can keep replaying completed responses.
The file store is append-only JSON lines with last-write-wins replay.
A record is stored once its line ends: a last line without its newline
is what a crash in the middle of ``save`` leaves, and loading drops it
and cuts the file back to the last whole line, so the next record
appended starts a line of its own. Any whole line that is not a record
fails the load with ``ValueError`` naming the file and the line.
"""

from __future__ import annotations

import base64
import json
import logging
import os
import threading
from dataclasses import dataclass
from typing import Protocol

log = logging.getLogger(__name__)


@dataclass(slots=True)
class StoredRecord:
    status: str  # "ok" | "failed"
    body: bytes  # b"" for a failed execution
    error_code: str | None  # None exactly when the status is "ok"
    completed_at: int
    execution_count: int
    payload_digest: bytes  # SHA-256 of the payload that owns the key


class RecordStore(Protocol):
    def load_all(self) -> dict[str, StoredRecord]: ...

    def save(self, key: str, record: StoredRecord) -> None: ...


class MemoryStore:
    def __init__(self):
        self._records: dict[str, StoredRecord] = {}

    def load_all(self) -> dict[str, StoredRecord]:
        return dict(self._records)

    def save(self, key: str, record: StoredRecord) -> None:
        self._records[key] = record


def _field(row: dict, name: str, kind: type, nullable: bool = False):
    value = row.get(name)
    if (value is None and nullable) or (isinstance(value, kind) and not isinstance(value, bool)):
        return value
    raise ValueError(f"field {name!r} must be {'null or ' if nullable else ''}"
                     f"{'an integer' if kind is int else 'a string'}, got {value!r}")


def _record(line: bytes) -> tuple[str, StoredRecord]:
    """The key and record of one store line; ``ValueError`` for a line
    that is not one."""
    row = json.loads(line)
    if not isinstance(row, dict):
        raise ValueError("not a JSON object")
    status = _field(row, "status", str)
    error_code = _field(row, "error_code", str, nullable=True)
    if status not in ("ok", "failed") or (error_code is None) != (status == "ok"):
        raise ValueError(f"status {status!r} with error_code {error_code!r}")
    digest = _field(row, "payload_digest", str)
    if len(digest) != 64 or digest.strip("0123456789abcdefABCDEF"):
        raise ValueError(f"payload_digest must be 64 hex digits, got {digest!r}")
    body = base64.b64decode(_field(row, "body", str), validate=True)  # binascii.Error is a ValueError
    return _field(row, "key", str), StoredRecord(
        status, body, error_code, _field(row, "completed_at", int),
        _field(row, "execution_count", int), bytes.fromhex(digest))


class AppendOnlyFileStore:
    def __init__(self, path: str):
        self.path = path
        self._lock = threading.Lock()

    def load_all(self) -> dict[str, StoredRecord]:
        records: dict[str, StoredRecord] = {}
        if not os.path.exists(self.path):
            return records
        whole = 0  # bytes in the file's whole lines
        with open(self.path, "rb") as fh:
            for number, line in enumerate(fh, 1):
                if not line.endswith(b"\n"):
                    log.warning("%s: dropping a torn last record of %d bytes", self.path, len(line))
                    with open(self.path, "r+b") as out:
                        out.truncate(whole)
                    break
                whole += len(line)
                if not line.strip():
                    continue
                # JSON and UTF-8 errors are ValueErrors too; a JSON value
                # nested past the parser's depth raises RecursionError.
                try:
                    key, record = _record(line)
                except (ValueError, RecursionError) as exc:
                    raise ValueError(f"{self.path}:{number}: not a record: {exc}") from None
                records[key] = record
        return records

    def save(self, key: str, record: StoredRecord) -> None:
        row = {
            "key": key,
            "status": record.status,
            "body": base64.b64encode(record.body).decode("ascii"),
            "error_code": record.error_code,
            "completed_at": record.completed_at,
            "execution_count": record.execution_count,
            "payload_digest": record.payload_digest.hex(),
        }
        with self._lock:
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(row, sort_keys=True) + "\n")
