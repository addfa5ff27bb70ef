"""Pluggable persistence for completed execution records.

The live server keeps records in memory either way; a store only adds
durability so a restarted server can keep replaying completed responses.
The file store is append-only JSON lines with last-write-wins replay.
A record is stored once its line ends: a last line without its newline
is what a crash in the middle of ``save`` leaves, and loading drops it
and cuts the file back to the last whole line, so the next record
appended starts a line of its own. Any whole line that is not a record
fails the load.
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


@dataclass
class StoredRecord:
    status: str  # "ok" | "failed"
    body: bytes
    error_code: str | None
    completed_at: int
    execution_count: int


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
            for line in fh:
                if not line.endswith(b"\n"):
                    log.warning("%s: dropping a torn last record of %d bytes", self.path, len(line))
                    with open(self.path, "r+b") as out:
                        out.truncate(whole)
                    break
                whole += len(line)
                if not line.strip():
                    continue
                row = json.loads(line)
                records[row["key"]] = StoredRecord(
                    status=row["status"],
                    body=base64.b64decode(row["body"]),
                    error_code=row.get("error_code"),
                    completed_at=int(row["completed_at"]),
                    execution_count=int(row["execution_count"]),
                )
        return records

    def save(self, key: str, record: StoredRecord) -> None:
        row = {
            "key": key,
            "status": record.status,
            "body": base64.b64encode(record.body).decode("ascii"),
            "error_code": record.error_code,
            "completed_at": record.completed_at,
            "execution_count": record.execution_count,
        }
        with self._lock:
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(row, sort_keys=True) + "\n")
