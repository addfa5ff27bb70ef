from .core import (
    ExecutionRecord,
    PushRoute,
    RecordState,
    ServerCore,
    ValidationError,
)
from .handlers import HandlerFailure, HandlerRegistry, ServiceHandler, make_synthetic, synthetic_body
from .store import AppendOnlyFileStore, MemoryStore, RecordStore, StoredRecord

__all__ = [
    "AppendOnlyFileStore",
    "ExecutionRecord",
    "HandlerFailure",
    "HandlerRegistry",
    "MemoryStore",
    "PushRoute",
    "RecordState",
    "RecordStore",
    "ServerCore",
    "ServiceHandler",
    "StoredRecord",
    "ValidationError",
    "make_synthetic",
    "synthetic_body",
]
