from .core import PushRoute, ServerCore, ValidationError
from .handlers import HandlerFailure, HandlerRegistry, ServiceHandler, make_synthetic, synthetic_body
from .store import AppendOnlyFileStore, MemoryStore, RecordStore, StoredRecord

__all__ = [
    "AppendOnlyFileStore",
    "HandlerFailure",
    "HandlerRegistry",
    "MemoryStore",
    "PushRoute",
    "RecordStore",
    "ServerCore",
    "ServiceHandler",
    "StoredRecord",
    "ValidationError",
    "make_synthetic",
    "synthetic_body",
]
