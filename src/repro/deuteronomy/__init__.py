"""Deuteronomy: transaction component + data component (paper Section 6.3).

MVCC transactions whose version store, retained recovery-log buffers and
log-structured read cache together form the TC-level record cache the paper
credits with avoiding both I/O and data-component trips.

The engine facade opens the root trace spans (``engine.get`` /
``engine.put`` / ``engine.apply_batch``, ...) that
:mod:`repro.observability` renders as per-op cost trees.
"""

from .engine import DeuteronomyEngine
from .mvcc import VersionStore
from .read_cache import ReadCache
from .record_cache import RecordStore
from .recovery_log import LogRecord, RecoveryLog
from .tc import (
    DataComponent,
    TcConfig,
    Transaction,
    TransactionAborted,
    TransactionComponent,
    TxnStatus,
)

__all__ = [
    "DataComponent",
    "DeuteronomyEngine",
    "TransactionComponent",
    "TcConfig",
    "Transaction",
    "TransactionAborted",
    "TxnStatus",
    "VersionStore",
    "ReadCache",
    "RecordStore",
    "RecoveryLog",
    "LogRecord",
]
