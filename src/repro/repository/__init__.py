"""Design data repository substrate.

Stands in for the paper's PRIMA-based integrated data repository
[HMMS87, KS92]: DOT schemas with part-of composition, immutable DOVs,
per-DA derivation graphs, WAL-backed durability and server-crash
recovery.
"""

from repro.repository.repository import DesignDataRepository
from repro.repository.schema import (
    AttributeDef,
    AttributeKind,
    Constraint,
    DesignObjectType,
)
from repro.repository.storage import VersionStore
from repro.repository.versions import DerivationGraph, DesignObjectVersion
from repro.repository.wal import LogRecord, LogRecordKind, WriteAheadLog

__all__ = [
    "AttributeDef",
    "AttributeKind",
    "Constraint",
    "DerivationGraph",
    "DesignDataRepository",
    "DesignObjectType",
    "DesignObjectVersion",
    "LogRecord",
    "LogRecordKind",
    "VersionStore",
    "WriteAheadLog",
]
