"""The records built with :func:`repro.frozen.slot_init` stay frozen
dataclasses: same equality, hashing and repr, and no way to mutate."""

import dataclasses
from dataclasses import FrozenInstanceError, dataclass, field
from typing import List, Optional

import pytest

from repro.deuteronomy.recovery_log import LogRecord
from repro.frozen import slot_init
from repro.storage.log_store import ReadResult
from repro.storage.pages import PageImage, Record
from repro.workloads.ycsb import OpKind, Operation

IMAGE = PageImage("full", 7, records=(Record(b"a", b"1"),))

#: (class, field values, the repr a plain frozen dataclass prints).  A
#: page delta is a ``Record`` (a delete is one whose value is ``None``),
#: and an MVCC version is its ``LogRecord``.
CASES = [
    (Record, (b"k", b"v", 3), "Record(key=b'k', value=b'v', timestamp=3)"),
    (Record, (b"k", None, 4), "Record(key=b'k', value=None, timestamp=4)"),
    (LogRecord, (b"k", None, 6, 9, 11, False),
     "LogRecord(key=b'k', value=None, timestamp=6, txn_id=9, lsn=11, "
     "end=False)"),
    (ReadResult, (IMAGE, False, 12.5),
     f"ReadResult(image={IMAGE!r}, from_write_buffer=False, service_us=12.5)"),
    (Operation, (OpKind.UPDATE, b"k", b"v"),
     "Operation(kind=<OpKind.UPDATE: 'update'>, key=b'k', value=b'v')"),
]


@pytest.mark.parametrize("cls, values, text", CASES,
                         ids=["Record", "delete-delta", "LogRecord",
                              "ReadResult", "Operation"])
def test_a_record_stays_a_frozen_dataclass(cls, values, text):
    record = cls(*values)
    names = [entry.name for entry in dataclasses.fields(cls)]
    assert [getattr(record, name) for name in names] == list(values)
    assert repr(record) == text
    twin = cls(**dict(zip(names, values)))
    assert twin == record and hash(twin) == hash(record)
    assert dataclasses.replace(record) == record
    for name in names:
        with pytest.raises(FrozenInstanceError):
            setattr(record, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(record, name)
    assert not hasattr(record, "__dict__")


def test_defaults_are_kept():
    assert Record(b"k", b"v") == Record(b"k", b"v", 0)
    assert LogRecord(b"k", b"v", 1, 2, 3) == LogRecord(b"k", b"v", 1, 2, 3,
                                                       True)
    assert Operation(OpKind.READ, b"k") == Operation(OpKind.READ, b"k",
                                                     None)


def test_only_frozen_slotted_plain_dataclasses_are_accepted():
    @dataclass(slots=True)
    class Mutable:
        key: bytes

    @dataclass(frozen=True)
    class Unslotted:
        key: bytes

    @dataclass(frozen=True, slots=True)
    class Factory:
        keys: List[bytes] = field(default_factory=list)

    @dataclass(frozen=True, slots=True)
    class Hidden:
        key: bytes
        size: Optional[int] = field(default=None, init=False)

    @dataclass(frozen=True, slots=True, kw_only=True)
    class Keyword:
        key: bytes

    for cls in (Mutable, Unslotted, Factory, Hidden, Keyword):
        with pytest.raises(TypeError):
            slot_init(cls)
