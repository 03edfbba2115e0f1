"""No config builds a silent NaN.

Every dataclass in ``repro`` named ``*Config`` / ``*Spec`` /
``*Parameters``, plus ``CostTable``, ``CostCatalog``, ``Scenario`` and
the model inputs ``MainMemoryComparison``, ``MeasuredPoint``,
``RetryPolicy`` and ``FaultRule``, checks its numeric fields against one
``BOUNDS`` table with :func:`repro.frozen.check_bounds`.  A NaN or infinite size, rate or
price compares false or never binds, so it used to build a config whose
results read NaN.  Here every numeric field of
every such class gets NaN, +inf, -inf, 0, -1, ``True`` and, where an
``int`` is expected, a float: each must raise a ``ValueError`` naming
``Class.field`` or build (NaN and infinity never build).
"""

import dataclasses
import importlib
import math
import pkgutil
import re
import typing

import pytest

import repro
from repro.core.catalog import CostCatalog
from repro.core.mainmemory import MainMemoryComparison
from repro.core.mixture import MeasuredPoint
from repro.faults.plan import FaultKind, FaultRule
from repro.hardware import CpuModel, Machine
from repro.hardware.tiers import StorageHierarchy
from repro.sharding import ShardedEngine

NUMBERS = {int, float, typing.Optional[int], typing.Optional[float]}
SUFFIXES = ("Config", "Spec", "Parameters")
EXTRA = ("CostTable", "CostCatalog", "Scenario", "MainMemoryComparison",
         "MeasuredPoint", "RetryPolicy", "FaultRule")
#: A good instance of each class whose fields have no defaults.
EXAMPLES = {
    "TierSpec": lambda: StorageHierarchy.cxl_2026().tiers[1],
    "MainMemoryComparison": lambda: MainMemoryComparison(2.6, 2.1,
                                                         CostCatalog()),
    "MeasuredPoint": lambda: MeasuredPoint(0.5, 1e5),
    "FaultRule": lambda: FaultRule("log_store.flush", 1, FaultKind.IO_ERROR),
}


def config_classes():
    found = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        for name, value in vars(importlib.import_module(info.name)).items():
            if (isinstance(value, type) and dataclasses.is_dataclass(value)
                    and value.__module__ == info.name
                    and (name.endswith(SUFFIXES) or name in EXTRA)):
                found[name] = value
    return [found[name] for name in sorted(found)]


def numeric_fields(cls):
    hints = typing.get_type_hints(cls)
    return [entry.name for entry in dataclasses.fields(cls)
            if hints[entry.name] in NUMBERS]


CLASSES = config_classes()
FIELDS = [(cls, name) for cls in CLASSES for name in numeric_fields(cls)]


def test_every_named_class_is_enumerated():
    names = {cls.__name__ for cls in CLASSES}
    assert {"BwTreeConfig", "TcConfig", "SsdSpec", "CostTable",
            "WorkloadSpec", "TierSpec", "MatrixConfig", "LsmConfig",
            "StackConfig", "Scenario", "CostCatalog", "CssParameters",
            "HddParameters", "NvramParameters", "CmmParameters",
            "MainMemoryComparison", "MeasuredPoint", "RetryPolicy",
            "FaultRule"} <= names


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_every_numeric_field_has_a_bound(cls):
    assert set(getattr(cls, "BOUNDS", {})) == set(numeric_fields(cls))


@pytest.mark.parametrize("cls, name", FIELDS,
                         ids=[f"{cls.__name__}.{name}" for cls, name in FIELDS])
def test_a_bad_number_is_refused_by_name_or_builds(cls, name):
    base = EXAMPLES[cls.__name__]() if cls.__name__ in EXAMPLES else cls()
    hint = typing.get_type_hints(cls)[name]
    values = [math.nan, math.inf, -math.inf, 0, -1, True]
    if hint in (int, typing.Optional[int]):
        values.append(2.5)
    for value in values:
        try:
            built = dataclasses.replace(base, **{name: value})
        except ValueError as error:
            assert re.search(rf"\b{cls.__name__}\.(\w+ \+ )*{name}\b",
                             str(error)), error
        else:
            assert type(value) is int and getattr(built, name) == value


@pytest.mark.parametrize("build, name", [
    (lambda cores: CpuModel(cores), "CpuModel.cores"),
    (lambda cores: Machine(cores=cores), "Machine.cores"),
    (lambda cores: ShardedEngine(2, cores_per_shard=cores),
     "ShardedEngine.cores_per_shard"),
], ids=["CpuModel", "Machine", "ShardedEngine"])
@pytest.mark.parametrize("cores", [math.nan, 2.0, 0])
def test_a_core_count_is_an_int_of_at_least_one_at_every_entry(build, name,
                                                               cores):
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} "):
        build(cores)
