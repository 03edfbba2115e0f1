"""Frozen records that are cheap to build.

A ``@dataclass(frozen=True)`` ``__init__`` stores each field with
``object.__setattr__(self, name, value)``: a global lookup, an attribute
lookup and a generic set-attribute call per field, because the class's
own ``__setattr__`` refuses.  The hot paths build one or more such
records per operation (a page delta, a redo record, a version), so
:func:`slot_init` gives a frozen slotted dataclass an ``__init__`` that
stores each field through its slot's member descriptor instead, one C
call per field.  Everything else the dataclass generated stays: the
frozen ``__setattr__`` / ``__delattr__``, ``__eq__``, ``__hash__`` and
``__repr__``.

This module imports nothing from ``repro``, so any module can use it.
"""

from __future__ import annotations

import inspect
from dataclasses import MISSING, fields
from typing import Any, Dict, List, Type, TypeVar

T = TypeVar("T")


def slot_init(cls: Type[T]) -> Type[T]:
    """Give a frozen slotted dataclass a faster ``__init__``; apply it
    above ``@dataclass(frozen=True, slots=True)``.

    The new ``__init__`` has the generated one's parameters and
    defaults, stores them in field order and then calls
    ``__post_init__`` if the class has one.  Only plain positional
    fields are supported: no fields, a default factory, ``init=False``,
    ``kw_only`` or an ``InitVar`` raises ``TypeError``.
    """
    params = getattr(cls, "__dataclass_params__", None)
    if params is None or not params.frozen or "__slots__" not in vars(cls):
        raise TypeError(f"{cls.__name__} is not a frozen slotted dataclass")
    entries = fields(cls)  # type: ignore[arg-type]
    signature = inspect.signature(cls.__init__).parameters
    if (not entries
            or list(signature)[1:] != [entry.name for entry in entries]
            or any(entry.kw_only or entry.default_factory is not MISSING
                   for entry in entries)):
        raise TypeError(f"{cls.__name__}: only plain positional fields "
                        "are supported")
    closure: Dict[str, Any] = {}
    args: List[str] = []
    body: List[str] = []
    for entry in entries:
        name = entry.name
        closure[f"_set_{name}"] = vars(cls)[name].__set__
        if entry.default is MISSING:
            args.append(name)
        else:
            closure[f"_default_{name}"] = entry.default
            args.append(f"{name}=_default_{name}")
        body.append(f"        _set_{name}(self, {name})")
    if hasattr(cls, "__post_init__"):
        body.append("        self.__post_init__()")
    source = (f"def __create_fn__({', '.join(closure)}):\n"
              f"    def __init__(self, {', '.join(args)}):\n"
              + "\n".join(body)
              + "\n    return __init__\n")
    namespace: Dict[str, Any] = {}
    exec(source, {}, namespace)
    init = namespace["__create_fn__"](**closure)
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    setattr(cls, "__init__", init)
    return cls
