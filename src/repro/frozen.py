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

:func:`check_bounds` is the one range check of every config class: the
class declares ``BOUNDS``, a ``{field: (low, high)}`` table, and a value
is good when ``low <= value < high`` (so NaN never is).

This module imports nothing from ``repro``, so any module can use it.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import MISSING, fields, is_dataclass
from typing import Any, Dict, List, Tuple, Type, TypeVar, get_args, get_type_hints

T = TypeVar("T")


def above(value: float) -> float:
    """The float after ``value``: as a ``low``, the bound is exclusive
    (``> value``); as a ``high``, inclusive (``<= value``)."""
    return math.nextafter(value, math.inf)


#: As a ``low``, the least positive float: the value must be above 0.
ABOVE_ZERO = above(0.0)
#: As a ``high``, the float after 1: the value may be 1 but no more.
UP_TO_ONE = above(1.0)


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


@functools.cache
def _kinds(cls: type) -> Dict[str, Tuple[type, bool]]:
    """Each bounded name's number type and whether it is ``Optional``,
    read once per class (it takes about a millisecond) from a
    dataclass's field annotations or a class's ``__init__``."""
    hints = get_type_hints(cls if is_dataclass(cls)
                           else getattr(cls, "__init__"))
    kinds: Dict[str, Tuple[type, bool]] = {}
    for name in getattr(cls, "BOUNDS"):
        members = set(get_args(hints[name]) or (hints[name],))
        optional = type(None) in members
        (kind,) = members - {type(None)}
        kinds[name] = (kind, optional)
    return kinds


def _just_past(bound: float) -> float | None:
    """The whole number ``bound`` is :func:`above`, if it is one."""
    before = math.nextafter(bound, -math.inf)
    if before.is_integer() and not float(bound).is_integer():
        return before
    return None


def _wanted(kind: type, low: float, high: float, optional: bool) -> str:
    """What a bounded value must be, in words."""
    limits = ["finite"] if kind is float and high == math.inf else []
    if low > -math.inf:
        past = _just_past(low)
        limits.append(f">= {low:g}" if past is None else f"> {past:g}")
    if high < math.inf:
        past = _just_past(high)
        limits.append(f"< {high:g}" if past is None else f"<= {past:g}")
    text = " and ".join(limits)
    if kind is int:
        text = f"an int {text}".rstrip()
    return f"{text} (or None)" if optional else text


def check_bounds(owner: Any, **values: Any) -> None:
    """Refuse a value outside its entry in ``owner``'s ``BOUNDS`` table.

    ``owner`` is a config instance, whose every bounded field is checked
    (call it from ``__post_init__``), or the class that owns a bound,
    when a component built directly checks the ``values`` it was given
    under that class's field names.  An ``int`` field refuses a
    ``bool`` or a ``float``, a ``float`` field any non-number or
    ``bool``, and ``None`` passes only an ``Optional`` field.  The error
    names ``<Class>.<field>``.
    """
    cls = owner if isinstance(owner, type) else type(owner)
    bounds = getattr(cls, "BOUNDS")
    kinds = _kinds(cls)
    for name in values or bounds:
        value = values[name] if values else getattr(owner, name)
        kind, optional = kinds[name]
        if value is None and optional:
            continue
        low, high = bounds[name]
        if (type(value) is bool
                or not isinstance(value, int if kind is int else (int, float))
                or not low <= value < high):
            raise ValueError(f"{cls.__name__}.{name} must be "
                             f"{_wanted(kind, low, high, optional)}, "
                             f"got {value!r}")
