"""Two introspection censuses over the imported package: no function
default is a shared mutable container, and every dataclass of the
hot-path packages (``storage``, ``bwtree``, ``deuteronomy``) has
``__slots__``, so no per-record object carries a ``__dict__``."""

import dataclasses
import importlib
import inspect
import pkgutil

import repro


def _modules(prefix="repro"):
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.startswith(prefix) and info.name != "repro.__main__":
            yield importlib.import_module(info.name)


def test_no_function_default_is_a_mutable_container():
    shared = [f"{function.__module__}.{function.__qualname__}"
              for module in _modules() for value in vars(module).values()
              for member in (vars(value).values() if inspect.isclass(value)
                             else [value])
              for function in [getattr(member, "__func__", member)]
              if inspect.isfunction(function)
              and function.__module__ == module.__name__
              for default in (*(function.__defaults__ or ()),
                              *(function.__kwdefaults__ or {}).values())
              if type(default) in (list, dict, set, bytearray)]
    assert shared == []


def test_every_hot_path_dataclass_has_slots():
    loose = [f"{module.__name__}.{value.__qualname__}"
             for prefix in ("repro.storage", "repro.bwtree",
                            "repro.deuteronomy")
             for module in _modules(prefix) for value in vars(module).values()
             if inspect.isclass(value) and value.__module__ == module.__name__
             and dataclasses.is_dataclass(value)
             and "__slots__" not in vars(value)]
    assert loose == []
