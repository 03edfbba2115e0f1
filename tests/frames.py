"""One call counter for every complexity guard."""

import collections
import os
import pathlib
import sys

import repro

PACKAGE = os.path.dirname(repro.__file__) + os.sep

#: Comprehension code objects.  Python 3.12 inlines list, dict and set
#: comprehensions into the enclosing frame (PEP 709); earlier versions
#: run each in a frame of its own.  ``frames`` leaves them out, so an
#: exact frame count reads the same on every Python CI runs.
COMPREHENSIONS = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>"})


def count_calls(function) -> collections.Counter:
    """The Python frames (``<file stem>.<function>``) and C calls
    (``<module>.<qualname>``, module ``None`` for a method) ``function``
    enters.  Its ``frames`` keeps only the Python frames whose code is in
    ``repro`` and is not a list, dict or set comprehension, so it depends
    neither on the interpreter's own functions nor on whether the
    interpreter inlines comprehensions (:data:`COMPREHENSIONS`).

    Generated code is not in ``repro``: a dataclass's ``__init__`` (and
    :func:`repro.frozen.slot_init`'s) is compiled from a string, so it
    counts as ``<string>.__init__`` in the full Counter and never in
    ``frames``.  A guard pins that entry on its own."""
    calls: collections.Counter = collections.Counter()
    frames = calls.frames = collections.Counter()  # type: ignore[attr-defined]

    def profiler(frame, event, arg):
        if event == "call":
            code = frame.f_code
            name = f"{pathlib.Path(code.co_filename).stem}.{code.co_name}"
            calls[name] += 1
            if (code.co_filename.startswith(PACKAGE)
                    and code.co_name not in COMPREHENSIONS):
                frames[name] += 1
        elif event == "c_call":
            calls[f"{arg.__module__}.{arg.__qualname__}"] += 1

    sys.setprofile(profiler)
    try:
        function()
    finally:
        sys.setprofile(None)
    return calls
