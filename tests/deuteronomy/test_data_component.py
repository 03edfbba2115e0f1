"""``DataComponent`` is the one list of what the TC and the engine call
on their data component.

Every attribute the DC's callers read through a ``.dc`` attribute is a
member of the protocol, every member is read there, and ``BwTree`` has
every member.  A member is added only with a caller.
"""

import ast
import os

import repro
from repro.analysis.runner import load_sources
from repro.bwtree import BwTree
from repro.deuteronomy import DataComponent
from repro.hardware import Machine

SRC = os.path.dirname(repro.__file__)

#: Every module that reaches a data component through ``.dc``.
CALLERS = (
    ("deuteronomy", "tc.py"),
    ("deuteronomy", "engine.py"),
    ("sharding", "engine.py"),
    ("scenarios.py",),
)


def members() -> set:
    """The protocol's methods and its annotated attributes."""
    return ({name for name in vars(DataComponent)
             if not name.startswith("_")}
            | set(DataComponent.__annotations__))


def read_through_dc() -> set:
    """Each attribute read as ``<something>.dc.<attribute>`` in
    :data:`CALLERS`."""
    read = set()
    for source in load_sources([os.path.join(SRC, *path)
                                for path in CALLERS]):
        for node in ast.walk(source.tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Attribute)
                    and node.value.attr == "dc"):
                read.add(node.attr)
    return read


def test_everything_the_callers_read_through_dc_is_a_member():
    assert sorted(read_through_dc() - members()) == []


def test_every_member_is_read_by_a_caller():
    assert sorted(members() - read_through_dc()) == []


def test_the_bw_tree_has_every_member():
    tree = BwTree(Machine.paper_default(cores=1))
    assert sorted(name for name in members()
                  if not hasattr(tree, name)) == []
