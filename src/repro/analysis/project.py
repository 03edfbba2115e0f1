"""Cross-module class index used by the epoch rule and doc-check.

A **class registry** maps bare class names to their methods across
every analyzed file, with each class's bare base-class names, so a
method lookup honours inheritance.  The epoch rule folds a method's
``self.<helper>()`` calls through it; doc-check resolves a cited
``Class.method`` with it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .core import SourceFile


@dataclass
class CallableInfo:
    """One method and where it is defined."""

    qualname: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    source: SourceFile
    class_name: str


class ProjectIndex:
    """Every class's methods and base-class names."""

    def __init__(self, files: Sequence[SourceFile]) -> None:
        #: bare class name -> {method name -> CallableInfo}
        self.classes: Dict[str, Dict[str, CallableInfo]] = {}
        #: class name -> set of base-class bare names
        self.bases: Dict[str, Set[str]] = {}
        for source in files:
            for node in source.tree.body:
                if not isinstance(node, ast.ClassDef):
                    continue
                self.classes[node.name] = {
                    item.name: CallableInfo(f"{node.name}.{item.name}",
                                            item, source, node.name)
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef))
                }
                self.bases[node.name] = {
                    base.id for base in node.bases
                    if isinstance(base, ast.Name)
                }

    def lookup_method(self, class_name: str,
                      method: str) -> Optional[CallableInfo]:
        """``class_name``'s own ``method``, else one it inherits."""
        methods = self.classes.get(class_name)
        if methods is None:
            return None
        info = methods.get(method)
        if info is not None:
            return info
        for base in self.bases.get(class_name, ()):
            info = self.lookup_method(base, method)
            if info is not None:
                return info
        return None


#: The index of each set of loaded files, shared by the lint's rules and
#: doc-check.
_INDEXES: Dict[Tuple[SourceFile, ...], ProjectIndex] = {}


def project_index(files: Sequence[SourceFile]) -> ProjectIndex:
    """The :class:`ProjectIndex` of ``files``, built once per process."""
    key = tuple(files)
    if key not in _INDEXES:
        _INDEXES[key] = ProjectIndex(files)
    return _INDEXES[key]


def _own_methods(
    index: ProjectIndex, source: SourceFile
) -> Iterator[Tuple[ast.ClassDef, CallableInfo]]:
    """(class node, method info) pairs whose definition is *this* file."""
    for node in source.tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        for info in index.classes.get(node.name, {}).values():
            if info.source is source:
                yield node, info


def split_call(node: ast.Call) -> Tuple[Optional[Tuple[str, ...]],
                                        Optional[str]]:
    """Decompose a call into (receiver name chain, method name).

    ``self.machine.cpu.charge(...)`` -> (("self", "machine", "cpu"),
    "charge"); ``seal()`` -> (None, "seal"); calls through subscripts or
    call results resolve to (unresolvable) ``((), name)``.
    """
    func = node.func
    if isinstance(func, ast.Name):
        return None, func.id
    if isinstance(func, ast.Attribute):
        chain: List[str] = []
        current: ast.AST = func.value
        while isinstance(current, ast.Attribute):
            chain.append(current.attr)
            current = current.value
        if isinstance(current, ast.Name):
            chain.append(current.id)
            chain.reverse()
            return tuple(chain), func.attr
        return (), func.attr
    return (), None


def _walk_skipping_nested_defs(
        body: Sequence[ast.stmt]) -> Iterator[ast.AST]:
    """Walk statements without descending into nested def/class bodies.

    Nested functions run when *called*, not where they are defined.
    """
    stack: List[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                 ast.Lambda),
            ):
                continue
            stack.append(child)
