"""Lint framework: findings, suppressions, rule registry, source model.

A :class:`Rule` inspects parsed source files and emits :class:`Finding`
objects.  Findings are suppressed by a ``# repro: ignore[rule-id]``
comment on the flagged line (several ids may be comma-separated; a bare
``# repro: ignore`` silences every rule on that line).  Rules register
themselves via the :func:`rule` decorator; :func:`all_rules` returns
fresh instances in registration order.
"""

from __future__ import annotations

import ast
import re
import tokenize
from dataclasses import dataclass
from functools import cached_property
from io import StringIO
from pathlib import PurePath
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Type,
)

_SUPPRESS_RE = re.compile(
    r"#\s*repro:\s*ignore(?:\[(?P<ids>[A-Za-z0-9_,\s-]*)\])?"
)


@dataclass(frozen=True)
class Finding:
    """One diagnostic: where, which rule, and what went wrong."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"

    def as_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }


class SourceFile:
    """A parsed module plus the comment-derived suppression table; every
    check that loads the same text shares one, so none may change it."""

    def __init__(self, path: str, text: str) -> None:
        self.path = path
        self.text = text
        self.tree = ast.parse(text, filename=path)

    @cached_property
    def suppressions(self) -> Dict[int, Set[str]]:
        """line -> set of suppressed rule ids ("*" suppresses everything)."""
        try:
            tokens = tokenize.generate_tokens(StringIO(self.text).readline)
            comments = [
                (token.start[0], token.string)
                for token in tokens
                if token.type == tokenize.COMMENT
            ]
        except tokenize.TokenError:  # pragma: no cover - defensive
            comments = [
                (number, line)
                for number, line in enumerate(self.text.splitlines(), start=1)
                if "#" in line
            ]
        suppressions: Dict[int, Set[str]] = {}
        for line_number, comment in comments:
            match = _SUPPRESS_RE.search(comment)
            if match is None:
                continue
            ids = match.group("ids")
            if ids is None or not ids.strip():
                rules = {"*"}
            else:
                rules = {part.strip() for part in ids.split(",") if part.strip()}
            suppressions.setdefault(line_number, set()).update(rules)
        return suppressions

    def is_suppressed(self, line: int, rule_id: str) -> bool:
        rules = self.suppressions.get(line)
        if rules is None:
            return False
        return "*" in rules or rule_id in rules

    @property
    def segments(self) -> Sequence[str]:
        return PurePath(self.path).parts


@dataclass
class LintConfig:
    """Knobs shared by every rule invocation."""

    #: Restrict to these rule ids (``None`` = all registered rules).
    select: Optional[Set[str]] = None


class Rule:
    """Base class: subclasses set ``rule_id`` and implement ``check``.

    ``check`` receives every parsed file at once so project-wide rules
    (the epoch rule's class index) can correlate across modules; per-file
    rules just iterate.
    """

    rule_id: str = ""
    description: str = ""

    def check(self, files: Sequence[SourceFile],
              config: LintConfig) -> Iterator[Finding]:
        raise NotImplementedError


_REGISTRY: List[Type[Rule]] = []


def rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator registering a rule in declaration order."""
    if not cls.rule_id:
        raise ValueError(f"{cls.__name__} must set rule_id")
    if any(existing.rule_id == cls.rule_id for existing in _REGISTRY):
        raise ValueError(f"duplicate rule id {cls.rule_id!r}")
    _REGISTRY.append(cls)
    return cls


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, in registration order."""
    # Importing the rule modules registers them; deferred to avoid cycles.
    from . import rules_protocol  # noqa: F401

    return [cls() for cls in _REGISTRY]


def rule_ids() -> List[str]:
    all_rules()
    return [cls.rule_id for cls in _REGISTRY]


def in_repro_tree(source: SourceFile) -> bool:
    """Whether the file sits inside the ``repro`` package tree."""
    return "repro" in source.segments


def scoped_to(source: SourceFile, segments: FrozenSet[str]) -> bool:
    """Package scoping: inside the repro tree only the named packages
    are in scope; outside it (synthetic fixtures, other projects) every
    file is checked."""
    if in_repro_tree(source):
        return any(part in segments for part in source.segments)
    return True


def iter_functions(
    tree: ast.AST,
) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    """Every function/method definition in the module, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def decorator_names(node: ast.AST) -> Iterable[str]:
    """Bare names of a definition's decorators (``a.b`` yields ``b``)."""
    for decorator in getattr(node, "decorator_list", []):
        target = decorator
        if isinstance(target, ast.Call):
            target = target.func
        if isinstance(target, ast.Attribute):
            yield target.attr
        elif isinstance(target, ast.Name):
            yield target.id
