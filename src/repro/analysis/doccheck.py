"""``python -m repro doc-check`` — docs must name real symbols.

docs/ARCHITECTURE.md maps the paper's equations to the modules, classes
and methods that implement and measure them.  That map rots silently
when code is renamed, so this checker extracts every backticked
``repro.*`` dotted reference from the doc and resolves it against the
package: module path segments against the source tree, classes and
functions against the :class:`~repro.analysis.project.ProjectIndex`
(the same index the lint rules use, so method lookup honors
inheritance), and module-level constants against the module's AST.

Exit status 0 when every reference resolves, 1 listing the unknown
symbols otherwise.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import sys
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .project import project_index
from .runner import collect_python_files, load_sources, module_name

#: Backticked dotted references into the package, optionally written as
#: calls (``repro.x.f()``); the call parens are stripped before resolving.
_SYMBOL_RE = re.compile(r"`(repro(?:\.[A-Za-z_][A-Za-z0-9_]*)+)(?:\(\))?`")


def extract_symbols(text: str) -> List[Tuple[int, str]]:
    """(line, dotted symbol) pairs for every ``repro.*`` doc reference."""
    found: List[Tuple[int, str]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        for match in _SYMBOL_RE.finditer(line):
            found.append((lineno, match.group(1)))
    return found


class _ModuleNames:
    """Top-level names of one parsed module, split by kind."""

    def __init__(self, tree: ast.Module) -> None:
        self.classes: Dict[str, ast.ClassDef] = {}
        self.other: Set[str] = set()
        #: Each class's member set, computed on its first lookup.
        self._members: Dict[str, Set[str]] = {}
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                self.classes[node.name] = node
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.other.add(node.name)
            elif isinstance(node, ast.Assign):
                self.other.update(
                    target.id for target in node.targets
                    if isinstance(target, ast.Name)
                )
            elif isinstance(node, ast.AnnAssign) \
                    and isinstance(node.target, ast.Name):
                self.other.add(node.target.id)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                # Re-exports (package __init__.py) resolve too.
                self.other.update(
                    alias.asname or alias.name.split(".")[0]
                    for alias in node.names
                )

    def class_members(self, class_name: str) -> Set[str]:
        """The class's methods, class attributes and ``self.<name>``
        assignments; its body is walked once, on the first lookup."""
        members = self._members.get(class_name)
        if members is not None:
            return members
        members = self._members[class_name] = set()
        for item in self.classes[class_name].body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                members.add(item.name)
                # Instance attributes: self.<name> = ... anywhere in a
                # method body (__init__ being the canonical site).
                for node in ast.walk(item):
                    targets: List[ast.expr] = []
                    if isinstance(node, ast.Assign):
                        targets = list(node.targets)
                    elif isinstance(node, ast.AnnAssign):
                        targets = [node.target]
                    for target in targets:
                        if isinstance(target, ast.Attribute) \
                                and isinstance(target.value, ast.Name) \
                                and target.value.id == "self":
                            members.add(target.attr)
            elif isinstance(item, ast.Assign):
                members.update(
                    target.id for target in item.targets
                    if isinstance(target, ast.Name)
                )
            elif isinstance(item, ast.AnnAssign) \
                    and isinstance(item.target, ast.Name):
                # Dataclass fields and annotated class attributes.
                members.add(item.target.id)
        return members


class DocChecker:
    """Resolves ``repro.*`` dotted symbols against the source tree."""

    def __init__(self, package_root: str) -> None:
        # package_root is the directory containing the ``repro`` package
        # source (i.e. ``.../src/repro``).
        sources = load_sources(collect_python_files([package_root]))
        self.index = project_index(sources)
        # Each module's top-level names, by its dotted path below the
        # package ("" is the package's own __init__.py).
        self.modules: Dict[str, _ModuleNames] = {
            module_name(source.path, package_root): _ModuleNames(source.tree)
            for source in sources
        }

    def _module(self, parts: Sequence[str]) -> Tuple[str, int]:
        """Longest module prefix of ``parts``: (module path, parts used)."""
        used = len(parts)
        while used and ".".join(parts[:used]) not in self.modules:
            used -= 1
        return ".".join(parts[:used]), used

    def resolve(self, symbol: str) -> Optional[str]:
        """``None`` when the symbol exists, else a failure reason."""
        parts = symbol.split(".")
        if parts[0] != "repro":
            return f"not a repro.* symbol: {symbol}"
        module, used = self._module(parts[1:])
        remaining = parts[1 + used:]
        if not remaining:
            return None                     # a module/package path
        names = self.modules[module]
        head = remaining[0]
        if head not in names.classes and head not in names.other:
            return (
                f"module {'.'.join(parts[:1 + used])} has no top-level "
                f"name {head!r}"
            )
        if len(remaining) == 1:
            return None
        if len(remaining) > 2:
            return f"reference nests too deep to resolve: {symbol}"
        member = remaining[1]
        if head not in names.classes:
            return f"{head!r} is not a class, cannot have member {member!r}"
        if member in names.class_members(head):
            return None
        # The lint index resolves inherited methods.
        if self.index.lookup_method(head, member) is not None:
            return None
        return f"class {head} has no attribute {member!r}"

    def check_doc(self, doc_path: str) -> Tuple[int, List[str]]:
        """(symbol references in the doc, one error per failure)."""
        with open(doc_path, "r", encoding="utf-8") as handle:
            text = handle.read()
        symbols = extract_symbols(text)
        errors: List[str] = []
        for lineno, symbol in symbols:
            reason = self.resolve(symbol)
            if reason is not None:
                errors.append(f"{doc_path}:{lineno}: {symbol} — {reason}")
        if not symbols:
            errors.append(
                f"{doc_path}: no `repro.*` symbol references found — "
                "the equation map is supposed to cite real symbols"
            )
        return len(symbols), errors


def _default_package_root() -> str:
    import repro

    return os.path.dirname(os.path.abspath(repro.__file__))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro doc-check",
        description=("Verify that every `repro.*` symbol named in the "
                     "architecture doc exists in the source tree."),
    )
    parser.add_argument(
        "docs", nargs="*",
        default=["docs/ARCHITECTURE.md", "docs/ANALYSIS.md",
                 "docs/PROFILING.md"],
        help="markdown files to check (default: docs/ARCHITECTURE.md, "
             "docs/ANALYSIS.md and docs/PROFILING.md)",
    )
    parser.add_argument(
        "--package-root", default=None,
        help="repro package source directory (default: the imported "
             "package's location)",
    )
    args = parser.parse_args(argv)
    root = args.package_root if args.package_root is not None \
        else _default_package_root()
    checker = DocChecker(root)
    failures = 0
    for doc in args.docs:
        if not os.path.isfile(doc):
            print(f"doc-check: no such file: {doc}", file=sys.stderr)
            failures += 1
            continue
        count, errors = checker.check_doc(doc)
        for error in errors:
            print(error, file=sys.stderr)
        if errors:
            failures += 1
        else:
            print(f"doc-check: {doc}: {count} symbol references OK")
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())
