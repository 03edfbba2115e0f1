"""cost-accounting: engine code must charge the machine for its work.

The paper's Equations (1)-(6) price operations from *charged*
core-microseconds; a public method that moves page or log bytes without
charging the :class:`~repro.hardware.cpu.CpuModel` (or an I/O path)
silently deflates R, ROPS and the 45-second breakeven.  This rule walks
every public method of the engine packages (``bwtree``, ``storage``,
``deuteronomy``, ``lsm``, ``sharding``) and reports any that can reach
a page/log touch on an execution path that never charges.

Mechanics:

* *touch* and *charge* events are resolved through the project call
  graph (:class:`~repro.analysis.project.ProjectIndex`), so a call to
  ``self.cache.fetch(...)`` counts as both (PageCache.fetch charges);
* a four-state dataflow ``{(touched, charged)}`` runs over the method
  body on the shared :class:`~repro.analysis.flow.Flow` walker, whose
  ``raise`` exits are exempt (error paths owe nothing);
* a violating exit is any reachable ``(touched=True, charged=False)``.

Suppress intentionally free bookkeeping with
``# repro: ignore[cost-accounting]`` on the ``def`` line.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, Optional, Sequence, Tuple

from .core import (
    COST_SCOPE_SEGMENTS,
    Finding,
    LintConfig,
    Rule,
    SourceFile,
    decorator_names,
    rule,
    scoped_to,
)
from .flow import Flow, iter_calls
from .project import (
    CallableInfo,
    ProjectIndex,
    _own_methods,
    project_index,
    split_call,
    _is_state_drop,
)

# One dataflow fact: (has touched pages/logs, has charged the machine).
State = Tuple[bool, bool]

_ENTRY: FrozenSet[State] = frozenset({(False, False)})


class _PathAnalyzer(Flow[State]):
    """The (touched, charged) transfer over one method body."""

    def __init__(self, index: ProjectIndex, info: CallableInfo,
                 local_events: Dict[str, Tuple[bool, bool]]) -> None:
        super().__init__()
        self.index = index
        self.info = info
        self.local_events = local_events

    def _call_events(self, node: ast.Call) -> Tuple[bool, bool]:
        receiver, method = split_call(node)
        if method is None:
            return False, False
        touched, charged = self.index.call_events(
            self.info, receiver, method
        )
        if receiver is None and method in self.local_events:
            local_touch, local_charge = self.local_events[method]
            touched = touched or local_touch
            charged = charged or local_charge
        return touched, charged

    def transfer(self, node: ast.AST,
                 states: FrozenSet[State]) -> FrozenSet[State]:
        touch = charge = False
        for call in iter_calls(node):
            t, c = self._call_events(call)
            touch = touch or t
            charge = charge or c
        if not touch and not charge:
            return states
        return frozenset((t or touch, c or charge) for t, c in states)

    def effect(self, stmt: ast.stmt,
               states: FrozenSet[State]) -> FrozenSet[State]:
        if isinstance(stmt, ast.Assign) and _is_state_drop(stmt):
            # Dropping a page's resident state is a touch.
            return frozenset((True, charged) for __, charged in states)
        return super().effect(stmt, states)


def _local_closures(index: ProjectIndex, info: CallableInfo,
                    node: ast.AST) -> Dict[str, Tuple[bool, bool]]:
    """Existential (touches, charges) for closures defined in the body."""
    events: Dict[str, Tuple[bool, bool]] = {}
    for child in ast.walk(node):
        if child is node or not isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        touched = charged = False
        for sub in ast.walk(child):
            if isinstance(sub, ast.Call):
                receiver, method = split_call(sub)
                if method is None:
                    continue
                t, c = index.call_events(info, receiver, method)
                touched = touched or t
                charged = charged or c
            elif isinstance(sub, ast.Assign) and _is_state_drop(sub):
                touched = True
        events[child.name] = (touched, charged)
    return events


@rule
class CostAccountingRule(Rule):
    rule_id = "cost-accounting"
    description = (
        "public engine methods that touch pages or logs must charge "
        "Cpu/IoPath work on every non-raising path"
    )

    def check(self, files: Sequence[SourceFile],
              config: LintConfig) -> Iterator[Finding]:
        index = project_index(files)
        for source in files:
            if not scoped_to(source, COST_SCOPE_SEGMENTS):
                continue
            for __, info in _own_methods(index, source):
                if info.node.name.startswith("_") \
                        or "property" in decorator_names(info.node):
                    continue
                finding = self._check_method(index, info, source)
                if finding is not None:
                    yield finding

    def _check_method(self, index: ProjectIndex, info: CallableInfo,
                      source: SourceFile) -> Optional[Finding]:
        node = info.node
        locals_ = _local_closures(index, info, node)
        exits = _PathAnalyzer(index, info, locals_).run(node.body, _ENTRY)
        if any(touched and not charged for touched, charged in exits):
            return Finding(
                path=source.path,
                line=node.lineno,
                col=node.col_offset,
                rule=self.rule_id,
                message=(
                    f"{info.qualname} touches pages/logs on a path that "
                    "never charges the CpuModel or an IoPathModel; "
                    "charge the work (machine.cpu.charge / "
                    "io_path.charge_*) or suppress with "
                    "# repro: ignore[cost-accounting]"
                ),
            )
        return None
