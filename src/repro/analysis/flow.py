"""One statement walker for the lint's path rules.

``cost-accounting``, ``wal-ordering`` and ``epoch-discipline`` each ask a
question of every execution path through a method body.  They differ
only in the abstract state a path carries and in how an expression moves
it (a rule's *transfer*); :class:`Flow` owns the rest:

* the walk carries a frozenset of states, and branches meet by union;
* a loop runs zero or more times (one symbolic pass of the body);
* ``break`` / ``continue`` fall through;
* nested ``def`` / ``class`` / ``lambda`` bodies run when called and
  contribute nothing in place;
* ``return`` leaves the body, and so does ``raise`` unless the rule
  exempts error paths; either way it runs the ``finally`` blocks it sits
  in on its way out.
"""

from __future__ import annotations

import ast
from typing import (
    FrozenSet,
    Generic,
    Hashable,
    List,
    Sequence,
    Tuple,
    TypeVar,
)

S = TypeVar("S", bound=Hashable)


def iter_calls(node: ast.AST) -> List[ast.Call]:
    """Calls inside an expression subtree, skipping nested defs/lambdas,
    ordered by source position (the CPython evaluation order for the
    call patterns the engine uses)."""
    calls: List[ast.Call] = []
    stack: List[ast.AST] = [node]
    while stack:
        current = stack.pop()
        if isinstance(
            current, (ast.Lambda, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        if isinstance(current, ast.Call):
            calls.append(current)
        stack.extend(ast.iter_child_nodes(current))
    calls.sort(key=lambda call: (call.lineno, call.col_offset))
    return calls


class Flow(Generic[S]):
    """Walks one function body over a frozenset of abstract states.

    A rule subclasses it with :meth:`transfer`, and may override
    :meth:`effect` for a statement case of its own.  :attr:`exits`
    collects ``(statement, states)`` for every way out of the body; the
    fall-through is recorded at the body's last statement.
    """

    #: A ``raise`` ends its path unexamined: error paths owe nothing.
    raise_exempt = True

    def __init__(self) -> None:
        self.exits: List[Tuple[ast.stmt, FrozenSet[S]]] = []

    def transfer(self, node: ast.AST, states: FrozenSet[S]) -> FrozenSet[S]:
        """The states after evaluating expression ``node``."""
        raise NotImplementedError

    def effect(self, stmt: ast.stmt, states: FrozenSet[S]) -> FrozenSet[S]:
        """A statement with no control flow: its children, in order."""
        for child in ast.iter_child_nodes(stmt):
            states = self.transfer(child, states)
        return states

    def run(self, body: Sequence[ast.stmt],
            entry: FrozenSet[S]) -> FrozenSet[S]:
        """Walk ``body`` from ``entry``; every state it can leave in."""
        self.exits.append((body[-1], self._block(body, entry)))
        return frozenset(
            state for __, states in self.exits for state in states
        )

    def _block(self, body: Sequence[ast.stmt],
               states: FrozenSet[S]) -> FrozenSet[S]:
        for stmt in body:
            if not states:
                break
            states = self._stmt(stmt, states)
        return states

    def _stmt(self, stmt: ast.stmt, states: FrozenSet[S]) -> FrozenSet[S]:
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                states = self.transfer(stmt.value, states)
            self.exits.append((stmt, states))
            return frozenset()
        if isinstance(stmt, ast.Raise):
            if not self.raise_exempt:
                self.exits.append((stmt, states))
            return frozenset()
        if isinstance(stmt, ast.If):
            entry = self.transfer(stmt.test, states)
            return self._block(stmt.body, entry) | self._block(
                stmt.orelse, entry
            )
        if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            head = stmt.test if isinstance(stmt, ast.While) else stmt.iter
            entry = self.transfer(head, states)
            merged = entry | self._block(stmt.body, entry)
            return merged | self._block(stmt.orelse, merged)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                states = self.transfer(item.context_expr, states)
            return self._block(stmt.body, states)
        if isinstance(stmt, ast.Try):
            return self._try(stmt, states)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Break, ast.Continue)):
            return states
        return self.effect(stmt, states)

    def _try(self, stmt: ast.Try, states: FrozenSet[S]) -> FrozenSet[S]:
        mark = len(self.exits)
        body_out = self._block(stmt.orelse, self._block(stmt.body, states))
        merged = body_out
        for handler in stmt.handlers:
            # A handler may run after any prefix of the body; the entry
            # states are a sound under-approximation.
            merged = merged | self._block(handler.body, states | body_out)
        if not stmt.finalbody:
            return merged
        # An exit inside the try runs the finally block on its way out.
        deferred = self.exits[mark:]
        del self.exits[mark:]
        for node, exit_states in deferred:
            self.exits.append((node, self._block(stmt.finalbody, exit_states)))
        return self._block(stmt.finalbody, merged)
