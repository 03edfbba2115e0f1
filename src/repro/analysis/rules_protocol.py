"""Protocol verifier: statically prove the WAL/epoch/fault disciplines.

PR 4 found four durability bugs *dynamically* — a WAL inversion among
them — that are really static *ordering* properties of the source: a
recovery-log append must dominate the data-component post it covers, an
epoch guard must dominate a latch-free dereference, and a registered
fault site must dominate a durability-critical mutation.  The crash
matrix samples these disciplines at a handful of seeded interleavings;
the three rules below check them on every path.  The first two walk
each method with the lint's one statement walker,
:class:`~repro.analysis.flow.Flow`, resolving calls through the
:class:`ProjectIndex`; the third is lexical.

* ``wal-ordering`` — in WAL-governed classes (those owning a
  ``RecoveryLog`` directly or through one attribute hop), every DC page
  post, dirty record-heap append, or checkpoint write must be dominated
  on each non-raising path by a recovery-log append / ``sync_log`` /
  pipeline ``force`` (or a call whose resolved callee logs on all of
  its own exits).  A lexical sub-check covers PR 4's second inversion:
  inside ``*checkpoint*`` methods that both append and invalidate
  through the same receiver, every invalidate must follow a ``flush``
  on that receiver.
* ``epoch-discipline`` — in epoch-aware classes (those charging
  ``epoch_protect`` / ``latch_acquire`` anywhere, directly or by billing
  a charge plan with such a step), every public
  non-generator method must establish protection before dereferencing
  the mapping table, the record-heap index, or a delta chain; explicit
  ``epoch_enter`` / ``epoch_exit`` pairs must balance on every exit,
  including early returns.  Generator methods are exempt: they execute
  lazily under the consumer's epoch.
* ``fault-site-coverage`` — in ``storage/`` and ``deuteronomy/``,
  device-level durability mutations (``ssd.write``, ``submit_write``,
  ``mark_durable``, ``drop_segment``) must be lexically dominated, in
  the same function body, by ``faults.hit()`` on a *registered*
  :data:`~repro.faults.plan.FAULT_SITES` name — so a new crash window
  cannot ship uninjectable by the crash matrix.

Suppress a justified exception with ``# repro: ignore[rule-id]`` on the
flagged line (justification comment required by review convention).
"""

from __future__ import annotations

import ast
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)

from ..faults.plan import FAULT_SITES
from .core import (
    COST_SCOPE_SEGMENTS,
    Finding,
    LintConfig,
    Rule,
    SourceFile,
    decorator_names,
    iter_functions,
    rule,
    scoped_to,
)
from .flow import Flow, iter_calls
from .project import (
    CallableInfo,
    ProjectIndex,
    _own_methods,
    project_index,
    _walk_skipping_nested_defs,
    split_call,
)

# ---------------------------------------------------------------------------
# shared machinery
# ---------------------------------------------------------------------------

#: classify(call) -> (demand message or None, is_license)
Classifier = Callable[[ast.Call], Tuple[Optional[str], bool]]
#: (line, col) of a demand call -> its message; dedupes merged paths.
Violations = Dict[Tuple[int, int], str]

_UNLICENSED: FrozenSet[bool] = frozenset({False})

T = TypeVar("T")


class _DominanceFlow(Flow[bool]):
    """Is every *demand* call dominated by a *license* call on each
    non-raising path reaching it?  (A license is monotone within a
    path.)"""

    def __init__(self, classify: Classifier) -> None:
        super().__init__()
        self._classify = classify
        self.violations: Violations = {}

    def transfer(self, node: ast.AST,
                 states: FrozenSet[bool]) -> FrozenSet[bool]:
        calls = iter_calls(node)
        out: Set[bool] = set()
        for licensed in states:
            for call in calls:
                demand, license_ = self._classify(call)
                if demand is not None and not licensed:
                    self.violations.setdefault(
                        (call.lineno, call.col_offset), demand
                    )
                if license_:
                    licensed = True
            out.add(licensed)
        return frozenset(out)


def _dominance(classify: Classifier,
               info: CallableInfo) -> Tuple[bool, Violations]:
    """(licensed on every exit, unlicensed demands) of one method."""
    flow = _DominanceFlow(classify)
    exits = flow.run(info.node.body, _UNLICENSED)
    return bool(exits) and all(exits), flow.violations


def _fixpoint(
    infos: Sequence[CallableInfo],
    evaluate: Callable[[CallableInfo, Dict[str, T]], T],
) -> Dict[str, T]:
    """qualname -> ``evaluate(info, summaries)``, re-run until no value
    changes (at most four passes), so a method's summary folds in those
    of the methods it calls."""
    summaries: Dict[str, T] = {}
    for _ in range(4):
        changed = False
        for info in infos:
            value = evaluate(info, summaries)
            if summaries.get(info.qualname) != value:
                summaries[info.qualname] = value
                changed = True
        if not changed:
            break
    return summaries


def _is_generator(node: ast.AST) -> bool:
    """Does the def yield at its own nesting level?"""
    body = getattr(node, "body", [])
    for sub in _walk_skipping_nested_defs(body):
        if isinstance(sub, (ast.Yield, ast.YieldFrom)):
            return True
    return False


def _first_str_arg(call: ast.Call) -> Optional[str]:
    if call.args and isinstance(call.args[0], ast.Constant) \
            and isinstance(call.args[0].value, str):
        return call.args[0].value
    return None


# ---------------------------------------------------------------------------
# wal-ordering
# ---------------------------------------------------------------------------

#: Log verbs that license materialization when aimed at the log
#: (``restore`` appends a record recovery read back as durable).
_LOG_VERBS = frozenset({
    "append", "append_batch", "flush", "mark_durable", "restore",
})
#: Verbs that license on any receiver: ``sync_log`` forces the WAL by
#: definition; ``drain_dirty`` returns records that were logged at their
#: own commit time (the record heap admits only logged dirty data).
_LOG_ANY_VERBS = frozenset({"sync_log", "drain_dirty"})
#: Pipeline verbs that force the WAL through the commit pipeline.
_PIPELINE_VERBS = frozenset({"force"})
#: DC-side verbs that materialize committed state when aimed at the DC.
_MATERIALIZE_DC_VERBS = frozenset({
    "upsert", "delete", "apply_blind_batch", "checkpoint",
    "collect_garbage",
})
#: Receiver tails that denote the recovery log / the data component.
_LOG_TAILS = frozenset({"log", "wal"})
_DC_TAILS = frozenset({"dc"})
_PIPELINE_TAILS = frozenset({"pipeline"})


def _wal_governed_classes(index: ProjectIndex) -> Set[str]:
    """Classes owning a RecoveryLog, plus their one-hop owners.

    The WAL contract is the log *owner's* responsibility: the TC and the
    commit pipeline hold the ``RecoveryLog``; the engine owns the TC and
    issues checkpoint/GC barriers.  The DC below the log boundary is
    deliberately exempt — it never sees the WAL.
    """
    owners = {
        class_name
        for class_name, env in index.attr_types.items()
        if "RecoveryLog" in env.values()
    }
    governed = set(owners)
    for class_name, env in index.attr_types.items():
        if any(attr_type in owners for attr_type in env.values()):
            governed.add(class_name)
    return governed


@rule
class WalOrderingRule(Rule):
    rule_id = "wal-ordering"
    description = (
        "in WAL-governed classes, DC posts, dirty record-heap appends "
        "and checkpoint writes must be dominated by a recovery-log "
        "append/sync on every non-raising path"
    )

    def check(self, files: Sequence[SourceFile],
              config: LintConfig) -> Iterator[Finding]:
        index = project_index(files)
        governed = _wal_governed_classes(index)
        summaries = self._log_summaries(index, governed)
        for source in files:
            if not scoped_to(source, COST_SCOPE_SEGMENTS):
                continue
            for node, info in _own_methods(index, source):
                if node.name in governed:
                    yield from self._check_ordering(
                        index, summaries, info, source
                    )
                yield from self._check_checkpoint_invalidation(
                    info, source
                )

    # -- licenses / demands ---------------------------------------------

    def _is_log_write(self, index: ProjectIndex, info: CallableInfo,
                      call: ast.Call) -> bool:
        receiver, method = split_call(call)
        if method is None:
            return False
        if method in _LOG_ANY_VERBS:
            return True
        if receiver:
            tail = receiver[-1]
            if method in _LOG_VERBS and tail in _LOG_TAILS:
                return True
            if method in _PIPELINE_VERBS and tail in _PIPELINE_TAILS:
                return True
            if receiver[0] in ("self", "cls") and len(receiver) > 1:
                owner = index.resolve_chain(
                    info.class_name, receiver[1:]
                )
                if method in _LOG_VERBS and owner == "RecoveryLog":
                    return True
                if method in _PIPELINE_VERBS and owner == "CommitPipeline":
                    return True
        return False

    def _demand(self, index: ProjectIndex, info: CallableInfo,
                call: ast.Call) -> Optional[str]:
        receiver, method = split_call(call)
        if method is None:
            return None
        if method == "write_checkpoint":
            return "checkpoint write"
        if method == "append_record" and any(
            keyword.arg == "dirty"
            and isinstance(keyword.value, ast.Constant)
            and keyword.value.value is True
            for keyword in call.keywords
        ):
            return "dirty record-heap append"
        if method in _MATERIALIZE_DC_VERBS and receiver:
            if receiver[-1] in _DC_TAILS:
                return f"DC {method}"
            if receiver[0] in ("self", "cls") and len(receiver) > 1:
                owner = index.resolve_chain(
                    info.class_name, receiver[1:]
                )
                if owner == "BwTree":
                    return f"DC {method}"
        return None

    def _classifier(
        self, index: ProjectIndex, summaries: Dict[str, bool],
        info: CallableInfo,
    ) -> Classifier:
        def classify(call: ast.Call) -> Tuple[Optional[str], bool]:
            if self._is_log_write(index, info, call):
                return None, True
            receiver, method = split_call(call)
            license_ = False
            if method is not None and receiver \
                    and receiver[0] in ("self", "cls"):
                callee = index._resolve_call_target(
                    info, receiver, method
                )
                license_ = callee is not None \
                    and summaries.get(callee.qualname, False)
            return self._demand(index, info, call), license_

        return classify

    def _log_summaries(
        self, index: ProjectIndex, governed: Set[str]
    ) -> Dict[str, bool]:
        """qualname -> the method issues a log write on all its exits.

        Fixpoint so ``sync_log`` -> ``commit`` -> engine wrappers chain.
        """
        infos = [
            info
            for class_name in governed
            for info in index.classes.get(class_name, {}).values()
        ]
        return _fixpoint(infos, lambda info, summaries: _dominance(
            self._classifier(index, summaries, info), info
        )[0])

    def _check_ordering(
        self, index: ProjectIndex, summaries: Dict[str, bool],
        info: CallableInfo, source: SourceFile,
    ) -> Iterator[Finding]:
        __, violations = _dominance(
            self._classifier(index, summaries, info), info
        )
        for (line, col), what in sorted(violations.items()):
            yield Finding(
                path=source.path, line=line, col=col, rule=self.rule_id,
                message=(
                    f"{info.qualname}: {what} is reachable before any "
                    "recovery-log append/sync on this path — WAL "
                    "inversion; log (or sync_log/pipeline.force) first"
                ),
            )

    def _check_checkpoint_invalidation(
        self, info: CallableInfo, source: SourceFile
    ) -> Iterator[Finding]:
        """PR 4's second bug: checkpoint code invalidated the previous
        image before the replacement was flushed durable."""
        if "checkpoint" not in info.node.name.lower():
            return
        appends: Set[Tuple[str, ...]] = set()
        flushes: Dict[Tuple[str, ...], int] = {}
        invalidates: List[Tuple[Tuple[str, ...], ast.Call]] = []
        body = list(getattr(info.node, "body", []))
        for node in _walk_skipping_nested_defs(body):
            if not isinstance(node, ast.Call):
                continue
            receiver, method = split_call(node)
            if receiver is None or not receiver:
                continue
            if method == "append":
                appends.add(receiver)
            elif method == "flush":
                previous = flushes.get(receiver)
                if previous is None or node.lineno < previous:
                    flushes[receiver] = node.lineno
            elif method == "invalidate":
                invalidates.append((receiver, node))
        for receiver, call in invalidates:
            if receiver not in appends:
                continue
            flushed_at = flushes.get(receiver)
            if flushed_at is not None and flushed_at < call.lineno:
                continue
            yield Finding(
                path=source.path, line=call.lineno,
                col=call.col_offset, rule=self.rule_id,
                message=(
                    f"{info.qualname}: invalidates via "
                    f"{'.'.join(receiver)} before flushing the "
                    "replacement image it appended — a crash here "
                    "loses both copies; flush before invalidate"
                ),
            )


# ---------------------------------------------------------------------------
# epoch-discipline
# ---------------------------------------------------------------------------

_EPOCH_SCOPE_SEGMENTS = frozenset({"bwtree", "deuteronomy"})
#: Charge labels that establish latch-free protection on a path.
_PROTECT_LABELS = frozenset({"epoch_protect", "latch_acquire"})
#: Receiver tails whose ``get``/``pop`` is a latch-free dereference.
_DEREF_TAILS = frozenset({"mapping_table", "_index"})
#: Verbs that dereference a delta chain / arena on any receiver.
_DEREF_ANY_VERBS = frozenset({"prepend_delta", "iter_records"})
_EPOCH_ENTER_VERBS = frozenset({"epoch_enter", "enter_epoch"})
_EPOCH_EXIT_VERBS = frozenset({"epoch_exit", "exit_epoch"})


def _bound_name(node: ast.AST) -> Optional[str]:
    """``x`` for ``x`` or ``<anything>.x``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _protect_plans(files: Sequence[SourceFile]) -> FrozenSet[str]:
    """Names bound to a charge plan (``name = <cpu>.plan(category,
    *steps, then=step)``) with a protecting step: billing one protects
    as its charges would.  Plans are matched by the bound name, across
    every analyzed file."""
    names: Set[str] = set()
    for source in files:
        for node in ast.walk(source.tree):
            if not (isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Call)
                    and split_call(node.value)[1] == "plan"):
                continue
            call = node.value
            steps = [*call.args[1:],
                     *(kw.value for kw in call.keywords if kw.arg == "then")]
            if any(isinstance(step, ast.Constant)
                   and step.value in _PROTECT_LABELS for step in steps):
                names.update(name for name in map(_bound_name, node.targets)
                             if name is not None)
    return frozenset(names)


def _is_protect_charge(call: ast.Call, plans: FrozenSet[str]) -> bool:
    from .project import CHARGE_ATTRS

    __, method = split_call(call)
    if method == "bill":
        return bool(call.args) and _bound_name(call.args[0]) in plans
    return (method in CHARGE_ATTRS
            and _first_str_arg(call) in _PROTECT_LABELS)


def _direct_deref(call: ast.Call) -> Optional[str]:
    receiver, method = split_call(call)
    if method in _DEREF_ANY_VERBS:
        return f"{method}() delta-chain/arena dereference"
    if receiver:
        tail = receiver[-1]
        if method in {"get", "pop"} and tail in _DEREF_TAILS:
            return f"{tail}.{method}() dereference"
        if method == "lookup" and tail == "state":
            return "page-state lookup"
    return None


def _epoch_aware_classes(index: ProjectIndex,
                         plans: FrozenSet[str]) -> Set[str]:
    """Classes that charge epoch/latch protection somewhere: only these
    opted into the latch-free discipline (``ReadCache`` has an
    ``_index`` too, but it is latched — not this rule's business)."""
    aware: Set[str] = set()
    for class_name, methods in index.classes.items():
        for info in methods.values():
            body = list(getattr(info.node, "body", []))
            for node in _walk_skipping_nested_defs(body):
                if isinstance(node, ast.Call) and (
                    _is_protect_charge(node, plans)
                    or split_call(node)[1] in _EPOCH_ENTER_VERBS
                ):
                    aware.add(class_name)
                    break
            if class_name in aware:
                break
    return aware


@rule
class EpochDisciplineRule(Rule):
    rule_id = "epoch-discipline"
    description = (
        "latch-free dereferences (mapping table, record-heap index, "
        "delta chains) must sit behind an epoch_protect/latch_acquire "
        "charge; explicit epoch enter/exit must pair on every exit"
    )

    def check(self, files: Sequence[SourceFile],
              config: LintConfig) -> Iterator[Finding]:
        index = project_index(files)
        plans = _protect_plans(files)
        aware = _epoch_aware_classes(index, plans)
        summaries = self._summaries(index, aware, plans)
        for source in files:
            if not scoped_to(source, _EPOCH_SCOPE_SEGMENTS):
                continue
            for node, info in _own_methods(index, source):
                if node.name not in aware:
                    continue
                yield from self._check_pairing(info, source)
                if info.node.name.startswith("_"):
                    continue
                if "property" in decorator_names(info.node):
                    continue
                if _is_generator(info.node):
                    continue
                __, violations = _dominance(
                    self._classifier(index, info, summaries, plans), info
                )
                for (line, col), what in sorted(violations.items()):
                    yield Finding(
                        path=source.path, line=line, col=col,
                        rule=self.rule_id,
                        message=(
                            f"{info.qualname}: {what} on a path with no "
                            "epoch_protect/latch_acquire charge — a "
                            "concurrent reclaimer may free what this "
                            "reads; protect the epoch first"
                        ),
                    )

    def _classifier(
        self, index: ProjectIndex, info: CallableInfo,
        summaries: Dict[str, Tuple[bool, bool]], plans: FrozenSet[str],
    ) -> Classifier:
        def classify(call: ast.Call) -> Tuple[Optional[str], bool]:
            if _is_protect_charge(call, plans):
                return None, True
            # Pattern first: ``self.mapping_table.get`` must stay a
            # dereference even though MappingTable.get resolves.
            direct = _direct_deref(call)
            if direct is not None:
                return direct, False
            receiver, method = split_call(call)
            if method is not None and receiver \
                    and receiver[0] in ("self", "cls"):
                callee = index._resolve_call_target(
                    info, receiver, method
                )
                if callee is not None \
                        and callee.class_name == info.class_name:
                    protects, derefs = summaries.get(
                        callee.qualname, (False, False)
                    )
                    demand = None
                    if derefs:
                        demand = (
                            f"call to {callee.qualname} (dereferences "
                            "without protecting)"
                        )
                    return demand, protects
            return None, False

        return classify

    def _summaries(
        self, index: ProjectIndex, aware: Set[str], plans: FrozenSet[str],
    ) -> Dict[str, Tuple[bool, bool]]:
        """qualname -> (protects on all exits, has an unprotected
        dereference), for folding private helpers (``_descend``,
        ``_write_record``) into their public callers.  Generators are
        left out: they run lazily under the consumer's epoch."""
        infos = [
            info
            for class_name in aware
            for info in index.classes.get(class_name, {}).values()
            if not _is_generator(info.node)
        ]

        def evaluate(info: CallableInfo,
                     summaries: Dict[str, Tuple[bool, bool]]
                     ) -> Tuple[bool, bool]:
            protects, violations = _dominance(
                self._classifier(index, info, summaries, plans), info
            )
            return protects, bool(violations)

        return _fixpoint(infos, evaluate)

    def _check_pairing(self, info: CallableInfo,
                       source: SourceFile) -> Iterator[Finding]:
        flow = _EpochPairing()
        flow.run(info.node.body, frozenset({0}))
        leaks = {
            (node.lineno, node.col_offset)
            for node, depths in flow.exits
            if any(depth > 0 for depth in depths)
        }
        for line, col in sorted(leaks):
            yield Finding(
                path=source.path, line=line, col=col, rule=self.rule_id,
                message=(
                    f"{info.qualname}: an entered epoch can leak here "
                    "(epoch_enter without epoch_exit on this path); "
                    "exit in a finally block"
                ),
            )


class _EpochPairing(Flow[int]):
    """Depth dataflow for explicit epoch_enter/epoch_exit pairing.

    The production code protects by *charging* (scalar cost, no handle),
    so this pass finds nothing there; it guards the explicit-handle
    style fixtures and any future code that adopts it.
    """

    _CAP = 4
    #: Unlike WAL/cost accounting, raising with an epoch held leaks it.
    raise_exempt = False

    def transfer(self, node: ast.AST,
                 states: FrozenSet[int]) -> FrozenSet[int]:
        for call in iter_calls(node):
            __, method = split_call(call)
            if method in _EPOCH_ENTER_VERBS:
                states = frozenset(
                    min(depth + 1, self._CAP) for depth in states
                )
            elif method in _EPOCH_EXIT_VERBS:
                states = frozenset(
                    max(depth - 1, 0) for depth in states
                )
        return states


# ---------------------------------------------------------------------------
# fault-site-coverage
# ---------------------------------------------------------------------------

_FAULT_SCOPE_SEGMENTS = frozenset({"storage", "deuteronomy"})
#: Device-level mutations that open a crash window on any receiver.
_MUTATION_ANY_VERBS = frozenset({
    "submit_write", "mark_durable", "drop_segment",
})
#: Receiver tails whose ``write`` is a raw device write.
_DEVICE_TAILS = frozenset({"ssd", "device"})


def _module_str_constants(tree: ast.Module) -> Dict[str, str]:
    """Top-level ``NAME = "literal"`` assignments (SITE_* constants)."""
    constants: Dict[str, str] = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) \
                and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    constants[target.id] = node.value.value
    return constants


@rule
class FaultSiteCoverageRule(Rule):
    rule_id = "fault-site-coverage"
    description = (
        "device-level durability mutations in storage/ and deuteronomy/ "
        "must be dominated, in the same function body, by faults.hit() "
        "on a registered FaultSite"
    )

    def check(self, files: Sequence[SourceFile],
              config: LintConfig) -> Iterator[Finding]:
        for source in files:
            if not scoped_to(source, _FAULT_SCOPE_SEGMENTS):
                continue
            constants = _module_str_constants(source.tree)
            # Nested closures too, each on its own: a hit in the
            # enclosing method does not run when the closure later does.
            for node in iter_functions(source.tree):
                yield from self._check_body(source, node, constants)

    def _site_name(self, call: ast.Call,
                   constants: Dict[str, str]) -> Optional[str]:
        if not call.args:
            return None
        arg = call.args[0]
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return arg.value
        if isinstance(arg, ast.Name):
            return constants.get(arg.id)
        return None

    def _mutation(self, call: ast.Call) -> Optional[str]:
        receiver, method = split_call(call)
        if method in _MUTATION_ANY_VERBS:
            return f"{method}()"
        if method == "write" and receiver \
                and receiver[-1] in _DEVICE_TAILS:
            return f"{receiver[-1]}.write()"
        return None

    def _check_body(self, source: SourceFile, node: ast.AST,
                    constants: Dict[str, str]) -> Iterator[Finding]:
        body = list(getattr(node, "body", []))
        hits: List[int] = []
        mutations: List[Tuple[ast.Call, str]] = []
        for sub in _walk_skipping_nested_defs(body):
            if not isinstance(sub, ast.Call):
                continue
            __, method = split_call(sub)
            if method == "hit":
                site = self._site_name(sub, constants)
                if site is not None and site in FAULT_SITES:
                    hits.append(sub.lineno)
            else:
                what = self._mutation(sub)
                if what is not None:
                    mutations.append((sub, what))
        for call, what in mutations:
            if any(line <= call.lineno for line in hits):
                continue
            yield Finding(
                path=source.path, line=call.lineno,
                col=call.col_offset, rule=self.rule_id,
                message=(
                    f"{what} opens a crash window with no registered "
                    "FaultSite hit() before it in this body — the "
                    "crash matrix cannot inject here; add a FaultSite "
                    "to repro.faults.plan and call faults.hit() first"
                ),
            )
