"""Cross-module call-graph index used by the cost-accounting rule.

The cost rule needs to know, for an expression like
``self.cache.fetch(entry)``, whether the callee charges the CPU / I/O
path somewhere — even though ``fetch`` lives in another module.  This
index approximates that with lightweight, annotation-driven type
inference:

* a **class registry** maps bare class names to their methods across
  every analyzed file;
* **attribute types** come from ``self.x = SomeClass(...)`` constructor
  assignments and from ``self.x = param`` where the parameter carries a
  class annotation (``Optional``/string forms unwrapped);
* a **fixpoint** then propagates "this callable charges" / "this
  callable touches pages or logs" through resolved calls until stable.

The inference is deliberately conservative: an unresolvable receiver
contributes no events, so unknown code neither satisfies nor triggers
the rule.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .core import SourceFile

#: Attribute names whose call is, by itself, a CPU / I/O-path charge
#: (``bill`` charges a plan's fixed run of steps).
CHARGE_ATTRS = frozenset({
    "charge",
    "bill",
    "charge_submit",
    "charge_complete",
    "charge_round_trip",
})

#: Method names that always mean page/log work, whatever the receiver.
DOMAIN_TOUCH_VERBS = frozenset({
    "fetch",
    "flush_page",
    "evict",
    "evict_idle_pages",
    "consolidate",
    "prepend_delta",
    "install_base",
    "replace_base",
    "drop_base",
    "bulk_load",
    "write_checkpoint",
    "clean_segment",
    "drop_segment",
    "replay_redo",
    "apply_blind_batch",
    "touch",
    # Fault-injection hooks: arriving at a fault site, running a
    # retry-wrapped device access, or reclaiming deferred GC drops is
    # always real storage-path work and must carry a cost charge.
    "hit",
    "run_with_retries",
    "drop_pending",
    # Observability hooks: opening a trace span or recording a hot-path
    # histogram sample marks measured storage work — a method worth a
    # span or a metric is a method whose cost must be charged.
    "open_span",
    "observe",
    # Asynchronous commit pipeline: enqueueing into an epoch, honoring a
    # device ack, and resolving commit futures are commit-path work on
    # the durable log and must carry cost charges.
    "enqueue_epoch",
    "resolve_future",
    "ack",
    # Record-cache v2: appending into the record heap, relocating a live
    # record during arena GC, and sealing an arena are record-store
    # mutations on the MM hot path and must carry cost charges.
    "append_record",
    "relocate",
    "seal_arena",
    # N-tier hierarchy: moving a victim down to a cheaper tier and
    # promoting a far-memory copy back into DRAM are page movement on
    # the storage path — real copies whose cost must be charged.
    "demote",
    "promote",
    # What-if causal profiling: installing per-category charge scaling
    # re-prices every subsequent hot-path charge — a storage-path
    # method that scales costs without charging any is mis-accounting
    # the very stream the profiler folds.
    "scale_costs",
})

#: Generic verbs that count as touches only with a store-like receiver.
GENERIC_TOUCH_VERBS = frozenset({
    "append",
    "append_batch",
    "read",
    "read_batch",
    "write",
    "write_batch",
    "flush",
    "checkpoint",
    "get",
    "put",
    "delete",
    "upsert",
    "get_with_stats",
    "multi_get",
    "apply_batch",
    "run_update",
    "execute_batch",
    "commit",
    "commit_batch",
})

#: Receiver attribute/variable names that look like page or log stores.
STORE_RECEIVER_HINTS = frozenset({
    "store",
    "log",
    "cache",
    "read_cache",
    "page_cache",
    "ssd",
    "dc",
    "tc",
    "memtable",
    "wal",
    "tree",
    "shard",
    "shards",
    "engine",
    "versions",
})


def _annotation_class(annotation: Optional[ast.AST]) -> Optional[str]:
    """Bare class name out of a parameter annotation, if recognizable.

    Handles ``Foo``, ``"Foo"``, ``Optional[Foo]``, ``mod.Foo`` and the
    PEP 604 form ``Foo | None``.
    """
    if annotation is None:
        return None
    node = annotation
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.Subscript):
        base = node.value
        base_name = base.attr if isinstance(base, ast.Attribute) else (
            base.id if isinstance(base, ast.Name) else None
        )
        if base_name in {"Optional", "Union"}:
            inner = node.slice
            candidates = (
                inner.elts if isinstance(inner, ast.Tuple) else [inner]
            )
            for candidate in candidates:
                name = _annotation_class(candidate)
                if name is not None:
                    return name
        return None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return _annotation_class(node.left) or _annotation_class(node.right)
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        if node.id in {"None", "bytes", "str", "int", "float", "bool"}:
            return None
        return node.id
    return None


def _constructed_class(value: ast.AST, known: Set[str]) -> Optional[str]:
    """Class name constructed anywhere inside an assignment's RHS."""
    for node in ast.walk(value):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else None
            )
            if name is not None and name in known:
                return name
    return None


@dataclass
class CallableInfo:
    """One function or method with its resolved call-graph facts."""

    qualname: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    source: SourceFile
    class_name: Optional[str] = None
    charges: bool = False
    touches: bool = False
    #: (receiver chain or None-for-bare-name, method name) calls made.
    calls: List[Tuple[Optional[Tuple[str, ...]], str]] = field(
        default_factory=list
    )


class ProjectIndex:
    """Class registry + attribute types + charge/touch fixpoint."""

    def __init__(self, files: Sequence[SourceFile]) -> None:
        self.files = files
        #: bare class name -> {method name -> CallableInfo}
        self.classes: Dict[str, Dict[str, CallableInfo]] = {}
        #: bare class name -> {attribute name -> bare class name}
        self.attr_types: Dict[str, Dict[str, str]] = {}
        #: class name -> set of base-class bare names
        self.bases: Dict[str, Set[str]] = {}
        #: classes defined in storage-flavoured modules
        self.storage_classes: Set[str] = set()
        #: module-level functions by bare name (last definition wins)
        self.functions: Dict[str, CallableInfo] = {}
        self._build()
        self._infer_attribute_types()
        self._run_fixpoint()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _build(self) -> None:
        for source in self.files:
            storageish = any(
                part in {"storage", "lsm"} for part in source.segments
            )
            for node in source.tree.body:
                if isinstance(node, ast.ClassDef):
                    methods: Dict[str, CallableInfo] = {}
                    for item in node.body:
                        if isinstance(
                            item, (ast.FunctionDef, ast.AsyncFunctionDef)
                        ):
                            info = CallableInfo(
                                qualname=f"{node.name}.{item.name}",
                                node=item,
                                source=source,
                                class_name=node.name,
                            )
                            methods[item.name] = info
                    self.classes[node.name] = methods
                    self.bases[node.name] = {
                        base.id
                        for base in node.bases
                        if isinstance(base, ast.Name)
                    }
                    if storageish:
                        self.storage_classes.add(node.name)
                elif isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    self.functions[node.name] = CallableInfo(
                        qualname=node.name, node=node, source=source
                    )
        # RecoveryLog lives in deuteronomy/ but is a log store.
        for name in ("RecoveryLog", "ReadCache"):
            if name in self.classes:
                self.storage_classes.add(name)

    def _infer_attribute_types(self) -> None:
        known = set(self.classes)
        for class_name, methods in self.classes.items():
            env: Dict[str, str] = {}
            for info in methods.values():
                params: Dict[str, Optional[str]] = {}
                args = info.node.args
                for arg in list(args.posonlyargs) + list(args.args) + list(
                    args.kwonlyargs
                ):
                    annotated = _annotation_class(arg.annotation)
                    if annotated in known:
                        params[arg.arg] = annotated
                for stmt in ast.walk(info.node):
                    if not isinstance(stmt, ast.Assign):
                        continue
                    for target in stmt.targets:
                        if not (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            continue
                        inferred = None
                        value = stmt.value
                        if isinstance(value, ast.Name):
                            inferred = params.get(value.id)
                        if inferred is None:
                            inferred = _constructed_class(value, known)
                        if inferred is None and isinstance(
                            value, (ast.IfExp, ast.BoolOp)
                        ):
                            for sub in ast.walk(value):
                                if isinstance(sub, ast.Name):
                                    inferred = params.get(sub.id)
                                    if inferred:
                                        break
                        if inferred is not None:
                            env.setdefault(target.attr, inferred)
            self.attr_types[class_name] = env

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------

    def resolve_chain(self, class_name: Optional[str],
                      chain: Sequence[str]) -> Optional[str]:
        """Type of ``self.<chain...>`` seen from ``class_name``.

        ``chain`` excludes the leading ``self``; e.g. ``("machine",
        "cpu")`` from ``BwTree`` resolves Machine then CpuModel.
        """
        current = class_name
        for attr in chain:
            if current is None:
                return None
            env = self.attr_types.get(current)
            if env is None:
                return None
            found = env.get(attr)
            if found is None:
                # Fall back to base classes' attribute environments.
                for base in self.bases.get(current, ()):
                    found = self.attr_types.get(base, {}).get(attr)
                    if found is not None:
                        break
            if found is None:
                return None
            current = found
        return current

    def lookup_method(self, class_name: Optional[str],
                      method: str) -> Optional[CallableInfo]:
        if class_name is None:
            return None
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

    # ------------------------------------------------------------------
    # charge/touch fixpoint
    # ------------------------------------------------------------------

    def _all_callables(self) -> List[CallableInfo]:
        result = list(self.functions.values())
        for methods in self.classes.values():
            result.extend(methods.values())
        return result

    def _run_fixpoint(self) -> None:
        callables = self._all_callables()
        for info in callables:
            self._collect_direct_events(info)
        changed = True
        passes = 0
        while changed and passes < 50:
            changed = False
            passes += 1
            for info in callables:
                if info.charges and info.touches:
                    continue
                for receiver, method in info.calls:
                    callee = self._resolve_call_target(
                        info, receiver, method
                    )
                    if callee is not None:
                        touches, charges = callee.touches, callee.charges
                    elif method in DOMAIN_TOUCH_VERBS:
                        touches, charges = self._domain_fallback(method)
                    else:
                        continue
                    if charges and not info.charges:
                        info.charges = True
                        changed = True
                    if touches and not info.touches:
                        info.touches = True
                        changed = True

    def _resolve_call_target(
        self, caller: CallableInfo,
        receiver: Optional[Tuple[str, ...]], method: str,
    ) -> Optional[CallableInfo]:
        if receiver is None:
            # Bare-name call: a module function or (constructor) class.
            target = self.functions.get(method)
            if target is not None:
                return target
            init = self.lookup_method(method, "__init__")
            return init
        if receiver and receiver[0] in ("self", "cls"):
            chain = receiver[1:]
            if not chain:
                return self.lookup_method(caller.class_name, method)
            owner = self.resolve_chain(caller.class_name, chain)
            return self.lookup_method(owner, method)
        if len(receiver) == 1 and receiver[0] in self.classes:
            # ClassName.method(...) — classmethod/static dispatch.
            return self.lookup_method(receiver[0], method)
        return None

    def _domain_fallback(self, method: str) -> Tuple[bool, bool]:
        """(touches, charges) for a domain-verb call on an unknown
        receiver: OR over every class method with that name.

        Domain verbs (``bulk_load``, ``replay_redo``, ...) are
        distinctive enough that name-based dispatch is sound — it lets
        ``shard.bulk_load(...)`` through a loop variable credit the
        charge BwTree.bulk_load makes internally.  Generic names
        (``get``, ``append``) never take this path.
        """
        touches = method in DOMAIN_TOUCH_VERBS
        charges = False
        for methods in self.classes.values():
            candidate = methods.get(method)
            if candidate is not None:
                touches = touches or candidate.touches
                charges = charges or candidate.charges
        return touches, charges

    def call_events(
        self, caller: CallableInfo,
        receiver: Optional[Tuple[str, ...]], method: str,
    ) -> Tuple[bool, bool]:
        """(touches, charges) contributed by one call expression.

        A resolved callee is authoritative for the generic verbs — the
        analyzed body of ``MappingTable.get`` shows it is an in-DRAM
        index probe, not a page touch, whatever its name suggests.
        Domain verbs stay touches regardless: ``cache.touch(entry)`` is
        the logical page access even though its body is bookkeeping.
        """
        if method in CHARGE_ATTRS:
            return False, True
        domain = method in DOMAIN_TOUCH_VERBS
        callee = self._resolve_call_target(caller, receiver, method)
        if callee is not None:
            return callee.touches or domain, callee.charges
        if domain:
            __, fb_charge = self._domain_fallback(method)
            return True, fb_charge
        return (
            self.is_touch_call(caller.class_name, receiver, method),
            False,
        )

    def _collect_direct_events(self, info: CallableInfo) -> None:
        body = getattr(info.node, "body", [])
        for node in _walk_skipping_nested_defs(body):
            if isinstance(node, ast.Call):
                receiver, method = split_call(node)
                if method is None:
                    continue
                if method in CHARGE_ATTRS:
                    # Covers both ``cpu.charge(...)`` and the hot-path
                    # local alias ``charge = cpu.charge; charge(...)``.
                    info.charges = True
                    continue
                info.calls.append((receiver, method))
                if self.is_touch_call(info.class_name, receiver, method) \
                        and (method in DOMAIN_TOUCH_VERBS
                             or self._resolve_call_target(
                                 info, receiver, method) is None):
                    info.touches = True
            elif isinstance(node, ast.Assign):
                if _is_state_drop(node):
                    info.touches = True

    def is_touch_call(
        self, class_name: Optional[str],
        receiver: Optional[Tuple[str, ...]], method: str,
    ) -> bool:
        """Does calling ``receiver.method`` constitute page/log work?"""
        if method in DOMAIN_TOUCH_VERBS:
            return True
        if method not in GENERIC_TOUCH_VERBS:
            return False
        if receiver is None or not receiver:
            return False
        tail = receiver[-1]
        if tail in STORE_RECEIVER_HINTS:
            return True
        if tail in self.storage_classes:
            return True
        if receiver[0] in ("self", "cls") and len(receiver) > 1:
            owner = self.resolve_chain(class_name, receiver[1:])
            if owner is not None and owner in self.storage_classes:
                return True
        return False


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


def _is_state_drop(node: ast.Assign) -> bool:
    """``<entry>.state = None`` — dropping a page's resident state."""
    if not (isinstance(node.value, ast.Constant)
            and node.value.value is None):
        return False
    return any(
        isinstance(target, ast.Attribute) and target.attr == "state"
        for target in node.targets
    )


def _walk_skipping_nested_defs(
        body: Sequence[ast.stmt]) -> Iterator[ast.AST]:
    """Walk statements without descending into nested def/class bodies.

    Nested functions run when *called*; their events are accounted via
    the call graph (bare-name calls resolve to module functions, and the
    cost rule folds locally defined closures in separately).
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
