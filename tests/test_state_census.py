"""The state census: every counter, stat field and histogram ``src/``
writes names a reader outside the tests.

A *store* is one of

* a ``CounterSet`` key ``src/repro`` writes: ``counts["k"] += …`` (or
  ``=``) on a counter dict (a name or attribute ``counts`` /
  ``_counts``), or ``counters.add("k", …)``;
* an attribute it stores: ``obj.name = …`` or ``obj.name += …``;
* a field of a mutable dataclass (its constructor stores it).

A key is *read* where its string appears, outside a store, anywhere in
``src/``, ``benchmarks/`` (the e2e harness and ``layertrace.py``
included) or ``examples/``; an attribute where ``.name`` is loaded there
(or ``getattr`` names it), except as the receiver of a write
(``.observe``, ``.append``, ``.add`` or ``.extend`` on it, or a
subscript store into it).  Reads go by name: a name read anywhere keeps
every store of that name, so the census errs toward keeping.  A store
to a property is a setter call, not state.

A key built at run time is listed in :data:`RUNTIME_KEYS` with its
reader.  Any other store nothing outside the tests reads is deleted.

The converse holds for the tests: a key a test reads with
``counters.get("k")`` is one ``src/`` writes (or the test's own), since
``CounterSet.get`` reads 0 for a key nobody writes and a check on a
deleted key would pass without testing anything.
"""

import ast
from typing import Dict, Iterator, List, NamedTuple, Set, Tuple

from benchmarks.census import ROOT, module_name

SOURCE = ROOT / "src" / "repro"
READERS = (ROOT / "src", ROOT / "benchmarks", ROOT / "examples")

#: Methods whose receiver is written, not read.
WRITE_METHODS = frozenset({"observe", "append", "add", "extend"})

#: Each function that stores a counter under a key it computes, with the
#: keys and their readers.
RUNTIME_KEYS = {
    "repro.hardware.cpu:CpuModel.bill":
        "cpu_us.<category>: counters.snapshot() in Tracer and whatif, "
        "and the e2e harness's per-layer CPU split",
    "repro.hardware.ssd:SimulatedSsd._access":
        "ssd.reads / ssd.writes: the e2e harness's ssd.read_ios / "
        "ssd.write_ios",
    "repro.hardware.metrics:CounterSet.add":
        "its caller's key, censused at the call",
}

#: The keys those functions write; one ending in ``.`` is a prefix.
RUNTIME_KEY_NAMES = ("cpu_us.", "ssd.reads", "ssd.writes")


class Store(NamedTuple):
    kind: str       # "key", "runtime", "attribute" or "field"
    name: str       # the key, the computed key's source, or the attribute
    where: str      # path:line
    function: str   # module:qualname of the enclosing def ("" if none)

    def __str__(self) -> str:
        return f"{self.where}: {self.kind} {self.name!r}"


def _named(node: ast.AST, *names: str) -> bool:
    """``node`` is a bare name or an attribute called one of ``names``."""
    if isinstance(node, ast.Attribute):
        return node.attr in names
    return isinstance(node, ast.Name) and node.id in names


def key_stores(tree: ast.AST) -> Iterator[Tuple[ast.expr, ast.AST]]:
    """``(key expression, store node)`` for every counter store."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.AugAssign, ast.Assign)):
            targets = ([node.target] if isinstance(node, ast.AugAssign)
                       else node.targets)
            for target in targets:
                if (isinstance(target, ast.Subscript)
                        and _named(target.value, "counts", "_counts")):
                    yield target.slice, target
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "add"
              and _named(node.func.value, "counters") and node.args):
            yield node.args[0], node


def _is_dataclass(node: ast.ClassDef) -> Tuple[bool, bool]:
    """``(is a dataclass, is frozen)``."""
    for decorator in node.decorator_list:
        call = decorator if isinstance(decorator, ast.Call) else None
        if _named(call.func if call else decorator, "dataclass"):
            frozen = call is not None and any(
                keyword.arg == "frozen"
                and getattr(keyword.value, "value", False)
                for keyword in call.keywords)
            return True, frozen
    return False, False


def stores(tree: ast.Module, path: str, module: str) -> List[Store]:
    """Every store in one parsed ``src/repro`` module."""
    found: List[Store] = []
    keys = dict((id(node), slice_) for slice_, node in key_stores(tree))

    def visit(node: ast.AST, qualname: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = qualname
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = f"{qualname}.{child.name}" if qualname else child.name
            where = f"{path}:{getattr(child, 'lineno', 0)}"
            function = f"{module}:{qualname}" if qualname else ""
            if id(child) in keys:
                key = keys[id(child)]
                if isinstance(key, ast.Constant):
                    found.append(Store("key", key.value, where, function))
                else:
                    found.append(Store("runtime", ast.unparse(key), where,
                                       function))
            if (isinstance(child, ast.Attribute)
                    and isinstance(child.ctx, ast.Store)):
                found.append(Store("attribute", child.attr, where, function))
            if isinstance(child, ast.ClassDef):
                dataclass, frozen = _is_dataclass(child)
                for item in child.body if dataclass and not frozen else ():
                    if (isinstance(item, ast.AnnAssign)
                            and isinstance(item.target, ast.Name)
                            and "ClassVar" not in ast.unparse(
                                item.annotation)):
                        found.append(Store(
                            "field", item.target.id,
                            f"{path}:{item.lineno}", f"{module}:{inner}"))
            visit(child, inner)

    visit(tree, "")
    return found


def properties(tree: ast.Module) -> Set[str]:
    """Names defined as a property (or a property's setter)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for decorator in node.decorator_list:
                if _named(decorator, "property", "setter"):
                    names.add(node.name)
    return names


def reads(tree: ast.Module) -> Tuple[Set[str], Set[str]]:
    """``(strings, attributes)`` one reader module reads."""
    stored_keys = {id(key) for key, __ in key_stores(tree)}
    parent: Dict[int, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parent[id(child)] = node
    strings: Set[str] = set()
    attributes: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in stored_keys:
                strings.add(node.value)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                            ast.Load):
            up = parent.get(id(node))
            if (isinstance(up, ast.Attribute) and up.attr in WRITE_METHODS
                    and isinstance(parent.get(id(up)), ast.Call)
                    and parent[id(up)].func is up):
                continue
            if (isinstance(up, ast.Subscript) and up.value is node
                    and isinstance(up.ctx, ast.Store)):
                continue
            attributes.add(node.attr)
        elif (isinstance(node, ast.Call) and _named(node.func, "getattr")
              and len(node.args) > 1
              and isinstance(node.args[1], ast.Constant)):
            attributes.add(node.args[1].value)
    return strings, attributes


def source_stores() -> Tuple[List[Store], Set[str]]:
    """Every store in ``src/repro``, and every property name there."""
    found: List[Store] = []
    setters: Set[str] = set()
    for path in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(path.read_text())
        found += stores(tree, str(path.relative_to(ROOT)), module_name(path))
        setters |= properties(tree)
    return found, setters


def reader_reads() -> Tuple[Set[str], Set[str]]:
    """What every module outside ``tests/`` reads."""
    strings: Set[str] = set()
    attributes: Set[str] = set()
    for directory in READERS:
        for path in sorted(directory.rglob("*.py")):
            more_strings, more_attributes = reads(ast.parse(path.read_text()))
            strings |= more_strings
            attributes |= more_attributes
    return strings, attributes


def unread(found: List[Store], setters: Set[str], strings: Set[str],
           attributes: Set[str]) -> List[Store]:
    """The stores nothing reads, run-time keys left out."""
    return [store for store in found
            if (store.kind == "key" and store.name not in strings)
            or (store.kind in ("attribute", "field")
                and store.name not in attributes
                and store.name not in setters)]


def census() -> Tuple[List[Store], List[Store]]:
    """``(unread stores, run-time key stores)`` of the tree."""
    found, setters = source_stores()
    strings, attributes = reader_reads()
    return (unread(found, setters, strings, attributes),
            [store for store in found if store.kind == "runtime"])


def counter_reads(tree: ast.AST) -> Iterator[Tuple[str, int]]:
    """``(key, line)`` of every ``counters.get("k")`` in ``tree``."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get"
                and _named(node.func.value, "counters") and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)):
            yield node.args[0].value, node.lineno


def unwritten(tree: ast.AST, path: str, written: Set[str]) -> List[str]:
    """The counter reads of one test module that no store writes."""
    own = {key.value for key, __ in key_stores(tree)
           if isinstance(key, ast.Constant)}
    return [f"{path}:{line}: key {key!r}"
            for key, line in counter_reads(tree)
            if key not in written and key not in own
            and not any(key.startswith(name) if name.endswith(".")
                        else key == name for name in RUNTIME_KEY_NAMES)]


def test_every_store_names_a_reader_outside_the_tests():
    missing = [str(store) for store in census()[0]]
    assert missing == [], (
        "nothing outside tests/ reads these; delete each store:\n"
        + "\n".join(missing))


def test_every_counter_a_test_reads_is_written():
    written = {store.name for store in source_stores()[0]
               if store.kind == "key"}
    missing = []
    for path in sorted((ROOT / "tests").rglob("*.py")):
        missing += unwritten(ast.parse(path.read_text()),
                             str(path.relative_to(ROOT)), written)
    assert missing == [], (
        "nothing in src/ writes these, so each reads 0:\n"
        + "\n".join(missing))


def test_every_run_time_key_names_its_reader():
    runtime = census()[1]
    unlisted = [str(store) for store in runtime
                if store.function not in RUNTIME_KEYS]
    assert unlisted == []
    functions = {store.function for store in runtime}
    assert sorted(set(RUNTIME_KEYS) - functions) == []


def census_of(source: str) -> List[str]:
    """The unread stores of ``source`` as a module of ``src/repro``,
    read only by itself."""
    tree = ast.parse(source)
    strings, attributes = reads(tree)
    return [str(store) for store in unread(
        stores(tree, "m.py", "m"), properties(tree), strings, attributes)]


def test_a_counter_key_nothing_reads_is_reported_with_its_line():
    source = (
        "class Tc:\n"
        "    def get(self):\n"
        "        self._counts['tc.reads'] += 1.0\n"
        "        self._counts['tc.nobody'] += 1.0\n"
        "        self.counters.add('tc.nobody_either')\n"
        "    def hit_rate(self):\n"
        "        return self.counters.get('tc.reads')\n")
    assert census_of(source) == ["m.py:4: key 'tc.nobody'",
                                 "m.py:5: key 'tc.nobody_either'"]


def test_an_attribute_only_written_is_reported_with_its_line():
    source = (
        "import dataclasses\n"
        "@dataclasses.dataclass\n"
        "class Stats:\n"
        "    hits: int = 0\n"
        "    unused: int = 0\n"
        "class Cache:\n"
        "    def __init__(self):\n"
        "        self.stats = Stats()\n"
        "        self.nobody = 0\n"
        "        self.latencies = []\n"
        "        self.hits = 0\n"
        "    def touch(self):\n"
        "        self.latencies.append(1.0)\n"
        "        self.hits += 1\n"
        "        return self.stats.hits\n"
        "    @property\n"
        "    def size(self):\n"
        "        return 0\n"
        "    @size.setter\n"
        "    def size(self, value):\n"
        "        pass\n"
        "def resize(cache):\n"
        "    cache.size = 1\n")
    assert census_of(source) == ["m.py:5: field 'unused'",
                                 "m.py:9: attribute 'nobody'",
                                 "m.py:10: attribute 'latencies'"]


def test_a_test_reading_a_key_nothing_writes_is_reported_with_its_line():
    source = (
        "def test_update(tc, tree):\n"
        "    tree.counters.add('test.own')\n"
        "    assert tc.counters.get('tc.commits') == 1\n"
        "    assert tree.counters.get('bwtree.ios') == 0\n"
        "    assert tree.counters.get('test.own') == 1\n"
        "    assert tree.machine.cpu.counters.get('cpu_us.tc') > 0\n")
    assert unwritten(ast.parse(source), "t.py", {"tc.commits"}) == [
        "t.py:4: key 'bwtree.ios'"]
