"""determinism: simulated runs must not read wall clocks, global RNGs or
the host scheduler.

The reproduction's whole point is that results are independent of how
fast Python happens to execute (PAPER.md / ``hardware/clock.py``): time
comes from the virtual clock advanced by charged work, and randomness
comes from explicitly seeded ``random.Random`` instances so traces
replay bit-identically.  Wall-clock reads (``time.time`` & friends,
``datetime.now``) and unseeded randomness (module-level ``random.*``,
``random.Random()`` with no seed) break both, so they are banned inside
``src/repro`` — except under ``bench/``, whose job is to measure real
wall time.  Host concurrency (``threading``, ``concurrent.futures``,
``multiprocessing``, ``asyncio``) is banned at the import for the same
reason: once OS scheduling can order two charges, no number is a
function of the seed alone.  Concurrency is priced on the virtual clock
instead (``concurrency_mode`` cost terms, fleet elapsed as the max over
shards).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Sequence, Set

from .core import (
    BENCH_SEGMENTS,
    Finding,
    LintConfig,
    Rule,
    SourceFile,
    rule,
)

#: ``time`` module attributes that read the wall clock (or sleep on it).
WALL_CLOCK_TIME_ATTRS = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time", "process_time_ns", "sleep",
    "localtime", "gmtime",
})
#: ``datetime``/``date`` constructors that read the wall clock.
WALL_CLOCK_DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})

#: Top-level modules whose import puts execution order in the hands of
#: the OS scheduler.
HOST_CONCURRENCY_MODULES = frozenset({
    "threading", "concurrent", "multiprocessing", "asyncio",
})

_HINT = "simulated time must come from hardware/clock.py (VirtualClock)"
_SCHED_HINT = (
    "OS scheduling must not order simulated work; price concurrency on "
    "the virtual clock"
)
_RNG_HINT = "use an explicitly seeded random.Random(seed) instance"


def _is_host_concurrency(module: str) -> bool:
    return module.split(".")[0] in HOST_CONCURRENCY_MODULES


@rule
class DeterminismRule(Rule):
    rule_id = "determinism"
    description = (
        "no wall-clock reads, unseeded randomness or host-concurrency "
        "imports outside bench/"
    )

    def check(self, files: Sequence[SourceFile],
              config: LintConfig) -> Iterator[Finding]:
        for source in files:
            if any(part in BENCH_SEGMENTS for part in source.segments):
                continue
            yield from self._check_file(source)

    def _check_file(self, source: SourceFile) -> Iterator[Finding]:
        # Local names bound to the time/random modules or to the
        # datetime/date classes, tracked through import aliases.
        modules: Dict[str, str] = {}
        rng_classes: Set[str] = set()
        findings: List[Finding] = []
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name in ("time", "datetime", "random"):
                        modules[alias.asname or alias.name] = alias.name
                    elif _is_host_concurrency(alias.name):
                        findings.append(self._finding(
                            source, node,
                            f"import {alias.name}; " + _SCHED_HINT,
                        ))
            elif isinstance(node, ast.ImportFrom):
                findings.extend(self._import_from(source, node))
                if node.module == "datetime":
                    for alias in node.names:
                        if alias.name in ("datetime", "date"):
                            modules[alias.asname or alias.name] = "datetime"
                elif node.module == "random":
                    for alias in node.names:
                        if alias.name in ("Random", "SystemRandom"):
                            rng_classes.add(alias.asname or alias.name)
        yield from findings

        for node in ast.walk(source.tree):
            if isinstance(node, ast.Call):
                func = node.func
                unseeded = not node.args and not node.keywords
                if (isinstance(func, ast.Name) and func.id in rng_classes
                        and unseeded):
                    yield self._finding(
                        source, node,
                        f"unseeded {func.id}(); " + _RNG_HINT,
                    )
                elif (isinstance(func, ast.Attribute)
                        and func.attr in ("Random", "SystemRandom")
                        and isinstance(func.value, ast.Name)
                        and modules.get(func.value.id) == "random"
                        and unseeded):
                    yield self._finding(
                        source, node,
                        f"unseeded random.{func.attr}(); " + _RNG_HINT,
                    )
            elif isinstance(node, ast.Attribute):
                yield from self._attribute(source, node, modules)

    def _attribute(self, source: SourceFile, node: ast.Attribute,
                   modules: Dict[str, str]) -> Iterator[Finding]:
        base = node.value
        if isinstance(base, ast.Attribute):
            # datetime.datetime.now — base is itself an attribute.
            if (isinstance(base.value, ast.Name)
                    and modules.get(base.value.id) == "datetime"
                    and node.attr in WALL_CLOCK_DATETIME_ATTRS):
                yield self._finding(
                    source, node,
                    f"wall-clock datetime.{base.attr}.{node.attr}; "
                    + _HINT,
                )
            return
        if not isinstance(base, ast.Name):
            return
        module = modules.get(base.id)
        if module is None:
            return
        if module == "time" and node.attr in WALL_CLOCK_TIME_ATTRS:
            yield self._finding(
                source, node, f"wall-clock time.{node.attr}; " + _HINT,
            )
        elif (module == "datetime"
                and node.attr in WALL_CLOCK_DATETIME_ATTRS):
            yield self._finding(
                source, node,
                f"wall-clock {base.id}.{node.attr}; " + _HINT,
            )
        elif module == "random" and node.attr not in (
            "Random", "SystemRandom"
        ):
            yield self._finding(
                source, node,
                f"module-level random.{node.attr} uses the shared "
                "unseeded RNG; " + _RNG_HINT,
            )

    def _import_from(self, source: SourceFile,
                     node: ast.ImportFrom) -> Iterator[Finding]:
        module = node.module or ""
        # level > 0 is a relative import of one of our own modules.
        if node.level == 0 and _is_host_concurrency(module):
            yield self._finding(
                source, node, f"from {module} import ...; " + _SCHED_HINT,
            )
        elif node.module == "time":
            for alias in node.names:
                if alias.name in WALL_CLOCK_TIME_ATTRS:
                    yield self._finding(
                        source, node,
                        f"from time import {alias.name}; " + _HINT,
                    )
        elif node.module == "random":
            for alias in node.names:
                if alias.name not in ("Random", "SystemRandom"):
                    yield self._finding(
                        source, node,
                        f"from random import {alias.name} binds the "
                        "shared unseeded RNG; " + _RNG_HINT,
                    )

    def _finding(self, source: SourceFile, node: ast.AST,
                 message: str) -> Finding:
        return Finding(
            path=source.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.rule_id,
            message=message,
        )
