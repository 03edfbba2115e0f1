"""A ratchet on cross-object private access in ``src/``.

A site is an attribute read or write of a single-underscore name (``_x``,
not a dunder) whose receiver is anything but the bare name ``self`` or
``cls``: ``cpu._busy_us``, ``self.log._buffers``, ``machine._ops_started``.
Each one couples a caller to another object's internals.  The count is
pinned exactly: a change that adds a site fails here with the list of
sites, and a change that retires one lowers :data:`PINNED`.
"""

import ast
import os

import repro
from repro.analysis.runner import collect_python_files, load_sources

SRC = os.path.dirname(repro.__file__)

#: Sites in ``src/`` now.  There were 91 before ``CpuModel.busy_us``,
#: ``SimulatedSsd.service_us_total`` and ``VirtualClock.now`` became
#: plain public attributes, 72 before the TC's version-retention
#: test read ``RecoveryLog.first_retained_lsn`` instead of
#: ``self.log._buffers``, and 71 before ``CpuModel.bill`` read a
#: :class:`~repro.hardware.cpu.ChargePlan`'s fields as public attributes,
#: 62 before the TC's commit stopped probing the read cache's retired
#: victim tier (``read_cache._tier_entries``), and 61 before
#: ``VersionStore.chains`` and ``ReadCache.entries`` became public
#: read-only attributes, and 59 before ``BwTree.validate_key`` /
#: ``validate_kv`` became public (eight sites), a page's byte totals
#: became the public attributes ``DataPageState.base_size_bytes`` /
#: ``delta_size_bytes`` (one) and the TC's transactional read and
#: write counted their operation through ``Machine.begin_operation``
#: (two), and 48 before ``Scenario.prepare`` stopped replaying a
#: warm-up through ``Run._replay``; only ever lower this.
PINNED = 45


def private_access_sites():
    """``(path, line, source)`` of every site, in file order."""
    sites = []
    for source in load_sources(collect_python_files([SRC])):
        for node in ast.walk(source.tree):
            if not (isinstance(node, ast.Attribute)
                    and node.attr.startswith("_")
                    and not node.attr.startswith("__")):
                continue
            receiver = node.value
            if isinstance(receiver, ast.Name) and receiver.id in ("self",
                                                                  "cls"):
                continue
            sites.append((os.path.relpath(source.path, os.path.dirname(SRC)),
                          node.lineno, ast.unparse(node)))
    return sorted(sites)


def test_cross_object_private_access_does_not_grow():
    sites = private_access_sites()
    listing = "\n".join(f"{path}:{line}: {source}"
                        for path, line, source in sites)
    assert len(sites) <= PINNED, (
        f"{len(sites)} cross-object private accesses, pinned at {PINNED}; "
        f"make the attribute public with a contract, or call a method:\n"
        f"{listing}")
    assert len(sites) == PINNED, (
        f"{len(sites)} cross-object private accesses: lower PINNED from "
        f"{PINNED} to {len(sites)}")


def test_the_retired_reach_ins_stay_retired():
    """The billing totals, the clock and a charge plan's fields are read
    as public attributes."""
    sources = {source.split(".")[-1] for __, __, source in
               private_access_sites()}
    assert sources.isdisjoint({"_busy_us", "_service_us_total", "_now"})
    assert sources.isdisjoint({"_solo", "_then_unit", "_amount", "_advance",
                               "_key", "_cpu", "_steps"})
