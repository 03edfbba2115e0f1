"""Protocol rules: per-rule trigger/clean pairs."""

from __future__ import annotations

from repro.analysis.runner import lint_paths


def _findings(path: str, rule: str):
    return lint_paths([path], select={rule})


# ---------------------------------------------------------------------------
# epoch-discipline
# ---------------------------------------------------------------------------

EPOCH_DIRTY = """\
class Heap:
    def __init__(self, machine):
        self.machine = machine
        self._index = {}

    def _protect(self):
        self.machine.cpu.charge("epoch_protect")

    def lookup(self, key):
        self._protect()
        return self._index.get(key)

    def peek(self, key):
        return self._index.get(key)
"""


def test_epoch_rule_requires_protection_before_deref(tmp_path):
    target = tmp_path / "heap.py"
    target.write_text(EPOCH_DIRTY)
    found = _findings(str(target), "epoch-discipline")
    assert len(found) == 1
    assert "Heap.peek" in found[0].message
    assert "_index.get" in found[0].message


EPOCH_PLANNED = """\
class Heap:
    def __init__(self, machine):
        self.machine = machine
        self._index = {}
        plan = machine.cpu.plan
        self._guard = plan("heap", "op_dispatch", "epoch_protect")
        self._probe = plan("heap", "op_dispatch", then="hash_probe")

    def lookup(self, key):
        self.machine.cpu.bill(self._guard)
        return self._index.get(key)

    def peek(self, key):
        self.machine.cpu.bill(self._probe, 2)
        return self._index.get(key)
"""


def test_epoch_rule_counts_a_billed_plan_with_a_protect_step(tmp_path):
    """Billing a charge plan protects exactly when one of its steps is
    a protect charge."""
    target = tmp_path / "heap.py"
    target.write_text(EPOCH_PLANNED)
    found = _findings(str(target), "epoch-discipline")
    assert len(found) == 1
    assert "Heap.peek" in found[0].message


EPOCH_ONE_STEP = """\
class Tree:
    def __init__(self, machine):
        self.machine = machine
        self.mapping_table = {}
        self._protect = machine.cpu.plan("bwtree", "epoch_protect")
        self._probe = machine.cpu.plan("bwtree", "hash_probe")

    def lookup(self, page_id):
        self.machine.cpu.bill(self._protect)
        return self.mapping_table.get(page_id)

    def peek(self, page_id):
        self.machine.cpu.bill(self._probe)
        return self.mapping_table.get(page_id)
"""


def test_epoch_rule_counts_a_billed_one_step_protect_plan(tmp_path):
    """A one-step plan of ``epoch_protect`` protects like the charge it
    stands for; a one-step plan of anything else does not."""
    target = tmp_path / "tree.py"
    target.write_text(EPOCH_ONE_STEP)
    found = _findings(str(target), "epoch-discipline")
    assert len(found) == 1
    assert "Tree.peek" in found[0].message


EPOCH_LEAK = """\
class Walker:
    def __init__(self, epochs):
        self.epochs = epochs

    def scan_one(self, key):
        self.epochs.epoch_enter()
        if key is None:
            return None
        value = len(key)
        self.epochs.epoch_exit()
        return value
"""

EPOCH_PAIRED = """\
class Walker:
    def __init__(self, epochs):
        self.epochs = epochs

    def scan_one(self, key):
        self.epochs.epoch_enter()
        try:
            if key is None:
                return None
            return len(key)
        finally:
            self.epochs.epoch_exit()
"""


def test_epoch_rule_flags_leaked_epoch_on_early_return(tmp_path):
    target = tmp_path / "leak.py"
    target.write_text(EPOCH_LEAK)
    found = _findings(str(target), "epoch-discipline")
    assert len(found) == 1
    assert "leak" in found[0].message


def test_epoch_rule_accepts_try_finally_pairing(tmp_path):
    target = tmp_path / "paired.py"
    target.write_text(EPOCH_PAIRED)
    assert _findings(str(target), "epoch-discipline") == []


# ---------------------------------------------------------------------------
# fault-site-coverage
# ---------------------------------------------------------------------------

FAULT_DIRTY = """\
class Store:
    def __init__(self, ssd, faults):
        self.ssd = ssd
        self.faults = faults

    def flush(self, nbytes):
        self.ssd.write(nbytes)

    def covered_flush(self, nbytes):
        if self.faults is not None:
            self.faults.hit("log_store.flush")
        self.ssd.write(nbytes)

    def miscovered_flush(self, nbytes):
        if self.faults is not None:
            self.faults.hit("no.such.site")
        self.ssd.write(nbytes)
"""


def test_fault_rule_requires_registered_dominating_hit(tmp_path):
    target = tmp_path / "store.py"
    target.write_text(FAULT_DIRTY)
    found = _findings(str(target), "fault-site-coverage")
    assert len(found) == 2  # flush + miscovered_flush; covered_ is clean
    assert all("crash window" in f.message for f in found)
    lines = {f.line for f in found}
    assert 7 in lines   # flush
    assert 17 in lines  # miscovered_flush (unregistered site name)


FAULT_CLOSURE = """\
class Log:
    def __init__(self, device, faults):
        self.device = device
        self.faults = faults

    def seal(self, buffer):
        if self.faults is not None:
            self.faults.hit("recovery_log.flush")

        def submit():
            self.device.submit_write(buffer)

        return submit
"""


def test_fault_rule_checks_closure_bodies_independently(tmp_path):
    """A hit in the enclosing method does not run when the closure
    later fires on its own — the closure body needs its own hit."""
    target = tmp_path / "log.py"
    target.write_text(FAULT_CLOSURE)
    found = _findings(str(target), "fault-site-coverage")
    assert len(found) == 1
    assert found[0].line == 11
