"""``run.py --compare A.json B.json``: what changed between two suite runs.

Per workload, every end-to-end metric gets a verdict against the bound
the benchmark fixed for it:

* ``worse`` / ``better`` — B's median moved past the bound;
* ``same`` — it did not;
* ``unresolved`` — the repetitions' own spread (max - min over the
  median, on either side) is wider than the bound, so a move of that size
  cannot be told from noise.  More repetitions or a quieter host resolve
  it; calling it "same" would not.

The per-layer deltas follow, to show where a change came from.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence

from metrics import END_TO_END, PER_LAYER


def _relative(a: float, b: float) -> float:
    return (b - a) / abs(a) if a else (0.0 if b == a else float("inf"))


def _spread(values: Sequence[float]) -> float:
    ranked = sorted(values)
    middle = ranked[len(ranked) // 2]
    return (ranked[-1] - ranked[0]) / abs(middle) if middle else 0.0


def verdict(better: str, bound: float, a: float, b: float,
            a_reps: Sequence[float], b_reps: Sequence[float]) -> str:
    change = _relative(a, b)
    worsening = change if better == "lower" else -change
    if max(_spread(a_reps), _spread(b_reps)) > bound:
        return "unresolved"
    if worsening > bound:
        return "worse"
    if worsening < -bound:
        return "better"
    return "same"


def compare(a: dict, b: dict) -> List[str]:
    lines: List[str] = []
    for workload, a_run in a["workloads"].items():
        b_run = b["workloads"].get(workload)
        if b_run is None:
            lines.append(f"== {workload}: missing from B ==")
            continue
        lines.append(f"== {workload}: end to end ==")
        lines.append(f"  {'metric':<22}{'A':>14}{'B':>14}{'delta':>9}"
                     f"{'bound':>8}  verdict")
        for row in END_TO_END:
            a_value = a_run["end_to_end"][row.name]
            b_value = b_run["end_to_end"][row.name]
            lines.append(
                f"  {row.name:<22}{a_value:>14.6g}{b_value:>14.6g}"
                f"{_relative(a_value, b_value):>+9.2%}{row.bound:>8.1%}  "
                + verdict(row.better, row.bound, a_value, b_value,
                          a_run["end_to_end_reps"][row.name],
                          b_run["end_to_end_reps"][row.name]))
        for side, run in (("A", a_run), ("B", b_run)):
            if run["ops_failed"]:
                lines.append(f"  {side}: {run['ops_failed']} ops FAILED")
        lines.append(f"== {workload}: per layer (only what moved) ==")
        moved = _layer_deltas(a_run["layers"], b_run["layers"])
        lines.extend(moved or ["  nothing moved"])
    return lines


def _layer_deltas(a: Dict[str, float], b: Dict[str, float]) -> List[str]:
    lines = []
    for row in PER_LAYER:
        a_value, b_value = a[row.name], b[row.name]
        if a_value == b_value:
            continue
        lines.append(
            f"  {row.name:<38}{a_value:>14.6g}{b_value:>14.6g}"
            f"{_relative(a_value, b_value):>+10.2%} {row.unit}")
    return lines


def main(a_path: str, b_path: str) -> int:
    with open(a_path, encoding="utf-8") as handle:
        a = json.load(handle)
    with open(b_path, encoding="utf-8") as handle:
        b = json.load(handle)
    for key in ("seed", "seconds", "smoke"):
        if a.get(key) != b.get(key):
            print(f"warning: {key} differs ({a.get(key)!r} vs "
                  f"{b.get(key)!r}); the runs are not comparable")
    print("\n".join(compare(a, b)))
    return 0
