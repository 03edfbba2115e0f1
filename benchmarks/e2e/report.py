"""Plain-text tables: every metric by name, with its unit."""

from __future__ import annotations

from typing import Dict, List, Sequence

from metrics import END_TO_END, PER_LAYER, TIMED_LAYERS


def _format(value: float) -> str:
    if isinstance(value, int) or float(value).is_integer():
        return f"{int(value):,}"
    if abs(value) >= 100:
        return f"{value:,.1f}"
    return f"{value:.4g}"


def end_to_end_table(workload: str, record: dict,
                     values: Dict[str, float]) -> str:
    sizes = record["sizes"]
    lines = [
        f"== {workload}: end to end "
        f"({sizes['records']:,} records, {sizes['warmup_ops']:,} warm-up "
        f"ops, {sizes['measured_ops']:,} measured ops, "
        f"{record['latency_samples']:,} latency samples, measured phase "
        f"{record['measured_wall_s']:.2f} s) ==",
        f"  {'ops_attempted':<22}{record['ops_attempted']:>16,}",
        f"  {'ops_failed':<22}{record['ops_failed']:>16,}",
    ]
    for row in END_TO_END:
        lines.append(
            f"  {row.name:<22}{_format(values[row.name]):>16} {row.unit:<8}"
            f"({row.clock} clock, {row.better} is better)")
    return "\n".join(lines)


def layer_table(workload: str, layers: Dict[str, float],
                functions: Sequence[Sequence], traced_wall_s: float) -> str:
    lines = [f"== {workload}: per layer (traced run, measured phase "
             f"{traced_wall_s:.2f} s) =="]
    by_layer: Dict[str, List[str]] = {}
    for row in PER_LAYER:
        layer = row.name.split(".")[0]
        by_layer.setdefault(layer, []).append(
            f"{row.name.split('.', 1)[1]}={_format(layers[row.name])} "
            f"{row.unit}")
    for layer, cells in by_layer.items():
        lines.append(f"  {layer:<16}" + "  ".join(cells))
    self_total = sum(layers[f"{layer}.host_self_s"] for layer in TIMED_LAYERS)
    lines.append(
        f"  host self time over all layers + driver: {self_total:.3f} s "
        f"= {self_total / traced_wall_s:.1%} of the traced wall time")
    lines.append("  largest self times (layer.function calls total_s self_s):")
    for name, calls, total_s, self_s in functions[:8]:
        lines.append(f"    {name:<34}{calls:>10,}{total_s:>10.3f}"
                     f"{self_s:>10.3f}")
    return "\n".join(lines)
