"""The reproduction proper: one table of experiments.

Every figure (F1-F3, F7, F8), derived-constant table (T1-T4), ablation
(A1-A10) and the N-tier surface is one :class:`Experiment` row of
:data:`EXPERIMENTS`: a ``measure`` function returning one flat dict of
measured/derived quantities, a ``report`` laying those out as declarative
tables (rendered by :func:`repro.bench.reporting.render`), and the paper's
claims about them as named :class:`Claim` rows, evaluated by
:func:`check_shapes`.  The ``measure`` defaults are the sizes the tracked
``benchmarks/results/*.txt`` were produced at, so the CLI, the benchmark
suite and the tracked files are one configuration.  See DESIGN.md
Section 4 for the index.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..bwtree.tree import BwTree, BwTreeConfig
from ..compression import DeflateCodec, RleCodec, measure_corpus
from ..core import mixture
from ..core.adaptive import AdaptiveCacheController, PacedDriver
from ..core.breakeven import (
    breakeven_interval_seconds,
    breakeven_rate_ops_per_sec,
    breakeven_report,
    classic_gray_interval_seconds,
    hierarchy_breakeven_surface,
    iops_price_sweep,
    record_cache_breakeven_seconds,
    tier_pair_breakeven,
)
from ..core.calibration import (
    StackConfig,
    build_loaded_stack,
    derive_r,
    measure_direct_r,
    measure_p0,
    measure_point,
    measure_px_mx,
)
from ..core.catalog import CostCatalog
from ..core.costmeter import meter_bill
from ..core.costmodel import (
    Advisor,
    CostLine,
    CssParameters,
    OperationCostModel,
    cheapest,
    crossover,
    logspace_rates,
)
from ..core.mainmemory import paper_comparison
from ..core.technology import (
    CmmParameters,
    HddParameters,
    NvramParameters,
    cmm_line,
    hdd_breakeven_interval_seconds,
    hdd_viability,
    nvm_line,
    nvram_in_ssd_savings_fraction,
)
from ..core.tiers import hierarchy_lines
from ..deuteronomy.engine import DeuteronomyEngine
from ..deuteronomy.tc import TcConfig
from ..hardware.cpu import CostTable
from ..hardware.iopath import IoPathKind
from ..hardware.machine import Machine
from ..hardware.tiers import StorageHierarchy
from ..lsm.tree import LsmConfig, LsmTree
from ..workloads.ycsb import (
    WorkloadGenerator,
    WorkloadSpec,
    apply_operations,
)
from .reporting import Report, Table

Values = Dict[str, Any]
Quantity = Union[str, Callable[[Values], Any]]


# ----------------------------------------------------------------------
# The row types and the one checker
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Claim:
    """One thing the paper says about an experiment's values."""

    name: str
    paper: str                            # the paper's value and tolerance
    measured: Callable[[Values], Any]     # the quantity the claim judges
    holds: Callable[[Values], bool]


@dataclass(frozen=True)
class Experiment:
    id: str                               # CLI id, e.g. "f1"
    slug: str                             # benchmarks/results/<slug>.txt
    title: str
    measure: Callable[..., Values]
    report: Callable[[Values], Report]
    claims: Tuple[Claim, ...]


def check_shapes(experiment: Experiment,
                 values: Values) -> List[Dict[str, object]]:
    """Evaluate every claim of ``experiment`` against ``values``: one
    ``{id, claim, paper, measured, status}`` row each, ``status`` being
    ``pass`` or ``fail``."""
    return [{
        "id": experiment.id,
        "claim": claim.name,
        "paper": claim.paper,
        "measured": claim.measured(values),
        "status": "pass" if claim.holds(values) else "fail",
    } for claim in experiment.claims]


def _quantity(quantity: Quantity) -> Callable[[Values], Any]:
    """A key of the values dict, or a function of the dict."""
    if isinstance(quantity, str):
        return lambda values: values[quantity]
    return quantity


def claim(name: str, paper: str, quantity: Quantity,
          accept: Callable[[Any], bool]) -> Claim:
    """A claim that judges one measured quantity."""
    get = _quantity(quantity)
    return Claim(name, paper, get, lambda values: accept(get(values)))


def within(name: str, quantity: Quantity, target: float, *,
           rel: float = 0.0, tol: float = 0.0,
           paper: Optional[str] = None) -> Claim:
    """``quantity`` equals ``target`` to a relative or absolute band."""
    if tol:
        band = f"+/- {tol:g}"
    elif rel >= 0.01:
        band = f"+/- {rel:.0%}"
    else:
        band = f"to {rel:g}" if rel else "exactly"
    return claim(name, f"{paper or format(target, 'g')} {band}", quantity,
                 lambda x: abs(x - target) <= max(rel * abs(target), tol))


def less(name: str, small: Union[Quantity, float],
         large: Union[Quantity, float], paper: str = "") -> Claim:
    """``small < large``; a constant side is the bound, not a measurement."""
    if isinstance(large, (int, float)):
        return claim(name, f"{paper} < {large:g}".strip(), small,
                     lambda x: x < large)
    if isinstance(small, (int, float)):
        return claim(name, f"{paper} > {small:g}".strip(), large,
                     lambda x: x > small)
    low, high = _quantity(small), _quantity(large)
    return claim(name, paper, lambda v: (low(v), high(v)),
                 lambda pair: pair[0] < pair[1])


def between(name: str, quantity: Quantity, low: float, high: float,
            paper: str = "") -> Claim:
    return claim(name, f"{paper} in ({low:g}, {high:g})".strip(), quantity,
                 lambda x: low < x < high)


def never(name: str, paper: str, violations: Quantity) -> Claim:
    """``violations`` counts the places the claim breaks; none may."""
    return claim(name, f"{paper}: 0 violations", violations,
                 lambda count: count == 0)


def _monotone(step: Callable[[Any, Any], bool],
              series: Sequence[Any]) -> bool:
    """``step(a, b)`` holds for every adjacent pair, e.g. ``operator.gt``
    for a strictly decreasing series."""
    return all(step(a, b) for a, b in zip(series, series[1:]))


def _stack(record_count: int, measure_operations: int, cores: int,
           **overrides: Any) -> StackConfig:
    return StackConfig(record_count=record_count, cores=cores,
                       measure_operations=measure_operations,
                       warmup_operations=measure_operations // 3,
                       **overrides)


def _loaded_tree(machine: Machine, config: BwTreeConfig, spec: WorkloadSpec,
                 cache_fraction: Optional[float] = None) -> BwTree:
    """A checkpointed tree holding ``spec``'s records, its page cache
    optionally shrunk to a fraction of the loaded leaves."""
    tree = BwTree(machine, config)
    for key, value in WorkloadGenerator(spec).load_items():
        tree.upsert(key, value)
    tree.checkpoint()
    if cache_fraction is not None:
        tree.cache.capacity_bytes = int(
            tree.average_leaf_bytes() * len(tree.mapping_table)
            * cache_fraction
        )
        tree.cache.ensure_capacity()
    return tree


# Claims more than one row makes (F1/F7/T4 share the R band, F2/T2 the
# 45-second rule, F3/T3 the point experiment).
def _r_in_paper_band(key: str) -> Claim:
    return within("user-level R in the paper's band", key, 5.8, rel=0.30)


TI_45_SECONDS = within("breakeven interval Ti (Eq. 6)",
                       "breakeven_interval", 45.2, tol=0.5)
PX_NEAR_PAPER = between("Px (MassTree performance gain)", "px", 2.0, 3.2,
                        paper="2.6,")
MX_NEAR_PAPER = between("Mx (MassTree memory expansion)", "mx", 1.6, 2.6,
                        paper="2.1,")
EQ8_SCALING = within(
    "Eq. (8): crossover rate scales with database size S",
    lambda v: v["rate_100_gb"] / v["rate_6_1_gb"], 100 / 6.1, rel=1e-9,
    paper="rate(100 GB) / rate(6.1 GB) = 100/6.1",
)


# ----------------------------------------------------------------------
# F1 — relative performance of a mixed MM/SS workload
# ----------------------------------------------------------------------

def measure_f1(record_count: int = 10_000,
               measure_operations: int = 3_000,
               cache_fractions: tuple = (0.75, 0.5, 0.3, 0.15, 0.05),
               ) -> Values:
    """Analytic band plus real 1- and 4-core runs over the Bw-tree stack."""
    fractions = [i / 20 for i in range(21)]
    base_config = _stack(
        record_count, measure_operations, cores=1,
        ssd_iops_override=5e6,   # keep the CPU, not the SSD, the bottleneck
    )
    r = measure_direct_r(base_config)
    model = mixture.MixtureModel(r)
    values: Values = {
        "fractions": fractions,
        "curve_r_low": model.curve(fractions, model.r_low),
        "curve_r_mid": model.curve(fractions, r),
        "curve_r_high": model.curve(fractions, model.r_high),
        "r_mid": r,
    }
    for cores in (1, 4):
        config = base_config.replace(cores=cores)
        values[f"p0_{cores}core"] = measure_p0(config).throughput
        points = []
        for fraction in cache_fractions:
            run = measure_point(config.replace(cache_fraction=fraction))
            points.append({"f": run.f, "throughput": run.throughput})
        values[f"points_{cores}core"] = points
    return values


def _f1_in_band_share(v: Values) -> float:
    model = mixture.MixtureModel(v["r_mid"])
    inside = [
        model.point_in_band(
            mixture.MeasuredPoint(point["f"], point["throughput"]),
            v[f"p0_{cores}core"])
        for cores in (1, 4) for point in v[f"points_{cores}core"]
    ]
    return sum(inside) / len(inside)


def report_f1(v: Values) -> Report:
    r = v["r_mid"]
    tables = [Table(
        "Figure 1: relative performance PF/P0 vs SS fraction F",
        ["F (SS fraction)", f"R={r * 1.3:.2f}", f"R={r:.2f}",
         f"R={r * 0.7:.2f}"],
        [[f"{f:.2f}", f"{lo:.3f}", f"{mid:.3f}", f"{hi:.3f}"]
         for f, lo, mid, hi in zip(v["fractions"], v["curve_r_high"],
                                   v["curve_r_mid"], v["curve_r_low"])],
    )]
    for cores in (1, 4):
        p0 = v[f"p0_{cores}core"]
        tables.append(Table(
            f"measured {cores}-core points (P0 = {p0:,.0f} ops/s)",
            ["F", "ops/sec", "PF/P0"],
            [[f"{p['f']:.3f}", f"{p['throughput']:,.0f}",
              f"{p['throughput'] / p0:.3f}"]
             for p in v[f"points_{cores}core"]],
        ))
    return Report(tables)


F1 = Experiment(
    "f1", "f1_mixed_workload",
    "Figure 1: mixed MM/SS workload performance",
    measure_f1, report_f1,
    claims=(
        never("PF/P0 declines as the SS fraction F grows (Eq. 2)",
              "from 1 toward 1/R at every step",
              lambda v: sum(map(operator.lt, v["curve_r_mid"],
                                v["curve_r_mid"][1:]))),
        claim("measured points fall inside the R +/- 30% band",
              "share of points >= 0.7", _f1_in_band_share,
              lambda share: share >= 0.7),
        _r_in_paper_band("r_mid"),
        between("4-core P0 over 1-core P0 (ROPS scales with cores)",
                lambda v: v["p0_4core"] / v["p0_1core"], 3.0, 5.0,
                paper="~4x,"),
    ),
)


# ----------------------------------------------------------------------
# F2 / T2 — MM vs SS cost curves and the Section 4.2 derivations
# ----------------------------------------------------------------------

def measure_breakeven(catalog: Optional[CostCatalog] = None,
                      points: int = 25) -> Values:
    cat = catalog if catalog is not None else CostCatalog()
    report = breakeven_report(cat)
    model = OperationCostModel(cat)
    mm, ss = model.mm_line(), model.ss_line()
    rates = logspace_rates(report.rate_ops_per_sec / 100,
                           report.rate_ops_per_sec * 100, points)
    return {
        "rates": rates,
        "mm_costs": mm.totals(rates),
        "ss_costs": ss.totals(rates),
        "breakeven_rate": report.rate_ops_per_sec,
        "breakeven_interval": report.interval_seconds,
        "storage_ratio": report.storage_cost_ratio,
        "execution_ratio": report.execution_cost_ratio,
        "gray_interval": classic_gray_interval_seconds(cat),
        "record_cache_interval_10": record_cache_breakeven_seconds(cat, 10),
        "crossover_check": crossover(mm, ss),
    }


def _f2_crossings(v: Values) -> int:
    signs = [mm < ss for mm, ss in zip(v["mm_costs"], v["ss_costs"])]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _f2_wrong_side(v: Values) -> int:
    """Plotted rates where the cheaper class is not the one Eq. (6) names."""
    return sum((ss < mm) != (rate < v["breakeven_rate"])
               for rate, mm, ss in zip(v["rates"], v["mm_costs"],
                                       v["ss_costs"]))


def report_f2(v: Values) -> Report:
    rows = [
        [f"{rate:.4g}", f"{mm:.4g}", f"{ss:.4g}", "MM" if mm < ss else "SS"]
        for rate, mm, ss in zip(v["rates"], v["mm_costs"], v["ss_costs"])
    ]
    return Report(
        [Table("Figure 2: operation cost vs access rate",
               ["accesses/sec", "$MM", "$SS", "cheaper"], rows)],
        [f"breakeven: {v['breakeven_rate']:.4g} accesses/sec "
         f"(Ti = {v['breakeven_interval']:.1f} s — the updated "
         f"5-minute rule)"],
    )


F2 = Experiment(
    "f2", "f2_five_minute_rule",
    "Figure 2: MM vs SS cost, the 45-second rule",
    measure_breakeven, report_f2,
    claims=(
        never("SS is cheaper below the breakeven rate, MM above",
              "at every plotted rate", _f2_wrong_side),
        claim("the MM and SS cost lines cross exactly once", "1 crossing",
              _f2_crossings, lambda crossings: crossings == 1),
        TI_45_SECONDS,
    ),
)


def report_t2(v: Values) -> Report:
    rows = [
        ["breakeven interval Ti", f"{v['breakeven_interval']:.1f} s",
         "~45 s"],
        ["breakeven rate N", f"{v['breakeven_rate']:.4g} /s", "1/45 /s"],
        ["MM/SS storage cost ratio", f"{v['storage_ratio']:.1f}x", "~11x"],
        ["SS/MM execution cost ratio", f"{v['execution_ratio']:.1f}x",
         "~12x (paper's rounding)"],
        ["Gray's rule (I/O term only)", f"{v['gray_interval']:.1f} s",
         "smaller than Ti"],
        ["record-cache Ti (10 rec/page)",
         f"{v['record_cache_interval_10']:.0f} s", "~10x the page Ti"],
    ]
    return Report([Table(
        "T2: the updated five-minute rule (paper Section 4.2)",
        ["derived quantity", "computed", "paper"], rows)])


T2 = Experiment(
    "t2", "t2_breakeven", "Table 2: breakeven derivations",
    measure_breakeven, report_t2,
    claims=(
        TI_45_SECONDS,
        within("MM/SS storage cost ratio", "storage_ratio", 11.0, rel=0.05),
        between("SS/MM execution cost ratio", "execution_ratio", 7.0, 13.0,
                paper="~12x (paper's rounding),"),
        within("Eq. (6) and the MM/SS line crossover agree",
               lambda v: v["crossover_check"] * v["breakeven_interval"],
               1.0, rel=1e-9, paper="crossover rate x Ti = 1"),
        less("Gray's I/O-only rule undershoots the updated Ti",
             "gray_interval", "breakeven_interval", "Gray Ti < Eq. (6) Ti"),
    ),
)


# ----------------------------------------------------------------------
# F3 / T3 — Bw-tree vs MassTree: the point experiment and Eq. (7)-(8)
# ----------------------------------------------------------------------

def measure_mainmemory(record_count: int = 15_000,
                       measure_operations: int = 6_000,
                       database_bytes: float = 6.1e9,
                       points: int = 17) -> Values:
    measurement = measure_px_mx(record_count=record_count,
                                measure_operations=measure_operations)
    measured = measurement.comparison()
    paper = paper_comparison()
    crossover_measured = measured.breakeven_rate_ops_per_sec(database_bytes)
    rates = logspace_rates(crossover_measured / 30,
                           crossover_measured * 30, points)
    return {
        "px": measurement.px,
        "mx": measurement.mx,
        "database_bytes": database_bytes,
        "rates": rates,
        "bwtree_costs": measured.bwtree_line(database_bytes).totals(rates),
        "masstree_costs":
            measured.masstree_line(database_bytes).totals(rates),
        "crossover_measured": crossover_measured,
        "crossover_paper": paper.breakeven_rate_ops_per_sec(database_bytes),
        "constant": measured.breakeven_constant,
        "paper_constant": paper.breakeven_constant,
        "rate_6_1_gb": measured.breakeven_rate_ops_per_sec(6.1e9),
        "rate_100_gb": measured.breakeven_rate_ops_per_sec(100e9),
        "interval_2_7_kb": measured.breakeven_interval_seconds(2.7e3),
    }


def _f3_regime_violations(v: Values) -> int:
    """Plotted rates (outside +/- 2% of the crossover) where the wrong
    store is the cheaper one."""
    crossing = v["crossover_measured"]
    return sum(
        (rate < crossing * 0.98 and bw > mt)
        or (rate > crossing * 1.02 and mt > bw)
        for rate, bw, mt in zip(v["rates"], v["bwtree_costs"],
                                v["masstree_costs"])
    )


def report_f3(v: Values) -> Report:
    rows = [
        [f"{rate:,.0f}", f"{bw:.4g}", f"{mt:.4g}",
         "masstree" if mt < bw else "bwtree"]
        for rate, bw, mt in zip(v["rates"], v["bwtree_costs"],
                                v["masstree_costs"])
    ]
    return Report(
        [Table("Figure 3: Bw-tree vs MassTree cost "
               f"(S = {v['database_bytes'] / 1e9:.2f} GB)",
               ["ops/sec", "$DM (Bw-tree)", "$MTM (MassTree)", "cheaper"],
               rows)],
        [f"measured Px = {v['px']:.2f} (paper 2.6), "
         f"Mx = {v['mx']:.2f} (paper 2.1)",
         f"crossover: measured {v['crossover_measured']:,.0f} ops/s, "
         f"paper-constants {v['crossover_paper']:,.0f} ops/s"],
    )


F3 = Experiment(
    "f3", "f3_masstree_crossover",
    "Figure 3: Bw-tree vs MassTree crossover",
    measure_mainmemory, report_f3,
    claims=(
        never("Bw-tree is cheaper below the crossover, MassTree above",
              "at every plotted rate", _f3_regime_violations),
        EQ8_SCALING,
        PX_NEAR_PAPER,
        MX_NEAR_PAPER,
        within("crossover at S over the paper-constants crossover",
               lambda v: v["crossover_measured"] / v["crossover_paper"],
               1.0, rel=0.35, paper="1 (0.73e6 ops/s @ 6.1 GB)"),
    ),
)


def report_t3(v: Values) -> Report:
    rows = [
        ["Px (perf gain)", f"{v['px']:.2f}", "2.6"],
        ["Mx (memory expansion)", f"{v['mx']:.2f}", "2.1"],
        ["Ti * S constant", f"{v['constant']:.3g}", "8.3e3"],
        ["crossover @ 6.1 GB", f"{v['rate_6_1_gb']:,.0f} ops/s", "0.73e6"],
        ["crossover @ 100 GB", f"{v['rate_100_gb']:,.0f} ops/s", "~12e6"],
        ["Ti @ 2.7 KB page", f"{v['interval_2_7_kb']:.2f} s", "3.1 s"],
    ]
    return Report([Table(
        "T3: Bw-tree vs MassTree comparison (paper Section 5)",
        ["quantity", "measured/computed", "paper"], rows)])


T3 = Experiment(
    "t3", "t3_mainmemory", "Table 3: main-memory comparison numbers",
    measure_mainmemory, report_t3,
    claims=(
        PX_NEAR_PAPER,
        MX_NEAR_PAPER,
        within("Eq. (8) constant Ti x S over the paper's 8.3e3",
               lambda v: v["constant"] / v["paper_constant"], 1.0, rel=0.35),
        EQ8_SCALING,
    ),
)


# ----------------------------------------------------------------------
# F7 — the effect of cheaper I/O execution paths
# ----------------------------------------------------------------------

def measure_f7(record_count: int = 10_000,
               measure_operations: int = 3_000,
               points: int = 20) -> Values:
    """Measure R under both I/O paths, then price the cost curves."""
    base = _stack(record_count, measure_operations, cores=4)
    r_user = measure_direct_r(base)
    r_kernel = measure_direct_r(base.replace(io_path=IoPathKind.KERNEL))
    cat_user = CostCatalog().with_r(r_user)
    cat_kernel = CostCatalog().with_r(r_kernel)
    be_user = breakeven_rate_ops_per_sec(cat_user)
    be_kernel = breakeven_rate_ops_per_sec(cat_kernel)
    rates = logspace_rates(min(be_user, be_kernel) / 50,
                           max(be_user, be_kernel) * 50, points)
    model_user = OperationCostModel(cat_user)
    return {
        "r_kernel": r_kernel,
        "r_user": r_user,
        "rates": rates,
        "mm_costs": model_user.mm_line().totals(rates),
        "ss_costs_kernel":
            OperationCostModel(cat_kernel).ss_line().totals(rates),
        "ss_costs_user": model_user.ss_line().totals(rates),
        "breakeven_kernel": be_kernel,
        "breakeven_user": be_user,
    }


def report_f7(v: Values) -> Report:
    rows = [
        [f"{rate:.4g}", f"{mm:.4g}", f"{sk:.4g}", f"{su:.4g}"]
        for rate, mm, sk, su in zip(v["rates"], v["mm_costs"],
                                    v["ss_costs_kernel"], v["ss_costs_user"])
    ]
    return Report(
        [Table("Figure 7: SS cost under kernel vs user-level I/O paths",
               ["accesses/sec", "$MM",
                f"$SS kernel (R={v['r_kernel']:.1f})",
                f"$SS user (R={v['r_user']:.1f})"], rows)],
        [f"breakeven rate: kernel {v['breakeven_kernel']:.4g}/s -> user "
         f"{v['breakeven_user']:.4g}/s (interval "
         f"{1 / v['breakeven_kernel']:.1f}s -> "
         f"{1 / v['breakeven_user']:.1f}s)"],
    )


F7 = Experiment(
    "f7", "f7_io_path", "Figure 7: kernel vs user-level I/O paths",
    measure_f7, report_f7,
    claims=(
        claim("the user-level SS cost line is never above the kernel one",
              "max user $SS / kernel $SS <= 1",
              lambda v: max(user / kernel for user, kernel in zip(
                  v["ss_costs_user"], v["ss_costs_kernel"])),
              lambda worst: worst <= 1.0),
        less("user-level I/O raises the breakeven rate (shorter Ti)",
             "breakeven_kernel", "breakeven_user",
             "kernel rate < user rate"),
        _r_in_paper_band("r_user"),
        within("kernel-path R", "r_kernel", 9.0, rel=0.30),
        less("kernel R over user R (about a third of the path removed)",
             1.25, lambda v: v["r_kernel"] / v["r_user"], "9 / 5.8 = 1.55,"),
    ),
)


# ----------------------------------------------------------------------
# F8 — compression adds a third (CSS) cost regime
# ----------------------------------------------------------------------

def measure_f8(record_count: int = 2_000, value_bytes: int = 100,
               points: int = 25,
               catalog: Optional[CostCatalog] = None) -> Values:
    """Measure real compression ratios, then price the three-tier model."""
    cat = catalog if catalog is not None else CostCatalog()
    spec = WorkloadSpec(record_count=record_count, value_bytes=value_bytes)
    corpus = [value for __, value in WorkloadGenerator(spec).load_items()]
    # Page-sized payloads: concatenate ~27 values per page image.
    per_page = max(1, int(cat.page_bytes // max(1, value_bytes)))
    pages = [
        b"".join(corpus[i:i + per_page])
        for i in range(0, len(corpus), per_page)
    ]
    rle = measure_corpus(RleCodec(), pages)
    deflate = measure_corpus(DeflateCodec(), pages)
    # CSS execution ratio: an SS op plus decompression of a page, expressed
    # in MM-operation units.  The calibrated MM operation is ~1 core-us
    # (ROPS = 4e6 over 4 cores), so the ratio adds decompress-us directly.
    mm_core_us = 1.0
    decompress_us = CostTable().decompress_per_byte * cat.page_bytes
    r_css = cat.r + decompress_us / mm_core_us
    model = OperationCostModel(
        cat, CssParameters(compression_ratio=deflate.ratio, r_css=r_css))
    mm, ss, css = model.mm_line(), model.ss_line(), model.css_line()
    css_to_ss_rate = crossover(ss, css)
    ss_to_mm_rate = crossover(mm, ss)
    rates = logspace_rates(css_to_ss_rate / 50, ss_to_mm_rate * 50, points)
    return {
        "compression_ratio_rle": rle.ratio,
        "compression_ratio_deflate": deflate.ratio,
        "r_css": r_css,
        "rates": rates,
        "mm_costs": mm.totals(rates),
        "ss_costs": ss.totals(rates),
        "css_costs": css.totals(rates),
        "css_to_ss_rate": css_to_ss_rate,
        "ss_to_mm_rate": ss_to_mm_rate,
    }


def _f8_winners(v: Values) -> List[Tuple[float, str]]:
    return [
        (rate, min((mm, "MM"), (ss, "SS"), (css, "CSS"))[1])
        for rate, mm, ss, css in zip(v["rates"], v["mm_costs"],
                                     v["ss_costs"], v["css_costs"])
    ]


def _f8_regime_violations(v: Values) -> int:
    """Plotted rates (outside +/- 2% of a boundary) won by the wrong class."""
    low, high = v["css_to_ss_rate"], v["ss_to_mm_rate"]
    return sum(
        (rate < low * 0.98 and winner != "CSS")
        or (low * 1.02 < rate < high * 0.98 and winner != "SS")
        or (rate > high * 1.02 and winner != "MM")
        for rate, winner in _f8_winners(v)
    )


def report_f8(v: Values) -> Report:
    rows = [
        [f"{rate:.4g}", f"{mm:.4g}", f"{ss:.4g}", f"{css:.4g}", winner]
        for (rate, winner), mm, ss, css in zip(
            _f8_winners(v), v["mm_costs"], v["ss_costs"], v["css_costs"])
    ]
    return Report(
        [Table("Figure 8: MM / SS / compressed-SS cost regimes",
               ["accesses/sec", "$MM", "$SS", "$CSS", "cheapest"], rows)],
        ["measured compression ratios: RLE "
         f"{v['compression_ratio_rle']:.2f}, DEFLATE "
         f"{v['compression_ratio_deflate']:.2f}; CSS execution ratio "
         f"r_css = {v['r_css']:.1f}",
         f"regime boundaries: CSS->SS at {v['css_to_ss_rate']:.4g}/s, "
         f"SS->MM at {v['ss_to_mm_rate']:.4g}/s"],
    )


F8 = Experiment(
    "f8", "f8_compression", "Figure 8: compression (CSS) regimes",
    measure_f8, report_f8,
    claims=(
        claim("the CSS->SS boundary lies below the SS->MM boundary",
              "0 < CSS->SS rate < SS->MM rate",
              lambda v: (v["css_to_ss_rate"], v["ss_to_mm_rate"]),
              lambda rates: 0 < rates[0] < rates[1]),
        never("three regimes left to right: CSS, then SS, then MM",
              "at every plotted rate", _f8_regime_violations),
        less("DEFLATE compresses the page corpus",
             "compression_ratio_deflate", 0.7, "ratio"),
        less("decompression makes a CSS op dearer than an SS op (R = 5.8)",
             5.8, "r_css", "r_css"),
    ),
)


# ----------------------------------------------------------------------
# T1 — hardware cost catalog plus simulator-measured counterparts
# ----------------------------------------------------------------------

def measure_t1(record_count: int = 10_000,
               measure_operations: int = 3_000) -> Values:
    config = _stack(record_count, measure_operations, cores=4)
    baseline = measure_p0(config)
    r = measure_direct_r(config)
    __, tree, __gen = build_loaded_stack(config)
    return {
        "catalog": CostCatalog.paper_2018(),
        "measured_rops": baseline.throughput,
        "measured_page_bytes": tree.average_leaf_bytes(),
        "measured_r": r,
    }


def report_t1(v: Values) -> Report:
    cat = v["catalog"]
    rows = [
        ["$M (DRAM $/byte)", f"{cat.dram_per_byte:.2g}", "-"],
        ["$Fl (flash $/byte)", f"{cat.flash_per_byte:.2g}", "-"],
        ["$P (processor $)", f"{cat.processor_dollars:.0f}", "-"],
        ["$I (SSD I/O $)", f"{cat.ssd_io_dollars:.0f}", "-"],
        ["ROPS (MM ops/s, 4-core)", f"{cat.rops:.2g}",
         f"{v['measured_rops']:.3g}"],
        ["IOPS (max SSD I/O/s)", f"{cat.iops:.2g}", "(device spec)"],
        ["Ps (avg page bytes)", f"{cat.page_bytes:.3g}",
         f"{v['measured_page_bytes']:.3g}"],
        ["R (SS/MM exec ratio)", f"{cat.r:.2g}", f"{v['measured_r']:.3g}"],
    ]
    return Report([Table("T1: hardware cost catalog (paper Section 4.1)",
                         ["quantity", "paper", "simulated"], rows)])


T1 = Experiment(
    "t1", "t1_catalog", "Table 1: hardware cost catalog",
    measure_t1, report_t1,
    claims=(
        within("simulated ROPS (MM ops/s, 4 cores)", "measured_rops", 4.0e6,
               rel=0.35),
        within("simulated average page bytes Ps", "measured_page_bytes",
               2.7e3, rel=0.35),
        within("simulated execution ratio R", "measured_r", 5.8, rel=0.30),
    ),
)


# ----------------------------------------------------------------------
# T4 — R derived from mixed-workload runs (Section 2.2)
# ----------------------------------------------------------------------

def measure_t4(record_count: int = 10_000,
               measure_operations: int = 3_000,
               cache_fractions: tuple = (0.6, 0.4, 0.25, 0.12)) -> Values:
    config = _stack(record_count, measure_operations, cores=4,
                    ssd_iops_override=5e6)
    experiment = derive_r(config, cache_fractions=cache_fractions)
    assert experiment.derivation is not None
    r_kernel = measure_direct_r(
        config.replace(io_path=IoPathKind.KERNEL, ssd_iops_override=None)
    )
    return {
        "p0": experiment.p0,
        "rows": [
            {"f": run.f, "throughput": run.throughput, "r": r}
            for run, r in zip(experiment.points,
                              experiment.derivation.r_values)
        ],
        "r_mean": experiment.derivation.mean,
        "r_min": experiment.derivation.minimum,
        "r_max": experiment.derivation.maximum,
        "r_kernel": r_kernel,
    }


def report_t4(v: Values) -> Report:
    rows = [
        [f"{row['f']:.3f}", f"{row['throughput']:,.0f}", f"{row['r']:.2f}"]
        for row in v["rows"]
    ]
    return Report(
        [Table(f"T4: R derivation, P0 = {v['p0']:,.0f} ops/s",
               ["F", "PF (ops/s)", "R from Eq (3)"], rows)],
        [f"R = {v['r_mean']:.2f} [{v['r_min']:.2f}, {v['r_max']:.2f}] "
         f"user-level; kernel path R = {v['r_kernel']:.2f} "
         "(paper: 5.8 +/- 30%, ~9 unoptimized)"],
    )


T4 = Experiment(
    "t4", "t4_r_derivation", "Table 4: R derivation via Eq (3)",
    measure_t4, report_t4,
    claims=(
        _r_in_paper_band("r_mean"),
        less("the kernel I/O path has the larger R", "r_mean", "r_kernel",
             "user R < kernel R (~9)"),
        claim("every per-point R lies within 30% of the mean",
              "max relative deviation <= 0.3",
              lambda v: max(v["r_max"] / v["r_mean"] - 1,
                            1 - v["r_min"] / v["r_mean"]),
              lambda deviation: deviation <= 0.3),
    ),
)


# ----------------------------------------------------------------------
# A1 — log-structuring: fixed blocks vs variable pages vs delta flushes
# ----------------------------------------------------------------------

def measure_a1(record_count: int = 4_000, updates: int = 6_000,
               cache_fraction: float = 0.3,
               value_bytes: int = 100) -> Values:
    """Run the same zipfian update stream under each flush policy."""
    spec = WorkloadSpec(record_count=record_count, value_bytes=value_bytes,
                        read_fraction=0.0, update_fraction=1.0)
    flushed = {}
    flush_counts = {}
    for mode, max_fragments, consolidate in (("full", 1, 8),
                                             ("delta", 8, 24)):
        machine = Machine.paper_default(cores=1)
        config = BwTreeConfig(
            segment_bytes=1 << 18,
            max_flash_fragments=max_fragments,
            consolidate_threshold=consolidate,
        )
        tree = _loaded_tree(machine, config, spec, cache_fraction)
        stats = tree.cache.stats
        baseline_bytes = stats.bytes_flushed
        baseline_flushes = stats.flushes_full + stats.flushes_delta
        apply_operations(tree, WorkloadGenerator(spec).operations(updates))
        tree.checkpoint()
        flushed[mode] = stats.bytes_flushed - baseline_bytes
        flush_counts[mode] = (stats.flushes_full + stats.flushes_delta
                              - baseline_flushes)
    return {
        "update_count": updates,
        "logical_bytes": updates * (value_bytes + 14),   # value + key bytes
        "fixed_block_bytes": flush_counts["full"] * 4096,   # 4 KB-block store
        "full_page_bytes": flushed["full"],     # variable-size full images
        "delta_bytes": flushed["delta"],        # delta-only images (Figure 5)
    }


def report_a1(v: Values) -> Report:
    logical = max(1, v["logical_bytes"])
    rows = [
        [label, f"{v[key]:,}", f"{v[key] / logical:.1f}x"]
        for label, key in (("fixed 4 KB blocks", "fixed_block_bytes"),
                           ("variable-size pages", "full_page_bytes"),
                           ("delta-only images", "delta_bytes"))
    ]
    return Report([Table(
        f"A1: write traffic for {v['update_count']:,} updates "
        f"({v['logical_bytes']:,} logical bytes) — paper Figure 5",
        ["flush policy", "flash bytes written", "write amplification"],
        rows)])


A1 = Experiment(
    "a1", "a1_log_structuring", "Ablation 1: log-structured write traffic",
    measure_a1, report_a1,
    claims=(
        less("variable-size pages save > 30% of fixed-block write traffic",
             lambda v: v["full_page_bytes"] / v["fixed_block_bytes"], 0.7,
             "~30% from ~69% B-tree utilization: full/fixed"),
        less("delta-only images write less than full page images",
             "delta_bytes", "full_page_bytes", "delta < full"),
        less("the delta run flushed at all", 0, "delta_bytes",
             "bytes written"),
    ),
)


# ----------------------------------------------------------------------
# A2 — blind updates avoid read I/O entirely
# ----------------------------------------------------------------------

def measure_a2(record_count: int = 4_000, updates: int = 2_000) -> Values:
    spec = WorkloadSpec(record_count=record_count, distribution="uniform")
    ops = list(WorkloadGenerator(spec).operations(updates))

    def cold_store_ios(read_first: bool) -> int:
        machine = Machine.paper_default(cores=1)
        tree = _loaded_tree(
            machine, BwTreeConfig(segment_bytes=1 << 18), spec
        )
        # Evict everything: every page is cold.
        tree.cache.capacity_bytes = 16 * 1024
        tree.cache.ensure_capacity()
        machine.reset_accounting()
        ios = 0
        for op in ops:
            value = op.value if op.value is not None else b"v"
            if read_first:
                ios += tree.get_with_stats(op.key).ios
            ios += tree.upsert(op.key, value).ios
        return ios

    return {
        "updates": updates,
        "blind_ios": cold_store_ios(read_first=False),
        "read_modify_write_ios": cold_store_ios(read_first=True),
    }


def report_a2(v: Values) -> Report:
    rows = [
        [label, f"{v[key]:,}", f"{v[key] / v['updates']:.4f}"]
        for label, key in (("blind upsert (delta post)", "blind_ios"),
                           ("read-modify-write", "read_modify_write_ios"))
    ]
    return Report([Table(
        f"A2: I/O for {v['updates']:,} updates to a cold store "
        "— paper Section 6.2",
        ["update path", "read I/Os", "I/Os per update"], rows)])


A2 = Experiment(
    "a2", "a2_blind_updates", "Ablation 2: blind updates avoid read I/O",
    measure_a2, report_a2,
    claims=(
        within("blind updates to a cold store read nothing", "blind_ios", 0,
               paper="0 read I/Os"),
        less("read-modify-write on a cold store reads on most updates",
             0.8, lambda v: v["read_modify_write_ios"] / v["updates"],
             "I/Os per update"),
    ),
)


# ----------------------------------------------------------------------
# A3 — record caching widens the no-I/O range
# ----------------------------------------------------------------------

def measure_a3(record_count: int = 6_000, operations: int = 4_000,
               budget_fraction: float = 0.3) -> Values:
    """TC record caching vs a page-cache-only configuration at the *same
    total DRAM budget*; the record-cache run carves part of it out for the
    TC's retained log buffers and read cache (paper Figure 6).

    The one hand-built engine under ``repro.bench`` outside
    ``engine_bench``: the run needs an 80/20 scrambled mix, an ``upsert``
    load straight into the DC and a post-load page-cache resize — three
    ``Scenario`` fields for this one caller, so it keeps its own loop.
    """
    spec = WorkloadSpec(record_count=record_count, distribution="scrambled",
                        read_fraction=0.8, update_fraction=0.2)
    record_bytes = spec.value_bytes + 14 + 16
    budget = int(record_count * record_bytes * budget_fraction)

    def run(tc_caches: bool) -> tuple:
        machine = Machine.paper_default(cores=1)
        tc_config = TcConfig(
            log_buffer_bytes=1 << 16,
            log_retain_budget_bytes=int(budget * 0.10) if tc_caches else 0,
            read_cache_bytes=int(budget * 0.15) if tc_caches else 1,
        )
        page_budget = int(budget * 0.75) if tc_caches else budget
        engine = DeuteronomyEngine(
            machine,
            BwTreeConfig(segment_bytes=1 << 18,
                         cache_capacity_bytes=None),
            tc_config,
        )
        for key, value in WorkloadGenerator(spec).load_items():
            engine.dc.upsert(key, value)
        engine.dc.checkpoint()
        engine.dc.store.flush()
        engine.dc.cache.capacity_bytes = page_budget
        engine.dc.cache.ensure_capacity()
        machine.reset_accounting()
        for op in WorkloadGenerator(spec).operations(operations):
            if op.kind.value == "read":
                engine.tc.get(op.key)
            else:
                engine.tc.run_update(op.key, op.value)
        read_ios = int(engine.tc.counters.get("tc.dc_read_ios"))
        return read_ios, engine.stats()["tc_hit_rate"]

    ios_without, __ = run(tc_caches=False)
    ios_with, hit_rate = run(tc_caches=True)
    catalog = CostCatalog()
    records_per_page = catalog.page_bytes / record_bytes
    return {
        "read_ios_page_only": ios_without,
        "read_ios_with_tc": ios_with,
        "tc_hit_rate": hit_rate,
        "breakeven_page_seconds": breakeven_interval_seconds(catalog),
        "breakeven_record_seconds": breakeven_interval_seconds(
            catalog.with_page_bytes(catalog.page_bytes / records_per_page)),
        "records_per_page": records_per_page,
    }


def report_a3(v: Values) -> Report:
    rows = [
        ["read I/Os, page cache only", f"{v['read_ios_page_only']:,}"],
        ["read I/Os, with TC record caches", f"{v['read_ios_with_tc']:,}"],
        ["TC hit rate (reads not reaching the DC)",
         f"{v['tc_hit_rate']:.3f}"],
        ["page breakeven Ti", f"{v['breakeven_page_seconds']:.1f} s"],
        [f"record breakeven Ti ({v['records_per_page']:.0f}/page)",
         f"{v['breakeven_record_seconds']:.0f} s"],
    ]
    return Report([Table(
        "A3: record caching at the TC (paper Section 6.3, Figure 6)",
        ["quantity", "value"], rows)])


A3 = Experiment(
    "a3", "a3_record_cache", "Ablation 3: TC record caching",
    measure_a3, report_a3,
    claims=(
        less("TC record caches avoid read I/O at equal DRAM",
             "read_ios_with_tc", "read_ios_page_only",
             "I/Os with TC caches < page cache only"),
        less("reads answered at the TC without reaching the DC",
             0.1, "tc_hit_rate", "TC hit rate"),
        within("record-level Ti is the page Ti times records per page",
               lambda v: (v["breakeven_record_seconds"]
                          / v["breakeven_page_seconds"]
                          / v["records_per_page"]),
               1.0, rel=1e-9, paper="Ti(record) / Ti(page) / (records/page) = 1"),
    ),
)


# ----------------------------------------------------------------------
# A4 — the falling price of SSD IOPS (Section 7.1.2)
# ----------------------------------------------------------------------

def measure_a4(iops_values: Optional[List[float]] = None) -> Values:
    values = iops_values if iops_values is not None else [
        1.0e5, 2.0e5, 3.0e5, 5.0e5, 1.0e6,
    ]
    catalog = CostCatalog()
    return {
        "iops_values": values,
        "intervals": iops_price_sweep(catalog, values),
        "io_terms": [classic_gray_interval_seconds(catalog.with_iops(iops))
                     for iops in values],
    }


def _a4_io_term_step(v: Values) -> float:
    """The sweep's own I/O-only term at 500k IOPS over that at 300k;
    NaN (never equal to anything) when the sweep lacks either point."""
    terms = dict(zip(v["iops_values"], v["io_terms"]))
    if 3.0e5 not in terms or 5.0e5 not in terms:
        return float("nan")
    return terms[5.0e5] / terms[3.0e5]


def report_a4(v: Values) -> Report:
    rows = [
        [f"{iops:.3g}", f"{interval:.1f}"]
        for iops, interval in zip(v["iops_values"], v["intervals"])
    ]
    return Report([Table(
        "A4: IOPS price decline shrinks the breakeven "
        "(paper Section 7.1.2)",
        ["SSD IOPS (same $)", "breakeven Ti (s)"], rows)])


A4 = Experiment(
    "a4", "a4_iops_price", "Ablation 4: falling IOPS prices",
    measure_a4, report_a4,
    claims=(
        claim("more IOPS per dollar strictly shrink the breakeven",
              "Ti strictly decreasing", "intervals",
              lambda intervals: _monotone(operator.gt, intervals)),
        within("the 300k -> 500k IOPS step cuts the I/O term by 40%",
               _a4_io_term_step, 0.6, rel=1e-9,
               paper="I/O term(500k) / I/O term(300k) = 0.6"),
    ),
)


# ----------------------------------------------------------------------
# A5 — garbage collection policy: eager vs lazy
# ----------------------------------------------------------------------

def measure_a5(record_count: int = 3_000, updates: int = 9_000) -> Values:
    # The mix includes reads: a purely blind-update stream never brings
    # bases back to memory, so pages only ever grow delta fragments and
    # nothing on flash goes dead.  Reads force fetch + consolidate + full
    # rewrites, which is what creates garbage for the cleaner.
    spec = WorkloadSpec(record_count=record_count, read_fraction=0.4,
                        update_fraction=0.6, distribution="uniform")
    values: Values = {"updates": updates}
    for policy, target in (("eager", 0.85), ("lazy", 0.55)):
        machine = Machine.paper_default(cores=1)
        tree = _loaded_tree(
            machine,
            BwTreeConfig(segment_bytes=1 << 16, max_flash_fragments=2),
            spec, cache_fraction=0.3,
        )
        generator = WorkloadGenerator(spec)
        for __ in range(6):
            apply_operations(tree, generator.operations(updates // 6))
            tree.checkpoint()
            tree.gc.run_until_utilization(target)
        values[f"{policy}_flash_bytes"] = tree.store.stored_bytes
        values[f"{policy}_relocated_bytes"] = tree.gc.stats.bytes_relocated
        values[f"{policy}_efficiency"] = tree.gc.stats.reclaim_efficiency
    return values


def report_a5(v: Values) -> Report:
    rows = [
        [label, f"{v[f'{policy}_flash_bytes']:,}",
         f"{v[f'{policy}_relocated_bytes']:,}",
         f"{v[f'{policy}_efficiency']:.2f}"]
        for label, policy in (("eager (clean to 85%)", "eager"),
                              ("lazy (clean to 55%)", "lazy"))
    ]
    return Report([Table(
        f"A5: GC policy trade-off after {v['updates']:,} updates "
        "(paper Section 6.1)",
        ["GC policy", "flash footprint", "bytes relocated",
         "reclaimed/rewritten"], rows)])


A5 = Experiment(
    "a5", "a5_gc_policy", "Ablation 5: GC policy trade-off",
    measure_a5, report_a5,
    claims=(
        claim("eager cleaning keeps the flash footprint no larger",
              "eager bytes <= lazy bytes",
              lambda v: (v["eager_flash_bytes"], v["lazy_flash_bytes"]),
              lambda footprints: footprints[0] <= footprints[1]),
        less("lazy cleaning reclaims more per byte rewritten",
             "eager_efficiency", "lazy_efficiency",
             "eager efficiency < lazy efficiency"),
    ),
)


# ----------------------------------------------------------------------
# A6 — NVRAM as extended memory (paper Section 8.2)
# ----------------------------------------------------------------------

_A6_COLD_TO_HOT = ("CSS", "SS", "NVM", "DRAM")


def measure_a6(nvram: Optional[NvramParameters] = None,
               points: int = 25) -> Values:
    """Four-tier cost analysis with NVRAM between DRAM and flash."""
    parameters = nvram if nvram is not None else NvramParameters()
    model = OperationCostModel()
    dram = replace(model.mm_line(), kind="DRAM")
    nvm = nvm_line(nvram=parameters)
    ss = model.ss_line()
    advisor = Advisor([dram, nvm, ss, model.css_line()])
    dram_vs_nvm_rate = crossover(dram, nvm)
    nvm_vs_ss_rate = crossover(nvm, ss)
    rates = logspace_rates(nvm_vs_ss_rate / 100, dram_vs_nvm_rate * 100,
                           points)
    return {
        "nvram_price_per_byte": parameters.price_per_byte,
        "nvram_slowdown": parameters.slowdown,
        "rates": rates,
        "tiers": [advisor.tier_for_rate(rate) for rate in rates],
        "dram_vs_nvm_rate": dram_vs_nvm_rate,
        "nvm_vs_ss_rate": nvm_vs_ss_rate,
        "ssd_savings_fraction": nvram_in_ssd_savings_fraction(),
    }


def _a6_regressions(v: Values) -> int:
    """Steps of the rising-rate sweep that move to a colder tier."""
    depth = [_A6_COLD_TO_HOT.index(tier) for tier in v["tiers"]]
    return sum(a > b for a, b in zip(depth, depth[1:]))


def report_a6(v: Values) -> Report:
    return Report(
        [Table("A6: four-tier placement with NVRAM at "
               f"${v['nvram_price_per_byte']:.1e}/B, "
               f"{v['nvram_slowdown']:.1f}x DRAM latency (paper §8.2)",
               ["accesses/sec", "cheapest tier"],
               [[f"{rate:.4g}", tier]
                for rate, tier in zip(v["rates"], v["tiers"])])],
        [f"NVM beats SS above {v['nvm_vs_ss_rate']:.4g}/s; "
         f"DRAM beats NVM above {v['dram_vs_nvm_rate']:.4g}/s.",
         "NVRAM inside the SSD would cut SS execution cost by only "
         f"{v['ssd_savings_fraction']:.0%} — the software path "
         "dominates, so flash keeps the SSD role."],
    )


A6 = Experiment(
    "a6", "a6_nvram_tiers", "Ablation 6: NVRAM as extended memory",
    measure_a6, report_a6,
    claims=(
        never("the cheapest tier never moves colder as the rate rises",
              "CSS -> SS -> NVM -> DRAM", _a6_regressions),
        less("NVRAM wins a band of access rates",
             0, lambda v: v["tiers"].count("NVM"), "plotted rates won by NVM"),
        between("an NVRAM SSD saves under half the SS execution cost",
                "ssd_savings_fraction", 0.0, 0.5, paper="savings"),
        less("the NVM band sits between SS and DRAM",
             "nvm_vs_ss_rate", "dram_vs_nvm_rate",
             "NVM/SS rate < DRAM/NVM rate"),
    ),
)


# ----------------------------------------------------------------------
# A7 — HDDs cannot back a high-performance store (paper Section 8.3)
# ----------------------------------------------------------------------

def measure_a7(system_ops_per_sec: float = 1e6) -> Values:
    """The "disk is tape" arithmetic for best and commodity drives."""
    best = hdd_viability(HddParameters(), system_ops_per_sec)
    commodity = hdd_viability(HddParameters.commodity(),
                              system_ops_per_sec)
    return {
        "system_ops_per_sec": system_ops_per_sec,
        "best_max_txn_per_sec": best.max_transactions_per_sec,
        "commodity_max_txn_per_sec": commodity.max_transactions_per_sec,
        "best_max_miss_fraction": best.max_miss_fraction,
        "ops_per_latency": best.ops_per_hdd_latency,
        "hdd_breakeven_seconds": hdd_breakeven_interval_seconds(),
        "ssd_breakeven_seconds": breakeven_interval_seconds(CostCatalog()),
    }


def report_a7(v: Values) -> Report:
    rows = [
        ["ops executed per HDD latency", f"{v['ops_per_latency']:,.0f}",
         "'5000 within the latency'"],
        ["miss fraction that saturates one drive",
         f"{v['best_max_miss_fraction']:.2%}",
         "'less than a small fraction of 1%'"],
        ["max txn/sec (10 I/O each), best drive",
         f"{v['best_max_txn_per_sec']:.0f}",
         "'no more than 20 transactions/second'"],
        ["max txn/sec, commodity drive",
         f"{v['commodity_max_txn_per_sec']:.0f}", "-"],
        ["HDD breakeven interval",
         f"{v['hdd_breakeven_seconds'] / 3600:.1f} h", "archive territory"],
        ["SSD breakeven interval", f"{v['ssd_breakeven_seconds']:.0f} s",
         "~45 s"],
    ]
    return Report([Table(
        f"A7: 'disk is tape' at {v['system_ops_per_sec']:,.0f} ops/sec "
        "(paper §8.3)",
        ["quantity", "value", "paper"], rows)])


A7 = Experiment(
    "a7", "a7_hdd", "Ablation 7: 'disk is tape' HDD arithmetic",
    measure_a7, report_a7,
    claims=(
        within("max txn/sec on the best drive at 10 I/Os per txn",
               "best_max_txn_per_sec", 20.0, rel=1e-6),
        within("MM operations executed within one HDD latency",
               "ops_per_latency", 5000.0, rel=1e-6),
        less("a commodity drive sustains fewer transactions",
             "commodity_max_txn_per_sec", "best_max_txn_per_sec",
             "commodity < best"),
        less("miss fraction that saturates one drive",
             "best_max_miss_fraction", 0.01, "a small fraction of 1%:"),
        less("the HDD breakeven is archive territory",
             lambda v: 50 * v["ssd_breakeven_seconds"],
             "hdd_breakeven_seconds", "50 x SSD Ti < HDD Ti"),
    ),
)


# ----------------------------------------------------------------------
# A8 — compressed main memory (paper Section 7.2, last paragraph)
# ----------------------------------------------------------------------

def measure_a8(compression_ratio: float = 0.5,
               decompress_ratio: float = 3.0) -> Values:
    """Does CMM earn a band between SS and MM, and when does it stop?"""
    model = OperationCostModel()
    mm, ss = model.mm_line(), model.ss_line()

    def cmm_at(ratio: float) -> CostLine:
        return cmm_line(cmm=CmmParameters(
            compression_ratio=compression_ratio, decompress_ratio=ratio))

    def cmm_boundaries(cmm: CostLine) -> int:
        """Lower-envelope boundaries of MM / CMM / SS that CMM is on."""
        return sum(cmm.kind in boundary[:2]
                   for boundary in Advisor([mm, cmm, ss]).boundaries())

    cmm = cmm_at(decompress_ratio)
    low = crossover(cmm, ss)
    high = crossover(mm, cmm)
    mid = (low * high) ** 0.5 if 0 < low < high < float("inf") else high
    # Find (coarsely) where the window closes as decompression gets dear.
    closes_at = float("inf")
    probe = decompress_ratio
    while probe < 1000:
        probe *= 2
        if not cmm_boundaries(cmm_at(probe)):
            closes_at = probe
            break
    return {
        "compression_ratio": compression_ratio,
        "decompress_ratio": decompress_ratio,
        "window_low_rate": low,
        "window_high_rate": high,
        "has_window": cmm_boundaries(cmm) > 0,
        "mm_cost_mid": mm.at(mid).total,
        "ss_cost_mid": ss.at(mid).total,
        "cmm_cost_mid": cmm.at(mid).total,
        "no_window_decompress_ratio": closes_at,
        "cmm_boundaries_at_close": (
            cmm_boundaries(cmm_at(closes_at))
            if closes_at < float("inf") else None),
    }


def report_a8(v: Values) -> Report:
    closes_at = v["no_window_decompress_ratio"]
    rows = [
        ["compression ratio", f"{v['compression_ratio']:.2f}"],
        ["decompression cost (MM-op units)", f"{v['decompress_ratio']:.1f}"],
        ["CMM beats SS above", f"{v['window_low_rate']:.4g} /s"],
        ["MM beats CMM above", f"{v['window_high_rate']:.4g} /s"],
        ["$ at window midpoint: MM", f"{v['mm_cost_mid']:.4g}"],
        ["$ at window midpoint: SS", f"{v['ss_cost_mid']:.4g}"],
        ["$ at window midpoint: CMM", f"{v['cmm_cost_mid']:.4g}"],
        ["window survives decompress ratio of",
         f"< {closes_at:.0f}" if closes_at < float("inf")
         else "never (< 1000 probed)"],
    ]
    return Report([Table(
        "A8: compressed main memory as a fourth class (paper §7.2)",
        ["quantity", "value"], rows)])


A8 = Experiment(
    "a8", "a8_compressed_memory", "Ablation 8: compressed main memory",
    measure_a8, report_a8,
    claims=(
        claim("with moderate parameters CMM wins a middle band",
              "CMM on the MM / CMM / SS lower envelope", "has_window", bool),
        less("the band opens below where it closes",
             "window_low_rate", "window_high_rate",
             "CMM/SS rate < MM/CMM rate"),
        less("CMM is strictly cheaper than MM at the window midpoint",
             "cmm_cost_mid", "mm_cost_mid", "$CMM < $MM"),
        less("CMM is strictly cheaper than SS at the window midpoint",
             "cmm_cost_mid", "ss_cost_mid", "$CMM < $SS"),
        Claim("dear enough decompression closes the window",
              "closes at a finite ratio above the configured one, "
              "leaving no CMM band",
              lambda v: (v["no_window_decompress_ratio"],
                         v["cmm_boundaries_at_close"]),
              lambda v: (v["decompress_ratio"]
                         < v["no_window_decompress_ratio"] < float("inf")
                         and v["cmm_boundaries_at_close"] == 0)),
    ),
)


# ----------------------------------------------------------------------
# A9 — RocksDB-style LSM obeys the same mixture model (Section 1.3)
# ----------------------------------------------------------------------

def measure_a9(record_count: int = 8_000, operations: int = 4_000,
               cache_fractions=(0.6, 0.35, 0.18, 0.08)) -> Values:
    """(F, PF) points from the LSM stack and the R they imply.

    The paper groups RocksDB with Deuteronomy as "new data caching
    systems"; its Equation (2) should describe any of them.  We sweep the
    LSM's block-cache size, measure (F, PF), and recover the LSM's own
    execution ratio R via Equation (3).
    """
    spec = WorkloadSpec(record_count=record_count, value_bytes=100,
                        distribution="scrambled")
    data_bytes = record_count * (spec.value_bytes + 14 + 16)

    def run(block_cache_bytes) -> tuple:
        machine = Machine.paper_default(cores=4)
        machine.ssd.spec = machine.ssd.spec.scaled_iops(5e6)
        tree = LsmTree(machine, LsmConfig(
            memtable_bytes=16 << 10,
            block_cache_bytes=block_cache_bytes,
        ))
        for key, value in WorkloadGenerator(spec).load_items():
            tree.upsert(key, value)
        tree.flush_memtable()
        generator = WorkloadGenerator(spec)
        for op in generator.operations(operations // 2):   # warm up
            tree.get(op.key)
        machine.reset_accounting()
        ss_before = tree.counters.get("lsm.ss_ops")
        ops_before = tree.counters.get("lsm.ops")
        for op in generator.operations(operations):
            tree.get(op.key)
        f = ((tree.counters.get("lsm.ss_ops") - ss_before)
             / (tree.counters.get("lsm.ops") - ops_before))
        return f, machine.summary().throughput_ops_per_sec

    # P0: a block cache big enough to hold everything.
    __, p0 = run(block_cache_bytes=max(1, data_bytes * 4))
    points = []
    r_values = []
    for fraction in cache_fractions:
        f, throughput = run(int(data_bytes * fraction))
        if f <= 0.01:
            continue
        points.append({
            "cache_fraction": fraction, "f": f, "throughput": throughput,
        })
        r_values.append(mixture.derive_r(p0, throughput, f))
    r_mean = sum(r_values) / len(r_values)
    return {
        "p0": p0,
        "points": points,
        "r_values": r_values,
        "r_mean": r_mean,
        "r_spread_fraction":
            max(abs(value - r_mean) for value in r_values) / r_mean,
    }


def report_a9(v: Values) -> Report:
    rows = [
        [f"{point['cache_fraction']:.0%}", f"{point['f']:.3f}",
         f"{point['throughput']:,.0f}", f"{r:.2f}"]
        for point, r in zip(v["points"], v["r_values"])
    ]
    return Report(
        [Table(f"A9: the LSM follows Equation (2); P0 = {v['p0']:,.0f}",
               ["block cache", "F", "PF (ops/s)", "R via Eq (3)"], rows)],
        [f"LSM R = {v['r_mean']:.2f} "
         f"(+/- {v['r_spread_fraction']:.0%}) — a single execution "
         "ratio explains the whole sweep, as for the Bw-tree."],
    )


A9 = Experiment(
    "a9", "a9_lsm_mixture", "Ablation 9: the LSM follows Equation (2)",
    measure_a9, report_a9,
    claims=(
        claim("throughput strictly declines as the block cache shrinks",
              "PF strictly decreasing",
              lambda v: [point["throughput"] for point in v["points"]],
              lambda throughputs: _monotone(operator.gt, throughputs)),
        claim("the SS fraction F strictly grows as the block cache shrinks",
              "F strictly increasing",
              lambda v: [point["f"] for point in v["points"]],
              lambda fractions: _monotone(operator.lt, fractions)),
        less("enough points off the F ~ 0 floor to fit Eq. (3)",
             2, lambda v: len(v["r_values"]), "points"),
        less("one R explains every point (Eq. 2 fits)",
             "r_spread_fraction", 0.4, "spread around the mean"),
        less("the LSM's R exceeds the Bw-tree's: a read probes several "
             "tables", 5.0, "r_mean", "LSM R"),
    ),
)


# ----------------------------------------------------------------------
# A10 — adaptive breakeven eviction under a shifting hot set (§4.2, §8.4)
# ----------------------------------------------------------------------

def measure_a10(record_count: int = 4_000,
                phase_operations: int = 3_000,
                offered_ops_per_sec: float = 30.0,
                hot_fraction: float = 0.15,
                hot_access_fraction: float = 0.98,
                seed: int = 13) -> Values:
    """Cost-driven eviction vs keeping everything as the hot set moves."""
    spec = WorkloadSpec(record_count=record_count, value_bytes=100)
    record_bytes = spec.value_bytes + 14 + 16
    hot_count = int(record_count * hot_fraction)
    hot_a = (0, hot_count)
    hot_b = (record_count - hot_count, record_count)

    def key_stream(hot_range: tuple, count: int, phase_seed: int):
        source = random.Random(phase_seed)
        for __ in range(count):
            if source.random() < hot_access_fraction:
                index = source.randrange(*hot_range)
            else:
                index = source.randrange(record_count)
            yield b"user%010d" % index

    def run(adaptive: bool) -> tuple:
        machine = Machine.paper_default(cores=4)
        tree = _loaded_tree(
            machine, BwTreeConfig(segment_bytes=1 << 18), spec
        )
        driver = PacedDriver(
            tree, offered_ops_per_sec,
            controller=AdaptiveCacheController(tree) if adaptive else None)
        machine.reset_accounting()
        phase1 = driver.run_phase(
            "hot-A", key_stream(hot_a, phase_operations, seed))
        driver.run_phase(
            "hot-B", key_stream(hot_b, phase_operations, seed + 1))
        tail = driver.run_phase(
            "hot-B-tail", key_stream(hot_b, phase_operations // 3, seed + 2))
        bill = meter_bill(machine, window_seconds=machine.clock.now).total
        return phase1, tail, tree.cache.resident_bytes, bill

    phase1, tail, adaptive_bytes, adaptive_bill = run(adaptive=True)
    __, __, all_dram_bytes, all_dram_bill = run(adaptive=False)
    return {
        "data_bytes": record_count * record_bytes,
        "hot_set_bytes": hot_count * record_bytes,
        "offered_ops_per_sec": offered_ops_per_sec,
        # End-of-phase footprints: the steady state the controller
        # converges to once the initial warm-start decays past Ti.
        "adaptive_phase1_bytes": phase1.resident_bytes_end,
        "adaptive_phase2_bytes": adaptive_bytes,
        "adaptive_f_phase2_tail": tail.ss_fraction,
        "all_dram_bytes": all_dram_bytes,
        "adaptive_bill": adaptive_bill,
        "all_dram_bill": all_dram_bill,
    }


def report_a10(v: Values) -> Report:
    rows = [
        ["database size", f"{v['data_bytes']:,} B"],
        ["hot set size", f"{v['hot_set_bytes']:,} B"],
        ["offered rate", f"{v['offered_ops_per_sec']:,.0f} ops/s"],
        ["adaptive DRAM, phase 1 (hot set A)",
         f"{v['adaptive_phase1_bytes']:,.0f} B"],
        ["adaptive DRAM, phase 2 (hot set B)",
         f"{v['adaptive_phase2_bytes']:,.0f} B"],
        ["adaptive F, late phase 2", f"{v['adaptive_f_phase2_tail']:.3f}"],
        ["all-DRAM footprint", f"{v['all_dram_bytes']:,.0f} B"],
        ["adaptive bill ($/s x 1/L)", f"{v['adaptive_bill']:.4g}"],
        ["all-DRAM bill ($/s x 1/L)", f"{v['all_dram_bill']:.4g}"],
    ]
    return Report([Table(
        "A10: breakeven-interval eviction tracks a moving hot set "
        "(paper §4.2, §8.4)",
        ["quantity", "value"], rows)])


A10 = Experiment(
    "a10", "a10_adaptive_cache",
    "Ablation 10: adaptive eviction, moving hot set",
    measure_a10, report_a10,
    claims=(
        less("phase-1 footprint stays well below the database",
             lambda v: v["adaptive_phase1_bytes"] / v["data_bytes"], 0.55,
             "share of the database resident"),
        less("phase-2 footprint is hot-set-sized: hot set A was released",
             lambda v: v["adaptive_phase2_bytes"] / v["data_bytes"], 0.5,
             "share of the database resident"),
        less("the footprint holds the hot set rather than collapsing",
             0.5, lambda v: v["adaptive_phase1_bytes"] / v["hot_set_bytes"],
             "footprint over the hot set"),
        less("F is low again once the new hot set is warm",
             "adaptive_f_phase2_tail", 0.2, "late phase-2 SS fraction"),
        less("the adaptive bill beats keeping everything in DRAM",
             "adaptive_bill", "all_dram_bill",
             "adaptive $/s < all-DRAM $/s"),
    ),
)


# ----------------------------------------------------------------------
# tiers — Equation (6) across every boundary of the preset hierarchies
# ----------------------------------------------------------------------

#: The hierarchies the surface covers, in render order.
TIER_PRESETS = {
    "paper-2018": StorageHierarchy.paper_2018,
    "cxl-2026": StorageHierarchy.cxl_2026,
    "modern-2026": StorageHierarchy.modern_2026,
}


def measure_tiers(catalog: Optional[CostCatalog] = None) -> Values:
    """Per-pair breakevens, the advisor's envelope, and two rate sweeps.

    Closed-form arithmetic on the cost catalog: one row per tier pair
    (interval, rate, the CPU path's share of the interval — the paper's
    headline observation extended to 2026 hardware), then which of the
    hierarchy's cost lines (:func:`~repro.core.tiers.hierarchy_lines`) is
    cheapest across the access-rate decades — the demotion policy the
    engine's page cache executes (``demote_to_tiers``).
    """
    cat = catalog if catalog is not None else CostCatalog()
    values: Values = {
        "catalog": cat,
        "eq6_interval": breakeven_interval_seconds(cat),
        "stacks": {}, "surfaces": {}, "envelopes": {}, "winner_depths": {},
    }
    for preset, build in TIER_PRESETS.items():
        hierarchy = build()
        order = [tier.name for tier in hierarchy]
        advisor = Advisor(hierarchy_lines(hierarchy, cat))
        values["stacks"][preset] = order
        values["surfaces"][preset] = hierarchy_breakeven_surface(
            hierarchy, cat)
        values["envelopes"][preset] = [{
            "hot": hot, "cold": cold, "rate": rate,
            # Both tiers of an adjacent pair on the envelope: the
            # closed-form per-pair threshold applies.
            "per_pair_rate": (
                1.0 / tier_pair_breakeven(
                    hierarchy.get(hot), hierarchy.get(cold), cat)
                if order.index(cold) - order.index(hot) == 1 else None),
            "below": advisor.tier_for_rate(rate * 0.99),
            "above": advisor.tier_for_rate(rate * 1.01),
        } for hot, cold, rate in advisor.boundaries()]
        values["winner_depths"][preset] = [
            order.index(advisor.tier_for_rate(rate))
            for rate in logspace_rates(1e-8, 1e4, 121)
        ]
    modern = hierarchy_lines(TIER_PRESETS["modern-2026"](), cat)
    values["modern_sweep"] = [
        (rate, cheapest(modern, rate))
        for rate in logspace_rates(1e-6, 1e2, 9)
    ]
    return values


def render_surface(v: Values) -> List[str]:
    """The hand-aligned surface report, one string per line."""
    cat = v["catalog"]
    lines = [
        "N-tier breakeven surface (Equation 6 per tier pair)",
        f"  catalog: $P={cat.processor_dollars:.0f} ROPS={cat.rops:.2e} "
        f"Ps={cat.page_bytes:.0f}B",
    ]
    for preset, surface in v["surfaces"].items():
        lines.append("")
        lines.append(f"[{preset}] " + " > ".join(v["stacks"][preset]))
        lines.append(
            f"  {'boundary':<32s} {'Ti (s)':>12s} {'N (/s)':>12s} "
            f"{'cpu share':>10s}"
        )
        for row in surface:
            boundary = f"{row.upper} / {row.lower}"
            lines.append(
                f"  {boundary:<32s} {row.interval_seconds:>12.3f} "
                f"{row.rate_ops_per_sec:>12.6f} "
                f"{row.cpu_term_fraction:>9.1%}"
            )
    lines.append("")
    lines.append("cheapest tier by access rate (modern-2026 advisor)")
    for rate, winner in v["modern_sweep"]:
        lines.append(
            f"  {rate:>12.2e} ops/s -> {winner.kind:<16s} "
            f"(${winner.total:.3e}/page)"
        )
    return lines


def _tier_boundaries(v: Values) -> List[Dict[str, Any]]:
    return [boundary for envelope in v["envelopes"].values()
            for boundary in envelope]


def _tier_intervals(v: Values) -> List[List[float]]:
    return [[row.interval_seconds for row in surface]
            for surface in v["surfaces"].values()]


TIERS = Experiment(
    "tiers", "tiers_surface",
    "N-tier storage-hierarchy breakeven surface (Eq. 6 per tier pair)",
    measure_tiers, lambda v: Report((), render_surface(v)),
    claims=(
        claim("the 2-tier paper-2018 hierarchy reduces exactly to Eq. (6)",
              "DRAM/NVMe interval == Eq. (6) Ti, bit for bit",
              lambda v: (v["surfaces"]["paper-2018"][0].interval_seconds,
                         v["eq6_interval"]),
              lambda intervals: intervals[0] == intervals[1]),
        never("breakeven intervals strictly increase down every stack",
              "colder boundaries break even at longer intervals",
              lambda v: sum(not _monotone(operator.lt, intervals)
                            for intervals in _tier_intervals(v))),
        less("the modern-2026 surface covers at least three tier pairs",
             2, lambda v: len(v["surfaces"]["modern-2026"]), "boundaries"),
        claim("an adjacent pair's envelope boundary is 1 / its per-pair Ti",
              "relative error <= 1e-12",
              lambda v: max(abs(b["rate"] / b["per_pair_rate"] - 1.0)
                            for b in _tier_boundaries(v)
                            if b["per_pair_rate"] is not None),
              lambda error: error <= 1e-12),
        never("the winner flips from the colder to the hotter tier across "
              "every envelope boundary", "at rate x 0.99 and x 1.01",
              lambda v: sum((b["below"], b["above"]) != (b["cold"], b["hot"])
                            for b in _tier_boundaries(v))),
        never("the cheapest tier only moves up-stack as the rate rises",
              "demotion is a threshold policy",
              lambda v: sum(not _monotone(operator.ge, depths)
                            for depths in v["winner_depths"].values())),
    ),
)


#: The ordered table: every experiment ``python -m repro`` runs by id and
#: ``benchmarks/test_experiments.py`` regenerates and scores.
EXPERIMENTS: Dict[str, Experiment] = {
    experiment.id: experiment
    for experiment in (F1, F2, F3, F7, F8, T1, T2, T3, T4,
                       A1, A2, A3, A4, A5, A6, A7, A8, A9, A10, TIERS)
}
