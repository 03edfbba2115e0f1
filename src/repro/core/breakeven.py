"""The updated five-minute rule (paper Section 4.2, Equation 6).

Setting Equation (4) equal to Equation (5) and solving for the access
interval Ti = 1/N gives the breakeven time between accesses past which a
page is cheaper to evict:

    Ti = (1 / ($M * Ps)) * [ $I/IOPS + (R - 1) * $P/ROPS ]

The paper's novelty relative to Gray's original rule is the second term:
the *processor* cost of executing the I/O path, which grows in relative
importance as SSD IOPS get cheaper.  With the paper's constants Ti is about
45 seconds; with records instead of pages (Section 6.3) the denominator
shrinks by the records-per-page factor.

Nothing in the derivation is DRAM- or SSD-specific, so the same algebra
prices *any* adjacent pair of a storage hierarchy:
:func:`tier_pair_breakeven` generalizes Equation (6) to a
(:class:`~repro.hardware.tiers.TierSpec` upper,
:class:`~repro.hardware.tiers.TierSpec` lower) boundary, and
:func:`hierarchy_breakeven_surface` evaluates it across every boundary
of a :class:`~repro.hardware.tiers.StorageHierarchy` — the Figure-2
style surface the ``python -m repro tiers`` CLI renders.

All entry points share one term derivation (:func:`_breakeven_terms`)
and one catalog validator: a catalog with ``r < 1`` would make the CPU
term negative (an I/O path shorter than a cached access — physical
nonsense), and zero ``iops``/``rops``/``dram_per_byte``/``page_bytes``
would divide by zero.  Both now raise ``ValueError`` with the offending
field named instead of silently producing a wrong interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Sequence, Tuple

from ..frozen import check_bounds
from .catalog import CostCatalog

if TYPE_CHECKING:  # hardware only needed for type names, avoid cycles
    from ..hardware.tiers import StorageHierarchy, TierSpec


def _validate_catalog(catalog: CostCatalog) -> None:
    """Reject degenerate catalogs before they poison the algebra.

    :class:`~repro.core.catalog.CostCatalog` enforces this at
    construction, but the breakeven entry points are duck-typed — sweeps
    and ablations hand them catalog-like stand-ins — so the math checks
    the fields it reads against the catalog's own bounds.
    """
    check_bounds(CostCatalog, **{name: getattr(catalog, name) for name in (
        "dram_per_byte", "page_bytes", "iops", "rops", "processor_dollars",
        "ssd_io_dollars", "r")})


def _breakeven_terms(catalog: CostCatalog) -> Tuple[float, float]:
    """The two Equation (6) terms in seconds: (I/O term, CPU term).

    This is the *only* place the derivation lives; every public entry
    point sums exactly these two floats, so
    ``breakeven_interval_seconds(cat) == breakeven_report(cat)
    .interval_seconds`` holds bit-for-bit (pinned by a regression test —
    the two used to carry separately-associated copies of the algebra
    that could drift in the last ulp).
    """
    _validate_catalog(catalog)
    denom = catalog.dram_per_byte * catalog.page_bytes
    io_term = (catalog.ssd_io_dollars / catalog.iops) / denom
    cpu_term = ((catalog.r - 1.0) * catalog.processor_dollars
                / catalog.rops) / denom
    return io_term, cpu_term


@dataclass(frozen=True)
class BreakevenReport:
    """The five-minute-rule quantities for one catalog."""

    interval_seconds: float          # Ti
    rate_ops_per_sec: float          # N = 1/Ti
    io_term_seconds: float           # contribution of $I/IOPS
    cpu_term_seconds: float          # contribution of (R-1)*$P/ROPS
    storage_cost_ratio: float        # MM vs SS storage, ~11x
    execution_cost_ratio: float      # SS vs MM execution, ~9-12x


def breakeven_interval_seconds(catalog: CostCatalog) -> float:
    """Equation (6): the breakeven access interval Ti."""
    io_term, cpu_term = _breakeven_terms(catalog)
    return io_term + cpu_term


def breakeven_rate_ops_per_sec(catalog: CostCatalog) -> float:
    """N at breakeven: access a page more often than this, keep it cached."""
    return 1.0 / breakeven_interval_seconds(catalog)


def breakeven_report(catalog: CostCatalog | None = None) -> BreakevenReport:
    """Full Section 4.2 derivation for a catalog."""
    cat = catalog if catalog is not None else CostCatalog()
    io_term, cpu_term = _breakeven_terms(cat)
    interval = io_term + cpu_term
    return BreakevenReport(
        interval_seconds=interval,
        rate_ops_per_sec=1.0 / interval,
        io_term_seconds=io_term,
        cpu_term_seconds=cpu_term,
        storage_cost_ratio=cat.storage_cost_ratio,
        execution_cost_ratio=cat.execution_cost_ratio,
    )


def record_cache_breakeven_seconds(catalog: CostCatalog,
                                   records_per_page: float) -> float:
    """Section 6.3: the breakeven for caching *records* instead of pages.

    A record occupies 1/records_per_page of a page, so the DRAM-rental
    denominator shrinks and the breakeven interval shrinks with it ("when
    there are 10 records in a page, the record breakeven is ~a tenth of the
    page breakeven").
    """
    if records_per_page <= 0:
        raise ValueError("records_per_page must be positive")
    record_bytes = catalog.page_bytes / records_per_page
    return breakeven_interval_seconds(
        catalog.with_page_bytes(record_bytes)
    )


def classic_gray_interval_seconds(catalog: CostCatalog) -> float:
    """Gray's original rule: I/O term only, no CPU path cost.

    Included so experiments can show how much the paper's added term moves
    the answer on modern hardware.
    """
    io_term, __ = _breakeven_terms(catalog)
    return io_term


def iops_price_sweep(catalog: CostCatalog,
                     iops_values: Sequence[float]) -> List[float]:
    """Ti as SSD IOPS climb at constant drive price (Section 7.1.2).

    More IOPS per dollar shrink the I/O term and the breakeven interval.
    """
    return [
        breakeven_interval_seconds(catalog.with_iops(iops))
        for iops in iops_values
    ]


# ---------------------------------------------------------------------------
# N-tier generalization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TierPairBreakeven:
    """Equation (6) evaluated at one hierarchy boundary."""

    upper: str                      # tier names, for rendering
    lower: str
    interval_seconds: float         # Ti at this boundary
    rate_ops_per_sec: float         # N = 1/Ti
    io_term_seconds: float          # device-capital contribution
    cpu_term_seconds: float         # execution-path contribution

    @property
    def cpu_term_fraction(self) -> float:
        return self.cpu_term_seconds / self.interval_seconds


def _tier_pair_terms(upper: "TierSpec", lower: "TierSpec",
                     catalog: CostCatalog | None = None
                     ) -> Tuple[float, float]:
    """Equation (6)'s (I/O term, CPU term) between two adjacent tiers.

    The derivation is the paper's, with the DRAM/SSD constants replaced
    by the pair's:

    * the rent gap is what caching in ``upper`` *adds* — ``upper``'s
      $/byte, minus ``lower``'s unless ``lower`` is the durable home
      (a page there pays home rent regardless, the inclusive-caching
      assumption behind Equation 4);
    * the I/O term is the *net* device capital per access/second,
      ``lower``'s minus ``upper``'s (zero for load/store tiers);
    * the CPU term scales with the *extra* path length,
      ``lower.cpu_path_r - upper.cpu_path_r``, priced at $P/ROPS like
      the paper's ``(R - 1)``.

    Over :meth:`~repro.hardware.tiers.StorageHierarchy.paper_2018`'s
    single DRAM/NVMe boundary the sum reduces *exactly* (bit-for-bit)
    to :func:`breakeven_interval_seconds` — pinned by a test.
    """
    cat = catalog if catalog is not None else CostCatalog()
    _validate_catalog(cat)
    if lower.dollars_per_byte >= upper.dollars_per_byte:
        raise ValueError(
            f"tier {lower.name!r} must be strictly cheaper per byte than "
            f"{upper.name!r}: the rent gap drives the breakeven"
        )
    if lower.cpu_path_r < upper.cpu_path_r:
        raise ValueError(
            f"tier {lower.name!r} cannot have a shorter CPU path than "
            f"{upper.name!r}: the CPU term would be negative"
        )
    rent_gap = upper.dollars_per_byte - (
        0.0 if lower.durable_home else lower.dollars_per_byte
    )
    if rent_gap <= 0:
        raise ValueError(
            f"no rent gap between {upper.name!r} and {lower.name!r}: "
            f"caching in the upper tier saves nothing"
        )
    denom = rent_gap * cat.page_bytes
    io_term = (lower.io_dollars / lower.iops
               - upper.io_dollars / upper.iops) / denom
    cpu_term = ((lower.cpu_path_r - upper.cpu_path_r)
                * cat.processor_dollars / cat.rops) / denom
    if io_term < 0:
        raise ValueError(
            f"tier {lower.name!r} has cheaper access capital than "
            f"{upper.name!r}: the tiers are mis-ordered"
        )
    return io_term, cpu_term


def tier_pair_breakeven(upper: "TierSpec", lower: "TierSpec",
                        catalog: CostCatalog | None = None) -> float:
    """Equation (6) between two adjacent tiers: the breakeven interval.

    The page cache turns this value into its runtime demotion
    thresholds, so its bits are pinned by tests.
    """
    io_term, cpu_term = _tier_pair_terms(upper, lower, catalog)
    return io_term + cpu_term


def hierarchy_breakeven_surface(
        hierarchy: "StorageHierarchy",
        catalog: CostCatalog | None = None) -> List[TierPairBreakeven]:
    """The Figure-2-style surface: Ti at every adjacent boundary.

    For any valid :class:`~repro.hardware.tiers.StorageHierarchy` the
    intervals increase monotonically down the stack (colder boundaries
    break even at longer intervals), which is what makes threshold
    demotion the same policy as the argmin over
    :func:`repro.core.tiers.hierarchy_lines`.
    """
    rows: List[TierPairBreakeven] = []
    for upper, lower in hierarchy.pairs():
        io_term, cpu_term = _tier_pair_terms(upper, lower, catalog)
        interval = io_term + cpu_term
        rows.append(TierPairBreakeven(
            upper=upper.name,
            lower=lower.name,
            interval_seconds=interval,
            rate_ops_per_sec=1.0 / interval,
            io_term_seconds=io_term,
            cpu_term_seconds=cpu_term,
        ))
    return rows
