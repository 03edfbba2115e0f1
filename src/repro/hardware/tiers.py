"""N-tier storage hierarchies: tier specs, ordering, and presets.

The paper's Equation (6) prices exactly one boundary — DRAM against one
SSD — but its derivation never uses anything DRAM- or SSD-specific: a
tier is just a capacity rental price, an access cost (device $ per I/O
rate) and a CPU path length.  Both five-minute-rule revisits in
PAPERS.md (Gray/Graefe 1997 and the 2025 "40 Years Later" treatment)
make the same observation and apply the rule *between every adjacent
pair* of a modern hierarchy: DRAM / CXL-class far memory / NVMe flash /
cloud object store.

:class:`TierSpec` captures one tier's cost facts; :class:`StorageHierarchy`
is an ordered stack of them (fastest and most expensive first) with the
validation the breakeven math relies on: capacity prices strictly
decrease and CPU path lengths never decrease as you move down.  The
bottom tier is the *durable home* — every page always keeps a copy
there (the paper's inclusive-caching assumption behind Equation 4), so
caching a page in any upper tier adds that tier's rent on top of the
home rent it pays anyway.

The generalized breakeven itself lives in
:func:`repro.core.breakeven.tier_pair_breakeven`; this module only
describes hardware, in the same spirit as :class:`~repro.hardware.cpu.
CostTable` describing per-primitive CPU prices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Tuple

from ..frozen import ABOVE_ZERO, check_bounds


@dataclass(frozen=True, slots=True)
class TierSpec:
    """Cost facts for one storage tier.

    ``dollars_per_byte`` is the capacity rental price in the same units
    as :attr:`~repro.core.catalog.CostCatalog.dram_per_byte` ($ per byte
    over the amortization window).  ``io_dollars``/``iops`` price the
    access device exactly like ``ssd_io_dollars``/``iops`` in the
    catalog: dollars of device capital per I/O-per-second of capability
    (zero for load/store tiers such as DRAM and CXL memory, where the
    access cost is pure CPU path).  ``cpu_path_r`` is the tier's R — the
    execution path length of one access relative to a fully cached MM
    operation (DRAM is 1.0 by definition; the paper measures ~5.8 for
    its flash I/O path).  ``access_latency_s`` is the device's access
    latency, reported in sweeps for context (bandwidth/latency do not
    enter the cost model's $-per-op; they bound throughput, which the
    simulator measures separately).
    """

    name: str
    dollars_per_byte: float
    access_latency_s: float
    iops: float
    io_dollars: float
    cpu_path_r: float
    durable_home: bool = False

    #: A ``cpu_path_r`` below 1.0 would make an access cheaper than a
    #: cached MM operation.
    BOUNDS = {
        "dollars_per_byte": (ABOVE_ZERO, math.inf),
        "access_latency_s": (0.0, math.inf),
        "iops": (ABOVE_ZERO, math.inf), "io_dollars": (0.0, math.inf),
        "cpu_path_r": (1.0, math.inf),
    }

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tier name must be non-empty")
        check_bounds(self)

    @property
    def io_dollars_per_access_rate(self) -> float:
        """$ of device capital per access/second — the Eq. (6) I/O term."""
        return self.io_dollars / self.iops


class StorageHierarchy:
    """An ordered stack of tiers, fastest/most expensive first.

    Validates the shape the per-pair breakeven math assumes: capacity
    prices strictly decrease down the stack, CPU path lengths never
    decrease, and exactly the bottom tier is the durable home.
    """

    def __init__(self, tiers: Tuple[TierSpec, ...] | List[TierSpec]) -> None:
        stack = tuple(tiers)
        if len(stack) < 2:
            raise ValueError("a hierarchy needs at least two tiers")
        names = [tier.name for tier in stack]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tier names in {names}")
        for upper, lower in zip(stack, stack[1:]):
            if lower.dollars_per_byte >= upper.dollars_per_byte:
                raise ValueError(
                    f"tier {lower.name!r} must be strictly cheaper per "
                    f"byte than {upper.name!r} above it"
                )
            if lower.cpu_path_r < upper.cpu_path_r:
                raise ValueError(
                    f"tier {lower.name!r} cannot have a shorter CPU path "
                    f"than {upper.name!r} above it"
                )
        for tier in stack[:-1]:
            if tier.durable_home:
                raise ValueError(
                    f"tier {tier.name!r}: only the bottom tier can be "
                    f"the durable home"
                )
        if not stack[-1].durable_home:
            raise ValueError("the bottom tier must be the durable home")
        self.tiers = stack

    # -- structure --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.tiers)

    def __iter__(self) -> Iterator[TierSpec]:
        return iter(self.tiers)

    def __getitem__(self, index: int) -> TierSpec:
        return self.tiers[index]

    @property
    def top(self) -> TierSpec:
        return self.tiers[0]

    @property
    def home(self) -> TierSpec:
        """The durable home (bottom) tier."""
        return self.tiers[-1]

    def get(self, name: str) -> TierSpec:
        for tier in self.tiers:
            if tier.name == name:
                return tier
        raise KeyError(f"no tier named {name!r}")

    def pairs(self) -> List[Tuple[TierSpec, TierSpec]]:
        """Adjacent (upper, lower) pairs, fastest boundary first."""
        return list(zip(self.tiers, self.tiers[1:]))

    # -- presets ----------------------------------------------------------

    @classmethod
    def paper_2018(cls) -> "StorageHierarchy":
        """The paper's own two tiers: DRAM over one NVMe-class SSD.

        Built from the Table 1 constants
        (:class:`~repro.core.catalog.CostCatalog` defaults), so
        ``tier_pair_breakeven`` over this hierarchy reduces *exactly*
        to Equation (6)'s ~45 s — the regression the tests pin.
        """
        return cls((
            TierSpec(
                name="dram", dollars_per_byte=5.0e-9,
                access_latency_s=100e-9, iops=1.0e9, io_dollars=0.0,
                cpu_path_r=1.0,
            ),
            TierSpec(
                name="nvme-ssd", dollars_per_byte=0.5e-9,
                access_latency_s=80e-6, iops=2.0e5, io_dollars=50.0,
                cpu_path_r=5.8, durable_home=True,
            ),
        ))

    @classmethod
    def cxl_2026(cls) -> "StorageHierarchy":
        """The engine's runtime hierarchy: DRAM / CXL far memory / NVMe.

        What the simulated Deuteronomy engine can actually execute: the
        NVMe log store is the durable home, and a CXL-class far-memory
        tier sits between it and DRAM as the demotion target for pages
        whose access rate clears the CXL/NVMe breakeven but not the
        DRAM/CXL one.  (The object store of :meth:`modern_2026` is an
        analysis-only tier; the engine has no remote device model.)
        """
        return cls((
            TierSpec(
                name="dram", dollars_per_byte=5.0e-9,
                access_latency_s=100e-9, iops=1.0e9, io_dollars=0.0,
                cpu_path_r=1.0,
            ),
            TierSpec(
                name="cxl-far-memory", dollars_per_byte=2.0e-9,
                access_latency_s=400e-9, iops=2.0e8, io_dollars=0.0,
                cpu_path_r=1.6,
            ),
            TierSpec(
                name="nvme-ssd", dollars_per_byte=0.5e-9,
                access_latency_s=80e-6, iops=2.0e5, io_dollars=50.0,
                cpu_path_r=5.8, durable_home=True,
            ),
        ))

    @classmethod
    def modern_2026(cls) -> "StorageHierarchy":
        """A 2026-flavored four-tier stack.

        DRAM and CXL-attached far memory are load/store tiers (no I/O
        device term; the CXL path's extra latency and fabric traversal
        show up as a modestly longer CPU path, R ~ 1.6).  NVMe keeps
        the paper's measured R = 5.8 I/O path.  The object store is the
        durable home: negligible rent, but a long request path (HTTP +
        auth + network stack, R ~ 12) on a low-request-rate front end
        priced like the 2025 revisit's $-per-request figures.
        """
        return cls((
            TierSpec(
                name="dram", dollars_per_byte=5.0e-9,
                access_latency_s=100e-9, iops=1.0e9, io_dollars=0.0,
                cpu_path_r=1.0,
            ),
            TierSpec(
                name="cxl-far-memory", dollars_per_byte=2.0e-9,
                access_latency_s=400e-9, iops=2.0e8, io_dollars=0.0,
                cpu_path_r=1.6,
            ),
            TierSpec(
                name="nvme-ssd", dollars_per_byte=0.5e-9,
                access_latency_s=80e-6, iops=2.0e5, io_dollars=50.0,
                cpu_path_r=5.8,
            ),
            TierSpec(
                name="object-store", dollars_per_byte=0.02e-9,
                access_latency_s=30e-3, iops=5.0e3, io_dollars=4.0,
                cpu_path_r=12.0, durable_home=True,
            ),
        ))
