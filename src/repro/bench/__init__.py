"""Experiment drivers regenerating every figure, table and ablation.

See DESIGN.md Section 4 for the experiment index.  The reproduction is
one table, :data:`EXPERIMENTS` (``repro.bench.experiments``): each row
measures one flat dict of values, :func:`render` prints the rows/series
the paper reports from it, and :func:`check_shapes` scores the paper's
claims about it one named claim at a time.
"""

from .experiments import EXPERIMENTS, check_shapes
from .reporting import format_table, render

__all__ = ["EXPERIMENTS", "check_shapes", "format_table", "render"]
