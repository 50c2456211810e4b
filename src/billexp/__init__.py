"""Dispersing-billiard simulation and expansion-estimate verification."""

__version__ = "0.1.0"

from .bmap import (
    PhasePoint,
    certify_expansion_constant,
    certify_hyperbolicity,
    estimate_constants,
    forward,
    inverse,
    strip_index,
)
from .geometry import BilliardTable, build_table
from .singularities import (
    active_sector_conservation,
    classify_sectors,
    find_multiple_points,
    regular_complexity,
    sector_portrait,
    trace_singularity,
)
from .tables import load_builtin
from .ucurves import (
    FittedConstants,
    certify_length_constant,
    evolve_n,
    fit_constants,
    seed_ucurve,
    select_N,
    sup_scan,
)

__all__ = [
    "BilliardTable",
    "FittedConstants",
    "PhasePoint",
    "__version__",
    "active_sector_conservation",
    "build_table",
    "certify_expansion_constant",
    "certify_hyperbolicity",
    "certify_length_constant",
    "classify_sectors",
    "estimate_constants",
    "evolve_n",
    "find_multiple_points",
    "fit_constants",
    "forward",
    "inverse",
    "load_builtin",
    "regular_complexity",
    "sector_portrait",
    "seed_ucurve",
    "select_N",
    "strip_index",
    "sup_scan",
    "trace_singularity",
]
