"""Secrecy outage probability of cooperative DF relay networks.

Three mutually cross-validating engines evaluate the same outage
probability: closed forms (`analytic`), simulation (`montecarlo`), and
direct integration of the defining probabilities (`quadrature`).
"""

from .analytic import (SchemeTermBreakdown, diversity_slope, max_e_breakdown,
                       min_e_breakdown, slope_between, sop_analytic,
                       sop_max_e, sop_max_mrc, sop_min_e, sop_mrc_mrc)
from .errors import ConvergenceError, SlopeUndefinedError, UnsupportedSizeError
from .model import (Engine, NetworkConfig, Scheme, SecrecyTarget, SopResult,
                    db_to_rate, secrecy_outage, validate_config)
from .montecarlo import (McSettings, estimate_sop, estimate_sop_grid,
                         estimate_sop_many)
from .quadrature import QuadSettings, sop_quadrature
from .sweep import SweepRow, SweepSpec, parse_sweep_spec, run_sweep, write_rows

__all__ = [
    "ConvergenceError", "Engine", "McSettings", "NetworkConfig",
    "QuadSettings", "Scheme", "SchemeTermBreakdown", "SecrecyTarget",
    "SlopeUndefinedError", "SopResult", "SweepRow", "SweepSpec",
    "UnsupportedSizeError", "db_to_rate", "diversity_slope",
    "estimate_sop", "estimate_sop_grid", "estimate_sop_many",
    "max_e_breakdown", "min_e_breakdown", "parse_sweep_spec", "run_sweep",
    "secrecy_outage", "slope_between", "sop_analytic", "sop_max_e",
    "sop_max_mrc", "sop_min_e", "sop_mrc_mrc", "sop_quadrature",
    "validate_config", "write_rows",
]

__version__ = "0.1.0"
