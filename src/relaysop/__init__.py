"""Secrecy outage probability of cooperative DF relay networks.

Three mutually cross-validating engines evaluate the same outage
probability: closed forms (`analytic`), simulation (`montecarlo`), and
direct integration of the defining probabilities (`quadrature`).
"""

from .analytic import (SchemeTermBreakdown, diversity_slope, max_e_breakdown,
                       min_e_breakdown, slope_between, sop_analytic,
                       sop_max_e, sop_max_mrc, sop_min_e, sop_mrc_mrc)
from .errors import (ConvergenceError, EmptyExclusionError,
                     SlopeUndefinedError, UnsupportedSizeError)
from .expdist import (ExpMixture, SumPairCoeffs, excl_max_pdf, excl_min_rate,
                      hypoexp_cdf, hypoexp_pdf, max_exp_cdf, spread_rates,
                      sum_pair_coeffs)
from .model import (Engine, NetworkConfig, Scheme, SecrecyTarget, SopResult,
                    db_to_rate, dual_hop_snr, secrecy_outage, secrecy_rate,
                    validate_config)
from .montecarlo import (ChannelRealization, McSettings, estimate_sop,
                         estimate_sop_grid, estimate_sop_many, run_scheme,
                         sample_realization)
from .quadrature import QuadSettings, sop_quadrature
from .sweep import SweepRow, SweepSpec, parse_sweep_spec, run_sweep, write_rows

__all__ = [
    "ChannelRealization", "ConvergenceError", "EmptyExclusionError",
    "Engine", "ExpMixture", "McSettings", "NetworkConfig", "QuadSettings",
    "Scheme", "SchemeTermBreakdown", "SecrecyTarget", "SlopeUndefinedError",
    "SopResult", "SumPairCoeffs", "SweepRow", "SweepSpec",
    "UnsupportedSizeError", "db_to_rate", "diversity_slope", "dual_hop_snr",
    "estimate_sop", "estimate_sop_grid", "estimate_sop_many",
    "excl_max_pdf", "excl_min_rate",
    "hypoexp_cdf", "hypoexp_pdf", "max_e_breakdown", "max_exp_cdf", "min_e_breakdown",
    "parse_sweep_spec", "run_scheme", "run_sweep", "sample_realization",
    "secrecy_outage", "secrecy_rate", "slope_between", "sop_analytic", "sop_max_e",
    "sop_max_mrc", "sop_min_e", "sop_mrc_mrc", "sop_quadrature",
    "spread_rates", "sum_pair_coeffs", "validate_config", "write_rows",
]

__version__ = "0.1.0"
