"""Domain model: network description, secrecy-rate arithmetic, result types.

All rate parameters are exponential rates in linear scale (mean link SNR =
1/rate). Decibels appear only at I/O boundaries; convert once on input with
``db_to_rate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence


class Scheme(Enum):
    """The four eavesdropping / relay-selection schemes."""

    MAX_E = "max-e"      # eavesdropper proactively selects its best-tapped relay
    MIN_E = "min-e"      # system selects the relay with the weakest tap to E
    MAX_MRC = "max-mrc"  # passive E takes its best relayed link, D combines all
    MRC_MRC = "mrc-mrc"  # both E and D combine all relayed links with the direct one


class Engine(Enum):
    """Which engine produced a SOP estimate."""

    ANALYTIC = "analytic"
    MONTE_CARLO = "monte_carlo"
    QUADRATURE = "quadrature"


def db_to_rate(mean_snr_db: float) -> float:
    """Exponential rate for a mean link SNR given in dB: 10^(-dB/10)."""
    if not (isinstance(mean_snr_db, (int, float)) and math.isfinite(mean_snr_db)):
        raise ValueError(f"mean SNR in dB must be finite, got {mean_snr_db!r}")
    try:
        return 10.0 ** (-mean_snr_db / 10.0)
    except OverflowError:
        raise ValueError(f"mean SNR {mean_snr_db!r} dB is too low: its rate "
                         f"10^(-dB/10) overflows a float") from None


@dataclass(frozen=True)
class SecrecyTarget:
    """Secrecy-rate threshold rs (bits per channel use) and rho = 2^(2*rs).

    rho is precomputed once; every engine phrases the outage event through it.
    """

    rs: float
    rho: float = field(init=False)

    def __post_init__(self):
        if not (isinstance(self.rs, (int, float)) and math.isfinite(self.rs)) or self.rs < 0:
            raise ValueError(f"threshold rate must be finite and >= 0, got {self.rs!r}")
        object.__setattr__(self, "rs", float(self.rs))
        try:
            object.__setattr__(self, "rho", 2.0 ** (2.0 * self.rs))
        except OverflowError:
            raise ValueError(f"threshold rate {self.rs!r} is too large: "
                             f"rho = 2^(2*rs) overflows a float") from None


def secrecy_outage(gamma_m: float, gamma_e: float, target: SecrecyTarget) -> bool:
    """Canonical outage event: (1+gamma_m) < rho*(1+gamma_e).

    Equivalent to the unclamped secrecy rate 0.5*log2((1+gm)/(1+ge)) falling
    below rs; at rs = 0 this is the intercept event (negative secrecy
    capacity), which the clamped rate cannot express. The ratio form also
    avoids log/exp rounding at the threshold, so it is the one every engine
    uses. Ties count as non-outage (strict inequality).
    """
    return (1.0 + gamma_m) < target.rho * (1.0 + gamma_e)


@dataclass(frozen=True)
class NetworkConfig:
    """Exponential rate parameters of all links in the relay network.

    beta_* are legitimate-side rates (source->relay_k, relay_k->destination,
    source->destination), alpha_* are eavesdropper-side rates. Mean link SNR
    is 1/rate. The effective dual-hop rate of relay k is
    beta_sk[k] + beta_kd[k].
    """

    n_relays: int
    beta_sk: tuple
    beta_kd: tuple
    beta_sd: float
    alpha_ke: tuple
    alpha_se: float

    def __post_init__(self):
        object.__setattr__(self, "beta_sk", tuple(float(x) for x in self.beta_sk))
        object.__setattr__(self, "beta_kd", tuple(float(x) for x in self.beta_kd))
        object.__setattr__(self, "alpha_ke", tuple(float(x) for x in self.alpha_ke))

    @classmethod
    def from_mean_snr_db(cls, sr_db: Sequence[float], rd_db: Sequence[float],
                         sd_db: float, re_db: Sequence[float], se_db: float) -> "NetworkConfig":
        """Build a config from per-link mean SNRs in dB."""
        return cls(
            n_relays=len(tuple(sr_db)),
            beta_sk=tuple(db_to_rate(x) for x in sr_db),
            beta_kd=tuple(db_to_rate(x) for x in rd_db),
            beta_sd=db_to_rate(sd_db),
            alpha_ke=tuple(db_to_rate(x) for x in re_db),
            alpha_se=db_to_rate(se_db),
        )

    @property
    def beta_kD(self) -> tuple:
        """Per-relay dual-hop rates beta_sk + beta_kd."""
        return tuple(a + b for a, b in zip(self.beta_sk, self.beta_kd))


def _check_rate(value, name: str, violations: list):
    if not (isinstance(value, (int, float)) and math.isfinite(value)) or value <= 0:
        violations.append(f"{name}: rate must be strictly positive and finite, got {value!r}")


def validate_config(config: NetworkConfig) -> list:
    """Return every invariant violation found (empty list means valid)."""
    violations = []
    n = config.n_relays
    if not isinstance(n, int) or n < 1:
        violations.append(f"n_relays: must be a positive integer, got {n!r}")
        return violations
    for name, values in (("beta_sk", config.beta_sk),
                         ("beta_kd", config.beta_kd),
                         ("alpha_ke", config.alpha_ke)):
        if len(values) != n:
            violations.append(f"{name}: length mismatch, expected {n} entries, got {len(values)}")
        for i, v in enumerate(values):
            _check_rate(v, f"{name}[{i}]", violations)
    _check_rate(config.beta_sd, "beta_sd", violations)
    _check_rate(config.alpha_se, "alpha_se", violations)
    if not violations:
        for k, v in enumerate(config.beta_kD):
            _check_rate(v, f"beta_kD[{k}]", violations)
    return violations


def require_valid(config: NetworkConfig) -> None:
    """Raise ValueError listing every violation if the config is invalid."""
    violations = validate_config(config)
    if violations:
        raise ValueError("invalid network config: " + "; ".join(violations))


@dataclass(frozen=True)
class SopResult:
    """A secrecy outage probability with its provenance.

    ci_halfwidth is the 95% confidence half-width and is present exactly for
    Monte Carlo results; it may exceed the [0,1] range when added to value,
    so ci_bounds() clips on report.
    """

    value: float
    engine: Engine
    trials: Optional[int] = None
    ci_halfwidth: Optional[float] = None
    seed: Optional[int] = None

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"SOP must lie in [0,1], got {self.value!r}")
        is_mc = self.engine is Engine.MONTE_CARLO
        if is_mc and self.ci_halfwidth is None:
            raise ValueError("Monte Carlo results must carry a confidence half-width")
        if not is_mc and self.ci_halfwidth is not None:
            raise ValueError("only Monte Carlo results carry a confidence half-width")
        if self.ci_halfwidth is not None and self.ci_halfwidth < 0:
            raise ValueError("confidence half-width must be nonnegative")

    def ci_bounds(self) -> tuple:
        """95% interval clipped to [0,1]; equals (value, value) when exact."""
        hw = self.ci_halfwidth or 0.0
        return (max(0.0, self.value - hw), min(1.0, self.value + hw))
