"""Reference implementations the tests compare the engines against.

None of this runs in the package: each function restates a quantity in its
plainest form (scalar loops, explicit mixtures) so a test can check the
vectorized or closed-form production code against it. Inputs come from the
tests, so nothing here validates them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import mpmath as mp

from relaysop.expdist import (_digit_loss, spread_rates, subset_rate_sums,
                              working_dps)
from relaysop.model import Scheme


def secrecy_rate(gamma_m: float, gamma_e: float) -> float:
    """Achievable secrecy rate 0.5*log2((1+gamma_m)/(1+gamma_e)), clamped at 0.

    The 1/2 accounts for the two time slots of the relayed transmission.
    """
    return max(0.0, 0.5 * math.log2((1.0 + gamma_m) / (1.0 + gamma_e)))


class ChannelRealization(NamedTuple):
    """One draw of all 3N+2 instantaneous link SNRs."""

    gamma_sk: tuple
    gamma_kd: tuple
    gamma_sd: float
    gamma_ke: tuple
    gamma_se: float


def run_scheme(r: ChannelRealization, scheme: Scheme):
    """Combined (gamma_m, gamma_e) at destination and eavesdropper.

    Selection ties break toward the lowest relay index.
    """
    n = len(r.gamma_ke)
    gkd_eff = [min(s, d) for s, d in zip(r.gamma_sk, r.gamma_kd)]
    if scheme is Scheme.MAX_E:
        k = max(range(n), key=lambda i: r.gamma_ke[i])
        return r.gamma_sd + gkd_eff[k], r.gamma_se + r.gamma_ke[k]
    if scheme is Scheme.MIN_E:
        k = min(range(n), key=lambda i: r.gamma_ke[i])
        return r.gamma_sd + gkd_eff[k], r.gamma_se + r.gamma_ke[k]
    gm = r.gamma_sd + math.fsum(gkd_eff)
    if scheme is Scheme.MAX_MRC:
        return gm, r.gamma_se + max(r.gamma_ke)
    return gm, r.gamma_se + math.fsum(r.gamma_ke)


def max_exp_cdf(rates, x: float) -> float:
    """CDF of max of independent exponentials, by inclusion-exclusion.

    Equals prod(1 - exp(-r_i * x)); the alternating-sum form is what the
    closed-form engines consume, so it is what we test against the product.
    """
    terms = [1.0]
    for m, s, count in subset_rate_sums(rates):
        terms.append(count * (-1.0) ** m * math.exp(-x * s))
    return min(1.0, max(0.0, math.fsum(terms)))


@dataclass(frozen=True)
class ExpMixture:
    """f(x) = sum(c * exp(-r * x)) on x >= 0, as (coefficient, rate) terms.

    Coefficients may be mpmath values when they came out of a near-confluent
    rate set; `dps` records the working precision those need. Evaluation
    always returns floats.
    """

    terms: tuple
    dps: int = 0

    def _eval(self, fn) -> float:
        if self.dps:
            with mp.workdps(self.dps):
                return float(mp.fsum(fn(mp.mpf(c) if not isinstance(c, mp.mpf) else c,
                                        mp.mpf(r)) for c, r in self.terms))
        return math.fsum(fn(c, r) for c, r in self.terms)

    def pdf(self, x: float) -> float:
        """Density at x >= 0."""
        if self.dps:
            return self._eval(lambda c, r: c * mp.exp(-r * x))
        return math.fsum(c * math.exp(-r * x) for c, r in self.terms)

    def total_mass(self) -> float:
        """Integral over [0, inf); 1.0 for a proper PDF."""
        return self._eval(lambda c, r: c / r)

    def cdf(self, x: float) -> float:
        """Integral over [0, x]."""
        if self.dps:
            return self._eval(lambda c, r: c / r * (1 - mp.exp(-r * x)))
        return math.fsum(c / r * -math.expm1(-r * x) for c, r in self.terms)


def excl_max_pdf(rates, k: int) -> ExpMixture:
    """PDF of max over all rates except index k (0-based), as an ExpMixture.

    Differentiating the inclusion-exclusion CDF gives terms
    (-1)^(m+1) * s * exp(-s*x) over the nonempty subsets of the remaining
    rates, with s the subset rate sum; the subsets of one sub-multiset share
    one term weighted by their count.
    """
    others = tuple(rates[:k]) + tuple(rates[k + 1:])
    terms = tuple((count * (-1.0) ** (m + 1) * s, s)
                  for m, s, count in subset_rate_sums(others))
    return ExpMixture(terms)


def hypoexp_cdf_weights(rates):
    """Weights (w_i, r_i) with F(x) = 1 - sum(w_i * exp(-r_i * x)).

    Requires pairwise distinct rates (apply spread_rates first). Falls back
    to mpmath when the difference products would cancel away more than a few
    float digits; weights are then mpmath values and the caller's mixture
    carries the working precision.
    """
    if len(rates) == 1:
        return [(1.0, rates[0])], 0
    loss = _digit_loss(rates)
    if loss <= 6.0:
        weights = []
        for i, ri in enumerate(rates):
            w = 1.0
            for j, rj in enumerate(rates):
                if j != i:
                    w *= rj / (rj - ri)
            weights.append((w, ri))
        return weights, 0
    dps = working_dps(rates)
    with mp.workdps(dps):
        mprates = [mp.mpf(r) for r in rates]
        weights = []
        for i, ri in enumerate(mprates):
            w = mp.mpf(1)
            for j, rj in enumerate(mprates):
                if j != i:
                    w *= rj / (rj - ri)
            weights.append((w, rates[i]))
    return weights, dps


def hypoexp_pdf(rates) -> ExpMixture:
    """PDF of the sum of independent exponentials with the given rates.

    Near-equal rates are separated by the spread policy first; the mixture
    then uses the distinct-rate coefficient formula. Permutation-invariant
    up to term order.
    """
    rates = spread_rates(rates)
    weights, dps = hypoexp_cdf_weights(rates)
    with mp.workdps(max(dps, mp.mp.dps)):
        terms = tuple((w * r, r) for w, r in weights)
    return ExpMixture(terms, dps=dps)
