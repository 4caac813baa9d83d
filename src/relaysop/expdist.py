"""Distribution kit over independent non-identically distributed exponentials.

Order-statistic CDFs/PDFs built by inclusion-exclusion over rate
sub-multisets (equal rates grouped, each sub-multiset weighted by the number
of subsets it stands for),
two-exponential convolution coefficients, and the general sum-of-exponentials
(hypoexponential) mixture. Everything is expressed as mixtures of
exponential terms sum(c_i * exp(-r_i * x)) so the engines can integrate them
in closed form.

Alternating-sign sums are evaluated with math.fsum; near-coincident rates are
spread apart by the perturbation policy and, where the resulting coefficient
cancellation would eat more than a few digits, the coefficients are computed
and summed in mpmath at adaptive precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Sequence

import mpmath as mp

from .errors import EmptyExclusionError, UnsupportedSizeError

#: rates closer than this (relative) are treated as equal
EPS_EQUAL_RATE = 1e-9
#: multiplicative offset scale used to spread near-equal rates apart
SPREAD_OFFSET = 1e-6
#: subset enumeration grows as 2^N for distinct rates; hard cap for the
#: closed-form engines
MAX_RATES = 8
#: extra decimal digits beyond the estimated cancellation loss
_DPS_BASE = 25


def _validate_rates(rates: Sequence[float], what: str = "rates") -> tuple:
    rates = tuple(float(r) for r in rates)
    if not rates:
        raise ValueError(f"{what} must be a nonempty list")
    for r in rates:
        if not math.isfinite(r) or r <= 0:
            raise ValueError(f"{what} must be strictly positive and finite, got {r!r}")
    return rates


def subset_rate_sums(rates: Sequence[float]):
    """All (size m, rate sum, count) triples over the nonempty sub-multisets.

    This is the enumerator behind the max-of-exponentials inclusion-exclusion
    expansion. Exactly equal rates form one group; a sub-multiset takes j_g
    of the m_g rates of group g and stands for count = prod(C(m_g, j_g))
    subsets, all of size m = sum(j_g) and with the same rate sum (math.fsum
    rounds the exact sum once, whatever the order of its addends). There are
    prod(m_g + 1) - 1 entries instead of 2^N - 1, so N identical rates need
    only N, and the counts add up to 2^N - 1. Capped at MAX_RATES rates.
    """
    rates = tuple(rates)
    n = len(rates)
    if n > MAX_RATES:
        raise UnsupportedSizeError(
            f"subset enumeration supports at most {MAX_RATES} rates, got {n}; "
            "use the Monte Carlo engine for larger networks")
    groups: dict = {}
    for r in rates:
        groups[r] = groups.get(r, 0) + 1
    out = []
    for picks in product(*(range(size + 1) for size in groups.values())):
        m = sum(picks)
        if m:
            count = math.prod(math.comb(size, j) for size, j in zip(groups.values(), picks))
            rate_sum = math.fsum(r for r, j in zip(groups, picks) for _ in range(j))
            out.append((m, rate_sum, count))
    return out


def max_exp_cdf(rates: Sequence[float], x: float) -> float:
    """CDF of max of independent exponentials, by inclusion-exclusion.

    Equals prod(1 - exp(-r_i * x)); the alternating-sum form is what the
    closed-form engines consume, so it is what we test against the product.
    """
    rates = _validate_rates(rates)
    if x < 0:
        raise ValueError(f"evaluation point must be >= 0, got {x!r}")
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

    def __post_init__(self):
        for _, r in self.terms:
            if not (float(r) > 0 and math.isfinite(float(r))):
                raise ValueError(f"mixture rates must be strictly positive, got {r!r}")

    def _eval(self, fn) -> float:
        if self.dps:
            with mp.workdps(self.dps):
                return float(mp.fsum(fn(mp.mpf(c) if not isinstance(c, mp.mpf) else c,
                                        mp.mpf(r)) for c, r in self.terms))
        return math.fsum(fn(c, r) for c, r in self.terms)

    def pdf(self, x: float) -> float:
        """Density at x >= 0."""
        if x < 0:
            raise ValueError("mixture support is x >= 0")
        if self.dps:
            return self._eval(lambda c, r: c * mp.exp(-r * x))
        return math.fsum(c * math.exp(-r * x) for c, r in self.terms)

    def total_mass(self) -> float:
        """Integral over [0, inf); 1.0 for a proper PDF."""
        return self._eval(lambda c, r: c / r)

    def cdf(self, x: float) -> float:
        """Integral over [0, x]."""
        if x < 0:
            raise ValueError("mixture support is x >= 0")
        if self.dps:
            return self._eval(lambda c, r: c / r * (1 - mp.exp(-r * x)))
        return math.fsum(c / r * -math.expm1(-r * x) for c, r in self.terms)

    def tail_mass(self, x: float) -> float:
        """Integral over [x, inf)."""
        if self.dps:
            return self._eval(lambda c, r: c / r * mp.exp(-r * x))
        return math.fsum(c / r * math.exp(-r * x) for c, r in self.terms)

    def exp_tilt_tail(self, s: float, x: float) -> float:
        """Integral of f(y) * exp(-s*y) over [x, inf), for s > -min(rates)."""
        if self.dps:
            return self._eval(lambda c, r: c * mp.exp(-(r + s) * x) / (r + s))
        return math.fsum(c * math.exp(-(r + s) * x) / (r + s) for c, r in self.terms)


def excl_max_pdf(rates: Sequence[float], k: int) -> ExpMixture:
    """PDF of max over all rates except index k (0-based), as an ExpMixture.

    Differentiating the inclusion-exclusion CDF gives terms
    (-1)^(m+1) * s * exp(-s*x) over the nonempty subsets of the remaining
    rates, with s the subset rate sum; the subsets of one sub-multiset share
    one term weighted by their count.
    """
    rates = _validate_rates(rates)
    if not 0 <= k < len(rates):
        raise ValueError(f"index {k} out of range for {len(rates)} rates")
    if len(rates) < 2:
        raise EmptyExclusionError(
            "excluding the only rate leaves nothing to take a maximum over; "
            "single-relay networks are handled by the dedicated closed form")
    others = rates[:k] + rates[k + 1:]
    terms = tuple((count * (-1.0) ** (m + 1) * s, s)
                  for m, s, count in subset_rate_sums(others))
    return ExpMixture(terms)


def excl_min_rate(rates: Sequence[float], k: int) -> float:
    """Rate of min over all rates except index k: the sum of the others."""
    rates = _validate_rates(rates)
    if not 0 <= k < len(rates):
        raise ValueError(f"index {k} out of range for {len(rates)} rates")
    if len(rates) < 2:
        raise EmptyExclusionError(
            "excluding the only rate leaves nothing to take a minimum over")
    return math.fsum(rates[:k] + rates[k + 1:])


@dataclass(frozen=True)
class SumPairCoeffs:
    """PDF of the sum of two independent exponentials.

    Non-degenerate: f(x) = b1*exp(-rate1*x) + b2*exp(-rate2*x).
    Degenerate (equal rates): the Erlang-2 density rate1^2 * x * exp(-rate1*x),
    with b1 = b2 = 0 as placeholders.
    """

    b1: float
    rate1: float
    b2: float
    rate2: float
    degenerate: bool = False

    def pdf(self, x: float) -> float:
        if x < 0:
            raise ValueError("support is x >= 0")
        if self.degenerate:
            return self.rate1 * self.rate1 * x * math.exp(-self.rate1 * x)
        return self.b1 * math.exp(-self.rate1 * x) + self.b2 * math.exp(-self.rate2 * x)


def sum_pair_coeffs(rate_a: float, rate_b: float) -> SumPairCoeffs:
    """Convolution coefficients for Exp(rate_a) + Exp(rate_b).

    b1 = a*b/(a-b) pairs with exp(-b*x) and b2 = a*b/(b-a) with exp(-a*x);
    rates closer than EPS_EQUAL_RATE relative collapse to the Erlang-2 branch.
    """
    (rate_a, rate_b) = _validate_rates((rate_a, rate_b), "rate pair")
    if abs(rate_a - rate_b) <= EPS_EQUAL_RATE * max(rate_a, rate_b):
        return SumPairCoeffs(0.0, rate_a, 0.0, rate_a, degenerate=True)
    b1 = rate_a * rate_b / (rate_a - rate_b)
    b2 = rate_a * rate_b / (rate_b - rate_a)
    return SumPairCoeffs(b1, rate_b, b2, rate_a)


def spread_rates(rates: Sequence[float], eps: float = EPS_EQUAL_RATE,
                 offset: float = SPREAD_OFFSET) -> tuple:
    """Nudge near-equal rates apart so difference products stay nonzero.

    Rates within `eps` relative of each other (transitively) form a group;
    each group member i gets a multiplicative offset centered on zero,
    (pos - (g-1)/2) * offset, so the group mean is preserved to first order
    and the induced distribution bias is O(offset^2). Positions follow the
    original index order for determinism. Output keeps the input order.
    """
    rates = _validate_rates(rates)
    n = len(rates)
    order = sorted(range(n), key=lambda i: (rates[i], i))
    while True:
        groups = []
        for idx in order:
            if groups:
                prev = groups[-1][-1]
                if rates[idx] - rates[prev] <= eps * max(rates[idx], rates[prev]):
                    groups[-1].append(idx)
                    continue
            groups.append([idx])
        out = list(rates)
        for g in groups:
            if len(g) > 1:
                center = (len(g) - 1) / 2.0
                for pos, idx in enumerate(sorted(g)):
                    out[idx] = rates[idx] * (1.0 + (pos - center) * offset)
        if len(set(out)) == n:
            return tuple(out)
        offset *= 2.0  # pathological collision with a neighboring group


def _digit_loss(rates: Sequence[float]) -> float:
    """Worst-case decimal digits lost to cancellation in difference products."""
    worst = 0.0
    for i, ri in enumerate(rates):
        loss = 0.0
        for j, rj in enumerate(rates):
            if j == i:
                continue
            rel = abs(rj - ri) / max(ri, rj)
            if rel <= 0:
                raise ValueError("rates must be pairwise distinct (spread them first)")
            if rel < 1.0:
                loss += -math.log10(rel)
        worst = max(worst, loss)
    return worst


def working_dps(*rate_lists) -> int:
    """mpmath precision needed to evaluate difference-product coefficient sums."""
    loss = 0.0
    for rates in rate_lists:
        if len(rates) > 1:
            loss = max(loss, _digit_loss(rates))
    return min(400, _DPS_BASE + int(math.ceil(loss)))


def hypoexp_cdf_weights(rates: Sequence[float]):
    """Weights (w_i, r_i) with F(x) = 1 - sum(w_i * exp(-r_i * x)).

    Requires pairwise distinct rates (apply spread_rates first). Falls back
    to mpmath when the difference products would cancel away more than a few
    float digits; weights are then mpmath values and the caller's mixture
    carries the working precision.
    """
    rates = _validate_rates(rates)
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
    dps = min(400, _DPS_BASE + int(math.ceil(loss)))
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


def hypoexp_pdf(rates: Sequence[float]) -> ExpMixture:
    """PDF of the sum of independent exponentials with the given rates.

    Near-equal rates are separated by the spread policy first; the mixture
    then uses the distinct-rate coefficient formula. Permutation-invariant
    up to term order.
    """
    rates = spread_rates(_validate_rates(rates))
    if len(rates) > MAX_RATES + 1:
        raise UnsupportedSizeError(
            f"hypoexponential mixtures support at most {MAX_RATES + 1} rates")
    weights, dps = hypoexp_cdf_weights(rates)
    with mp.workdps(max(dps, mp.mp.dps)):
        terms = tuple((w * r, r) for w, r in weights)
    return ExpMixture(terms, dps=dps)


def hypoexp_cdf(rates: Sequence[float], x: float) -> float:
    """CDF at x of the sum of independent exponentials with the given rates."""
    if x < 0:
        raise ValueError(f"evaluation point must be >= 0, got {x!r}")
    return min(1.0, max(0.0, hypoexp_pdf(rates).cdf(x)))
