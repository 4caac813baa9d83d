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
import numpy as np

import relaysop.analytic as analytic
from relaysop.expdist import (_digit_loss, spread_rates, subset_rate_sums,
                              working_dps)
from relaysop.model import Scheme


def secrecy_outage(gamma_m: float, gamma_e: float, target) -> bool:
    """The outage event every engine counts: (1+gamma_m) < rho*(1+gamma_e).

    Equivalent to the unclamped secrecy rate 0.5*log2((1+gm)/(1+ge)) falling
    below rs; at rs = 0 this is the intercept event (negative secrecy
    capacity), which the clamped rate cannot express. Ties count as
    non-outage (strict inequality).
    """
    return (1.0 + gamma_m) < target.rho * (1.0 + gamma_e)


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


# The quadrature integrand pieces in their plainest form: every call
# rebuilds its per-term constants. The package's plan evaluators
# (quadrature._tap_plan, quadrature._phase_plan) must match them bit for bit.


def erlang_tail(order: int, x: float) -> float:
    """P[Erlang(order, 1) > x] = e^{-x} * sum_{i<order} x^i/i!."""
    e = math.exp(-x)
    if e == 0.0:
        return 0.0
    acc = 1.0
    term = 1.0
    for i in range(1, order):
        term *= x / i
        acc += term
    return e * acc


def phase_survival(terms, v: float) -> float:
    """P[X > v] for the poly-exponential density terms; exact at v <= 0."""
    if v <= 0.0:
        return 1.0
    total = 0.0
    for c, p, r in terms:
        total += c * math.factorial(p) / r ** (p + 1) * erlang_tail(p + 1, r * v)
    return total


def tilted_poly_exp(alpha: float, r: float, rho: float, v0: float, i: int) -> float:
    """E_z[e^{-r(v0+rho z)} (r(v0+rho z))^i / i!] with z ~ Exp(alpha), v0 >= 0."""
    e = math.exp(-r * v0)
    if e == 0.0:
        return 0.0
    rv = r * v0
    rr = r * rho
    heads = [1.0]  # heads[m] = (rv)^m / m!
    for m in range(1, i + 1):
        heads.append(heads[-1] * rv / m)
    acc = 0.0
    tail = 1.0 / (alpha + rr)  # (rr)^j / (alpha+rr)^{j+1}, walked up in j
    for j in range(i + 1):
        acc += heads[i - j] * tail
        tail *= rr / (alpha + rr)
    return alpha * e * acc


def mean_over_direct_tap(terms, alpha_se: float, rho: float, v0: float,
                         survival: bool) -> float:
    """E_z of the legitimate-sum survival (or density) at v0 + rho*z.

    z is the eavesdropper direct-link SNR, Exp(alpha_se). Survival terms use
    the Erlang tail expansion; density terms a single tilted integral each.
    """
    total = 0.0
    for c, p, r in terms:
        if survival:
            scale = c * math.factorial(p) / r ** (p + 1)
            total += scale * math.fsum(
                tilted_poly_exp(alpha_se, r, rho, v0, i) for i in range(p + 1))
        else:
            total += c * math.factorial(p) / r ** p * tilted_poly_exp(
                alpha_se, r, rho, v0, p)
    return total


# Monte Carlo references: a chunk drawn with one rng.random call per link
# group and reduced over whole-chunk arrays. The package's block reductions
# (montecarlo._eavesdropper_half, montecarlo._legitimate_half) must match
# them bit for bit.


def five_call_chunk(cfg, seed, chunk_index, n_trials):
    """Reference draw: one rng.random call per link group, sk, kd, sd, ke, se."""
    rng = np.random.default_rng((seed, chunk_index))
    n = cfg.n_relays
    shapes = ((n_trials, n), (n_trials, n), n_trials, (n_trials, n), n_trials)
    rates = (np.asarray(cfg.beta_sk), np.asarray(cfg.beta_kd), cfg.beta_sd,
             np.asarray(cfg.alpha_ke), cfg.alpha_se)
    return tuple(-np.log1p(-rng.random(shape)) / rate
                 for shape, rate in zip(shapes, rates))


def reference_snrs(arrays, scheme):
    """(gamma_M, gamma_E) of a whole chunk the way run_scheme reads:
    fancy-indexed picks, max and sums over full-chunk arrays."""
    gsk, gkd, gsd, gke, gse = arrays
    eff, rows = np.minimum(gsk, gkd), np.arange(len(gsd))
    if scheme in (Scheme.MAX_E, Scheme.MIN_E):
        k = np.argmax(gke, axis=1) if scheme is Scheme.MAX_E else np.argmin(gke, axis=1)
        return gsd + eff[rows, k], gse + gke[rows, k]
    gm = gsd + eff.sum(axis=1)
    return gm, gse + (gke.max(axis=1) if scheme is Scheme.MAX_MRC else gke.sum(axis=1))


def reference_outages(cfg, scheme, target, settings):
    """Outage count of one pair, every chunk drawn afresh with five calls."""
    outages = 0
    for c, start in enumerate(range(0, settings.trials, settings.chunk_size)):
        size = min(settings.chunk_size, settings.trials - start)
        gm, ge = reference_snrs(five_call_chunk(cfg, settings.seed, c, size), scheme)
        outages += int(np.count_nonzero((1.0 + gm) < target.rho * (1.0 + ge)))
    return outages


# The closed-form builders in mpmath's operator form: every addend is the
# same expression the package's raw-tuple builders (analytic._max_e_regions,
# analytic._cdf_weights, ...) evaluate with libmp calls, so each addend and
# each value the escalating sums return must be equal bit for bit. They sum
# through analytic._escalating_sum, looked up at call time, so a test's
# stand-in for it sees the addends of both forms.


def _raw(build):
    """build() with its (count, mpf) addends as the (count, raw mpf tuple)
    pairs analytic._escalating_sum sums."""
    return lambda: [(count, t._mpf_) for count, t in build()]


def mp_pair(beta_kD_k: float, beta_sd: float):
    """Convolution coefficients ((B1, rate_sd'), (B2, rate_kD')) of the
    per-relay legitimate sum: f_X(x) = B1*exp(-rate_sd'*x) + B2*exp(-rate_kD'*x)."""
    a, b = spread_rates((beta_kD_k, beta_sd))
    a, b = mp.mpf(a), mp.mpf(b)
    return ((a * b / (a - b), b), (a * b / (b - a), a))


def selection_relay_terms(config, target, k: int, minimize: bool):
    """Region terms of relay k under eavesdropper-max or -min selection:
    (threshold-active [, rival-boundary], slack), each an escalating sum."""
    others = config.alpha_ke[:k] + config.alpha_ke[k + 1:]
    base_dps = working_dps(spread_rates((config.beta_kD[k], config.beta_sd)))

    def constants():
        rho = mp.mpf(target.rho)
        ase = mp.mpf(config.alpha_se)
        ake = mp.mpf(config.alpha_ke[k])
        return rho, rho - 1, ase, ake, mp_pair(config.beta_kD[k], config.beta_sd)

    if not others or minimize:
        def build_threshold():
            rho, rm1, ase, ake, pairs = constants()
            alpha = mp.mpf(math.fsum(others)) if others else mp.mpf(0)
            sel = ake / (alpha + ake)
            return [(1, sel * ase * B * mp.exp(-b * rm1)
                     / ((rho * b + ase) * ((ake + alpha) / rho + b)))
                    for B, b in pairs]

        def build_slack():
            rho, rm1, ase, ake, pairs = constants()
            alpha = mp.mpf(math.fsum(others)) if others else mp.mpf(0)
            sel = ake / (alpha + ake)
            out = []
            for B, b in pairs:
                out.append((1, sel * B / b))
                out.append((1, -sel * (B / b) * ase * mp.exp(-b * rm1) / (rho * b + ase)))
            return out

        i4 = analytic._escalating_sum(_raw(build_threshold), base_dps)
        i5 = analytic._escalating_sum(_raw(build_slack), base_dps)
        return (i4, i5) if minimize else (i4, 0.0, i5)

    subs = subset_rate_sums(others)

    def hoisted():
        rho, rm1, ase, ake, pairs = constants()
        return rho, ase, ake, [(B, b, B / b, rho * b, ase + rho * b, mp.exp(-b * rm1))
                               for B, b in pairs]

    def build_i1():
        rho, ase, ake, pairs = hoisted()
        rho_ase = rho * ase
        out = []
        for B, _, _, rb, arb, decay in pairs:
            lead = rho_ase * B * decay / arb
            out.append((1, lead / (ake + rb)))
            for m, am, count in subs:
                out.append((count, (-1) ** m * (lead / (ake + mp.mpf(am) + rb))))
        return out

    def build_i2():
        rho, ase, ake, pairs = hoisted()
        out = []
        for m, am_f, count in subs:
            sgn = -((-1) ** m)
            am = mp.mpf(am_f)
            ka = ake + am
            sel = rho * am * ase / ka
            for B, _, _, rb, arb, decay in pairs:
                out.append((count, sgn * (sel * B * decay / ((ka + rb) * arb))))
        return out

    def build_i3():
        rho, ase, ake, pairs = hoisted()
        out = []
        for m, am_f, count in subs:
            sgn = -((-1) ** m)
            am = mp.mpf(am_f)
            sel = am / (ake + am)
            for B, b, B_b, _, arb, decay in pairs:
                out.append((count, sgn * (sel * B / b)))
                out.append((count, -sgn * (sel * B_b * ase * decay / arb)))
        return out

    return (analytic._escalating_sum(_raw(build_i1), base_dps),
            analytic._escalating_sum(_raw(build_i2), base_dps),
            analytic._escalating_sum(_raw(build_i3), base_dps))


def mp_cdf_weights(rates):
    """Difference-product weights (w_i, r_i): F(x) = 1 - sum(w_i e^{-r_i x})."""
    out = []
    for i, ri in enumerate(rates):
        w = mp.mpf(1)
        for j, rj in enumerate(rates):
            if j != i:
                w *= rj / (rj - ri)
        out.append((w, ri))
    return out


def max_mrc_total(config, target) -> float:
    """Unclipped max-mrc closed form."""
    legit = spread_rates((config.beta_sd,) + config.beta_kD)
    subs = subset_rate_sums(config.alpha_ke)

    def build():
        rho = mp.mpf(target.rho)
        rm1 = rho - 1
        ase = mp.mpf(config.alpha_se)
        sums = [(m, mp.mpf(am), count) for m, am, count in subs]
        terms = [(1, mp.mpf(1))]
        for w, b in mp_cdf_weights([mp.mpf(r) for r in legit]):
            lead = -ase * w * b * mp.exp(-b * rm1)
            rb = rho * b
            arb = ase + rb
            terms.append((1, lead / (b * arb)))
            lead_rho = lead * rho
            terms.extend((count, (-1) ** m * (lead_rho / ((am + rb) * arb)))
                         for m, am, count in sums)
        return terms

    return analytic._escalating_sum(_raw(build), working_dps(legit))


def mrc_mrc_total(config, target) -> float:
    """Unclipped mrc-mrc closed form."""
    legit = spread_rates((config.beta_sd,) + config.beta_kD)
    eve = spread_rates((config.alpha_se,) + config.alpha_ke)

    def build():
        rho = mp.mpf(target.rho)
        rm1 = rho - 1
        wm = mp_cdf_weights([mp.mpf(r) for r in legit])
        we = mp_cdf_weights([mp.mpf(r) for r in eve])
        terms = []
        for wi, bi in wm:
            for vp, ap in we:
                prod = wi * vp
                terms.append((1, prod))
                terms.append((1, -prod * ap * mp.exp(-rm1 * bi) / (ap + rho * bi)))
        return terms

    return analytic._escalating_sum(_raw(build), working_dps(legit, eve))


def closed_form_per_relay(config, scheme, target) -> tuple:
    """Per-relay region terms of max-e or min-e, every relay evaluated afresh."""
    return tuple(selection_relay_terms(config, target, k, scheme is Scheme.MIN_E)
                 for k in range(config.n_relays))


def closed_form_sop(config, scheme, target) -> float:
    """The clipped closed-form SOP of any scheme, in mpmath's operator form."""
    if scheme in (Scheme.MAX_E, Scheme.MIN_E):
        total = math.fsum(t for terms in closed_form_per_relay(config, scheme, target)
                          for t in terms)
    elif scheme is Scheme.MAX_MRC:
        total = max_mrc_total(config, target)
    else:
        total = mrc_mrc_total(config, target)
    return min(1.0, max(0.0, total))
