"""Numerical integration of the scheme-defining outage probabilities.

This engine evaluates the probability integrals as written, before any
closed-form manipulation, and serves as the ground truth for the analytic
engine. Inner dimensions are removed with elementary antiderivatives:

  * the legitimate-sum density/survival comes from an exact partial-fraction
    expansion of the sum of exponentials with grouped multiplicities, so
    repeated rates need no perturbation here;
  * the direct eavesdropper-link average is an exponentially tilted
    polynomial-exponential integral with a closed form;
  * the remaining single dimension (the deciding eavesdropper variable) is
    integrated with an adaptive Gauss-Kronrod rule.

Infinite ranges are truncated at quantiles whose residual mass is below
`tail_cutoff_mass`; the truncated mass is added to the reported error bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy import integrate

from .errors import ConvergenceError, UnsupportedSizeError
from .expdist import MAX_RATES
from .model import (Engine, NetworkConfig, Scheme, SecrecyTarget, SopResult,
                    require_valid)

_GROUP_EPS = 1e-9  # rates this close (relative) are integrated as exactly equal


@dataclass(frozen=True)
class QuadSettings:
    """Tolerances and truncation policy for the quadrature engine."""

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_depth: int = 40
    tail_cutoff_mass: float = 1e-14

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if not 0.0 < self.tail_cutoff_mass <= 1e-6:
            raise ValueError("tail_cutoff_mass must lie in (0, 1e-6]")


def _group_rates(rates):
    """Collapse nearly-equal rates into (mean rate, multiplicity) groups."""
    order = sorted(range(len(rates)), key=lambda i: rates[i])
    groups = []
    for idx in order:
        r = rates[idx]
        if groups and r - groups[-1][-1] <= _GROUP_EPS * max(r, groups[-1][-1]):
            groups[-1].append(r)
        else:
            groups.append([r])
    return [(math.fsum(g) / len(g), len(g)) for g in groups]


def _poly_exp_terms(rates):
    """Density of a sum of independent exponentials as sum(c * t^p * e^{-r t}).

    Partial fractions of prod((r_g/(s+r_g))^m_g) with exact multiplicities:
    Taylor coefficients of the remaining product at each pole come from the
    exponentiated log-series recursion, which stays well conditioned because
    only inter-group rate differences appear.
    """
    groups = _group_rates(rates)
    log_c = math.fsum(m * math.log(r) for r, m in groups)
    terms = []
    for gi, (rg, mg) in enumerate(groups):
        others = [(rh - rg, mh) for hi, (rh, mh) in enumerate(groups) if hi != gi]
        # h_j: Taylor coefficients of e^{log_c} * prod((d_h + eps)^{-m_h}) at eps = 0
        sign = 1.0
        log_phi0 = log_c
        for d, mh in others:
            log_phi0 -= mh * math.log(abs(d))
            if d < 0 and mh % 2:
                sign = -sign
        h = [sign * math.exp(log_phi0)]
        if mg > 1:
            ls = [math.fsum(mh * (-1.0) ** j / (j * d ** j) for d, mh in others)
                  for j in range(1, mg)]
            for k in range(1, mg):
                h.append(math.fsum(j * ls[j - 1] * h[k - j]
                                   for j in range(1, k + 1)) / k)
        for l in range(1, mg + 1):
            terms.append((h[mg - l] / math.factorial(l - 1), l - 1, rg))
    return terms


def _erlang_tail(order: int, x: float) -> float:
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


def _phase_pdf(terms, t: float) -> float:
    total = 0.0
    for c, p, r in terms:
        e = math.exp(-r * t)
        if e:
            total += c * t ** p * e
    return total


def _phase_survival(terms, v: float) -> float:
    """P[X > v] for the poly-exponential density terms; exact at v <= 0."""
    if v <= 0.0:
        return 1.0
    total = 0.0
    for c, p, r in terms:
        total += c * math.factorial(p) / r ** (p + 1) * _erlang_tail(p + 1, r * v)
    return total


def _phase_quantile_bound(rates, cutoff: float) -> float:
    """Upper bound on the quantile where the sum's tail mass is < cutoff."""
    per = cutoff / len(rates)
    return math.fsum(-math.log(per) / r for r in rates)


def _tilted_poly_exp(alpha: float, r: float, rho: float, v0: float, i: int) -> float:
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


def _mean_over_direct_tap(terms, alpha_se: float, rho: float, v0: float,
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
                _tilted_poly_exp(alpha_se, r, rho, v0, i) for i in range(p + 1))
        else:
            total += c * math.factorial(p) / r ** p * _tilted_poly_exp(
                alpha_se, r, rho, v0, p)
    return total


def _quad(fn, hi, settings: QuadSettings, eps_scale: float):
    out = integrate.quad(
        fn, 0.0, hi,
        epsabs=settings.abs_tol * eps_scale,
        epsrel=settings.rel_tol * eps_scale,
        limit=settings.max_depth,
        full_output=1)
    return out[0], out[1]


def _selection_integral(config: NetworkConfig, target: SecrecyTarget,
                        settings: QuadSettings, minimize: bool):
    """Outage probability under max- or min-tap relay selection.

    Per selected relay k the event is (tap beats/loses to every rival) and
    (legitimate sum below the threshold line); conditioning on the tap t and
    averaging the legitimate-sum CDF over the direct tap z leaves a single
    smooth integral over t.
    """
    rho = target.rho
    rm1 = rho - 1.0
    cut = settings.tail_cutoff_mass
    n = config.n_relays
    total = 0.0
    err = 0.0
    for k in range(n):
        ake = config.alpha_ke[k]
        others = config.alpha_ke[:k] + config.alpha_ke[k + 1:]
        terms = _poly_exp_terms([config.beta_kD[k], config.beta_sd])
        t_hi = -math.log(cut) / ake

        if minimize:
            rival_rate = math.fsum(others)

            def rival_weight(t, rate=rival_rate):
                return math.exp(-rate * t)
        else:
            def rival_weight(t, rates=others):
                w = 1.0
                for a in rates:
                    w *= -math.expm1(-a * t)
                return w

        def integrand(t, ake=ake, terms=terms, rw=rival_weight):
            win = _mean_over_direct_tap(terms, config.alpha_se, rho,
                                        rho * t + rm1, survival=True)
            return ake * math.exp(-ake * t) * rw(t) * (1.0 - win)

        val_k, err_k = _quad(integrand, t_hi, settings, 0.5 / n)
        total += val_k
        err += err_k + cut
    return total, err


def _max_mrc_integral(config, target, settings):
    """Outage split into: legit sum already below the no-eavesdropper line
    (closed form), plus the best tap exceeding the margin (one integral).

    The integrand carries P[best tap > u], which decays at the eavesdropper
    rates, so the quadrature error tracks the outage probability itself even
    when it is tiny.
    """
    rho = target.rho
    rm1 = rho - 1.0
    cut = settings.tail_cutoff_mass
    legit = [config.beta_sd, *config.beta_kD]
    terms = _poly_exp_terms(legit)
    base = 1.0 - _mean_over_direct_tap(terms, config.alpha_se, rho, rm1,
                                       survival=True)
    u_hi = max(-math.log(cut / config.n_relays) / a for a in config.alpha_ke)

    def integrand(u):
        dens = _mean_over_direct_tap(terms, config.alpha_se, rho,
                                     rho * u + rm1, survival=False)
        w = 1.0
        for a in config.alpha_ke:
            w *= -math.expm1(-a * u)
        return rho * dens * (1.0 - w)

    val, err = _quad(integrand, u_hi, settings, 0.5)
    return base + val, err + cut


def _mrc_mrc_integral(config, target, settings):
    rho = target.rho
    rm1 = rho - 1.0
    cut = settings.tail_cutoff_mass
    terms_m = _poly_exp_terms([config.beta_sd, *config.beta_kD])
    eve = [config.alpha_se, *config.alpha_ke]
    terms_e = _poly_exp_terms(eve)
    x_hi = _phase_quantile_bound(eve, cut)

    def integrand(x):
        return (1.0 - _phase_survival(terms_m, rho * x + rm1)) * _phase_pdf(terms_e, x)

    val, err = _quad(integrand, x_hi, settings, 0.5)
    return val, err + cut


def sop_quadrature(config: NetworkConfig, scheme: Scheme, target: SecrecyTarget,
                   settings: QuadSettings = QuadSettings()) -> SopResult:
    """SOP by adaptive quadrature of the defining probability integral."""
    require_valid(config)
    if config.n_relays > MAX_RATES:
        raise UnsupportedSizeError(
            f"the quadrature engine supports at most {MAX_RATES} relays, got "
            f"{config.n_relays}; use the Monte Carlo engine")
    if scheme is Scheme.MAX_E:
        val, err = _selection_integral(config, target, settings, minimize=False)
    elif scheme is Scheme.MIN_E:
        val, err = _selection_integral(config, target, settings, minimize=True)
    elif scheme is Scheme.MAX_MRC:
        val, err = _max_mrc_integral(config, target, settings)
    else:
        val, err = _mrc_mrc_integral(config, target, settings)
    if err > settings.rel_tol * max(abs(val), 1e-300) + settings.abs_tol:
        raise ConvergenceError(
            f"quadrature error bound {err:.3e} exceeds tolerance for estimate {val:.6e}",
            estimate=val, error_bound=err)
    return SopResult(min(1.0, max(0.0, val)), Engine.QUADRATURE)
