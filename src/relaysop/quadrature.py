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

Each integral builds a plan once: a flat tuple of the per-term constants of
its integrand (the Erlang tail coefficients, or the scales and the tilted
tail factors of the direct-tap average), so every node runs one loop with
one exponential per term. The operation order is that of the per-node
expressions in tests/oracles.py, which rebuild every constant at each node,
so the values agree bit for bit. Relays with equal tap and dual-hop rates
have equal selection integrals, so each distinct relay is integrated once
and its value counted for every relay like it.

Infinite ranges are truncated at quantiles whose residual mass is below
_TAIL_MASS; the truncated mass is added to the reported error bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy import integrate

from .errors import ConvergenceError, SpecValidationError
from .model import (Engine, NetworkConfig, Scheme, SecrecyTarget, SopResult,
                    is_number, require_supported)

_GROUP_EPS = 1e-9  # rates this close (relative) are integrated as exactly equal
#: QUADPACK's `limit`: the most subintervals one integral may be split into
_MAX_SUBINTERVALS = 40
#: residual mass of each truncated infinite range
_TAIL_MASS = 1e-14


@dataclass(frozen=True)
class QuadSettings:
    """Tolerances of the quadrature engine, the `quad` section of a sweep
    spec; the defaults are every spec's and command's."""

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12

    def __post_init__(self):
        problems = [f"quad.{name}: must be a finite positive number, got {value!r}"
                    for name, value in (("rel_tol", self.rel_tol), ("abs_tol", self.abs_tol))
                    if not (is_number(value) and value > 0)]
        if problems:
            raise SpecValidationError(problems)


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


def _phase_pdf(terms, t: float) -> float:
    total = 0.0
    for c, p, r in terms:
        e = math.exp(-r * t)
        if e:
            total += c * t ** p * e
    return total


def _phase_plan(terms):
    """Survival plan of a poly-exponential density: (c*p!/r^(p+1), p, r) per
    term, so P[X > v] = sum(coef * P[Erlang(p+1, 1) > r*v])."""
    return tuple((c * math.factorial(p) / r ** (p + 1), p, r) for c, p, r in terms)


def _phase_tail(plan, v: float) -> float:
    """P[X > v] from a `_phase_plan`; exact at v <= 0.

    The Erlang tail of each term is e^{-x} * sum_{i<=p} x^i/i! at x = r*v.
    """
    if v <= 0.0:
        return 1.0
    total = 0.0
    for coef, p, r in plan:
        x = r * v
        e = math.exp(-x)
        if e == 0.0:
            tail = 0.0
        else:
            acc = 1.0
            term = 1.0
            for i in range(1, p + 1):
                term *= x / i
                acc += term
            tail = e * acc
        total += coef * tail
    return total


def _phase_quantile_bound(rates, cutoff: float) -> float:
    """Upper bound on the quantile where the sum's tail mass is < cutoff."""
    per = cutoff / len(rates)
    return math.fsum(-math.log(per) / r for r in rates)


def _tap_plan(terms, alpha: float, rho: float, survival: bool):
    """Plan of the direct-tap average of a poly-exponential sum X.

    The average is E_z[P[X > v0 + rho*z]] (survival) or E_z[f_X(v0 + rho*z)]
    (density) with z ~ Exp(alpha), the eavesdropper direct-link SNR. Each
    term (c, p, r) becomes (scale, p, r, tails): scale is c*p!/r^(p+1) for
    the survival and c*p!/r^p for the density, and
    tails[j] = 1/(alpha+r*rho) * (r*rho/(alpha+r*rho))^j for j <= p.
    """
    plan = []
    for c, p, r in terms:
        rr = r * rho
        tail = 1.0 / (alpha + rr)
        tails = [tail]
        for _ in range(p):
            tail *= rr / (alpha + rr)
            tails.append(tail)
        scale = c * math.factorial(p) / r ** (p + 1 if survival else p)
        plan.append((scale, p, r, tuple(tails)))
    return tuple(plan)


def _heads(rv: float, p: int) -> list:
    """heads[m] = rv^m / m! for m <= p."""
    heads = [1.0]
    for m in range(1, p + 1):
        heads.append(heads[-1] * rv / m)
    return heads


def _tap_survival(plan, alpha: float, v0: float) -> float:
    """E_z[P[X > v0 + rho*z]] from a survival `_tap_plan`, v0 >= 0.

    Term (c, p, r) adds scale * sum_{i<=p} E_z[e^{-rw} (rw)^i/i!] at
    w = v0 + rho*z; each expectation is
    alpha * e^{-r v0} * sum_{j<=i} heads[i-j] * tails[j].
    """
    total = 0.0
    for scale, p, r, tails in plan:
        e = math.exp(-r * v0)
        if e == 0.0:
            part = 0.0
        elif p == 0:
            part = alpha * e * tails[0]
        else:
            heads = _heads(r * v0, p)
            ae = alpha * e
            parts = []
            for i in range(p + 1):
                acc = 0.0
                for j in range(i + 1):
                    acc += heads[i - j] * tails[j]
                parts.append(ae * acc)
            part = math.fsum(parts)
        total += scale * part
    return total


def _tap_density(plan, alpha: float, v0: float) -> float:
    """E_z[f_X(v0 + rho*z)] from a density `_tap_plan`, v0 >= 0: the i = p
    expectation of `_tap_survival` per term."""
    total = 0.0
    for scale, p, r, tails in plan:
        e = math.exp(-r * v0)
        if e == 0.0:
            part = 0.0
        elif p == 0:
            part = alpha * e * tails[0]
        else:
            heads = _heads(r * v0, p)
            acc = 0.0
            for j in range(p + 1):
                acc += heads[p - j] * tails[j]
            part = alpha * e * acc
        total += scale * part
    return total


def _quad(fn, hi, settings: QuadSettings, eps_scale: float):
    out = integrate.quad(
        fn, 0.0, hi,
        epsabs=settings.abs_tol * eps_scale,
        epsrel=settings.rel_tol * eps_scale,
        limit=_MAX_SUBINTERVALS,
        full_output=1)
    return out[0], out[1]


def _relay_integral(config: NetworkConfig, target: SecrecyTarget,
                    settings: QuadSettings, relay, rivals, minimize: bool):
    """(value, error) of the outage integral over the tap t of a selected
    relay with (tap, dual-hop) rates `relay`, against the `rivals` taps."""
    ake, bkd = relay
    alpha_se = config.alpha_se
    rho = target.rho
    rm1 = rho - 1.0
    plan = _tap_plan(_poly_exp_terms([bkd, config.beta_sd]), alpha_se, rho,
                     survival=True)
    rival_rate = math.fsum(rivals)

    def integrand(t):
        if minimize:
            w = math.exp(-rival_rate * t)
        else:
            w = 1.0
            for a in rivals:
                w *= -math.expm1(-a * t)
        win = _tap_survival(plan, alpha_se, rho * t + rm1)
        return ake * math.exp(-ake * t) * w * (1.0 - win)

    return _quad(integrand, -math.log(_TAIL_MASS) / ake, settings,
                 0.5 / config.n_relays)


def _selection_integral(config: NetworkConfig, target: SecrecyTarget,
                        settings: QuadSettings, minimize: bool):
    """Outage probability under max- or min-tap relay selection.

    Per selected relay k the event is (tap beats/loses to every rival) and
    (legitimate sum below the threshold line); conditioning on the tap t and
    averaging the legitimate-sum CDF over the direct tap z leaves a single
    smooth integral over t.

    A relay's integral depends only on its (tap, dual-hop) rates and the
    multiset of the rival taps, so each distinct relay is integrated once
    and its (value, error) counted for every relay equal to it. Relays are
    summed, and rival factors multiplied, in descending rate order, so
    relabelling the relays changes no bit of the result. Descending rates
    are the relay order of taps listed in ascending dB, as the presets list
    them, so those sums keep the order a plain relay loop gives.
    """
    taps = config.alpha_ke
    done = {}
    total = 0.0
    err = 0.0
    for relay in sorted(zip(taps, config.beta_kD), reverse=True):
        if relay not in done:
            rivals = sorted(taps, reverse=True)
            rivals.remove(relay[0])
            done[relay] = _relay_integral(config, target, settings, relay,
                                          rivals, minimize)
        val_k, err_k = done[relay]
        total += val_k
        err += err_k + _TAIL_MASS
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
    alpha_se = config.alpha_se
    taps = config.alpha_ke
    terms = _poly_exp_terms([config.beta_sd, *config.beta_kD])
    base = 1.0 - _tap_survival(_tap_plan(terms, alpha_se, rho, survival=True),
                               alpha_se, rm1)
    plan = _tap_plan(terms, alpha_se, rho, survival=False)
    u_hi = max(-math.log(_TAIL_MASS / config.n_relays) / a for a in taps)

    def integrand(u):
        dens = _tap_density(plan, alpha_se, rho * u + rm1)
        w = 1.0
        for a in taps:
            w *= -math.expm1(-a * u)
        return rho * dens * (1.0 - w)

    val, err = _quad(integrand, u_hi, settings, 0.5)
    return base + val, err + _TAIL_MASS


def _mrc_mrc_integral(config, target, settings):
    rho = target.rho
    rm1 = rho - 1.0
    plan_m = _phase_plan(_poly_exp_terms([config.beta_sd, *config.beta_kD]))
    eve = [config.alpha_se, *config.alpha_ke]
    terms_e = _poly_exp_terms(eve)
    x_hi = _phase_quantile_bound(eve, _TAIL_MASS)

    def integrand(x):
        return (1.0 - _phase_tail(plan_m, rho * x + rm1)) * _phase_pdf(terms_e, x)

    val, err = _quad(integrand, x_hi, settings, 0.5)
    return val, err + _TAIL_MASS


def sop_quadrature(config: NetworkConfig, scheme: Scheme, target: SecrecyTarget,
                   settings: QuadSettings = QuadSettings()) -> SopResult:
    """SOP by adaptive quadrature of the defining probability integral."""
    require_supported(config, Engine.QUADRATURE)
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
