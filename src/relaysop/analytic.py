"""Closed-form secrecy outage probability for the four schemes.

Each scheme's outage probability decomposes into per-relay (or per-rate)
terms built from exponential-mixture antiderivatives: convolution pair
coefficients for the legitimate sum, inclusion-exclusion sums over the
eavesdropper rates, and hypoexponential weights for the MRC sums.

The inclusion-exclusion sums run over sub-multisets of the eavesdropper
rates (expdist.subset_rate_sums): every subset that takes the same number of
each distinct rate gives the same term, so the term is built once and
weighted exactly by the number of such subsets. Relays with equal tap and
dual-hop rates have equal terms, so the selection schemes evaluate each
distinct relay once: N identical relays cost one relay's sums over N - 1
rival terms, where N distinct ones cost N relays' sums over 2^(N-1) - 1.
Per-pair factors (exponentials, rho*b sums) are computed once outside the
subset loops in the same operation order, so each term has, bit for bit,
the value its per-subset expression gives.

The alternating subset sums and the difference-product weights can cancel
catastrophically when rates nearly coincide (identical relays are the common
case), so every assembly runs in mpmath at a working precision sized from
the worst difference-product digit loss; only the finished, well-conditioned
term values are converted back to floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import mpmath as mp

from .errors import ConvergenceError, SlopeUndefinedError, UnsupportedSizeError
from .expdist import MAX_RATES, spread_rates, subset_rate_sums, working_dps
from .model import (Engine, NetworkConfig, Scheme, SecrecyTarget, SopResult,
                    require_valid)


@dataclass(frozen=True)
class SchemeTermBreakdown:
    """Per-relay term values of a selection-scheme closed form, plus the total.

    Each relay contributes one tuple: the integration-region terms whose sum
    is that relay's share of the outage probability. `total` is the raw sum
    before clipping to [0,1].
    """

    per_relay: tuple
    total: float


def _escalating_sum(build, base_dps: int, max_rounds: int = 6) -> float:
    """Sum the weighted mpf addends produced by build() under escalating precision.

    build() returns (count, term) pairs, each standing for `count` equal
    addends. The weights are applied exactly, so the total is the sum over
    every addend, rounded once. The rounding error of a cancelling sum is
    bounded by its largest addend times 10^(2-dps); when the total does not
    clearly dominate that bound (high-SNR outage probabilities cancel 30+
    digits out of the difference-product weights), the evaluation repeats
    with enough extra digits for the total to stand clear. build() must
    construct its terms from scratch so every constant picks up the ambient
    precision. Raises ConvergenceError, carrying the last estimate and its
    error bound, when max_rounds rounds do not clear it.
    """
    dps = base_dps
    guard = mp.mpf(10) ** 12  # clear digits demanded between total and error
    for _ in range(max_rounds):
        with mp.workdps(dps):
            terms = build()
            total = mp.fsum([t if count == 1 else mp.fmul(count, t, exact=True)
                             for count, t in terms])
            scale = max((abs(t) for _, t in terms), default=mp.mpf(0))
            if scale == 0:
                return 0.0
            err = scale * mp.power(10, 2 - dps)
            if abs(total) >= guard * err or err < mp.mpf("1e-330"):
                return float(total)
            if total != 0:
                deficit = int(mp.ceil(mp.log10(guard * err / abs(total)))) + 5
            else:
                deficit = 15
        dps += max(deficit, 10)
    raise ConvergenceError(
        f"closed-form sum {float(total):.6g} did not clear its rounding error "
        f"bound {float(err):.3g} in {max_rounds} precision rounds",
        estimate=float(total), error_bound=float(err))


def _check_engine_size(config: NetworkConfig):
    require_valid(config)
    if config.n_relays > MAX_RATES:
        raise UnsupportedSizeError(
            f"closed-form engines support at most {MAX_RATES} relays, got "
            f"{config.n_relays}; use the Monte Carlo engine")


def _mp_pair(beta_kD_k: float, beta_sd: float):
    """Convolution coefficients of the per-relay legitimate sum, in mpmath.

    Returns ((B1, rate_sd'), (B2, rate_kD')) with near-equal rates spread
    apart first; f_X(x) = B1*exp(-rate_sd'*x) + B2*exp(-rate_kD'*x).
    """
    a, b = spread_rates((beta_kD_k, beta_sd))
    a, b = mp.mpf(a), mp.mpf(b)
    return ((a * b / (a - b), b), (a * b / (b - a), a))


def _selection_relay_terms(config: NetworkConfig, target: SecrecyTarget,
                           k: int, minimize: bool):
    """Outage terms of relay k under eavesdropper-max or -min selection.

    Returns the region terms (threshold-active [, rival-boundary], slack):
    the first covers realizations where the rate threshold binds, the last
    those where the legitimate links already lost. Max selection splits the
    threshold-active region over the rival-best subsets, giving the familiar
    three-term shape; a single relay has no rivals and both schemes collapse
    to the same pair. Each term is a flat list of weighted addends, one per
    rival sub-multiset, so the escalating evaluation can bound its own
    cancellation error.
    """
    others = config.alpha_ke[:k] + config.alpha_ke[k + 1:]
    base_dps = working_dps(spread_rates((config.beta_kD[k], config.beta_sd)))

    def constants():
        rho = mp.mpf(target.rho)
        ase = mp.mpf(config.alpha_se)
        ake = mp.mpf(config.alpha_ke[k])
        return rho, rho - 1, ase, ake, _mp_pair(config.beta_kD[k], config.beta_sd)

    if not others or minimize:
        # min of the rival taps is exponential with the summed rate (0 if none)
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

        i4 = _escalating_sum(build_threshold, base_dps)
        i5 = _escalating_sum(build_slack, base_dps)
        if minimize:
            return (i4, i5)
        # single relay under max selection: three-slot shape, no rival term
        return (i4, 0.0, i5)

    subs = subset_rate_sums(others)

    def hoisted():
        """The constants, with each convolution pair's subset-loop invariants
        (B, b, B/b, rho*b, ase + rho*b, exp(-b*(rho-1)))."""
        rho, rm1, ase, ake, pairs = constants()
        return rho, ase, ake, [(B, b, B / b, rho * b, ase + rho * b, mp.exp(-b * rm1))
                               for B, b in pairs]

    # A subset of size m carries the sign sgn = -(-1)^m. Multiplying by it is
    # exact, so sgn * (x * y ...) equals the (sgn * x) * y ... it stands for.
    def build_i1():
        rho, ase, ake, pairs = hoisted()
        rho_ase = rho * ase
        out = []
        for B, _, _, rb, arb, decay in pairs:
            lead = rho_ase * B * decay / arb
            # every subset adds sgn * lead/(ake + rho*b); the weighted signs
            # sum to exactly 1, so the addend enters once
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

    return (_escalating_sum(build_i1, base_dps),
            _escalating_sum(build_i2, base_dps),
            _escalating_sum(build_i3, base_dps))


def _selection_breakdown(config: NetworkConfig, target: SecrecyTarget,
                         minimize: bool) -> SchemeTermBreakdown:
    """Per-relay terms of max or min selection. A relay's terms depend only on
    its tap and dual-hop rates (its rival multiset is everyone else), so
    each distinct relay is evaluated once and shared by its equals."""
    _check_engine_size(config)
    by_class: dict = {}
    per_relay = []
    for k, key in enumerate(zip(config.alpha_ke, config.beta_kD)):
        if key not in by_class:
            by_class[key] = _selection_relay_terms(config, target, k, minimize)
        per_relay.append(by_class[key])
    per_relay = tuple(per_relay)
    total = math.fsum(t for terms in per_relay for t in terms)
    return SchemeTermBreakdown(per_relay=per_relay, total=total)


def _clip(total: float) -> float:
    return min(1.0, max(0.0, total))


def max_e_breakdown(config: NetworkConfig, target: SecrecyTarget) -> SchemeTermBreakdown:
    """Per-relay terms for proactive relay selection by the eavesdropper."""
    return _selection_breakdown(config, target, minimize=False)


def sop_max_e(config: NetworkConfig, target: SecrecyTarget) -> SopResult:
    """SOP when the eavesdropper selects its best-tapped relay."""
    return SopResult(_clip(max_e_breakdown(config, target).total), Engine.ANALYTIC)


def min_e_breakdown(config: NetworkConfig, target: SecrecyTarget) -> SchemeTermBreakdown:
    """Per-relay terms for system-side selection of the weakest-tapped relay."""
    return _selection_breakdown(config, target, minimize=True)


def sop_min_e(config: NetworkConfig, target: SecrecyTarget) -> SopResult:
    """SOP when the system selects the relay with the weakest tap to E."""
    return SopResult(_clip(min_e_breakdown(config, target).total), Engine.ANALYTIC)


def _mp_cdf_weights(rates):
    """Difference-product weights (w_i, r_i): F(x) = 1 - sum(w_i e^{-r_i x})."""
    out = []
    for i, ri in enumerate(rates):
        w = mp.mpf(1)
        for j, rj in enumerate(rates):
            if j != i:
                w *= rj / (rj - ri)
        out.append((w, ri))
    return out


def sop_max_mrc(config: NetworkConfig, target: SecrecyTarget) -> SopResult:
    """SOP with a passive eavesdropper taking its best relayed link while the
    destination combines the direct link and every relayed link."""
    _check_engine_size(config)
    legit = spread_rates((config.beta_sd,) + config.beta_kD)
    subs = subset_rate_sums(config.alpha_ke)

    def build():
        rho = mp.mpf(target.rho)
        rm1 = rho - 1
        ase = mp.mpf(config.alpha_se)
        sums = [(m, mp.mpf(am), count) for m, am, count in subs]
        terms = [(1, mp.mpf(1))]
        for w, b in _mp_cdf_weights([mp.mpf(r) for r in legit]):
            lead = -ase * w * b * mp.exp(-b * rm1)
            rb = rho * b
            arb = ase + rb
            terms.append((1, lead / (b * arb)))
            # (lead * (-1)^m) * rho / ... with the exact sign taken outside
            lead_rho = lead * rho
            terms.extend((count, (-1) ** m * (lead_rho / ((am + rb) * arb)))
                         for m, am, count in sums)
        return terms

    total = _escalating_sum(build, working_dps(legit))
    return SopResult(_clip(total), Engine.ANALYTIC)


def sop_mrc_mrc(config: NetworkConfig, target: SecrecyTarget) -> SopResult:
    """SOP when both the destination and the eavesdropper combine the direct
    link with every relayed link."""
    _check_engine_size(config)
    legit = spread_rates((config.beta_sd,) + config.beta_kD)
    eve = spread_rates((config.alpha_se,) + config.alpha_ke)

    def build():
        rho = mp.mpf(target.rho)
        rm1 = rho - 1
        wm = _mp_cdf_weights([mp.mpf(r) for r in legit])
        we = _mp_cdf_weights([mp.mpf(r) for r in eve])
        terms = []
        for wi, bi in wm:
            for vp, ap in we:
                prod = wi * vp
                terms.append((1, prod))
                terms.append((1, -prod * ap * mp.exp(-rm1 * bi) / (ap + rho * bi)))
        return terms

    total = _escalating_sum(build, working_dps(legit, eve))
    return SopResult(_clip(total), Engine.ANALYTIC)


_DISPATCH = {
    Scheme.MAX_E: sop_max_e,
    Scheme.MIN_E: sop_min_e,
    Scheme.MAX_MRC: sop_max_mrc,
    Scheme.MRC_MRC: sop_mrc_mrc,
}


def sop_analytic(config: NetworkConfig, scheme: Scheme, target: SecrecyTarget) -> SopResult:
    """Closed-form SOP for any scheme."""
    return _DISPATCH[scheme](config, target)


def slope_between(sop_lo: float, sop_hi: float,
                  snr_lo_db: float, snr_hi_db: float) -> float:
    """Decade slope of an outage curve between two axis points.

    A curve proportional to SNR^-d has slope d for any point pair.
    """
    if not snr_hi_db > snr_lo_db:
        raise ValueError("snr_hi_db must exceed snr_lo_db")
    if sop_lo <= 0.0 or sop_hi <= 0.0:
        raise SlopeUndefinedError(
            f"SOP underflowed to zero between {snr_lo_db} and {snr_hi_db} dB")
    return -(math.log10(sop_hi) - math.log10(sop_lo)) / ((snr_hi_db - snr_lo_db) / 10.0)


def diversity_slope(scheme: Scheme, config_at: Callable[[float], NetworkConfig],
                    target: SecrecyTarget, snr_lo_db: float, snr_hi_db: float) -> float:
    """Decades of SOP lost per decade of SNR between two axis points.

    config_at maps an axis SNR in dB to the network at that operating point.
    The high-SNR limit of this slope is the secrecy diversity order.
    """
    if not snr_hi_db > snr_lo_db:
        raise ValueError("snr_hi_db must exceed snr_lo_db")
    lo = sop_analytic(config_at(snr_lo_db), scheme, target).value
    hi = sop_analytic(config_at(snr_hi_db), scheme, target).value
    return slope_between(lo, hi, snr_lo_db, snr_hi_db)
