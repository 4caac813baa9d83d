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
term values are converted back to floats. The builders skip mpmath's number
objects and call its raw layer (mpmath.libmp) on `_mpf_` tuples: each
mpf operator is exactly one call of mpf_add, mpf_sub, mpf_mul, mpf_div or
mpf_neg at the context precision with round-to-nearest, and each float
enters through from_float, so the same calls at the same precision and
rounding give every addend bit for bit the value of its operator form
(tests/oracles.py keeps that form). Negating a rounded value is exact, so a
(-1)^m sign is a negation; float inputs convert exactly at any working
precision, so each converts once per call. The builders return raw
addends; `_escalating_sum`, the one sum every builder goes through, is the
one place they become mpf objects, for mp.fsum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
from mpmath.libmp import (fone, from_float, fzero, mpf_abs, mpf_add, mpf_div, mpf_exp,
                          mpf_mul, mpf_neg, mpf_sub, round_nearest)

from .errors import ConvergenceError
from .expdist import spread_rates, subset_rate_sums, working_dps
from .model import (Engine, NetworkConfig, Scheme, SecrecyTarget, SopResult,
                    require_supported)

#: rounding of every raw-tuple operation, the mpf operators' default
_RND = round_nearest
_make = mp.make_mpf


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
    """Sum the weighted addends produced by build() under escalating precision.

    build() returns (count, term) pairs, term a raw mpf tuple, each standing
    for `count` equal addends. The weights are applied exactly, so the total
    is the sum over every addend, rounded once. The rounding error of a
    cancelling sum is bounded by its largest addend times 10^(2-dps); when
    the total does not clearly dominate that bound (high-SNR outage
    probabilities cancel 30+ digits out of the difference-product weights),
    the evaluation repeats with enough extra digits for the total to stand
    clear. build() must
    compute its terms at the ambient precision (mp.mp.prec), so each round
    rebuilds them with more digits. Raises ConvergenceError, carrying the
    last estimate and its error bound, when max_rounds rounds do not clear it.
    """
    dps = base_dps
    guard = mp.mpf(10) ** 12  # clear digits demanded between total and error
    for _ in range(max_rounds):
        with mp.workdps(dps):
            terms = build()
            total = mp.fsum([_make(t) if count == 1
                             else mp.fmul(count, _make(t), exact=True)
                             for count, t in terms])
            scale = _largest_magnitude([t for _, t in terms])
            if scale == fzero:
                return 0.0
            err = _make(scale) * mp.power(10, 2 - dps)
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


def _largest_magnitude(raws):
    """max(|t|) over raw mpf tuples, exactly, as a raw tuple (fzero for none).

    Only the values whose top bit sits highest can be largest; among them,
    mantissas shifted to a common exponent order the magnitudes exactly.
    """
    nonzero = [r for r in raws if r[1]]
    if not nonzero:
        return fzero
    top = max(exp + bc for _, _, exp, bc in nonzero)
    tied = [r for r in nonzero if r[2] + r[3] == top]
    low = min(exp for _, _, exp, _ in tied)
    best = max(tied, key=lambda r: r[1] << (r[2] - low))
    return mpf_abs(best, mp.mp.prec, _RND)


def _pair(a, b, prec: int):
    """Convolution coefficients of the per-relay legitimate sum at prec.

    a and b are the spread dual-hop and direct rates as raw mpf; returns
    ((B1, b), (B2, a)) with f_X(x) = B1*exp(-b*x) + B2*exp(-a*x).
    """
    ab = mpf_mul(a, b, prec, _RND)
    return ((mpf_div(ab, mpf_sub(a, b, prec, _RND), prec, _RND), b),
            (mpf_div(ab, mpf_sub(b, a, prec, _RND), prec, _RND), a))


def _signed_sums(rates):
    """subset_rate_sums as (odd size, raw rate sum, count); the float sums
    convert exactly, so once per call serves every precision round."""
    return [(m & 1, from_float(am), count) for m, am, count in subset_rate_sums(rates)]


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
    spread = spread_rates((config.beta_kD[k], config.beta_sd))
    base_dps = working_dps(spread)
    a, b = (from_float(r) for r in spread)
    rho, ase, ake = (from_float(x) for x in (target.rho, config.alpha_se,
                                             config.alpha_ke[k]))

    if not others or minimize:
        # min of the rival taps is exponential with the summed rate (0 if none)
        alpha = from_float(math.fsum(others)) if others else fzero
        terms = _region_sums(lambda prec: _min_e_regions(
            rho, ase, ake, alpha, _pair(a, b, prec), prec), 2, base_dps)
        # a single relay under max selection has the three-slot shape
        return terms if minimize else (terms[0], 0.0, terms[1])
    subs = _signed_sums(others)
    return _region_sums(lambda prec: _max_e_regions(
        rho, ase, ake, _pair(a, b, prec), subs, prec), 3, base_dps)


def _region_sums(regions, n: int, base_dps: int) -> tuple:
    """The escalating sums of the n addend lists regions(prec) returns.

    The sums escalate one by one, but the first to reach a precision builds
    every region at it in one pass, which the others then reuse.
    """
    built: dict = {}

    def region(i):
        prec = mp.mp.prec
        if prec not in built:
            built[prec] = regions(prec)
        return built[prec][i]

    return tuple(_escalating_sum(lambda i=i: region(i), base_dps) for i in range(n))


def _min_e_regions(rho, ase, ake, alpha, pairs, prec: int):
    """Threshold-active and slack addends of one min-e (or lone) relay at
    prec, alpha the summed rival tap rate."""
    rm1 = mpf_sub(rho, fone, prec, _RND)
    sel = mpf_div(ake, mpf_add(alpha, ake, prec, _RND), prec, _RND)
    sel_ase = mpf_mul(sel, ase, prec, _RND)
    neg_sel = mpf_neg(sel, prec, _RND)
    ka_rho = mpf_div(mpf_add(ake, alpha, prec, _RND), rho, prec, _RND)
    threshold, slack = [], []
    for B, b in pairs:
        decay = mpf_exp(mpf_mul(mpf_neg(b, prec, _RND), rm1, prec, _RND), prec, _RND)
        rba = mpf_add(mpf_mul(rho, b, prec, _RND), ase, prec, _RND)
        t = mpf_mul(mpf_mul(sel_ase, B, prec, _RND), decay, prec, _RND)
        threshold.append((1, mpf_div(
            t, mpf_mul(rba, mpf_add(ka_rho, b, prec, _RND), prec, _RND), prec, _RND)))
        slack.append((1, mpf_div(mpf_mul(sel, B, prec, _RND), b, prec, _RND)))
        t = mpf_mul(neg_sel, mpf_div(B, b, prec, _RND), prec, _RND)
        t = mpf_mul(mpf_mul(t, ase, prec, _RND), decay, prec, _RND)
        slack.append((1, mpf_div(t, rba, prec, _RND)))
    return threshold, slack


def _max_e_regions(rho, ase, ake, pairs, subs, prec: int):
    """The three region sums' addends of one max-e relay at prec.

    Every addend is the expression the region's own loop would evaluate:
    ka = ake + a_S and ka + rho*b are shared, not changed. A subset of
    size m carries the sign -(-1)^m in the rival-boundary and slack sums and
    (-1)^m in the threshold sum; negating a rounded value is exact.
    """
    rm1 = mpf_sub(rho, fone, prec, _RND)
    rho_ase = mpf_mul(rho, ase, prec, _RND)
    hoisted = []  # per pair: B, b, B/b, rho*b, ase + rho*b, exp(-b*(rho-1))
    i1 = []  # per pair: its lead addend, then its subset addends
    for B, b in pairs:
        rb = mpf_mul(rho, b, prec, _RND)
        arb = mpf_add(ase, rb, prec, _RND)
        decay = mpf_exp(mpf_mul(mpf_neg(b, prec, _RND), rm1, prec, _RND), prec, _RND)
        hoisted.append((B, b, mpf_div(B, b, prec, _RND), rb, arb, decay))
        lead = mpf_div(mpf_mul(mpf_mul(rho_ase, B, prec, _RND), decay, prec, _RND),
                       arb, prec, _RND)
        # every subset adds sgn * lead/(ake + rho*b); the weighted signs
        # sum to exactly 1, so the addend enters once
        i1.append((lead, [(1, mpf_div(lead, mpf_add(ake, rb, prec, _RND), prec, _RND))]))
    i2, i3 = [], []
    for odd, am, count in subs:
        ka = mpf_add(ake, am, prec, _RND)
        sel2 = mpf_div(mpf_mul(mpf_mul(rho, am, prec, _RND), ase, prec, _RND), ka,
                       prec, _RND)
        sel3 = mpf_div(am, ka, prec, _RND)
        for (lead, out1), (B, b, B_b, rb, arb, decay) in zip(i1, hoisted):
            kb = mpf_add(ka, rb, prec, _RND)
            t1 = mpf_div(lead, kb, prec, _RND)
            t2 = mpf_div(mpf_mul(mpf_mul(sel2, B, prec, _RND), decay, prec, _RND),
                         mpf_mul(kb, arb, prec, _RND), prec, _RND)
            t3 = mpf_div(mpf_mul(sel3, B, prec, _RND), b, prec, _RND)
            t4 = mpf_mul(mpf_mul(mpf_mul(sel3, B_b, prec, _RND), ase, prec, _RND),
                         decay, prec, _RND)
            t4 = mpf_div(t4, arb, prec, _RND)
            if odd:
                t1, t4 = mpf_neg(t1), mpf_neg(t4)
            else:
                t2, t3 = mpf_neg(t2), mpf_neg(t3)
            out1.append((count, t1))
            i2.append((count, t2))
            i3.append((count, t3))
            i3.append((count, t4))
    return [t for _, out1 in i1 for t in out1], i2, i3


def _selection_breakdown(config: NetworkConfig, target: SecrecyTarget,
                         minimize: bool) -> SchemeTermBreakdown:
    """Per-relay terms of max or min selection. A relay's terms depend only on
    its tap and dual-hop rates (its rival multiset is everyone else), so
    each distinct relay is evaluated once and shared by its equals."""
    require_supported(config, Engine.ANALYTIC)
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


def _cdf_weights(rates, prec: int):
    """Difference-product weights (w_i, r_i) at prec, rates as raw mpf:
    F(x) = 1 - sum(w_i e^{-r_i x})."""
    out = []
    for i, ri in enumerate(rates):
        w = fone
        for j, rj in enumerate(rates):
            if j != i:
                w = mpf_mul(w, mpf_div(rj, mpf_sub(rj, ri, prec, _RND), prec, _RND),
                            prec, _RND)
        out.append((w, ri))
    return out


def sop_max_mrc(config: NetworkConfig, target: SecrecyTarget) -> SopResult:
    """SOP with a passive eavesdropper taking its best relayed link while the
    destination combines the direct link and every relayed link."""
    require_supported(config, Engine.ANALYTIC)
    legit = spread_rates((config.beta_sd,) + config.beta_kD)
    rates = [from_float(r) for r in legit]
    subs = _signed_sums(config.alpha_ke)
    rho, ase = from_float(target.rho), from_float(config.alpha_se)

    def build():
        prec = mp.mp.prec
        rm1 = mpf_sub(rho, fone, prec, _RND)
        neg_ase = mpf_neg(ase, prec, _RND)
        terms = [(1, fone)]
        for w, b in _cdf_weights(rates, prec):
            lead = mpf_mul(mpf_mul(neg_ase, w, prec, _RND), b, prec, _RND)
            lead = mpf_mul(lead, mpf_exp(mpf_mul(mpf_neg(b, prec, _RND), rm1, prec, _RND),
                                         prec, _RND), prec, _RND)
            rb = mpf_mul(rho, b, prec, _RND)
            arb = mpf_add(ase, rb, prec, _RND)
            terms.append((1, mpf_div(lead, mpf_mul(b, arb, prec, _RND), prec, _RND)))
            # (-1)^m * (lead*rho / ...), the sign an exact negation
            lead_rho = mpf_mul(lead, rho, prec, _RND)
            for odd, am, count in subs:
                t = mpf_div(lead_rho, mpf_mul(mpf_add(am, rb, prec, _RND), arb, prec, _RND),
                            prec, _RND)
                terms.append((count, mpf_neg(t) if odd else t))
        return terms

    total = _escalating_sum(build, working_dps(legit))
    return SopResult(_clip(total), Engine.ANALYTIC)


def sop_mrc_mrc(config: NetworkConfig, target: SecrecyTarget) -> SopResult:
    """SOP when both the destination and the eavesdropper combine the direct
    link with every relayed link."""
    require_supported(config, Engine.ANALYTIC)
    legit = spread_rates((config.beta_sd,) + config.beta_kD)
    eve = spread_rates((config.alpha_se,) + config.alpha_ke)
    legit_rates = [from_float(r) for r in legit]
    eve_rates = [from_float(r) for r in eve]
    rho = from_float(target.rho)

    def build():
        prec = mp.mp.prec
        neg_rm1 = mpf_neg(mpf_sub(rho, fone, prec, _RND), prec, _RND)
        we = _cdf_weights(eve_rates, prec)
        terms = []
        for wi, bi in _cdf_weights(legit_rates, prec):
            # exp(-(rho-1)*b_i) and rho*b_i once per legitimate rate
            decay = mpf_exp(mpf_mul(neg_rm1, bi, prec, _RND), prec, _RND)
            rbi = mpf_mul(rho, bi, prec, _RND)
            for vp, ap in we:
                prod = mpf_mul(wi, vp, prec, _RND)
                t = mpf_mul(mpf_mul(mpf_neg(prod, prec, _RND), ap, prec, _RND), decay,
                            prec, _RND)
                terms.append((1, prod))
                terms.append((1, mpf_div(t, mpf_add(ap, rbi, prec, _RND), prec, _RND)))
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
