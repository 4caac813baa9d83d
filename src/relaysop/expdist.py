"""Exponential-rate helpers shared by the closed-form engine.

`subset_rate_sums` enumerates the inclusion-exclusion terms of a maximum of
independent exponentials over rate sub-multisets (equal rates grouped, each
sub-multiset weighted by the number of subsets it stands for), capped at
MAX_RATES rates, the relay cap of the closed-form and quadrature engines.
`spread_rates` nudges near-coincident rates apart so difference products
stay nonzero, and `working_dps` sizes the mpmath precision those products
need from their worst-case cancellation.
"""

from __future__ import annotations

import math
from itertools import product
from typing import Sequence

from .errors import UnsupportedSizeError

#: rates closer than this (relative) are treated as equal
EPS_EQUAL_RATE = 1e-9
#: multiplicative offset scale used to spread near-equal rates apart
SPREAD_OFFSET = 1e-6
#: subset enumeration grows as 2^N for distinct rates; the relay cap of the
#: analytic and quadrature engines
MAX_RATES = 8
#: extra decimal digits beyond the estimated cancellation loss
_DPS_BASE = 25


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


def spread_rates(rates: Sequence[float], eps: float = EPS_EQUAL_RATE,
                 offset: float = SPREAD_OFFSET) -> tuple:
    """Nudge near-equal rates apart so difference products stay nonzero.

    Rates within `eps` relative of each other (transitively) form a group;
    each group member i gets a multiplicative offset centered on zero,
    (pos - (g-1)/2) * offset, so the group mean is preserved to first order
    and the induced distribution bias is O(offset^2). Positions follow the
    original index order for determinism. Output keeps the input order.
    """
    rates = tuple(float(r) for r in rates)
    if not rates:
        raise ValueError("rates must be a nonempty list")
    for r in rates:
        if not math.isfinite(r) or r <= 0:
            raise ValueError(f"rates must be strictly positive and finite, got {r!r}")
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
