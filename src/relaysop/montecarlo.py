"""Seeded, chunked Monte Carlo estimation of secrecy outage.

Trials are partitioned into fixed chunks; chunk c draws from an independent
generator seeded with (seed, c), so the estimate depends only on
(config, scheme, target, trials, seed, chunk_size) and not on the worker
count or scheduling. Sampling uses the inverse CDF -ln(U)/rate with U
uniform on (0, 1], drawn in a fixed link order.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import (Engine, NetworkConfig, Scheme, SecrecyTarget, SopResult,
                    require_valid)

_Z95 = 1.96  # normal 95% two-sided quantile used for the reported half-width


@dataclass(frozen=True)
class ChannelRealization:
    """One draw of all 3N+2 instantaneous link SNRs."""

    gamma_sk: tuple
    gamma_kd: tuple
    gamma_sd: float
    gamma_ke: tuple
    gamma_se: float

    def __post_init__(self):
        object.__setattr__(self, "gamma_sk", tuple(float(x) for x in self.gamma_sk))
        object.__setattr__(self, "gamma_kd", tuple(float(x) for x in self.gamma_kd))
        object.__setattr__(self, "gamma_ke", tuple(float(x) for x in self.gamma_ke))
        for name in ("gamma_sk", "gamma_kd", "gamma_ke"):
            for v in getattr(self, name):
                if v < 0 or not math.isfinite(v):
                    raise ValueError(f"{name} entries must be finite and >= 0")
        if self.gamma_sd < 0 or self.gamma_se < 0:
            raise ValueError("direct-link SNRs must be >= 0")


@dataclass(frozen=True)
class McSettings:
    """Trial count, base seed and chunk size of a Monte Carlo run."""

    trials: int
    seed: int
    chunk_size: int = 1 << 16

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {self.chunk_size}")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must be a 64-bit nonnegative integer")


def _inv_exp(u01, rate):
    """Inverse-CDF exponential draw from u01 in [0,1): -ln(1-u01)/rate."""
    return -np.log1p(-u01) / rate


def sample_realization(config: NetworkConfig, rng: np.random.Generator) -> ChannelRealization:
    """Draw one realization; link order sk[0..N), kd[0..N), sd, ke[0..N), se."""
    n = config.n_relays
    gsk = [float(_inv_exp(rng.random(), config.beta_sk[i])) for i in range(n)]
    gkd = [float(_inv_exp(rng.random(), config.beta_kd[i])) for i in range(n)]
    gsd = float(_inv_exp(rng.random(), config.beta_sd))
    gke = [float(_inv_exp(rng.random(), config.alpha_ke[i])) for i in range(n)]
    gse = float(_inv_exp(rng.random(), config.alpha_se))
    return ChannelRealization(gsk, gkd, gsd, gke, gse)


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
    if scheme is Scheme.MRC_MRC:
        return gm, r.gamma_se + math.fsum(r.gamma_ke)
    raise ValueError(f"unknown scheme {scheme!r}")


def _sample_chunk(config: NetworkConfig, seed: int, chunk_index: int, n_trials: int):
    """Vectorized draw of a whole chunk, same link order as sample_realization."""
    rng = np.random.default_rng((seed, chunk_index))
    n = config.n_relays
    gsk = _inv_exp(rng.random((n_trials, n)), np.asarray(config.beta_sk))
    gkd = _inv_exp(rng.random((n_trials, n)), np.asarray(config.beta_kd))
    gsd = _inv_exp(rng.random(n_trials), config.beta_sd)
    gke = _inv_exp(rng.random((n_trials, n)), np.asarray(config.alpha_ke))
    gse = _inv_exp(rng.random(n_trials), config.alpha_se)
    return gsk, gkd, gsd, gke, gse


def _shared_snrs(arrays):
    """(min(gsk, gkd), gsd, gke, gse): what every scheme reduces from a chunk."""
    gsk, gkd, gsd, gke, gse = arrays
    return np.minimum(gsk, gkd), gsd, gke, gse


def _scheme_snrs(shared, scheme: Scheme):
    """Vectorized run_scheme over the shared arrays of a sampled chunk."""
    gkd_eff, gsd, gke, gse = shared
    if scheme in (Scheme.MAX_E, Scheme.MIN_E):
        pick = np.argmax(gke, axis=1) if scheme is Scheme.MAX_E else np.argmin(gke, axis=1)
        rows = np.arange(gke.shape[0])
        return gsd + gkd_eff[rows, pick], gse + gke[rows, pick]
    gm = gsd + gkd_eff.sum(axis=1)
    if scheme is Scheme.MAX_MRC:
        return gm, gse + gke.max(axis=1)
    return gm, gse + gke.sum(axis=1)


def _scheme_outages(shared, scheme: Scheme, uses) -> list:
    """Outage count of each (index, rho) in `uses` from one scheme's reduction.

    The scheme's arrays are freed on return, before the next scheme is reduced.
    """
    gm, ge = _scheme_snrs(shared, scheme)
    lhs, rhs = 1.0 + gm, 1.0 + ge
    return [int(np.count_nonzero(lhs < rho * rhs)) for _, rho in uses]


def _ci_halfwidth(successes: int, trials: int) -> float:
    """95% half-width: normal approximation, Wilson when either count < 10."""
    p = successes / trials
    if min(successes, trials - successes) >= 10:
        return _Z95 * math.sqrt(p * (1.0 - p) / trials)
    z2 = _Z95 * _Z95
    return (_Z95 * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials))
            / (1.0 + z2 / trials))


def estimate_sop_many(config: NetworkConfig, scheme_targets, settings: McSettings,
                      workers: int = 1) -> list[SopResult]:
    """Monte Carlo SOP estimates of every (scheme, target) pair from one set of draws.

    Each chunk is sampled once; each distinct scheme is reduced once per
    chunk, one at a time so that only one scheme's (gamma_M, gamma_E) arrays
    are alive, and every target of that scheme is counted from them. Result
    i belongs to pair i and is bit-identical to estimate_sop on that pair.
    """
    pairs = list(scheme_targets)
    if not pairs:
        raise ValueError("scheme_targets must name at least one (scheme, target) pair")
    require_valid(config)
    by_scheme: dict = {}
    for i, (scheme, target) in enumerate(pairs):
        by_scheme.setdefault(scheme, []).append((i, target.rho))
    n_chunks = (settings.trials + settings.chunk_size - 1) // settings.chunk_size

    def chunk_counts(c: int) -> list:
        size = min(settings.chunk_size, settings.trials - c * settings.chunk_size)
        shared = _shared_snrs(_sample_chunk(config, settings.seed, c, size))
        counts = [0] * len(pairs)
        for scheme, uses in by_scheme.items():
            for (i, _), count in zip(uses, _scheme_outages(shared, scheme, uses)):
                counts[i] = count
        return counts

    if workers > 1 and n_chunks > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_chunk = list(pool.map(chunk_counts, range(n_chunks)))
    else:
        per_chunk = [chunk_counts(c) for c in range(n_chunks)]

    return [SopResult(value=total / settings.trials,
                      engine=Engine.MONTE_CARLO,
                      trials=settings.trials,
                      ci_halfwidth=_ci_halfwidth(total, settings.trials),
                      seed=settings.seed)
            for total in map(sum, zip(*per_chunk))]


def estimate_sop(config: NetworkConfig, scheme: Scheme, target: SecrecyTarget,
                 settings: McSettings, workers: int = 1) -> SopResult:
    """Monte Carlo SOP estimate; bit-identical for equal settings at any worker count."""
    return estimate_sop_many(config, [(scheme, target)], settings, workers)[0]
