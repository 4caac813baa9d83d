"""Seeded, chunked Monte Carlo estimation of secrecy outage.

Trials are partitioned into fixed chunks; chunk c draws from an independent
generator seeded with (seed, c), so the estimate depends only on
(config, scheme, target, trials, seed, chunk_size) and not on the worker
count or scheduling. Sampling uses the inverse CDF -ln(U)/rate with U
uniform on (0, 1], drawn in a fixed link order.

The stream does not depend on the rates, so one draw of a chunk serves many
configs of one relay count (common random numbers): estimate_sop_grid turns
each chunk into unit-rate exponentials once, and every config divides them
by its own rates. The work is cut into blocks of rows small enough to stay
in a core's cache: each block reads its rows' values straight from the
chunk's stream (the generator jumps ahead to them), and worker threads take
blocks from one shared list.
"""

from __future__ import annotations

import math
import threading
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


#: float64 values of unit exponentials in one block; a block and one config's
#: rescaled copy of it stay within a core's cache while every config reads it
_BLOCK_VALUES = 1 << 17


def _block_rows(n: int) -> int:
    """Rows of a chunk in one block at relay count n."""
    return max(1, _BLOCK_VALUES // (3 * n + 2))


def _chunk_state(seed: int, chunk_index: int) -> dict:
    """Generator state at the start of chunk chunk_index's stream."""
    return np.random.default_rng((seed, chunk_index)).bit_generator.state


def _generator():
    """A generator for _unit_rows, which sets its state before every draw."""
    return np.random.Generator(np.random.PCG64(0))


def _unit_rows(gen, state: dict, size: int, n: int, lo: int, out):
    """Unit-rate exponentials -ln(1-U) of rows [lo, lo + b) of a chunk of
    `size` rows, written into out (b * (3n+2) values) and split as
    (sk, kd, sd, ke, se).

    The chunk's stream holds each link group's values for all its rows in
    turn (sk, kd, sd, ke, se, as one rng.random call per group in the link
    order of sample_realization would read them); each group of the block is
    read from its place in that stream by advancing gen from `state`, so a
    block costs the same whichever rows it holds.
    """
    b = len(out) // (3 * n + 2)
    groups = []
    start = pos = 0
    for width, shape in zip((n, n, 1, n, 1), ((b, n), (b, n), b, (b, n), b)):
        gen.bit_generator.state = state
        gen.bit_generator.advance(start + lo * width)
        group = out[pos:pos + b * width]
        gen.random(out=group)
        groups.append(group.reshape(shape))
        start += size * width
        pos += b * width
    np.negative(out, out=out)
    np.log1p(out, out=out)
    np.negative(out, out=out)
    return tuple(groups)


def _rates(config: NetworkConfig):
    """Per-link rates in the order of _unit_rows's groups."""
    return (np.asarray(config.beta_sk), np.asarray(config.beta_kd), config.beta_sd,
            np.asarray(config.alpha_ke), config.alpha_se)


def _sample_chunk(config: NetworkConfig, seed: int, chunk_index: int, n_trials: int):
    """Vectorized draw of a whole chunk, same link order as sample_realization."""
    n = config.n_relays
    unit = _unit_rows(_generator(), _chunk_state(seed, chunk_index), n_trials, n, 0,
                      np.empty(n_trials * (3 * n + 2)))
    return tuple(u / rate for u, rate in zip(unit, _rates(config)))


def _shared_snrs(arrays, out=None):
    """(min(gsk, gkd), gsd, gke, gse): what every scheme reduces from a chunk."""
    gsk, gkd, gsd, gke, gse = arrays
    return np.minimum(gsk, gkd, out=out), gsd, gke, gse


def _reductions(shared, schemes):
    """Yield (scheme, gamma_M, gamma_E) of each scheme, vectorized run_scheme.

    The argmax pick of gke serves both max-e and max-mrc, and the row sum of
    gkd_eff both MRC schemes; each is computed once, on first use.
    """
    gkd_eff, gsd, gke, gse = shared
    picks = {}
    mrc_gm = None

    def pick(arg):  # flat index of each row's selected relay
        if arg not in picks:
            picks[arg] = arg(gke, axis=1) + np.arange(0, gke.size, gke.shape[1])
        return picks[arg]

    for scheme in schemes:
        if scheme in (Scheme.MAX_E, Scheme.MIN_E):
            k = pick(np.argmax if scheme is Scheme.MAX_E else np.argmin)
            yield scheme, gsd + gkd_eff.take(k), gse + gke.take(k)
            continue
        if mrc_gm is None:
            mrc_gm = gsd + gkd_eff.sum(axis=1)
        if scheme is Scheme.MAX_MRC:
            yield scheme, mrc_gm, gse + gke.take(pick(np.argmax))
        else:
            yield scheme, mrc_gm, gse + gke.sum(axis=1)


def _scheme_snrs(shared, scheme: Scheme):
    """Vectorized run_scheme over the shared arrays of a sampled chunk."""
    _, gm, ge = next(_reductions(shared, [scheme]))
    return gm, ge


def _rescale(block, rates, scratch):
    """One config's shared arrays (see _shared_snrs) for a block of unit
    exponentials, divided by its rates into scratch rows."""
    b = len(block[2])
    arrays = [np.divide(u, r, out=s[:b]) for u, r, s in zip(block, rates, scratch)]
    return _shared_snrs(arrays, out=arrays[0])


def _block_counts(shared, by_scheme, counts) -> None:
    """Add each pair's outage count in one block to counts[index]."""
    for scheme, gm, ge in _reductions(shared, by_scheme):
        lhs, rhs = 1.0 + gm, 1.0 + ge
        for i, rho in by_scheme[scheme]:
            counts[i] += np.count_nonzero(lhs < rho * rhs)


def _ci_halfwidth(successes: int, trials: int) -> float:
    """95% half-width: normal approximation, Wilson when either count < 10."""
    p = successes / trials
    if min(successes, trials - successes) >= 10:
        return _Z95 * math.sqrt(p * (1.0 - p) / trials)
    z2 = _Z95 * _Z95
    return (_Z95 * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials))
            / (1.0 + z2 / trials))


def estimate_sop_grid(configs, scheme_targets, settings: McSettings,
                      workers: int = 1) -> list[list[SopResult]]:
    """Monte Carlo SOP of every (scheme, target) pair at every config.

    All configs must have the same relay count. The chunks' trials are cut
    into blocks of about _BLOCK_VALUES unit exponentials; each block is
    drawn once and every config rescales it by its own rates into reused
    scratch, so the working set stays within a core's cache and nothing
    chunk-sized is allocated. `workers` threads take blocks from one shared
    list until it is empty, so a thread that runs slow holds up the end of
    the call by one block at most (numpy releases the interpreter lock while
    it draws and reduces).
    Result [k][i] belongs to config k and pair i and is bit-identical to
    estimate_sop on them, at any worker count.
    """
    configs, pairs = list(configs), list(scheme_targets)
    if not configs:
        raise ValueError("configs must name at least one network config")
    if not pairs:
        raise ValueError("scheme_targets must name at least one (scheme, target) pair")
    for config in configs:
        require_valid(config)
    n = configs[0].n_relays
    if any(config.n_relays != n for config in configs):
        raise ValueError("every config of a grid must have the same relay count")
    rates = [_rates(config) for config in configs]
    by_scheme: dict = {}
    for i, (scheme, target) in enumerate(pairs):
        by_scheme.setdefault(scheme, []).append((i, target.rho))
    rows = min(settings.trials, settings.chunk_size, _block_rows(n))
    blocks = []  # (chunk state, chunk size, first row, rows)
    for c, first in enumerate(range(0, settings.trials, settings.chunk_size)):
        size = min(settings.chunk_size, settings.trials - first)
        state = _chunk_state(settings.seed, c)
        blocks.extend((state, size, lo, min(rows, size - lo))
                      for lo in range(0, size, rows))
    todo, lock = iter(blocks), threading.Lock()

    def take_blocks(_=None) -> np.ndarray:
        gen = _generator()
        unit = np.empty(rows * (3 * n + 2))
        scratch = [np.empty((rows, n)), np.empty((rows, n)), np.empty(rows),
                   np.empty((rows, n)), np.empty(rows)]
        counts = np.zeros((len(configs), len(pairs)), dtype=np.int64)
        # a subnormal link rate turns some draws into infinite SNRs, which
        # the reductions handle; numpy's overflow warning says nothing more
        with np.errstate(over="ignore"):
            while True:
                with lock:
                    task = next(todo, None)
                if task is None:
                    return counts
                state, size, lo, b = task
                block = _unit_rows(gen, state, size, n, lo, unit[:b * (3 * n + 2)])
                for k, config_rates in enumerate(rates):
                    _block_counts(_rescale(block, config_rates, scratch), by_scheme,
                                  counts[k])

    threads = min(workers, len(blocks))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            totals = sum(pool.map(take_blocks, range(threads)))
    else:
        totals = take_blocks()

    return [[SopResult(value=total / settings.trials,
                       engine=Engine.MONTE_CARLO,
                       trials=settings.trials,
                       ci_halfwidth=_ci_halfwidth(total, settings.trials),
                       seed=settings.seed)
             for total in row]
            for row in totals.tolist()]


def estimate_sop_many(config: NetworkConfig, scheme_targets, settings: McSettings,
                      workers: int = 1) -> list[SopResult]:
    """Monte Carlo SOP estimates of every (scheme, target) pair from one set of draws."""
    return estimate_sop_grid([config], scheme_targets, settings, workers)[0]


def estimate_sop(config: NetworkConfig, scheme: Scheme, target: SecrecyTarget,
                 settings: McSettings, workers: int = 1) -> SopResult:
    """Monte Carlo SOP estimate; bit-identical for equal settings at any worker count."""
    return estimate_sop_many(config, [(scheme, target)], settings, workers)[0]
