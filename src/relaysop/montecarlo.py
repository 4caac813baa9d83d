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

Each block is reduced in two halves. The eavesdropper half (rescaled
eavesdropper links, relay picks, gamma_E and the outage thresholds
rho * (1 + gamma_E)) depends only on the eavesdropper rates, so configs
that share those rates, as the axis points of a main-link SNR sweep do,
share one copy of it per block; the legitimate half (gamma_M and the
counts) is formed per config. Grids with no MRC at the destination read
only the picked relay's legitimate links.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import SpecValidationError
from .model import (Engine, NetworkConfig, Scheme, SecrecyTarget, SopResult,
                    is_integer, require_valid)

_Z95 = 1.96  # normal 95% two-sided quantile used for the reported half-width


@dataclass(frozen=True)
class McSettings:
    """Trial count, base seed and chunk size of a Monte Carlo run, the `mc`
    section of a sweep spec; the defaults are every spec's and command's."""

    trials: int = 1_000_000
    seed: int = 12345
    chunk_size: int = 1 << 16

    def __post_init__(self):
        problems = []
        if not (is_integer(self.trials) and self.trials >= 1):
            problems.append(f"mc.trials: must be a positive integer, got {self.trials!r}")
        if not (is_integer(self.seed) and 0 <= self.seed < 2 ** 64):
            problems.append(f"mc.seed: must be a 64-bit nonnegative integer, "
                            f"got {self.seed!r}")
        if not (is_integer(self.chunk_size) and self.chunk_size >= 1):
            problems.append(f"mc.chunk_size: must be a positive integer, "
                            f"got {self.chunk_size!r}")
        if problems:
            raise SpecValidationError(problems)


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
    turn (sk, kd, sd, ke, se, as one rng.random call per group in that
    link order would read them); each group of the block is read from its
    place in that stream by advancing gen from `state`, so a block costs the
    same whichever rows it holds.
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


#: how each scheme combines at (the destination, the eavesdropper): through
#: the relay that np.argmax / np.argmin picks from the eavesdropper's relay
#: SNRs (ties break toward the lowest relay index), or over every relay (None)
_COMBINING = {Scheme.MAX_E: (np.argmax, np.argmax),
              Scheme.MIN_E: (np.argmin, np.argmin),
              Scheme.MAX_MRC: (None, np.argmax),
              Scheme.MRC_MRC: (None, None)}


class _Plan:
    """What a grid's (scheme, target) pairs read from every block.

    picks, m_sides and e_sides list, once each in first-use order, the relay
    picks and the destination and eavesdropper combinings the pairs use;
    thresholds the distinct (eavesdropper combining, rho) pairs; cells each
    pair's (destination combining, index into thresholds).
    """

    def __init__(self, pairs):
        combos = [_COMBINING[scheme] for scheme, _ in pairs]
        self.picks = list(dict.fromkeys(arg for combo in combos for arg in combo
                                        if arg is not None))
        self.m_sides = list(dict.fromkeys(m for m, _ in combos))
        self.e_sides = list(dict.fromkeys(e for _, e in combos))
        keys = [(e, target.rho) for (_, e), (_, target) in zip(combos, pairs)]
        self.thresholds = list(dict.fromkeys(keys))
        self.cells = [(m, self.thresholds.index(key)) for (m, _), key in zip(combos, keys)]
        #: with no MRC at the destination, only the picked relay's links count
        self.selection_only = None not in self.m_sides


class _Scratch:
    """One worker thread's buffers for blocks of up to `rows` rows."""

    def __init__(self, plan: _Plan, rows: int, n: int):
        self.unit = np.empty(rows * (3 * n + 2))
        self.offsets = np.arange(0, rows * n, n)  # flat index of each row's relay 0
        # rescaled link SNRs in _unit_rows's group order (sk, kd, sd, ke, se)
        self.links = [np.empty((rows, n)), np.empty((rows, n)), np.empty(rows),
                      np.empty((rows, n)), np.empty(rows)]
        # each pick as (relay index, flat index) of every row
        self.picks = {arg: (np.empty(rows, np.intp), np.empty(rows, np.intp))
                      for arg in plan.picks}
        self.gamma_e = {e: np.empty(rows) for e in plan.e_sides}
        self.gamma_m = {m: np.empty(rows) for m in plan.m_sides}
        self.thresholds = np.empty((len(plan.thresholds), rows))
        self.outage = np.empty(rows, dtype=bool)


def _eavesdropper_half(plan: _Plan, ke, se, rates, scratch: _Scratch):
    """The eavesdropper's side of one block at one (alpha_ke, alpha_se),
    which every config with those rates shares.

    Rescales ke and se, takes each relay pick once, forms gamma_E of each
    eavesdropper combining and each threshold rho * (1 + gamma_E), all into
    scratch. Returns (picks, gamma_e, thresholds): picks maps each pick to
    its rows' (relay index, flat index), gamma_e each combining to its
    values, and thresholds holds one row per entry of plan.thresholds.
    """
    b = len(se)
    gke = np.divide(ke, rates[3], out=scratch.links[3][:b])
    gse = np.divide(se, rates[4], out=scratch.links[4][:b])
    picks = {}
    for arg, (index, flat) in scratch.picks.items():
        index = arg(gke, axis=1, out=index[:b])
        picks[arg] = index, np.add(index, scratch.offsets[:b], out=flat[:b])
    gamma_e = {e: np.add(gse, gke.sum(axis=1) if e is None else gke.take(picks[e][1]),
                         out=out[:b])
               for e, out in scratch.gamma_e.items()}
    thresholds = scratch.thresholds[:, :b]
    for row, (e, rho) in zip(thresholds, plan.thresholds):
        np.multiply(rho, np.add(1.0, gamma_e[e], out=row), out=row)
    return picks, gamma_e, thresholds


def _legitimate_half(plan: _Plan, sk, kd, sd, rates, picks, scratch: _Scratch):
    """gamma_M of each destination combining over one block for one config,
    into scratch.

    Only sk, kd and sd are rescaled. Without MRC in the plan only the picked
    relay's sk and kd values are read, each divided by that relay's rates:
    the same quotients as rescaling every column.
    """
    b = len(sd)
    gsd = np.divide(sd, rates[2], out=scratch.links[2][:b])
    if not plan.selection_only:
        eff = np.minimum(np.divide(sk, rates[0], out=scratch.links[0][:b]),
                         np.divide(kd, rates[1], out=scratch.links[1][:b]),
                         out=scratch.links[0][:b])
    gamma_m = {}
    for m, out in scratch.gamma_m.items():
        if m is None:
            relays = eff.sum(axis=1)
        elif plan.selection_only:
            index, flat = picks[m]
            relays = np.minimum(sk.take(flat) / rates[0].take(index),
                                kd.take(flat) / rates[1].take(index))
        else:
            relays = eff.take(picks[m][1])
        gamma_m[m] = np.add(gsd, relays, out=out[:b])
    return gamma_m


def _add_counts(plan: _Plan, gamma_m, thresholds, scratch: _Scratch, counts) -> None:
    """Add each pair's outage count in one block, 1 + gamma_M below its
    threshold, to counts[pair]; turns gamma_m into 1 + gamma_M in place."""
    lhs = {m: np.add(1.0, g, out=g) for m, g in gamma_m.items()}
    outage = scratch.outage[:thresholds.shape[1]]
    for i, (m, t) in enumerate(plan.cells):
        counts[i] += np.count_nonzero(np.less(lhs[m], thresholds[t], out=outage))


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
    chunk-sized is allocated. Configs with equal eavesdropper rates
    (alpha_ke, alpha_se) share that half of each block: its rescaled
    eavesdropper links, relay picks, gamma_E and thresholds are formed once
    per block for all of them, and each config adds only its legitimate
    links. A grid without MRC at the destination reads only the picked
    relay's sk and kd values. `workers` threads take blocks from one shared
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
    groups: dict = {}  # (alpha_ke, alpha_se) -> the configs with those rates
    for k, config in enumerate(configs):
        groups.setdefault((config.alpha_ke, config.alpha_se), []).append(k)
    plan = _Plan(pairs)
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
        scratch = _Scratch(plan, rows, n)
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
                sk, kd, sd, ke, se = _unit_rows(gen, state, size, n, lo,
                                                scratch.unit[:b * (3 * n + 2)])
                for members in groups.values():
                    picks, _, thresholds = _eavesdropper_half(
                        plan, ke, se, rates[members[0]], scratch)
                    for k in members:
                        gamma_m = _legitimate_half(plan, sk, kd, sd, rates[k], picks,
                                                   scratch)
                        _add_counts(plan, gamma_m, thresholds, scratch, counts[k])

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
