"""The qualitative claims of the paper's figures, checked on analytic SOP.

A claim takes the figure's variants as (label, SweepSpec) pairs, whose
grids, schemes and thresholds are the cells it reads, and one table per
variant (`analytic_table`). It appends a "PASS: ..." or "FAIL: ..." line to
a report and returns whether it held. A cell missing from a table (its row
failed) fails every claim that reads it, and the FAIL line names it.
`reproduce` and the acceptance tests both run these claims.
"""

from __future__ import annotations

import math

from .analytic import slope_between, sop_analytic
from .errors import ConvergenceError, SlopeUndefinedError, UnsupportedSizeError
from .model import Scheme, SecrecyTarget
from .sweep import config_at, snr_grid

#: where fig3-unbalanced's swept hop is negligible next to its 30 dB pinned
#: hop (rate ratio 1e-7), so the SOP there is the floor itself
FLOOR_SNR_DB = 100.0
#: allowed relative miss of the first-order floor-gap law lambda_RD/lambda_SR
FLOOR_GAP_TOL = 0.10
#: least relative fall over the last step of a sweep without a floor
BALANCED_FALL = 0.10
#: tie tolerance of the scheme orderings; at N=1 the schemes coincide
TIE_TOL = 1e-12


def analytic_table(rows) -> dict:
    """(snr_db, scheme, rs) -> SOP of a sweep's ok analytic rows."""
    return {(r.snr_db, r.scheme, r.rs): r.sop for r in rows
            if r.status == "ok" and r.engine == "analytic"}


class _Cells:
    """Table lookups for the claims of one report. A missing cell reads as
    NaN, so every comparison on it is false, and the next check names it."""

    def __init__(self, report):
        self.report = report
        self.missing = {}

    def get(self, label, table, snr, scheme, rs):
        value = table.get((snr, scheme, rs))
        if value is None:
            self.miss(f"{label} {scheme.value} rs={rs:g}", f"{snr:g} dB")
            return math.nan
        return value

    def miss(self, cell, where):
        self.missing.setdefault(cell, []).append(where)

    def check(self, ok: bool, text: str) -> bool:
        if self.missing:
            ok = False
            text += "; missing cells: " + ", ".join(
                f"{cell} at {', '.join(dict.fromkeys(where))}"
                for cell, where in self.missing.items())
            self.missing = {}
        self.report.append(f"{'PASS' if ok else 'FAIL'}: {text}")
        return ok


def fig2_claims(specs, tables, report) -> bool:
    """Relay count raises max-e and lowers min-e SOP at every axis point
    >= 5 dB; rs=1 has the higher SOP; curve-to-curve gaps shrink as the
    relay count grows. The variants are ordered by relay count."""
    cells = _Cells(report)
    spec = specs[0][1]
    grid = snr_grid(spec)
    high = [s for s in grid if s >= 5.0]
    count = range(len(specs))

    def sop(i, snr, scheme, rs):
        return cells.get(specs[i][0], tables[i], snr, scheme, rs)

    ok = True
    for scheme, direction in ((Scheme.MAX_E, 1), (Scheme.MIN_E, -1)):
        mono = [direction * (sop(i + 1, s, scheme, rs) - sop(i, s, scheme, rs)) > 0
                for i in count[:-1] for s in high for rs in spec.rs_values]
        word = "increases" if direction > 0 else "decreases"
        ok &= cells.check(all(mono),
                          f"{scheme.value} SOP strictly {word} with relay count at "
                          f"every axis point >= 5 dB")
    rs_mono = [sop(i, s, scheme, 1.0) > sop(i, s, scheme, 0.0)
               for i in count for s in grid for scheme in spec.schemes]
    ok &= cells.check(all(rs_mono), "SOP at rs=1 exceeds SOP at rs=0 everywhere")
    gaps = [abs(sop(i + 2, s, scheme, rs) - sop(i + 1, s, scheme, rs))
            < abs(sop(i + 1, s, scheme, rs) - sop(i, s, scheme, rs))
            for i in count[:-2]
            for s in high for scheme in spec.schemes for rs in spec.rs_values]
    ok &= cells.check(all(gaps), "curve-to-curve gaps shrink as the relay count grows")
    return ok


def keeps_falling(label, spec, table, report) -> bool:
    """No floor: the SOP falls by more than BALANCED_FALL over the last step."""
    cells = _Cells(report)
    lo_db, hi_db = snr_grid(spec)[-2:]
    ok = True
    for scheme in spec.schemes:
        for rs in spec.rs_values:
            hi = cells.get(label, table, hi_db, scheme, rs)
            change = abs(cells.get(label, table, lo_db, scheme, rs) - hi) / hi
            ok &= cells.check(change > BALANCED_FALL,
                              f"{label} {scheme.value} rs={rs:g} keeps falling: "
                              f"relative change {change:.4f} > {BALANCED_FALL:.2f}")
    return ok


def approaches_floor(label, spec, table, report) -> bool:
    """The SOP approaches a positive floor F, its value at FLOOR_SNR_DB, and
    its gap above F at the top of the sweep is lambda_RD/lambda_SR to first
    order (within FLOOR_GAP_TOL). Every relay carries the same hop pair."""
    cells = _Cells(report)
    hi_db = snr_grid(spec)[-1]
    top = config_at(spec, hi_db)
    predicted = top.beta_kd[0] / top.beta_sk[0]
    ok = True
    for scheme in spec.schemes:
        for rs in spec.rs_values:
            hi = cells.get(label, table, hi_db, scheme, rs)
            try:
                floor = sop_analytic(config_at(spec, FLOOR_SNR_DB), scheme,
                                     SecrecyTarget(rs)).value
            except (ConvergenceError, UnsupportedSizeError, ValueError):
                cells.miss(f"{label} {scheme.value} rs={rs:g}",
                           f"{FLOOR_SNR_DB:g} dB (floor)")
                floor = math.nan
            gap = (hi - floor) / floor if floor > 0 else math.inf
            ok &= cells.check(abs(gap - predicted) <= FLOOR_GAP_TOL * predicted,
                              f"{label} {scheme.value} rs={rs:g} approaches a floor: "
                              f"F = {floor:.6g}, (SOP({hi_db:g})-F)/F = {gap:.4f} "
                              f"~ lambda_RD/lambda_SR = {predicted:.4f}")
    return ok


def fig3_claims(specs, tables, report) -> bool:
    """The balanced variant keeps falling; the unbalanced one approaches a floor."""
    ok = True
    for (label, spec), table in zip(specs, tables):
        claim = keeps_falling if label == "balanced" else approaches_floor
        ok &= claim(label, spec, table, report)
    return ok


def settles(holds) -> bool:
    """True when an ordering, read over rising SNR, holds at the top of the
    sweep and never reverts once it holds."""
    return bool(holds) and holds[-1] and all(holds[holds.index(True):])


def fig4_claims(specs, tables, report) -> bool:
    """mrc-mrc >= max-mrc at every point; max-e >= mrc-mrc and
    min-e >= max-mrc cross once (see `settles`)."""
    cells = _Cells(report)
    ok = True
    for (label, spec), table in zip(specs, tables):
        grid = snr_grid(spec)
        for rs in spec.rs_values:
            for upper, lower, sure in ((Scheme.MRC_MRC, Scheme.MAX_MRC, True),
                                       (Scheme.MAX_E, Scheme.MRC_MRC, False),
                                       (Scheme.MIN_E, Scheme.MAX_MRC, False)):
                holds = [cells.get(label, table, s, upper, rs)
                         >= cells.get(label, table, s, lower, rs) - TIE_TOL
                         for s in grid]
                name = f"{label} rs={rs:g} {upper.value} >= {lower.value}"
                if sure:
                    ok &= cells.check(all(holds), f"{name} at every grid point")
                    continue
                since = holds.index(True) if True in holds else len(holds)
                where = (f"from {grid[since]:g} dB up" if since < len(grid)
                         else "nowhere")
                ok &= cells.check(settles(holds),
                                  f"{name} crosses once and holds {where}")
    return ok


def figure_report(figure, specs, tables) -> list:
    """Report lines of one figure: a title, its claims, then the diversity
    slopes over [30, 40] dB from the tables' values."""
    report = [f"{figure} qualitative checks"]
    {"fig2": fig2_claims, "fig3": fig3_claims, "fig4": fig4_claims}[figure](
        specs, tables, report)
    report += ["", "diversity slopes over [30, 40] dB:"]
    for (label, spec), table in zip(specs, tables):
        for scheme in spec.schemes:
            for rs in spec.rs_values:
                head = f"  {figure} {label} {scheme.value} rs={rs:g}:"
                lo, hi = table.get((30.0, scheme, rs)), table.get((40.0, scheme, rs))
                if lo is None or hi is None:
                    report.append(f"{head} slope undefined (missing cells)")
                    continue
                try:
                    report.append(f"{head} slope={slope_between(lo, hi, 30.0, 40.0):.4f}")
                except SlopeUndefinedError:
                    report.append(f"{head} slope undefined (SOP underflow)")
    return report
