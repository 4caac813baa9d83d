"""Row checker: every row a workload produces is either right or failed.

A row fails when its status is not `ok`, when it is missing or duplicated,
or when it fails one of these checks:

* analytic and quad rows at one grid point agree within 1e-5 absolute
  (acceptance criterion 1); both rows fail when they do not;
* a Monte Carlo row lies within 4 of its half-widths of the analytic row at
  the same grid point, wherever the workload has one;
* a Monte Carlo half-width is the 95% half-width of its own estimate
  (normal approximation, Wilson when either count is below 10), and its
  trial count matches the reference;
* at the default seed, a Monte Carlo row is byte-identical to the reference
  recorded from the program (the seeded-stream contract); at other seeds its
  seed column is the reference seed shifted by the same amount;
* an analytic row is within 1e-9 relative of the reference. Analytic rows
  do not depend on the seed, so this holds at every seed.
"""

from __future__ import annotations

import csv
import math
import os

from bench_workloads import DEFAULT_SEED, Row

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
AGREE_ABS = 1e-5
MC_HALFWIDTHS = 4.0
ANALYTIC_REL = 1e-9
_Z95 = 1.96
_REF_HEADER = ("file", "variant", "snr_db", "scheme", "rs", "engine", "sop",
               "ci_halfwidth", "trials", "seed", "status")


def reference_path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.csv")


def write_reference(path: str, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(_REF_HEADER)
        for r in rows:
            w.writerow([*r.key, *r[1:]])


def load_reference(path: str) -> list:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return [Row(tuple(v[:5]), *v[5:]) for v in reader]


def ci_halfwidth(successes: int, trials: int) -> float:
    """95% half-width of an outage count, as the Monte Carlo engine documents it."""
    p = successes / trials
    if min(successes, trials - successes) >= 10:
        return _Z95 * math.sqrt(p * (1.0 - p) / trials)
    z2 = _Z95 * _Z95
    return (_Z95 * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials))
            / (1.0 + z2 / trials))


def _float(text: str):
    try:
        value = float(text)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def check_rows(rows, reference, seed: int):
    """Check one pass's rows against the reference of its workload.

    Returns (attempted, failed, problems): attempted is the number of rows
    the workload must produce, failed the number that are missing or fail a
    check, problems a description per failed row.
    """
    expected = {(r.key, r.engine): r for r in reference}
    got = {}
    failed = {}

    def fail(ident, why):
        failed.setdefault(ident, f"{ident[0]} {ident[1]}: {why}")

    for r in rows:
        ident = (r.key, r.engine)
        if ident not in expected:
            fail(ident, "unexpected row")
        elif ident in got:
            fail(ident, "duplicate row")
        got[ident] = r
    for ident in expected:
        if ident not in got:
            fail(ident, "missing")

    values = {}
    for ident, r in got.items():
        ref = expected.get(ident)
        if ref is None:
            continue
        if r.status != "ok":
            fail(ident, f"status {r.status}")
            continue
        sop = _float(r.sop)
        if sop is None or not 0.0 <= sop <= 1.0:
            fail(ident, f"sop {r.sop!r} is not a probability")
            continue
        values[ident] = sop
        if r.engine == "analytic":
            ref_sop = float(ref.sop)
            if not abs(sop - ref_sop) <= ANALYTIC_REL * abs(ref_sop):
                fail(ident, f"analytic {r.sop} differs from reference {ref.sop}")
        elif r.engine == "mc":
            _check_mc(ident, r, ref, sop, seed, fail)

    for ident, sop in values.items():
        key, engine = ident
        if engine == "quad" and (key, "analytic") in values:
            a = values[(key, "analytic")]
            if not abs(a - sop) <= AGREE_ABS:
                fail(ident, f"quad {sop!r} vs analytic {a!r}")
                fail((key, "analytic"), f"analytic {a!r} vs quad {sop!r}")
        if engine == "mc" and (key, "analytic") in values:
            a = values[(key, "analytic")]
            hw = float(got[ident].ci_halfwidth)
            if not abs(a - sop) <= MC_HALFWIDTHS * hw:
                fail(ident, f"mc {sop!r} is more than {MC_HALFWIDTHS:g} half-widths "
                            f"({hw!r}) from analytic {a!r}")

    attempted = len(expected)
    n_failed = sum(1 for ident in failed if ident in expected)
    return attempted, n_failed, sorted(failed.values())


def _check_mc(ident, r, ref, sop, seed, fail):
    hw = _float(r.ci_halfwidth)
    if r.trials != ref.trials:
        fail(ident, f"trials {r.trials!r}, expected {ref.trials!r}")
        return
    trials = int(ref.trials)
    expected_hw = ci_halfwidth(round(sop * trials), trials)
    if hw is None or not abs(hw - expected_hw) <= 1e-10 * expected_hw:
        fail(ident, f"half-width {r.ci_halfwidth!r}, expected {expected_hw!r}")
        return
    if seed == DEFAULT_SEED:
        if r[2:] != ref[2:]:
            fail(ident, f"mc row {r[2:]} differs from reference {ref[2:]}")
        return
    want_seed = (int(ref.seed) - DEFAULT_SEED + seed) % 2 ** 64
    if r.seed != str(want_seed):
        fail(ident, f"seed {r.seed!r}, expected {want_seed}")
