"""End-to-end acceptance suite: three-way engine cross-validation at the
reference parameterizations plus the qualitative figure claims.

Each test prints one ACCEPTANCE line; run with -s (or read captured output)
for the full tally. The heavy test is the three-engine grid (640 cells,
Monte Carlo at 1e6 trials in one grid call per relay count).
"""

import math
import threading

import numpy as np

from relaysop import sweep
from relaysop.analytic import diversity_slope, sop_analytic
from relaysop.expdist import excl_max_pdf, hypoexp_pdf, max_exp_cdf
from relaysop.model import NetworkConfig, Scheme, SecrecyTarget
from relaysop.montecarlo import McSettings, estimate_sop, estimate_sop_grid
from relaysop.presets import PARAM_FAMILIES, family_config, family_links
from relaysop.quadrature import sop_quadrature
from relaysop.sweep import parse_sweep_spec, run_sweep, rows_to_csv

SEED = 20250809
GRID_SNR_DB = (0.0, 10.0, 20.0, 30.0, 40.0)
GRID_N = (1, 2, 3, 4)
GRID_RS = (0.0, 1.0)


def report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    return ok


def test_criterion_1_three_engine_agreement():
    """analytic vs quadrature within 1e-5 and both within 4 half-widths of
    Monte Carlo at 1e6 trials, over the full reference grid. The Monte Carlo
    cells of one relay count share their draws (one grid call per count),
    which gives each cell the same value as its own estimate_sop call."""
    failures = []
    worst_aq = 0.0
    pairs = [(scheme, SecrecyTarget(rs)) for rs in GRID_RS for scheme in Scheme]
    for n in GRID_N:
        points = [(family, snr) for family in PARAM_FAMILIES for snr in GRID_SNR_DB]
        configs = [family_config(family, n, snr) for family, snr in points]
        grid = estimate_sop_grid(configs, pairs, McSettings(1_000_000, SEED))
        for (family, snr), config, mc in zip(points, configs, grid):
            for (scheme, target), m in zip(pairs, mc):
                a = sop_analytic(config, scheme, target).value
                q = sop_quadrature(config, scheme, target).value
                worst_aq = max(worst_aq, abs(a - q))
                tol = 4 * m.ci_halfwidth
                if (abs(a - q) > 1e-5 or abs(a - m.value) > tol
                        or abs(q - m.value) > tol):
                    failures.append((family, n, snr, target.rs, scheme.value,
                                     a, q, m.value, m.ci_halfwidth))
    ok = report(1, "three-engine-agreement", not failures,
                f"640 cells, worst |analytic-quad| = {worst_aq:.2e}")
    assert not failures, f"engine disagreement at {failures[:5]}"


def test_criterion_2_symmetry_oracle():
    """Matched legitimate/eavesdropper rate multisets at rs = 0 give 1/2."""
    cases = [
        NetworkConfig(1, (0.6,), (1.4,), 1.0, (2.0,), 1.0),          # {1,2}
        NetworkConfig(2, (1.0, 1.3), (2.0, 3.9), 0.5, (3.0, 5.2), 0.5),
    ]
    ok = True
    for config in cases:
        target = SecrecyTarget(0.0)
        a = sop_analytic(config, Scheme.MRC_MRC, target).value
        ok &= abs(a - 0.5) <= 1e-9
        m = estimate_sop(config, Scheme.MRC_MRC, target, McSettings(1_000_000, SEED))
        ok &= abs(m.value - 0.5) <= 4 * m.ci_halfwidth
    report(2, "mrc-mrc-symmetry", ok)
    assert ok


def _fig2_table():
    table = {}
    for n in GRID_N:
        for snr in np.arange(0.0, 41.0, 5.0):
            config = family_config("fig2", n, float(snr))
            for rs in GRID_RS:
                target = SecrecyTarget(rs)
                for scheme in (Scheme.MAX_E, Scheme.MIN_E):
                    table[(n, float(snr), rs, scheme)] = sop_analytic(
                        config, scheme, target).value
    return table


def test_criterion_3_fig2_qualitative():
    """Identical-tap family: relay count helps the eavesdropper under max
    selection and the system under min selection; thresholds order SOP;
    consecutive relay-count gaps shrink."""
    t = _fig2_table()
    snrs = [s for s in np.arange(0.0, 41.0, 5.0) if s >= 5.0]
    problems = []
    for snr in snrs:
        for rs in GRID_RS:
            maxe = [t[(n, snr, rs, Scheme.MAX_E)] for n in GRID_N]
            mine = [t[(n, snr, rs, Scheme.MIN_E)] for n in GRID_N]
            if not all(b > a for a, b in zip(maxe, maxe[1:])):
                problems.append(("max-e not increasing in N", snr, rs))
            if not all(b < a for a, b in zip(mine, mine[1:])):
                problems.append(("min-e not decreasing in N", snr, rs))
            for vals in (maxe, mine):
                gaps = [abs(b - a) for a, b in zip(vals, vals[1:])]
                if not all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:])):
                    problems.append(("gaps not shrinking", snr, rs))
    for n in GRID_N:
        for snr in np.arange(0.0, 41.0, 5.0):
            for scheme in (Scheme.MAX_E, Scheme.MIN_E):
                if not (t[(n, float(snr), 1.0, scheme)]
                        > t[(n, float(snr), 0.0, scheme)]):
                    problems.append(("rs=1 not above rs=0", n, snr, scheme.value))
    report(3, "fig2-qualitative", not problems, f"{len(problems)} violations")
    assert not problems, problems[:10]


#: axis point where the swept relay-destination hop is negligible next to a
#: 30 dB pinned hop (rate ratio 1e-7), so the SOP there is the floor itself
FLOOR_SNR_DB = 100.0
#: allowed relative miss of the first-order floor-gap law; see criterion 4
FLOOR_GAP_TOL = 0.10


def _floor_gap(family, scheme, rs):
    """(floor, gap, predicted gap) of one N=4 family at the top of the sweep.

    floor is the SOP at FLOOR_SNR_DB, gap is (SOP(40 dB) - floor) / floor,
    and the prediction is lambda_RD(40) / lambda_SR, read off the family's
    link rates (every relay carries the same pair in the fig3 presets).
    """
    target = SecrecyTarget(rs)
    top = family_config(family, 4, 40.0)
    assert len(set(top.beta_sk)) == 1 and len(set(top.beta_kd)) == 1
    floor = sop_analytic(family_config(family, 4, FLOOR_SNR_DB), scheme,
                         target).value
    gap = (sop_analytic(top, scheme, target).value - floor) / floor
    return floor, gap, top.beta_kd[0] / top.beta_sk[0]


def _approaches_floor(floor, gap, predicted):
    return floor > 0.0 and abs(gap - predicted) <= FLOOR_GAP_TOL * predicted


def test_criterion_4_fig3_saturation():
    """Pinned source-relay hop makes the SOP approach a positive floor; the
    balanced family has none and keeps falling.

    The unbalanced preset pins S->R at 30 dB (lambda_SR = 1e-3) and sweeps
    R->D with the axis. Under decode-and-forward the selected hop pair is
    exponential with rate lambda_SR + lambda_RD, so the SOP does not flatten
    within 2% over 38->40 dB: the dual-hop rate itself changes by
    (lambda(38) - lambda(40)) / lambda(40) = 5.32% there, and the SOP
    follows it (5.1-5.3%). What the pinned hop does promise is a floor
    F = SOP(lambda_RD -> 0) > 0, taken at 100 dB where
    lambda_RD / lambda_SR = 1e-7.

    Relay selection looks only at the eavesdropper taps and every relay has
    the same hop pair, so SOP(lambda) = E[1 - exp(-lambda X+)], with X the
    deficit rho (1 + gamma_E) - 1 - gamma_SD. That is concave in lambda, so
    the gap (SOP(40) - F) / F is at most lambda_RD(40) / lambda_SR = 0.100
    and falls short of it only by the curvature term, about
    lambda_SR E[X+^2] / (2 E[X+]): with rho <= 4 and eavesdropper mean SNRs
    of at most 9 dB that is a few percent (3.4% at worst, max-e rs=1).
    FLOOR_GAP_TOL = 10% of the prediction holds that first-order law with
    margin. The balanced family is the negative control: its SOP at 100 dB
    is ~1e-6 of its SOP at 40 dB, so its gap is ~1e6 against a predicted 1
    and the floor check must reject it. Its 38->40 dB change stays > 10%.
    """
    balanced_change = {}
    for scheme in (Scheme.MAX_E, Scheme.MIN_E):
        for rs in GRID_RS:
            target = SecrecyTarget(rs)
            lo = sop_analytic(family_config("fig3-balanced", 4, 38.0), scheme,
                              target).value
            hi = sop_analytic(family_config("fig3-balanced", 4, 40.0), scheme,
                              target).value
            balanced_change[(scheme.value, rs)] = abs(lo - hi) / hi
    unbalanced = {(scheme.value, rs): _floor_gap("fig3-unbalanced", scheme, rs)
                  for scheme in (Scheme.MAX_E, Scheme.MIN_E) for rs in GRID_RS}
    control = [_floor_gap("fig3-balanced", scheme, rs)
               for scheme in (Scheme.MAX_E, Scheme.MIN_E) for rs in GRID_RS]
    balanced_ok = all(v > 0.10 for v in balanced_change.values())
    unbalanced_ok = all(_approaches_floor(*v) for v in unbalanced.values())
    control_rejected = not any(_approaches_floor(*v) for v in control)
    detail = ", ".join(f"{s} rs={rs:g}: F={f:.4g} gap={g:.4f} vs {p:.4f}"
                       for (s, rs), (f, g, p) in unbalanced.items())
    report(4, "fig3-saturation",
           balanced_ok and unbalanced_ok and control_rejected,
           f"unbalanced {detail}")
    assert balanced_ok, "balanced sweep should keep decreasing (> 10%)"
    assert unbalanced_ok, (
        "unbalanced sweep must approach a positive floor with gap "
        "lambda_RD(40)/lambda_SR; measured " + detail)
    assert control_rejected, "floor check accepted the balanced family"


def _settles(holds):
    """True when an ordering, read over rising SNR, holds at the top of the
    sweep and never reverts once it holds."""
    return (bool(holds) and holds[-1]
            and all(holds[holds.index(True):]))


def test_criterion_5_fig4_ordering():
    """Scheme ordering on the mixed-rate family over the reference grid.

    MRC-MRC >= MAX-MRC is a sure ordering: the eavesdropper's combined SNR
    dominates its best single tap pointwise, so it holds at every point.
    max-e >= mrc-mrc and min-e >= max-mrc are high-SNR statements. Selection
    keeps a diversity slope near 1 (0.89-0.96 over 30-40 dB at rs=1) while
    the MRC schemes gain with N (1.8 at N=2, 3.2-3.3 at N=4), so the curves
    cross once: on a 1 dB grid over 0-80 dB each difference changes sign
    exactly once for N 2-4 and rs 0/1, max-e - mrc-mrc at 10-14 dB and
    min-e - max-mrc at 21-24 dB, and stays positive to 80 dB. Below the
    crossing all SOPs crowd toward 1 and the orderings invert. The paper
    gives no SNR where its high-SNR regime begins, so these two are checked
    as a single crossing: each holds at the top of the sweep and, once it
    holds, never reverts as SNR rises. At N=1 the schemes coincide; the
    1e-12 tie tolerance covers that. The crossing rule is shown to reject a
    sequence that reverts, one that ends in a violation and one that never
    holds.
    """
    assert _settles([False, False, True, True])
    assert not _settles([False, True, False, True])
    assert not _settles([True, True, False])
    assert not _settles([False, False])
    violations = []
    holds = {}
    for n in GRID_N:
        for snr in GRID_SNR_DB:
            config = family_config("fig4", n, snr)
            for rs in GRID_RS:
                target = SecrecyTarget(rs)
                v = {s: sop_analytic(config, s, target).value for s in Scheme}
                if not v[Scheme.MRC_MRC] >= v[Scheme.MAX_MRC] - 1e-12:
                    violations.append((n, snr, rs, "mrc-mrc < max-mrc"))
                holds.setdefault((n, rs, "max-e >= mrc-mrc"), []).append(
                    v[Scheme.MAX_E] >= v[Scheme.MRC_MRC] - 1e-12)
                holds.setdefault((n, rs, "min-e >= max-mrc"), []).append(
                    v[Scheme.MIN_E] >= v[Scheme.MAX_MRC] - 1e-12)
    unsettled = [k for k, h in holds.items() if not _settles(h)]
    report(5, "fig4-ordering", not violations and not unsettled,
           f"{len(violations)} sure-ordering violations, "
           f"{len(unsettled)} high-SNR orderings without a single crossing")
    assert not violations, f"mrc-mrc < max-mrc at {violations}"
    assert not unsettled, (
        f"high-SNR orderings fail at the top of the sweep or revert: {unsettled}")


def test_criterion_6_diversity_slopes():
    """Selection schemes keep their slope as relays are added; MRC schemes
    gain at least half a diversity order from N=2 to N=4."""
    ok = True
    details = []
    for scheme in (Scheme.MAX_E, Scheme.MIN_E):
        slopes = [diversity_slope(scheme, lambda s, n=n: family_config("fig2", n, s),
                                  SecrecyTarget(0.0), 30.0, 40.0)
                  for n in (1, 2, 4)]
        spread = max(slopes) - min(slopes)
        details.append(f"{scheme.value} spread {spread:.3f}")
        ok &= spread < 0.1
    for scheme in (Scheme.MAX_MRC, Scheme.MRC_MRC):
        s2 = diversity_slope(scheme, lambda s: family_config("fig4", 2, s),
                             SecrecyTarget(1.0), 30.0, 40.0)
        s4 = diversity_slope(scheme, lambda s: family_config("fig4", 4, s),
                             SecrecyTarget(1.0), 30.0, 40.0)
        details.append(f"{scheme.value} gain {s4 - s2:.3f}")
        ok &= (s4 - s2) >= 0.5
    report(6, "diversity-slopes", ok, "; ".join(details))
    assert ok, details


def test_criterion_7_distribution_kit():
    """Order-statistic and mixture algebra against independent oracles."""
    rng = np.random.default_rng(17)
    ok = True
    # inclusion-exclusion CDF == product CDF to 1e-12
    for _ in range(200):
        n = int(rng.integers(1, 9))
        rates = list(np.exp(rng.uniform(-2.0, 2.0, n)))
        x = float(rng.exponential(2.0))
        prod = 1.0
        for r in rates:
            prod *= -math.expm1(-r * x)
        ok &= abs(max_exp_cdf(rates, x) - prod) <= 1e-12 * max(prod, 1e-300) + 1e-15
    # PDFs normalize to 1 within 1e-9
    for _ in range(50):
        n = int(rng.integers(2, 7))
        rates = list(np.exp(rng.uniform(-1.5, 1.5, n)))
        k = int(rng.integers(0, n))
        ok &= abs(excl_max_pdf(rates, k).total_mass() - 1.0) <= 1e-9
        ok &= abs(hypoexp_pdf(rates).total_mass() - 1.0) <= 1e-9
    # exclusion-max density matches numerical differentiation to 1e-6
    for _ in range(20):
        n = int(rng.integers(2, 6))
        rates = list(np.exp(rng.uniform(-1.0, 1.0, n)))
        k = int(rng.integers(0, n))
        mix = excl_max_pdf(rates, k)
        others = rates[:k] + rates[k + 1:]
        h = 1e-6
        for x in (0.5, 1.5):
            want = (max_exp_cdf(others, x + h) - max_exp_cdf(others, x - h)) / (2 * h)
            ok &= abs(mix.pdf(x) - want) <= 1e-6
    # empirical KS for the hypoexponential at the 1% level on 1e6 samples
    rates = [0.9, 1.8, 2.7]
    n = 1_000_000
    samples = sum(rng.exponential(1.0 / r, n) for r in rates)
    mix = hypoexp_pdf(rates)
    coeffs = np.array([float(c) for c, _ in mix.terms])
    rs_ = np.array([r for _, r in mix.terms])
    xs = np.sort(samples)
    cdf = 1.0 - ((coeffs / rs_) * np.exp(-np.outer(xs, rs_))).sum(axis=1)
    hi = np.arange(1, n + 1) / n
    lo = np.arange(0, n) / n
    ks = max(np.max(np.abs(hi - cdf)), np.max(np.abs(cdf - lo)))
    ok &= ks < 1.63 / math.sqrt(n)
    report(7, "distribution-kit", ok, f"KS = {ks:.5f}")
    assert ok


def test_criterion_8_determinism():
    """Identical seed/trials/chunk_size give byte-identical sweep CSV at
    1, 4 and 16 workers."""
    spec = parse_sweep_spec({
        "n_relays": 2,
        "snr_db": {"start": 0.0, "stop": 20.0, "step": 10.0},
        "rs_values": [0.0, 1.0],
        "schemes": ["max-e", "min-e", "max-mrc", "mrc-mrc"],
        "engines": ["mc"],
        "links": {
            "s_relays": {"policy": "equal-split"},
            "relays_d": {"policy": "equal-split"},
            "s_d": {"policy": "fixed-db", "mean_snr_db": 3.0},
            "relays_e": {"policy": "fixed-db", "mean_snr_db": 3.0},
            "s_e": {"policy": "fixed-db", "mean_snr_db": 0.0},
        },
        "mc": {"trials": 200_000, "seed": SEED, "chunk_size": 1 << 14},
    })
    outputs = {w: rows_to_csv(run_sweep(spec, workers=w)) for w in (1, 4, 16)}
    ok = outputs[1] == outputs[4] == outputs[16]
    rerun = rows_to_csv(run_sweep(spec, workers=4))
    ok &= rerun == outputs[4]
    report(8, "mc-determinism", ok,
           f"{len(outputs[1].splitlines()) - 1} rows byte-identical")
    assert ok


def test_criterion_9_closed_form_determinism(monkeypatch):
    """Analytic and quad sweep CSVs are byte-identical at 1, 4 and 16
    workers. The analytic engine sets mpmath's process-wide precision, so
    every analytic and quad row must run in the calling thread; rows on
    concurrent threads differ only now and then, so that is checked too."""
    spec = parse_sweep_spec({
        "n_relays": 4,
        "snr_db": {"start": 0.0, "stop": 40.0, "step": 1.0},
        "rs_values": [0.0, 1.0],
        "schemes": ["max-e", "min-e", "max-mrc", "mrc-mrc"],
        "engines": ["analytic", "quad"],
        "links": family_links("fig4", 4),
    })
    threads = set()

    def recording(engine):
        def call(*args, **kwargs):
            threads.add(threading.get_ident())
            return engine(*args, **kwargs)
        return call

    for name in ("sop_analytic", "sop_quadrature"):
        monkeypatch.setattr(sweep, name, recording(getattr(sweep, name)))
    outputs = {w: rows_to_csv(run_sweep(spec, workers=w)) for w in (1, 4, 16)}
    ok = outputs[1] == outputs[4] == outputs[16]
    ok &= threads == {threading.get_ident()}
    report(9, "closed-form-determinism", ok,
           f"{len(outputs[1].splitlines()) - 1} rows, "
           f"{len(threads)} evaluating thread(s)")
    assert ok
