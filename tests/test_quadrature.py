import csv
import itertools
import math
import random

import pytest
from scipy import integrate

import relaysop.quadrature as quadrature
from oracles import mean_over_direct_tap, phase_survival
from relaysop.errors import ConvergenceError, UnsupportedSizeError
from relaysop.model import NetworkConfig, Scheme, SecrecyTarget
from relaysop.montecarlo import McSettings, estimate_sop
from relaysop.presets import PARAM_FAMILIES, family_links
from relaysop.quadrature import (QuadSettings, _phase_pdf, _phase_plan,
                                 _phase_tail, _poly_exp_terms, _tap_density,
                                 _tap_plan, _tap_survival, sop_quadrature)
from relaysop.sweep import _fmt, config_at, parse_sweep_spec, snr_grid
from test_analytic import REFERENCE, _equal_split_spec

SEED = 20250809


def fig2_config(n, snr_db):
    from relaysop.presets import family_config
    return family_config("fig2", n, snr_db)


class TestPolyExpTerms:
    def test_distinct_rates_match_mixture_formula(self):
        terms = _poly_exp_terms([1.0, 2.0])
        # 2e^-t - 2e^-2t
        assert _phase_pdf(terms, 1.0) == pytest.approx(
            2 * math.exp(-1) - 2 * math.exp(-2), rel=1e-13)

    def test_equal_rates_give_erlang(self):
        terms = _poly_exp_terms([2.0, 2.0])
        for t in (0.2, 1.0, 4.0):
            assert _phase_pdf(terms, t) == pytest.approx(
                4.0 * t * math.exp(-2.0 * t), rel=1e-13)

    def test_mixed_multiplicity(self):
        # Exp(1)+Exp(1)+Exp(2): 2te^-t - 2e^-t + 2e^-2t
        terms = _poly_exp_terms([1.0, 1.0, 2.0])
        for t in (0.3, 1.1, 2.8):
            want = 2 * t * math.exp(-t) - 2 * math.exp(-t) + 2 * math.exp(-2 * t)
            assert _phase_pdf(terms, t) == pytest.approx(want, rel=1e-12)

    def test_total_mass_is_one(self):
        for rates in ([0.5, 1.5, 2.5], [1.0, 1.0, 1.0, 1.0], [0.3, 0.3, 2.0]):
            terms = _poly_exp_terms(rates)
            mass = math.fsum(c * math.factorial(p) / r ** (p + 1)
                             for c, p, r in terms)
            assert mass == pytest.approx(1.0, rel=1e-12)

    def test_survival_matches_numeric_integral(self):
        terms = _poly_exp_terms([0.8, 0.8, 1.7])
        for v in (0.5, 2.0, 6.0):
            want, _ = integrate.quad(lambda t: _phase_pdf(terms, t), v, 80.0,
                                     epsabs=1e-13, epsrel=1e-11, limit=200)
            assert _phase_tail(_phase_plan(terms), v) == pytest.approx(want, rel=1e-9)
        assert _phase_tail(_phase_plan(terms), 0.0) == 1.0
        assert _phase_tail(_phase_plan(terms), -1.0) == 1.0


def _random_terms(rng, p_max):
    """Poly-exponential terms (c, p, r) of either sign, every p up to p_max."""
    return [(rng.choice((-1.0, 1.0)) * rng.uniform(0.01, 50.0), p,
             10.0 ** rng.uniform(-3.0, 1.0)) for p in range(p_max + 1)]


class TestPlanEvaluators:
    """The per-integral plans give, bit for bit, the values of the per-node
    helpers that rebuilt every constant at each node (tests/oracles.py)."""

    @staticmethod
    def _v0s(rng, terms):
        # inside the range of exp, and past its underflow for every term or
        # for only the fastest ones
        rates = sorted(r for _, _, r in terms)
        return [0.0, rng.uniform(0.0, 2.0), rng.uniform(0.0, 40.0) / rates[0],
                800.0 / rates[-1], 800.0 / rates[0], 2000.0 / rates[0]]

    @pytest.mark.parametrize("p_max", range(9))
    def test_direct_tap_average(self, p_max):
        rng = random.Random(100 + p_max)
        for _ in range(40):
            terms = _random_terms(rng, p_max)
            alpha = 10.0 ** rng.uniform(-3.0, 1.0)
            rho = 2.0 ** rng.uniform(0.0, 6.0)
            surv = _tap_plan(terms, alpha, rho, survival=True)
            dens = _tap_plan(terms, alpha, rho, survival=False)
            for v0 in self._v0s(rng, terms):
                for one in ([t] for t in terms):  # each p alone, then all
                    assert (_tap_survival(_tap_plan(one, alpha, rho, True), alpha, v0).hex()
                            == mean_over_direct_tap(one, alpha, rho, v0, True).hex())
                assert (_tap_survival(surv, alpha, v0).hex()
                        == mean_over_direct_tap(terms, alpha, rho, v0, True).hex())
                assert (_tap_density(dens, alpha, v0).hex()
                        == mean_over_direct_tap(terms, alpha, rho, v0, False).hex())

    @pytest.mark.parametrize("p_max", range(9))
    def test_phase_tail(self, p_max):
        rng = random.Random(200 + p_max)
        for _ in range(40):
            terms = _random_terms(rng, p_max)
            plan = _phase_plan(terms)
            for v in [-1.0, *self._v0s(rng, terms)]:
                assert _phase_tail(plan, v).hex() == phase_survival(terms, v).hex()

    def test_rates_of_the_engines(self):
        # grouped multiplicities as the engines build them: p up to 8
        for rates in ([0.5, 1.5], [2.0, 2.0], [0.3] * 9, [0.3] * 4 + [0.7] * 4 + [1.1]):
            terms = _poly_exp_terms(rates)
            for alpha, rho in ((0.9, 1.0), (0.01, 3.0)):
                surv = _tap_plan(terms, alpha, rho, survival=True)
                dens = _tap_plan(terms, alpha, rho, survival=False)
                for v0 in (0.0, 0.7, 9.0, 250.0, 5000.0):
                    assert _tap_survival(surv, alpha, v0) == mean_over_direct_tap(
                        terms, alpha, rho, v0, True)
                    assert _tap_density(dens, alpha, v0) == mean_over_direct_tap(
                        terms, alpha, rho, v0, False)
                    assert _phase_tail(_phase_plan(terms), v0) == phase_survival(terms, v0)


class TestSopQuadrature:
    def test_symmetric_mrc_mrc_is_half(self):
        cfg = NetworkConfig(1, (0.6,), (1.4,), 1.0, (2.0,), 1.0)
        res = sop_quadrature(cfg, Scheme.MRC_MRC, SecrecyTarget(0.0))
        assert res.value == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_huge_threshold(self, scheme):
        res = sop_quadrature(fig2_config(2, 20.0), scheme, SecrecyTarget(20.0))
        assert res.value >= 1.0 - 1e-6

    def test_min_e_against_simulation(self):
        cfg = fig2_config(2, 20.0)
        target = SecrecyTarget(1.0)
        q = sop_quadrature(cfg, Scheme.MIN_E, target).value
        m = estimate_sop(cfg, Scheme.MIN_E, target, McSettings(10_000_000, SEED))
        assert abs(q - m.value) <= 4 * m.ci_halfwidth

    def test_monotone_in_threshold_ratio(self):
        cfg = NetworkConfig(2, (0.11, 0.23), (0.31, 0.17), 0.5, (1.3, 0.7), 0.9)
        vals = [sop_quadrature(cfg, Scheme.MAX_E, SecrecyTarget(rs)).value
                for rs in (0.0, 0.25, 0.5, 1.0, 2.0)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_convergence_error_carries_estimate(self):
        cfg = fig2_config(4, 20.0)
        strict = QuadSettings(rel_tol=1e-15, abs_tol=1e-16)
        with pytest.raises(ConvergenceError) as exc:
            sop_quadrature(cfg, Scheme.MAX_E, SecrecyTarget(1.0), strict)
        assert 0.0 <= exc.value.estimate <= 1.0
        assert exc.value.error_bound > 0.0

    def test_relay_cap(self):
        cfg = NetworkConfig(9, (1.0,) * 9, (1.0,) * 9, 1.0, (1.0,) * 9, 1.0)
        with pytest.raises(UnsupportedSizeError):
            sop_quadrature(cfg, Scheme.MRC_MRC, SecrecyTarget(0.0))

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            QuadSettings(rel_tol=0.0)
        for bad in (float("nan"), float("inf"), True):
            with pytest.raises(ValueError, match="quad.rel_tol"):
                QuadSettings(rel_tol=bad)
            with pytest.raises(ValueError, match="quad.abs_tol"):
                QuadSettings(abs_tol=bad)


class TestReferenceBytes:
    """Quadrature reproduces the recorded reference CSV text exactly."""

    @staticmethod
    def _specs():
        for family in PARAM_FAMILIES:
            for n in (1, 2, 3, 4):
                yield f"{family}_n{n}.csv", parse_sweep_spec({
                    "n_relays": n,
                    "snr_db": {"start": 0.0, "stop": 80.0, "step": 20.0},
                    "rs_values": [0.0, 1.0], "schemes": [s.value for s in Scheme],
                    "engines": ["quad"], "links": family_links(family, n)})
        for n in (5, 6, 7, 8):
            yield f"identical_n{n}.csv", _equal_split_spec(n, 3.0)
        for n in (5, 6, 7, 8):
            yield f"laddered_n{n}.csv", _equal_split_spec(
                n, [float(k) for k in range(n)])

    def test_every_closed_form_quad_row(self):
        with open(REFERENCE, newline="") as fh:
            want = {(r["file"], r["snr_db"], r["scheme"], r["rs"]): r["sop"]
                    for r in csv.DictReader(fh) if r["engine"] == "quad"}
        got = {}
        for name, spec in self._specs():
            for snr in snr_grid(spec):
                config = config_at(spec, snr)
                for scheme in Scheme:
                    for rs in (0.0, 1.0):
                        value = sop_quadrature(config, scheme, SecrecyTarget(rs)).value
                        got[(name, _fmt(snr), scheme.value, _fmt(rs))] = _fmt(value)
        assert len(got) == len(want) == 768
        assert got == want


def _permuted(cfg, order):
    pick = lambda values: tuple(values[i] for i in order)  # noqa: E731
    return NetworkConfig(cfg.n_relays, pick(cfg.beta_sk), pick(cfg.beta_kd),
                         cfg.beta_sd, pick(cfg.alpha_ke), cfg.alpha_se)


class TestRelaySymmetry:
    """Each distinct relay is integrated once, and relabelling the relays
    changes no bit of the selection values."""

    @pytest.mark.parametrize("cfg", [
        # taps [a, x, a] with equal dual hops: relays 0 and 2 are one class
        NetworkConfig(3, (0.02, 0.05, 0.02), (0.03, 0.01, 0.03), 0.5,
                      (1.3, 0.4, 1.3), 0.9),
        # relays 0 and 2 share a tap but not a dual hop: two classes
        NetworkConfig(3, (0.02, 0.05, 0.02), (0.03, 0.03, 0.07), 0.5,
                      (1.3, 0.4, 1.3), 0.9),
        NetworkConfig(4, (0.1, 0.1, 0.2, 0.1), (0.1, 0.1, 0.2, 0.1), 0.5,
                      (0.7, 0.7, 0.7, 2.1), 1.0),
    ])
    def test_bit_identical_under_every_permutation(self, cfg):
        for rs in (0.0, 0.5, 1.0, 2.0):
            target = SecrecyTarget(rs)
            for scheme in (Scheme.MAX_E, Scheme.MIN_E):
                want = sop_quadrature(cfg, scheme, target).value
                for order in itertools.permutations(range(cfg.n_relays)):
                    got = sop_quadrature(_permuted(cfg, order), scheme, target).value
                    assert got.hex() == want.hex(), (scheme, rs, order)

    @staticmethod
    def _quad_calls(monkeypatch, cfg, scheme):
        calls = []
        real = quadrature.integrate.quad

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(quadrature.integrate, "quad", counting)
        sop_quadrature(cfg, scheme, SecrecyTarget(1.0))
        monkeypatch.undo()
        return len(calls)

    @pytest.mark.parametrize("scheme", [Scheme.MAX_E, Scheme.MIN_E])
    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_one_integral_per_distinct_relay(self, monkeypatch, scheme, n):
        same = NetworkConfig(n, (0.2,) * n, (0.3,) * n, 0.5, (0.7,) * n, 0.9)
        assert self._quad_calls(monkeypatch, same, scheme) == 1
        taps = tuple(0.7 + 0.1 * k for k in range(n))
        distinct = NetworkConfig(n, (0.2,) * n, (0.3,) * n, 0.5, taps, 0.9)
        assert self._quad_calls(monkeypatch, distinct, scheme) == n
        # an equal tap with another dual hop is another relay
        hops = tuple(0.3 + 0.1 * k for k in range(n))
        split = NetworkConfig(n, (0.2,) * n, hops, 0.5, (0.7,) * n, 0.9)
        assert self._quad_calls(monkeypatch, split, scheme) == n


def test_brute_force_three_dimensional_max_e():
    """Layered single-dimension oracle vs brute nested quadrature of the
    max-e integrand over the tap t, the legitimate sum x and the direct tap
    z; the rival max y < t is integrated in closed form,
    P[y < t] = 1 - exp(-aother*t)."""
    cfg = NetworkConfig(2, beta_sk=(0.6, 0.9), beta_kd=(0.8, 0.5), beta_sd=1.1,
                        alpha_ke=(1.3, 0.7), alpha_se=0.9)
    target = SecrecyTarget(1.0)
    rho = target.rho
    cut = 1e-10
    total = 0.0
    for k in range(2):
        ake = cfg.alpha_ke[k]
        aother = cfg.alpha_ke[1 - k]
        a, b = cfg.beta_kD[k], cfg.beta_sd
        b1 = a * b / (a - b)
        b2 = a * b / (b - a)
        t_hi = -math.log(cut) / ake
        x_hi = -math.log(cut) * (1 / a + 1 / b)
        z_hi = -math.log(cut) / cfg.alpha_se

        def integrand(x, t, z):
            return (ake * math.exp(-ake * t) * -math.expm1(-aother * t)
                    * (b1 * math.exp(-b * x) + b2 * math.exp(-a * x))
                    * cfg.alpha_se * math.exp(-cfg.alpha_se * z))

        # event: tap beats the rival (y < t, integrated above) and the
        # legitimate sum sits below the threshold plane (x < rho*(t+z) + rho - 1)
        val, _ = integrate.nquad(
            integrand,
            [lambda t, z: (0.0, min(x_hi, rho * (t + z) + rho - 1.0)),
             (0.0, t_hi), (0.0, z_hi)],
            opts=[{"epsabs": 1e-11, "epsrel": 1e-9, "limit": 60}] * 3)
        total += val
    layered = sop_quadrature(cfg, Scheme.MAX_E, target).value
    assert abs(total - layered) <= 1e-6
