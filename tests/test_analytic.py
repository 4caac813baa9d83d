import csv
import functools
import itertools
import math
import random
from pathlib import Path

import mpmath as mp
import pytest

import oracles
import relaysop.analytic as analytic
from relaysop.analytic import (_escalating_sum, max_e_breakdown, min_e_breakdown,
                               sop_analytic, sop_max_e, sop_max_mrc, sop_min_e,
                               sop_mrc_mrc)
from relaysop.claims import diversity_slope, slope_between
from relaysop.errors import (ConvergenceError, SlopeUndefinedError,
                             UnsupportedSizeError)
from relaysop.model import NetworkConfig, Scheme, SecrecyTarget
from relaysop.montecarlo import McSettings, estimate_sop
from relaysop.presets import family_config
from relaysop.quadrature import sop_quadrature
from relaysop.sweep import _fmt, config_at, parse_sweep_spec, run_sweep

REFERENCE = (Path(__file__).resolve().parents[1] / "perfbench" / "reference"
             / "closed-form.csv")

SEED = 20250809


def fig2_config(n, snr_db):
    return family_config("fig2", n, snr_db)


def mixed_config():
    return NetworkConfig(2, (0.11, 0.23), (0.31, 0.17), 0.5, (1.3, 0.7), 0.9)


class TestHugeThreshold:
    # at rs = 20 the threshold ratio is astronomically large; outage is certain
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_outage_certain(self, scheme):
        res = sop_analytic(fig2_config(2, 20.0), scheme, SecrecyTarget(20.0))
        assert res.value >= 1.0 - 1e-6


class TestAgainstOracles:
    def test_max_e_reference_point(self):
        cfg = fig2_config(2, 20.0)
        target = SecrecyTarget(0.0)
        a = sop_max_e(cfg, target).value
        q = sop_quadrature(cfg, Scheme.MAX_E, target).value
        assert abs(a - q) <= 1e-6
        m = estimate_sop(cfg, Scheme.MAX_E, target, McSettings(10_000_000, SEED))
        assert abs(a - m.value) <= 4 * m.ci_halfwidth

    def test_min_e_reference_point(self):
        cfg = fig2_config(4, 20.0)
        target = SecrecyTarget(1.0)
        a = sop_min_e(cfg, target).value
        q = sop_quadrature(cfg, Scheme.MIN_E, target).value
        assert abs(a - q) <= 1e-6
        m = estimate_sop(cfg, Scheme.MIN_E, target, McSettings(10_000_000, SEED))
        assert abs(a - m.value) <= 4 * m.ci_halfwidth

    def test_single_relay_against_quadrature(self):
        # dual-hop rate 2 (two unit hops), direct 1, both taps at rate 1
        cfg = NetworkConfig(1, (1.0,), (1.0,), 1.0, (1.0,), 1.0)
        target = SecrecyTarget(0.0)
        a = sop_max_e(cfg, target).value
        q = sop_quadrature(cfg, Scheme.MAX_E, target).value
        assert abs(a - q) <= 1e-9

    def test_max_mrc_single_relay_against_quadrature(self):
        cfg = NetworkConfig(1, (1.0,), (1.0,), 1.0, (1.0,), 1.0)
        target = SecrecyTarget(0.0)
        a = sop_max_mrc(cfg, target).value
        q = sop_quadrature(cfg, Scheme.MAX_MRC, target).value
        assert abs(a - q) <= 1e-9

    def test_max_mrc_mixed_rates_against_simulation(self):
        cfg = family_config("fig4", 2, 30.0)
        target = SecrecyTarget(1.0)
        a = sop_max_mrc(cfg, target).value
        m = estimate_sop(cfg, Scheme.MAX_MRC, target, McSettings(10_000_000, SEED))
        assert abs(a - m.value) <= 4 * m.ci_halfwidth

    def test_mrc_mrc_mixed_rates_against_simulation(self):
        # legitimate rates {1,2,3}: direct 1 plus dual-hop 2 and 3;
        # eavesdropper rates {4,5,6}: direct 4 plus taps 5 and 6
        cfg = NetworkConfig(2, (1.0, 1.5), (1.0, 1.5), 1.0, (5.0, 6.0), 4.0)
        for rs in (1.0, 0.0):
            target = SecrecyTarget(rs)
            a = sop_mrc_mrc(cfg, target).value
            m = estimate_sop(cfg, Scheme.MRC_MRC, target, McSettings(10_000_000, SEED))
            assert abs(a - m.value) <= 4 * m.ci_halfwidth


class TestMrcMrcSymmetry:
    def test_matched_rate_multisets_give_half(self):
        # gamma_m and gamma_e identically distributed at rs = 0
        cfg = NetworkConfig(1, (0.6,), (1.4,), 1.0, (2.0,), 1.0)
        assert sop_mrc_mrc(cfg, SecrecyTarget(0.0)).value == pytest.approx(
            0.5, abs=1e-12)


class TestSingleRelayCoincidence:
    def test_max_and_min_selection_agree_exactly(self):
        for rates in ((0.7, 1.3, 0.5, 0.8, 1.1), (2.0, 0.4, 1.0, 3.0, 0.2)):
            bsk, bkd, bsd, ake, ase = rates
            cfg = NetworkConfig(1, (bsk,), (bkd,), bsd, (ake,), ase)
            for rs in (0.0, 0.7, 2.0):
                target = SecrecyTarget(rs)
                assert sop_max_e(cfg, target).value == sop_min_e(cfg, target).value


class TestBreakdowns:
    def test_totals_match_term_sums(self):
        cfg = mixed_config()
        target = SecrecyTarget(0.5)
        for br in (max_e_breakdown(cfg, target), min_e_breakdown(cfg, target)):
            assert br.total == pytest.approx(
                math.fsum(t for terms in br.per_relay for t in terms), abs=1e-12)
            assert len(br.per_relay) == cfg.n_relays
            assert -1e-9 <= br.total <= 1.0 + 1e-9

    def test_term_shapes(self):
        cfg = mixed_config()
        target = SecrecyTarget(0.5)
        assert all(len(t) == 3 for t in max_e_breakdown(cfg, target).per_relay)
        assert all(len(t) == 2 for t in min_e_breakdown(cfg, target).per_relay)


class TestMonotonicityAndOrder:
    def test_sop_nondecreasing_in_threshold(self):
        targets = [SecrecyTarget(rs) for rs in (0.0, 0.25, 0.5, 1.0, 2.0)]
        for fam in ("fig2", "fig4"):
            for n in (1, 2, 4):
                cfg = family_config(fam, n, 15.0)
                for scheme in Scheme:
                    vals = [sop_analytic(cfg, scheme, t).value for t in targets]
                    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_mrc_eavesdropper_dominates_best_tap(self):
        # eavesdropper MRC sees at least its best relayed link
        for fam in ("fig2", "fig4"):
            for n in (2, 3, 4):
                cfg = family_config(fam, n, 12.0)
                for rs in (0.0, 1.0):
                    t = SecrecyTarget(rs)
                    assert sop_mrc_mrc(cfg, t).value >= sop_max_mrc(cfg, t).value - 1e-10

    def test_max_selection_worse_than_min_on_identical_legit(self):
        # comparable only when selection does not change the legitimate side
        for n in (2, 3, 4):
            cfg = fig2_config(n, 15.0)
            for rs in (0.0, 1.0):
                t = SecrecyTarget(rs)
                assert sop_max_e(cfg, t).value >= sop_min_e(cfg, t).value - 1e-12

    def test_relay_count_effect_with_identical_taps(self):
        for rs in (0.0, 1.0):
            t = SecrecyTarget(rs)
            maxe = [sop_max_e(fig2_config(n, 20.0), t).value for n in (1, 2, 3, 4)]
            mine = [sop_min_e(fig2_config(n, 20.0), t).value for n in (1, 2, 3, 4)]
            assert all(b > a for a, b in zip(maxe, maxe[1:]))
            assert all(b < a for a, b in zip(mine, mine[1:]))


class TestNumericalEdges:
    def test_equal_dual_hop_and_direct_rates(self):
        # beta_kD == beta_sd exactly: exercises the spread policy in the
        # convolution pair; quadrature handles the coincidence exactly
        cfg = NetworkConfig(2, (0.25, 0.25), (0.25, 0.25), 0.5, (1.0, 0.8), 1.0)
        for scheme in Scheme:
            for rs in (0.0, 1.0):
                t = SecrecyTarget(rs)
                a = sop_analytic(cfg, scheme, t).value
                q = sop_quadrature(cfg, scheme, t).value
                assert abs(a - q) <= 1e-5

    def test_identical_relays_high_precision_path(self):
        cfg = fig2_config(4, 30.0)
        for scheme in (Scheme.MAX_MRC, Scheme.MRC_MRC):
            t = SecrecyTarget(1.0)
            a = sop_analytic(cfg, scheme, t).value
            q = sop_quadrature(cfg, scheme, t).value
            assert abs(a - q) <= 1e-6

    def test_range_clipping(self):
        for n in (1, 4):
            for snr in (0.0, 40.0):
                cfg = fig2_config(n, snr)
                for scheme in Scheme:
                    v = sop_analytic(cfg, scheme, SecrecyTarget(1.0)).value
                    assert 0.0 <= v <= 1.0

    def test_relay_cap(self):
        cfg = NetworkConfig(9, (1.0,) * 9, (1.0,) * 9, 1.0, (1.0,) * 9, 1.0)
        with pytest.raises(UnsupportedSizeError):
            sop_max_e(cfg, SecrecyTarget(0.0))

    def test_invalid_config_rejected(self):
        cfg = NetworkConfig(1, (1.0,), (1.0,), 0.0, (1.0,), 1.0)
        with pytest.raises(ValueError):
            sop_max_e(cfg, SecrecyTarget(0.0))


class TestDiversitySlope:
    def test_synthetic_inverse_snr_curve(self):
        # SOP = c/SNR: one decade of SNR costs one decade of SOP
        c = 0.37
        assert slope_between(c / 1e3, c / 1e4, 30.0, 40.0) == pytest.approx(1.0)

    def test_synthetic_inverse_square_curve(self):
        c = 2.2
        assert slope_between(c * 1e-6, c * 1e-8, 30.0, 40.0) == pytest.approx(
            2.0, abs=1e-6)

    def test_underflow_raises(self):
        with pytest.raises(SlopeUndefinedError):
            slope_between(1e-12, 0.0, 30.0, 40.0)

    def test_selection_slopes_insensitive_to_relay_count(self):
        t = SecrecyTarget(0.0)
        s2 = diversity_slope(Scheme.MAX_E, lambda s: fig2_config(2, s), t, 30.0, 40.0)
        s4 = diversity_slope(Scheme.MAX_E, lambda s: fig2_config(4, s), t, 30.0, 40.0)
        assert abs(s2 - s4) < 0.1

    def test_mrc_slope_grows_with_relay_count(self):
        t = SecrecyTarget(1.0)
        s2 = diversity_slope(Scheme.MAX_MRC,
                             lambda s: family_config("fig4", 2, s), t, 30.0, 40.0)
        s4 = diversity_slope(Scheme.MAX_MRC,
                             lambda s: family_config("fig4", 4, s), t, 30.0, 40.0)
        assert s4 - s2 >= 0.5


def _equal_split_spec(n, relays_e_db):
    """The benchmark's N 5-8 closed-form networks: equal-split dual hops,
    direct links at 3 and 0 dB, taps at relays_e_db."""
    return parse_sweep_spec({
        "n_relays": n,
        "snr_db": {"start": 0.0, "stop": 80.0, "step": 80.0},
        "rs_values": [0.0, 1.0], "schemes": [s.value for s in Scheme],
        "engines": ["analytic"],
        "links": {"s_relays": {"policy": "equal-split"},
                  "relays_d": {"policy": "equal-split"},
                  "s_d": {"policy": "fixed-db", "mean_snr_db": 3.0},
                  "relays_e": {"policy": "fixed-db", "mean_snr_db": relays_e_db},
                  "s_e": {"policy": "fixed-db", "mean_snr_db": 0.0}}})


class TestReferenceBytes:
    """The closed forms reproduce the recorded reference CSV text exactly."""

    def test_every_analytic_row(self):
        with open(REFERENCE, newline="") as fh:
            want = {(r["file"], r["snr_db"], r["scheme"], r["rs"]): r["sop"]
                    for r in csv.DictReader(fh) if r["engine"] == "analytic"}
        # the four families at N 1-4 on a 20 dB grid, then identical and
        # laddered taps at N 5-8 at 0 and 80 dB
        points = [(f"{family}_n{n}.csv", family_config(family, n, snr), snr)
                  for family in ("fig2", "fig3-balanced", "fig3-unbalanced", "fig4")
                  for n in (1, 2, 3, 4) for snr in (0.0, 20.0, 40.0, 60.0, 80.0)]
        for n in (5, 6, 7, 8):
            for stem, taps in (("identical", 3.0), ("laddered", [float(k) for k in range(n)])):
                spec = _equal_split_spec(n, taps)
                points += [(f"{stem}_n{n}.csv", config_at(spec, snr), snr)
                           for snr in (0.0, 80.0)]
        got = {}
        for name, config, snr in points:
            for scheme in Scheme:
                for rs in (0.0, 1.0):
                    value = sop_analytic(config, scheme, SecrecyTarget(rs)).value
                    got[(name, _fmt(snr), scheme.value, _fmt(rs))] = _fmt(value)
        assert len(got) == len(want) == 768
        assert got == want


def _random_networks(seed, per_size=2):
    """Networks at N 1-8 with axis SNRs over 0-100 dB. Taps cycle through
    ceil(N/2) values, so from N = 3 on equal taps sit apart (k and
    k + ceil(N/2)); hops cycle through two offsets, so some relays with
    equal taps are one relay class and some are not."""
    rng = random.Random(seed)
    rate = lambda db: 10.0 ** (-db / 10.0)  # noqa: E731
    for n in range(1, 9):
        for _ in range(per_size):
            snr = rng.uniform(0.0, 100.0)
            taps = [rng.uniform(-3.0, 9.0) for _ in range((n + 1) // 2)]
            hops = [rng.uniform(-10.0, 0.0) for _ in range(2)]
            yield NetworkConfig(
                n, tuple(rate(snr + hops[k % 2]) for k in range(n)),
                tuple(rate(snr + hops[(k // 2) % 2]) for k in range(n)),
                rate(snr + rng.uniform(-10.0, 0.0)),
                tuple(rate(taps[k % len(taps)]) for k in range(n)),
                rate(rng.uniform(-3.0, 3.0)))


def _with_addends(monkeypatch, fn, *args):
    """fn(*args), plus the addends of every escalating sum it ran, each sum
    as its precision and its sorted (count, raw mpf) pairs."""
    sums = set()

    def recording(build, base_dps, max_rounds=6):
        def recorded():
            terms = build()
            sums.add((mp.mp.prec, tuple(sorted(terms))))
            return terms
        return _escalating_sum(recorded, base_dps, max_rounds)

    with monkeypatch.context() as patch:
        patch.setattr(analytic, "_escalating_sum", recording)
        return fn(*args), sums


class TestRawLayerAgainstOperatorForm:
    """The raw-tuple builders give every addend and value the mpf-operator
    builders of tests/oracles.py give, down to the last bit."""

    @pytest.mark.parametrize("rs", [0.0, 0.5, 1.0, 2.0])
    def test_random_networks(self, monkeypatch, rs):
        target = SecrecyTarget(rs)
        for config in _random_networks(SEED + int(4 * rs)):
            for scheme in Scheme:
                got, got_sums = _with_addends(
                    monkeypatch, lambda: sop_analytic(config, scheme, target).value)
                want, want_sums = _with_addends(
                    monkeypatch, oracles.closed_form_sop, config, scheme, target)
                assert repr(got) == repr(want)
                # equal relays share one evaluation in the package
                assert got_sums == want_sums
            for scheme, breakdown in ((Scheme.MAX_E, max_e_breakdown),
                                      (Scheme.MIN_E, min_e_breakdown)):
                assert repr(breakdown(config, target).per_relay) == repr(
                    oracles.closed_form_per_relay(config, scheme, target))

    def test_identical_taps_through_several_precision_rounds(self, monkeypatch):
        precisions = set()
        for n in (4, 5, 6, 7, 8):
            config = fig2_config(n, 80.0)
            for scheme in (Scheme.MAX_MRC, Scheme.MRC_MRC):
                for rs in (0.0, 1.0):
                    target = SecrecyTarget(rs)
                    got, got_sums = _with_addends(
                        monkeypatch, lambda: sop_analytic(config, scheme, target).value)
                    want, want_sums = _with_addends(
                        monkeypatch, oracles.closed_form_sop, config, scheme, target)
                    assert repr(got) == repr(want)
                    assert got_sums == want_sums
                    precisions.add(len(got_sums))
        assert {3, 4, 5} <= precisions  # one sum per call, built once per round


class TestLargestMagnitude:
    def test_matches_max_of_absolute_values(self):
        rng = random.Random(SEED)
        with mp.workdps(40):
            cases = [[], [mp.mpf(0)], [mp.mpf(0), mp.mpf(-0.75), mp.mpf(0.5)],
                     # one top bit, mantissas of 2, 3 and 4 bits, a tie
                     [mp.mpf(0.75), mp.mpf(-0.875), mp.mpf(0.5), mp.mpf(-0.9375),
                      mp.mpf(0.9375)]]
            for _ in range(200):
                cases.append([mp.mpf(rng.randint(-2 ** 60, 2 ** 60))
                              * mp.mpf(2) ** rng.randint(-3, 3) / 3
                              for _ in range(rng.randint(1, 12))])
            for values in cases:
                want = max((abs(v) for v in values), default=mp.mpf(0))
                got = analytic._largest_magnitude([v._mpf_ for v in values])
                assert got == want._mpf_


class TestRelayPermutations:
    """Relabelling the relays changes no bit of the selection and max-mrc
    values, also when equal taps sit apart or share a tap but not a hop."""

    @staticmethod
    def _permuted(cfg, order):
        pick = lambda values: tuple(values[i] for i in order)  # noqa: E731
        return NetworkConfig(cfg.n_relays, pick(cfg.beta_sk), pick(cfg.beta_kd),
                             cfg.beta_sd, pick(cfg.alpha_ke), cfg.alpha_se)

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
        for rs in (0.0, 1.0):
            target = SecrecyTarget(rs)
            for fn in (sop_max_e, sop_min_e, sop_max_mrc):
                want = fn(cfg, target).value
                for order in itertools.permutations(range(cfg.n_relays)):
                    assert fn(self._permuted(cfg, order), target).value == want

    def test_breakdown_keeps_one_tuple_per_relay(self):
        cfg = NetworkConfig(3, (0.02, 0.05, 0.02), (0.03, 0.03, 0.07), 0.5,
                            (1.3, 0.4, 1.3), 0.9)
        target = SecrecyTarget(0.5)
        for breakdown in (max_e_breakdown, min_e_breakdown):
            br = breakdown(cfg, target)
            assert len(br.per_relay) == 3
            # same tap, different dual hop: not one relay class
            assert br.per_relay[0] != br.per_relay[2]
            swapped = breakdown(self._permuted(cfg, (2, 1, 0)), target)
            assert swapped.per_relay == br.per_relay[::-1]
            assert swapped.total == br.total


class TestPrecisionExhaustion:
    def test_sum_that_never_clears_its_guard_raises(self):
        # 1 - 1 is 0 at every precision: the total never stands clear of the
        # rounding bound of its unit addends
        with pytest.raises(ConvergenceError) as info:
            _escalating_sum(lambda: [(1, mp.mpf(1)._mpf_), (1, mp.mpf(-1)._mpf_)], 15)
        assert info.value.estimate == 0.0
        assert 0.0 < info.value.error_bound < 1e-60

    def test_weighted_addend_equals_its_repeats(self):
        def build():
            return [(70, (mp.mpf(1) / 3)._mpf_), (1, (-mp.mpf(2) / 7)._mpf_)]
        with mp.workdps(30):
            third = mp.mpf(1) / 3
            want = float(mp.fsum([third] * 70 + [-mp.mpf(2) / 7]))
        assert _escalating_sum(build, 30) == want

    def test_weights_keep_the_escalation_of_the_expanded_sum(self):
        # 1000 copies of +1 and -1 leave 1e-9: clear of the bound of a unit
        # addend at 25 digits, but not of a bound scaled by the weight 1000
        def sum_of(pairs):
            rounds = []

            def build():
                rounds.append(mp.mp.dps)
                return [(count, mp.mpf(t)._mpf_) for count, t in pairs]
            return _escalating_sum(build, 25), rounds

        weighted = sum_of([(1000, 1), (1000, -1), (1, "1e-9")])
        expanded = sum_of([(1, 1)] * 1000 + [(1, -1)] * 1000 + [(1, "1e-9")])
        assert weighted == expanded == (1e-9, [25])

    def test_exhaustion_reaches_the_row_status(self, monkeypatch):
        # with identical taps at N=2, max-mrc at 80 dB needs a second
        # precision round; at 0 dB and for max-e one round is enough
        monkeypatch.setattr(analytic, "_escalating_sum",
                            functools.partial(_escalating_sum, max_rounds=1))
        cfg = family_config("fig2", 2, 80.0)
        with pytest.raises(ConvergenceError):
            sop_max_mrc(cfg, SecrecyTarget(0.0))
        rows = {(r.snr_db, r.scheme, r.rs): (r.status, r.sop)
                for r in run_sweep(_equal_split_spec(2, 3.0))}
        assert rows[(80.0, Scheme.MAX_MRC, 0.0)] == ("convergence-failure", None)
        assert rows[(0.0, Scheme.MAX_MRC, 0.0)][0] == "ok"
        assert rows[(80.0, Scheme.MAX_E, 0.0)][0] == "ok"
