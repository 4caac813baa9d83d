import math
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from scipy import integrate

from relaysop.errors import EmptyExclusionError, UnsupportedSizeError
from relaysop.expdist import (EPS_EQUAL_RATE, excl_max_pdf, excl_min_rate,
                              hypoexp_cdf, hypoexp_pdf, max_exp_cdf,
                              spread_rates, subset_rate_sums, sum_pair_coeffs)


def product_cdf(rates, x):
    out = 1.0
    for r in rates:
        out *= -math.expm1(-r * x)
    return out


def random_rate_sets(rng, cases, max_n=8):
    for _ in range(cases):
        n = int(rng.integers(1, max_n + 1))
        yield list(np.exp(rng.uniform(-2.3, 2.3, n)))


class TestSubsetRateSums:
    @staticmethod
    def brute_force(rates):
        """(size, rate sum) -> number of nonempty index subsets."""
        return Counter((m, math.fsum(rates[i] for i in comb))
                       for m in range(1, len(rates) + 1)
                       for comb in combinations(range(len(rates)), m))

    @pytest.mark.parametrize("rates", [
        [0.3], [0.3] * 8, [0.5, 1.5, 2.5], [0.7, 0.1, 0.7, 0.2, 0.1, 0.7],
        [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0],  # distinct, colliding sums
        [0.1, 0.2, 0.1, 0.2, 0.1, 0.2, 0.1, 0.2],
    ])
    def test_matches_subset_enumeration(self, rates):
        got = subset_rate_sums(rates)
        n = len(rates)
        assert sum(count for _, _, count in got) == 2 ** n - 1
        groups = Counter(rates).values()
        assert len(got) == math.prod(g + 1 for g in groups) - 1
        merged = Counter()
        for m, s, count in got:
            merged[(m, s)] += count
        assert merged == self.brute_force(rates)

    def test_identical_rates_need_n_terms(self):
        got = subset_rate_sums([0.4] * 7)
        assert [(m, count) for m, _, count in got] == [
            (m, math.comb(7, m)) for m in range(1, 8)]

    def test_cap(self):
        with pytest.raises(UnsupportedSizeError):
            subset_rate_sums([1.0] * 9)


class TestMaxExpCdf:
    def test_origin(self):
        assert max_exp_cdf([1.0], 0.0) == 0.0

    def test_two_rates_at_ln2(self):
        assert max_exp_cdf([1.0, 2.0], math.log(2.0)) == pytest.approx(0.375, rel=1e-14)

    def test_three_rates_against_product_oracle(self):
        # frozen from the product form (1-e^-0.5)(1-e^-1.5)(1-e^-2.5)
        got = max_exp_cdf([0.5, 1.5, 2.5], 1.0)
        assert got == pytest.approx(0.2805831754700065, rel=1e-13)
        assert got == pytest.approx(product_cdf([0.5, 1.5, 2.5], 1.0), rel=1e-13)

    def test_inclusion_exclusion_matches_product_form(self):
        rng = np.random.default_rng(10)
        for rates in random_rate_sets(rng, 300):
            x = float(rng.exponential(2.0))
            want = product_cdf(rates, x)
            got = max_exp_cdf(rates, x)
            assert abs(got - want) <= 1e-12 * max(want, 1e-300) + 1e-15

    def test_errors(self):
        with pytest.raises(ValueError):
            max_exp_cdf([], 1.0)
        with pytest.raises(ValueError):
            max_exp_cdf([1.0, -2.0], 1.0)
        with pytest.raises(ValueError):
            max_exp_cdf([1.0], -0.5)
        with pytest.raises(UnsupportedSizeError):
            max_exp_cdf([1.0] * 9, 1.0)


class TestExclMaxPdf:
    def test_two_rates_leaves_single_exponential(self):
        mix = excl_max_pdf([1.0, 3.0], 0)
        assert mix.terms == ((3.0, 3.0),)
        assert mix.pdf(0.7) == pytest.approx(3.0 * math.exp(-2.1), rel=1e-14)

    def test_three_rates_value(self):
        # max of Exp(1), Exp(2); frozen from differentiating the product CDF:
        # f(1) = e^-1 + 2e^-2 - 3e^-3
        mix = excl_max_pdf([1.0, 2.0, 3.0], 2)
        assert mix.pdf(1.0) == pytest.approx(0.4891888025410759, rel=1e-13)

    def test_normalizes_and_nonnegative(self):
        rng = np.random.default_rng(11)
        for rates in random_rate_sets(rng, 60):
            if len(rates) < 2:
                continue
            k = int(rng.integers(0, len(rates)))
            mix = excl_max_pdf(rates, k)
            assert mix.total_mass() == pytest.approx(1.0, abs=1e-9)
            grid = np.linspace(0.0, 20.0 / min(rates), 1000)
            assert all(mix.pdf(float(x)) >= -1e-12 for x in grid)

    def test_matches_numerical_derivative_of_cdf(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            rates = list(np.exp(rng.uniform(-1.5, 1.5, n)))
            k = int(rng.integers(0, n))
            others = rates[:k] + rates[k + 1:]
            mix = excl_max_pdf(rates, k)
            h = 1e-6
            for x in (0.3, 1.0, 2.7):
                want = (max_exp_cdf(others, x + h) - max_exp_cdf(others, x - h)) / (2 * h)
                assert mix.pdf(x) == pytest.approx(want, abs=1e-6)

    def test_single_rate_rejected(self):
        with pytest.raises(EmptyExclusionError):
            excl_max_pdf([1.0], 0)


class TestExclMinRate:
    def test_examples(self):
        assert excl_min_rate([1.0, 2.0, 3.0], 1) == 4.0
        assert excl_min_rate([5.0, 5.0], 0) == 5.0
        assert excl_min_rate([0.5, 0.25, 0.125, 0.0625], 0) == pytest.approx(0.4375)

    def test_single_rate_rejected(self):
        with pytest.raises(EmptyExclusionError):
            excl_min_rate([2.0], 0)


class TestSumPairCoeffs:
    def test_standard_convolution(self):
        c = sum_pair_coeffs(1.0, 2.0)
        assert not c.degenerate
        assert (c.b1, c.rate1) == (-2.0, 2.0)
        assert (c.b2, c.rate2) == (2.0, 1.0)
        for x in (0.0, 0.5, 2.0):
            assert c.pdf(x) == pytest.approx(2 * math.exp(-x) - 2 * math.exp(-2 * x),
                                             rel=1e-14, abs=1e-14)

    def test_equal_rates_become_erlang(self):
        c = sum_pair_coeffs(2.0, 2.0)
        assert c.degenerate
        for x in (0.1, 1.0, 3.0):
            assert c.pdf(x) == pytest.approx(4.0 * x * math.exp(-2.0 * x), rel=1e-14)

    def test_value_against_convolution_oracle(self):
        # frozen from quad of the convolution integral of Exp(3) and Exp(1)
        c = sum_pair_coeffs(3.0, 1.0)
        assert c.pdf(0.5) == pytest.approx(0.5751007493463054, rel=1e-12)
        live, _ = integrate.quad(
            lambda s: 3 * math.exp(-3 * s) * math.exp(-(0.5 - s)), 0.0, 0.5,
            epsabs=1e-14, epsrel=1e-12)
        assert c.pdf(0.5) == pytest.approx(live, rel=1e-10)

    def test_normalization_invariant(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            a, b = np.exp(rng.uniform(-2, 2, 2))
            c = sum_pair_coeffs(float(a), float(b))
            if not c.degenerate:
                assert c.b1 / c.rate1 + c.b2 / c.rate2 == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_branch_is_continuous(self):
        # density at rates separated just past the equality threshold stays
        # within 1e-6 of the Erlang-2 limit, everywhere
        r = 2.0
        near = sum_pair_coeffs(r, r * (1.0 + 3.0 * EPS_EQUAL_RATE))
        erlang = sum_pair_coeffs(r, r)
        assert not near.degenerate and erlang.degenerate
        grid = np.linspace(0.0, 10.0, 2000)
        sup = max(abs(near.pdf(float(x)) - erlang.pdf(float(x))) for x in grid)
        assert sup < 1e-6

    def test_invalid(self):
        with pytest.raises(ValueError):
            sum_pair_coeffs(0.0, 1.0)


class TestSpreadRates:
    def test_distinct_untouched(self):
        assert spread_rates([1.0, 2.0, 4.0]) == (1.0, 2.0, 4.0)

    def test_equal_rates_spread_and_centered(self):
        out = spread_rates([3.0, 3.0, 3.0])
        assert len(set(out)) == 3
        assert sum(out) / 3 == pytest.approx(3.0, rel=1e-9)
        assert all(abs(o / 3.0 - 1.0) < 2e-6 for o in out)

    def test_order_preserved(self):
        out = spread_rates([5.0, 1.0, 5.0])
        assert out[1] == 1.0
        assert out[0] != out[2]


class TestHypoexp:
    def test_two_rates(self):
        mix = hypoexp_pdf([1.0, 2.0])
        assert mix.pdf(1.0) == pytest.approx(0.46508831586965926, rel=1e-13)

    def test_single_rate_is_exponential(self):
        mix = hypoexp_pdf([1.0])
        for t in (0.0, 0.5, 3.0):
            assert mix.pdf(t) == pytest.approx(math.exp(-t), rel=1e-14)

    def test_three_rates_against_convolution_oracle(self):
        # frozen from nested numerical convolution of Exp(1), Exp(2), Exp(3)
        mix = hypoexp_pdf([1.0, 2.0, 3.0])
        assert mix.pdf(1.0) == pytest.approx(0.4409878291982426, rel=1e-10)

    def test_permutation_invariant(self):
        a = hypoexp_pdf([1.0, 2.0, 3.0])
        b = hypoexp_pdf([3.0, 1.0, 2.0])
        for t in (0.1, 0.9, 4.0):
            assert a.pdf(t) == pytest.approx(b.pdf(t), rel=1e-12)

    def test_normalizes(self):
        rng = np.random.default_rng(14)
        for rates in random_rate_sets(rng, 40, max_n=6):
            mix = hypoexp_pdf(rates)
            assert mix.total_mass() == pytest.approx(1.0, abs=1e-9)

    def test_repeated_rates_take_high_precision_path(self):
        mix = hypoexp_pdf([1.0, 1.0, 1.0, 1.0, 0.5])
        assert mix.dps > 0
        assert mix.total_mass() == pytest.approx(1.0, abs=1e-9)
        # near the 4-fold Erlang + Exp convolution; sanity against simulation
        rng = np.random.default_rng(15)
        samples = rng.exponential(1.0, (200000, 4)).sum(axis=1) \
            + rng.exponential(2.0, 200000)
        emp = np.mean(samples <= 5.0)
        cdf = mix.cdf(5.0)
        assert abs(cdf - emp) < 5e-3

    def test_invalid(self):
        with pytest.raises(ValueError):
            hypoexp_pdf([1.0, 0.0])


class TestHypoexpCdf:
    def test_single_rate(self):
        for x in (0.0, 0.7, 2.5):
            assert hypoexp_cdf([1.0], x) == pytest.approx(-math.expm1(-x), abs=1e-14)

    def test_total_mass_at_large_x(self):
        assert hypoexp_cdf([1.0, 2.0], 50.0) == pytest.approx(1.0, abs=1e-12)

    def test_three_rates_against_quadrature_oracle(self):
        # frozen from adaptive quadrature of the convolution-built density
        assert hypoexp_cdf([1.0, 2.0, 3.0], 2.0) == pytest.approx(
            0.6464623147796981, rel=1e-10)
        live, _ = integrate.quad(hypoexp_pdf([1.0, 2.0, 3.0]).pdf, 0.0, 2.0,
                                 epsabs=1e-12, epsrel=1e-10)
        assert hypoexp_cdf([1.0, 2.0, 3.0], 2.0) == pytest.approx(live, rel=1e-10)

    def test_monotone(self):
        xs = np.linspace(0.0, 10.0, 50)
        vals = [hypoexp_cdf([0.7, 1.3, 2.1], float(x)) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_hypoexp_kolmogorov_smirnov():
    # empirical distribution of a simulated sum vs the mixture CDF at the
    # 1% level: KS distance below 1.63/sqrt(n)
    rates = [0.8, 1.7, 3.1]
    rng = np.random.default_rng(16)
    n = 1_000_000
    samples = sum(rng.exponential(1.0 / r, n) for r in rates)
    mix = hypoexp_pdf(rates)
    xs = np.sort(samples)
    # evaluate the CDF on a float grid via the mixture terms, vectorized
    coeffs = np.array([float(c) for c, _ in mix.terms])
    rs = np.array([r for _, r in mix.terms])
    cdf = 1.0 - ((coeffs / rs) * np.exp(-np.outer(xs, rs))).sum(axis=1)
    emp_hi = np.arange(1, n + 1) / n
    emp_lo = np.arange(0, n) / n
    ks = max(np.max(np.abs(emp_hi - cdf)), np.max(np.abs(cdf - emp_lo)))
    assert ks < 1.63 / math.sqrt(n)


def test_mixture_exp_tilt_tail():
    mix = hypoexp_pdf([1.0, 2.0])
    want, _ = integrate.quad(lambda y: mix.pdf(y) * math.exp(-0.7 * y), 0.5, 60.0,
                             epsabs=1e-13, epsrel=1e-11)
    assert mix.exp_tilt_tail(0.7, 0.5) == pytest.approx(want, rel=1e-9)
