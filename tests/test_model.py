import math

import numpy as np
import pytest

from oracles import secrecy_rate

from relaysop.model import (Engine, NetworkConfig, Scheme, SecrecyTarget,
                            SopResult, db_to_rate, secrecy_outage,
                            validate_config)


class TestDbToRate:
    def test_examples(self):
        assert db_to_rate(0.0) == 1.0
        assert db_to_rate(3.0) == pytest.approx(0.5011872336272722, rel=1e-15)
        assert db_to_rate(30.0) == pytest.approx(1e-3, rel=1e-15)

    def test_round_trip_identity(self):
        rng = np.random.default_rng(1)
        for db in rng.uniform(-100.0, 100.0, 500):
            assert db_to_rate(db) * 10.0 ** (db / 10.0) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            db_to_rate(bad)

    def test_rate_overflow_is_a_value_error(self):
        assert db_to_rate(-3080.0) == pytest.approx(1e308, rel=1e-12)
        with pytest.raises(ValueError, match="too low"):
            db_to_rate(-4000.0)


class TestSecrecyRate:
    def test_examples(self):
        assert secrecy_rate(3.0, 0.0) == pytest.approx(1.0, abs=1e-15)
        assert secrecy_rate(1.0, 1.0) == 0.0
        assert secrecy_rate(0.5, 2.0) == 0.0

    def test_clamped_whenever_legit_not_better(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            ge = rng.exponential(2.0)
            gm = rng.uniform(0.0, ge)
            assert secrecy_rate(gm, ge) == 0.0

    def test_monotonicity(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            gm, ge = rng.exponential(2.0, 2)
            d = rng.exponential(1.0)
            assert secrecy_rate(gm + d, ge) >= secrecy_rate(gm, ge)
            assert secrecy_rate(gm, ge + d) <= secrecy_rate(gm, ge)

class TestSecrecyTarget:
    def test_zero_rate_means_unit_ratio(self):
        assert SecrecyTarget(0.0).rho == 1.0

    def test_rho_is_exact_power(self):
        for rs in (0.25, 0.5, 1.0, 2.0, 7.5):
            assert SecrecyTarget(rs).rho == 2.0 ** (2.0 * rs)

    def test_invalid(self):
        with pytest.raises(ValueError):
            SecrecyTarget(-0.1)
        with pytest.raises(ValueError):
            SecrecyTarget(float("nan"))

    def test_rho_overflow_is_a_value_error(self):
        assert SecrecyTarget(511.5).rho == 2.0 ** 1023
        with pytest.raises(ValueError, match="too large"):
            SecrecyTarget(512.0)
        with pytest.raises(ValueError, match="too large"):
            SecrecyTarget(600.0)

    def test_event_forms_agree_per_realization(self):
        # the ratio form is canonical; the unclamped log form must give the
        # same outcome on every sampled realization (at rs = 0 the clamped
        # rate cannot see the intercept event, so compare before clamping)
        rng = np.random.default_rng(4)
        for rs in (0.0, 0.3, 1.0):
            target = SecrecyTarget(rs)
            gm = rng.exponential(5.0, 20000)
            ge = rng.exponential(2.0, 20000)
            for m, e in zip(gm, ge):
                log_form = 0.5 * math.log2((1.0 + m) / (1.0 + e)) < rs
                assert log_form == secrecy_outage(m, e, target)
                if rs > 0:
                    assert (secrecy_rate(m, e) < rs) == secrecy_outage(m, e, target)

    def test_tie_counts_as_non_outage(self):
        target = SecrecyTarget(0.0)
        assert not secrecy_outage(1.7, 1.7, target)


class TestValidateConfig:
    def test_valid_passes(self):
        cfg = NetworkConfig(2, (1.0, 1.0), (1.0, 1.0), 1.0, (1.0, 1.0), 1.0)
        assert validate_config(cfg) == []

    def test_zero_rate_flagged(self):
        cfg = NetworkConfig(2, (1.0, 1.0), (1.0, 1.0), 0.0, (1.0, 1.0), 1.0)
        problems = validate_config(cfg)
        assert any("beta_sd" in p and "strictly positive" in p for p in problems)

    def test_length_mismatch_flagged(self):
        cfg = NetworkConfig(3, (1.0, 1.0), (1.0, 1.0, 1.0), 1.0, (1.0, 1.0, 1.0), 1.0)
        problems = validate_config(cfg)
        assert any("beta_sk" in p and "length mismatch" in p for p in problems)

    def test_every_violation_reported(self):
        cfg = NetworkConfig(2, (1.0, -1.0), (1.0, 1.0), 0.0, (1.0,), 1.0)
        problems = validate_config(cfg)
        assert len(problems) >= 3

    def test_from_mean_snr_db(self):
        cfg = NetworkConfig.from_mean_snr_db([10.0, 10.0], [10.0, 10.0], 3.0,
                                             [3.0, 3.0], 0.0)
        assert validate_config(cfg) == []
        assert cfg.beta_sd == pytest.approx(db_to_rate(3.0))
        assert cfg.beta_kD[0] == pytest.approx(0.2, rel=1e-12)


class TestSopResult:
    def test_mc_requires_ci(self):
        with pytest.raises(ValueError):
            SopResult(0.5, Engine.MONTE_CARLO, trials=100, seed=1)

    def test_non_mc_forbids_ci(self):
        with pytest.raises(ValueError):
            SopResult(0.5, Engine.ANALYTIC, ci_halfwidth=0.01)

    def test_value_range_enforced(self):
        with pytest.raises(ValueError):
            SopResult(1.5, Engine.ANALYTIC)

    def test_ci_bounds_clipped(self):
        res = SopResult(0.999, Engine.MONTE_CARLO, trials=10, ci_halfwidth=0.05, seed=0)
        lo, hi = res.ci_bounds()
        assert lo == pytest.approx(0.949)
        assert hi == 1.0


def test_scheme_tags_are_total():
    assert {s.value for s in Scheme} == {"max-e", "min-e", "max-mrc", "mrc-mrc"}
