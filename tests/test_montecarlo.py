import math

import numpy as np
import pytest

from oracles import ChannelRealization, hypoexp_pdf, run_scheme

from relaysop.model import NetworkConfig, Scheme, SecrecyTarget
from relaysop.montecarlo import (McSettings, _block_rows, _chunk_state,
                                 _generator, _unit_rows, _rates, _reductions,
                                 _rescale, _sample_chunk, _scheme_snrs,
                                 _shared_snrs, estimate_sop, estimate_sop_grid,
                                 estimate_sop_many)

SEED = 20250809


def fig2_config(n, snr_db):
    from relaysop.presets import family_config
    return family_config("fig2", n, snr_db)


class TestSampling:
    def test_sample_mean_matches_inverse_rate(self):
        cfg = NetworkConfig(1, (1.0,), (1.0,), 0.5, (1.0,), 1.0)
        _, _, gsd, _, _ = _sample_chunk(cfg, SEED, 0, 1_000_000)
        # E = 1/beta = 2, sigma of the mean = 2/sqrt(n)
        assert abs(gsd.mean() - 2.0) <= 3.0 * (2.0 / 1e3)

    def test_tail_probability(self):
        cfg = NetworkConfig(1, (1.0,), (1.0,), 1.0, (1.0,), 1.0)
        _, _, _, gke, _ = _sample_chunk(cfg, SEED, 0, 1_000_000)
        p = np.mean(gke[:, 0] > 1.0)
        sigma = math.sqrt(math.exp(-1.0) * (1 - math.exp(-1.0)) / 1e6)
        assert abs(p - math.exp(-1.0)) <= 3.0 * sigma

    def test_same_seed_same_realizations(self):
        cfg = fig2_config(3, 10.0)
        first = _sample_chunk(cfg, 99, 0, 1000)
        again = _sample_chunk(cfg, 99, 0, 1000)
        other = _sample_chunk(cfg, 98, 0, 1000)
        assert all(np.array_equal(a, b) for a, b in zip(first, again))
        assert not any(np.array_equal(a, b) for a, b in zip(first, other))


class TestRunScheme:
    # one worked realization, all four schemes
    R = ChannelRealization(gamma_sk=(4.0, 10.0), gamma_kd=(6.0, 1.0),
                           gamma_sd=2.0, gamma_ke=(3.0, 5.0), gamma_se=1.0)

    def test_max_e(self):
        assert run_scheme(self.R, Scheme.MAX_E) == (2.0 + 1.0, 1.0 + 5.0)

    def test_min_e(self):
        assert run_scheme(self.R, Scheme.MIN_E) == (2.0 + 4.0, 1.0 + 3.0)

    def test_mrc_mrc(self):
        assert run_scheme(self.R, Scheme.MRC_MRC) == (2.0 + 4.0 + 1.0, 1.0 + 3.0 + 5.0)

    def test_max_mrc(self):
        assert run_scheme(self.R, Scheme.MAX_MRC) == (2.0 + 4.0 + 1.0, 1.0 + 5.0)

    def test_tie_breaks_to_lowest_index(self):
        r = ChannelRealization((1.0, 1.0), (1.0, 1.0), 0.0, (2.0, 2.0), 0.0)
        # both taps equal: index 0 wins for both selections
        assert run_scheme(r, Scheme.MAX_E) == run_scheme(r, Scheme.MIN_E)

    def test_vectorized_agrees_with_scalar(self):
        cfg = fig2_config(3, 12.0)
        arrays = _sample_chunk(cfg, SEED, 0, 200)
        gsk, gkd, gsd, gke, gse = arrays
        for scheme in Scheme:
            gm, ge = _scheme_snrs(_shared_snrs(arrays), scheme)
            for i in range(200):
                r = ChannelRealization(gsk[i], gkd[i], float(gsd[i]),
                                       gke[i], float(gse[i]))
                m, e = run_scheme(r, scheme)
                assert m == pytest.approx(gm[i], rel=1e-12)
                assert e == pytest.approx(ge[i], rel=1e-12)


class TestEstimate:
    def test_symmetric_mrc_mrc_is_half(self):
        cfg = NetworkConfig(1, (0.6,), (1.4,), 1.0, (2.0,), 1.0)
        res = estimate_sop(cfg, Scheme.MRC_MRC, SecrecyTarget(0.0),
                           McSettings(1_000_000, SEED))
        sigma = math.sqrt(0.25 / 1e6)
        assert abs(res.value - 0.5) <= 4.0 * sigma

    def test_against_analytic(self):
        from relaysop.analytic import sop_max_e
        cfg = fig2_config(2, 20.0)
        target = SecrecyTarget(0.0)
        res = estimate_sop(cfg, Scheme.MAX_E, target, McSettings(1_000_000, SEED))
        assert abs(res.value - sop_max_e(cfg, target).value) <= 4 * res.ci_halfwidth

    def test_repeatable(self):
        cfg = fig2_config(2, 10.0)
        s = McSettings(trials=300_000, seed=42)
        a = estimate_sop(cfg, Scheme.MIN_E, SecrecyTarget(1.0), s)
        b = estimate_sop(cfg, Scheme.MIN_E, SecrecyTarget(1.0), s)
        assert a == b

    def test_worker_count_does_not_change_result(self):
        cfg = fig2_config(4, 25.0)
        s = McSettings(trials=300_000, seed=7, chunk_size=1 << 14)
        results = [estimate_sop(cfg, Scheme.MAX_MRC, SecrecyTarget(1.0), s, workers=w)
                   for w in (1, 4, 16)]
        assert results[0] == results[1] == results[2]

    def test_partial_last_chunk(self):
        cfg = fig2_config(1, 10.0)
        s = McSettings(trials=100_001, seed=3, chunk_size=1 << 15)
        res = estimate_sop(cfg, Scheme.MAX_E, SecrecyTarget(0.0), s)
        assert res.trials == 100_001

    def test_wilson_halfwidth_when_rare(self):
        # high SNR, strong eavesdropper threshold: nearly no outages
        cfg = fig2_config(4, 40.0)
        res = estimate_sop(cfg, Scheme.MAX_MRC, SecrecyTarget(0.0),
                           McSettings(trials=20_000, seed=5))
        assert res.value < 1e-3
        assert res.ci_halfwidth > 0.0  # Wilson keeps the interval informative

    def test_result_carries_provenance(self):
        cfg = fig2_config(1, 10.0)
        res = estimate_sop(cfg, Scheme.MRC_MRC, SecrecyTarget(0.0),
                           McSettings(trials=1000, seed=11))
        assert res.trials == 1000 and res.seed == 11
        assert res.ci_halfwidth is not None

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            McSettings(trials=0, seed=1)

    def test_invalid_config_rejected(self):
        cfg = NetworkConfig(1, (1.0,), (1.0,), -1.0, (1.0,), 1.0)
        with pytest.raises(ValueError):
            estimate_sop(cfg, Scheme.MAX_E, SecrecyTarget(0.0),
                         McSettings(trials=10, seed=1))


class TestEstimateMany:
    #: not a multiple of the chunk size, so the last chunk is partial
    SETTINGS = McSettings(trials=50_001, seed=19, chunk_size=1 << 13)

    @pytest.mark.parametrize("workers", [1, 4])
    def test_every_cell_matches_estimate_sop(self, workers):
        cfg = fig2_config(3, 12.0)
        pairs = [(scheme, SecrecyTarget(rs)) for scheme in Scheme
                 for rs in (0.0, 1.0)]
        many = estimate_sop_many(cfg, pairs, self.SETTINGS, workers=workers)
        assert len(many) == len(pairs)
        for (scheme, target), res in zip(pairs, many):
            one = estimate_sop(cfg, scheme, target, self.SETTINGS)
            assert (res.value, res.ci_halfwidth, res.trials, res.seed) == \
                (one.value, one.ci_halfwidth, one.trials, one.seed)
            assert res.value == self.drawn_per_pair(cfg, scheme, target)

    def drawn_per_pair(self, cfg, scheme, target):
        """Reference: every chunk drawn afresh for this one pair."""
        s, outages = self.SETTINGS, 0
        for c, start in enumerate(range(0, s.trials, s.chunk_size)):
            arrays = _sample_chunk(cfg, s.seed, c, min(s.chunk_size, s.trials - start))
            gm, ge = _scheme_snrs(_shared_snrs(arrays), scheme)
            outages += int(np.count_nonzero((1.0 + gm) < target.rho * (1.0 + ge)))
        return outages / s.trials

    def test_repeated_pairs_each_get_a_result(self):
        cfg = fig2_config(2, 10.0)
        pairs = [(Scheme.MIN_E, SecrecyTarget(1.0)),
                 (Scheme.MAX_E, SecrecyTarget(0.0)),
                 (Scheme.MIN_E, SecrecyTarget(1.0))]
        many = estimate_sop_many(cfg, pairs, self.SETTINGS)
        assert len(many) == 3
        assert many[0] == many[2]
        assert many[0] == estimate_sop(cfg, Scheme.MIN_E, SecrecyTarget(1.0),
                                       self.SETTINGS)
        assert many[1] == estimate_sop(cfg, Scheme.MAX_E, SecrecyTarget(0.0),
                                       self.SETTINGS)

    def test_empty_pair_list_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            estimate_sop_many(fig2_config(1, 10.0), [], self.SETTINGS)


def five_call_chunk(cfg, seed, chunk_index, n_trials):
    """Reference draw: one rng.random call per link group, sk, kd, sd, ke, se."""
    rng = np.random.default_rng((seed, chunk_index))
    n = cfg.n_relays
    shapes = ((n_trials, n), (n_trials, n), n_trials, (n_trials, n), n_trials)
    rates = (np.asarray(cfg.beta_sk), np.asarray(cfg.beta_kd), cfg.beta_sd,
             np.asarray(cfg.alpha_ke), cfg.alpha_se)
    return tuple(-np.log1p(-rng.random(shape)) / rate
                 for shape, rate in zip(shapes, rates))


def reference_snrs(arrays, scheme):
    """(gamma_M, gamma_E) of a whole chunk the way run_scheme reads:
    fancy-indexed picks, max and sums over full-chunk arrays."""
    gsk, gkd, gsd, gke, gse = arrays
    eff, rows = np.minimum(gsk, gkd), np.arange(len(gsd))
    if scheme in (Scheme.MAX_E, Scheme.MIN_E):
        k = np.argmax(gke, axis=1) if scheme is Scheme.MAX_E else np.argmin(gke, axis=1)
        return gsd + eff[rows, k], gse + gke[rows, k]
    gm = gsd + eff.sum(axis=1)
    return gm, gse + (gke.max(axis=1) if scheme is Scheme.MAX_MRC else gke.sum(axis=1))


def reference_outages(cfg, scheme, target, settings):
    """Outage count of one pair, every chunk drawn afresh with five calls."""
    outages = 0
    for c, start in enumerate(range(0, settings.trials, settings.chunk_size)):
        size = min(settings.chunk_size, settings.trials - start)
        gm, ge = reference_snrs(five_call_chunk(cfg, settings.seed, c, size), scheme)
        outages += int(np.count_nonzero((1.0 + gm) < target.rho * (1.0 + ge)))
    return outages


class TestEstimateGrid:
    PAIRS = [(scheme, SecrecyTarget(rs)) for scheme in Scheme for rs in (0.0, 0.5)]

    @staticmethod
    def configs(n):
        return [fig2_config(n, snr) for snr in (0.0, 12.0, 30.0)]

    @pytest.mark.parametrize("n", [1, 4, 9])
    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("settings", [
        # three chunks, the last one partial, and chunks of more than one block
        McSettings(trials=40_001, seed=23, chunk_size=1 << 14 | 7),
        # fewer chunks than workers
        McSettings(trials=3_000, seed=29, chunk_size=2_000),
    ], ids=["partial-last-chunk", "fewer-chunks-than-workers"])
    def test_every_config_matches_its_own_estimate(self, n, workers, settings):
        configs = self.configs(n)
        grid = estimate_sop_grid(configs, self.PAIRS, settings, workers=workers)
        assert len(grid) == len(configs)
        for cfg, row in zip(configs, grid):
            alone = estimate_sop_many(cfg, self.PAIRS, settings)
            assert len(row) == len(self.PAIRS)
            for (scheme, target), res, one in zip(self.PAIRS, row, alone):
                assert (res.value, res.ci_halfwidth, res.trials, res.seed) == \
                    (one.value, one.ci_halfwidth, one.trials, one.seed)
                assert res.value == \
                    reference_outages(cfg, scheme, target, settings) / settings.trials

    def test_single_buffer_stream_equals_five_calls(self):
        cfg = fig2_config(4, 12.0)
        for drawn, reference in zip(_sample_chunk(cfg, SEED, 3, 1000),
                                    five_call_chunk(cfg, SEED, 3, 1000)):
            assert np.array_equal(drawn, reference)

    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_block_reductions_are_bit_identical(self, n):
        # counts hide one-ulp changes, so compare the block arrays themselves;
        # blocks are drawn last first, as a thread may take them
        cfg = fig2_config(n, 12.0)
        rows = _block_rows(n)
        size = 2 * rows + 1001  # the last block is partial
        full = five_call_chunk(cfg, SEED, 2, size)
        gen, state = _generator(), _chunk_state(SEED, 2)
        scratch = [np.empty((rows,) + u.shape[1:]) for u in full]
        for lo in reversed(range(0, size, rows)):
            b = min(rows, size - lo)
            block = _unit_rows(gen, state, size, n, lo, np.empty(b * (3 * n + 2)))
            for scheme, gm, ge in _reductions(_rescale(block, _rates(cfg), scratch),
                                              list(Scheme)):
                ref_m, ref_e = reference_snrs(full, scheme)
                assert np.array_equal(gm, ref_m[lo:lo + b])
                assert np.array_equal(ge, ref_e[lo:lo + b])

    def test_mixed_relay_counts_rejected(self):
        with pytest.raises(ValueError, match="same relay count"):
            estimate_sop_grid([fig2_config(2, 10.0), fig2_config(3, 10.0)],
                              self.PAIRS, McSettings(trials=100, seed=1))

    def test_empty_config_list_rejected(self):
        with pytest.raises(ValueError, match="at least one network config"):
            estimate_sop_grid([], self.PAIRS, McSettings(trials=100, seed=1))

    def test_invalid_config_rejected(self):
        bad = NetworkConfig(1, (1.0,), (1.0,), 0.0, (1.0,), 1.0)
        with pytest.raises(ValueError, match="beta_sd"):
            estimate_sop_grid([fig2_config(1, 10.0), bad], self.PAIRS,
                              McSettings(trials=100, seed=1))


class TestPointwiseStructure:
    def test_eavesdropper_snr_dominance_chain(self):
        cfg = fig2_config(4, 15.0)
        shared = _shared_snrs(_sample_chunk(cfg, SEED, 0, 100_000))
        _, ge_mrc = _scheme_snrs(shared, Scheme.MRC_MRC)
        gm_maxmrc, ge_maxmrc = _scheme_snrs(shared, Scheme.MAX_MRC)
        gm_maxe, ge_maxe = _scheme_snrs(shared, Scheme.MAX_E)
        gm_mine, ge_mine = _scheme_snrs(shared, Scheme.MIN_E)
        assert np.all(ge_mrc >= ge_maxmrc)
        assert np.all(ge_maxmrc >= ge_maxe)  # equal: both take the best tap
        assert np.all(ge_maxe >= ge_mine)
        # destination MRC sees at least any single selected branch
        assert np.all(gm_maxmrc >= gm_maxe)
        assert np.all(gm_maxmrc >= gm_mine)

    def test_event_forms_identical_per_trial(self):
        cfg = fig2_config(2, 10.0)
        gm, ge = _scheme_snrs(_shared_snrs(_sample_chunk(cfg, SEED, 0, 100_000)),
                              Scheme.MRC_MRC)
        for rs in (0.0, 0.3):
            target = SecrecyTarget(rs)
            ratio_form = (1.0 + gm) < target.rho * (1.0 + ge)
            log_form = 0.5 * np.log2((1.0 + gm) / (1.0 + ge)) < rs
            assert np.array_equal(ratio_form, log_form)

    def test_legit_sum_matches_hypoexp_cdf(self):
        # Kolmogorov-Smirnov at the 1% level against the mixture CDF
        cfg = NetworkConfig(2, (0.5, 0.75), (0.7, 0.45), 0.9, (1.0, 1.0), 1.0)
        n = 1_000_000
        gsk, gkd, gsd, _, _ = _sample_chunk(cfg, SEED, 0, n)
        total = gsd + np.minimum(gsk, gkd).sum(axis=1)
        mix = hypoexp_pdf([cfg.beta_sd, *cfg.beta_kD])
        coeffs = np.array([float(c) for c, _ in mix.terms])
        rates = np.array([r for _, r in mix.terms])
        xs = np.sort(total)
        cdf = 1.0 - ((coeffs / rates) * np.exp(-np.outer(xs, rates))).sum(axis=1)
        hi = np.arange(1, n + 1) / n
        lo = np.arange(0, n) / n
        ks = max(np.max(np.abs(hi - cdf)), np.max(np.abs(cdf - lo)))
        assert ks < 1.63 / math.sqrt(n)
