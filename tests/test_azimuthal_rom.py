import json

import numpy as np
import pytest

from bladesense import (ConditionKey, azimuth_bin, bin_statistics,
                        evaluate_rom, fit_rom, load_rom, save_rom, wrap_angle)
from bladesense.azimuthal_rom import (AzimuthalRomModel, BinStatistics,
                                      bin_centers, fourier_design,
                                      fourier_eval)
from bladesense.dataset import TWO_PI
from bladesense.errors import SchemaError, ValidationError


def _cond(u=10.0, ti=0.10, seed=0):
    return ConditionKey(u_mean=u, ti=ti, seed=seed)


def fit_fourier(centers, values, n_fourier):
    """Oracle: one ordinary least-squares fit of per-bin scalars onto the
    Fourier regressors, a separate solve per table entry."""
    design = fourier_design(centers, n_fourier)
    return np.linalg.lstsq(design, values, rcond=None)[0]


def _fit_rom_series(values, n_fourier):
    """fit_rom on one mode whose binned means are ``values`` (one per bin,
    every bin occupied); returns the mean coefficients and the residual
    norm of the fitted series at the bin centers."""
    n_theta = values.size
    st = BinStatistics(condition=_cond(), n_theta=n_theta,
                       counts=np.ones(n_theta, dtype=int),
                       means=values[:, None],
                       covariances=np.zeros((n_theta, 1, 1)))
    coeffs = fit_rom([st], n_fourier).conditions[0].mean_coeffs[0]
    resid = np.linalg.norm(fourier_eval(coeffs, bin_centers(n_theta)) - values)
    return coeffs, resid


class TestBinStatistics:
    def test_single_sample_per_bin(self):
        n_theta = 8
        theta = bin_centers(n_theta)
        a = np.vstack([np.arange(n_theta, dtype=float)])
        st = bin_statistics(a, theta, n_theta, condition=_cond())
        assert np.all(st.counts == 1)
        assert np.allclose(st.means[:, 0], a[0])
        assert np.allclose(st.covariances, 0.0)

    def test_identical_samples_zero_covariance(self):
        theta = np.tile(bin_centers(4), 5)
        a = np.full((2, theta.size), 3.3)
        st = bin_statistics(a, theta, 4, condition=_cond())
        assert np.allclose(st.covariances, 0.0)

    def test_population_variance_convention(self):
        theta = np.array([0.1, 0.1])
        a = np.array([[1.0, -1.0]])
        st = bin_statistics(a, theta, 4, condition=_cond())
        assert st.means[0, 0] == pytest.approx(0.0)
        assert st.covariances[0, 0, 0] == pytest.approx(1.0)  # 1/n, not 1/(n-1)

    def test_empty_bins_flagged_not_zero(self):
        theta = np.array([0.05, 0.05])
        a = np.array([[1.0, 2.0]])
        st = bin_statistics(a, theta, 8, condition=_cond())
        assert st.counts[0] == 2 and np.all(st.counts[1:] == 0)
        assert np.all(np.isnan(st.means[1:]))
        assert not np.any(st.occupied[1:])

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            bin_statistics(np.zeros((2, 5)), np.zeros(4), 8,
                           condition=_cond())


class TestFitFourier:
    def test_constant_function(self):
        coeffs, resid = _fit_rom_series(np.full(72, 2.0), 6)
        assert coeffs[0] == pytest.approx(2.0, abs=1e-12)
        assert np.allclose(coeffs[1:], 0.0, atol=1e-12)
        assert resid <= 1e-12

    def test_in_class_signal_exact(self):
        centers = bin_centers(72)
        values = 3.0 * np.cos(centers) + np.sin(2 * centers)
        coeffs, resid = _fit_rom_series(values, 6)
        expected = np.zeros(13)
        expected[1] = 3.0   # c_1
        expected[4] = 1.0   # s_2
        assert np.allclose(coeffs, expected, atol=1e-10)
        assert resid <= 1e-10

    def test_aliased_harmonic_leaves_residual(self):
        centers = bin_centers(72)
        values = np.cos(7 * centers)  # outside the n_F=6 model class
        coeffs, resid = _fit_rom_series(values, 6)
        assert resid > 0.5 * np.linalg.norm(values)
        # on the uniform 72-point grid cos(7 theta) is orthogonal to every
        # retained regressor, so the coefficients collapse to zero
        assert np.allclose(coeffs, 0.0, atol=1e-10)

    def test_too_few_bins(self):
        with pytest.raises(ValidationError, match="non-empty bins"):
            _fit_rom_series(np.zeros(8), 6)


def _truth_tables(rng, n_modes, n_fourier_true, n_fourier_model):
    """Ground-truth mean tables padded to the model's coefficient width."""
    width = 1 + 2 * n_fourier_model
    tab = np.zeros((n_modes, width))
    tab[:, : 1 + 2 * n_fourier_true] = rng.uniform(
        -1.0, 1.0, (n_modes, 1 + 2 * n_fourier_true))
    return tab


class TestFitRom:
    def test_constant_statistics_reproduced(self):
        n_theta = 72
        means = np.full((n_theta, 1), 1.7)
        covs = np.full((n_theta, 1, 1), 0.25)
        st = BinStatistics(condition=_cond(), n_theta=n_theta,
                           counts=np.ones(n_theta, dtype=int),
                           means=means, covariances=covs)
        model = fit_rom([st], 6)
        g = evaluate_rom(model, 1.234, 10.0, 0.10)
        assert g.mean[0] == pytest.approx(1.7, abs=1e-10)
        assert g.covariance[0, 0] == pytest.approx(0.25, abs=1e-10)

    def test_pure_1p_sinusoid_captured(self):
        n_theta = 72
        centers = bin_centers(n_theta)
        means = (2.0 * np.sin(centers))[:, None]
        covs = np.full((n_theta, 1, 1), 0.1)
        st = BinStatistics(condition=_cond(), n_theta=n_theta,
                           counts=np.ones(n_theta, dtype=int),
                           means=means, covariances=covs)
        model = fit_rom([st], 6)
        coeffs = model.conditions[0].mean_coeffs[0]
        assert coeffs[2] == pytest.approx(2.0, abs=1e-10)  # s_1
        others = np.delete(coeffs, 2)
        assert np.allclose(others, 0.0, atol=1e-10)

    def test_generate_and_refit_recovers_tables(self):
        rng = np.random.default_rng(5)
        n_modes, n_theta, n_fourier = 3, 72, 6
        mean_tab = _truth_tables(rng, n_modes, 4, n_fourier)
        # bin covariances: a positive diagonal with a small 2P ripple, and
        # unequal bin counts; the means lie in the model class, so the
        # pooled covariance is the count-weighted mean of the bin covariances
        centers = bin_centers(n_theta)
        means = fourier_eval(mean_tab, centers).T
        diag = (1.0 + 0.1 * np.arange(n_modes))[None, :] \
            + 0.05 * np.cos(2 * centers)[:, None]
        covs = np.stack([np.diag(d) for d in diag])
        counts = rng.integers(5, 15, n_theta)
        st = BinStatistics(condition=_cond(), n_theta=n_theta,
                           counts=counts, means=means, covariances=covs)
        model = fit_rom([st], n_fourier)
        assert np.allclose(model.conditions[0].mean_coeffs, mean_tab,
                           atol=1e-8)
        pooled = np.tensordot(counts, covs, axes=1) / counts.sum()
        assert np.allclose(model.conditions[0].covariance, pooled, atol=1e-8)

    def test_refit_fixed_point(self):
        rng = np.random.default_rng(8)
        st = bin_statistics(rng.standard_normal((2, 4000)),
                            rng.uniform(0, TWO_PI, 4000) % TWO_PI, 72,
                            condition=_cond())
        model1 = fit_rom([st], 6)
        centers = bin_centers(72)
        means = fourier_eval(model1.conditions[0].mean_coeffs, centers).T
        covs = np.tile(model1.conditions[0].covariance, (72, 1, 1))
        st2 = BinStatistics(condition=_cond(), n_theta=72,
                            counts=np.ones(72, dtype=int),
                            means=means, covariances=covs)
        model2 = fit_rom([st2], 6)
        assert np.allclose(model2.conditions[0].mean_coeffs,
                           model1.conditions[0].mean_coeffs, atol=1e-10)
        assert np.allclose(model2.conditions[0].covariance,
                           model1.conditions[0].covariance, atol=1e-10)

    def test_pooled_covariance_about_the_fitted_mean(self):
        rng = np.random.default_rng(3)
        n_theta, n_fourier = 72, 6
        theta = rng.uniform(0, TWO_PI, 3000) % TWO_PI
        a = rng.standard_normal((3, 3000)) + np.cos(theta) + np.sin(5 * theta)
        idx = azimuth_bin(theta, n_theta)
        keep = idx % 9 != 0  # leave some bins empty
        a, theta, idx = a[:, keep], theta[keep], idx[keep]
        st = bin_statistics(a, theta, n_theta, condition=_cond())
        cond = fit_rom([st], n_fourier).conditions[0]
        occ = st.occupied
        ref_mean = np.array([
            fit_fourier(bin_centers(n_theta)[occ], st.means[occ, n], n_fourier)
            for n in range(3)])
        assert np.abs(cond.mean_coeffs - ref_mean).max() \
            <= 1e-12 * np.abs(ref_mean).max()
        # every sample about the fitted mean at its bin's centre
        resid = a - fourier_eval(cond.mean_coeffs, bin_centers(n_theta)[idx])
        ref_cov = resid @ resid.T / a.shape[1]
        assert np.abs(cond.covariance - ref_cov).max() \
            <= 1e-12 * np.abs(ref_cov).max()
        assert np.array_equal(cond.covariance, cond.covariance.T)

    def test_error_carries_condition_context(self):
        st = bin_statistics(np.zeros((1, 3)), np.full(3, 0.1), 72,
                            condition=_cond(u=12.0))
        with pytest.raises(ValidationError, match="u=12.0"):
            fit_rom([st], 6)


def _two_condition_model(seed=0):
    rng = np.random.default_rng(seed)
    stats = []
    for u in (8.0, 12.0):
        centers = bin_centers(72)
        means = np.column_stack([u / 10.0 + np.cos(centers),
                                 0.5 * np.sin(centers)])
        covs = np.tile(np.diag([0.02 * u, 0.1]), (72, 1, 1))
        stats.append(BinStatistics(
            condition=_cond(u=u), n_theta=72,
            counts=np.full(72, 5, dtype=int), means=means, covariances=covs))
    return fit_rom(stats, 6)


class TestEvaluateRom:
    def test_evaluation_identity_at_center(self):
        model = _two_condition_model()
        center = bin_centers(72)[10]
        g = evaluate_rom(model, center, 8.0, 0.10)
        expected = fourier_eval(model.conditions[0].mean_coeffs, center)
        assert np.allclose(g.mean, expected, atol=1e-12)

    def test_wind_interpolation_is_linear(self):
        model = _two_condition_model()
        theta = 0.7
        g_lo = evaluate_rom(model, theta, 8.0, 0.10)
        g_hi = evaluate_rom(model, theta, 12.0, 0.10)
        g_mid = evaluate_rom(model, theta, 10.0, 0.10)
        assert np.allclose(g_mid.mean, 0.5 * (g_lo.mean + g_hi.mean),
                           atol=1e-12)
        assert not np.allclose(g_lo.covariance, g_hi.covariance)
        assert np.allclose(g_mid.covariance,
                           0.5 * (g_lo.covariance + g_hi.covariance), atol=1e-12)

    def test_wind_clamped_at_range_ends(self):
        model = _two_condition_model()
        theta = 1.0
        assert np.allclose(evaluate_rom(model, theta, 2.0, 0.1).mean,
                           evaluate_rom(model, theta, 8.0, 0.1).mean)
        assert np.allclose(evaluate_rom(model, theta, 30.0, 0.1).mean,
                           evaluate_rom(model, theta, 12.0, 0.1).mean)

    def test_covariance_always_psd(self):
        model = _two_condition_model()
        rng = np.random.default_rng(3)
        for theta in rng.uniform(0, TWO_PI, 200):
            g = evaluate_rom(model, theta, rng.uniform(6, 14), 0.10)
            assert np.linalg.eigvalsh(g.covariance).min() >= 0.0

    def test_rank_deficient_bins_give_a_definite_covariance(self):
        # one revolution of a slowly decorrelating AR(1), two samples per
        # bin: every bin covariance has rank one, the pooled one full rank
        rng = np.random.default_rng(4)
        n_theta, n_t = 72, 144
        a = np.zeros((3, n_t))
        for k in range(1, n_t):
            a[:, k] = 0.995 * a[:, k - 1] + rng.standard_normal(3)
        theta = (np.arange(n_t) + 0.5) * TWO_PI / n_t
        st = bin_statistics(a, theta, n_theta, condition=_cond())
        assert np.all(st.counts == 2)
        model = fit_rom([st], 6)
        g = evaluate_rom(model, bin_centers(n_theta), 10.0, 0.10)
        eigs = np.linalg.eigvalsh(g.covariance)
        assert eigs.min() > 1e-3 * eigs.max()

    def test_nearest_ti_resolution(self):
        centers = bin_centers(72)
        stats = []
        for ti, level in ((0.05, 1.0), (0.15, 5.0)):
            means = np.full((72, 1), level)
            covs = np.full((72, 1, 1), 0.1)
            stats.append(BinStatistics(
                condition=_cond(ti=ti), n_theta=72,
                counts=np.ones(72, dtype=int), means=means, covariances=covs))
        model = fit_rom(stats, 6)
        assert evaluate_rom(model, 1.0, 10.0, 0.06).mean[0] == pytest.approx(1.0)
        assert evaluate_rom(model, 1.0, 10.0, 0.14).mean[0] == pytest.approx(5.0)

    def test_periodicity_after_wrapping(self):
        model = _two_condition_model()
        for theta in (0.0, 0.9, 3.3, 6.1):
            g1 = evaluate_rom(model, wrap_angle(theta), 9.0, 0.10)
            g2 = evaluate_rom(model, wrap_angle(theta + TWO_PI), 9.0, 0.10)
            assert np.allclose(g1.mean, g2.mean, atol=1e-9)
            assert np.allclose(g1.covariance, g2.covariance, atol=1e-9)
            # identical wrapped inputs give bit-identical outputs
            g3 = evaluate_rom(model, wrap_angle(theta), 9.0, 0.10)
            assert np.array_equal(g1.mean, g3.mean)

    def test_empty_model_rejected(self):
        model = AzimuthalRomModel(n_fourier=6, n_theta=72, conditions=[])
        with pytest.raises(ValidationError, match="no trained conditions"):
            evaluate_rom(model, 0.0, 10.0, 0.1)


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        model = _two_condition_model()
        path = tmp_path / "rom.json"
        save_rom(model, path)
        back = load_rom(path)
        assert back.n_fourier == model.n_fourier
        assert back.n_theta == model.n_theta
        for c1, c2 in zip(model.conditions, back.conditions):
            assert c1.u_mean == c2.u_mean and c1.ti == c2.ti
            assert np.allclose(c1.mean_coeffs, c2.mean_coeffs, atol=0)
            assert np.allclose(c1.covariance, c2.covariance, atol=0)

    def test_former_format_rejected(self, tmp_path):
        path = tmp_path / "rom.json"
        save_rom(_two_condition_model(), path)
        doc = json.loads(path.read_text())
        for c in doc["conditions"]:
            c["cov_coeffs"] = [[0.2] + [0.0] * 12] * 3
            del c["covariance"]
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="cov_coeffs"):
            load_rom(path)

    def test_indefinite_covariance_rejected(self, tmp_path):
        path = tmp_path / "rom.json"
        save_rom(_two_condition_model(), path)
        doc = json.loads(path.read_text())
        doc["conditions"][1]["covariance"] = [[1.0, 0.0], [0.0, -0.5]]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=r"u=12.0.*not PSD"):
            load_rom(path)
        model = _two_condition_model()
        model.conditions[0].mean_coeffs[1, 3] = np.nan
        with pytest.raises(ValidationError, match=r"u=8.0.*finite"):
            AzimuthalRomModel(6, 72, model.conditions)


class TestDataSufficiency:
    def test_doubling_samples_tightens_binned_means(self):
        # paired short/long records; doubling per-bin samples must usually
        # shrink the worst-bin deviation from the true azimuthal mean
        truth = np.zeros(13)
        truth[0], truth[1], truth[4] = 1.0, 0.8, 0.3
        n_theta = 36
        improvements = 0
        n_pairs = 12
        for seed in range(n_pairs):
            rng = np.random.default_rng(1000 + seed)

            def max_dev(n_samples, rng=rng):
                theta = rng.uniform(0, TWO_PI, n_samples) % TWO_PI
                a = fourier_eval(truth, theta) + rng.normal(0, 0.5, n_samples)
                st = bin_statistics(a[None, :], theta, n_theta,
                                    condition=_cond())
                centers = bin_centers(n_theta)[st.occupied]
                return np.max(np.abs(st.means[st.occupied, 0]
                                     - fourier_eval(truth, centers)))

            if max_dev(2 * 36 * 60) < max_dev(36 * 60):
                improvements += 1
        # one-sided sign test at the 95% level for 12 pairs
        assert improvements >= 10
