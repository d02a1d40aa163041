"""Batched estimator against the per-step reference.

Every per-step function also takes a stack of steps; the pipeline calls
each once per evaluation case. These tests run the same steps one at a
time and as one stack and require agreement within 1e-10 of each output's
largest magnitude: the stacked products sum in another order, so the
results are not bit-identical. ``_reference_evaluate_rom`` and
``_reference_fuse`` are the per-step loop bodies the batched kernels
replaced, kept here as an independent oracle. ``_former_evaluate_rom`` and
``_former_fuse`` are the batched kernels before their per-call costs were
cut, and before eigenvalue floors settled fuse's PSD checks; those fast
paths must match them bit for bit.
"""

import numpy as np
import pytest

from bladesense import (FusionStats, GaussianReduced, NoiseModel, RomStats,
                        evaluate_rom, fit_rom, fuse, infer_torsion, observe,
                        place_sensors, sparse_estimate)
from bladesense import sensing
from bladesense.azimuthal_rom import (AzimuthalRomModel, BinStatistics,
                                      bin_centers, fourier_eval)
from bladesense.dataset import ConditionKey, wrap_angle
from bladesense.errors import ValidationError
from bladesense.fusion import _any
from bladesense.sensing import sensor_dof_rows
from bladesense.synthetic import demo_grid, orthonormal_polynomial_modes
from bladesense.torsion import TorsionModel

from conftest import basis_from_modes, random_spd

RTOL = 1e-10
N_MODES = 3


def assert_close(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape
    scale = max(np.abs(ref).max(), np.finfo(float).tiny)
    assert np.abs(got - ref).max() <= RTOL * scale


def _model(seed=0):
    """TI 0.10 trained at 8 and 12 m/s, TI 0.20 at 10 m/s only (a
    single-speed group). Random rank-one bin covariances and scattered bin
    means give each condition its own pooled covariance."""
    rng = np.random.default_rng(seed)
    stats = []
    for u, ti in ((8.0, 0.10), (12.0, 0.10), (10.0, 0.20)):
        means = rng.standard_normal((72, N_MODES)) + u / 10.0
        v = rng.standard_normal((72, N_MODES))
        covs = 0.1 * v[:, :, None] * v[:, None, :]
        stats.append(BinStatistics(
            condition=ConditionKey(u_mean=u, ti=ti, seed=0), n_theta=72,
            counts=np.full(72, 3), means=means, covariances=covs))
    return fit_rom(stats, 6)


def _reference_evaluate_rom(model, theta, u_filt, ti):
    labels = np.unique([c.ti for c in model.conditions])
    ti_near = labels[int(np.argmin(np.abs(labels - ti)))]
    group = sorted((c for c in model.conditions if c.ti == ti_near),
                   key=lambda c: c.u_mean)
    speeds = np.array([c.u_mean for c in group])
    if u_filt <= speeds[0] or len(group) == 1:
        mean_tab, cov = group[0].mean_coeffs, group[0].covariance
    elif u_filt >= speeds[-1]:
        mean_tab, cov = group[-1].mean_coeffs, group[-1].covariance
    else:
        hi = int(np.searchsorted(speeds, u_filt))
        lo = hi - 1
        w = (u_filt - speeds[lo]) / (speeds[hi] - speeds[lo])
        mean_tab = (1 - w) * group[lo].mean_coeffs + w * group[hi].mean_coeffs
        cov = (1 - w) * group[lo].covariance + w * group[hi].covariance
    return fourier_eval(mean_tab, wrap_angle(float(theta))), cov


def _reference_fuse(prior, measurement):
    """(mean, covariance, gain, regularized) of one step."""
    n = prior.n
    s_sum = prior.covariance + measurement.covariance
    tr = float(np.trace(s_sum))
    if tr <= 0.0:
        return prior.mean.copy(), np.zeros((n, n)), np.zeros((n, n)), False
    regularized = bool(np.linalg.eigvalsh(s_sum).min() <= 1e-14 * tr)
    if regularized:
        s_sum = s_sum + (1e-12 * tr) * np.eye(n)
    gain = np.linalg.solve(s_sum, prior.covariance).T
    mean = prior.mean + gain @ (measurement.mean - prior.mean)
    cov = (np.eye(n) - gain) @ prior.covariance
    return mean, 0.5 * (cov + cov.T), gain, regularized


def _former_fourier_design(theta, n_fourier):
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    k_theta = np.multiply.outer(theta, np.arange(1, n_fourier + 1))
    design = np.empty(theta.shape + (1 + 2 * n_fourier,))
    design[..., 0] = 1.0
    design[..., 1::2] = np.cos(k_theta)
    design[..., 2::2] = np.sin(k_theta)
    return design


def _former_evaluate_rom(model, theta, u_filt, ti, stats=None):
    theta, u = np.broadcast_arrays(wrap_angle(np.asarray(theta, dtype=float)),
                                   np.asarray(u_filt, dtype=float))
    single = theta.ndim == 0
    theta, u = np.atleast_1d(theta), np.atleast_1d(u)
    ti_near = min(model._groups, key=lambda label: abs(label - ti))
    speeds, units, mean_tables, cov_tables = model._groups[ti_near]
    if stats is not None:
        stats.steps += u.size
        stats.clamped_low += int(np.count_nonzero(u < speeds[0]))
        stats.clamped_high += int(np.count_nonzero(u > speeds[-1]))
    weights = np.column_stack([np.interp(u, speeds, unit) for unit in units])
    design = _former_fourier_design(theta, model.n_fourier)
    mean = (weights[:, :, None] * design[:, None, :]).reshape(u.size, -1) @ mean_tables
    if not np.isfinite(mean).all():
        raise ValidationError("Gaussian mean and covariance must be finite")
    packed = weights @ cov_tables
    n_modes = model.n_modes
    iu, ju = np.triu_indices(n_modes)
    cov = np.empty((u.size, n_modes, n_modes))
    cov[:, iu, ju] = packed
    cov[:, ju, iu] = packed
    if single:
        mean, cov = mean[0], cov[0]
    return GaussianReduced.from_checked(mean, cov)


def _former_fuse(prior, measurement, stats=None):
    eye = np.eye(prior.n)
    p_cov = prior.covariance
    s_sum = p_cov + measurement.covariance
    tr = s_sum.trace(axis1=-2, axis2=-1)
    certain = tr <= 0.0
    regularize = ~certain & (np.linalg.eigvalsh(s_sum).min(axis=-1) <= 1e-14 * tr)
    if _any(regularize):
        s_sum = s_sum + np.where(regularize, 1e-12 * tr, 0.0)[..., None, None] * eye
    any_certain = _any(certain)
    if any_certain:
        certain_rows = certain[..., None, None]
        s_sum = np.where(certain_rows, eye, s_sum)
    gain = np.linalg.solve(s_sum, p_cov).swapaxes(-1, -2)
    if any_certain:
        gain = np.where(certain_rows, 0.0, gain)
    mean = prior.mean + (gain @ (measurement.mean - prior.mean)[..., None])[..., 0]
    cov = measurement.covariance @ gain.swapaxes(-1, -2)
    cov += cov.swapaxes(-1, -2)
    cov *= 0.5
    if any_certain:
        cov = np.where(certain_rows, 0.0, cov)
    if stats is not None:
        rows = mean.shape[:-1]
        stats.steps += int(np.prod(rows))
        stats.regularized += int(np.count_nonzero(np.broadcast_to(regularize, rows)))
    return GaussianReduced(mean, cov), gain


def assert_identical(got, ref):
    """Tolerance 0: same shape, dtype and bytes."""
    got, ref = np.asarray(got), np.asarray(ref)
    assert (got.shape, got.dtype) == (ref.shape, ref.dtype)
    assert got.tobytes() == ref.tobytes()


# wind below, inside, exactly at and above the trained speeds (8, 12);
# azimuths outside [0, 2*pi) on both sides
_U = np.array([5.0, 8.0, 9.1, 10.0, 11.99, 12.0, 15.0, 7.9, 12.5, 10.7])
_THETA = np.array([-0.3, 0.0, 1.2, 6.5, 2 * np.pi, 3.1, -7.0, 13.0, 4.4, 5.9])


class TestEvaluateRomBatch:
    @pytest.mark.parametrize("ti", [0.10, 0.13, 0.17, 0.20, 0.5])
    def test_stack_matches_per_step(self, ti):
        # 0.13 resolves to the 0.10 group, 0.17 and 0.5 to the single-speed
        # 0.20 group: the TI label is picked once for the whole stack
        model = _model()
        batch = evaluate_rom(model, _THETA, _U, ti)
        assert batch.mean.shape == (_U.size, N_MODES)
        assert batch.covariance.shape == (_U.size, N_MODES, N_MODES)
        for k in range(_U.size):
            step = evaluate_rom(model, _THETA[k], _U[k], ti)
            assert_close(batch.mean[k], step.mean)
            assert_close(batch.covariance[k], step.covariance)
            ref_mean, ref_cov = _reference_evaluate_rom(model, _THETA[k], _U[k], ti)
            assert_close(batch.mean[k], ref_mean)
            assert_close(batch.covariance[k], ref_cov)
        assert np.linalg.eigvalsh(batch.covariance).min() >= 0.0

    def test_scalar_wind_broadcasts_over_azimuths(self):
        model = _model()
        centers = bin_centers(72)
        batch = evaluate_rom(model, centers, 9.0, 0.10)
        for k in (0, 17, 71):
            assert_close(batch.mean[k], evaluate_rom(model, centers[k], 9.0, 0.10).mean)

    def test_clamped_steps_counted(self):
        model = _model()
        stats = RomStats()
        evaluate_rom(model, _THETA, _U, 0.10, stats)
        # the range ends themselves (8.0, 12.0) are trained, not clamped
        assert (stats.steps, stats.clamped_low, stats.clamped_high) == (10, 2, 2)
        evaluate_rom(model, _THETA, _U, 0.20, stats)  # one speed: 10.0
        assert (stats.steps, stats.clamped_low, stats.clamped_high) == (20, 6, 7)
        evaluate_rom(model, 0.5, 20.0, 0.10, stats)
        assert (stats.steps, stats.clamped_high) == (21, 8)

    def test_rejects_two_dimensional_input(self):
        with pytest.raises(ValidationError, match="1-D"):
            evaluate_rom(_model(), np.zeros((2, 2)), 9.0, 0.10)


def _rows_of(sensors, n_z):
    stations = sensors.station_indices
    return np.concatenate([[s, s + n_z, s + 2 * n_z] for s in stations])


class TestBuiltOnce:
    """Built once: the per-label tables sort their conditions, the sensor
    rows are cached, and a Gaussian's diagonal lift changes only the
    matrices eigvalsh flags."""

    def test_tables_sorted_per_label(self):
        fitted = _model()
        # conditions in unsorted order: the tables must sort them per label
        model = AzimuthalRomModel(
            n_fourier=fitted.n_fourier, n_theta=fitted.n_theta,
            conditions=[fitted.conditions[k] for k in (2, 1, 0)])
        assert "_groups" not in repr(model)
        assert list(model._groups) == [0.10, 0.20]
        for ti in (0.10, 0.13, 0.20, 0.5):
            for theta, u in ((_THETA, _U), (_THETA[2], _U[2]), (_THETA[6], _U[6])):
                got = evaluate_rom(model, theta, u, ti)
                ref = evaluate_rom(fitted, theta, u, ti)
                assert np.array_equal(got.mean, ref.mean)
                assert np.array_equal(got.covariance, ref.covariance)

    def test_rejects_tables_of_the_wrong_shape(self):
        model = _model()
        bad = model.conditions[0]
        for mean_coeffs, cov in ((bad.mean_coeffs[:, :-2], bad.covariance),
                                 (bad.mean_coeffs, bad.covariance[:-1, :-1])):
            short = type(bad)(u_mean=bad.u_mean, ti=bad.ti,
                              mean_coeffs=mean_coeffs, covariance=cov)
            with pytest.raises(ValidationError, match="must be"):
                AzimuthalRomModel(model.n_fourier, model.n_theta,
                                  [short] + model.conditions[1:])

    @staticmethod
    def _tiny_negative_stack(seed=3, n=12):
        """PSD matrices, four of them with their least eigenvalue a hair
        below zero, within the tolerance of ``GaussianReduced``."""
        rng = np.random.default_rng(seed)
        covs = np.stack([random_spd(rng, N_MODES) for _ in range(n)])
        flagged = np.zeros(n, dtype=bool)
        flagged[[1, 4, 5, 10]] = True
        for k in np.flatnonzero(flagged):
            w, v = np.linalg.eigh(covs[k])
            w[0] = -1e-12 * w.sum()
            covs[k] = (v * w) @ v.T
        # a rank-one matrix with a tiny negative direction
        v = rng.standard_normal(N_MODES)
        covs[4] = np.outer(v, v) - 1e-13 * np.outer(v[::-1], v[::-1])
        return 0.5 * (covs + covs.swapaxes(-1, -2)), flagged

    def test_psd_stack_comes_back_unchanged(self):
        covs, flagged = self._tiny_negative_stack()
        psd = covs[~flagged]
        for cov in (psd, psd[0]):
            got = GaussianReduced(np.zeros(cov.shape[:-1]), cov).covariance
            assert np.array_equal(got, cov)

    @pytest.mark.parametrize("shape", [(12,), (3, 4)])
    def test_lifts_only_the_tiny_negative_rows(self, shape):
        covs, flagged = self._tiny_negative_stack()
        assert np.array_equal(np.linalg.eigvalsh(covs).min(axis=-1) < 0.0,
                              flagged)
        covs = covs.reshape(shape + covs.shape[-2:])
        flagged = flagged.reshape(shape)
        got = GaussianReduced(np.zeros(covs.shape[:-1]), covs).covariance
        assert np.array_equal(got[~flagged], covs[~flagged])
        assert np.linalg.eigvalsh(got).min() >= 0.0
        # the lift is a positive shift of the diagonal and nothing else
        lift = got[flagged] - covs[flagged]
        diagonal = lift.diagonal(axis1=-2, axis2=-1)
        assert np.all(diagonal > 0.0)
        assert np.array_equal(lift, diagonal[:, :, None] * np.eye(N_MODES))
        # a single matrix takes the same path as a stack of one
        k = tuple(np.argwhere(flagged)[0])
        single = GaussianReduced(np.zeros(N_MODES), covs[k]).covariance
        assert np.array_equal(single, got[k])

    def test_observe_reuses_the_sensor_rows(self, monkeypatch):
        grid = demo_grid(n_z=10)
        basis = basis_from_modes(grid, orthonormal_polynomial_modes(grid, N_MODES))
        sensors = place_sensors(basis, 4)
        calls = []

        def counting(stations, n_z, _rows=sensing.sensor_dof_rows):
            calls.append(n_z)
            return _rows(stations, n_z)

        monkeypatch.setattr(sensing, "sensor_dof_rows", counting)
        D = np.random.default_rng(0).standard_normal((grid.n_dof, 5))
        for k in range(5):
            assert np.array_equal(observe(D[:, k], sensors),
                                  D[_rows_of(sensors, grid.n_z), k])
        observe(D.T, sensors)
        assert calls == [grid.n_z]
        assert not sensors.rows.flags.writeable
        with pytest.raises(ValidationError, match="10-station grid"):
            observe(np.zeros(3 * 12), sensors)  # a field on another grid


class TestDecompositionCalls:
    """Call counts, not timings: a PSD step must not eigendecompose."""

    @staticmethod
    def _count(monkeypatch, names=("eigh", "eigvalsh")):
        calls = dict.fromkeys(names, 0)
        for name in calls:
            def counting(*args, _name=name, _f=getattr(np.linalg, name), **kw):
                calls[_name] += 1
                return _f(*args, **kw)
            monkeypatch.setattr(np.linalg, name, counting)
        return calls

    @staticmethod
    def _psd_model():
        rng = np.random.default_rng(4)
        stats = []
        for u in (8.0, 12.0):
            covs = np.stack([random_spd(rng, N_MODES) for _ in range(72)])
            stats.append(BinStatistics(
                condition=ConditionKey(u_mean=u, ti=0.1, seed=0), n_theta=72,
                counts=np.full(72, 3), means=rng.standard_normal((72, N_MODES)),
                covariances=covs))
        return fit_rom(stats, 2)

    def test_psd_batch_of_one_makes_no_eigh_call(self, monkeypatch):
        model = self._psd_model()
        prior = evaluate_rom(model, 1.0, 9.5, 0.1)
        assert np.linalg.eigvalsh(prior.covariance).min() > 0.0
        calls = self._count(monkeypatch)
        evaluate_rom(model, 1.0, 9.5, 0.1)
        evaluate_rom(model, _THETA, _U, 0.1)
        # the covariances were checked when the model was built
        assert calls == {"eigh": 0, "eigvalsh": 0}

    def test_psd_batch_of_one_fuse_makes_no_eigh_call(self, monkeypatch):
        prior = evaluate_rom(self._psd_model(), 1.0, 9.5, 0.1)
        rng = np.random.default_rng(2)
        meas = GaussianReduced(rng.standard_normal(N_MODES),
                               random_spd(rng, N_MODES, 0.01))
        ref, _ = _former_fuse(prior, meas)
        assert np.linalg.eigvalsh(ref.covariance).min() >= 0.0
        calls = self._count(monkeypatch, ("eigh", "eigvalsh", "solve"))
        fused, _ = fuse(prior, meas)
        # the floors of the ROM model and of the measurement settle both
        # checks: no eigendecomposition, one solve
        assert calls == {"eigh": 0, "eigvalsh": 0, "solve": 1}
        assert_identical(fused.covariance, ref.covariance)
        assert 0.0 < fused.floor <= np.linalg.eigvalsh(fused.covariance)[0]


class TestPerStepInvariants:
    """The sparse-estimate covariance is built and checked once per (sensor
    set, noise model) pair."""

    @staticmethod
    def _sensors(n_z=10):
        grid = demo_grid(n_z=n_z)
        basis = basis_from_modes(grid, orthonormal_polynomial_modes(grid, N_MODES))
        return place_sensors(basis, 4)

    def test_noise_covariance_built_once_per_pair(self, monkeypatch):
        sensors = self._sensors()
        noise = NoiseModel.isotropic(0.1, 4)
        y = np.random.default_rng(0).standard_normal((6, 12))
        first = sparse_estimate(y, sensors, noise)
        G = sensors.gram_gain
        ref = GaussianReduced(np.zeros(N_MODES), G @ noise.assembled @ G.T)
        assert np.array_equal(first.covariance, ref.covariance)
        calls = TestDecompositionCalls._count(monkeypatch)
        for k in range(3):
            again = sparse_estimate(y[k], sensors, noise)
            assert again.covariance is first.covariance
        assert calls == {"eigh": 0, "eigvalsh": 0}
        assert not first.covariance.flags.writeable
        assert not noise.assembled.flags.writeable
        with pytest.raises(ValueError):
            noise.assembled[0, 0] = 1.0

    def test_another_noise_model_or_sensor_set_gets_its_own(self):
        sensors, other_sensors = self._sensors(), self._sensors(n_z=12)
        y = np.random.default_rng(1).standard_normal(12)
        small = sparse_estimate(y, sensors, NoiseModel.isotropic(0.1, 4))
        # each model object has its own entry, an equal one included
        for sigma in (0.1, 0.3):
            noise = NoiseModel.isotropic(sigma, 4)
            got = sparse_estimate(y, sensors, noise).covariance
            G = sensors.gram_gain
            ref = G @ noise.assembled @ G.T
            assert np.array_equal(got, 0.5 * (ref + ref.T))
        assert np.allclose(got, 9.0 * small.covariance, rtol=1e-14, atol=0.0)
        G = other_sensors.gram_gain
        got = sparse_estimate(np.zeros(12), other_sensors, noise).covariance
        ref = G @ noise.assembled @ G.T
        assert np.array_equal(got, 0.5 * (ref + ref.T))
        assert not np.array_equal(got, sparse_estimate(y, sensors, noise).covariance)

    def test_non_finite_inputs_still_rejected(self):
        sensors = self._sensors()
        noise = NoiseModel.isotropic(0.1, 4)
        y = np.zeros((3, 12))
        y[1, 4] = np.nan
        model = _model()
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValidationError, match="finite"):
                sparse_estimate(y, sensors, noise)
            with pytest.raises(ValidationError, match="finite"):
                sparse_estimate(np.full(12, np.inf), sensors, noise)
            for theta, u in ((_THETA, np.where(_U > 11.0, np.nan, _U)),
                             (np.nan, 9.0), (np.inf, 9.0), (1.0, np.inf),
                             (1.0, -np.inf), (_THETA, np.where(_U > 14.0, np.inf, _U)),
                             (_THETA, np.where(_U < 6.0, -np.inf, _U))):
                with pytest.raises(ValidationError, match="finite"):
                    evaluate_rom(model, theta, u, 0.10)
        # theta = inf is rejected before numpy's remainder would warn
        with np.errstate(invalid="raise"):
            with pytest.raises(ValidationError, match="finite"):
                evaluate_rom(model, np.inf, 9.0, 0.10)
        # huge but finite input still gets its prior
        for theta in (1e308, [1e308, 1e308]):
            assert np.isfinite(evaluate_rom(model, theta, 9.0, 0.10).mean).all()


class TestFuseBatch:
    def _stack(self, n_t=40, seed=1):
        rng = np.random.default_rng(seed)
        p_mean = rng.standard_normal((n_t, N_MODES))
        m_mean = rng.standard_normal((n_t, N_MODES))
        p_cov = np.stack([random_spd(rng, N_MODES) for _ in range(n_t)])
        m_cov = np.stack([random_spd(rng, N_MODES) for _ in range(n_t)])
        # row 3: near-singular innovation covariance (regularized);
        # row 7: both sources fully certain (trace 0)
        p_cov[3] = m_cov[3] = np.diag([1.0, 0.0, 2.0])
        p_cov[7] = m_cov[7] = 0.0
        return p_mean, p_cov, m_mean, m_cov

    def test_stack_matches_per_step(self):
        p_mean, p_cov, m_mean, m_cov = self._stack()
        stats = FusionStats()
        fused, gain = fuse(GaussianReduced(p_mean, p_cov),
                           GaussianReduced(m_mean, m_cov), stats)
        step_stats, ref_regularized = FusionStats(), 0
        for k in range(p_mean.shape[0]):
            prior = GaussianReduced(p_mean[k], p_cov[k])
            meas = GaussianReduced(m_mean[k], m_cov[k])
            step, step_gain = fuse(prior, meas, step_stats)
            assert_close(fused.mean[k], step.mean)
            assert_close(fused.covariance[k], step.covariance)
            assert_close(gain[k], step_gain)
            ref_mean, ref_cov, ref_gain, regularized = _reference_fuse(prior, meas)
            ref_regularized += regularized
            assert_close(fused.mean[k], ref_mean)
            assert_close(fused.covariance[k], ref_cov)
            assert_close(gain[k], ref_gain)
            assert_close(np.trace(fused.covariance[k]), np.trace(ref_cov))
        assert (stats.steps, stats.regularized) == (40, ref_regularized) == (40, 1)
        assert (step_stats.steps, step_stats.regularized) == (40, 1)
        assert np.array_equal(fused.mean[7], p_mean[7])
        assert np.all(fused.covariance[7] == 0.0) and np.all(gain[7] == 0.0)

    def test_shared_measurement_covariance(self):
        p_mean, p_cov, m_mean, _ = self._stack()
        shared = random_spd(np.random.default_rng(5), N_MODES)
        stats = FusionStats()
        fused, _ = fuse(GaussianReduced(p_mean, p_cov),
                        GaussianReduced(m_mean, shared), stats)
        for k in range(p_mean.shape[0]):
            step, _ = fuse(GaussianReduced(p_mean[k], p_cov[k]),
                           GaussianReduced(m_mean[k], shared))
            assert_close(fused.mean[k], step.mean)
            assert_close(fused.covariance[k], step.covariance)
        assert stats.steps == p_mean.shape[0]


def _one_label_model():
    fitted = _model()
    return AzimuthalRomModel(fitted.n_fourier, fitted.n_theta,
                             [c for c in fitted.conditions if c.ti == 0.10])


# azimuths that np.mod rounds up to exactly 2*pi, or that lie on a period
_EDGE_THETA = np.array([-1e-17, -5e-324, 2 * np.pi, np.nextafter(2 * np.pi, 0.0),
                        4 * np.pi, -2 * np.pi])


class TestFastPathsMatchFormer:
    """evaluate_rom and fuse against the former kernels with tolerance 0: a
    batch of one (Python, numpy and 0-d scalars), stacks, one TI label and
    several, and the fallbacks that still run the full constructor."""

    @pytest.mark.parametrize("make_model", [_model, _one_label_model])
    def test_evaluate_rom_batch_of_one(self, make_model):
        model = make_model()
        for ti in (0.10, 0.13, 0.20, 0.5):
            stats, former_stats = RomStats(), RomStats()
            for theta, u in zip(np.concatenate([_THETA, _EDGE_THETA]),
                                np.concatenate([_U, _U[:_EDGE_THETA.size]])):
                for cast in (float, np.float64, np.asarray):
                    got = evaluate_rom(model, cast(theta), cast(u), ti, stats)
                    ref = _former_evaluate_rom(model, cast(theta), cast(u), ti,
                                               former_stats)
                    assert_identical(got.mean, ref.mean)
                    assert_identical(got.covariance, ref.covariance)
            assert vars(stats) == vars(former_stats)

    @pytest.mark.parametrize("make_model", [_model, _one_label_model])
    def test_evaluate_rom_stacks(self, make_model):
        model = make_model()
        for theta, u in ((_THETA, _U), (bin_centers(72), 9.0), (1.0, _U),
                         (_EDGE_THETA, 10.0), (_THETA[:1], _U[:1]),
                         (list(_THETA), list(_U))):
            for ti in (0.10, 0.17, 0.5):
                stats, former_stats = RomStats(), RomStats()
                got = evaluate_rom(model, theta, u, ti, stats)
                ref = _former_evaluate_rom(model, theta, u, ti, former_stats)
                assert_identical(got.mean, ref.mean)
                assert_identical(got.covariance, ref.covariance)
                assert vars(stats) == vars(former_stats)

    @staticmethod
    def _assert_fuse_identical(prior, meas):
        stats, former_stats = FusionStats(), FusionStats()
        got, gain = fuse(prior, meas, stats)
        ref, ref_gain = _former_fuse(prior, meas, former_stats)
        assert_identical(got.mean, ref.mean)
        assert_identical(got.covariance, ref.covariance)
        assert_identical(gain, ref_gain)
        assert vars(stats) == vars(former_stats)
        return got, gain, stats

    def test_fuse_batch_of_one(self):
        model, rng = _model(), np.random.default_rng(7)
        for k in range(_U.size):
            prior = evaluate_rom(model, _THETA[k], _U[k], 0.10)
            meas = GaussianReduced(rng.standard_normal(N_MODES),
                                   random_spd(rng, N_MODES, 0.01))
            self._assert_fuse_identical(prior, meas)

    def test_fuse_stacks(self):
        p_mean, p_cov, m_mean, _ = TestFuseBatch()._stack(n_t=_U.size)
        shared = random_spd(np.random.default_rng(5), N_MODES)
        prior = evaluate_rom(_model(), _THETA, _U, 0.10)
        self._assert_fuse_identical(prior, GaussianReduced(m_mean, shared))
        self._assert_fuse_identical(GaussianReduced(p_mean, p_cov),
                                    GaussianReduced(m_mean, shared))
        self._assert_fuse_identical(GaussianReduced(m_mean, shared), prior)

    def test_regularized_and_certain_rows_counted(self):
        # row 3 is regularized, row 7 fully certain
        p_mean, p_cov, m_mean, m_cov = TestFuseBatch()._stack()
        _, gain, stats = self._assert_fuse_identical(
            GaussianReduced(p_mean, p_cov), GaussianReduced(m_mean, m_cov))
        assert (stats.steps, stats.regularized) == (40, 1)
        assert np.all(gain[7] == 0.0)
        for k, regularized in ((3, 1), (7, 0)):
            _, _, stats = self._assert_fuse_identical(
                GaussianReduced(p_mean[k], p_cov[k]),
                GaussianReduced(m_mean[k], m_cov[k]))
            assert (stats.steps, stats.regularized) == (1, regularized)

    @pytest.mark.parametrize("case", ["mean", "covariance", "one row"])
    def test_non_finite_fusion_rejected(self, case):
        # finite sources whose fused mean or covariance overflows
        n, big = N_MODES, 8e307
        if case == "mean":
            prior = GaussianReduced(np.full(n, 1e308), np.eye(n))
            meas = GaussianReduced(np.full(n, -1e308), np.eye(n))
        elif case == "covariance":
            prior = GaussianReduced(np.zeros(n), big * np.eye(n))
            meas = GaussianReduced(np.zeros(n), big * np.eye(n))
        else:
            means = np.zeros((5, n))
            means[2] = 1e308
            prior = GaussianReduced(means, np.eye(n))
            meas = GaussianReduced(-means, np.eye(n))
        with np.errstate(over="ignore", invalid="ignore"):
            for kernel in (fuse, _former_fuse):
                with pytest.raises(ValidationError, match="finite"):
                    kernel(prior, meas)

    @staticmethod
    def _rank_deficient_pair(seed):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((N_MODES, N_MODES - 1))
        B = rng.standard_normal((N_MODES, N_MODES - 1))
        return (GaussianReduced(rng.standard_normal(N_MODES), A @ A.T),
                GaussianReduced(rng.standard_normal(N_MODES), B @ B.T))

    def test_tiny_negative_fused_covariance_lifted(self):
        # rank-deficient sources give a singular fused covariance; for this
        # pair the product rounds its zero eigenvalue below zero
        prior, meas = self._rank_deficient_pair(0)
        fused, gain, _ = self._assert_fuse_identical(prior, meas)
        raw = meas.covariance @ gain.T
        raw = 0.5 * (raw + raw.T)
        assert np.linalg.eigvalsh(raw).min() < 0.0
        assert np.linalg.eigvalsh(fused.covariance).min() >= 0.0
        lift = fused.covariance - raw
        assert np.all(lift.diagonal() > 0.0)
        assert np.array_equal(lift, np.diag(lift.diagonal()))
        pairs = [self._rank_deficient_pair(seed) for seed in range(12)]
        self._assert_fuse_identical(
            GaussianReduced(np.stack([p.mean for p, _ in pairs]),
                            np.stack([p.covariance for p, _ in pairs])),
            GaussianReduced(np.stack([m.mean for _, m in pairs]),
                            np.stack([m.covariance for _, m in pairs])))


def _least(cov):
    return np.linalg.eigvalsh(cov)[..., 0].min()


class TestFloors:
    """A floor never exceeds the least eigenvalue eigvalsh finds. Where the
    floors settle fuse's checks, fuse makes no eigvalsh call and returns the
    former kernel's bytes; where they cannot (a floor missing, zero or too
    small), the eigvalsh checks run and still return the former's bytes,
    regularized and lifted rows included."""

    U = np.finfo(float).eps / 2
    P = 4 * N_MODES ** 2  # p(N) of the margins in bladesense.fusion

    @staticmethod
    def _stacks(seed=8, n_t=30):
        """Positive definite covariances over eight decades, and rank
        deficient ones."""
        rng = np.random.default_rng(seed)
        pd = np.stack([random_spd(rng, N_MODES, scale)
                       for scale in np.logspace(-6, 2, n_t)])
        A = rng.standard_normal((n_t, N_MODES, N_MODES - 1))
        return pd, A @ A.swapaxes(-1, -2)

    def test_constructor_floors_are_sound(self):
        pd, psd = self._stacks()
        tiny, _ = TestBuiltOnce._tiny_negative_stack()
        for covs in (pd, psd, tiny, np.zeros((2, N_MODES, N_MODES))):
            for cov in (covs, *covs):
                g = GaussianReduced(np.zeros(cov.shape[:-1]), cov)
                assert g.floor <= _least(g.covariance)
        assert all(GaussianReduced(np.zeros(N_MODES), c).floor > 0.0 for c in pd)

    def test_prior_and_fused_floors_are_sound(self):
        model, rng = _model(), np.random.default_rng(9)
        theta, u = np.linspace(-7.0, 13.0, 400), np.linspace(5.0, 15.0, 400)
        pd, psd = self._stacks()
        for ti in (0.10, 0.20):
            prior = evaluate_rom(model, theta, u, ti)
            assert 0.0 < prior.floor <= _least(prior.covariance)
            for k in range(0, 400, 37):
                step = evaluate_rom(model, theta[k], u[k], ti)
                assert step.floor == prior.floor <= _least(step.covariance)
            for cov in (pd[0], pd[-1], psd[0], 0.01 * np.eye(N_MODES)):
                meas = GaussianReduced(rng.standard_normal((400, N_MODES)), cov)
                fused = TestFastPathsMatchFormer._assert_fuse_identical(prior, meas)[0]
                assert fused.floor <= _least(fused.covariance)
        means = rng.standard_normal((2, pd.shape[0], N_MODES))
        for p_cov, m_cov in ((pd, pd[::-1]), (pd, psd), (psd, psd[::-1])):
            fused, _, _ = TestFastPathsMatchFormer._assert_fuse_identical(
                GaussianReduced(means[0], p_cov), GaussianReduced(means[1], m_cov))
            assert fused.floor <= _least(fused.covariance)
            for k in (0, 7, 29):
                step, _, _ = TestFastPathsMatchFormer._assert_fuse_identical(
                    GaussianReduced(means[0, k], p_cov[k]),
                    GaussianReduced(means[1, k], m_cov[k]))
                assert step.floor <= _least(step.covariance)

    @staticmethod
    def _pair(p_least, r_least, p_floor=None, r_floor=None, seed=10):
        """Prior and measurement whose least eigenvalues lie along one shared
        direction, the others O(1); floors given are set as they are (each
        below the least eigenvalue), the others left to the constructor."""
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((N_MODES, N_MODES)))
        out = []
        for least, floor, rest in ((p_least, p_floor, [0.5, 1.0]),
                                   (r_least, r_floor, [0.02, 0.01])):
            g = GaussianReduced(rng.standard_normal(N_MODES),
                                (q * ([least] + rest)) @ q.T)
            if floor is not None:
                assert floor <= _least(g.covariance)
                g = GaussianReduced.from_checked(g.mean, g.covariance, floor)
            out.append(g)
        return out

    @staticmethod
    def _fuse_counted(monkeypatch, prior, meas):
        """fuse's eigvalsh calls, result and stats; the result is checked
        against the former kernel's with tolerance 0."""
        calls = TestDecompositionCalls._count(monkeypatch, ("eigvalsh",))
        stats, former_stats = FusionStats(), FusionStats()
        got, gain = fuse(prior, meas, stats)
        monkeypatch.undo()
        ref, ref_gain = _former_fuse(prior, meas, former_stats)
        for a, b in ((got.mean, ref.mean), (got.covariance, ref.covariance),
                     (gain, ref_gain)):
            assert_identical(a, b)
        assert vars(stats) == vars(former_stats)
        assert got.floor <= _least(got.covariance)
        return calls["eigvalsh"], got, stats

    @staticmethod
    def _trace(prior, meas):
        return float(np.trace(prior.covariance + meas.covariance))

    def _regularize_margin(self, prior, meas):
        """(1e-14 + 2 (p + 1) u) tr S: f_P + f_R above it settles that the
        innovation covariance needs no regularizing."""
        return (1e-14 + 2 * (self.P + 1) * self.U) * self._trace(prior, meas)

    @pytest.mark.parametrize("side, eigvalsh_calls", [(1 + 1e-9, 1), (1 - 1e-9, 2)])
    def test_regularize_margin(self, monkeypatch, side, eigvalsh_calls):
        # f_P + f_R just inside or outside the margin of the pair's own
        # trace; with f_R = 0 the fused floor is unknown, so the constructor
        # checks the result either way
        least = self._regularize_margin(*self._pair(0.0, 0.0))
        margin = self._regularize_margin(*self._pair(2 * least, least))
        prior, meas = self._pair(2 * least, least, margin * side, 0.0)
        calls, got, stats = self._fuse_counted(monkeypatch, prior, meas)
        assert (calls, stats.regularized) == (eigvalsh_calls, 0)

    @pytest.mark.parametrize("scale", [0.5, 0.8, 1.25, 2.0])
    def test_former_regularize_threshold(self, monkeypatch, scale):
        # lambda_min(S) around 1e-14 tr S, where the floors never decide:
        # eigvalsh does, and regularizes below the threshold as before
        prior, meas = self._pair(1e-12, 1e-12)
        least = 0.5e-14 * scale * self._trace(prior, meas)
        calls, _, stats = self._fuse_counted(monkeypatch,
                                             *self._pair(least, least))
        assert calls == 2 and stats.regularized == (scale < 1.0)

    def _fused_margin(self, trace):
        """The least equal floors f_P = f_R that settle the fused check:
        h - delta > p u (T + delta), by bisection."""
        def settles(f):
            delta = 4 * self.P * self.U * trace * trace / (2 * f)
            return f / 2 - delta > self.P * self.U * (trace + delta)
        lo, hi = 0.0, 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if settles(mid) else (mid, hi)
        return hi

    @pytest.mark.parametrize("side, eigvalsh_calls", [(1 + 1e-9, 0), (1 - 1e-9, 1)])
    def test_fused_margin(self, monkeypatch, side, eigvalsh_calls):
        # equal floors just inside or outside the margin of the pair's own
        # trace: outside, the constructor checks the result
        least = 2 * self._fused_margin(self._trace(*self._pair(0.0, 0.0)))
        f = self._fused_margin(self._trace(*self._pair(least, least)))
        prior, meas = self._pair(least, least, f * side, f * side)
        calls, got, stats = self._fuse_counted(monkeypatch, prior, meas)
        assert calls == eigvalsh_calls and stats.regularized == 0
        assert got.floor > 0.0

    def test_missing_or_zero_floors_run_the_checks(self, monkeypatch):
        prior, meas = self._pair(1e-3, 1e-3)
        for p_floor, r_floor in ((None, meas.floor), (prior.floor, None),
                                 (0.0, 0.0)):
            pair = [GaussianReduced.from_checked(g.mean, g.covariance, floor)
                    for g, floor in ((prior, p_floor), (meas, r_floor))]
            calls, _, _ = self._fuse_counted(monkeypatch, *pair)
            assert calls == 2
        # noise 0: the prior settles the innovation check, the all-zero
        # fused covariance goes through the constructor
        zero = GaussianReduced(meas.mean, np.zeros((N_MODES, N_MODES)))
        calls, got, _ = self._fuse_counted(monkeypatch, prior, zero)
        assert calls == 1 and not got.covariance.any()
        # a rank-deficient prior and measurement: lifted as before
        pair = TestFastPathsMatchFormer._rank_deficient_pair(0)
        calls, got, _ = self._fuse_counted(monkeypatch, *pair)
        assert calls >= 2 and got.floor <= _least(got.covariance)


class TestEstimatorBatch:
    """observe -> sparse_estimate -> evaluate_rom -> fuse on one case."""

    def test_case_matches_per_step_loop(self):
        grid = demo_grid(n_z=10)
        basis = basis_from_modes(grid, orthonormal_polynomial_modes(grid, N_MODES))
        sensors = place_sensors(basis, 4)
        rng = np.random.default_rng(11)
        # anisotropic per-sensor noise: its factor is not symmetric
        noise = NoiseModel.from_matrices([random_spd(rng, 3, 0.01) for _ in range(4)])
        model = _model()
        n_t = _U.size
        D = basis.modes @ rng.standard_normal((N_MODES, n_t))

        step_rom, step_fusion = RomStats(), FusionStats()
        step_rng = np.random.default_rng(3)
        ref = {"y": [], "sparse": [], "rom": [], "fused": [], "trace": []}
        for k in range(n_t):
            y = observe(D[:, k], sensors, noise, step_rng)
            meas = sparse_estimate(y, sensors, noise)
            prior = evaluate_rom(model, _THETA[k], _U[k], 0.10, step_rom)
            fused, _ = fuse(prior, meas, step_fusion)
            for key, val in zip(ref, (y, meas.mean, prior.mean, fused.mean,
                                      np.trace(fused.covariance))):
                ref[key].append(val)
            sparse_cov = meas.covariance

        rom_stats, fusion_stats = RomStats(), FusionStats()
        y = observe(D.T, sensors, noise, np.random.default_rng(3))
        meas = sparse_estimate(y, sensors, noise)
        prior = evaluate_rom(model, _THETA, _U, 0.10, rom_stats)
        fused, _ = fuse(prior, meas, fusion_stats)

        # one (n_t, 3 n_P) noise block is the same stream as n_t draws
        assert_close(y, np.array(ref["y"]))
        draws = np.random.default_rng(3)
        rows = sensor_dof_rows(sensors.station_indices, grid.n_z)
        assert_close(y, np.array([D[rows, k] + noise._factor @ draws.standard_normal(12)
                                  for k in range(n_t)]))
        assert_close(meas.mean, np.array(ref["sparse"]))
        assert np.array_equal(meas.covariance, sparse_cov)
        assert_close(prior.mean, np.array(ref["rom"]))
        assert_close(fused.mean, np.array(ref["fused"]))
        assert_close(np.trace(fused.covariance, axis1=1, axis2=2),
                     np.array(ref["trace"]))
        assert vars(rom_stats) == vars(step_rom)
        assert vars(fusion_stats) == vars(step_fusion)

    def test_observe_rejects_bad_stack(self):
        grid = demo_grid(n_z=10)
        basis = basis_from_modes(grid, orthonormal_polynomial_modes(grid, N_MODES))
        sensors = place_sensors(basis, 4)
        with pytest.raises(ValidationError):
            observe(np.zeros((2, 3, 30)), sensors)
        with pytest.raises(ValidationError, match="length"):
            sparse_estimate(np.zeros((5, 11)), sensors, NoiseModel.isotropic(0.1, 4))


class TestInferTorsionBatch:
    def test_columns_match_single_vectors(self):
        grid = demo_grid(n_z=6)
        basis = basis_from_modes(grid, orthonormal_polynomial_modes(grid, 3),
                                 mean_field=np.linspace(0, 0.2, grid.n_dof))
        rng = np.random.default_rng(2)
        model = TorsionModel(basis=basis, M=rng.standard_normal((3, 2)))
        a = rng.standard_normal((2, 25))
        batch = infer_torsion(a, model)
        assert batch.shape == (grid.n_dof, 25)
        for k in range(a.shape[1]):
            assert_close(batch[:, k], infer_torsion(a[:, k], model))


class TestNonFiniteGaussians:
    @pytest.mark.parametrize("mean, cov", [
        ([np.nan, 0.0], np.eye(2)),
        ([0.0, 0.0], [[np.nan, 0.0], [0.0, 1.0]]),
        ([0.0, np.inf], np.eye(2)),
        ([0.0, 0.0], [[1.0, -np.inf], [-np.inf, 1.0]]),
    ])
    def test_single_rejected(self, mean, cov):
        with pytest.raises(ValidationError, match="finite"):
            GaussianReduced(mean, cov)

    def test_covariance_overflowing_when_symmetrized_rejected(self):
        # finite, but cov + cov.T overflows to inf
        with np.errstate(over="ignore"):
            with pytest.raises(ValidationError, match="finite"):
                GaussianReduced(np.zeros(3), 1e308 * np.eye(3))

    def test_one_bad_row_rejects_the_stack(self):
        means = np.zeros((5, 2))
        covs = np.tile(np.eye(2), (5, 1, 1))
        GaussianReduced(means, covs)
        covs[3, 0, 0] = np.nan
        with pytest.raises(ValidationError, match="finite"):
            GaussianReduced(means, covs)
        means[1, 1] = np.nan
        with pytest.raises(ValidationError, match="finite"):
            GaussianReduced(means, np.eye(2))

    def test_stack_checked_row_by_row(self):
        covs = np.stack([np.eye(2), np.diag([1.0, -1e-12]), np.diag([1.0, -0.5])])
        with pytest.raises(ValidationError, match="PSD"):
            GaussianReduced(np.zeros((3, 2)), covs)
        g = GaussianReduced(np.zeros((2, 2)), covs[:2])
        assert np.array_equal(g.covariance[0], np.eye(2))
        assert np.linalg.eigvalsh(g.covariance[1]).min() >= 0.0

    def test_covariance_stack_must_match_the_mean(self):
        with pytest.raises(ValidationError):
            GaussianReduced(np.zeros((4, 2)), np.tile(np.eye(2), (3, 1, 1)))
