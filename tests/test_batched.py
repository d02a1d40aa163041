"""Batched estimator against the per-step reference.

Every per-step function also takes a stack of steps; the pipeline calls
each once per evaluation case. These tests run the same steps one at a
time and as one stack and require agreement within 1e-10 of each output's
largest magnitude: the stacked products sum in another order, so the
results are not bit-identical. ``_reference_evaluate_rom`` and
``_reference_fuse`` are per-step loop bodies kept here as independent
oracles. ``_former_fuse`` is the batched kernel before its per-call costs
were cut, when it also took one covariance per row; ``fuse``, which takes
one (N, N) covariance per Gaussian, must match it bit for bit on single
steps and on stacked means, whether it computes the gain of a covariance
pair or reuses the one it kept.
"""

import gc
import itertools
import sys
import threading

import numpy as np
import pytest

from bladesense import (AzimuthalRomModel, FusionStats, GaussianReduced,
                        NoiseModel, RomStats, evaluate_rom, fuse,
                        infer_torsion, observe, place_sensors, sparse_estimate)
from bladesense import fusion, sensing
from bladesense.azimuthal_rom import fourier_eval
from bladesense.dataset import wrap_angle
from bladesense.errors import ValidationError
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
    """A joint prior with random mean and slope tables about 10 m/s, trained
    over 8-12 m/s, and a random positive definite covariance."""
    rng = np.random.default_rng(seed)
    return AzimuthalRomModel(
        n_fourier=6, u_ref=10.0, u_range=(8.0, 12.0),
        mean_coeffs=rng.standard_normal((N_MODES, 13)) + 1.0,
        slope_coeffs=0.1 * rng.standard_normal((N_MODES, 13)),
        covariance=random_spd(rng, N_MODES, 0.1))


def _reference_evaluate_rom(model, theta, u_filt):
    theta = wrap_angle(float(theta))
    mean = (fourier_eval(model.mean_coeffs, theta)
            + (u_filt - model.u_ref) * fourier_eval(model.slope_coeffs, theta))
    return mean, model.covariance


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


def _any(mask):
    return bool(mask) if mask.ndim == 0 else bool(mask.any())


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


# azimuths that np.mod rounds up to exactly 2*pi, or that lie on a period
_EDGE_THETA = np.array([-1e-17, -5e-324, 2 * np.pi, np.nextafter(2 * np.pi, 0.0),
                        4 * np.pi, -2 * np.pi])


class TestEvaluateRomBatch:
    def test_stack_matches_per_step(self):
        model = _model()
        batch = evaluate_rom(model, _THETA, _U, 0.1)
        assert batch.mean.shape == (_U.size, N_MODES)
        assert batch.covariance is model.covariance
        for k in range(_U.size):
            step = evaluate_rom(model, _THETA[k], _U[k], 0.1)
            assert_close(batch.mean[k], step.mean)
            ref_mean, ref_cov = _reference_evaluate_rom(model, _THETA[k], _U[k])
            assert_close(batch.mean[k], ref_mean)
            assert step.covariance is ref_cov

    def test_batch_of_one_takes_any_scalar(self):
        # a scalar pair takes the float branch: Python, numpy and 0-d
        # scalars give the same bytes, the stacked path's mean within RTOL
        # and its counts, at azimuths that wrap to a period's edge or lie
        # far out, and at wind speeds at and beyond the trained range
        model = _model()
        lo, hi = model.u_range
        thetas = np.concatenate([_THETA, _EDGE_THETA, [1e6, -1e6]])
        winds = np.concatenate([_U, [np.nextafter(lo, 0.0), np.nextafter(hi, 20.0)]])
        for theta, u in itertools.product(thetas, winds):
            stack_stats = RomStats()
            stack = evaluate_rom(model, np.array([theta]), np.array([u]), 0.1,
                                 stack_stats)
            ref = None
            for cast in (float, np.float64, np.asarray):
                stats = RomStats()
                got = evaluate_rom(model, cast(theta), cast(u), 0.1, stats)
                assert got.mean.shape == (N_MODES,)
                assert got.covariance is model.covariance
                assert vars(stats) == vars(stack_stats)
                if ref is None:
                    ref = got.mean
                    assert_close(ref, stack.mean[0])
                    assert_close(ref, _reference_evaluate_rom(model, theta, u)[0])
                assert np.array_equal(got.mean, ref)

    def test_scalar_wind_broadcasts_over_azimuths(self):
        model = _model()
        centers = (np.arange(72) + 0.5) * 2 * np.pi / 72
        batch = evaluate_rom(model, centers, 9.0, 0.10)
        for k in (0, 17, 71):
            assert_close(batch.mean[k], evaluate_rom(model, centers[k], 9.0, 0.10).mean)
        assert_close(evaluate_rom(model, 1.0, _U, 0.1).mean,
                     evaluate_rom(model, np.ones(_U.size), _U, 0.1).mean)
        assert_close(evaluate_rom(model, list(_THETA), list(_U), 0.1).mean,
                     evaluate_rom(model, _THETA, _U, 0.1).mean)

    def test_extrapolated_steps_counted(self):
        model = _model()
        stats = RomStats()
        evaluate_rom(model, _THETA, _U, 0.10, stats)
        # the range ends themselves (8.0, 12.0) are trained
        assert (stats.steps, stats.extrapolated_low,
                stats.extrapolated_high) == (10, 2, 2)
        evaluate_rom(model, 0.5, 20.0, 0.10, stats)
        assert (stats.steps, stats.extrapolated_high) == (11, 3)

    def test_rejects_two_dimensional_input(self):
        with pytest.raises(ValidationError, match="1-D"):
            evaluate_rom(_model(), np.zeros((2, 2)), 9.0, 0.10)

    def test_wrap_angle_matches_the_former_form(self):
        # the former wrap_angle, which blended with np.where
        def former(theta):
            out = np.mod(theta, 2 * np.pi)
            out = np.where(out >= 2 * np.pi, out - 2 * np.pi, out)
            return float(out) if np.isscalar(theta) else out

        thetas = np.concatenate([_THETA, _EDGE_THETA, [1e6, -1e6]])
        for theta in thetas:
            for cast in (float, np.float64, np.asarray):
                got = wrap_angle(cast(theta))
                assert type(got) is float
                assert_identical(got, former(cast(theta)))
        for arr in (_THETA, _EDGE_THETA, thetas.reshape(2, -1), [1e6]):
            got = wrap_angle(arr)
            assert_identical(got, former(arr))
            assert np.all((got >= 0.0) & (got < 2 * np.pi))
        # the caller's array is left as it was
        edge = _EDGE_THETA.copy()
        wrap_angle(edge)
        assert_identical(edge, _EDGE_THETA)


def _rows_of(sensors, n_z):
    stations = sensors.station_indices
    return np.concatenate([[s, s + n_z, s + 2 * n_z] for s in stations])


class TestBuiltOnce:
    """Built once: the sensor rows are cached, and a Gaussian's diagonal
    lift changes only the matrices eigvalsh flags."""

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
        for cov in covs[~flagged]:
            for mean in (np.zeros(N_MODES), np.zeros((5, N_MODES))):
                got = GaussianReduced(mean, cov).covariance
                assert np.array_equal(got, cov)

    def test_lifts_only_the_tiny_negative_matrices(self):
        covs, flagged = self._tiny_negative_stack()
        assert np.array_equal(np.linalg.eigvalsh(covs).min(axis=-1) < 0.0,
                              flagged)
        for cov, lifted in zip(covs, flagged):
            got = GaussianReduced(np.zeros(N_MODES), cov).covariance
            assert np.linalg.eigvalsh(got).min() >= 0.0
            # the lift is a positive shift of the diagonal and nothing else
            lift = got - cov
            assert np.all(lift.diagonal() > 0.0) == lifted
            assert np.array_equal(lift, np.diag(lift.diagonal()))
            # a stack of means takes the same lift
            stacked = GaussianReduced(np.zeros((4, N_MODES)), cov).covariance
            assert np.array_equal(stacked, got)

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

    def test_evaluate_rom_makes_no_eigh_call(self, monkeypatch):
        model = _model()
        calls = self._count(monkeypatch)
        evaluate_rom(model, 1.0, 9.5, 0.1)
        evaluate_rom(model, _THETA, _U, 0.1)
        # the covariance was checked when the model was built
        assert calls == {"eigh": 0, "eigvalsh": 0}

    def test_fixed_pair_checked_once(self, monkeypatch):
        fusion._LAST = None
        model, rng = _model(), np.random.default_rng(2)
        meas_cov = _read_only(random_spd(rng, N_MODES, 0.01))
        means = rng.standard_normal((_U.size, N_MODES))
        calls = self._count(monkeypatch, ("eigh", "eigvalsh", "solve"))
        fuse(evaluate_rom(model, 1.0, 9.5, 0.1),
             GaussianReduced.from_checked(means[0], meas_cov))
        # the first call checks the innovation covariance (eigvalsh), solves
        # for the gain and checks the fused covariance (eigvalsh)
        assert calls == {"eigh": 0, "eigvalsh": 2, "solve": 1}
        for k in range(_U.size):
            fuse(evaluate_rom(model, _THETA[k], _U[k], 0.1),
                 GaussianReduced.from_checked(means[k], meas_cov))
        fuse(evaluate_rom(model, _THETA, _U, 0.1),
             GaussianReduced.from_checked(means, meas_cov))
        assert calls == {"eigh": 0, "eigvalsh": 2, "solve": 1}


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
        model = _model()
        with np.errstate(invalid="ignore"):
            for bad in (np.nan, np.inf, -np.inf):
                # one step and a stack with one bad reading
                y = np.zeros((3, 12))
                y[1, 4] = bad
                for y_bad in (y[1], y):
                    with pytest.raises(ValidationError, match="finite"):
                        sparse_estimate(y_bad, sensors, noise)
            for theta, u in ((_THETA, np.where(_U > 11.0, np.nan, _U)),
                             (np.nan, 9.0), (np.inf, 9.0), (-np.inf, 9.0),
                             (1.0, np.nan), (1.0, np.inf), (1.0, -np.inf),
                             (_THETA, np.where(_U > 14.0, np.inf, _U)),
                             (_THETA, np.where(_U < 6.0, -np.inf, _U))):
                # by the input check, not only by the mean's
                with pytest.raises(ValidationError, match="theta and u_filt"):
                    evaluate_rom(model, theta, u, 0.10)
        # theta = inf is rejected before numpy's remainder would warn
        with np.errstate(invalid="raise"):
            with pytest.raises(ValidationError, match="theta and u_filt"):
                evaluate_rom(model, np.inf, 9.0, 0.10)
        # huge but finite input still gets its prior
        for theta in (1e308, [1e308, 1e308]):
            assert np.isfinite(evaluate_rom(model, theta, 9.0, 0.10).mean).all()


class TestFuseBatch:
    # a pair of random covariances, a pair whose innovation covariance is
    # near-singular (regularized) and a fully certain pair (trace 0)
    @staticmethod
    def _pairs(seed=1):
        rng = np.random.default_rng(seed)
        singular = np.diag([1.0, 0.0, 2.0])
        return {"random": (random_spd(rng, N_MODES), random_spd(rng, N_MODES)),
                "regularized": (singular, singular),
                "certain": (np.zeros((N_MODES, N_MODES)),) * 2}

    @staticmethod
    def _means(n_t=40, seed=1):
        rng = np.random.default_rng(seed)
        return (rng.standard_normal((n_t, N_MODES)),
                rng.standard_normal((n_t, N_MODES)))

    @pytest.mark.parametrize("kind", ["random", "regularized", "certain"])
    def test_stack_matches_per_step(self, kind):
        p_mean, m_mean = self._means()
        p_cov, m_cov = self._pairs()[kind]
        stats = FusionStats()
        fused, gain = fuse(GaussianReduced(p_mean, p_cov),
                           GaussianReduced(m_mean, m_cov), stats)
        assert fused.covariance.shape == gain.shape == (N_MODES, N_MODES)
        step_stats = FusionStats()
        for k in range(p_mean.shape[0]):
            prior = GaussianReduced(p_mean[k], p_cov)
            meas = GaussianReduced(m_mean[k], m_cov)
            step, step_gain = fuse(prior, meas, step_stats)
            assert_close(fused.mean[k], step.mean)
            assert_identical(step.covariance, fused.covariance)
            assert_identical(step_gain, gain)
            ref_mean, ref_cov, ref_gain, regularized = _reference_fuse(prior, meas)
            assert_close(fused.mean[k], ref_mean)
            assert_close(fused.covariance, ref_cov)
            assert_close(gain, ref_gain)
            assert_close(np.trace(fused.covariance), np.trace(ref_cov))
        rows = 40 if kind == "regularized" else 0
        assert regularized == (kind == "regularized")
        assert (stats.steps, stats.regularized) == (40, rows)
        assert (step_stats.steps, step_stats.regularized) == (40, rows)
        if kind == "certain":
            assert np.array_equal(fused.mean, p_mean)
            assert np.all(fused.covariance == 0.0) and np.all(gain == 0.0)

    def test_one_step_broadcasts_against_a_stack(self):
        p_mean, m_mean = self._means()
        p_cov, m_cov = self._pairs()["random"]
        for p_one, m_one in ((False, True), (True, False)):
            stats = FusionStats()
            fused, _ = fuse(GaussianReduced(p_mean[0] if p_one else p_mean, p_cov),
                            GaussianReduced(m_mean[0] if m_one else m_mean, m_cov),
                            stats)
            assert fused.mean.shape == (40, N_MODES) and stats.steps == 40
            for k in range(40):
                step, _ = fuse(GaussianReduced(p_mean[0 if p_one else k], p_cov),
                               GaussianReduced(m_mean[0 if m_one else k], m_cov))
                assert_close(fused.mean[k], step.mean)


class TestFastPathsMatchFormer:
    """fuse against the former kernel with tolerance 0: a batch of one,
    stacked means, regularized, certain and lifted pairs, and fixed
    covariance pairs, whose gain is computed once and reused."""

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
        # a writeable measurement covariance, then a fixed (read-only) one
        model, rng = _model(), np.random.default_rng(7)
        fixed = _read_only(random_spd(rng, N_MODES, 0.01))
        for k in range(_U.size):
            prior = evaluate_rom(model, _THETA[k], _U[k], 0.10)
            mean = rng.standard_normal(N_MODES)
            self._assert_fuse_identical(
                prior, GaussianReduced(mean, random_spd(rng, N_MODES, 0.01)))
            self._assert_fuse_identical(
                prior, GaussianReduced.from_checked(mean, fixed))

    def test_fuse_stacks(self):
        p_mean, m_mean = TestFuseBatch._means(n_t=_U.size)
        p_cov, shared = TestFuseBatch._pairs(5)["random"]
        prior = evaluate_rom(_model(), _THETA, _U, 0.10)
        self._assert_fuse_identical(prior, GaussianReduced(m_mean, shared))
        self._assert_fuse_identical(
            prior, GaussianReduced.from_checked(m_mean, _read_only(shared)))
        self._assert_fuse_identical(GaussianReduced(p_mean, p_cov),
                                    GaussianReduced(m_mean, shared))
        self._assert_fuse_identical(GaussianReduced(m_mean, shared), prior)

    def test_regularized_and_certain_rows_counted(self):
        # every row of a stack fused with a regularized pair is counted, and
        # a fully certain pair gets zero gain
        p_mean, m_mean = TestFuseBatch._means()
        pairs = TestFuseBatch._pairs()
        for kind, regularized in (("regularized", 1), ("certain", 0)):
            p_cov, m_cov = pairs[kind]
            _, gain, stats = self._assert_fuse_identical(
                GaussianReduced(p_mean, p_cov), GaussianReduced(m_mean, m_cov))
            assert (stats.steps, stats.regularized) == (40, 40 * regularized)
            assert np.all(gain == 0.0) == (kind == "certain")
            _, _, stats = self._assert_fuse_identical(
                GaussianReduced(p_mean[3], p_cov),
                GaussianReduced(m_mean[3], m_cov))
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
        rng = np.random.default_rng(1)
        for seed in range(12):
            prior, meas = self._rank_deficient_pair(seed)
            self._assert_fuse_identical(
                GaussianReduced(rng.standard_normal((5, N_MODES)), prior.covariance),
                GaussianReduced(rng.standard_normal((5, N_MODES)), meas.covariance))


def _read_only(cov):
    cov = np.array(cov, dtype=float)
    cov.setflags(write=False)
    return cov


class TestRegularizeThreshold:
    @staticmethod
    def _pair(least, seed=10):
        """Prior and measurement whose least eigenvalue ``least`` lies along
        one shared direction, the others O(1)."""
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((N_MODES, N_MODES)))
        return [GaussianReduced(rng.standard_normal(N_MODES),
                                (q * ([least] + rest)) @ q.T)
                for rest in ([0.5, 1.0], [0.02, 0.01])]

    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize("scale", [0.5, 0.8, 1.25, 2.0])
    def test_regularized_below_the_threshold(self, scale, stacked):
        # lambda_min(S) around 1e-14 tr S: regularized below the threshold,
        # for a stacked mean of one row, and on the miss and the hit of a
        # kept pair
        prior, meas = self._pair(1e-12)
        least = 0.5e-14 * scale * float(np.trace(prior.covariance
                                                 + meas.covariance))
        pair = self._pair(least)
        fusion._LAST = None
        if stacked:
            pair = [GaussianReduced(g.mean[None], g.covariance) for g in pair]
        for _ in range(2):
            *_, stats = TestFastPathsMatchFormer._assert_fuse_identical(*pair)
            assert stats.regularized == (scale < 1.0)


class TestGainMemo:
    """``fuse`` keeps the gain of the last covariance pair, keyed by their
    bytes; a pair changed in place is fused afresh."""

    @staticmethod
    def _pair(rng, n_t=None):
        shape = (N_MODES,) if n_t is None else (n_t, N_MODES)
        return (rng.standard_normal(shape), random_spd(rng, N_MODES),
                rng.standard_normal(shape), random_spd(rng, N_MODES, 0.01))

    def test_hit_returns_the_bytes_of_a_fresh_fuse(self):
        rng = np.random.default_rng(1)
        p_mean, p_cov, m_mean, m_cov = self._pair(rng, n_t=20)
        p_cov, m_cov = _read_only(p_cov), _read_only(m_cov)
        fusion._LAST = None
        runs = []
        for clear in (False, False, True):
            if clear:
                fusion._LAST = None
            runs.append([fuse(GaussianReduced.from_checked(p_mean[k], p_cov),
                              GaussianReduced.from_checked(m_mean[k], m_cov))
                         for k in range(20)])
        for got in runs[1:]:
            for (fused, gain), (ref, ref_gain) in zip(got, runs[0]):
                assert_identical(fused.mean, ref.mean)
                assert_identical(fused.covariance, ref.covariance)
                assert_identical(gain, ref_gain)
        # the kept arrays are shared and read-only
        (fused, gain), (again, _) = runs[1][:2]
        assert fused.covariance is again.covariance
        assert not (fused.covariance.flags.writeable or gain.flags.writeable)
        # and the batch, through the same entry, agrees with the steps
        batch, _ = fuse(GaussianReduced.from_checked(p_mean, p_cov),
                        GaussianReduced.from_checked(m_mean, m_cov))
        assert batch.covariance is runs[2][0][0].covariance
        for k in range(20):
            assert_close(batch.mean[k], runs[0][k][0].mean)

    @pytest.mark.parametrize(
        "kind", ["writeable", "view", "made writeable and back"])
    def test_a_covariance_changed_in_place_is_fused_afresh(self, kind):
        rng = np.random.default_rng(2)
        p_mean, p_cov, m_mean, m_cov = self._pair(rng, n_t=4)
        cov = p_cov
        if kind == "view":  # read-only, but its base is writeable
            cov = p_cov.view()
            cov.setflags(write=False)
        elif kind == "made writeable and back":
            cov = p_cov = _read_only(p_cov)
        meas = GaussianReduced.from_checked(m_mean, _read_only(m_cov))
        fusion._LAST = None
        for scale in (1.0, 3.0):
            prior = GaussianReduced.from_checked(p_mean, cov)
            got, gain = fuse(prior, meas)
            ref, ref_gain = _former_fuse(prior, meas)
            assert_identical(got.mean, ref.mean)
            assert_identical(gain, ref_gain)
            if scale == 1.0:
                first = got.mean
            # changed in place between the calls, with no call in between
            # that would see it writeable
            p_cov.setflags(write=True)
            p_cov *= 3.0
            if kind == "made writeable and back":
                p_cov.setflags(write=False)
        assert not np.array_equal(got.mean, first)

    def test_dropped_covariances_never_alias(self):
        # each pair is made, fused and dropped; a new array may reuse a
        # freed array's id, but every call must give the fresh result of
        # its own pair
        rng = np.random.default_rng(3)
        fusion._LAST = None
        for _ in range(60):
            p_mean, p_cov, m_mean, m_cov = self._pair(rng)
            prior = GaussianReduced.from_checked(p_mean, _read_only(p_cov))
            meas = GaussianReduced.from_checked(m_mean, _read_only(m_cov))
            TestFastPathsMatchFormer._assert_fuse_identical(prior, meas)
            del prior, meas
            gc.collect()

    def test_memo_holds_the_last_pair_only(self):
        rng = np.random.default_rng(4)
        fusion._LAST = None
        pairs = []
        for _ in range(3):
            p_mean, p_cov, m_mean, m_cov = self._pair(rng)
            pairs.append((GaussianReduced(p_mean, p_cov),
                          GaussianReduced(m_mean, m_cov)))
            fuse(*pairs[-1])
            newest = tuple(g.covariance.tobytes() for g in pairs[-1])
            assert fusion._LAST[:2] == newest
        # switching between pairs refits each time, with the same bytes
        for pair in (pairs[0], pairs[-1], pairs[0]):
            TestFastPathsMatchFormer._assert_fuse_identical(*pair)

    def test_threads_sharing_the_memo(self):
        # more threads than cores, switching often, each fusing its own
        # stream of pairs: every result is its pair's fresh one, as each
        # call reads the one entry once
        rng = np.random.default_rng(5)
        pairs = [tuple(GaussianReduced.from_checked(mean, _read_only(cov))
                       for mean, cov in ((p_mean, p_cov), (m_mean, m_cov)))
                 for p_mean, p_cov, m_mean, m_cov in
                 (self._pair(rng) for _ in range(6))]
        refs = [_former_fuse(*pair)[0].mean for pair in pairs]
        errors = []

        def work(offset):
            try:
                for k in range(400):
                    i = (offset + 7 * k) % len(pairs)
                    got = fuse(*pairs[i])[0].mean
                    if got.tobytes() != refs[i].tobytes():
                        errors.append(i)
            except Exception as err:  # reported below, not lost in a thread
                errors.append(err)

        fusion._LAST = None
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        fusion._LAST = None

    def test_non_finite_mean_rejected_on_a_hit(self):
        fusion._LAST = None
        cov = _read_only(np.eye(N_MODES))
        fuse(GaussianReduced.from_checked(np.zeros(N_MODES), cov),
             GaussianReduced.from_checked(np.ones(N_MODES), cov))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValidationError, match="finite"):
                fuse(GaussianReduced.from_checked(np.full(N_MODES, 1e308), cov),
                     GaussianReduced.from_checked(np.full(N_MODES, -1e308), cov))


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
        # both covariances are fixed: the fused one is shared by every step
        assert fused.covariance.shape == (N_MODES, N_MODES)
        assert_close(np.full(n_t, np.trace(fused.covariance)),
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
        rng = np.random.default_rng(2)
        model = TorsionModel(mean_field=np.linspace(0, 0.2, 18),
                             field_map=rng.standard_normal((18, 2)))
        a = rng.standard_normal((2, 25))
        batch = infer_torsion(a, model)
        assert batch.shape == (18, 25)
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
        # a PSD covariance whose trace alone overflows is accepted, with no
        # overflow warning: the trace is taken only for a negative eigenvalue
        with np.errstate(over="raise"):
            GaussianReduced(np.zeros(3), 8e307 * np.eye(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_fuse_rejects_a_non_finite_mean(self, bad):
        # means wrapped unchecked: fuse finds the bad entry in one step and
        # in one row of a stack, on the miss and the hit of a kept pair
        cov = _read_only(np.eye(2))
        fusion._LAST = None
        means = np.zeros((4, 2))
        means[2, 1] = bad
        with np.errstate(invalid="ignore"):
            for mean in (means[2], means, means[2], means):
                with pytest.raises(ValidationError, match="finite"):
                    fuse(GaussianReduced.from_checked(np.zeros(2), cov),
                         GaussianReduced.from_checked(mean, cov))

    def test_one_bad_row_rejects_the_stack(self):
        means = np.zeros((5, 2))
        GaussianReduced(means, np.eye(2))
        means[1, 1] = np.nan
        with pytest.raises(ValidationError, match="finite"):
            GaussianReduced(means, np.eye(2))

    def test_covariance_stack_must_match_the_mean(self):
        # one (N, N) covariance per Gaussian: a stack of covariances is
        # rejected, one per row of the mean or a stack of one included
        for n_covs in (4, 1, 3):
            with pytest.raises(ValidationError, match=r"must be \(2, 2\)"):
                GaussianReduced(np.zeros((4, 2)), np.tile(np.eye(2), (n_covs, 1, 1)))
