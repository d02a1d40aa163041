import dataclasses
import gc
import weakref

import numpy as np
import pytest

from bladesense import (BladeGrid, NoiseModel, SensorSet, observe,
                        place_sensors, sparse_estimate)
from bladesense.errors import NumericalError, ValidationError
from bladesense.sensing import _greedy_pivots, sensor_dof_rows
from bladesense.synthetic import (blade_demo_modes, demo_grid,
                                  orthonormal_polynomial_modes)

from conftest import basis_from_modes


class TestGreedyPivots:
    def test_hand_computed_example(self):
        # columns: v1=(1,0), v2=(0,2), v3=(0.1,0.1)
        # largest norm first (v2), then the orthogonal remainder of v1
        cands = np.array([[1.0, 0.0, 0.1],
                          [0.0, 2.0, 0.1]])
        assert _greedy_pivots(cands, 2) == [1, 0]
        assert _greedy_pivots(cands, 3) == [1, 0, 2]

    def test_tie_breaks_to_lowest_index(self):
        cands = np.eye(3)  # all columns identical norm and orthogonal
        assert _greedy_pivots(cands, 3) == [0, 1, 2]

    def test_spent_rank_takes_the_lowest_unselected_index(self):
        # rank 1: once v2 is taken every residual is zero, and the
        # remaining columns follow in index order
        assert _greedy_pivots(np.array([[1.0, 2.0, 0.0]]), 3) == [1, 0, 2]


class TestPlaceSensors:
    def test_canonical_rows_pick_distinct_stations(self):
        # basis rows are distinct canonical unit vectors (times sqrt(n_z))
        grid = BladeGrid(z_norm=np.array([0.0, 1.0]), length_m=10.0)
        modes = np.eye(6) * np.sqrt(2.0)
        basis = basis_from_modes(grid, modes)
        sensors = place_sensors(basis, 2)
        assert sorted(sensors.station_indices.tolist()) == [0, 1]
        # equal-importance candidates resolve to the lower station first
        assert sensors.station_indices[0] == 0

    def test_default_configuration(self):
        grid = demo_grid()
        basis = basis_from_modes(grid, orthonormal_polynomial_modes(grid, 4))
        sensors = place_sensors(basis, 4)
        assert sensors.n_sensors == 4
        assert np.unique(sensors.station_indices).size == 4
        assert sensors.sampled_basis.shape == (12, 4)
        # sampled rows are copied exactly from the source basis
        rows = sensor_dof_rows(sensors.station_indices, grid.n_z)
        assert np.array_equal(sensors.sampled_basis, basis.modes[rows, :])

    def test_sensor_count_bounds(self):
        grid = demo_grid(n_z=5)
        basis = basis_from_modes(grid, orthonormal_polynomial_modes(grid, 2))
        with pytest.raises(ValidationError):
            place_sensors(basis, 6)
        with pytest.raises(ValidationError):
            place_sensors(basis, 0)

    def test_scalar_pivot_mode(self):
        # whole-station pivoting is the only placement
        grid = demo_grid()
        basis = basis_from_modes(grid, orthonormal_polynomial_modes(grid, 4))
        with pytest.raises(ValidationError, match="pivot"):
            place_sensors(basis, 4, pivot="scalar")

    def test_pivot_quality_vs_random_placements(self):
        grid = demo_grid()
        basis = basis_from_modes(grid, blade_demo_modes(grid))
        sensors = place_sensors(basis, 4)
        cond_qr = np.linalg.cond(sensors.sampled_basis)
        rng = np.random.default_rng(99)
        conds = []
        for _ in range(1000):
            stations = rng.choice(grid.n_z, size=4, replace=False)
            rows = sensor_dof_rows(stations, grid.n_z)
            conds.append(np.linalg.cond(basis.modes[rows, :]))
        assert cond_qr <= np.percentile(conds, 5.0)


def _demo_sensors(n_modes=4, n_sensors=4):
    grid = demo_grid()
    basis = basis_from_modes(grid, orthonormal_polynomial_modes(grid, n_modes),
                             mean_field=np.linspace(0, 1, grid.n_dof))
    return grid, basis, place_sensors(basis, n_sensors)


class TestObserve:
    def test_noiseless_is_row_extraction(self):
        grid, basis, sensors = _demo_sensors()
        rng = np.random.default_rng(1)
        field = rng.standard_normal(grid.n_dof)
        y = observe(field, sensors)
        rows = sensor_dof_rows(sensors.station_indices, grid.n_z)
        assert np.array_equal(y, field[rows])

    def test_zero_noise_equals_noiseless(self):
        grid, basis, sensors = _demo_sensors()
        field = np.arange(grid.n_dof, dtype=float)
        noise = NoiseModel(0.0, sensors.n_sensors)
        assert np.array_equal(observe(field, sensors, noise, rng_seed=5),
                              observe(field, sensors))

    def test_deterministic_for_fixed_seed(self):
        grid, basis, sensors = _demo_sensors()
        field = np.ones(grid.n_dof)
        noise = NoiseModel(0.3, sensors.n_sensors)
        y1 = observe(field, sensors, noise, rng_seed=42)
        y2 = observe(field, sensors, noise, rng_seed=42)
        assert np.array_equal(y1, y2)

    def test_noise_is_sigma_times_the_standard_normal_stream(self):
        # one vector or a stack: the rows plus sigma times the generator's
        # standard normal draws of the same shape, bit for bit
        grid, basis, sensors = _demo_sensors()
        rows = sensor_dof_rows(sensors.station_indices, grid.n_z)
        fields = np.random.default_rng(4).standard_normal((5, grid.n_dof))
        for sigma in (0.0, 0.1, 2.5):
            noise = NoiseModel(sigma, sensors.n_sensors)
            for field in (fields[0], fields):
                y = observe(field, sensors, noise, rng_seed=9)
                ref = field[..., rows] + sigma * np.random.default_rng(
                    9).standard_normal(field[..., rows].shape)
                assert np.array_equal(y, ref)

    def test_monte_carlo_noise_covariance(self):
        grid, basis, sensors = _demo_sensors()
        sigma = 0.2
        noise = NoiseModel(sigma, sensors.n_sensors)
        field = np.zeros(grid.n_dof)
        rng = np.random.default_rng(7)
        draws = np.array([observe(field, sensors, noise, rng) for _ in range(10**5)])
        sample_cov = np.cov(draws.T, bias=True)
        target = sigma**2 * np.eye(12)
        assert np.abs(sample_cov - target).max() <= 0.05 * sigma**2


class TestSparseEstimate:
    def test_noise_free_recovery(self):
        grid, basis, sensors = _demo_sensors()
        rng = np.random.default_rng(3)
        a_true = rng.standard_normal(4)
        field = basis.mean_field + basis.modes @ a_true
        noise = NoiseModel(0.1, 4)
        est = sparse_estimate(observe(field, sensors), sensors, noise)
        assert np.allclose(est.mean, a_true, atol=1e-10)

    def test_identity_map_covariance(self):
        # square orthonormal sampled basis: G = I, so the covariance passes
        # through unchanged
        sensors = SensorSet(
            station_indices=np.array([0]),
            locations_norm=np.array([0.0]),
            sampled_basis=np.eye(3),
            sampled_mean=np.zeros(3),
            n_z=2,
        )
        noise = NoiseModel(0.4, 1)
        est = sparse_estimate(np.array([1.0, 2.0, 3.0]), sensors, noise)
        assert np.allclose(est.mean, [1.0, 2.0, 3.0], atol=1e-14)
        assert np.allclose(est.covariance, 0.16 * np.eye(3), atol=1e-14)

    def test_rank_deficient_basis_raises(self):
        sensors = SensorSet(
            station_indices=np.array([0, 1]),
            locations_norm=np.array([0.0, 0.5]),
            sampled_basis=np.column_stack([np.ones(6), np.zeros(6)]),
            sampled_mean=np.zeros(6),
            n_z=2,
        )
        noise = NoiseModel(0.1, 2)
        with pytest.raises(NumericalError, match="sensor set"):
            sparse_estimate(np.ones(6), sensors, noise)

    def test_wide_sampled_basis_raises(self):
        # one sensor reads 3 rows, fewer than the 4 modes: the least-squares
        # map is undefined, and the minimum-norm pseudo-inverse gives a
        # singular covariance
        grid = demo_grid(n_z=12)
        basis = basis_from_modes(grid, orthonormal_polynomial_modes(grid, 4))
        sensors = place_sensors(basis, 1)
        assert sensors.sampled_basis.shape == (3, 4)
        assert sensors.gram_gain is None
        with pytest.raises(NumericalError, match="sensor set"):
            sparse_estimate(np.zeros(3), sensors, NoiseModel(0.1, 1))

    @pytest.mark.parametrize("n_noise", [3, 5])
    def test_noise_model_of_another_sensor_count_rejected(self, n_noise):
        # four sensors: a noise model of another count is a
        # ValidationError, as in observe, not numpy's matmul error
        grid, basis, sensors = _demo_sensors()
        noise = NoiseModel(0.1, n_noise)
        with pytest.raises(ValidationError, match="sensor count"):
            sparse_estimate(np.zeros((2, 12)), sensors, noise)

    def test_estimate_covariance_keeps_no_noise_model_alive(self):
        grid, basis, sensors = _demo_sensors()
        refs = []
        for sigma in (0.1, 0.2, 0.1):
            noise = NoiseModel(sigma, 4)
            sparse_estimate(np.zeros(12), sensors, noise)
            refs.append(weakref.ref(noise))
        del noise
        gc.collect()
        assert all(r() is None for r in refs)

    def test_unknown_mode_rejected(self):
        grid, basis, sensors = _demo_sensors()
        noise = NoiseModel(0.1, 4)
        # the least-squares map is the only one
        for mode in ("banana", "direct_projection"):
            with pytest.raises(ValidationError, match="estimation mode"):
                sparse_estimate(np.zeros(12), sensors, noise, mode=mode)

    def test_covariance_propagation_consistency(self):
        grid, basis, sensors = _demo_sensors()
        sigma = 0.15
        noise = NoiseModel(sigma, 4)
        field = basis.mean_field + basis.modes @ np.array([1.0, -0.5, 0.2, 0.1])
        rng = np.random.default_rng(17)
        est0 = sparse_estimate(observe(field, sensors), sensors, noise)
        draws = np.array([
            sparse_estimate(observe(field, sensors, noise, rng),
                            sensors, noise).mean
            for _ in range(10**4)
        ])
        emp_cov = np.cov(draws.T, bias=True)
        frob = np.linalg.norm(emp_cov - est0.covariance)
        assert frob <= 0.10 * np.linalg.norm(est0.covariance)
        # unbiasedness: the empirical mean approaches the noise-free estimate
        se = np.sqrt(np.diag(est0.covariance) / draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0) - est0.mean) <= 3.0 * se)


class TestNoiseModel:
    def test_from_config_variants(self):
        # a config's noise is one sigma, stored as a float beside the
        # sensor count; the model holds nothing else
        assert [f.name for f in dataclasses.fields(NoiseModel)] == [
            "sigma", "n_sensors"]
        assert NoiseModel.from_config(0.1, 2) == NoiseModel(0.1, 2)
        n1 = NoiseModel.from_config(1, 2)
        assert n1 == NoiseModel(1.0, 2) and type(n1.sigma) is float
        for sigma in (-0.1, np.nan, np.inf):
            with pytest.raises(ValidationError, match="sigma"):
                NoiseModel.from_config(sigma, 2)
        with pytest.raises(ValidationError, match="at least one sensor"):
            NoiseModel.from_config(0.1, 0)

    def test_constructor_checks_its_own_input(self):
        # the constructor is the one entry point: it rejects what the shim
        # rejects, -inf and a negative sensor count included
        for sigma in (-0.1, -np.inf, np.nan, np.inf):
            with pytest.raises(ValidationError, match="sigma"):
                NoiseModel(sigma, 4)
        for n in (0, -1):
            with pytest.raises(ValidationError, match="at least one sensor"):
                NoiseModel(0.1, n)
        zero = NoiseModel(0, 1)
        assert zero.sigma == 0.0 and type(zero.sigma) is float

    def test_frozen_and_compared_by_value(self):
        noise = NoiseModel(0.1, 4)
        assert noise == NoiseModel(np.float64(0.1), 4)
        assert hash(noise) == hash(NoiseModel(0.1, 4))
        assert noise != NoiseModel(0.1, 3) and noise != NoiseModel(0.2, 4)
        for name, value in (("sigma", 1.0), ("n_sensors", 2)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(noise, name, value)
        assert noise == NoiseModel(0.1, 4)
