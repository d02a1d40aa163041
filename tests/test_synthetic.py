import numpy as np
import pytest

from bladesense import load_case, pod_fit, inner
from bladesense.dataset import TWO_PI
from bladesense.errors import ValidationError
from bladesense.azimuthal_rom import fourier_eval
from bladesense.synthetic import (SyntheticCaseSpec, demo_grid, demo_spec,
                                  generate_case,
                                  orthonormal_polynomial_modes, _ar1)


class TestModeFactory:
    def test_orthonormal_and_root_clamped(self):
        grid = demo_grid(n_z=10)
        modes = orthonormal_polynomial_modes(grid, 5)
        for n in range(5):
            for m in range(n, 5):
                expected = 1.0 if n == m else 0.0
                assert inner(modes[:, n], modes[:, m], grid) == pytest.approx(
                    expected, abs=1e-12)
        n_z = grid.n_z
        assert np.allclose(modes[[0, n_z, 2 * n_z], :], 0.0)


class TestGenerateCase:
    def test_deterministic_byte_identical(self, tmp_path):
        spec = demo_spec("det", 9.0, 0.1, grid=demo_grid(n_z=6),
                         duration_s=3.0, f_s=40.0)
        t1 = generate_case(spec, 5, tmp_path / "a")
        t2 = generate_case(spec, 5, tmp_path / "b")
        for p1 in sorted((tmp_path / "a").iterdir()):
            p2 = tmp_path / "b" / p1.name
            assert p1.read_bytes() == p2.read_bytes(), p1.name
        assert np.array_equal(t1.a_true, t2.a_true)

    def test_different_seed_differs(self, tmp_path):
        spec = demo_spec("s", 9.0, 0.1, grid=demo_grid(n_z=6),
                         duration_s=2.0, f_s=40.0)
        t1 = generate_case(spec, 1, tmp_path / "a")
        t2 = generate_case(spec, 2, tmp_path / "b")
        assert not np.array_equal(t1.a_true, t2.a_true)

    def test_deterministic_limit_is_pure_azimuthal_field(self, tmp_path):
        grid = demo_grid(n_z=6)
        spec = demo_spec("pure", 10.0, 0.1, grid=grid, duration_s=3.0,
                         f_s=40.0, with_torsion=False)
        spec.ar_sigma = np.zeros(4)
        spec.harmonic_amplitudes = np.zeros((4, 3))
        spec.noise_sigma = 0.0
        truth = generate_case(spec, 0, tmp_path)
        _, ens = load_case(truth.manifest_path)
        expected_a = fourier_eval(spec.azimuthal_mean, ens.theta)
        expected = spec.mean_field[:, None] + spec.true_modes @ expected_a
        assert np.allclose(ens.D, expected, atol=1e-12)

    def test_theta_kinematics(self, tmp_path):
        spec = demo_spec("kin", 10.0, 0.1, grid=demo_grid(n_z=6),
                         duration_s=4.0, f_s=40.0, with_torsion=False)
        truth = generate_case(spec, 0, tmp_path)
        _, ens = load_case(truth.manifest_path)
        expected = np.mod(spec.omega * ens.t, TWO_PI)
        assert np.allclose(ens.theta, expected, atol=1e-12)

    @pytest.mark.parametrize("with_torsion", [True, False])
    def test_written_files_conform_to_schema(self, tmp_path, with_torsion):
        spec = demo_spec("schema", 10.0, 0.1, grid=demo_grid(n_z=6),
                         duration_s=2.0, f_s=40.0, with_torsion=with_torsion)
        truth = generate_case(spec, 0, tmp_path)
        grid, ens = load_case(truth.manifest_path)
        assert grid.n_z == 6
        assert ens.n_t == 80
        # exactly the case files save_case writes, nothing beside them
        expected = {"schema.json", "schema_grid.csv", "schema_channels.csv",
                    "schema_displacement.npy"}
        if with_torsion:
            expected.add("schema_torsion.npy")
        assert {p.name for p in tmp_path.iterdir()} == expected

    def test_mode_recoverability(self, tmp_path):
        # well-separated mode variances: POD recovers each true mode
        grid = demo_grid(n_z=10)
        modes = orthonormal_polynomial_modes(grid, 4)
        spec = SyntheticCaseSpec(
            name="rec", grid=grid, u_mean=10.0, ti=0.1, omega=1.0,
            duration_s=60.0, f_s=40.0, true_modes=modes,
            mean_field=np.zeros(grid.n_dof),
            azimuthal_mean=np.zeros((4, 3)),
            ar_rho=np.full(4, 0.5),
            ar_sigma=np.array([1.6, 0.8, 0.4, 0.2]),  # variance ratios 4
            noise_sigma=0.0,
        )
        truth = generate_case(spec, 3, tmp_path)
        _, ens = load_case(truth.manifest_path)
        basis = pod_fit(ens, 4)
        for n in range(4):
            overlap = abs(inner(basis.modes[:, n], modes[:, n], grid))
            assert overlap >= 0.99

    @staticmethod
    def _former_ar1(rho, sigma, n, rng):
        """The recurrence over numpy scalars that ``_ar1`` replaced."""
        if sigma == 0.0:
            return np.zeros(n)
        x = np.empty(n)
        x[0] = rng.normal(0.0, sigma / np.sqrt(1.0 - rho**2))
        innov = rng.normal(0.0, sigma, n - 1)
        for k in range(1, n):
            x[k] = rho * x[k - 1] + innov[k - 1]
        return x

    @pytest.mark.parametrize("rho, sigma, n", [
        (0.8, 0.3, 1000), (np.float64(0.995), np.float64(0.05), 3200),
        (-0.5, 2.0, 2), (0.9, 1.0, 1), (0.9, 0.0, 5)])
    def test_ar1_matches_former_loop(self, rho, sigma, n):
        rng, former_rng = np.random.default_rng(5), np.random.default_rng(5)
        x = _ar1(rho, sigma, n, rng)
        ref = self._former_ar1(rho, sigma, n, former_rng)
        assert (x.shape, x.dtype) == (ref.shape, ref.dtype)
        assert x.tobytes() == ref.tobytes()
        # the same draws were taken
        assert rng.bit_generator.state == former_rng.bit_generator.state

    @staticmethod
    def _former_float_ar1(rho, sigma, n, rng):
        """The loop over Python floats that the shared first-order
        recurrence replaced."""
        if sigma == 0.0:
            return np.zeros(n)
        x = [rng.normal(0.0, sigma / np.sqrt(1.0 - rho**2))]
        rho = float(rho)
        for e in rng.normal(0.0, sigma, n - 1).tolist():
            x.append(rho * x[-1] + e)
        return np.array(x)

    def test_ar1_bit_identical_to_the_former_float_loop(self):
        draws = np.random.default_rng(41)
        for seed in range(200):
            rho = float(draws.uniform(-0.999, 0.999))
            sigma = float(10.0 ** draws.uniform(-3, 1))
            n = int(draws.integers(1, 400))
            rng, former_rng = (np.random.default_rng(seed),
                               np.random.default_rng(seed))
            x = _ar1(rho, sigma, n, rng)
            ref = self._former_float_ar1(rho, sigma, n, former_rng)
            assert x.tobytes() == ref.tobytes()
            assert rng.bit_generator.state == former_rng.bit_generator.state

    def test_ar1_stationarity(self):
        rng = np.random.default_rng(123)
        rho = 0.8
        x = _ar1(rho, 0.3, 10**5, rng)
        xc = x - x.mean()
        lag1 = np.dot(xc[1:], xc[:-1]) / np.dot(xc, xc)
        assert abs(lag1 - rho) <= 0.05


class TestSpecValidation:
    def test_non_orthonormal_modes_rejected(self):
        grid = demo_grid(n_z=6)
        bad = orthonormal_polynomial_modes(grid, 2) * 1.5
        with pytest.raises(ValidationError, match="orthonormal"):
            SyntheticCaseSpec(
                name="x", grid=grid, u_mean=10.0, ti=0.1, omega=1.0,
                duration_s=1.0, f_s=20.0, true_modes=bad,
                mean_field=np.zeros(grid.n_dof),
                azimuthal_mean=np.zeros((2, 3)),
                ar_rho=np.zeros(2), ar_sigma=np.zeros(2))

    def test_unclamped_root_rejected(self):
        grid = demo_grid(n_z=6)
        modes = orthonormal_polynomial_modes(grid, 2)
        bad = modes.copy()
        bad[0, 0] = 0.5
        with pytest.raises(ValidationError):
            SyntheticCaseSpec(
                name="x", grid=grid, u_mean=10.0, ti=0.1, omega=1.0,
                duration_s=1.0, f_s=20.0, true_modes=bad,
                mean_field=np.zeros(grid.n_dof),
                azimuthal_mean=np.zeros((2, 3)),
                ar_rho=np.zeros(2), ar_sigma=np.zeros(2))

    def test_bad_ar_coefficient_rejected(self):
        grid = demo_grid(n_z=6)
        modes = orthonormal_polynomial_modes(grid, 2)
        with pytest.raises(ValidationError, match="AR"):
            SyntheticCaseSpec(
                name="x", grid=grid, u_mean=10.0, ti=0.1, omega=1.0,
                duration_s=1.0, f_s=20.0, true_modes=modes,
                mean_field=np.zeros(grid.n_dof),
                azimuthal_mean=np.zeros((2, 3)),
                ar_rho=np.array([0.5, 1.0]), ar_sigma=np.zeros(2))
