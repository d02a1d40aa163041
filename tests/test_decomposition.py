import numpy as np
import pytest

from bladesense import (BladeGrid, ConditionKey, SnapshotEnsemble, inner,
                        lnm_amplitudes, pod_fit, project, reconstruct)
from bladesense.decomposition import dof_weights
from bladesense.errors import NumericalError, ValidationError
from bladesense.synthetic import orthonormal_polynomial_modes

from conftest import align_sign, dense_pod_oracle


def _ensemble(grid, D, f_s=20.0):
    n_t = D.shape[1]
    return SnapshotEnsemble(
        grid=grid, D=D, t=np.arange(n_t) / f_s,
        theta=np.mod(np.linspace(0, 6.0, n_t), 2 * np.pi),
        omega=np.ones(n_t), u_raw=np.full(n_t, 10.0),
        u_filt=np.full(n_t, 10.0),
        condition=ConditionKey(10.0, 0.1, 0), f_s=f_s,
    )


class TestInner:
    def test_unit_vector(self, uniform_grid):
        v = np.ones(uniform_grid.n_dof)
        v = v / np.sqrt(inner(v, v, uniform_grid))
        assert inner(v, v, uniform_grid) == pytest.approx(1.0, abs=1e-14)

    def test_disjoint_supports(self, uniform_grid):
        v1 = np.zeros(uniform_grid.n_dof)
        v2 = np.zeros(uniform_grid.n_dof)
        v1[0:3] = 1.0
        v2[5:9] = 2.0
        assert inner(v1, v2, uniform_grid) == 0.0

    def test_bilinearity(self, uniform_grid):
        rng = np.random.default_rng(3)
        v = rng.standard_normal(uniform_grid.n_dof)
        w = rng.standard_normal(uniform_grid.n_dof)
        assert inner(2 * v, w, uniform_grid) == pytest.approx(
            2 * inner(v, w, uniform_grid), rel=1e-14)

    def test_symmetry(self, uniform_grid):
        rng = np.random.default_rng(4)
        v = rng.standard_normal(uniform_grid.n_dof)
        w = rng.standard_normal(uniform_grid.n_dof)
        assert inner(v, w, uniform_grid) == pytest.approx(
            inner(w, v, uniform_grid), rel=1e-14)

    def test_length_mismatch(self, uniform_grid):
        with pytest.raises(ValidationError):
            inner(np.ones(5), np.ones(uniform_grid.n_dof), uniform_grid)

    def test_matches_continuous_product_on_uniform_grid(self, uniform_grid):
        # constant field: (1/L) integral of 1 dz == 1 for each component
        v = np.ones(uniform_grid.n_dof)
        assert inner(v, v, uniform_grid) == pytest.approx(3.0, rel=1e-14)

    def test_non_uniform_grid_uses_trapezoid_weights(self):
        from bladesense.decomposition import station_weights
        grid = BladeGrid(z_norm=np.array([0.0, 0.1, 0.4, 1.0]), length_m=50.0)
        w = station_weights(grid)
        dz = np.diff(grid.z_norm)
        expected = np.array([dz[0] / 2, (dz[0] + dz[1]) / 2,
                             (dz[1] + dz[2]) / 2, dz[2] / 2])
        assert np.allclose(w, expected, atol=1e-15)
        assert w.sum() == pytest.approx(1.0, abs=1e-14)
        # a constant field still integrates to one per component
        v = np.ones(grid.n_dof)
        assert inner(v, v, grid) == pytest.approx(3.0, rel=1e-13)


class TestPodFit:
    def test_rank_one_data(self, uniform_grid):
        rng = np.random.default_rng(0)
        phi = orthonormal_polynomial_modes(uniform_grid, 1)[:, 0]
        a = rng.standard_normal(30)
        ens = _ensemble(uniform_grid, np.outer(phi, a))
        basis = pod_fit(ens, 2)
        assert basis.energies[1] <= 1e-12 * basis.energies[0]
        aligned = align_sign(basis.modes[:, :1], phi[:, None])
        assert np.allclose(aligned[:, 0], phi, atol=1e-10)

    def test_constant_in_time(self, uniform_grid):
        D = np.tile(np.arange(uniform_grid.n_dof, dtype=float)[:, None], 8)
        basis = pod_fit(_ensemble(uniform_grid, D), 3)
        assert np.allclose(basis.energies, 0.0, atol=1e-25)

    def test_matches_dense_eigensolve(self, uniform_grid):
        rng = np.random.default_rng(42)
        D = rng.standard_normal((uniform_grid.n_dof, 10))
        ens = _ensemble(uniform_grid, D)
        basis = pod_fit(ens, 6)
        eigs, modes = dense_pod_oracle(D, uniform_grid)
        assert np.allclose(basis.energies, eigs[:6], rtol=1e-10, atol=1e-14)
        aligned = align_sign(modes[:, :6], basis.modes)
        assert np.allclose(aligned, basis.modes, atol=1e-10)

    @pytest.mark.parametrize("n_t", [7, 200])  # wide and tall (3n_z = 18)
    def test_qr_first_matches_thin_svd(self, uniform_grid, n_t):
        rng = np.random.default_rng(n_t)
        k = min(uniform_grid.n_dof, n_t)
        left = np.linalg.qr(rng.standard_normal((uniform_grid.n_dof, k)))[0]
        right = np.linalg.qr(rng.standard_normal((n_t, k)))[0]
        D = left @ np.diag(2.0 ** -np.arange(k)) @ right.T
        n_modes = k - 1
        basis = pod_fit(_ensemble(uniform_grid, D), n_modes)
        sqrt_w = np.sqrt(dof_weights(uniform_grid))
        X = (D - D.mean(axis=1, keepdims=True)) * sqrt_w[:, None]
        U, s, _ = np.linalg.svd(X, full_matrices=False)
        assert np.allclose(np.sqrt(basis.energies * n_t), s[:n_modes],
                           rtol=1e-12, atol=0.0)
        assert basis.total_energy == pytest.approx(np.sum(s**2) / n_t,
                                                   rel=1e-12)
        modes = align_sign(U[:, :n_modes] / sqrt_w[:, None], basis.modes)
        assert np.allclose(modes, basis.modes, rtol=0.0, atol=1e-10)

    def test_mean_field_is_row_mean(self, uniform_grid):
        rng = np.random.default_rng(1)
        D = rng.standard_normal((uniform_grid.n_dof, 12))
        basis = pod_fit(_ensemble(uniform_grid, D), 2)
        assert np.allclose(basis.mean_field, D.mean(axis=1))

    def test_truncation_bounds(self, uniform_grid):
        D = np.random.default_rng(2).standard_normal((uniform_grid.n_dof, 5))
        ens = _ensemble(uniform_grid, D)
        with pytest.raises(ValidationError):
            pod_fit(ens, 6)  # n_t = 5 < N
        with pytest.raises(ValidationError):
            pod_fit(ens, 0)

    def test_energy_conservation(self, uniform_grid):
        rng = np.random.default_rng(7)
        D = rng.standard_normal((uniform_grid.n_dof, 40)) * 2.5
        ens = _ensemble(uniform_grid, D)
        basis = pod_fit(ens, min(uniform_grid.n_dof, 40))
        w = dof_weights(uniform_grid)
        X = D - D.mean(axis=1, keepdims=True)
        total = float(np.sum((X * X) * w[:, None]) / X.shape[1])
        assert np.sum(basis.energies) == pytest.approx(total, rel=1e-8)
        assert basis.total_energy == pytest.approx(total, rel=1e-8)

    def test_deterministic_sign_convention(self, uniform_grid):
        rng = np.random.default_rng(8)
        D = rng.standard_normal((uniform_grid.n_dof, 15))
        b1 = pod_fit(_ensemble(uniform_grid, D), 4)
        b2 = pod_fit(_ensemble(uniform_grid, D), 4)
        assert np.array_equal(b1.modes, b2.modes)
        for n in range(4):
            i = np.argmax(np.abs(b1.modes[:, n]))
            assert b1.modes[i, n] > 0

    def test_optimality_against_random_bases(self, uniform_grid):
        rng = np.random.default_rng(12)
        modes = orthonormal_polynomial_modes(uniform_grid, 4)
        a = np.diag([4.0, 2.0, 1.0, 0.5]) @ rng.standard_normal((4, 60))
        D = modes @ a + 0.05 * rng.standard_normal((uniform_grid.n_dof, 60))
        ens = _ensemble(uniform_grid, D)
        basis = pod_fit(ens, 3)
        w = dof_weights(uniform_grid)
        X = D - D.mean(axis=1, keepdims=True)

        def residual_energy(phi):
            coeff = phi.T @ (X * w[:, None])
            E = X - phi @ coeff
            return float(np.sum((E * E) * w[:, None]))

        pod_resid = residual_energy(basis.modes)
        sqrt_w = np.sqrt(w)
        for _ in range(100):
            q, _ = np.linalg.qr(rng.standard_normal((uniform_grid.n_dof, 3)))
            rand_modes = q / sqrt_w[:, None]
            assert pod_resid < residual_energy(rand_modes)


class TestProjectReconstruct:
    @pytest.fixture
    def basis(self, uniform_grid):
        rng = np.random.default_rng(21)
        modes = orthonormal_polynomial_modes(uniform_grid, 3)
        a = np.diag([3.0, 1.5, 0.7]) @ rng.standard_normal((3, 50))
        return pod_fit(_ensemble(uniform_grid, modes @ a + 1.0), 3)

    def test_project_single_mode(self, basis):
        a = project(basis.mean_field + basis.modes[:, 0], basis)
        assert np.allclose(a, [1.0, 0.0, 0.0], atol=1e-10)

    def test_project_mean_is_zero(self, basis):
        assert np.allclose(project(basis.mean_field, basis), 0.0, atol=1e-12)

    def test_roundtrip_coefficients(self, basis):
        a = np.array([0.3, -1.2, 2.5])
        assert np.allclose(project(reconstruct(a, basis), basis), a,
                           atol=1e-12)

    def test_reconstruct_zero_is_mean(self, basis):
        assert np.array_equal(reconstruct(np.zeros(3), basis),
                              basis.mean_field)

    def test_identity_covariance_variance_field(self, basis):
        _, var = reconstruct(np.zeros(3), basis, covariance=np.eye(3))
        assert np.allclose(var, np.sum(basis.modes**2, axis=1), atol=1e-12)

    def test_field_in_span_roundtrip(self, basis, uniform_grid):
        rng = np.random.default_rng(30)
        field = basis.mean_field + basis.modes @ rng.standard_normal(3)
        assert np.allclose(reconstruct(project(field, basis), basis), field,
                           atol=1e-10)

    def test_non_psd_covariance_rejected(self, basis):
        bad = np.diag([1.0, 1.0, -0.5])
        with pytest.raises(ValidationError):
            reconstruct(np.zeros(3), basis, covariance=bad)

    def test_length_mismatch(self, basis):
        with pytest.raises(ValidationError):
            project(np.ones(4), basis)


class TestLnmAmplitudes:
    def test_single_tone_recovery(self, uniform_grid):
        phi = orthonormal_polynomial_modes(uniform_grid, 1)[:, 0]
        f_s, n_t = 20.0, 400
        t = np.arange(n_t) / f_s
        w1 = 2 * np.pi * 1.3
        c = np.cos(w1 * t)
        ens = _ensemble(uniform_grid, np.outer(phi, c), f_s=f_s)
        res = lnm_amplitudes(ens, [w1])
        assert res.amplitudes[0] == pytest.approx(np.linalg.norm(c), rel=1e-10)
        aligned = align_sign(res.shapes, phi[:, None])
        assert np.allclose(aligned[:, 0], phi, atol=1e-8)

    def test_zero_data(self, uniform_grid):
        ens = _ensemble(uniform_grid, np.zeros((uniform_grid.n_dof, 100)))
        res = lnm_amplitudes(ens, [2.0, 5.0])
        assert np.allclose(res.amplitudes, 0.0)

    def test_two_tone_recovery(self, uniform_grid):
        modes = orthonormal_polynomial_modes(uniform_grid, 2)
        f_s, n_t = 20.0, 800  # record 40 s, bin 0.025 Hz
        t = np.arange(n_t) / f_s
        w1, w2 = 2 * np.pi * 0.8, 2 * np.pi * 1.1  # 12 bins apart
        D = 2.0 * np.outer(modes[:, 0], np.cos(w1 * t)) \
            + 0.5 * np.outer(modes[:, 1], np.sin(w2 * t))
        res = lnm_amplitudes(_ensemble(uniform_grid, D, f_s=f_s), [w1, w2])
        aligned = align_sign(res.shapes, modes)
        assert np.allclose(aligned, modes, atol=1e-6)

    def test_close_frequencies_raise_numerical(self, uniform_grid):
        D = np.random.default_rng(0).standard_normal((uniform_grid.n_dof, 50))
        ens = _ensemble(uniform_grid, D)
        with pytest.raises(NumericalError, match="longer record"):
            lnm_amplitudes(ens, [1.0, 1.0 + 1e-9])

    def test_duplicate_frequencies_rejected(self, uniform_grid):
        ens = _ensemble(uniform_grid,
                        np.zeros((uniform_grid.n_dof, 50)))
        with pytest.raises(ValidationError, match="distinct"):
            lnm_amplitudes(ens, [1.0, 1.0])

    def test_nyquist_violation_rejected(self, uniform_grid):
        ens = _ensemble(uniform_grid, np.zeros((uniform_grid.n_dof, 50)),
                        f_s=20.0)
        with pytest.raises(ValidationError, match="samples per period"):
            lnm_amplitudes(ens, [np.pi * 20.0])
