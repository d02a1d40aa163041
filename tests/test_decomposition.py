import numpy as np
import pytest

from bladesense import (BladeGrid, ConditionKey, ModalBasis, SnapshotEnsemble,
                        inner, pod_fit, project)
from bladesense.decomposition import _fix_signs, _fold, dof_weights
from bladesense.errors import ValidationError
from bladesense.synthetic import orthonormal_polynomial_modes

from conftest import align_sign, dense_pod_oracle, traced_peak


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


def _former_pod_fit(ensemble, n_modes):
    """The body of pod_fit before it took a list of ensembles, kept as the
    oracle of the one-ensemble case: (mean, modes, energies, total)."""
    D = ensemble.D
    n_t = D.shape[1]
    mean_field = D.mean(axis=1)
    X = D - mean_field[:, None]
    sqrt_w = np.sqrt(dof_weights(ensemble.grid))
    R = np.linalg.qr((X * sqrt_w[:, None]).T, mode="r")
    U, s, _ = np.linalg.svd(R.T, full_matrices=False)
    energies_all = s**2 / n_t
    modes = _fix_signs(U[:, :n_modes] / sqrt_w[:, None])
    return mean_field, modes, energies_all[:n_modes], float(energies_all.sum())


def _cases(grid, lengths, seed=0):
    """Cases with a common low-rank structure and per-case offsets, so the
    pooled mean differs from every case mean."""
    rng = np.random.default_rng(seed)
    modes = orthonormal_polynomial_modes(grid, 4)
    out = []
    for k, n_t in enumerate(lengths):
        a = np.diag([4.0, 2.0, 1.0, 0.5]) @ rng.standard_normal((4, n_t))
        D = (modes @ a + 0.3 * k
             + 0.05 * rng.standard_normal((grid.n_dof, n_t)))
        out.append(_ensemble(grid, D))
    return out


class TestStreamingPod:
    """pod_fit over a list folds each case into one triangular factor;
    the result equals the POD of the time-stacked cases."""

    def _assert_matches_stacked(self, cases, n_modes):
        grid = cases[0].grid
        got = pod_fit(cases, n_modes)
        ref = pod_fit(_ensemble(grid, np.hstack([e.D for e in cases])),
                      n_modes)
        scale = np.abs(ref.mean_field).max()
        assert np.abs(got.mean_field - ref.mean_field).max() <= 1e-12 * scale
        assert np.abs(got.energies - ref.energies).max() <= \
            1e-12 * ref.energies[0]
        assert got.total_energy == pytest.approx(ref.total_energy, rel=1e-12)
        # both bases are sign-fixed, so the columns compare directly
        assert np.abs(got.modes - ref.modes).max() <= \
            1e-12 * np.abs(ref.modes).max()
        return got

    def test_three_cases_match_the_stacked_matrix(self, uniform_grid):
        self._assert_matches_stacked(_cases(uniform_grid, (40, 25, 60)), 4)

    def test_cases_shorter_than_the_field(self, uniform_grid):
        # n_dof = 18: every case is wide, their factors are trapezoidal,
        # and N may exceed any one case's length
        cases = _cases(uniform_grid, (5, 7, 4), seed=1)
        basis = self._assert_matches_stacked(cases, 4)
        assert basis.n_modes == 4
        self._assert_matches_stacked(cases, 15)  # sum of n_t = 16 > 15
        with pytest.raises(ValidationError, match=r"\[1, 16\]"):
            pod_fit(cases, 17)

    def test_one_ensemble_is_bit_identical_to_the_former_body(self,
                                                             uniform_grid):
        for n_t, n_modes in ((60, 4), (9, 9), (5, 3)):
            ens = _cases(uniform_grid, (n_t,), seed=n_t)[0]
            mean, modes, energies, total = _former_pod_fit(ens, n_modes)
            for arg in (ens, [ens], (ens,)):
                basis = pod_fit(arg, n_modes)
                assert basis.mean_field.tobytes() == mean.tobytes()
                assert basis.modes.tobytes() == modes.tobytes()
                assert basis.energies.tobytes() == energies.tobytes()
                assert basis.total_energy == total

    def test_rejects_an_empty_list_and_mixed_grids(self, uniform_grid):
        with pytest.raises(ValidationError, match="at least one"):
            pod_fit([], 1)
        other = BladeGrid(z_norm=np.array([0.0, 0.1, 0.3, 0.6, 0.8, 1.0]),
                          length_m=100.0)
        D = np.random.default_rng(3).standard_normal((other.n_dof, 20))
        case = _cases(uniform_grid, (20,))[0]
        with pytest.raises(ValidationError, match="one grid"):
            pod_fit([case, _ensemble(other, D)], 2)
        coarse = BladeGrid(z_norm=np.linspace(0.0, 1.0, 4), length_m=100.0)
        D = np.random.default_rng(4).standard_normal((coarse.n_dof, 20))
        with pytest.raises(ValidationError, match="one grid"):
            pod_fit([case, _ensemble(coarse, D)], 2)

    def test_working_memory_is_one_case(self):
        grid = BladeGrid(z_norm=np.linspace(0.0, 1.0, 40), length_m=100.0)
        cases = _cases(grid, (400,) * 8, seed=5)
        pooled_bytes = sum(e.D.nbytes for e in cases)
        pod_fit(cases[:1], 4)  # warm up first-call allocations
        _, peak = traced_peak(pod_fit, cases, 4)
        assert peak < pooled_bytes

    def test_working_memory_does_not_grow_with_case_length(self):
        # one case forty times as long as the field is wide: folded in
        # blocks, it needs less memory than its own snapshot matrix, and
        # matches the one-QR former body
        grid = BladeGrid(z_norm=np.linspace(0.0, 1.0, 10), length_m=100.0)
        case = _cases(grid, (40 * grid.n_dof,), seed=6)[0]
        pod_fit(_cases(grid, (50,))[0], 4)  # warm up first-call allocations
        basis, peak = traced_peak(pod_fit, case, 4)
        assert peak < case.D.nbytes
        mean, modes, energies, total = _former_pod_fit(case, 4)
        assert np.array_equal(basis.mean_field, mean)
        assert np.abs(basis.energies - energies).max() <= 1e-12 * energies[0]
        assert basis.total_energy == pytest.approx(total, rel=1e-12)
        assert np.abs(basis.modes - modes).max() <= \
            1e-12 * np.abs(modes).max()

    @pytest.mark.parametrize("n_z", [40, 96])
    def test_peak_is_the_fold_buffer(self, n_z):
        # each fold runs in place, so the peak is the (n_dof + 4 n_dof) x
        # n_dof buffer plus the copy of R and the SVD's arrays; one copy of
        # the buffer per fold would pass 2 buffers
        grid = BladeGrid(z_norm=np.linspace(0.0, 1.0, n_z), length_m=100.0)
        cases = _cases(grid, (2000,) * 4, seed=7)
        pod_fit(cases[:1], 4)  # warm up first-call allocations
        _, peak = traced_peak(pod_fit, cases, 4)
        assert peak < 1.5 * grid.n_dof * 5 * grid.n_dof * 8

    def test_more_cases_than_spare_buffer_rows(self):
        # n_dof = 9: 50 per-case shift rows fold in chunks of 4 n_dof = 36
        grid = BladeGrid(z_norm=np.linspace(0.0, 1.0, 3), length_m=100.0)
        self._assert_matches_stacked(_cases(grid, (3,) * 50, seed=8), 4)


class TestFold:
    """_fold runs LAPACK dgeqrf in place; its R equals np.linalg.qr's."""

    @pytest.mark.parametrize("m, lda", [(50, None), (18, None), (7, None),
                                        (50, 90), (7, 90)])
    def test_r_is_bit_identical_to_qr(self, m, lda):
        # tall, square and wide (trapezoidal R), then leading slices of a
        # buffer with spare rows
        rows = np.random.default_rng(m).standard_normal((m, 18))
        buf = np.empty((18, lda or m)).T
        buf[:m] = rows
        k = _fold(buf, m)
        assert k == min(m, 18)
        assert buf[:k].tobytes() == np.linalg.qr(rows, mode="r").tobytes()

    def test_chain_leaves_r_in_place(self):
        rng = np.random.default_rng(9)
        buf = np.empty((18, 18 + 30)).T
        R, r = np.empty((0, 18)), 0
        for b in (30, 5, 12):
            block = rng.standard_normal((b, 18))
            buf[r:r + b] = block
            r = _fold(buf, r + b)
            R = np.linalg.qr(np.vstack([R, block]), mode="r")
            assert buf[:r].tobytes() == R.tobytes()

    @pytest.mark.parametrize("buf, m, match", [
        (np.ones(40), 1, "2-D"),
        (np.ones((20, 18)), 7, "F-contiguous"),
        (np.ones((18, 40)).T[::2], 7, "F-contiguous"),
        (np.ones((18, 20), dtype=np.float32).T, 7, "float64"),
        (np.ones((18, 20)).T, 0, r"\[1, 20\]"),
        (np.ones((18, 20)).T, 21, r"\[1, 20\]"),
    ])
    def test_rejects_a_bad_buffer_untouched(self, buf, m, match):
        before = buf.copy()
        with pytest.raises(ValueError, match=match):
            _fold(buf, m)
        assert np.array_equal(buf, before)


class TestModalBasis:
    def _kwargs(self, grid, n):
        return dict(grid=grid, mean_field=np.zeros(grid.n_dof),
                    modes=orthonormal_polynomial_modes(grid, n),
                    energies=np.arange(n, 0, -1.0), total_energy=10.0)

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_n_modes_is_the_width_of_the_modes(self, uniform_grid, n):
        basis = ModalBasis(**self._kwargs(uniform_grid, n))
        assert basis.n_modes == n == basis.modes.shape[1]
        with pytest.raises(TypeError):
            ModalBasis(**self._kwargs(uniform_grid, n), n_modes=n)

    def test_energies_of_another_length_rejected(self, uniform_grid):
        for energies in (np.ones(2), np.ones(4)):
            with pytest.raises(ValidationError, match="energies"):
                ModalBasis(**{**self._kwargs(uniform_grid, 3),
                              "energies": energies})

    def test_modes_of_another_shape_rejected(self, uniform_grid):
        modes = orthonormal_polynomial_modes(uniform_grid, 3)
        for bad in (modes[:-3], modes[:, 0], modes[None]):
            with pytest.raises(ValidationError, match="modes must be"):
                ModalBasis(**{**self._kwargs(uniform_grid, 3), "modes": bad})


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
        assert np.allclose(project(basis.mean_field + basis.modes @ a, basis),
                           a, atol=1e-12)

    def test_field_in_span_roundtrip(self, basis, uniform_grid):
        rng = np.random.default_rng(30)
        field = basis.mean_field + basis.modes @ rng.standard_normal(3)
        assert np.allclose(
            basis.mean_field + basis.modes @ project(field, basis), field,
            atol=1e-10)

    def test_matrix_projects_column_by_column(self, basis):
        rng = np.random.default_rng(31)
        fields = basis.mean_field[:, None] + rng.standard_normal(
            (basis.grid.n_dof, 5))
        a = project(fields, basis)
        assert a.shape == (3, 5)
        for k in range(5):
            assert np.allclose(a[:, k], project(fields[:, k], basis),
                               rtol=0.0, atol=1e-12)

    def test_blocks_equal_the_whole_matrix_form(self, basis):
        # n_dof = 18, so blocks of at most 72 columns; no lone last column
        rng = np.random.default_rng(32)
        w = dof_weights(basis.grid)[:, None]
        for n_t in (0, 1, 2, 72, 73, 145, 1000):
            fields = rng.standard_normal((basis.grid.n_dof, n_t))
            whole = basis.modes.T @ ((fields - basis.mean_field[:, None]) * w)
            assert project(fields, basis).tobytes() == whole.tobytes()

    def test_working_memory_is_one_block(self):
        grid = BladeGrid(z_norm=np.linspace(0.0, 1.0, 40), length_m=100.0)
        basis = pod_fit(_cases(grid, (200,))[0], 4)
        D = _cases(grid, (40 * grid.n_dof,), seed=10)[0].D
        project(D[:, :10], basis)  # warm up first-call allocations
        _, peak = traced_peak(project, D, basis)
        assert peak < D.nbytes / 2

    def test_length_mismatch(self, basis):
        with pytest.raises(ValidationError):
            project(np.ones(4), basis)
