import json
import warnings

import numpy as np
import pytest

from bladesense import (fit_torsion_model, infer_torsion, load_torsion_model,
                        pod_fit, project, save_torsion_model)
from bladesense.errors import SchemaError, ValidationError
from bladesense.synthetic import demo_grid, orthonormal_polynomial_modes
from bladesense.torsion import TorsionModel, _r_squared

from conftest import (align_sign, basis_from_modes, dense_pod_oracle,
                      tau_ensemble, torsion_cases)


def _centered(rng, n_coords, lengths):
    """Coordinate series of the given lengths with a pooled mean of zero."""
    a_series = [rng.standard_normal((n_coords, n_t)) for n_t in lengths]
    mean = np.hstack(a_series).mean(axis=1, keepdims=True)
    return [a - mean for a in a_series]


class TestTorsionFieldMap:
    """The map of :func:`fit_torsion_model` on torsion ensembles psi M0 a
    (conftest ``torsion_cases``); an independent target is psi b, M0 = I."""

    @staticmethod
    def _setup(seed):
        grid = demo_grid(n_z=6)
        return (np.random.default_rng(seed), grid,
                orthonormal_polynomial_modes(grid, 3))

    def test_exact_field_map_recovered(self):
        rng, grid, psi = self._setup(0)
        M0 = rng.standard_normal((3, 4))
        a_series = _centered(rng, 4, (120, 80))
        model, r2 = fit_torsion_model(
            a_series, torsion_cases(grid, psi, M0, a_series), 3)
        assert np.abs(model.basis.modes @ model.M - psi @ M0).max() <= 1e-8
        assert np.allclose(r2, 1.0, atol=1e-10)

    def test_independent_target_has_no_fit(self):
        rng, grid, psi = self._setup(1)
        a = rng.standard_normal((4, 10**4))
        b = rng.standard_normal((3, 10**4))
        _, r2 = fit_torsion_model(
            [a], torsion_cases(grid, psi, np.eye(3), [b]), 3)
        assert np.all(r2 < 0.1)

    def test_zero_coordinate_gives_zero_column(self):
        rng, grid, psi = self._setup(2)
        a = rng.standard_normal((3, 100))
        a[1, :] = 0.0
        taus = torsion_cases(grid, psi, np.eye(3),
                             [rng.standard_normal((3, 100))])
        with pytest.warns(UserWarning, match="rank deficient"):
            model, _ = fit_torsion_model([a], taus, 3)
        assert np.allclose(model.M[:, 1], 0.0, atol=1e-12)

    def test_rank_deficiency_warns(self):
        rng, grid, psi = self._setup(3)
        a = rng.standard_normal((3, 100))
        a[2, :] = a[1, :]  # dependent coordinates
        taus = torsion_cases(grid, psi, np.eye(3),
                             [rng.standard_normal((3, 100))])
        with pytest.warns(UserWarning, match="rank deficient"):
            fit_torsion_model([a], taus, 3)

    def test_scale_equivariance(self):
        rng, grid, psi = self._setup(4)
        a = rng.standard_normal((3, 120))
        taus = torsion_cases(grid, psi, np.eye(3),
                             [rng.standard_normal((3, 120))])
        model1, _ = fit_torsion_model([a], taus, 3)
        model2, _ = fit_torsion_model([2.5 * a], taus, 3)
        assert np.array_equal(model2.basis.modes, model1.basis.modes)
        assert np.allclose(model2.M, model1.M / 2.5, atol=1e-12)

    def test_refit_consistency(self):
        # a map refitted to its own predicted fields is the same map
        rng, grid, psi = self._setup(6)
        M0 = rng.standard_normal((3, 3))
        (a,) = _centered(rng, 3, (150,))
        model1, _ = fit_torsion_model([a], torsion_cases(grid, psi, M0, [a]),
                                      3)
        xi_m1 = model1.basis.modes @ model1.M
        model2, r2 = fit_torsion_model(
            [a], [tau_ensemble(grid, xi_m1 @ a)], 3)
        assert np.abs(model2.basis.modes @ model2.M - xi_m1).max() <= 1e-8
        assert np.allclose(r2, 1.0, atol=1e-10)

    def test_too_few_samples(self):
        # rejected before the coordinates' rank check would warn
        rng, grid, psi = self._setup(5)
        a = rng.standard_normal((4, 3))
        taus = torsion_cases(grid, psi, np.ones((3, 4)), [a])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError,
                               match="3 steps, fewer than the 4"):
                fit_torsion_model([a], taus, 2)


class TestRSquared:
    """The package's R^2 rule, shared by the fit and the torsion report."""

    def test_rows_with_variance(self):
        r2 = _r_squared(np.array([1.0, 0.0, 4.0]), np.array([4.0, 2.0, 4.0]))
        assert np.array_equal(r2, [0.75, 1.0, 0.0])

    def test_row_without_variance_scores_one_only_when_exact(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no division warning either
            r2 = _r_squared(np.array([0.0, 1e-3, 2.0]),
                            np.array([0.0, 0.0, 4.0]))
        assert np.array_equal(r2, [1.0, 0.0, 0.5])


class TestFitTorsionModel:
    """The one-pass map against an ``np.linalg.lstsq`` oracle on the
    projections of every case onto the model's basis."""

    @staticmethod
    def _cases(deficient, lengths=(30, 45, 22), seed=12):
        rng = np.random.default_rng(seed)
        grid = demo_grid(n_z=6)
        modes = orthonormal_polynomial_modes(grid, 5)
        C = rng.standard_normal((5, 4))
        a_series, taus = [], []
        for k, n_t in enumerate(lengths):
            a = np.diag([3.0, 2.0, 1.0, 0.5]) @ rng.standard_normal((4, n_t))
            a += 0.4 * k  # per-case offsets: no case mean is the pooled one
            if deficient:
                a[3] = a[1]  # dependent coordinates
            tau = (0.2 + modes @ (C @ a)
                   + 0.3 * rng.standard_normal((grid.n_dof, n_t)))
            a_series.append(a)
            taus.append(tau_ensemble(grid, tau))
        return a_series, taus

    @pytest.mark.parametrize("deficient", [False, True])
    def test_matches_lstsq_on_the_projections(self, deficient):
        a_series, taus = self._cases(deficient)
        if deficient:
            with pytest.warns(UserWarning, match="rank deficient"):
                model, r2 = fit_torsion_model(a_series, iter(taus), 3)
        else:
            model, r2 = fit_torsion_model(a_series, iter(taus), 3)
        assert np.array_equal(model.basis.modes, pod_fit(taus, 3).modes)
        A = np.hstack(a_series)
        B = project(np.hstack([t.D for t in taus]), model.basis)
        M_t, _, rank, _ = np.linalg.lstsq(A.T, B.T, rcond=None)
        assert rank == (3 if deficient else 4)
        M = M_t.T  # the minimum-norm solution
        assert np.abs(model.M - M).max() <= 1e-10 * np.abs(M).max()
        ss_res = np.sum((B - M @ A) ** 2, axis=1)
        ss_tot = np.sum((B - B.mean(axis=1, keepdims=True)) ** 2, axis=1)
        assert np.abs(r2 - (1.0 - ss_res / ss_tot)).max() <= 1e-12
        assert np.all(r2 < 1.0)  # the noise is not explained

    def test_rejects_coordinates_of_another_length(self):
        a_series, taus = self._cases(False)
        a_series[1] = a_series[1][:, :-1]
        with pytest.raises(ValidationError, match="44"):
            fit_torsion_model(a_series, taus, 3)


class TestInferTorsion:
    def _model(self, M):
        grid = demo_grid(n_z=6)
        modes = orthonormal_polynomial_modes(grid, 3)
        basis = basis_from_modes(grid, modes,
                                 mean_field=np.linspace(0, 0.2, grid.n_dof))
        return TorsionModel(basis=basis, M=M)

    def test_zero_map_returns_mean(self):
        model = self._model(np.zeros((3, 2)))
        out = infer_torsion(np.array([1.0, 2.0]), model)
        assert np.allclose(out, model.basis.mean_field)

    @pytest.mark.parametrize("M", [np.ones((2, 2)), np.ones(3),
                                   [[1.0, np.nan]] * 3],
                             ids=["rows", "vector", "non-finite"])
    def test_bad_map_rejected(self, M):
        with pytest.raises(ValidationError, match="coupling map"):
            self._model(M)

    def test_construct_and_recover_roundtrip(self):
        rng = np.random.default_rng(9)
        grid = demo_grid(n_z=8)
        xi = orthonormal_polynomial_modes(grid, 3)
        M0 = rng.standard_normal((3, 2))
        (a_series,) = _centered(rng, 2, (300,))
        (tau_case,) = torsion_cases(grid, xi, M0, [a_series])
        tau = tau_case.D  # zero-mean torsion field
        model, _ = fit_torsion_model([a_series], [tau_case], 3)
        for k in range(0, 300, 50):
            field = infer_torsion(a_series[:, k], model)
            assert np.allclose(field, tau[:, k], atol=1e-8)


class TestTorsionPod:
    def test_matches_dense_oracle(self, uniform_grid):
        import bladesense
        rng = np.random.default_rng(11)
        D = rng.standard_normal((uniform_grid.n_dof, 30))
        n_t = D.shape[1]
        ens = bladesense.SnapshotEnsemble(
            grid=uniform_grid, D=D, t=np.arange(n_t) / 10.0,
            theta=np.zeros(n_t), omega=np.ones(n_t),
            u_raw=np.full(n_t, 9.0), u_filt=np.full(n_t, 9.0),
            condition=bladesense.ConditionKey(9.0, 0.1, 0), f_s=10.0)
        basis = pod_fit(ens, 5)
        eigs, modes = dense_pod_oracle(D, uniform_grid)
        assert np.allclose(basis.energies, eigs[:5], rtol=1e-10, atol=1e-14)
        aligned = align_sign(modes[:, :5], basis.modes)
        assert np.allclose(aligned, basis.modes, atol=1e-10)


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        grid = demo_grid(n_z=6)
        modes = orthonormal_polynomial_modes(grid, 3)
        basis = basis_from_modes(grid, modes)
        M = np.arange(6, dtype=float).reshape(3, 2)
        path = tmp_path / "torsion.json"
        save_torsion_model(TorsionModel(basis=basis, M=M), path)
        assert set(json.loads(path.read_text())) == {"basis_file", "J", "M"}
        back = load_torsion_model(path, grid)
        assert back.basis.n_modes == 3
        assert np.array_equal(back.M, M)
        assert np.allclose(back.basis.modes, basis.modes, atol=1e-15)

    def _saved(self, tmp_path, edit):
        # a four-mode basis with a (4, 2) map, then ``edit`` on its document
        grid = demo_grid(n_z=6)
        basis = basis_from_modes(grid, orthonormal_polynomial_modes(grid, 4))
        path = tmp_path / "torsion_model.json"
        save_torsion_model(TorsionModel(basis=basis, M=np.ones((4, 2))), path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        return path, grid

    @pytest.mark.parametrize("J, rows", [(3, 3), (4, 3), (3, 4), (4, 5)])
    def test_rejects_a_model_that_disagrees_with_its_basis(self, tmp_path,
                                                           J, rows):
        # J and the map's row count must both equal the basis' 4 modes
        def edit(doc):
            doc["J"] = J
            doc["M"] = [[1.0, 1.0]] * rows
        path, grid = self._saved(tmp_path, edit)
        with pytest.raises(SchemaError, match="torsion_model.json"):
            load_torsion_model(path, grid)

    def test_rejects_a_ragged_map(self, tmp_path):
        def edit(doc):
            doc["M"][2] = doc["M"][2][:1]
        path, grid = self._saved(tmp_path, edit)
        with pytest.raises(SchemaError, match="torsion_model.json"):
            load_torsion_model(path, grid)

    def test_rejects_the_former_per_condition_layout(self, tmp_path):
        def edit(doc):
            doc["conditions"] = [{"u_mean": 10.0, "ti": 0.1, "M": doc.pop("M")}]
        path, grid = self._saved(tmp_path, edit)
        with pytest.raises(SchemaError, match="conditions"):
            load_torsion_model(path, grid)

    def test_loaded_map_checks_the_coordinate_count(self, tmp_path):
        # a map of 3 columns loads against any basis, but takes only 3
        # deflection coordinates
        def edit(doc):
            doc["M"] = [[1.0, 1.0, 1.0]] * 4
        path, grid = self._saved(tmp_path, edit)
        model = load_torsion_model(path, grid)
        with pytest.raises(ValidationError, match=r"\b4\b.*\b3\b"):
            infer_torsion(np.zeros(4), model)
