import warnings

import numpy as np
import pytest

from bladesense import (fit_torsion_model, infer_torsion, load_torsion_model,
                        save_torsion_model)
from bladesense.decomposition import dof_weights
from bladesense.errors import SchemaError, ValidationError
from bladesense.synthetic import demo_grid, orthonormal_polynomial_modes
from bladesense.torsion import TorsionModel, _r_squared

from conftest import tau_ensemble, torsion_cases


def _centered(rng, n_coords, lengths):
    """Coordinate series of the given lengths with a pooled mean of zero."""
    a_series = [rng.standard_normal((n_coords, n_t)) for n_t in lengths]
    mean = np.hstack(a_series).mean(axis=1, keepdims=True)
    return [a - mean for a in a_series]


class TestTorsionFieldMap:
    """The field map of :func:`fit_torsion_model` on torsion ensembles
    psi M0 a (conftest ``torsion_cases``); an independent target is psi b,
    M0 = I."""

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
            a_series, torsion_cases(grid, psi, M0, a_series))
        assert np.abs(model.field_map - psi @ M0).max() <= 1e-8
        assert r2 == pytest.approx(1.0, abs=1e-10)

    def test_independent_target_has_no_fit(self):
        rng, grid, psi = self._setup(1)
        a = rng.standard_normal((4, 10**4))
        b = rng.standard_normal((3, 10**4))
        _, r2 = fit_torsion_model(
            [a], torsion_cases(grid, psi, np.eye(3), [b]))
        assert r2 < 0.1

    def test_low_energy_driven_part_beside_an_independent_one(self):
        # tau = psi_s M0 a + psi_b b, with b independent of a and about
        # eight times the energy of the driven part per mode: a torsion POD
        # cut to N = 3 modes keeps psi_b and loses psi_s M0. The map
        # recovers psi_s M0 to within b's sample correlation with a: each
        # column's error is a combination of the three psi_b modes with
        # coefficients of standard deviation 1 / sqrt(n_t), so its norm
        # stays below 4 / sqrt(n_t)
        rng, grid, _ = self._setup(7)
        psi = orthonormal_polynomial_modes(grid, 5)
        psi_s, psi_b = psi[:, :2], psi[:, 2:]
        M0 = np.array([[0.3, 0.0, 0.2], [0.0, 0.3, -0.2]])
        n_t = 4 * 10**4
        (a,) = _centered(rng, 3, (n_t,))
        driven = psi_s @ (M0 @ a)
        tau = driven + psi_b @ rng.standard_normal((3, n_t))
        model, r2 = fit_torsion_model([a], [tau_ensemble(grid, tau)])
        assert model.field_map.shape == (grid.n_dof, 3)
        w = dof_weights(grid)
        bound = 4.0 / np.sqrt(n_t)
        assert np.all(np.sqrt(w @ (psi_s @ M0) ** 2) >= 10 * bound)
        error = model.field_map - psi_s @ M0
        assert np.all(np.sqrt(w @ error**2) <= bound)
        # R^2 is the driven share of the pooled energy under inner()
        centered = tau - tau.mean(axis=1, keepdims=True)
        share = np.sum(w @ driven**2) / np.sum(w @ centered**2)
        assert r2 == pytest.approx(share, abs=0.01)

    def test_zero_coordinate_gives_zero_column(self):
        rng, grid, psi = self._setup(2)
        a = rng.standard_normal((3, 100))
        a[1, :] = 0.0
        taus = torsion_cases(grid, psi, np.eye(3),
                             [rng.standard_normal((3, 100))])
        with pytest.warns(UserWarning, match="rank deficient"):
            model, _ = fit_torsion_model([a], taus)
        assert np.allclose(model.field_map[:, 1], 0.0, atol=1e-12)

    def test_rank_deficiency_warns(self):
        rng, grid, psi = self._setup(3)
        a = rng.standard_normal((3, 100))
        a[2, :] = a[1, :]  # dependent coordinates
        taus = torsion_cases(grid, psi, np.eye(3),
                             [rng.standard_normal((3, 100))])
        with pytest.warns(UserWarning, match="rank deficient"):
            fit_torsion_model([a], taus)

    def test_scale_equivariance(self):
        rng, grid, psi = self._setup(4)
        a = rng.standard_normal((3, 120))
        taus = torsion_cases(grid, psi, np.eye(3),
                             [rng.standard_normal((3, 120))])
        model1, _ = fit_torsion_model([a], taus)
        model2, _ = fit_torsion_model([2.5 * a], taus)
        assert np.array_equal(model2.mean_field, model1.mean_field)
        assert np.allclose(model2.field_map, model1.field_map / 2.5,
                           atol=1e-12)

    def test_refit_consistency(self):
        # a map refitted to its own predicted fields is the same map
        rng, grid, psi = self._setup(6)
        M0 = rng.standard_normal((3, 3))
        (a,) = _centered(rng, 3, (150,))
        model1, _ = fit_torsion_model([a], torsion_cases(grid, psi, M0, [a]))
        W1 = model1.field_map
        model2, r2 = fit_torsion_model([a], [tau_ensemble(grid, W1 @ a)])
        assert np.abs(model2.field_map - W1).max() <= 1e-8
        assert r2 == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("level", [0.2, 0.013])
    def test_constant_field_has_no_variance(self, level):
        # a constant field pools a rounding-level total of either sign;
        # its map is rounding noise and fits it exactly
        rng, grid, _ = self._setup(0)
        a = rng.standard_normal((3, 120))
        model, r2 = fit_torsion_model(
            [a], [tau_ensemble(grid, np.full((grid.n_dof, 120), level))])
        assert np.abs(model.field_map).max() <= 1e-16
        assert r2 == 1.0

    def test_exact_fit_scores_at_most_one(self):
        # the residual is the total less the explained energy, which can
        # round above the total
        r2s = []
        for seed in range(8):
            rng, grid, psi = self._setup(seed)
            M0 = rng.standard_normal((3, 4))
            a_series = _centered(rng, 4, (120, 80))
            _, r2 = fit_torsion_model(
                a_series, torsion_cases(grid, psi, M0, a_series))
            r2s.append(r2)
        assert max(r2s) <= 1.0
        assert min(r2s) >= 1.0 - 1e-12

    def test_too_few_samples(self):
        # rejected before the coordinates' rank check would warn
        rng, grid, psi = self._setup(5)
        a = rng.standard_normal((4, 3))
        taus = torsion_cases(grid, psi, np.ones((3, 4)), [a])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError,
                               match="3 steps, fewer than the 4"):
                fit_torsion_model([a], taus)


class TestRSquared:
    """The package's R^2 rule, shared by the fit and the torsion report."""

    def test_rows_with_variance(self):
        r2 = _r_squared(np.array([1.0, 0.0, 4.0]), np.array([4.0, 2.0, 4.0]),
                        np.array([5.0, 2.0, 9.0]), 10)
        assert np.array_equal(r2, [0.75, 1.0, 0.0])

    def test_row_without_variance_scores_one_only_when_exact(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no division warning either
            r2 = _r_squared(np.array([0.0, 1e-3, 2.0]),
                            np.array([0.0, 0.0, 4.0]),
                            np.array([0.0, 0.0, 4.0]), 10)
        assert np.array_equal(r2, [1.0, 0.0, 0.5])

    def test_no_variance_is_judged_against_the_magnitude(self):
        # a rounding-level total of either sign, relative to the row's
        # energy about zero, is no variance; a residual of the same size
        # is an exact fit, one above it is none
        energy = np.array([14.4, 0.06, 14.4, 1.0])
        r2 = _r_squared(np.array([5e-15, 1e-17, 1e-3, 2.0**-31]),
                        np.array([5e-15, -1e-17, 5e-15, 2.0**-30]), energy, 120)
        assert np.array_equal(r2, [1.0, 1.0, 0.0, 0.5])

    def test_never_above_one(self):
        # a residual that rounding made negative counts as zero
        r2 = _r_squared(np.array([-1e-16, -3.0]), np.array([2.0, 2.0]),
                        np.array([3.0, 3.0]), 10)
        assert np.array_equal(r2, [1.0, 1.0])


class TestFitTorsionModel:
    """The one-pass map against an ``np.linalg.lstsq`` oracle on the
    centered fields of every case."""

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
    def test_matches_lstsq_on_the_fields(self, deficient):
        a_series, taus = self._cases(deficient)
        if deficient:
            with pytest.warns(UserWarning, match="rank deficient"):
                model, r2 = fit_torsion_model(a_series, iter(taus))
        else:
            model, r2 = fit_torsion_model(a_series, iter(taus))
        A = np.hstack(a_series)
        T = np.hstack([t.D for t in taus])
        mean = T.mean(axis=1)
        assert np.allclose(model.mean_field, mean, rtol=0, atol=1e-15)
        X = T - mean[:, None]
        W_t, _, rank, _ = np.linalg.lstsq(A.T, X.T, rcond=None)
        assert rank == (3 if deficient else 4)
        W = W_t.T  # the minimum-norm solution
        assert np.abs(model.field_map - W).max() <= 1e-10 * np.abs(W).max()
        w = dof_weights(taus[0].grid)
        ss_res = w @ np.sum((X - W @ A) ** 2, axis=1)
        ss_tot = w @ np.sum(X**2, axis=1)
        assert abs(r2 - (1.0 - ss_res / ss_tot)) <= 1e-12
        assert r2 < 1.0  # the noise is not explained

    def test_rejects_coordinates_of_another_length(self):
        a_series, taus = self._cases(False)
        a_series[1] = a_series[1][:, :-1]
        with pytest.raises(ValidationError, match="44"):
            fit_torsion_model(a_series, taus)


class TestInferTorsion:
    @staticmethod
    def _model(W):
        return TorsionModel(mean_field=np.linspace(0, 0.2, 18), field_map=W)

    def test_zero_map_returns_mean(self):
        model = self._model(np.zeros((18, 2)))
        out = infer_torsion(np.array([1.0, 2.0]), model)
        assert np.array_equal(out, model.mean_field)

    @pytest.mark.parametrize("W", [np.ones((17, 2)), np.ones(18),
                                   [[1.0, np.nan]] * 18],
                             ids=["rows", "vector", "non-finite"])
    def test_bad_map_rejected(self, W):
        with pytest.raises(ValidationError, match="field map"):
            self._model(W)

    def test_construct_and_recover_roundtrip(self):
        rng = np.random.default_rng(9)
        grid = demo_grid(n_z=8)
        xi = orthonormal_polynomial_modes(grid, 3)
        M0 = rng.standard_normal((3, 2))
        (a_series,) = _centered(rng, 2, (300,))
        (tau_case,) = torsion_cases(grid, xi, M0, [a_series])
        tau = tau_case.D  # zero-mean torsion field
        model, _ = fit_torsion_model([a_series], [tau_case])
        for k in range(0, 300, 50):
            field = infer_torsion(a_series[:, k], model)
            assert np.allclose(field, tau[:, k], atol=1e-8)


class TestPersistence:
    """``torsion_map.csv``: one lossless table, ``mean,a_1,...,a_N``."""

    @staticmethod
    def _saved(tmp_path, n_coords=2):
        grid = demo_grid(n_z=6)
        rng = np.random.default_rng(3)
        model = TorsionModel(mean_field=rng.standard_normal(grid.n_dof),
                             field_map=rng.standard_normal((grid.n_dof,
                                                            n_coords)))
        path = tmp_path / "torsion_map.csv"
        save_torsion_model(model, path)
        return path, grid, model

    def test_save_load_roundtrip(self, tmp_path):
        path, grid, model = self._saved(tmp_path)
        assert path.read_text().splitlines()[0] == "mean,a_1,a_2"
        back = load_torsion_model(path, grid)
        assert np.array_equal(back.mean_field, model.mean_field)
        assert np.array_equal(back.field_map, model.field_map)

    @pytest.mark.parametrize("header", [
        "mean,mode_1,mode_2", "mean,a_2,a_1", "a_1,a_2,mean", "mean,a_1,a_3"],
        ids=["former-basis", "swapped", "mean-last", "gap"])
    def test_rejects_another_header(self, tmp_path, header):
        # the former basis table (mean,mode_1,...) among them
        path, grid, _ = self._saved(tmp_path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join([header] + lines[1:]) + "\n")
        with pytest.raises(SchemaError, match="torsion_map.csv"):
            load_torsion_model(path, grid)

    def test_rejects_a_table_without_a_map(self, tmp_path):
        path, grid, _ = self._saved(tmp_path)
        lines = path.read_text().splitlines()
        path.write_text("mean\n" + "\n".join(
            line.split(",")[0] for line in lines[1:]) + "\n")
        with pytest.raises(SchemaError, match="mean,a_1"):
            load_torsion_model(path, grid)

    @pytest.mark.parametrize("n_z", [5, 7])
    def test_rejects_a_table_of_another_grid(self, tmp_path, n_z):
        # 18 rows, against the 15 or 21 degrees of freedom of the grid
        path, _, _ = self._saved(tmp_path)
        with pytest.raises(SchemaError, match=r"18 rows.*\b%d\b" % (3 * n_z)):
            load_torsion_model(path, demo_grid(n_z=n_z))

    def test_rejects_a_ragged_map(self, tmp_path):
        path, grid, _ = self._saved(tmp_path)
        lines = path.read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match="torsion_map.csv"):
            load_torsion_model(path, grid)

    def test_rejects_a_non_finite_map(self, tmp_path):
        path, grid, _ = self._saved(tmp_path)
        lines = path.read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0] + ",nan"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError, match="finite"):
            load_torsion_model(path, grid)

    def test_loaded_map_checks_the_coordinate_count(self, tmp_path):
        # a map of 3 columns takes only 3 deflection coordinates
        path, grid, _ = self._saved(tmp_path, n_coords=3)
        model = load_torsion_model(path, grid)
        with pytest.raises(ValidationError, match=r"\b4\b.*\b3\b"):
            infer_torsion(np.zeros(4), model)
