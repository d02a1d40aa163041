import json

import numpy as np
import pytest

from bladesense import (AzimuthalRomModel, RomStats, evaluate_rom, fit_rom,
                        load_rom, pipeline, save_rom, wrap_angle)
from bladesense.azimuthal_rom import fourier_design, fourier_eval
from bladesense.cli import main
from bladesense.dataset import TWO_PI
from bladesense.errors import SchemaError, ValidationError

from conftest import random_spd
from test_pipeline_cli import SYNTH_CONFIG


def _centers(n_theta):
    return (np.arange(n_theta) + 0.5) * TWO_PI / n_theta


def _fit_series(values, n_fourier):
    """fit_rom on one mode sampled once at each of ``values.size`` uniform
    azimuths at one wind speed; returns the mean coefficients and the
    residual norm of the fitted series at those azimuths."""
    theta = _centers(values.size)
    model = fit_rom([(values[None, :], theta, np.full(values.size, 10.0))],
                    n_fourier)
    coeffs = model.mean_coeffs[0]
    return coeffs, np.linalg.norm(fourier_eval(coeffs, theta) - values)


def _joint_cases(rng, alpha, beta, u_ref, speeds, n_t=400, sigma=0.0):
    """Cases whose coordinates follow the joint mean exactly, plus white
    noise of std ``sigma``: one per nominal speed, the wind wandering
    about it."""
    cases = []
    for u_nom in speeds:
        theta = rng.uniform(0.0, TWO_PI, n_t)
        u = u_nom + 0.5 * rng.standard_normal(n_t)
        f = fourier_design(theta, (alpha.shape[1] - 1) // 2)
        a = (f @ alpha.T + (u - u_ref)[:, None] * (f @ beta.T)).T
        cases.append((a + sigma * rng.standard_normal(a.shape), theta, u))
    return cases


def _stacked_fit(cases, n_fourier):
    """Reference fit: one np.linalg.lstsq over the stacked samples of every
    case for the tables, and per case one over the stacked samples of the
    other cases (with a single case, the fit itself). Returns the table
    [alpha; beta], the fold tables and the pooled fold error covariance."""
    u_all = np.concatenate([u for *_, u in cases])
    u_ref = float(u_all.mean())
    blocks = []
    for a, theta, u in cases:
        f = fourier_design(theta, n_fourier)
        blocks.append((np.hstack([f, (u - u_ref)[:, None] * f]), a.T))
    X = np.concatenate([x for x, _ in blocks])
    Y = np.concatenate([y for _, y in blocks])
    coeffs = np.linalg.lstsq(X, Y, rcond=None)[0]
    folds, second = [], 0.0
    for i, (X_i, Y_i) in enumerate(blocks):
        rest = [b for j, b in enumerate(blocks) if j != i] or blocks
        folds.append(np.linalg.lstsq(np.concatenate([x for x, _ in rest]),
                                     np.concatenate([y for _, y in rest]),
                                     rcond=None)[0])
        error = Y_i - X_i @ folds[-1]
        second = second + error.T @ error
    return coeffs, folds, second / len(Y)


def _relative(got, ref):
    return np.abs(got - ref).max() / np.abs(ref).max()


@pytest.fixture(scope="module")
def twin_cases(tmp_path_factory):
    """The training cases the ``fit-rom`` command passes to fit_rom on the
    tier-1 twin (``synth --seed 0``)."""
    root = tmp_path_factory.mktemp("twin_rom")
    (root / "synth.json").write_text(json.dumps(SYNTH_CONFIG))
    assert main(["synth", "--config", str(root / "synth.json"), "--seed",
                 "0", "--out", str(root / "cases")]) == 0
    seen = []

    def recording(cases, *args):
        seen.append(cases)
        return fit_rom(cases, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "fit_rom", recording)
        assert main(["fit-rom", "--config",
                     str(root / "cases" / "pipeline_config.json"),
                     "--out", str(root / "out")]) == 0
    return seen[0]


def _many_cases(n_cases=20, n_t=300, seed=11):
    """Noisy cases of the joint model class, one per speed over 7-12 m/s."""
    rng = np.random.default_rng(seed)
    alpha = rng.uniform(-1.0, 1.0, (3, 13))
    beta = rng.uniform(-0.2, 0.2, (3, 13))
    return _joint_cases(rng, alpha, beta, 9.5,
                        np.linspace(7.0, 12.0, n_cases), n_t=n_t, sigma=0.3)


class TestPerCaseSums:
    """The fit and its leave-one-case-out folds come from per-case sums;
    they match one least-squares solve over the stacked samples."""

    @pytest.mark.parametrize("which", ["twin", "twenty", "one"])
    def test_fit_and_folds_match_the_stacked_solves(self, which, twin_cases,
                                                    monkeypatch):
        cases = {"twin": twin_cases, "twenty": _many_cases(),
                 "one": _many_cases(1, 1000)}[which]
        ref, ref_folds, ref_cov = _stacked_fit(cases, 6)
        solved, lstsq = [], np.linalg.lstsq

        def recording(a, b, rcond=None):
            out = lstsq(a, b, rcond=rcond)
            solved.append(out[0])
            return out

        monkeypatch.setattr(np.linalg, "lstsq", recording)
        model = fit_rom(cases, 6)
        # the fit, then one fold per case; a single case's fold is the fit
        assert len(solved) == (len(cases) + 1 if len(cases) > 1 else 1)
        assert _relative(solved[0], ref) <= 1e-12
        for fold, ref_fold in zip(solved[1:], ref_folds):
            assert _relative(fold, ref_fold) <= 1e-12
        assert _relative(np.vstack([model.mean_coeffs.T,
                                    model.slope_coeffs.T]), ref) <= 1e-12
        assert _relative(model.covariance, ref_cov) <= 1e-12

    def test_case_order_does_not_matter(self):
        cases = _many_cases()
        model = fit_rom(cases, 6)
        order = np.random.default_rng(1).permutation(len(cases))
        permuted = fit_rom([cases[i] for i in order], 6)
        assert permuted.u_range == model.u_range
        assert permuted.u_ref == pytest.approx(model.u_ref, rel=1e-13)
        for name in ("mean_coeffs", "slope_coeffs", "covariance"):
            assert _relative(getattr(permuted, name),
                             getattr(model, name)) <= 1e-13, name

    def test_no_solve_sees_more_rows_than_regressors(self, monkeypatch):
        # every solve is 2 (1 + 2 n_F) rows square, whatever the number of
        # cases and samples
        rows, lstsq = [], np.linalg.lstsq

        def recording(a, b, rcond=None):
            rows.append(a.shape[0])
            return lstsq(a, b, rcond=rcond)

        monkeypatch.setattr(np.linalg, "lstsq", recording)
        fit_rom(_many_cases(20, 2000), 6)
        fit_rom(_many_cases(3, 500), 2)
        assert rows == [26] * 21 + [10] * 4


class TestFitFourier:
    def test_constant_function(self):
        coeffs, resid = _fit_series(np.full(72, 2.0), 6)
        assert coeffs[0] == pytest.approx(2.0, abs=1e-12)
        assert np.allclose(coeffs[1:], 0.0, atol=1e-12)
        assert resid <= 1e-12

    def test_in_class_signal_exact(self):
        centers = _centers(72)
        values = 3.0 * np.cos(centers) + np.sin(2 * centers)
        coeffs, resid = _fit_series(values, 6)
        expected = np.zeros(13)
        expected[1] = 3.0   # c_1
        expected[4] = 1.0   # s_2
        assert np.allclose(coeffs, expected, atol=1e-10)
        assert resid <= 1e-10

    def test_aliased_harmonic_leaves_residual(self):
        centers = _centers(72)
        values = np.cos(7 * centers)  # outside the n_F=6 model class
        coeffs, resid = _fit_series(values, 6)
        assert resid > 0.5 * np.linalg.norm(values)
        # on the uniform 72-point grid cos(7 theta) is orthogonal to every
        # retained regressor, so the coefficients collapse to zero
        assert np.allclose(coeffs, 0.0, atol=1e-10)

    def test_one_series_at_one_azimuth(self):
        # a scalar azimuth gives a float for one series, one value per row
        # for a table, as the array form gives them
        coeffs = np.random.default_rng(0).standard_normal((3, 13))
        got = fourier_eval(coeffs[0], 0.3)
        assert type(got) is float
        assert got == fourier_eval(coeffs[0], np.array([0.3]))[0]
        assert np.array_equal(fourier_eval(coeffs, 0.3),
                              fourier_eval(coeffs, np.array([0.3]))[:, 0])

    def test_too_few_azimuths(self):
        with pytest.raises(ValidationError, match="need more azimuths"):
            _fit_series(np.zeros(8), 6)
        # 12 distinct azimuths determine 12 of the 13 terms, 13 all of them
        with pytest.raises(ValidationError, match="determine 12 of the 13"):
            _fit_series(np.ones(12), 6)
        coeffs, resid = _fit_series(np.ones(13), 6)
        assert np.allclose(coeffs, np.eye(13)[0], atol=1e-12)
        assert resid <= 1e-12


class TestFitRom:
    def test_constant_data_reproduced(self):
        # a constant mean with noise about it: the tables give the constant
        # and the covariance the noise's second moment about it
        rng = np.random.default_rng(9)
        theta = _centers(72)
        a = 1.7 + np.tile([-0.5, 0.5], 36)[None, :]
        model = fit_rom([(a, theta, np.full(72, 10.0))], 6)
        g = evaluate_rom(model, 1.234, 10.0 + rng.standard_normal(), 0.10)
        assert g.mean[0] == pytest.approx(1.7, abs=1e-10)
        assert g.covariance[0, 0] == pytest.approx(0.25, abs=1e-10)

    def test_pure_1p_sinusoid_captured(self):
        theta = _centers(72)
        a = 2.0 * np.sin(theta)[None, :]
        coeffs = fit_rom([(a, theta, np.full(72, 10.0))], 6).mean_coeffs[0]
        assert coeffs[2] == pytest.approx(2.0, abs=1e-10)  # s_1
        assert np.allclose(np.delete(coeffs, 2), 0.0, atol=1e-10)

    def test_joint_tables_recovered(self):
        # noise-free coordinates of the model class: alpha and beta come
        # back exactly, from cases at three speeds, and the error is zero
        rng = np.random.default_rng(5)
        alpha = rng.uniform(-1.0, 1.0, (3, 13))
        beta = rng.uniform(-0.2, 0.2, (3, 13))
        cases = _joint_cases(rng, alpha, beta, 0.0, (8.0, 10.0, 12.0))
        u_ref = float(np.mean(np.concatenate([u for *_, u in cases])))
        # the fit centres u on the mean training speed: alpha moves with it
        model = fit_rom(cases, 6)
        assert model.u_ref == u_ref
        assert np.abs(model.slope_coeffs - beta).max() <= 1e-10
        assert np.abs(model.mean_coeffs - (alpha + u_ref * beta)).max() <= 1e-9
        assert np.abs(model.covariance).max() <= 1e-18
        u_all = np.concatenate([u for *_, u in cases])
        assert model.u_range == (u_all.min(), u_all.max())

    def test_single_case_uses_the_in_sample_error(self):
        # with one training case there is nothing to leave out: the
        # covariance is that of the samples about the fitted mean
        rng = np.random.default_rng(3)
        theta = rng.uniform(0.0, TWO_PI, 3000)
        u = 9.0 + rng.standard_normal(3000)
        a = rng.standard_normal((3, 3000)) + np.cos(theta) + 0.1 * u * np.sin(5 * theta)
        model = fit_rom([(a, theta, u)], 6)
        f = fourier_design(theta, 6)
        X = np.hstack([f, (u - u.mean())[:, None] * f])
        coeffs = np.linalg.lstsq(X, a.T, rcond=None)[0]
        resid = a.T - X @ coeffs
        ref = resid.T @ resid / u.size
        assert np.abs(model.covariance - ref).max() <= 1e-12 * np.abs(ref).max()
        assert np.array_equal(model.covariance, model.covariance.T)

    def test_covariance_is_the_pooled_leave_one_case_out_error(self):
        # oracle: per case, the normal equations of the other cases
        rng = np.random.default_rng(4)
        alpha = rng.uniform(-1.0, 1.0, (2, 5))
        beta = rng.uniform(-0.2, 0.2, (2, 5))
        cases = _joint_cases(rng, alpha, beta, 10.0, (8.0, 9.5, 11.0, 12.0),
                             n_t=300, sigma=0.3)
        model = fit_rom(cases, 2)
        u_ref = float(np.mean(np.concatenate([u for *_, u in cases])))
        blocks = []
        for a, theta, u in cases:
            f = fourier_design(theta, 2)
            X = np.hstack([f, (u - u_ref)[:, None] * f])
            blocks.append((X, a.T))
        second, n = 0.0, 0
        for c, (X_c, Y_c) in enumerate(blocks):
            G = sum(X.T @ X for i, (X, _) in enumerate(blocks) if i != c)
            b = sum(X.T @ Y for i, (X, Y) in enumerate(blocks) if i != c)
            err = Y_c - X_c @ np.linalg.solve(G, b)
            second, n = second + err.T @ err, n + len(Y_c)
        ref = second / n
        assert np.abs(model.covariance - ref).max() <= 1e-10 * np.abs(ref).max()
        # the left-out error is larger than the in-sample one
        in_sample = fit_rom([(np.hstack([a for a, *_ in cases]),
                              np.concatenate([t for _, t, _ in cases]),
                              np.concatenate([u for *_, u in cases]))], 2)
        assert np.trace(model.covariance) > np.trace(in_sample.covariance)

    def test_constant_wind_gives_zero_slopes(self):
        rng = np.random.default_rng(6)
        theta = rng.uniform(0.0, TWO_PI, 500)
        a = np.cos(theta)[None, :] + 0.1 * rng.standard_normal((1, 500))
        model = fit_rom([(a, theta, np.full(500, 9.0)),
                         (a, theta, np.full(500, 9.0))], 3)
        assert not model.slope_coeffs.any()
        assert model.u_range == (9.0, 9.0)

    def test_conditions_kept_as_given(self):
        rng = np.random.default_rng(7)
        cases = _joint_cases(rng, np.ones((1, 3)), np.zeros((1, 3)), 9.0,
                             (8.0, 10.0), n_t=50)
        record = [{"u_mean": 8.0, "ti": 0.1}, {"u_mean": 10.0, "ti": 0.1}]
        assert fit_rom(cases, 1, record).conditions == record

    def test_mismatched_cases_rejected(self):
        theta = np.linspace(0.0, 6.0, 40)
        with pytest.raises(ValidationError, match="training case 1"):
            fit_rom([(np.zeros((2, 40)), theta, theta),
                     (np.zeros((3, 40)), theta, theta)], 2)
        with pytest.raises(ValidationError, match="training case 0"):
            fit_rom([(np.zeros((2, 40)), theta[:-1], theta)], 2)
        with pytest.raises(ValidationError, match="no training cases"):
            fit_rom([], 2)


def _model(seed=0, n_modes=2):
    """A joint model with random tables about 10 m/s, trained over 8-12 m/s."""
    rng = np.random.default_rng(seed)
    return AzimuthalRomModel(
        n_fourier=6, u_ref=10.0, u_range=(8.0, 12.0),
        mean_coeffs=rng.standard_normal((n_modes, 13)),
        slope_coeffs=0.1 * rng.standard_normal((n_modes, 13)),
        covariance=random_spd(rng, n_modes, 0.1))


class TestEvaluateRom:
    def test_mean_follows_the_tables(self):
        model = _model()
        for theta, u in ((0.3, 10.0), (4.0, 8.5), (6.2, 13.0)):
            g = evaluate_rom(model, theta, u, 0.1)
            expected = (fourier_eval(model.mean_coeffs, theta)
                        + (u - 10.0) * fourier_eval(model.slope_coeffs, theta))
            assert np.allclose(g.mean, expected, atol=1e-12)

    def test_linear_in_wind_inside_and_beyond_the_trained_range(self):
        model = _model()
        theta = 0.7
        means = [evaluate_rom(model, theta, u, 0.1).mean
                 for u in (2.0, 8.0, 10.0, 12.0, 30.0)]
        slope = (means[3] - means[1]) / 4.0
        assert np.allclose(means[2], 0.5 * (means[1] + means[3]), atol=1e-12)
        # no clamping: beyond the trained speeds the line continues
        assert np.allclose(means[0], means[1] - 6.0 * slope, atol=1e-11)
        assert np.allclose(means[4], means[3] + 18.0 * slope, atol=1e-11)

    def test_one_read_only_covariance_shared_by_every_step(self):
        model = _model()
        theta = np.linspace(0.0, 6.0, 50)
        for g in (evaluate_rom(model, 1.0, 9.0, 0.1),
                  evaluate_rom(model, theta, 9.0, 0.1),
                  evaluate_rom(model, theta, np.linspace(5.0, 15.0, 50), 0.1)):
            assert g.covariance is model.covariance
        assert not model.covariance.flags.writeable
        assert np.linalg.eigvalsh(model.covariance).min() > 0.0

    def test_turbulence_intensity_ignored(self):
        model = _model()
        ref = evaluate_rom(model, 2.0, 9.0, 0.1)
        for ti in (0.05, 0.3, None):
            assert np.array_equal(evaluate_rom(model, 2.0, 9.0, ti).mean, ref.mean)

    def test_steps_beyond_the_trained_speeds_counted(self):
        model = _model()
        stats = RomStats()
        u = np.array([7.9, 8.0, 10.0, 12.0, 12.1, 20.0])
        evaluate_rom(model, np.zeros(6), u, 0.1, stats)
        # the range ends themselves are trained
        assert (stats.steps, stats.extrapolated_low,
                stats.extrapolated_high) == (6, 1, 2)
        evaluate_rom(model, 1.0, 3.0, 0.1, stats)
        assert (stats.steps, stats.extrapolated_low) == (7, 2)

    def test_periodicity_after_wrapping(self):
        model = _model()
        for theta in (0.0, 0.9, 3.3, 6.1):
            g1 = evaluate_rom(model, wrap_angle(theta), 9.0, 0.10)
            g2 = evaluate_rom(model, wrap_angle(theta + TWO_PI), 9.0, 0.10)
            assert np.allclose(g1.mean, g2.mean, atol=1e-9)
            # identical wrapped inputs give bit-identical outputs
            g3 = evaluate_rom(model, wrap_angle(theta), 9.0, 0.10)
            assert np.array_equal(g1.mean, g3.mean)


class TestModel:
    def test_rejects_tables_of_the_wrong_shape(self):
        good = _model()
        kwargs = dict(n_fourier=6, u_ref=10.0, u_range=(8.0, 12.0),
                      mean_coeffs=good.mean_coeffs,
                      slope_coeffs=good.slope_coeffs,
                      covariance=good.covariance)
        for key, bad in (("mean_coeffs", good.mean_coeffs[:, :-2]),
                         ("slope_coeffs", good.slope_coeffs[:1]),
                         ("covariance", good.covariance[:1, :1])):
            with pytest.raises(ValidationError, match="must be"):
                AzimuthalRomModel(**{**kwargs, key: bad})
        with pytest.raises(ValidationError, match="u_range"):
            AzimuthalRomModel(**{**kwargs, "u_range": (12.0, 8.0)})
        nan = good.slope_coeffs.copy()
        nan[1, 3] = np.nan
        with pytest.raises(ValidationError, match="slope_coeffs must be finite"):
            AzimuthalRomModel(**{**kwargs, "slope_coeffs": nan})


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        model = _model()
        model.conditions = [{"u_mean": 8.0, "ti": 0.1}, {"u_mean": 12.0, "ti": 0.1}]
        path = tmp_path / "rom.json"
        save_rom(model, path)
        back = load_rom(path)
        assert (back.n_fourier, back.u_ref, back.u_range, back.conditions) == (
            model.n_fourier, model.u_ref, model.u_range, model.conditions)
        for name in ("mean_coeffs", "slope_coeffs", "covariance"):
            assert np.array_equal(getattr(back, name), getattr(model, name))

    def test_former_binned_layout_rejected(self, tmp_path):
        path = tmp_path / "rom.json"
        save_rom(_model(), path)
        doc = json.loads(path.read_text())
        doc["n_theta"] = 72
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="n_theta"):
            load_rom(path)

    @pytest.mark.parametrize("key, value, match", [
        ("covariance", [[1.0, 0.0], [0.0, -0.5]], "not PSD"),
        ("u_range", [8.0], "u_range"),
        ("mean_coeffs", [[1.0] * 13, [1.0] * 12], "rom.json"),
    ])
    def test_bad_model_rejected_naming_the_file(self, tmp_path, key, value,
                                                match):
        path = tmp_path / "rom.json"
        save_rom(_model(), path)
        doc = json.loads(path.read_text())
        doc[key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=match) as err:
            load_rom(path)
        assert str(path) in str(err.value)


class TestDataSufficiency:
    def test_doubling_samples_tightens_the_fitted_mean(self):
        # paired short/long records; doubling the samples must usually
        # shrink the worst deviation of the fitted mean from the true one
        truth = np.zeros(13)
        truth[0], truth[1], truth[4] = 1.0, 0.8, 0.3
        grid = _centers(36)
        improvements = 0
        n_pairs = 12
        for seed in range(n_pairs):
            rng = np.random.default_rng(1000 + seed)

            def max_dev(n_samples, rng=rng):
                theta = rng.uniform(0, TWO_PI, n_samples)
                a = fourier_eval(truth, theta) + rng.normal(0, 0.5, n_samples)
                model = fit_rom([(a[None, :], theta, np.full(n_samples, 9.0))], 6)
                return np.max(np.abs(fourier_eval(model.mean_coeffs[0], grid)
                                     - fourier_eval(truth, grid)))

            if max_dev(2 * 36 * 60) < max_dev(36 * 60):
                improvements += 1
        # one-sided sign test at the 95% level for 12 pairs
        assert improvements >= 10
