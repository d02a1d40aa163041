"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; ``pytest -v`` gives the equivalent pass/fail status per test name.
Criterion 9 (harmonic mode extraction) is retired with the code it
checked; the other criteria keep their numbers.
"""

import json
import time

import numpy as np

from bladesense import (GaussianReduced, NoiseModel, fit_torsion_model, fuse,
                        infer_torsion, load_case, load_torsion, observe,
                        place_sensors, pod_fit, project, psd, sparse_estimate)
from bladesense.azimuthal_rom import evaluate_rom, fit_rom
from bladesense.cli import main
from bladesense.dataset import TWO_PI
from bladesense.sensing import sensor_dof_rows
from bladesense.synthetic import (SyntheticCaseSpec, TorsionTwin,
                                  blade_demo_modes, demo_grid, generate_case,
                                  orthonormal_polynomial_modes)

from conftest import (align_sign, basis_from_modes, dense_pod_oracle,
                      random_spd, torsion_cases)


def _pass(num: int, label: str) -> None:
    print(f"ACCEPTANCE {num:02d} PASS - {label}")


def _spec(name, grid, *, u_mean=10.0, ti=0.10, omega=1.0, duration_s=40.0,
          f_s=80.0, azimuthal_mean=None, ar_rho=0.9, ar_sigma=0.0,
          noise_sigma=0.0, torsion=None, n_modes=4):
    modes = orthonormal_polynomial_modes(grid, n_modes)
    if azimuthal_mean is None:
        azimuthal_mean = np.zeros((n_modes, 7))
    return SyntheticCaseSpec(
        name=name, grid=grid, u_mean=u_mean, ti=ti, omega=omega,
        duration_s=duration_s, f_s=f_s, true_modes=modes,
        mean_field=np.zeros(grid.n_dof),
        azimuthal_mean=azimuthal_mean,
        ar_rho=np.full(n_modes, ar_rho),
        ar_sigma=np.full(n_modes, ar_sigma),
        noise_sigma=noise_sigma, torsion=torsion,
    )


_AZIMUTHAL_MEAN = np.array([
    # c0,  c1,   s1,   c2,   s2,    c3,   s3
    [3.0, 1.2, 0.00, 0.30, 0.00, 0.10, 0.00],
    [0.0, 0.0, 1.50, 0.00, 0.00, 0.00, 0.00],
    [0.8, -0.4, 0.10, 0.25, 0.00, 0.15, 0.05],
    [0.2, 0.0, 0.10, 0.10, 0.05, 0.00, 0.00],
])


def test_criterion_01_pod_oracle_equivalence(tmp_path):
    grid = demo_grid(n_z=6)
    spec = _spec("pod", grid, azimuthal_mean=_AZIMUTHAL_MEAN, ar_sigma=0.15,
                 noise_sigma=0.05, duration_s=2.5, f_s=80.0)  # 200 snapshots
    manifest = generate_case(spec, 0, tmp_path)
    _, ens = load_case(manifest)
    assert ens.n_t == 200

    start = time.monotonic()
    basis = pod_fit(ens, 6)
    eigs, modes = dense_pod_oracle(ens.D, grid)
    elapsed = time.monotonic() - start

    assert np.allclose(basis.energies, eigs[:6], rtol=1e-10)
    aligned = align_sign(modes[:, :6], basis.modes)
    assert np.abs(aligned - basis.modes).max() <= 1e-8
    assert elapsed < 1.0
    _pass(1, f"POD matches dense eigensolve oracle ({elapsed:.3f} s)")


def test_criterion_02_exact_sparse_recovery(tmp_path):
    grid = demo_grid(n_z=12)
    spec = _spec("exact", grid, azimuthal_mean=_AZIMUTHAL_MEAN, ar_sigma=0.1,
                 duration_s=62.5, f_s=160.0)  # 10^4 steps
    manifest = generate_case(spec, 1, tmp_path)
    _, ens = load_case(manifest)
    assert ens.n_t == 10**4

    basis = pod_fit(ens, 4)
    sensors = place_sensors(basis, 4)
    noise = NoiseModel(0.0, 4)
    a_proj = project(ens.D, basis)
    a_scale = max(1.0, np.abs(a_proj).max())
    field_scale = max(1.0, np.abs(ens.D).max())

    start = time.monotonic()
    worst_a = 0.0
    worst_field = 0.0
    for k in range(ens.n_t):
        y = observe(ens.D[:, k], sensors)
        est = sparse_estimate(y, sensors, noise, mode="gram_corrected")
        worst_a = max(worst_a, np.abs(est.mean - a_proj[:, k]).max())
        field = basis.mean_field + basis.modes @ est.mean
        worst_field = max(worst_field, np.abs(field - ens.D[:, k]).max())
    elapsed = time.monotonic() - start

    assert worst_a / a_scale <= 1e-8
    assert worst_field / field_scale <= 1e-8
    assert elapsed < 10.0
    _pass(2, f"noise-free sparse recovery exact ({elapsed:.2f} s for 1e4 steps)")


def test_criterion_03_fusion_dominance(tmp_path):
    grid = demo_grid(n_z=12)
    sigma_meas = 0.1
    train_seeds = (0, 1, 2)
    eval_seeds = (10, 11, 12, 13, 14)

    def make(name, seed, duration):
        spec = _spec(name, grid, azimuthal_mean=_AZIMUTHAL_MEAN,
                     ar_rho=0.9, ar_sigma=0.035, duration_s=duration,
                     f_s=80.0, omega=1.0)
        manifest = generate_case(spec, seed, tmp_path)
        _, ens = load_case(manifest)
        return ens

    train = [make(f"tr{s}", s, 40.0) for s in train_seeds]
    D_all = np.hstack([e.D for e in train])
    pooled = train[0]
    basis = pod_fit(
        type(pooled)(grid=grid, D=D_all,
                     t=np.arange(D_all.shape[1]) / pooled.f_s,
                     theta=np.concatenate([e.theta for e in train]),
                     omega=np.concatenate([e.omega for e in train]),
                     u_raw=np.concatenate([e.u_raw for e in train]),
                     u_filt=np.concatenate([e.u_filt for e in train]),
                     condition=pooled.condition, f_s=pooled.f_s), 4)
    sensors = place_sensors(basis, 4)
    noise = NoiseModel(sigma_meas, 4)
    rom = fit_rom([(project(e.D, basis), e.theta, e.u_filt) for e in train])

    rmse = {src: [] for src in ("sparse", "rom", "fused")}
    for j, seed in enumerate(eval_seeds):
        ens = make(f"ev{seed}", seed, 15.0)
        a_true = project(ens.D, basis)
        rng = np.random.default_rng(2000 + j)
        err = {src: 0.0 for src in rmse}
        for k in range(ens.n_t):
            y = observe(ens.D[:, k], sensors, noise, rng)
            meas = sparse_estimate(y, sensors, noise)
            prior = evaluate_rom(rom, ens.theta[k], ens.u_filt[k], 0.10)
            fused, _ = fuse(prior, meas)
            err["sparse"] += np.sum((meas.mean - a_true[:, k]) ** 2)
            err["rom"] += np.sum((prior.mean - a_true[:, k]) ** 2)
            err["fused"] += np.sum((fused.mean - a_true[:, k]) ** 2)
        for src in rmse:
            rmse[src].append(np.sqrt(err[src] / ens.n_t))

    mean_rmse = {src: float(np.mean(v)) for src, v in rmse.items()}
    assert mean_rmse["fused"] <= 1.05 * mean_rmse["sparse"], mean_rmse
    assert mean_rmse["fused"] <= 1.05 * mean_rmse["rom"], mean_rmse
    _pass(3, "fused RMSE {fused:.4f} <= sparse {sparse:.4f} and "
             "ROM {rom:.4f} over 5 seeds".format(**mean_rmse))


def test_criterion_04_kalman_trace_property():
    rng = np.random.default_rng(77)
    violations = 0
    for _ in range(1000):
        prior = GaussianReduced(rng.standard_normal(4), random_spd(rng, 4))
        meas = GaussianReduced(rng.standard_normal(4), random_spd(rng, 4))
        fused, _ = fuse(prior, meas)
        bound = min(np.trace(prior.covariance), np.trace(meas.covariance))
        if np.trace(fused.covariance) > bound + 1e-12:
            violations += 1
    assert violations == 0
    _pass(4, "trace(fused) <= min(traces) in 1000/1000 random SPD pairs")


def test_criterion_05_fourier_rom_recovery(tmp_path):
    grid = demo_grid(n_z=10)
    # the prior is fitted to the samples themselves, with no azimuth
    # binning and so no binning bias; the wind wanders about 10 m/s, and
    # the truth does not follow it
    azimuthal = np.array([
        [1.0, 1.2, -0.6, 0.30, 0.15, 0.12, -0.08],
        [0.0, -0.8, 1.0, -0.25, 0.10, 0.05, 0.10],
        [0.5, 0.3, 0.4, 0.20, -0.20, -0.10, 0.05],
        [-0.2, 0.5, -0.3, 0.15, 0.10, 0.02, -0.05],
    ])
    spec = _spec("rom", grid, azimuthal_mean=azimuthal, ar_sigma=0.0,
                 duration_s=120.0, f_s=80.0, omega=0.83)
    manifest = generate_case(spec, 0, tmp_path)
    _, ens = load_case(manifest)

    basis = basis_from_modes(grid, spec.true_modes)
    a = project(ens.D, basis)
    assert np.ptp(ens.u_filt) > 0.0
    rom = fit_rom([(a, ens.theta, ens.u_filt)])

    fitted = rom.mean_coeffs
    truth_tab = np.zeros_like(fitted)
    truth_tab[:, :azimuthal.shape[1]] = azimuthal
    assert np.abs(fitted - truth_tab).max() <= 1e-3

    assert np.abs(rom.slope_coeffs).max() <= 1e-3
    for theta in np.linspace(0.0, TWO_PI, 500, endpoint=False):
        g = evaluate_rom(rom, theta, 10.0, 0.10)
        assert np.linalg.eigvalsh(g.covariance).min() >= 0.0
    _pass(5, f"mean tables recovered to "
             f"{np.abs(fitted - truth_tab).max():.1e} <= 1e-3, "
             f"covariance PSD everywhere")


def test_criterion_06_sensor_placement_quality():
    grid = demo_grid(n_z=12)
    basis = basis_from_modes(grid, blade_demo_modes(grid))
    sensors = place_sensors(basis, 4)
    cond_qr = np.linalg.cond(sensors.sampled_basis)
    rng = np.random.default_rng(314)
    conds = []
    for _ in range(1000):
        stations = rng.choice(grid.n_z, size=4, replace=False)
        rows = sensor_dof_rows(stations, grid.n_z)
        conds.append(np.linalg.cond(basis.modes[rows, :]))
    p5 = np.percentile(conds, 5.0)
    assert cond_qr <= p5
    _pass(6, f"QR placement cond {cond_qr:.3f} <= 5th percentile {p5:.3f}")


def test_criterion_07_spectral_signature(tmp_path):
    grid = demo_grid(n_z=8)
    # 1P on mode 1, 2P on mode 2 and 3P on mode 3, as cosines in theta
    tones = np.zeros((4, 7))
    tones[0, 1], tones[1, 3], tones[2, 5] = 2.0, 1.0, 0.5
    spec = _spec("tones", grid, azimuthal_mean=tones, ar_sigma=0.0,
                 duration_s=240.0, f_s=40.0, omega=1.0)
    manifest = generate_case(spec, 2, tmp_path)
    _, ens = load_case(manifest)
    f_1p = spec.omega / TWO_PI
    tip_x = grid.n_z - 1
    signal = ens.D[tip_x, :] - ens.D[tip_x, :].mean()

    from scipy.signal import find_peaks
    f_hat, raw, smoothed = psd(signal, ens.f_s, f_1p)
    bin_width = f_hat[1] - f_hat[0]
    for smooth, power in (("raw", raw), ("smoothed", smoothed)):
        for target in (1.0, 2.0, 3.0):
            window = (f_hat > target - 0.5) & (f_hat < target + 0.5)
            peak = f_hat[window][np.argmax(power[window])]
            assert abs(peak - target) <= bin_width, (smooth, target, peak)
        # the three largest local maxima are the nP lines
        idx, _ = find_peaks(power)
        top3 = np.sort(f_hat[idx[np.argsort(power[idx])[::-1][:3]]])
        assert np.all(np.abs(top3 - np.array([1.0, 2.0, 3.0])) <= bin_width), \
            (smooth, top3)
    _pass(7, "tip PSD peaks at 1P/2P/3P within one bin, raw and smoothed")


def test_criterion_08_torsion_inference(tmp_path):
    grid = demo_grid(n_z=10)
    modes6 = orthonormal_polynomial_modes(grid, 6)
    coupling = np.array([
        [0.8, 0.1, 0.0, 0.05],
        [0.1, 0.6, 0.1, 0.00],
        [0.0, 0.1, 0.5, 0.10],
        [0.05, 0.0, 0.1, 0.40],
        [0.02, 0.02, 0.05, 0.20],
    ])
    torsion = TorsionTwin(modes=modes6[:, [4, 5, 0, 1, 2]],
                          mean_field=np.zeros(grid.n_dof),
                          coupling=coupling)

    def make(seed):
        spec = _spec(f"tor{seed}", grid, azimuthal_mean=_AZIMUTHAL_MEAN,
                     ar_rho=0.9, ar_sigma=0.15, duration_s=50.0, f_s=80.0,
                     torsion=torsion)
        manifest = generate_case(spec, seed, tmp_path)
        _, defl = load_case(manifest)
        return defl, load_torsion(manifest, defl.D.shape)

    # exact recovery of the field map psi M0 on synthetic coordinates
    rng = np.random.default_rng(5)
    psi = modes6[:, :5]
    M0 = rng.standard_normal((5, 4))
    a_syn = rng.standard_normal((4, 2000))
    a_syn -= a_syn.mean(axis=1, keepdims=True)
    fitted, _ = fit_torsion_model(
        [a_syn], torsion_cases(psi, M0, [a_syn]), grid)
    assert np.abs(fitted.field_map - psi @ M0).max() <= 1e-8

    defl_a, tau_a = make(0)
    defl_b, tau_b = make(1)

    def evaluate(noise_scale):
        rng = np.random.default_rng(42)

        def noisy(mat):
            # SNR 10 relative to each row's own fluctuation level
            if noise_scale == 0.0:
                return mat
            centered = mat - mat.mean(axis=1, keepdims=True)
            sigma = np.sqrt(np.mean(centered**2, axis=1)) * noise_scale
            return mat + sigma[:, None] * rng.standard_normal(mat.shape)

        D_a, T_a = noisy(defl_a.D), noisy(tau_a)
        D_b = noisy(defl_b.D)
        basis = pod_fit(type(defl_a)(
            grid=grid, D=D_a, t=defl_a.t, theta=defl_a.theta,
            omega=defl_a.omega, u_raw=defl_a.u_raw, u_filt=defl_a.u_filt,
            condition=defl_a.condition, f_s=defl_a.f_s), 4)
        model, _ = fit_torsion_model([project(D_a, basis)], [T_a], grid)
        tau_hat = infer_torsion(project(D_b, basis), model)
        truth_tau = tau_b
        r2 = []
        for row in range(truth_tau.shape[0]):
            ss_tot = np.sum((truth_tau[row] - truth_tau[row].mean()) ** 2)
            if ss_tot < 1e-12:
                continue
            ss_res = np.sum((tau_hat[row] - truth_tau[row]) ** 2)
            r2.append(1.0 - ss_res / ss_tot)
        return min(r2)

    r2_clean = evaluate(0.0)
    assert r2_clean >= 0.99, r2_clean
    r2_noisy = evaluate(0.1)  # SNR 10
    assert r2_noisy >= 0.8, r2_noisy
    _pass(8, f"torsion map exact to 1e-8; held-out R2 clean {r2_clean:.4f}, "
             f"SNR-10 {r2_noisy:.4f}")


def test_criterion_10_end_to_end_budget_and_determinism(tmp_path):
    start = time.monotonic()
    out = tmp_path / "qs"
    assert main(["synth", "--out", str(out), "--seed", "0"]) == 0
    cfg = out / "pipeline_config.json"
    assert main(["pipeline", "--config", str(cfg),
                 "--out", str(out / "r1")]) == 0
    assert main(["pipeline", "--config", str(cfg),
                 "--out", str(out / "r2")]) == 0
    elapsed = time.monotonic() - start

    listing = json.loads((out / "r1" / "artifacts.json").read_text())["files"]
    assert listing
    for name in listing + ["artifacts.json"]:
        assert (out / "r1" / name).exists(), name
        assert (out / "r1" / name).read_bytes() == \
            (out / "r2" / name).read_bytes(), name
    assert not (out / "r1" / "FAILED").exists()
    assert elapsed < 60.0
    _pass(10, f"quickstart pipeline complete, byte-identical twice "
              f"({elapsed:.1f} s for both runs)")
