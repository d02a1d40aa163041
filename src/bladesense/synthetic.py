"""Ground-truth twin: blade-like ensembles with known modes and dynamics.

The generator replaces a high-fidelity aeroelastic stack for verification
purposes. Reduced coordinates follow a prescribed azimuthal mean (truncated
Fourier series in theta, which also carries the per-revolution tones) and
an AR(1) fluctuation; the full field is built from orthonormal root-clamped
mode shapes (a monomial family and a blade-like family with localized
features). Rotor speed is frozen per case so the ground truth stays
closed-form, and the wind channel is synthesized as u_mean * (1 + TI *
AR(1)) to exercise condition resolution downstream.

A case is written as the dataset schema's files and nothing else, and
:func:`generate_case` returns its manifest path. Everything is deterministic
in (spec, seed): generating a case twice yields byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .azimuthal_rom import fourier_design
from .dataset import (BladeGrid, ConditionKey, SnapshotEnsemble, _first_order,
                      save_case, smooth_wind, wrap_angle)
from .decomposition import dof_weights
from .errors import ValidationError

_WIND_AR_RHO = 0.999


@dataclass(frozen=True)
class TorsionTwin:
    """Optional torsional side of a synthetic case: tau = mean + Xi (M a)."""

    modes: np.ndarray     # (3*n_z, J) orthonormal, root-clamped
    mean_field: np.ndarray
    coupling: np.ndarray  # (J, N_true)


@dataclass
class SyntheticCaseSpec:
    """Full description of one synthetic case; see generate_case."""

    name: str
    grid: BladeGrid
    u_mean: float
    ti: float
    omega: float
    duration_s: float
    f_s: float
    true_modes: np.ndarray       # (3*n_z, N_true)
    mean_field: np.ndarray
    azimuthal_mean: np.ndarray   # (N_true, 1 + 2*K), K <= 6
    ar_rho: np.ndarray           # (N_true,), each in [0, 1)
    ar_sigma: np.ndarray         # (N_true,), innovation std
    noise_sigma: float = 0.0
    torsion: TorsionTwin | None = None

    def __post_init__(self):
        self.true_modes = np.asarray(self.true_modes, dtype=float)
        self.mean_field = np.asarray(self.mean_field, dtype=float)
        self.azimuthal_mean = np.atleast_2d(
            np.asarray(self.azimuthal_mean, dtype=float))
        self.ar_rho = np.asarray(self.ar_rho, dtype=float)
        self.ar_sigma = np.asarray(self.ar_sigma, dtype=float)

        ConditionKey(self.u_mean, self.ti, 0)  # its rule for u_mean and ti
        n_dof = self.grid.n_dof
        n_z = self.grid.n_z
        if self.true_modes.shape[0] != n_dof:
            raise ValidationError("true_modes must have 3*n_z rows")
        root_rows = (0, n_z, 2 * n_z)
        if np.max(np.abs(self.true_modes[root_rows, :])) > 1e-12:
            raise ValidationError("true modes must vanish at the root station")
        w = dof_weights(self.grid)
        gram = self.true_modes.T @ (self.true_modes * w[:, None])
        if not np.allclose(gram, np.eye(self.n_true), atol=1e-10):
            raise ValidationError("true modes must be orthonormal to 1e-10")
        if (self.azimuthal_mean.shape[1] - 1) // 2 > 6:
            raise ValidationError("azimuthal mean supports at most 6 harmonics")
        if self.azimuthal_mean.shape[0] != self.n_true:
            raise ValidationError("one azimuthal-mean row per true mode")
        if np.any(self.ar_rho < 0) or np.any(self.ar_rho >= 1):
            raise ValidationError("AR coefficients must lie in [0, 1)")
        if np.any(self.ar_sigma < 0) or self.noise_sigma < 0:
            raise ValidationError("standard deviations must be non-negative")
        if not (self.omega > 0 and self.duration_s > 0 and self.f_s > 0):
            raise ValidationError("omega, duration_s and f_s must be positive")
        if self.n_t < 2:
            raise ValidationError(f"duration_s * f_s gives {self.n_t} "
                                  "samples, fewer than 2")

    @property
    def n_true(self) -> int:
        return self.true_modes.shape[1]

    @property
    def n_t(self) -> int:
        return int(round(self.duration_s * self.f_s))


def _ar1(rho: float, sigma: float, n: int, rng) -> np.ndarray:
    """Stationary AR(1) path: x[k] = rho x[k-1] + N(0, sigma^2)."""
    if sigma == 0.0:
        return np.zeros(n)
    x0 = rng.normal(0.0, sigma / np.sqrt(1.0 - rho**2))
    return _first_order(rho, np.r_[x0, rng.normal(0.0, sigma, n - 1)], 0.0)


def _gram_schmidt(raw: np.ndarray, weights: np.ndarray) -> np.ndarray:
    modes = raw.astype(float).copy()
    for _ in range(2):  # second pass scrubs rounding from the first
        for n in range(modes.shape[1]):
            v = modes[:, n]
            for m in range(n):
                v = v - modes[:, m] * np.sum(modes[:, m] * v * weights)
            norm = np.sqrt(np.sum(v * v * weights))
            if norm < 1e-14:
                raise ValidationError("mode family degenerated; use fewer modes")
            modes[:, n] = v / norm
    return modes


def blade_demo_modes(grid: BladeGrid) -> np.ndarray:
    """Four blade-like orthonormal shapes mixing global and localized action.

    Mode 1 is a global flap-dominant bending; mode 2 an edgewise shape
    peaking mid-span; mode 3 a flap feature localized outboard with an
    edgewise sign change; mode 4 an axial feature near the tip. The
    localized structure matters: placement by pivoted QR then has distinct
    regions to cover, the regime the method is built for.
    """
    z = grid.z_norm
    n_z = grid.n_z

    def bump(center, width):
        return np.exp(-0.5 * ((z - center) / width) ** 2)

    raw = np.zeros((3 * n_z, 4))
    raw[0 * n_z:1 * n_z, 0] = z**2
    raw[1 * n_z:2 * n_z, 0] = 0.3 * z**2
    raw[2 * n_z:3 * n_z, 0] = -0.1 * z**3
    raw[1 * n_z:2 * n_z, 1] = z * bump(0.55, 0.18)
    raw[0 * n_z:1 * n_z, 1] = 0.15 * z**3
    raw[0 * n_z:1 * n_z, 2] = z * bump(0.78, 0.12)
    raw[1 * n_z:2 * n_z, 2] = -0.3 * z * bump(0.9, 0.2)
    raw[2 * n_z:3 * n_z, 3] = z * bump(1.0, 0.10)
    raw[0 * n_z:1 * n_z, 3] = 0.1 * z**4
    raw[(0, n_z, 2 * n_z), :] = 0.0
    return _gram_schmidt(raw, dof_weights(grid))


def orthonormal_polynomial_modes(grid: BladeGrid, n_modes: int) -> np.ndarray:
    """Root-clamped mode shapes from z^p monomials, orthonormalized.

    Mode n starts from exponent n+1 with a deterministic spread over the
    three components; Gram-Schmidt (run twice for machine-precision
    orthogonality) under the discrete inner product preserves the zero at
    the root because every ingredient vanishes at z=0.
    """
    z = grid.z_norm
    n_z = grid.n_z
    # deterministic full-rank mixing of the three components per mode
    component_mix = np.array(
        [[1.0, 0.3, 0.1], [0.2, 1.0, 0.2], [0.5, -0.6, 1.0],
         [-0.3, 0.4, 1.0], [1.0, -1.0, 0.5], [0.2, 0.7, -1.0]])
    raw = np.zeros((3 * n_z, n_modes))
    for n in range(n_modes):
        mix = component_mix[n % len(component_mix)]
        p = n + 1
        for c in range(3):
            raw[c * n_z:(c + 1) * n_z, n] = mix[c] * z ** (p + c % 2)
    return _gram_schmidt(raw, dof_weights(grid))


def generate_case(spec: SyntheticCaseSpec, seed: int, out_dir) -> Path:
    """Write one synthetic case to disk and return its manifest path.

    The files are exactly what :func:`save_case` writes: the manifest, the
    grid, the channels and the displacement matrix, plus the torsion matrix
    when the spec has a torsional side.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    n_t = spec.n_t
    t = np.arange(n_t) / spec.f_s
    theta = wrap_angle(spec.omega * t)

    n_harmonics = (spec.azimuthal_mean.shape[1] - 1) // 2
    a_true = spec.azimuthal_mean @ fourier_design(theta, n_harmonics).T
    for n in range(spec.n_true):
        a_true[n] += _ar1(spec.ar_rho[n], spec.ar_sigma[n], n_t, rng)

    D = spec.mean_field[:, None] + spec.true_modes @ a_true
    if spec.noise_sigma > 0.0:
        D = D + spec.noise_sigma * rng.standard_normal(D.shape)

    u_raw = spec.u_mean * (1.0 + spec.ti * _ar1(_WIND_AR_RHO, np.sqrt(1 - _WIND_AR_RHO**2), n_t, rng))
    ensemble = SnapshotEnsemble(
        grid=spec.grid, D=D, t=t, theta=theta,
        omega=np.full(n_t, spec.omega), u_raw=u_raw,
        u_filt=smooth_wind(u_raw), f_s=spec.f_s,
        condition=ConditionKey(u_mean=spec.u_mean, ti=spec.ti, seed=seed),
    )

    tau_true = None
    if spec.torsion is not None:
        tau_true = (spec.torsion.mean_field[:, None]
                    + spec.torsion.modes @ (spec.torsion.coupling @ a_true))

    return save_case(ensemble, out_dir, spec.name, tau=tau_true)


def demo_grid(n_z: int = 12, length_m: float = 117.0) -> BladeGrid:
    return BladeGrid(z_norm=np.linspace(0.0, 1.0, n_z), length_m=length_m)


def demo_spec(name: str, u_mean: float, ti: float, grid: BladeGrid | None = None,
              duration_s: float = 25.0, f_s: float = 160.0,
              noise_sigma: float = 0.0) -> SyntheticCaseSpec:
    """A four-mode blade-like case whose loading scales with wind speed.

    Mode 1 carries the wind-speed-dependent steady loading plus a strong 1P
    line, mode 2 a gravity-style pure 1P sine, mode 3 a sharper feature with
    2P/3P content, mode 4 a small 2P; AR(1) fluctuations sit on top, and
    the torsion field couples to all four. Used by the CLI quickstart and by
    most tests.
    """
    grid = grid or demo_grid()
    modes = blade_demo_modes(grid)
    load = u_mean / 10.0
    azimuthal_mean = np.array([
        # c0,   c1,    s1,    c2,    s2,    c3,   s3
        [3.0 * load, 0.8 * load, 0.0, 0.10, 0.0, 0.05, 0.0],
        [0.0, 0.0, 1.2 * load, 0.0, 0.0, 0.0, 0.0],
        [0.6 * load, -0.25, 0.05, 0.20 * load, 0.0, 0.10, 0.05],
        [0.15, 0.0, 0.05, 0.08 * load, 0.04, 0.0, 0.0],
    ])
    ar_sigma = np.array([0.12, 0.08, 0.05, 0.03])
    mean_field = np.zeros(grid.n_dof)
    mean_field[grid.n_z:2 * grid.n_z] = -0.2 * grid.z_norm  # steady droop
    tau_modes = orthonormal_polynomial_modes(grid, 6)[:, [4, 5, 0, 1, 2]]
    coupling = np.array([
        [0.50, 0.10, 0.00, 0.02],
        [0.05, 0.40, 0.08, 0.00],
        [0.00, 0.06, 0.30, 0.05],
        [0.02, 0.00, 0.04, 0.25],
        [0.01, 0.02, 0.02, 0.10],
    ])
    torsion = TorsionTwin(modes=tau_modes, mean_field=np.zeros(grid.n_dof),
                          coupling=coupling)
    return SyntheticCaseSpec(
        name=name, grid=grid, u_mean=u_mean, ti=ti,
        omega=0.83 * load + 0.2, duration_s=duration_s, f_s=f_s,
        true_modes=modes, mean_field=mean_field,
        azimuthal_mean=azimuthal_mean,
        ar_rho=np.full(4, 0.995), ar_sigma=ar_sigma,
        noise_sigma=noise_sigma, torsion=torsion,
    )
