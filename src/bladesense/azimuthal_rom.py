"""Quasi-steady stochastic prior of the reduced coordinates over azimuth and
wind speed.

One least-squares fit over every training sample gives the mean

    a(theta, u) = sum_k (alpha_k + beta_k (u - u_ref)) f_k(theta)

with f_k the truncated Fourier regressors of :func:`fourier_design`, u the
filtered wind speed ``u_filt`` (in training as at run time) and u_ref its
mean over the training samples. Beyond the trained speeds the mean
extrapolates linearly in u. The prior covariance is one (N, N) matrix, the
pooled leave-one-case-out error: the second moment of each training case's
coordinates about the mean fitted without that case. With a single
training case there is nothing to leave out, and the in-sample error is
used. Every step thus shares one covariance, so fusion with a fixed
measurement covariance has one gain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import read_json, wrap_angle, write_json
from .errors import ValidationError
from .fusion import GaussianReduced

#: Sector count of the azimuthal figure: 5-degree display bins.
DEFAULT_N_THETA = 72
#: Fourier truncation order of the mean tables.
DEFAULT_N_FOURIER = 6


def fourier_design(theta, n_fourier) -> np.ndarray:
    """Regression matrix with columns (1, cos k*theta, sin k*theta), k = 1..n_F,
    for the order n_F or its wavenumbers 1..n_F (a model keeps them)."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    k = np.arange(1, n_fourier + 1) if np.ndim(n_fourier) == 0 else n_fourier
    k_theta = theta[..., None] * k
    design = np.empty(theta.shape + (1 + 2 * k.size,))
    design[..., 0] = 1.0
    np.cos(k_theta, out=design[..., 1::2])
    np.sin(k_theta, out=design[..., 2::2])
    return design


def fourier_eval(coeffs, theta):
    """Evaluate a truncated Fourier series; coeffs ordered (c0, c1, s1, ...).

    ``coeffs`` may be a single coefficient vector or a table with one series
    per row; theta may be scalar or array.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    n_fourier = (coeffs.shape[-1] - 1) // 2
    design = fourier_design(theta, n_fourier)
    out = coeffs @ design.T
    if np.isscalar(theta):
        return float(out) if coeffs.ndim == 1 else out[..., 0]
    return out


@dataclass
class AzimuthalRomModel:
    """The joint prior: the mean tables ``mean_coeffs`` (alpha) and
    ``slope_coeffs`` (beta, per m/s), each (N, 1 + 2*n_F), about the
    reference speed ``u_ref``; ``u_range``, the lowest and highest training
    speed; the (N, N) ``covariance``; and ``conditions``, the nominal
    ``{"u_mean", "ti"}`` of each training case, kept as a record only.

    The constructor checks the tables finite and of one shape and the
    covariance PSD; ``covariance`` is then the checked matrix, read-only,
    which :func:`evaluate_rom` shares with every Gaussian it returns.
    """

    n_fourier: int
    u_ref: float
    u_range: tuple
    mean_coeffs: np.ndarray
    slope_coeffs: np.ndarray
    covariance: np.ndarray
    conditions: list = field(default_factory=list)

    def __post_init__(self):
        self.mean_coeffs = np.asarray(self.mean_coeffs, dtype=float)
        self.slope_coeffs = np.asarray(self.slope_coeffs, dtype=float)
        n_modes = self.mean_coeffs.shape[0] if self.mean_coeffs.ndim else 0
        shape = (n_modes, 1 + 2 * self.n_fourier)
        for name in ("mean_coeffs", "slope_coeffs"):
            table = getattr(self, name)
            if table.shape != shape or not n_modes:
                raise ValidationError(f"ROM {name} must be {shape}, got {table.shape}")
            if not np.isfinite(table).all():
                raise ValidationError(f"ROM {name} must be finite")
        lo, hi = self.u_range
        if not (math.isfinite(self.u_ref) and math.isfinite(lo)
                and math.isfinite(hi) and lo <= hi):
            raise ValidationError("ROM u_ref and u_range must be finite, "
                                  f"with u_range ascending, got {self.u_range}")
        try:
            self.covariance = GaussianReduced(np.zeros(n_modes),
                                              self.covariance).covariance
        except ValidationError as err:
            raise ValidationError(f"ROM covariance: {err}") from err
        self.covariance.setflags(write=False)
        self._wavenumbers = np.arange(1, self.n_fourier + 1)
        self._tables = (self.mean_coeffs.T.copy(), self.slope_coeffs.T.copy())

    @property
    def n_modes(self) -> int:
        return self.mean_coeffs.shape[0]


def _design(theta, u, u_ref, wavenumbers) -> np.ndarray:
    """Regressors (f_k(theta), (u - u_ref) f_k(theta)), one row per sample."""
    f = fourier_design(theta, wavenumbers)
    return np.hstack([f, (u - u_ref)[:, None] * f])


def fit_rom(cases, n_fourier: int = DEFAULT_N_FOURIER,
            conditions=()) -> AzimuthalRomModel:
    """Fit the joint prior to training cases, each an ``(a, theta, u_filt)``
    triple: the reduced coordinates (N, n_t) and the azimuths and filtered
    wind speeds of their n_t steps. ``conditions`` is stored as the model's
    record of the cases.

    The mean tables come from one multi-right-hand-side least-squares solve
    over all samples, the covariance from one more solve per left-out case.
    Azimuths that cannot determine all 1 + 2*n_F Fourier terms are rejected;
    wind speeds that cannot determine the slopes (one constant speed) give
    the minimum-norm slopes, zero.
    """
    cases = [(np.atleast_2d(np.asarray(a, dtype=float)),
              np.asarray(theta, dtype=float).reshape(-1),
              np.asarray(u, dtype=float).reshape(-1)) for a, theta, u in cases]
    if not cases:
        raise ValidationError("no training cases supplied")
    n_modes = cases[0][0].shape[0]
    for i, (a, theta, u) in enumerate(cases):
        if a.shape[0] != n_modes or not a.shape[1] == theta.size == u.size:
            raise ValidationError(
                f"training case {i}: coordinates {a.shape} with {theta.size} "
                f"azimuths and {u.size} wind speeds; want ({n_modes}, n_t) "
                f"with n_t of each")
    u_all = np.concatenate([u for _, _, u in cases])
    u_ref = float(u_all.mean())
    wavenumbers = np.arange(1, n_fourier + 1)
    X = np.concatenate([_design(theta, u, u_ref, wavenumbers)
                        for _, theta, u in cases])
    Y = np.concatenate([a.T for a, _, _ in cases])
    coeffs, _, rank, _ = np.linalg.lstsq(X, Y, rcond=None)
    n_coeff = 1 + 2 * n_fourier
    if rank < n_coeff:
        raise ValidationError(
            f"the training samples determine {rank} of the {n_coeff} "
            f"regressors of n_F={n_fourier}; need more azimuths")
    if len(cases) == 1:  # nothing to leave out: the in-sample error
        error = Y - X @ coeffs
    else:
        error = np.empty_like(Y)
        ends = np.cumsum([a.shape[1] for a, _, _ in cases])
        for lo, hi in zip(np.r_[0, ends[:-1]], ends):
            rest = np.r_[0:lo, hi:len(Y)]
            left_out, *_ = np.linalg.lstsq(X[rest], Y[rest], rcond=None)
            error[lo:hi] = Y[lo:hi] - X[lo:hi] @ left_out
    cov = error.T @ error / len(Y)
    return AzimuthalRomModel(
        n_fourier=n_fourier, u_ref=u_ref,
        u_range=(float(u_all.min()), float(u_all.max())),
        mean_coeffs=np.ascontiguousarray(coeffs[:n_coeff].T),
        slope_coeffs=np.ascontiguousarray(coeffs[n_coeff:].T),
        covariance=0.5 * (cov + cov.T), conditions=list(conditions))


@dataclass
class RomStats:
    """Running counters of prior evaluations surfaced by the pipeline: steps,
    and steps whose filtered wind speed lies below or above every training
    speed (the mean then extrapolates linearly in u)."""

    steps: int = 0
    extrapolated_low: int = 0
    extrapolated_high: int = 0


def evaluate_rom(model: AzimuthalRomModel, theta, u_filt, ti,
                 stats: RomStats | None = None) -> GaussianReduced:
    """Evaluate the prior Gaussian at azimuths and filtered wind speeds.

    ``theta`` and ``u_filt`` are scalars or 1-D arrays, one entry per time
    step, broadcast against each other; a scalar pair gives one Gaussian,
    arrays give a stack of means (see :class:`GaussianReduced`). Every
    Gaussian shares the model's one read-only covariance. Steps outside the
    trained speeds are counted in ``stats``. Non-finite input is rejected.
    ``ti`` is ignored: the joint prior has no turbulence-intensity label.
    """
    theta, u = np.asarray(theta, dtype=float), np.asarray(u_filt, dtype=float)
    if not (math.isfinite(float(theta)) and math.isfinite(float(u))
            if theta.ndim == u.ndim == 0
            else np.isfinite(theta).all() and np.isfinite(u).all()):
        raise ValidationError("theta and u_filt must be finite")
    if theta.shape != u.shape:
        theta, u = np.broadcast_arrays(theta, u)
    if theta.ndim > 1:
        raise ValidationError("theta and u_filt must be scalars or 1-D arrays")
    single = theta.ndim == 0
    theta, u = wrap_angle(theta.reshape(-1)), u.reshape(-1)
    if stats is not None:
        lo, hi = model.u_range
        stats.steps += u.size
        stats.extrapolated_low += int(np.count_nonzero(u < lo))
        stats.extrapolated_high += int(np.count_nonzero(u > hi))
    design = fourier_design(theta, model._wavenumbers)
    alpha, beta = model._tables
    mean = design @ alpha + (u - model.u_ref)[:, None] * (design @ beta)
    # tables near the float limit can overflow
    if not np.isfinite(mean).all():
        raise ValidationError("Gaussian mean and covariance must be finite")
    return GaussianReduced.from_checked(mean[0] if single else mean,
                                        model.covariance)


def save_rom(model: AzimuthalRomModel, path) -> None:
    """Persist the model as a single JSON document."""
    write_json(path, {
        "n_F": model.n_fourier,
        "u_ref": model.u_ref,
        "u_range": list(model.u_range),
        "mean_coeffs": model.mean_coeffs.tolist(),
        "slope_coeffs": model.slope_coeffs.tolist(),
        "covariance": model.covariance.tolist(),
        "conditions": model.conditions,
    })


#: ``rom.json`` keys and their types (see :func:`read_json`).
_ROM = {"n_F": int, "u_ref": float, "u_range": [float],
        "mean_coeffs": [[float]], "slope_coeffs": [[float]],
        "covariance": [[float]],
        "conditions": [({"u_mean": float, "ti": float}, ("u_mean", "ti"))]}


def load_rom(path) -> AzimuthalRomModel:
    doc = read_json(path, _ROM, tuple(_ROM), "ROM file")
    try:
        if len(doc["u_range"]) != 2:
            raise ValidationError("u_range must list the lowest and highest "
                                  "training speed")
        return AzimuthalRomModel(
            n_fourier=doc["n_F"], u_ref=doc["u_ref"],
            u_range=tuple(doc["u_range"]),
            mean_coeffs=np.asarray(doc["mean_coeffs"], dtype=float),
            slope_coeffs=np.asarray(doc["slope_coeffs"], dtype=float),
            covariance=np.asarray(doc["covariance"], dtype=float),
            conditions=doc["conditions"])
    except (ValidationError, ValueError) as err:  # ragged tables: ValueError
        raise ValidationError(f"{path}: {err}") from None
