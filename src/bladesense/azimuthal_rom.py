"""Quasi-steady stochastic prior of the reduced coordinates over azimuth and
wind speed.

A least-squares fit over every training sample gives the mean

    a(theta, u) = sum_k (alpha_k + beta_k (u - u_ref)) f_k(theta)

with f_k the Fourier regressors of :func:`fourier_design` to n_F = 6, u the
filtered wind speed ``u_filt`` (in training as at run time) and u_ref its
mean over the training samples. Beyond the trained speeds the mean
extrapolates linearly in u. The prior covariance is one (N, N) matrix, the
pooled leave-one-case-out error: the second moment of each training case's
coordinates about the mean fitted without that case (with a single case,
about the fit itself). Each case enters every fit as two sums of products
of its regressors (see :func:`fit_rom`). Every step shares one covariance,
so fusion with a fixed measurement covariance has one gain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import read_json, wrap_angle, write_json
from .errors import ValidationError
from .fusion import GaussianReduced, _all_finite, checked_covariance

#: Fourier truncation order n_F of the mean tables; fixed.
N_FOURIER = 6


def fourier_design(theta, n_fourier: int) -> np.ndarray:
    """Regression matrix with columns (1, cos k*theta, sin k*theta), k = 1..n_F."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    k_theta = theta[..., None] * np.arange(1, n_fourier + 1)
    design = np.empty(theta.shape + (1 + 2 * n_fourier,))
    design[..., 0] = 1.0
    np.cos(k_theta, out=design[..., 1::2])
    np.sin(k_theta, out=design[..., 2::2])
    return design


@dataclass
class AzimuthalRomModel:
    """The joint prior: the mean tables ``mean_coeffs`` (alpha) and
    ``slope_coeffs`` (beta, per m/s), each (N, 1 + 2*n_F), about the
    reference speed ``u_ref``; ``u_range``, the lowest and highest training
    speed; the (N, N) ``covariance``; and ``conditions``, the nominal
    ``{"u_mean", "ti"}`` of each training case, kept as a record only.

    The constructor checks the tables finite and (N, 13) and the
    covariance PSD; ``covariance`` is then the checked matrix, read-only,
    which :func:`evaluate_rom` shares with every Gaussian it returns.
    """

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
        shape = (n_modes, 1 + 2 * N_FOURIER)
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
            self.covariance = checked_covariance(self.covariance, (n_modes,))
        except ValidationError as err:
            raise ValidationError(f"ROM covariance: {err}") from err
        self.covariance.setflags(write=False)
        # [alpha; beta], one row per regressor of :func:`_design`
        self._stacked = np.vstack([self.mean_coeffs.T, self.slope_coeffs.T])

    @property
    def n_modes(self) -> int:
        return self.mean_coeffs.shape[0]


def _design(theta, u, u_ref) -> np.ndarray:
    """Regressors (f_k(theta), (u - u_ref) f_k(theta)), one row per sample."""
    f = fourier_design(theta, N_FOURIER)
    return np.hstack([f, (u - u_ref)[:, None] * f])


def fit_rom(cases, *, conditions=()) -> AzimuthalRomModel:
    """Fit the joint prior to training cases, each an ``(a, theta, u_filt)``
    triple: the reduced coordinates (N, n_t) and the azimuths and filtered
    wind speeds of their n_t steps. ``conditions`` is stored as the model's
    record of the cases.

    Case i gives G_i = X_i^T X_i and B_i = X_i^T a_i^T, X_i its regressors.
    The tables solve (sum G) c = sum B; the fold without case i solves
    (sum G - G_i) c = sum B - B_i and is scored on X_i, built once. Each
    is a minimum-norm solve whose rank counts the singular values of the
    regressors above sqrt(2 (1 + 2 n_F) eps), about 1e-7, times the largest.
    Azimuths that cannot determine all 1 + 2 n_F Fourier terms are rejected,
    by the rank of the Fourier block of sum G alone, whatever the wind does;
    one constant wind speed cannot determine the slopes and gives zero ones.
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
    designs = [(_design(theta, u, u_ref), a.T) for a, theta, u in cases]
    sums = [(X.T @ X, X.T @ Y) for X, Y in designs]
    G, B = map(sum, zip(*sums))
    n_coeff = 1 + 2 * N_FOURIER
    # the Fourier block alone: a varying wind's slope columns add rank
    # that the azimuths lack
    rank = np.linalg.matrix_rank(G[:n_coeff, :n_coeff])
    if rank < n_coeff:
        raise ValidationError(
            f"the training samples determine {rank} of the {n_coeff} "
            f"regressors of n_F={N_FOURIER}; need more azimuths")
    coeffs = np.linalg.lstsq(G, B, rcond=None)[0]
    second = np.zeros((n_modes, n_modes))
    for (X, Y), (G_i, B_i) in zip(designs, sums):
        fold = (coeffs if len(cases) == 1
                else np.linalg.lstsq(G - G_i, B - B_i, rcond=None)[0])
        error = Y - X @ fold
        second += error.T @ error
    cov = second / u_all.size
    return AzimuthalRomModel(
        u_ref=u_ref, u_range=(float(u_all.min()), float(u_all.max())),
        mean_coeffs=np.ascontiguousarray(coeffs[:n_coeff].T),
        slope_coeffs=np.ascontiguousarray(coeffs[n_coeff:].T),
        covariance=0.5 * (cov + cov.T), conditions=list(conditions))


def evaluate_rom(model: AzimuthalRomModel, theta, u_filt,
                 ti=None) -> GaussianReduced:
    """Evaluate the prior Gaussian at azimuths and filtered wind speeds.

    ``theta`` and ``u_filt`` are scalars or 1-D arrays, one entry per time
    step, broadcast against each other; a scalar pair gives one Gaussian,
    arrays give a stack of means (see :class:`GaussianReduced`). Every
    Gaussian shares the model's one read-only covariance. Beyond
    ``model.u_range`` the mean extrapolates linearly in u. Non-finite input
    is rejected.
    ``ti`` is ignored: the joint prior has no turbulence-intensity label.
    A scalar pair is evaluated on Python floats, cheaper there than numpy's
    set-up; its mean agrees with the stacked one to rounding.
    """
    theta, u = np.asarray(theta, dtype=float), np.asarray(u_filt, dtype=float)
    if theta.ndim == u.ndim == 0:
        theta, u = float(theta), float(u)
        if not (math.isfinite(theta) and math.isfinite(u)):
            raise ValidationError("theta and u_filt must be finite")
        theta = wrap_angle(theta)
        # the regressors (f_k, (u - u_ref) f_k) against [alpha; beta]
        f = [1.0]
        for k in range(1, N_FOURIER + 1):
            f += (math.cos(k * theta), math.sin(k * theta))
        du = u - model.u_ref
        mean = np.dot(f + [du * v for v in f], model._stacked)
    else:
        if not (np.isfinite(theta).all() and np.isfinite(u).all()):
            raise ValidationError("theta and u_filt must be finite")
        if theta.shape != u.shape:
            theta, u = np.broadcast_arrays(theta, u)
        if theta.ndim > 1:
            raise ValidationError("theta and u_filt must be scalars or 1-D arrays")
        mean = _design(wrap_angle(theta), u, model.u_ref) @ model._stacked
    _all_finite(mean)  # tables near the float limit can overflow
    return GaussianReduced.from_checked(mean, model.covariance)


def save_rom(model: AzimuthalRomModel, path) -> None:
    """Persist the model as a single JSON document."""
    write_json(path, {
        "n_F": N_FOURIER,
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
        if doc["n_F"] != N_FOURIER:
            raise ValidationError(f"'n_F' must be {N_FOURIER}, got {doc['n_F']}")
        if len(doc["u_range"]) != 2:
            raise ValidationError("u_range must list the lowest and highest "
                                  "training speed")
        return AzimuthalRomModel(
            u_ref=doc["u_ref"],
            u_range=tuple(doc["u_range"]),
            mean_coeffs=np.asarray(doc["mean_coeffs"], dtype=float),
            slope_coeffs=np.asarray(doc["slope_coeffs"], dtype=float),
            covariance=np.asarray(doc["covariance"], dtype=float),
            conditions=doc["conditions"])
    except (ValidationError, ValueError) as err:  # ragged tables: ValueError
        raise ValidationError(f"{path}: {err}") from None
