"""Optimal covariance-weighted combination of two reduced-space Gaussians.

The fused estimate weights prior and measurement by their covariances:

    K       = S_prior (S_prior + S_meas)^-1
    a_fused = a_prior + K (a_meas - a_prior)
    S_fused = (I - K) S_prior = S_meas K^T

which minimizes the trace of the fused covariance; it is formed as
S_meas K^T, as with a near-exact measurement (K close to I) the form
(I - K) S_prior is rounding noise that need not be PSD. Everything here
works on one Gaussian or on a stack of them, one per time step: means of
shape (..., N) and covariances of shape (..., N, N). The prior covariance
varies with azimuth, so each row gets its own gain, all from one stacked
solve; the per-row special cases (a degenerate or a regularized
innovation covariance) are applied by mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


# A floor bounds the least exact eigenvalue of a covariance from below. With
# u the unit roundoff and p = 4 N^2 for LAPACK's "modest" p(N) (Users' Guide
# 4.4, 4.7), eigvalsh errs by <= p u ||A|| on a symmetric A, and solve solves
# (A + E) X = B exactly with ||E|| <= p u ||A||. Hence:
# - eigvalsh's eigenvalues l give the floor l_min - 2 p u max|l|;
# - K covariances C_k mixed in np.interp's hat weights (in [-3u, 1 + 3u],
#   summing to 1 within 6u), T = max tr C_k: the weights cost (6K + 6) u T
#   and the product 2.02 K u T, both within 10 (K + 1) u T;
# - fuse, with f = f_P + f_R <= lambda_min(S) and T = tr S >= ||S||: the
#   rounded sum and eigvalsh err by (p + 1) u T, so no row needs regularizing
#   if f > (1e-14 + 2 (p + 1) u) T. Then F = R S^-1 P has lambda_min(F) >=
#   h = f_P f_R / f. With kappa = T / f and eps = (p + 1) u T <= f / 2 (as
#   h > delta implies), ||R ((S + E)^-1 - S^-1) P|| <= 2 eps sqrt(||R|| ||P||)
#   / f <= eps kappa; the product and symmetrization add 2.02 N^1.5 u T kappa
#   + 2 sqrt(N) u T. delta = 4 p u kappa T covers all, and the rounding of T
#   and h; eigvalsh sees the result PSD if h - delta > p u (T + delta).
_U = np.finfo(float).eps / 2


def mixture_floor(parts: list) -> float:
    """Floor of any covariance interpolated in np.interp's hat weights from
    the checked Gaussians ``parts``; lambda_min is concave."""
    top = max(float(_trace(g.covariance)) for g in parts)
    return min(g.floor for g in parts) - 10 * (len(parts) + 1) * _U * top


def _sym(cov: np.ndarray) -> np.ndarray:
    return 0.5 * (cov + cov.swapaxes(-1, -2))


def _trace(cov: np.ndarray) -> np.ndarray:
    return np.add.reduce(cov.diagonal(0, -2, -1), -1)


def _any(mask) -> bool:
    # bool() of a single flag is ~30x cheaper than a reduction, which the
    # per-step calls would otherwise pay several times per step
    return bool(mask) if mask.ndim == 0 else bool(mask.any())


@dataclass
class GaussianReduced:
    """Mean/covariance pair in reduced modal coordinates.

    Holds one Gaussian, mean (N,) and covariance (N, N), or a stack of them,
    one per time step: mean (n_t, N) with covariances (n_t, N, N) or one
    (N, N) covariance shared by every row. Non-finite values, also after
    symmetrizing, are rejected (LAPACK reports NaN matrices as PSD). Each
    covariance is symmetrized on construction; eigenvalues below -1e-10 *
    trace are rejected, and a matrix with a smaller negative one is lifted
    by a diagonal shift until eigvalsh reports none; the other matrices are
    left as they are. ``floor``, a plain attribute, not a field, bounds the
    least exact eigenvalue of every covariance held from below (None: no
    bound known).
    """

    mean: np.ndarray
    covariance: np.ndarray
    floor = None

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        if mean.ndim == 0:
            mean = mean.reshape(1)
        cov = np.asarray(self.covariance, dtype=float)
        n = mean.shape[-1]
        if cov.shape[-2:] != (n, n) or cov.shape[:-2] not in ((), mean.shape[:-1]):
            raise ValidationError(
                f"covariance must be {n}x{n} (one, or one per row of the mean), "
                f"got {cov.shape} for a mean of shape {mean.shape}"
            )
        cov = _sym(cov)
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise ValidationError("Gaussian mean and covariance must be finite")
        w = np.linalg.eigvalsh(cov)
        neg = w[..., 0] < 0.0
        if _any(neg):
            bad = w[..., 0] < -1e-10 * np.maximum(_trace(cov), 1e-300)
            if _any(bad):
                raise ValidationError(
                    f"covariance not PSD: min eigenvalue {np.min(w[..., 0][bad]):.3e}"
                )
            # the shift is at least one ulp of the diagonal, or adding it
            # would not change the matrix; eigvalsh is the arbiter, as
            # LAPACK drivers can disagree by a few ulp around zero
            eye = np.eye(n)
            while _any(neg):
                scale = np.abs(cov.diagonal(axis1=-2, axis2=-1)).max(axis=-1)
                shift = np.maximum(-2.0 * w[..., 0], np.spacing(scale))
                cov = cov + np.where(neg, shift, 0.0)[..., None, None] * eye
                w = np.linalg.eigvalsh(cov)
                neg = w[..., 0] < 0.0
        top = np.maximum(-w[..., 0], w[..., -1])  # ||A|| <= 2 max|l|
        self.floor = float(np.min(w[..., 0] - 8 * n * n * _U * top))
        self.mean, self.covariance = mean, cov

    @classmethod
    def from_checked(cls, mean: np.ndarray, covariance: np.ndarray,
                     floor: float | None = None) -> "GaussianReduced":
        """Wrap a finite mean and a covariance the caller has already made
        finite, exactly symmetric and PSD (a covariance taken from a checked
        Gaussian, or a convex combination of such), with its floor, without
        repeating the checks of the constructor."""
        g = cls.__new__(cls)
        g.mean, g.covariance, g.floor = mean, covariance, floor
        return g

    @property
    def n(self) -> int:
        return self.mean.shape[-1]


@dataclass
class FusionStats:
    """Running counters surfaced by the pipeline."""

    steps: int = 0
    regularized: int = 0


def fuse(prior: GaussianReduced, measurement: GaussianReduced,
         stats: FusionStats | None = None) -> tuple[GaussianReduced, np.ndarray]:
    """Fuse a prior and a measurement Gaussian; returns (fused, gain).

    Either argument may be a stack (see :class:`GaussianReduced`); the rows
    are fused independently and the gain is (N, N) or (..., N, N). Per
    row, a nearly singular innovation covariance (min eigenvalue below
    1e-14 * trace) is regularized with 1e-12 * trace on the diagonal and
    counted in ``stats.regularized``; this occurs when both sources claim
    near-zero variance, e.g. from sparsely populated training bins. A row
    whose innovation covariance has trace <= 0 (both sources fully certain)
    keeps the prior mean with zero covariance and zero gain.

    Floors large enough settle both checks without eigvalsh, with the same
    outcome: Weyl's lambda_min(P + R) >= f_P + f_R, and R (P + R)^-1 P >=
    f_P f_R / (f_P + f_R), less rounding, the result's floor.
    """
    if prior.n != measurement.n:
        raise ValidationError(
            f"dimension mismatch: prior has {prior.n}, measurement {measurement.n}"
        )
    n, f_p, f_r, p = prior.n, prior.floor, measurement.floor, 4 * prior.n ** 2
    p_cov = prior.covariance
    s_sum = p_cov + measurement.covariance
    tr = _trace(s_sum)
    top = float(tr if tr.ndim == 0 else tr.max())
    floor = None
    if (f_p is not None and f_r is not None
            and f_p + f_r > (1e-14 + 2 * (p + 1) * _U) * top):
        certain = regularize = np.False_
        # with f_P <= 0 or f_R <= 0, h <= 0 fails the test below
        delta = 4 * p * _U * top * top / (f_p + f_r)
        floor = f_p * f_r / (f_p + f_r) - delta
        floor = floor if floor > p * _U * (top + delta) else None
    else:
        certain = tr <= 0.0
        # eigvalsh returns the eigenvalues in ascending order
        regularize = ~certain & (np.linalg.eigvalsh(s_sum)[..., 0] <= 1e-14 * tr)
        if _any(regularize):
            s_sum += np.where(regularize, 1e-12 * tr, 0.0)[..., None, None] * np.eye(n)
    any_certain = _any(certain)
    if any_certain:
        # the identity only makes the solve defined; these rows get zero gain
        certain_rows = certain[..., None, None]
        s_sum = np.where(certain_rows, np.eye(n), s_sum)
    # K = S_prior (S_prior + S_meas)^-1, via a solve on the symmetric sum
    gain = np.linalg.solve(s_sum, p_cov).swapaxes(-1, -2)
    if any_certain:
        gain = np.where(certain_rows, 0.0, gain)
    mean = prior.mean + (gain @ (measurement.mean - prior.mean)[..., None])[..., 0]
    # symmetrized in place, so the result keeps the product's allocation
    cov = measurement.covariance @ gain.swapaxes(-1, -2)
    cov += cov.swapaxes(-1, -2)
    cov *= 0.5
    if any_certain:
        cov = np.where(certain_rows, 0.0, cov)
    if stats is not None:
        rows = mean.shape[:-1]
        stats.steps += int(np.prod(rows))
        stats.regularized += int(np.count_nonzero(np.broadcast_to(regularize, rows)))
    # cov is exactly symmetric: if it is finite and its floor shows it PSD,
    # the constructor (the eigvalsh fallback) would return it unchanged
    if floor is not None and math.isfinite(mean.sum() + cov.sum()):
        return GaussianReduced.from_checked(mean, cov, floor), gain
    return GaussianReduced(mean, cov), gain
