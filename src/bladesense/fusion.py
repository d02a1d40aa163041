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
    (N, N) covariance shared by every row. Non-finite values are rejected
    (LAPACK reports NaN matrices as PSD). Each covariance is symmetrized on
    construction; eigenvalues below -1e-10 * trace are rejected, and a
    matrix with a smaller negative one is lifted by a diagonal shift until
    eigvalsh reports none; the other matrices are left as they are.
    """

    mean: np.ndarray
    covariance: np.ndarray

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
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise ValidationError("Gaussian mean and covariance must be finite")
        cov = _sym(cov)
        low = np.linalg.eigvalsh(cov).min(axis=-1)
        neg = low < 0.0
        if _any(neg):
            bad = low < -1e-10 * np.maximum(_trace(cov), 1e-300)
            if _any(bad):
                raise ValidationError(
                    f"covariance not PSD: min eigenvalue {np.min(low[bad]):.3e}"
                )
            # the shift is at least one ulp of the diagonal, or adding it
            # would not change the matrix; eigvalsh is the arbiter, as
            # LAPACK drivers can disagree by a few ulp around zero
            eye = np.eye(n)
            while _any(neg):
                scale = np.abs(cov.diagonal(axis1=-2, axis2=-1)).max(axis=-1)
                shift = np.maximum(-2.0 * low, np.spacing(scale))
                cov = cov + np.where(neg, shift, 0.0)[..., None, None] * eye
                low = np.linalg.eigvalsh(cov).min(axis=-1)
                neg = low < 0.0
        self.mean, self.covariance = mean, cov

    @classmethod
    def from_checked(cls, mean: np.ndarray, covariance: np.ndarray) -> "GaussianReduced":
        """Wrap a finite mean and a covariance the caller has already made
        finite, exactly symmetric and PSD (a covariance taken from a checked
        Gaussian, or a convex combination of such), without repeating the
        checks of the constructor."""
        g = cls.__new__(cls)
        g.mean, g.covariance = mean, covariance
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
    """
    if prior.n != measurement.n:
        raise ValidationError(
            f"dimension mismatch: prior has {prior.n}, measurement {measurement.n}"
        )
    p_cov = prior.covariance
    s_sum = p_cov + measurement.covariance
    tr = _trace(s_sum)
    certain = tr <= 0.0
    # eigvalsh returns the eigenvalues in ascending order
    regularize = ~certain & (np.linalg.eigvalsh(s_sum)[..., 0] <= 1e-14 * tr)
    if _any(regularize):
        s_sum += np.where(regularize, 1e-12 * tr, 0.0)[..., None, None] * np.eye(prior.n)
    any_certain = _any(certain)
    if any_certain:
        # the identity only makes the solve defined; these rows get zero gain
        certain_rows = certain[..., None, None]
        s_sum = np.where(certain_rows, np.eye(prior.n), s_sum)
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
    # cov is exactly symmetric: if it is finite and PSD, the constructor
    # would return it unchanged
    if (math.isfinite(mean.sum() + cov.sum())
            and not _any(np.linalg.eigvalsh(cov)[..., 0] < 0.0)):
        return GaussianReduced.from_checked(mean, cov), gain
    return GaussianReduced(mean, cov), gain
