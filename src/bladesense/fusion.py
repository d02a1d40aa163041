"""Optimal covariance-weighted combination of two reduced-space Gaussians.

The fused estimate weights prior and measurement by their covariances:

    K       = S_prior (S_prior + S_meas)^-1
    a_fused = a_prior + K (a_meas - a_prior)
    S_fused = (I - K) S_prior = S_meas K^T

which minimizes the trace of the fused covariance; it is formed as
S_meas K^T, as with a near-exact measurement (K close to I) the form
(I - K) S_prior is rounding noise that need not be PSD. Everything here
works on one Gaussian or on a stack of them, one per time step: means of
shape (..., N) and covariances of shape (..., N, N) or one (N, N)
covariance shared by every row.

A fixed pair of covariances has one gain and one fused covariance
(steady-state fixed-gain fusion, Simon, *Optimal State Estimation*, 2006,
7.3). ``fuse`` keeps them for the last pair of (N, N) covariances it met,
so a step that meets the same pair again is one matrix-vector product; a
stack of covariances gets its per-row gains from one stacked solve, the
per-row special cases (a degenerate or a regularized innovation
covariance) applied by mask.
"""

from __future__ import annotations

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
    (N, N) covariance shared by every row. Non-finite values, also after
    symmetrizing, are rejected (LAPACK reports NaN matrices as PSD). Each
    covariance is symmetrized on construction; eigenvalues below -1e-10 *
    trace are rejected, and a matrix with a smaller negative one is lifted
    by a diagonal shift until eigvalsh reports none; the other matrices are
    left as they are.
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
        self.mean, self.covariance = mean, cov

    @classmethod
    def from_checked(cls, mean: np.ndarray,
                     covariance: np.ndarray) -> "GaussianReduced":
        """Wrap a finite mean and a covariance the caller has already made
        finite, exactly symmetric and PSD (a covariance taken from a checked
        Gaussian), without repeating the checks of the constructor."""
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


#: (prior covariance bytes, measurement covariance bytes, gain, fused
#: covariance, regularize flag) of the last (N, N) pair fused, or None.
#: Keyed by content, so a covariance changed in place is a miss, whatever
#: its flags and id; one tuple assignment replaces it, so a reader that
#: takes it once sees one whole entry.
_LAST = None


def _gains(p_cov: np.ndarray, r_cov: np.ndarray) -> tuple:
    """(gain, fused covariance, regularize flags) of a covariance pair, one
    or a stack; the fused covariance is exactly symmetric but unchecked."""
    n = p_cov.shape[-1]
    s_sum = p_cov + r_cov
    tr = _trace(s_sum)
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
    # symmetrized in place, so the result keeps the product's allocation
    cov = r_cov @ gain.swapaxes(-1, -2)
    cov += cov.swapaxes(-1, -2)
    cov *= 0.5
    if any_certain:
        cov = np.where(certain_rows, 0.0, cov)
    return gain, cov, regularize


def fuse(prior: GaussianReduced, measurement: GaussianReduced,
         stats: FusionStats | None = None) -> tuple[GaussianReduced, np.ndarray]:
    """Fuse a prior and a measurement Gaussian; returns (fused, gain).

    Either argument may be a stack (see :class:`GaussianReduced`); the rows
    are fused independently and the gain is (N, N) or (..., N, N). Per
    row, a nearly singular innovation covariance (min eigenvalue below
    1e-14 * trace) is regularized with 1e-12 * trace on the diagonal and
    counted in ``stats.regularized``; this occurs when both sources claim
    near-zero variance in some direction. A row whose innovation covariance
    has trace <= 0 (both sources fully certain) keeps the prior mean with
    zero covariance and zero gain.

    When both covariances are single (N, N) arrays, as :func:`evaluate_rom`
    and :func:`sparse_estimate` return them, the gain, the checked fused
    covariance and the regularize flag are kept for that pair; the gain and
    the fused covariance are returned shared and read-only. A later call
    with a pair of the same bytes only applies the gain, so a covariance
    changed in place is fused afresh. A stack of covariances runs every
    check on each call.
    """
    if prior.n != measurement.n:
        raise ValidationError(
            f"dimension mismatch: prior has {prior.n}, measurement {measurement.n}"
        )
    global _LAST
    p_cov, r_cov = prior.covariance, measurement.covariance
    single = p_cov.ndim == 2 and r_cov.ndim == 2
    if single:
        p_key, r_key = p_cov.tobytes(), r_cov.tobytes()
        last = _LAST
        if last is None or last[0] != p_key or last[1] != r_key:
            gain, cov, regularize = _gains(p_cov, r_cov)
            cov = GaussianReduced(np.zeros(prior.n), cov).covariance
            gain.setflags(write=False)
            cov.setflags(write=False)
            last = _LAST = (p_key, r_key, gain, cov, bool(regularize))
        gain, cov, regularize = last[2:]
    else:
        gain, cov, regularize = _gains(p_cov, r_cov)
    mean = prior.mean + (gain @ (measurement.mean - prior.mean)[..., None])[..., 0]
    if not single:
        fused = GaussianReduced(mean, cov)
    elif np.isfinite(mean).all():
        fused = GaussianReduced.from_checked(mean, cov)
    else:
        raise ValidationError("Gaussian mean and covariance must be finite")
    if stats is not None:
        rows = mean.shape[:-1]
        stats.steps += int(np.prod(rows))
        stats.regularized += int(np.count_nonzero(np.broadcast_to(regularize, rows)))
    return fused, gain
