"""Optimal covariance-weighted combination of two reduced-space Gaussians.

The fused estimate weights prior and measurement by their covariances:

    K       = S_prior (S_prior + S_meas)^-1
    a_fused = a_prior + K (a_meas - a_prior)
    S_fused = (I - K) S_prior = S_meas K^T

which minimizes the trace of the fused covariance; it is formed as
S_meas K^T, as with a near-exact measurement (K close to I) the form
(I - K) S_prior is rounding noise that need not be PSD. A Gaussian holds
the mean of one step (N,) or of a stack of steps (n_t, N), always with one
(N, N) covariance shared by every row.

A fixed pair of covariances has one gain and one fused covariance
(steady-state fixed-gain fusion, Simon, *Optimal State Estimation*, 2006,
7.3). ``fuse`` keeps them for the last pair it met, so a step that meets
the same pair again is one matrix-vector product, and a stack of means is
one matrix product with the same gain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


def _all_finite(x: np.ndarray) -> None:
    """Reject a non-finite mean (N,), on Python floats, or stack of means."""
    if not (all(map(math.isfinite, x.tolist())) if x.ndim == 1
            else np.isfinite(x).all()):
        raise ValidationError("Gaussian mean and covariance must be finite")


@dataclass
class GaussianReduced:
    """Mean/covariance pair in reduced modal coordinates.

    The mean is one step (N,) or a stack of steps (n_t, N); the covariance
    is one (N, N) matrix shared by every row. Non-finite values, also after
    symmetrizing, are rejected (LAPACK reports NaN matrices as PSD). The
    covariance is symmetrized on construction; an eigenvalue below -1e-10 *
    trace is rejected, and a smaller negative one is lifted by a diagonal
    shift until eigvalsh reports none.
    """

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        if mean.ndim == 0:
            mean = mean.reshape(1)
        cov = np.asarray(self.covariance, dtype=float)
        n = mean.shape[-1]
        if cov.shape != (n, n):
            raise ValidationError(
                f"covariance must be ({n}, {n}), one shared by every row of "
                f"the mean, got {cov.shape} for a mean of shape {mean.shape}"
            )
        cov = 0.5 * (cov + cov.T)
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise ValidationError("Gaussian mean and covariance must be finite")
        least = np.linalg.eigvalsh(cov)[0]
        if least < 0.0:
            # the trace is taken only here: at 1e308 scale it overflows
            if least < -1e-10 * max(cov.trace(), 1e-300):
                raise ValidationError(
                    f"covariance not PSD: min eigenvalue {least:.3e}")
            # the shift is at least one ulp of the diagonal, or adding it
            # would not change the matrix; eigvalsh is the arbiter, as
            # LAPACK drivers can disagree by a few ulp around zero
            eye = np.eye(n)
            while least < 0.0:
                scale = np.abs(cov.diagonal()).max()
                cov = cov + max(-2.0 * least, np.spacing(scale)) * eye
                least = np.linalg.eigvalsh(cov)[0]
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
#: covariance, regularized flag) of the last pair fused, or None. Keyed by
#: content, so a covariance changed in place is a miss, whatever its flags
#: and id; one tuple assignment replaces it, so a reader that takes it once
#: sees one whole entry.
_LAST = None


def innovation_covariance(p_cov: np.ndarray, r_cov: np.ndarray) -> tuple:
    """(S, regularized flag): the innovation covariance S = P_prior + P_meas
    that :func:`fuse` inverts. A nearly singular sum (min eigenvalue at most
    1e-14 * trace) gets 1e-12 * trace on the diagonal; a sum of trace <= 0
    is returned as it is."""
    s_sum = p_cov + r_cov
    tr = s_sum.trace()
    # eigvalsh returns the eigenvalues in ascending order
    regularized = bool(tr > 0.0 and np.linalg.eigvalsh(s_sum)[0] <= 1e-14 * tr)
    if regularized:
        s_sum += 1e-12 * tr * np.eye(len(s_sum))
    return s_sum, regularized


def _gain(p_cov: np.ndarray, r_cov: np.ndarray) -> tuple:
    """(gain, fused covariance, regularized flag) of a covariance pair; the
    fused covariance is exactly symmetric but unchecked."""
    s_sum, regularized = innovation_covariance(p_cov, r_cov)
    if s_sum.trace() <= 0.0:
        # both sources fully certain: zero gain keeps the prior mean
        return np.zeros_like(s_sum), np.zeros_like(s_sum), False
    # K = S_prior (S_prior + S_meas)^-1, via a solve on the symmetric sum
    gain = np.linalg.solve(s_sum, p_cov).T
    # symmetrized in place, so the result keeps the product's allocation
    cov = r_cov @ gain.T
    cov += cov.T
    cov *= 0.5
    return gain, cov, regularized


def fuse(prior: GaussianReduced, measurement: GaussianReduced,
         stats: FusionStats | None = None) -> tuple[GaussianReduced, np.ndarray]:
    """Fuse a prior and a measurement Gaussian; returns (fused, gain).

    Either argument may hold a stack of means (see :class:`GaussianReduced`);
    the rows are fused independently with the one (N, N) gain of the
    covariance pair. A nearly singular innovation covariance is regularized
    (see :func:`innovation_covariance`), and every row fused with it is
    counted in ``stats.regularized``; this occurs when both sources claim
    near-zero variance in some direction. An innovation covariance with
    trace <= 0 (both sources fully certain) keeps the prior mean with zero
    covariance and zero gain.

    The gain, the checked fused covariance and the regularized flag are
    kept for the last covariance pair, keyed by the two arrays' bytes, and
    returned shared and read-only. A later call with a pair of the same
    bytes only applies the gain, so a covariance changed in place is fused
    afresh.
    """
    if prior.n != measurement.n:
        raise ValidationError(
            f"dimension mismatch: prior has {prior.n}, measurement {measurement.n}"
        )
    global _LAST
    p_cov, r_cov = prior.covariance, measurement.covariance
    p_key, r_key = p_cov.tobytes(), r_cov.tobytes()
    last = _LAST
    if last is None or last[0] != p_key or last[1] != r_key:
        gain, cov, regularized = _gain(p_cov, r_cov)
        cov = GaussianReduced(np.zeros(prior.n), cov).covariance
        gain.setflags(write=False)
        cov.setflags(write=False)
        last = _LAST = (p_key, r_key, gain, cov, regularized)
    gain, cov, regularized = last[2:]
    mean = prior.mean + (gain @ (measurement.mean - prior.mean)[..., None])[..., 0]
    _all_finite(mean)
    if stats is not None:
        rows = mean.size // mean.shape[-1]
        stats.steps += rows
        if regularized:
            stats.regularized += rows
    return GaussianReduced.from_checked(mean, cov), gain
