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

A fixed pair of covariances has one innovation covariance, gain and fused
covariance (steady-state fixed-gain fusion, Simon, *Optimal State
Estimation*, 2006, 7.3), computed once: a one-entry ``functools.lru_cache``,
thread-safe through ``functools``, keeps them keyed by the pair's bytes. A
step that meets the same pair again is one matrix-vector product, a stack
of means one matrix product.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


def _all_finite(x: np.ndarray) -> None:
    """Reject a non-finite mean (N,), on Python floats, or stack of means."""
    if not (all(map(math.isfinite, x.tolist())) if x.ndim == 1
            else np.isfinite(x).all()):
        raise ValidationError("Gaussian mean and covariance must be finite")


def checked_covariance(cov, mean_shape: tuple) -> np.ndarray:
    """``cov``, symmetrized, as the (N, N) covariance of a mean of shape
    ``mean_shape`` (N last). A non-finite value, also after symmetrizing
    (LAPACK reports NaN matrices as PSD), or an eigenvalue below -1e-10 *
    trace is rejected; a smaller negative one is lifted by a diagonal shift
    until eigvalsh reports none."""
    cov = np.asarray(cov, dtype=float)
    n = mean_shape[-1]
    if cov.shape != (n, n):
        raise ValidationError(
            f"covariance must be ({n}, {n}), one shared by every row of "
            f"the mean, got {cov.shape} for a mean of shape {mean_shape}"
        )
    cov = 0.5 * (cov + cov.T)
    if not np.isfinite(cov).all():
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
    return cov


@dataclass
class GaussianReduced:
    """Mean/covariance pair in reduced modal coordinates.

    The mean is one step (N,) or a stack of steps (n_t, N); the covariance
    is one (N, N) matrix shared by every row, checked and symmetrized on
    construction by :func:`checked_covariance`; a non-finite mean is
    rejected.
    """

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        if mean.ndim == 0:
            mean = mean.reshape(1)
        self.covariance = checked_covariance(self.covariance, mean.shape)
        _all_finite(mean)
        self.mean = mean

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


@functools.lru_cache(maxsize=1)
def _fusion_terms(p_key: bytes, r_key: bytes, n: int) -> tuple:
    """(S, regularized flag, gain, fused covariance), arrays read-only, of
    the (n, n) prior and measurement covariances of C-order bytes ``p_key``
    and ``r_key``: a covariance changed in place is a miss."""
    p_cov, r_cov = (np.frombuffer(key).reshape(n, n) for key in (p_key, r_key))
    s_sum = p_cov + r_cov
    tr = s_sum.trace()
    # eigvalsh returns the eigenvalues in ascending order
    regularized = bool(tr > 0.0 and np.linalg.eigvalsh(s_sum)[0] <= 1e-14 * tr)
    if regularized:
        s_sum += 1e-12 * tr * np.eye(n)
    if tr > 0.0:  # K = S_prior (S_prior + S_meas)^-1, by a solve on the sum
        gain = np.linalg.solve(s_sum, p_cov).T
        # symmetrized in place, so the result keeps the product's allocation
        cov = r_cov @ gain.T
        cov += cov.T
        cov *= 0.5
    else:  # both sources fully certain: zero gain keeps the prior mean
        gain = cov = np.zeros((n, n))
    cov = checked_covariance(cov, (n,))
    for array in (s_sum, gain, cov):
        array.setflags(write=False)
    return s_sum, regularized, gain, cov


def innovation_covariance(p_cov: np.ndarray, r_cov: np.ndarray) -> tuple:
    """(S, regularized flag): the innovation covariance S = P_prior + P_meas
    that :func:`fuse` inverts, read-only and shared with it. A nearly
    singular sum (min eigenvalue at most 1e-14 * trace) gets 1e-12 * trace
    on the diagonal; a sum of trace <= 0 is returned as it is."""
    return _fusion_terms(p_cov.tobytes(), r_cov.tobytes(), len(p_cov))[:2]


def fuse(prior: GaussianReduced,
         measurement: GaussianReduced) -> tuple[GaussianReduced, np.ndarray]:
    """Fuse a prior and a measurement Gaussian; returns (fused, gain).

    Either argument may hold a stack of means (see :class:`GaussianReduced`);
    the rows are fused independently with the one (N, N) gain of the
    covariance pair. A nearly singular innovation covariance is regularized
    (see :func:`innovation_covariance`); this occurs when both sources claim
    near-zero variance in some direction. An innovation covariance with
    trace <= 0 (both sources fully certain) keeps the prior mean with zero
    covariance and zero gain.

    The gain and the checked fused covariance, shared and read-only, come
    from the one-entry cache keyed by the pair's C-order bytes, so a
    covariance changed in place is fused afresh.
    """
    if prior.n != measurement.n:
        raise ValidationError(
            f"dimension mismatch: prior has {prior.n}, measurement {measurement.n}"
        )
    p_cov, r_cov = prior.covariance, measurement.covariance
    _, _, gain, cov = _fusion_terms(p_cov.tobytes(), r_cov.tobytes(), prior.n)
    mean = prior.mean + (gain @ (measurement.mean - prior.mean)[..., None])[..., 0]
    _all_finite(mean)
    return GaussianReduced.from_checked(mean, cov), gain
