"""Quasi-steady stochastic model of reduced coordinates over azimuth.

The rotor plane is split into uniform sectors; within each sector the
reduced coordinates collected over a whole operating condition (all seeds)
are summarized by their mean vector and covariance matrix. The bin means
are regressed onto a truncated Fourier series in azimuth, and the prior
covariance is one matrix per condition: that of the samples about the
fitted mean, pooled over all azimuths (a bin's own covariance, from few
independent samples of a slowly decorrelating record, is rank deficient).
Both are interpolated in wind speed with the same weights, so every prior
covariance is a convex combination of PSD matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import TWO_PI, ConditionKey, azimuth_bin, read_json, write_json
from .errors import ValidationError
from .fusion import GaussianReduced, mixture_floor

#: Sector count giving 5-degree azimuthal resolution.
DEFAULT_N_THETA = 72
#: Fourier truncation order of the mean tables.
DEFAULT_N_FOURIER = 6

#: Sentinel seed marking statistics aggregated over several realizations.
MERGED_SEED = -1


def bin_centers(n_theta: int) -> np.ndarray:
    return (np.arange(n_theta) + 0.5) * TWO_PI / n_theta


@dataclass
class BinStatistics:
    """Per-sector sample counts, mean vectors and covariance matrices.

    Empty sectors keep NaN statistics and a zero count; they are excluded
    from any downstream regression rather than treated as zeros. The
    condition's seed is ``MERGED_SEED`` when samples from several
    realizations were concatenated.
    """

    condition: ConditionKey
    n_theta: int
    counts: np.ndarray
    means: np.ndarray        # (n_theta, N)
    covariances: np.ndarray  # (n_theta, N, N)

    @property
    def occupied(self) -> np.ndarray:
        return self.counts > 0


def bin_statistics(a_series, theta_series, n_theta: int,
                   condition: ConditionKey) -> BinStatistics:
    """Bin reduced coordinates by azimuth sector and summarize each bin.

    ``a_series`` is (N, n_t); ``theta_series`` the matching wrapped
    azimuths; ``condition`` labels the operating point they were taken at.
    Covariances use population normalization 1/n.
    """
    a = np.atleast_2d(np.asarray(a_series, dtype=float))
    theta = np.asarray(theta_series, dtype=float)
    if a.shape[1] != theta.shape[0]:
        raise ValidationError(
            f"a_series has {a.shape[1]} samples but theta has {theta.shape[0]}"
        )
    n_modes = a.shape[0]
    idx = azimuth_bin(theta, n_theta)
    counts = np.bincount(idx, minlength=n_theta)
    means = np.full((n_theta, n_modes), np.nan)
    covs = np.full((n_theta, n_modes, n_modes), np.nan)
    for b in np.flatnonzero(counts):
        samples = a[:, idx == b]
        mu = samples.mean(axis=1)
        means[b] = mu
        centered = samples - mu[:, None]
        covs[b] = (centered @ centered.T) / samples.shape[1]
    return BinStatistics(condition=condition, n_theta=n_theta,
                         counts=counts, means=means, covariances=covs)


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
class RomCondition:
    """Fourier mean table and pooled covariance of one (u, TI) condition."""

    u_mean: float
    ti: float
    mean_coeffs: np.ndarray  # (N, 1 + 2*n_F)
    covariance: np.ndarray   # (N, N)


def _checked(c: RomCondition, shape: tuple) -> GaussianReduced:
    """The mean table, checked finite and of ``shape`` (N, 1 + 2*n_F), with
    the covariance symmetrized, checked PSD and matching it."""
    try:
        if c.mean_coeffs.shape != shape:
            raise ValidationError(f"mean table must be {shape}, got "
                                  f"{c.mean_coeffs.shape}")
        return GaussianReduced(c.mean_coeffs.T, c.covariance)
    except ValidationError as err:
        raise ValidationError(
            f"ROM condition (u={c.u_mean}, ti={c.ti}): {err}") from err


@dataclass
class AzimuthalRomModel:
    """Collection of per-condition tables plus evaluation metadata.

    The evaluation tables are built once, on construction: per TI label the
    ascending trained speeds, their identity matrix (the interpolation
    nodes' unit vectors), one stacked ``(n_speeds*(1 + 2*n_F), N)`` table of
    the label's mean coefficients and one ``(n_speeds, N(N+1)/2)`` stack of
    the upper triangles of its covariances, each checked PSD here, with
    their :func:`mixture_floor`, plus the (N, N) index into such a row and
    the Fourier wavenumbers. They are plain attributes, not fields, so
    ``==`` and ``repr`` are unchanged;
    ``conditions`` is not to be changed after construction.
    """

    n_fourier: int
    n_theta: int
    conditions: list

    def __post_init__(self):
        self._wavenumbers = np.arange(1, self.n_fourier + 1)
        if self.conditions:
            triu = np.triu_indices(self.n_modes)
            shape = (self.n_modes, 1 + 2 * self.n_fourier)
            # packed index of entry (i, j): one take unpacks a covariance
            self._gather = np.empty((self.n_modes,) * 2, dtype=np.intp)
            self._gather[triu] = self._gather[triu[::-1]] = np.arange(triu[0].size)
        groups: dict = {}
        # stable sort: conditions with equal (ti, u) keep their given order
        for c in sorted(self.conditions, key=lambda c: (c.ti, c.u_mean)):
            groups.setdefault(c.ti, []).append(c)
        self._groups, self._floors = {}, {}
        for ti, group in groups.items():
            checked = [_checked(c, shape) for c in group]
            self._groups[ti] = (
                np.array([c.u_mean for c in group]), np.eye(len(group)),
                np.concatenate([c.mean_coeffs.T for c in group]),
                np.stack([g.covariance[triu] for g in checked]))
            self._floors[ti] = mixture_floor(checked)

    @property
    def n_modes(self) -> int:
        return self.conditions[0].mean_coeffs.shape[0]


def fit_rom(stats_list, n_fourier: int = DEFAULT_N_FOURIER) -> AzimuthalRomModel:
    """Fit each condition's Fourier mean table and pooled covariance.

    The mean entries share the occupied bins, so they are regressed together
    in one multi-right-hand-side least-squares solve; empty bins are
    excluded. The covariance is that of the condition's samples about the
    fitted mean at their bin centres, from the bin statistics alone:
    ``sum_b n_b (C_b + d_b d_b^T) / sum_b n_b`` with ``d_b`` the bin mean
    minus the fitted mean. Too few occupied bins is reported with the
    condition that has them.
    """
    stats_list = list(stats_list)
    if not stats_list:
        raise ValidationError("no binned statistics supplied")
    n_theta = stats_list[0].n_theta
    n_coeff = 1 + 2 * n_fourier
    conditions = []
    for st in stats_list:
        if st.n_theta != n_theta:
            raise ValidationError("all statistics must share the sector count")
        occ = st.occupied
        if occ.sum() < n_coeff:
            raise ValidationError(
                f"(u={st.condition.u_mean}, ti={st.condition.ti}): need at "
                f"least {n_coeff} non-empty bins for n_F={n_fourier}, "
                f"got {occ.sum()}"
            )
        design = fourier_design(bin_centers(n_theta)[occ], n_fourier)
        coeffs, _, _, _ = np.linalg.lstsq(design, st.means[occ], rcond=None)
        counts = st.counts[occ]
        offsets = st.means[occ] - design @ coeffs
        pooled = (np.tensordot(counts, st.covariances[occ], axes=1)
                  + (counts * offsets.T) @ offsets) / counts.sum()
        conditions.append(RomCondition(
            u_mean=st.condition.u_mean, ti=st.condition.ti,
            mean_coeffs=np.ascontiguousarray(coeffs.T),
            covariance=0.5 * (pooled + pooled.T),
        ))
    conditions.sort(key=lambda c: (c.ti, c.u_mean))
    return AzimuthalRomModel(n_fourier=n_fourier, n_theta=n_theta,
                             conditions=conditions)


@dataclass
class RomStats:
    """Running counters of prior evaluations surfaced by the pipeline: steps,
    and steps whose filtered wind speed lies below or above the trained
    speeds of the chosen TI label (the end condition is then used as is)."""

    steps: int = 0
    clamped_low: int = 0
    clamped_high: int = 0


def evaluate_rom(model: AzimuthalRomModel, theta, u_filt, ti: float,
                 stats: RomStats | None = None) -> GaussianReduced:
    """Evaluate the prior Gaussian at azimuths and operating points.

    ``theta`` and ``u_filt`` are scalars or 1-D arrays, one entry per time
    step, broadcast against each other; a scalar pair gives one Gaussian,
    arrays give a stack (see :class:`GaussianReduced`). The TI label is
    resolved once to the nearest trained label; wind speed linearly
    interpolates the mean tables and the covariances between the bracketing
    trained speeds, and outside the trained range the end condition is used
    as is (counted in ``stats``). Non-finite input is rejected.
    """
    if not model.conditions:
        raise ValidationError("ROM model has no trained conditions")
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
    # wrap_angle in place: mod can round up to exactly 2*pi
    theta, u = np.mod(theta.reshape(-1), TWO_PI), u.reshape(-1)
    theta[theta >= TWO_PI] -= TWO_PI

    ti_near = (min(model._groups, key=lambda label: abs(label - ti))
               if len(model._groups) > 1 else next(iter(model._groups)))
    speeds, units, mean_tables, cov_tables = model._groups[ti_near]
    if stats is not None:
        stats.steps += u.size
        stats.clamped_low += int(np.count_nonzero(u < speeds[0]))
        stats.clamped_high += int(np.count_nonzero(u > speeds[-1]))
    # linear-interpolation weight of each trained speed per step (the hat
    # functions); np.interp holds the end values, so beyond the trained
    # range the end condition is used as is
    weights = np.column_stack([np.interp(u, speeds, unit) for unit in units])

    # one product: (step, speed x Fourier term) against the stacked tables
    design = fourier_design(theta, model._wavenumbers)
    mean = (weights[:, :, None] * design[:, None, :]).reshape(u.size, -1) @ mean_tables
    # tables near the float limit can overflow
    if not np.isfinite(mean).all():
        raise ValidationError("Gaussian mean and covariance must be finite")
    cov = (weights @ cov_tables).take(model._gather, axis=1)
    if single:
        mean, cov = mean[0], cov[0]
    # a convex combination of covariances checked PSD when the model was built
    return GaussianReduced.from_checked(mean, cov, model._floors[ti_near])


def save_rom(model: AzimuthalRomModel, path) -> None:
    """Persist the model as a single JSON document."""
    doc = {
        "n_F": model.n_fourier,
        "n_theta": model.n_theta,
        "conditions": [
            {
                "u_mean": c.u_mean,
                "ti": c.ti,
                "mean_coeffs": c.mean_coeffs.tolist(),
                "covariance": c.covariance.tolist(),
            }
            for c in model.conditions
        ],
    }
    write_json(path, doc)


#: ``rom.json`` keys and their types (see :func:`read_json`).
_ROM_CONDITION = ({"u_mean": float, "ti": float, "mean_coeffs": [[float]],
                   "covariance": [[float]]},
                  ("u_mean", "ti", "mean_coeffs", "covariance"))
_ROM = {"n_F": int, "n_theta": int, "conditions": [_ROM_CONDITION]}


def load_rom(path) -> AzimuthalRomModel:
    doc = read_json(path, _ROM, tuple(_ROM), "ROM file")
    conditions = [RomCondition(
        u_mean=c["u_mean"], ti=c["ti"],
        mean_coeffs=np.asarray(c["mean_coeffs"], dtype=float),
        covariance=np.asarray(c["covariance"], dtype=float),
    ) for c in doc["conditions"]]
    return AzimuthalRomModel(n_fourier=doc["n_F"], n_theta=doc["n_theta"],
                             conditions=conditions)
