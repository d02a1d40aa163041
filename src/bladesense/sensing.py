"""Sensor placement by greedy pivoted QR and estimation from sparse readings.

A physical sensor at one station reports all three displacement components,
so the pivoting candidate is the station: one candidate column per station,
stacking that station's three modal rows. The sparse estimate is the
least-squares solution on the sampled basis, so three stations (nine rows)
can carry up to nine modes when the sampled basis keeps full column rank.

Measurement vectors group components per sensor: for placed stations
(s_1, s_2, ...) the layout is (ux(s_1), uy(s_1), uz(s_1), ux(s_2), ...).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dataset import _write_csv
from .decomposition import ModalBasis
from .errors import NumericalError, ValidationError
from .fusion import GaussianReduced, _all_finite

_COND_LIMIT = 1e12


def sensor_dof_rows(station_indices, n_z: int) -> np.ndarray:
    """Row indices into a stacked field for per-sensor (x, y, z) grouping."""
    stations = np.asarray(station_indices, dtype=int)
    return np.ravel(np.column_stack([stations, stations + n_z, stations + 2 * n_z]))


@dataclass(frozen=True)
class SensorSet:
    """Ordered optimal sensor stations plus the basis sampled at them.

    ``station_indices`` are sorted most-important-first (pivot order) on a
    grid of ``n_z`` stations; ``sampled_basis`` holds the exact modal rows
    at those stations, 3 rows per sensor.
    """

    station_indices: np.ndarray
    locations_norm: np.ndarray
    sampled_basis: np.ndarray
    sampled_mean: np.ndarray
    n_z: int

    def __post_init__(self):
        object.__setattr__(self, "station_indices",
                           np.asarray(self.station_indices, dtype=int))
        # a set, not np.unique, which imports numpy.ma
        if len(set(self.station_indices.tolist())) != self.station_indices.size:
            raise ValidationError("sensor stations must be distinct")

    @property
    def n_sensors(self) -> int:
        return self.station_indices.size

    @cached_property
    def gram_gain(self) -> np.ndarray | None:
        """The least-squares map (S^T S)^-1 S^T from the thin SVD of the
        sampled basis S, computed once per sensor set; None when S is rank
        deficient: fewer rows than columns, or condition number above 1e12."""
        u, s, vt = np.linalg.svd(self.sampled_basis, full_matrices=False)
        if s.size < vt.shape[1] or s.min() <= 0 or s.max() / s.min() > _COND_LIMIT:
            return None
        return (vt.T / s) @ u.T

    @cached_property
    def rows(self) -> np.ndarray:
        """:func:`sensor_dof_rows` of these stations in the ``n_z``-station
        field they were placed on, built once (read-only)."""
        rows = sensor_dof_rows(self.station_indices, self.n_z)
        rows.setflags(write=False)
        return rows

    @cached_property
    def _gram(self) -> np.ndarray:
        """G G^T of :attr:`gram_gain` G (which must not be None),
        symmetrized and checked PSD, built once per sensor set (read-only)."""
        G = self.gram_gain
        gram = GaussianReduced(np.zeros(G.shape[0]), G @ G.T).covariance
        gram.setflags(write=False)
        return gram

    def _noise(self, noise: "NoiseModel") -> np.ndarray:
        """The estimate covariance G Gamma G^T = sigma^2 G G^T of ``noise``
        (see :attr:`_gram`); a model of another sensor count is a
        :class:`ValidationError`."""
        if noise.n_sensors != self.n_sensors:
            raise ValidationError("noise model size differs from sensor count")
        return noise.sigma**2 * self._gram


@dataclass(frozen=True)
class NoiseModel:
    """One noise standard deviation ``sigma`` on every component of each of
    ``n_sensors`` sensors: Gamma = sigma^2 I."""

    sigma: float
    n_sensors: int

    def __post_init__(self):
        sigma = float(self.sigma)
        if not 0.0 <= sigma < np.inf:
            raise ValidationError(f"noise sigma must be finite and "
                                  f"non-negative, got {self.sigma!r}")
        if self.n_sensors < 1:
            raise ValidationError(
                f"noise model needs at least one sensor, got {self.n_sensors}")
        object.__setattr__(self, "sigma", sigma)

    @classmethod
    def from_config(cls, sigma, n_sensors: int) -> "NoiseModel":
        """The model of a config's ``noise`` (``perfbench/steps.py`` calls it)."""
        return cls(sigma, n_sensors)


def _greedy_pivots(candidates: np.ndarray, count: int) -> list[int]:
    """Column-pivoted QR selection: repeatedly take the column with the
    largest residual norm (exact ties resolved to the lowest index) and
    deflate the remainder against it."""
    resid = candidates.astype(float).copy()
    chosen: list[int] = []
    for _ in range(count):
        norms = np.linalg.norm(resid, axis=0)
        norms[chosen] = -1.0
        j = int(np.argmax(norms))  # argmax takes the first maximum: lowest index
        chosen.append(j)
        q = resid[:, j]
        nq = np.linalg.norm(q)
        if nq > 0.0:
            q = q / nq
            resid -= np.outer(q, q @ resid)
    return chosen


def place_sensors(basis: ModalBasis, n_sensors: int,
                  pivot: str = "station") -> SensorSet:
    """Choose sensor stations by rank-revealing QR on the modal basis.

    Parameters
    ----------
    basis : ModalBasis
    n_sensors : int
        Number of sensors n_P, between 1 and n_z. The working default is
        n_P = N.
    pivot : {"station"}
        Whole stations are pivoted: each candidate column stacks the three
        component rows of one station. ``"station"`` is the only value;
        the parameter stays because callers outside the package pass it.

    Returns
    -------
    SensorSet
        Stations in decreasing order of importance.
    """
    if pivot != "station":
        raise ValidationError(f"unknown pivot mode: {pivot!r}")
    n_z = basis.grid.n_z
    if not 1 <= n_sensors <= n_z:
        raise ValidationError(f"n_sensors must be in [1, {n_z}]")
    phi = basis.modes
    # candidate column i = modal rows of station i, all three components
    cands = np.concatenate(
        [phi[0 * n_z:1 * n_z].T, phi[1 * n_z:2 * n_z].T, phi[2 * n_z:3 * n_z].T],
        axis=0,
    )
    stations = np.asarray(_greedy_pivots(cands, n_sensors), dtype=int)
    rows = sensor_dof_rows(stations, n_z)
    return SensorSet(
        station_indices=stations,
        locations_norm=basis.grid.z_norm[stations],
        sampled_basis=phi[rows, :],
        sampled_mean=basis.mean_field[rows],
        n_z=n_z,
    )


def observe(field, sensors: SensorSet, noise: NoiseModel | None = None,
            rng_seed=None) -> np.ndarray:
    """Sample full fields at the sensor stations, optionally adding noise.

    ``field`` is one stacked 3-component field (3*n_z,) or a stack of them,
    one row per time step (n_t, 3*n_z), e.g. ``ensemble.D.T``, on the grid
    the sensors were placed on; the result is (3*n_P,) or (n_t, 3*n_P).
    ``rng_seed`` may be an int or a numpy Generator; the draw is
    deterministic for a fixed seed, and a stack draws its noise as one
    (n_t, 3*n_P) block, the same stream as one draw per step.
    """
    field = np.asarray(field, dtype=float)
    if field.ndim not in (1, 2) or field.shape[-1] != 3 * sensors.n_z:
        raise ValidationError(
            f"field must be a stacked 3-component vector of the sensors' "
            f"{sensors.n_z}-station grid (length {3 * sensors.n_z}) or a "
            f"stack of them, one per row")
    y = field[sensors.rows] if field.ndim == 1 else field[:, sensors.rows]
    if noise is not None:
        if noise.n_sensors != sensors.n_sensors:
            raise ValidationError("noise model size differs from sensor count")
        rng = (rng_seed if isinstance(rng_seed, np.random.Generator)
               else np.random.default_rng(rng_seed))
        z = rng.standard_normal(y.shape)
        z *= noise.sigma
        y += z
    return y


def sparse_estimate(y, sensors: SensorSet, noise: NoiseModel,
                    mode: str = "gram_corrected") -> GaussianReduced:
    """Reduced coordinates (with covariance) from measurement vectors.

    ``y`` is one measurement (3*n_P,) or a stack (n_t, 3*n_P). The linear
    map, its rank check and G G^T are computed once per sensor set, and
    the covariance is sigma^2 G G^T, so a stack gets a (n_t, N) mean with
    one shared (N, N) covariance.

    The map is the least-squares solution G = (S^T S)^-1 S^T on the
    sampled basis S, exact for noise-free data at full column rank; the
    noise covariance propagates through it: Sigma = G Gamma G^T.
    ``mode="gram_corrected"`` is the only value; the parameter stays
    because callers outside the package pass it.
    """
    if mode != "gram_corrected":
        raise ValidationError(f"unknown estimation mode: {mode!r}")
    y = np.asarray(y, dtype=float)
    S = sensors.sampled_basis
    if y.ndim not in (1, 2) or y.shape[-1] != S.shape[0]:
        raise ValidationError(f"measurement must have length {S.shape[0]}")
    y_c = y - sensors.sampled_mean
    G = sensors.gram_gain
    if G is None:
        raise NumericalError(
            "sampled basis is rank deficient; choose a different sensor set"
        )
    a = y_c @ G.T
    _all_finite(a)
    return GaussianReduced.from_checked(a, sensors._noise(noise))


def write_sensors_csv(sensors: SensorSet, path) -> None:
    """Export (rank, station_index, z_norm) rows, most important first."""
    _write_csv(path, ["rank", "station_index", "z_norm"], np.column_stack([
        np.arange(1, sensors.n_sensors + 1), sensors.station_indices,
        sensors.locations_norm]))
