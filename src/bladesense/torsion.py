"""Inference of sectional rotations from deflection coordinates.

One linear field map, fitted over every training case that carries
torsion, sends deflection coordinates a(t) straight to the rotation field,
tau = mean + W a. The rotations get no basis of their own: the
least-squares map already has rank at most N. Inference reads nothing but
the estimated coordinates: no operating-point label picks the map.

The map comes from one pass over the torsion matrices, plain (3*n_z, n_t)
arrays (:func:`fit_torsion_model`), so each can be loaded, folded and
dropped in turn.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import BladeGrid, _read_csv, _write_csv
from .decomposition import dof_weights
from .errors import SchemaError, ValidationError


def _r_squared(ss_res: np.ndarray, ss_tot: np.ndarray, ss_raw: np.ndarray,
               n_t: int) -> np.ndarray:
    """1 - ss_res / ss_tot per row, at most 1, for rows of ``n_t`` samples
    with energy ``ss_raw`` about zero. A row has no variance when its
    ss_tot is below n_t * eps * ss_raw, the rounding of a sum of n_t
    squares; it then scores 1 when ss_res lies below that too, else 0."""
    tol = n_t * np.finfo(float).eps * ss_raw
    flat = ss_tot <= tol
    with np.errstate(divide="ignore", invalid="ignore"):
        r2 = 1.0 - np.maximum(ss_res, 0.0) / ss_tot
    r2[flat] = np.where(ss_res[flat] <= tol[flat], 1.0, 0.0)
    return r2


@dataclass
class TorsionModel:
    """Mean rotation field plus the field map ``W`` (tau = mean + W a)."""

    mean_field: np.ndarray
    field_map: np.ndarray

    def __post_init__(self):
        self.mean_field = np.asarray(self.mean_field, dtype=float)
        self.field_map = np.asarray(self.field_map, dtype=float)
        if (self.mean_field.ndim != 1 or self.field_map.ndim != 2
                or self.field_map.shape[0] != self.mean_field.size
                or not np.all(np.isfinite(self.field_map))
                or not np.all(np.isfinite(self.mean_field))):
            raise ValidationError(
                f"a torsion model needs a finite mean field and a finite "
                f"({self.mean_field.size}, N) field map, got shapes "
                f"{self.mean_field.shape} and {self.field_map.shape}")


def infer_torsion(a, model: TorsionModel) -> np.ndarray:
    """Torsion field tau = mean + W a.

    Accepts one coordinate vector (N,) or a matrix of column vectors
    (N, n_t); the result has matching shape (3*n_z,) or (3*n_z, n_t).
    """
    a = np.asarray(a, dtype=float)
    if a.shape[0] != model.field_map.shape[1]:
        raise ValidationError(
            f"{a.shape[0]} deflection coordinates given, but the field "
            f"map takes {model.field_map.shape[1]}")
    mean = model.mean_field
    return model.field_map @ a + (mean if a.ndim == 1 else mean[:, None])


def save_torsion_model(model: TorsionModel, path) -> None:
    """Write one lossless table, ``mean,a_1,...,a_N``: the mean field and
    the map's columns, one row per degree of freedom."""
    names = [f"a_{n + 1}" for n in range(model.field_map.shape[1])]
    _write_csv(Path(path), ["mean"] + names,
               np.column_stack([model.mean_field, model.field_map]))


def load_torsion_model(path, grid: BladeGrid) -> TorsionModel:
    path = Path(path)
    names, table = _read_csv(path)
    if names != ["mean"] + [f"a_{n}" for n in range(1, max(2, len(names)))]:
        raise SchemaError(f"{path}: header must be mean,a_1,...,a_N")
    if table.shape[0] != grid.n_dof:
        raise SchemaError(f"{path}: {table.shape[0]} rows, but the grid "
                          f"has {grid.n_dof} degrees of freedom")
    return TorsionModel(mean_field=table[:, 0], field_map=table[:, 1:])


def fit_torsion_model(a_series, tau_matrices, grid: BladeGrid
                      ) -> tuple[TorsionModel, float]:
    """Torsion field map and its fit R^2, from one pass over the cases.

    ``a_series`` holds each case's deflection coordinates (N, n_t_i);
    ``tau_matrices`` yields the torsion matrices (3*n_z, n_t_i) of the same
    cases in the same order, on ``grid``, and is read once. The fit R^2 is
    the share of the pooled torsion fluctuation energy, under
    :func:`~bladesense.decomposition.inner`, that the map explains, by the
    rule of :func:`_r_squared`.

    W is the minimum-norm least-squares solution of ``tau_k - m = W a_k``
    over every step k, with m the pooled mean field: the thin SVD
    ``A^T = U_a S_a V_a^T`` of the stacked coordinates is cut to
    ``lstsq``'s rank (singular values above eps * n_t times the largest),
    so a coordinate that never moves gets a zero column, and a rank
    deficiency warns rather than fails. The cases must pool at least as
    many steps as there are coordinates. While case i is folded, it adds
    ``U_a,i^T tau_i^T`` to G and ``U_a,i^T 1`` to g (``U_a,i`` its rows of
    ``U_a``), and its column sums and squares to the pooled ones. Then
    ``W^T = V_a S_a^-1 (G - g m^T)``, and the weighted squares of
    ``G - g m^T`` are the energy W explains: no case is projected, or held
    past its fold.
    """
    a_series = list(a_series)
    A_t = np.hstack(a_series).T
    n_t, n_coords = A_t.shape
    if n_t < n_coords:
        raise ValidationError(
            f"the torsion cases pool {n_t} steps, fewer than the "
            f"{n_coords} deflection coordinates")
    U_a, s_a, Vt = np.linalg.svd(A_t, full_matrices=False)
    rank_a = int(np.count_nonzero(s_a > np.finfo(float).eps * n_t * s_a[0]))
    if rank_a < n_coords:
        warnings.warn(
            f"deflection coordinates are rank deficient ({rank_a} < "
            f"{n_coords}); returning the minimum-norm map", stacklevel=2)
    U_a, VS = U_a[:, :rank_a], Vt[:rank_a].T / s_a[:rank_a]
    G = g = sums = squares = 0.0
    start = 0
    taus = iter(tau_matrices)  # zip would hold each matrix past its fold
    for a in a_series:
        tau, shape = next(taus, None), (grid.n_dof, a.shape[1])
        if tau is None or tau.shape != shape:
            raise ValidationError(f"a torsion matrix of shape {shape} expected"
                                  f", got {getattr(tau, 'shape', tau)}")
        U_i = U_a[start:start + shape[1]]
        start += shape[1]
        G = G + U_i.T @ tau.T
        g = g + U_i.sum(axis=0)
        sums = sums + tau.sum(axis=1)
        squares = squares + np.einsum("ij,ij->i", tau, tau)
        del tau
    if next(taus, None) is not None:
        raise ValidationError("more torsion matrices than coordinate series")
    mean = sums / n_t
    Z = G - np.outer(g, mean)
    w = dof_weights(grid)
    ss_tot = w @ (squares - sums * mean)
    r2 = _r_squared(np.array([ss_tot - w @ np.einsum("ij,ij->j", Z, Z)]),
                    np.array([ss_tot]), np.array([w @ squares]), n_t)
    return TorsionModel(mean_field=mean, field_map=(VS @ Z).T), float(r2[0])
