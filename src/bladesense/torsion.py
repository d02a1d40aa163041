"""Inference of sectional rotations from deflection coordinates.

Sectional rotation fields get their own POD basis; one linear map, fitted
over every training case that carries torsion, sends deflection
coordinates a(t) to torsional coordinates b(t). Inference reads nothing
but the estimated coordinates: no operating-point label picks the map.

The basis and the map come from one pass over the torsion cases
(:func:`fit_torsion_model`), so each torsion matrix can be loaded, folded
and dropped in turn.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .dataset import BladeGrid, _read_csv, read_json, write_json
from .decomposition import ModalBasis, dof_weights, pod_fit, write_modes_csv
from .errors import SchemaError, ValidationError


def _r_squared(ss_res: np.ndarray, ss_tot: np.ndarray) -> np.ndarray:
    """1 - ss_res / ss_tot per row; a row with no variance scores 1 when
    it is fitted exactly, else 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        r2 = 1.0 - ss_res / ss_tot
    r2[ss_tot == 0.0] = np.where(ss_res[ss_tot == 0.0] <= 1e-30, 1.0, 0.0)
    return r2


@dataclass
class TorsionModel:
    """Torsional POD basis plus the coupling map ``M`` (b = M a)."""

    basis: ModalBasis
    M: np.ndarray

    def __post_init__(self):
        self.M = np.asarray(self.M, dtype=float)
        if (self.M.ndim != 2 or self.M.shape[0] != self.basis.n_modes
                or not np.all(np.isfinite(self.M))):
            raise ValidationError(
                f"coupling map must be a finite ({self.basis.n_modes}, N) "
                f"matrix, got shape {self.M.shape}")


def infer_torsion(a, model: TorsionModel) -> np.ndarray:
    """Torsion field tau = mean + Xi (M a).

    Accepts one coordinate vector (N,) or a matrix of column vectors
    (N, n_t); the result has matching shape (3*n_z,) or (3*n_z, n_t).
    """
    a = np.asarray(a, dtype=float)
    if a.shape[0] != model.M.shape[1]:
        raise ValidationError(
            f"{a.shape[0]} deflection coordinates given, but the coupling "
            f"map takes {model.M.shape[1]}")
    tau = model.basis.modes @ (model.M @ a)
    mean = model.basis.mean_field
    return tau + (mean if a.ndim == 1 else mean[:, None])


def save_torsion_model(model: TorsionModel, path, basis_filename=None) -> None:
    """Write the JSON document plus the referenced basis CSV next to it."""
    path = Path(path)
    basis_filename = basis_filename or (path.stem + "_basis.csv")
    write_modes_csv(model.basis, path.parent / basis_filename)
    write_json(path, {"basis_file": basis_filename, "J": model.basis.n_modes,
                      "M": model.M.tolist()})


#: ``torsion_model.json`` keys and their types (see :func:`read_json`).
_TORSION_MODEL = {"basis_file": str, "J": int, "M": [[float]]}


def load_torsion_model(path, grid: BladeGrid) -> TorsionModel:
    path = Path(path)
    doc = read_json(path, _TORSION_MODEL, tuple(_TORSION_MODEL),
                    "torsion model")
    basis_path = path.parent / doc["basis_file"]
    names, table = _read_csv(basis_path)
    if names != ["mean"] + [f"mode_{n}" for n in range(1, len(names))]:
        raise SchemaError(f"{basis_path}: header must be mean,mode_1,...")
    mean_field, modes = table[:, 0], table[:, 1:]
    # energies are not persisted; store placeholder non-increasing values
    basis = ModalBasis(grid=grid, mean_field=mean_field, modes=modes,
                       energies=np.zeros(modes.shape[1]),
                       n_modes=modes.shape[1], total_energy=1.0)
    if {doc["J"], len(doc["M"])} != {basis.n_modes}:
        raise SchemaError(f"{path}: 'J' and the rows of 'M' must equal "
                          f"the {basis.n_modes} modes of {basis_path.name}")
    if len({len(row) for row in doc["M"]}) != 1:
        raise SchemaError(f"{path}: the rows of 'M' differ in length")
    return TorsionModel(basis=basis, M=np.asarray(doc["M"], dtype=float))


def fit_torsion_model(a_series, tau_cases,
                      n_modes: int) -> tuple[TorsionModel, np.ndarray]:
    """Torsion POD basis and coupling map from one pass over the cases.

    ``a_series`` holds each case's deflection coordinates (N, n_t_i);
    ``tau_cases`` yields the torsion ensembles of the same cases in the
    same order, and is read once. The basis keeps at most ``n_modes``
    modes and stops at the numerical rank of the pooled torsion snapshots
    (numpy's ``matrix_rank`` rule): a further mode would only fit rounding
    noise. Returns the model and the map's R^2 per torsion mode, the share
    of the mode's energy n_t * lambda_j that the coordinates explain.

    The map is the minimum-norm least-squares solution: the thin SVD
    ``A^T = U_a S_a V_a^T`` of the stacked coordinates is cut to
    ``lstsq``'s rank (singular values above eps * n_t times the largest),
    so a coordinate that never moves gets a zero column, and a rank
    deficiency warns rather than fails. The cases must pool at least as
    many steps as there are coordinates. With ``U_a,i`` the rows of case
    i, each case adds ``U_a,i^T tau_i^T`` to G and ``U_a,i^T 1`` to g
    while it is folded. With the pooled mean m and
    ``U = diag(sqrt_w) modes``, ``Z U = (G - g m^T) diag(sqrt_w) U`` equals
    ``U_a^T B^T`` for the projections B of every case, so no case is
    projected: ``M^T = V_a S_a^-1 (Z U)``, and ``||(Z U)_j||^2`` is the
    energy the map explains.
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
    G = g = 0.0

    def folded():
        nonlocal G, g
        start = 0
        for a, tau in zip(a_series, tau_cases, strict=True):
            if tau.n_t != a.shape[1]:
                raise ValidationError(
                    f"a torsion case has {tau.n_t} steps, its deflection "
                    f"coordinates {a.shape[1]}")
            U_i = U_a[start:start + tau.n_t]
            start += tau.n_t
            G = G + U_i.T @ tau.D.T
            g = g + U_i.sum(axis=0)
            yield tau

    basis = pod_fit(folded(), n_modes)
    s = np.sqrt(basis.energies)  # energies keep the singular values' ratios
    rank = max(1, int(np.count_nonzero(
        s > s[0] * max(basis.grid.n_dof, n_t) * np.finfo(float).eps)))
    basis = replace(basis, modes=basis.modes[:, :rank],
                    energies=basis.energies[:rank], n_modes=rank)
    sqrt_w = np.sqrt(dof_weights(basis.grid))
    Z = (G - np.outer(g, basis.mean_field)) * sqrt_w
    ZU = Z @ (basis.modes * sqrt_w[:, None])
    total = n_t * basis.energies
    r2 = _r_squared(total - np.sum(ZU**2, axis=0), total)
    return TorsionModel(basis=basis, M=(VS @ ZU).T), r2
