"""Inference of sectional rotations from deflection coordinates.

Sectional rotation fields get their own POD basis; one linear map, fitted
over every training case that carries torsion, sends deflection
coordinates a(t) to torsional coordinates b(t). Inference reads nothing
but the estimated coordinates: no operating-point label picks the map.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import BladeGrid, _read_csv, read_json, write_json
from .decomposition import ModalBasis, write_modes_csv
from .errors import SchemaError, ValidationError


def fit_torsion_map(a_series, b_series) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares linear map M with b ~ M a; returns (M, per-row R^2).

    The minimum-norm solution is used, so coordinates of ``a`` that never
    move contribute zero columns. A rank-deficient coefficient series only
    triggers a warning, not an error.
    """
    A = np.atleast_2d(np.asarray(a_series, dtype=float))
    B = np.atleast_2d(np.asarray(b_series, dtype=float))
    if A.shape[1] != B.shape[1]:
        raise ValidationError("a_series and b_series must share the time axis")
    if A.shape[1] < A.shape[0]:
        raise ValidationError("need at least as many samples as coordinates")
    M_t, _, rank, _ = np.linalg.lstsq(A.T, B.T, rcond=None)
    if rank < A.shape[0]:
        warnings.warn(
            f"deflection coordinates are rank deficient ({rank} < {A.shape[0]}); "
            "returning the minimum-norm map", stacklevel=2)
    M = M_t.T
    pred = M @ A
    ss_res = np.sum((B - pred) ** 2, axis=1)
    ss_tot = np.sum((B - B.mean(axis=1, keepdims=True)) ** 2, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        r2 = 1.0 - ss_res / ss_tot
    r2[ss_tot == 0.0] = np.where(ss_res[ss_tot == 0.0] <= 1e-30, 1.0, 0.0)
    return M, r2


@dataclass
class TorsionModel:
    """Torsional POD basis plus the coupling map ``M`` (b = M a)."""

    basis: ModalBasis
    M: np.ndarray

    @property
    def n_torsion(self) -> int:  # the rows of the coupling map
        return self.basis.n_modes

    def __post_init__(self):
        self.M = np.asarray(self.M, dtype=float)
        if (self.M.ndim != 2 or self.M.shape[0] != self.n_torsion
                or not np.all(np.isfinite(self.M))):
            raise ValidationError(
                f"coupling map must be a finite ({self.n_torsion}, N) matrix, "
                f"got shape {self.M.shape}")


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
    write_json(path, {"basis_file": basis_filename, "J": model.n_torsion,
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
