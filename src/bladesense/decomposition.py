"""Discrete inner product and POD of snapshot ensembles.

The inner product between two stacked 3-component fields approximates the
length-normalized continuous one. On a uniform grid every station carries
weight 1/n_z; non-uniform grids fall back to trapezoidal weights on z/L_b
(both sets sum to one).

POD is computed through an SVD of the mean-centered, weight-scaled snapshot
matrix rather than by assembling the autocorrelation operator; the dense
eigendecomposition of that operator serves as the independent test oracle.
Several cases are pooled in time in one pass, without stacking them: each
case is centered on its own mean and folded into a running triangular QR
factor in time blocks of a few times the field's width (a streaming
tall-skinny QR), then one row per case folds in the difference between
its mean and the pooled one. Each fold is one LAPACK Householder QR run
in place in a single (n_dof + 4*n_dof) x n_dof buffer, the factor kept in
its leading rows; the factor is copied out for the SVD and the buffer
released, so the working memory grows with the grid, not with a case or
the training set. Projection takes at most 4*n_dof snapshots at a
time, so its working memory is one block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg import lapack_lite

from .dataset import BladeGrid, SnapshotEnsemble, _write_csv
from .errors import ValidationError

_ORTHO_TOL = 1e-8


def station_weights(grid: BladeGrid) -> np.ndarray:
    """Quadrature weight per station; uniform 1/n_z on a uniform grid."""
    z = grid.z_norm
    dz = np.diff(z)
    if np.all(np.abs(dz - dz[0]) <= 1e-12):
        return np.full(grid.n_z, 1.0 / grid.n_z)
    w = np.zeros(grid.n_z)
    w[:-1] += 0.5 * dz
    w[1:] += 0.5 * dz
    return w


def dof_weights(grid: BladeGrid) -> np.ndarray:
    """Station weights tiled over the (x-block, y-block, z-block) row order."""
    return np.tile(station_weights(grid), 3)


def inner(v1, v2, grid: BladeGrid) -> float:
    """Discrete inner product of two stacked field vectors.

    Symmetric, bilinear, and positive semi-definite; unit-norm fields have
    inner(v, v) == 1.
    """
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    if v1.shape != (grid.n_dof,) or v2.shape != (grid.n_dof,):
        raise ValidationError(
            f"fields must have shape ({grid.n_dof},), got {v1.shape} and {v2.shape}"
        )
    return float(np.sum(v1 * v2 * dof_weights(grid)))


def _fix_signs(modes: np.ndarray) -> np.ndarray:
    """Flip columns so each mode's largest-magnitude entry is positive."""
    out = modes.copy()
    for n in range(out.shape[1]):
        i = int(np.argmax(np.abs(out[:, n])))
        if out[i, n] < 0:
            out[:, n] = -out[:, n]
    return out


@dataclass
class ModalBasis:
    """Mean field plus orthonormal spatial modes ranked by captured energy.

    Attributes
    ----------
    grid : BladeGrid
    mean_field : (3*n_z,) time-average of the ensemble
    modes : (3*n_z, N) columns orthonormal under :func:`inner`
    energies : (N,) non-increasing modal energies (m^2)
    total_energy : total fluctuation energy of the source ensemble, used for
        cumulative-fraction reporting
    """

    grid: BladeGrid
    mean_field: np.ndarray
    modes: np.ndarray
    energies: np.ndarray
    total_energy: float

    def __post_init__(self):
        self.mean_field = np.asarray(self.mean_field, dtype=float)
        self.modes = np.asarray(self.modes, dtype=float)
        self.energies = np.asarray(self.energies, dtype=float)
        n_dof = self.grid.n_dof
        if self.mean_field.shape != (n_dof,):
            raise ValidationError("mean_field has wrong length")
        if self.modes.ndim != 2 or self.modes.shape[0] != n_dof:
            raise ValidationError("modes must be (3*n_z, N)")
        if self.energies.shape != (self.n_modes,):
            raise ValidationError("energies must have length N")
        if np.any(self.energies < -1e-14) or np.any(np.diff(self.energies) > 1e-14):
            raise ValidationError("energies must be non-negative and non-increasing")
        w = dof_weights(self.grid)
        gram = self.modes.T @ (self.modes * w[:, None])
        if not np.allclose(gram, np.eye(self.n_modes), atol=_ORTHO_TOL):
            raise ValidationError("mode columns are not orthonormal under inner()")

    @property
    def n_modes(self) -> int:
        """Truncation order N, the width of ``modes``."""
        return self.modes.shape[1]


def _fold(buf: np.ndarray, m: int) -> int:
    """QR-factor the leading m rows of buf in place; return R's row count k.

    buf is an F-contiguous float64 (lda, n) array. LAPACK ``dgeqrf`` (the
    routine, blocking and workspace query of ``np.linalg.qr``, without its
    copies) leaves R in the upper triangle of the leading k = min(m, n)
    rows; their Householder vectors below it are zeroed. ``lapack_lite``
    checks neither m nor lda against the array, hence the guards.
    """
    if (buf.ndim != 2 or buf.dtype != np.float64
            or not buf.flags.f_contiguous):
        raise ValueError("fold buffer must be a 2-D F-contiguous float64 array")
    lda, n = buf.shape
    if not 1 <= m <= lda:
        raise ValueError(f"fold rows must be in [1, {lda}], got {m}")
    k = min(m, n)
    tau = np.empty(k)
    work = np.empty(1)
    # buf.T is the C-contiguous (n, lda) view lapack_lite accepts
    lapack_lite.dgeqrf(m, n, buf.T, lda, tau, work, -1, 0)
    lwork = max(1, n, int(work[0]))
    work = np.empty(lwork)
    if lapack_lite.dgeqrf(m, n, buf.T, lda, tau, work, lwork, 0)["info"]:
        raise np.linalg.LinAlgError("dgeqrf failed on a POD fold")
    buf[:k][np.tri(k, n, -1, dtype=bool)] = 0.0
    return k


def pod_fit(ensembles, n_modes: int) -> ModalBasis:
    """Fit a POD basis to one snapshot ensemble or several, pooled in time.

    Parameters
    ----------
    ensembles : SnapshotEnsemble or iterable of SnapshotEnsemble
        Snapshot matrices D_i of shape (3*n_z, n_t_i) on one grid; the
        pooled row-mean is removed before the decomposition. The iterable
        is read once, so a generator may load each case as it is needed
        and drop it after. Each case, centered on its own mean, is folded
        in blocks of 4*3*n_z snapshots; with two cases or more, one row
        per case then adds its mean's offset from the pooled mean. Each
        fold runs in place in one (3*n_z + 4*3*n_z) x 3*n_z buffer, and
        the triangular factor is copied out of it for the SVD. No case is
        stacked or copied whole: the working memory is that buffer, not a
        case.
    n_modes : int
        Truncation order N, with 1 <= N <= min(3*n_z, sum of n_t_i).

    Returns
    -------
    ModalBasis
        Modes orthonormal under the discrete inner product, energies
        lambda_n = s_n^2 / n_t (n_t pooled) sorted non-increasing, and a
        deterministic sign convention (largest-magnitude entry positive).
    """
    if isinstance(ensembles, SnapshotEnsemble):
        ensembles = (ensembles,)
    grid = None
    sums, counts = [], []
    for e in ensembles:
        if grid is None:
            grid = e.grid
            n_dof = grid.n_dof
            sqrt_w = np.sqrt(dof_weights(grid))
            # rows of the weighted, centered snapshots folded per QR,
            # written under the r rows of R
            block = 4 * n_dof
            buf = np.empty((n_dof, n_dof + block)).T
            r = 0
        elif (e.grid.z_norm.shape != grid.z_norm.shape
                or np.any(e.grid.z_norm != grid.z_norm)):
            raise ValidationError("all ensembles must share one grid")
        if e.n_t == 0:
            continue
        sums.append(e.D.sum(axis=1))
        counts.append(e.n_t)
        mean_i = sums[-1] / e.n_t
        # QR of the transposed snapshots first: the SVD then runs on the
        # small triangular factor R (R^T has the left singular vectors and
        # values of the weighted snapshots), without squaring the condition
        # number as the Gram matrix would. The R of R stacked on more rows
        # is the R of all rows so far (a streaming TSQR)
        for start in range(0, e.n_t, block):
            cols = e.D[:, start:start + block]
            rows = buf[r:r + cols.shape[1]]
            np.subtract(cols.T, mean_i, out=rows)
            rows *= sqrt_w
            r = _fold(buf, r + cols.shape[1])
    if grid is None:
        raise ValidationError("pod_fit needs at least one ensemble")
    n_t = sum(counts)
    if not 1 <= n_modes <= min(n_dof, n_t):
        raise ValidationError(
            f"n_modes must be in [1, {min(n_dof, n_t)}], got {n_modes}"
        )
    mean_field = sums[0].copy()
    for case_sum in sums[1:]:
        mean_field += case_sum
    mean_field /= n_t
    if len(counts) > 1:
        # each case was centered on its own mean m_i; the pooled scatter
        # adds n_i (m_i - m)(m_i - m)^T per case, one row each. A single
        # case gets none: even a zero row reshapes a trapezoidal R
        shift = np.sqrt(counts)[:, None] * sqrt_w * (
            np.array(sums) / np.array(counts)[:, None] - mean_field)
        for start in range(0, len(counts), block):
            rows = shift[start:start + block]
            buf[r:r + rows.shape[0]] = rows
            r = _fold(buf, r + rows.shape[0])
    R = buf[:r].copy()
    del buf
    U, s, _ = np.linalg.svd(R.T, full_matrices=False)
    energies_all = s**2 / n_t
    modes = _fix_signs(U[:, :n_modes] / sqrt_w[:, None])
    return ModalBasis(
        grid=grid,
        mean_field=mean_field,
        modes=modes,
        energies=energies_all[:n_modes],
        total_energy=float(energies_all.sum()),
    )


def project(fields, basis: ModalBasis) -> np.ndarray:
    """Reduced coordinates: a_n = inner(field - mean_field, phi_n).

    Accepts a single field (3*n_z,) or a matrix of column fields
    (3*n_z, n_t); the result has matching shape (N,) or (N, n_t). The
    columns are taken in blocks of at most 4*3*n_z, so the working memory
    is one block, not the matrix.
    """
    fields = np.asarray(fields, dtype=float)
    single = fields.ndim == 1
    cols = fields[:, None] if single else fields
    if cols.shape[0] != basis.grid.n_dof:
        raise ValidationError(
            f"field must have {basis.grid.n_dof} rows, got {cols.shape[0]}"
        )
    w = dof_weights(basis.grid)[:, None]
    mean = basis.mean_field[:, None]
    a = np.empty((basis.n_modes, cols.shape[1]))
    # near-equal blocks of at most 4*n_dof columns: none is a lone column
    # unless the matrix is, since matmul's one-column path rounds otherwise
    n_blocks = max(1, -(-cols.shape[1] // (4 * basis.grid.n_dof)))
    for out, part in zip(np.array_split(a, n_blocks, axis=1),
                         np.array_split(cols, n_blocks, axis=1)):
        out[...] = basis.modes.T @ ((part - mean) * w)
    return a[:, 0] if single else a


def write_modes_csv(basis: ModalBasis, path) -> None:
    """Export mean field and modes, one column per mode after the mean."""
    names = ["mean"] + [f"mode_{n + 1}" for n in range(basis.n_modes)]
    table = np.column_stack([basis.mean_field, basis.modes])
    _write_csv(path, names, table)


def write_energies_csv(basis: ModalBasis, path) -> None:
    """Export (n, lambda, cumulative_fraction) rows."""
    total = basis.total_energy if basis.total_energy > 0 else 1.0
    _write_csv(path, ["n", "lambda", "cumulative_fraction"], np.column_stack([
        np.arange(1, basis.n_modes + 1), basis.energies,
        np.cumsum(basis.energies) / total]))
