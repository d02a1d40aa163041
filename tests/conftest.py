"""Shared helpers: independent oracles and small builders used across tests."""

import json
import pickle
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.lib import format as npformat

from bladesense import BladeGrid, ModalBasis, dataset
from bladesense.decomposition import dof_weights
from bladesense.errors import SchemaError


def dense_pod_oracle(D, grid):
    """Brute-force POD: eigendecomposition of the discrete autocorrelation
    operator with quadrature weights, independent of the SVD route.

    Returns (energies, modes) sorted by decreasing energy; mode columns are
    orthonormal under the discrete inner product, without any sign fixing.
    """
    w = dof_weights(grid)
    X = D - D.mean(axis=1, keepdims=True)
    corr = X @ X.T / X.shape[1]
    sym = np.sqrt(w)[:, None] * corr * np.sqrt(w)[None, :]
    eigs, vecs = np.linalg.eigh(sym)
    order = np.argsort(eigs)[::-1]
    return eigs[order], vecs[:, order] / np.sqrt(w)[:, None]


def align_sign(candidate, reference):
    """Flip candidate columns to the reference's sign for comparison."""
    out = candidate.copy()
    for n in range(out.shape[1]):
        if np.dot(out[:, n], reference[:, n]) < 0:
            out[:, n] = -out[:, n]
    return out


def basis_from_modes(grid, modes, mean_field=None, energies=None):
    """Wrap known orthonormal modes into a ModalBasis (for controlled tests)."""
    modes = np.asarray(modes, dtype=float)
    n = modes.shape[1]
    return ModalBasis(
        grid=grid,
        mean_field=np.zeros(grid.n_dof) if mean_field is None else mean_field,
        modes=modes,
        energies=np.zeros(n) if energies is None else np.asarray(energies, float),
        total_energy=1.0,
    )


def torsion_cases(psi, M0, a_series):
    """Torsion matrices psi M0 a_i, one per coordinate series a_i (N, n_t_i),
    for modes psi orthonormal under the discrete inner product. With a
    pooled mean of zero in the a_i, the fitted field map W is psi M0."""
    return [psi @ (M0 @ a) for a in a_series]


def savetxt_writer(path, names, data):
    """Reference for ``dataset._write_csv``: ``np.savetxt``, which applies
    ``%.17e`` to each row."""
    np.savetxt(path, data, fmt="%.17e", delimiter=",", header=",".join(names),
               comments="")


def traced_peak(fn, *args):
    """Run ``fn(*args)`` under tracemalloc; return its result and the
    peak of traced memory in bytes."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def random_spd(rng, n, scale=1.0):
    m = rng.standard_normal((n, n))
    return scale * (m @ m.T + n * np.eye(n) * 0.05)


@pytest.fixture
def uniform_grid():
    return BladeGrid(z_norm=np.linspace(0.0, 1.0, 6), length_m=100.0)


CHANNELS = ["t", "theta", "omega", "u_raw", "u_filt"]


#: Ways a case can be damaged on disk; each must be rejected
#: when the case is loaded (see :func:`damage_case`).
DAMAGE = ("missing", "not_npy", "truncated", "padded", "truncated_header",
          "object", "pickled", "float32", "short_rows", "short_steps",
          "transposed", "fields_in_snapshots", "no_fields", "huge_steps")

#: The kinds of :data:`DAMAGE` that damage the ``.npy`` file itself, which
#: apply to either matrix of a case.
NPY_DAMAGE = tuple(k for k in DAMAGE
                   if k not in ("fields_in_snapshots", "no_fields"))


def damage_case(manifest_path, kind, matrix="displacement_file"):
    """Damage the ``matrix`` file of a case, its displacement or torsion
    matrix (or the snapshot table, or the manifest), in the way ``kind``
    names.

    Returns the expected exception type and the file name its message must
    contain.
    """
    manifest_path = Path(manifest_path)
    doc = json.loads(manifest_path.read_text())
    npy = manifest_path.parent / doc[matrix]
    snap = manifest_path.parent / doc["snapshot_file"]
    D = np.load(npy)
    if kind == "missing":
        npy.unlink()
        return FileNotFoundError, npy.name
    if kind == "no_fields":
        del doc["displacement_file"]
        manifest_path.write_text(json.dumps(doc))
        return SchemaError, manifest_path.name
    if kind == "fields_in_snapshots":
        meta = np.loadtxt(snap, delimiter=",", skiprows=1, ndmin=2)
        n_z = D.shape[0] // 3
        fields = [f"{c}_{i:03d}" for c in ("ux", "uy", "uz") for i in range(n_z)]
        dataset._write_csv(snap, CHANNELS + fields, np.hstack([meta, D.T]))
        return SchemaError, snap.name
    if kind == "not_npy":
        npy.write_text("ux_000,ux_001\n0.0,1.0\n")
    elif kind == "truncated":
        npy.write_bytes(npy.read_bytes()[:-8])
    elif kind == "padded":  # bytes past the declared data
        npy.write_bytes(npy.read_bytes() + bytes(8))
    elif kind == "truncated_header":
        npy.write_bytes(npy.read_bytes()[:20])
    elif kind == "object":
        np.save(npy, D.astype(object), allow_pickle=True)
    elif kind == "pickled":
        npy.write_bytes(pickle.dumps(D))
    elif kind == "float32":
        np.save(npy, D.astype(np.float32))
    elif kind == "short_rows":
        np.save(npy, D[:-1])
    elif kind == "short_steps":
        np.save(npy, D[:, :-1])
    elif kind == "transposed":
        np.save(npy, np.ascontiguousarray(D.T))
    elif kind == "huge_steps":
        # 10**15 steps declared on the real body: more than any address
        # space holds, so only a check of the header rejects it unallocated
        with open(npy, "wb") as fh:
            npformat.write_array_header_1_0(fh, {
                "descr": "<f8", "fortran_order": False,
                "shape": (D.shape[0], 10**15)})
            fh.write(D.tobytes())
    else:
        raise ValueError(kind)
    return SchemaError, npy.name
