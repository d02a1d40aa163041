"""Case files on disk: loading, validation, wind filtering, azimuth binning.

A *case* is a JSON manifest pointing at a grid file and a snapshot file
(optionally a torsion file with the same layout):

    manifest:  {name, L_b, f_s, u_mean, ti, seed, grid_file, snapshot_file,
                torsion_file?}            (paths relative to the manifest)
    grid:      CSV, header ``z_norm``, one spanwise station per row
    snapshots: CSV, header ``t,theta,omega,u_raw[,u_filt],ux_000..,uy_000..,
               uz_000..``, one row per time step
    torsion:   same layout with ``taux_*, tauy_*, tauz_*`` columns

Displacement columns are stacked into a single matrix with fixed row order
(all x stations, all y stations, all z stations); every module downstream
assumes that order. Azimuth is stored already wrapped to [0, 2*pi) and the
time axis must be uniform at the declared sampling frequency.

Numeric values are written as decimal text with 17 significant digits so a
save/load round trip is bit-exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import SchemaError, ValidationError

TWO_PI = 2.0 * np.pi

#: Exponential smoothing factor applied to the raw hub wind speed when the
#: snapshot file does not already carry a filtered column.
DEFAULT_SMOOTHING_ALPHA = 0.2

#: Default sampling frequency of displacement sensors, Hz.
DEFAULT_SAMPLING_HZ = 160.0

_FLOAT_FMT = "%.17e"


@dataclass(frozen=True)
class BladeGrid:
    """Normalized spanwise stations z/L_b plus the physical blade length."""

    z_norm: np.ndarray
    length_m: float

    def __post_init__(self):
        z = np.asarray(self.z_norm, dtype=float)
        object.__setattr__(self, "z_norm", z)
        if z.ndim != 1 or z.size < 2:
            raise ValidationError("grid needs at least 2 stations")
        if z[0] != 0.0 or z[-1] != 1.0:
            raise ValidationError("z_norm must start at 0 and end at 1")
        if np.any(np.diff(z) <= 0):
            raise ValidationError("z_norm must be strictly increasing")
        if not self.length_m > 0:
            raise ValidationError("blade length must be positive")

    @property
    def n_z(self) -> int:
        return self.z_norm.size

    @property
    def n_dof(self) -> int:
        """Total sampled scalar values for a 3-component field."""
        return 3 * self.z_norm.size


@dataclass(frozen=True)
class ConditionKey:
    """Operating point label: mean hub wind speed, TI label, random seed."""

    u_mean: float
    ti: float
    seed: int

    def __post_init__(self):
        if not self.u_mean > 0:
            raise ValidationError("u_mean must be positive")
        if not 0.0 < self.ti < 1.0:
            raise ValidationError("ti must lie in (0, 1)")


@dataclass
class SnapshotEnsemble:
    """Time-indexed stack of 3-component fields with per-snapshot metadata.

    ``D`` has shape (3*n_z, n_t) with the fixed (x-block, y-block, z-block)
    row order. ``theta`` is wrapped azimuth in [0, 2*pi); ``t`` is uniform at
    1/f_s within 1e-9 s.
    """

    grid: BladeGrid
    D: np.ndarray
    t: np.ndarray
    theta: np.ndarray
    omega: np.ndarray
    u_raw: np.ndarray
    u_filt: np.ndarray
    condition: ConditionKey
    f_s: float

    def __post_init__(self):
        self.D = np.asarray(self.D, dtype=float)
        for name in ("t", "theta", "omega", "u_raw", "u_filt"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.D.ndim != 2 or self.D.shape[0] != self.grid.n_dof:
            raise ValidationError(
                f"D must have {self.grid.n_dof} rows, got shape {self.D.shape}"
            )
        n_t = self.D.shape[1]
        finite = np.isfinite(self.D)
        if not finite.all():
            k, dof = np.argwhere(~finite.T)[0]
            comp, station = divmod(int(dof), self.grid.n_z)
            raise ValidationError(
                f"non-finite value in column D (component {'xyz'[comp]}, "
                f"station {station:03d}) at row {k}: {self.D[dof, k]!r}"
            )
        for name in ("t", "theta", "omega", "u_raw", "u_filt"):
            arr = getattr(self, name)
            if arr.shape != (n_t,):
                raise ValidationError(f"{name} must have length n_t={n_t}")
            bad = np.flatnonzero(~np.isfinite(arr))
            if bad.size:
                raise ValidationError(
                    f"non-finite value in column {name} at row {bad[0]}: "
                    f"{arr[bad[0]]!r}"
                )
        bad = np.flatnonzero((self.theta < 0.0) | (self.theta >= TWO_PI))
        if bad.size:
            raise ValidationError(
                f"theta out of [0, 2*pi) at row {bad[0]}: {self.theta[bad[0]]!r}"
            )
        if not self.f_s > 0:
            raise ValidationError("f_s must be positive")
        dt = np.diff(self.t)
        if np.any(dt <= 0):
            raise ValidationError("t must be strictly increasing")
        if np.any(np.abs(dt - 1.0 / self.f_s) > 1e-9):
            raise ValidationError("t spacing must equal 1/f_s within 1e-9 s")

    @property
    def n_t(self) -> int:
        return self.D.shape[1]

    @property
    def n_z(self) -> int:
        return self.grid.n_z


def wrap_angle(theta):
    """Wrap angles to [0, 2*pi); scalar in, scalar out."""
    out = np.mod(theta, TWO_PI)
    # mod can round up to exactly 2*pi for inputs just below a period
    out = np.where(out >= TWO_PI, out - TWO_PI, out)
    return float(out) if np.isscalar(theta) else out


def smooth_wind(raw, alpha: float = DEFAULT_SMOOTHING_ALPHA) -> np.ndarray:
    """Exponential smoothing: out[k] = alpha*raw[k] + (1-alpha)*out[k-1].

    The filter is seeded with out[0] = raw[0], so a constant series is a
    fixed point and there is no startup transient.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValidationError(f"alpha must lie in (0, 1], got {alpha!r}")
    raw = np.asarray(raw, dtype=float)
    if raw.ndim != 1 or raw.size == 0:
        raise ValidationError("wind series must be 1-D and non-empty")
    # direct-form recurrence of the first-order IIR filter, with the state
    # z seeded so that out[0] = raw[0]; the recurrence is sequential, so it
    # runs as a scalar loop over Python floats
    a = float(alpha)
    b = 1.0 - a
    z = b * float(raw[0])
    out = []
    for x in raw.tolist():
        y = a * x + z
        out.append(y)
        z = b * y
    return np.array(out)


def azimuth_bin(theta, n_theta: int):
    """Uniform-sector bin index in [0, n_theta) for wrapped azimuth.

    Accepts a scalar or an array; the caller must wrap theta to [0, 2*pi)
    first (see :func:`wrap_angle`).
    """
    if n_theta < 1:
        raise ValidationError("n_theta must be >= 1")
    th = np.asarray(theta, dtype=float)
    if np.any((th < 0.0) | (th >= TWO_PI)):
        raise ValidationError("theta outside [0, 2*pi); wrap it first")
    # dividing by 2*pi before scaling keeps exact midpoints on their bin edge
    idx = np.floor(th / TWO_PI * n_theta).astype(int)
    idx = np.minimum(idx, n_theta - 1)
    return int(idx) if np.isscalar(theta) else idx


def _component_columns(prefix: str, n_z: int) -> list[str]:
    return [f"{prefix}_{i:03d}" for i in range(n_z)]


def _field_columns(n_z: int, prefixes=("ux", "uy", "uz")) -> list[str]:
    cols = []
    for p in prefixes:
        cols.extend(_component_columns(p, n_z))
    return cols


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    if not path.exists():
        raise FileNotFoundError(f"missing file: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header:
            raise SchemaError(f"{path}: empty file, expected a CSV header")
        names = [c.strip() for c in header.split(",")]
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as err:
            raise SchemaError(f"{path}: malformed numeric body ({err})") from err
    if data.size == 0:
        raise SchemaError(f"{path}: no data rows")
    if data.shape[1] != len(names):
        raise SchemaError(
            f"{path}: header declares {len(names)} columns, rows have {data.shape[1]}"
        )
    return names, data


def _write_csv(path: Path, names: list[str], data: np.ndarray) -> None:
    """The one writer of numeric tables: header row, 17-digit values."""
    np.savetxt(
        path, data, fmt=_FLOAT_FMT, delimiter=",",
        header=",".join(names), comments="",
    )


def _open_case(manifest_path: Path) -> tuple[dict, BladeGrid, ConditionKey, float]:
    """Parse and check a manifest and read its grid.

    Returns the manifest, the grid, the condition and the sampling
    frequency; every manifest read of the package goes through here.
    """
    if not manifest_path.exists():
        raise FileNotFoundError(f"missing manifest: {manifest_path}")
    with open(manifest_path, "r", encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except json.JSONDecodeError as err:
            raise SchemaError(f"{manifest_path}: invalid JSON ({err})") from err

    for key in ("name", "L_b", "f_s", "u_mean", "ti", "seed",
                "grid_file", "snapshot_file"):
        if key not in manifest:
            raise SchemaError(f"{manifest_path}: manifest missing key '{key}'")

    grid = _load_grid(manifest_path.parent / manifest["grid_file"],
                      float(manifest["L_b"]))
    condition = ConditionKey(
        u_mean=float(manifest["u_mean"]),
        ti=float(manifest["ti"]),
        seed=int(manifest["seed"]),
    )
    return manifest, grid, condition, float(manifest["f_s"])


def load_case(manifest_path) -> tuple[BladeGrid, SnapshotEnsemble]:
    """Load and validate one case from its manifest.

    Returns the grid and the snapshot ensemble; the filtered wind channel is
    computed with :func:`smooth_wind` when the file does not provide it.
    """
    manifest_path = Path(manifest_path)
    manifest, grid, condition, f_s = _open_case(manifest_path)
    ensemble = _load_snapshots(manifest_path.parent / manifest["snapshot_file"],
                               grid, condition, f_s)
    return grid, ensemble


def _load_grid(path: Path, length_m: float) -> BladeGrid:
    names, data = _read_csv(path)
    if names != ["z_norm"]:
        raise SchemaError(f"{path}: expected single column 'z_norm', got {names}")
    return BladeGrid(z_norm=data[:, 0], length_m=length_m)


def _load_snapshots(path: Path, grid: BladeGrid, condition: ConditionKey,
                    f_s: float, prefixes=("ux", "uy", "uz")) -> SnapshotEnsemble:
    names, data = _read_csv(path)
    field_cols = _field_columns(grid.n_z, prefixes)
    has_filt = "u_filt" in names
    meta_cols = ["t", "theta", "omega", "u_raw"] + (["u_filt"] if has_filt else [])
    expected = meta_cols + field_cols
    if names != expected:
        missing = [c for c in expected if c not in names]
        extra = [c for c in names if c not in expected]
        offender = (missing or extra or ["<column order>"])[0]
        raise SchemaError(
            f"{path}: column mismatch at '{offender}' "
            f"(expected {len(expected)} columns for n_z={grid.n_z})"
        )
    col = {name: data[:, j] for j, name in enumerate(names)}
    u_raw = col["u_raw"]
    u_filt = col["u_filt"] if has_filt else smooth_wind(u_raw)
    D = np.vstack([col[c] for c in field_cols])
    return SnapshotEnsemble(
        grid=grid, D=D, t=col["t"], theta=col["theta"], omega=col["omega"],
        u_raw=u_raw, u_filt=u_filt, condition=condition, f_s=f_s,
    )


def load_torsion(manifest_path) -> SnapshotEnsemble | None:
    """Load the optional torsion file of a case as an ensemble of tau fields.

    Reads the manifest, the grid and the torsion file only (not the
    snapshot file); returns ``None`` when the manifest names no
    ``torsion_file``.
    """
    manifest_path = Path(manifest_path)
    manifest, grid, condition, f_s = _open_case(manifest_path)
    if "torsion_file" not in manifest:
        return None
    return _load_snapshots(manifest_path.parent / manifest["torsion_file"],
                           grid, condition, f_s,
                           prefixes=("taux", "tauy", "tauz"))


def save_case(ensemble: SnapshotEnsemble, out_dir, name: str,
              tau: np.ndarray | None = None) -> Path:
    """Write one case (manifest + grid + snapshots [+ torsion]) to out_dir.

    Returns the manifest path. Values round-trip bit-exactly through
    :func:`load_case` for finite inputs.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    grid = ensemble.grid

    grid_file = f"{name}_grid.csv"
    snap_file = f"{name}_snapshots.csv"
    _write_csv(out_dir / grid_file, ["z_norm"], grid.z_norm[:, None])

    meta = np.column_stack([ensemble.t, ensemble.theta, ensemble.omega,
                            ensemble.u_raw, ensemble.u_filt])
    table = np.hstack([meta, ensemble.D.T])
    names = ["t", "theta", "omega", "u_raw", "u_filt"] + _field_columns(grid.n_z)
    _write_csv(out_dir / snap_file, names, table)

    manifest = {
        "name": name,
        "L_b": grid.length_m,
        "f_s": ensemble.f_s,
        "u_mean": ensemble.condition.u_mean,
        "ti": ensemble.condition.ti,
        "seed": ensemble.condition.seed,
        "grid_file": grid_file,
        "snapshot_file": snap_file,
    }
    if tau is not None:
        tau = np.asarray(tau, dtype=float)
        if tau.shape != ensemble.D.shape:
            raise ValidationError("torsion matrix must match the snapshot shape")
        tau_file = f"{name}_torsion.csv"
        tau_table = np.hstack([meta, tau.T])
        tau_names = (["t", "theta", "omega", "u_raw", "u_filt"]
                     + _field_columns(grid.n_z, ("taux", "tauy", "tauz")))
        _write_csv(out_dir / tau_file, tau_names, tau_table)
        manifest["torsion_file"] = tau_file

    manifest_path = out_dir / f"{name}.json"
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest_path
