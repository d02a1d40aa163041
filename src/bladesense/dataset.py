"""Case files on disk: loading, validation, wind filtering.

A *case* is a JSON manifest pointing at a grid file, a table of per-step
channels and the field matrices (paths relative to the manifest):

    manifest:      {name, L_b, f_s, u_mean, ti, seed, grid_file,
                    snapshot_file, displacement_file, torsion_file?}
    grid:          CSV, header ``z_norm``, one spanwise station per row
    snapshots:     CSV, header ``t,theta,omega,u_raw,u_filt``, one row per
                   time step
    displacement:  ``.npy`` float64 matrix of shape (3*n_z, n_t)
    torsion:       ``.npy`` float64 matrix of the same shape

This is the one layout: :func:`save_case` writes it and the loaders read
only it. Outside solver output becomes a case by building a
:class:`SnapshotEnsemble` and calling :func:`save_case`. :func:`open_case`
checks a case without reading its matrices' values: its manifest, grid and
channels, and each matrix file's dtype, shape and length. Its
:meth:`Case.read` reads the field and :meth:`Case.torsion` the torsion as a
plain array, each unless its file has changed since; :func:`load_case`
opens a case and reads its field. A matrix's values are checked once as
they are read, naming its file: each must be finite and at most
``MAX_ABS`` (1e100) in magnitude, as must each channel value when a case
is opened.

Field rows have a fixed order (all x stations, all y stations, all z
stations); every module downstream assumes that order, and a ``.npy``
matrix is stored in it, so loading needs no transpose or stacking. Azimuth
is stored already wrapped to [0, 2*pi) and the time axis must be uniform at
the declared sampling frequency.

Every numeric table (case grids and channels, POD modes, sensors, torsion
maps, figure twins) is written as decimal text with 18 significant digits
(``%.17e``), so a save/load round trip is bit-exact. It is formatted in
numpy blocks by one exact digit kernel, byte-equal to ``%`` (see
:func:`_write_csv`).

Every JSON document (manifests, configs, models, summaries) is read with
:func:`read_json` and written with :func:`write_json`. A document is a JSON
object whose keys each have a type: a whole number (``4.0`` but not
``4.7``), a finite number (not ``true``/``false``), text, an object, or a
list of one of these. Invalid JSON, a key repeated in any object, an
unknown key, a missing required key or a wrong type is a
:class:`SchemaError` naming the file and the key (exit code 2), a
missing file a ``FileNotFoundError`` (exit code 2), and writing a
non-finite number a :class:`NumericalError` naming the file (exit code 3).
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib import format as npformat

from .errors import NumericalError, SchemaError, ValidationError

TWO_PI = 2.0 * np.pi

#: Exponential smoothing factor of :func:`smooth_wind`, which gives the
#: synthetic twin its filtered hub wind speed ``u_filt``; fixed.
SMOOTHING_ALPHA = 0.2

#: Largest magnitude a case value may have: a product of two such values
#: (1e200) and the sums the fit takes of them stay inside float64's range.
MAX_ABS = 1e100

#: Lossless: 18 significant digits round-trip every float64 bit-exactly.
_FLOAT_FMT = "%.17e"

#: Values formatted, and written, per block of a table.
_WRITE_BLOCK = 4096

#: Decimal exponents the word tables cover: the 18 significant digits of
#: a value at exponent ``e`` are ``|x| * 10**(17 - e)`` rounded, and that
#: power is exact in float64 for ``17 - e`` in 0 .. 22, so ``e`` runs over
#: -5 .. 17.
_EXP = np.arange(-5, 18)

#: Veltkamp's splitter: ``c = _SPLITTER * a; hi = c - (c - a)`` cuts a
#: float64 into two halves of at most 26 significant bits each.
_SPLITTER = 2.0 ** 27 + 1


def _ascii_words(codes) -> np.ndarray:
    """Rows of four ASCII codes as little-endian 32-bit words (0 = no byte)."""
    return np.ascontiguousarray(codes, dtype=np.uint8).view("<u4").ravel()


def _split(a):
    """``(hi, lo)`` with ``hi + lo == a`` exactly and the product of any
    two halves exact in float64 (Veltkamp's split)."""
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


# The formatter's tables, built once. A formatted value is a lead word,
# four words of four digits, an exponent word and a separator word:
# [sign, d0, '.', d1] [d2..d5] ... [e, sign, x, x] [,].
#: ASCII codes of the two digits of 00 .. 99, one row each.
_TWO_DIGITS = np.column_stack(np.divmod(np.arange(100), 10)) + ord("0")
#: ``[sign, d0, '.', d1]`` at ``100 * negative + d0d1``.
_LEAD_WORDS = _ascii_words(np.column_stack([
    np.repeat([0, ord("-")], 100), np.tile(_TWO_DIGITS[:, 0], 2),
    np.full(200, ord(".")), np.tile(_TWO_DIGITS[:, 1], 2)]))
#: Four digits ``0000`` .. ``9999``.
_DIGIT_WORDS = _ascii_words(np.column_stack([
    np.repeat(_TWO_DIGITS, 100, axis=0), np.tile(_TWO_DIGITS, (100, 1))]))
#: ``e-05`` .. ``e+17`` at ``e + 5``.
_EXP_WORDS = _ascii_words(np.column_stack([
    np.full(_EXP.size, ord("e")), np.where(_EXP < 0, ord("-"), ord("+")),
    _TWO_DIGITS[np.abs(_EXP)]]))
#: 10**k at ``k`` = 0 .. 22, all exact, and their halves for Dekker's
#: product.
_POW = np.array([float(10 ** k) for k in range(23)])
_POW_HI, _POW_LO = _split(_POW)

_NPY_MAGIC = b"\x93NUMPY"

#: Per-step channels of a case, in their column order.
_CHANNELS = ("t", "theta", "omega", "u_raw", "u_filt")

#: Manifest keys, their types (see :func:`read_json`) and the required ones.
_MANIFEST = {"name": str, "L_b": float, "f_s": float, "u_mean": float,
             "ti": float, "seed": int, "grid_file": str, "snapshot_file": str,
             "displacement_file": str, "torsion_file": str}
_MANIFEST_REQUIRED = tuple(k for k in _MANIFEST if k != "torsion_file")

#: What a type error message says a value of each scalar type must be.
_EXPECTED = {int: "a whole number", float: "a finite number", str: "text"}


def _checked(value, kind, path, where: str):
    """``value`` checked against its schema ``kind`` (see :func:`read_json`),
    with whole numbers as ``int`` and numbers as ``float``; ``where`` is its
    key, located in the document (empty for the document itself)."""
    if isinstance(kind, list) and isinstance(value, list):
        return [_checked(v, kind[0], path, f"{where}[{i}]")
                for i, v in enumerate(value)]
    if isinstance(kind, tuple) and isinstance(value, dict):
        schema, required = kind
        at = f" in '{where}'" if where else ""
        unknown = sorted(set(value) - set(schema))
        if unknown:
            raise SchemaError(f"{path}: unknown keys {unknown}{at}")
        for key in required:
            if key not in value:
                raise SchemaError(f"{path}: missing key '{key}'{at}")
        prefix = f"{where}." if where else ""
        return {k: _checked(v, schema[k], path, prefix + k)
                for k, v in value.items()}
    if kind is int or kind is float:
        if isinstance(value, int) and not isinstance(value, bool) or (
                isinstance(value, float) and math.isfinite(value)
                and (kind is float or value.is_integer())):
            try:
                return kind(value)
            except OverflowError:  # an integer beyond float range
                pass
    elif kind is str and isinstance(value, str):
        return value
    expected = ("a list" if isinstance(kind, list) else "a JSON object"
                if isinstance(kind, tuple) else _EXPECTED[kind])
    raise SchemaError(f"{path}: {repr(where) if where else 'the document'} "
                      f"must be {expected}, got {value!r:.60}")


def _unique_keys(pairs) -> dict:
    """The object of ``pairs``; a key given twice is a ValueError."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"repeated key {key!r}")
        doc[key] = value
    return doc


def read_json(path, schema: dict, required=(), what: str = "document") -> dict:
    """The JSON object in ``path`` (a ``what``), checked against ``schema``.

    ``schema`` maps each allowed key to its type: ``int`` (a whole number),
    ``float`` (a finite number), ``str``, ``[kind]`` (a list of that kind)
    or ``(schema, required)`` (an object checked in the same way);
    ``required`` lists the keys that must be present.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"missing {what}: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"),
                         object_pairs_hook=_unique_keys)
    except ValueError as err:  # JSONDecodeError, UnicodeDecodeError, _unique_keys
        raise SchemaError(f"{path}: invalid JSON ({err})") from err
    return _checked(doc, (schema, required), path, "")


def write_json(path, doc: dict) -> None:
    """Write ``doc`` with sorted keys, a two-space indent and a final
    newline; a non-finite number is a :class:`NumericalError` instead."""
    try:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as err:
        raise NumericalError(f"{path}: non-finite number ({err})") from err
    Path(path).write_text(text + "\n", encoding="utf-8")


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
            raise ValidationError(f"u_mean must be > 0, got {self.u_mean!r}")
        if not 0.0 < self.ti < 1.0:
            raise ValidationError(f"ti must lie in (0, 1), got {self.ti!r}")


def _check_values(x: np.ndarray, where) -> None:
    """Reject the first value of ``x`` that is non-finite or beyond
    ``MAX_ABS`` in magnitude. ``x`` is a channel (``where`` its column) or
    a field matrix (``where`` the matrix or its file), whose values are
    taken one time row after another and named by component, station and
    row. A sound ``x`` costs two reductions, each of which propagates NaN;
    only a fault builds a mask."""
    if not x.size or (-MAX_ABS <= x.min() and x.max() <= MAX_ABS):
        return
    bad = ~(np.abs(x) <= MAX_ABS)  # NaN included
    if x.ndim == 1:
        k = int(np.flatnonzero(bad)[0])
        value, head, place = float(x[k]), "", f" in column {where}"
    else:
        k, dof = np.argwhere(bad.T)[0]
        comp, station = divmod(int(dof), x.shape[0] // 3)
        value, head = float(x[dof, k]), f"{where}: "
        place = f" (component {'xyz'[comp]}, station {station:03d})"
    what = ("non-finite value" if not math.isfinite(value)
            else f"magnitude above {MAX_ABS:g}")
    raise ValidationError(f"{head}{what}{place} at row {k}: {value!r}")


def _checked_channels(channels: dict, n_t: int, f_s: float) -> dict:
    """The channels (name -> values) as float arrays, checked: each of
    length ``n_t`` with sound values (see :func:`_check_values`), theta in
    [0, 2*pi), no wind speed below zero, and t uniform at 1/``f_s`` within
    1e-9 s."""
    out = {}
    for name in _CHANNELS:
        arr = out[name] = np.asarray(channels[name], dtype=float)
        if arr.shape != (n_t,):
            raise ValidationError(f"{name} must have length n_t={n_t}")
        _check_values(arr, name)
    theta = out["theta"]
    bad = np.flatnonzero((theta < 0.0) | (theta >= TWO_PI))
    if bad.size:
        raise ValidationError(f"theta out of [0, 2*pi) at row {bad[0]}: "
                              f"{float(theta[bad[0]])!r}")
    for name in ("u_raw", "u_filt"):
        bad = np.flatnonzero(out[name] < 0.0)
        if bad.size:
            raise ValidationError(
                f"negative wind speed in column {name} at row {bad[0]}: "
                f"{float(out[name][bad[0]])!r}")
    if not f_s > 0:
        raise ValidationError("f_s must be positive")
    dt = np.diff(out["t"])
    if np.any(dt <= 0):
        raise ValidationError("t must be strictly increasing")
    if np.any(np.abs(dt - 1.0 / f_s) > 1e-9):
        raise ValidationError("t spacing must equal 1/f_s within 1e-9 s")
    return out


@dataclass
class SnapshotEnsemble:
    """Time-indexed stack of 3-component fields with per-snapshot metadata.

    ``D`` has shape (3*n_z, n_t) with the fixed (x-block, y-block, z-block)
    row order. ``theta`` is wrapped azimuth in [0, 2*pi); ``t`` is uniform at
    1/f_s within 1e-9 s; the wind speeds ``u_raw`` and ``u_filt`` are not
    negative; every value is finite and at most ``MAX_ABS`` in magnitude.
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
        if self.D.ndim != 2 or self.D.shape[0] != self.grid.n_dof:
            raise ValidationError(
                f"D must have {self.grid.n_dof} rows, got shape {self.D.shape}"
            )
        _check_values(self.D, "D")
        channels = {name: getattr(self, name) for name in _CHANNELS}
        for name, arr in _checked_channels(channels, self.D.shape[1],
                                           self.f_s).items():
            setattr(self, name, arr)

    @property
    def n_t(self) -> int:
        return self.D.shape[1]


def wrap_angle(theta):
    """Wrap angles to [0, 2*pi); scalar in, scalar out."""
    # float % is np.mod's floor-mod; both can round up to 2*pi from below
    if isinstance(theta, (float, int)) or np.ndim(theta) == 0:
        out = float(theta) % TWO_PI
        return out - TWO_PI if out >= TWO_PI else out
    out = np.mod(theta, TWO_PI)
    out[out >= TWO_PI] -= TWO_PI
    return out


def _first_order(c: float, v: np.ndarray, y_prev: float) -> np.ndarray:
    """y[k] = c*y[k-1] + v[k] for each v[k], from y[-1] = ``y_prev``: a
    sequential recurrence, so a scalar loop over Python floats."""
    c, y, out = float(c), float(y_prev), []
    for x in v.tolist():
        y = c * y + x
        out.append(y)
    return np.array(out)


def smooth_wind(raw) -> np.ndarray:
    """Exponential smoothing out[k] = a*raw[k] + (1-a)*out[k-1], a = 0.2.

    The filter is seeded with out[0] = raw[0], so a constant series is a
    fixed point and there is no startup transient.
    """
    raw = np.asarray(raw, dtype=float)
    if raw.ndim != 1 or raw.size == 0:
        raise ValidationError("wind series must be 1-D and non-empty")
    # the first-order IIR filter, seeded with out[-1] = raw[0]
    return _first_order(1.0 - SMOOTHING_ALPHA, SMOOTHING_ALPHA * raw, raw[0])


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    if not path.exists():
        raise FileNotFoundError(f"missing file: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            data = np.loadtxt(fh, delimiter=",", ndmin=2) if header else None
    except UnicodeDecodeError as err:  # in the header's chunk or later
        raise SchemaError(f"{path}: not UTF-8 text ({err})") from err
    except ValueError as err:
        raise SchemaError(f"{path}: malformed numeric body ({err})") from err
    if not header:
        raise SchemaError(f"{path}: empty file, expected a CSV header")
    names = [c.strip() for c in header.split(",")]
    if data.size == 0:
        raise SchemaError(f"{path}: no data rows")
    if data.shape[1] != len(names):
        raise SchemaError(
            f"{path}: header declares {len(names)} columns, rows have {data.shape[1]}"
        )
    return names, data


def _digits(a: np.ndarray, e: np.ndarray):
    """``(ok, m)``: ``m`` the 18 significant digits of ``a = |x|`` at
    decimal exponent ``e``, where ``ok``; ``e`` is set to 17 elsewhere.

    Dekker's product splits ``a * 10**k``, ``k = 17 - e``, exactly into its
    float64 ``p`` and the residual ``err``, and ``m`` is the exact product
    rounded half to even, as ``%`` rounds: ``p`` is an even integer from
    2**53 up, so ``p + rint(err)`` is that rounding, ``rint``'s choice at a
    tie included. ``floor(log10)`` can be off by one, but wherever ``m``
    has 18 digits ``%`` writes exactly those at ``e``.
    """
    k = 17 - e
    ok = (k >= 0) & (k < _POW.size)
    e[~ok] = 17
    k[~ok] = 0
    k = k.astype(np.intp)
    p = a * _POW[k]
    a_hi, a_lo = _split(a)
    p_hi, p_lo = _POW_HI[k], _POW_LO[k]
    err = ((a_hi * p_hi - p) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
    ok &= p < 2.0 ** 62
    bad = ~ok
    p[bad] = 0.0
    err[bad] = 0.0
    m = p.astype(np.int64)
    m += np.rint(err, out=err).astype(np.int64)
    ok &= (m >= 10 ** 17) & (m < 10 ** 18)
    m[~ok] = 10 ** 17  # in range of the tables; the words are zeroed later
    return ok, m


def _format_values(x: np.ndarray, seps: np.ndarray) -> str:
    """``x`` in ``_FLOAT_FMT``, each value followed by its separator word
    in ``seps``: byte for byte what ``%`` writes.

    A value ``x = +-m * 10**(e - 17)`` with 18 integer digits ``m`` (see
    :func:`_digits`) is emitted from the word tables above. Values the
    tables cannot format exactly (zero, non-finite, subnormal, an exponent
    outside -5 .. 17 and a rounding carry) are formatted by ``%`` and
    spliced in.
    """
    a = np.abs(x)
    with np.errstate(all="ignore"):
        e = np.floor(np.log10(a))
        ok, m = _digits(a, e)
    negative = np.signbit(x)
    words = np.empty((x.size, 7), "<u4")
    for j in range(4, 0, -1):  # the four digit words, last first
        high = m // 10000  # faster than np.divmod
        words[:, j] = _DIGIT_WORDS[m - high * 10000]
        m = high
    words[:, 0] = _LEAD_WORDS[m + 100 * negative]
    words[:, -2] = _EXP_WORDS[e.astype(np.intp) - _EXP[0]]
    words[:, -1] = seps
    slow = np.flatnonzero(~ok)
    words[slow] = 0  # zero bytes are squeezed out below
    codes = words.view(np.uint8)
    text = codes[codes != 0].tobytes().decode("ascii")
    if not slow.size:
        return text
    # where each slow value goes: after the 18 digits, '.', exponent, sign
    # and separator of each value formatted before it
    ends = np.cumsum(np.where(ok, 24 + negative, 0))[slow].tolist()
    pieces, done = [], 0
    for i, end in zip(slow.tolist(), ends):
        pieces += [text[done:end], _FLOAT_FMT % float(x[i]), chr(seps[i])]
        done = end
    pieces.append(text[done:])
    return "".join(pieces)


def _write_csv(path: Path, names: list[str], data: np.ndarray) -> None:
    """The one writer of numeric tables: a header row, then the rows of the
    2-D ``data`` (at least one column), each value in ``_FLOAT_FMT``, byte
    for byte what ``np.savetxt(path, data, fmt=_FLOAT_FMT, delimiter=",",
    header=",".join(names), comments="")`` writes.

    The values go through numpy blocks of ``_WRITE_BLOCK`` (see
    :func:`_format_values`), each written as soon as it is formatted.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(names) + "\n")
        values = np.ascontiguousarray(data, dtype=np.float64).ravel()
        n_cols = data.shape[1]
        # the separator after each value of a block that starts in
        # column 0; a block starting in column c reads from offset c
        seps = np.full(_WRITE_BLOCK + n_cols, ord(","), "<u4")
        seps[n_cols - 1::n_cols] = ord("\n")
        for start in range(0, values.size, _WRITE_BLOCK):
            block = values[start:start + _WRITE_BLOCK]
            col = start % n_cols
            fh.write(_format_values(block, seps[col:col + block.size]))


@contextmanager
def _npy_file(path: Path, shape: tuple[int, int]):
    """The ``.npy`` file ``path``, open at its start once its header is
    checked: a float64 matrix of ``shape`` whose data fill the rest of the
    file."""
    if not path.exists():
        raise FileNotFoundError(f"missing file: {path}")
    with open(path, "rb") as fh:
        if fh.read(len(_NPY_MAGIC)) != _NPY_MAGIC:
            raise SchemaError(f"{path}: not a .npy file")
        fh.seek(0)
        try:
            version = npformat.read_magic(fh)
            header = (npformat.read_array_header_1_0 if version == (1, 0)
                      else npformat.read_array_header_2_0)
            declared, _, dtype = header(fh)
        except ValueError as err:
            raise SchemaError(f"{path}: unreadable .npy header ({err})") from err
        if dtype != np.float64:
            raise SchemaError(f"{path}: dtype {dtype}, expected float64")
        if declared != shape:
            raise SchemaError(
                f"{path}: shape {declared}, expected {shape} (3*n_z, n_t)"
            )
        size = os.fstat(fh.fileno()).st_size
        expected = fh.tell() + 8 * shape[0] * shape[1]
        if size != expected:
            raise SchemaError(f"{path}: {size} bytes, expected {expected} "
                              f"for its header and shape")
        fh.seek(0)
        yield fh


def _read_npy(path: Path, shape: tuple[int, int]) -> np.ndarray:
    """The float64 field matrix of ``shape`` in a ``.npy`` file; its header
    and length are checked before the data is read, its values (see
    :func:`_check_values`) after."""
    with _npy_file(path, shape) as fh:
        data = np.load(fh, allow_pickle=False)
    _check_values(data, path)
    return data


def _stamp(path: Path) -> tuple[int, int]:
    """The size and modification time (ns) of the file at ``path``."""
    st = os.stat(path)
    return st.st_size, st.st_mtime_ns


def _read_channels(path: Path, f_s: float) -> dict:
    """The channels ``t, theta, omega, u_raw, u_filt`` of a channel table,
    which must have exactly that header, checked (see
    :func:`_checked_channels`) at sampling frequency ``f_s``; a fault is a
    :class:`SchemaError` naming the table."""
    names, data = _read_csv(path)
    if names != list(_CHANNELS):
        missing = [c for c in _CHANNELS if c not in names]
        extra = [c for c in names if c not in _CHANNELS]
        offender = (missing or extra or ["<column order>"])[0]
        raise SchemaError(f"{path}: column mismatch at '{offender}' "
                          f"(expected {','.join(_CHANNELS)})")
    try:
        return _checked_channels(
            {name: data[:, j] for j, name in enumerate(_CHANNELS)},
            data.shape[0], f_s)
    except ValidationError as err:
        raise SchemaError(f"{path}: {err}") from None


@dataclass(frozen=True)
class Case:
    """A case checked on disk but for its matrices' values (see
    :func:`open_case`): its manifest's path and content, grid, condition
    and checked channels, and the :func:`_stamp` each matrix file had when
    checked, by manifest key. :meth:`read` reads the field, :meth:`torsion`
    the torsion."""

    path: Path
    manifest: dict
    grid: BladeGrid
    condition: ConditionKey
    channels: dict
    stamps: dict

    def _read(self, key: str) -> np.ndarray:
        """The matrix the manifest names at ``key``, of the case's shape,
        its values checked once. A file whose size or modification time is
        no longer the checked one is a ValidationError naming it."""
        path = self.path.parent / self.manifest[key]
        if _stamp(path) != self.stamps[key]:
            raise ValidationError(
                f"{path}: changed since it was first read (size or "
                f"modification time)")
        return _read_npy(path, (self.grid.n_dof, self.channels["t"].size))

    def read(self) -> SnapshotEnsemble:
        """The case's ensemble, its field read (see :meth:`_read`)."""
        D = self._read("displacement_file")
        # the read checked the field and open_case the channels: the
        # ensemble is filled in without __post_init__'s second check
        ensemble = object.__new__(SnapshotEnsemble)
        vars(ensemble).update(grid=self.grid, D=D, condition=self.condition,
                              f_s=self.manifest["f_s"], **self.channels)
        return ensemble

    def torsion(self) -> np.ndarray | None:
        """The case's torsion matrix (see :meth:`_read`), of its field's
        shape; ``None`` when the manifest names no ``torsion_file``."""
        return (self._read("torsion_file") if "torsion_file" in self.stamps
                else None)


def open_case(manifest_path) -> Case:
    """Check one case without reading its matrices' values: its manifest,
    grid and channels, and the header and length of each matrix file it
    names. A fault is an error naming its file, or the manifest for a
    bad condition, blade length or station list."""
    manifest_path = Path(manifest_path)
    m = read_json(manifest_path, _MANIFEST, _MANIFEST_REQUIRED, "manifest")
    path = manifest_path.parent / m["grid_file"]
    names, data = _read_csv(path)
    if names != ["z_norm"]:
        raise SchemaError(f"{path}: expected single column 'z_norm', got {names}")
    try:  # the manifest's condition and blade length, and the stations
        condition = ConditionKey(m["u_mean"], m["ti"], m["seed"])
        grid = BladeGrid(data[:, 0], m["L_b"])
    except ValidationError as err:
        raise SchemaError(f"{manifest_path}: {err}") from None
    channels = _read_channels(manifest_path.parent / m["snapshot_file"],
                              m["f_s"])
    stamps = {}
    for key in ("displacement_file", "torsion_file"):
        if key in m:  # the torsion is optional
            path = manifest_path.parent / m[key]
            with _npy_file(path, (grid.n_dof, channels["t"].size)):
                stamps[key] = _stamp(path)
    return Case(manifest_path, m, grid, condition, channels, stamps)


def load_case(manifest_path) -> tuple[BladeGrid, SnapshotEnsemble]:
    """Load and validate one case from its manifest (see :func:`open_case`
    and :meth:`Case.read`); returns the grid and the snapshot ensemble."""
    case = open_case(manifest_path)
    return case.grid, case.read()


def save_case(ensemble: SnapshotEnsemble, out_dir, name: str,
              tau: np.ndarray | None = None) -> Path:
    """Write one case to out_dir.

    Writes the manifest, the grid and channel CSVs, and the displacement
    (and torsion) ``.npy`` matrices. Returns the manifest path. Values
    round-trip bit-exactly through :func:`load_case` for finite inputs.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    grid = ensemble.grid

    grid_file = f"{name}_grid.csv"
    snap_file = f"{name}_channels.csv"
    disp_file = f"{name}_displacement.npy"
    _write_csv(out_dir / grid_file, ["z_norm"], grid.z_norm[:, None])
    _write_csv(out_dir / snap_file, list(_CHANNELS),
               np.column_stack([getattr(ensemble, c) for c in _CHANNELS]))
    np.save(out_dir / disp_file, np.ascontiguousarray(ensemble.D, np.float64))

    manifest = {
        "name": name,
        "L_b": grid.length_m,
        "f_s": ensemble.f_s,
        "u_mean": ensemble.condition.u_mean,
        "ti": ensemble.condition.ti,
        "seed": ensemble.condition.seed,
        "grid_file": grid_file,
        "snapshot_file": snap_file,
        "displacement_file": disp_file,
    }
    if tau is not None:
        tau = np.ascontiguousarray(tau, dtype=np.float64)
        if tau.shape != ensemble.D.shape:
            raise ValidationError("torsion matrix must match the snapshot shape")
        tau_file = f"{name}_torsion.npy"
        np.save(out_dir / tau_file, tau)
        manifest["torsion_file"] = tau_file

    manifest_path = out_dir / f"{name}.json"
    write_json(manifest_path, manifest)
    return manifest_path
