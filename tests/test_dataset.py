import csv
import json
import os
import re
from fractions import Fraction

import numpy as np
import pytest
from scipy.signal import lfilter

from bladesense import (BladeGrid, ConditionKey, SnapshotEnsemble, load_case,
                        open_case, save_case, smooth_wind, wrap_angle)
from bladesense import dataset
from bladesense.dataset import SMOOTHING_ALPHA, TWO_PI
from bladesense.errors import SchemaError, ValidationError

from conftest import (CHANNELS, DAMAGE, NPY_DAMAGE, damage_case,
                      savetxt_writer)


def _write_minimal_case(tmp_path, *, drop=None, f_s=160.0, bad_theta=None):
    """A two-station, three-step case; ``drop`` names a channel column to
    leave out of its table."""
    (tmp_path / "grid.csv").write_text("z_norm\n0.0\n1.0\n")
    names = list(CHANNELS)
    rows = [[k / f_s, 0.1 * k if bad_theta is None or k != 1 else bad_theta,
             1.0, 10.0, 10.0] for k in range(3)]
    if drop is not None:
        j = names.index(drop)
        del names[j]
        for row in rows:
            del row[j]
    (tmp_path / "snap.csv").write_text("\n".join(
        [",".join(names)] + [",".join(map(str, r)) for r in rows]) + "\n")
    # stations 0 and 1 of x, y and z in D's row order
    np.save(tmp_path / "disp.npy", np.repeat(
        np.array([[0.0], [1.0], [0.0], [2.0], [0.0], [3.0]]), 3, axis=1))
    manifest = {
        "name": "mini", "L_b": 100.0, "f_s": f_s, "u_mean": 10.0, "ti": 0.1,
        "seed": 0, "grid_file": "grid.csv", "snapshot_file": "snap.csv",
        "displacement_file": "disp.npy",
    }
    path = tmp_path / "mini.json"
    path.write_text(json.dumps(manifest))
    return path


class TestLoadCase:
    def test_minimal_case_shapes(self, tmp_path):
        grid, ens = load_case(_write_minimal_case(tmp_path))
        assert grid.n_z == 2
        assert ens.n_t == 3
        assert ens.D.shape == (6, 3)
        # stacking order: x-block then y-block then z-block
        assert ens.D[1, 0] == 1.0 and ens.D[3, 0] == 2.0 and ens.D[5, 0] == 3.0

    def test_sampling_frequency_from_manifest(self, tmp_path):
        _, ens = load_case(_write_minimal_case(tmp_path, f_s=160.0))
        assert ens.f_s == 160.0

    def test_missing_theta_column_is_schema_error(self, tmp_path):
        path = _write_minimal_case(tmp_path, drop="theta")
        with pytest.raises(SchemaError, match="theta"):
            load_case(path)

    def test_missing_manifest_reports_path(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="nope.json"):
            load_case(tmp_path / "nope.json")

    def test_missing_snapshot_file_reports_path(self, tmp_path):
        path = _write_minimal_case(tmp_path)
        (tmp_path / "snap.csv").unlink()
        with pytest.raises(FileNotFoundError, match="snap.csv"):
            load_case(path)

    def test_theta_out_of_range_reports_row(self, tmp_path):
        path = _write_minimal_case(tmp_path, bad_theta=7.0)
        with pytest.raises(ValidationError, match="row 1: 7.0$"):
            load_case(path)

    def test_nan_theta_reports_column_and_row(self, tmp_path):
        path = _write_minimal_case(tmp_path, bad_theta="nan")
        with pytest.raises(ValidationError,
                           match="column theta at row 1: nan$"):
            load_case(path)

    def test_nan_displacement_reports_column_and_row(self, tmp_path):
        path = _write_minimal_case(tmp_path)
        D = np.load(tmp_path / "disp.npy")
        D[3, 2] = np.nan  # uy_001 of the third time step
        np.save(tmp_path / "disp.npy", D)
        with pytest.raises(ValidationError,
                           match=r"component y, station 001\) at row 2"):
            load_case(path)

    def test_manifest_missing_key(self, tmp_path):
        path = _write_minimal_case(tmp_path)
        doc = json.loads(path.read_text())
        del doc["grid_file"]
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="grid_file"):
            load_case(path)

    def test_table_without_u_filt_is_rejected(self, tmp_path):
        path = _write_minimal_case(tmp_path, drop="u_filt")
        with pytest.raises(SchemaError, match="snap.csv: .*'u_filt'"):
            load_case(path)

    @pytest.mark.parametrize("column", ["u_raw", "u_filt"])
    def test_negative_wind_speed_names_the_table(self, tmp_path, column):
        path = _write_minimal_case(tmp_path)
        table = tmp_path / "snap.csv"
        lines = table.read_text().splitlines()
        cells = lines[2].split(",")
        cells[CHANNELS.index(column)] = "-0.5"
        lines[2] = ",".join(cells)
        table.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match=(
                rf"snap.csv: negative wind speed in column {column} at row 1: "
                r"-0.5$")):
            load_case(path)


class TestOpenCase:
    def test_checks_all_but_the_field_values(self, tmp_path):
        # a non-finite field value passes open_case; the read rejects it
        manifest, ens, _ = _random_case(tmp_path)
        D = ens.D.copy()
        D[2, 4] = np.nan  # ux_002 at the fifth time step
        np.save(tmp_path / "tc_displacement.npy", D)
        case = dataset.open_case(manifest)
        assert np.array_equal(case.channels["theta"], ens.theta)
        with pytest.raises(ValidationError, match=(
                r"tc_displacement.npy: non-finite value \(component x, "
                r"station 002\) at row 4: nan$")):
            case.read()

    def test_read_rejects_a_field_changed_since_it_was_opened(self,
                                                              tmp_path):
        manifest, ens, _ = _random_case(tmp_path)
        case = dataset.open_case(manifest)
        assert np.array_equal(case.read().D, ens.D)
        path = tmp_path / "tc_displacement.npy"
        np.save(path, 2.0 * ens.D)  # the same size, a second later
        mtime = case.stamps["displacement_file"][1]
        os.utime(path, ns=(mtime, mtime + 10**9))
        with pytest.raises(ValidationError,
                           match="tc_displacement.npy: changed since"):
            case.read()

    @pytest.mark.parametrize("change", ["size", "mtime"])
    def test_torsion_rejects_a_file_changed_since_it_was_opened(
            self, tmp_path, change):
        # the torsion is read under the field's guard: its own stamp
        manifest, ens, tau = _random_case(tmp_path)
        case = dataset.open_case(manifest)
        path = tmp_path / "tc_torsion.npy"
        mtime = case.stamps["torsion_file"][1]
        if change == "size":
            with open(path, "ab") as fh:
                fh.write(bytes(8))
            os.utime(path, ns=(mtime, mtime))
        else:
            np.save(path, 2.0 * tau)
            os.utime(path, ns=(mtime, mtime + 10**9))
        assert np.array_equal(case.read().D, ens.D)
        with pytest.raises(ValidationError,
                           match="tc_torsion.npy: changed since"):
            case.torsion()

    @pytest.mark.parametrize("key, value", [("ti", 1.5), ("u_mean", 0.0),
                                            ("L_b", -60.0)])
    def test_a_manifest_value_out_of_range_names_the_manifest(
            self, tmp_path, key, value):
        manifest, _, _ = _random_case(tmp_path)
        doc = json.loads(manifest.read_text())
        manifest.write_text(json.dumps({**doc, key: value}))
        with pytest.raises(SchemaError,
                           match=f"^{re.escape(str(manifest))}: "):
            dataset.open_case(manifest)

    def test_a_grid_fault_names_the_manifest(self, tmp_path):
        manifest, _, _ = _random_case(tmp_path)
        (tmp_path / "tc_grid.csv").write_text("z_norm\n0.0\n0.8\n0.7\n1.0\n")
        with pytest.raises(SchemaError, match=(
                f"^{re.escape(str(manifest))}: z_norm must be strictly "
                "increasing$")):
            dataset.open_case(manifest)


class TestRoundTrip:
    def test_save_load_bit_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        grid = BladeGrid(z_norm=np.linspace(0, 1, 5), length_m=80.0)
        n_t = 17
        f_s = 40.0
        ens = SnapshotEnsemble(
            grid=grid,
            D=rng.standard_normal((15, n_t)) * 3.7,
            t=np.arange(n_t) / f_s,
            theta=wrap_angle(rng.uniform(0, TWO_PI, n_t)),
            omega=rng.uniform(0.5, 1.5, n_t),
            u_raw=rng.uniform(5, 15, n_t),
            u_filt=rng.uniform(5, 15, n_t),
            condition=ConditionKey(10.0, 0.1, 3),
            f_s=f_s,
        )
        manifest = save_case(ens, tmp_path, "rt")
        _, back = load_case(manifest)
        assert np.array_equal(back.D, ens.D)
        assert np.array_equal(back.t, ens.t)
        assert np.array_equal(back.theta, ens.theta)
        assert np.array_equal(back.u_filt, ens.u_filt)

    def test_second_round_trip_identical_files(self, tmp_path):
        grid = BladeGrid(z_norm=np.linspace(0, 1, 3), length_m=50.0)
        rng = np.random.default_rng(0)
        ens = SnapshotEnsemble(
            grid=grid, D=rng.standard_normal((9, 4)),
            t=np.arange(4) / 10.0, theta=np.array([0.0, 1.0, 2.0, 3.0]),
            omega=np.ones(4), u_raw=np.full(4, 9.0), u_filt=np.full(4, 9.0),
            condition=ConditionKey(9.0, 0.05, 1), f_s=10.0,
        )
        tau = rng.standard_normal((9, 4))
        m1 = save_case(ens, tmp_path / "a", "case", tau=tau)
        _, loaded = load_case(m1)
        save_case(loaded, tmp_path / "b", "case",
                  tau=open_case(m1).torsion())
        written = sorted(f.name for f in (tmp_path / "a").iterdir())
        assert written == ["case.json", "case_channels.csv",
                           "case_displacement.npy", "case_grid.csv",
                           "case_torsion.npy"]
        assert sorted(f.name for f in (tmp_path / "b").iterdir()) == written
        for name in written:
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes(), name



def _ties(rng, n):
    """``n`` floats that are exact ties at the 18th significant digit: an
    odd ``M < 2**53`` times ``2**(e - 18)`` lies in [10**e, 10**(e + 1))
    and times 10**(17 - e) is ``M * 5**(17 - e) / 2``, for e = -5 .. 14."""
    e = rng.integers(-5, 15, n)
    low = 2.0 ** 18 * 5.0 ** e
    M = rng.uniform(low + 1, np.minimum(10 * low, 2.0 ** 53) - 1)
    return (M.astype(np.int64) | 1) * 2.0 ** (e - 18)


def _table(kind, shape, rng):
    """A test table of ``shape`` whose values are of the given ``kind``."""
    data = rng.standard_normal(shape) * 10.0 ** rng.integers(-12, 12, shape)
    flat = data.reshape(-1)
    if kind == "integers":
        data = np.round(data / np.abs(data).max() * 1e6)
        data[0, 0] = -0.0
    elif kind == "special":
        big, tiny = np.finfo(float).max, np.finfo(float).tiny
        values = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324,
                  -5e-324, tiny, -tiny, tiny / 3, big, -big]
        flat[:len(values)] = values
    elif kind == "near-halves":
        # ten digits and a half, at both ends of the digit range, and the
        # floats next to them on either side
        n = np.concatenate([[1e9, 1e10 - 1, 5e9], rng.integers(1e9, 1e10, 97)])
        halves = (n + 0.5) * 10.0 ** rng.integers(-22, 23, n.size)
        values = np.concatenate([halves, np.nextafter(halves, 0.0),
                                 np.nextafter(halves, np.inf)])
        flat[:values.size] = values * np.where(np.arange(values.size) % 2, -1, 1)
    elif kind == "near-halves-18":
        # the floats nearest to an 18-digit half (n5 * 10**p), at both ends
        # of the digit range, and the floats next to them; then exact ties
        n = np.concatenate([[10**17, 10**18 - 1],
                            rng.integers(10**17, 10**18, 58)])
        p = rng.integers(-24, 24, n.size)
        halves = np.array([float(f"{d}5e{q}")
                           for d, q in zip(n.tolist(), p.tolist())])
        values = np.concatenate([halves, np.nextafter(halves, 0.0),
                                 np.nextafter(halves, np.inf), _ties(rng, 60)])
        flat[:values.size] = values * np.where(np.arange(values.size) % 2,
                                               -1, 1)
    elif kind == "powers-of-ten":
        powers = 10.0 ** np.arange(-25, 36)
        values = np.concatenate([powers, np.nextafter(powers, 0.0),
                                 np.nextafter(powers, np.inf), -powers])
        flat[:values.size] = values
    elif kind == "exponent-edges":
        # values next to 1e-13 and 1e10, and with 3-digit exponents; then
        # the edges of the range the numpy blocks format, e = -5 .. 17,
        # and the first exponents beyond it, which go to %
        edges = np.array([1e-13, 9.87654321e-13, 1e-14, 9.87654321e-14,
                          1e9, np.nextafter(1e10, 0.0), 9.9999999995e9, 1e10,
                          1e31, 9.87654321e31, 9.9999999999e31, 1e32,
                          9.87654321e32, 1.5e-99, 1e-100, 1.5e100, 1e300,
                          2.5e-308,
                          1e-5, 9.87654321e-6, np.nextafter(1e-5, 0.0), 1e17,
                          9.87654321e17, np.nextafter(1e18, 0.0), 1e18,
                          1.23456789e18])
        flat[:2 * edges.size] = np.concatenate([edges, -edges])
    return data


class TestWriteCsv:
    """``_write_csv``'s bytes are np.savetxt's at ``%.17e``; the values go
    through numpy blocks of ``_WRITE_BLOCK``, with the values they cannot
    format exactly spliced in from ``%``."""

    @pytest.mark.parametrize("shape, kind", [
        ((40, 1), "random"),           # one column
        ((60, 39), "random"),          # as wide as a reconstruction table
        ((1, 7), "random"),            # a single row
        ((30, 3), "integers"),         # integer-valued floats, incl. -0.0
        ((600, 5), "random"),          # 3 000 values, one block
        ((512, 2), "random"),          # 1 024 values, one block
        ((9, 2), "special"),           # nan, inf, subnormal, extremes
        ((0, 3), "random"),            # no rows: the header alone
        ((2048, 4), "random"),         # exactly two 4 096-value blocks
        ((700, 7), "random"),          # a 4 096-value block ends mid-row
        ((50, 7), "near-halves"),      # and their neighbours, either sign
        ((61, 4), "powers-of-ten"),    # and their neighbours
        ((13, 4), "exponent-edges"),   # e = -13/-14, 9/10, -6/-5, 17/18
        ((60, 7), "near-halves-18"),   # near and exact 18-digit ties
    ])
    def test_bytes_equal_savetxt(self, tmp_path, shape, kind):
        data = _table(kind, shape, np.random.default_rng(sum(shape)))
        names = [f"c{k}" for k in range(shape[1])]
        dataset._write_csv(tmp_path / "got.csv", names, data)
        savetxt_writer(tmp_path / "ref.csv", names, data)
        got = (tmp_path / "got.csv").read_bytes()
        assert got == (tmp_path / "ref.csv").read_bytes()
        assert got.count(b"\n") == shape[0] + 1

    def test_a_million_lossless_values_equal_savetxt(self, tmp_path):
        # random bit patterns, values across exponents -16..35 and at both
        # edges of the blocks' range (e = -6/-5 and 17/18), 18-digit
        # near-halves moved by up to 4 ulps, exact ties, and integers
        # between 2**53 and 2**63
        rng = np.random.default_rng(23)
        n = 160_000
        bits = np.frombuffer(rng.bytes(8 * n), np.float64)
        spread = rng.standard_normal(n) * 10.0 ** rng.uniform(-16, 35, n)
        edges = rng.uniform(1.0, 10.0, n) * \
            10.0 ** rng.choice([-6, -5, 17, 18], n)
        near = np.array([float(f"{d}5e{q}") for d, q in zip(
            rng.integers(10**17, 10**18, n).tolist(),
            rng.integers(-23, 1, n).tolist())])
        near = near.view(np.int64) + rng.integers(-4, 5, n)
        big = rng.integers(2**53, 2**63 - 2**10, n).astype(np.float64)
        signed = np.concatenate([spread, edges, near.view(np.float64),
                                 _ties(rng, n), big])
        signed *= rng.choice([-1.0, 1.0], signed.size)
        data = rng.permutation(np.concatenate([bits, signed]))
        data = np.concatenate([data, np.zeros(40_000)]).reshape(-1, 40)
        assert data.size == 1_000_000
        names = [f"c{k}" for k in range(40)]
        dataset._write_csv(tmp_path / "got.csv", names, data)
        savetxt_writer(tmp_path / "ref.csv", names, data)
        assert (tmp_path / "got.csv").read_bytes() == \
            (tmp_path / "ref.csv").read_bytes()

    def test_exact_ties_round_half_to_even(self, tmp_path):
        # each tie's 18 digits end in an even digit, as % rounds them
        ties = _ties(np.random.default_rng(3), 2_000)
        e = np.floor(np.log10(ties)).astype(int)
        for x, k in zip(ties.tolist(), (17 - e).tolist()):
            assert Fraction(x) * 10**k % 1 == Fraction(1, 2), x
        dataset._write_csv(tmp_path / "got.csv", ["x"], ties[:, None])
        savetxt_writer(tmp_path / "ref.csv", ["x"], ties[:, None])
        got = (tmp_path / "got.csv").read_text()
        assert got == (tmp_path / "ref.csv").read_text()
        last = [int(text.split("e")[0][-1]) for text in got.split()[1:]]
        assert len(last) == ties.size and all(d % 2 == 0 for d in last)

    def test_a_wrong_exponent_is_left_to_percent(self):
        # floor(log10) can be off by one next to a power of ten. The double
        # just below 10**e taken at e scales below 1e17, and the one at or
        # above 10**e taken at e - 1 to 1e18 or more: both are left to %.
        # The one below taken at e - 1 is formatted, but at e = -5, where
        # e - 1 is outside the tables
        fmt = "%.17e"
        for e in range(-5, 18):
            above = 10.0 ** e
            if Fraction(above) < Fraction(10) ** e:
                above = np.nextafter(above, np.inf)
            below = np.nextafter(above, 0.0)
            x = np.array([below, above, below, above])
            at = np.array([e, e, e - 1, e - 1], float)
            ok, m = dataset._digits(x, at)
            assert ok.tolist() == [False, True, e > -5, False], e
            # whichever way ok falls, the text is %'s
            for v, good, digits, where in zip(x.tolist(), ok.tolist(),
                                              m.tolist(), at.tolist()):
                if good:
                    text = str(digits)
                    assert f"{text[0]}.{text[1:]}e{int(where):+03d}" == \
                        fmt % v, (e, v)
            seps = np.full(4, ord(","), "<u4")
            assert dataset._format_values(x, seps) == \
                "".join(fmt % v + "," for v in x.tolist())


def _random_case(tmp_path, seed=4, n_z=4, n_t=9):
    """A saved binary-layout case with torsion; returns (manifest, ens, tau)."""
    rng = np.random.default_rng(seed)
    grid = BladeGrid(z_norm=np.linspace(0, 1, n_z), length_m=60.0)
    ens = SnapshotEnsemble(
        grid=grid, D=rng.standard_normal((3 * n_z, n_t)),
        t=np.arange(n_t) / 20.0,
        theta=wrap_angle(rng.uniform(0, TWO_PI, n_t)),
        omega=rng.uniform(0.5, 1.5, n_t), u_raw=rng.uniform(5, 15, n_t),
        u_filt=rng.uniform(5, 15, n_t), condition=ConditionKey(9.0, 0.1, 2),
        f_s=20.0,
    )
    tau = rng.standard_normal((3 * n_z, n_t)) * 1e-3
    return save_case(ens, tmp_path, "tc", tau=tau), ens, tau


class TestCaseTorsion:
    def test_none_without_torsion_file(self, tmp_path):
        assert open_case(_write_minimal_case(tmp_path)).torsion() is None

    def test_reads_torsion_bit_exact_without_snapshot_file(self, tmp_path):
        # once the case is open, only the torsion file is read: not the
        # manifest, the grid, the channels or the field
        manifest, _, tau = _random_case(tmp_path)
        case = open_case(manifest)
        for f in ("tc.json", "tc_grid.csv", "tc_channels.csv",
                  "tc_displacement.npy"):
            (tmp_path / f).unlink()  # must not be needed
        back = case.torsion()
        assert type(back) is np.ndarray and np.array_equal(back, tau)

    @pytest.mark.parametrize("kind", NPY_DAMAGE)
    def test_a_damaged_torsion_file_is_rejected_when_opened(self, tmp_path,
                                                            kind):
        # its header and length are checked as the field's are, before
        # any matrix is read
        manifest, _, _ = _random_case(tmp_path)
        error, name = damage_case(manifest, kind, "torsion_file")
        assert name == "tc_torsion.npy"
        with pytest.raises(error, match=name):
            open_case(manifest)


class TestLayouts:
    def test_saved_matrices_are_float64_in_row_order(self, tmp_path):
        _, ens, tau = _random_case(tmp_path)
        for name, expected in (("tc_displacement.npy", ens.D),
                               ("tc_torsion.npy", tau)):
            stored = np.load(tmp_path / name, allow_pickle=False)
            assert stored.dtype == np.float64 and stored.flags.c_contiguous
            assert np.array_equal(stored, expected)

    def test_channels_table_is_plain_csv(self, tmp_path):
        manifest, ens, _ = _random_case(tmp_path)
        path = tmp_path / json.loads(manifest.read_text())["snapshot_file"]
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == CHANNELS
        assert [float(r[4]) for r in rows[1:]] == ens.u_filt.tolist()


class TestBadBinaryInput:
    @pytest.mark.parametrize("kind", DAMAGE)
    def test_rejected_at_load_naming_the_file(self, tmp_path, kind):
        manifest, _, _ = _random_case(tmp_path)
        error, name = damage_case(manifest, kind)
        with pytest.raises(error, match=name):
            load_case(manifest)

    def test_non_finite_matrix_value_reports_column_and_row(self, tmp_path):
        manifest, ens, _ = _random_case(tmp_path)
        D = ens.D.copy()
        D[5, 3] = np.inf  # uy_001 at the fourth time step
        np.save(tmp_path / "tc_displacement.npy", D)
        with pytest.raises(ValidationError,
                           match=r"component y, station 001\) at row 3"):
            load_case(manifest)

    @pytest.mark.parametrize("kind", ["displacement", "torsion"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_matrix_value_names_the_file(self, tmp_path, kind,
                                                    value):
        # one message for both matrices: the file, the component, station
        # and row, and the value as a plain float
        manifest, ens, tau = _random_case(tmp_path)
        path = tmp_path / f"tc_{kind}.npy"
        M = (ens.D if kind == "displacement" else tau).copy()
        M[10, 7] = value  # uz_002 at the eighth time step
        np.save(path, M)
        load = {"displacement": lambda: load_case(manifest),
                "torsion": lambda: open_case(manifest).torsion()}[kind]
        with pytest.raises(ValidationError) as err:
            load()
        assert str(err.value) == (
            f"{path}: non-finite value (component z, station 002) at row 7: "
            f"{float(value)!r}")


    @pytest.mark.parametrize("kind", ["displacement", "torsion"])
    @pytest.mark.parametrize("value", [1.5e100, -1e300])
    def test_matrix_value_beyond_the_bound_names_the_file(
            self, tmp_path, kind, value):
        # a finite value too large for the fit's products is rejected with
        # the same location as a non-finite one
        manifest, ens, tau = _random_case(tmp_path)
        path = tmp_path / f"tc_{kind}.npy"
        M = (ens.D if kind == "displacement" else tau).copy()
        M[10, 7] = value  # uz_002 at the eighth time step
        M[0, 8] = np.nan  # a later row: the first offender is named
        np.save(path, M)
        load = {"displacement": lambda: load_case(manifest),
                "torsion": lambda: open_case(manifest).torsion()}[kind]
        with pytest.raises(ValidationError) as err:
            load()
        assert str(err.value) == (
            f"{path}: magnitude above 1e+100 (component z, station 002) at "
            f"row 7: {value!r}")

    def test_values_at_the_bound_pass(self, tmp_path):
        manifest, ens, tau = _random_case(tmp_path)
        D = ens.D.copy()
        D[0, 0], D[1, 1] = dataset.MAX_ABS, -dataset.MAX_ABS
        np.save(tmp_path / "tc_displacement.npy", D)
        assert np.array_equal(load_case(manifest)[1].D, D)


class TestSmoothWind:
    def test_constant_is_fixed_point(self):
        out = smooth_wind(np.full(50, 10.0))
        assert np.allclose(out, 10.0)

    def test_single_step_recurrence(self):
        out = smooth_wind(np.array([0.0, 1.0]))
        assert np.allclose(out, [0.0, 0.2])

    def test_factor_is_not_an_argument(self):
        with pytest.raises(TypeError):
            smooth_wind(np.ones(3), alpha=0.2)

    def test_output_bounded_by_input_range(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(4.0, 16.0, 300)
        out = smooth_wind(x)
        assert out.min() >= x.min() - 1e-12
        assert out.max() <= x.max() + 1e-12

    def test_shift_equivariance(self):
        rng = np.random.default_rng(5)
        x = rng.normal(10.0, 2.0, 120)
        full = smooth_wind(x)
        k = 37
        # restart at k with the filter state seeded from the previous output
        tail = smooth_wind(np.concatenate([[full[k - 1]], x[k:]]))[1:]
        assert np.array_equal(full[k:], tail)

    def test_empty_series_rejected(self):
        with pytest.raises(ValidationError):
            smooth_wind(np.array([]))

    @pytest.mark.parametrize("n", [1, 2, 3200])
    def test_bit_identical_to_lfilter(self, n):
        alpha = SMOOTHING_ALPHA
        x = np.random.default_rng(n).normal(10.0, 2.0, n)
        # the IIR form; zi encodes the out[0] = raw[0] seed
        zi = np.array([(1.0 - alpha) * x[0]])
        ref, _ = lfilter([alpha], [1.0, -(1.0 - alpha)], x, zi=zi)
        assert np.array_equal(smooth_wind(x), ref)

    @staticmethod
    def _former_smooth_wind(raw, alpha):
        """The direct-form loop over Python floats that the shared
        first-order recurrence replaced."""
        a = float(alpha)
        b = 1.0 - a
        z = b * float(raw[0])
        out = []
        for x in raw.tolist():
            y = a * x + z
            out.append(y)
            z = b * y
        return np.array(out)

    def test_bit_identical_to_the_former_loop(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            n = int(rng.integers(1, 400))
            x = rng.normal(10.0, 3.0, n) * 10.0 ** rng.uniform(-3, 3)
            assert (smooth_wind(x).tobytes()
                    == self._former_smooth_wind(x, SMOOTHING_ALPHA).tobytes())


class TestInvariants:
    def test_grid_must_be_increasing(self):
        with pytest.raises(ValidationError):
            BladeGrid(z_norm=np.array([0.0, 0.6, 0.5, 1.0]), length_m=10.0)

    def test_grid_endpoints(self):
        with pytest.raises(ValidationError):
            BladeGrid(z_norm=np.array([0.1, 1.0]), length_m=10.0)
        with pytest.raises(ValidationError):
            BladeGrid(z_norm=np.array([0.0, 0.9]), length_m=10.0)

    def test_condition_validation(self):
        with pytest.raises(ValidationError):
            ConditionKey(u_mean=-1.0, ti=0.1, seed=0)
        with pytest.raises(ValidationError):
            ConditionKey(u_mean=10.0, ti=1.5, seed=0)

    def test_time_axis_spacing_enforced(self):
        grid = BladeGrid(z_norm=np.array([0.0, 1.0]), length_m=10.0)
        t = np.array([0.0, 0.5, 0.9])  # wrong spacing for f_s=2
        with pytest.raises(ValidationError, match="spacing"):
            SnapshotEnsemble(
                grid=grid, D=np.zeros((6, 3)), t=t, theta=np.zeros(3),
                omega=np.zeros(3), u_raw=np.ones(3), u_filt=np.ones(3),
                condition=ConditionKey(10.0, 0.1, 0), f_s=2.0,
            )

    def test_metadata_length_mismatch(self):
        grid = BladeGrid(z_norm=np.array([0.0, 1.0]), length_m=10.0)
        with pytest.raises(ValidationError, match="theta"):
            SnapshotEnsemble(
                grid=grid, D=np.zeros((6, 3)), t=np.arange(3) / 2.0,
                theta=np.zeros(2), omega=np.zeros(3), u_raw=np.ones(3),
                u_filt=np.ones(3), condition=ConditionKey(10.0, 0.1, 0),
                f_s=2.0,
            )

    @pytest.mark.parametrize("where", ["D", "u_filt"])
    def test_value_beyond_the_bound_rejected(self, where):
        grid = BladeGrid(z_norm=np.array([0.0, 1.0]), length_m=10.0)
        arrays = {"D": np.zeros((6, 3)), "u_filt": np.ones(3)}
        arrays[where][..., 1] = 1e101
        message = {"D": r"D: magnitude above 1e\+100 \(component x, station "
                        r"000\) at row 1: 1e\+101$",
                   "u_filt": r"^magnitude above 1e\+100 in column u_filt at "
                             r"row 1: 1e\+101$"}[where]
        with pytest.raises(ValidationError, match=message):
            SnapshotEnsemble(
                grid=grid, t=np.arange(3) / 2.0, theta=np.zeros(3),
                omega=np.ones(3), u_raw=np.ones(3), **arrays,
                condition=ConditionKey(10.0, 0.1, 0), f_s=2.0,
            )

    @pytest.mark.parametrize("column", ["u_raw", "u_filt"])
    def test_negative_wind_speed_rejected(self, column):
        # a wind speed is a magnitude; zero is allowed
        grid = BladeGrid(z_norm=np.array([0.0, 1.0]), length_m=10.0)
        wind = {"u_raw": np.zeros(3), "u_filt": np.zeros(3)}
        wind[column] = np.array([0.0, -1e-3, 1.0])
        with pytest.raises(ValidationError, match=(
                rf"negative wind speed in column {column} at row 1")):
            SnapshotEnsemble(
                grid=grid, D=np.zeros((6, 3)), t=np.arange(3) / 2.0,
                theta=np.zeros(3), omega=np.ones(3), **wind,
                condition=ConditionKey(10.0, 0.1, 0), f_s=2.0,
            )
