import csv
import json

import numpy as np
import pytest
from scipy.signal import lfilter

from bladesense import (BladeGrid, ConditionKey, SnapshotEnsemble, azimuth_bin,
                        load_case, load_torsion, save_case, smooth_wind,
                        wrap_angle)
from bladesense import dataset
from bladesense.dataset import TWO_PI
from bladesense.errors import SchemaError, ValidationError

from conftest import CHANNELS, DAMAGE, damage_case, savetxt_writer


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
        with pytest.raises(ValidationError, match="row 1"):
            load_case(path)

    def test_nan_theta_reports_column_and_row(self, tmp_path):
        path = _write_minimal_case(tmp_path, bad_theta="nan")
        with pytest.raises(ValidationError, match="column theta at row 1"):
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
        save_case(loaded, tmp_path / "b", "case", tau=load_torsion(m1).D)
        written = sorted(f.name for f in (tmp_path / "a").iterdir())
        assert written == ["case.json", "case_channels.csv",
                           "case_displacement.npy", "case_grid.csv",
                           "case_torsion.npy"]
        assert sorted(f.name for f in (tmp_path / "b").iterdir()) == written
        for name in written:
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes(), name



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
    elif kind == "powers-of-ten":
        powers = 10.0 ** np.arange(-25, 36)
        values = np.concatenate([powers, np.nextafter(powers, 0.0),
                                 np.nextafter(powers, np.inf), -powers])
        flat[:values.size] = values
    elif kind == "exponent-edges":
        # the last exponents the numpy blocks format and the first ones
        # they leave to %, with 3-digit exponents beyond
        edges = np.array([1e-13, 9.87654321e-13, 1e-14, 9.87654321e-14,
                          1e31, 9.87654321e31, 9.9999999999e31, 1e32,
                          9.87654321e32, 1.5e-99, 1e-100, 1.5e100, 1e300,
                          2.5e-308])
        flat[:2 * edges.size] = np.concatenate([edges, -edges])
    return data


class TestWriteCsv:
    """``_write_csv``'s bytes are np.savetxt's, at the lossless and at the
    report precision; report tables go through numpy blocks of
    ``_REPORT_BLOCK`` values, with the values they cannot format exactly
    spliced in from ``%``."""

    FORMATS = (dataset._FLOAT_FMT, dataset._REPORT_FMT)

    @pytest.mark.parametrize("shape, kind", [
        ((40, 1), "random"),           # one column
        ((60, 39), "random"),          # as wide as a reconstruction table
        ((1, 7), "random"),            # a single row
        ((30, 3), "integers"),         # integer-valued floats, incl. -0.0
        ((600, 5), "random"),          # more than one 256-row block
        ((512, 2), "random"),          # exactly two blocks
        ((9, 2), "special"),           # nan, inf, subnormal, extremes
        ((0, 3), "random"),            # no rows: the header alone
        ((2048, 4), "random"),         # exactly two 4 096-value blocks
        ((700, 7), "random"),          # a 4 096-value block ends mid-row
        ((50, 7), "near-halves"),      # and their neighbours, either sign
        ((61, 4), "powers-of-ten"),    # and their neighbours
        ((7, 4), "exponent-edges"),    # e = -13/-14, 31/32, three digits
    ])
    def test_bytes_equal_savetxt(self, tmp_path, shape, kind):
        data = _table(kind, shape, np.random.default_rng(sum(shape)))
        names = [f"c{k}" for k in range(shape[1])]
        for fmt in self.FORMATS:
            dataset._write_csv(tmp_path / "got.csv", names, data, fmt)
            savetxt_writer(tmp_path / "ref.csv", names, data, fmt)
            got = (tmp_path / "got.csv").read_bytes()
            assert got == (tmp_path / "ref.csv").read_bytes(), fmt
            assert got.count(b"\n") == shape[0] + 1

    def test_a_million_report_values_equal_savetxt(self, tmp_path):
        # random bit patterns (every class of float, with 3-digit exponents),
        # values across the exponents the blocks handle, and near-halves
        # moved by up to 4 ulps
        rng = np.random.default_rng(19)
        n = 400_000
        bits = np.frombuffer(rng.bytes(8 * n // 2), np.float64)
        spread = rng.standard_normal(n) * 10.0 ** rng.uniform(-16, 35, n)
        halves = (rng.integers(1e9, 1e10, n) + 0.5) * \
            10.0 ** rng.integers(-22, 23, n)
        halves = halves.view(np.int64) + rng.integers(-4, 5, n)
        data = np.concatenate([bits, spread, halves.view(np.float64)])
        data = rng.permutation(data).reshape(-1, 40)
        assert data.size == 1_000_000
        names = [f"c{k}" for k in range(40)]
        dataset._write_csv(tmp_path / "got.csv", names, data,
                           dataset._REPORT_FMT)
        savetxt_writer(tmp_path / "ref.csv", names, data, dataset._REPORT_FMT)
        assert (tmp_path / "got.csv").read_bytes() == \
            (tmp_path / "ref.csv").read_bytes()

    def test_one_dimensional_data_is_one_column(self, tmp_path):
        data = np.linspace(0.0, 1.0, 300)
        for fmt in self.FORMATS:
            dataset._write_csv(tmp_path / "got.csv", ["z_norm"], data, fmt)
            savetxt_writer(tmp_path / "ref.csv", ["z_norm"], data, fmt)
            assert (tmp_path / "got.csv").read_bytes() == \
                (tmp_path / "ref.csv").read_bytes(), fmt


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


class TestLoadTorsion:
    def test_none_without_torsion_file(self, tmp_path):
        assert load_torsion(_write_minimal_case(tmp_path)) is None

    def test_reads_torsion_bit_exact_without_snapshot_file(self, tmp_path):
        manifest, ens, tau = _random_case(tmp_path)
        (tmp_path / "tc_displacement.npy").unlink()  # must not be needed
        back = load_torsion(manifest)
        assert np.array_equal(back.D, tau)
        assert np.array_equal(back.theta, ens.theta)
        assert back.condition == ens.condition and back.f_s == ens.f_s

    def test_reads_only_the_torsion_file_given_the_deflection(self, tmp_path):
        manifest, _, tau = _random_case(tmp_path)
        _, ens = load_case(manifest)
        for f in ("tc_grid.csv", "tc_channels.csv", "tc_displacement.npy"):
            (tmp_path / f).unlink()
        back = load_torsion(manifest, ens.grid, ens.channels())
        assert np.array_equal(back.D, tau)
        assert back.grid is ens.grid and back.theta is ens.theta

    def test_rejects_a_torsion_matrix_of_the_wrong_shape(self, tmp_path):
        manifest, _, tau = _random_case(tmp_path)
        np.save(tmp_path / "tc_torsion.npy", tau[:, :-1])
        _, ens = load_case(manifest)
        with pytest.raises(SchemaError, match="tc_torsion.npy"):
            load_torsion(manifest, ens.grid, ens.channels())


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


class TestSmoothWind:
    def test_constant_is_fixed_point(self):
        out = smooth_wind(np.full(50, 10.0), alpha=0.2)
        assert np.allclose(out, 10.0)

    def test_single_step_recurrence(self):
        out = smooth_wind(np.array([0.0, 1.0]), alpha=0.2)
        assert np.allclose(out, [0.0, 0.2])

    def test_alpha_one_is_identity(self):
        x = np.array([3.0, -1.0, 4.0, 1.5])
        assert np.array_equal(smooth_wind(x, alpha=1.0), x)

    @pytest.mark.parametrize("alpha", [0.0, -0.5, 1.2])
    def test_alpha_out_of_range(self, alpha):
        with pytest.raises(ValidationError):
            smooth_wind(np.ones(3), alpha=alpha)

    def test_output_bounded_by_input_range(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(4.0, 16.0, 300)
        out = smooth_wind(x, alpha=0.2)
        assert out.min() >= x.min() - 1e-12
        assert out.max() <= x.max() + 1e-12

    def test_shift_equivariance(self):
        rng = np.random.default_rng(5)
        x = rng.normal(10.0, 2.0, 120)
        full = smooth_wind(x, alpha=0.3)
        k = 37
        # restart at k with the filter state seeded from the previous output
        tail = smooth_wind(np.concatenate([[full[k - 1]], x[k:]]), alpha=0.3)[1:]
        assert np.array_equal(full[k:], tail)

    def test_empty_series_rejected(self):
        with pytest.raises(ValidationError):
            smooth_wind(np.array([]))

    @pytest.mark.parametrize("n", [1, 2, 3200])
    @pytest.mark.parametrize("alpha", [0.02, 0.2, 1.0])
    def test_bit_identical_to_lfilter(self, n, alpha):
        x = np.random.default_rng(n).normal(10.0, 2.0, n)
        # the IIR form; zi encodes the out[0] = raw[0] seed
        zi = np.array([(1.0 - alpha) * x[0]])
        ref, _ = lfilter([alpha], [1.0, -(1.0 - alpha)], x, zi=zi)
        assert np.array_equal(smooth_wind(x, alpha=alpha), ref)

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
            alpha = float(rng.uniform(1e-3, 1.0))
            assert (smooth_wind(x, alpha=alpha).tobytes()
                    == self._former_smooth_wind(x, alpha).tobytes())


class TestAzimuthBin:
    def test_lower_edge(self):
        assert azimuth_bin(0.0, 72) == 0

    def test_midpoint(self):
        assert azimuth_bin(np.pi, 72) == 36

    def test_upper_edge_clamps(self):
        assert azimuth_bin(TWO_PI - 1e-9, 72) == 71

    def test_out_of_range_rejected(self):
        for theta in (-1e-12, TWO_PI, 7.0):
            with pytest.raises(ValidationError):
                azimuth_bin(theta, 72)

    def test_partition_is_exhaustive_and_unique(self):
        rng = np.random.default_rng(9)
        theta = rng.uniform(0.0, TWO_PI, 5000)
        theta = theta[theta < TWO_PI]
        idx = azimuth_bin(theta, 72)
        assert idx.min() >= 0 and idx.max() <= 71
        # each sample lies inside its sector, to one ulp of the edges
        width = TWO_PI / 72
        lo = idx * width
        hi = (idx + 1) * width
        eps = np.spacing(TWO_PI)
        assert np.all(theta >= lo - eps)
        assert np.all(theta <= hi + eps)

    def test_single_sector(self):
        assert azimuth_bin(3.14, 1) == 0


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
