import json
import os
import shutil
import subprocess
import sys
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import bladesense
from bladesense import (NoiseModel, dataset, evaluate_rom, fuse, load_case,
                        load_rom, load_torsion_model, observe, place_sensors,
                        pod_fit, project, sparse_estimate)
from bladesense.cli import main
from bladesense.dataset import load_grid
from bladesense.pipeline import PipelineConfig, _quartiles, run_pipeline
from bladesense.errors import NumericalError, StageError, ValidationError

from conftest import DAMAGE, damage_case, savetxt_writer

SYNTH_CONFIG = {
    "grid": {"n_z": 8, "L_b": 100.0},
    "training": [
        {"name": "tr_a", "u_mean": 8.4, "ti": 0.10, "seeds": [0, 1],
         "duration_s": 8.0, "f_s": 40.0},
        {"name": "tr_b", "u_mean": 10.6, "ti": 0.10, "seeds": [0],
         "duration_s": 8.0, "f_s": 40.0},
    ],
    "evaluation": [
        {"name": "ev", "u_mean": 10.6, "ti": 0.10, "seeds": [5],
         "duration_s": 5.0, "f_s": 40.0},
    ],
    "pipeline": {"noise": 0.1, "seed": 0},
}


ROOT = Path(__file__).resolve().parents[1]

#: The datasets the workload checks run on, each ``synth --seed 0``: the
#: tier-1 twin (``SYNTH_CONFIG``), the quickstart (``synth``'s default) and
#: the benchmark workloads.
DATASETS = ("twin", "quickstart", "long_record", "fine_grid")


@pytest.fixture(scope="session")
def pipeline_runs(tmp_path_factory):
    """``run(name)`` gives (pipeline config, results directory) of the
    ``synth --seed 0`` and ``pipeline`` run of a dataset of ``DATASETS``,
    made on its first request in the session."""
    runs = {}

    def run(name):
        if name not in runs:
            root = tmp_path_factory.mktemp(name)
            if name == "twin":
                spec = root / "synth.json"
                spec.write_text(json.dumps(SYNTH_CONFIG))
                config = ["--config", str(spec)]
            elif name == "quickstart":
                config = []
            else:
                spec = ROOT / "perfbench" / "workloads" / f"{name}.json"
                config = ["--config", str(spec)]
            assert main(["synth", *config, "--seed", "0",
                         "--out", str(root / "cases")]) == 0
            pipeline_cfg = root / "cases" / "pipeline_config.json"
            out = root / "results"
            assert main(["pipeline", "--config", str(pipeline_cfg),
                         "--out", str(out)]) == 0
            runs[name] = pipeline_cfg, out
        return runs[name]

    return run


@pytest.fixture(scope="session")
def twin(pipeline_runs):
    return pipeline_runs("twin")


@pytest.fixture(scope="session", params=DATASETS)
def dataset_run(request, pipeline_runs):
    return pipeline_runs(request.param)


class TestPipelineRun:
    def test_all_declared_artifacts_exist(self, twin):
        _, out = twin
        listing = json.loads((out / "artifacts.json").read_text())["files"]
        assert listing, "artifact index is empty"
        for name in listing:
            assert (out / name).exists(), name
        assert not (out / "FAILED").exists()

    def test_core_artifacts_present(self, twin):
        _, out = twin
        for name in ("modes.csv", "energies.csv", "sensors.csv", "rom.json",
                     "error_summary.json", "torsion_map.csv",
                     "torsion_summary.json"):
            assert (out / name).exists(), name
        # the former two-file torsion layout is gone
        for name in ("torsion_model.json", "torsion_basis.csv"):
            assert not (out / name).exists(), name

    def test_tabular_artifacts_parse_numerically(self, twin):
        _, out = twin
        sensors = np.loadtxt(out / "sensors.csv", delimiter=",", skiprows=1,
                             ndmin=2)
        assert sensors.shape == (4, 3)
        assert np.all((sensors[:, 2] >= 0) & (sensors[:, 2] <= 1))
        energies = np.loadtxt(out / "energies.csv", delimiter=",", skiprows=1,
                              ndmin=2)
        assert np.all(np.diff(energies[:, 0]) == 1)  # mode index
        assert np.all(np.diff(energies[:, 1]) <= 0)  # non-increasing energy
        assert np.all(np.diff(energies[:, 2]) >= 0)  # cumulative fraction
        modes = np.loadtxt(out / "modes.csv", delimiter=",", skiprows=1,
                           ndmin=2)
        assert modes.shape[1] == 5  # mean column + 4 modes

    def test_every_svg_has_csv_twin(self, twin):
        # the reconstruction trace's numbers are the first observation
        # station's ux columns of its case's recon table
        _, out = twin
        cases = json.loads((out / "error_summary.json").read_text())["cases"]
        svgs = list(out.glob("*.svg"))
        assert svgs
        for svg in svgs:
            if not svg.name.startswith("trace_"):
                assert svg.with_suffix(".csv").exists(), svg.name
                continue
            case = svg.name[len("trace_"):-len("_ux.svg")]
            station = cases[case]["stations"][0]["station_index"]
            header = (out / f"recon_{case}.csv").read_text().split("\n", 1)[0]
            assert set(header.split(",")) >= {"t"} | {
                f"ux_s{station:03d}_{src}"
                for src in ("true", "sparse", "rom", "fused")}, svg.name

    def test_trace_numbers_are_not_written_twice(self, twin):
        # the trace's columns live in the recon table: no trace CSV
        _, out = twin
        listing = json.loads((out / "artifacts.json").read_text())["files"]
        traces = sorted(p.name for p in out.glob("trace_*"))
        assert traces and all(name.endswith("_ux.svg") for name in traces)
        assert not [name for name in listing
                    if name.startswith("trace_") and name.endswith(".csv")]

    def test_error_summary_three_way_comparison(self, twin):
        _, out = twin
        summary = json.loads((out / "error_summary.json").read_text())
        assert summary["cases"]
        for case in summary["cases"].values():
            for station in case["stations"]:
                for comp in ("ux", "uy", "uz"):
                    rmse = station["rmse"][comp]
                    assert set(rmse) == {"sparse", "rom", "fused"}
                    assert all(v >= 0 for v in rmse.values())
            assert set(case["reduced_rmse"]) == {"sparse", "rom", "fused"}

    def test_trace_of_fused_covariance_logged(self, twin):
        _, out = twin
        recon = next(out.glob("recon_*.csv"))
        header = recon.read_text().splitlines()[0].split(",")
        assert "trace_fused_cov" in header
        col = header.index("trace_fused_cov")
        data = np.loadtxt(recon, delimiter=",", skiprows=1)
        assert np.all(data[:, col] >= 0.0)

    def test_station_rmse_recomputed_from_the_report_tables(self, twin):
        # the reconstruction tables hold 10 significant digits; every RMSE
        # the summaries give must still follow from them
        _, out = twin

        def columns(name):
            names = (out / name).read_text().splitlines()[0].split(",")
            data = np.loadtxt(out / name, delimiter=",", skiprows=1, ndmin=2)
            return dict(zip(names, data.T))

        def rmse(cols, comp, station, src):
            true = cols[f"{comp}_s{station:03d}_true"]
            est = cols[f"{comp}_s{station:03d}_{src}"]
            return float(np.sqrt(np.mean((est - true) ** 2)))

        pairs = []  # (summary, recomputed)
        errors = json.loads((out / "error_summary.json").read_text())
        for case_id, case in errors["cases"].items():
            cols = columns(f"recon_{case_id}.csv")
            for st in case["stations"]:
                for comp, by_src in st["rmse"].items():
                    pairs += [(v, rmse(cols, comp, st["station_index"], src))
                              for src, v in by_src.items()]
        torsion = json.loads((out / "torsion_summary.json").read_text())
        for case_id, stations in torsion["evaluation"].items():
            cols = columns(f"torsion_recon_{case_id}.csv")
            for st in stations:
                pairs += [(v["rmse"],
                           rmse(cols, comp, st["station_index"], "fused"))
                          for comp, v in st["components"].items()]
        # one case: 3 stations x 3 components x 3 sources, plus 3 x 3 torsion
        assert len(pairs) == 36
        for want, got in pairs:
            assert got == pytest.approx(want, rel=1e-8)

    def test_extrapolated_steps_counted(self, dataset_run, request):
        pipeline_cfg, out = dataset_run
        summary = json.loads((out / "error_summary.json").read_text())
        rom = json.loads((out / "rom.json").read_text())
        config = PipelineConfig.from_json(pipeline_cfg)
        train = [load_case(p)[1] for p in config.training]
        u_train = np.concatenate([e.u_filt for e in train])
        assert rom["u_range"] == [u_train.min(), u_train.max()]
        # the record of the training cases' nominal conditions
        assert rom["conditions"] == [
            {"u_mean": e.condition.u_mean, "ti": e.condition.ti} for e in train]
        cases = [load_case(p)[1] for p in config.evaluation]
        u = np.concatenate([e.u_filt for e in cases])
        lo, hi = rom["u_range"]
        assert summary["rom"] == {
            "steps": u.size,
            "extrapolated_low": int(np.sum(u < lo)),
            "extrapolated_high": int(np.sum(u > hi)),
        }
        # the benchmark workloads' evaluation wind leaves the trained range
        # (synth --seed 0: 466 and 18 steps below it), so the counter fires
        if request.node.callspec.params["dataset_run"] in ("long_record", "fine_grid"):
            assert summary["rom"]["extrapolated_low"] > 0
        assert summary["rom"]["steps"] == summary["fusion"]["steps"]

    def test_torsion_map_has_one_column_per_mode(self, twin):
        # the twin's torsion is a linear function of its N coordinates
        pipeline_cfg, out = twin
        config = PipelineConfig.from_json(pipeline_cfg)
        grid = load_grid(config.training[0])
        model = load_torsion_model(out / "torsion_map.csv", grid)
        assert model.field_map.shape == (grid.n_dof, config.n_modes)
        r2 = json.loads((out / "torsion_summary.json").read_text())["fit_r_squared"]
        assert r2 >= 0.99

    def test_torsion_map_of_six_modes_on_a_rank_4_field(self, tmp_path):
        # deflection noise lets the deflection POD keep six real modes, but
        # the twin's torsion field has rank 4: the map takes all six
        # coordinates and still explains the pooled torsion energy
        cfg = json.loads(json.dumps(SYNTH_CONFIG))
        for entry in cfg["training"] + cfg["evaluation"]:
            entry["noise_sigma"] = 0.005
        cfg["pipeline"].update(n_modes=6, n_sensors=6)
        (tmp_path / "synth.json").write_text(json.dumps(cfg))
        assert main(["synth", "--config", str(tmp_path / "synth.json"),
                     "--out", str(tmp_path / "cases")]) == 0
        out = tmp_path / "out"
        assert main(["pipeline", "--config",
                     str(tmp_path / "cases" / "pipeline_config.json"),
                     "--out", str(out)]) == 0
        table = np.loadtxt(out / "torsion_map.csv", delimiter=",",
                           skiprows=1, ndmin=2)
        assert table.shape[1] == 1 + 6  # mean column + N columns
        r2 = json.loads((out / "torsion_summary.json").read_text())["fit_r_squared"]
        assert r2 >= 0.99

    def test_three_stations(self, tmp_path):
        # the paper's setting: four modes from three stations (nine rows),
        # on the default quickstart
        cases = tmp_path / "cases"
        assert main(["synth", "--out", str(cases), "--seed", "0"]) == 0
        doc = json.loads((cases / "pipeline_config.json").read_text())
        doc["n_sensors"] = 3
        cfg = cases / "three_stations.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "three"
        assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 0
        sensors = np.loadtxt(out / "sensors.csv", delimiter=",", skiprows=1,
                             ndmin=2)
        assert sensors.shape == (3, 3)
        summary = json.loads((out / "error_summary.json").read_text())
        assert len(summary["cases"]) == 2
        for case in summary["cases"].values():
            # reduced RMSE measured 0.0404 and 0.0412 (0.0354 with four
            # stations); the bound leaves about 10 % headroom
            assert case["reduced_rmse_total"]["fused"] < 0.045

    @pytest.mark.parametrize("n_modes, pairs", [
        (1, []), (2, ["a1_a2"]), (4, ["a1_a2", "a1_a4", "a2_a4"])])
    def test_coupling_scatter_draws_the_pairs_that_exist(
            self, twin, tmp_path, n_modes, pairs):
        pipeline_cfg, _ = twin
        doc = json.loads(pipeline_cfg.read_text())
        doc["n_modes"] = n_modes
        cfg = pipeline_cfg.parent / f"modes_{tmp_path.name}.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.glob("coupling_*")) == sorted(
            f"coupling_ev_s5_{pair}.{ext}" for pair in pairs
            for ext in ("csv", "svg"))

    def test_determinism_byte_identical(self, dataset_run, tmp_path):
        # a second run writes the same files with the same bytes
        pipeline_cfg, out = dataset_run
        out2 = tmp_path / "again"
        assert main(["pipeline", "--config", str(pipeline_cfg),
                     "--out", str(out2)]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert sorted(p.name for p in out2.iterdir()) == names
        for name in names:
            assert (out / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_artifacts_equal_those_of_a_savetxt_writer(self, dataset_run,
                                                       tmp_path, monkeypatch):
        # every table of a run, report tables from numpy blocks included,
        # holds np.savetxt's bytes; each module that binds the writer is
        # patched, and both precisions must have gone through the patch
        pipeline_cfg, out = dataset_run
        formats = Counter()

        def reference(path, names, data, fmt=dataset._FLOAT_FMT):
            formats[fmt] += 1
            savetxt_writer(path, names, data, fmt)

        for module in (bladesense.pipeline, bladesense.decomposition,
                       bladesense.sensing, dataset):
            monkeypatch.setattr(module, "_write_csv", reference)
        ref = tmp_path / "reference"
        assert main(["pipeline", "--config", str(pipeline_cfg),
                     "--out", str(ref)]) == 0
        assert set(formats) == {dataset._FLOAT_FMT, dataset._REPORT_FMT}
        names = json.loads((out / "artifacts.json").read_text())["files"]
        names.append("artifacts.json")
        assert sorted(p.name for p in ref.iterdir()) == sorted(names)
        for name in names:
            assert (ref / name).read_bytes() == (out / name).read_bytes(), name

    def test_torsion_component_that_never_moves_scores_one(self, twin,
                                                           tmp_path):
        # with tauz zero in every case, the inferred tauz is zero too: an
        # exact fit of a row with no variance has R^2 1, as in fit_r_squared
        pipeline_cfg, _ = twin
        cases = tmp_path / "cases"
        shutil.copytree(pipeline_cfg.parent, cases)
        for path in cases.glob("*_torsion.npy"):
            tau = np.load(path)
            tau[2 * tau.shape[0] // 3:] = 0.0
            np.save(path, tau)
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(cases / pipeline_cfg.name),
                     "--out", str(out)]) == 0
        summary = json.loads((out / "torsion_summary.json").read_text())
        stations = summary["evaluation"]["ev_s5"]
        assert stations
        for station in stations:
            assert station["components"]["tauz"] == {"rmse": 0.0,
                                                     "r_squared": 1.0}

    def test_torsion_ignores_the_nominal_wind_speed(self, twin,
                                                    tmp_path):
        # torsion is inferred from the estimate alone: relabelling the
        # evaluation case's nominal u_mean (10.6, a trained speed) to the
        # other trained speed changes no torsion artifact
        pipeline_cfg, out = twin
        cases = tmp_path / "cases"
        shutil.copytree(pipeline_cfg.parent, cases)
        manifest = cases / json.loads(pipeline_cfg.read_text())["evaluation"][0]
        doc = json.loads(manifest.read_text())
        assert doc["u_mean"] == 10.6
        doc["u_mean"] = 8.4
        manifest.write_text(json.dumps(doc))
        relabelled = tmp_path / "relabelled"
        assert main(["pipeline", "--config", str(cases / pipeline_cfg.name),
                     "--out", str(relabelled)]) == 0
        names = sorted(p.name for p in out.glob("torsion_*"))
        assert "torsion_recon_ev_s5.csv" in names
        assert "torsion_summary.json" in names
        for name in names:
            assert ((relabelled / name).read_bytes()
                    == (out / name).read_bytes()), name

    def test_stage_subcommands(self, dataset_run, tmp_path):
        # fit-rom is the pipeline's set-up: it writes the pipeline's bytes
        # for every file it writes; only the artifact index lists fewer
        pipeline_cfg, full = dataset_run
        out = tmp_path / "fit-rom"
        assert main(["fit-rom", "--config", str(pipeline_cfg),
                     "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "artifacts.json", "energies.csv", "modes.csv", "rom.json"]
        for path in out.iterdir():
            if path.name != "artifacts.json":
                assert path.read_bytes() == (full / path.name).read_bytes(), \
                    path.name

    def test_n_theta_moves_only_the_azimuthal_figure(self, twin, tmp_path):
        # n_theta is the figure's display binning: the prior, the estimates
        # and every other file keep their bytes
        pipeline_cfg, full = twin
        doc = json.loads(pipeline_cfg.read_text())
        doc["n_theta"] = 18
        cfg = pipeline_cfg.parent / f"n_theta_{tmp_path.name}.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 0
        names = sorted(p.name for p in full.iterdir())
        assert sorted(p.name for p in out.iterdir()) == names
        figure = [n for n in names if n.startswith("azimuthal_mode")]
        assert len(figure) == 2 * 4  # a CSV and an SVG per mode
        for name in names:
            same = (out / name).read_bytes() == (full / name).read_bytes()
            assert same != (name in figure), name

    @pytest.mark.parametrize("command", ["decompose", "sensors", "estimate",
                                         "torsion", "report"])
    def test_prefix_commands_are_gone(self, twin, tmp_path, command):
        # every artifact comes from pipeline, the set-up alone from fit-rom
        pipeline_cfg, _ = twin
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(pipeline_cfg), "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()
        config = PipelineConfig.from_json(pipeline_cfg, out_dir=out)
        with pytest.raises(ValidationError, match="unknown plan"):
            run_pipeline(config, plan=command)
        assert not out.exists()

    def test_pivot_scalar_flag(self, twin, tmp_path):
        # station pivoting is the only placement; the old flag is an error
        pipeline_cfg, _ = twin
        out = tmp_path / "scalar"
        with pytest.raises(SystemExit) as exc:
            main(["pipeline", "--config", str(pipeline_cfg),
                  "--out", str(out), "--pivot-scalar"])
        assert exc.value.code == 2
        assert not out.exists()

    def test_record_too_short_to_smooth_its_spectrum(self, tmp_path):
        # 40 samples give a 21-bin spectrum, fewer than the smoothing
        # window: the report keeps the raw spectrum instead of failing
        cfg = json.loads(json.dumps(SYNTH_CONFIG))
        cfg["evaluation"][0]["duration_s"] = 1.0
        (tmp_path / "synth.json").write_text(json.dumps(cfg))
        assert main(["synth", "--config", str(tmp_path / "synth.json"),
                     "--out", str(tmp_path / "cases")]) == 0
        out = tmp_path / "out"
        assert main(["pipeline", "--config",
                     str(tmp_path / "cases" / "pipeline_config.json"),
                     "--out", str(out)]) == 0
        table = np.loadtxt(out / "psd_ev_s5_ux.csv", delimiter=",",
                           skiprows=1)
        assert table.shape == (21, 3)
        assert np.array_equal(table[:, 1], table[:, 2])


class TestFailureModes:
    def test_missing_manifest_fails_before_compute(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({
            "training": ["missing_case.json"],
            "evaluation": ["missing_case.json"],
        }))
        assert main(["pipeline", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
        # validation precedes stage execution: no failure marker, no artifacts
        assert not (tmp_path / "out" / "FAILED").exists()

    def test_missing_config_flag(self):
        assert main(["pipeline"]) == 2

    def test_nonexistent_config_path(self, tmp_path):
        assert main(["pipeline", "--config", str(tmp_path / "none.json")]) == 2

    @pytest.mark.parametrize("case", ["out_is_a_file", "config_is_a_directory",
                                      "synth_out_under_a_file"])
    def test_bad_path_exits_2(self, pipeline_runs, tmp_path, capsys, case):
        # a path the system refuses is an input error with a message, not
        # a traceback; the file in the way is left as it was
        pipeline_cfg, _ = pipeline_runs("quickstart")
        afile = tmp_path / "afile"
        afile.write_text("keep")
        args = {
            "out_is_a_file": ["pipeline", "--config", str(pipeline_cfg),
                              "--out", str(afile)],
            "config_is_a_directory": ["pipeline", "--config",
                                      str(pipeline_cfg.parent),
                                      "--out", str(tmp_path / "out")],
            "synth_out_under_a_file": ["synth", "--out", str(afile / "x")],
        }[case]
        capsys.readouterr()
        assert main(args) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert afile.read_text() == "keep"
        assert not (tmp_path / "out").exists()

    def test_numerical_error_exit_code(self, twin, tmp_path,
                                       monkeypatch):
        pipeline_cfg, _ = twin

        def singular(*args, **kwargs):
            raise NumericalError("snapshot matrix is singular")

        monkeypatch.setattr(bladesense.pipeline, "pod_fit", singular)
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(pipeline_cfg),
                     "--out", str(out)]) == 3
        marker = (out / "FAILED").read_text()
        assert "stage: decompose" in marker
        assert "singular" in marker

    def test_stage_error_carries_stage_name(self, twin, tmp_path):
        pipeline_cfg, _ = twin
        config = PipelineConfig.from_json(pipeline_cfg,
                                          out_dir=tmp_path / "o")
        config.n_sensors = 9  # more sensors than the 8 stations of the grid
        with pytest.raises(StageError, match="sensors"):
            run_pipeline(config, plan="pipeline")
        assert (tmp_path / "o" / "FAILED").exists()

    def test_fractions_on_one_station_fail_at_load(self, twin, tmp_path,
                                                   capsys):
        # on the 8-station grid 0.44 and 0.45 both snap to station 3, whose
        # columns the tables would then carry twice
        pipeline_cfg, _ = twin
        doc = json.loads(pipeline_cfg.read_text())
        doc["observation_fractions"] = [0.44, 0.45, 0.88]
        cfg = pipeline_cfg.parent / f"snap_{tmp_path.name}.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 2
        err, marker = capsys.readouterr().err, (out / "FAILED").read_text()
        assert "stage: load" in marker
        for part in ("0.44", "0.45", "station 3"):
            assert part in marker and part in err, part
        assert sorted(p.name for p in out.iterdir()) == ["FAILED"]

    @staticmethod
    def _failed_load(twin, tmp_path, damage):
        """Run ``pipeline`` on a copy of the twin's cases after
        ``damage(cases_dir)``; returns the exit code and the FAILED marker."""
        pipeline_cfg, _ = twin
        cases = tmp_path / "cases"
        shutil.copytree(pipeline_cfg.parent, cases)
        damage(cases)
        out = tmp_path / "out"
        code = main(["pipeline", "--config", str(cases / pipeline_cfg.name),
                     "--out", str(out)])
        assert not (out / "error_summary.json").exists()
        return code, (out / "FAILED").read_text()

    def test_non_finite_summary_value_is_a_numerical_error(
            self, twin, tmp_path, monkeypatch):
        pipeline_cfg, _ = twin

        def nan_r2(*args, _fit=bladesense.pipeline.fit_torsion_model):
            model, _ = _fit(*args)
            return model, float("nan")

        monkeypatch.setattr(bladesense.pipeline, "fit_torsion_model", nan_r2)
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(pipeline_cfg),
                     "--out", str(out)]) == 3
        assert "torsion_summary.json" in (out / "FAILED").read_text()
        assert "stage: torsion" in (out / "FAILED").read_text()
        assert not (out / "torsion_summary.json").exists()

    def test_non_finite_input_fails_at_load(self, twin, tmp_path):
        def damage(cases):
            path = cases / "ev_s5_displacement.npy"
            D = np.load(path)
            D[5, 10] = np.nan
            np.save(path, D)

        code, marker = self._failed_load(twin, tmp_path, damage)
        assert code == 2
        assert "stage: load" in marker and "at row 10" in marker

    def test_non_positive_rotor_speed_fails_at_load(self, twin,
                                                    tmp_path, capsys):
        # the report's spectra divide by the mean rotor speed; a case at
        # rest is rejected before any stage writes a file
        def damage(cases):
            path = cases / "ev_s5_channels.csv"
            lines = path.read_text().splitlines()
            for i in range(1, len(lines)):
                cells = lines[i].split(",")
                cells[2] = "0.0"
                lines[i] = ",".join(cells)
            path.write_text("\n".join(lines) + "\n")

        capsys.readouterr()
        code, marker = self._failed_load(twin, tmp_path, damage)
        assert code == 2
        assert "stage: load" in marker and "'ev_s5'" in marker
        assert "'ev_s5'" in capsys.readouterr().err
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "FAILED"]
        # fit-rom reads only the evaluation case's grid
        cases = tmp_path / "cases"
        assert main(["fit-rom", "--config", str(cases / "pipeline_config.json"),
                     "--out", str(tmp_path / "fit-rom")]) == 0

    def test_non_finite_channel_fails_at_load(self, twin, tmp_path):
        def damage(cases):
            path = cases / "ev_s5_channels.csv"
            lines = path.read_text().splitlines()
            cells = lines[11].split(",")
            cells[2] = "nan"
            lines[11] = ",".join(cells)
            path.write_text("\n".join(lines) + "\n")

        code, marker = self._failed_load(twin, tmp_path, damage)
        assert code == 2
        assert "stage: load" in marker and "column omega at row 10" in marker

    @pytest.mark.parametrize("kind", DAMAGE)
    def test_bad_binary_input_fails_at_load(self, twin, tmp_path, kind):
        names = []

        def damage(cases):
            names.append(damage_case(cases / "ev_s5.json", kind)[1])

        code, marker = self._failed_load(twin, tmp_path, damage)
        assert code == 2
        assert "stage: load" in marker and names[0] in marker


class TestLayouts:
    def test_full_width_case_fails_at_load(self, twin, tmp_path):
        # the fields as columns of the snapshot table, and no
        # displacement_file: not a case layout, so the load stage rejects it
        first = []

        def to_full_width(cases):
            doc = json.loads((cases / "pipeline_config.json").read_text())
            for name in doc["training"] + doc["evaluation"]:
                for kind in ("fields_in_snapshots", "no_fields"):
                    damage_case(cases / name, kind)
            first.append(doc["training"][0])

        code, marker = TestFailureModes._failed_load(twin, tmp_path,
                                                     to_full_width)
        assert code == 2
        assert "stage: load" in marker and first[0] in marker
        assert "'displacement_file'" in marker


class TestCaseReads:
    @staticmethod
    def _reads(monkeypatch, config, plan):
        seen = Counter()
        for reader in ("_read_csv", "_read_npy"):
            def counting(path, *args, _read=getattr(dataset, reader)):
                seen[Path(path).name] += 1
                return _read(path, *args)

            monkeypatch.setattr(dataset, reader, counting)
        run_pipeline(config, plan=plan)
        return seen

    def test_pipeline_parses_each_case_file_once(self, twin, tmp_path,
                                                 monkeypatch):
        pipeline_cfg, _ = twin
        config = PipelineConfig.from_json(pipeline_cfg, out_dir=tmp_path / "o")
        seen = self._reads(monkeypatch, config, "pipeline")
        names = [Path(p).stem for p in config.training + config.evaluation]
        files = [f"{n}_{kind}" for n in names
                 for kind in ("grid.csv", "channels.csv", "displacement.npy",
                              "torsion.npy")]
        assert seen == dict.fromkeys(files, 1)

    def test_fit_rom_parses_no_torsion_file(self, twin, tmp_path,
                                            monkeypatch):
        pipeline_cfg, _ = twin
        config = PipelineConfig.from_json(pipeline_cfg, out_dir=tmp_path / "o")
        seen = self._reads(monkeypatch, config, "fit-rom")
        # of an evaluation case, fit-rom uses only the grid
        train = [Path(p).stem for p in config.training]
        evaluation = [Path(p).stem for p in config.evaluation]
        assert seen == dict.fromkeys(
            [f"{n}_{kind}" for n in train
             for kind in ("grid.csv", "channels.csv", "displacement.npy")]
            + [f"{n}_grid.csv" for n in evaluation], 1)


class TestTrainingRelease:
    def test_training_deflections_released_after_fit_rom(self, twin,
                                                         tmp_path, monkeypatch):
        # fit-rom is the last reader of each training D; torsion keeps only
        # the grid and channels, so the torsion stage never holds both
        pipeline_cfg, _ = twin
        config = PipelineConfig.from_json(pipeline_cfg, out_dir=tmp_path / "o")
        training = {Path(p) for p in config.training}
        refs, alive = [], []

        def recording(path, *args, _load=bladesense.pipeline.load_case):
            grid, e = _load(path, *args)
            if Path(path) in training:
                refs.append(weakref.ref(e.D))
            return grid, e

        def fit_rom(ctx, _stage=bladesense.pipeline._STAGES["fit-rom"]):
            _stage(ctx)
            alive.extend(r for r in refs if r() is not None)

        monkeypatch.setattr(bladesense.pipeline, "load_case", recording)
        monkeypatch.setitem(bladesense.pipeline._STAGES, "fit-rom", fit_rom)
        run_pipeline(config, plan="pipeline")
        assert len(refs) == len(config.training)
        assert not alive

    def test_torsion_stage_holds_one_training_torsion_matrix(
            self, twin, tmp_path, monkeypatch):
        # each training torsion matrix is loaded, folded and dropped: once
        # a matrix is folded, the ones before it are gone
        pipeline_cfg, _ = twin
        config = PipelineConfig.from_json(pipeline_cfg, out_dir=tmp_path / "o")
        training = {Path(p) for p in config.training}
        refs, alive = [], []

        def recording(path, *args, _load=bladesense.pipeline.load_torsion):
            if Path(path) in training:
                alive.extend(r for r in refs[:-1] if r() is not None)
            tau = _load(path, *args)
            if Path(path) in training:
                refs.append(weakref.ref(tau.D))
            return tau

        def torsion(ctx, _stage=bladesense.pipeline._STAGES["torsion"]):
            _stage(ctx)
            alive.extend(r for r in refs if r() is not None)

        monkeypatch.setattr(bladesense.pipeline, "load_torsion", recording)
        monkeypatch.setitem(bladesense.pipeline._STAGES, "torsion", torsion)
        run_pipeline(config, plan="pipeline")
        assert len(refs) == len(config.training) >= 3
        assert not alive


class TestProjections:
    @pytest.mark.parametrize("plan", ["pipeline", "fit-rom"])
    def test_each_case_projected_once(self, twin, tmp_path, monkeypatch,
                                      plan):
        # fit-rom projects the training cases once and torsion reuses
        # those coordinates
        pipeline_cfg, _ = twin
        config = PipelineConfig.from_json(pipeline_cfg, out_dir=tmp_path / "o")
        calls = []  # (basis, n_t); the deflection basis is projected on first

        def counting(fields, basis, _project=bladesense.pipeline.project):
            calls.append((basis, fields.shape[1]))
            return _project(fields, basis)

        monkeypatch.setattr(bladesense.pipeline, "project", counting)
        run_pipeline(config, plan=plan)
        n_t = {p: load_case(p)[1].n_t for p in config.training + config.evaluation}
        deflection = calls[0][0]
        cases = config.training + ([] if plan == "fit-rom" else config.evaluation)
        assert Counter(n for b, n in calls if b is deflection) == \
            Counter(n_t[p] for p in cases)
        # and no torsion case: the torsion map comes from the one-pass fold
        assert all(b is deflection for b, _ in calls)


class TestReportSpectra:
    def test_one_psd_call_per_tip_component(self, twin, tmp_path,
                                            monkeypatch):
        # each call gives both the raw and the smoothed spectrum
        pipeline_cfg, _ = twin
        config = PipelineConfig.from_json(pipeline_cfg, out_dir=tmp_path / "o")
        calls = []

        def counting(signal, f_s, f_1p, _psd=bladesense.pipeline.psd):
            calls.append(np.size(signal))
            return _psd(signal, f_s, f_1p)

        monkeypatch.setattr(bladesense.pipeline, "psd", counting)
        run_pipeline(config, plan="pipeline")
        assert calls == [load_case(config.evaluation[0])[1].n_t] * 3


class TestHistogramEdges:
    def test_quartiles_are_those_of_np_percentile(self):
        # bit for bit, on lengths from 1 up to the benchmark records', with
        # ties and magnitudes from 1e-30 to 1e30
        rng = np.random.default_rng(7)
        sizes = [*range(1, 60)] * 30 + [1120, 3200, 6400] * 20
        for i, n in enumerate(sizes):
            x = rng.standard_normal(n) * 10.0 ** rng.integers(-30, 31)
            if i % 3 == 1:
                x = rng.choice(x, n)  # repeated values
            elif i % 3 == 2:
                x = rng.integers(-3, 4, n).astype(float)  # mostly ties
            got = _quartiles(x)
            want = np.percentile(x, [75.0, 25.0])
            assert np.array_equal(np.asarray(got), want), (n, got, want)


class TestEstimateHealth:
    #: the benchmark's ``long_record`` twin, with shorter evaluation records:
    #: the AR(1) fluctuation (rho = 0.995 per step at 160 Hz) decorrelates
    #: over about 1.25 s, so a training case of about three revolutions puts
    #: few independent samples into each azimuth bin
    LONG_RECORD = {
        "grid": {"n_z": 12, "L_b": 117.0},
        "training": [
            {"name": "train_u084", "u_mean": 8.4, "ti": 0.1, "seeds": [0],
             "duration_s": 22.0},
            {"name": "train_u106", "u_mean": 10.6, "ti": 0.1, "seeds": [0],
             "duration_s": 22.0},
        ],
        "evaluation": [
            {"name": "eval_u090", "u_mean": 9.0, "ti": 0.1, "seeds": [3],
             "duration_s": 8.0},
            {"name": "eval_u095", "u_mean": 9.5, "ti": 0.1, "seeds": [7],
             "duration_s": 8.0},
        ],
        "pipeline": {"noise": 0.1, "seed": 0},
    }

    def test_fused_no_worse_than_sparse_on_a_slowly_decorrelating_twin(
            self, tmp_path):
        cfg = tmp_path / "synth.json"
        cfg.write_text(json.dumps(self.LONG_RECORD))
        cases, out = tmp_path / "cases", tmp_path / "out"
        assert main(["synth", "--config", str(cfg), "--out", str(cases),
                     "--seed", "0"]) == 0
        config = PipelineConfig.from_json(cases / "pipeline_config.json",
                                          out_dir=out)
        for p in config.training:
            _, e = load_case(p)
            assert np.sum(e.omega) / e.f_s >= 3 * 2 * np.pi  # revolutions
        run_pipeline(config, plan="pipeline")
        summary = json.loads((out / "error_summary.json").read_text())
        assert len(summary["cases"]) == 2
        for case_id, case in summary["cases"].items():
            rmse = case["reduced_rmse_total"]
            # criterion 3's tolerance
            assert rmse["fused"] <= 1.05 * rmse["sparse"], (case_id, rmse)

    def test_noise_free_sensors_give_the_sparse_estimate(self, twin,
                                                         tmp_path):
        pipeline_cfg, _ = twin
        cfg = pipeline_cfg.parent / f"noise0_{tmp_path.name}.json"
        cfg.write_text(json.dumps({**json.loads(pipeline_cfg.read_text()),
                                   "noise": 0}))
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "error_summary.json").read_text())
        for case in summary["cases"].values():
            rmse = case["reduced_rmse"]
            assert np.allclose(rmse["fused"], rmse["sparse"], rtol=1e-9)

    @pytest.mark.filterwarnings("ignore:deflection coordinates are rank")
    def test_nis_uses_the_regularized_innovation_covariance(self, twin,
                                                            tmp_path):
        # noise-free sensors and more modes than the twin's rank 4: fuse
        # regularizes the innovation covariance of every step, and NIS is
        # taken with that regularized matrix (the raw sum read 48.5)
        pipeline_cfg, _ = twin
        cfg = pipeline_cfg.parent / f"rank6_{tmp_path.name}.json"
        cfg.write_text(json.dumps({**json.loads(pipeline_cfg.read_text()),
                                   "noise": 0, "n_modes": 6}))
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "error_summary.json").read_text())
        fusion = summary["fusion"]
        assert fusion["regularized"] == fusion["steps"] > 0
        for case_id, case in summary["cases"].items():
            assert 0.0 < case["nis_mean"] < 2 * 6, case_id

    def test_nis_mean_matches_per_step_computation(self, twin, tmp_path,
                                                   monkeypatch):
        pipeline_cfg, out = twin
        fused = []  # (prior, measurement) of each fuse call

        def recording(prior, measurement, stats=None,
                      _fuse=bladesense.pipeline.fuse):
            fused.append((prior, measurement))
            return _fuse(prior, measurement, stats)

        monkeypatch.setattr(bladesense.pipeline, "fuse", recording)
        config = PipelineConfig.from_json(pipeline_cfg, out_dir=tmp_path / "o")
        run_pipeline(config, plan="pipeline")
        summary = json.loads((tmp_path / "o" / "error_summary.json").read_text())
        full_run = json.loads((out / "error_summary.json").read_text())
        case_ids = [Path(p).stem for p in config.evaluation]
        assert len(fused) == len(case_ids)  # one stacked call per case
        # nothing is regularized, so NIS uses the raw sum
        assert summary["fusion"]["regularized"] == 0
        for case_id, (prior, meas) in zip(case_ids, fused):
            nis = []
            # both covariances are shared by every step
            assert prior.covariance.shape == meas.covariance.shape == (4, 4)
            for k in range(prior.mean.shape[0]):
                nu = meas.mean[k] - prior.mean[k]
                s_inv = np.linalg.inv(prior.covariance + meas.covariance)
                nis.append(nu @ s_inv @ nu)
            ref = float(np.mean(nis))
            got = summary["cases"][case_id]["nis_mean"]
            assert abs(got - ref) <= 1e-12 * ref
            assert full_run["cases"][case_id]["nis_mean"] == got


class TestImportCost:
    def test_no_command_imports_scipy(self, tmp_path):
        # a cold scipy.signal import takes about a second, more than a small
        # pipeline run; the package needs numpy only, so no command may
        # import any part of scipy
        cfg = tmp_path / "synth.json"
        cfg.write_text(json.dumps(SYNTH_CONFIG))
        cases, out = tmp_path / "cases", tmp_path / "out"
        pipeline_cfg = str(cases / "pipeline_config.json")
        commands = [
            ["synth", "--config", str(cfg), "--out", str(cases)],
            ["pipeline", "--config", pipeline_cfg, "--out", str(out)],
            ["fit-rom", "--config", pipeline_cfg, "--out", str(tmp_path)],
        ]
        # nor numpy.ma (np.percentile and np.unique import it in numpy 2.x,
        # 8-17 ms cold), unless numpy imports it with numpy itself (1.x)
        code = (
            "import sys\n"
            "import numpy\n"
            "numpy_ma = 'numpy.ma' in sys.modules\n"
            "import bladesense.cli\n"
            "def scipy_modules():\n"
            "    return sorted(m for m in sys.modules\n"
            "                  if m.startswith('scipy'))[:3]\n"
            "assert not scipy_modules(), ('import', scipy_modules())\n"
            f"for args in {commands!r}:\n"
            "    assert bladesense.cli.main(args) == 0, args[0]\n"
            "    assert not scipy_modules(), (args[0], scipy_modules())\n"
            "    assert numpy_ma or 'numpy.ma' not in sys.modules, args[0]\n"
        )
        src = str(Path(bladesense.__file__).resolve().parents[1])
        res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, timeout=120,
                             env={**os.environ, "PYTHONPATH": src})
        assert res.returncode == 0, res.stderr
        assert (out / "artifacts.json").exists()
        assert (tmp_path / "rom.json").exists()


    def test_place_sensors_leaves_numpy_ma_unimported(self):
        # np.unique imports numpy.ma on first use in numpy 2.x (12-19 ms
        # cold); numpy 1.x imports it with numpy itself, so there is
        # nothing to check
        code = (
            "import sys\n"
            "import numpy as np\n"
            "if 'numpy.ma' in sys.modules:\n"
            "    sys.exit(3)\n"
            "from bladesense import ModalBasis, place_sensors\n"
            "from bladesense.synthetic import demo_grid, "
            "orthonormal_polynomial_modes\n"
            "grid = demo_grid(n_z=10)\n"
            "basis = ModalBasis(grid=grid, mean_field=np.zeros(grid.n_dof),\n"
            "                   modes=orthonormal_polynomial_modes(grid, 3),\n"
            "                   energies=np.ones(3), n_modes=3,\n"
            "                   total_energy=1.0)\n"
            "assert place_sensors(basis, 4).n_sensors == 4\n"
            "assert 'numpy.ma' not in sys.modules\n"
        )
        src = str(Path(bladesense.__file__).resolve().parents[1])
        res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, timeout=120,
                             env={**os.environ, "PYTHONPATH": src})
        if res.returncode == 3:
            pytest.skip("numpy imports numpy.ma with numpy itself")
        assert res.returncode == 0, res.stderr


class TestLibraryOnDatasets:
    """The library API on each dataset's pipeline run: the prior and the
    sparse estimate each share one read-only covariance, so every fusion of
    a case reuses one gain; the batched estimate is the pipeline's, and the
    README "Library" loop (a batch of one per step, the path the benchmark
    times) gives it step by step."""

    @staticmethod
    def _calibrate(dataset_run):
        """The basis, sensors, noise model and ROM of a pipeline run, and
        per evaluation case (ensemble, seed of the pipeline's noise stream,
        fused reduced RMSE in its error summary)."""
        pipeline_cfg, out = dataset_run
        cfg = json.loads(pipeline_cfg.read_text())
        base = pipeline_cfg.parent
        n_sensors = cfg.get("n_sensors", 4)
        basis = pod_fit([load_case(base / p)[1] for p in cfg["training"]],
                        cfg.get("n_modes", 4))
        sensors = place_sensors(basis, n_sensors)
        noise = NoiseModel.from_config(cfg.get("noise", 0.1), n_sensors)
        summary = json.loads((out / "error_summary.json").read_text())
        cases = [
            (load_case(base / p)[1],
             np.random.SeedSequence([cfg.get("seed", 0), idx]),
             summary["cases"][Path(p).stem]["reduced_rmse_total"]["fused"])
            for idx, p in enumerate(cfg["evaluation"])]
        return basis, sensors, noise, load_rom(out / "rom.json"), cases

    def test_model_tables_read_back_exactly(self, dataset_run):
        # energies.csv and sensors.csv hold the basis and the sensor set
        # losslessly, though neither goes through the table writer
        basis, sensors, *_ = self._calibrate(dataset_run)
        _, out = dataset_run

        def rows(name):
            lines = (out / name).read_text().splitlines()[1:]
            return np.array([[float(v) for v in line.split(",")]
                             for line in lines])

        energies = rows("energies.csv")
        assert np.array_equal(energies[:, 0], np.arange(1, basis.n_modes + 1))
        assert np.array_equal(energies[:, 1], basis.energies)
        assert np.array_equal(energies[:, 2],
                              np.cumsum(basis.energies) / basis.total_energy)
        table = rows("sensors.csv")
        assert np.array_equal(table[:, 0], np.arange(1, sensors.n_sensors + 1))
        assert np.array_equal(table[:, 1], sensors.station_indices)
        assert np.array_equal(table[:, 2], sensors.locations_norm)

    def test_one_gain_per_case(self, dataset_run, monkeypatch):
        _, sensors, noise, rom, cases = self._calibrate(dataset_run)
        for e, seed, _ in cases:
            y = observe(e.D.T, sensors, noise, np.random.default_rng(seed))
            meas = sparse_estimate(y, sensors, noise)
            prior = evaluate_rom(rom, e.theta, e.u_filt, e.condition.ti)
            fused, gain = fuse(prior, meas)
            calls = []

            def counting(*args, _eigvalsh=np.linalg.eigvalsh):
                calls.append(args)
                return _eigvalsh(*args)

            with monkeypatch.context() as m:
                m.setattr(np.linalg, "eigvalsh", counting)
                for k in range(0, e.n_t, max(1, e.n_t // 50)):
                    step, step_gain = fuse(
                        evaluate_rom(rom, e.theta[k], e.u_filt[k], None),
                        sparse_estimate(y[k], sensors, noise))
                    assert step.covariance is fused.covariance
                    assert step_gain is gain
            assert not calls
            assert fused.covariance.shape == gain.shape == (rom.n_modes,) * 2
            assert np.linalg.eigvalsh(fused.covariance)[0] > 0.0

    def test_library_loop_gives_the_pipeline_estimate(self, dataset_run):
        # the batched estimate reproduces the pipeline's fused reduced RMSE
        # exactly, so it is the one the pipeline made; 200 steps of the
        # README loop on the same noise stream give its fused means
        basis, sensors, noise, rom, cases = self._calibrate(dataset_run)
        for e, seed, want in cases:
            y = observe(e.D.T, sensors, noise, np.random.default_rng(seed))
            batched, _ = fuse(
                evaluate_rom(rom, e.theta, e.u_filt, e.condition.ti),
                sparse_estimate(y, sensors, noise))
            rmse = float(np.sqrt(np.mean(
                (batched.mean.T - project(e.D, basis)) ** 2)))
            assert rmse == want
            rng = np.random.default_rng(seed)
            for k in range(200):
                y = observe(e.D[:, k], sensors, noise, rng)
                measurement = sparse_estimate(y, sensors, noise)
                prior = evaluate_rom(rom, e.theta[k], e.u_filt[k],
                                     e.condition.ti)
                fused, _ = fuse(prior, measurement)
                ref = batched.mean[k]
                assert np.isfinite(fused.mean).all(), k
                assert (np.abs(fused.mean - ref).max()
                        <= 1e-10 * np.abs(ref).max()), k


class TestPriorGates:
    """Fusion dominance and calibration of every evaluation case, against
    the values of the per-condition binned prior this one replaced (pinned
    from the same ``synth --seed 0`` runs): (fused RMSE, NIS mean) per case."""

    BINNED = {
        "twin": {"ev_s5": (0.12411797686471769, 308.6687308012344)},
        "quickstart": {"eval_u095_s3": (0.03538728275975786, 4.017237864292688),
                       "eval_u106_s7": (0.035659283937721636, 6.069314810543803)},
        "long_record": {"eval_u090_s3": (0.03609469762779467, 13.83934329992505),
                        "eval_u095_s7": (0.03567542622477027, 10.798133113468007)},
        "fine_grid": {"eval_u090_s3": (0.019522484806237392, 29.385243943207634)},
    }

    def test_fused_dominates_and_prior_calibrated(self, dataset_run, request):
        _, out = dataset_run
        binned = self.BINNED[request.node.callspec.params["dataset_run"]]
        summary = json.loads((out / "error_summary.json").read_text())
        n = summary["settings"]["n_modes"]
        assert sorted(summary["cases"]) == sorted(binned)
        for case_id, case in summary["cases"].items():
            rmse, nis = case["reduced_rmse_total"], case["nis_mean"]
            fused_before, nis_before = binned[case_id]
            # the binned prior fused 3.4x worse than sparse on the twin
            assert rmse["fused"] <= 1.10 * rmse["sparse"], (case_id, rmse)
            # no worse than before; 0.1 % covers the quickstart's
            # eval_u095_s3, which went 0.035387 -> 0.035395 (+0.02 %)
            assert rmse["fused"] <= 1.001 * fused_before, (case_id, rmse)
            # a NIS mean outside [N/2, 2N] before must move toward N; one
            # inside it, which holds the simulated 95 % range of one record's
            # NEES under a perfect model (2.25-6.52 for N = 4 and 7-8 s
            # records), must stay inside: the quickstart's eval_u095_s3 read
            # 4.02 and now reads 3.20
            if n / 2 <= nis_before <= 2 * n:
                assert n / 2 <= nis <= 2 * n, (case_id, nis)
            else:
                assert abs(nis - n) < abs(nis_before - n), (case_id, nis)


class TestBenchmarkStepChild:
    def test_steps_child_answers_one_request(self, dataset_run):
        # the benchmark's per-step timer drives the public API; a library
        # change that breaks those calls must fail here, not in the benchmark
        pipeline_cfg, out = dataset_run
        src = str(Path(bladesense.__file__).resolve().parents[1])
        res = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "steps.py"),
             str(pipeline_cfg), str(out / "rom.json")],
            input="0 64 1\n", capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src})
        assert res.returncode == 0, res.stderr
        lines = res.stdout.splitlines()
        assert lines[0] == "ready" and len(lines) == 2
        reply = json.loads(lines[1])
        assert reply["finite"] is True
        (times,) = reply["step_ns"]
        assert times and all(np.isfinite(t) and t > 0 for t in times)


class TestConfigValidation:
    @pytest.mark.parametrize("where, key", [
        ("config", "gird"),  # misspelt grid
        ("grid", "nz"),
        ("case", "duraton_s"),
        ("pipeline", "n_mode"),  # misspelt n_modes
    ])
    def test_synth_rejects_unknown_keys(self, tmp_path, where, key):
        doc = json.loads(json.dumps(SYNTH_CONFIG))
        entry = {"config": doc, "grid": doc["grid"], "pipeline": doc["pipeline"],
                 "case": doc["evaluation"][0]}[where]
        entry[key] = 1.0
        cfg = tmp_path / "synth.json"
        cfg.write_text(json.dumps(doc))
        cases = tmp_path / "cases"
        assert main(["synth", "--config", str(cfg), "--out", str(cases)]) == 2
        assert not cases.exists()

    @staticmethod
    def _drop(group, key):
        def edit(doc):
            del doc[group][0][key]
            return doc
        return edit

    @staticmethod
    def _set(group, key, value):
        def edit(doc):
            doc[group][0][key] = value
            return doc
        return edit

    @staticmethod
    def _block(**settings):
        def edit(doc):
            doc["pipeline"].update(settings)
            return doc
        return edit

    @pytest.mark.parametrize("command, edit, key", [
        ("synth", _drop.__func__("training", "name"), "'name'"),
        ("synth", _drop.__func__("evaluation", "u_mean"), "'u_mean'"),
        ("synth", _drop.__func__("training", "ti"), "'ti'"),
        ("synth", lambda doc: [doc], "JSON object"),
        ("pipeline", lambda doc: [doc], "JSON object"),
        ("pipeline", lambda doc: {**doc, "n_modes": "abc"}, "'n_modes'"),
        ("pipeline", lambda doc: {**doc, "n_modes": 4.7}, "'n_modes'"),
        ("pipeline", lambda doc: {**doc, "observation_fractions": 0.5},
         "'observation_fractions'"),
        ("pipeline", lambda doc: {**doc, "observation_fractions": [0.4, 1.2]},
         "observation_fractions"),
        ("pipeline", lambda doc: {**doc, "observation_fractions": [-0.1]},
         "observation_fractions"),
        ("synth", _set.__func__("training", "u_mean", "abc"),
         "'training[0].u_mean'"),
        ("synth", lambda doc: {**doc, "training": [doc["training"][0], {
            **doc["training"][1], "u_mean": "abc"}]}, "'training[1].u_mean'"),
        ("synth", _set.__func__("evaluation", "seeds", 5),
         "'evaluation[0].seeds'"),
        ("synth", lambda doc: {**doc, "grid": {"n_z": "x"}}, "'grid.n_z'"),
        ("synth", lambda doc: {**doc, "training": {}}, "'training'"),
        ("pipeline", lambda doc: {**doc, "training": 5}, "'training'"),
        ("pipeline", lambda doc: {**doc, "observation_fractions": []},
         "'observation_fractions'"),
        ("pipeline", lambda doc: {**doc, "seed": -1}, "'seed'"),
        ("pipeline", lambda doc: {**doc, "n_fourier": -1}, "'n_fourier'"),
        ("pipeline", lambda doc: {**doc, "n_theta": 0}, "'n_theta'"),
        ("pipeline", lambda doc: {**doc, "n_sensors": 0}, "'n_sensors'"),
        ("pipeline", lambda doc: {**doc, "noise": True}, "noise config"),
        ("pipeline", lambda doc: {**doc, "noise": {"per_sensor": 5}},
         "noise config"),
        # values the types allow but a case does not: nothing is written,
        # not even the valid cases before the bad one
        ("synth", _set.__func__("training", "ti", 1.5), "'training[0]': ti"),
        ("synth", _set.__func__("evaluation", "u_mean", 0),
         "'evaluation[0]': u_mean"),
        ("synth", lambda doc: {**doc, "training": [doc["training"][0], {
            **doc["training"][1], "ti": 1.5}]}, "'training[1]': ti"),
        ("synth", lambda doc: {**doc, "training": [doc["training"][0], {
            **doc["training"][1], "duration_s": 0.001}]},
         "'training[1]': duration_s"),
        ("synth", _set.__func__("evaluation", "seeds", [-1]),
         "'evaluation[0].seeds'"),
        # the pipeline block is checked as the config it becomes
        ("synth", _block.__func__(noise="abc"), "noise config"),
        ("synth", _block.__func__(n_modes="abc"), "'pipeline.n_modes'"),
        ("synth", _block.__func__(n_modes=0), "'n_modes'"),
        ("synth", _block.__func__(n_modes=13), "'n_modes'"),
        ("synth", _block.__func__(seed=-1), "'seed'"),
        ("synth", _block.__func__(observation_fractions=[0.4, 1.2]),
         "'observation_fractions'"),
        ("synth", _block.__func__(evaluation=[]), "'evaluation'"),
        # options that are gone are unknown keys
        ("pipeline", lambda doc: {**doc, "lnm_frequencies": [1.0, 2.0]},
         "'lnm_frequencies'"),
        ("synth", _block.__func__(lnm_frequencies=[1.0, 2.0]),
         "['lnm_frequencies'] in 'pipeline'"),
        # two entries that write one case file: the later would overwrite it
        ("synth", lambda doc: {**doc, "evaluation": [{
            **doc["evaluation"][0], "name": "tr_b", "seeds": [0]}]},
         "'training[1]' and 'evaluation[0]' both write tr_b_s0.json"),
        ("synth", lambda doc: {**doc, "training": [doc["training"][0], {
            **doc["training"][1], "name": "tr_a"}]},
         "'training[0]' and 'training[1]' both write tr_a_s0.json"),
        ("synth", _set.__func__("training", "seeds", [0, 0]),
         "'training[0]' and 'training[0]' both write tr_a_s0.json"),
        # a case name is a file name: the valid case before it is not
        # written, and nothing is written outside --out
        ("synth", lambda doc: {**doc, "training": [doc["training"][0], {
            **doc["training"][1], "name": "sub/b"}]}, "'training[1].name'"),
        ("synth", _set.__func__("evaluation", "name", "../x"),
         "'evaluation[0].name'"),
        ("synth", _set.__func__("evaluation", "name", ""),
         "'evaluation[0].name'"),
        ("synth", _set.__func__("training", "name", "."), "'training[0].name'"),
        ("synth", _set.__func__("training", "name", ".."),
         "'training[0].name'"),
    ], ids=["synth-no-name", "synth-no-u_mean", "synth-no-ti",
            "synth-not-object", "pipeline-not-object", "n_modes-text",
            "n_modes-fraction", "fractions-scalar", "fraction-above-1",
            "fraction-below-0", "synth-u_mean-text",
            "synth-second-case-u_mean-text", "synth-seeds-scalar",
            "synth-n_z-text", "synth-training-object", "training-scalar",
            "fractions-empty", "seed-negative", "n_fourier-negative",
            "n_theta-zero", "n_sensors-zero", "noise-bool",
            "noise-per_sensor-scalar", "synth-ti-above-1", "synth-u_mean-zero",
            "synth-second-case-ti-above-1", "synth-second-case-too-short",
            "synth-seed-negative", "synth-noise-text", "synth-n_modes-text",
            "synth-n_modes-zero", "synth-n_modes-above-3-sensors",
            "synth-pipeline-seed-negative", "synth-fraction-above-1",
            "synth-pipeline-evaluation-empty", "lnm_frequencies",
            "synth-lnm_frequencies", "synth-case-in-both-groups",
            "synth-case-twice-in-training", "synth-seed-listed-twice",
            "synth-name-in-a-subdirectory", "synth-name-in-the-parent",
            "synth-name-empty", "synth-name-dot", "synth-name-dot-dot"])
    def test_malformed_config_exits_2_naming_the_key(
            self, twin, tmp_path, capsys, command, edit, key):
        pipeline_cfg, _ = twin
        argv = command.split()  # the command and its extra flags
        synth = argv[0] == "synth"
        base = SYNTH_CONFIG if synth else json.loads(pipeline_cfg.read_text())
        doc = edit(json.loads(json.dumps(base)))
        # a pipeline config names its cases relative to itself
        cfg = (tmp_path if synth else pipeline_cfg.parent) / \
            f"bad_{tmp_path.name}.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert key in err and cfg.name in err
        assert not out.exists()
        assert [f for f in tmp_path.iterdir() if f != cfg] == []

    @pytest.mark.parametrize("raise_seeds", [0, 5],
                             ids=["case-seeds-small", "case-seeds-at-least-5"])
    def test_synth_rejects_a_negative_seed_flag(self, tmp_path, capsys,
                                                raise_seeds):
        # --seed is also the written config's seed, so it is rejected even
        # when every case seed plus it stays non-negative
        doc = json.loads(json.dumps(SYNTH_CONFIG))
        for entry in doc["training"] + doc["evaluation"]:
            entry["seeds"] = [s + raise_seeds for s in entry["seeds"]]
        cfg = tmp_path / "synth.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["synth", "--config", str(cfg), "--seed", "-3",
                     "--out", str(out)]) == 2
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("seed", 1.5), ("seed", True), ("u_mean", "9.5"), ("f_s", "abc"),
        ("L_b", None), ("grid_file", 5), ("torsoin_file", "x.npy"),
    ], ids=["seed-fraction", "seed-bool", "u_mean-text", "f_s-text",
            "L_b-null", "grid_file-number", "misspelt-torsion_file"])
    def test_malformed_manifest_exits_2_naming_the_key(
            self, twin, tmp_path, capsys, key, value):
        pipeline_cfg, _ = twin
        cases = tmp_path / "cases"
        shutil.copytree(pipeline_cfg.parent, cases)
        manifest = cases / json.loads(pipeline_cfg.read_text())["training"][1]
        doc = json.loads(manifest.read_text())
        doc[key] = value
        manifest.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["pipeline", "--config", str(cases / pipeline_cfg.name),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"'{key}'" in err and manifest.name in err
        assert "load" in (tmp_path / "out" / "FAILED").read_text()

    def test_n_modes_bounded_by_sensors(self, twin):
        pipeline_cfg, _ = twin
        doc = json.loads(pipeline_cfg.read_text())
        doc["n_modes"] = 13  # more than the 12 rows of four sensors
        doc["n_sensors"] = 4
        bad = pipeline_cfg.parent / "bad_nm.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="n_sensors"):
            PipelineConfig.from_json(bad)

    @pytest.mark.parametrize("key, value", [
        ("estimation_mode", "direct_projection"),
        ("pivot", "scalar"),
        ("torsion_rank", 5),
        ("n_sensor", 3),  # misspelt n_sensors
    ])
    def test_unknown_key_rejected(self, twin, tmp_path, key, value):
        pipeline_cfg, _ = twin
        doc = json.loads(pipeline_cfg.read_text())
        doc[key] = value
        bad = pipeline_cfg.parent / f"bad_{key}.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=key):
            PipelineConfig.from_json(bad)
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(bad), "--out", str(out)]) == 2
        assert not out.exists()
