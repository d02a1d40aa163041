import json
import os
import shutil
import subprocess
import sys
import weakref
import xml.etree.ElementTree as ET
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import bladesense
from bladesense import (NoiseModel, TorsionModel, dataset, evaluate_rom, fuse,
                        infer_torsion, load_case, load_rom,
                        load_torsion_model, observe, open_case, place_sensors,
                        pod_fit, project, sparse_estimate)
from bladesense.cli import main
from bladesense.pipeline import PipelineConfig, _sector, run_pipeline
from bladesense.sensing import sensor_dof_rows
from bladesense.spectral import psd
from bladesense.errors import NumericalError, StageError, ValidationError

from conftest import (CHANNELS, DAMAGE, NPY_DAMAGE, damage_case,
                      savetxt_writer, traced_peak)

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


def synth_config(name, root):
    """The ``--config`` arguments of ``synth`` for a dataset of
    ``DATASETS``; the twin's spec is written to ``root``."""
    if name == "quickstart":
        return []
    if name == "twin":
        spec = root / "synth.json"
        spec.write_text(json.dumps(SYNTH_CONFIG))
    else:
        spec = ROOT / "perfbench" / "workloads" / f"{name}.json"
    return ["--config", str(spec)]


@pytest.fixture(scope="session")
def pipeline_runs(tmp_path_factory):
    """``run(name)`` gives (pipeline config, results directory) of the
    ``synth --seed 0`` and ``pipeline`` run of a dataset of ``DATASETS``,
    made on its first request in the session."""
    runs = {}

    def run(name):
        if name not in runs:
            root = tmp_path_factory.mktemp(name)
            config = synth_config(name, root)
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
        # station's ux fields of its case's recon array
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
            recon = np.load(out / f"recon_{case}.npy", allow_pickle=False)
            assert set(recon.dtype.names) >= {"t"} | {
                f"ux_s{station:03d}_{src}"
                for src in ("true", "sparse", "rom", "fused")}, svg.name

    def test_markup_in_a_case_name_stays_text(self, twin, tmp_path):
        # a case name may hold XML markup characters: every figure is still
        # well-formed XML and its title shows the name as written
        pipeline_cfg, _ = twin
        cases = tmp_path / "cases"
        shutil.copytree(pipeline_cfg.parent, cases)
        doc = json.loads(pipeline_cfg.read_text())
        name = "R&D<1>"
        (cases / doc["evaluation"][0]).rename(cases / f"{name}.json")
        doc["evaluation"][0] = f"{name}.json"
        cfg = cases / pipeline_cfg.name
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 0
        svgs = sorted(out.glob("*.svg"))
        assert len(svgs) == 14
        titled = 0
        for svg in svgs:
            root = ET.parse(svg).getroot()
            title = root.find("{http://www.w3.org/2000/svg}text").text
            titled += title.endswith(f"({name})")
        assert titled == 14  # every figure draws the case

    def test_trace_numbers_are_not_written_twice(self, twin):
        # the trace's columns live in the recon array: no trace CSV
        _, out = twin
        listing = json.loads((out / "artifacts.json").read_text())["files"]
        traces = sorted(p.name for p in out.glob("trace_*"))
        assert traces and all(name.endswith("_ux.svg") for name in traces)
        assert not [name for name in listing
                    if name.startswith("trace_") and name.endswith(".csv")]

    def test_reconstructions_are_listed_as_arrays_only(self, twin):
        # each evaluation case has its recon and torsion_recon .npy, and
        # the index lists no per-step reconstruction as a CSV
        _, out = twin
        listing = json.loads((out / "artifacts.json").read_text())["files"]
        cases = json.loads((out / "error_summary.json").read_text())["cases"]
        recon = sorted(name for name in listing if "recon_" in name)
        assert recon == sorted(f"{kind}_{case}.npy" for case in cases
                               for kind in ("recon", "torsion_recon"))
        assert not list(out.glob("*recon_*.csv"))

    def test_station_table_fields_follow_the_column_order(self, tmp_path):
        # head columns, then per station and component the true series and
        # each estimate's, one float64 field each, row i at step i; the
        # RMSE returned is each estimate's against the truth, per row
        rng = np.random.default_rng(3)
        n_t, stations = 7, [2, 11]
        truth = rng.standard_normal((6, n_t))
        est = {"a": rng.standard_normal((6, n_t)),
               "b": rng.standard_normal((6, n_t))}
        head = {"t": np.arange(n_t) * 0.5, "theta": rng.uniform(0, 6, n_t)}
        path = tmp_path / "recon_x.npy"
        rmse = bladesense.pipeline._station_table(
            path, head, stations, ("ux", "uy", "uz"), truth, est)
        got = np.load(path, allow_pickle=False)
        want = dict(head)
        for s_i, station in enumerate(stations):
            for c_i, comp in enumerate(("ux", "uy", "uz")):
                row = 3 * s_i + c_i
                want[f"{comp}_s{station:03d}_true"] = truth[row]
                for src, series in est.items():
                    want[f"{comp}_s{station:03d}_{src}"] = series[row]
        assert got.shape == (n_t,) and got.dtype.names == tuple(want)
        for name, series in want.items():
            assert got.dtype.fields[name][0] == np.dtype("<f8")
            assert np.array_equal(got[name], series), name
        assert rmse == {src: [float(np.sqrt(np.mean((e[r] - truth[r]) ** 2)))
                              for r in range(6)] for src, e in est.items()}

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
        recon = np.load(next(out.glob("recon_*.npy")), allow_pickle=False)
        assert "trace_fused_cov" in recon.dtype.names
        assert np.all(recon["trace_fused_cov"] >= 0.0)

    def test_station_rmse_recomputed_from_the_report_tables(self, twin):
        # the reconstruction arrays hold the estimates exactly: every RMSE
        # the summaries give follows from them, bit for bit
        _, out = twin

        def columns(name):
            return np.load(out / name, allow_pickle=False)

        def rmse(cols, comp, station, src):
            true = cols[f"{comp}_s{station:03d}_true"]
            est = cols[f"{comp}_s{station:03d}_{src}"]
            return float(np.sqrt(np.mean((est - true) ** 2)))

        pairs = []  # (summary, recomputed)
        errors = json.loads((out / "error_summary.json").read_text())
        for case_id, case in errors["cases"].items():
            cols = columns(f"recon_{case_id}.npy")
            for st in case["stations"]:
                for comp, by_src in st["rmse"].items():
                    pairs += [(v, rmse(cols, comp, st["station_index"], src))
                              for src, v in by_src.items()]
        torsion = json.loads((out / "torsion_summary.json").read_text())
        for case_id, stations in torsion["evaluation"].items():
            cols = columns(f"torsion_recon_{case_id}.npy")
            for st in stations:
                pairs += [(v["rmse"],
                           rmse(cols, comp, st["station_index"], "fused"))
                          for comp, v in st["components"].items()]
        # one case: 3 stations x 3 components x 3 sources, plus 3 x 3 torsion
        assert len(pairs) == 36
        for want, got in pairs:
            assert got == want

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
        # every step fuses one well-conditioned covariance pair
        assert summary["fusion"] == {"steps": u.size, "regularized": 0}

    def test_torsion_map_has_one_column_per_mode(self, twin):
        # the twin's torsion is a linear function of its N coordinates
        pipeline_cfg, out = twin
        config = PipelineConfig.from_json(pipeline_cfg)
        grid = load_case(config.training[0])[0]
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
        # every table of a run, figure twins included, holds np.savetxt's
        # bytes at %.17e; each module that binds the writer is patched, and
        # every CSV goes through the patch. The reconstruction arrays are
        # the first run's bytes
        pipeline_cfg, out = dataset_run
        written = []

        def reference(path, names, data):
            written.append(Path(path).name)
            savetxt_writer(path, names, data)

        for module in (bladesense.pipeline, bladesense.decomposition,
                       bladesense.sensing, bladesense.torsion, dataset):
            monkeypatch.setattr(module, "_write_csv", reference)
        ref = tmp_path / "reference"
        assert main(["pipeline", "--config", str(pipeline_cfg),
                     "--out", str(ref)]) == 0
        names = json.loads((out / "artifacts.json").read_text())["files"]
        assert sorted(written) == [n for n in names if n.endswith(".csv")]
        assert any(n.startswith("recon_") and n.endswith(".npy")
                   for n in names)
        names.append("artifacts.json")
        assert sorted(p.name for p in ref.iterdir()) == sorted(names)
        for name in names:
            assert (ref / name).read_bytes() == (out / name).read_bytes(), name

    def test_azimuthal_tables_are_the_first_evaluation_case(self,
                                                            dataset_run):
        # each mode's table: the first evaluation case, projected on the
        # training basis, in its occupied 5-degree sectors, beside the prior
        # at the sector centres and the case's mean filtered wind speed
        pipeline_cfg, out = dataset_run
        config = PipelineConfig.from_json(pipeline_cfg)
        basis = pod_fit([load_case(p)[1] for p in config.training],
                        config.n_modes)
        _, e = load_case(config.evaluation[0])
        a = project(e.D, basis)
        sector = np.minimum(np.floor(e.theta / (2.0 * np.pi) * 72), 71)
        occupied = np.unique(sector)
        centres = (occupied + 0.5) * 2.0 * np.pi / 72
        prior = evaluate_rom(load_rom(out / "rom.json"), centres,
                             float(np.mean(e.u_filt)), None)
        rom_std = np.sqrt(np.diagonal(prior.covariance))
        for n in range(config.n_modes):
            rows = []
            for i, k in enumerate(occupied):
                x = a[n, sector == k]
                rows.append([centres[i], np.mean(x), np.std(x),
                             prior.mean[i, n], rom_std[n]])
            table = np.loadtxt(out / f"azimuthal_mode{n + 1}.csv",
                               delimiter=",", skiprows=1, ndmin=2)
            assert table.shape == (occupied.size, 5)
            np.testing.assert_allclose(table, rows, rtol=1e-9, atol=1e-12)
        assert not (out / f"azimuthal_mode{config.n_modes + 1}.csv").exists()

    @pytest.mark.parametrize("name", DATASETS)
    def test_synth_writes_the_bytes_of_a_savetxt_writer(
            self, pipeline_runs, tmp_path, monkeypatch, name):
        # every case file of synth --seed 0, whose grid and channel tables
        # are lossless, is what a run with np.savetxt as its writer writes
        cases = pipeline_runs(name)[0].parent
        tables = []

        def reference(path, names, data):
            tables.append(Path(path).name)
            savetxt_writer(path, names, data)

        monkeypatch.setattr(dataset, "_write_csv", reference)
        ref = tmp_path / "reference"
        assert main(["synth", *synth_config(name, tmp_path), "--seed", "0",
                     "--out", str(ref)]) == 0
        written = sorted(p.name for p in ref.iterdir())
        assert sorted(tables) == [n for n in written if n.endswith(".csv")]
        assert any(n.endswith("_channels.csv") for n in written)
        for n in written:
            assert (ref / n).read_bytes() == (cases / n).read_bytes(), n

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
        assert "torsion_recon_ev_s5.npy" in names
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
            "artifacts.json", "energies.csv", "modes.csv", "rom.json",
            "sensors.csv", "torsion_map.csv"]
        for path in out.iterdir():
            if path.name != "artifacts.json":
                assert path.read_bytes() == (full / path.name).read_bytes(), \
                    path.name

    @pytest.mark.parametrize("plan", ["pipeline", "fit-rom"])
    def test_each_stage_runs_once_through_the_table(self, twin, tmp_path,
                                                    monkeypatch, plan):
        # every stage is looked up in _STAGES when it runs, which is where
        # the benchmark's tracer times it; fit-rom runs the pipeline's fit
        pipeline_cfg, _ = twin
        config = PipelineConfig.from_json(pipeline_cfg, out_dir=tmp_path / "o")
        ran = []
        for name, stage in list(bladesense.pipeline._STAGES.items()):
            def recording(*args, _name=name, _stage=stage):
                ran.append(_name)
                return _stage(*args)

            monkeypatch.setitem(bladesense.pipeline._STAGES, name, recording)
        run_pipeline(config, plan=plan)
        fit = ["load", "decompose", "sensors", "fit-rom"]
        assert ran == fit + {"pipeline": ["estimate", "report"],
                             "fit-rom": []}[plan] + ["index"]

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

    @pytest.mark.parametrize("argv, flag", [
        (["fit-rom", "--config", "CONFIG", "--seed", "1"], "--seed"),
        (["fit-rom"], "--config"),
    ], ids=["seed", "no-config"])
    def test_fit_rom_usage_errors_exit_2(self, twin, tmp_path, capsys, argv,
                                         flag):
        # the fit draws nothing, so fit-rom takes no --seed; it needs a
        # config, as pipeline does (test_missing_config_flag)
        pipeline_cfg, _ = twin
        out = tmp_path / "out"
        argv = [str(pipeline_cfg) if a == "CONFIG" else a for a in argv]
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(out)])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
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


class TestUsedOutputDirectory:
    """A run into a used ``--out`` first deletes what that directory's
    ``artifacts.json`` lists, then the index; other files stay."""

    @staticmethod
    def _on_disk(out):
        return {p.name for p in out.iterdir()}

    def test_rerun_with_a_case_fewer_leaves_only_its_listed_files(
            self, twin, tmp_path):
        pipeline_cfg, _ = twin
        doc = json.loads(pipeline_cfg.read_text())
        cfgs = []
        for evaluation in (doc["evaluation"] + doc["training"][-1:],
                           doc["evaluation"]):
            cfg = pipeline_cfg.parent / f"rerun{len(cfgs)}_{tmp_path.name}.json"
            cfg.write_text(json.dumps({**doc, "evaluation": evaluation}))
            cfgs.append(cfg)
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(cfgs[0]),
                     "--out", str(out)]) == 0
        dropped = Path(doc["training"][-1]).stem
        for name in (f"recon_{dropped}.npy", f"torsion_recon_{dropped}.npy"):
            assert (out / name).exists(), name
        (out / "notes.txt").write_text("not the pipeline's")
        assert main(["pipeline", "--config", str(cfgs[1]),
                     "--out", str(out)]) == 0
        listed = set(json.loads((out / "artifacts.json").read_text())["files"])
        assert not any(dropped in name for name in listed)
        assert self._on_disk(out) == listed | {"artifacts.json", "notes.txt"}
        # and the re-run's files are those of a run into a fresh directory
        fresh = tmp_path / "fresh"
        assert main(["pipeline", "--config", str(cfgs[1]),
                     "--out", str(fresh)]) == 0
        for name in listed | {"artifacts.json"}:
            assert (out / name).read_bytes() == (fresh / name).read_bytes(), name

    def test_an_index_naming_paths_deletes_nothing_outside_out(self, twin,
                                                               tmp_path):
        pipeline_cfg, _ = twin
        out = tmp_path / "a" / "out"
        (out / "sub").mkdir(parents=True)
        kept = [tmp_path / "a" / "x", tmp_path / "x", out / "sub" / "y"]
        for path in kept:
            path.write_text("kept")
        (out / "listed.csv").write_text("a previous run's")
        (out / "artifacts.json").write_text(json.dumps({"files": [
            "../x", "../../x", str(tmp_path / "x"), "sub/y", "sub", ".", "..",
            "", "listed.csv", "never_written.csv", "artifacts.json"]}))
        assert main(["fit-rom", "--config", str(pipeline_cfg),
                     "--out", str(out)]) == 0
        assert all(path.read_text() == "kept" for path in kept)
        assert not (out / "listed.csv").exists()
        listed = set(json.loads((out / "artifacts.json").read_text())["files"])
        assert self._on_disk(out) == listed | {"artifacts.json", "sub"}

    @staticmethod
    def _with_broken_case(twin, tmp_path, broken):
        """Copy the twin's cases, add a second evaluation case ``ev2`` (the
        first's data under a torsion file of its own) and put an ``inf`` in
        ``<broken>_torsion.npy``, a fault found only where the matrix is
        read; return the configs with both evaluation cases and with the
        first only."""
        pipeline_cfg, _ = twin
        cases = tmp_path / "cases"
        shutil.copytree(pipeline_cfg.parent, cases)
        manifest = json.loads((cases / "ev_s5.json").read_text())
        shutil.copy(cases / manifest["torsion_file"], cases / "ev2_torsion.npy")
        manifest.update(name="ev2", torsion_file="ev2_torsion.npy")
        (cases / "ev2.json").write_text(json.dumps(manifest))
        tau = np.load(cases / f"{broken}_torsion.npy")
        tau[0, 0] = np.inf
        np.save(cases / f"{broken}_torsion.npy", tau)
        doc = json.loads(pipeline_cfg.read_text())
        configs = []
        for evaluation in (["ev_s5.json", "ev2.json"], ["ev_s5.json"]):
            configs.append(cases / f"eval{len(evaluation)}.json")
            configs[-1].write_text(json.dumps({**doc, "evaluation": evaluation}))
        return configs

    @pytest.mark.parametrize("broken, stage", [("tr_a_s0", "fit-rom"),
                                               ("ev2", "estimate")])
    def test_a_failed_run_lists_what_it_wrote(self, twin, tmp_path, broken,
                                              stage):
        both, _ = self._with_broken_case(twin, tmp_path, broken)
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(both),
                     "--out", str(out)]) == 2
        assert (out / "FAILED").read_text().startswith(f"stage: {stage}\n")
        listed = set(json.loads((out / "artifacts.json").read_text())["files"])
        assert {"modes.csv", "rom.json"} <= listed
        assert self._on_disk(out) == listed | {"artifacts.json", "FAILED"}

    def test_rerun_after_a_failed_run_leaves_only_its_listed_files(
            self, twin, tmp_path):
        both, first = self._with_broken_case(twin, tmp_path, "ev2")
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(both),
                     "--out", str(out)]) == 2
        assert (out / "recon_ev2.npy").exists()
        (out / "notes.txt").write_text("not the pipeline's")
        assert main(["pipeline", "--config", str(first),
                     "--out", str(out)]) == 0
        listed = set(json.loads((out / "artifacts.json").read_text())["files"])
        assert not any("ev2" in name for name in listed)
        assert self._on_disk(out) == listed | {"artifacts.json", "notes.txt"}

    def test_a_malformed_index_exits_2_naming_it(self, twin, tmp_path,
                                                 capsys):
        pipeline_cfg, _ = twin
        out = tmp_path / "out"
        out.mkdir()
        (out / "artifacts.json").write_text(json.dumps({"files": "modes.csv"}))
        (out / "modes.csv").write_text("kept")
        capsys.readouterr()
        assert main(["fit-rom", "--config", str(pipeline_cfg),
                     "--out", str(out)]) == 2
        assert "artifacts.json" in capsys.readouterr().err
        assert (out / "modes.csv").read_text() == "kept"


class TestUnitScale:
    @staticmethod
    def _pairs(base, scaled, scaling=False, where=""):
        """(where, base value, scaled value, whether an RMSE) of every
        number in two JSON documents of one layout."""
        assert type(base) is type(scaled), where
        if isinstance(base, dict):
            assert base.keys() == scaled.keys(), where
            items = [(k, base[k], scaled[k]) for k in base]
        elif isinstance(base, list):
            assert len(base) == len(scaled), where
            items = [(i, b, v) for i, (b, v) in enumerate(zip(base, scaled))]
        else:
            return [(where, base, scaled, scaling)]
        return [pair for k, b, v in items for pair in TestUnitScale._pairs(
            b, v, scaling or "rmse" in str(k), f"{where}/{k}")]

    @pytest.mark.parametrize("c", [1e-6, 1e6])
    @pytest.mark.parametrize("name", ["twin", "quickstart"])
    def test_errors_scale_with_the_unit(self, pipeline_runs, tmp_path, name,
                                        c):
        # every case matrix and the sensor noise in units c times smaller:
        # each RMSE scales by c, and every other number (the stations,
        # NIS, R^2, the counters) stays as it was
        pipeline_cfg, out = pipeline_runs(name)
        cases = tmp_path / "cases"
        shutil.copytree(pipeline_cfg.parent, cases)
        for npy in cases.glob("*.npy"):
            np.save(npy, c * np.load(npy))
        doc = json.loads(pipeline_cfg.read_text())
        doc["noise"] *= c
        (cases / pipeline_cfg.name).write_text(json.dumps(doc))
        scaled = tmp_path / "out"
        assert main(["pipeline", "--config", str(cases / pipeline_cfg.name),
                     "--out", str(scaled)]) == 0
        n_rmse = 0
        for summary in ("error_summary.json", "torsion_summary.json"):
            pairs = self._pairs(json.loads((out / summary).read_text()),
                                json.loads((scaled / summary).read_text()))
            for where, base, value, is_rmse in pairs:
                if isinstance(base, int):
                    assert value == base, (summary, where)
                else:
                    want = c * base if is_rmse else base
                    assert np.isclose(value, want, rtol=1e-12, atol=0), \
                        (summary, where, value, want)
                    n_rmse += is_rmse
        assert n_rmse > 0


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

    def test_missing_config_flag(self, capsys):
        # the parser requires --config: a usage error, exit 2
        with pytest.raises(SystemExit) as exc:
            main(["pipeline"])
        assert exc.value.code == 2
        assert "--config" in capsys.readouterr().err

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

    def test_fractions_on_one_station_fail_at_load(self, tmp_path, capsys):
        # on a 3-station grid the observation fractions 0.44 and 0.68 both
        # snap to station 1, whose columns the tables would then carry twice
        doc = json.loads(json.dumps(SYNTH_CONFIG))
        doc["grid"]["n_z"] = 3
        (tmp_path / "synth.json").write_text(json.dumps(doc))
        cases = tmp_path / "cases"
        assert main(["synth", "--config", str(tmp_path / "synth.json"),
                     "--out", str(cases)]) == 0
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["pipeline", "--config",
                     str(cases / "pipeline_config.json"),
                     "--out", str(out)]) == 2
        err, marker = capsys.readouterr().err, (out / "FAILED").read_text()
        assert "stage: load" in marker
        for part in ("0.44", "0.68", "station 1"):
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
        assert "stage: estimate" in (out / "FAILED").read_text()
        assert not (out / "torsion_summary.json").exists()

    def test_non_finite_evaluation_field_fails_at_estimate(self, twin,
                                                           tmp_path):
        # estimate's read is the first to check an evaluation field's
        # values; the fit's files are written by then, and listed
        def damage(cases):
            path = cases / "ev_s5_displacement.npy"
            D = np.load(path)
            D[5, 10] = np.nan  # ux_005 at row 10 of the 8-station grid
            np.save(path, D)

        code, marker = self._failed_load(twin, tmp_path, damage)
        path = tmp_path / "cases" / "ev_s5_displacement.npy"
        out = tmp_path / "out"
        assert code == 2
        # the message names the file, and the value as a plain float
        assert marker == (f"stage: estimate\nerror: {path}: non-finite value "
                          "(component x, station 005) at row 10: nan\n")
        listed = json.loads((out / "artifacts.json").read_text())["files"]
        assert "rom.json" in listed
        assert sorted(p.name for p in out.iterdir()) == sorted(
            listed + ["artifacts.json", "FAILED"])

    @pytest.mark.parametrize("case, stage", [("tr_a_s1", "decompose"),
                                             ("ev_s5", "estimate")])
    def test_field_value_beyond_the_bound_fails_where_read(
            self, twin, tmp_path, case, stage):
        # a field scaled by 1e200 is finite but overflows the fit's
        # products: it is rejected when its values are first read
        def damage(cases):
            path = cases / f"{case}_displacement.npy"
            np.save(path, 1e200 * np.load(path))

        code, marker = self._failed_load(twin, tmp_path, damage)
        path = tmp_path / "cases" / f"{case}_displacement.npy"
        assert code == 2
        assert marker.startswith(f"stage: {stage}\nerror: {path}: magnitude "
                                 "above 1e+100 (component ")
        assert " at row 0: " in marker

    @pytest.mark.parametrize("case", ["tr_a_s0", "ev_s5"])
    def test_channel_value_beyond_the_bound_fails_at_load(
            self, twin, tmp_path, case):
        def damage(cases):
            _edit_channel(cases / f"{case}_channels.csv", "u_filt",
                          lambda u: np.where(np.arange(u.size) == 10, 1e300,
                                             u))

        code, marker = self._failed_load(twin, tmp_path, damage)
        path = tmp_path / "cases" / f"{case}_channels.csv"
        assert code == 2
        assert marker == (f"stage: load\nerror: {path}: magnitude above "
                          "1e+100 in column u_filt at row 10: 1e+300\n")
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "FAILED"]

    @pytest.mark.parametrize("case, file", [("tr_a_s0", "displacement"),
                                            ("tr_a_s0", "u_filt"),
                                            ("ev_s5", "u_filt")])
    def test_values_under_the_bound_run_clean(self, twin, tmp_path, case,
                                              file):
        # the bound leaves room: a training field scaled by 1e99 and a wind
        # speed sample of 1e100 run through every stage to finite summaries
        pipeline_cfg, _ = twin
        cases = tmp_path / "cases"
        shutil.copytree(pipeline_cfg.parent, cases)
        if file == "displacement":
            path = cases / f"{case}_displacement.npy"
            np.save(path, 1e99 * np.load(path))
        else:
            _edit_channel(cases / f"{case}_channels.csv", file,
                          lambda u: np.where(np.arange(u.size) == 10, 1e100,
                                             u))
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(cases / pipeline_cfg.name),
                     "--out", str(out)]) == 0
        summary = json.loads((out / "error_summary.json").read_text())
        assert np.isfinite(summary["cases"]["ev_s5"]["nis_mean"])

    @pytest.mark.parametrize("case, stage, unwritten", [
        ("tr_a_s0", "fit-rom", "torsion_map.csv"),
        ("ev_s5", "estimate", "error_summary.json")])
    def test_non_finite_torsion_fails_naming_the_file(
            self, twin, tmp_path, capsys, case, stage, unwritten):
        # fit-rom reads each training torsion matrix for the map, and
        # estimate each evaluation one as it scores the case
        pipeline_cfg, _ = twin
        cases = tmp_path / "cases"
        shutil.copytree(pipeline_cfg.parent, cases)
        path = cases / f"{case}_torsion.npy"
        tau = np.load(path)
        tau[13, 10] = np.inf  # uy_005 at row 10 of the 8-station grid
        np.save(path, tau)
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["pipeline", "--config", str(cases / pipeline_cfg.name),
                     "--out", str(out)]) == 2
        marker = (out / "FAILED").read_text()
        message = (f"{path}: non-finite value (component y, station 005) "
                   "at row 10: inf")
        assert marker == f"stage: {stage}\nerror: {message}\n"
        assert message in capsys.readouterr().err
        assert not (out / "torsion_summary.json").exists()
        assert not (out / unwritten).exists()

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

    def test_one_step_evaluation_case_fails_at_load(self, twin, tmp_path,
                                                    capsys):
        # the report's spectra need two samples: a shorter evaluation case
        # is rejected before any stage writes a file
        def cut(n_t):
            def damage(cases):
                _, e = load_case(cases / "ev_s5.json")
                short = dataset.SnapshotEnsemble(
                    grid=e.grid, D=e.D[:, :n_t], condition=e.condition,
                    f_s=e.f_s, **{c: getattr(e, c)[:n_t] for c in
                                  ("t", "theta", "omega", "u_raw", "u_filt")})
                tau = np.load(cases / "ev_s5_torsion.npy")[:, :n_t]
                dataset.save_case(short, cases, "ev_s5", tau=tau)
            return damage

        capsys.readouterr()
        code, marker = self._failed_load(twin, tmp_path / "one", cut(1))
        assert code == 2
        assert marker == ("stage: load\nerror: evaluation case 'ev_s5' has "
                          "1 time step, fewer than 2\n")
        assert "'ev_s5' has 1 time step" in capsys.readouterr().err
        assert sorted(p.name for p in (tmp_path / "one" / "out").iterdir()
                      ) == ["FAILED"]
        # two steps run through every stage
        pipeline_cfg, _ = twin
        cases = tmp_path / "two"
        shutil.copytree(pipeline_cfg.parent, cases)
        cut(2)(cases)
        assert main(["pipeline", "--config", str(cases / pipeline_cfg.name),
                     "--out", str(cases / "out")]) == 0

    @pytest.mark.parametrize("name, at", [("ev_s5_grid.csv", 0),
                                          ("ev_s5_channels.csv", -10)])
    def test_a_byte_that_is_not_utf8_fails_at_load_naming_the_file(
            self, twin, tmp_path, capsys, name, at):
        # 0xff at the start of a grid CSV's header, and in the last row of
        # a channel CSV, past the header's first buffered chunk
        def damage(cases):
            raw = bytearray((cases / name).read_bytes())
            raw[at] = 0xFF
            (cases / name).write_bytes(bytes(raw))

        capsys.readouterr()
        code, marker = self._failed_load(twin, tmp_path, damage)
        assert code == 2
        assert "stage: load" in marker
        err = capsys.readouterr().err
        for text in (marker, err):
            assert f"{name}: not UTF-8 text" in text, text

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

    @pytest.mark.parametrize(
        "case, kind", [("ev_s5", k) for k in DAMAGE]
        + [("tr_a_s0", k) for k in DAMAGE],
        ids=[*DAMAGE, *(f"training-{k}" for k in DAMAGE)])
    def test_bad_binary_input_fails_at_load(self, twin, tmp_path, case,
                                            kind):
        # load checks a training field's header and length, not its
        # values: in either role every damage fails there
        names = []

        def damage(cases):
            names.append(damage_case(cases / f"{case}.json", kind)[1])

        code, marker = self._failed_load(twin, tmp_path, damage)
        assert code == 2
        assert "stage: load" in marker and names[0] in marker
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "FAILED"]

    def test_non_finite_training_field_fails_at_decompose(self, twin,
                                                          tmp_path):
        # decompose's read is the first to check a training field's
        # values, before any file is written
        def damage(cases):
            path = cases / "tr_a_s1_displacement.npy"
            D = np.load(path)
            D[5, 10] = np.nan  # ux_005 at row 10 of the 8-station grid
            np.save(path, D)

        code, marker = self._failed_load(twin, tmp_path, damage)
        path = tmp_path / "cases" / "tr_a_s1_displacement.npy"
        assert code == 2
        assert marker == (f"stage: decompose\nerror: {path}: non-finite value "
                          "(component x, station 005) at row 10: nan\n")
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "FAILED"]

    def test_training_field_changed_before_fit_rom_fails_naming_it(
            self, twin, tmp_path, monkeypatch, capsys):
        # fit-rom reads each training field again to project it; a file
        # rewritten since load checked it (here after decompose, with the
        # same size) is rejected, not projected on a basis fitted to other
        # data
        pipeline_cfg, _ = twin
        cases = tmp_path / "cases"
        shutil.copytree(pipeline_cfg.parent, cases)
        path = cases / "tr_b_s0_displacement.npy"

        def rewrite(*args, _stage=bladesense.pipeline._STAGES["sensors"]):
            np.save(path, 2.0 * np.load(path))
            return _stage(*args)

        monkeypatch.setitem(bladesense.pipeline._STAGES, "sensors", rewrite)
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["pipeline", "--config", str(cases / pipeline_cfg.name),
                     "--out", str(out)]) == 2
        marker = (out / "FAILED").read_text()
        assert marker.startswith(
            f"stage: fit-rom\nerror: {path}: changed since it was first read")
        assert f"{path}: changed" in capsys.readouterr().err
        assert not (out / "rom.json").exists()

    def test_evaluation_field_changed_before_estimate_fails_naming_it(
            self, twin, tmp_path, monkeypatch, capsys):
        # estimate reads each evaluation field under the same guard: a
        # file rewritten since load checked it (here after fit-rom, with
        # the same size) is rejected, not scored
        pipeline_cfg, _ = twin
        cases = tmp_path / "cases"
        shutil.copytree(pipeline_cfg.parent, cases)
        path = cases / "ev_s5_displacement.npy"

        def rewrite(*args, _stage=bladesense.pipeline._STAGES["fit-rom"]):
            result = _stage(*args)
            np.save(path, 2.0 * np.load(path))
            return result

        monkeypatch.setitem(bladesense.pipeline._STAGES, "fit-rom", rewrite)
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["pipeline", "--config", str(cases / pipeline_cfg.name),
                     "--out", str(out)]) == 2
        marker = (out / "FAILED").read_text()
        assert marker.startswith(
            f"stage: estimate\nerror: {path}: changed since it was first read")
        assert f"{path}: changed" in capsys.readouterr().err
        assert not (out / "error_summary.json").exists()

    @pytest.mark.parametrize(
        "case, kind", [("ev_s5", k) for k in NPY_DAMAGE]
        + [("tr_a_s0", k) for k in NPY_DAMAGE],
        ids=[*NPY_DAMAGE, *(f"training-{k}" for k in NPY_DAMAGE)])
    def test_bad_torsion_file_fails_at_load(self, twin, tmp_path, case,
                                            kind):
        # load checks each torsion file's header and length as it checks
        # the field's, though the matrix is read only at fit-rom or estimate
        names = []

        def damage(cases):
            names.append(damage_case(cases / f"{case}.json", kind,
                                     "torsion_file")[1])

        code, marker = self._failed_load(twin, tmp_path, damage)
        assert code == 2
        assert names == [f"{case}_torsion.npy"]
        assert marker.startswith("stage: load\n") and names[0] in marker
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "FAILED"]

    @pytest.mark.parametrize("change", ["size", "mtime"])
    @pytest.mark.parametrize("case, after, stage, unwritten", [
        ("tr_a_s0", "sensors", "fit-rom", "torsion_map.csv"),
        ("ev_s5", "fit-rom", "estimate", "error_summary.json")])
    def test_torsion_file_changed_after_load_fails_naming_it(
            self, twin, tmp_path, monkeypatch, capsys, case, after, stage,
            unwritten, change):
        # each torsion matrix is read under the stamp load took, as each
        # field is: a file rewritten since (here after the stage ``after``)
        # is rejected where it is read, not fitted or scored
        pipeline_cfg, _ = twin
        cases = tmp_path / "cases"
        shutil.copytree(pipeline_cfg.parent, cases)
        path = cases / f"{case}_torsion.npy"

        def rewrite(*args, _stage=bladesense.pipeline._STAGES[after]):
            result = _stage(*args)
            st = os.stat(path)
            if change == "size":  # the same modification time
                with open(path, "ab") as fh:
                    fh.write(bytes(8))
                os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))
            else:  # the same size, a second later
                np.save(path, 2.0 * np.load(path))
                os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))
            return result

        monkeypatch.setitem(bladesense.pipeline._STAGES, after, rewrite)
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["pipeline", "--config", str(cases / pipeline_cfg.name),
                     "--out", str(out)]) == 2
        marker = (out / "FAILED").read_text()
        assert marker.startswith(
            f"stage: {stage}\nerror: {path}: changed since it was first read")
        assert f"{path}: changed" in capsys.readouterr().err
        assert not (out / unwritten).exists()

    @pytest.mark.parametrize("omega", [np.zeros_like, np.negative])
    def test_training_case_at_rest_fails_at_load(self, twin, tmp_path,
                                                 capsys, omega):
        # the evaluation cases' rule: a non-positive mean rotor speed
        # exits 2 naming the case
        def damage(cases):
            _edit_channel(cases / "tr_a_s1_channels.csv", "omega", omega)

        capsys.readouterr()
        code, marker = self._failed_load(twin, tmp_path, damage)
        assert code == 2
        message = "training case 'tr_a_s1': mean rotor speed 'omega' must"
        assert "stage: load" in marker and message in marker
        assert message in capsys.readouterr().err
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "FAILED"]

    @pytest.mark.parametrize("column", ["u_raw", "u_filt"])
    @pytest.mark.parametrize("case", ["tr_a_s0", "ev_s5"])
    def test_negative_wind_speed_fails_at_load(self, twin, tmp_path, case,
                                               column):
        # in either role, naming the channel table, the column and the row
        def negative_row_10(u):
            return np.where(np.arange(u.size) == 10, -u, u)

        def damage(cases):
            _edit_channel(cases / f"{case}_channels.csv", column,
                          negative_row_10)

        code, marker = self._failed_load(twin, tmp_path, damage)
        path = tmp_path / "cases" / f"{case}_channels.csv"
        assert code == 2
        assert "stage: load" in marker
        assert (f"{path}: negative wind speed in column {column} at row 10: "
                "-") in marker
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "FAILED"]


def _edit_channel(path, column, edit):
    """Replace a column of a case's channel table by ``edit`` of it,
    rewriting the table losslessly."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    j = CHANNELS.index(column)
    data[:, j] = edit(data[:, j])
    dataset._write_csv(path, CHANNELS, data)


def _at_row_10(value):
    """The edit of a channel that sets its row 10 to ``value``."""
    return lambda x: np.where(np.arange(x.size) == 10, value, x)


def _set(i, j, value):
    """The edit of a matrix that sets its entry ``[i, j]`` to ``value``."""
    def edit(M):
        M[i, j] = value
        return M
    return edit


#: The corruptions of the sweep, each ``(file, edit)``: a ``.npy`` matrix
#: (``displacement`` or ``torsion``), a channel column or a manifest key,
#: and the edit of its values (or a :data:`DAMAGE` kind).
CORRUPTIONS = {
    "displacement-nan": ("displacement", _set(5, 10, np.nan)),
    "displacement-x1e200": ("displacement", lambda D: 1e200 * D),
    "displacement-x1e300": ("displacement", lambda D: 1e300 * D),
    "displacement-zeros": ("displacement", np.zeros_like),
    "displacement-float32": ("displacement", lambda D: D.astype(np.float32)),
    "displacement-fortran": ("displacement", np.asfortranarray),
    "displacement-two-columns": ("displacement", lambda D: D[:, :2]),
    "torsion-nan": ("torsion", _set(13, 10, np.nan)),
    "torsion-zeros": ("torsion", np.zeros_like),
    "torsion-not_npy": ("torsion", "not_npy"),
    "torsion-truncated": ("torsion", "truncated"),
    "theta-nan": ("theta", _at_row_10(np.nan)),
    "theta-negative": ("theta", _at_row_10(-0.1)),
    "theta-7": ("theta", _at_row_10(7.0)),
    "theta-2pi": ("theta", _at_row_10(2.0 * np.pi)),
    "omega-zero": ("omega", np.zeros_like),
    "omega-negated": ("omega", np.negative),
    "u_raw-zero": ("u_raw", np.zeros_like),
    "u_raw-negated": ("u_raw", np.negative),
    "u_filt-negated": ("u_filt", np.negative),
    "u_filt-constant": ("u_filt", lambda u: np.full_like(u, u.mean())),
    "u_filt-1e300": ("u_filt", _at_row_10(1e300)),
    "u_raw-inf": ("u_raw", _at_row_10(np.inf)),
    "t-reversed": ("t", lambda t: t[::-1].copy()),
    "t-repeated-step": ("t", lambda t: np.where(np.arange(t.size) == 10,
                                                t[9], t)),
    "t-constant": ("t", lambda t: np.full_like(t, t[0])),
    "f_s-zero": ("f_s", lambda f_s: 0.0),
    "f_s-negative": ("f_s", lambda f_s: -f_s),
    "f_s-wrong": ("f_s", lambda f_s: 2.0 * f_s),
    "ti-out-of-range": ("ti", lambda ti: 1.5),
    "u_mean-out-of-range": ("u_mean", lambda u: -u),
    "L_b-out-of-range": ("L_b", lambda L_b: 0.0),
}


def _corrupt(cases, stem, file, edit):
    """Apply one corruption of :data:`CORRUPTIONS` to case ``stem``."""
    manifest = cases / f"{stem}.json"
    doc = json.loads(manifest.read_text())
    if isinstance(edit, str):
        damage_case(manifest, edit, f"{file}_file")
    elif file in ("displacement", "torsion"):
        path = cases / doc[f"{file}_file"]
        np.save(path, edit(np.load(path)))
    elif file in CHANNELS:
        _edit_channel(cases / doc["snapshot_file"], file, edit)
    else:
        manifest.write_text(json.dumps({**doc, file: edit(doc[file])}))


def _finite_numbers(doc) -> bool:
    if isinstance(doc, dict):
        return all(_finite_numbers(v) for v in doc.values())
    if isinstance(doc, list):
        return all(_finite_numbers(v) for v in doc)
    return not isinstance(doc, float) or np.isfinite(doc)


class TestCorruptionSweep:
    def test_every_corruption_exits_0_finite_or_2_naming_it(self, twin,
                                                            tmp_path):
        # the input contract, one corruption at a time in one training
        # case and then in one evaluation case: a run either ends with
        # finite summaries or exits 2 with a FAILED marker naming the case
        # (each of its files' names starts with the case's); it never
        # crashes (exit 1) or fails as a numerical error (exit 3)
        pipeline_cfg, _ = twin
        broken = []
        for stem in ("tr_a_s0", "ev_s5"):
            for name, (file, edit) in CORRUPTIONS.items():
                run = tmp_path / f"{stem}-{name}"
                cases = run / "cases"
                shutil.copytree(pipeline_cfg.parent, cases)
                _corrupt(cases, stem, file, edit)
                out = run / "out"
                try:
                    code = main(["pipeline", "--config",
                                 str(cases / pipeline_cfg.name),
                                 "--out", str(out)])
                except Exception as err:  # a crash
                    broken.append((stem, name, repr(err)))
                    continue
                if code == 0:
                    docs = [json.loads((out / f).read_text()) for f in
                            ("error_summary.json", "torsion_summary.json")]
                    if not _finite_numbers(docs):
                        broken.append((stem, name, "non-finite summary"))
                elif code != 2 or stem not in (out / "FAILED").read_text():
                    broken.append((stem, name, code,
                                   (out / "FAILED").read_text()))
        assert not broken


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
    def _reads(monkeypatch, config, plan,
               readers=("_read_csv", "_read_npy")):
        seen = Counter()
        for reader in readers:
            def counting(path, *args, _read=getattr(dataset, reader),
                         **kwargs):
                seen[Path(path).name] += 1
                return _read(path, *args, **kwargs)

            monkeypatch.setattr(dataset, reader, counting)
        run_pipeline(config, plan=plan)
        return seen

    def test_pipeline_read_budget(self, twin, tmp_path, monkeypatch):
        # each training field is read twice, by decompose's fold and by
        # fit-rom's projection, so that no two are held at once; every
        # other case file is parsed once
        pipeline_cfg, _ = twin
        config = PipelineConfig.from_json(pipeline_cfg, out_dir=tmp_path / "o")
        seen = self._reads(monkeypatch, config, "pipeline")
        train = [Path(p).stem for p in config.training]
        names = train + [Path(p).stem for p in config.evaluation]
        budget = {f"{n}_{kind}": 1 for n in names
                  for kind in ("grid.csv", "channels.csv", "displacement.npy",
                               "torsion.npy")}
        budget.update({f"{n}_displacement.npy": 2 for n in train})
        assert seen == budget

    def test_each_field_read_checks_its_values_once(self, twin, tmp_path,
                                                     monkeypatch):
        # the read checks the field as it loads it, naming the file; the
        # ensemble it builds checks neither the field nor the channels again
        pipeline_cfg, _ = twin
        config = PipelineConfig.from_json(pipeline_cfg, out_dir=tmp_path / "o")
        checks, reads = [], []

        def checking(x, where, _check=dataset._check_values):
            checks.append(Path(where).name)
            return _check(x, where)

        def reading(case, _read=dataset.Case.read):
            checks.clear()
            e = _read(case)
            reads.append((case.manifest["displacement_file"], list(checks)))
            return e

        monkeypatch.setattr(dataset, "_check_values", checking)
        monkeypatch.setattr(dataset.Case, "read", reading)
        run_pipeline(config, plan="pipeline")
        train = [f"{Path(p).stem}_displacement.npy" for p in config.training]
        names = train + train + [f"{Path(p).stem}_displacement.npy"
                                 for p in config.evaluation]
        assert reads == [(name, [name]) for name in names]

    def test_fit_rom_read_budget(self, twin, tmp_path, monkeypatch):
        pipeline_cfg, _ = twin
        config = PipelineConfig.from_json(pipeline_cfg, out_dir=tmp_path / "o")
        seen = self._reads(monkeypatch, config, "fit-rom",
                           ("_read_csv", "_read_npy", "read_json"))
        # the torsion map reads every training torsion file, and the fit
        # each training field twice; the fit reads no file of an
        # evaluation case, its manifest included
        train = [Path(p).stem for p in config.training]
        assert seen == {f"{n}{kind}": 2 if kind == "_displacement.npy" else 1
                        for n in train
                        for kind in (".json", "_grid.csv", "_channels.csv",
                                     "_displacement.npy", "_torsion.npy")}

    @pytest.mark.parametrize("plan", ["pipeline", "fit-rom"])
    def test_each_manifest_read_once(self, twin, tmp_path, monkeypatch,
                                     plan):
        # the load stage keeps the manifests, and the torsion reads reuse
        # them
        pipeline_cfg, _ = twin
        config = PipelineConfig.from_json(pipeline_cfg, out_dir=tmp_path / "o")
        seen = Counter()

        def counting(path, *args, _read=dataset.read_json):
            seen[Path(path).resolve()] += 1
            return _read(path, *args)

        monkeypatch.setattr(dataset, "read_json", counting)
        run_pipeline(config, plan=plan)
        # fit-rom reads no evaluation manifest, and neither reads any
        # other JSON document
        manifests = [Path(p).resolve() for p in config.training + (
            config.evaluation if plan == "pipeline" else [])]
        assert len(set(manifests)) == len(manifests)
        assert seen == dict.fromkeys(manifests, 1)

    def test_fit_rom_reads_no_evaluation_data(self, twin, tmp_path):
        # with every evaluation data file gone (only the manifests, which
        # the config check requires, stay) fit-rom writes the same bytes
        pipeline_cfg, _ = twin
        cases = tmp_path / "cases"
        shutil.copytree(pipeline_cfg.parent, cases)
        config = cases / pipeline_cfg.name
        assert main(["fit-rom", "--config", str(config),
                     "--out", str(tmp_path / "intact")]) == 0
        for name in json.loads(config.read_text())["evaluation"]:
            manifest = json.loads((cases / name).read_text())
            for key in ("grid_file", "snapshot_file", "displacement_file",
                        "torsion_file"):
                (cases / manifest[key]).unlink()
        assert main(["fit-rom", "--config", str(config),
                     "--out", str(tmp_path / "bare")]) == 0
        names = sorted(p.name for p in (tmp_path / "intact").iterdir())
        assert sorted(p.name for p in (tmp_path / "bare").iterdir()) == names
        for name in names:
            assert ((tmp_path / "bare" / name).read_bytes()
                    == (tmp_path / "intact" / name).read_bytes()), name


class TestTrainingRelease:
    @staticmethod
    def _field_reads(monkeypatch, config):
        """Record each training field read through ``dataset._read_npy``:
        returns the weakrefs of the fields read, in order, and a list that
        gets every field still alive when another is read."""
        fields = {Path(p).stem + "_displacement.npy" for p in config.training}
        refs, overlaps = [], []

        def reading(path, *args, _read=dataset._read_npy):
            if Path(path).name not in fields:
                return _read(path, *args)
            overlaps.extend(r for r in refs if r() is not None)
            D = _read(path, *args)
            refs.append(weakref.ref(D))
            return D

        monkeypatch.setattr(dataset, "_read_npy", reading)
        return refs, overlaps

    def test_training_deflections_released_after_fit_rom(self, twin,
                                                         tmp_path, monkeypatch):
        # decompose reads, folds and drops each training D, and fit-rom
        # reads, projects and drops it again: when a training D is read no
        # other is alive, and none outlives fit-rom, since the torsion map
        # and the report read only the cases' coordinates and channels
        pipeline_cfg, _ = twin
        config = PipelineConfig.from_json(pipeline_cfg, out_dir=tmp_path / "o")
        refs, overlaps = self._field_reads(monkeypatch, config)
        alive = []

        def fit_rom(*args, _stage=bladesense.pipeline._STAGES["fit-rom"]):
            result = _stage(*args)
            alive.extend(r for r in refs if r() is not None)
            return result

        monkeypatch.setitem(bladesense.pipeline._STAGES, "fit-rom", fit_rom)
        run_pipeline(config, plan="pipeline")
        assert len(refs) == 2 * len(config.training) >= 6
        assert not overlaps
        assert not alive

    def test_fit_rom_holds_one_training_torsion_matrix(
            self, twin, tmp_path, monkeypatch):
        # each training torsion matrix is loaded, folded and dropped after
        # the fields: when a matrix loads, every training D and every
        # matrix before it are gone
        pipeline_cfg, _ = twin
        config = PipelineConfig.from_json(pipeline_cfg, out_dir=tmp_path / "o")
        training = {Path(p) for p in config.training}
        fields, overlaps = self._field_reads(monkeypatch, config)
        refs, alive = [], []

        def recording(case, _torsion=dataset.Case.torsion):
            alive.extend(r for r in fields + refs if r() is not None)
            tau = _torsion(case)
            if Path(case.path) in training:
                refs.append(weakref.ref(tau))
            return tau

        def fit_rom(*args, _stage=bladesense.pipeline._STAGES["fit-rom"]):
            result = _stage(*args)
            alive.extend(r for r in refs if r() is not None)
            return result

        monkeypatch.setattr(dataset.Case, "torsion", recording)
        monkeypatch.setitem(bladesense.pipeline._STAGES, "fit-rom", fit_rom)
        run_pipeline(config, plan="pipeline")
        assert len(refs) == len(fields) // 2 == len(config.training) >= 3
        assert not overlaps
        assert not alive

    def test_fit_rom_peak_is_one_training_field(self, pipeline_runs,
                                                tmp_path):
        # the tripwire of holding two training fields: fine_grid's four
        # 2 080-step cases on 96 stations. fit-rom's traced peak is one
        # field (4.8 MB) plus the POD fold buffer of 5 * n_dof**2 doubles
        # (3.3 MB) and a slack of 2 MB (the channels, the field's
        # finiteness mask, the model; 1.0 MB measured), less than a field;
        # holding every field, as the load stage once did, traced 25 MB
        pipeline_cfg, _ = pipeline_runs("fine_grid")
        config = PipelineConfig.from_json(pipeline_cfg, out_dir=tmp_path / "o")
        shapes = [dataset.open_case(p).channels["t"].size
                  for p in config.training]
        n_dof = 3 * 96
        assert len(shapes) >= 4 and min(shapes) >= 2000
        field = 8 * n_dof * max(shapes)
        fold, slack = 8 * 5 * n_dof**2, 2_000_000
        assert slack < field
        _, peak = traced_peak(run_pipeline, config, "fit-rom")
        assert peak < field + fold + slack, (peak, field)


class TestEvaluationRelease:
    @staticmethod
    def _two_evaluation_cases(tmp_path):
        """The config of a twin with two evaluation cases, ``ev_s5`` and
        ``ev_s6``, its run writing to ``tmp_path / "o"``."""
        cfg = json.loads(json.dumps(SYNTH_CONFIG))
        cfg["evaluation"][0]["seeds"] = [5, 6]
        (tmp_path / "synth.json").write_text(json.dumps(cfg))
        assert main(["synth", "--config", str(tmp_path / "synth.json"),
                     "--out", str(tmp_path / "cases")]) == 0
        return PipelineConfig.from_json(
            tmp_path / "cases" / "pipeline_config.json",
            out_dir=tmp_path / "o")

    def test_evaluation_fields_read_at_estimate_one_at_a_time(
            self, tmp_path, monkeypatch):
        # the load stage checks each evaluation case without its field's
        # values: no evaluation field is read before estimate, and each is
        # dropped before the next is read
        config = self._two_evaluation_cases(tmp_path)
        evaluation = {Path(p) for p in config.evaluation}
        refs, overlaps, early = [], [], []

        def reading(case, _read=dataset.Case.read):
            if Path(case.path) not in evaluation:
                return _read(case)
            overlaps.extend(r for r in refs if r() is not None)
            e = _read(case)
            refs.append(weakref.ref(e.D))
            return e

        def fit_rom(*args, _stage=bladesense.pipeline._STAGES["fit-rom"]):
            result = _stage(*args)
            early.extend(refs)  # the evaluation fields read by now
            return result

        monkeypatch.setattr(dataset.Case, "read", reading)
        monkeypatch.setitem(bladesense.pipeline._STAGES, "fit-rom", fit_rom)
        run_pipeline(config, plan="pipeline")
        assert len(refs) == len(evaluation) == 2
        assert not early
        assert not overlaps

    def test_evaluation_deflections_released_before_torsion(
            self, twin, tmp_path, monkeypatch):
        # estimate reads each evaluation D last before it scores the case's
        # torsion: the scoring and the report keep only the case's grid,
        # channels, f_s and tip rows, so when a torsion truth loads, its
        # case's D and every one before it are gone
        pipeline_cfg, _ = twin
        config = PipelineConfig.from_json(pipeline_cfg, out_dir=tmp_path / "o")
        evaluation = [Path(p) for p in config.evaluation]
        refs, alive, scored = {}, [], []

        def recording(case, _read=dataset.Case.read):
            e = _read(case)
            if Path(case.path) in evaluation:
                refs[Path(case.path)] = weakref.ref(e.D)
            return e

        def truth(case, _torsion=dataset.Case.torsion):
            path = Path(case.path)
            if path in evaluation:
                scored.append(path)
                done = evaluation[:evaluation.index(path) + 1]
                alive.extend(p for p in done if refs[p]() is not None)
            return _torsion(case)

        monkeypatch.setattr(dataset.Case, "read", recording)
        monkeypatch.setattr(dataset.Case, "torsion", truth)
        run_pipeline(config, plan="pipeline")
        assert len(refs) == len(config.evaluation)
        assert scored == evaluation
        assert not alive

        # the spectra of the kept tip rows are those of the case file's
        # matrix, byte for byte
        path = Path(config.evaluation[0])
        _, e = load_case(path)
        tip = e.grid.n_z - 1
        f_1p = float(np.mean(e.omega)) / (2.0 * np.pi)
        for c_i, comp in enumerate(("ux", "uy", "uz")):
            name = f"psd_{path.stem}_{comp}.csv"
            f_hat, raw, smoothed = psd(e.D[c_i * e.grid.n_z + tip], e.f_s,
                                       f_1p)
            dataset._write_csv(tmp_path / name,
                               ["f_hat", "power_raw", "power_smoothed"],
                               np.column_stack([f_hat, raw, smoothed]))
            assert ((tmp_path / "o" / name).read_bytes()
                    == (tmp_path / name).read_bytes()), name

    def test_later_stages_hold_only_what_they_read(self, tmp_path,
                                                  monkeypatch):
        # the report reads the first evaluation case's t, theta,
        # projection, true station rows and the three estimates', and only
        # the mean of its u_filt: when it starts, every other array of
        # every case is gone, every training theta, u_filt and projection,
        # each case's fused coordinates and torsion rows included
        config = self._two_evaluation_cases(tmp_path)
        pipeline = bladesense.pipeline
        training = [Path(p) for p in config.training]
        first = Path(config.evaluation[0])
        kept, dropped, projected = [], [], []

        def reading(case, _read=dataset.Case.read):
            # every field read: each training case's twice (decompose and
            # fit-rom), each evaluation case's once (estimate)
            e = _read(case)
            refs = [weakref.ref(e.theta)]
            if Path(case.path) not in training:
                refs.append(weakref.ref(e.t))
            (kept if Path(case.path) == first else dropped).extend(refs)
            dropped.append(weakref.ref(e.u_filt))  # the report keeps its mean
            return e

        def projecting(fields, basis, _project=pipeline.project):
            a = _project(fields, basis)
            # the training cases are projected first, then the evaluation
            # cases, each in config order
            projected.append(None)
            (kept if len(projected) == 1 + len(training)
             else dropped).append(weakref.ref(a))
            return a

        def table(path, head, stations, comps, true_obs, estimates,
                  _table=pipeline._station_table):
            (kept if Path(path).name == f"recon_{first.stem}.npy"
             else dropped).extend([weakref.ref(true_obs)]
                                  + [weakref.ref(v) for v in estimates.values()])
            return _table(path, head, stations, comps, true_obs, estimates)

        def fusing(prior, meas, _fuse=pipeline.fuse):
            fused, gain = _fuse(prior, meas)
            dropped.append(weakref.ref(fused.mean))
            return fused, gain

        alive = []

        def report(*args, _stage=pipeline._STAGES["report"]):
            alive.extend(r() is not None for r in kept + dropped)
            return _stage(*args)

        monkeypatch.setattr(dataset.Case, "read", reading)
        monkeypatch.setattr(pipeline, "project", projecting)
        monkeypatch.setattr(pipeline, "_station_table", table)
        monkeypatch.setattr(pipeline, "fuse", fusing)
        monkeypatch.setitem(pipeline._STAGES, "report", report)
        run_pipeline(config, plan="pipeline")
        # kept: theta and t, one projection and four station rows; dropped:
        # 3 x 2 training channels, each read twice, four evaluation
        # channels (each u_filt and the second case's theta and t), four
        # projections, four station rows, 2 x 2 torsion rows and two fused
        assert len(kept) == 2 + 1 + 4
        assert len(dropped) == 2 * 6 + 4 + 4 + 4 + 4 + 2
        assert alive == [True] * len(kept) + [False] * len(dropped)

    def test_torsion_scoring_peak_in_evaluation_torsion_matrices(
            self, tmp_path, monkeypatch):
        # scoring holds no evaluation D, infers torsion at the observation
        # rows only and drops each truth matrix once its rows are taken:
        # its traced peak is the truth matrix while it loads, or the
        # station table while it is saved (1.7 matrices here). Inferring
        # the whole field beside the whole truth matrix peaked at 4.6. The
        # record is 3 200 steps, so the matrices, not fixed costs, set the
        # peak
        cfg = json.loads(json.dumps(SYNTH_CONFIG))
        cfg["evaluation"][0]["duration_s"] = 80.0
        (tmp_path / "synth.json").write_text(json.dumps(cfg))
        assert main(["synth", "--config", str(tmp_path / "synth.json"),
                     "--out", str(tmp_path / "cases")]) == 0
        config = PipelineConfig.from_json(
            tmp_path / "cases" / "pipeline_config.json",
            out_dir=tmp_path / "o")
        peaks = []

        def scoring(*args, _score=bladesense.pipeline._score_torsion):
            rows, peak = traced_peak(_score, *args)
            peaks.append(peak)
            return rows

        monkeypatch.setattr(bladesense.pipeline, "_score_torsion", scoring)
        run_pipeline(config, plan="pipeline")
        path = config.evaluation[0]
        matrix = open_case(path).torsion().nbytes
        assert matrix == 3 * 8 * 3200 * 8
        assert len(peaks) == 1 and peaks[0] <= 3.5 * matrix


class TestProjections:
    @pytest.mark.parametrize("plan", ["pipeline", "fit-rom"])
    def test_each_case_projected_once(self, twin, tmp_path, monkeypatch,
                                      plan):
        # fit-rom projects the training cases once and the torsion map
        # reuses those coordinates
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


class TestAzimuthBin:
    """The 5-degree sectors of the report's azimuthal tables."""

    def test_lower_edge(self):
        assert _sector(np.array([0.0])).tolist() == [0]

    def test_midpoint(self):
        assert _sector(np.array([np.pi])).tolist() == [36]

    def test_upper_edge_clamps(self):
        # the largest azimuth below 2*pi included
        theta = np.array([2.0 * np.pi - 1e-9, np.nextafter(2.0 * np.pi, 0.0)])
        assert _sector(theta).tolist() == [71, 71]

    def test_partition_is_exhaustive_and_unique(self):
        rng = np.random.default_rng(9)
        theta = rng.uniform(0.0, 2.0 * np.pi, 5000)
        theta = theta[theta < 2.0 * np.pi]
        idx = _sector(theta)
        assert idx.min() >= 0 and idx.max() <= 71
        # each sample lies inside its sector, to one ulp of the edges
        width = 2.0 * np.pi / 72
        lo = idx * width
        hi = (idx + 1) * width
        eps = np.spacing(2.0 * np.pi)
        assert np.all(theta >= lo - eps)
        assert np.all(theta <= hi + eps)


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
    def test_edges_are_scotts_rule(self, dataset_run):
        # each histogram bins the first observation station's true and
        # fused series of recon_<case>.npy, its edges exactly
        _, out = dataset_run
        cases = json.loads((out / "error_summary.json").read_text())["cases"]
        hists = sorted(out.glob("hist_*.csv"))
        assert len(hists) == 3
        for path in hists:
            case, comp = path.stem[len("hist_"):].rsplit("_", 1)
            station = cases[case]["stations"][0]["station_index"]
            recon = np.load(out / f"recon_{case}.npy", allow_pickle=False)
            true = recon[f"{comp}_s{station:03d}_true"]
            fused = recon[f"{comp}_s{station:03d}_fused"]
            want = np.histogram_bin_edges(np.concatenate([true, fused]),
                                          "scott")
            table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
            edges = np.append(table[:, 0], table[-1, 1])
            assert np.array_equal(edges, want), path.name
            assert np.array_equal(table[:-1, 1], table[1:, 0]), path.name
            assert table[:, 2].sum() == table[:, 3].sum() == true.size

    def test_constant_series_has_one_unit_bin(self, twin, tmp_path,
                                              monkeypatch):
        # the blade root never moves: its uy and uz are zero in the truth
        # and in every estimate
        pipeline_cfg, _ = twin
        monkeypatch.setattr(bladesense.pipeline, "_OBSERVATION_FRACTIONS",
                            (0.0, 0.44, 0.88))
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(pipeline_cfg),
                     "--out", str(out)]) == 0
        doc = json.loads(pipeline_cfg.read_text())
        n_t = load_case(pipeline_cfg.parent / doc["evaluation"][0])[1].n_t
        for comp in ("uy", "uz"):
            table = np.loadtxt(out / f"hist_ev_s5_{comp}.csv", delimiter=",",
                               skiprows=1, ndmin=2)
            assert table.tolist() == [[-0.5, 0.5, n_t, n_t]], comp


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

        def recording(prior, measurement, _fuse=bladesense.pipeline.fuse):
            fused.append((prior, measurement))
            return _fuse(prior, measurement)

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
        # 8-17 ms cold; the report's Scott histogram edges need np.std
        # only), unless numpy imports it with numpy itself (1.x)
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
            "    assert numpy_ma or 'numpy.ma' not in sys.modules, \\\n"
            "        (args[0], 'numpy.ma')\n"
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
            "                   energies=np.ones(3), total_energy=1.0)\n"
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


class TestBlasThreads:
    """Importing the package first loads numpy at one BLAS thread unless
    ``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` is set, and leaves
    the environment as it found it."""

    @staticmethod
    def _env(**threads):
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        env["PYTHONPATH"] = str(Path(bladesense.__file__).resolve().parents[1])
        return {**env, **threads}

    @pytest.mark.parametrize("threads", [
        {}, {"OPENBLAS_NUM_THREADS": "2"}, {"OMP_NUM_THREADS": "2"}])
    def test_import_leaves_the_environment_as_it_was(self, tmp_path,
                                                     threads):
        code = ("import os\n"
                "before = dict(os.environ)\n"
                "import bladesense\n"
                "assert dict(os.environ) == before\n")
        res = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                             capture_output=True, text=True, timeout=120,
                             env=self._env(**threads))
        assert res.returncode == 0, res.stderr

    @pytest.mark.parametrize("name", ["twin", "fine_grid"])
    def test_no_thread_variable_writes_the_one_thread_bytes(self, tmp_path,
                                                            name):
        # the POD folds' bits change with the BLAS thread count; on a
        # one-core host both runs use one thread and this passes trivially
        roots = {}
        for label, threads in (("default", {}),
                               ("one", {"OPENBLAS_NUM_THREADS": "1"})):
            root = roots[label] = tmp_path / label
            root.mkdir()
            config = synth_config(name, root)
            for args in (["synth", *config, "--seed", "0",
                          "--out", str(root / "cases")],
                         ["pipeline", "--config",
                          str(root / "cases" / "pipeline_config.json"),
                          "--out", str(root / "results")]):
                res = subprocess.run(
                    [sys.executable, "-m", "bladesense", *args], cwd=root,
                    capture_output=True, text=True, timeout=300,
                    env=self._env(**threads))
                assert res.returncode == 0, res.stderr

        def tree(root):
            return {p.relative_to(root): p.read_bytes()
                    for p in root.rglob("*") if p.is_file()}

        default, one = tree(roots["default"]), tree(roots["one"])
        assert len(one) > 30
        assert sorted(default) == sorted(one)
        assert [p for p in one if default[p] != one[p]] == []


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
        noise = NoiseModel(cfg.get("noise", 0.1), n_sensors)
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

    def test_reconstruction_arrays_are_the_library_estimate(self,
                                                            dataset_run):
        # each recon_<case>.npy and torsion_recon_<case>.npy loads without
        # pickle as one float64 field per column, in the pipeline's column
        # order, and each field is the library's estimate bit for bit: the
        # batched estimate at the summary's stations, and the torsion the
        # run's map infers from its fused coordinates
        basis, sensors, noise, rom, cases = self._calibrate(dataset_run)
        pipeline_cfg, out = dataset_run
        summary = json.loads((out / "error_summary.json").read_text())
        torsion_map = load_torsion_model(out / "torsion_map.csv", basis.grid)
        config = PipelineConfig.from_json(pipeline_cfg)
        for (e, seed, _), path in zip(cases, config.evaluation):
            case = Path(path).stem
            stations = [st["station_index"]
                        for st in summary["cases"][case]["stations"]]
            rows = sensor_dof_rows(stations, basis.grid.n_z)
            y = observe(e.D.T, sensors, noise, np.random.default_rng(seed))
            meas = sparse_estimate(y, sensors, noise)
            prior = evaluate_rom(rom, e.theta, e.u_filt)
            fused, _ = fuse(prior, meas)
            A = {"sparse": meas.mean.T, "rom": prior.mean.T,
                 "fused": fused.mean.T}
            mean_obs = basis.mean_field[rows][:, None]
            phi_obs = basis.modes[rows, :]
            estimates = {src: mean_obs + phi_obs @ a for src, a in A.items()}
            tau = open_case(path).torsion()[rows, :]
            tau_hat = infer_torsion(A["fused"], TorsionModel(
                torsion_map.mean_field[rows], torsion_map.field_map[rows]))
            head = {"t": e.t, "theta": e.theta}
            for name, first, comps, truth, est in (
                    ("recon", {**head, "trace_fused_cov": np.full(
                        e.n_t, np.trace(fused.covariance))},
                     ("ux", "uy", "uz"), e.D[rows, :], estimates),
                    ("torsion_recon", head, ("taux", "tauy", "tauz"), tau,
                     {"fused": tau_hat})):
                want = dict(first)
                for s_i, station in enumerate(stations):
                    for c_i, comp in enumerate(comps):
                        row, key = 3 * s_i + c_i, f"{comp}_s{station:03d}"
                        want[f"{key}_true"] = truth[row]
                        want.update({f"{key}_{src}": series[row]
                                     for src, series in est.items()})
                got = np.load(out / f"{name}_{case}.npy", allow_pickle=False)
                assert got.shape == (e.n_t,)
                assert got.dtype.names == tuple(want)
                for field, series in want.items():
                    assert got.dtype.fields[field][0] == np.dtype("<f8")
                    assert np.array_equal(got[field], series), (name, field)


class TestReadmeLibrary:
    def test_library_blocks_run_on_the_quickstart(self, tmp_path,
                                                  monkeypatch):
        # the two Python blocks of README "Library", as written, on the
        # Quickstart's files: the per-step loop, then the batch calls
        text = (ROOT / "README.md").read_text()
        section = text.split("\n## Library\n")[1].split("\n## ")[0]
        blocks = [b.split("```")[0] for b in section.split("```python\n")[1:]]
        assert len(blocks) == 2
        out = tmp_path / "quickstart"
        assert main(["synth", "--out", str(out), "--seed", "0"]) == 0
        assert main(["pipeline", "--config", str(out / "pipeline_config.json"),
                     "--out", str(out / "results")]) == 0
        monkeypatch.chdir(tmp_path)
        namespace = {}
        exec(blocks[0], namespace)
        step = namespace["fused"]
        assert np.isfinite(step.mean).all()
        exec(blocks[1], namespace)
        ens, batch = namespace["ens"], namespace["fused"]
        assert batch.mean.shape == (ens.n_t, step.n)
        assert np.isfinite(batch.mean).all()
        # one noise stream: the last row is the loop's last step
        ref = batch.mean[-1]
        assert np.abs(step.mean - ref).max() <= 1e-10 * np.abs(ref).max()


    def test_read_example_is_the_first_stations_fused_ux(self,
                                                         pipeline_runs):
        # README's artifact table reads a recon array as written: on the
        # Quickstart its field is the first observation station's fused ux
        text = (ROOT / "README.md").read_text()
        field = text.split('np.load(p, allow_pickle=False)["')[1].split('"')[0]
        _, out = pipeline_runs("quickstart")
        cases = json.loads((out / "error_summary.json").read_text())["cases"]
        assert cases
        for case_id, case in cases.items():
            station = case["stations"][0]["station_index"]
            assert field == f"ux_s{station:03d}_fused"
            p = out / f"recon_{case_id}.npy"
            series = np.load(p, allow_pickle=False)[field]
            assert series.shape == (case["n_steps"],)
            assert np.isfinite(series).all()


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

    @pytest.mark.parametrize("key", ["training", "evaluation"])
    def test_synth_pipeline_object_holds_settings_only(self, tmp_path, capsys,
                                                       key):
        # synth writes the case lists itself; a list there would replace
        # the generated one with a file synth never wrote
        doc = json.loads(json.dumps(SYNTH_CONFIG))
        doc["pipeline"][key] = ["elsewhere.json"]
        cfg = tmp_path / "synth.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "cases"
        capsys.readouterr()
        assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"'{key}'" in capsys.readouterr().err
        assert not out.exists()

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
        ("synth", _set.__func__("training", "u_mean", "abc"),
         "'training[0].u_mean'"),
        ("synth", lambda doc: {**doc, "training": [doc["training"][0], {
            **doc["training"][1], "u_mean": "abc"}]}, "'training[1].u_mean'"),
        ("synth", _set.__func__("evaluation", "seeds", 5),
         "'evaluation[0].seeds'"),
        ("synth", lambda doc: {**doc, "grid": {"n_z": "x"}}, "'grid.n_z'"),
        ("synth", lambda doc: {**doc, "training": {}}, "'training'"),
        ("pipeline", lambda doc: {**doc, "training": 5}, "'training'"),
        ("pipeline", lambda doc: {**doc, "seed": -1}, "'seed'"),
        ("pipeline", lambda doc: {**doc, "n_fourier": -1}, "'n_fourier'"),
        ("pipeline", lambda doc: {**doc, "n_theta": 0}, "'n_theta'"),
        ("pipeline", lambda doc: {**doc, "n_sensors": 0}, "'n_sensors'"),
        ("pipeline", lambda doc: {**doc, "noise": True}, "'noise'"),
        ("pipeline", lambda doc: {**doc, "noise": {"per_sensor": 5}},
         "'noise'"),
        ("pipeline", lambda doc: {**doc, "noise": -0.1}, "'noise'"),
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
        ("synth", _block.__func__(noise="abc"), "'pipeline.noise'"),
        ("synth", _block.__func__(n_modes="abc"), "'pipeline.n_modes'"),
        ("synth", _block.__func__(n_modes=0), "'n_modes'"),
        ("synth", _block.__func__(n_modes=13), "'n_modes'"),
        ("synth", _block.__func__(seed=-1), "'seed'"),
        ("synth", _block.__func__(evaluation=[]), "'evaluation'"),
        # options that are gone are unknown keys
        ("pipeline", lambda doc: {**doc, "lnm_frequencies": [1.0, 2.0]},
         "'lnm_frequencies'"),
        ("synth", _block.__func__(lnm_frequencies=[1.0, 2.0]),
         "['lnm_frequencies'] in 'pipeline'"),
        ("synth", _block.__func__(observation_fractions=[0.44, 0.68, 0.88]),
         "['observation_fractions'] in 'pipeline'"),
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
        # a case file name longer than a file system takes, by its name or
        # by its seed: the training cases before it are not written
        ("synth", _set.__func__("evaluation", "name", "x" * 250),
         "'evaluation[0].name'"),
        ("synth", _set.__func__("evaluation", "seeds", [10**400]),
         "'evaluation[0].seeds'"),
        # a case name of 238 bytes fits its case files, but not the report
        # files named after it (coupling_<case>_a1_a2.csv adds 19 bytes)
        ("synth", _set.__func__("evaluation", "name", "x" * 235),
         "'evaluation[0].name'"),
        # an evaluation case's outputs are named after its manifest's stem
        ("pipeline", lambda doc: {**doc, "evaluation": doc["evaluation"] * 2},
         "'evaluation' names a case twice: ['ev_s5', 'ev_s5']"),
        ("pipeline", lambda doc: {**doc, "evaluation": ["x" * 237 + ".json"]},
         "'evaluation' names a case longer than 236 bytes"),
        # an integer beyond float range is not a finite number
        ("pipeline", lambda doc: {**doc, "noise": 10**400},
         "'noise' must be a finite number"),
        ("synth", _set.__func__("training", "u_mean", 10**400),
         "'training[0].u_mean' must be a finite number"),
    ], ids=["synth-no-name", "synth-no-u_mean", "synth-no-ti",
            "synth-not-object", "pipeline-not-object", "n_modes-text",
            "n_modes-fraction", "synth-u_mean-text",
            "synth-second-case-u_mean-text", "synth-seeds-scalar",
            "synth-n_z-text", "synth-training-object", "training-scalar",
            "seed-negative", "n_fourier-negative",
            "n_theta-zero", "n_sensors-zero", "noise-bool",
            "noise-per_sensor-scalar", "noise-negative", "synth-ti-above-1",
            "synth-u_mean-zero", "synth-second-case-ti-above-1",
            "synth-second-case-too-short",
            "synth-seed-negative", "synth-noise-text", "synth-n_modes-text",
            "synth-n_modes-zero", "synth-n_modes-above-3-sensors",
            "synth-pipeline-seed-negative",
            "synth-pipeline-evaluation-empty", "lnm_frequencies",
            "synth-lnm_frequencies", "synth-observation_fractions",
            "synth-case-in-both-groups",
            "synth-case-twice-in-training", "synth-seed-listed-twice",
            "synth-name-in-a-subdirectory", "synth-name-in-the-parent",
            "synth-name-empty", "synth-name-dot", "synth-name-dot-dot",
            "synth-name-too-long", "synth-seed-too-long",
            "synth-evaluation-name-too-long-to-report",
            "evaluation-case-twice", "evaluation-name-too-long-to-report",
            "noise-huge-integer",
            "synth-u_mean-huge-integer"])
    def test_malformed_config_exits_2_naming_the_key(
            self, twin, tmp_path, capsys, command, edit, key):
        pipeline_cfg, _ = twin
        argv = command.split()  # the command and its extra flags
        synth = argv[0] == "synth"
        base = SYNTH_CONFIG if synth else json.loads(pipeline_cfg.read_text())
        doc = edit(json.loads(json.dumps(base)))
        # a pipeline config names its cases relative to itself; a case the
        # edit names anew is a copy of the twin's evaluation case
        cfg = (tmp_path if synth else pipeline_cfg.parent) / \
            f"bad_{tmp_path.name}.json"
        if not synth and isinstance(doc, dict):
            case = cfg.parent / base["evaluation"][0]
            for name in set(doc.get("evaluation", [])) - {case.name}:
                shutil.copy(case, cfg.parent / name)
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

    @pytest.mark.parametrize("spelling", ["{}", "./{}"],
                             ids=["same-text", "same-file"])
    @pytest.mark.parametrize("command", ["pipeline", "fit-rom"])
    def test_training_manifest_named_twice_exits_2(
            self, twin, tmp_path, capsys, command, spelling):
        # a case named twice would be pooled twice into the fit and leak
        # into its own left-out fold; nothing runs, so no FAILED marker
        pipeline_cfg, _ = twin
        doc = json.loads(pipeline_cfg.read_text())
        doc["training"].append(spelling.format(doc["training"][0]))
        cfg = pipeline_cfg.parent / f"twice_{tmp_path.name}.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        capsys.readouterr()
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "'training' names a manifest twice" in err
        assert doc["training"][0] in err and cfg.name in err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("seed", 1.5), ("seed", True), ("u_mean", "9.5"), ("f_s", "abc"),
        ("L_b", None), ("grid_file", 5), ("torsoin_file", "x.npy"),
        ("f_s", 10**400),
    ], ids=["seed-fraction", "seed-bool", "u_mean-text", "f_s-text",
            "L_b-null", "grid_file-number", "misspelt-torsion_file",
            "f_s-huge-integer"])
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

    @staticmethod
    def _repeat(doc, key, first):
        """``doc`` as JSON text with ``key`` given twice in the first object
        that has it: ``first``, then the value ``doc`` has (the one a
        last-wins parser keeps)."""
        text = json.dumps(doc)
        at = text.index(f'"{key}": ')
        return f'{text[:at]}"{key}": {json.dumps(first)}, {text[at:]}'

    @pytest.mark.parametrize("where, key", [
        ("config", "training"), ("config", "seed"),
        ("manifest", "torsion_file"), ("synth", "u_mean")])
    def test_repeated_key_exits_2_naming_it(self, twin, tmp_path, capsys,
                                            where, key):
        pipeline_cfg, _ = twin
        out = tmp_path / "out"
        if where == "synth":
            bad = tmp_path / "synth.json"
            bad.write_text(self._repeat(SYNTH_CONFIG, key, 9.0))
            argv = ["synth", "--config", str(bad)]
        else:
            cases = tmp_path / "cases"
            shutil.copytree(pipeline_cfg.parent, cases)
            argv = ["pipeline", "--config", str(cases / pipeline_cfg.name)]
            doc = json.loads(pipeline_cfg.read_text())
            bad = (cases / pipeline_cfg.name if where == "config"
                   else cases / doc["training"][1])
            # the first value alone would run: the case's own torsion
            # file, one training case or seed 1
            if where == "manifest":
                doc = json.loads(bad.read_text())
                first = doc[key]
            else:
                first = doc["training"][:1] if key == "training" else 1
            bad.write_text(self._repeat(doc, key, first))
        capsys.readouterr()
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"repeated key '{key}'" in err and bad.name in err
        if where == "manifest":
            assert "load" in (out / "FAILED").read_text()
        else:
            assert not out.exists()

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
        ("n_theta", 72),  # the azimuthal figure's sectors are fixed
        ("n_fourier", 6),  # the prior's Fourier order is fixed
        # the scored stations are fixed
        ("observation_fractions", [0.44, 0.68, 0.88]),
        # the noise is one sigma, not per-sensor matrices
        ("noise", {"per_sensor": [np.eye(3).tolist()] * 4}),
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
