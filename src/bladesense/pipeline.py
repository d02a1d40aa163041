"""End-to-end orchestration: decompose, place, fit, estimate, report.

:func:`fit_model` fits one frozen :class:`Model` (the POD basis, the
sensors placed on it, the azimuthal prior and the torsion map) from the
training cases, their last reader. The ``fit-rom`` command stops there,
reading no evaluation file; ``pipeline`` goes on to estimate and report,
which read only the model and the evaluation cases. Estimation runs once
per evaluation case on whole arrays: the sensors are sampled (with noise)
at every step in one call, one linear map gives the reduced coordinates of
all steps, the prior is evaluated at each step's angle and filtered wind
speed, and the two Gaussians are fused with one gain, as both share one
covariance over all steps. Each row equals what the per-step library calls
give for that step. Once the case's field is released, its torsion is
inferred from the fused coordinates and scored. Batch reporting (spectra,
histograms, azimuthal curves, coupling scatter) runs afterwards on the
first evaluation case's traces.

Each case's per-step reconstructions, ``recon_<case>.npy`` and
``torsion_recon_<case>.npy``, are structured float64 arrays with one named
field per column (``t``, ``theta``, ...). Every figure is an SVG whose
plotted numbers a file holds: its CSV twin of the same name, or for the
reconstruction trace the case's ``recon_<case>.npy``. Every table is
lossless ``%.17e`` text. An ``artifacts.json`` index lists everything
written. A stage failure leaves a ``FAILED`` marker naming the stage.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import svgplot
from .azimuthal_rom import AzimuthalRomModel, evaluate_rom, fit_rom, save_rom
from .dataset import (TWO_PI, _write_csv, azimuth_bin, load_case, load_torsion,
                      read_json, read_manifest, write_json)
from .decomposition import (ModalBasis, pod_fit, project, write_energies_csv,
                            write_modes_csv)
from .errors import StageError, ValidationError
from .fusion import fuse, innovation_covariance
from .sensing import (NoiseModel, SensorSet, place_sensors, observe,
                      sensor_dof_rows, sparse_estimate, write_sensors_csv)
from .spectral import psd
from .torsion import (TorsionModel, _r_squared, fit_torsion_model,
                      infer_torsion, save_torsion_model)

_COMPONENTS = ("ux", "uy", "uz")
_TORSION_COMPONENTS = ("taux", "tauy", "tauz")
_SOURCES = ("sparse", "rom", "fused")

#: Config value type (see :func:`read_json`) of each PipelineConfig type.
_FIELD_KINDS = {"list": [str], "Path": str, "int": int, "float": float}

#: NAME_MAX (255) less the 19 bytes ``coupling_<case>_a1_a2.csv`` adds.
CASE_NAME_MAX = 255 - 19


def plain_name(name: str) -> bool:
    """Whether ``name`` names a file in its directory, not ``.`` or ``..``."""
    return name not in ("", ".", "..") and not any(
        sep and sep in name for sep in ("/", os.sep, os.altsep))


@dataclass
class PipelineConfig:
    """Validated run settings; defaults follow the working configuration."""

    training: list
    evaluation: list
    out_dir: Path
    n_modes: int = 4
    n_sensors: int = 4
    noise: float = 0.1
    seed: int = 0

    def validate_settings(self) -> None:
        """Check every rule that needs no file."""
        for group in ("training", "evaluation"):
            if not getattr(self, group):
                raise ValidationError(f"'{group}' lists no cases")
        # a manifest named twice would be pooled twice into the fit
        resolved = [Path(p).resolve() for p in self.training]
        for i, p in enumerate(resolved):
            if p in resolved[:i]:
                raise ValidationError(
                    f"'training' names a manifest twice: {self.training[i]}")
        names = [Path(p).stem for p in self.evaluation]  # output names
        if len(set(names)) < len(names):
            raise ValidationError(f"'evaluation' names a case twice: {names}")
        if max(len(os.fsencode(name)) for name in names) > CASE_NAME_MAX:
            raise ValidationError(f"'evaluation' names a case longer than "
                                  f"{CASE_NAME_MAX} bytes")
        for name, low in (("n_modes", 1), ("n_sensors", 1), ("noise", 0),
                          ("seed", 0)):
            if not getattr(self, name) >= low:  # nan included
                raise ValidationError(f"'{name}' must be >= {low}")
        # each sensor reports three rows; SensorSet.gram_gain checks the
        # sampled basis actually has rank n_modes
        if self.n_modes > 3 * self.n_sensors:
            raise ValidationError("'n_modes' must not exceed 3 * 'n_sensors'")

    def validate(self) -> None:
        """The settings' rules, and every referenced manifest exists."""
        self.validate_settings()
        for p in list(self.training) + list(self.evaluation):
            if not Path(p).exists():
                raise ValidationError(f"referenced manifest does not exist: {p}")

    @classmethod
    def from_json(cls, path, seed=None, out_dir=None) -> "PipelineConfig":
        """Read a config whose keys are the field names, each of its field's
        type (see ``CONFIG_SCHEMA``); a setting the file leaves out keeps its
        field default. Any fault is rejected naming the file and the key."""
        path = Path(path)
        settings = read_json(path, CONFIG_SCHEMA, what="config")
        if seed is not None:
            settings["seed"] = int(seed)
        base = path.parent
        for group in ("training", "evaluation"):
            settings[group] = [base / p for p in settings.get(group, [])]
        settings["out_dir"] = (Path(out_dir) if out_dir else
                               base / settings.get("out_dir", "results"))
        cfg = cls(**settings)
        try:
            cfg.validate()
        except ValidationError as err:
            raise ValidationError(f"{path}: {err}") from None
        return cfg


#: Each config key and its value type (see :func:`read_json`).
CONFIG_SCHEMA = {f.name: _FIELD_KINDS[f.type] for f in fields(PipelineConfig)}


@dataclass(frozen=True)
class Model:
    """What fit-rom fits, and all that estimate and report read of it."""

    basis: ModalBasis
    sensors: SensorSet
    noise: NoiseModel
    rom: AzimuthalRomModel
    stations: np.ndarray  # the observation stations,
    rows: np.ndarray      # their rows in a field
    torsion: tuple | None  # (map at rows, fit R^2), or None


def _load(training_paths: list, evaluation_paths: list):
    """Training and evaluation (path, manifest, ensemble) lists, stations."""
    # each manifest is read here, once, and kept for the torsion reads
    training = []
    for p in training_paths:
        m = read_manifest(p)
        training.append((p, m, load_case(p, m)[1]))
    evaluation = []
    for p in evaluation_paths:
        m = read_manifest(p)
        e = load_case(p, m)[1]
        # the report's spectra are normalized by the mean rotor speed and
        # need at least two samples
        omega = float(np.mean(e.omega))
        if not omega > 0:
            raise ValidationError(
                f"evaluation case {Path(p).stem!r}: mean rotor speed "
                f"'omega' must be positive, got {omega!r}")
        if e.n_t < 2:
            raise ValidationError(f"evaluation case {Path(p).stem!r} has "
                                  f"{e.n_t} time step, fewer than 2")
        evaluation.append((p, m, e))
    z0 = training[0][2].grid.z_norm
    for _, _, e in training + evaluation:
        if e.grid.z_norm.shape != z0.shape or np.any(e.grid.z_norm != z0):
            raise ValidationError("all cases must share the same grid")
    # on a coarse grid two fractions can snap to one station
    fractions = _OBSERVATION_FRACTIONS
    stations = [int(np.argmin(np.abs(z0 - f))) for f in fractions]
    for i, station in enumerate(stations):
        if station in stations[:i]:
            first = fractions[stations.index(station)]
            raise ValidationError(
                f"observation fractions {first!r} and {fractions[i]!r} "
                f"both snap to station {station}")
    return training, evaluation, np.array(stations, dtype=int)


def _decompose(training: list, n_modes: int, emit) -> ModalBasis:
    basis = pod_fit([e for _, _, e in training], n_modes)
    write_modes_csv(basis, emit("modes.csv"))
    write_energies_csv(basis, emit("energies.csv"))
    return basis


def _sensors(basis: ModalBasis, n_sensors: int, sigma: float, emit):
    sensors = place_sensors(basis, n_sensors)
    write_sensors_csv(sensors, emit("sensors.csv"))
    return sensors, NoiseModel(sigma, n_sensors)


def _fit_rom(training: list, basis: ModalBasis, rows, emit):
    coords = [project(e.D, basis) for _, _, e in training]
    rom = fit_rom(
        [(a, e.theta, e.u_filt) for (_, _, e), a in zip(training, coords)],
        conditions=[{"u_mean": e.condition.u_mean, "ti": e.condition.ti}
                    for _, _, e in training])
    save_rom(rom, emit("rom.json"))
    # one map over every training case that carries torsion; each torsion
    # matrix is loaded, folded and dropped in turn
    carriers = [(p, m, a) for (p, m, _), a in zip(training, coords)
                if "torsion_file" in m]
    training.clear()  # its last reader: the map reads only coordinates
    if not carriers:
        return rom, None
    model, r2 = fit_torsion_model(
        [a for _, _, a in carriers],
        (load_torsion(p, (basis.grid.n_dof, a.shape[1]), m)
         for p, m, a in carriers), basis.grid)
    save_torsion_model(model, emit("torsion_map.csv"))
    # estimate reads torsion at the observation stations only
    return rom, (TorsionModel(model.mean_field[rows], model.field_map[rows]),
                 r2)


def fit_model(training: list, config: PipelineConfig, stations, emit) -> Model:
    """Fit the model on ``training`` (see :func:`_load`), emptying it."""
    basis = _stage("decompose", training, config.n_modes, emit)
    sensors, noise = _stage("sensors", basis, config.n_sensors, config.noise,
                            emit)
    rows = sensor_dof_rows(stations, basis.grid.n_z)
    rom, torsion = _stage("fit-rom", training, basis, rows, emit)
    return Model(basis, sensors, noise, rom, stations, rows, torsion)


def _station_table(path, head: dict, stations, comps, true_obs,
                   estimates: dict) -> dict:
    """Save, as one structured float64 ``.npy`` array with a named field
    per column, the ``head`` columns, then per station and component the
    true series and each estimate's; return each estimate's RMSE per row."""
    names, cols = list(head), list(head.values())
    for s_i, station in enumerate(stations):
        for c_i, comp in enumerate(comps):
            row = 3 * s_i + c_i
            names.append(f"{comp}_s{station:03d}_true")
            cols.append(true_obs[row])
            for src, est in estimates.items():
                names.append(f"{comp}_s{station:03d}_{src}")
                cols.append(est[row])
    table = np.column_stack(cols).view([(name, np.float64) for name in names])
    np.save(path, table[:, 0])
    return {src: [float(np.sqrt(np.mean((est[row] - true_obs[row]) ** 2)))
                  for row in range(len(true_obs))]
            for src, est in estimates.items()}


def _estimate(model: Model, evaluation: list, seed: int, emit) -> dict:
    """Score and empty ``evaluation``; return what the report reads."""
    z = model.basis.grid.z_norm
    mean_obs = model.basis.mean_field[model.rows][:, None]
    phi_obs = model.basis.modes[model.rows, :]
    cases_summary, torsion, trace = {}, {}, {}
    fusion = {"steps": 0, "regularized": 0}
    rom = {"steps": 0, "extrapolated_low": 0, "extrapolated_high": 0}
    lo, hi = model.rom.u_range
    tip_rows = sensor_dof_rows([z.size - 1], z.size)  # the tip's ux, uy, uz
    for idx in range(len(evaluation)):
        path, manifest, e = evaluation.pop(0)
        case_id = Path(path).stem
        rng = np.random.default_rng(np.random.SeedSequence([seed, idx]))
        y = observe(e.D.T, model.sensors, model.noise, rng)
        meas = sparse_estimate(y, model.sensors, model.noise)
        prior = evaluate_rom(model.rom, e.theta, e.u_filt)
        fused, _ = fuse(prior, meas)
        # normalized innovation squared per step, nu^T S^-1 nu with nu =
        # sparse - prior and S the innovation covariance fuse inverted (a
        # cache hit), one for every step: N on average when calibrated
        nu = meas.mean - prior.mean
        s_cov, regularized = innovation_covariance(prior.covariance,
                                                   meas.covariance)
        # the filter counters: every step of a case fuses the one
        # covariance pair, and the prior extrapolates beyond u_range
        fusion["steps"] += e.n_t
        fusion["regularized"] += e.n_t * regularized
        rom["steps"] += e.n_t
        rom["extrapolated_low"] += int(np.count_nonzero(e.u_filt < lo))
        rom["extrapolated_high"] += int(np.count_nonzero(e.u_filt > hi))
        nis = np.einsum("ti,it->t", nu, np.linalg.solve(s_cov, nu.T))
        A = {"sparse": meas.mean.T, "rom": prior.mean.T, "fused": fused.mean.T}
        a_proj = project(e.D, model.basis)
        fields = {src: mean_obs + phi_obs @ A[src] for src in _SOURCES}
        true_obs = e.D[model.rows, :]
        head = {"t": e.t, "theta": e.theta}  # both tables' first columns
        cov = np.full(e.n_t, np.trace(fused.covariance))
        rmse = _station_table(
            emit(f"recon_{case_id}.npy"), {**head, "trace_fused_cov": cov},
            model.stations, _COMPONENTS, true_obs, fields)
        stations_out = [
            {"station_index": int(station), "z_norm": float(z[station]),
             "rmse": {comp: {src: rmse[src][3 * s_i + c_i] for src in _SOURCES}
                      for c_i, comp in enumerate(_COMPONENTS)}}
            for s_i, station in enumerate(model.stations)]
        reduced, reduced_total = {}, {}
        for src in _SOURCES:  # one squared error at a time
            sq = (A[src] - a_proj) ** 2
            reduced[src] = [float(r) for r in np.sqrt(np.mean(sq, axis=1))]
            reduced_total[src] = float(np.sqrt(np.mean(sq)))
        cases_summary[case_id] = {
            "n_steps": int(e.n_t), "stations": stations_out,
            "reduced_rmse": reduced, "reduced_rmse_total": reduced_total,
            "nis_mean": float(nis.mean())}
        # the last reader of each evaluation field: torsion scoring reads its
        # fused coordinates, t and theta, and the report the first's traces
        if not trace:
            trace = {"case_id": case_id, "a_proj": a_proj, "t": e.t,
                     "theta": e.theta, "u_mean": float(np.mean(e.u_filt)),
                     "true_obs": true_obs, "fields": fields, "f_s": e.f_s,
                     "tip": e.D[tip_rows, :], "omega": e.omega}
        del e
        if model.torsion and "torsion_file" in manifest:
            torsion[case_id] = _score_torsion(model, path, manifest, case_id,
                                              head, A["fused"], emit)

    write_json(emit("error_summary.json"), {
        "cases": cases_summary, "fusion": fusion, "rom": rom,
        "settings": {"n_modes": model.basis.n_modes,
                     "n_sensors": model.sensors.n_sensors, "seed": seed},
    })
    if model.torsion:
        write_json(emit("torsion_summary.json"),
                   {"fit_r_squared": model.torsion[1], "evaluation": torsion})
    return trace


def _score_torsion(model: Model, path, manifest, case_id, head: dict, fused,
                   emit) -> list:
    """Write a case's torsion, inferred from its fused coordinates, beside
    the truth at the observation rows; return the case's summary rows."""
    true_obs = load_torsion(path, (model.basis.grid.n_dof, head["t"].size),
                            manifest)[model.rows, :]
    est_obs = infer_torsion(fused, model.torsion[0])
    rmse = _station_table(
        emit(f"torsion_recon_{case_id}.npy"), head, model.stations,
        _TORSION_COMPONENTS, true_obs, {"fused": est_obs})["fused"]
    row_r2 = _r_squared(
        np.sum((est_obs - true_obs) ** 2, axis=1),
        np.sum((true_obs - true_obs.mean(axis=1, keepdims=True)) ** 2,
               axis=1), np.sum(true_obs**2, axis=1), true_obs.shape[1])
    return [
        {"station_index": int(station),
         "components": {comp: {"rmse": rmse[3 * s_i + c_i],
                               "r_squared": float(row_r2[3 * s_i + c_i])}
                        for c_i, comp in enumerate(_TORSION_COMPONENTS)}}
        for s_i, station in enumerate(model.stations)]


#: z/L_b of the scored stations; load snaps each to its nearest grid station.
_OBSERVATION_FRACTIONS = (0.44, 0.68, 0.88)

#: Azimuth sectors of the report's azimuthal figure: 5-degree bins.
_N_SECTORS = 72


def _report(model: Model, trace: dict, emit) -> None:
    case_id = trace["case_id"]
    station = int(model.stations[0])
    f_1p = float(np.mean(trace["omega"])) / (2.0 * np.pi)

    # spectra of the tip signals, raw and smoothed
    for c_i, comp in enumerate(_COMPONENTS):
        f_hat, raw, smoothed = psd(trace["tip"][c_i], trace["f_s"], f_1p)
        base = f"psd_{case_id}_{comp}"
        _write_csv(emit(base + ".csv"),
                   ["f_hat", "power_raw", "power_smoothed"],
                   np.column_stack([f_hat, raw, smoothed]))
        svgplot.line_plot(
            emit(base + ".svg"),
            [("raw", f_hat, raw), ("smoothed", f_hat, smoothed)],
            title=f"PSD of tip {comp} ({case_id})",
            xlabel="f / f1P", ylabel="power", log_y=True)

    # histograms of true vs fused at the first observation station
    for c_i, comp in enumerate(_COMPONENTS):
        true_sig = trace["true_obs"][c_i]
        fused_sig = trace["fields"]["fused"][c_i]
        edges = np.histogram_bin_edges(np.concatenate([true_sig, fused_sig]),
                                       "scott")
        h_true, _ = np.histogram(true_sig, bins=edges)
        h_fused, _ = np.histogram(fused_sig, bins=edges)
        base = f"hist_{case_id}_{comp}"
        _write_csv(emit(base + ".csv"),
                   ["bin_left", "bin_right", "count_true", "count_fused"],
                   np.column_stack([edges[:-1], edges[1:], h_true, h_fused]))
        steps = np.repeat(edges, 2)  # each bin's count drawn as a step
        svgplot.line_plot(
            emit(base + ".svg"),
            [(label, steps, [0, *np.repeat(h, 2), 0])
             for label, h in (("true", h_true), ("fused", h_fused))],
            title=f"{comp} at station {station} ({case_id})",
            xlabel=f"{comp} (m)", ylabel="count")

    # azimuthal mean +/- sigma of the case in 5-degree sectors against the
    # prior (its left-out band) at the sector centres and mean wind speed
    a_proj = trace["a_proj"]
    idx = azimuth_bin(trace["theta"], _N_SECTORS)
    counts = np.bincount(idx, minlength=_N_SECTORS)
    occ, n_b = counts > 0, np.maximum(counts, 1)
    data_mean = np.stack([np.bincount(idx, a_n, _N_SECTORS)
                          for a_n in a_proj]) / n_b
    data_var = np.stack([np.bincount(idx, d * d, _N_SECTORS)
                         for d in a_proj - data_mean[:, idx]]) / n_b
    data_mean, data_std = data_mean[:, occ], np.sqrt(data_var[:, occ])
    centers = ((np.arange(_N_SECTORS) + 0.5) * TWO_PI / _N_SECTORS)[occ]
    prior = evaluate_rom(model.rom, centers, trace["u_mean"])
    rom_std = np.sqrt(np.diagonal(prior.covariance))
    for n in range(len(a_proj)):
        rom_mean = prior.mean[:, n]
        rom_sd = np.full(centers.size, rom_std[n])
        base = f"azimuthal_mode{n + 1}"
        _write_csv(emit(base + ".csv"),
                   ["theta_center", "data_mean", "data_std",
                    "rom_mean", "rom_std"],
                   np.column_stack([centers, data_mean[n], data_std[n],
                                    rom_mean, rom_sd]))
        svgplot.line_plot(
            emit(base + ".svg"),
            [("data mean", centers, data_mean[n]),
             ("data +1s", centers, data_mean[n] + data_std[n]),
             ("data -1s", centers, data_mean[n] - data_std[n]),
             ("model mean", centers, rom_mean),
             ("model +1s", centers, rom_mean + rom_sd),
             ("model -1s", centers, rom_mean - rom_sd)],
            title=f"Azimuthal statistics, mode {n + 1} ({case_id})",
            xlabel="theta (rad)", ylabel=f"a_{n + 1}")

    # modal coupling scatter (out-of-phase pairs), subsampled for the SVG
    pairs = [(i, j) for i, j in ((0, 1), (0, 3), (1, 3)) if j < len(a_proj)]
    stride = max(1, a_proj.shape[1] // 2000)
    for i, j in pairs:
        xi, yj = a_proj[i, ::stride], a_proj[j, ::stride]
        base = f"coupling_{case_id}_a{i + 1}_a{j + 1}"
        _write_csv(emit(base + ".csv"),
                   [f"a{i + 1}", f"a{j + 1}"], np.column_stack([xi, yj]))
        svgplot.scatter_plot(emit(base + ".svg"), xi, yj,
                             title=f"a{i + 1} vs a{j + 1} ({case_id})",
                             xlabel=f"a{i + 1}", ylabel=f"a{j + 1}")

    # reconstruction trace at the first observation station, flapwise; its
    # numbers are the station's ux fields of recon_<case>.npy
    t = trace["t"]
    series = [("true", t, trace["true_obs"][0])]
    series += [(src, t, trace["fields"][src][0]) for src in _SOURCES]
    svgplot.line_plot(emit(f"trace_{case_id}_ux.svg"), series,
                      title=f"ux at station {station} ({case_id})",
                      xlabel="t (s)", ylabel="ux (m)")


def _index(out_dir: Path, artifacts: list) -> None:
    write_json(out_dir / "artifacts.json", {"files": sorted(set(artifacts))})


#: Each stage by the name its ``FAILED`` marker gives; :func:`_stage` calls it.
_STAGES = {
    "load": _load,
    "decompose": _decompose,
    "sensors": _sensors,
    "fit-rom": _fit_rom,
    "estimate": _estimate,
    "report": _report,
    "index": _index,
}


def _stage(name: str, *args):
    """Run stage ``name`` on ``args``; a failure becomes a StageError."""
    try:
        return _STAGES[name](*args)
    except Exception as err:
        raise StageError(name, err) from err


def run_pipeline(config: PipelineConfig, plan: str = "pipeline") -> dict:
    """Run ``plan``: ``fit-rom`` loads the training cases and fits the
    model, ``pipeline`` also loads the evaluation cases, estimates and
    reports. The files a previous ``artifacts.json`` in ``out_dir`` lists go
    first, then that index. A stage failure writes a ``FAILED`` marker naming
    the stage and raises a :class:`StageError` wrapping the original error."""
    config.validate()
    if plan not in ("fit-rom", "pipeline"):
        raise ValidationError(f"unknown plan {plan!r}")
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    marker = out / "FAILED"
    marker.unlink(missing_ok=True)
    index = out / "artifacts.json"
    if index.exists():  # what the last run wrote goes; other files stay
        for name in filter(plain_name, read_json(
                index, {"files": [str]}, ("files",), "artifact index")["files"]):
            if (out / name).is_file():  # a directory there is not ours
                (out / name).unlink()
        index.unlink()
    artifacts = []

    def emit(name: str) -> Path:
        artifacts.append(name)
        return out / name

    try:
        training, evaluation, stations = _stage(
            "load", config.training,
            config.evaluation if plan == "pipeline" else [])
        model = fit_model(training, config, stations, emit)
        if plan == "pipeline":
            trace = _stage("estimate", model, evaluation, config.seed, emit)
            _stage("report", model, trace, emit)
        _stage("index", out, artifacts)
    except StageError as err:
        with open(marker, "w", encoding="utf-8") as fh:
            fh.write(f"stage: {err.stage}\nerror: {err.cause}\n")
        raise
    return {"out_dir": str(out), "artifacts": sorted(set(artifacts))}
