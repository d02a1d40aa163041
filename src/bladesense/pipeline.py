"""End-to-end orchestration: decompose, place, fit, estimate, report.

Estimation runs once per evaluation case on whole arrays: the sensors are
sampled (with noise) at every time step in one call, the reduced
coordinates of all steps come from one linear map, the azimuthal prior is
evaluated at every step's angle and filtered wind speed, and the two
Gaussians are fused with one gain, as both share one covariance over all
steps. Each row equals what the per-step library calls give for that step. Batch reporting (spectra, histograms, azimuthal
curves, coupling scatter) runs afterwards on the recorded traces.

Every figure is an SVG whose plotted numbers a CSV holds: its twin of the
same name, or for the reconstruction trace the case's ``recon_<case>.csv``.
An ``artifacts.json`` index lists everything written. A stage failure
leaves a ``FAILED`` marker naming the stage.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import azimuthal_rom as rom_mod
from . import svgplot
from .azimuthal_rom import (AzimuthalRomModel, RomStats, evaluate_rom,
                            fit_rom, save_rom)
from .dataset import (_REPORT_FMT, TWO_PI, _write_csv, azimuth_bin, load_case,
                      load_grid, load_torsion, read_json, read_manifest,
                      write_json)
from .decomposition import (ModalBasis, pod_fit, project, write_energies_csv,
                            write_modes_csv)
from .errors import StageError, ValidationError
from .fusion import FusionStats, fuse, innovation_covariance
from .sensing import (NoiseModel, place_sensors, observe, sensor_dof_rows,
                      sparse_estimate, write_sensors_csv)
from .spectral import psd
from .torsion import (_r_squared, fit_torsion_model, infer_torsion,
                      save_torsion_model)

_COMPONENTS = ("ux", "uy", "uz")
_TORSION_COMPONENTS = ("taux", "tauy", "tauz")
_SOURCES = ("sparse", "rom", "fused")

#: Config value type (see :func:`read_json`) of each PipelineConfig field
#: type; the noise spec passes as given, for :meth:`NoiseModel.from_config`.
_FIELD_KINDS = {"list": [str], "Path": str, "int": int, "tuple": [float],
                "object": object}


@dataclass
class PipelineConfig:
    """Validated run settings; defaults follow the working configuration."""

    training: list
    evaluation: list
    out_dir: Path
    n_modes: int = 4
    n_sensors: int = 4
    n_theta: int = rom_mod.DEFAULT_N_THETA
    n_fourier: int = rom_mod.DEFAULT_N_FOURIER
    noise: object = 0.1
    observation_fractions: tuple = (0.44, 0.68, 0.88)
    seed: int = 0

    def validate_settings(self) -> None:
        """Check every rule that needs no file."""
        for group in ("training", "evaluation"):
            if not getattr(self, group):
                raise ValidationError(f"'{group}' lists no cases")
        for name, low in (("n_modes", 1), ("n_sensors", 1), ("n_theta", 1),
                          ("n_fourier", 0), ("seed", 0)):
            if getattr(self, name) < low:
                raise ValidationError(f"'{name}' must be >= {low}")
        # each sensor reports three rows; SensorSet.gram_gain checks the
        # sampled basis actually has rank n_modes
        if self.n_modes > 3 * self.n_sensors:
            raise ValidationError("'n_modes' must not exceed 3 * 'n_sensors'")
        if not self.observation_fractions:
            raise ValidationError("'observation_fractions' lists no station")
        # a fraction outside the blade would snap to its end station
        for f in self.observation_fractions:
            if not 0.0 <= f <= 1.0:
                raise ValidationError(
                    f"'observation_fractions' must lie in [0, 1], got {f!r}")
        NoiseModel.from_config(self.noise, self.n_sensors)

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


@dataclass
class _Context:
    config: PipelineConfig
    plan: str = "pipeline"
    train: list = field(default_factory=list)       # (case_id, ensemble);
    # fit-rom empties it, keeping each case's (grid, channels) for torsion
    train_channels: list = field(default_factory=list)
    torsion_carriers: list = field(default_factory=list)  # training indices
    evaluation: list = field(default_factory=list)  # (case_id, ensemble)
    basis: ModalBasis | None = None
    train_coords: list = field(default_factory=list)  # set by fit-rom
    sensors: object = None
    noise_model: NoiseModel | None = None
    obs_stations: np.ndarray | None = None  # set by load, with
    obs_rows: np.ndarray | None = None      # their rows in a field
    rom: AzimuthalRomModel | None = None
    fusion_stats: FusionStats = field(default_factory=FusionStats)
    rom_stats: RomStats = field(default_factory=RomStats)
    traces: dict = field(default_factory=dict)      # case_id -> per-case arrays
    summary: dict = field(default_factory=dict)
    artifacts: list = field(default_factory=list)

    def emit(self, name: str) -> Path:
        self.artifacts.append(name)
        return self.config.out_dir / name


def _stage_load(ctx: _Context) -> None:
    cfg = ctx.config
    for i, p in enumerate(cfg.training):
        manifest = read_manifest(p)
        ctx.train.append((Path(p).stem, load_case(p, manifest)[1]))
        if "torsion_file" in manifest:
            ctx.torsion_carriers.append(i)
    grids = [e.grid for _, e in ctx.train]
    for p in cfg.evaluation:
        # a plan that estimates nothing uses an evaluation case only for
        # its grid, and reads no more of it
        if "estimate" in COMMAND_PLANS[ctx.plan]:
            e = load_case(p)[1]
            # the report's spectra are normalized by the mean rotor speed
            omega = float(np.mean(e.omega))
            if not omega > 0:
                raise ValidationError(
                    f"evaluation case {Path(p).stem!r}: mean rotor speed "
                    f"'omega' must be positive, got {omega!r}")
            ctx.evaluation.append((Path(p).stem, e))
            grids.append(e.grid)
        else:
            grids.append(load_grid(p))
    z0 = grids[0].z_norm
    for grid in grids:
        if grid.z_norm.shape != z0.shape or np.any(grid.z_norm != z0):
            raise ValidationError("all cases must share the same grid")
    fractions = ctx.config.observation_fractions
    stations = [int(np.argmin(np.abs(z0 - f))) for f in fractions]
    for i, station in enumerate(stations):
        if station in stations[:i]:
            first = fractions[stations.index(station)]
            raise ValidationError(
                f"'observation_fractions' {first!r} and {fractions[i]!r} "
                f"both snap to station {station}")
    ctx.obs_stations = np.array(stations, dtype=int)
    ctx.obs_rows = sensor_dof_rows(ctx.obs_stations, z0.size)


def _stage_decompose(ctx: _Context) -> None:
    ctx.basis = pod_fit([e for _, e in ctx.train], ctx.config.n_modes)
    write_modes_csv(ctx.basis, ctx.emit("modes.csv"))
    write_energies_csv(ctx.basis, ctx.emit("energies.csv"))


def _stage_sensors(ctx: _Context) -> None:
    ctx.sensors = place_sensors(ctx.basis, ctx.config.n_sensors)
    ctx.noise_model = NoiseModel.from_config(ctx.config.noise,
                                             ctx.config.n_sensors)
    write_sensors_csv(ctx.sensors, ctx.emit("sensors.csv"))


def _stage_fit_rom(ctx: _Context) -> None:
    ctx.train_coords = [project(e.D, ctx.basis) for _, e in ctx.train]
    ctx.rom = fit_rom(
        [(a, e.theta, e.u_filt) for (_, e), a in zip(ctx.train, ctx.train_coords)],
        ctx.config.n_fourier,
        [{"u_mean": e.condition.u_mean, "ti": e.condition.ti}
         for _, e in ctx.train])
    save_rom(ctx.rom, ctx.emit("rom.json"))
    # the last reader of the training deflections: torsion needs only each
    # case's grid and channels, so the matrices are released here
    ctx.train_channels = [(e.grid, e.channels()) for _, e in ctx.train]
    ctx.train = []


def _station_table(path, head: dict, stations, comps, true_obs,
                   estimates: dict) -> dict:
    """Write the ``head`` columns, then per station and component the true
    series and each estimate's; return each estimate's RMSE per row."""
    names, cols = list(head), list(head.values())
    for s_i, station in enumerate(stations):
        for c_i, comp in enumerate(comps):
            row = 3 * s_i + c_i
            names.append(f"{comp}_s{station:03d}_true")
            cols.append(true_obs[row])
            for src, est in estimates.items():
                names.append(f"{comp}_s{station:03d}_{src}")
                cols.append(est[row])
    _write_csv(path, names, np.column_stack(cols), _REPORT_FMT)
    return {src: [float(np.sqrt(np.mean((est[row] - true_obs[row]) ** 2)))
                  for row in range(len(true_obs))]
            for src, est in estimates.items()}


def _stage_estimate(ctx: _Context) -> None:
    cfg = ctx.config
    z = ctx.basis.grid.z_norm
    mean_obs = ctx.basis.mean_field[ctx.obs_rows][:, None]
    phi_obs = ctx.basis.modes[ctx.obs_rows, :]
    cases_summary = {}
    for idx, (case_id, e) in enumerate(ctx.evaluation):
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, idx]))
        y = observe(e.D.T, ctx.sensors, ctx.noise_model, rng)
        meas = sparse_estimate(y, ctx.sensors, ctx.noise_model)
        prior = evaluate_rom(ctx.rom, e.theta, e.u_filt, e.condition.ti,
                             ctx.rom_stats)
        fused, _ = fuse(prior, meas, ctx.fusion_stats)
        # normalized innovation squared per step, nu^T S^-1 nu with nu =
        # sparse - prior and S the innovation covariance fuse inverted, one
        # for every step: N on average for calibrated covariances
        nu = meas.mean - prior.mean
        s_cov, _ = innovation_covariance(prior.covariance, meas.covariance)
        nis = np.einsum("ti,it->t", nu, np.linalg.solve(s_cov, nu.T))
        A = {"sparse": meas.mean.T, "rom": prior.mean.T, "fused": fused.mean.T}
        a_proj = project(e.D, ctx.basis)
        fields = {src: mean_obs + phi_obs @ A[src] for src in _SOURCES}
        true_obs = e.D[ctx.obs_rows, :]
        rmse = _station_table(
            ctx.emit(f"recon_{case_id}.csv"),
            {"t": e.t, "theta": e.theta,
             "trace_fused_cov": np.full(e.n_t, np.trace(fused.covariance))},
            ctx.obs_stations, _COMPONENTS, true_obs, fields)
        stations_out = [
            {"station_index": int(station), "z_norm": float(z[station]),
             "rmse": {comp: {src: rmse[src][3 * s_i + c_i] for src in _SOURCES}
                      for c_i, comp in enumerate(_COMPONENTS)}}
            for s_i, station in enumerate(ctx.obs_stations)]
        reduced = {src: [float(r) for r in
                         np.sqrt(np.mean((A[src] - a_proj) ** 2, axis=1))]
                   for src in _SOURCES}
        reduced_total = {src: float(np.sqrt(np.mean((A[src] - a_proj) ** 2)))
                         for src in _SOURCES}
        cases_summary[case_id] = {
            "n_steps": int(e.n_t),
            "stations": stations_out,
            "reduced_rmse": reduced,
            "reduced_rmse_total": reduced_total,
            "nis_mean": float(nis.mean()),
        }
        ctx.traces[case_id] = {"A": A, "a_proj": a_proj, "true_obs": true_obs,
                               "fields": fields}

    ctx.summary = {
        "cases": cases_summary,
        "fusion": asdict(ctx.fusion_stats),
        "rom": asdict(ctx.rom_stats),
        "settings": {key: getattr(cfg, key) for key in
                     ("n_modes", "n_sensors", "n_fourier", "seed")},
    }
    write_json(ctx.emit("error_summary.json"), ctx.summary)


def _stage_torsion(ctx: _Context) -> None:
    # one map over every training case that carries torsion; each torsion
    # matrix is loaded, folded and dropped in turn
    carriers = ctx.torsion_carriers
    if not carriers:
        return
    model, r2 = fit_torsion_model(
        [ctx.train_coords[i] for i in carriers],
        (load_torsion(ctx.config.training[i], *ctx.train_channels[i])
         for i in carriers))
    save_torsion_model(model, ctx.emit("torsion_map.csv"))

    # torsion inferred from the fused estimate, scored against the truth
    eval_summary = {}
    for p, (case_id, e) in zip(ctx.config.evaluation, ctx.evaluation):
        tau_e = load_torsion(p, e.grid, e.channels())
        if tau_e is None:
            continue
        tau_hat = infer_torsion(ctx.traces[case_id]["A"]["fused"], model)
        true_obs = tau_e.D[ctx.obs_rows, :]
        est_obs = tau_hat[ctx.obs_rows, :]
        rmse = _station_table(
            ctx.emit(f"torsion_recon_{case_id}.csv"),
            {"t": e.t, "theta": e.theta}, ctx.obs_stations,
            _TORSION_COMPONENTS, true_obs, {"fused": est_obs})["fused"]
        row_r2 = _r_squared(
            np.sum((est_obs - true_obs) ** 2, axis=1),
            np.sum((true_obs - true_obs.mean(axis=1, keepdims=True)) ** 2,
                   axis=1), np.sum(true_obs**2, axis=1), e.n_t)
        eval_summary[case_id] = [
            {"station_index": int(station),
             "components": {comp: {"rmse": rmse[3 * s_i + c_i],
                                   "r_squared": float(row_r2[3 * s_i + c_i])}
                            for c_i, comp in enumerate(_TORSION_COMPONENTS)}}
            for s_i, station in enumerate(ctx.obs_stations)]

    write_json(ctx.emit("torsion_summary.json"),
               {"fit_r_squared": r2,
                "evaluation": eval_summary})


def _quartiles(x: np.ndarray) -> list:
    """The 75th and 25th percentiles of ``np.percentile``'s default rule,
    bit for bit, from one sort: ``np.percentile`` imports ``numpy.ma`` in
    numpy 2.x (8-17 ms cold on a 2-core Xeon)."""
    s = np.sort(x)
    out = []
    for q in (0.75, 0.25):
        v = (s.size - 1) * q
        i = int(v)
        g = v - i
        a, b = s[i], s[min(i + 1, s.size - 1)]
        out.append(b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g)
    return out


def _fd_edges(x: np.ndarray) -> np.ndarray:
    """Freedman-Diaconis bin edges with degenerate-data fallbacks."""
    x = np.asarray(x, dtype=float)
    lo, hi = float(x.min()), float(x.max())
    if hi <= lo:
        return np.array([lo - 0.5, lo + 0.5])
    q75, q25 = _quartiles(x)
    iqr = q75 - q25
    if iqr <= 0:
        n_bins = max(1, int(np.ceil(np.sqrt(x.size))))
    else:
        width = 2.0 * iqr / np.cbrt(x.size)
        n_bins = int(np.clip(np.ceil((hi - lo) / width), 1, 200))
    return np.linspace(lo, hi, n_bins + 1)


def _stage_report(ctx: _Context) -> None:
    case_id, e = ctx.evaluation[0]
    trace = ctx.traces[case_id]
    station = int(ctx.obs_stations[0])
    n_z = e.grid.n_z
    f_1p = float(np.mean(e.omega)) / (2.0 * np.pi)

    # spectra of the tip signals, raw and smoothed
    tip = n_z - 1
    for c_i, comp in enumerate(_COMPONENTS):
        signal = e.D[c_i * n_z + tip, :]
        f_hat, raw, smoothed = psd(signal, e.f_s, f_1p)
        base = f"psd_{case_id}_{comp}"
        _write_csv(ctx.emit(base + ".csv"),
                   ["f_hat", "power_raw", "power_smoothed"],
                   np.column_stack([f_hat, raw, smoothed]), _REPORT_FMT)
        svgplot.line_plot(
            ctx.emit(base + ".svg"),
            [("raw", f_hat, raw), ("smoothed", f_hat, smoothed)],
            title=f"PSD of tip {comp} ({case_id})",
            xlabel="f / f1P", ylabel="power", log_y=True)

    # histograms of true vs fused at the first observation station
    for c_i, comp in enumerate(_COMPONENTS):
        true_sig = trace["true_obs"][c_i]
        fused_sig = trace["fields"]["fused"][c_i]
        edges = _fd_edges(np.concatenate([true_sig, fused_sig]))
        h_true, _ = np.histogram(true_sig, bins=edges)
        h_fused, _ = np.histogram(fused_sig, bins=edges)
        base = f"hist_{case_id}_{comp}"
        _write_csv(ctx.emit(base + ".csv"),
                   ["bin_left", "bin_right", "count_true", "count_fused"],
                   np.column_stack([edges[:-1], edges[1:], h_true, h_fused]),
                   _REPORT_FMT)
        steps = np.repeat(edges, 2)  # each bin's count drawn as a step
        svgplot.line_plot(
            ctx.emit(base + ".svg"),
            [(label, steps, [0, *np.repeat(h, 2), 0])
             for label, h in (("true", h_true), ("fused", h_fused))],
            title=f"{comp} at station {station} ({case_id})",
            xlabel=f"{comp} (m)", ylabel="count")

    # azimuthal mean +/- sigma of the first training case, binned into
    # n_theta display sectors, against the prior at the bin centres and the
    # case's mean wind speed
    n_theta = ctx.config.n_theta
    a = ctx.train_coords[0]
    channels = ctx.train_channels[0][1]
    idx = azimuth_bin(channels["theta"], n_theta)
    counts = np.bincount(idx, minlength=n_theta)
    occ, n_b = counts > 0, np.maximum(counts, 1)
    data_mean = np.stack([np.bincount(idx, a_n, n_theta) for a_n in a]) / n_b
    data_var = np.stack([np.bincount(idx, d * d, n_theta)
                         for d in a - data_mean[:, idx]]) / n_b
    data_mean, data_std = data_mean[:, occ], np.sqrt(data_var[:, occ])
    centers = ((np.arange(n_theta) + 0.5) * TWO_PI / n_theta)[occ]
    prior = evaluate_rom(ctx.rom, centers, float(np.mean(channels["u_filt"])),
                         None)
    rom_std = np.sqrt(np.diagonal(prior.covariance))
    for n in range(ctx.config.n_modes):
        rom_mean = prior.mean[:, n]
        rom_sd = np.full(centers.size, rom_std[n])
        base = f"azimuthal_mode{n + 1}"
        _write_csv(ctx.emit(base + ".csv"),
                   ["theta_center", "data_mean", "data_std",
                    "rom_mean", "rom_std"],
                   np.column_stack([centers, data_mean[n], data_std[n],
                                    rom_mean, rom_sd]),
                   _REPORT_FMT)
        svgplot.line_plot(
            ctx.emit(base + ".svg"),
            [("data mean", centers, data_mean[n]),
             ("data +1s", centers, data_mean[n] + data_std[n]),
             ("data -1s", centers, data_mean[n] - data_std[n]),
             ("model mean", centers, rom_mean),
             ("model +1s", centers, rom_mean + rom_sd),
             ("model -1s", centers, rom_mean - rom_sd)],
            title=f"Azimuthal statistics, mode {n + 1}",
            xlabel="theta (rad)", ylabel=f"a_{n + 1}")

    # modal coupling scatter (out-of-phase pairs), subsampled for the SVG
    a_proj = trace["a_proj"]
    n_modes = ctx.config.n_modes
    pairs = [(i, j) for i, j in ((0, 1), (0, 3), (1, 3)) if j < n_modes]
    stride = max(1, a_proj.shape[1] // 2000)
    for i, j in pairs:
        xi, yj = a_proj[i, ::stride], a_proj[j, ::stride]
        base = f"coupling_{case_id}_a{i + 1}_a{j + 1}"
        _write_csv(ctx.emit(base + ".csv"),
                   [f"a{i + 1}", f"a{j + 1}"], np.column_stack([xi, yj]),
                   _REPORT_FMT)
        svgplot.scatter_plot(ctx.emit(base + ".svg"), xi, yj,
                             title=f"a{i + 1} vs a{j + 1} ({case_id})",
                             xlabel=f"a{i + 1}", ylabel=f"a{j + 1}")

    # reconstruction trace at the first observation station, flapwise; its
    # numbers are the station's ux columns of recon_<case>.csv
    series = [("true", e.t, trace["true_obs"][0])]
    series += [(src, e.t, trace["fields"][src][0]) for src in _SOURCES]
    svgplot.line_plot(ctx.emit(f"trace_{case_id}_ux.svg"), series,
                      title=f"ux at station {station} ({case_id})",
                      xlabel="t (s)", ylabel="ux (m)")


def _stage_index(ctx: _Context) -> None:
    write_json(ctx.config.out_dir / "artifacts.json",
               {"files": sorted(set(ctx.artifacts))})


_STAGES = {
    "load": _stage_load,
    "decompose": _stage_decompose,
    "sensors": _stage_sensors,
    "fit-rom": _stage_fit_rom,
    "estimate": _stage_estimate,
    "torsion": _stage_torsion,
    "report": _stage_report,
    "index": _stage_index,
}

#: The stages each command runs: ``fit-rom`` is the set-up (basis and
#: ROM from the training cases), ``pipeline`` every stage.
COMMAND_PLANS = {
    "fit-rom": ("load", "decompose", "fit-rom", "index"),
    "pipeline": ("load", "decompose", "sensors", "fit-rom", "estimate",
                 "torsion", "report", "index"),
}


def run_pipeline(config: PipelineConfig, plan: str = "pipeline") -> dict:
    """Run the stages of ``plan`` and return a result summary.

    On any stage failure a ``FAILED`` marker naming the stage is written to
    the output directory and a :class:`StageError` wrapping the original
    exception is raised.
    """
    config.validate()
    if plan not in COMMAND_PLANS:
        raise ValidationError(f"unknown plan {plan!r}")
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    marker = out / "FAILED"
    marker.unlink(missing_ok=True)
    ctx = _Context(config=config, plan=plan)
    for name in COMMAND_PLANS[plan]:
        try:
            _STAGES[name](ctx)
        except Exception as err:
            with open(marker, "w", encoding="utf-8") as fh:
                fh.write(f"stage: {name}\nerror: {err}\n")
            raise StageError(name, err) from err
    return {
        "out_dir": str(out),
        "artifacts": sorted(set(ctx.artifacts)),
        "summary": ctx.summary,
    }
