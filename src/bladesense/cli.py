"""Command-line front end.

Subcommands: synth, decompose, sensors, fit-rom, estimate, torsion, report,
pipeline. Exit codes: 0 success, 2 validation error, 3 numerical error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .errors import NumericalError, StageError, ValidationError
from .pipeline import COMMAND_PLANS, PipelineConfig, run_pipeline
from .synthetic import demo_grid, demo_spec, generate_case


def _common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, help="config JSON path")
    parser.add_argument("--seed", type=int, default=None, help="rng seed override")
    parser.add_argument("--out", type=Path, default=None, help="output directory")


_SYNTH_KEYS = {"config": {"grid", "training", "evaluation", "pipeline"},
               "grid": {"n_z", "L_b"},
               "case": {"name", "u_mean", "ti", "seeds", "duration_s", "f_s",
                        "noise_sigma"}}
_SYNTH_REQUIRED = {"case": ("name", "u_mean", "ti")}


def _check_keys(path, where: str, entry) -> None:
    if not isinstance(entry, dict):
        raise ValidationError(f"{path}: {where} must be a JSON object, "
                              f"got {type(entry).__name__}")
    unknown = sorted(set(entry) - _SYNTH_KEYS[where])
    if unknown:
        raise ValidationError(f"{path}: unknown {where} keys {unknown}")
    for key in _SYNTH_REQUIRED.get(where, ()):
        if key not in entry:
            raise ValidationError(f"{path}: {where} entry missing key '{key}'")


def cmd_synth(args) -> int:
    """Generate synthetic cases plus a ready-to-run pipeline config.

    Settings a config leaves out take the defaults of ``demo_grid`` and
    ``demo_spec``; an unknown key is rejected, not ignored.
    """
    out = args.out or Path("quickstart")
    seed = 0 if args.seed is None else args.seed
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    else:
        doc = {
            "training": [
                {"name": "train_u084", "u_mean": 8.4, "ti": 0.10, "seeds": [0, 1]},
                {"name": "train_u106", "u_mean": 10.6, "ti": 0.10, "seeds": [0, 1]},
            ],
            "evaluation": [
                {"name": "eval_u106", "u_mean": 10.6, "ti": 0.10,
                 "seeds": [7], "duration_s": 12.0},
                {"name": "eval_u095", "u_mean": 9.5, "ti": 0.10,
                 "seeds": [3], "duration_s": 8.0},
            ],
            "pipeline": {"noise": 0.1, "seed": 0},
        }
    _check_keys(args.config, "config", doc)
    grid_cfg = doc.get("grid", {})
    _check_keys(args.config, "grid", grid_cfg)
    for entry in doc.get("training", []) + doc.get("evaluation", []):
        _check_keys(args.config, "case", entry)
    grid = demo_grid(**{arg: cast(grid_cfg[key]) for key, arg, cast in
                        (("n_z", "n_z", int), ("L_b", "length_m", float))
                        if key in grid_cfg})
    manifests = {"training": [], "evaluation": []}
    for group in ("training", "evaluation"):
        for entry in doc.get(group, []):
            options = {key: float(entry[key]) for key in
                       ("duration_s", "f_s", "noise_sigma") if key in entry}
            for case_seed in entry.get("seeds", [0]):
                spec = demo_spec(
                    name=f"{entry['name']}_s{case_seed}",
                    u_mean=float(entry["u_mean"]), ti=float(entry["ti"]),
                    grid=grid, **options)
                truth = generate_case(spec, seed + case_seed, out)
                manifests[group].append(truth.manifest_path.name)
    pipe_cfg = {
        "training": manifests["training"],
        "evaluation": manifests["evaluation"],
        "out_dir": "results",
    }
    pipe_cfg.update(doc.get("pipeline", {}))
    if args.seed is not None:
        pipe_cfg["seed"] = args.seed
    cfg_path = Path(out) / "pipeline_config.json"
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(pipe_cfg, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(manifests['training'])} training and "
          f"{len(manifests['evaluation'])} evaluation cases under {out}")
    print(f"pipeline config: {cfg_path}")
    return 0


def _make_stage_cmd(plan: str):
    def cmd(args) -> int:
        if not args.config:
            raise ValidationError(f"'{plan}' requires --config")
        config = PipelineConfig.from_json(args.config, seed=args.seed,
                                          out_dir=args.out)
        result = run_pipeline(config, plan=plan)
        print(f"{plan}: wrote {len(result['artifacts'])} artifacts "
              f"to {result['out_dir']}")
        return 0

    return cmd


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bladesense",
        description="Reconstruct full blade deflection fields from sparse "
                    "noisy sensors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic cases and a config")
    _common(p)
    p.set_defaults(func=cmd_synth)

    for plan in COMMAND_PLANS:
        q = sub.add_parser(plan, help=f"run up to the '{plan}' stage")
        _common(q)
        q.set_defaults(func=_make_stage_cmd(plan))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except StageError as err:
        print(f"error: {err}", file=sys.stderr)
        cause = err.cause
        if isinstance(cause, (NumericalError, np.linalg.LinAlgError,
                              FloatingPointError)):
            return 3
        return 2
    except (NumericalError, np.linalg.LinAlgError, FloatingPointError) as err:
        print(f"numerical error: {err}", file=sys.stderr)
        return 3
    except (ValidationError, FileNotFoundError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
