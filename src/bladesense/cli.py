"""Command-line front end.

Subcommands: ``synth`` writes synthetic cases and a pipeline config,
``fit-rom`` fits the model (basis, sensor placement, azimuthal ROM and
torsion map) from the training cases alone, and ``pipeline`` fits the same
model, then estimates and reports, writing every artifact. Both need
``--config``; ``fit-rom`` draws nothing, so only the others take ``--seed``.
Exit codes: 0 success, 2 validation error, 3 numerical error.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from .dataset import read_json, write_json
from .errors import NumericalError, SchemaError, StageError, ValidationError
from .pipeline import (CASE_NAME_MAX, CONFIG_SCHEMA, PipelineConfig,
                       plain_name, run_pipeline)
from .synthetic import demo_grid, demo_spec, generate_case


#: ``synth --config`` keys and their types (see :func:`read_json`).
_SYNTH_CASE = ({"name": str, "u_mean": float, "ti": float, "seeds": [int],
                "duration_s": float, "f_s": float, "noise_sigma": float},
               ("name", "u_mean", "ti"))
_SYNTH = {"grid": ({"n_z": int, "L_b": float}, ()), "training": [_SYNTH_CASE],
          "evaluation": [_SYNTH_CASE],
          "pipeline": ({k: v for k, v in CONFIG_SCHEMA.items()  # settings
                        if k not in ("training", "evaluation")}, ())}


def cmd_synth(args) -> int:
    """Generate synthetic cases plus a ready-to-run pipeline config.

    Without ``--config`` the package's ``quickstart.json`` is used. Settings
    a config leaves out take the defaults of ``demo_grid`` and
    ``demo_spec``. The whole document, every case included, is checked
    before the first case is written; two entries that would write the same
    case file, a case ``name`` that is not a plain file name, and a case
    name ``<name>_s<seed>`` longer than ``CASE_NAME_MAX`` bytes (the
    longest any case, evaluated or not, may have) are rejected.
    """
    out = args.out or Path("quickstart")
    seed = 0 if args.seed is None else args.seed
    if seed < 0:  # it is also the written config's seed, which must be >= 0
        raise ValidationError(f"--seed must be >= 0, got {seed}")
    path = args.config or Path(__file__).with_name("quickstart.json")
    doc = read_json(path, _SYNTH, what="synth config")
    grid = demo_grid(**{"length_m" if key == "L_b" else key: value
                        for key, value in doc.get("grid", {}).items()})
    specs = {"training": [], "evaluation": []}  # (case seed, spec) pairs
    writers = {}  # case name -> the entry that writes it
    for group, pairs in specs.items():
        for i, entry in enumerate(doc.get(group, [])):
            key = f"{group}[{i}]"
            name = entry["name"]  # each case file is named after it
            if not plain_name(name):
                raise SchemaError(f"{path}: '{key}.name' must be a plain "
                                  f"file name, got {name!r}")
            if len(os.fsencode(f"{name}_s0")) > CASE_NAME_MAX:
                raise SchemaError(f"{path}: '{key}.name' makes a case name "
                                  f"longer than {CASE_NAME_MAX} bytes")
            # every case key but name and seeds is a demo_spec argument
            options = {k: v for k, v in entry.items() if k not in ("name", "seeds")}
            for s in entry.get("seeds", [0]):
                if seed + s < 0:
                    raise SchemaError(f"{path}: '{key}.seeds': --seed "
                                      f"{seed} plus seed {s} is negative")
                if len(os.fsencode(f"{name}_s{s}")) > CASE_NAME_MAX:
                    raise SchemaError(f"{path}: '{key}.seeds' makes a case "
                                      f"name longer than {CASE_NAME_MAX} bytes")
                try:
                    spec = demo_spec(name=f"{name}_s{s}", grid=grid,
                                     **options)
                except ValidationError as err:
                    raise SchemaError(f"{path}: '{key}': {err}") from err
                if spec.name in writers:  # the later case would overwrite it
                    raise SchemaError(f"{path}: '{writers[spec.name]}' and "
                                      f"'{key}' both write {spec.name}.json")
                writers[spec.name] = key
                pairs.append((seed + s, spec))
    settings = {"out_dir": "results", **doc.get("pipeline", {})}
    if args.seed is not None:
        settings["seed"] = args.seed
    try:  # the config to be written, each case named by its spec
        PipelineConfig(**{**{group: [spec.name for _, spec in pairs]
                             for group, pairs in specs.items()},
                          **settings}).validate_settings()
    except ValidationError as err:
        raise SchemaError(f"{path}: 'pipeline': {err}") from err
    manifests = {group: [generate_case(spec, case_seed, out).name
                         for case_seed, spec in pairs]
                 for group, pairs in specs.items()}
    cfg_path = Path(out) / "pipeline_config.json"
    write_json(cfg_path, {**manifests, **settings})
    print(f"wrote {len(manifests['training'])} training and "
          f"{len(manifests['evaluation'])} evaluation cases under {out}")
    print(f"pipeline config: {cfg_path}")
    return 0


def cmd_plan(args) -> int:
    """Run ``fit-rom`` (load the training cases, decompose, sensors,
    fit-rom) or ``pipeline`` (load every case, the same fit, then estimate
    and report); see ``run_pipeline``."""
    config = PipelineConfig.from_json(args.config, seed=vars(args).get("seed"),
                                      out_dir=args.out)
    result = run_pipeline(config, plan=args.command)
    print(f"{args.command}: wrote {len(result['artifacts'])} artifacts "
          f"to {result['out_dir']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bladesense",
        description="Reconstruct full blade deflection fields from sparse "
                    "noisy sensors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text, func in (
            ("synth", "generate synthetic cases and a config", cmd_synth),
            ("fit-rom", "fit the basis, sensors, ROM, torsion map", cmd_plan),
            ("pipeline", "run every stage, write every artifact", cmd_plan)):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", type=Path, required=name != "synth",
                       help="config JSON path")
        if name != "fit-rom":  # the fit draws no random number
            p.add_argument("--seed", type=int, default=None,
                           help="rng seed override")
        p.add_argument("--out", type=Path, default=None,
                       help="output directory")
        p.set_defaults(func=func)
    return parser


_NUMERICAL = (NumericalError, np.linalg.LinAlgError, FloatingPointError)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except StageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3 if isinstance(err.cause, _NUMERICAL) else 2
    except _NUMERICAL as err:
        print(f"numerical error: {err}", file=sys.stderr)
        return 3
    except (ValidationError, OSError) as err:  # a bad path included
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
