"""Warm per-step latency of the online estimator, the README "Library" loop.

    python perfbench/steps.py CONFIG.json ROM.json

Calibrates from the config's training cases through the public API (POD of
the pooled training data, QR sensor placement, the noise model) and takes
the azimuthal ROM from ``ROM.json``, the ``rom.json`` a pipeline run wrote
for the same config. After a warm-up it prints ``ready`` and then answers
each request line ``K N R`` on standard input with one JSON line: R lists
of the times, in nanoseconds, of ``observe -> sparse_estimate ->
evaluate_rom -> fuse`` (a batch of one) for each step of the K-th of N
equal slices of all evaluation steps, one list per pass over the slice.
Before it times a slice it runs the slice's first
REWARM_STEPS steps untimed: the cold processes the caller starts between
requests evict the child's caches, and its first step after the pause
took ≈ 2.5x as long as the next ones, a pause cost rather than a step cost.
It exits when standard input closes. Staying alive between requests lets
the caller spread the timed slices over a whole run while the process stays
warm.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

from bladesense import (NoiseModel, SnapshotEnsemble, evaluate_rom, fuse,
                        load_case, load_rom, observe, place_sensors, pod_fit,
                        sparse_estimate)

WARMUP_STEPS = 200
REWARM_STEPS = 32


def _pooled(ensembles) -> SnapshotEnsemble:
    first = ensembles[0]
    D = np.hstack([e.D for e in ensembles])
    return SnapshotEnsemble(
        grid=first.grid, D=D, t=np.arange(D.shape[1]) / first.f_s,
        theta=np.concatenate([e.theta for e in ensembles]),
        omega=np.concatenate([e.omega for e in ensembles]),
        u_raw=np.concatenate([e.u_raw for e in ensembles]),
        u_filt=np.concatenate([e.u_filt for e in ensembles]),
        condition=first.condition, f_s=first.f_s)


def main(argv) -> int:
    config_path, rom_path = (Path(a) for a in argv)
    cfg = json.loads(config_path.read_text(encoding="utf-8"))
    base = config_path.parent
    train = [load_case(base / p)[1] for p in cfg["training"]]
    evaluation = [load_case(base / p)[1] for p in cfg["evaluation"]]
    n_sensors = int(cfg.get("n_sensors", 4))
    mode = cfg.get("estimation_mode", "gram_corrected")
    basis = pod_fit(_pooled(train), int(cfg.get("n_modes", 4)))
    sensors = place_sensors(basis, n_sensors, pivot=cfg.get("pivot", "station"))
    noise = NoiseModel.from_config(cfg.get("noise", 0.1), n_sensors)
    rom = load_rom(rom_path)
    rng = np.random.default_rng(int(cfg.get("seed", 0)))

    def step(e, k):
        y = observe(e.D[:, k], sensors, noise, rng)
        measurement = sparse_estimate(y, sensors, noise, mode)
        prior = evaluate_rom(rom, e.theta[k], e.u_filt[k], e.condition.ti)
        fused, _ = fuse(prior, measurement)
        return fused.mean

    for k in range(min(WARMUP_STEPS, evaluation[0].n_t)):
        step(evaluation[0], k)
    print("ready", flush=True)

    all_steps = [(e, k) for e in evaluation for k in range(e.n_t)]
    clock = time.perf_counter_ns
    for line in sys.stdin:
        part, parts, passes = (int(v) for v in line.split())
        lo = part * len(all_steps) // parts
        hi = (part + 1) * len(all_steps) // parts
        for e, k in all_steps[lo:hi][:REWARM_STEPS]:
            step(e, k)
        step_ns, finite = [], True
        for _ in range(passes):
            times = []
            for e, k in all_steps[lo:hi]:
                t0 = clock()
                mean = step(e, k)
                times.append(clock() - t0)
                finite = finite and bool(np.all(np.isfinite(mean)))
            step_ns.append(times)
        print(json.dumps({"step_ns": step_ns, "finite": finite}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
