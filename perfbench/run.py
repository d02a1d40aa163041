"""bladesense benchmark: cold CLI runs, warm per-step latency, traced layers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is taken from
``src/`` (no install needed). ``--seed`` drives ``bladesense synth``, so
the same seed gives the same inputs. The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. A fuller record (sample counts, tail percentiles, failure
reasons, environment) goes to ``.bench_results/``. See README.md here.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys
import time
from importlib import metadata
from pathlib import Path

import harness as h

HERE = Path(__file__).resolve().parent
WORKLOADS = ("long_record", "fine_grid")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

MIN_ROUNDS = 3        # cold synth / pipeline / fit-rom rounds per run, at least
MAX_ROUNDS = 8
MIN_STEP_REPEATS = 4  # warm timings of each step per run, at least
TRACED_RUNS = 2       # traced pipeline runs, each paired with an untraced one
CHILD_TIMEOUT_S = 150.0
REFERENCE_SEED = 0         # synth seed of the accuracy reference dataset
DATASET_STRIDE = 100_000   # spacing of the synth seeds of different runs

END_TO_END = {
    "pipeline_s": "s", "setup_s": "s", "synth_s": "s", "peak_rss_mb": "MB",
    "step_us_p50": "us", "step_us_p99": "us",
    "fused_rmse": "1", "torsion_rmse": "rad",
}

STAGES = ("load", "decompose", "sensors", "fit-rom", "estimate", "torsion",
          "report", "index")

PER_LAYER = {
    "import_s": "s",
    "dataset.read_s": "s", "dataset.read_calls": "count",
    "dataset.read_mb": "MB", "dataset.read_mb_per_s": "MB/s",
    "dataset.reread_ratio": "ratio",
    "dataset.write_s": "s", "dataset.write_mb": "MB",
    "decomposition.pod_fit_s": "s", "decomposition.project_s": "s",
    "decomposition.project_calls": "count",
    "sensing.place_s": "s", "sensing.observe_us": "us",
    "sensing.sparse_estimate_us": "us", "sensing.calls": "count",
    "azimuthal_rom.bin_statistics_s": "s", "azimuthal_rom.fit_s": "s",
    "azimuthal_rom.evaluate_us": "us", "azimuthal_rom.evaluate_calls": "count",
    "azimuthal_rom.clamped_share": "ratio",
    "fusion.fuse_us": "us", "fusion.calls": "count",
    "fusion.regularized_ratio": "ratio",
    "torsion.pod_s": "s", "torsion.fit_map_s": "s", "torsion.infer_us": "us",
    "torsion.infer_calls": "count",
    "spectral.psd_s": "s", "svgplot.plot_s": "s", "svgplot.calls": "count",
    "synthetic.generate_s": "s",
    **{f"pipeline.{s.replace('-', '_')}_s": "s" for s in STAGES},
    **{f"pipeline.{s.replace('-', '_')}_self_s": "s" for s in STAGES},
    "pipeline.write_mb": "MB",
    "trace_overhead_s": "s",
}

_PLOTS = ("svgplot.line_plot", "svgplot.histogram_plot", "svgplot.scatter_plot")
_READS = ("dataset.load_case", "dataset.load_torsion")
_DECOMPOSITION = ("decomposition.pod_fit", "decomposition.project")
_ESTIMATOR = ("sensing.observe", "sensing.sparse_estimate",
              "azimuthal_rom.evaluate_rom", "fusion.fuse")


class BenchError(Exception):
    """The benchmark cannot produce a result."""


class Ops:
    """Attempted and failed operations, with the reason of each failure."""

    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.problems)

    def record(self, label: str, problems) -> bool:
        self.attempted += 1
        if problems:
            self.problems.append(f"{label}: " + " | ".join(problems))
            return False
        return True


class Runner:
    """Starts the program's children from the checkout root, one at a time."""

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        self.env = dict(os.environ)
        src = str(root / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self.env.update({v: "1" for v in THREAD_VARS})

    def cli(self, label: str, *args) -> h.ChildResult:
        return self.python(label, "-m", "bladesense", *args)

    def python(self, label: str, *args) -> h.ChildResult:
        return h.run_child([sys.executable, *map(str, args)], self.env,
                           self.root, self.work / f"{label}.log",
                           CHILD_TIMEOUT_S)

    def exit_problems(self, label: str, res: h.ChildResult) -> list:
        if res.ok:
            return []
        tail = (self.work / f"{label}.log").read_text(
            encoding="utf-8", errors="replace").strip().splitlines()[-2:]
        why = "timed out" if res.timed_out else f"exit {res.status}"
        return [f"{why}: {' / '.join(tail)}"]


def _determinism(label: str, refs: dict, key: str, out: Path) -> list:
    """Compare ``out`` with the first run of the same kind in this run."""
    digests = h.digest_tree(out)
    if key not in refs:
        refs[key] = digests
        return []
    diff = h.diff_digests(refs[key], digests)
    return [f"{label} not byte-identical to the first run: {diff[:3]}"] if diff else []


def _median(values, what: str) -> float:
    if not values:
        raise BenchError(f"no successful sample of {what}")
    return h.percentile(values, 50.0)


# ------------------------------------------------------------ end-to-end run

def measure(args, runner: Runner, ops: Ops, spec: Path) -> tuple:
    """Rounds of a cold synth, pipeline and fit-rom, as many as fit in
    ``args.seconds`` (at least MIN_ROUNDS). After each cold child the warm
    step child times one slice of the evaluation steps.

    Rounds 0 and 1 use the workload's reference dataset (synth seed
    REFERENCE_SEED): the accuracy metrics and the warm step passes come from
    it, and round 1 checks that synth, pipeline and fit-rom are
    byte-deterministic. Every later round generates a new dataset from
    ``args.seed``. Accuracy varies strongly between datasets (the fused
    error follows the random wind and modal excursions of a record), so it
    is read on one fixed dataset and compared exactly across commits; the
    seeded datasets' accuracy goes to the detail record.
    """
    work = runner.work
    samples = {"synth_s": [], "setup_s": [], "pipeline_s": [], "peak_rss_mb": []}
    accuracy: dict = {}   # synth seed -> (fused, torsion, sparse) RMSE
    refs: dict = {}
    steps = None
    t_start = time.perf_counter()
    try:
        for r in range(MAX_ROUNDS):
            elapsed = time.perf_counter() - t_start
            # stop when another round of average length would overrun
            if r >= MIN_ROUNDS and elapsed * (r + 1) / r > args.seconds:
                break
            seed = (REFERENCE_SEED if r < 2
                    else DATASET_STRIDE * (args.seed + 1) + r)
            data, pipe, fit = (work / f"{kind}{r}" for kind in ("data", "pipeline", "fitrom"))
            config = data / "pipeline_config.json"

            label = f"synth{r}"
            res = runner.cli(label, "synth", "--config", spec,
                             "--seed", seed, "--out", data)
            problems = runner.exit_problems(label, res)
            if not problems:
                problems = _determinism(label, refs, ("synth", seed), data)
            if not ops.record(label, problems):
                continue
            samples["synth_s"].append(res.wall_s)
            if steps is not None:
                steps.sample(ops, f"steps{r}a")

            label = f"pipeline{r}"
            res = runner.cli(label, "pipeline", "--config", config, "--out", pipe)
            problems = runner.exit_problems(label, res) or h.check_outputs(pipe)
            if not problems:
                problems = _determinism(label, refs, ("pipeline", seed), pipe)
            pipeline_ok = ops.record(label, problems)
            if pipeline_ok:
                samples["pipeline_s"].append(res.wall_s)
                samples["peak_rss_mb"].append(res.maxrss_mb)
                accuracy[seed] = _accuracy(pipe)
            if steps is not None:
                steps.sample(ops, f"steps{r}b")

            # fit-rom is the set-up a user waits for before the first estimate
            label = f"fitrom{r}"
            res = runner.cli(label, "fit-rom", "--config", config, "--out", fit)
            problems = runner.exit_problems(label, res) or h.check_outputs(fit, ())
            if not problems:
                problems = _determinism(label, refs, ("fit-rom", seed), fit)
            if not problems and ("pipeline", seed) in refs:
                fitted = {k: v for k, v in h.digest_tree(fit).items()
                          if k != "artifacts.json"}
                differ = h.diff_digests(fitted, {k: refs[("pipeline", seed)].get(k)
                                                 for k in fitted})
                if differ:
                    problems = [f"fit-rom and pipeline disagree on {differ[:3]}"]
            if ops.record(label, problems):
                samples["setup_s"].append(res.wall_s)

            if steps is None and pipeline_ok:
                steps = WarmSteps(runner, config, pipe)
            if steps is not None:
                steps.sample(ops, f"steps{r}")
            for d in (data, pipe, fit) if r else ():
                shutil.rmtree(d, ignore_errors=True)
        # short runs: top up until every step has MIN_STEP_REPEATS repeats
        for i in range(MIN_STEP_REPEATS * (steps.parts if steps else 0)):
            if steps.repeats() >= MIN_STEP_REPEATS:
                break
            steps.sample(ops, f"steps-extra{i}")
    finally:
        if steps is not None and steps.close() != 0:
            ops.record("steps-exit", ["warm step child exited non-zero"])

    if REFERENCE_SEED not in accuracy or steps is None or not steps.slices:
        raise BenchError("no reference pipeline run or step pass succeeded; "
                         + "; ".join(ops.problems))
    metrics = {name: _median(values, name) for name, values in samples.items()}
    per_step = h.per_step_iqm(steps.slices)
    pooled = [us for _, times in steps.slices for us in times]
    metrics["step_us_p50"] = h.percentile(per_step, 50.0)
    metrics["step_us_p99"] = h.percentile(per_step, 99.0)
    metrics["fused_rmse"], metrics["torsion_rmse"], sparse = accuracy.pop(REFERENCE_SEED)
    detail = {name: h.summarize(values) for name, values in samples.items()}
    detail["step_us_per_step_iqm"] = h.summarize(per_step)
    detail["step_us_pooled"] = h.summarize(pooled)
    detail["reference_sparse_rmse"] = sparse
    detail["seeded_rmse"] = {f"synth seed {k}": dict(zip(("fused", "torsion", "sparse"), v))
                             for k, v in accuracy.items()}
    return metrics, detail


class WarmSteps:
    """The warm step child (steps.py), asked for one slice of the evaluation
    steps after every cold child, so the timed steps spread over the run
    and each step is timed in several rounds. Successive slices run on
    alternating CPUs, so that a long-lived child does not stay on one of
    them while the cold children land on either."""

    SLICES = 2
    MIN_SLICE_STEPS = 1000     # fewer steps than this per slice: whole passes
    MIN_REQUEST_STEPS = 2000   # fewer steps than this per slice: repeat it

    def __init__(self, runner: Runner, config: Path, pipeline_out: Path):
        self.child = h.ServingChild(
            [sys.executable, str(HERE / "steps.py"), str(config),
             str(pipeline_out / "rom.json")],
            runner.env, runner.root, runner.work / "steps.log", CHILD_TIMEOUT_S)
        self.n_steps = _eval_steps(pipeline_out)
        # short records are timed whole each time, so that every request
        # repeats each of their steps
        self.parts = max(1, min(self.SLICES, self.n_steps // self.MIN_SLICE_STEPS))
        # and timed several times per request, so that every step has enough
        # repeats for its interquartile mean to drop the preempted ones
        self.passes = -(-self.MIN_REQUEST_STEPS * self.parts // self.n_steps)
        self.slices: list = []   # (slice index, step times in us), one per pass
        self.requests = 0
        self.cpus = (sorted(os.sched_getaffinity(0))
                     if hasattr(os, "sched_setaffinity") else [])
        if self.child.readline().strip() != "ready":
            self.close()
            raise BenchError("warm step child did not start: "
                             + (runner.work / "steps.log").read_text(
                                 encoding="utf-8", errors="replace")[-300:])

    def sample(self, ops: Ops, label: str) -> None:
        part = self.requests % self.parts
        if self.cpus:
            os.sched_setaffinity(self.child.proc.pid,
                                 {self.cpus[self.requests % len(self.cpus)]})
        self.requests += 1
        expected = ((part + 1) * self.n_steps // self.parts
                    - part * self.n_steps // self.parts)
        answer = self.child.request(f"{part} {self.parts} {self.passes}")
        if not answer:
            ops.record(label, ["warm step child died"])
            return
        doc = json.loads(answer)
        problems = []
        if not doc["finite"]:
            problems.append("step loop produced a non-finite estimate")
        counts = [len(times) for times in doc["step_ns"]]
        if counts != [expected] * self.passes:
            problems.append(f"timed {counts} steps per pass, expected {expected}")
        if ops.record(label, problems):
            self.slices.extend((part, [ns / 1000.0 for ns in times])
                               for times in doc["step_ns"])

    def repeats(self) -> int:
        """Fewest successful repeats of any slice."""
        return min(sum(1 for p, _ in self.slices if p == part)
                   for part in range(self.parts))

    def close(self) -> int:
        return self.child.close()


def _accuracy(pipeline_out: Path) -> tuple:
    err = json.loads((pipeline_out / "error_summary.json").read_text(encoding="utf-8"))
    tor = json.loads((pipeline_out / "torsion_summary.json").read_text(encoding="utf-8"))
    sparse = sum(c["reduced_rmse_total"]["sparse"]
                 for c in err["cases"].values()) / len(err["cases"])
    return h.fused_rmse(err), h.torsion_rmse(tor), sparse


def _eval_steps(pipeline_out: Path) -> int:
    err = json.loads((pipeline_out / "error_summary.json").read_text(encoding="utf-8"))
    return sum(c["n_steps"] for c in err["cases"].values())


# ----------------------------------------------------------------- traced run

def layer_metrics(doc: dict, out_dir: Path, eval_manifests, root: Path) -> tuple:
    """Per-layer metrics of one traced pipeline run, its split, span checks."""
    spans = h.span_table(doc)
    agg = h.by_name(spans)

    def calls(name):
        return agg.get(name, {}).get("calls", 0)

    def total(name, key="total_s"):
        return agg.get(name, {}).get(key, 0.0)

    def mean_us(name):
        return total(name) / calls(name) * 1e6 if calls(name) else 0.0

    reads = [(root / sp["note"], sp["name"] == "dataset.load_torsion")
             for sp in spans if sp["name"] in _READS and sp["note"]]
    read_bytes, unique_bytes = h.read_volume(reads)
    read_s = sum(total(n) for n in _READS)
    err = json.loads((out_dir / "error_summary.json").read_text(encoding="utf-8"))
    rom = json.loads((out_dir / "rom.json").read_text(encoding="utf-8"))

    m = {
        "import_s": doc["import_s"],
        "dataset.read_s": read_s,
        "dataset.read_calls": sum(calls(n) for n in _READS),
        "dataset.read_mb": read_bytes / 1e6,
        "dataset.read_mb_per_s": read_bytes / 1e6 / read_s if read_s else 0.0,
        "dataset.reread_ratio": read_bytes / unique_bytes if unique_bytes else 0.0,
        "decomposition.pod_fit_s": total("decomposition.pod_fit"),
        "decomposition.project_s": total("decomposition.project"),
        "decomposition.project_calls": calls("decomposition.project"),
        "sensing.place_s": total("sensing.place_sensors"),
        "sensing.observe_us": mean_us("sensing.observe"),
        "sensing.sparse_estimate_us": mean_us("sensing.sparse_estimate"),
        "sensing.calls": calls("sensing.observe") + calls("sensing.sparse_estimate"),
        "azimuthal_rom.bin_statistics_s": total("azimuthal_rom.bin_statistics"),
        "azimuthal_rom.fit_s": total("azimuthal_rom.fit_rom"),
        "azimuthal_rom.evaluate_us": mean_us("azimuthal_rom.evaluate_rom"),
        "azimuthal_rom.evaluate_calls": calls("azimuthal_rom.evaluate_rom"),
        "azimuthal_rom.clamped_share": h.clamped_share(rom, eval_manifests),
        "fusion.fuse_us": mean_us("fusion.fuse"),
        "fusion.calls": calls("fusion.fuse"),
        "fusion.regularized_ratio": h.regularized_ratio(err),
        "torsion.pod_s": total("torsion.torsion_pod"),
        "torsion.fit_map_s": total("torsion.fit_torsion_map"),
        "torsion.infer_us": mean_us("torsion.infer_torsion"),
        "torsion.infer_calls": calls("torsion.infer_torsion"),
        "spectral.psd_s": total("spectral.psd"),
        "svgplot.plot_s": sum(total(n) for n in _PLOTS),
        "svgplot.calls": sum(calls(n) for n in _PLOTS),
        "pipeline.write_mb": h.tree_mb(out_dir),
    }
    for stage in STAGES:
        key = stage.replace("-", "_")
        m[f"pipeline.{key}_s"] = total(f"pipeline.{stage}")
        m[f"pipeline.{key}_self_s"] = total(f"pipeline.{stage}", "self_s")
    return m, split_shares(spans), h.nesting_problems(spans)


def split_shares(spans) -> dict:
    """Where the pipeline time goes: the shares each workload is built on."""
    def dur(names, parent=None):
        return sum(sp["dur"] for sp in spans if sp["name"] in names and (
            parent is None or (sp["parent"] >= 0
                               and spans[sp["parent"]]["name"] == parent)))

    stages_s = dur({f"pipeline.{s}" for s in STAGES})
    estimate_s = dur({"pipeline.estimate"})
    per_step = dur(_ESTIMATOR, parent="pipeline.estimate")
    return {
        "stages_s": stages_s,
        "estimator_layers_of_estimate": per_step / estimate_s if estimate_s else 0.0,
        "estimator_layers_of_pipeline": per_step / stages_s if stages_s else 0.0,
        "decomposition_of_pipeline":
            dur(_DECOMPOSITION) / stages_s if stages_s else 0.0,
        "dataset_decomposition_torsion_pod_of_pipeline":
            dur(_READS + _DECOMPOSITION + ("torsion.torsion_pod",)) / stages_s
            if stages_s else 0.0,
    }


def trace(args, runner: Runner, ops: Ops, spec: Path) -> tuple:
    work, root = runner.work, runner.root
    inputs = work / "inputs"
    config = inputs / "pipeline_config.json"
    tracer = HERE / "tracer.py"

    label = "synth-traced"
    res = runner.python(label, tracer, work / "spans-synth.json", "--",
                        "synth", "--config", spec, "--seed", args.seed,
                        "--out", inputs)
    if not ops.record(label, runner.exit_problems(label, res)):
        raise BenchError("; ".join(ops.problems))
    synth_spans = h.span_table(json.loads(
        (work / "spans-synth.json").read_text(encoding="utf-8")))
    writes = [root / sp["note"] for sp in synth_spans
              if sp["name"] == "dataset.save_case" and sp["note"]]
    synth_agg = h.by_name(synth_spans)
    eval_manifests = [inputs / p for p in json.loads(
        config.read_text(encoding="utf-8"))["evaluation"]]

    refs: dict = {}
    walls = {"untraced": [], "traced": []}
    per_run, splits = [], []
    for i in range(TRACED_RUNS):
        for kind in ("untraced", "traced"):
            label = f"pipeline-{kind}{i}"
            out = work / label
            spans_path = work / f"spans{i}.json"
            cli = ("pipeline", "--config", config, "--out", out)
            res = (runner.python(label, tracer, spans_path, "--", *cli)
                   if kind == "traced" else runner.cli(label, *cli))
            problems = runner.exit_problems(label, res) or h.check_outputs(out)
            if not problems:
                problems = _determinism(label, refs, "pipeline", out)
            if not problems and kind == "traced":
                m, split, problems = layer_metrics(
                    json.loads(spans_path.read_text(encoding="utf-8")), out,
                    eval_manifests, root)
                per_run.append(m)
                splits.append(split)
            if ops.record(label, problems):
                walls[kind].append(res.wall_s)
    if not per_run or not walls["untraced"]:
        raise BenchError("; ".join(ops.problems))

    metrics = {name: h.percentile([m[name] for m in per_run], 50.0)
               for name in per_run[0]}
    metrics["dataset.write_s"] = synth_agg.get("dataset.save_case", {}).get("total_s", 0.0)
    metrics["dataset.write_mb"] = sum(
        f.stat().st_size for w in writes for f in h.manifest_files(w, True)) / 1e6
    metrics["synthetic.generate_s"] = synth_agg.get(
        "synthetic.generate_case", {}).get("self_s", 0.0)
    metrics["trace_overhead_s"] = (_median(walls["traced"], "traced pipeline")
                                   - _median(walls["untraced"], "untraced pipeline"))
    detail = {"pipeline_wall_s": {k: h.summarize(v) for k, v in walls.items()},
              "split": {k: h.percentile([sp[k] for sp in splits], 50.0)
                        for k in splits[0]}}
    return metrics, detail


# ---------------------------------------------------------------- environment

def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(), "cpu_model": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # a terminated run still stops and reaps its children (finally blocks)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    root = Path.cwd()
    if not (root / "src" / "bladesense" / "__init__.py").is_file():
        print(f"error: no bladesense sources under {root / 'src'}; run from "
              "the root of a source checkout", file=sys.stderr)
        return 2
    os.environ.update({v: "1" for v in THREAD_VARS})
    spec = HERE / "workloads" / f"{args.workload}.json"
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = environment()
    env["loadavg_start"] = os.getloadavg()
    ops = Ops()
    try:
        runner = Runner(root, work)
        metrics, detail = (trace if args.trace else measure)(args, runner, ops, spec)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_end"] = os.getloadavg()

    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "failed_ratio": ops.failed / ops.attempted,
              "failures": ops.problems, "environment": env,
              "detail": detail, "result": result}
    results = root / ".bench_results"
    results.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
     ).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for failure in ops.problems:
        print(f"FAILED {failure}")
    print(json.dumps({"environment": env, "detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
