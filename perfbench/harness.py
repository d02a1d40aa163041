"""Helpers of the benchmark: child processes, statistics, output checks,
counters computed from the files a run leaves, and span aggregation.

Standard library only, so the benchmark process stays small and the
numbers it reports come from the children it starts.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import subprocess
import threading
import time
from pathlib import Path

# ----------------------------------------------------------------- statistics

TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(values):
    """Highest of TAIL_CANDIDATES with at least MIN_BEYOND samples beyond it.

    Returns ``(p, value)``, or ``None`` when there are too few samples for
    any candidate.
    """
    n = len(values)
    for p in TAIL_CANDIDATES:
        if n * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9:
            return p, percentile(values, p)
    return None


def summarize(values) -> dict:
    """Median, the tail percentile the sample count supports, and the count."""
    out = {"n": len(values), "median": percentile(values, 50.0) if values else None}
    tail = tail_percentile(values)
    if tail is not None:
        out[f"p{tail[0]:g}"] = tail[1]
    return out


def interquartile_mean(values) -> float:
    """Mean of the middle half: drops the lowest and the highest
    ``len // 4`` values (none of fewer than four)."""
    xs = sorted(values)
    k = len(xs) // 4
    kept = xs[k:len(xs) - k]
    return sum(kept) / len(kept)


def per_step_iqm(slices) -> list:
    """Each step's interquartile mean over its repeats, from ``(slice
    index, times)`` pairs where every repeat of a slice times the same
    steps in order.

    The host alternates, in episodes of a few seconds, between a fast phase
    and one that runs the same code up to 2x slower, and it preempts the
    process for milliseconds at random. Percentiles of all timings pooled
    jump with both from run to run: the median between the two phases, the
    99th percentile with the preemptions. A step's repeats are taken in
    different rounds; their interquartile mean drops the preempted ones and
    moves smoothly with the share of slow time, so percentiles over steps
    of it follow the program and drift with the host only as much as the
    cold wall times do.
    """
    by_slice: dict = {}
    for index, times in slices:
        by_slice.setdefault(index, []).append(times)
    return [interquartile_mean(repeats)
            for runs in by_slice.values() for repeats in zip(*runs)]


# ------------------------------------------------------------ child processes

class ChildResult:
    def __init__(self, wall_s: float, status: int, maxrss_mb: float,
                 timed_out: bool):
        self.wall_s = wall_s
        self.status = status
        self.maxrss_mb = maxrss_mb
        self.timed_out = timed_out

    @property
    def ok(self) -> bool:
        return self.status == 0 and not self.timed_out


def run_child(cmd, env, cwd, log_path: Path, timeout_s: float) -> ChildResult:
    """Run one child to completion; wall time, exit status, its own peak RSS.

    ``os.wait4`` gives the rusage of this child alone (not the cumulative
    RUSAGE_CHILDREN). A timer kills a child that outlives ``timeout_s``.
    """
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=log,
                                stderr=subprocess.STDOUT)
        killed = threading.Event()

        def _kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(timeout_s, _kill)
        timer.start()
        try:
            _, raw_status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        proc.returncode = os.waitstatus_to_exitcode(raw_status)
    return ChildResult(wall, proc.returncode, usage.ru_maxrss / 1024.0,
                       killed.is_set())


class ServingChild:
    """A child that answers each line written to its stdin with one line.

    Used for the warm step-latency child: it stays alive, idle, between
    requests. A timer kills it when one answer takes longer than
    ``timeout_s``; a dead child answers with an empty string.
    """

    def __init__(self, cmd, env, cwd, log_path: Path, timeout_s: float):
        self.timeout_s = timeout_s
        self._log = open(log_path, "wb")
        self.proc = subprocess.Popen(cmd, env=env, cwd=cwd,
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=self._log)

    def readline(self) -> str:
        timer = threading.Timer(self.timeout_s, self.proc.kill)
        timer.start()
        try:
            return self.proc.stdout.readline().decode("utf-8", "replace")
        finally:
            timer.cancel()
            timer.join()

    def request(self, line: str) -> str:
        try:
            self.proc.stdin.write(line.encode("utf-8") + b"\n")
            self.proc.stdin.flush()
        except OSError:
            return ""
        return self.readline()

    def close(self) -> int:
        """Close stdin, wait for the exit (killing on timeout), return its code."""
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            code = self.proc.wait(timeout=self.timeout_s)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self.proc.stdout.close()
        self._log.close()
        return code


# --------------------------------------------------------------- output checks

SUMMARIES = ("error_summary.json", "torsion_summary.json")


def _all_finite(node) -> bool:
    if isinstance(node, dict):
        return all(_all_finite(v) for v in node.values())
    if isinstance(node, list):
        return all(_all_finite(v) for v in node)
    if isinstance(node, float):
        return math.isfinite(node)
    return True


def check_outputs(out_dir: Path, summaries=SUMMARIES) -> list:
    """Problems with one run's output directory; an empty list means fine.

    A run fails when it leaves a FAILED marker, when ``artifacts.json`` does
    not list exactly the files on disk, or when a summary it must write is
    missing or holds a non-finite number.
    """
    out_dir = Path(out_dir)
    problems = []
    if (out_dir / "FAILED").exists():
        problems.append("FAILED marker: " + (out_dir / "FAILED").read_text(
            encoding="utf-8", errors="replace").strip().replace("\n", "; "))
    index = out_dir / "artifacts.json"
    try:
        listed = set(json.loads(index.read_text(encoding="utf-8"))["files"])
    except (OSError, ValueError, KeyError, TypeError) as err:
        problems.append(f"artifacts.json unreadable: {err}")
        listed = None
    if listed is not None:
        on_disk = {p.name for p in out_dir.iterdir() if p.is_file()}
        on_disk -= {"artifacts.json", "FAILED"}
        if listed != on_disk:
            problems.append("artifacts.json does not match the files on disk: "
                            f"missing {sorted(listed - on_disk)[:3]}, "
                            f"unlisted {sorted(on_disk - listed)[:3]}")
    for name in summaries:
        try:
            doc = json.loads((out_dir / name).read_text(encoding="utf-8"))
        except (OSError, ValueError) as err:
            problems.append(f"{name} unreadable: {err}")
            continue
        if not _all_finite(doc):
            problems.append(f"{name} holds a non-finite number")
    return problems


def digest_tree(root: Path) -> dict:
    """sha256 of every file under ``root``, keyed by relative path."""
    root = Path(root)
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[path.relative_to(root).as_posix()] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    return out


def diff_digests(reference: dict, other: dict) -> list:
    """Names of files that differ, or exist on one side only."""
    names = set(reference) | set(other)
    return sorted(n for n in names if reference.get(n) != other.get(n))


# ------------------------------------------- counters computed from the files

def fused_rmse(error_summary: dict) -> float:
    """Mean over evaluation cases of ``reduced_rmse_total.fused``."""
    cases = error_summary["cases"].values()
    return sum(c["reduced_rmse_total"]["fused"] for c in cases) / len(cases)


def torsion_rmse(torsion_summary: dict) -> float:
    """Mean torsion RMSE over evaluation cases, stations and components."""
    vals = [comp["rmse"]
            for stations in torsion_summary["evaluation"].values()
            for st in stations for comp in st["components"].values()]
    return sum(vals) / len(vals)


def regularized_ratio(error_summary: dict) -> float:
    fusion = error_summary["fusion"]
    return fusion["regularized"] / fusion["steps"] if fusion["steps"] else 0.0


def manifest_files(manifest_path, with_torsion: bool) -> list:
    """The manifest plus the data files a load (or save) of it touches."""
    manifest_path = Path(manifest_path)
    doc = json.loads(manifest_path.read_text(encoding="utf-8"))
    keys = ["grid_file", "snapshot_file"]
    if with_torsion and "torsion_file" in doc:
        keys.append("torsion_file")
    return [manifest_path] + [manifest_path.parent / doc[k] for k in keys]


def read_volume(reads) -> tuple:
    """(bytes read, unique bytes on disk) of ``(manifest, with_torsion)`` loads."""
    total, unique = 0, {}
    for manifest, with_torsion in reads:
        for f in manifest_files(manifest, with_torsion):
            size = f.stat().st_size
            total += size
            unique[f.resolve()] = size
    return total, sum(unique.values())


def column(csv_path: Path, name: str) -> list:
    with open(csv_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        j = next(reader).index(name)
        return [float(row[j]) for row in reader]


def clamped_share(rom_doc: dict, eval_manifests) -> float:
    """Share of evaluation steps whose ``u_filt`` lies outside the trained
    speeds of the nearest TI label in ``rom.json`` (the ROM then clamps)."""
    clamped = total = 0
    labels = sorted({c["ti"] for c in rom_doc["conditions"]})
    for manifest in eval_manifests:
        doc = json.loads(Path(manifest).read_text(encoding="utf-8"))
        ti = min(labels, key=lambda lab: abs(lab - doc["ti"]))
        speeds = sorted(c["u_mean"] for c in rom_doc["conditions"] if c["ti"] == ti)
        u = column(Path(manifest).parent / doc["snapshot_file"], "u_filt")
        total += len(u)
        if len(speeds) == 1:
            clamped += len(u)
        else:
            clamped += sum(1 for v in u if v <= speeds[0] or v >= speeds[-1])
    return clamped / total if total else 0.0


def tree_mb(root: Path) -> float:
    return sum(p.stat().st_size for p in Path(root).rglob("*") if p.is_file()) / 1e6


# ----------------------------------------------------------- span aggregation

def span_table(doc: dict) -> list:
    """Spans as dicts with name, start, end, parent, note, dur and self time.

    Self time is the duration minus the time of the direct children; the
    traced program runs one thread, so children never overlap.
    """
    names = doc["names"]
    spans = [{"name": names[i], "start": s, "end": e, "parent": p, "note": n,
              "dur": e - s, "children_s": 0.0}
             for i, s, e, p, n in doc["spans"]]
    for sp in spans:
        if sp["parent"] >= 0:
            spans[sp["parent"]]["children_s"] += sp["dur"]
    for sp in spans:
        sp["self"] = sp["dur"] - sp["children_s"]
    return spans


def by_name(spans) -> dict:
    """name -> {"calls", "total_s", "self_s"} over all spans of that name."""
    out = {}
    for sp in spans:
        agg = out.setdefault(sp["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["total_s"] += sp["dur"]
        agg["self_s"] += sp["self"]
    return out


def nesting_problems(spans) -> list:
    """Spans that do not lie inside their parent, or whose self time plus
    children's time differs from their duration."""
    problems = []
    for sp in spans:
        if sp["parent"] >= 0:
            parent = spans[sp["parent"]]
            if sp["start"] < parent["start"] or sp["end"] > parent["end"]:
                problems.append(f"{sp['name']} escapes its parent {parent['name']}")
        if abs(sp["self"] + sp["children_s"] - sp["dur"]) > 1e-9 or sp["self"] < -1e-9:
            problems.append(f"{sp['name']}: self + children != duration")
    return problems
