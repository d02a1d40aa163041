"""Self-tests of the benchmark's own helpers (no bladesense run needed)."""

import json
import math
import statistics
from pathlib import Path

import pytest

import harness as h
import run
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent


def test_percentile_matches_statistics_inclusive():
    xs = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    assert h.percentile(xs, 25) == pytest.approx(q1)
    assert h.percentile(xs, 50) == pytest.approx(q2)
    assert h.percentile(xs, 75) == pytest.approx(q3)
    assert h.percentile([2.5], 99) == 2.5


@pytest.mark.parametrize("n, expected", [
    (9, None), (39, None), (40, 75.0), (100, 90.0), (199, 90.0),
    (200, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    tail = h.tail_percentile(list(range(n)))
    if expected is None:
        assert tail is None
    else:
        p, value = tail
        assert p == expected
        assert sum(1 for v in range(n) if v > value) >= 10


def test_summarize_reports_count_median_and_supported_tail():
    out = h.summarize([3.0, 1.0, 2.0])
    assert out == {"n": 3, "median": 2.0}
    assert "p99" in h.summarize([float(i) for i in range(1000)])


def test_interquartile_mean_drops_a_quarter_at_each_end():
    assert h.interquartile_mean([100.0, 2.0, 1.0, 3.0]) == 2.5
    assert h.interquartile_mean([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 80.0]) == 4.5
    assert h.interquartile_mean([1.0, 2.0, 9.0]) == 4.0


def test_per_step_iqm_pairs_each_step_with_its_own_repeats():
    slices = [(0, [1.0, 10.0]), (1, [5.0]), (0, [3.0, 30.0]), (0, [2.0, 90.0]),
              (1, [7.0]), (0, [2.0, 20.0])]
    assert h.per_step_iqm(slices) == [2.0, 25.0, 6.0]


def _doc(spans):
    names = sorted({s[0] for s in spans})
    return {"names": names,
            "spans": [[names.index(n), a, b, p, None] for n, a, b, p in spans]}


def test_self_time_is_span_minus_children():
    spans = h.span_table(_doc([
        ("pipeline.estimate", 0.0, 10.0, -1),
        ("sensing.observe", 1.0, 3.0, 0),
        ("fusion.fuse", 4.0, 8.0, 0),
        ("fusion.inner", 5.0, 6.0, 2),
    ]))
    assert [sp["self"] for sp in spans] == pytest.approx([4.0, 2.0, 3.0, 1.0])
    agg = h.by_name(spans)
    assert agg["pipeline.estimate"] == {"calls": 1, "total_s": 10.0, "self_s": 4.0}
    assert h.nesting_problems(spans) == []


def test_nesting_problems_flags_a_child_outside_its_parent():
    spans = h.span_table(_doc([("a", 0.0, 1.0, -1), ("b", 0.5, 2.0, 0)]))
    assert any("escapes" in p for p in h.nesting_problems(spans))


def test_tracer_records_nesting_and_notes():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("dataset.load_case", lambda path: ("grid", path))
    outer = tracer.wrap("pipeline.load", lambda: inner("case.json"))
    assert outer() == ("grid", "case.json")
    spans = h.span_table(tracer.to_json(import_s=0.0))
    assert [sp["name"] for sp in spans] == ["pipeline.load", "dataset.load_case"]
    assert spans[1]["parent"] == 0 and spans[1]["note"] == "case.json"
    assert spans[0]["self"] + spans[1]["dur"] == spans[0]["dur"]


def test_tracer_closes_span_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("fusion.fuse", boom)()
    (span,) = h.span_table(tracer.to_json())
    assert span["end"] >= span["start"] and tracer._stack == []


def _write_run(out: Path, files, summaries=None):
    out.mkdir()
    for name in files:
        (out / name).write_text("x\n", encoding="utf-8")
    for name, doc in (summaries or {}).items():
        (out / name).write_text(json.dumps(doc), encoding="utf-8")
    listed = list(files) + list(summaries or {})
    (out / "artifacts.json").write_text(json.dumps({"files": listed}),
                                        encoding="utf-8")


def test_check_outputs_accepts_a_complete_run(tmp_path):
    _write_run(tmp_path / "r", ["modes.csv"], {
        "error_summary.json": {"a": [1.0, 2]}, "torsion_summary.json": {}})
    assert h.check_outputs(tmp_path / "r") == []


def test_check_outputs_flags_marker_index_and_non_finite(tmp_path):
    out = tmp_path / "r"
    _write_run(out, ["modes.csv"], {
        "error_summary.json": {"a": {"b": [math.nan]}},
        "torsion_summary.json": {}})
    (out / "FAILED").write_text("stage: estimate\nerror: boom\n", encoding="utf-8")
    (out / "stray.csv").write_text("", encoding="utf-8")
    problems = " ".join(h.check_outputs(out))
    assert "FAILED marker: stage: estimate" in problems
    assert "stray.csv" in problems
    assert "error_summary.json holds a non-finite number" in problems


def test_check_outputs_flags_a_missing_summary(tmp_path):
    _write_run(tmp_path / "r", ["rom.json"])
    assert h.check_outputs(tmp_path / "r", ()) == []
    assert any("torsion_summary.json" in p for p in h.check_outputs(tmp_path / "r"))


def test_digest_diff_names_changed_and_one_sided_files(tmp_path):
    for d, body in (("a", "1"), ("b", "2")):
        (tmp_path / d).mkdir()
        (tmp_path / d / "same.csv").write_text("s", encoding="utf-8")
        (tmp_path / d / "moved.csv").write_text(body, encoding="utf-8")
    (tmp_path / "b" / "extra.csv").write_text("", encoding="utf-8")
    diff = h.diff_digests(h.digest_tree(tmp_path / "a"), h.digest_tree(tmp_path / "b"))
    assert diff == ["extra.csv", "moved.csv"]


def test_clamped_share_and_read_volume_from_files(tmp_path):
    (tmp_path / "c_grid.csv").write_text("z_norm\n0\n1\n", encoding="utf-8")
    (tmp_path / "c_snap.csv").write_text(
        "t,u_filt\n0,8.0\n1,9.0\n2,10.6\n3,10.0\n", encoding="utf-8")
    manifest = tmp_path / "c.json"
    manifest.write_text(json.dumps({"ti": 0.1, "grid_file": "c_grid.csv",
                                    "snapshot_file": "c_snap.csv"}),
                        encoding="utf-8")
    rom = {"conditions": [{"u_mean": 8.4, "ti": 0.1}, {"u_mean": 10.6, "ti": 0.1}]}
    assert h.clamped_share(rom, [manifest]) == 0.5
    total, unique = h.read_volume([(manifest, False), (manifest, True)])
    assert total == 2 * unique


def test_benchmark_json_lists_exactly_the_metrics_run_prints():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert doc["paths"] == ["perfbench"]
    for name in run.WORKLOADS:
        assert (Path(run.HERE) / "workloads" / f"{name}.json").is_file()
