"""SVG coordinates formatted per element list against the former per-point
formatting: ``_former_*`` are the plot bodies as they were, one ``_fmt``
call per coordinate, kept as the byte-for-byte oracle. A point with a
non-finite coordinate is left out of both, and breaks a line."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest

from bladesense import svgplot
from bladesense.svgplot import (_H, _MB, _ML, _MR, _MT, _PALETTE, _W, _Canvas,
                                _finite_range, _fmt)

_SVG = "{http://www.w3.org/2000/svg}"

SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-30, -1e-30, 5e-324,
           123456789.0, 0.1 + 0.2, 1.0, -2.5e17]


def _former_line_plot(path, series, title="", xlabel="", ylabel="",
                      log_y=False):
    xlim = _finite_range([s[1] for s in series])
    ylim = _finite_range([s[2] for s in series], log=log_y)
    cv = _Canvas(title, xlabel, ylabel, xlim, ylim, log_y=log_y)
    for i, (_, x, y) in enumerate(series):
        px, py = cv.px(x), cv.py(y)
        runs = [[]]  # the finite runs of points, each a polyline
        for a, b in zip(px, py):
            if np.isfinite(a) and np.isfinite(b):
                runs[-1].append(f"{_fmt(a)},{_fmt(b)}")
            elif runs[-1]:
                runs.append([])
        color = _PALETTE[i % len(_PALETTE)]
        for run in filter(None, runs):
            cv.parts.append(
                f'<polyline points="{" ".join(run)}" fill="none" '
                f'stroke="{color}" stroke-width="1.2"/>')
    cv.legend([s[0] for s in series])
    cv.save(path)


def _former_histogram_plot(path, edges, counts_by_label, title="", xlabel=""):
    edges = np.asarray(edges, dtype=float)
    ymax = max(float(np.max(c)) for _, c in counts_by_label) or 1.0
    cv = _Canvas(title, xlabel, "count", (edges[0], edges[-1]), (0.0, ymax))
    for i, (_, counts) in enumerate(counts_by_label):
        xs, ys = [edges[0]], [0.0]
        for j, c in enumerate(counts):
            xs.extend([edges[j], edges[j + 1]])
            ys.extend([c, c])
        xs.append(edges[-1])
        ys.append(0.0)
        px, py = cv.px(xs), cv.py(ys)
        pts = " ".join(f"{_fmt(a)},{_fmt(b)}" for a, b in zip(px, py))
        cv.parts.append(
            f'<polyline points="{pts}" fill="none" '
            f'stroke="{_PALETTE[i % len(_PALETTE)]}" stroke-width="1.2"/>')
    cv.legend([lbl for lbl, _ in counts_by_label])
    cv.save(path)


def _former_scatter_plot(path, x, y, title="", xlabel="", ylabel=""):
    cv = _Canvas(title, xlabel, ylabel, _finite_range([x]), _finite_range([y]))
    px, py = cv.px(x), cv.py(y)
    for a, b in zip(px, py):
        if np.isfinite(a) and np.isfinite(b):
            cv.parts.append(
                f'<circle cx="{_fmt(a)}" cy="{_fmt(b)}" r="1.5" '
                f'fill="{_PALETTE[0]}" fill-opacity="0.5"/>')
    cv.save(path)


def _same_bytes(tmp_path, new, former, *args, **kw):
    new(tmp_path / "new.svg", *args, **kw)
    former(tmp_path / "former.svg", *args, **kw)
    assert (tmp_path / "new.svg").read_bytes() == \
        (tmp_path / "former.svg").read_bytes()


def test_pairs_match_per_value_formatting():
    v = np.array(SPECIAL)
    w = v[::-1].copy()
    expected = " ".join(f"{_fmt(a)},{_fmt(b)}" for a, b in zip(v, w))
    assert svgplot._pairs("%.6g,%.6g", " ", v, w) == expected
    assert "nan" in expected and "-inf" in expected and "-0," in expected
    assert svgplot._pairs("%.6g,%.6g", " ", v[:0], w[:0]) == ""


@pytest.mark.parametrize("log_y", [False, True])
def test_line_plot_bytes(tmp_path, log_y):
    rng = np.random.default_rng(0)
    x = np.linspace(-0.0, 3.0, 3200)
    y = np.exp(rng.standard_normal(3200))
    y[[5, 70, 900]] = [np.nan, np.inf, 1e-30]
    _same_bytes(tmp_path, svgplot.line_plot, _former_line_plot,
                [("a", x, y), ("b", x, -y if not log_y else 2 * y),
                 ("special", np.arange(len(SPECIAL)), np.array(SPECIAL))],
                title="t", xlabel="x", ylabel="y", log_y=log_y)


def test_log_axis_spans_the_positive_values(tmp_path):
    # a smoothed spectrum clipped at zero: the axis starts within a decade
    # of the smallest positive value, and the zeros sit on its floor
    x = np.arange(50.0)
    y = np.geomspace(3e-3, 20.0, 50)
    y[[3, 7, 49]] = 0.0
    series = [("a", x, y), ("b", x, 2 * y)]
    svgplot.line_plot(tmp_path / "p.svg", series, log_y=True)
    root = ET.parse(tmp_path / "p.svg").getroot()
    ticks = [float(t.text[2:]) for t in root.iter(f"{_SVG}text")
             if t.get("text-anchor") == "end"]
    assert np.log10(3e-3) <= min(ticks) < np.log10(3e-3) + 1
    lines = list(root.iter(f"{_SVG}polyline"))
    assert len(lines) == len(series)
    for line, (_, _, ys) in zip(lines, series):
        pts = np.array([p.split(",") for p in line.get("points").split()],
                       dtype=float)
        assert np.all((pts[:, 0] >= _ML) & (pts[:, 0] <= _W - _MR))
        assert np.all((pts[:, 1] >= _MT) & (pts[:, 1] <= _H - _MB))
        assert np.all(pts[ys == 0, 1] == _H - _MB)
    assert lines[0].get("points").split()[0] == f"{_ML},{_H - _MB}"


_RNG = np.random.default_rng(1)
HISTOGRAMS = {
    "fused_empty": (np.linspace(-1e-30, 2.0, 41),
                    [("true", _RNG.integers(0, 50, 40)),
                     ("fused", np.zeros(40))]),
    "both": (np.linspace(-3.0, 1e5, 41),
             [("true", _RNG.integers(0, 50, 40)),
              ("fused", _RNG.integers(0, 70, 40))]),
    "all_empty": (np.array([0.5, 1.5]),  # a count axis from 0 to 1
                  [("true", np.zeros(1, dtype=int)), ("fused", np.zeros(1))]),
}


@pytest.mark.parametrize("case", HISTOGRAMS)
def test_histogram_plot_bytes(tmp_path, case):
    # the report draws a histogram as line_plot's polylines on step
    # coordinates: the former histogram plot's bytes, limits and legend
    edges, counts = HISTOGRAMS[case]
    steps = [(label, np.repeat(edges, 2), [0, *np.repeat(h, 2), 0])
             for label, h in counts]
    svgplot.line_plot(tmp_path / "new.svg", steps, title="h", xlabel="x",
                      ylabel="count")
    _former_histogram_plot(tmp_path / "former.svg", edges, counts,
                           title="h", xlabel="x")
    assert (tmp_path / "new.svg").read_bytes() == \
        (tmp_path / "former.svg").read_bytes()


@pytest.mark.parametrize("n", [0, 1, 2000])
def test_scatter_plot_bytes(tmp_path, n):
    rng = np.random.default_rng(2)
    x, y = rng.standard_normal(n), rng.standard_normal(n) * 1e-30
    if n > 1:
        x[0], y[1] = np.nan, -np.inf
    _same_bytes(tmp_path, svgplot.scatter_plot, _former_scatter_plot,
                x, y, title="s", xlabel="a", ylabel="b")


@pytest.mark.parametrize("log_y", [False, True])
def test_plots_of_special_values_write_finite_numbers(tmp_path, log_y):
    # nan and inf are not numbers in SVG's attribute grammar: a line breaks
    # at a point that has one, and a scatter leaves the point out
    v = np.array(SPECIAL)
    x = np.arange(v.size, dtype=float)
    x[6] = np.nan
    svgplot.line_plot(tmp_path / "l.svg", [("v", x, v), ("w", v, x)],
                      log_y=log_y)
    svgplot.scatter_plot(tmp_path / "s.svg", v, v[::-1])
    lines, dots = (ET.parse(tmp_path / name).getroot() for name in
                   ("l.svg", "s.svg"))
    for root in (lines, dots):
        numbers = [n for el in root.iter() for name in ("points", "cx", "cy")
                   for n in el.get(name, "").replace(",", " ").split()]
        assert numbers and np.all(np.isfinite(np.array(numbers, dtype=float)))
    # SPECIAL opens with nan, inf and -inf (a log axis draws -inf on its
    # floor), and x[6] is nan: each series is two runs of points
    runs = [len(line.get("points").split())
            for line in lines.iter(f"{_SVG}polyline")]
    assert runs == [4 if log_y else 3, 5, 3, 5]
    assert len(list(dots.iter(f"{_SVG}circle"))) == np.count_nonzero(
        np.isfinite(v) & np.isfinite(v[::-1]))
