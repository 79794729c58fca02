"""Accuracy statistics: OLS with dataset-condition interactions, Student-t
inference, developmental trajectories, and standalone SVG charts.

The regression uses treatment (dummy) coding with a reference dataset and
condition, so the intercept is the reference cell and each interaction
coefficient is a difference-in-differences. Replicate runs (seeds) enter
as plain replicate rows. p-values come from an in-package Student-t CDF
built on the regularized incomplete beta function. The regression and
trajectory CSVs are rows handed to ``atomic.write_csv``.
"""

from __future__ import annotations

import csv
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .atomic import atomic_write, write_csv

# -- Student-t CDF ---------------------------------------------------------

_TINY = 1e-300


def _betacf(a: float, b: float, x: float) -> float:
    # continued fraction for the incomplete beta, modified Lentz iteration
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 3e-15:
            break
    return h


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and 0 <= x <= 1."""
    if a <= 0 or b <= 0:
        raise ValueError("a and b must be positive")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_cdf(t: float, df: float) -> float:
    """Student-t CDF at t with df degrees of freedom."""
    if df <= 0:
        raise ValueError(f"degrees of freedom must be positive, got {df}")
    if math.isnan(t):
        return math.nan
    if math.isinf(t):
        return 1.0 if t > 0 else 0.0
    x = df / (df + t * t)
    half_tail = 0.5 * regularized_incomplete_beta(df / 2.0, 0.5, x)
    return half_tail if t < 0 else 1.0 - half_tail


def two_sided_p(t: float, df: float) -> float:
    if math.isnan(t):
        return math.nan
    return 2.0 * (1.0 - t_cdf(abs(t), df))


# -- OLS with interactions -------------------------------------------------


@dataclass(frozen=True)
class RegressionResult:
    terms: tuple[str, ...]
    estimates: tuple[float, ...]
    std_errors: tuple[float, ...]
    t_values: tuple[float, ...]
    p_values: tuple[float, ...]
    r_squared: float
    n: int
    reference_levels: tuple[str, str]  # (dataset, condition)
    duplicates: int = 0  # observations equal to another one of their cell


def _pick_reference(levels: list[str], preferred: Sequence[str]) -> str:
    for p in preferred:
        if p in levels:
            return p
    return levels[0]


def design_matrix(
    observations: Sequence[tuple[float, str, str]],
    ref_dataset: str | None = None,
    ref_condition: str | None = None,
):
    """Treatment-coded design for accuracy ~ dataset * condition.

    Returns (X, y, terms, reference_levels). Column order: intercept,
    dataset dummies, condition dummies, interaction dummies, each sorted.
    """
    obs = list(observations)
    if not obs:
        raise ValueError("no observations")
    datasets = sorted({d for _a, d, _c in obs})
    conditions = sorted({c for _a, _d, c in obs})
    if len(datasets) < 2 or len(conditions) < 2:
        raise ValueError(
            f"need at least 2 datasets and 2 conditions, got "
            f"{len(datasets)} and {len(conditions)}"
        )
    cells = {(d, c) for _a, d, c in obs}
    for d in datasets:
        for c in conditions:
            if (d, c) not in cells:
                raise ValueError(f"empty design cell: dataset={d}, condition={c}")
    if ref_dataset is None:
        ref_dataset = _pick_reference(datasets, ("cdl", "CDL"))
    if ref_condition is None:
        ref_condition = _pick_reference(conditions, ("ORIGINAL", "original"))
    if ref_dataset not in datasets:
        raise ValueError(f"reference dataset {ref_dataset!r} not in data")
    if ref_condition not in conditions:
        raise ValueError(f"reference condition {ref_condition!r} not in data")
    d_levels = [d for d in datasets if d != ref_dataset]
    c_levels = [c for c in conditions if c != ref_condition]
    terms = (
        ["(Intercept)"]
        + [f"dataset[{d}]" for d in d_levels]
        + [f"condition[{c}]" for c in c_levels]
        + [f"dataset[{d}]:condition[{c}]" for d in d_levels for c in c_levels]
    )
    rows = []
    y = []
    for a, d, c in obs:
        row = [1.0]
        row += [1.0 if d == dl else 0.0 for dl in d_levels]
        row += [1.0 if c == cl else 0.0 for cl in c_levels]
        row += [
            1.0 if (d == dl and c == cl) else 0.0
            for dl in d_levels
            for cl in c_levels
        ]
        rows.append(row)
        y.append(float(a))
    return (
        np.array(rows, dtype=float),
        np.array(y, dtype=float),
        tuple(terms),
        (ref_dataset, ref_condition),
    )


def ols_interaction(
    observations: Sequence[tuple[float, str, str]],
    ref_dataset: str | None = None,
    ref_condition: str | None = None,
) -> RegressionResult:
    """Fit accuracy ~ dataset * condition by QR-decomposed least squares.

    Every observation is a replicate row. Exact duplicates (such as the
    seed-independent ORIGINAL rows of a run) are counted in ``duplicates``
    but still fitted, so the estimates match the rows as given.
    """
    observations = list(observations)
    X, y, terms, reference = design_matrix(observations, ref_dataset, ref_condition)
    n, k = X.shape
    if np.linalg.matrix_rank(X) < k:
        raise ValueError("design matrix is rank-deficient")
    q, r = np.linalg.qr(X)
    beta = np.linalg.solve(r, q.T @ y)
    residuals = y - X @ beta
    rss = float(residuals @ residuals)
    tss = float(((y - y.mean()) ** 2).sum())
    df = n - k
    if df > 0:
        s2 = rss / df
        r_inv = np.linalg.inv(r)
        cov = s2 * (r_inv @ r_inv.T)
        se = np.sqrt(np.maximum(np.diag(cov), 0.0))
    else:
        se = np.full(k, math.nan)
    t_vals = []
    p_vals = []
    for b, s in zip(beta, se):
        if math.isnan(s):
            t_vals.append(math.nan)
            p_vals.append(math.nan)
        elif s == 0.0:
            t_vals.append(0.0 if b == 0.0 else math.copysign(math.inf, b))
            p_vals.append(1.0 if b == 0.0 else 0.0)
        else:
            t = float(b / s)
            t_vals.append(t)
            p_vals.append(two_sided_p(t, df))
    if tss > 0:
        r2 = 1.0 - rss / tss
    else:
        r2 = 1.0 if rss == 0.0 else 0.0
    return RegressionResult(
        terms=terms,
        estimates=tuple(float(b) for b in beta),
        std_errors=tuple(float(s) for s in se),
        t_values=tuple(t_vals),
        p_values=tuple(p_vals),
        r_squared=float(r2),
        n=n,
        reference_levels=reference,
        duplicates=n - len(set(map(tuple, observations))),
    )


def format_regression(result: RegressionResult) -> str:
    """Aligned human-readable coefficient table."""
    header = f"{'term':<40} {'estimate':>12} {'std_err':>12} {'t':>10} {'p':>10}"
    lines = [
        f"OLS: accuracy ~ dataset * condition  (n={result.n}, "
        f"{result.duplicates} exact duplicate replicates, "
        f"R^2={result.r_squared:.4f}, reference: dataset="
        f"{result.reference_levels[0]}, condition={result.reference_levels[1]})",
        header,
        "-" * len(header),
    ]
    for term, b, s, t, p in zip(
        result.terms, result.estimates, result.std_errors,
        result.t_values, result.p_values,
    ):
        lines.append(f"{term:<40} {b:>12.6f} {s:>12.6f} {t:>10.3f} {p:>10.4g}")
    return "\n".join(lines)


def write_regression_csv(result: RegressionResult, path) -> None:
    write_csv(path, [("term", "estimate", "std_error", "t", "p"), *zip(
        result.terms, result.estimates, result.std_errors,
        result.t_values, result.p_values,
    )])


# -- developmental trajectories ---------------------------------------------


@dataclass(frozen=True)
class TrajectoryRow:
    checkpoint: str
    semantic: float
    syntactic: float
    ratio: float | None


@dataclass(frozen=True)
class TrajectoryTable:
    rows: tuple[TrajectoryRow, ...]
    threshold: float
    semantic_first_checkpoint: str | None
    syntactic_first_checkpoint: str | None


def trajectory(
    semantic: Mapping[str, float],
    syntactic: Mapping[str, float],
    threshold: float = 0.75,
) -> TrajectoryTable:
    """Per-checkpoint semantic/syntactic accuracies and their ratio.

    Checkpoint labels are decimal strings sorted numerically. The ratio is
    left undefined (not clamped) where syntactic accuracy is 0; the row
    stays, carrying the raw accuracies. The summary fields give the
    earliest checkpoint at which each series reaches ``threshold``.
    """
    sem_only = sorted(set(semantic) - set(syntactic))
    syn_only = sorted(set(syntactic) - set(semantic))
    if sem_only or syn_only:
        raise ValueError(
            f"mismatched checkpoint sets: semantic-only {sem_only}, "
            f"syntactic-only {syn_only}"
        )
    if not semantic:
        raise ValueError("no checkpoints")
    labels = sorted(semantic, key=float)
    rows = []
    sem_first = syn_first = None
    for label in labels:
        sem, syn = semantic[label], syntactic[label]
        ratio = sem / syn if syn > 0 else None
        rows.append(TrajectoryRow(label, sem, syn, ratio))
        if sem_first is None and sem >= threshold:
            sem_first = label
        if syn_first is None and syn >= threshold:
            syn_first = label
    return TrajectoryTable(tuple(rows), threshold, sem_first, syn_first)


def write_trajectory_csv(table: TrajectoryTable, path) -> None:
    write_csv(path, [("checkpoint", "semantic_acc", "syntactic_acc", "ratio")] + [
        (r.checkpoint, r.semantic, r.syntactic, r.ratio) for r in table.rows
    ])


# -- SVG charts --------------------------------------------------------------

_WIDTH, _HEIGHT = 640, 400  # the chart's size in SVG user units
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _tick_label(v: float) -> str:
    return f"{v:.1f}" if v == int(v) else f"{v:g}"


def emit_chart(
    series: Mapping[str, Sequence[tuple[float, float]]],
    path,
    title: str = "",
    x_label: str = "",
    y_label: str = "",
) -> None:
    """Standalone SVG 1.1 line chart: axes, ticks, legend, one polyline
    per series. Valid XML by construction."""
    if not series:
        raise ValueError("no series to plot")
    for name, points in series.items():
        if len(points) < 2:
            raise ValueError(f"series {name!r} needs at least 2 points")
    xs = [x for pts in series.values() for x, _y in pts]
    ys = [y for pts in series.values() for _x, y in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_lo == x_hi:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_lo == y_hi:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    margin_l, margin_r, margin_t, margin_b = 60, 140, 40, 50
    plot_w = _WIDTH - margin_l - margin_r
    plot_h = _HEIGHT - margin_t - margin_b

    def sx(x: float) -> float:
        return round(margin_l + (x - x_lo) / (x_hi - x_lo) * plot_w, 2)

    def sy(y: float) -> float:
        return round(margin_t + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h, 2)

    svg = ET.Element(
        "svg",
        {
            "xmlns": "http://www.w3.org/2000/svg",
            "version": "1.1",
            "width": str(_WIDTH),
            "height": str(_HEIGHT),
            "viewBox": f"0 0 {_WIDTH} {_HEIGHT}",
        },
    )
    ET.SubElement(svg, "rect", {"width": str(_WIDTH), "height": str(_HEIGHT), "fill": "white"})
    if title:
        t = ET.SubElement(
            svg, "text",
            {"x": str(_WIDTH // 2), "y": "24", "text-anchor": "middle", "font-size": "16"},
        )
        t.text = title
    axis_style = {"stroke": "black", "stroke-width": "1"}
    ET.SubElement(
        svg, "line",
        dict(axis_style, x1=str(margin_l), y1=str(margin_t + plot_h),
             x2=str(margin_l + plot_w), y2=str(margin_t + plot_h)),
    )
    ET.SubElement(
        svg, "line",
        dict(axis_style, x1=str(margin_l), y1=str(margin_t),
             x2=str(margin_l), y2=str(margin_t + plot_h)),
    )
    for i in range(5):
        xv = x_lo + (x_hi - x_lo) * i / 4
        yv = y_lo + (y_hi - y_lo) * i / 4
        px, py = sx(xv), sy(yv)
        ET.SubElement(
            svg, "line",
            dict(axis_style, x1=str(px), y1=str(margin_t + plot_h),
                 x2=str(px), y2=str(margin_t + plot_h + 5)),
        )
        lbl = ET.SubElement(
            svg, "text",
            {"x": str(px), "y": str(margin_t + plot_h + 20),
             "text-anchor": "middle", "font-size": "11"},
        )
        lbl.text = _tick_label(xv)
        ET.SubElement(
            svg, "line",
            dict(axis_style, x1=str(margin_l - 5), y1=str(py),
                 x2=str(margin_l), y2=str(py)),
        )
        lbl = ET.SubElement(
            svg, "text",
            {"x": str(margin_l - 9), "y": str(py + 4),
             "text-anchor": "end", "font-size": "11"},
        )
        lbl.text = _tick_label(yv)
    if x_label:
        t = ET.SubElement(
            svg, "text",
            {"x": str(margin_l + plot_w // 2), "y": str(_HEIGHT - 10),
             "text-anchor": "middle", "font-size": "12"},
        )
        t.text = x_label
    if y_label:
        t = ET.SubElement(
            svg, "text",
            {"x": "16", "y": str(margin_t + plot_h // 2), "font-size": "12",
             "text-anchor": "middle",
             "transform": f"rotate(-90 16 {margin_t + plot_h // 2})"},
        )
        t.text = y_label
    for i, (name, points) in enumerate(series.items()):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{sx(x)},{sy(y)}" for x, y in points)
        ET.SubElement(
            svg, "polyline",
            {"points": pts, "fill": "none", "stroke": color, "stroke-width": "2"},
        )
        ly = margin_t + 16 + 18 * i
        ET.SubElement(
            svg, "line",
            {"x1": str(margin_l + plot_w + 12), "y1": str(ly - 4),
             "x2": str(margin_l + plot_w + 36), "y2": str(ly - 4),
             "stroke": color, "stroke-width": "2"},
        )
        t = ET.SubElement(
            svg, "text",
            {"x": str(margin_l + plot_w + 42), "y": str(ly), "font-size": "12"},
        )
        t.text = name
    tree = ET.ElementTree(svg)
    ET.indent(tree)
    with atomic_write(path) as fh:
        tree.write(fh, encoding="unicode", xml_declaration=True)
        fh.write("\n")


def read_series_csv(path, x_column: str | None = None) -> dict[str, list[tuple[float, float]]]:
    """Series from a CSV: first (or named) column is x, every other numeric
    column is one series; blank cells are skipped. A cell that is not a
    number is a ValueError naming the file and line."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty CSV")
        x_col = x_column or reader.fieldnames[0]
        if x_col not in reader.fieldnames:
            raise ValueError(f"{path}: no column {x_col!r}")
        series: dict[str, list[tuple[float, float]]] = {
            c: [] for c in reader.fieldnames if c != x_col
        }
        for row in reader:
            try:
                x = float(row[x_col])
                for col, points in series.items():
                    cell = row[col]
                    if cell is not None and cell.strip() != "":
                        points.append((x, float(cell)))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    return {name: pts for name, pts in series.items() if pts}
