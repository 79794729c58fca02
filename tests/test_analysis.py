import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, strategies as st

from verbscope.analysis import (
    RegressionResult,
    TrajectoryRow,
    TrajectoryTable,
    design_matrix,
    emit_chart,
    format_regression,
    ols_interaction,
    read_series_csv,
    regularized_incomplete_beta,
    t_cdf,
    trajectory,
    two_sided_p,
    write_regression_csv,
    write_trajectory_csv,
)

DATASETS = ("cdl", "candor", "bnc", "wikipedia")
CONDITIONS = ("ORIGINAL", "SHUFFLE.ORDER")


def synthetic_observations(coeffs: dict, replicates: int = 3, noise: float = 0.0):
    """y exactly from cell means defined by treatment-coded coefficients."""
    obs = []
    for d in DATASETS:
        for c in CONDITIONS:
            y = (
                coeffs["intercept"]
                + coeffs.get(f"d:{d}", 0.0)
                + coeffs.get(f"c:{c}", 0.0)
                + coeffs.get(f"i:{d}:{c}", 0.0)
            )
            for r in range(replicates):
                jitter = noise * ((r % 3) - 1)
                obs.append((y + jitter, d, c))
    return obs


KNOWN_COEFFS = {
    "intercept": 0.929,
    "d:candor": -0.02,
    "d:bnc": -0.05,
    "d:wikipedia": -0.07,
    "c:SHUFFLE.ORDER": -0.13,
    "i:candor:SHUFFLE.ORDER": 0.005,
    "i:bnc:SHUFFLE.ORDER": -0.032,
    "i:wikipedia:SHUFFLE.ORDER": -0.012,
}


class TestOLS:
    def test_noiseless_recovery_within_1e9(self):
        result = ols_interaction(synthetic_observations(KNOWN_COEFFS))
        assert result.reference_levels == ("cdl", "ORIGINAL")
        by_term = dict(zip(result.terms, result.estimates))
        assert by_term["(Intercept)"] == pytest.approx(0.929, abs=1e-9)
        assert by_term["condition[SHUFFLE.ORDER]"] == pytest.approx(-0.13, abs=1e-9)
        assert by_term["dataset[bnc]:condition[SHUFFLE.ORDER]"] == pytest.approx(-0.032, abs=1e-9)
        assert by_term["dataset[wikipedia]:condition[SHUFFLE.ORDER]"] == pytest.approx(-0.012, abs=1e-9)
        assert by_term["dataset[candor]:condition[SHUFFLE.ORDER]"] == pytest.approx(0.005, abs=1e-9)

    def test_saturated_fit_equals_cell_means(self):
        obs = synthetic_observations(KNOWN_COEFFS, replicates=2, noise=0.01)
        X, y, terms, _ = design_matrix(obs)
        result = ols_interaction(obs)
        fitted = X @ np.array(result.estimates)
        # brute-force cell-mean oracle
        cells: dict = {}
        for acc, d, c in obs:
            cells.setdefault((d, c), []).append(acc)
        means = {k: sum(v) / len(v) for k, v in cells.items()}
        for (acc, d, c), f in zip(obs, fitted):
            assert f == pytest.approx(means[(d, c)], abs=1e-10)

    def test_residuals_orthogonal_to_design(self):
        obs = synthetic_observations(KNOWN_COEFFS, replicates=5, noise=0.03)
        X, y, _terms, _ = design_matrix(obs)
        result = ols_interaction(obs)
        residuals = y - X @ np.array(result.estimates)
        scale = max(1.0, float(np.abs(X.T @ y).max()))
        assert np.all(np.abs(X.T @ residuals) / scale < 1e-8)

    def test_r_squared_in_unit_interval(self):
        obs = synthetic_observations(KNOWN_COEFFS, replicates=4, noise=0.05)
        assert 0.0 <= ols_interaction(obs).r_squared <= 1.0

    def test_estimates_invariant_to_row_order(self):
        obs = synthetic_observations(KNOWN_COEFFS, replicates=3, noise=0.02)
        a = ols_interaction(obs)
        b = ols_interaction(list(reversed(obs)))
        assert a.estimates == pytest.approx(b.estimates, abs=1e-12)

    def test_empty_cell_named_in_error(self):
        obs = [o for o in synthetic_observations(KNOWN_COEFFS)
               if not (o[1] == "bnc" and o[2] == "SHUFFLE.ORDER")]
        with pytest.raises(ValueError, match="dataset=bnc, condition=SHUFFLE.ORDER"):
            ols_interaction(obs)

    def test_needs_two_of_each_factor(self):
        with pytest.raises(ValueError, match="at least 2"):
            ols_interaction([(0.5, "cdl", "ORIGINAL"), (0.6, "cdl", "ORIGINAL")])

    def test_exact_duplicate_replicates_counted_not_dropped(self):
        obs = synthetic_observations(KNOWN_COEFFS, replicates=2, noise=0.01)
        # three ORIGINAL cells get a replicate equal to an existing row
        dupes = [o for o in obs if o[2] == "ORIGINAL"][:3]
        result = ols_interaction(obs + dupes)
        assert ols_interaction(obs).duplicates == 0
        assert result.duplicates == 3
        assert result.n == len(obs) + 3
        assert "n=19, 3 exact duplicate replicates" in format_regression(result)

    def test_regression_csv_bytes(self, tmp_path):
        result = RegressionResult(
            ("(Intercept)", "dataset[b]"), (0.1, -0.0), (math.nan, 5e-324),
            (math.inf, -math.inf), (1 / 3, 0), 0.5, 4, ("a", "X"),
        )
        path = tmp_path / "coef.csv"
        write_regression_csv(result, path)
        assert path.read_bytes() == (
            b"term,estimate,std_error,t,p\r\n"
            b"(Intercept),0.1,nan,inf,0.3333333333333333\r\n"
            b"dataset[b],-0.0,5e-324,-inf,0\r\n"
        )

    def test_inference_columns_present(self):
        obs = synthetic_observations(KNOWN_COEFFS, replicates=5, noise=0.02)
        result = ols_interaction(obs)
        k = len(result.terms)
        assert len(result.std_errors) == len(result.t_values) == len(result.p_values) == k
        assert all(0 <= p <= 1 for p in result.p_values)


class TestTCdf:
    def test_zero_is_exactly_half(self):
        for df in (1, 2.5, 10, 1000):
            assert t_cdf(0.0, df) == 0.5

    def test_196_df1000_near_normal(self):
        # normal-approximation oracle: two-sided p at z=1.96 is 0.05
        p = two_sided_p(1.96, 1000)
        assert abs(p - 0.05) < 0.002

    def test_limit_to_one(self):
        assert t_cdf(1e9, 5) == pytest.approx(1.0, abs=1e-12)
        assert t_cdf(math.inf, 5) == 1.0

    def test_df_must_be_positive(self):
        with pytest.raises(ValueError):
            t_cdf(1.0, 0)

    @given(
        st.floats(min_value=-30, max_value=30),
        st.floats(min_value=0.5, max_value=500),
    )
    def test_symmetry(self, t, df):
        assert abs(t_cdf(-t, df) - (1.0 - t_cdf(t, df))) < 1e-12

    def test_against_scipy_grid(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        for t in (-4.0, -1.3, -0.2, 0.7, 2.1, 6.5):
            for df in (1, 3, 12, 77, 2000):
                assert t_cdf(t, df) == pytest.approx(
                    float(scipy_stats.t.cdf(t, df)), abs=1e-10
                )

    def test_incomplete_beta_edges(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0
        with pytest.raises(ValueError):
            regularized_incomplete_beta(-1.0, 1.0, 0.5)


class TestTrajectory:
    def test_ratio_arithmetic(self):
        table = trajectory({"1": 0.8}, {"1": 0.5})
        assert table.rows[0].ratio == pytest.approx(1.6)

    def test_zero_syntactic_keeps_row_without_ratio(self):
        table = trajectory({"1": 0.4}, {"1": 0.0})
        assert table.rows[0].ratio is None
        assert table.rows[0].semantic == 0.4

    def test_rows_sorted_numerically(self):
        table = trajectory(
            {"10": 0.9, "2": 0.5, "0.04": 0.1},
            {"10": 0.9, "2": 0.4, "0.04": 0.1},
        )
        assert [r.checkpoint for r in table.rows] == ["0.04", "2", "10"]

    def test_semantic_first_on_monotone_curves(self):
        checkpoints = [str(c) for c in (0.04, 0.5, 1, 3, 10, 20)]
        semantic = {c: min(0.95, 0.2 + 0.25 * i) for i, c in enumerate(checkpoints)}
        syntactic = {c: min(0.95, 0.05 + 0.16 * i) for i, c in enumerate(checkpoints)}
        table = trajectory(semantic, syntactic)
        assert table.semantic_first_checkpoint is not None
        assert table.syntactic_first_checkpoint is not None
        assert float(table.semantic_first_checkpoint) < float(table.syntactic_first_checkpoint)

    def test_mismatched_checkpoints_listed(self):
        with pytest.raises(ValueError, match=r"semantic-only \['2'\].*syntactic-only \['3'\]"):
            trajectory({"1": 0.5, "2": 0.6}, {"1": 0.5, "3": 0.6})

    def test_csv_round_trippable(self, tmp_path):
        table = trajectory({"1": 0.8, "2": 0.9}, {"1": 0.5, "2": 0.0})
        path = tmp_path / "t.csv"
        write_trajectory_csv(table, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "checkpoint,semantic_acc,syntactic_acc,ratio"
        assert lines[2].endswith(",")  # undefined ratio stays blank
        assert path.read_bytes() == (
            b"checkpoint,semantic_acc,syntactic_acc,ratio\r\n"
            b"1,0.8,0.5,1.6\r\n"
            b"2,0.9,0.0,\r\n"
        )

    def test_csv_bytes_of_edge_values(self, tmp_path):
        rows = (TrajectoryRow("0.5", 5e-324, -0.0, None), TrajectoryRow("1", math.nan, math.inf, 1))
        path = tmp_path / "t.csv"
        write_trajectory_csv(TrajectoryTable(rows, 0.75, None, None), path)
        assert path.read_bytes() == (
            b"checkpoint,semantic_acc,syntactic_acc,ratio\r\n"
            b"0.5,5e-324,-0.0,\r\n"
            b"1,nan,inf,1\r\n"
        )


class TestEmitChart:
    def _series(self):
        return {
            "semantic": [(0.0, 0.0), (1.0, 0.5), (2.0, 1.0)],
            "syntactic": [(0.0, 0.1), (1.0, 0.2), (2.0, 0.6)],
        }

    def test_one_polyline_per_series(self, tmp_path):
        path = tmp_path / "c.svg"
        emit_chart(self._series(), path)
        tree = ET.parse(path)  # also proves well-formed XML
        polylines = tree.getroot().findall(".//{http://www.w3.org/2000/svg}polyline")
        assert len(polylines) == 2

    def test_unit_range_axis_labels(self, tmp_path):
        path = tmp_path / "c.svg"
        emit_chart(self._series(), path)
        text = path.read_text()
        assert ">0.0<" in text and ">1.0<" in text

    def test_empty_series_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no series"):
            emit_chart({}, tmp_path / "x.svg")

    def test_short_series_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="at least 2"):
            emit_chart({"s": [(0, 0)]}, tmp_path / "x.svg")

    def test_legend_and_version(self, tmp_path):
        path = tmp_path / "c.svg"
        emit_chart(self._series(), path, title="Demo")
        text = path.read_text()
        assert 'version="1.1"' in text
        assert "semantic" in text and "syntactic" in text and "Demo" in text

    def test_read_series_csv(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("checkpoint,sem,syn\n1,0.5,0.2\n2,0.8,\n")
        series = read_series_csv(path)
        assert series["sem"] == [(1.0, 0.5), (2.0, 0.8)]
        assert series["syn"] == [(1.0, 0.2)]
