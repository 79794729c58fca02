import math
import warnings

import pytest
from hypothesis import given, strategies as st

from verbscope.evaluate import (
    Labels,
    cross_domain_matrix,
    evaluate,
    result_rows,
    write_results_csv,
)

META = {"p1": "semantic-verb", "p2": "semantic-verb", "p3": "agr-simple", "p4": "agr-simple"}


class TestEvaluate:
    def test_hand_counted_accuracy(self):
        scored = [
            ("p1", -1.0, -2.0),  # win
            ("p2", -1.0, -3.0),  # win
            ("p3", -4.0, -2.0),  # loss
            ("p4", -2.0, -2.0),  # tie
        ]
        result = evaluate(scored, META)
        assert result.accuracy == pytest.approx((2 + 0.5) / 4, abs=1e-12)
        assert result.n_pairs == 4
        assert result.n_ties == 1
        assert result.per_paradigm["semantic-verb"] == (1.0, 2, 0)
        assert result.per_paradigm["agr-simple"] == (0.25, 2, 1)

    def test_all_ties_is_half(self):
        scored = [(p, -5.0, -5.0) for p in META]
        assert evaluate(scored, META).accuracy == 0.5

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="no pairs"):
            evaluate([], META)

    def test_duplicate_pair_id_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            evaluate([("p1", -1.0, -2.0), ("p1", -1.0, -2.0)], META)

    def test_missing_metadata_rejected(self):
        with pytest.raises(ValueError, match="metadata"):
            evaluate([("p9", -1.0, -2.0)], META)

    def test_per_paradigm_counts_sum(self):
        scored = [(p, -1.0, -2.0) for p in META]
        result = evaluate(scored, META)
        assert sum(n for _a, n, _t in result.per_paradigm.values()) == result.n_pairs

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-50, max_value=-0.01),
                st.floats(min_value=-50, max_value=-0.01),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_reversal_property(self, scores):
        scores = [(a, b) for a, b in scores if a != b]  # no ties
        if not scores:
            return
        meta = {f"p{i}": "semantic-verb" for i in range(len(scores))}
        fwd = evaluate(
            [(f"p{i}", a, b) for i, (a, b) in enumerate(scores)], meta
        ).accuracy
        rev = evaluate(
            [(f"p{i}", b, a) for i, (a, b) in enumerate(scores)], meta
        ).accuracy
        assert fwd == pytest.approx(1.0 - rev, abs=1e-12)

    @given(
        st.floats(min_value=0.01, max_value=100),
        st.floats(min_value=-10, max_value=0),
    )
    def test_affine_invariance(self, scale, shift):
        scored = [("p1", -1.0, -2.0), ("p2", -3.0, -2.5), ("p3", -2.0, -2.0), ("p4", -9.0, -1.0)]
        base = evaluate(scored, META).accuracy
        transformed = [
            (pid, min(a * scale + shift, 0.0), min(b * scale + shift, 0.0))
            for pid, a, b in scored
        ]
        assert evaluate(transformed, META).accuracy == base


def _result(train, eval_domain, acc):
    return (train, eval_domain, acc)


class TestCrossDomainMatrix:
    def test_two_by_two_means(self):
        results = [
            _result("a", "a", 0.9), _result("b", "b", 0.9),
            _result("a", "b", 0.6), _result("b", "a", 0.6),
        ]
        m = cross_domain_matrix(results)
        assert m.diagonal_mean == pytest.approx(0.9)
        assert m.off_diagonal_mean == pytest.approx(0.6)
        assert not m.missing

    def test_single_domain(self):
        m = cross_domain_matrix([_result("a", "a", 0.8)])
        assert m.cells == {("a", "a"): 0.8}
        assert m.off_diagonal_mean is None

    def test_missing_cell_warns_and_reports(self):
        results = [_result("a", "a", 0.9), _result("b", "b", 0.9), _result("a", "b", 0.6)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            m = cross_domain_matrix(results)
        assert m.missing == (("b", "a"),)
        assert any("missing" in str(w.message) for w in caught)

    def test_multiple_seeds_averaged(self):
        m = cross_domain_matrix([_result("a", "a", 0.8), _result("a", "a", 0.6)])
        assert m.cells[("a", "a")] == pytest.approx(0.7)

    def test_means_take_cells_in_sorted_order(self):
        """With 3+ domains a float sum depends on its order; input order must not."""
        import itertools

        off = {("a", "b"): 0.1, ("a", "c"): 0.7, ("b", "a"): 0.3,
               ("b", "c"): 0.9, ("c", "a"): 0.2, ("c", "b"): 0.6}
        expected = sum(off[k] for k in sorted(off)) / len(off)
        assert len({sum(p) / len(off) for p in itertools.permutations(off.values())}) > 1
        diag = [_result(d, d, 0.9) for d in "abc"]
        for rows in itertools.permutations(_result(t, e, v) for (t, e), v in off.items()):
            m = cross_domain_matrix(diag + list(rows))
            assert m.off_diagonal_mean == expected
            assert list(m.cells) == sorted(m.cells)

    def test_matrix_csv_marks_gaps(self, tmp_path):
        from verbscope.evaluate import write_matrix_csv

        results = [_result("a", "a", 0.9), _result("b", "b", 0.9), _result("a", "b", 0.6)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            m = cross_domain_matrix(results)
        path = tmp_path / "m.csv"
        write_matrix_csv(m, path)
        assert "NA" in path.read_text()

    def test_matrix_csv_bytes(self, tmp_path):
        from verbscope.evaluate import CrossDomainMatrix, write_matrix_csv

        cells = {("a", "a"): 0.1, ("a", "b"): math.nan, ("a", "c"): -0.0,
                 ("b", "a"): math.inf, ("b", "c"): 5e-324}
        m = CrossDomainMatrix(("a", "b"), ("a", "b", "c"), cells, None, 1 / 3, (("b", "b"),))
        path = tmp_path / "m.csv"
        write_matrix_csv(m, path)
        assert path.read_bytes() == (
            b"train\\eval,a,b,c\r\n"
            b"a,0.1,nan,-0.0\r\n"
            b"b,inf,NA,5e-324\r\n"
            b"\r\n"
            b"diagonal_mean,\r\n"
            b"off_diagonal_mean,0.3333333333333333\r\n"
        )


class TestResultRows:
    def test_rows_include_all_and_paradigms(self):
        result = evaluate([(p, -1.0, -2.0) for p in META], META,
                          Labels("chat", "chat", "ORIGINAL", "1"))
        rows = result_rows(result)
        assert {r["paradigm"] for r in rows} == {"ALL", "semantic-verb", "agr-simple"}
        all_row = next(r for r in rows if r["paradigm"] == "ALL")
        assert all_row["train_domain"] == "chat"
        assert float(all_row["accuracy"]) == 1.0

    def test_csv_written_sorted(self, tmp_path):
        rows = [
            row
            for domain in ("b", "a")
            for row in result_rows(
                evaluate([(p, -1.0, -2.0) for p in META], META, Labels(domain, domain, "X", None))
            )
        ]
        path = tmp_path / "r.csv"
        write_results_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("train_domain,")
        assert lines[1].startswith("a,")

    def test_csv_bytes(self, tmp_path):
        def row(train, checkpoint, paradigm, accuracy, n, ties):
            return dict(train_domain=train, eval_domain="e", condition="X", checkpoint=checkpoint,
                        paradigm=paradigm, accuracy=accuracy, n=n, ties=ties)

        rows = [
            row("d", None, "ALL", math.nan, 3, 0),
            row("c", "10", "ALL", -0.0, 2, 1),
            row("b", "", "agr-simple", 5e-324, 1, 0),
            row("a", None, "ALL", math.inf, 0, 0),
        ]
        rows += result_rows(evaluate([("p1", -1.0, -1.0)], META, Labels("e", "e", "Y", "2")))
        path = tmp_path / "r.csv"
        write_results_csv(rows, path)
        assert path.read_bytes() == (
            b"train_domain,eval_domain,condition,checkpoint,paradigm,accuracy,n,ties\r\n"
            b"a,e,X,,ALL,inf,0,0\r\n"
            b"b,e,X,,agr-simple,5e-324,1,0\r\n"
            b"c,e,X,10,ALL,-0.0,2,1\r\n"
            b"d,e,X,,ALL,nan,3,0\r\n"
            b"e,e,Y,2,ALL,0.5,1,1\r\n"
            b"e,e,Y,2,semantic-verb,0.5,1,1\r\n"
        )

    def test_csv_refuses_other_columns(self, tmp_path):
        rows = result_rows(evaluate([("p1", -1.0, -2.0)], META))
        rows[0]["extra"] = 1
        with pytest.raises(ValueError):
            write_results_csv(rows, tmp_path / "r.csv")
        assert not (tmp_path / "r.csv").exists()
