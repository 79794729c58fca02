"""Every writer goes through atomic_write: a failure leaves the old file whole.
Every CSV table goes through atomic.write_csv, the one CSV writer, and every
JSON record through atomic.write_json, the one JSON writer; JSON Lines input
decodes through atomic.loads_line as json.loads would. Every name has one
import path, the module that defines it."""

import ast
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import verbscope
from verbscope.analysis import (
    RegressionResult,
    TrajectoryRow,
    TrajectoryTable,
    emit_chart,
    write_regression_csv,
    write_trajectory_csv,
)
from verbscope.atomic import loads_line
from verbscope.cli import main
from verbscope.corpus import Forms
from verbscope.evaluate import (
    RESULT_COLUMNS,
    CrossDomainMatrix,
    write_matrix_csv,
    write_results_csv,
)
from verbscope.perturb import perturb_corpus
from verbscope.scorer.scoring import Sentences
from verbscope.stats import CorpusStats, RateTable, write_rates_csv, write_stats_csv
from verbscope.tagger import TaggerModel, save_tagger


class Unprintable:
    """A value whose repr fails, after a writer has written its first lines."""

    def __repr__(self):
        raise RuntimeError("unprintable")


def _regression(path, _monkeypatch):
    write_regression_csv(
        RegressionResult(("x",), (Unprintable(),), (1.0,), (1.0,), (0.5,), 0.5, 3, ("a", "b")),
        path,
    )


def _trajectory(path, _monkeypatch):
    write_trajectory_csv(
        TrajectoryTable((TrajectoryRow("1", Unprintable(), 0.5, None),), 0.75, None, None),
        path,
    )


def _results(path, _monkeypatch):
    row = dict.fromkeys(RESULT_COLUMNS, "x")
    write_results_csv([row, dict(row, extra="refused")], path)


def _matrix(path, _monkeypatch):
    write_matrix_csv(
        CrossDomainMatrix(("a",), ("a", "b"), {("a", "a"): Unprintable()}, None, None, ()),
        path,
    )


def _stats(path, _monkeypatch):
    write_stats_csv({"a": CorpusStats(0.5, 0.5, 0.5, 2.0, Unprintable(), 4)}, path)


def _rates(path, _monkeypatch):
    write_rates_csv(RateTable((("a", "REPLACE.WORD", Unprintable()),), None), path)


def _chart(path, _monkeypatch):
    emit_chart({1: [(0.0, 0.5), (1.0, 0.7)]}, path)  # ElementTree refuses an int text


def _tagger(path, _monkeypatch):
    save_tagger(
        TaggerModel({"bias": {"NOUN/NN": Unprintable()}}, (("NOUN", "NN"),), "NOUN/NN"),
        path,
    )


def _perturb_report(path, monkeypatch):
    from dataclasses import replace

    import verbscope.cli

    def unwritable_seed(*args, **kwargs):  # json.dump fails after the keys before "seed"
        out, report = perturb_corpus(*args, **kwargs)
        return out, replace(report, seed=object())

    monkeypatch.setattr(verbscope.cli, "perturb_corpus", unwritable_seed)
    corpus = path.parent / "in.txt"
    corpus.write_text("the dog naps .\n", encoding="utf-8")
    status = main(["perturb", "--condition", "shuffle-order", "--format", "text",
                   "--in", str(corpus), "--out", str(path.parent / "out.conllu"),
                   "--report", str(path)])
    if status:
        raise RuntimeError(f"perturb exited {status}")


def _prep_record(path, monkeypatch):
    import numpy as np

    import verbscope.experiment as experiment

    real, written = np.lib.format.write_array, []

    def refuse_the_third(member, array, **kwargs):  # fails after two arrays are in the zip
        written.append(array)
        if len(written) == 3:
            raise RuntimeError("unwritable")
        return real(member, array, **kwargs)

    monkeypatch.setattr(np.lib.format, "write_array", refuse_the_third)
    forms = Forms.encode([("a", "b")])
    members = Sentences([("p::good", ("a", "b")), ("p::bad", ("b", "a"))])
    record = {
        "ids": forms.ids, "offsets": forms.offsets, "members.ids": members.encoded.ids,
        "members.index": members.index,
        "strings": {"key": "key", "vocab": list(forms.vocab), "pairs": {"p": "x"}},
    }
    experiment._save_prep(path, record)


@pytest.mark.parametrize(
    "write, error, message",
    [
        (_regression, RuntimeError, "^unprintable$"),
        (_trajectory, RuntimeError, "^unprintable$"),
        (_results, ValueError, "^a results row must have exactly the columns"),
        (_matrix, RuntimeError, "^unprintable$"),
        (_stats, RuntimeError, "^unprintable$"),
        (_rates, RuntimeError, "^unprintable$"),
        (_chart, TypeError, "^cannot serialize 1"),
        (_tagger, RuntimeError, "^unprintable$"),
        (_perturb_report, TypeError, "^Object of type object is not JSON serializable$"),
        (_prep_record, RuntimeError, "^unwritable$"),
    ],
    ids=["regression-csv", "trajectory-csv", "results-csv", "matrix-csv", "stats-csv",
         "rates-csv", "chart", "tagger", "perturb-report", "prep-record"],
)
def test_failed_write_leaves_previous_file(tmp_path, monkeypatch, write, error, message):
    """Each writer fails with the error its case injects, not one raised
    while setting the case up, and leaves the previous file whole."""
    target = tmp_path / "target"
    target.write_text("previous\n", encoding="utf-8")
    with pytest.raises(error, match=message):
        write(target, monkeypatch)
    assert target.read_text(encoding="utf-8") == "previous\n"
    assert not [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]


def test_csv_writers_live_only_in_atomic():
    """No module but atomic.py builds a csv.writer or csv.DictWriter or calls
    json.dump; json.dumps, for one JSONL line or a key payload, is allowed."""
    writers = {("csv", "writer"), ("csv", "DictWriter"), ("json", "dump")}
    package = Path(verbscope.__file__).parent
    offenders = []
    for path in sorted(package.rglob("*.py")):
        if path == package / "atomic.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                uses = writers & {(node.module, a.name) for a in node.names}
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                uses = (node.value.id, node.attr) in writers
            else:
                continue
            if uses:
                offenders.append(f"{path.relative_to(package)}:{node.lineno}")
    assert not offenders


def _imported_module(path: Path, package: Path, node: ast.ImportFrom) -> str:
    """The absolute name of the module a ``from ... import`` in ``path`` reads."""
    if node.level == 0:
        return node.module
    parts = ["verbscope", *path.relative_to(package).parent.parts]
    return ".".join(parts[: len(parts) - node.level + 1] + [node.module or ""]).rstrip(".")


def test_each_name_has_one_import_path():
    """The package files re-export nothing: ``verbscope`` binds only its
    docstring and ``__version__``, ``verbscope.scorer`` only its docstring,
    and every name is imported from the module that defines it."""
    package = Path(verbscope.__file__).parent
    top = ast.parse((package / "__init__.py").read_text(encoding="utf-8")).body
    assert [type(node) for node in top] == [ast.Expr, ast.Assign]
    assert [t.id for t in top[1].targets] == ["__version__"]
    scorer = ast.parse((package / "scorer" / "__init__.py").read_text(encoding="utf-8")).body
    assert [type(node) for node in scorer] == [ast.Expr]
    offenders = [
        f"{path.relative_to(package)}:{node.lineno}"
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        and _imported_module(path, package, node) == "verbscope.scorer"
    ]
    assert not offenders


_TEXT = st.text(st.characters(exclude_categories=("Cs",)), max_size=12)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_TEXT, inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(
    _JSON.map(json.dumps),
    st.sampled_from(["", "\n", " \n", "x", "\n\n", " ", "\ufeff"]),
    st.sampled_from(["", " ", "\ufeff"]),
    st.integers(min_value=0, max_value=40),
)
def test_loads_line_matches_json_loads(text, tail, head, cut):
    """Whole, cut, padded and trailing-junk lines decode to json.loads's
    value or fail with its exact message."""
    for line in (head + text + tail, text[:cut]):
        try:
            expected = ("ok", json.loads(line))
        except json.JSONDecodeError as exc:
            expected = ("error", str(exc))
        try:
            got = ("ok", loads_line(line))
        except json.JSONDecodeError as exc:
            got = ("error", str(exc))
        assert repr(got) == repr(expected)  # repr: nan != nan
