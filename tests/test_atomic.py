"""Every writer goes through atomic_write: a failure leaves the old file whole.
Every CSV table goes through atomic.write_csv, the one CSV writer, and every
JSON record through atomic.write_json, the one JSON writer. Every name has
one import path, the module that defines it."""

import ast
from pathlib import Path

import pytest

import verbscope
from verbscope.analysis import (
    RegressionResult,
    TrajectoryRow,
    TrajectoryTable,
    emit_chart,
    write_regression_csv,
    write_trajectory_csv,
)
from verbscope.cli import main
from verbscope.evaluate import (
    RESULT_COLUMNS,
    CrossDomainMatrix,
    write_matrix_csv,
    write_results_csv,
)
from verbscope.perturb import perturb_corpus
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


@pytest.mark.parametrize(
    "write",
    [_regression, _trajectory, _results, _matrix, _stats, _rates, _chart, _tagger,
     _perturb_report],
    ids=["regression-csv", "trajectory-csv", "results-csv", "matrix-csv", "stats-csv",
         "rates-csv", "chart", "tagger", "perturb-report"],
)
def test_failed_write_leaves_previous_file(tmp_path, monkeypatch, write):
    target = tmp_path / "target"
    target.write_text("previous\n", encoding="utf-8")
    with pytest.raises(Exception):
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
