"""Every writer goes through atomic_write: a failure leaves the old file whole."""

import pytest

from verbscope.analysis import (
    RegressionResult,
    TrajectoryRow,
    TrajectoryTable,
    emit_chart,
    write_regression_csv,
    write_trajectory_csv,
)
from verbscope.cli import main
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


def _chart(path, _monkeypatch):
    emit_chart({1: [(0.0, 0.5), (1.0, 0.7)]}, path)  # ElementTree refuses an int text


def _tagger(path, _monkeypatch):
    save_tagger(
        TaggerModel({"bias": {"NOUN/NN": Unprintable()}}, (("NOUN", "NN"),), "NOUN/NN"),
        path,
    )


def _perturb_report(path, monkeypatch):
    from verbscope.perturb import PerturbReport

    def refuse(self):
        raise ValueError("report refused")

    monkeypatch.setattr(PerturbReport, "to_json", refuse)
    corpus = path.parent / "in.txt"
    corpus.write_text("the dog naps .\n", encoding="utf-8")
    status = main(["perturb", "--condition", "shuffle-order", "--format", "text",
                   "--in", str(corpus), "--out", str(path.parent / "out.conllu"),
                   "--report", str(path)])
    if status:
        raise RuntimeError(f"perturb exited {status}")


@pytest.mark.parametrize(
    "write",
    [_regression, _trajectory, _chart, _tagger, _perturb_report],
    ids=["regression-csv", "trajectory-csv", "chart", "tagger", "perturb-report"],
)
def test_failed_write_leaves_previous_file(tmp_path, monkeypatch, write):
    target = tmp_path / "target"
    target.write_text("previous\n", encoding="utf-8")
    with pytest.raises(Exception):
        write(target, monkeypatch)
    assert target.read_text(encoding="utf-8") == "previous\n"
    assert not [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]
