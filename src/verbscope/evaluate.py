"""Turn scored pairs into accuracies, per paradigm and per domain pairing.

A pair counts as a win when the good member outscores the bad one. Exact
score ties get half credit and are reported separately: a continuous
neural scorer essentially never ties, but an n-gram scorer can (e.g. when
both members back off identically), and silently counting ties either way
would bias the comparison.

Results take one form on their way to the files: ``result_rows`` turns an
``EvalResult`` into rows of typed values (``accuracy`` a float, ``n`` and
``ties`` ints), which ``cell.json`` stores as JSON numbers.
``write_results_csv`` is the one results-CSV writer, and
``cross_domain_matrix`` averages (train, eval, accuracy) triples taken
from those rows. ``read_results_csv`` is the one reader of that file.
Both CSV writers here only build rows; ``atomic.write_csv`` formats them.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

from .atomic import write_csv

ALL_ROW = "ALL"  # the paradigm label of a result's row over all its pairs


class Labels(NamedTuple):
    train_domain: str = ""
    eval_domain: str = ""
    condition: str = ""
    checkpoint: str = ""


@dataclass(frozen=True)
class EvalResult:
    accuracy: float
    n_pairs: int
    n_ties: int
    per_paradigm: dict  # paradigm -> (accuracy, n, ties)
    labels: Labels = Labels()

    def __post_init__(self):
        if sum(n for _a, n, _t in self.per_paradigm.values()) != self.n_pairs:
            raise ValueError("per-paradigm counts do not sum to n_pairs")


def evaluate(
    scored: Iterable[tuple[str, float, float]],
    pairs_meta: Mapping[str, str],
    labels: Labels = Labels(),
) -> EvalResult:
    """Accuracy = (wins + 0.5 * ties) / n, with a per-paradigm breakdown.

    ``pairs_meta`` maps pair_id -> paradigm and must cover every scored id.
    """
    wins = ties = n = 0
    by_paradigm: dict[str, list[int]] = {}  # paradigm -> [wins, ties, n]
    seen: set[str] = set()
    for pair_id, lp_good, lp_bad in scored:
        if pair_id in seen:
            raise ValueError(f"duplicate pair_id {pair_id!r}")
        seen.add(pair_id)
        paradigm = pairs_meta.get(pair_id)
        if paradigm is None:
            raise ValueError(f"no metadata for pair_id {pair_id!r}")
        n += 1
        row = by_paradigm.setdefault(paradigm, [0, 0, 0])
        row[2] += 1
        if lp_good > lp_bad:
            wins += 1
            row[0] += 1
        elif lp_good == lp_bad:
            ties += 1
            row[1] += 1
    if n == 0:
        raise ValueError("no pairs")
    per_paradigm = {
        p: ((w + 0.5 * t) / m, m, t) for p, (w, t, m) in sorted(by_paradigm.items())
    }
    return EvalResult(
        accuracy=(wins + 0.5 * ties) / n,
        n_pairs=n,
        n_ties=ties,
        per_paradigm=per_paradigm,
        labels=labels,
    )


@dataclass(frozen=True)
class CrossDomainMatrix:
    train_domains: tuple[str, ...]
    eval_domains: tuple[str, ...]
    cells: dict  # (train_domain, eval_domain) -> mean accuracy
    diagonal_mean: float | None
    off_diagonal_mean: float | None
    missing: tuple[tuple[str, str], ...]


def cross_domain_matrix(
    accuracies: Iterable[tuple[str, str, float]],
) -> CrossDomainMatrix:
    """Mean accuracy per (train domain, eval domain) cell.

    ``accuracies`` holds (train domain, eval domain, accuracy) rows, one per
    replicate. Each cell averages its rows in input order; the diagonal and
    off-diagonal means average the cells in sorted (train, eval) order.
    Missing grid cells are reported (and warned about), not invented.
    """
    acc: dict[tuple[str, str], list[float]] = {}
    for train, eval_domain, accuracy in accuracies:
        acc.setdefault((train, eval_domain), []).append(accuracy)
    train_domains = tuple(sorted({t for t, _e in acc}))
    eval_domains = tuple(sorted({e for _t, e in acc}))
    cells = {k: sum(v) / len(v) for k, v in sorted(acc.items())}
    missing = tuple(
        (t, e) for t in train_domains for e in eval_domains if (t, e) not in cells
    )
    if missing:
        warnings.warn(f"cross-domain grid has missing cells: {missing}")
    diag = [v for (t, e), v in cells.items() if t == e]
    off = [v for (t, e), v in cells.items() if t != e]
    return CrossDomainMatrix(
        train_domains=train_domains,
        eval_domains=eval_domains,
        cells=cells,
        diagonal_mean=sum(diag) / len(diag) if diag else None,
        off_diagonal_mean=sum(off) / len(off) if off else None,
        missing=missing,
    )


RESULT_COLUMNS = (
    "train_domain",
    "eval_domain",
    "condition",
    "checkpoint",
    "paradigm",
    "accuracy",
    "n",
    "ties",
)


def result_rows(result: EvalResult) -> list[dict]:
    """One ALL row plus one row per paradigm, ready for the results CSV."""
    base = result.labels._asdict()
    rows = [dict(base, paradigm=ALL_ROW, accuracy=result.accuracy, n=result.n_pairs,
                 ties=result.n_ties)]
    for paradigm, (accuracy, n, ties) in result.per_paradigm.items():
        rows.append(dict(base, paradigm=paradigm, accuracy=accuracy, n=n, ties=ties))
    return rows


def write_results_csv(rows: Iterable[dict], path) -> None:
    """The results CSV: ``result_rows`` rows, sorted by every column as text,
    ``accuracy``, ``n`` and ``ties`` included (``"10"`` sorts before ``"9"``)."""
    rows = list(rows)
    if any(r.keys() != set(RESULT_COLUMNS) for r in rows):
        raise ValueError(f"a results row must have exactly the columns {RESULT_COLUMNS}")
    table = sorted(([r[c] for c in RESULT_COLUMNS] for r in rows), key=lambda t: tuple(map(str, t)))
    write_csv(path, [RESULT_COLUMNS, *table])


def read_results_csv(path, columns: Sequence[str]) -> list[dict]:
    """The rows of a results CSV, each of ``columns`` required in the header.

    ``accuracy`` is parsed as a float and ``n`` as an int where they are in
    ``columns``. A missing column, a row of the wrong length or a bad number
    is a ValueError naming the file and line.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in columns if c not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{path}: line 1: no column {missing[0]!r}")
        rows = []
        for row in reader:
            where = f"{path}: line {reader.line_num}"
            if None in row or None in row.values():
                raise ValueError(f"{where}: expected {len(reader.fieldnames)} fields")
            for column, parse in (("accuracy", float), ("n", int)):
                if column in columns:
                    try:
                        row[column] = parse(row[column])
                    except ValueError:
                        raise ValueError(
                            f"{where}: {column} must be {parse.__name__}, got {row[column]!r}"
                        ) from None
            rows.append(row)
    return rows


def write_matrix_csv(matrix: CrossDomainMatrix, path) -> None:
    rows = [["train\\eval", *matrix.eval_domains]]
    for t in matrix.train_domains:
        rows.append([t] + [matrix.cells.get((t, e), "NA") for e in matrix.eval_domains])
    rows += [[], ["diagonal_mean", matrix.diagonal_mean],
             ["off_diagonal_mean", matrix.off_diagonal_mean]]
    write_csv(path, rows)
