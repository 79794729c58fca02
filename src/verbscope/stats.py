"""Descriptive corpus statistics and replacement-rate accounting.

Type-token ratios are computed over within-sentence n-grams of lowercased
forms (no n-gram crosses a sentence boundary); that convention is
documented here precisely so any deviation from externally published
numbers is attributable to it. The stats and rates CSVs are rows handed to
``atomic.write_csv``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .atomic import write_csv
from .corpus import Forms
from .perturb import PerturbReport


@dataclass(frozen=True)
class CorpusStats:
    ttr_1: float | None
    ttr_2: float | None
    ttr_3: float | None
    avg_sentence_length: float
    n_sentences: int
    n_tokens: int

    def __post_init__(self):
        for name in ("ttr_1", "ttr_2", "ttr_3"):
            v = getattr(self, name)
            if v is not None and not (0 < v <= 1):
                raise ValueError(f"{name} must be in (0, 1], got {v}")
        if self.avg_sentence_length < 1:
            raise ValueError("average sentence length must be >= 1")


def compute_stats(forms: Forms) -> CorpusStats:
    """Unique/total n-gram ratios for n=1..3 plus average sentence length.

    An n-gram is the int64 code (rank of its (n - 1)-gram prefix) x
    (distinct lowercased forms) + (its last form's id), below (tokens + 1)
    x forms for any vocabulary; its distinct codes are the run starts of
    the sorted codes. The arrays peak at about 48 bytes per token.
    """
    n_sentences, n_tokens = len(forms), forms.n_tokens
    if n_sentences == 0:
        raise ValueError("empty corpus")
    index: dict[str, int] = {}  # each distinct lowercased form's id
    ids = np.array([index.setdefault(form.lower(), len(index)) for form in forms.vocab],
                   dtype=np.int32)[forms.ids]
    ends, lengths = forms.offsets[1:], np.diff(forms.offsets)
    opens = np.ones(n_tokens, dtype=bool)  # where an n-gram starts within its sentence
    ranks = np.zeros(n_tokens, dtype=np.int64)  # a 1-gram's prefix is the empty 0-gram
    ttrs: list[float | None] = []
    for n in (1, 2, 3):
        starts = np.flatnonzero(opens)
        if len(starts) == 0:
            warnings.warn(f"corpus has no {n}-grams; ttr_{n} undefined")
            ttrs.append(None)
            continue
        codes = ranks[starts] * len(index) + ids[starts + n - 1]
        order = np.argsort(codes)
        codes = codes[order]
        new = np.concatenate(([True], codes[1:] != codes[:-1]))  # where a distinct code starts
        del codes
        ranks[starts[order]] = np.cumsum(new)  # from 1: the prefix ranks of the (n + 1)-grams
        ttrs.append(int(np.count_nonzero(new)) / len(starts))
        opens[(ends - n)[lengths >= n]] = False  # a sentence's last n tokens start no (n + 1)-gram
    return CorpusStats(*ttrs, n_tokens / n_sentences, n_sentences, n_tokens)


@dataclass(frozen=True)
class RateTable:
    rows: tuple[tuple[str, str, float], ...]  # (domain, condition, rate)
    length_correlation: float | None  # Pearson r of rate vs avg sentence length


def compare_replacement_rates(
    reports: Mapping[str, PerturbReport],
    stats: Mapping[str, CorpusStats] | None = None,
) -> RateTable:
    """Replacement rate per domain, echoing the reports exactly, plus the
    correlation with average sentence length when stats are supplied."""
    if not reports:
        raise ValueError("no reports")
    rows = tuple(
        (domain, reports[domain].condition, reports[domain].replacement_rate)
        for domain in sorted(reports)
    )
    corr = None
    if stats:
        paired = [
            (stats[d].avg_sentence_length, r.replacement_rate)
            for d, r in reports.items()
            if d in stats
        ]
        if len(paired) >= 2:
            corr = _pearson(paired)
    return RateTable(rows=rows, length_correlation=corr)


def _pearson(points: list[tuple[float, float]]) -> float | None:
    n = len(points)
    mx = sum(x for x, _ in points) / n
    my = sum(y for _, y in points) / n
    sxx = sum((x - mx) ** 2 for x, _ in points)
    syy = sum((y - my) ** 2 for _, y in points)
    sxy = sum((x - mx) * (y - my) for x, y in points)
    if sxx == 0 or syy == 0:
        return None
    return sxy / math.sqrt(sxx * syy)


def format_stats(named: Mapping[str, CorpusStats]) -> str:
    """Aligned table with one column per corpus."""
    domains = sorted(named)
    rows = [
        ("1-gram TTR", lambda s: _fmt(s.ttr_1)),
        ("2-gram TTR", lambda s: _fmt(s.ttr_2)),
        ("3-gram TTR", lambda s: _fmt(s.ttr_3)),
        ("Avg sent length", lambda s: f"{s.avg_sentence_length:.2f}"),
        ("Sentences", lambda s: str(s.n_sentences)),
        ("Tokens", lambda s: str(s.n_tokens)),
    ]
    width = max(len(d) for d in domains) + 2 if domains else 10
    lines = ["Statistic".ljust(18) + "".join(d.rjust(width) for d in domains)]
    for label, getter in rows:
        lines.append(
            label.ljust(18) + "".join(getter(named[d]).rjust(width) for d in domains)
        )
    return "\n".join(lines)


def _fmt(v: float | None) -> str:
    return "NA" if v is None else f"{v:.3f}"


def write_stats_csv(named: Mapping[str, CorpusStats], path) -> None:
    write_csv(path, [("domain", "ttr_1", "ttr_2", "ttr_3", "avg_sentence_length",
                      "n_sentences", "n_tokens")] + [
        [d, s.ttr_1, s.ttr_2, s.ttr_3, s.avg_sentence_length, s.n_sentences, s.n_tokens]
        for d, s in sorted(named.items())
    ])


def write_rates_csv(table: RateTable, path) -> None:
    rows = [["domain", "condition", "replacement_rate"], *table.rows]
    if table.length_correlation is not None:
        rows += [[], ["length_correlation", table.length_correlation]]
    write_csv(path, rows)
