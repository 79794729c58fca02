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

from .atomic import write_csv
from .corpus import Corpus
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


def compute_stats(corpus: Corpus) -> CorpusStats:
    """Unique/total n-gram ratios for n=1..3 plus average sentence length."""
    if len(corpus) == 0:
        raise ValueError("empty corpus")
    totals = [0, 0, 0]
    uniques = [set(), set(), set()]
    n_tokens = 0
    for sent in corpus:
        forms = [t.form.lower() for t in sent.tokens]
        n_tokens += len(forms)
        for n in (1, 2, 3):
            count = len(forms) - n + 1
            if count <= 0:
                continue
            totals[n - 1] += count
            grams = uniques[n - 1]
            for i in range(count):
                grams.add(tuple(forms[i : i + n]))
    ttrs: list[float | None] = []
    for n in (1, 2, 3):
        if totals[n - 1] == 0:
            warnings.warn(f"corpus has no {n}-grams; ttr_{n} undefined")
            ttrs.append(None)
        else:
            ttrs.append(len(uniques[n - 1]) / totals[n - 1])
    return CorpusStats(
        ttr_1=ttrs[0],
        ttr_2=ttrs[1],
        ttr_3=ttrs[2],
        avg_sentence_length=n_tokens / len(corpus),
        n_sentences=len(corpus),
        n_tokens=n_tokens,
    )


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
