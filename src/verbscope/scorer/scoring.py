"""Score minimal pairs with any scorer, native or external.

Both members of a pair go through the identical scorer and tokenization;
output order matches input order. ``score_sentences`` is the one scoring
path: native model or external command, each distinct token sequence is
scored once and its repeats copy the score (semantic pairs of one source
sentence share their good member). On disk, pair members live in the
ordinary score TSV under composite ids "<pair_id>::good" and
"<pair_id>::bad", one row per id.
"""

from __future__ import annotations

from typing import Sequence

from ..atomic import atomic_write
from ..pairgen import MinimalPair
from .ngram import NGramLM, SentenceScore

ScoredPair = tuple[str, float, float]  # (pair_id, logprob_good, logprob_bad)


def pair_items(pairs: Sequence[MinimalPair]) -> list[tuple[str, tuple[str, ...]]]:
    """Both members of every pair as (composite id, tokens) rows; the
    tokens are the pair's own member tuples."""
    ids = [p.pair_id for p in pairs]
    if len(set(ids)) != len(ids):
        raise ValueError("pair ids must be unique")
    items: list[tuple[str, tuple[str, ...]]] = []
    for p in pairs:
        items.append((p.pair_id + "::good", p.good))
        items.append((p.pair_id + "::bad", p.bad))
    return items


def score_sentences(
    scorer, sentences: Sequence[tuple[str, Sequence[str]]]
) -> list[SentenceScore]:
    """(sentence_id, tokens) -> SentenceScore rows, input order preserved.

    Each distinct token sequence is scored once, under the id it first
    appears with, by a native model or an external scorer alike; a repeat
    copies that score under its own id. A scorer's total depends only on
    the text it is sent, so no score changes.
    """
    first: dict[tuple, str] = {}  # each distinct sequence -> the id it is scored under
    for sid, tokens in sentences:
        first.setdefault(tuple(tokens), sid)
    if isinstance(scorer, NGramLM):
        scored = {key: scorer.logprob(key, sid) for key, sid in first.items()}
    else:
        results = scorer.score_texts([(sid, " ".join(key)) for key, sid in first.items()])
        scored = {key: SentenceScore(sid, *results[sid]) for key, sid in first.items()}
    rows = []
    for sid, tokens in sentences:
        row = scored[tuple(tokens)]
        rows.append(row if row.sentence_id == sid else SentenceScore(sid, row.logprob, row.num_tokens))
    return rows


def score_pairs(scorer, pairs: Sequence[MinimalPair]) -> list[ScoredPair]:
    return scored_pairs(pairs, score_sentences(scorer, pair_items(pairs)))


def scored_pairs(
    pairs: Sequence[MinimalPair], scores: Sequence[SentenceScore]
) -> list[ScoredPair]:
    """Pair score rows, in pair order, from the scores of pair_items(pairs)."""
    by_id = {s.sentence_id: s.logprob for s in scores}
    return [
        (p.pair_id, by_id[p.pair_id + "::good"], by_id[p.pair_id + "::bad"])
        for p in pairs
    ]


def write_scores(scores: Sequence[SentenceScore], path) -> None:
    """TSV: sentence_id, logprob, num_tokens."""
    with atomic_write(path) as fh:
        for row in scores:
            fh.write(f"{row.sentence_id}\t{row.logprob!r}\t{row.num_tokens}\n")


def read_pair_scores(path) -> list[ScoredPair]:
    """Rebuild pair score rows from a score TSV written via pair_items ids."""
    good: dict[str, float] = {}
    bad: dict[str, float] = {}
    order: list[str] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                sid, lp, _ntok = line.split("\t")
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: expected 3 tab-separated columns")
            pair_id, _, member = sid.rpartition("::")
            if member not in ("good", "bad") or not pair_id:
                raise ValueError(f"{path}: line {lineno}: id {sid!r} lacks ::good/::bad suffix")
            target = good if member == "good" else bad
            if pair_id in target:
                raise ValueError(f"{path}: line {lineno}: duplicate {sid!r}")
            try:
                target[pair_id] = float(lp)
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: logprob {lp!r} is not a number")
            if member == "good":
                order.append(pair_id)
    lone = set(good).symmetric_difference(bad)
    if lone:
        raise ValueError(f"{path}: unpaired ids: {sorted(lone)[:10]}")
    return [(pid, good[pid], bad[pid]) for pid in order]
