"""Score minimal pairs with any scorer, native or external.

Both members of a pair go through the identical scorer and tokenization;
output order matches input order. On disk, pair members live in the
ordinary score TSV under composite ids "<pair_id>::good" and
"<pair_id>::bad".
"""

from __future__ import annotations

from typing import Sequence

from ..atomic import atomic_write
from ..pairgen import MinimalPair
from .ngram import NGramLM, SentenceScore

ScoredPair = tuple[str, float, float]  # (pair_id, logprob_good, logprob_bad)


def pair_items(pairs: Sequence[MinimalPair]) -> list[tuple[str, list[str]]]:
    """Both members of every pair as (composite id, tokens) rows."""
    ids = [p.pair_id for p in pairs]
    if len(set(ids)) != len(ids):
        raise ValueError("pair ids must be unique")
    items: list[tuple[str, list[str]]] = []
    for p in pairs:
        items.append((p.pair_id + "::good", list(p.good)))
        items.append((p.pair_id + "::bad", list(p.bad)))
    return items


def score_sentences(
    scorer, sentences: Sequence[tuple[str, list[str]]]
) -> list[SentenceScore]:
    """(sentence_id, tokens) -> SentenceScore rows, input order preserved.

    A native model scores each distinct token sequence once; repeats copy
    its score under their own id. An external scorer receives every id.
    """
    if isinstance(scorer, NGramLM):
        return _score_distinct(scorer, sentences)
    results = scorer.score_texts([(sid, " ".join(tokens)) for sid, tokens in sentences])
    return [SentenceScore(sid, *results[sid]) for sid, _tokens in sentences]


def _score_distinct(
    lm: NGramLM, sentences: Sequence[tuple[str, list[str]]]
) -> list[SentenceScore]:
    first: dict[tuple, SentenceScore] = {}
    rows: list[SentenceScore] = []
    for sid, tokens in sentences:
        key = tuple(tokens)
        seen = first.get(key)
        if seen is None:
            row = first[key] = lm.logprob(tokens, sid)
        else:
            row = SentenceScore(sid, seen.logprob, seen.num_tokens)
        rows.append(row)
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
