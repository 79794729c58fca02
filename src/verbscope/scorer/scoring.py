"""Score minimal pairs with any scorer, native or external.

Both members of a pair go through the identical scorer and tokenization.
``score_sentences`` is the one scoring path: native model or external
command, it scores each distinct token sequence of a batch once and its
repeats copy the score (semantic pairs of one source sentence share
their good member). A batch (``Sentences``) carries its rows' ids, and
its scores are two columns in row order, log-probabilities and event
counts, from the model to the score TSV beside those ids; pair rows are
read off them by position. On disk, pair members live in the ordinary
score TSV under composite ids "<pair_id>::good" and "<pair_id>::bad",
one row per id, checked on reading as the external protocol checks a
score.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..atomic import atomic_write
from ..corpus import Forms
from ..pairgen import MinimalPair
from .external import check_score
from .ngram import NGramLM

ScoredPair = tuple[str, float, float]  # (pair_id, logprob_good, logprob_bad)


_MEMBERS = ("good", "bad")


def member_ids(pair_ids: Iterable[str]) -> list[str]:
    """The composite ids of the pairs' members in row order: "<pair_id>::good"
    then "<pair_id>::bad" for each pair."""
    return [f"{pid}::{member}" for pid in pair_ids for member in _MEMBERS]


def pair_items(pairs: Iterable[MinimalPair]) -> "Sentences":
    """Both members of every pair as one batch: pair k's good member at
    row 2k and its bad member at row 2k + 1, so the scores of these rows
    pair up by position. The tokens are the pair's own member tuples;
    of each pair only its id and those tuples are kept as it arrives, so
    a stream of pairs is never held whole. A repeated id is refused here
    for pairs built in memory, as a domain's prep generates them; a pair
    file's repeat is refused by ``read_pairs`` at its record, so on that
    path this check never fires."""
    ids, members = [], []
    for p in pairs:
        ids.append(p.pair_id)
        members += p.good, p.bad
    if len(set(ids)) != len(ids):
        raise ValueError("pair ids must be unique")
    return Sentences(zip(member_ids(ids), members))


class Sentences:
    """A batch of (id, tokens) rows, each distinct token sequence kept once.

    ``ids`` holds the rows' ids, ``distinct`` each distinct sequence in
    first-seen order and ``index[r]`` (int32) row r's sequence. Iterating
    gives the (id, tokens) rows; ``len()`` is their count. ``encoded`` is
    the distinct sequences as a ``Forms`` view. Each is derived from the
    other on first use and kept, so the models of one batch share one
    encoding, and ``of_encoded``'s batch holds no tuples until iterated.
    """

    def __init__(self, rows: Iterable[tuple[str, Sequence[str]]]):
        seen: dict[tuple, int] = {}
        self.ids: list[str] = []
        index = []
        for sid, tokens in rows:  # one pass: ``rows`` may be a stream
            self.ids.append(sid)
            index.append(seen.setdefault(tuple(tokens), len(seen)))
        self.index = np.array(index, dtype=np.int32)
        self.distinct = list(seen)

    @classmethod
    def of_encoded(cls, ids: list[str], encoded: Forms, index: np.ndarray) -> "Sentences":
        """The batch whose distinct sequences ``encoded`` holds in first-seen
        order, row r being ``ids[r]`` with sequence ``index[r]``."""
        batch = cls.__new__(cls)
        batch.ids, batch.index, batch.encoded = ids, index, encoded
        return batch

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[tuple[str, tuple[str, ...]]]:
        return zip(self.ids, map(self.distinct.__getitem__, self.index.tolist()))

    @cached_property
    def distinct(self) -> list[tuple[str, ...]]:
        return list(self.encoded)

    @cached_property
    def encoded(self) -> Forms:
        return Forms.encode(self.distinct)


def score_sentences(scorer, sentences: Sentences) -> tuple[list[float], list[int]]:
    """A batch -> two columns in row order: each row's log-probability and
    its event count.

    Each distinct token sequence is scored once, by a native model (one
    ``score_forms`` call over the batch's encoding) or an external scorer
    (sent under the id it first appears with); a repeat takes that score
    under its own id. A scorer's total depends only on the text it is
    sent, so no score changes.
    """
    if isinstance(scorer, NGramLM):
        logprobs, counts = scorer.score_forms(sentences.encoded)
    else:
        first = np.unique(sentences.index, return_index=True)[1].tolist()
        first_ids = [sentences.ids[r] for r in first]
        results = scorer.score_texts(
            [(sid, " ".join(key)) for sid, key in zip(first_ids, sentences.distinct)]
        )
        logprobs = [results[sid][0] for sid in first_ids]
        counts = [results[sid][1] for sid in first_ids]
    index = sentences.index.tolist()
    return [logprobs[at] for at in index], [counts[at] for at in index]


def write_scores(ids: Iterable[str], logprobs: Sequence, counts: Sequence, path) -> None:
    """TSV: sentence_id, logprob, num_tokens; one row per id, in order."""
    rows = zip(ids, logprobs, counts, strict=True)
    with atomic_write(path) as fh:
        fh.write("".join([f"{sid}\t{lp!r}\t{n}\n" for sid, lp, n in rows]))


def read_pair_scores(path) -> list[ScoredPair]:
    """Rebuild pair score rows from a score TSV written via pair_items ids.

    Each row's score is held to the external protocol's rules
    (``check_score``); a row that breaks them, like a malformed row, is a
    ValueError naming the file and line.
    """
    good: dict[str, float] = {}
    bad: dict[str, float] = {}
    order: list[str] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                sid, lp, ntok = line.split("\t")
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: expected 3 tab-separated columns")
            pair_id, _, member = sid.rpartition("::")
            if member not in _MEMBERS or not pair_id:
                raise ValueError(f"{path}: line {lineno}: id {sid!r} lacks ::good/::bad suffix")
            target = good if member == "good" else bad
            if pair_id in target:
                raise ValueError(f"{path}: line {lineno}: duplicate {sid!r}")
            try:
                target[pair_id] = check_score(lp, ntok)[0]
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
            if member == "good":
                order.append(pair_id)
    lone = set(good).symmetric_difference(bad)
    if lone:
        raise ValueError(f"{path}: unpaired ids: {sorted(lone)[:10]}")
    return [(pid, good[pid], bad[pid]) for pid in order]
