"""Sentence scoring: the native Kneser-Ney model and the external protocol.

``ngram`` is the one native scoring and training implementation. Each
model memoizes its n-gram log-probabilities, filled lazily; scores are
bit-identical to the direct sequential sum. ``score_sentences`` scores
each distinct sentence once, with any scorer: an external command is sent
each distinct text once, under the first id it appears with.
"""

from .external import ExternalScorer, ExternalScorerError, external_score
from .ngram import (
    BOS,
    EOS,
    UNK,
    NGramLM,
    SentenceScore,
    corpus_perplexity,
    load_lm,
    save_lm,
    train_ngram,
)
from .scoring import (
    ScoredPair,
    pair_items,
    read_pair_scores,
    score_pairs,
    score_sentences,
    write_scores,
)

__all__ = [
    "BOS",
    "EOS",
    "UNK",
    "ExternalScorer",
    "ExternalScorerError",
    "NGramLM",
    "ScoredPair",
    "SentenceScore",
    "corpus_perplexity",
    "external_score",
    "load_lm",
    "pair_items",
    "read_pair_scores",
    "save_lm",
    "score_pairs",
    "score_sentences",
    "train_ngram",
    "write_scores",
]
