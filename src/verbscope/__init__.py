"""verbscope: corpus ablation, minimal-pair evaluation, and accuracy analysis.

The pipeline, end to end: ingest and split a corpus, build its frequency
table, perturb the training split (REPLACE.WORD / SHUFFLE.ORDER), train
the native Kneser-Ney scorer or attach an external one, generate semantic
and agreement minimal pairs from the untouched test split, score,
evaluate, and analyze (OLS with interactions, trajectories, charts).
"""

__version__ = "0.1.0"

from .corpus import (
    AnnotatedSentence,
    Corpus,
    FrequencyTable,
    Token,
    build_frequency_table,
)
from .evaluate import EvalResult, Labels, cross_domain_matrix, evaluate
from .pairgen import (
    AgreementLexicon,
    MinimalPair,
    gen_agreement_pairs,
    gen_semantic_pairs,
)
from .perturb import (
    CONDITIONS,
    ORIGINAL,
    REPLACE_WORD,
    SHUFFLE_ORDER,
    PerturbReport,
    perturb_corpus,
)
from .scorer import NGramLM, SentenceScore, score_pairs, train_ngram

__all__ = [
    "AgreementLexicon",
    "AnnotatedSentence",
    "CONDITIONS",
    "Corpus",
    "EvalResult",
    "FrequencyTable",
    "Labels",
    "MinimalPair",
    "NGramLM",
    "ORIGINAL",
    "PerturbReport",
    "REPLACE_WORD",
    "SHUFFLE_ORDER",
    "SentenceScore",
    "Token",
    "build_frequency_table",
    "cross_domain_matrix",
    "evaluate",
    "gen_agreement_pairs",
    "gen_semantic_pairs",
    "perturb_corpus",
    "score_pairs",
    "train_ngram",
]
