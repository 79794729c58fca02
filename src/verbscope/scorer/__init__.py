"""Sentence scoring: the native Kneser-Ney model and the external protocol.

Import each name from the module that defines it:

- ``ngram``: the one native implementation, ``NGramLM``, its training
  (``train_ngram``), perplexity and the LM file format. Each model
  memoizes its n-gram log-probabilities, filled lazily; scores are
  bit-identical to the direct sequential sum.
- ``scoring``: ``score_sentences``, which scores each distinct sentence
  once with any scorer (an external command is sent each distinct text
  once, under the first id it appears with), and the score TSV.
- ``external``: ``ExternalScorer``, the child-process protocol.
"""
