"""Sentence scoring: the native Kneser-Ney model and the external protocol.

Import each name from the module that defines it:

- ``ngram``: the one native implementation, ``NGramLM``, its training
  (``train_ngram``), perplexity and the LM file format. Counting and
  scoring are array work on packed n-gram codes; each distinct n-gram of a
  batch is evaluated and logged once, and a sentence's score is the
  sequential sum of its events' logs.
- ``scoring``: ``score_sentences``, which scores each distinct sentence
  once with any scorer (an external command gets each distinct text once,
  under its first id) into two columns; ``Sentences``, a batch's ids and
  those sentences, encoded once for many models; and the score TSV.
- ``external``: ``ExternalScorer``, the protocol, and ``check_score``.
"""
