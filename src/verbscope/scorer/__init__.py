"""Sentence scoring: the native Kneser-Ney model and the external protocol.

Import each name from the module that defines it:

- ``ngram``: the one native implementation, ``NGramLM``, its training
  (``train_ngram``), perplexity and the LM file format. Counting and
  scoring are array work on packed n-gram codes; each distinct n-gram of a
  batch is evaluated and logged once, and a sentence's score is the
  sequential sum of its events' logs.
- ``scoring``: ``score_sentences``, which scores each distinct sentence
  once with any scorer (an external command is sent each distinct text
  once, under the first id it appears with); ``Sentences``, which finds
  and encodes those sentences once for many models; and the score TSV.
- ``external``: ``ExternalScorer``, the child-process protocol.
"""
