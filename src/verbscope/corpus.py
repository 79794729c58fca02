"""Core corpus types and the tag/frequency-bin machinery.

Word replacement and semantic pair generation both draw a word's
alternatives from its stratum: the words sharing its (coarse tag, fine
tag) pair and its power-of-two frequency band, under the binning rule

    bin(count) = floor(log2(count))

computed exactly on integer counts. Both ask ``FrequencyTable.alternatives``
for a stratum, so the rule and the strata live here and nowhere else.
Tokens without a fine tag fall back to their coarse tag for binning, so
raw-text pipelines still stratify (a degraded mode: one stratum per
coarse tag).

All types are immutable after construction.

A run holds every token, sentence and minimal pair of its corpora in
memory at once, so the records are lean: ``Token`` and
``AnnotatedSentence`` (and ``pairgen.MinimalPair``) are slotted
dataclasses with no per-instance ``__dict__``, and the corpus readers,
the tagger and the fixtures intern the strings they put into tokens
(``sys.intern``), so all tokens of one form, lemma, tag or relation
share one string object. The readers, a tagged read's tagger and the
fixtures go one step further and build their tokens through a
``token_pool``: within one read or one fixture build, tokens with equal
fields are one object. Tokens repeat as often as their strings do (the
100k-token fixture ``chat`` has about 500 distinct ones), so a 1M-token
corpus takes well under a quarter of the memory it would with a dict and
string copies per token, and reads in about half the time. Strings and
tokens are compared by value everywhere, so neither interning nor
sharing changes any output.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as _dc_replace
from itertools import accumulate
from sys import intern
from typing import Callable, Iterable, Iterator, Mapping

from .atomic import atomic_write

UNK_TAG = "UNK"

SPLIT_LABELS = ("train", "dev", "test", "unsplit")

TagKey = tuple[str, str, str]  # (upos, xpos, form)


@dataclass(frozen=True, slots=True)
class Token:
    """One token: surface form, lemma, tags, and optional dependency edge.

    ``head`` is a 0-based index into the owning sentence, or None for the
    root (and for unparsed text). Head range checks live in
    AnnotatedSentence, which knows the sentence length.
    """

    form: str
    lemma: str = ""
    upos: str = UNK_TAG
    xpos: str = UNK_TAG
    head: int | None = None
    deprel: str | None = None

    def __post_init__(self):
        # isprintable() is a cheap pre-check that tab, newline and CR all fail
        if not self.form or not (self.form.isprintable() and self.lemma.isprintable()):
            check_field("token form", self.form)
            if self.lemma:
                check_field("token lemma", self.lemma)


def check_field(what: str, value: str) -> None:
    """Raise ValueError if ``value`` is empty or holds a tab, newline or
    carriage return: it could not be stored as one field of the tab- and
    line-delimited files (CoNLL-U, tables, pairs, score TSVs)."""
    if not value:
        raise ValueError(f"{what} must be non-empty")
    if "\t" in value or "\n" in value or "\r" in value:
        raise ValueError(f"{what} {value!r} contains a tab, newline or carriage return")


def token_pool() -> Callable[..., Token]:
    """A Token constructor that returns one shared token per distinct field tuple.

    Make one pool per read or corpus build and let it go with the corpus;
    never keep one in module state. A hit builds nothing but the lookup
    key. A miss builds and checks the token from interned strings, so
    every check runs once per distinct token and a rejected one raises as
    ``Token`` does; the pool then keys the token on those same strings,
    so it holds no copy of its caller's.
    """
    pool: dict[tuple, Token] = {}

    def token(form, lemma="", upos=UNK_TAG, xpos=UNK_TAG, head=None, deprel=None):
        tok = pool.get((form, lemma, upos, xpos, head, deprel))
        if tok is None:
            form, lemma, upos, xpos = intern(form), intern(lemma), intern(upos), intern(xpos)
            if deprel is not None:
                deprel = intern(deprel)
            tok = Token(form=form, lemma=lemma, upos=upos, xpos=xpos, head=head, deprel=deprel)
            pool[form, lemma, upos, xpos, head, deprel] = tok
        return tok

    return token


def tag_pair(token: Token) -> tuple[str, str]:
    """The (upos, xpos) pair used for binning; missing xpos falls back to upos."""
    return token.upos, token.xpos if token.xpos else token.upos


@dataclass(frozen=True, slots=True)
class AnnotatedSentence:
    tokens: tuple[Token, ...]
    sentence_id: str
    source: str = ""

    def __post_init__(self):
        # an empty id would be written as "# sent_id = " and read back as a source line
        check_field("sentence_id", self.sentence_id)
        if not isinstance(self.tokens, tuple):
            object.__setattr__(self, "tokens", tuple(self.tokens))
        if not self.tokens:
            raise ValueError(f"sentence {self.sentence_id!r} has no tokens")
        n = len(self.tokens)
        roots = 0
        for i, tok in enumerate(self.tokens):
            if tok.deprel == "root":
                roots += 1
            if tok.head is not None and not (0 <= tok.head < n and tok.head != i):
                raise ValueError(
                    f"sentence {self.sentence_id!r}: token {i} has invalid head {tok.head}"
                )
        if roots > 1:
            raise ValueError(f"sentence {self.sentence_id!r} has {roots} root tokens")

    def __len__(self) -> int:
        return len(self.tokens)

    def forms(self) -> list[str]:
        return [t.form for t in self.tokens]

    def with_tokens(self, tokens: Iterable[Token]) -> "AnnotatedSentence":
        return _dc_replace(self, tokens=tuple(tokens))


@dataclass(frozen=True)
class Corpus:
    sentences: tuple[AnnotatedSentence, ...]
    domain: str = ""
    split: str = "unsplit"

    def __post_init__(self):
        if not isinstance(self.sentences, tuple):
            object.__setattr__(self, "sentences", tuple(self.sentences))
        if self.split not in SPLIT_LABELS:
            raise ValueError(f"unknown split label {self.split!r}")
        seen = set()
        for sent in self.sentences:
            if sent.sentence_id in seen:
                raise ValueError(f"duplicate sentence_id {sent.sentence_id!r}")
            seen.add(sent.sentence_id)

    def __len__(self) -> int:
        return len(self.sentences)

    def __iter__(self) -> Iterator[AnnotatedSentence]:
        return iter(self.sentences)

    @property
    def n_tokens(self) -> int:
        return sum(len(s) for s in self.sentences)

    def form_view(self) -> "Forms":
        return Forms((tuple(t.form for t in s.tokens) for s in self.sentences), self.domain)


class Forms(tuple):
    """A corpus as a tuple of form tuples, one per sentence: all training reads.

    Perturbing and training on this view builds no Token objects.
    """

    def __new__(cls, sentences=(), domain: str = ""):
        view = super().__new__(cls, sentences)
        view.domain = domain
        return view

    @property
    def n_tokens(self) -> int:
        return sum(map(len, self))


def bin_index(count: int) -> int:
    """floor(log2(count)), exact on integers; counts must be >= 1."""
    if count < 1:
        raise ValueError(f"counts must be >= 1, got {count}")
    return count.bit_length() - 1


class FrequencyTable:
    """Token frequencies keyed by (upos, xpos, form), with each form's alternatives.

    The forms of one (upos, xpos, bin) stratum are one another's
    frequency-matched alternatives. Each stratum is built once, its
    members sorted by form with their cumulative counts, ready for
    deterministic frequency-weighted sampling.
    """

    def __init__(self, counts: Mapping[TagKey, int]):
        for key, c in counts.items():
            if c < 1:
                raise ValueError(f"count for {key} must be >= 1, got {c}")
        self._counts: dict[TagKey, int] = dict(counts)
        strata: dict[tuple[str, str, int], list[tuple[str, int]]] = {}
        for (upos, xpos, form), c in self._counts.items():
            strata.setdefault((upos, xpos, bin_index(c)), []).append((form, c))
        self._alternatives: dict[TagKey, tuple] = {}
        for (upos, xpos, _bin), members in strata.items():
            if len(members) < 2:
                continue  # a form alone in its stratum has no alternative
            members = tuple(sorted(members))
            cumulative = tuple(accumulate(c for _form, c in members))
            for index, (form, _c) in enumerate(members):
                self._alternatives[upos, xpos, form] = (members, cumulative, index)

    @property
    def counts(self) -> Mapping[TagKey, int]:
        return self._counts

    def count(self, upos: str, xpos: str, form: str) -> int | None:
        return self._counts.get((upos, xpos, form))

    def alternatives(self, upos: str, xpos: str, form: str) -> tuple | None:
        """A form's frequency-matched alternatives, as (members, cumulative, index).

        ``members`` holds the (form, count) entries of the form's (upos,
        xpos, bin) stratum sorted by form, ``cumulative`` their running
        count totals, and ``members[index]`` is the form's own entry. The
        tuple is built once and shared by every caller. None when the form
        is not in the table or is alone in its stratum.
        """
        return self._alternatives.get((upos, xpos, form))

    def forms_by_upos(self, upos: str) -> list[tuple[str, int]]:
        """Aggregated (form, count) for one coarse tag, most frequent first."""
        agg: dict[str, int] = {}
        for (u, _x, form), c in self._counts.items():
            if u == upos:
                agg[form] = agg.get(form, 0) + c
        return sorted(agg.items(), key=lambda kv: (-kv[1], kv[0]))


def build_frequency_table(corpus: Corpus) -> FrequencyTable:
    """Exact (upos, xpos, form) frequencies of a corpus, with log2 bins."""
    if len(corpus) == 0:
        raise ValueError("empty corpus")
    counts: dict[TagKey, int] = {}
    for sent in corpus:
        for tok in sent.tokens:
            upos, xpos = tag_pair(tok)
            key = (upos, xpos, tok.form)
            counts[key] = counts.get(key, 0) + 1
    return FrequencyTable(counts)


def save_table(table: FrequencyTable, path) -> None:
    """Write a frequency table as sorted TSV: upos, xpos, form, count."""
    with atomic_write(path) as fh:
        fh.write("verbscope-table/1\n")
        for (upos, xpos, form), c in sorted(table.counts.items()):
            fh.write(f"{upos}\t{xpos}\t{form}\t{c}\n")


def load_table(path) -> FrequencyTable:
    counts: dict[TagKey, int] = {}
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != "verbscope-table/1":
            raise ValueError(f"{path}: not a frequency table file")
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise ValueError(f"{path}: line {lineno}: expected 4 columns")
            upos, xpos, form, c = parts
            try:
                counts[(upos, xpos, form)] = int(c)
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: count {c!r} is not an integer")
    return FrequencyTable(counts)
