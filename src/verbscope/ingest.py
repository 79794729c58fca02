"""Read, clean, split, and write corpora.

Formats:
  * CoNLL-U: 10 tab-separated columns, blank-line sentence delimiter,
    UTF-8. Multiword-token ranges (id "3-4") and empty nodes (id "5.1")
    are skipped; comment lines are preserved as sentence-level source
    metadata. Heads are converted between the external 1-based convention
    (0 = root) and the internal 0-based one (None = root).
  * Plain text: one sentence per line, whitespace-tokenized. Tokens get
    UNK tags unless a tagger model is supplied.
  * CHAT transcripts: cleaned to plain text first (see clean_childes).

Splitting is contiguous and sentence-level: block sizes are floor(frac*N)
with leftover sentences assigned train-first. Pass shuffle=True for a
seeded sentence permutation before the blocks are cut.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .atomic import atomic_write
from .corpus import UNK_TAG, AnnotatedSentence, Corpus, token_pool
from .rng import Stream, mix64
from .tagger import tag as tag_sentence

_CONLLU_COLUMNS = 10

FORMATS = ("conllu", "text", "chat")


@dataclass(frozen=True)
class SplitSpec:
    """Exact train/dev/test proportions, kept as rationals summing to 1."""

    train: Fraction
    dev: Fraction
    test: Fraction

    def __post_init__(self):
        for name, frac in self.items():
            if not (0 < frac < 1):
                raise ValueError(f"{name} fraction {frac} outside (0, 1)")
        if self.train + self.dev + self.test != 1:
            raise ValueError("split fractions must sum to 1 exactly")

    def items(self) -> list[tuple[str, Fraction]]:
        return [("train", self.train), ("dev", self.dev), ("test", self.test)]

    @classmethod
    def parse(cls, text: str) -> "SplitSpec":
        """Parse "a,b,c" where each part is a decimal or p/q ratio.

        The parts are ratios, normalized by their exact sum: "10,2.5,2.5"
        and "2/3,1/6,1/6" both give (2/3, 1/6, 1/6).
        """
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != 3:
            raise ValueError(f"expected three comma-separated ratios, got {text!r}")
        try:
            fracs = [Fraction(p) for p in parts]
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"split ratios must be numbers or p/q, got {text!r}") from None
        total = sum(fracs)
        if total <= 0:
            raise ValueError("split ratios must have positive sum")
        train, dev, test = (f / total for f in fracs)
        return cls(train, dev, test)


DEFAULT_SPLIT = SplitSpec(Fraction(2, 3), Fraction(1, 6), Fraction(1, 6))


def read_conllu(path, domain: str = "") -> Corpus:
    """Parse a CoNLL-U file into a Corpus, one sentence per block."""
    sentences: list[AnnotatedSentence] = []
    comments: list[str] = []
    words: list[tuple[int, str, str, str, str, int, str]] = []
    auto_id = 0
    seen_ids: set[str] = set()
    token = token_pool()

    def flush(lineno: int) -> None:
        nonlocal auto_id, comments, words
        if not words:
            comments = []
            return
        auto_id += 1
        sent_id = f"s{auto_id}"
        source_lines = []
        for comment in comments:
            if comment.startswith("sent_id = "):
                sent_id = comment[len("sent_id = "):]
            elif comment.startswith("source = "):
                source_lines.append(comment[len("source = "):])
            elif comment == "source =":  # "# source = " as write_corpus writes an empty line
                source_lines.append("")
            else:
                source_lines.append(comment)
        id_to_pos = {word[0]: pos for pos, word in enumerate(words)}
        try:
            if sent_id in seen_ids:
                raise ValueError(f"duplicate sentence_id {sent_id!r}")
            seen_ids.add(sent_id)
            tokens = []
            for wid, form, lemma, upos, xpos, head, deprel in words:
                if head == 0:
                    head_idx = None
                else:
                    head_idx = id_to_pos.get(head)
                    if head_idx is None:
                        raise ValueError(f"head {head} points outside the sentence")
                tokens.append(token(form, lemma, upos, xpos, head_idx, deprel or None))
            sentences.append(
                AnnotatedSentence(tuple(tokens), sent_id, "\n".join(source_lines))
            )
        except ValueError as exc:
            raise ValueError(f"{path}: sentence ending at line {lineno}: {exc}") from exc
        comments = []
        words = []

    with open(path, encoding="utf-8") as fh:
        lineno = 0
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line or line.isspace():
                flush(lineno)
                continue
            if line[0] == "#":
                comments.append(line[1:].strip())
                continue
            cols = line.split("\t")
            if len(cols) != _CONLLU_COLUMNS:
                raise ValueError(
                    f"{path}: line {lineno}: expected {_CONLLU_COLUMNS} "
                    f"tab-separated columns, got {len(cols)}"
                )
            wid, form, lemma, upos, xpos, _feats, head, deprel, _deps, _misc = cols
            if "-" in wid or "." in wid:
                continue  # multiword range / empty node
            try:
                wid_n = int(wid)
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: non-integer token id {wid!r}")
            if head == "_":
                head_n = 0
            else:
                try:
                    head_n = int(head)
                except ValueError:
                    raise ValueError(f"{path}: line {lineno}: non-integer head {head!r}")
            words.append(
                (
                    wid_n,
                    form,
                    "" if lemma == "_" else lemma,
                    UNK_TAG if upos == "_" else upos,
                    UNK_TAG if xpos == "_" else xpos,
                    head_n,
                    "" if deprel == "_" else deprel,
                )
            )
        flush(lineno)
    return Corpus(tuple(sentences), domain=domain)


def _line_sentences(path, lines: Iterable[tuple[int, str]], tagger) -> list[AnnotatedSentence]:
    """One whitespace-tokenized sentence per non-empty (line number, text)
    line, ids s1, s2, ...; a rejected token or sentence names the line."""
    sentences = []
    token = token_pool()
    for lineno, line in lines:
        forms = line.split()
        if not forms:
            continue
        try:
            sent = AnnotatedSentence(tuple(map(token, forms)), f"s{len(sentences) + 1}")
            if tagger is not None:
                sent = tag_sentence(tagger, sent, token)
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from exc
        sentences.append(sent)
    return sentences


def read_plaintext(path, tagger=None, domain: str = "") -> Corpus:
    """One whitespace-tokenized sentence per line; empty lines skipped."""
    with open(path, encoding="utf-8") as fh:
        return Corpus(tuple(_line_sentences(path, enumerate(fh, start=1), tagger)), domain=domain)


def read_chat(path, tagger=None, domain: str = "") -> Corpus:
    """CHAT transcript: clean to plain text, then tokenize like read_plaintext."""
    with open(path, encoding="utf-8") as fh:
        lines = ((lineno, _clean_chat_line(line)) for lineno, line in enumerate(fh, start=1))
        return Corpus(tuple(_line_sentences(path, lines, tagger)), domain=domain)


def read_corpus(path, format: str, domain: str = "", tagger=None) -> Corpus:
    """Read a corpus in one of FORMATS.

    A tagger model tags text and CHAT input and re-tags CoNLL-U input.
    """
    if format == "conllu":
        corpus = read_conllu(path, domain=domain)
        if tagger is None:
            return corpus
        token = token_pool()
        return Corpus(tuple(tag_sentence(tagger, s, token) for s in corpus), domain=domain)
    if format == "text":
        return read_plaintext(path, tagger=tagger, domain=domain)
    if format == "chat":
        return read_chat(path, tagger=tagger, domain=domain)
    raise ValueError(f"unknown corpus format {format!r}")


_SPEAKER_RE = re.compile(r"^\*\w{2,5}:\s*")
_ANGLE_RE = re.compile(r"<[^<>]*>")
_BRACKET_RE = re.compile(r"\[[^\[\]]*\]")


def clean_childes(lines: Iterable[str]) -> list[str]:
    """Best-effort CHAT transcript cleaning, applied in this order:

    1. drop dependent tiers ("%...") and file headers ("@...")
    2. strip speaker prefixes ("*MOT:<tab>")
    3. delete retrace groups "<...>" and bracketed codes "[...]"
    4. drop tokens starting with "&" and the fillers "xxx"/"yyy"
    5. collapse whitespace; drop lines that end up empty

    Each line is cleaned to a fixpoint (every rule can expose work for an
    earlier one), which is what makes the pass idempotent: running it on
    its own output changes nothing.
    """
    return [s for s in map(_clean_chat_line, lines) if s]


def _clean_chat_line(line: str) -> str:
    """One line of ``clean_childes``: its cleaned text, "" if nothing is left."""
    s = line.strip()
    prev = None
    while prev != s:
        prev = s
        if not s or s.startswith("%") or s.startswith("@"):
            s = ""
            continue
        s = _SPEAKER_RE.sub("", s)
        s = _ANGLE_RE.sub(" ", s)
        s = _BRACKET_RE.sub(" ", s)
        s = " ".join(
            tok
            for tok in s.split()
            if not tok.startswith("&") and tok not in ("xxx", "yyy")
        )
    return s


def split_corpus(
    corpus: Corpus,
    spec: SplitSpec = DEFAULT_SPLIT,
    shuffle: bool = False,
    seed: int = 0,
) -> tuple[Corpus, Corpus, Corpus]:
    """Cut a corpus into train/dev/test blocks.

    Blocks are contiguous in the (optionally shuffled) sentence order; all
    three must come out non-empty.
    """
    n = len(corpus)
    if n < 3:
        raise ValueError(f"need at least 3 sentences to split, got {n}")
    sentences = list(corpus.sentences)
    if shuffle:
        Stream(mix64(seed, 0)).shuffle(sentences)
    sizes = [
        math.floor(spec.train * n),
        math.floor(spec.dev * n),
        math.floor(spec.test * n),
    ]
    for i in range(n - sum(sizes)):  # leftovers go train-first
        sizes[i % 3] += 1
    for name, size in zip(("train", "dev", "test"), sizes):
        if size == 0:
            raise ValueError(f"empty {name} split")
    out = []
    start = 0
    for size in sizes:
        out.append(Corpus(tuple(sentences[start : start + size]), domain=corpus.domain))
        start += size
    return out[0], out[1], out[2]


def write_corpus(corpus: Corpus, path, format: str = "conllu") -> None:
    """Write a corpus as CoNLL-U (lossless for the six token fields) or
    text, whose space-joined lines cannot store a form holding whitespace:
    such a form is a ValueError naming it and its sentence, and nothing is
    written then."""
    if format not in ("conllu", "text"):
        raise ValueError(f"unknown corpus format {format!r}")
    with atomic_write(path) as fh:
        if format == "text":
            for sent in corpus:
                forms = sent.forms()
                line = " ".join(forms)
                if line.split() != forms:  # str.split() cuts at every str.isspace() character
                    form = next(f for f in forms if any(c.isspace() for c in f))
                    raise ValueError(f"sentence {sent.sentence_id!r}: form {form!r} contains "
                                     "whitespace, which the space-joined text format cannot store")
                fh.write(line + "\n")
            return
        for sent in corpus:
            fh.write(f"# sent_id = {sent.sentence_id}\n")
            if sent.source:
                for line in sent.source.split("\n"):
                    fh.write(f"# source = {line}\n")
            for i, tok in enumerate(sent.tokens):
                head = 0 if tok.head is None else tok.head + 1
                fh.write(
                    "\t".join(
                        (
                            str(i + 1),
                            tok.form,
                            tok.lemma if tok.lemma else "_",
                            "_" if tok.upos == UNK_TAG else tok.upos,
                            "_" if tok.xpos == UNK_TAG else tok.xpos,
                            "_",
                            str(head),
                            tok.deprel if tok.deprel else "_",
                            "_",
                            "_",
                        )
                    )
                    + "\n"
                )
            fh.write("\n")
