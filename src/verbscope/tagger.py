"""Averaged-perceptron POS tagger and the root-verb heuristic.

The tagger predicts a joint (upos, xpos) composite tag per token, so
downstream frequency binning sees the same tag pairs it would get from
parsed input. It exists to let raw-text pipelines run end to end with no
external tools; parsed CoNLL-U input is always preferable, and the
root-verb fallback for unparsed text is an explicitly inferior heuristic.

Training is single-threaded on purpose: the perceptron's update order is
part of its determinism contract. Tagging is pure per sentence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from sys import intern

from .atomic import atomic_write
from .corpus import UNK_TAG, AnnotatedSentence, Corpus, Token
from .rng import Stream, mix64

MODEL_VERSION = "verbscope-tagger/1"

_START = ("-t2-", "-t1-")


def _composite(upos: str, xpos: str) -> str:
    return f"{upos}|{xpos}"


def _split_composite(tag: str) -> tuple[str, str]:
    upos, _, xpos = tag.partition("|")
    return intern(upos), intern(xpos)  # one string per tag, as the readers keep it


def _token_features(
    i: int, forms: list[str], lower: list[str], prev: str, prev2: str
) -> list[str]:
    # Feature set: form, lowercased form, 1-3 char prefixes/suffixes,
    # neighbor forms, previous two predicted tags, plus a bias.
    w = forms[i]
    lw = lower[i]
    feats = ["b", "w=" + w, "lw=" + lw]
    for k in (1, 2, 3):
        if len(lw) >= k:
            feats.append(f"s{k}=" + lw[-k:])
            feats.append(f"p{k}=" + lw[:k])
    feats.append("pw=" + (lower[i - 1] if i > 0 else "<s>"))
    feats.append("nw=" + (lower[i + 1] if i + 1 < len(lower) else "</s>"))
    feats.append("t1=" + prev)
    feats.append("t2=" + prev2)
    return feats


@dataclass
class TaggerModel:
    """Averaged feature weights plus the tag inventory seen in training."""

    feature_weights: dict[str, dict[str, float]]
    tag_set: tuple[tuple[str, str], ...]
    most_frequent_tag: str
    version: str = MODEL_VERSION
    reported_accuracy: float | None = None
    accuracy_kind: str = ""
    _tags: tuple[str, ...] = field(init=False, repr=False)

    def __post_init__(self):
        if not self.tag_set:
            raise ValueError("tagger model needs a non-empty tag set")
        self._tags = tuple(sorted(_composite(u, x) for u, x in self.tag_set))

    def predict(self, forms: list[str]) -> list[str]:
        """Greedy left-to-right composite tags for one sentence."""
        lower = [f.lower() for f in forms]
        prev2, prev = _START
        out = []
        for i in range(len(forms)):
            feats = _token_features(i, forms, lower, prev, prev2)
            choice = _best_tag(
                self.feature_weights, feats, self._tags, self.most_frequent_tag
            )
            out.append(choice)
            prev2, prev = prev, choice
        return out


_EMPTY: dict[str, float] = {}


def _best_tag(
    weights: dict[str, dict[str, float]], feats: list[str], tags: tuple[str, ...],
    fallback: str,
) -> str:
    """The highest-scoring tag, the smallest on a tie; ``fallback`` when
    every tag scores the same (nothing to go on)."""
    scores = dict.fromkeys(tags, 0.0)
    for f in feats:
        for t, w in weights.get(f, _EMPTY).items():
            scores[t] += w
    best = max(scores.values())
    if best == min(scores.values()):
        return fallback
    return min(t for t, s in scores.items() if s == best)


def _require_tags(corpus: Corpus) -> None:
    for sent in corpus:
        for tok in sent.tokens:
            if not tok.upos or tok.upos == UNK_TAG:
                raise ValueError(
                    f"training requires gold tags; sentence {sent.sentence_id!r} "
                    f"has an untagged token {tok.form!r}"
                )


def train_tagger(
    annotated: Corpus, epochs: int = 5, seed: int = 0, heldout: Corpus | None = None
) -> TaggerModel:
    """Train the averaged perceptron.

    Sentence order is reshuffled every epoch from a stream derived from
    (seed, epoch), so equal seeds give byte-identical models. epochs=0 is
    a defined degenerate case: all-zero weights, prediction falls back to
    the corpus's most frequent tag.

    Accuracy is measured on ``heldout`` when given, otherwise on the
    training corpus itself (resubstitution; labeled as such on the model).
    """
    if len(annotated) == 0:
        raise ValueError("empty corpus")
    _require_tags(annotated)

    tag_counts: dict[str, int] = {}
    pairs: set[tuple[str, str]] = set()
    for sent in annotated:
        for tok in sent.tokens:
            tag = _composite(tok.upos, tok.xpos)
            tag_counts[tag] = tag_counts.get(tag, 0) + 1
            pairs.add((tok.upos, tok.xpos))
    most_frequent = min(t for t, c in tag_counts.items() if c == max(tag_counts.values()))
    tags = tuple(sorted(_composite(u, x) for u, x in pairs))

    weights: dict[str, dict[str, float]] = {}
    totals: dict[tuple[str, str], float] = {}
    stamps: dict[tuple[str, str], int] = {}
    step = 0

    def bump(f: str, t: str, delta: float) -> None:
        key = (f, t)
        w = weights.setdefault(f, {})
        totals[key] = totals.get(key, 0.0) + (step - stamps.get(key, 0)) * w.get(t, 0.0)
        stamps[key] = step
        w[t] = w.get(t, 0.0) + delta

    order = list(range(len(annotated)))
    for epoch in range(epochs):
        Stream(mix64(seed, epoch)).shuffle(order)
        for si in order:
            sent = annotated.sentences[si]
            forms = sent.forms()
            lower = [f.lower() for f in forms]
            prev2, prev = _START
            for i, tok in enumerate(sent.tokens):
                step += 1
                gold = _composite(tok.upos, tok.xpos)
                feats = _token_features(i, forms, lower, prev, prev2)
                guess = _best_tag(weights, feats, tags, most_frequent)
                if guess != gold:
                    for f in feats:
                        bump(f, gold, +1.0)
                        bump(f, guess, -1.0)
                prev2, prev = prev, guess  # condition on own predictions

    averaged: dict[str, dict[str, float]] = {}
    if step > 0:
        for f, per_tag in weights.items():
            for t, w in per_tag.items():
                total = totals.get((f, t), 0.0) + (step - stamps.get((f, t), 0)) * w
                avg = total / step
                if avg != 0.0:
                    averaged.setdefault(f, {})[t] = avg

    model = TaggerModel(
        feature_weights=averaged,
        tag_set=tuple(sorted(pairs)),
        most_frequent_tag=most_frequent,
    )
    eval_corpus = heldout if heldout is not None else annotated
    model.accuracy_kind = "heldout" if heldout is not None else "resubstitution"
    model.reported_accuracy = _accuracy(model, eval_corpus)
    return model


def _accuracy(model: TaggerModel, corpus: Corpus) -> float:
    right = total = 0
    for sent in corpus:
        pred = model.predict(sent.forms())
        for tok, tag in zip(sent.tokens, pred):
            total += 1
            if tag == _composite(tok.upos, tok.xpos):
                right += 1
    return right / total if total else 0.0


def tag(model: TaggerModel, sentence: AnnotatedSentence, token=Token) -> AnnotatedSentence:
    """Fill upos/xpos on every token; existing tags are overwritten.

    Tokens are built by ``token``: a reader passes its ``token_pool`` so
    that a tagged read shares equal tokens as an untagged one does.
    """
    predicted = model.predict(sentence.forms())
    tokens = []
    for tok, ptag in zip(sentence.tokens, predicted):
        upos, xpos = _split_composite(ptag)
        tokens.append(
            token(
                form=tok.form,
                lemma=tok.lemma,
                upos=upos,
                xpos=xpos,
                head=tok.head,
                deprel=tok.deprel,
            )
        )
    return sentence.with_tokens(tokens)


def heuristic_root(sentence: AnnotatedSentence) -> int | None:
    """Index of the root verb, or None when there is no verbal root.

    With dependency annotation: the token labeled "root", provided it is a
    VERB (a nominal or copular root yields None). Without it: the leftmost
    VERB token, a documented fallback for raw tagged text.
    """
    for i, tok in enumerate(sentence.tokens):
        if tok.deprel == "root":
            return i if tok.upos == "VERB" else None
    for i, tok in enumerate(sentence.tokens):
        if tok.upos == "VERB":
            return i
    return None


def save_tagger(model: TaggerModel, path) -> None:
    """Versioned sorted-key text format, stable under byte comparison."""
    with atomic_write(path) as fh:
        fh.write(model.version + "\n")
        fh.write(f"mft\t{model.most_frequent_tag}\n")
        if model.reported_accuracy is not None:
            fh.write(f"accuracy\t{model.accuracy_kind}\t{model.reported_accuracy!r}\n")
        for upos, xpos in sorted(model.tag_set):
            fh.write(f"tagpair\t{upos}\t{xpos}\n")
        rows = []
        for f, per_tag in model.feature_weights.items():
            for t, w in per_tag.items():
                rows.append((f, t, w))
        rows.sort()
        for f, t, w in rows:
            fh.write(f"{f}\t{t}\t{w!r}\n")


def load_tagger(path) -> TaggerModel:
    """Rebuild a ``save_tagger`` model; a malformed line is a ValueError
    naming the file and line."""
    with open(path, encoding="utf-8") as fh:
        version = fh.readline().rstrip("\n")
        if version != MODEL_VERSION:
            raise ValueError(f"{path}: line 1: unsupported tagger model version {version!r}")
        most_frequent = ""
        accuracy: float | None = None
        accuracy_kind = ""
        pairs: list[tuple[str, str]] = []
        weights: dict[str, dict[str, float]] = {}
        for lineno, line in enumerate(fh, start=2):
            parts = line.rstrip("\n").split("\t")
            try:
                n = 2 if parts[0] == "mft" else 3
                if len(parts) != n:
                    raise ValueError(f"expected {n} tab-separated fields")
                if parts[0] == "mft":
                    most_frequent = parts[1]
                elif parts[0] == "accuracy":
                    accuracy_kind, accuracy = parts[1], float(parts[2])
                elif parts[0] == "tagpair":
                    pairs.append((parts[1], parts[2]))
                else:
                    f, t, w = parts
                    weights.setdefault(f, {})[t] = float(w)
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
    model = TaggerModel(
        feature_weights=weights,
        tag_set=tuple(pairs),
        most_frequent_tag=most_frequent,
    )
    model.reported_accuracy = accuracy
    model.accuracy_kind = accuracy_kind
    return model
