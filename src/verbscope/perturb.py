"""The two training-data ablations, with exact change accounting.

REPLACE.WORD swaps content words (nouns, adjectives, adverbs, and verbs
other than the root verb) for same-tag, same-frequency-bin alternatives,
sampled proportionally to their frequency: co-occurrence cues die while
word order and syntax survive. SHUFFLE.ORDER permutes each sentence
uniformly: word order dies while sentence-level co-occurrence survives.

Every sentence draws from its own stream derived from (seed, sentence
index), so a corpus-level pass is deterministic and any sentence can be
re-derived on its own. Proper nouns are left alone unless include_propn
is set, and punctuation shuffles with everything else unless
pin_final_punct is set; both knobs exist because reasonable pipelines
differ here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict

from .corpus import (
    AnnotatedSentence,
    Corpus,
    FrequencyTable,
    Token,
    UNK_TAG,
    bin_index,
    tag_pair,
)
from .rng import Stream, mix64
from .tagger import heuristic_root

ORIGINAL = "ORIGINAL"
REPLACE_WORD = "REPLACE.WORD"
SHUFFLE_ORDER = "SHUFFLE.ORDER"
CONDITIONS = (ORIGINAL, REPLACE_WORD, SHUFFLE_ORDER)

_ALWAYS_REPLACED_UPOS = frozenset({"NOUN", "ADJ", "ADV"})


@dataclass(frozen=True)
class PerturbReport:
    condition: str
    tokens_total: int
    tokens_replaced: int
    replacement_rate: float
    seed: int

    def __post_init__(self):
        if self.condition not in CONDITIONS:
            raise ValueError(f"unknown condition {self.condition!r}")
        expected = (
            self.tokens_replaced / self.tokens_total if self.tokens_total else 0.0
        )
        if abs(self.replacement_rate - expected) > 1e-12:
            raise ValueError(
                f"replacement_rate {self.replacement_rate} does not match "
                f"{self.tokens_replaced}/{self.tokens_total}"
            )
        if self.condition == SHUFFLE_ORDER and self.tokens_replaced:
            raise ValueError("SHUFFLE.ORDER never replaces tokens")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "PerturbReport":
        return cls(**json.loads(text))


def _is_untagged(sentence: AnnotatedSentence) -> bool:
    return any(not t.upos or t.upos == UNK_TAG for t in sentence.tokens)


def replace_word(
    sentence: AnnotatedSentence,
    table: FrequencyTable,
    stream: Stream,
    include_propn: bool = False,
) -> tuple[AnnotatedSentence, int]:
    """Swap each content word for a same-(upos, xpos, bin) alternative.

    The draw is frequency-weighted over the token's bin with the original
    form excluded; tokens whose bin holds nothing else (or that are absent
    from the table) are kept. The root verb, function words, and all tags,
    heads, and dependency labels stay untouched. Exactly one draw is
    consumed per replaced token.
    """
    if _is_untagged(sentence):
        raise ValueError(f"replace_word requires tags (sentence {sentence.sentence_id!r})")
    targets = _ALWAYS_REPLACED_UPOS | {"PROPN"} if include_propn else _ALWAYS_REPLACED_UPOS
    root_idx = heuristic_root(sentence)
    new_tokens = list(sentence.tokens)
    replaced = 0
    for i, tok in enumerate(sentence.tokens):
        if tok.upos in targets:
            pass
        elif tok.upos == "VERB" and i != root_idx:
            pass
        else:
            continue
        upos, xpos = tag_pair(tok)
        count = table.count(upos, xpos, tok.form)
        if count is None:
            continue
        b = bin_index(count)
        members = table.stratum(upos, xpos, b)
        cumulative = table.stratum_cumulative(upos, xpos, b)
        if cumulative[-1] == count:
            continue  # bin holds only the original
        pos = next(k for k, (f, _c) in enumerate(members) if f == tok.form)
        new_form = members[stream.pick_cumulative(cumulative, exclude=pos)][0]
        new_tokens[i] = Token(
            form=new_form,
            lemma=new_form.lower(),
            upos=tok.upos,
            xpos=tok.xpos,
            head=tok.head,
            deprel=tok.deprel,
        )
        replaced += 1
    if replaced == 0:
        return sentence, 0
    return sentence.with_tokens(new_tokens), replaced


def shuffle_order(
    sentence: AnnotatedSentence, stream: Stream, pin_final_punct: bool = False
) -> AnnotatedSentence:
    """Uniform random permutation of the tokens (Fisher-Yates over the stream).

    Dependency heads are remapped so every edge still points at the same
    word after the move. With pin_final_punct, a sentence-final PUNCT
    token keeps its place.
    """
    n = len(sentence.tokens)
    limit = n
    if pin_final_punct and n > 1 and sentence.tokens[-1].upos == "PUNCT":
        limit = n - 1
    order = list(range(limit))
    stream.shuffle(order)
    order.extend(range(limit, n))
    if order == list(range(n)):
        return sentence
    new_pos = [0] * n
    for j, old in enumerate(order):
        new_pos[old] = j
    tokens = []
    for old in order:
        tok = sentence.tokens[old]
        if tok.head is not None:
            tok = Token(
                form=tok.form,
                lemma=tok.lemma,
                upos=tok.upos,
                xpos=tok.xpos,
                head=new_pos[tok.head],
                deprel=tok.deprel,
            )
        tokens.append(tok)
    return sentence.with_tokens(tokens)


def perturb_corpus(
    corpus: Corpus,
    condition: str,
    table: FrequencyTable | None = None,
    seed: int = 0,
    include_propn: bool = False,
    pin_final_punct: bool = False,
) -> tuple[Corpus, PerturbReport]:
    """Apply one condition to every sentence, with per-sentence streams.

    Sentence i draws from Stream(mix64(seed, i)), making the output a pure
    function of (corpus, condition, table, seed).
    """
    if condition not in CONDITIONS:
        raise ValueError(f"unknown condition {condition!r}")
    if condition == REPLACE_WORD and table is None:
        raise ValueError("REPLACE.WORD requires a frequency table")
    total = corpus.n_tokens
    if condition == ORIGINAL:
        return corpus, PerturbReport(condition, total, 0, 0.0, seed)

    def one(i: int, sent: AnnotatedSentence) -> tuple[AnnotatedSentence, int]:
        stream = Stream(mix64(seed, i))
        if condition == SHUFFLE_ORDER:
            return shuffle_order(sent, stream, pin_final_punct), 0
        return replace_word(sent, table, stream, include_propn)

    results = [one(i, sent) for i, sent in enumerate(corpus.sentences)]

    replaced = sum(r for _s, r in results)
    out = Corpus(
        tuple(s for s, _r in results), domain=corpus.domain, split=corpus.split
    )
    rate = replaced / total if total else 0.0
    return out, PerturbReport(condition, total, replaced, rate, seed)


def recount_differences(before: Corpus, after: Corpus) -> int:
    """Independent tally of positions whose form changed (report cross-check)."""
    diff = 0
    for s1, s2 in zip(before.sentences, after.sentences):
        for t1, t2 in zip(s1.tokens, s2.tokens):
            if t1.form != t2.form:
                diff += 1
    return diff
