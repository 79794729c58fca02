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

A seed-independent plan (``perturb_plan``) fixes what each sentence
draws from: its REPLACE.WORD targets or its SHUFFLE.ORDER span. The draw
primitives ``replace_word`` and ``shuffle_order`` turn a plan entry and a
stream into replacements or a permutation. ``perturb_forms`` applies the
draws to the form view a model trains on; ``perturb_corpus`` applies the
same draws to whole sentences for ``verbscope perturb``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .corpus import (
    AnnotatedSentence,
    Corpus,
    Forms,
    FrequencyTable,
    UNK_TAG,
    tag_pair,
)
from .rng import Stream, mix64
from .tagger import heuristic_root

ORIGINAL = "ORIGINAL"
REPLACE_WORD = "REPLACE.WORD"
SHUFFLE_ORDER = "SHUFFLE.ORDER"
CONDITIONS = (ORIGINAL, REPLACE_WORD, SHUFFLE_ORDER)


def condition_slug(condition: str) -> str:
    """A condition's lower-case, dashed name: its directory under a ``run``
    domain and its ``perturb --condition`` choice."""
    return condition.lower().replace(".", "-")


_ALWAYS_REPLACED_UPOS = frozenset({"NOUN", "ADJ", "ADV"})


@dataclass(frozen=True)
class PerturbReport:
    condition: str
    tokens_total: int
    tokens_replaced: int
    replacement_rate: float
    seed: int | None  # None for ORIGINAL in `run`, which draws on no seed

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


def replace_plan(
    sentence: AnnotatedSentence, table: FrequencyTable, include_propn: bool = False
) -> tuple:
    """The REPLACE.WORD targets of one sentence, in position order.

    A target is a content word with a frequency-matched alternative, given
    as (position, the table's ``alternatives`` of its form). The root verb
    and function words are never targets.
    """
    if any(not t.upos or t.upos == UNK_TAG for t in sentence.tokens):
        raise ValueError(f"replace_word requires tags (sentence {sentence.sentence_id!r})")
    targets = _ALWAYS_REPLACED_UPOS | {"PROPN"} if include_propn else _ALWAYS_REPLACED_UPOS
    root_idx = heuristic_root(sentence)
    plan = []
    for i, tok in enumerate(sentence.tokens):
        if not (tok.upos in targets or (tok.upos == "VERB" and i != root_idx)):
            continue
        alternatives = table.alternatives(*tag_pair(tok), tok.form)
        if alternatives is not None:
            plan.append((i, alternatives))
    return tuple(plan)


def replace_word(plan: tuple, stream: Stream) -> list[tuple[int, str]]:
    """The (position, new form) replacements: one frequency-weighted draw per
    target, the original form excluded, so every target is replaced."""
    return [
        (i, members[stream.pick_cumulative(cumulative, exclude=index)][0])
        for i, (members, cumulative, index) in plan
    ]


def shuffle_order(span: int, stream: Stream) -> list[int]:
    """Uniform permutation of range(span) (Fisher-Yates over the stream):
    entry j is the old position of the token that moves to position j."""
    order = list(range(span))
    stream.shuffle(order)
    return order


def perturb_plan(
    corpus: Corpus,
    condition: str,
    table: FrequencyTable | None = None,
    include_propn: bool = False,
    pin_final_punct: bool = False,
) -> tuple:
    """Each sentence's draw input, which no seed changes: its REPLACE.WORD
    targets, or how many leading tokens SHUFFLE.ORDER moves."""
    if condition not in CONDITIONS:
        raise ValueError(f"unknown condition {condition!r}")
    if condition == REPLACE_WORD:
        if table is None:
            raise ValueError("REPLACE.WORD requires a frequency table")
        return tuple(replace_plan(s, table, include_propn) for s in corpus)
    if condition == SHUFFLE_ORDER:  # all tokens, or all but a pinned final PUNCT
        return tuple(
            len(s) - (pin_final_punct and len(s) > 1 and s.tokens[-1].upos == "PUNCT")
            for s in corpus
        )
    return ()


def _draws(condition: str, plan: tuple, seed: int):
    """(i, draw) for each sentence with something to draw, from Stream(mix64(seed, i))."""
    for i, entry in enumerate(plan):
        if condition == REPLACE_WORD and entry:
            yield i, replace_word(entry, Stream(mix64(seed, i)))
        elif condition == SHUFFLE_ORDER and entry > 1:
            yield i, shuffle_order(entry, Stream(mix64(seed, i)))


def _report(condition: str, total: int, replaced: int, seed: int | None) -> PerturbReport:
    return PerturbReport(condition, total, replaced, replaced / total if total else 0.0, seed)


def perturb_forms(
    forms: Forms, condition: str, plan: tuple, seed: int | None = 0
) -> tuple[Forms, PerturbReport]:
    """Apply one condition to a corpus's form view; ``plan`` is the corpus's
    ``perturb_plan``. Gives the forms and report ``perturb_corpus`` gives."""
    out = list(forms)
    replaced = 0
    for i, draw in _draws(condition, plan, seed):
        if condition == REPLACE_WORD:
            new = list(forms[i])
            for pos, form in draw:
                new[pos] = form
            out[i] = tuple(new)
            replaced += len(draw)
        else:
            out[i] = tuple([forms[i][k] for k in draw]) + forms[i][len(draw):]
    return Forms(out, forms.domain), _report(condition, forms.n_tokens, replaced, seed)


def apply_replacements(sentence: AnnotatedSentence, replacements: list) -> AnnotatedSentence:
    """Swap each replaced token's form and lemma; tags, heads and labels stay."""
    tokens = list(sentence.tokens)
    for i, form in replacements:
        tokens[i] = replace(tokens[i], form=form, lemma=form.lower())
    return sentence.with_tokens(tokens)


def apply_order(sentence: AnnotatedSentence, order: list[int]) -> AnnotatedSentence:
    """Permute the first len(order) tokens, remapping heads so every
    dependency edge still points at the same word."""
    order = order + list(range(len(order), len(sentence)))
    new_pos = {old: j for j, old in enumerate(order)}
    return sentence.with_tokens(
        tok if tok.head is None else replace(tok, head=new_pos[tok.head])
        for tok in map(sentence.tokens.__getitem__, order)
    )


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
    function of (corpus, condition, table, seed). These are the draws of
    ``perturb_forms``, applied to whole sentences.
    """
    plan = perturb_plan(corpus, condition, table, include_propn, pin_final_punct)
    if condition == ORIGINAL:
        return corpus, _report(condition, corpus.n_tokens, 0, seed)
    sentences = list(corpus.sentences)
    replaced = 0
    for i, draw in _draws(condition, plan, seed):
        if condition == REPLACE_WORD:
            sentences[i] = apply_replacements(sentences[i], draw)
            replaced += len(draw)
        else:
            sentences[i] = apply_order(sentences[i], draw)
    out = Corpus(tuple(sentences), domain=corpus.domain, split=corpus.split)
    return out, _report(condition, corpus.n_tokens, replaced, seed)


def recount_differences(before: Corpus, after: Corpus) -> int:
    """Independent tally of positions whose form changed (report cross-check)."""
    diff = 0
    for s1, s2 in zip(before.sentences, after.sentences):
        for t1, t2 in zip(s1.tokens, s2.tokens):
            if t1.form != t2.form:
                diff += 1
    return diff
