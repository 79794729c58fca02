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
draws from, as arrays: the REPLACE.WORD targets (corpus position, own
member) with the strata's members and running counts, or each
sentence's SHUFFLE.ORDER span. ``_draws`` computes every draw of a
cell at once from the counter-based streams (``rng.picks``: one
``searchsorted`` for all frequency-weighted picks; ``rng.shuffles``: the
Fisher-Yates swaps stepped across all sentences together), redoing a
sentence with a rejected draw with the scalar ``Stream``. It is the one
draw function: ``perturb_forms`` scatters its draws into the id array a
model trains on, and ``perturb_corpus`` applies the same draws to whole
sentences for ``verbscope perturb``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from .corpus import (
    AnnotatedSentence,
    Corpus,
    Forms,
    FrequencyTable,
    UNK_TAG,
    tag_pair,
)
from .rng import MASK64, picks, shuffles, stream_seeds
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


@dataclass(frozen=True, eq=False)
class PerturbPlan:
    """What each sentence of a corpus draws from, fixed before any seed.

    Sentence i holds the corpus's tokens ``offsets[i]:offsets[i + 1]``.
    SHUFFLE.ORDER moves the first ``spans[i]`` tokens of sentence i.
    REPLACE.WORD has one target per replaceable token, in corpus order:
    its corpus position (``targets``) and its own entry (``member``) in
    ``members`` (int32, as the ids of ``corpus.Forms``), the strata's
    member forms one stratum after another. Stratum s holds
    ``members[strata[s]:strata[s + 1]]``, and ``cumulative`` (uint64) runs
    the members' counts on over all strata. A target's sentence and stratum
    are not stored: a ``searchsorted`` over ``offsets`` or ``strata`` finds
    each exactly, as no sentence or stratum is empty.
    """

    condition: str
    offsets: np.ndarray
    spans: np.ndarray | None = None
    targets: np.ndarray | None = None
    member: np.ndarray | None = None
    members: tuple = ()
    strata: np.ndarray | None = None
    cumulative: np.ndarray | None = None


def perturb_plan(
    corpus: Corpus,
    condition: str,
    table: FrequencyTable | None = None,
    include_propn: bool = False,
    pin_final_punct: bool = False,
) -> PerturbPlan:
    """Each sentence's draw input, which no seed changes: its REPLACE.WORD
    targets, or how many leading tokens SHUFFLE.ORDER moves."""
    if condition not in CONDITIONS:
        raise ValueError(f"unknown condition {condition!r}")
    offsets = np.zeros(len(corpus) + 1, dtype=np.int64)
    np.cumsum([len(s) for s in corpus], out=offsets[1:])
    if condition == SHUFFLE_ORDER:  # all tokens, or all but a pinned final PUNCT
        spans = [
            len(s) - (pin_final_punct and len(s) > 1 and s.tokens[-1].upos == "PUNCT")
            for s in corpus
        ]
        return PerturbPlan(condition, offsets, spans=np.array(spans, dtype=np.int64))
    if condition == ORIGINAL:
        return PerturbPlan(condition, offsets)
    if table is None:
        raise ValueError("REPLACE.WORD requires a frequency table")
    found = [replace_plan(s, table, include_propn) for s in corpus]
    sentence = np.repeat(np.arange(len(found), dtype=np.int32), [len(t) for t in found])
    flat = list(chain.from_iterable(found))  # (position, alternatives) of every target
    alternatives = [alts for _pos, alts in flat]
    # a stratum's alternatives share one members tuple: number the strata in
    # first-seen order by that tuple's identity
    numbers: dict[int, int] = {}
    stratum = np.array(
        [numbers.setdefault(id(alts[0]), len(numbers)) for alts in alternatives], dtype=np.int32
    )
    strata = [alternatives[i] for i in np.unique(stratum, return_index=True)[1].tolist()]
    starts = np.zeros(len(strata) + 1, dtype=np.int64)
    np.cumsum([len(members) for members, _cumulative, _index in strata], out=starts[1:])
    cumulative: list[int] = []
    for _members, stratum_cumulative, _index in strata:
        mass = cumulative[-1] if cumulative else 0
        cumulative.extend(mass + c for c in stratum_cumulative)
    if cumulative and cumulative[-1] > MASK64:
        raise ValueError(f"the strata's counts sum to {cumulative[-1]}, more than 64 bits hold")
    return PerturbPlan(
        condition, offsets,
        targets=(offsets[sentence] + [pos for pos, _alts in flat]).astype(np.int32),
        member=(starts[stratum] + [alts[2] for alts in alternatives]).astype(np.int32),
        members=tuple(form for members, _c, _i in strata for form, _count in members),
        strata=starts, cumulative=np.array(cumulative, dtype=np.uint64),
    )


def _draws(plan: PerturbPlan, seed: int):
    """Every draw of a condition, sentence i drawing from Stream(mix64(seed, i)).

    REPLACE.WORD: each target's new form, as an index into ``plan.members``.
    SHUFFLE.ORDER: the sentences that move (a span of 2 or more), and their
    orders concatenated: entry j of a sentence's order is the old position
    of the token that moves to position j.
    """
    if plan.condition == REPLACE_WORD:
        seeds = stream_seeds(seed, np.arange(len(plan.offsets) - 1))
        sentence = np.searchsorted(plan.offsets, plan.targets, side="right") - 1
        return picks(seeds, sentence, plan.cumulative, plan.strata, plan.member)
    moving = np.flatnonzero(plan.spans > 1)
    return moving, shuffles(stream_seeds(seed, moving), plan.spans[moving])


def _report(condition: str, total: int, replaced: int, seed: int | None) -> PerturbReport:
    return PerturbReport(condition, total, replaced, replaced / total if total else 0.0, seed)


def perturb_forms(
    forms: Forms, condition: str, plan: PerturbPlan, seed: int | None = 0
) -> tuple[Forms, PerturbReport]:
    """Apply one condition to a corpus's form view; ``plan`` is the corpus's
    ``perturb_plan``. Gives the forms and report ``perturb_corpus`` gives.

    The new id array is one scatter: REPLACE.WORD writes each target's
    drawn form, SHUFFLE.ORDER gathers each moved token from its old place.
    A REPLACE.WORD substitute must be a form of the corpus, as it is when
    the table is the corpus's own.
    """
    ids = forms.ids
    replaced = 0
    if condition == REPLACE_WORD:
        index = {form: i for i, form in enumerate(forms.vocab)}
        missing = [form for form in plan.members if form not in index]
        if missing:
            raise ValueError(f"substitute {missing[0]!r} is not a form of the corpus")
        member_ids = np.array([index[form] for form in plan.members], dtype=ids.dtype)
        ids = ids.copy()
        ids[plan.targets] = member_ids[_draws(plan, seed)]
        replaced = len(plan.targets)
    elif condition == SHUFFLE_ORDER:
        moving, orders = _draws(plan, seed)
        spans = plan.spans[moving]
        starts = np.repeat(plan.offsets[moving], spans)
        within = np.arange(len(orders)) - np.repeat(np.cumsum(spans) - spans, spans)
        ids = ids.copy()
        ids[starts + within] = forms.ids[starts + orders]
    return forms.with_ids(ids), _report(condition, forms.n_tokens, replaced, seed)


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
    offsets = plan.offsets.tolist()
    replaced = 0
    if condition == REPLACE_WORD:
        chosen = _draws(plan, seed).tolist()
        sentence = np.searchsorted(plan.offsets, plan.targets, side="right") - 1
        by_sentence: dict[int, list] = {}
        for pos, si, m in zip(plan.targets.tolist(), sentence.tolist(), chosen):
            by_sentence.setdefault(si, []).append((pos - offsets[si], plan.members[m]))
        for si, replacements in by_sentence.items():
            sentences[si] = apply_replacements(sentences[si], replacements)
        replaced = len(chosen)
    else:
        moving, orders = _draws(plan, seed)
        orders = orders.tolist()
        end = 0
        for si, span in zip(moving.tolist(), plan.spans[moving].tolist()):
            sentences[si] = apply_order(sentences[si], orders[end:end + span])
            end += span
    out = Corpus(tuple(sentences), domain=corpus.domain)
    return out, _report(condition, corpus.n_tokens, replaced, seed)
