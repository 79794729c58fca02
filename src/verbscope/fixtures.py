"""Deterministic synthetic fixture corpora: one conversational ("chat"),
one written ("written").

The design separates the two signals the ablations target:

  * Transitive verbs own an exclusive set of object nouns, and the object
    sits right after the verb, inside an order-3 window. That ordered
    verb-object collocation is the co-occurrence cue REPLACE.WORD
    destroys.
  * Transitive and intransitive frames differ only in the function-word
    order around the verb ("V the O ..." vs "V PREP the ..."). Subjects,
    adjectives, adverbs, and prepositions are all drawn from shared pools,
    so frame identity is invisible to bag-of-words statistics and dies
    only under SHUFFLE.ORDER.

Prepositional tails carry "distractor" nouns drawn from the object pools
of same-tier verbs, which flattens sentence-level verb-object
co-occurrence without touching the ordered collocation. Verb frequencies
follow three tiers with frames alternating across tiers, so realized
frequency bins hold several verbs of both frames and same-bin pair
generation stays productive.

The two domains share function words but use disjoint content vocabulary,
which is what sends cross-domain evaluation toward chance. Everything is
generated from a seeded stream: same seed, same corpora, byte for byte.
Run ``python -m verbscope.fixtures --out DIR`` to write them as CoNLL-U.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import Callable, NamedTuple

from .corpus import AnnotatedSentence, Corpus, Token, token_pool
from .ingest import write_corpus
from .rng import Stream, mix64

DEFAULT_SEED = 8675309
DOMAINS = ("chat", "written")
_DOMAIN_CODE = {"chat": 1, "written": 2}

_TIER_WEIGHTS = (9, 4, 2)


class _Verb(NamedTuple):
    base: str  # VB / VBP surface
    third: str  # VBZ surface
    objects: tuple[str, ...]  # owned object nouns; empty = intransitive


_CHAT_TRANSITIVE = [
    _Verb("sip", "sips", ("milk", "juice", "cocoa", "smoothie")),
    _Verb("munch", "munches", ("cookie", "cracker", "carrot", "pretzel")),
    _Verb("read", "reads", ("book", "story", "comic", "magazine")),
    _Verb("throw", "throws", ("frisbee", "beanbag", "pebble", "snowball")),
    _Verb("hug", "hugs", ("teddy", "dolly", "blankie", "pillow")),
    _Verb("stack", "stacks", ("block", "ring", "crate", "domino")),
    _Verb("draw", "draws", ("circle", "star", "heart", "rainbow")),
    _Verb("push", "pushes", ("truck", "wagon", "stroller", "cart")),
    _Verb("wash", "washes", ("dish", "spoon", "bowl", "plate")),
    _Verb("kick", "kicks", ("balloon", "bucket", "pinecone", "acorn")),
    _Verb("hide", "hides", ("penny", "button", "marble", "sticker")),
    _Verb("squeeze", "squeezes", ("lemon", "sponge", "tube", "sprout")),
]

_CHAT_INTRANSITIVE = [
    _Verb("nap", "naps", ()),
    _Verb("hop", "hops", ()),
    _Verb("giggle", "giggles", ()),
    _Verb("wiggle", "wiggles", ()),
    _Verb("clap", "claps", ()),
    _Verb("stomp", "stomps", ()),
    _Verb("yawn", "yawns", ()),
    _Verb("sneeze", "sneezes", ()),
    _Verb("twirl", "twirls", ()),
    _Verb("snore", "snores", ()),
    _Verb("crawl", "crawls", ()),
    _Verb("shiver", "shivers", ()),
]

_CHAT_SUBJECTS = (
    "baby", "boy", "girl", "bear", "duck", "frog",
    "piggy", "monkey", "turtle", "chick",
)
_CHAT_ADJ = ("little", "big", "red", "blue", "soft", "silly", "happy", "fuzzy")
_CHAT_ADV = ("now", "today", "again", "gently", "quietly", "nicely")
_CHAT_PREP = ("on", "by", "near", "under", "over")

_WRITTEN_TRANSITIVE = [
    _Verb("examine", "examines", ("manuscript", "specimen", "ledger", "fossil")),
    _Verb("describe", "describes", ("custom", "ritual", "landscape", "dialect")),
    _Verb("present", "presents", ("theory", "argument", "proposal", "survey")),
    _Verb("analyze", "analyzes", ("sample", "dataset", "mineral", "compound")),
    _Verb("support", "supports", ("motion", "doctrine", "reform", "petition")),
    _Verb("oppose", "opposes", ("treaty", "merger", "decree", "statute")),
    _Verb("translate", "translates", ("poem", "inscription", "scroll", "memoir")),
    _Verb("restore", "restores", ("fresco", "chapel", "portrait", "organ")),
    _Verb("enjoy", "enjoys", ("feast", "concert", "pageant", "banquet")),
    _Verb("document", "documents", ("voyage", "famine", "uprising", "eclipse")),
    _Verb("interpret", "interprets", ("symbol", "verse", "omen", "glyph")),
    _Verb("revise", "revises", ("edition", "charter", "syllabus", "appendix")),
]

_WRITTEN_INTRANSITIVE = [
    _Verb("persist", "persists", ()),
    _Verb("decline", "declines", ()),
    _Verb("expand", "expands", ()),
    _Verb("fluctuate", "fluctuates", ()),
    _Verb("stabilize", "stabilizes", ()),
    _Verb("emerge", "emerges", ()),
    _Verb("vanish", "vanishes", ()),
    _Verb("prosper", "prospers", ()),
    _Verb("erode", "erodes", ()),
    _Verb("flourish", "flourishes", ()),
    _Verb("linger", "lingers", ()),
    _Verb("dwindle", "dwindles", ()),
]

_WRITTEN_SUBJECTS = (
    "painter", "waiter", "scholar", "curator", "merchant", "senator",
    "architect", "chemist", "historian", "engineer", "botanist", "critic",
)
_WRITTEN_ADJ = (
    "ancient", "modern", "famous", "obscure", "vast",
    "narrow", "formal", "rigorous", "prominent", "meticulous",
)
_WRITTEN_ADV = ("carefully", "thoroughly", "gradually", "rarely", "frequently", "notably")
_WRITTEN_PREP = ("in", "near", "across", "beyond", "during", "behind")


class _Part(NamedTuple):
    form: str
    lemma: str
    upos: str
    xpos: str


def _plural(lemma: str) -> str:
    if lemma.endswith("y") and lemma[-2] not in "aeiou":
        return lemma[:-1] + "ies"
    if lemma.endswith(("s", "x", "z", "ch", "sh")):
        return lemma + "es"
    return lemma + "s"


def _det(form: str = "the") -> _Part:
    return _Part(form, form, "DET", "DT")


def _noun(lemma: str, plural: bool = False) -> _Part:
    if plural:
        return _Part(_plural(lemma), lemma, "NOUN", "NNS")
    return _Part(lemma, lemma, "NOUN", "NN")


def _adj(form: str) -> _Part:
    return _Part(form, form, "ADJ", "JJ")


def _adv(form: str) -> _Part:
    return _Part(form, form, "ADV", "RB")


def _adp(form: str) -> _Part:
    return _Part(form, form, "ADP", "IN")


def _punct(form: str) -> _Part:
    return _Part(form, form, "PUNCT", "." if form in ".?!" else form)


def _pron(form: str) -> _Part:
    return _Part(form, form, "PRON", "PRP")


def _verb_part(verb: _Verb, xpos: str) -> _Part:
    form = verb.third if xpos == "VBZ" else verb.base
    return _Part(form, verb.base, "VERB", xpos)


def _assemble(
    sid: str, parts: list[_Part], root_pos: int | None, token: Callable[..., Token]
) -> AnnotatedSentence:
    tokens = []
    for i, part in enumerate(parts):
        if root_pos is None:
            head, deprel = None, None
        elif i == root_pos:
            head, deprel = None, "root"
        else:
            head, deprel = root_pos, "dep"
        tokens.append(token(*part, head, deprel))
    return AnnotatedSentence(tuple(tokens), sid)


class _DomainLexicon(NamedTuple):
    verbs: list[_Verb]  # frames alternate, so tier (index % 3) mixes both
    distractors: list[tuple[str, ...]]  # per verb: same-tier others' objects
    subjects: tuple[str, ...]
    adjectives: tuple[str, ...]
    adverbs: tuple[str, ...]
    preps: tuple[str, ...]


def _build_lexicon(transitive, intransitive, subjects, adjectives, adverbs, preps):
    verbs: list[_Verb] = []
    for t, i in zip(transitive, intransitive):
        verbs.extend((t, i))
    tier_objects: dict[int, list[str]] = {0: [], 1: [], 2: []}
    for idx, verb in enumerate(verbs):
        tier_objects[idx % 3].extend(verb.objects)
    distractors = []
    for idx, verb in enumerate(verbs):
        pool = tuple(o for o in tier_objects[idx % 3] if o not in verb.objects)
        distractors.append(pool if pool else tuple(tier_objects[idx % 3]))
    return _DomainLexicon(verbs, distractors, subjects, adjectives, adverbs, preps)


def _chat_lexicon() -> _DomainLexicon:
    return _build_lexicon(_CHAT_TRANSITIVE, _CHAT_INTRANSITIVE, _CHAT_SUBJECTS,
                          _CHAT_ADJ, _CHAT_ADV, _CHAT_PREP)


def _written_lexicon() -> _DomainLexicon:
    return _build_lexicon(_WRITTEN_TRANSITIVE, _WRITTEN_INTRANSITIVE,
                          _WRITTEN_SUBJECTS, _WRITTEN_ADJ, _WRITTEN_ADV,
                          _WRITTEN_PREP)


def _verb_cumweights(verbs: list[_Verb]) -> list[int]:
    acc, out = 0, []
    for i in range(len(verbs)):
        acc += _TIER_WEIGHTS[i % 3]
        out.append(acc)
    return out


def _pick(stream: Stream, seq):
    return seq[stream.randbelow(len(seq))]


class _Draw(NamedTuple):
    verb: _Verb
    vi: int
    transitive: bool
    form: str  # VBZ | VBP | VB
    subj: _Part
    obj: _Part | None
    dis: _Part
    adj: _Part
    adj2: _Part
    adv: _Part
    adv2: _Part
    prep: _Part
    prep2: _Part


def _draw(stream: Stream, lex: _DomainLexicon, cum: list[int], modal_share: int) -> _Draw:
    vi = stream.pick_cumulative(cum)
    verb = lex.verbs[vi]
    transitive = bool(verb.objects)
    roll = stream.randbelow(100)
    if roll < 20:
        form = "VBP"
    elif roll < 20 + modal_share:
        form = "VB"
    else:
        form = "VBZ"
    plural_subj = form == "VBP"
    obj = None
    if transitive:
        obj = _noun(_pick(stream, verb.objects), stream.randbelow(100) < 15)
    return _Draw(
        verb=verb,
        vi=vi,
        transitive=transitive,
        form=form,
        subj=_noun(_pick(stream, lex.subjects), plural_subj),
        obj=obj,
        dis=_noun(_pick(stream, lex.distractors[vi])),
        adj=_adj(_pick(stream, lex.adjectives)),
        adj2=_adj(_pick(stream, lex.adjectives)),
        adv=_adv(_pick(stream, lex.adverbs)),
        adv2=_adv(_pick(stream, lex.adverbs)),
        prep=_adp(_pick(stream, lex.preps)),
        prep2=_adp(_pick(stream, lex.preps)),
    )


def _chat_sentence(
    stream: Stream, lex: _DomainLexicon, cum: list[int]
) -> tuple[list[_Part], int | None]:
    d = _draw(stream, lex, cum, modal_share=30)
    v = _verb_part(d.verb, d.form)
    roll = stream.randbelow(100)
    if roll < 40:  # short utterances keep the register conversational
        kind = stream.randbelow(3)
        if kind == 0:
            vp = _verb_part(d.verb, "VBP")
            if d.transitive:
                return [_pron("you"), vp, _det(), d.obj, _punct("?")], 1
            return [_pron("you"), vp, d.adv, _punct("?")], 1
        if kind == 1:
            return [_Part("oh", "oh", "INTJ", "UH"), _det(), d.adj, d.dis,
                    _punct("!")], None
        vz = _verb_part(d.verb, "VBZ")
        subj = _noun(d.subj.lemma)
        if d.transitive:
            return [_det(), subj, vz, _det(), d.obj, _punct(".")], 2
        return [_det(), subj, vz, d.adv, _punct(".")], 2

    if d.form == "VB":  # modal frame
        if d.transitive:
            return [_pron("you"), _Part("can", "can", "AUX", "MD"), v,
                    _det(), d.obj, _adv("out"), _adv("there"), d.prep,
                    _det(), d.adj, d.dis, _punct(".")], 2
        return [_pron("you"), _Part("can", "can", "AUX", "MD"), v,
                d.prep, _det(), d.adj, d.dis, _adv("out"), _adv("there"),
                d.adv, _punct(".")], 2
    if d.transitive:
        if stream.randbelow(2) == 0:
            return [_det(), d.subj, v, _det(), d.obj, _adv("out"), _adv("there"),
                    d.prep, _det(), d.adj, d.dis, _punct(".")], 2
        return [_det(), d.adj, d.subj, v, _det(), d.obj, d.prep, _det(),
                d.dis, d.adv, _punct(".")], 3
    if stream.randbelow(2) == 0:
        return [_det(), d.subj, v, d.prep, _det(), d.adj, d.dis,
                _adv("out"), _adv("there"), d.adv, _punct(".")], 2
    return [_det(), d.adj, d.subj, v, d.prep, _det(), d.dis, d.adv,
            d.adv2, _punct(".")], 3


def _written_sentence(
    stream: Stream, lex: _DomainLexicon, cum: list[int]
) -> tuple[list[_Part], int | None]:
    d = _draw(stream, lex, cum, modal_share=0)
    v = _verb_part(d.verb, d.form)
    roll = stream.randbelow(100)
    if roll < 30:  # short declaratives keep the table covered at low cost
        kind = stream.randbelow(3)
        if kind == 2:
            return [_det(), d.adj, d.dis, _adp("of"), _det(),
                    _noun(_pick(stream, lex.subjects)), _punct(".")], None
        vz = _verb_part(d.verb, "VBZ")
        subj = _noun(d.subj.lemma)
        if d.transitive:
            return [_det(), subj, vz, _det(), d.obj, _punct(".")], 2
        return [_det(), subj, vz, d.adv, _punct(".")], 2

    if d.transitive:
        variant = stream.randbelow(3)
        if variant == 0:
            return [_det(), d.adj, d.subj, d.adv, v, _det(), d.obj,
                    d.prep, _det(), d.adj2, d.dis, _punct(".")], 4
        if variant == 1:
            other_draw = _draw(stream, lex, cum, modal_share=0)
            o2 = _verb_part(other_draw.verb, "VBZ")
            s2 = _noun(other_draw.subj.lemma)
            if other_draw.transitive:
                second = [_det(), s2, o2, _det(), other_draw.obj]
            else:
                second = [_det(), s2, o2, other_draw.prep, _det(), other_draw.dis]
            return [_det(), d.subj, d.prep, _det(), d.dis, v, _det(), d.obj,
                    _Part(",", ",", "PUNCT", ","),
                    _Part("and", "and", "CCONJ", "CC"), *second, _punct(".")], 5
        return [_det(), d.subj, v, _det(), d.obj, d.prep, _det(), d.adj2,
                d.dis, d.prep2, _det(), _noun(_pick(stream, lex.subjects)),
                _punct(".")], 2
    if stream.randbelow(2) == 0:
        return [_det(), d.adj, d.subj, d.prep, _det(), d.dis, v, d.adv,
                d.prep2, _det(), d.adj2, _noun(_pick(stream, lex.subjects)),
                _punct(".")], 6
    return [_det(), d.subj, d.prep, _det(), d.adj, d.dis, v, d.prep2,
            _det(), _noun(_pick(stream, lex.subjects)), d.adv, _punct(".")], 6


_MAKERS: dict[str, tuple[Callable, Callable]] = {
    "chat": (_chat_lexicon, _chat_sentence),
    "written": (_written_lexicon, _written_sentence),
}


def build_fixture_corpus(
    domain: str, target_tokens: int = 100_000, seed: int = DEFAULT_SEED
) -> Corpus:
    """Generate one fixture corpus of at least target_tokens tokens."""
    if domain not in DOMAINS:
        raise ValueError(f"unknown fixture domain {domain!r}; choose from {DOMAINS}")
    stream = Stream(mix64(seed, _DOMAIN_CODE[domain]))
    lex_fn, make = _MAKERS[domain]
    lex = lex_fn()
    cum = _verb_cumweights(lex.verbs)
    token = token_pool()
    sentences = []
    total = 0
    i = 0
    while total < target_tokens:
        i += 1
        parts, root = make(stream, lex, cum)
        sent = _assemble(f"{domain}-{i:06d}", parts, root, token)
        sentences.append(sent)
        total += len(sent)
    return Corpus(tuple(sentences), domain=domain)


def write_fixture_corpora(
    out_dir, domains=DOMAINS, target_tokens: int = 100_000, seed: int = DEFAULT_SEED
) -> dict[str, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {}
    for domain in domains:
        corpus = build_fixture_corpus(domain, target_tokens, seed)
        path = out / f"{domain}.conllu"
        write_corpus(corpus, path, "conllu")
        paths[domain] = path
    return paths


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Write the bundled synthetic fixture corpora as CoNLL-U."
    )
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--tokens", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args(argv)
    paths = write_fixture_corpora(args.out, target_tokens=args.tokens, seed=args.seed)
    for domain, path in sorted(paths.items()):
        print(f"{domain}: {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
