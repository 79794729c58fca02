"""Minimal-pair generation: semantic verb swaps and agreement templates.

Semantic pairs take each test sentence of suitable length, find its root
verb, and swap in up to five other verbs from the same (upos, xpos,
frequency-bin) stratum of the *training* table (its ``alternatives``, the
pool REPLACE.WORD draws from), drawn frequency-weighted without
replacement. The bad member is therefore matched to the good one
in everything but the verb's contextual fit; individual alternatives are
not guaranteed to be unacceptable, only contextually mismatched, and are
evaluated statistically.

Agreement pairs are template-generated from a frequency-banded lexicon of
nouns with attested singular+plural forms and verbs with attested
3sg+non-3sg forms. The ungrammatical member pluralizes the subject noun
and leaves the verb alone, so the pair differs exactly at the subject.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

from .atomic import atomic_write
from .corpus import Corpus, FrequencyTable, bin_index, check_field, tag_pair
from .rng import Stream, mix64
from .tagger import heuristic_root

SEMANTIC_PARADIGM = "semantic-verb"
AGREEMENT_PARADIGMS = ("agr-simple", "agr-pp", "agr-vp-coord", "agr-subj-rel", "agr-obj-rel")
PARADIGMS = (SEMANTIC_PARADIGM,) + AGREEMENT_PARADIGMS


@dataclass(frozen=True, slots=True)
class MinimalPair:
    pair_id: str
    paradigm: str
    good: tuple[str, ...]
    bad: tuple[str, ...]
    diff_index: int
    source_sentence_id: str | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        # the id is written into score TSV ids as "<pair_id>::good"
        check_field("pair_id", self.pair_id)
        if self.paradigm not in PARADIGMS:
            raise ValueError(f"unknown paradigm {self.paradigm!r}")
        if not isinstance(self.good, tuple):
            object.__setattr__(self, "good", tuple(self.good))
        if not isinstance(self.bad, tuple):
            object.__setattr__(self, "bad", tuple(self.bad))
        if len(self.good) != len(self.bad):
            raise ValueError(f"pair {self.pair_id}: members differ in length")
        # an empty token would be written as a double space and scored as <unk>
        if "" in self.good or "" in self.bad:
            raise ValueError(f"pair {self.pair_id}: a member holds an empty token")
        diffs = [i for i, (g, b) in enumerate(zip(self.good, self.bad)) if g != b]
        if diffs != [self.diff_index]:
            raise ValueError(
                f"pair {self.pair_id}: members must differ exactly at "
                f"index {self.diff_index}, found differences at {diffs}"
            )


def gen_semantic_pairs(
    test_corpus: Corpus,
    train_table: FrequencyTable,
    max_alts: int = 5,
    len_min: int = 10,
    len_max: int = 30,
    seed: int = 0,
    counters: dict | None = None,
) -> list[MinimalPair]:
    """Root-verb substitution pairs from every eligible test sentence.

    Sentences outside [len_min, len_max] tokens, without an identifiable
    root verb, or whose verb has no same-bin alternative in the training
    table are skipped; pass ``counters`` to get the tally of each skip
    reason. Sentence i draws from Stream(mix64(seed, i)).
    """
    skip = {"length": 0, "no_root_verb": 0, "verb_not_in_table": 0, "no_candidates": 0}
    pairs: list[MinimalPair] = []
    for si, sent in enumerate(test_corpus):
        if not (len_min <= len(sent) <= len_max):
            skip["length"] += 1
            continue
        root = heuristic_root(sent)
        if root is None:
            skip["no_root_verb"] += 1
            continue
        verb = sent.tokens[root]
        upos, xpos = tag_pair(verb)
        count = train_table.count(upos, xpos, verb.form)
        if count is None:
            skip["verb_not_in_table"] += 1
            continue
        alternatives = train_table.alternatives(upos, xpos, verb.form)
        if alternatives is None:
            skip["no_candidates"] += 1
            continue
        members, _cumulative, index = alternatives
        stream = Stream(mix64(seed, si))
        remaining = list(members)
        del remaining[index]  # the original verb
        good = tuple(sent.forms())  # shared by the sentence's pairs
        lemma = verb.lemma if verb.lemma else verb.form.lower()
        band = str(bin_index(count))
        k = min(max_alts, len(remaining))
        for j in range(1, k + 1):
            cum, acc = [], 0
            for _f, c in remaining:
                acc += c
                cum.append(acc)
            pick = stream.pick_cumulative(cum)
            sub, _sub_count = remaining.pop(pick)
            bad = list(good)
            bad[root] = sub
            pairs.append(
                MinimalPair(
                    pair_id=f"sem-{sent.sentence_id}-{j}",
                    paradigm=SEMANTIC_PARADIGM,
                    good=good,
                    bad=tuple(bad),
                    diff_index=root,
                    source_sentence_id=sent.sentence_id,
                    meta={
                        "original": verb.form,
                        "substitute": sub,
                        "lemma": lemma,
                        "xpos": xpos,
                        "bin": band,
                    },
                )
            )
    if counters is not None:
        counters.update(skip)
    return pairs


def distinct_verb_lemmas(pairs: list[MinimalPair]) -> int:
    """How many distinct original-verb lemmas the semantic pairs cover."""
    return len(
        {p.meta["lemma"] for p in pairs if p.paradigm == SEMANTIC_PARADIGM and "lemma" in p.meta}
    )


@dataclass(frozen=True)
class NounEntry:
    lemma: str
    singular: str
    plural: str
    frequency: int


@dataclass(frozen=True)
class VerbEntry:
    lemma: str
    third_sg: str
    non_third_sg: str
    frequency: int


@dataclass(frozen=True)
class AgreementLexicon:
    nouns: tuple[NounEntry, ...]
    verbs: tuple[VerbEntry, ...]
    preps: tuple[str, ...]
    relativizer: str = "that"


def build_lemma_index(corpus: Corpus) -> dict[str, dict[tuple[str, str], dict[str, int]]]:
    """lemma -> (upos, xpos) -> form -> count, from gold lemmas."""
    index: dict[str, dict[tuple[str, str], dict[str, int]]] = {}
    for sent in corpus:
        for tok in sent.tokens:
            if not tok.lemma:
                continue
            slot = index.setdefault(tok.lemma, {}).setdefault(tag_pair(tok), {})
            slot[tok.form] = slot.get(tok.form, 0) + 1
    return index


def _dominant_form(forms: dict[str, int]) -> str:
    return min(forms, key=lambda f: (-forms[f], f))


def _percentile_band(values: list[int], freq: int, lo: float, hi: float) -> bool:
    # percentile-of-score: the fraction of values <= freq, in percent
    rank = 100.0 * sum(1 for v in values if v <= freq) / len(values)
    return lo <= rank <= hi


def extract_agreement_lexicon(
    train_table: FrequencyTable,
    lemma_index: dict[str, dict[tuple[str, str], dict[str, int]]],
    pct_lo: float = 50.0,
    pct_hi: float = 95.0,
    min_entries: int = 10,
    n_preps: int = 10,
) -> AgreementLexicon:
    """Nouns with attested NN+NNS forms and verbs with attested VBZ+VBP forms,
    filtered to the [pct_lo, pct_hi] percentile band of combined lemma
    frequency (computed separately for nouns and verbs), plus the corpus's
    most frequent prepositions.
    """
    noun_rows: list[NounEntry] = []
    verb_rows: list[VerbEntry] = []
    for lemma in sorted(lemma_index):
        by_tag = lemma_index[lemma]
        nn, nns = by_tag.get(("NOUN", "NN")), by_tag.get(("NOUN", "NNS"))
        if nn and nns:
            sing, plur = _dominant_form(nn), _dominant_form(nns)
            c1 = train_table.count("NOUN", "NN", sing)
            c2 = train_table.count("NOUN", "NNS", plur)
            # invariant plurals (sheep, fish) cannot mark the number contrast
            if c1 and c2 and sing != plur:
                noun_rows.append(NounEntry(lemma, sing, plur, c1 + c2))
        vbz, vbp = by_tag.get(("VERB", "VBZ")), by_tag.get(("VERB", "VBP"))
        if vbz and vbp:
            third, base = _dominant_form(vbz), _dominant_form(vbp)
            c1 = train_table.count("VERB", "VBZ", third)
            c2 = train_table.count("VERB", "VBP", base)
            if c1 and c2:
                verb_rows.append(VerbEntry(lemma, third, base, c1 + c2))

    noun_freqs = [e.frequency for e in noun_rows]
    verb_freqs = [e.frequency for e in verb_rows]
    nouns = [e for e in noun_rows if _percentile_band(noun_freqs, e.frequency, pct_lo, pct_hi)]
    verbs = [e for e in verb_rows if _percentile_band(verb_freqs, e.frequency, pct_lo, pct_hi)]
    if len(nouns) < min_entries or len(verbs) < min_entries:
        raise ValueError(
            f"lexicon too sparse: {len(nouns)} nouns, {len(verbs)} verbs "
            f"in band (need {min_entries} of each)"
        )
    nouns.sort(key=lambda e: (-e.frequency, e.lemma))
    verbs.sort(key=lambda e: (-e.frequency, e.lemma))
    preps = tuple(f for f, _c in train_table.forms_by_upos("ADP")[:n_preps])
    return AgreementLexicon(tuple(nouns), tuple(verbs), preps)


def _agreement_tokens(
    paradigm: str, lexicon: AgreementLexicon, stream: Stream
) -> tuple[list[str], list[str]]:
    nouns, verbs = lexicon.nouns, lexicon.verbs
    need_n2 = paradigm in ("agr-pp", "agr-subj-rel", "agr-obj-rel")
    need_v2 = paradigm in ("agr-vp-coord", "agr-subj-rel", "agr-obj-rel")
    if len(nouns) < (2 if need_n2 else 1) or len(verbs) < (2 if need_v2 else 1):
        raise ValueError(f"lexicon too sparse for paradigm {paradigm}")
    ni = stream.randbelow(len(nouns))
    n1 = nouns[ni]
    n2 = None
    if need_n2:  # uniform over the other entries
        n2 = nouns[stream.pick_cumulative(range(1, len(nouns) + 1), exclude=ni)]
    vi = stream.randbelow(len(verbs))
    v1 = verbs[vi]
    v2 = None
    if need_v2:
        v2 = verbs[stream.pick_cumulative(range(1, len(verbs) + 1), exclude=vi)]
    prep = lexicon.preps[stream.randbelow(len(lexicon.preps))] if paradigm == "agr-pp" else None
    rel = lexicon.relativizer

    if paradigm == "agr-simple":
        good = ["The", n1.singular, v1.third_sg, "."]
    elif paradigm == "agr-pp":
        good = ["The", n1.singular, *prep.split(), "the", n2.singular, v1.third_sg, "."]
    elif paradigm == "agr-vp-coord":
        good = ["The", n1.singular, v1.third_sg, "and", v2.third_sg, "."]
    elif paradigm == "agr-subj-rel":
        good = ["The", n1.singular, rel, v2.third_sg, "the", n2.singular, v1.third_sg, "."]
    elif paradigm == "agr-obj-rel":
        good = ["The", n1.singular, rel, "the", n2.singular, v2.third_sg, v1.third_sg, "."]
    else:
        raise ValueError(f"unknown paradigm {paradigm!r}")
    bad = list(good)
    bad[1] = n1.plural  # subject noun flips number, verb stays 3sg
    return good, bad


def gen_agreement_pairs(
    lexicon: AgreementLexicon,
    paradigms,
    n_per_paradigm: int,
    seed: int = 0,
) -> list[MinimalPair]:
    """Exactly n_per_paradigm pairs per requested paradigm.

    Pair (paradigm, j) draws from Stream(mix64(mix64(seed, paradigm
    position), j)), so any subset regenerates identically.
    """
    requested = set(paradigms)
    unknown = requested - set(AGREEMENT_PARADIGMS)
    if unknown:
        raise ValueError(f"unknown paradigm(s): {sorted(unknown)}")
    pairs: list[MinimalPair] = []
    for pi, paradigm in enumerate(AGREEMENT_PARADIGMS):
        if paradigm not in requested:
            continue
        for j in range(n_per_paradigm):
            stream = Stream(mix64(mix64(seed, pi), j))
            good, bad = _agreement_tokens(paradigm, lexicon, stream)
            pairs.append(
                MinimalPair(
                    pair_id=f"{paradigm}-{j:05d}",
                    paradigm=paradigm,
                    good=tuple(good),
                    bad=tuple(bad),
                    diff_index=1,
                    meta={"subject": good[1], "subject_plural": bad[1]},
                )
            )
    return pairs


_WHITESPACE = re.compile(r"\s")
_NON_SPACE_WHITESPACE = re.compile(r"[^\S ]")


def _joined_member(pair_id: str, tokens) -> str:
    """Space-joined member text; a token holding whitespace would not read back."""
    text = " ".join(tokens)
    # clean text holds exactly len(tokens) - 1 spaces and no other whitespace
    if text.count(" ") >= len(tokens) or _NON_SPACE_WHITESPACE.search(text):
        for tok in tokens:
            if _WHITESPACE.search(tok):
                raise ValueError(
                    f"pair {pair_id!r}: token {tok!r} contains whitespace, "
                    "which the space-joined pairs format cannot store"
                )
    return text


def write_pairs(pairs, path) -> None:
    """JSON Lines, one object per pair; good/bad are space-joined strings.

    Raises ValueError, naming the pair and token, if a member token contains
    whitespace; nothing is written then.
    """
    with atomic_write(path) as fh:
        for p in pairs:
            meta = dict(sorted(p.meta.items()))
            if p.source_sentence_id is not None:
                meta["source_sentence_id"] = p.source_sentence_id
            fh.write(
                json.dumps(
                    {
                        "pair_id": p.pair_id,
                        "paradigm": p.paradigm,
                        "good": _joined_member(p.pair_id, p.good),
                        "bad": _joined_member(p.pair_id, p.bad),
                        "diff_index": p.diff_index,
                        "meta": meta,
                    },
                    ensure_ascii=False,
                )
                + "\n"
            )


def read_pairs(path) -> list[MinimalPair]:
    pairs = []
    with open(path, encoding="utf-8") as fh:
        for recno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
                meta = dict(row.get("meta", {}))
                source = meta.pop("source_sentence_id", None)
                pairs.append(
                    MinimalPair(
                        pair_id=row["pair_id"],
                        paradigm=row["paradigm"],
                        good=tuple(row["good"].split(" ")),
                        bad=tuple(row["bad"].split(" ")),
                        diff_index=row["diff_index"],
                        source_sentence_id=source,
                        meta=meta,
                    )
                )
            except (KeyError, ValueError) as exc:
                raise ValueError(f"{path}: record {recno}: {exc}") from exc
    return pairs
