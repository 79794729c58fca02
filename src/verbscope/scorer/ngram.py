"""Interpolated Kneser-Ney n-gram language model.

Absolute discounting with a fixed per-order discount (default 0.75), true
counts at the top order and continuation counts below, and full backoff
through unseen contexts down to a uniform floor over the scorable
vocabulary. That floor guarantees every conditional distribution sums to
exactly 1 and every symbol keeps nonzero mass, UNK included.

The scorable vocabulary is the kept training forms plus UNK and EOS. BOS
is a context-only padding symbol: it can never be predicted, so it takes
no probability mass. Training reads form sequences only. Forms seen fewer
than min_count_unk times are mapped to UNK at training time; unknown forms
map to UNK at scoring time.

Scores are total (not length-normalized) natural-log probabilities
including the EOS event. Minimal-pair members always have equal token
counts, so normalization would cancel anyway. A ``SentenceScore`` holds
only what the score TSV stores: the sentence id, the log-probability and
the event count.

Table layout: ``_counts``, ``_totals`` and ``_types`` are lists indexed by
level k (index 0 unused). ``_counts[k]`` maps k-length id tuples to
occurrence counts (raw counts at the top level, continuation counts
below), ``_totals[k]`` and ``_types[k]`` map (k-1)-length context tuples to
their count mass and distinct-continuation count.

Each model memoizes ``ln p(w | ctx)`` per scored n-gram ``ctx + (w,)`` (one
stored log-probability per n-gram, as in ARPA files), filled lazily on
first use. A sentence's score is the sequential left-to-right sum of those
values, so it is bit-identical to summing ``log(ngram_prob(...))`` directly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import exp, log
from typing import Sequence

from ..atomic import atomic_write
from ..corpus import Corpus

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"


@dataclass(frozen=True)
class SentenceScore:
    sentence_id: str
    logprob: float
    num_tokens: int

    def __post_init__(self):
        if self.logprob > 0:
            raise ValueError(f"logprob must be <= 0, got {self.logprob}")
        if self.num_tokens < 1:
            raise ValueError(f"num_tokens must be >= 1, got {self.num_tokens}")


def ngram_prob(w, ctx, discounts, counts, totals, types, inv_vocab):
    """p(w | ctx) folded bottom-up over levels 1..len(ctx)+1.

    Levels whose context is unseen are skipped entirely (full backoff); the
    recursion bottoms out at the uniform distribution over the scorable
    vocabulary.
    """
    p = inv_vocab
    length = len(ctx)
    for k in range(1, length + 2):
        sub = ctx[length - k + 1:]
        tot = totals[k].get(sub)
        if tot is None:
            continue
        c = counts[k].get(sub + (w,), 0)
        ty = types[k][sub]
        d = discounts[k]
        disc = c - d
        if disc < 0.0:
            disc = 0.0
        p = disc / tot + (d * ty / tot) * p
    return p


class NGramLM:
    """Count tables fixed at construction.

    The only mutable state is the log-probability memo. It fills lazily,
    and every entry holds the value the count tables determine, so a warm
    memo scores exactly as a cold one.
    """

    def __init__(
        self,
        order: int,
        forms: list[str],
        raw_counts: list[dict | None],
        discount: float = 0.75,
        min_count_unk: int = 1,
    ):
        if order < 1:
            raise ValueError("order must be >= 1")
        self.order = order
        self.min_count_unk = min_count_unk
        self.discounts = [0.0] + [float(discount)] * order  # index 0 unused
        self.forms = list(forms)  # sorted kept forms; ids follow list order
        self.unk_id = len(self.forms)
        self.eos_id = len(self.forms) + 1
        # form -> event id; the UNK and EOS symbols win over same-named forms
        self._ids = {f: i for i, f in enumerate(self.forms)}
        self._ids[UNK] = self.unk_id
        self._ids[EOS] = self.eos_id
        self.bos_id = len(self.forms) + 2  # context-only, outside the event space
        self.vocab_size = len(self.forms) + 2  # forms + UNK + EOS
        self._inv_vocab = 1.0 / self.vocab_size
        self._raw = raw_counts
        self._logp: dict[tuple, float] = {}  # ctx + (w,) -> ln p(w | ctx)
        self._derive_tables()

    def _derive_tables(self) -> None:
        order = self.order
        counts: list[dict | None] = [None] * (order + 1)
        counts[order] = self._raw[order]
        for k in range(1, order):
            cont: dict = {}
            for gram in self._raw[k + 1]:
                suffix = gram[1:]
                cont[suffix] = cont.get(suffix, 0) + 1
            counts[k] = cont
        totals: list[dict | None] = [None] * (order + 1)
        types: list[dict | None] = [None] * (order + 1)
        for k in range(1, order + 1):
            tot: dict = {}
            ty: dict = {}
            for gram, c in counts[k].items():
                u = gram[:-1]
                tot[u] = tot.get(u, 0) + c
                ty[u] = ty.get(u, 0) + 1
            totals[k] = tot
            types[k] = ty
        self._counts = counts
        self._totals = totals
        self._types = types

    # -- symbol mapping ---------------------------------------------------
    def symbol_id(self, form: str) -> int:
        """Event id of a form; OOV and UNK map to the UNK id."""
        return self._ids.get(form, self.unk_id)

    def scorable_symbols(self) -> list[str]:
        return self.forms + [UNK, EOS]

    def observed_contexts(self, level: int) -> list[tuple]:
        """All observed context id-tuples of one level (1..order)."""
        return list(self._totals[level].keys())

    # -- probabilities ----------------------------------------------------
    def prob_ids(self, w_id: int, ctx_ids: tuple) -> float:
        return ngram_prob(
            w_id, ctx_ids, self.discounts, self._counts, self._totals,
            self._types, self._inv_vocab,
        )

    def prob(self, form: str, context: list[str] | tuple = ()) -> float:
        """p(form | context), context given as forms, BOS-padded on the left."""
        ctx_ids = tuple(
            self.bos_id if f == BOS else self.symbol_id(f) for f in context
        )
        if len(ctx_ids) < self.order - 1:
            ctx_ids = (self.bos_id,) * (self.order - 1 - len(ctx_ids)) + ctx_ids
        elif len(ctx_ids) > self.order - 1:
            ctx_ids = ctx_ids[len(ctx_ids) - (self.order - 1):]
        return self.prob_ids(self.symbol_id(form), ctx_ids)

    def logprob(self, tokens, sentence_id: str = "") -> SentenceScore:
        """Total ln-probability of the token sequence plus the EOS event."""
        get, unk_id, order = self._ids.get, self.unk_id, self.order
        seq = [self.bos_id] * (order - 1)
        seq += [get(f, unk_id) for f in tokens]
        seq.append(self.eos_id)
        memo = self._logp
        lp = 0.0
        for gram in zip(*[seq[j:] for j in range(order)]):
            value = memo.get(gram)
            if value is None:
                value = memo[gram] = log(self.prob_ids(gram[-1], gram[:-1]))
            lp += value
        return SentenceScore(sentence_id, lp, len(seq) - (order - 1))


def train_ngram(
    corpus: Sequence[Sequence[str]], order: int, min_count_unk: int = 1,
    discount: float = 0.75,
) -> NGramLM:
    """Count n-grams of every order up to ``order`` and build the model.

    ``corpus`` holds the training sentences as form sequences, such as a
    ``Corpus.form_view()``. Deterministic: no randomness anywhere, forms are
    id-assigned in sorted order. Forms occurring at most min_count_unk - 1
    times become UNK.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if len(corpus) == 0:
        raise ValueError("empty corpus")

    form_counts = Counter(f for sent in corpus for f in sent)
    forms = sorted(f for f, c in form_counts.items() if c >= min_count_unk)

    ids = {f: i for i, f in enumerate(forms)}
    unk_id = len(forms)
    eos_id = len(forms) + 1
    bos_id = len(forms) + 2

    # Counters keep first-seen insertion order, the order of the raw tables
    counters = [Counter() for _ in range(order + 1)]
    for sent in corpus:
        event_ids = [ids.get(f, unk_id) for f in sent]
        event_ids.append(eos_id)
        for k in range(1, order + 1):
            seq = [bos_id] * (k - 1) + event_ids
            counters[k].update(zip(*[seq[j:] for j in range(k)]))
    raw: list[dict | None] = [None] + [dict(c) for c in counters[1:]]

    return NGramLM(
        order=order, forms=forms, raw_counts=raw,
        discount=discount, min_count_unk=min_count_unk,
    )


def corpus_perplexity(lm: NGramLM, corpus: Corpus) -> float:
    """exp(-total logprob / total events), events including one EOS each."""
    lp = 0.0
    events = 0
    for sent in corpus:
        score = lm.logprob(sent.forms(), sent.sentence_id)
        lp += score.logprob
        events += score.num_tokens
    return exp(-lp / events)


MODEL_VERSION = "verbscope-ngram/1"


def save_lm(lm: NGramLM, path) -> None:
    """Sorted-text count tables; loading rebuilds the derived tables."""
    with atomic_write(path) as fh:
        fh.write(MODEL_VERSION + "\n")
        fh.write(f"order\t{lm.order}\n")
        fh.write("discount\t" + ",".join(repr(d) for d in lm.discounts[1:]) + "\n")
        fh.write(f"min_count_unk\t{lm.min_count_unk}\n")
        fh.write(f"forms\t{len(lm.forms)}\n")
        for f in lm.forms:
            fh.write(f + "\n")
        for k in range(1, lm.order + 1):
            table = lm._raw[k]
            fh.write(f"grams\t{k}\t{len(table)}\n")
            for gram in sorted(table):
                fh.write(" ".join(map(str, gram)) + f"\t{table[gram]}\n")


def load_lm(path) -> NGramLM:
    """Rebuild a ``save_lm`` model; a malformed or cut-short file is a
    ValueError naming the file and line."""
    with open(path, encoding="utf-8") as fh:
        lineno = 0

        def fields(n: int, tag: str | None = None) -> list[str]:
            nonlocal lineno
            lineno += 1
            text = fh.readline()
            if not text:
                raise ValueError("the file ends early")
            parts = text.rstrip("\n").split("\t")
            if len(parts) != n or tag not in (None, parts[0]):
                start = f" starting {tag!r}" if tag else ""
                raise ValueError(f"expected {n} tab-separated fields{start}")
            return parts

        try:
            (version,) = fields(1)
            if version != MODEL_VERSION:
                raise ValueError(f"unsupported model version {version!r}")
            order = int(fields(2, "order")[1])
            discounts = [float(d) for d in fields(2, "discount")[1].split(",")]
            min_count_unk = int(fields(2, "min_count_unk")[1])
            forms = [fields(1)[0] for _ in range(int(fields(2, "forms")[1]))]
            raw: list[dict | None] = [None] + [dict() for _ in range(order)]
            for k in range(1, order + 1):
                _tag, k_s, n_s = fields(3, "grams")
                if int(k_s) != k:
                    raise ValueError(f"expected the order-{k} grams, got order {k_s}")
                table = raw[k]
                for _ in range(int(n_s)):
                    gram_s, count_s = fields(2)
                    table[tuple(map(int, gram_s.split(" ")))] = int(count_s)
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
    lm = NGramLM(
        order=order, forms=forms, raw_counts=raw,
        discount=discounts[0], min_count_unk=min_count_unk,
    )
    lm.discounts = [0.0] + discounts
    return lm
