"""Interpolated Kneser-Ney n-gram language model.

Absolute discounting with one discount D, 0 < D <= 1, at every order
(default 0.75), true counts at the top order and continuation counts
below, and full backoff through unseen contexts down to a uniform floor
over the scorable vocabulary. That floor guarantees every conditional
distribution sums to exactly 1 and every symbol keeps nonzero mass, UNK
included.

The scorable vocabulary is the kept training forms plus UNK and EOS. BOS
is a context-only padding symbol: it can never be predicted, so it takes
no probability mass. Training reads form sequences only. Training and
scoring share one form-to-id map, ``_symbol_ids``: forms seen fewer than
min_count_unk times, unknown forms and ``<unk>`` itself map to UNK, ``</s>``
to EOS.

Scores are total (not length-normalized) natural-log probabilities
including the EOS event. Minimal-pair members always have equal token
counts, so normalization would cancel anyway. A ``SentenceScore`` holds
only what the score TSV stores: the sentence id, the log-probability and
the event count.

Table layout: ``counts`` maps each top-order id tuple (BOS-padded) to its
count, in first-seen order; it is the model's only count table. The lists
``_counts``, ``_totals`` and ``_types``, indexed by level k (index 0 unused),
derive from it top-down: ``_counts[k]`` is ``counts`` at the top and the
continuation counts below, ``_totals[k]`` and ``_types[k]`` map (k-1)-length
contexts to their count mass and distinct-continuation count. A model file
also lists each lower order's raw counts, the top table's suffix sums.

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


def ngram_prob(w, ctx, discount, counts, totals, types, inv_vocab):
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
        disc = c - discount
        if disc < 0.0:
            disc = 0.0
        p = disc / tot + (discount * ty / tot) * p
    return p


def check_discount(discount: float) -> None:
    """Raise ValueError unless 0 < D <= 1: a larger D gives distributions
    that sum to more than 1, and D = 0 gives zero probabilities."""
    if not 0 < discount <= 1:
        raise ValueError(f"discount must be in (0, 1], got {discount!r}")


def _symbol_ids(forms: list[str]) -> dict[str, int]:
    """The form -> event id map of training and scoring: the forms in list
    order, then UNK and EOS. A form not in it scores as UNK."""
    ids = {f: i for i, f in enumerate(forms)}
    ids[UNK] = len(forms)
    ids[EOS] = len(forms) + 1
    return ids


def _suffix_counts(table: dict, k: int) -> dict:
    """Each gram's count summed into its last k ids."""
    sums: dict = {}
    for gram, c in table.items():
        sums[gram[-k:]] = sums.get(gram[-k:], 0) + c
    return sums


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
        counts: dict,
        discount: float = 0.75,
        min_count_unk: int = 1,
    ):
        if order < 1:
            raise ValueError("order must be >= 1")
        self.order = order
        self.min_count_unk = min_count_unk
        self.discount = float(discount)
        check_discount(self.discount)
        self.forms = list(forms)  # sorted kept forms; ids follow list order
        self._ids = _symbol_ids(self.forms)
        self.unk_id, self.eos_id = self._ids[UNK], self._ids[EOS]
        self.bos_id = len(self.forms) + 2  # context-only, outside the event space
        self.vocab_size = len(self.forms) + 2  # forms + UNK + EOS
        self._inv_vocab = 1.0 / self.vocab_size
        self.counts = counts
        self._logp: dict[tuple, float] = {}  # ctx + (w,) -> ln p(w | ctx)
        self._derive_tables()

    def _derive_tables(self) -> None:
        order = self.order
        counts: list[dict | None] = [None] * (order + 1)
        counts[order] = self.counts
        for k in range(order - 1, 0, -1):  # each distinct (k+1)-gram counts once
            counts[k] = _suffix_counts(dict.fromkeys(counts[k + 1], 1), k)
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
            w_id, ctx_ids, self.discount, self._counts, self._totals,
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
    """Count the top-order n-grams and build the model.

    ``corpus`` holds the training sentences as form sequences, such as a
    ``Corpus.form_view()``. Deterministic: no randomness anywhere, forms are
    id-assigned in sorted order. Forms occurring at most min_count_unk - 1
    times become UNK.
    """
    if len(corpus) == 0:
        raise ValueError("empty corpus")

    form_counts = Counter(f for sent in corpus for f in sent)
    forms = sorted(
        f for f, c in form_counts.items() if c >= min_count_unk and f not in (UNK, EOS)
    )
    ids = _symbol_ids(forms)
    unk_id, eos_id = ids[UNK], ids[EOS]
    pad = [eos_id + 1] * (order - 1)  # BOS

    counter: Counter = Counter()  # keeps first-seen insertion order
    for sent in corpus:
        seq = pad + [ids.get(f, unk_id) for f in sent]
        seq.append(eos_id)
        counter.update(zip(*[seq[j:] for j in range(order)]))

    return NGramLM(
        order=order, forms=forms, counts=dict(counter),
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
    """Sorted-text count tables, one per order: the top table and its
    suffix sums. Loading rebuilds the model from the top table."""
    with atomic_write(path) as fh:
        fh.write(MODEL_VERSION + "\n")
        fh.write(f"order\t{lm.order}\n")
        fh.write("discount\t" + ",".join([repr(lm.discount)] * lm.order) + "\n")
        fh.write(f"min_count_unk\t{lm.min_count_unk}\n")
        fh.write(f"forms\t{len(lm.forms)}\n")
        for f in lm.forms:
            fh.write(f + "\n")
        for k in range(1, lm.order + 1):
            table = _suffix_counts(lm.counts, k)
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
            discounts = fields(2, "discount")[1].split(",")
            if len(discounts) != order or len(set(map(float, discounts))) != 1:
                raise ValueError(f"expected one discount repeated {order} times")
            check_discount(float(discounts[0]))
            min_count_unk = int(fields(2, "min_count_unk")[1])
            forms: list[str] = []
            for _ in range(int(fields(2, "forms")[1])):
                (form,) = fields(1)
                if form in (UNK, EOS):
                    raise ValueError(f"form {form!r} is a reserved symbol")
                if forms and form <= forms[-1]:
                    raise ValueError(f"form {form!r} repeats or breaks the sorted order")
                forms.append(form)
            bos_id = len(forms) + 2
            tables: list[dict] = []
            starts: list[int] = []
            for k in range(1, order + 1):
                _tag, k_s, n_s = fields(3, "grams")
                if int(k_s) != k:
                    raise ValueError(f"expected the order-{k} grams, got order {k_s}")
                starts.append(lineno)
                table: dict = {}
                for _ in range(int(n_s)):
                    gram_s, count_s = fields(2)
                    gram = tuple(map(int, gram_s.split(" ")))
                    if len(gram) != k:
                        raise ValueError(f"an order-{k} gram has {len(gram)} ids")
                    if min(gram) < 0 or max(gram) > bos_id or gram[-1] == bos_id:
                        raise ValueError(f"gram {gram_s!r}: ids run 0..{bos_id - 1}, "
                                         f"and {bos_id} (BOS) only in the context")
                    if gram in table or int(count_s) < 1:
                        raise ValueError(f"gram {gram_s!r} repeats or counts below 1")
                    table[gram] = int(count_s)
                tables.append(table)
            for k, table in enumerate(tables[:-1], start=1):
                if table != _suffix_counts(tables[-1], k):
                    lineno = starts[k - 1]
                    raise ValueError(f"the order-{k} grams are not the suffix sums "
                                     f"of the order-{order} grams")
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
    return NGramLM(
        order=order, forms=forms, counts=tables[-1],
        discount=float(discounts[0]), min_count_unk=min_count_unk,
    )
