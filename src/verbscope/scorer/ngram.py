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
counts, so normalization would cancel anyway. ``score_forms`` gives a
batch's scores as the two columns the score TSV stores: each sentence's
log-probability and its event count.

Table layout. An n-gram of ids packs into one int64 code, ((a*B)+b)*B+c
for (a, b, c), with B = forms + 3 (the forms, UNK, EOS and BOS), so sorted
codes are sorted id tuples and a gram's last k ids are its code modulo
B**k. A vocabulary and order whose codes could pass int64 are refused
(``pack_base``). ``codes`` holds the distinct top-order codes, sorted, and
``counts`` their counts: the model's only count table, counted by
``np.unique`` over the packed n-gram of every training event. Each level
k (index 0 unused) derives from it top-down: ``_codes[k]`` and
``_counts[k]`` are the top table at the top and, below, the distinct
k-id suffixes of the level above with how many distinct grams end in each
(continuation counts). ``_contexts[k]``, ``_totals[k]`` and ``_types[k]``
give each (k-1)-id context's code, count mass and number of distinct
continuations, by integer ``reduceat`` over the sorted codes, in which a
context's grams are contiguous. A model file lists each order's counts,
the top table's suffix sums (``NGramLM.grams``).

Scoring packs each event's BOS-padded n-gram and looks each distinct code
up once per level by ``searchsorted``. The recursion runs level by level
as float64 arrays, every element taking the operations of the scalar
recursion in their order, so each probability is bit-identical to the
scalar definition. Each distinct n-gram's log is one ``math.log`` (numpy's
``log`` differs from it in the last bit on some values), and a sentence's
score is the sequential left-to-right sum of its events' logs.
"""

from __future__ import annotations

from math import exp, log

import numpy as np

from ..atomic import atomic_write
from ..corpus import Corpus, Forms

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"


def check_discount(discount: float) -> None:
    """Raise ValueError unless 0 < D <= 1: a larger D gives distributions
    that sum to more than 1, and D = 0 gives zero probabilities."""
    if not 0 < discount <= 1:
        raise ValueError(f"discount must be in (0, 1], got {discount!r}")


def pack_base(n_forms: int, order: int) -> int:
    """The base B = n_forms + 3 that order-``order`` codes pack ids in.

    Raises ValueError if the order is below 1, or if a code, up to
    B**order - 1, could pass the int64 range.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    base = n_forms + 3
    if base**order > 1 << 63:
        raise ValueError(
            f"a vocabulary of {n_forms} forms at order {order} packs n-grams into "
            f"codes up to {base}**{order} - 1, past the int64 range"
        )
    return base


def _symbol_ids(forms: list[str]) -> dict[str, int]:
    """The form -> event id map of training and scoring: the forms in list
    order, then UNK and EOS. A form not in it scores as UNK."""
    ids = {f: i for i, f in enumerate(forms)}
    ids[UNK] = len(forms)
    ids[EOS] = len(forms) + 1
    return ids


def _pack(ids, base: int) -> int:
    """The code of one n-gram of ids."""
    code = 0
    for i in ids:
        code = code * base + i
    return code


def _event_codes(ids: np.ndarray, offsets: np.ndarray, order: int, base: int) -> np.ndarray:
    """The packed n-gram of every event, each sentence's tokens and then
    EOS, with BOS padding the left; ``ids`` are the tokens' event ids
    (int32, as ``Forms`` ids) and sentence i is ``ids[offsets[i]:offsets[i + 1]]``.
    EOS is id base - 2, BOS base - 1."""
    pad = order - 1
    width = np.diff(offsets) + pad + 1  # a sentence's slots: BOS padding, tokens, EOS
    ends = np.cumsum(width)
    slots = np.full(int(ends[-1]) if len(ends) else 0, base - 1, dtype=np.int32)
    slots[ends - 1] = base - 2
    is_token = np.ones(len(slots), dtype=bool)
    is_token[ends - 1] = False
    is_token[np.add.outer(ends - width, np.arange(pad)).ravel()] = False
    slots[is_token] = ids
    codes = slots[: len(slots) - pad].astype(np.int64)  # the window starting at each slot
    for j in range(1, order):
        codes *= base
        codes += slots[j : len(slots) - pad + j]
    # a window that starts in a sentence's last pad slots runs into the next
    is_event = np.ones(len(codes), dtype=bool)
    is_event[np.add.outer(ends[:-1] - pad, np.arange(pad)).ravel()] = False
    return codes[is_event]


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Where each run of equal values of a sorted array begins."""
    if not len(values):
        return np.zeros(0, dtype=np.int64)
    return np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))


def _sums(counts: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Integer sums of the runs of ``counts`` that begin at ``starts``."""
    return np.add.reduceat(counts, starts) if len(starts) else counts[:0]


def _unpack(codes: np.ndarray, k: int, base: int) -> np.ndarray:
    """The k ids of each code, one row per code."""
    ids = np.empty((len(codes), k), dtype=np.int64)
    rest = codes.copy()
    for j in range(k - 1, -1, -1):
        ids[:, j] = rest % base
        rest //= base
    return ids


def _find(table: np.ndarray, keys: np.ndarray):
    """Each key's index in a sorted table, and whether it is there."""
    if not len(table):
        return np.zeros(len(keys), dtype=np.int64), np.zeros(len(keys), dtype=bool)
    at = np.minimum(np.searchsorted(table, keys), len(table) - 1)
    return at, table[at] == keys


def _sequential_sums(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The left-to-right sum, from 0.0, of each run of ``lengths`` values.

    Each step adds one more value to every run still that long, so each
    sum takes the additions a Python loop would, in its order (``np.sum``
    may add pairwise).
    """
    longest = np.argsort(-lengths, kind="stable")
    starts = (np.cumsum(lengths) - lengths)[longest]
    ordered = lengths[longest]
    alive = np.searchsorted(-ordered, -np.arange(ordered[0] if len(ordered) else 0))
    sums = np.zeros(len(lengths))
    for j, n in enumerate(alive.tolist()):  # the n runs longer than j
        sums[:n] += values[starts[:n] + j]
    out = np.empty(len(lengths))
    out[longest] = sums
    return out


class NGramLM:
    """Count tables fixed at construction: the top order's sorted codes and
    counts, and every level derived from them."""

    def __init__(
        self,
        order: int,
        forms: list[str],
        codes: np.ndarray,
        counts: np.ndarray,
        discount: float = 0.75,
        min_count_unk: int = 1,
    ):
        self._base = pack_base(len(forms), order)
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
        self.codes = np.asarray(codes, dtype=np.int64)
        self.counts = np.asarray(counts, dtype=np.int64)
        base = self._base
        self._codes: list = [None] * (order + 1)
        self._counts: list = [None] * (order + 1)
        self._codes[order], self._counts[order] = self.codes, self.counts
        for k in range(order - 1, 0, -1):  # each distinct (k+1)-gram counts once
            self._codes[k], self._counts[k] = np.unique(
                self._codes[k + 1] % base**k, return_counts=True
            )
        self._contexts: list = [None] * (order + 1)
        self._totals: list = [None] * (order + 1)
        self._types: list = [None] * (order + 1)
        for k in range(1, order + 1):
            contexts = self._codes[k] // base
            starts = _run_starts(contexts)
            self._contexts[k] = contexts[starts]
            self._totals[k] = _sums(self._counts[k], starts)
            self._types[k] = np.diff(np.append(starts, len(contexts)))

    # -- symbol mapping ---------------------------------------------------
    def symbol_id(self, form: str) -> int:
        """Event id of a form; OOV and UNK map to the UNK id."""
        return self._ids.get(form, self.unk_id)

    def scorable_symbols(self) -> list[str]:
        return self.forms + [UNK, EOS]

    def observed_contexts(self, level: int) -> list[tuple]:
        """All observed context id-tuples of one level (1..order), sorted."""
        return [tuple(ids) for ids in _unpack(self._contexts[level], level - 1, self._base).tolist()]

    def grams(self, k: int) -> list[tuple[list[int], int]]:
        """The order-k (ids, count) rows of a model file, sorted: the top
        table's counts summed over each gram's last k ids."""
        codes, counts = self.codes, self.counts
        if k < self.order:
            suffixes = codes % self._base**k
            by_suffix = np.argsort(suffixes, kind="stable")
            suffixes, counts = suffixes[by_suffix], counts[by_suffix]
            starts = _run_starts(suffixes)
            codes, counts = suffixes[starts], _sums(counts, starts)
        return list(zip(_unpack(codes, k, self._base).tolist(), counts.tolist()))

    # -- probabilities ----------------------------------------------------
    def _probs(self, grams: np.ndarray, m: int) -> np.ndarray:
        """p(w | ctx) for each distinct packed m-gram ctx + (w,), folded
        bottom-up over levels 1..m.

        A level whose context is unseen is skipped (full backoff), and the
        fold starts from the uniform distribution over the scorable
        vocabulary. At each seen level, p = max(c - D, 0) / total +
        (D * types / total) * p, evaluated in that order.
        """
        base, discount = self._base, self.discount
        p = np.full(len(grams), self._inv_vocab)
        for k in range(1, m + 1):
            gram = grams if k == m else grams % base**k
            at, seen = _find(self._contexts[k], gram // base)
            hit, found = _find(self._codes[k], gram)
            rows = np.flatnonzero(seen)
            at, hit = at[rows], hit[rows]
            c = np.where(found[rows], self._counts[k][hit], 0)
            total, types = self._totals[k][at], self._types[k][at]
            disc = np.maximum(c - discount, 0.0)
            p[rows] = disc / total + (discount * types / total) * p[rows]
        return p

    def prob_ids(self, w_id: int, ctx_ids: tuple) -> float:
        code = _pack((*ctx_ids, w_id), self._base)
        return float(self._probs(np.array([code], dtype=np.int64), len(ctx_ids) + 1)[0])

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

    def score_forms(self, forms: Forms) -> tuple[list[float], list[int]]:
        """Each sentence's total ln-probability, EOS included, and its event
        count. Every distinct n-gram is evaluated and logged once."""
        remap = np.array([self.symbol_id(f) for f in forms.vocab], dtype=np.int32)
        grams = _event_codes(remap[forms.ids], forms.offsets, self.order, self._base)
        distinct = np.sort(grams)
        distinct = distinct[_run_starts(distinct)]  # np.unique would import numpy.ma
        logs = np.array([log(p) for p in self._probs(distinct, self.order).tolist()])
        events = np.diff(forms.offsets) + 1
        values = logs[np.searchsorted(distinct, grams)]
        return _sequential_sums(values, events).tolist(), events.tolist()

    def logprob(self, tokens) -> float:
        """Total ln-probability of the token sequence plus the EOS event."""
        (lp,), _events = self.score_forms(Forms.encode([tokens]))
        return lp


def train_ngram(
    corpus: Forms, order: int, min_count_unk: int = 1, discount: float = 0.75,
) -> NGramLM:
    """Count the top-order n-grams and build the model.

    ``corpus`` holds the training sentences as a ``Forms`` view (such as a
    ``Corpus.form_view()``). Deterministic: no randomness anywhere, forms
    are id-assigned in sorted order. Forms occurring at most
    min_count_unk - 1 times become UNK.
    """
    if len(corpus) == 0:
        raise ValueError("empty corpus")
    seen = np.bincount(corpus.ids, minlength=len(corpus.vocab)).tolist()
    kept = [
        f for f, c in zip(corpus.vocab, seen)
        if c and c >= min_count_unk and f not in (UNK, EOS)
    ]
    base = pack_base(len(kept), order)
    ids = _symbol_ids(kept)
    remap = np.array([ids.get(f, ids[UNK]) for f in corpus.vocab], dtype=np.int32)
    codes, counts = np.unique(
        _event_codes(remap[corpus.ids], corpus.offsets, order, base), return_counts=True
    )
    return NGramLM(
        order=order, forms=kept, codes=codes, counts=counts,
        discount=discount, min_count_unk=min_count_unk,
    )


def corpus_perplexity(lm: NGramLM, corpus: Corpus) -> float:
    """exp(-total logprob / total events), events including one EOS each."""
    logprobs, events = lm.score_forms(corpus.form_view())
    lp = 0.0
    for value in logprobs:
        lp += value
    return exp(-lp / sum(events))


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
            grams = lm.grams(k)
            fh.write(f"grams\t{k}\t{len(grams)}\n")
            for gram, count in grams:
                fh.write(" ".join(map(str, gram)) + f"\t{count}\n")


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
            n_forms = int(fields(2, "forms")[1])
            pack_base(n_forms, order)
            forms: list[str] = []
            for _ in range(n_forms):
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
            base = pack_base(len(forms), order)
            top = sorted(tables[-1].items())
            lm = NGramLM(
                order=order, forms=forms,
                codes=np.array([_pack(gram, base) for gram, _c in top], dtype=np.int64),
                counts=np.array([c for _gram, c in top], dtype=np.int64),
                discount=float(discounts[0]), min_count_unk=min_count_unk,
            )
            for k, table in enumerate(tables[:-1], start=1):
                if sorted(table.items()) != [(tuple(g), c) for g, c in lm.grams(k)]:
                    lineno = starts[k - 1]
                    raise ValueError(f"the order-{k} grams are not the suffix sums "
                                     f"of the order-{order} grams")
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
    return lm
