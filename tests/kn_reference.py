"""A dict-based interpolated Kneser-Ney reference for the scorer tests.

``DictKN`` counts its own n-grams from form sequences under the model's
symbol rules: the kept forms sorted, then UNK and EOS, BOS context-only;
a form seen fewer than min_count_unk times, an unknown form and ``<unk>``
are UNK, and ``</s>`` is EOS. It evaluates the recursion per n-gram from
dict tables, taking the model's operations in the model's order, and
sums a sentence's logs left to right, so its scores must equal the
model's bit for bit.
"""

import math
from collections import Counter

UNK, EOS = "<unk>", "</s>"


class DictKN:
    def __init__(self, sentences, order, min_count_unk=1, discount=0.75):
        self.order, self.discount = order, discount
        seen = Counter(f for s in sentences for f in s)
        self.forms = sorted(
            f for f, c in seen.items() if c >= min_count_unk and f not in (UNK, EOS)
        )
        self.ids = {f: i for i, f in enumerate(self.forms)}
        self.unk, self.eos, self.bos = len(self.forms), len(self.forms) + 1, len(self.forms) + 2
        self.ids[UNK], self.ids[EOS] = self.unk, self.eos
        self.inv_vocab = 1.0 / (len(self.forms) + 2)
        top = Counter()
        for s in sentences:
            seq = [self.bos] * (order - 1) + [self.symbol(f) for f in s] + [self.eos]
            for t in range(order - 1, len(seq)):
                top[tuple(seq[t - order + 1 : t + 1])] += 1
        self.counts = {order: dict(top)}
        for k in range(order - 1, 0, -1):  # continuation counts
            cont = {}
            for gram in self.counts[k + 1]:
                cont[gram[1:]] = cont.get(gram[1:], 0) + 1
            self.counts[k] = cont
        self.totals, self.types = {}, {}
        for k, table in self.counts.items():
            totals, types = {}, {}
            for gram, c in table.items():
                totals[gram[:-1]] = totals.get(gram[:-1], 0) + c
                types[gram[:-1]] = types.get(gram[:-1], 0) + 1
            self.totals[k], self.types[k] = totals, types

    def symbol(self, form):
        return self.ids.get(form, self.unk)

    def prob(self, w, ctx):
        """p(w | ctx) for ids, folded bottom-up; unseen contexts are skipped."""
        p = self.inv_vocab
        for k in range(1, len(ctx) + 2):
            sub = ctx[len(ctx) - k + 1 :]
            total = self.totals[k].get(sub)
            if total is None:
                continue
            disc = self.counts[k].get(sub + (w,), 0) - self.discount
            if disc < 0.0:
                disc = 0.0
            p = disc / total + (self.discount * self.types[k][sub] / total) * p
        return p

    def logprob(self, tokens):
        ctx = (self.bos,) * (self.order - 1)
        lp = 0.0
        for w in [self.symbol(f) for f in tokens] + [self.eos]:
            lp += math.log(self.prob(w, ctx))
            if self.order > 1:
                ctx = ctx[1:] + (w,)
        return lp
