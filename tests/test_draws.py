"""The vector draws of ``rng`` against the scalar ``Stream`` they replace.

``below``, ``shuffles`` and ``picks`` compute many streams' draws at once
from SplitMix64's counter form; each must give what ``Stream`` gives, on
any seed, span and stratum, rejected draws included.
"""

from itertools import accumulate

import numpy as np
from hypothesis import given, settings, strategies as st

from verbscope.corpus import Corpus, FrequencyTable, tag_pair
from verbscope.perturb import REPLACE_WORD, SHUFFLE_ORDER, perturb_corpus, perturb_forms, perturb_plan
from verbscope.rng import MASK64, Stream, below, mix64, picks, shuffles, stream_seeds

from conftest import corpus_of

SEEDS = st.integers(min_value=0, max_value=MASK64)
# small bounds, and bounds near 2^63 and 2^64, where about half of all draws reject
BOUNDS = st.integers(min_value=1, max_value=1 << 20) | st.integers(
    min_value=(1 << 63) - 5, max_value=MASK64
)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(SEEDS, st.lists(BOUNDS, min_size=1, max_size=6)), min_size=1, max_size=6))
def test_below_is_randbelow_of_the_kth_draw(streams):
    seeds, ks, ns, expected = [], [], [], []
    for seed, bounds in streams:
        scalar = Stream(seed)
        for k, n in enumerate(bounds):
            u = scalar.next_u64()
            seeds.append(seed)
            ks.append(k)
            ns.append(n)
            expected.append((u % n, u >= (1 << 64) - (1 << 64) % n))
    values, rejected = below(
        np.array(seeds, dtype=np.uint64), np.array(ks), np.array(ns, dtype=np.uint64)
    )
    assert list(zip(values.tolist(), rejected.tolist())) == expected
    for seed, bounds in streams:  # no rejection on the way: randbelow's values, in order
        scalar, k = Stream(seed), 0
        for n in bounds:
            if n == 1:  # randbelow(1) takes no draw
                assert scalar.randbelow(n) == 0
                continue
            (value,), (reject,) = below(
                np.array([seed], dtype=np.uint64), np.array([k]), np.array([n], dtype=np.uint64)
            )
            if reject:
                break
            assert scalar.randbelow(n) == value
            k += 1


def test_stream_seeds_are_mix64():
    indices = np.array([0, 1, 2, 7, 1 << 40])
    for seed in (0, 1, 2**63 + 5, MASK64, -3):
        assert stream_seeds(seed, indices).tolist() == [mix64(seed, i) for i in indices.tolist()]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(SEEDS, st.integers(min_value=1, max_value=40)), max_size=12))
def test_shuffles_are_stream_shuffles(streams):
    orders = shuffles([seed for seed, _n in streams], np.array([n for _s, n in streams]))
    end = 0
    for seed, n in streams:
        order = list(range(n))
        Stream(seed).shuffle(order)
        assert orders[end : end + n].tolist() == order
        end += n
    assert end == len(orders)


def test_a_shuffle_with_a_rejected_draw_is_redone_with_stream(monkeypatch):
    """Shuffle bounds stay far below 2^40, so no real draw rejects: mark the
    first stream's draws rejected (and spoil them) to reach the fallback."""
    import verbscope.rng as rng

    real = rng.below

    def first_stream_rejected(seeds, k, n):
        values, rejected = real(seeds, k, n)
        mine = seeds == seeds[0]
        values[mine] = 0
        rejected[mine] = True
        return values, rejected

    monkeypatch.setattr(rng, "below", first_stream_rejected)
    seeds, spans = [3, 4, 5], [9, 7, 12]
    orders = rng.shuffles(seeds, np.array(spans))
    end = 0
    for seed, n in zip(seeds, spans):
        order = list(range(n))
        Stream(seed).shuffle(order)
        assert orders[end : end + n].tolist() == order
        end += n


WEIGHTS = st.integers(min_value=1, max_value=9) | st.integers(min_value=1, max_value=1 << 60)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.lists(WEIGHTS, min_size=2, max_size=4), min_size=1, max_size=3),
    st.lists(st.tuples(SEEDS, st.lists(st.tuples(st.integers(0, 2), st.integers(0, 3)),
                                       max_size=5)), min_size=1, max_size=5),
)
def test_picks_are_pick_cumulative_with_exclude(strata_weights, streams):
    strata = [0, *accumulate(len(w) for w in strata_weights)]
    cumulative = list(accumulate(w for weights in strata_weights for w in weights))
    stream, member, expected = [], [], []
    for s, (seed, draws) in enumerate(streams):
        scalar = Stream(seed)
        for which, own in draws:
            which %= len(strata_weights)
            own %= len(strata_weights[which])
            local = list(accumulate(strata_weights[which]))
            stream.append(s)
            member.append(strata[which] + own)
            expected.append(strata[which] + scalar.pick_cumulative(local, exclude=own))
    chosen = picks(
        np.array([seed for seed, _d in streams], dtype=np.uint64), np.array(stream, dtype=np.int64),
        np.array(cumulative, dtype=np.uint64), np.array(strata), np.array(member, dtype=np.int64),
    )
    assert chosen.tolist() == expected


def _scalar_replacements(corpus, table, seed):
    """Each sentence's REPLACE.WORD draws from Stream(mix64(seed, i)), the
    frequency-weighted pick of every target in position order."""
    from verbscope.perturb import replace_plan

    out = []
    for i, s in enumerate(corpus):
        stream = Stream(mix64(seed, i))
        out.append([
            (pos, members[stream.pick_cumulative(cumulative, exclude=index)][0])
            for pos, (members, cumulative, index) in replace_plan(s, table)
        ])
    return out


def test_rejected_draws_fall_back_to_the_scalar_stream():
    """Three nouns share a stratum whose counts are near 2^62, so a target's
    remaining total is just over 2^63 and about half of all draws reject.
    Both perturb entry points still give the scalar draws."""
    nouns = {"cat": (1 << 62) + 1, "dog": (1 << 62) + 2, "owl": (1 << 62) + 3}
    table = FrequencyTable({
        **{("NOUN", "NN", form): c for form, c in nouns.items()},
        ("DET", "DT", "the"): 1, ("VERB", "VBZ", "sees"): 1,
    })
    corpus = corpus_of(*[
        f"the/DET/DT {a}/NOUN/NN sees/VERB/VBZ:root the/DET/DT {b}/NOUN/NN"
        for a, b in [("cat", "dog"), ("dog", "owl"), ("owl", "cat")] * 10
    ])
    plan = perturb_plan(corpus, REPLACE_WORD, table)
    for seed in (1, 2, 2**63 + 5):
        sentence = np.searchsorted(plan.offsets, plan.targets, side="right") - 1
        firsts = stream_seeds(seed, sentence)
        totals = np.array([sum(nouns.values()) - nouns[corpus.sentences[i].tokens[p].form]
                           for i, p in zip(sentence.tolist(),
                                           (plan.targets - plan.offsets[sentence]).tolist())],
                          dtype=np.uint64)
        _values, rejected = below(firsts, np.zeros(len(firsts), dtype=np.int64), totals)
        assert 0.3 < rejected.mean() < 0.7  # the first draws alone reject about half the time

        expected = _scalar_replacements(corpus, table, seed)
        out, report = perturb_corpus(corpus, REPLACE_WORD, table, seed)
        assert report.tokens_replaced == sum(map(len, expected)) == 60
        for before, after, replacements in zip(corpus, out, expected):
            forms = before.forms()
            for pos, form in replacements:
                forms[pos] = form
            assert after.forms() == forms
        forms, form_report = perturb_forms(corpus.form_view(), REPLACE_WORD, plan, seed)
        assert forms == out.form_view() and form_report == report


@settings(max_examples=25, deadline=None)
@given(seed=SEEDS, pin=st.booleans())
def test_both_entry_points_make_the_same_draws(seed, pin):
    """perturb_corpus and perturb_forms give the same replacements and
    permutations, and those are the scalar streams' draws."""
    from verbscope.fixtures import build_fixture_corpus
    from verbscope.corpus import build_frequency_table

    corpus = Corpus(build_fixture_corpus("chat", 1_500).sentences, domain="chat")
    table = build_frequency_table(corpus)
    for condition in (REPLACE_WORD, SHUFFLE_ORDER):
        plan = perturb_plan(corpus, condition, table, pin_final_punct=pin)
        out, report = perturb_corpus(corpus, condition, table, seed, pin_final_punct=pin)
        forms, form_report = perturb_forms(corpus.form_view(), condition, plan, seed)
        assert forms == out.form_view() and form_report == report
    spans = perturb_plan(corpus, SHUFFLE_ORDER, pin_final_punct=pin).spans.tolist()
    for i, (before, after, span) in enumerate(zip(corpus, out, spans)):
        order = list(range(span))
        Stream(mix64(seed, i)).shuffle(order)
        assert after.forms() == [before.tokens[k].form for k in order] + before.forms()[span:]
    expected = _scalar_replacements(corpus, table, seed)
    replaced, _report = perturb_corpus(corpus, REPLACE_WORD, table, seed)
    for before, after, replacements in zip(corpus, replaced, expected):
        forms = before.forms()
        for pos, form in replacements:
            forms[pos] = form
        assert after.forms() == forms
        assert all(tag_pair(a) == tag_pair(b) for a, b in zip(before.tokens, after.tokens))
