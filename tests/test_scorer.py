import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from verbscope.corpus import AnnotatedSentence, Corpus, Token
from verbscope.pairgen import MinimalPair
from verbscope.scorer.ngram import (
    BOS,
    EOS,
    UNK,
    SentenceScore,
    corpus_perplexity,
    load_lm,
    ngram_prob,
    save_lm,
    train_ngram,
)
from verbscope.scorer.scoring import (
    pair_items,
    read_pair_scores,
    score_pairs,
    score_sentences,
    scored_pairs,
    write_scores,
)

from conftest import corpus_of


class ReferenceKN:
    """Independent reference: counts its own n-grams and evaluates the
    interpolated Kneser-Ney recursion directly from the definition."""

    def __init__(self, sentences, order, discount=0.75):
        self.order = order
        self.d = discount
        forms = sorted({f for s in sentences for f in s})
        self.vocab = forms + [UNK, EOS]  # scorable symbols
        self.raw = {k: {} for k in range(1, order + 1)}
        for s in sentences:
            events = list(s) + [EOS]
            for k in range(1, order + 1):
                padded = [BOS] * (k - 1) + events
                for t in range(k - 1, len(padded)):
                    gram = tuple(padded[t - k + 1 : t + 1])
                    self.raw[k][gram] = self.raw[k].get(gram, 0) + 1
        # continuation counts for levels below the top
        self.table = {self.order: self.raw[self.order]}
        for k in range(1, order):
            cont = {}
            for gram in self.raw[k + 1]:
                cont[gram[1:]] = cont.get(gram[1:], 0) + 1
            self.table[k] = cont

    def prob(self, w, ctx):
        return self._p(len(ctx) + 1, tuple(ctx), w)

    def _p(self, k, ctx, w):
        if k == 0:
            return 1.0 / len(self.vocab)
        table = self.table[k]
        total = sum(c for gram, c in table.items() if gram[:-1] == ctx)
        if total == 0:
            return self._p(k - 1, ctx[1:], w)
        c = table.get(ctx + (w,), 0)
        types = sum(1 for gram in table if gram[:-1] == ctx)
        return max(c - self.d, 0.0) / total + (self.d * types / total) * self._p(
            k - 1, ctx[1:], w
        )

    def logprob(self, tokens):
        events = [t if t in self.vocab else UNK for t in tokens] + [EOS]
        ctx = [BOS] * (self.order - 1)
        lp = 0.0
        for w in events:
            lp += math.log(self.prob(w, ctx))
            if self.order > 1:
                ctx = ctx[1:] + [w]
        return lp


class TestTrainNGram:
    def test_order_below_one_rejected(self):
        with pytest.raises(ValueError, match="order"):
            train_ngram(corpus_of("a b").form_view(), 0)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty corpus"):
            train_ngram(Corpus(()).form_view(), 2)

    def test_unigram_distribution_on_aab(self):
        # corpus "a a b": events a,a,b,EOS; N=4; D=0.75; V={a,b,UNK,EOS}
        lm = train_ngram(corpus_of("a a b").form_view(), order=1)
        assert sorted(lm.scorable_symbols()) == sorted(["a", "b", UNK, EOS])
        p = {w: lm.prob(w) for w in lm.scorable_symbols()}
        # hand computation: p(a) = (2-.75)/4 + (.75*3/4)*(1/4)
        assert p["a"] == pytest.approx(0.453125, abs=1e-12)
        assert p["b"] == pytest.approx(0.203125, abs=1e-12)
        assert p[EOS] == pytest.approx(0.203125, abs=1e-12)
        assert p[UNK] == pytest.approx(0.140625, abs=1e-12)
        assert sum(p.values()) == pytest.approx(1.0, abs=1e-9)

    def test_training_is_deterministic(self, tmp_path):
        corpus = corpus_of("a b c", "b c a", "c c c")
        a, b = train_ngram(corpus.form_view(), 3), train_ngram(corpus.form_view(), 3)
        pa, pb = tmp_path / "a.lm", tmp_path / "b.lm"
        save_lm(a, pa)
        save_lm(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_min_count_unk_maps_rare_forms(self):
        lm = train_ngram(corpus_of("a a a b").form_view(), order=1, min_count_unk=2)
        assert "b" not in lm.forms
        assert lm.symbol_id("b") == lm.unk_id


class TestLogprob:
    def test_empty_tokens_is_eos_only(self):
        lm = train_ngram(corpus_of("a b", "b a").form_view(), order=2)
        score = lm.logprob([])
        assert score.num_tokens == 1
        assert score.logprob == pytest.approx(math.log(lm.prob(EOS, [BOS])), abs=1e-12)

    def test_unseen_word_equals_unk_substitution(self):
        lm = train_ngram(corpus_of("you want it", "you want milk").form_view(), order=3)
        a = lm.logprob(["you", "want", "xylophone"])
        b = lm.logprob(["you", "want", UNK])
        assert a.logprob == b.logprob

    def test_matches_independent_reference(self):
        sentences = [
            ["the", "cat", "sat"],
            ["the", "dog", "sat"],
            ["a", "cat", "ran"],
            ["the", "cat", "ran", "far"],
        ]
        corpus = corpus_of(*[" ".join(s) for s in sentences])
        for order in (1, 2, 3):
            lm = train_ngram(corpus.form_view(), order)
            ref = ReferenceKN(sentences, order)
            for probe in (
                ["the", "cat", "sat"],
                ["a", "dog", "ran"],
                ["far"],
                ["the", "zebra"],
                [],
            ):
                assert lm.logprob(probe).logprob == pytest.approx(
                    ref.logprob(probe), abs=1e-10
                ), (order, probe)

    def test_score_is_negative_and_counts_eos(self):
        lm = train_ngram(corpus_of("a b c d").form_view(), order=2)
        score = lm.logprob(["a", "b"], "sid")
        assert score.logprob < 0
        assert score.num_tokens == 3
        assert score.sentence_id == "sid"


class TestNormalization:
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_observed_contexts_sum_to_one(self, order, chat_fixture):
        subset = Corpus(chat_fixture.sentences[:400], domain="chat")
        lm = train_ngram(subset.form_view(), order)
        symbols = lm.scorable_symbols()
        ids = [lm.symbol_id(s) for s in symbols]
        for level in range(1, order + 1):
            contexts = lm.observed_contexts(level)[:10]
            for ctx in contexts:
                total = sum(lm.prob_ids(w, ctx) for w in ids)
                assert total == pytest.approx(1.0, abs=1e-6), (level, ctx)

    def test_probabilities_strictly_positive(self):
        lm = train_ngram(corpus_of("a b", "c d").form_view(), order=2)
        for w in lm.scorable_symbols():
            assert 0 < lm.prob(w, ["a"]) < 1


class TestModelProperties:
    def test_perplexity_beats_uniform(self, chat_fixture):
        subset = Corpus(chat_fixture.sentences[:500], domain="chat")
        for order in (1, 2, 3):
            lm = train_ngram(subset.form_view(), order)
            assert corpus_perplexity(lm, subset) <= lm.vocab_size

    def test_doubling_corpus_keeps_dominant_argmax(self):
        base = ["the cat sat", "the cat sat", "the dog ran"]
        double = base + base
        lm1 = train_ngram(corpus_of(*base).form_view(), order=2)
        lm2 = train_ngram(corpus_of(*double).form_view(), order=2)
        for ctx in (["the"], ["cat"], [BOS]):
            best1 = max(lm1.scorable_symbols(), key=lambda w: lm1.prob(w, ctx))
            best2 = max(lm2.scorable_symbols(), key=lambda w: lm2.prob(w, ctx))
            assert best1 == best2

    def test_save_load_round_trip_scores_identically(self, tmp_path):
        corpus = corpus_of("a b c", "c b a", "a a b b")
        lm = train_ngram(corpus.form_view(), 3, min_count_unk=1, discount=0.6)
        path = tmp_path / "m.lm"
        save_lm(lm, path)
        loaded = load_lm(path)
        for probe in (["a", "b", "c"], ["c", "z"], []):
            assert loaded.logprob(probe).logprob == lm.logprob(probe).logprob
        assert loaded.discount == lm.discount

    def test_cut_short_header_names_file_and_line(self, tmp_path, capsys):
        from verbscope.cli import main

        lm = train_ngram(corpus_of("a b c").form_view(), 2)
        path = tmp_path / "m.lm"
        save_lm(lm, path)
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:2]))
        with pytest.raises(ValueError, match=r"m\.lm: line 3: the file ends early"):
            load_lm(path)
        (tmp_path / "c.conllu").write_text("1\ta\ta\tX\tX\t_\t0\troot\t_\t_\n\n")
        args = ["score", "--lm", str(path), "--in", str(tmp_path / "c.conllu"), "--out", str(tmp_path / "s")]
        assert main(args) == 1
        assert capsys.readouterr().err == f"error: {path}: line 3: the file ends early\n"

    @pytest.mark.parametrize("edits, line, message", [
        ({3: "discount\t0.75,0.75"}, 3, "expected one discount repeated 3 times"),
        ({3: "discount\t0.75,0.75,0.75,0.75"}, 3, "expected one discount repeated 3 times"),
        ({3: "discount\t0.75,0.5,0.75"}, 3, "expected one discount repeated 3 times"),
        ({18: "grams\t2\t15", 19: "0 0\t1\n0 2\t1"}, 18,
         "the order-2 grams are not the suffix sums of the order-3 grams"),
        ({12: "0\t5"}, 11, "the order-1 grams are not the suffix sums of the order-3 grams"),
        ({34: "0 1\t1"}, 34, "an order-3 gram has 2 ids"),
        ({34: "0 0 99\t1"}, 34, r"gram '0 0 99': ids run 0\.\.6, and 7 \(BOS\) only in the context"),
        ({34: "0 -1 1\t1"}, 34, "gram '0 -1 1': ids run"),
        ({34: "0 0 7\t1"}, 34, "gram '0 0 7': ids run"),
        ({34: "0 0 1\t0"}, 34, "gram '0 0 1' repeats or counts below 1"),
        ({35: "0 0 1\t1"}, 35, "gram '0 0 1' repeats or counts below 1"),
    ], ids=["fewer-discounts", "more-discounts", "unequal-discounts", "extra-bigram",
            "changed-unigram", "short-gram", "id-99", "negative-id", "bos-predicted",
            "zero-count", "repeated-gram"])
    def test_malformed_model_names_file_and_line(self, edits, line, message, tmp_path, capsys):
        from verbscope.cli import main

        lm = train_ngram(corpus_of("a b c", "c b a", "a a b b", "d e").form_view(), 3)
        path = tmp_path / "m.lm"
        save_lm(lm, path)
        lines = path.read_text().splitlines()
        assert (lines[2], lines[17], lines[33]) == ("discount\t0.75,0.75,0.75", "grams\t2\t14", "0 0 1\t1")
        for lineno, text in edits.items():
            lines[lineno - 1] = text
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: line {line}: {message}"):
            load_lm(path)
        (tmp_path / "c.conllu").write_text("1\ta\ta\tX\tX\t_\t0\troot\t_\t_\n\n")
        args = ["score", "--lm", str(path), "--in", str(tmp_path / "c.conllu"), "--out", str(tmp_path / "s")]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(rf"error: {re.escape(str(path))}: line {line}: {message}.*\n", err), err


class TestScorePairs:
    def _pair(self, pid, good, bad, idx):
        return MinimalPair(pid, "semantic-verb", tuple(good), tuple(bad), idx)

    def test_identical_members_tie(self):
        lm = train_ngram(corpus_of("a b c").form_view(), order=2)
        # construct via different diff then evaluate equal-scoring directly
        pair = self._pair("p", ["a", "b"], ["a", "c"], 1)
        lm_scores = score_pairs(lm, [pair])
        assert lm_scores[0][0] == "p"
        same = lm.logprob(["a", "b"]).logprob
        assert lm_scores[0][1] == same

    def test_plausible_sentence_beats_unk(self):
        lm = train_ngram(
            corpus_of("you want it .", "you want it .", "they see milk .").form_view(), order=3
        )
        good = ["you", "want", "it", "."]
        bad = ["you", "want", "xylophone", "."]
        pair = self._pair("p", good, bad, 2)
        _, lp_good, lp_bad = score_pairs(lm, [pair])[0]
        assert lp_good > lp_bad

    def test_batch_of_n_gives_n_rows_in_order(self, chat_fixture):
        from verbscope.corpus import build_frequency_table
        from verbscope.ingest import split_corpus
        from verbscope.pairgen import gen_semantic_pairs

        train, _dev, test = split_corpus(chat_fixture)
        lm = train_ngram(Corpus(train.sentences[:500], domain="chat").form_view(), 3)
        pairs = gen_semantic_pairs(test, build_frequency_table(train), seed=2)[:200]
        rows = score_pairs(lm, pairs)
        assert len(rows) == len(pairs)
        assert [r[0] for r in rows] == [p.pair_id for p in pairs]
        assert score_pairs(lm, pairs) == rows  # pure function of (scorer, pairs)

    def test_score_tsv_round_trips_bit_for_bit(self, tmp_path):
        lm = train_ngram(corpus_of("you want it .", "they see milk .").form_view(), order=3)
        pairs = [
            self._pair("p1", ["you", "want", "it", "."], ["you", "see", "it", "."], 1),
            self._pair("p2", ["they", "see", "milk"], ["they", "see", "xylophone"], 2),
        ]
        scores = score_sentences(lm, pair_items(pairs))
        write_scores(scores, tmp_path / "scores.tsv")
        assert read_pair_scores(tmp_path / "scores.tsv") == scored_pairs(pairs, scores)
        assert scored_pairs(pairs, scores) == score_pairs(lm, pairs)

    def test_bad_logprob_names_file_and_line(self, tmp_path):
        path = tmp_path / "scores.tsv"
        path.write_text("p::good\t-1.5\t2\np::bad\tabc\t2\n")
        with pytest.raises(ValueError, match=r"scores\.tsv: line 2: logprob 'abc' is not a number"):
            read_pair_scores(path)

    def test_duplicate_pair_ids_rejected(self):
        lm = train_ngram(corpus_of("a b").form_view(), order=1)
        pair = self._pair("p", ["a"], ["b"], 0)
        with pytest.raises(ValueError, match="unique"):
            score_pairs(lm, [pair, pair])


def _storable_pair_id(pair_id: str) -> bool:
    try:
        MinimalPair(pair_id, "semantic-verb", ("a", "b"), ("a", "c"), 1)
    except ValueError:
        return False
    return True


_PAIR_IDS = st.just("::") | st.text(
    st.characters(exclude_categories=("Cs",)), max_size=8
).filter(_storable_pair_id)
_LOGPROBS = st.floats(max_value=0.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_PAIR_IDS, _LOGPROBS, _LOGPROBS), max_size=6,
                unique_by=lambda row: row[0]))
def test_score_tsv_round_trip_property(rows):
    """read_pair_scores(write_scores(s)) gives back every pair's two scores,
    in order, for any id a MinimalPair accepts ("::" included)."""
    scores = [
        SentenceScore(f"{pair_id}::{member}", logprob, 2)
        for pair_id, good, bad in rows
        for member, logprob in (("good", good), ("bad", bad))
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scores.tsv"
        write_scores(scores, path)
        assert read_pair_scores(path) == rows


_LM_FORMS = st.sampled_from([UNK, EOS, BOS, "a", "b"]) | st.text(
    st.characters(exclude_categories=("Cs",), exclude_characters="\t\n\r"),
    min_size=1, max_size=4,
)
_LM_SENTENCES = st.lists(_LM_FORMS, max_size=5)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(_LM_SENTENCES, min_size=1, max_size=6),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=3),
    st.floats(min_value=0.01, max_value=1.0),
    st.lists(_LM_SENTENCES, max_size=4),
)
def test_lm_round_trip_property(corpus, order, min_count_unk, discount, probes):
    """save_lm -> load_lm -> save_lm gives the same bytes, and the loaded
    model scores every probe, unseen forms included, as the trained one."""
    lm = train_ngram(corpus, order, min_count_unk, discount)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a.lm", Path(tmp) / "b.lm"
        save_lm(lm, first)
        loaded = load_lm(first)
        save_lm(loaded, second)
        assert second.read_bytes() == first.read_bytes()
    for probe in corpus + probes:
        assert loaded.logprob(probe).logprob == lm.logprob(probe).logprob, probe


class TestSentenceScoreType:
    def test_positive_logprob_rejected(self):
        with pytest.raises(ValueError, match="logprob"):
            SentenceScore("s", 0.5, 3)

    def test_zero_tokens_rejected(self):
        with pytest.raises(ValueError, match="num_tokens"):
            SentenceScore("s", -1.0, 0)


def _direct_logprob(lm, tokens) -> float:
    """Sequential sum of ln ngram_prob over the events, bypassing the memo."""
    lp = 0.0
    ctx = (lm.bos_id,) * (lm.order - 1)
    for w in [lm.symbol_id(f) for f in tokens] + [lm.eos_id]:
        lp += math.log(ngram_prob(
            w, ctx, lm.discount, lm._counts, lm._totals, lm._types, lm._inv_vocab
        ))
        if lm.order > 1:
            ctx = ctx[1:] + (w,)
    return lp


def _forms_corpus(*sentences):
    """Corpus from raw form lists, so forms may be "<unk>" or "</s>"."""
    return Corpus(tuple(
        AnnotatedSentence(
            tuple(Token(form=f, lemma=f, upos="X", xpos="X", head=None, deprel=None)
                  for f in forms),
            f"s{i}",
        )
        for i, forms in enumerate(sentences)
    ))


class TestMemoizedScoring:
    TRAIN = [
        ["you", "want", "it", "."],
        ["you", "want", "milk", "."],
        ["they", "see", UNK, "."],
        ["the", "cat", EOS, "sat"],
        ["you", "see", "it", "."],
    ]
    PROBES = [
        ["you", "want", "it", "."],
        ["you", "want", "xylophone", "."],  # OOV
        [UNK, "see", "milk"],
        ["the", "cat", EOS, "sat", "."],
        [EOS],
        [],
        ["they", "see", "it", "it", "it", "."],
    ]

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_cold_memo_equals_direct_sum(self, order):
        lm = train_ngram(_forms_corpus(*self.TRAIN).form_view(), order)
        assert UNK not in lm.forms and EOS not in lm.forms  # never vocabulary forms
        assert (lm.symbol_id(UNK), lm.symbol_id(EOS)) == (lm.unk_id, lm.eos_id)
        for probe in self.PROBES:
            lm = train_ngram(_forms_corpus(*self.TRAIN).form_view(), order)
            assert not lm._logp
            assert lm.logprob(probe).logprob == _direct_logprob(lm, probe), probe

    def test_literal_unk_and_eos_train_as_the_symbols_they_score_as(self):
        train = [["the", UNK, "ran"]] * 5 + [["the", "dog", "ran"], ["the", "cat", EOS]]
        lm = train_ngram(_forms_corpus(*train).form_view(), 2)
        assert lm.forms == ["cat", "dog", "ran", "the"]
        assert lm.counts[(lm.eos_id, lm.eos_id)] == 1
        unk = lm.logprob(["the", UNK, "ran"]).logprob
        assert unk == lm.logprob(["the", "zebra", "ran"]).logprob
        assert unk > lm.logprob(["the", "dog", "ran"]).logprob

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_warm_memo_equals_direct_sum(self, order):
        lm = train_ngram(_forms_corpus(*self.TRAIN).form_view(), order)
        for probe in self.PROBES:
            lm.logprob(probe)
        filled = len(lm._logp)
        for probe in reversed(self.PROBES):
            assert lm.logprob(probe).logprob == _direct_logprob(lm, probe), probe
        assert len(lm._logp) == filled  # every n-gram was already memoized

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_memo_matches_direct_on_fixture(self, order, chat_fixture):
        lm = train_ngram(Corpus(chat_fixture.sentences[:300], domain="chat").form_view(), order)
        probes = [s.forms() for s in chat_fixture.sentences[300:500]]
        for _ in range(2):  # cold, then warm
            for probe in probes:
                assert lm.logprob(probe).logprob == _direct_logprob(lm, probe)

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_raw_counts_match_sliding_window_in_first_seen_order(self, order, chat_fixture, tmp_path):
        corpus = Corpus(chat_fixture.sentences[:300], domain="chat")
        lm = train_ngram(corpus.form_view(), order)
        save_lm(lm, tmp_path / "m.lm")
        lines = (tmp_path / "m.lm").read_text().splitlines()
        for k in range(1, order + 1):
            want: dict = {}
            for sent in corpus:
                seq = [lm.bos_id] * (k - 1) + [lm.symbol_id(f) for f in sent.forms()]
                seq.append(lm.eos_id)
                for t in range(k - 1, len(seq)):
                    gram = tuple(seq[t - k + 1 : t + 1])
                    want[gram] = want.get(gram, 0) + 1
            start = lines.index(f"grams\t{k}\t{len(want)}") + 1
            assert lines[start : start + len(want)] == [
                " ".join(map(str, gram)) + f"\t{c}" for gram, c in sorted(want.items())
            ]
            if k == order:
                assert list(lm.counts.items()) == list(want.items())
                assert type(lm.counts) is dict

    def test_repeated_sentences_give_one_row_per_id_in_order(self):
        lm = train_ngram(_forms_corpus(*self.TRAIN).form_view(), 3)
        sentences = [
            ("a", ["you", "want", "it", "."]),
            ("b", ["they", "see", "milk"]),
            ("c", ["you", "want", "it", "."]),
            ("d", []),
            ("e", ["they", "see", "milk"]),
            ("f", ["you", "want", "it", "."]),
        ]
        calls = []
        logprob = lm.logprob
        lm.logprob = lambda tokens, sid="": calls.append(sid) or logprob(tokens, sid)
        rows = score_sentences(lm, sentences)
        assert calls == ["a", "b", "d"]  # each distinct token list scored once
        assert [r.sentence_id for r in rows] == ["a", "b", "c", "d", "e", "f"]
        for row, (sid, tokens) in zip(rows, sentences):
            alone = train_ngram(_forms_corpus(*self.TRAIN).form_view(), 3).logprob(tokens, sid)
            assert row == alone

    def test_external_scorer_receives_each_distinct_text_once(self):
        class FakeScorer:
            def __init__(self):
                self.received = []

            def score_texts(self, items):
                self.received.extend(items)
                return {sid: (-float(len(text)), len(text.split()) + 1) for sid, text in items}

        sentences = [("a", ["x", "y"]), ("b", ["x", "y"]), ("c", ["z"]), ("d", ["x", "y"]),
                     ("e", []), ("f", ["z"])]
        fake = FakeScorer()
        rows = score_sentences(fake, sentences)
        assert fake.received == [("a", "x y"), ("c", "z"), ("e", "")]  # under its first id
        assert [(r.sentence_id, r.logprob, r.num_tokens) for r in rows] == [
            ("a", -3.0, 3), ("b", -3.0, 3), ("c", -1.0, 2), ("d", -3.0, 3),
            ("e", 0.0, 1), ("f", -1.0, 2),
        ]


@settings(max_examples=20, deadline=None)
@given(
    st.lists(
        st.lists(st.sampled_from("abcde"), min_size=1, max_size=6),
        min_size=1,
        max_size=8,
    ),
    st.integers(min_value=1, max_value=3),
)
def test_model_agrees_with_reference_on_random_corpora(sentences, order):
    corpus = corpus_of(*[" ".join(s) for s in sentences])
    lm = train_ngram(corpus.form_view(), order)
    ref = ReferenceKN(sentences, order)
    probes = sentences[:3] + [["a", "z", "b"], []]
    for probe in probes:
        assert lm.logprob(probe).logprob == pytest.approx(ref.logprob(probe), abs=1e-9)
