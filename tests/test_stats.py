import math
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from verbscope.corpus import AnnotatedSentence, Corpus, Token
from verbscope.perturb import ORIGINAL, REPLACE_WORD, PerturbReport
from verbscope.stats import (
    CorpusStats,
    RateTable,
    compare_replacement_rates,
    compute_stats,
    format_stats,
    write_rates_csv,
    write_stats_csv,
)

from conftest import corpus_of


def brute_force_stats(corpus):
    """Independent hash-set recount of within-sentence n-gram TTRs."""
    seen = {1: set(), 2: set(), 3: set()}
    totals = {1: 0, 2: 0, 3: 0}
    tokens = 0
    for s in corpus:
        forms = [t.form.lower() for t in s.tokens]
        tokens += len(forms)
        for n in (1, 2, 3):
            for i in range(len(forms) - n + 1):
                seen[n].add(tuple(forms[i : i + n]))
                totals[n] += 1
    ttr = {
        n: (len(seen[n]) / totals[n] if totals[n] else None) for n in (1, 2, 3)
    }
    return ttr, tokens / len(corpus)


class TestComputeStats:
    def test_hand_counted_single_sentence(self):
        stats = compute_stats(corpus_of("a b a .").form_view())
        assert stats.ttr_1 == pytest.approx(3 / 4)
        assert stats.avg_sentence_length == 4
        assert stats.n_sentences == 1
        assert stats.n_tokens == 4

    def test_two_token_sentence_has_no_trigrams(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            stats = compute_stats(corpus_of("hi there").form_view())
        assert stats.ttr_3 is None
        assert any("ttr_3" in str(w.message) for w in caught)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty corpus"):
            compute_stats(Corpus(()).form_view())

    def test_lowercased_counting(self):
        stats = compute_stats(corpus_of("The the THE").form_view())
        assert stats.ttr_1 == pytest.approx(1 / 3)

    def test_exactly_matches_brute_force_on_fixture(self, chat_fixture):
        subset = Corpus(chat_fixture.sentences[:1000], domain="chat")
        stats = compute_stats(subset.form_view())
        ttr, avg_len = brute_force_stats(subset)
        assert stats.ttr_1 == ttr[1]
        assert stats.ttr_2 == ttr[2]
        assert stats.ttr_3 == ttr[3]
        assert stats.avg_sentence_length == avg_len

    def test_invariant_to_sentence_order(self, chat_fixture):
        subset = list(chat_fixture.sentences[:300])
        fwd = compute_stats(Corpus(tuple(subset)).form_view())
        rev = compute_stats(Corpus(tuple(reversed(subset))).form_view())
        assert fwd == rev

    def test_written_fixture_longer_and_more_diverse(self, chat_fixture, written_fixture):
        chat = compute_stats(chat_fixture.form_view())
        written = compute_stats(written_fixture.form_view())
        assert written.avg_sentence_length > chat.avg_sentence_length
        assert written.ttr_2 > chat.ttr_2


# case pairs, forms whose lowercase is another form ("İ" lowers to "i" plus a
# combining dot), titlecase and final-sigma letters, and a non-BMP letter
_FORMS = st.sampled_from(["a", "A", "b", "B", "i", "İ", "i\u0307", "ǅ", "ǆ", "Σ", "σ",
                          "ς", "𐐀", "𐐨", ".", "The", "the"])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(_FORMS, min_size=1, max_size=5), min_size=1, max_size=8))
def test_compute_stats_equals_the_set_of_tuples_count(sentences):
    """compute_stats over a corpus's form view gives the brute-force
    set-of-tuples TTRs exactly, and warns for each n that has no n-gram."""
    corpus = Corpus(tuple(
        AnnotatedSentence(tuple(map(Token, forms)), f"s{i}") for i, forms in enumerate(sentences)
    ))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        stats = compute_stats(corpus.form_view())
    ttr, avg_len = brute_force_stats(corpus)
    assert (stats.ttr_1, stats.ttr_2, stats.ttr_3) == (ttr[1], ttr[2], ttr[3])
    assert stats.avg_sentence_length == avg_len
    assert (stats.n_sentences, stats.n_tokens) == (len(sentences), sum(map(len, sentences)))
    assert [str(w.message) for w in caught] == [
        f"corpus has no {n}-grams; ttr_{n} undefined" for n in (1, 2, 3) if ttr[n] is None
    ]


class TestCorpusStatsType:
    def test_ttr_range_enforced(self):
        with pytest.raises(ValueError, match="ttr_1"):
            CorpusStats(1.5, 0.5, 0.5, 4.0, 1, 4)


class TestCompareReplacementRates:
    def test_single_zero_rate_row(self):
        report = PerturbReport(ORIGINAL, 100, 0, 0.0, seed=1)
        table = compare_replacement_rates({"cdl": report})
        assert table.rows == (("cdl", ORIGINAL, 0.0),)
        assert table.length_correlation is None

    def test_rates_echo_reports_exactly(self):
        reports = {
            "b": PerturbReport(REPLACE_WORD, 200, 50, 0.25, seed=1),
            "a": PerturbReport(REPLACE_WORD, 100, 10, 0.1, seed=1),
        }
        table = compare_replacement_rates(reports)
        assert table.rows == (
            ("a", REPLACE_WORD, 0.1),
            ("b", REPLACE_WORD, 0.25),
        )

    def test_longer_sentences_correlate_positively(self):
        reports = {
            "short": PerturbReport(REPLACE_WORD, 100, 20, 0.2, seed=1),
            "long": PerturbReport(REPLACE_WORD, 100, 45, 0.45, seed=1),
        }
        stats = {
            "short": CorpusStats(0.5, 0.8, 0.9, 4.0, 25, 100),
            "long": CorpusStats(0.5, 0.8, 0.9, 12.0, 8, 96),
        }
        table = compare_replacement_rates(reports, stats)
        assert table.length_correlation == pytest.approx(1.0)

    def test_no_reports_rejected(self):
        with pytest.raises(ValueError, match="no reports"):
            compare_replacement_rates({})


def test_format_and_csv(tmp_path, chat_fixture):
    subset = Corpus(chat_fixture.sentences[:50], domain="chat")
    named = {"chat": compute_stats(subset.form_view())}
    text = format_stats(named)
    assert "1-gram TTR" in text and "chat" in text
    path = tmp_path / "stats.csv"
    write_stats_csv(named, path)
    assert path.read_text().startswith("domain,ttr_1")


def test_stats_csv_bytes(tmp_path):
    named = {
        "b": CorpusStats(None, None, None, math.nan, 1, 2),
        "a": CorpusStats(5e-324, 1.0, 1 / 3, math.inf, 2, 7),
    }
    path = tmp_path / "stats.csv"
    write_stats_csv(named, path)
    assert path.read_bytes() == (
        b"domain,ttr_1,ttr_2,ttr_3,avg_sentence_length,n_sentences,n_tokens\r\n"
        b"a,5e-324,1.0,0.3333333333333333,inf,2,7\r\n"
        b"b,,,,nan,1,2\r\n"
    )


@pytest.mark.parametrize(
    "correlation, tail",
    [(None, b""), (math.nan, b"\r\nlength_correlation,nan\r\n"),
     (-1, b"\r\nlength_correlation,-1\r\n")],
)
def test_rates_csv_bytes(tmp_path, correlation, tail):
    table = RateTable((("a", REPLACE_WORD, -0.0), ("b", REPLACE_WORD, 5e-324)), correlation)
    path = tmp_path / "rates.csv"
    write_rates_csv(table, path)
    assert path.read_bytes() == (
        b"domain,condition,replacement_rate\r\n"
        b"a,REPLACE.WORD,-0.0\r\n"
        b"b,REPLACE.WORD,5e-324\r\n"
    ) + tail
