import math
import re
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from verbscope.corpus import (
    AnnotatedSentence,
    Corpus,
    FrequencyTable,
    Token,
    bin_index,
    build_frequency_table,
    load_table,
    save_table,
    tag_pair,
    token_pool,
)

from conftest import corpus_of, sent


class TestTokenPool:
    def test_equal_fields_give_one_object(self):
        token = token_pool()
        cat = token("cat", "cat", "NOUN", "NN", 1, "nsubj")
        assert token("cat", "cat", "NOUN", "NN", 1, "nsubj") is cat
        assert token("cat", "cat", "NOUN", "NN", 2, "nsubj") is not cat
        assert token("x") is token("x", "", "UNK", "UNK", None, None)
        assert token("x") == Token("x")

    def test_pools_are_independent(self):
        fields = ("cat", "cat", "NOUN", "NN", 1, "nsubj")
        assert token_pool()(*fields) is not token_pool()(*fields)

    def test_strings_are_interned(self):
        tok = token_pool()("".join(["ca", "t"]), lemma="".join(["ca", "t"]))
        assert tok.form is sys.intern("cat") and tok.lemma is tok.form

    def test_rejected_token_is_not_pooled(self):
        token = token_pool()
        for _ in range(2):
            with pytest.raises(ValueError, match=re.escape("token form 'a\\tb'")):
                token("a\tb")


class TestTypes:
    def test_token_requires_form(self):
        with pytest.raises(ValueError):
            Token(form="")

    @pytest.mark.parametrize("field", ["form", "lemma"])
    @pytest.mark.parametrize("char", ["\t", "\n", "\r"])
    def test_token_rejects_delimiters(self, field, char):
        value = f"a{char}b"
        with pytest.raises(ValueError, match=re.escape(f"token {field} {value!r}")):
            Token(**{"form": "ok", field: value})

    def test_head_must_point_inside_sentence(self):
        with pytest.raises(ValueError, match="invalid head"):
            AnnotatedSentence((Token("a", head=5),), "s1")

    def test_head_must_not_be_self(self):
        with pytest.raises(ValueError, match="invalid head"):
            AnnotatedSentence((Token("a", head=0), Token("b")), "s1")

    def test_at_most_one_root(self):
        t = Token("a", deprel="root")
        u = Token("b", deprel="root", head=None)
        with pytest.raises(ValueError, match="root"):
            AnnotatedSentence((t, u), "s1")

    def test_sentence_needs_tokens(self):
        with pytest.raises(ValueError):
            AnnotatedSentence((), "s1")

    def test_sentence_needs_an_id(self):
        with pytest.raises(ValueError, match="sentence_id must be non-empty"):
            AnnotatedSentence((Token("a"),), "")

    def test_corpus_rejects_duplicate_ids(self):
        s = sent("a/DET/DT")
        with pytest.raises(ValueError, match="duplicate"):
            Corpus((s, s))

    def test_missing_xpos_falls_back_to_upos(self):
        assert tag_pair(Token("cat", upos="NOUN", xpos="")) == ("NOUN", "NOUN")


class TestBinIndex:
    def test_count_one_is_bin_zero(self):
        assert bin_index(1) == 0

    def test_count_eight_is_bin_three(self):
        assert bin_index(8) == 3

    def test_count_thousand_is_bin_nine(self):
        assert bin_index(1000) == 9

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            bin_index(0)

    @given(st.integers(min_value=1, max_value=10**12))
    def test_matches_float_log2(self, n):
        assert bin_index(n) == math.floor(math.log2(n))

    @given(st.integers(min_value=1, max_value=10**9), st.integers(min_value=0, max_value=10**6))
    def test_monotone_in_count(self, a, delta):
        assert bin_index(a + delta) >= bin_index(a)


class TestBuildFrequencyTable:
    def test_single_sentence_counts(self):
        table = build_frequency_table(corpus_of("the/DET/DT cat/NOUN/NN sat/VERB/VBD"))
        assert table.counts[("DET", "DT", "the")] == 1
        assert bin_index(table.count("DET", "DT", "the")) == 0

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty corpus"):
            build_frequency_table(Corpus(()))

    def test_total_tokens_equals_corpus_tokens(self, chat_fixture):
        table = build_frequency_table(chat_fixture)
        assert sum(table.counts.values()) == chat_fixture.n_tokens

    def test_tag_totals_match_tokens_carrying_pair(self):
        corpus = corpus_of(
            "the/DET/DT cat/NOUN/NN sat/VERB/VBD",
            "a/DET/DT dog/NOUN/NN ran/VERB/VBD",
            "the/DET/DT dog/NOUN/NN sat/VERB/VBD",
        )
        table = build_frequency_table(corpus)
        nn_total = sum(c for (u, x, _f), c in table.counts.items() if (u, x) == ("NOUN", "NN"))
        carrying = sum(
            1 for s in corpus for t in s.tokens if (t.upos, t.xpos) == ("NOUN", "NN")
        )
        assert nn_total == carrying == 3


class TestBinCandidates:
    """A form's same-bin candidates, as ``FrequencyTable.alternatives`` gives them."""

    @pytest.fixture
    def table(self):
        return FrequencyTable(
            {
                ("NOUN", "NN", "a"): 4,
                ("NOUN", "NN", "b"): 5,
                ("NOUN", "NN", "c"): 7,
                ("NOUN", "NN", "d"): 2,
                ("VERB", "VBD", "e"): 5,
            }
        )

    def test_exclusion_exhausts_bin(self, table):
        # "d" and "e" are alone in their strata: excluding them leaves nothing
        assert table.alternatives("NOUN", "NN", "d") is None
        assert table.alternatives("VERB", "VBD", "e") is None

    def test_same_bin_forms_sorted(self, table):
        # independent oracle: enumerate all forms, keep floor(log2(c)) == 2
        expected = sorted(
            (f, c)
            for (u, x, f), c in table.counts.items()
            if (u, x) == ("NOUN", "NN") and math.floor(math.log2(c)) == 2
        )
        assert expected == [("a", 4), ("b", 5), ("c", 7)]
        members, cumulative, index = table.alternatives("NOUN", "NN", "a")
        assert (list(members), list(cumulative), index) == (expected, [4, 9, 16], 0)
        assert table.alternatives("NOUN", "NN", "c") == (members, cumulative, 2)
        assert table.alternatives("NOUN", "NN", "c")[0] is members

    def test_unpopulated_tag_pair_is_empty(self, table):
        assert table.alternatives("ADJ", "JJ", "a") is None
        assert table.alternatives("NOUN", "NN", "x") is None
        assert table.alternatives("NOUN", "NNS", "a") is None

    @given(
        st.dictionaries(
            st.tuples(
                st.sampled_from(["NOUN", "VERB"]),
                st.sampled_from(["NN", "VBZ"]),
                st.text(st.characters(categories=("Ll",)), min_size=1, max_size=4),
            ),
            st.integers(min_value=1, max_value=300),
            min_size=1,
            max_size=25,
        ),
    )
    def test_candidates_verified_by_brute_force(self, counts):
        table = FrequencyTable(counts)
        for (upos, xpos, form), count in counts.items():
            brute = sorted(
                (f, c)
                for (u, x, f), c in counts.items()
                if u == upos and x == xpos and bin_index(c) == bin_index(count)
            )
            got = table.alternatives(upos, xpos, form)
            if len(brute) == 1:
                assert got is None
                continue
            members, cumulative, index = got
            assert list(members) == brute
            running = [sum(c for _f, c in brute[: k + 1]) for k in range(len(brute))]
            assert list(cumulative) == running
            assert members[index] == (form, count)
        assert table.alternatives("NOUN", "NN", "zzzzz") is None


def test_table_round_trip(tmp_path):
    table = FrequencyTable(
        {("NOUN", "NN", "cat"): 3, ("VERB", "VBZ", "sits"): 17}
    )
    path = tmp_path / "table.tsv"
    save_table(table, path)
    loaded = load_table(path)
    assert dict(loaded.counts) == dict(table.counts)


def _token_form(form: str) -> bool:
    try:
        Token(form)
    except ValueError:
        return False
    return True


_TABLE_KEYS = st.tuples(
    st.sampled_from(["NOUN", "VERB", "UNK", "Ñ|ü", "_", ""]),
    st.sampled_from(["NN", "VBZ", "UNK", " "]),
    st.text(st.characters(exclude_categories=("Cs",)), min_size=1, max_size=6).filter(_token_form),
)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(_TABLE_KEYS, st.integers(min_value=1, max_value=40), max_size=30))
def test_table_round_trip_property(counts):
    """load_table(save_table(t)) has t's counts and alternatives, for any
    form a Token accepts."""
    table = FrequencyTable(counts)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.tsv"
        save_table(table, path)
        loaded = load_table(path)
    assert loaded.counts == table.counts
    for key in counts:
        assert loaded.alternatives(*key) == table.alternatives(*key)


def test_table_bad_count_names_file_and_line(tmp_path):
    path = tmp_path / "table.tsv"
    path.write_text("verbscope-table/1\nNOUN\tNN\tcat\t3\nVERB\tVBZ\tsits\tmany\n")
    with pytest.raises(ValueError, match=r"table\.tsv: line 3: count 'many' is not an integer"):
        load_table(path)


def test_table_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("not a table\n")
    with pytest.raises(ValueError, match="not a frequency table"):
        load_table(path)
