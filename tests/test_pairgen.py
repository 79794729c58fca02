import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from verbscope.corpus import FrequencyTable, bin_index, build_frequency_table
from verbscope.pairgen import (
    AGREEMENT_PARADIGMS,
    PARADIGMS,
    AgreementLexicon,
    MinimalPair,
    NounEntry,
    VerbEntry,
    build_lemma_index,
    distinct_verb_lemmas,
    extract_agreement_lexicon,
    gen_agreement_pairs,
    gen_semantic_pairs,
    read_pairs,
    write_pairs,
)

from conftest import corpus_of


class TestMinimalPairType:
    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError, match="length"):
            MinimalPair("p1", "semantic-verb", ("a", "b"), ("a",), 0)

    def test_must_differ_exactly_at_diff_index(self):
        with pytest.raises(ValueError, match="differ exactly"):
            MinimalPair("p1", "semantic-verb", ("a", "b"), ("a", "b"), 1)
        with pytest.raises(ValueError, match="differ exactly"):
            MinimalPair("p1", "semantic-verb", ("a", "b"), ("x", "y"), 0)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(min_value=0, max_value=5).flatmap(lambda n: st.tuples(
            st.tuples(*[st.sampled_from("abc")] * n), st.tuples(*[st.sampled_from("abc")] * n),
        )),
        st.integers(min_value=-3, max_value=7) | st.booleans() | st.sampled_from([0.0, 1.0]),
    )
    def test_diff_index_check_matches_the_full_scan(self, members, diff_index):
        """The tuple-slice check accepts and rejects exactly what a scan of
        every position does, bools, floats and out-of-range indices included."""
        good, bad = members
        diffs = [i for i, (g, b) in enumerate(zip(good, bad)) if g != b]
        expected = None if diffs == [diff_index] else (
            f"pair p1: members must differ exactly at index {diff_index}, "
            f"found differences at {diffs}"
        )
        try:
            MinimalPair("p1", "semantic-verb", good, bad, diff_index)
            got = None
        except ValueError as exc:
            got = str(exc)
        assert got == expected

    def test_unknown_paradigm_rejected(self):
        with pytest.raises(ValueError, match="paradigm"):
            MinimalPair("p1", "nope", ("a",), ("b",), 0)

    @pytest.mark.parametrize("good, bad", [(("a", "", "b"), ("a", "", "c")), (("",), ("b",))])
    def test_empty_token_rejected(self, good, bad):
        # such a pair would be written as "a  b" and scored with an extra <unk>
        with pytest.raises(ValueError, match="pair p2: a member holds an empty token"):
            MinimalPair("p2", "agr-simple", good, bad, len(good) - 1)


def _eligible(verb_form: str, sid: str) -> str:
    # 11 tokens, parsed root on the verb
    return (
        f"You/PRON/PRP can/AUX/MD {verb_form}/VERB/VB:root out/ADV/RB here/ADV/RB "
        "by/ADP/IN me/PRON/PRP on/ADP/IN the/DET/DT other/ADJ/JJ stool/NOUN/NN ./PUNCT/."
    )


class TestSemanticPairs:
    @pytest.fixture
    def train_table(self):
        # sit and seven alternatives share (VERB, VB, bin 2): counts 4..7
        counts = {("VERB", "VB", "sit"): 5}
        for i, v in enumerate(["try", "hop", "run", "eat", "nap", "wave", "dig"]):
            counts[("VERB", "VB", v)] = 4 + (i % 4)
        counts[("NOUN", "NN", "stool")] = 3
        return FrequencyTable(counts)

    def test_short_sentence_yields_no_pairs(self, train_table):
        corpus = corpus_of("you/PRON/PRP can/AUX/MD sit/VERB/VB:root now/ADV/RB")
        counters = {}
        assert gen_semantic_pairs(corpus, train_table, counters=counters) == []
        assert counters["length"] == 1

    def test_bin_with_seven_alternatives_gives_exactly_five(self, train_table):
        corpus = corpus_of(sentence := _eligible("sit", "s1"))
        pairs = gen_semantic_pairs(corpus, train_table, seed=0)
        assert len(pairs) == 5
        subs = [p.meta["substitute"] for p in pairs]
        assert len(set(subs)) == 5  # without replacement

    def test_stool_example_pair_shape(self, train_table):
        corpus = corpus_of(_eligible("sit", "s1"))
        pairs = gen_semantic_pairs(corpus, train_table, seed=0)
        good = pairs[0].good
        assert " ".join(good).startswith("You can sit out here by me")
        for p in pairs:
            assert p.diff_index == 2
            assert p.good[2] == "sit" and p.bad[2] != "sit"
            assert p.good[:2] == p.bad[:2] and p.good[3:] == p.bad[3:]

    def test_substitutes_match_tag_and_bin_brute_force(self, chat_fixture):
        from verbscope.ingest import split_corpus

        train, _dev, test = split_corpus(chat_fixture)
        table = build_frequency_table(train)
        pairs = gen_semantic_pairs(test, table, seed=4)
        assert pairs
        for p in pairs:
            orig, sub = p.meta["original"], p.meta["substitute"]
            xpos = p.meta["xpos"]
            assert sub != orig
            assert bin_index(table.counts[("VERB", xpos, sub)]) == bin_index(
                table.counts[("VERB", xpos, orig)]
            )
            assert 10 <= len(p.good) <= 30
            assert len(p.good) == len(p.bad)

    def test_max_alts_respected_per_source(self, chat_fixture):
        from verbscope.ingest import split_corpus

        train, _dev, test = split_corpus(chat_fixture)
        table = build_frequency_table(train)
        pairs = gen_semantic_pairs(test, table, max_alts=3, seed=4)
        per_source: dict = {}
        for p in pairs:
            per_source[p.source_sentence_id] = per_source.get(p.source_sentence_id, 0) + 1
        assert per_source and max(per_source.values()) <= 3

    def test_reproducible_for_fixed_seed(self, train_table):
        corpus = corpus_of(_eligible("sit", "s1"))
        a = gen_semantic_pairs(corpus, train_table, seed=12)
        b = gen_semantic_pairs(corpus, train_table, seed=12)
        assert a == b

    def test_lemma_coverage_counted(self, train_table):
        corpus = corpus_of(_eligible("sit", "s1"))
        pairs = gen_semantic_pairs(corpus, train_table, seed=0)
        assert distinct_verb_lemmas(pairs) == 1


class TestAgreementLexicon:
    @pytest.fixture
    def train(self):
        sentences = []
        # painter/painters and waiter/waiters attested; "lonely" only NN
        sentences += ["the/DET/DT painter/NOUN/NN paints/VERB/VBZ~paint:root"] * 6
        sentences += ["the/DET/DT painters/NOUN/NNS~painter paint/VERB/VBP~paint:root"] * 3
        sentences += ["the/DET/DT waiter/NOUN/NN serves/VERB/VBZ~serve:root"] * 4
        sentences += ["the/DET/DT waiters/NOUN/NNS~waiter serve/VERB/VBP~serve:root"] * 2
        sentences += ["the/DET/DT lonely/NOUN/NN sits/VERB/VBZ~sit:root"] * 5
        sentences += ["in/ADP/IN of/ADP/IN on/ADP/IN"] * 2
        return corpus_of(*sentences)

    def test_dual_form_lemmas_extracted(self, train):
        table = build_frequency_table(train)
        lex = extract_agreement_lexicon(
            table, build_lemma_index(train), pct_lo=0, pct_hi=100, min_entries=2
        )
        lemmas = {e.lemma for e in lex.nouns}
        assert lemmas == {"painter", "waiter"}
        painter = next(e for e in lex.nouns if e.lemma == "painter")
        assert (painter.singular, painter.plural) == ("painter", "painters")
        assert painter.frequency == 9

    def test_single_form_lemma_excluded(self, train):
        table = build_frequency_table(train)
        lex = extract_agreement_lexicon(
            table, build_lemma_index(train), pct_lo=0, pct_hi=100, min_entries=2
        )
        assert "lonely" not in {e.lemma for e in lex.nouns}

    def test_invariant_plural_excluded(self):
        # sheep/sheep cannot mark the number contrast the pairs rely on
        corpus = corpus_of(
            *(["the/DET/DT sheep/NOUN/NN grazes/VERB/VBZ~graze:root"] * 3
              + ["the/DET/DT sheep/NOUN/NNS~sheep graze/VERB/VBP~graze:root"] * 3
              + ["the/DET/DT painter/NOUN/NN paints/VERB/VBZ~paint:root"] * 3
              + ["the/DET/DT painters/NOUN/NNS~painter paint/VERB/VBP~paint:root"] * 3)
        )
        table = build_frequency_table(corpus)
        lex = extract_agreement_lexicon(
            table, build_lemma_index(corpus), pct_lo=0, pct_hi=100, min_entries=1
        )
        assert {e.lemma for e in lex.nouns} == {"painter"}

    def test_sparse_lexicon_rejected(self, train):
        table = build_frequency_table(train)
        with pytest.raises(ValueError, match="lexicon too sparse"):
            extract_agreement_lexicon(table, build_lemma_index(train))

    def test_band_zero_hundred_keeps_all_dual_lemmas(self, written_fixture):
        from verbscope.ingest import split_corpus

        train, _dev, _test = split_corpus(written_fixture)
        table = build_frequency_table(train)
        index = build_lemma_index(train)
        wide = extract_agreement_lexicon(table, index, pct_lo=0, pct_hi=100)
        banded = extract_agreement_lexicon(table, index, pct_lo=50, pct_hi=95)
        assert {e.lemma for e in banded.nouns} <= {e.lemma for e in wide.nouns}
        # brute-force: every dual-attested noun lemma appears in the wide band
        dual = set()
        for lemma, by_tag in index.items():
            nn, nns = by_tag.get(("NOUN", "NN")), by_tag.get(("NOUN", "NNS"))
            if nn and nns:
                best_nn = min(nn, key=lambda f: (-nn[f], f))
                best_nns = min(nns, key=lambda f: (-nns[f], f))
                if table.count("NOUN", "NN", best_nn) and table.count("NOUN", "NNS", best_nns):
                    dual.add(lemma)
        assert {e.lemma for e in wide.nouns} == dual


PAINTER_LEXICON = AgreementLexicon(
    nouns=(
        NounEntry("painter", "painter", "painters", 30),
        NounEntry("waiter", "waiter", "waiters", 20),
        NounEntry("critic", "critic", "critics", 10),
    ),
    verbs=(
        VerbEntry("enjoy", "enjoys", "enjoy", 25),
        VerbEntry("smile", "smiles", "smile", 15),
    ),
    preps=("in front of", "near"),
)


class TestAgreementPairs:
    def test_pp_paradigm_reproduces_painter_example_shape(self):
        found = False
        for seed in range(60):
            pairs = gen_agreement_pairs(PAINTER_LEXICON, ["agr-pp"], 4, seed=seed)
            for p in pairs:
                if (
                    " ".join(p.good) == "The painter in front of the waiter enjoys ."
                    and " ".join(p.bad) == "The painters in front of the waiter enjoys ."
                ):
                    found = True
        assert found

    def test_simple_paradigm_differs_at_subject(self):
        pairs = gen_agreement_pairs(PAINTER_LEXICON, ["agr-simple"], 25, seed=3)
        for p in pairs:
            assert p.diff_index == 1
            assert p.good[0] == "The" and p.good[-1] == "."
            assert p.bad[1] == p.good[1] + "s"

    def test_exact_count_and_reproducibility(self):
        a = gen_agreement_pairs(PAINTER_LEXICON, AGREEMENT_PARADIGMS, 100, seed=5)
        b = gen_agreement_pairs(PAINTER_LEXICON, AGREEMENT_PARADIGMS, 100, seed=5)
        assert a == b
        assert len(a) == 100 * len(AGREEMENT_PARADIGMS)
        per = {}
        for p in a:
            per[p.paradigm] = per.get(p.paradigm, 0) + 1
        assert all(per[par] == 100 for par in AGREEMENT_PARADIGMS)

    def test_slots_never_repeat_within_pair(self):
        for p in gen_agreement_pairs(PAINTER_LEXICON, AGREEMENT_PARADIGMS, 50, seed=9):
            nouns = [t for t in p.good if t in ("painter", "waiter", "critic")]
            assert len(nouns) == len(set(nouns))
            verbs = [t for t in p.good if t in ("enjoys", "smiles")]
            assert len(verbs) == len(set(verbs))

    def test_unknown_paradigm_rejected(self):
        with pytest.raises(ValueError, match="unknown paradigm"):
            gen_agreement_pairs(PAINTER_LEXICON, ["agr-nope"], 1, seed=0)

    def test_good_member_agrees_bad_does_not(self):
        pairs = gen_agreement_pairs(PAINTER_LEXICON, AGREEMENT_PARADIGMS, 30, seed=2)
        third_sg = {"enjoys", "smiles"}
        for p in pairs:
            main_verb = p.good[-2]  # every template ends "... V ."
            assert main_verb in third_sg
            assert p.good[1] in ("painter", "waiter", "critic")  # singular subject
            assert p.bad[1].endswith("s")
            assert p.bad[-2] == main_verb  # the verb stays 3sg


class TestPairsIO:
    def test_round_trip_is_identical(self, tmp_path, chat_fixture):
        from verbscope.ingest import split_corpus

        train, _dev, test = split_corpus(chat_fixture)
        table = build_frequency_table(train)
        pairs = gen_semantic_pairs(test, table, seed=1)[:1000]
        pairs += gen_agreement_pairs(PAINTER_LEXICON, AGREEMENT_PARADIGMS, 20, seed=1)
        path = tmp_path / "pairs.jsonl"
        write_pairs(pairs, path)
        assert list(read_pairs(path)) == pairs

    @pytest.mark.parametrize("member", ["good", "bad"])
    @pytest.mark.parametrize("form", ["New York", "a\tb", "New\u00a0York"])
    def test_whitespace_in_token_rejected(self, tmp_path, member, form):
        plain = ("he", "sees", "it", ".")
        lossy = ("he", form, "it", ".")
        good, bad = (lossy, plain) if member == "good" else (plain, lossy)
        ok = MinimalPair("p0", "semantic-verb", plain, ("he", "eats", "it", "."), 1)
        path = tmp_path / "pairs.jsonl"
        with pytest.raises(ValueError) as err:
            write_pairs([ok, MinimalPair("p1", "semantic-verb", good, bad, 1)], path)
        assert "'p1'" in str(err.value) and repr(form) in str(err.value)
        assert not path.exists()

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert list(read_pairs(path)) == []

    def test_two_position_diff_rejected_with_record_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"pair_id": "ok", "paradigm": "semantic-verb", "good": "a b", "bad": "a c", "diff_index": 1, "meta": {}}\n'
            '{"pair_id": "bad", "paradigm": "semantic-verb", "good": "a b", "bad": "x y", "diff_index": 0, "meta": {}}\n'
        )
        with pytest.raises(ValueError, match="record 2"):
            list(read_pairs(path))

    @pytest.mark.parametrize(
        "pair_id, message",
        [("", "pair_id must be non-empty"),
         ("a\tb", "pair_id 'a\\tb' contains a tab, newline or carriage return")],
    )
    def test_unstorable_pair_id_rejected_with_record_number(self, tmp_path, pair_id, message):
        path = tmp_path / "bad.jsonl"
        ok = {"pair_id": "ok", "paradigm": "semantic-verb", "good": "a b", "bad": "a c",
              "diff_index": 1, "meta": {}}
        path.write_text(json.dumps(ok) + "\n" + json.dumps(dict(ok, pair_id=pair_id)) + "\n")
        with pytest.raises(ValueError) as err:
            list(read_pairs(path))
        assert str(err.value) == f"{path}: record 2: {message}"

    @pytest.mark.parametrize("cut, message", [
        (40, "Unterminated string starting at: line 1 column 31 (char 30)"),
        (60, "Expecting ',' delimiter: line 1 column 61 (char 60)"),
    ])
    def test_truncated_line_names_file_record_and_json_error(self, tmp_path, cut, message):
        ok = ('{"pair_id": "ok", "paradigm": "semantic-verb", "good": "a b", "bad": "a c", '
              '"diff_index": 1, "meta": {}}\n')
        path = tmp_path / "cut.jsonl"
        path.write_text(ok + ok[:cut])  # a write cut short, as a crash leaves it
        with pytest.raises(ValueError) as err:
            list(read_pairs(path))
        assert str(err.value) == f"{path}: record 2: {message}"

    def test_the_records_before_a_malformed_one_are_yielded(self, tmp_path):
        ok = ('{"pair_id": "ok", "paradigm": "semantic-verb", "good": "a b", "bad": "a c", '
              '"diff_index": 1, "meta": {}}\n')
        path = tmp_path / "pairs.jsonl"
        path.write_text(ok + ok.replace('"ok"', '"p2"') + ok[:40])
        stream = read_pairs(path)
        assert [next(stream).pair_id, next(stream).pair_id] == ["ok", "p2"]
        with pytest.raises(ValueError) as err:
            next(stream)
        assert str(err.value) == (
            f"{path}: record 3: Unterminated string starting at: line 1 column 31 (char 30)"
        )

    def test_double_space_rejected_with_record_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"pair_id": "ok", "paradigm": "semantic-verb", "good": "a b", "bad": "a c", "diff_index": 1, "meta": {}}\n'
            '{"pair_id": "p2", "paradigm": "semantic-verb", "good": "The  dog barks .", "bad": "The  dog bites .", "diff_index": 3, "meta": {}}\n'
        )
        with pytest.raises(ValueError, match="record 2: pair p2: a member holds an empty token"):
            list(read_pairs(path))


_CHARS = st.characters(exclude_categories=("Cs",))
# non-BMP letters, a combining mark alone and after a letter, JSON's escapes
_TOKENS = st.sampled_from(["\U0001d400", "\U00010428", "e\u0301", "\u0301", '"', "\\", '\\"']) | (
    st.text(_CHARS, min_size=1, max_size=4).filter(lambda t: not any(c.isspace() for c in t))
)
# U+2028 and U+0085 end a line for str.splitlines, not for a file's lines
_PAIR_IDS = st.sampled_from(["::", "#", "a::good", "#1", "p\u2028q", "\u0085", '"', "\\"]) | (
    st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\t\n\r"),
            min_size=1, max_size=8)
)


@st.composite
def _pair_lists(draw, min_size=0):
    pairs = []
    for pair_id in draw(st.lists(_PAIR_IDS, min_size=min_size, max_size=4, unique=True)):
        good = draw(st.lists(_TOKENS, min_size=1, max_size=4))
        at = draw(st.integers(0, len(good) - 1))
        bad = good[:at] + [draw(_TOKENS.filter(lambda t: t != good[at]))] + good[at + 1:]
        meta = draw(st.dictionaries(
            st.text(_CHARS, max_size=4).filter(lambda k: k != "source_sentence_id"),
            st.text(_CHARS, max_size=4) | st.integers(), max_size=2,
        ))
        pairs.append(MinimalPair(
            pair_id, draw(st.sampled_from(PARADIGMS)), tuple(good), tuple(bad), at,
            draw(st.none() | st.text(_CHARS, max_size=4)), meta,
        ))
    return pairs


@settings(max_examples=100, deadline=None)
@given(_pair_lists())
def test_pairs_round_trip_property(pairs):
    """read_pairs(write_pairs(pairs)) gives the pairs back, for ids and
    tokens holding non-BMP letters, combining marks, quotes, backslashes,
    and ids holding "::", "#", U+2028 or U+0085."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pairs.jsonl"
        write_pairs(pairs, path)
        assert list(read_pairs(path)) == pairs


@settings(max_examples=100, deadline=None)
@given(_pair_lists(min_size=1), st.data())
def test_a_token_holding_whitespace_is_refused_property(pairs, data):
    """A member token that holds whitespace is refused, naming its pair,
    and no pair file is written."""
    k = data.draw(st.integers(0, len(pairs) - 1))
    p = pairs[k]
    pos = data.draw(st.integers(0, len(p.good) - 1))
    space = data.draw(st.sampled_from([" ", "\t", "\u00a0", "\u2028", "\u0085", "\u3000", "\x1c"]))

    def lossy(tokens):
        return tokens[:pos] + (tokens[pos] + space + tokens[pos],) + tokens[pos + 1:]

    pairs[k] = MinimalPair(p.pair_id, p.paradigm, lossy(p.good), lossy(p.bad), p.diff_index)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pairs.jsonl"
        with pytest.raises(ValueError) as err:
            write_pairs(pairs, path)
        assert str(err.value).startswith(f"pair {p.pair_id!r}: token ")
        assert "contains whitespace" in str(err.value)
        assert not path.exists()
