import json

import pytest

from verbscope.corpus import FrequencyTable, bin_index, build_frequency_table
from verbscope.pairgen import (
    AGREEMENT_PARADIGMS,
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
        assert read_pairs(path) == pairs

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
        assert read_pairs(path) == []

    def test_two_position_diff_rejected_with_record_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"pair_id": "ok", "paradigm": "semantic-verb", "good": "a b", "bad": "a c", "diff_index": 1, "meta": {}}\n'
            '{"pair_id": "bad", "paradigm": "semantic-verb", "good": "a b", "bad": "x y", "diff_index": 0, "meta": {}}\n'
        )
        with pytest.raises(ValueError, match="record 2"):
            read_pairs(path)

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
            read_pairs(path)
        assert str(err.value) == f"{path}: record 2: {message}"

    def test_double_space_rejected_with_record_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"pair_id": "ok", "paradigm": "semantic-verb", "good": "a b", "bad": "a c", "diff_index": 1, "meta": {}}\n'
            '{"pair_id": "p2", "paradigm": "semantic-verb", "good": "The  dog barks .", "bad": "The  dog bites .", "diff_index": 3, "meta": {}}\n'
        )
        with pytest.raises(ValueError, match="record 2: pair p2: a member holds an empty token"):
            read_pairs(path)
