import json
from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

from verbscope.atomic import write_json
from verbscope.corpus import Corpus, bin_index, build_frequency_table, tag_pair
from verbscope.perturb import (
    ORIGINAL,
    REPLACE_WORD,
    SHUFFLE_ORDER,
    PerturbReport,
    apply_order,
    apply_replacements,
    perturb_corpus,
    perturb_forms,
    perturb_plan,
    replace_plan,
)
from verbscope.rng import Stream, mix64

from conftest import corpus_of, recount_differences, sent


def replace_word(plan, stream):
    """The scalar reference draws of one sentence's REPLACE.WORD plan: one
    frequency-weighted pick per target, its own form excluded."""
    return [
        (i, members[stream.pick_cumulative(cumulative, exclude=index)][0])
        for i, (members, cumulative, index) in plan
    ]


def shuffle_order(span, stream):
    """The scalar reference permutation of a span: Fisher-Yates over the stream."""
    order = list(range(span))
    stream.shuffle(order)
    return order


def replaced(sentence, table, stream, include_propn=False):
    """The sentence rebuilt from replace_word's draws, and how many it replaced."""
    replacements = replace_word(replace_plan(sentence, table, include_propn), stream)
    return apply_replacements(sentence, replacements), len(replacements)


def shuffled(sentence, stream, pin_final_punct=False):
    """The sentence rebuilt from shuffle_order's permutation of its span."""
    (span,) = perturb_plan(
        Corpus((sentence,)), SHUFFLE_ORDER, pin_final_punct=pin_final_punct
    ).spans.tolist()
    return apply_order(sentence, shuffle_order(span, stream))


class TestPerturbReport:
    def test_rate_must_match_counts(self):
        with pytest.raises(ValueError, match="replacement_rate"):
            PerturbReport(REPLACE_WORD, 100, 10, 0.5, seed=1)

    def test_shuffle_never_replaces(self):
        with pytest.raises(ValueError, match="never replaces"):
            PerturbReport(SHUFFLE_ORDER, 100, 1, 0.01, seed=1)

    def test_json_round_trip(self, tmp_path):
        report = PerturbReport(REPLACE_WORD, 100, 10, 0.1, seed=7)
        write_json(tmp_path / "report.json", asdict(report))
        assert PerturbReport(**json.loads((tmp_path / "report.json").read_text())) == report


STOOL_SENTENCE = (
    "You/PRON/PRP can/AUX/MD sit/VERB/VB:root out/ADV/RB here/ADV/RB "
    "by/ADP/IN me/PRON/PRP on/ADP/IN the/DET/DT other/ADJ/JJ stool/NOUN/NN ./PUNCT/."
)


@pytest.fixture
def stool_corpus():
    # extra NN forms land in stool's frequency bin; extra verbs in sit's
    return corpus_of(
        STOOL_SENTENCE,
        "the/DET/DT chair/NOUN/NN is/AUX/VBZ by/ADP/IN the/DET/DT bench/NOUN/NN",
        "a/DET/DT couch/NOUN/NN and/CCONJ/CC a/DET/DT ladder/NOUN/NN",
        "you/PRON/PRP can/AUX/MD try/VERB/VB:root it/PRON/PRP",
        "other/ADJ/JJ other/ADJ/JJ out/ADV/RB here/ADV/RB",
    )


class TestReplaceWord:
    def test_untagged_sentence_rejected(self):
        table = build_frequency_table(corpus_of("a/DET/DT"))
        with pytest.raises(ValueError, match="requires tags"):
            replace_plan(sent("hello world"), table)

    def test_function_word_sentence_unchanged(self):
        corpus = corpus_of("you/PRON/PRP can/AUX/MD the/DET/DT ./PUNCT/.")
        table = build_frequency_table(corpus)
        out, n = replaced(corpus.sentences[0], table, Stream(1))
        assert n == 0
        assert out.forms() == corpus.sentences[0].forms()

    def test_singleton_bin_keeps_token(self):
        corpus = corpus_of("the/DET/DT cat/NOUN/NN")
        table = build_frequency_table(corpus)
        out, n = replaced(corpus.sentences[0], table, Stream(1))
        assert n == 0
        assert out.forms()[1] == "cat"

    def test_stool_sentence_keeps_root_and_swaps_noun(self, stool_corpus):
        table = build_frequency_table(stool_corpus)
        s = stool_corpus.sentences[0]
        for seed in range(20):
            out, n = replaced(s, table, Stream(mix64(seed, 0)))
            assert out.tokens[2].form == "sit"  # root verb untouched
            new = out.forms()[10]
            assert new != "stool"
            # brute-force check: same tag pair, same bin, attested in table
            key = ("NOUN", "NN", new)
            assert key in table.counts
            assert bin_index(table.counts[key]) == bin_index(
                table.counts[("NOUN", "NN", "stool")]
            )
            assert n >= 1

    def test_replaced_positions_keep_tags_heads_deprels(self, stool_corpus):
        table = build_frequency_table(stool_corpus)
        s = stool_corpus.sentences[0]
        out, _n = replaced(s, table, Stream(3))
        for before, after in zip(s.tokens, out.tokens):
            assert (before.upos, before.xpos) == (after.upos, after.xpos)
            assert before.head == after.head
            assert before.deprel == after.deprel
        assert len(out) == len(s)

    def test_frequency_weighted_sampling(self):
        # two candidates with 4:1 weights; empirical share should reflect it
        corpus = corpus_of(
            *(["long/ADJ/JJ"] * 4 + ["tall/ADJ/JJ"] * 4 + ["wide/ADJ/JJ"]),
            "odd/ADJ/JJ odd/ADJ/JJ odd/ADJ/JJ odd/ADJ/JJ",
        )
        table = build_frequency_table(corpus)
        target = sent("long/ADJ/JJ")
        picks = {"tall": 0, "odd": 0}
        for i in range(600):
            out, _ = replaced(target, table, Stream(mix64(9, i)))
            picks[out.forms()[0]] += 1
        assert picks["tall"] + picks["odd"] == 600
        share = picks["tall"] / 600  # expected 4/8 = 0.5
        assert 0.42 < share < 0.58


class TestShuffleOrder:
    def test_single_token_identity(self):
        s = sent("hi/INTJ/UH")
        assert shuffle_order(1, Stream(1)) == [0]
        assert perturb_corpus(Corpus((s,)), SHUFFLE_ORDER, seed=1)[0].sentences[0] is s

    @given(st.integers(min_value=0, max_value=2**63), st.integers(min_value=1, max_value=30))
    def test_multiset_preserved(self, seed, n):
        s = sent(" ".join(f"w{i % 7}/X/X" for i in range(n)))
        out = shuffled(s, Stream(seed))
        assert sorted(out.forms()) == sorted(s.forms())

    def test_fixed_seed_reproducible(self):
        s = sent("a/X/X b/X/X c/X/X")
        first = shuffled(s, Stream(mix64(5, 0))).forms()
        second = shuffled(s, Stream(mix64(5, 0))).forms()
        assert first == second

    def test_heads_follow_their_tokens(self):
        s = sent("the/DET/DT cat/NOUN/NN sat/VERB/VBD:root ./PUNCT/.")
        out = shuffled(s, Stream(17))
        root_new = next(i for i, t in enumerate(out.tokens) if t.deprel == "root")
        assert out.tokens[root_new].form == "sat"
        for t in out.tokens:
            if t.deprel == "dep":
                assert t.head == root_new

    def test_pin_final_punct(self):
        s = sent("a/X/X b/X/X c/X/X ./PUNCT/.")
        for seed in range(10):
            out = shuffled(s, Stream(seed), pin_final_punct=True)
            assert out.tokens[-1].form == "."


class TestPickCumulative:
    @pytest.mark.parametrize("weights", [[1] * 5, [3, 1, 4, 1, 5], [2, 7], [0, 2, 0, 3]])
    def test_exclude_draws_among_the_other_units_of_mass(self, weights):
        from itertools import accumulate

        cumulative = list(accumulate(weights))
        for exclude in range(len(weights)):
            units = [i for i, w in enumerate(weights) if i != exclude for _ in range(w)]
            for seed in range(50):
                expected = units[Stream(seed).randbelow(len(units))]
                assert Stream(seed).pick_cumulative(cumulative, exclude=exclude) == expected

    def test_uniform_weights_pick_among_the_other_indices(self):
        stream = Stream(9)
        picks = {stream.pick_cumulative(range(1, 5), exclude=2) for _ in range(200)}
        assert picks == {0, 1, 3}

    def test_nothing_left_after_exclusion(self):
        with pytest.raises(ValueError, match="positive total"):
            Stream(1).pick_cumulative([0, 3, 3], exclude=1)


class TestPerturbCorpus:
    def test_original_is_identity(self, stool_corpus):
        out, report = perturb_corpus(stool_corpus, ORIGINAL, seed=1)
        assert out is stool_corpus
        assert report.replacement_rate == 0.0

    def test_replace_without_targets_changes_nothing(self):
        corpus = corpus_of("you/PRON/PRP can/AUX/MD the/DET/DT ./PUNCT/.", "the/DET/DT cat/NOUN/NN")
        table = build_frequency_table(corpus)
        out, report = perturb_corpus(corpus, REPLACE_WORD, table, seed=1)
        assert out.sentences == corpus.sentences and report.tokens_replaced == 0
        plan = perturb_plan(corpus, REPLACE_WORD, table)
        forms, form_report = perturb_forms(corpus.form_view(), REPLACE_WORD, plan, seed=1)
        assert forms == corpus.form_view() and form_report == report

    def test_replace_requires_table(self, stool_corpus):
        with pytest.raises(ValueError, match="requires a frequency table"):
            perturb_corpus(stool_corpus, REPLACE_WORD, None, seed=1)

    def test_unknown_condition(self, stool_corpus):
        with pytest.raises(ValueError, match="unknown condition"):
            perturb_corpus(stool_corpus, "REVERSE", seed=1)

    @pytest.mark.parametrize("condition", [REPLACE_WORD, SHUFFLE_ORDER])
    @pytest.mark.parametrize("include_propn, pin_final_punct", [(False, False), (True, True)])
    def test_form_path_equals_sentence_path(
        self, chat_fixture, condition, include_propn, pin_final_punct
    ):
        """perturb_forms gives the forms and report perturb_corpus gives."""
        subset = Corpus(chat_fixture.sentences[:1500], domain="chat")
        table = build_frequency_table(subset)
        plan = perturb_plan(subset, condition, table, include_propn, pin_final_punct)
        for seed in (0, 1, 7, 2**63 + 5):
            out, report = perturb_corpus(
                subset, condition, table, seed, include_propn, pin_final_punct
            )
            forms, form_report = perturb_forms(subset.form_view(), condition, plan, seed)
            assert forms == out.form_view()
            assert form_report == report
            if condition == REPLACE_WORD:
                assert report.tokens_replaced == recount_differences(subset, out)

    def test_rate_equals_independent_recount(self, chat_fixture):
        subset = Corpus(chat_fixture.sentences[:800], domain="chat")
        table = build_frequency_table(subset)
        out, report = perturb_corpus(subset, REPLACE_WORD, table, seed=11)
        assert report.tokens_replaced == recount_differences(subset, out)
        assert report.tokens_total == subset.n_tokens

    @staticmethod
    def _grid_files(fixture_dir, out, condition, threads):
        """Every file a one-condition grid run writes, but the path-bearing manifest."""
        from verbscope.experiment import ExperimentConfig, run_experiment

        config = ExperimentConfig(
            corpora=[f"{d}:{fixture_dir / d}.conllu:conllu" for d in ("chat", "written")],
            out_dir=str(out), conditions=[condition], seeds=[1, 2],
            threads=threads, keep_models=True,
        )
        assert run_experiment(config).status == 0
        files = {
            str(p.relative_to(out)): p.read_bytes()
            for p in out.rglob("*") if p.is_file() and p.name != "manifest.json"
        }
        cell = f"written/{condition.lower().replace('.', '-')}/seed2"
        for name in ("results.csv", f"{cell}/perturb.json", f"{cell}/lm.txt",
                     f"{cell}/scores-written.tsv"):
            assert name in files, name
        return files

    def test_threads_do_not_change_output(self, tmp_path, fixture_dir):
        """REPLACE.WORD cells come out byte-identical from 1 and 8 grid workers."""
        one = self._grid_files(fixture_dir, tmp_path / "t1", REPLACE_WORD, 1)
        eight = self._grid_files(fixture_dir, tmp_path / "t8", REPLACE_WORD, 8)
        assert one == eight

    def test_shuffle_threads_deterministic(self, tmp_path, fixture_dir):
        """SHUFFLE.ORDER cells come out byte-identical from 1 and 8 grid workers."""
        one = self._grid_files(fixture_dir, tmp_path / "t1", SHUFFLE_ORDER, 1)
        eight = self._grid_files(fixture_dir, tmp_path / "t8", SHUFFLE_ORDER, 8)
        assert one == eight

    def test_longer_sentences_higher_replacement_rate(self):
        # same vocabulary, different sentence shapes
        short = corpus_of(
            "you/PRON/PRP see/VERB/VBP:root the/DET/DT cat/NOUN/NN",
            "you/PRON/PRP see/VERB/VBP:root the/DET/DT dog/NOUN/NN",
            "it/PRON/PRP is/AUX/VBZ it/PRON/PRP",
        )
        long = corpus_of(
            "the/DET/DT cat/NOUN/NN and/CCONJ/CC the/DET/DT dog/NOUN/NN "
            "see/VERB/VBP:root the/DET/DT cat/NOUN/NN and/CCONJ/CC the/DET/DT dog/NOUN/NN",
            "the/DET/DT dog/NOUN/NN and/CCONJ/CC the/DET/DT cat/NOUN/NN "
            "see/VERB/VBP:root the/DET/DT dog/NOUN/NN and/CCONJ/CC the/DET/DT cat/NOUN/NN",
            "it/PRON/PRP is/AUX/VBZ it/PRON/PRP",
        )
        t_short = build_frequency_table(short)
        t_long = build_frequency_table(long)
        _, r_short = perturb_corpus(short, REPLACE_WORD, t_short, seed=1)
        _, r_long = perturb_corpus(long, REPLACE_WORD, t_long, seed=1)
        assert r_long.replacement_rate > r_short.replacement_rate


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**63))
def test_replace_invariants_on_fixture_sample(seed):
    from verbscope.fixtures import build_fixture_corpus

    corpus = Corpus(build_fixture_corpus("chat", 4_000).sentences, domain="chat")
    table = build_frequency_table(corpus)
    out, report = perturb_corpus(corpus, REPLACE_WORD, table, seed=seed)
    for before, after in zip(corpus.sentences, out.sentences):
        assert len(before) == len(after)
        from verbscope.tagger import heuristic_root

        root = heuristic_root(before)
        for i, (b, a) in enumerate(zip(before.tokens, after.tokens)):
            assert (b.upos, b.xpos) == (a.upos, a.xpos)
            if i == root:
                assert b.form == a.form
            if b.form != a.form:
                up, xp = tag_pair(b)
                assert bin_index(table.counts[(up, xp, a.form)]) == bin_index(
                    table.counts[(up, xp, b.form)]
                )


def test_replacements_and_semantic_substitutes_follow_one_rule(chat_fixture):
    """REPLACE.WORD and the semantic pairs both draw a word's substitute from
    the table's ``alternatives`` of it, and leave a word alone in its
    stratum as it is."""
    from verbscope.ingest import split_corpus
    from verbscope.pairgen import gen_semantic_pairs
    from verbscope.tagger import heuristic_root

    train, _dev, test = split_corpus(Corpus(chat_fixture.sentences[:600]))
    table = build_frequency_table(train)

    def alternatives(tok):
        return table.alternatives(*tag_pair(tok), tok.form)

    out, report = perturb_corpus(train, REPLACE_WORD, table, seed=1)
    replaced = alone = 0
    for before, after in zip(train, out):
        for b, a in zip(before.tokens, after.tokens):
            if alternatives(b) is None:
                alone += b.upos in ("NOUN", "ADJ", "ADV", "VERB")
                assert a.form == b.form
            elif a.form != b.form:
                replaced += 1
                assert a.form in {form for form, _c in alternatives(b)[0]}
    assert replaced == report.tokens_replaced > 0 and alone > 0

    pairs = gen_semantic_pairs(test, table, seed=1)
    sources = {s.sentence_id: s for s in test}
    for pair in pairs:
        verb = sources[pair.source_sentence_id].tokens[pair.diff_index]
        substitute = pair.bad[pair.diff_index]
        assert substitute != verb.form
        assert substitute in {form for form, _c in alternatives(verb)[0]}
    paired = {pair.source_sentence_id for pair in pairs}
    lone_verbs = [
        s.sentence_id for s in test
        if heuristic_root(s) is not None and alternatives(s.tokens[heuristic_root(s)]) is None
    ]
    assert lone_verbs and paired.isdisjoint(lone_verbs)
