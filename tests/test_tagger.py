import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from verbscope.corpus import AnnotatedSentence, Corpus, Token
from verbscope.tagger import (
    MODEL_VERSION,
    heuristic_root,
    load_tagger,
    save_tagger,
    tag,
    train_tagger,
)

from conftest import corpus_of, sent


@pytest.fixture
def unique_tag_corpus():
    # every form maps to exactly one tag
    return corpus_of(
        "the/DET/DT cat/NOUN/NN sat/VERB/VBD ./PUNCT/.",
        "a/DET/DT dog/NOUN/NN ran/VERB/VBD ./PUNCT/.",
        "the/DET/DT dog/NOUN/NN sat/VERB/VBD ./PUNCT/.",
        "a/DET/DT cat/NOUN/NN ran/VERB/VBD ./PUNCT/.",
    )


class TestTraining:
    def test_memorizes_unique_form_tag_corpus(self, unique_tag_corpus):
        model = train_tagger(unique_tag_corpus, epochs=5, seed=1)
        assert model.accuracy_kind == "resubstitution"
        assert model.reported_accuracy == 1.0
        for s in unique_tag_corpus:
            tagged = tag(model, s)
            assert [(t.upos, t.xpos) for t in tagged.tokens] == [
                (t.upos, t.xpos) for t in s.tokens
            ]

    def test_equal_seeds_give_identical_models(self, tmp_path, unique_tag_corpus):
        a = train_tagger(unique_tag_corpus, epochs=3, seed=42)
        b = train_tagger(unique_tag_corpus, epochs=3, seed=42)
        pa, pb = tmp_path / "a.model", tmp_path / "b.model"
        save_tagger(a, pa)
        save_tagger(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_zero_epochs_falls_back_to_most_frequent_tag(self):
        corpus = corpus_of(
            "x/NOUN/NN x/NOUN/NN y/VERB/VBZ",
            "x/NOUN/NN z/ADJ/JJ x/NOUN/NN",
        )
        model = train_tagger(corpus, epochs=0, seed=0)
        assert not model.feature_weights
        tagged = tag(model, sent("anything/UNK/UNK at/UNK/UNK all/UNK/UNK"))
        assert all((t.upos, t.xpos) == ("NOUN", "NN") for t in tagged.tokens)

    def test_untagged_corpus_rejected(self):
        with pytest.raises(ValueError, match="requires gold tags"):
            train_tagger(corpus_of("hello world"), epochs=1, seed=0)

    def test_heldout_accuracy_reported(self, unique_tag_corpus):
        heldout = corpus_of("the/DET/DT cat/NOUN/NN ran/VERB/VBD ./PUNCT/.")
        model = train_tagger(unique_tag_corpus, epochs=5, seed=1, heldout=heldout)
        assert model.accuracy_kind == "heldout"
        assert model.reported_accuracy == 1.0


class TestTag:
    def test_preserves_forms_and_length(self, unique_tag_corpus):
        model = train_tagger(unique_tag_corpus, epochs=2, seed=0)
        s = sent("the cat sat .")
        tagged = tag(model, s)
        assert tagged.forms() == s.forms()
        assert len(tagged) == len(s)

    def test_overwrites_existing_tags(self, unique_tag_corpus):
        model = train_tagger(unique_tag_corpus, epochs=5, seed=0)
        s = sent("cat/VERB/VBZ")  # wrong on purpose
        assert tag(model, s).tokens[0].upos == "NOUN"

    def test_fixture_sentence_tags_frozen(self, unique_tag_corpus):
        # frozen after a hand-verified first run
        model = train_tagger(unique_tag_corpus, epochs=5, seed=7)
        tagged = tag(model, sent("the dog ran ."))
        assert [(t.upos, t.xpos) for t in tagged.tokens] == [
            ("DET", "DT"), ("NOUN", "NN"), ("VERB", "VBD"), ("PUNCT", "."),
        ]


class TestSerialization:
    def test_round_trip_predicts_identically(self, tmp_path, unique_tag_corpus):
        model = train_tagger(unique_tag_corpus, epochs=4, seed=9)
        path = tmp_path / "m.model"
        save_tagger(model, path)
        loaded = load_tagger(path)
        forms = ["the", "dog", "sat", "."]
        assert loaded.predict(forms) == model.predict(forms)
        assert loaded.tag_set == model.tag_set
        assert loaded.most_frequent_tag == model.most_frequent_tag
        assert loaded.reported_accuracy == model.reported_accuracy

    def test_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "bad.model"
        path.write_text("some-other-format/9\n")
        with pytest.raises(ValueError, match="version"):
            load_tagger(path)


    def test_a_upos_holding_the_separator_is_refused(self, tmp_path):
        """A composite tag splits at its first "|": a UPOS holding one would
        come back as another (upos, xpos) pair."""
        corpus = corpus_of("a/NOUN/NN b/VERB/VB", "c/X|Y/Z d/VERB/VB")
        message = "sentence 's2': token 'c' has UPOS 'X|Y', which holds the tagger's separator '|'"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            train_tagger(corpus, epochs=1)
        path = tmp_path / "bad.model"
        path.write_text(f"{MODEL_VERSION}\nmft\tNOUN|NN\ntagpair\tX|Y\tZ\n")
        message = f"{path}: line 3: UPOS 'X|Y' holds the tagger's separator '|'"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_tagger(path)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("f\tt", "line 3: expected 3 tab-separated fields"),
            ("f\tt\tabc", "line 3: could not convert string to float: 'abc'"),
        ],
    )
    def test_malformed_line_names_file_and_line(self, tmp_path, line, message):
        path = tmp_path / "bad.model"
        path.write_text(f"{MODEL_VERSION}\nmft\tNOUN/NN\n{line}\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}$"):
            load_tagger(path)


# forms and tags a model file must keep whole: whitespace that is no line
# break to a file reader, separators, and strings the features themselves use
_FORM = st.sampled_from(
    ["\x0c", "\x1c", "\x85", "\u2028", "\u2029", "a b", "İ", "ǅ", "|", "w=x", "-t1-", "<s>"]
) | st.text(st.characters(exclude_characters="\t\n\r", exclude_categories=("Cs",)),
            min_size=1, max_size=4)
_UPOS = st.sampled_from(["NOUN", "VERB", "ü\x85"]) | st.text(
    st.characters(exclude_characters="\t\n\r|", exclude_categories=("Cs",)), min_size=1,
    max_size=3,
).filter(lambda u: u != "UNK")
_XPOS = st.sampled_from(["", "NN", "|", "a|b"]) | st.text(
    st.characters(exclude_characters="\t\n\r", exclude_categories=("Cs",)), max_size=3
)
_SENTENCES = st.lists(st.lists(st.tuples(_FORM, _UPOS, _XPOS), min_size=1, max_size=4),
                      min_size=1, max_size=5)


def _tagged(sentences) -> Corpus:
    return Corpus(tuple(
        AnnotatedSentence(tuple(Token(form, upos=u, xpos=x) for form, u, x in words), f"s{i}")
        for i, words in enumerate(sentences)
    ))


@settings(max_examples=60, deadline=None)
@given(_SENTENCES, st.none() | _SENTENCES, st.integers(0, 3), st.integers(0, 9),
       st.lists(st.lists(_FORM, min_size=1, max_size=5), max_size=4))
def test_tagger_model_round_trip_property(train, heldout, epochs, seed, probes):
    """load_tagger(save_tagger(model)) equals the model: its weights bit for
    bit, its tag set, fallback tag and accuracy with its kind. It tags the
    training forms and unseen adversarial forms as the model does."""
    model = train_tagger(_tagged(train), epochs=epochs, seed=seed,
                         heldout=None if heldout is None else _tagged(heldout))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.model"
        save_tagger(model, path)
        loaded = load_tagger(path)
    assert loaded == model
    bits = lambda m: sorted((f, t, w.hex()) for f, per in m.feature_weights.items()
                            for t, w in per.items())
    assert bits(loaded) == bits(model)
    assert (loaded.tag_set, loaded.most_frequent_tag) == (model.tag_set, model.most_frequent_tag)
    assert loaded.reported_accuracy.hex() == model.reported_accuracy.hex()
    assert loaded.accuracy_kind == model.accuracy_kind
    for forms in [[form for form, _u, _x in words] for words in train] + probes:
        assert loaded.predict(forms) == model.predict(forms)


class TestHeuristicRoot:
    def test_parsed_verbal_root(self):
        s = sent("the/DET/DT cat/NOUN/NN sat/VERB/VBD:root ./PUNCT/.")
        assert heuristic_root(s) == 2

    def test_parsed_nominal_root_gives_none(self):
        s = sent("the/DET/DT cat/NOUN/NN:root nice/ADJ/JJ")
        assert heuristic_root(s) is None

    def test_unparsed_untagged_gives_none(self):
        assert heuristic_root(sent("hello there")) is None

    def test_unparsed_tagged_takes_leftmost_verb(self):
        s = sent("you/PRON/PRP can/AUX/MD sit/VERB/VB here/ADV/RB")
        assert heuristic_root(s) == 2

    def test_result_is_always_a_verb(self, chat_fixture):
        for s in chat_fixture.sentences[:500]:
            idx = heuristic_root(s)
            if idx is not None:
                assert s.tokens[idx].upos == "VERB"
