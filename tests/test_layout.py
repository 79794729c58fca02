"""The in-memory layout of corpus records: slotted, with shared strings.

A run holds every token, sentence and pair of its corpora at once, so
these tests keep the layout that makes that affordable (see corpus.py).
"""

import pytest

from verbscope.corpus import AnnotatedSentence, Token, build_frequency_table
from verbscope.ingest import read_chat, read_conllu, read_plaintext
from verbscope.pairgen import MinimalPair, gen_semantic_pairs
from verbscope.tagger import tag, train_tagger

from conftest import corpus_of

CONLLU = """\
1\tdogs\tdog\tNOUN\tNNS\t_\t2\tnsubj\t_\t_
2\twalks\twalk\tVERB\tVBZ\t_\t0\troot\t_\t_

1\tcats\tcat\tNOUN\tNNS\t_\t2\tnsubj\t_\t_
2\twalks\twalk\tVERB\tVBZ\t_\t0\troot\t_\t_

"""


def test_records_have_no_instance_dict():
    token = Token("walks", "walk", "VERB", "VBZ")
    records = [
        token,
        AnnotatedSentence((token,), "s1"),
        MinimalPair("p1", "agr-simple", ("a", "b"), ("a", "c"), 1),
    ]
    for record in records:
        assert not hasattr(record, "__dict__"), type(record).__name__


def _same_objects(first, second, fields):
    return {name: getattr(first, name) is getattr(second, name) for name in fields}


def test_read_conllu_shares_equal_strings(tmp_path):
    path = tmp_path / "c.conllu"
    path.write_text(CONLLU, encoding="utf-8")
    s1, s2 = read_conllu(path).sentences
    fields = ("form", "lemma", "upos", "xpos", "deprel")
    assert _same_objects(s1.tokens[1], s2.tokens[1], fields) == dict.fromkeys(fields, True)
    assert s1.tokens[0].upos is s2.tokens[0].upos


@pytest.mark.parametrize(
    "reader, text",
    [
        (read_plaintext, "the dogs walks home\nthe cats walks home\n"),
        (read_chat, "@Begin\n*MOT:\tthe dogs walks home\n*CHI:\tthe cats walks home\n"),
    ],
)
def test_line_readers_share_equal_forms(tmp_path, reader, text):
    path = tmp_path / "in.txt"
    path.write_text(text, encoding="utf-8")
    s1, s2 = reader(path).sentences
    assert s1.tokens[2].form is s2.tokens[2].form
    assert s1.tokens[3].form is s2.tokens[3].form


def test_tagger_shares_equal_tags():
    gold = corpus_of(
        "the/DET/DT dog/NOUN/NN walks/VERB/VBZ ./PUNCT/.",
        "a/DET/DT cat/NOUN/NN walks/VERB/VBZ ./PUNCT/.",
    )
    model = train_tagger(gold, epochs=3, seed=1)
    first, second = (tag(model, s) for s in gold)
    assert first.tokens[2].upos == "VERB"
    assert _same_objects(first.tokens[2], second.tokens[2], ("upos", "xpos")) == {
        "upos": True, "xpos": True,
    }


def test_semantic_pairs_share_one_good_member_per_sentence():
    verbs = ("eats", "sees", "hits", "gets", "buys", "sells", "takes")
    train = corpus_of(*[f"he/PRON/PRP {v}/VERB/VBZ:root it/PRON/PRP" for v in verbs])
    test = corpus_of(
        "he/PRON/PRP eats/VERB/VBZ:root it/PRON/PRP",
        "she/PRON/PRP sees/VERB/VBZ:root it/PRON/PRP",
    )
    pairs = gen_semantic_pairs(test, build_frequency_table(train), len_min=1)
    by_source: dict = {}
    for p in pairs:
        by_source.setdefault(p.source_sentence_id, []).append(p.good)
    assert sorted(map(len, by_source.values())) == [5, 5]
    for goods in by_source.values():
        assert all(good is goods[0] for good in goods)
    assert by_source["s1"][0] is not by_source["s2"][0]
