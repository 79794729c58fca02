"""The in-memory layout of corpus records and prepared domains.

A read builds one record per token, so these tests keep records slotted
with shared strings (see corpus.py); a prepared domain is arrays, so they
keep it to one copy of each fact and keep Token records out of the code
that reads it.
"""

import pytest

from verbscope.corpus import AnnotatedSentence, Token, build_frequency_table
from verbscope.ingest import read_chat, read_conllu, read_plaintext
from verbscope.pairgen import MinimalPair, gen_semantic_pairs, read_pairs, write_pairs
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


def test_pairs_read_from_a_file_share_one_good_member_per_text(tmp_path):
    good = ("he", "eats", "it")
    pairs = [
        MinimalPair(f"p{i}", "semantic-verb", tuple(good), ("he", verb, "it"), 1)
        for i, verb in enumerate(("sees", "hits", "gets"))
    ]
    pairs.append(MinimalPair("q", "semantic-verb", ("she", "eats", "it"), ("she", "sees", "it"), 1))
    path = tmp_path / "pairs.jsonl"
    write_pairs(pairs, path)
    first, second, third, other = list(read_pairs(path))
    assert first.good is second.good is third.good
    assert other.good is not first.good
    # tokens are interned: equal tokens of different pairs are one object
    assert other.good[1] is first.good[1] and other.bad[1] is first.bad[1]
    assert first.bad[0] is first.good[0] and third.bad[2] is other.good[2]


def test_the_pair_reader_streams():
    """``read_pairs`` is a generator function, and no module under src/
    holds its whole stream in a list."""
    import inspect
    from pathlib import Path

    import verbscope

    assert inspect.isgeneratorfunction(read_pairs)
    for path in Path(verbscope.__file__).parent.rglob("*.py"):
        assert "list(read_pairs(" not in path.read_text(encoding="utf-8"), path


def _names(path) -> set[str]:
    """Every name and attribute a module's code uses (docstrings aside)."""
    import ast

    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
    return names


def test_one_scoring_path():
    """The Kneser-Ney model scores through its array kernel alone: no scalar
    recursion, no dict tables derived beside it, no Counter count path."""
    from pathlib import Path

    import verbscope.scorer.ngram as ngram

    names = _names(Path(ngram.__file__))
    assert not names & {"ngram_prob", "_derive_tables", "Counter", "_logp", "_suffix_counts"}


def test_one_draw_function_for_both_perturb_entry_points():
    """perturb_forms and perturb_corpus both draw through perturb._draws, and
    perturb.py draws nothing from a scalar Stream itself."""
    import ast
    import inspect
    from pathlib import Path

    import verbscope.perturb as perturb

    for entry in (perturb.perturb_forms, perturb.perturb_corpus):
        calls = {
            node.func.id for node in ast.walk(ast.parse(inspect.getsource(entry)))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        }
        assert "_draws" in calls, entry.__name__
    assert not _names(Path(perturb.__file__)) & {"Stream", "mix64", "replace_word", "shuffle_order"}


def test_a_batch_scores_as_two_columns():
    """score_sentences gives a batch's log-probabilities and event counts as
    two columns in row order: no per-row score record, no by-id rebuild of
    the pair rows, and a model's logprob is a float."""
    from pathlib import Path

    import verbscope.experiment as experiment
    import verbscope.scorer.ngram as ngram
    import verbscope.scorer.scoring as scoring
    from verbscope.corpus import Forms

    assert not hasattr(ngram, "SentenceScore")
    assert not hasattr(scoring, "scored_pairs")
    assert not _names(Path(experiment.__file__)) & {"SentenceScore", "scored_pairs"}
    lm = ngram.train_ngram(Forms.encode([["a", "b"], ["b"]]), 2)
    logprobs, counts = scoring.score_sentences(
        lm, scoring.Sentences([("x", ["a", "b"]), ("y", ["b"]), ("z", ["a", "b"])])
    )
    assert type(logprobs) is list and type(counts) is list
    assert [type(v) for v in logprobs] == [float] * 3
    assert counts == [3, 2, 3]
    assert logprobs[0] == logprobs[2] == lm.logprob(["a", "b"])
    assert type(lm.logprob(["b"])) is float


def test_a_prepared_domain_keeps_no_pair_records(tmp_path, fixture_dir):
    """A prepared domain keeps its pairs as a pair_items batch and a
    pair_id -> paradigm map in pair order, not as MinimalPair records."""
    from dataclasses import fields

    from verbscope.experiment import ExperimentConfig, _DomainData, _prepare_domain, _sha256
    from verbscope.scorer.scoring import pair_items

    config = ExperimentConfig(
        corpora=[f"chat:{fixture_dir / 'chat.conllu'}:conllu"], out_dir=str(tmp_path)
    )
    spec = config.corpora[0]
    data, loaded = _prepare_domain(config, spec, tmp_path, _sha256(spec.path))
    assert not loaded
    assert "pairs" not in {f.name for f in fields(_DomainData)}
    for f in fields(data):
        value = getattr(data, f.name)
        if isinstance(value, (list, dict)):
            held = value.values() if isinstance(value, dict) else value
            assert not any(isinstance(item, MinimalPair) for item in held), f.name
    pairs = list(read_pairs(tmp_path / "chat" / "pairs" / "pairs.jsonl"))
    assert pairs
    batch = pair_items(pairs)
    assert data.members.ids == batch.ids and list(data.members) == list(batch)
    assert list(data.pairs_meta.items()) == [(p.pair_id, p.paradigm) for p in pairs]


def test_test_only_functions_live_in_the_tests():
    """score_pairs and recount_differences serve only tests, so they live
    in conftest.py, and no module under src/ defines either."""
    import ast
    from pathlib import Path

    import verbscope

    package = Path(verbscope.__file__).parent
    defined = {
        f"{path.relative_to(package)}:{node.name}"
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.AsyncFunctionDef))
        and node.name in ("score_pairs", "recount_differences")
    }
    assert not defined


def test_one_builder_of_a_prepared_domain():
    """experiment._domain_of is the one place that builds a _DomainData: a
    domain prepared by this run and one loaded from its prep record both
    come from the record."""
    import ast
    from pathlib import Path

    import verbscope

    def builds(node):
        return isinstance(node, ast.Call) and "_DomainData" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None)
        )

    package = Path(verbscope.__file__).parent
    trees = {
        path.relative_to(package).as_posix(): ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(package.rglob("*.py"))
    }
    assert sum(builds(node) for tree in trees.values() for node in ast.walk(tree)) == 1
    builders = [
        f"{name}:{fn.name}"
        for name, tree in trees.items()
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(builds(node) for node in ast.walk(fn))
    ]
    assert builders == ["experiment.py:_domain_of"]


def test_one_copy_of_each_prepared_fact():
    """A prepared domain keeps each fact once: its pair members only as
    one scoring batch that carries the rows' ids, and a REPLACE.WORD plan
    only the targets' positions and members, from which their sentences
    and strata follow."""
    import inspect
    from dataclasses import fields

    from verbscope import rng
    from verbscope.corpus import Forms
    from verbscope.experiment import _DomainData
    from verbscope.perturb import PerturbPlan
    from verbscope.scorer.scoring import Sentences, score_sentences

    assert [f.name for f in fields(_DomainData)] == [
        "forms", "plans", "members", "pairs_meta", "stats"
    ]
    assert list(inspect.signature(score_sentences).parameters) == ["scorer", "sentences"]
    assert not {"sentence", "stratum"} & {f.name for f in fields(PerturbPlan)}
    assert "stratum" not in inspect.signature(rng.picks).parameters
    batch = Sentences([("x", ["a"]), ("y", ["a"])])
    assert not hasattr(batch, "first") and "domain" not in Forms.__slots__
    assert (batch.ids, list(batch), len(batch)) == (["x", "y"], [("x", ("a",)), ("y", ("a",))], 2)


def test_a_loaded_member_batch_holds_no_tuples_until_iterated():
    """A batch rebuilt by Sentences.of_encoded keeps its encoding alone; its
    distinct token tuples are derived from it on first iteration."""
    from verbscope.scorer.scoring import Sentences

    built = Sentences([("x", ["a", "b"]), ("y", ["b"]), ("z", ["a", "b"])])
    loaded = Sentences.of_encoded(built.ids, built.encoded, built.index)

    def tuple_lists(batch):
        return [
            value for value in vars(batch).values()
            if isinstance(value, list) and any(isinstance(item, tuple) for item in value)
        ]

    assert tuple_lists(loaded) == []
    assert list(loaded) == list(built)
    assert tuple_lists(loaded) == [[("a", "b"), ("b",)]]


def test_no_module_freezes_the_heap():
    """No module under src/ calls gc.freeze or gc.unfreeze: a prepared
    domain is arrays, which leave the cyclic GC nothing to skip."""
    from pathlib import Path

    import verbscope

    for path in Path(verbscope.__file__).parent.rglob("*.py"):
        assert not _names(path) & {"freeze", "unfreeze"}, path


def test_stats_reads_the_form_view():
    """compute_stats counts n-grams over a Forms view: stats.py walks no
    Token records and calls no np.unique, which imports numpy.ma."""
    import inspect
    from pathlib import Path

    import verbscope.stats as stats

    assert list(inspect.signature(stats.compute_stats).parameters) == ["forms"]
    names = _names(Path(stats.__file__))
    assert not names & {"Token", "AnnotatedSentence", "Corpus", "tokens", "unique"}
