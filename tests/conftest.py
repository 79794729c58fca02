import sys
from pathlib import Path

try:
    import verbscope  # noqa: F401
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest

from verbscope.corpus import AnnotatedSentence, Corpus, Token
from verbscope.scorer.scoring import pair_items, score_sentences


def sent(spec: str, sentence_id: str = "s1") -> AnnotatedSentence:
    """Build a sentence from "form/UPOS/XPOS form/UPOS/XPOS ..." shorthand.

    Append :root to mark the root token; heads of the other tokens point
    at it (or stay unset when there is no root). An explicit lemma rides
    after a tilde: "painters/NOUN/NNS~painter".
    """
    tokens = []
    root = None
    parts = spec.split()
    for i, part in enumerate(parts):
        if part.endswith(":root"):
            part = part[: -len(":root")]
            root = i
        part, _, lemma = part.partition("~")
        bits = part.split("/")
        form = bits[0]
        upos = bits[1] if len(bits) > 1 else "UNK"
        xpos = bits[2] if len(bits) > 2 else upos
        tokens.append((form, lemma or form.lower(), upos, xpos))
    built = []
    for i, (form, lemma, upos, xpos) in enumerate(tokens):
        head = None if root is None or i == root else root
        deprel = "root" if i == root else ("dep" if root is not None else None)
        built.append(
            Token(form=form, lemma=lemma, upos=upos, xpos=xpos,
                  head=head, deprel=deprel)
        )
    return AnnotatedSentence(tuple(built), sentence_id)


def corpus_of(*specs: str, domain: str = "") -> Corpus:
    return Corpus(tuple(sent(s, f"s{i + 1}") for i, s in enumerate(specs)), domain=domain)


def score_pairs(scorer, pairs) -> list[tuple[str, float, float]]:
    """(pair_id, logprob_good, logprob_bad) rows, in pair order."""
    logprobs, _counts = score_sentences(scorer, pair_items(pairs))
    return list(zip([p.pair_id for p in pairs], logprobs[0::2], logprobs[1::2]))


def recount_differences(before: Corpus, after: Corpus) -> int:
    """Independent tally of positions whose form changed (report cross-check)."""
    return sum(
        t1.form != t2.form
        for s1, s2 in zip(before.sentences, after.sentences)
        for t1, t2 in zip(s1.tokens, s2.tokens)
    )


@pytest.fixture(scope="session")
def chat_fixture():
    from verbscope.fixtures import build_fixture_corpus

    return build_fixture_corpus("chat", 100_000)


@pytest.fixture(scope="session")
def written_fixture():
    from verbscope.fixtures import build_fixture_corpus

    return build_fixture_corpus("written", 100_000)


@pytest.fixture(scope="session")
def fixture_dir(tmp_path_factory):
    """Both fixture corpora written as CoNLL-U files (20k tokens each)."""
    from verbscope.fixtures import write_fixture_corpora

    out = tmp_path_factory.mktemp("fixtures")
    write_fixture_corpora(out, target_tokens=20_000)
    return out
