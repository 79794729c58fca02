import hashlib

import pytest

from verbscope.fixtures import build_fixture_corpus, main
from verbscope.ingest import write_corpus

# sha256 of the fixture files at the default seed; benchmark inputs and the
# reference figures in ROADMAP.md rest on these bytes, so a change to the
# generator or to the corpus records must keep them
_PINNED = {
    2_000: {
        "chat": "c540dc00e05331496d1a76c9ca0872da5f5be03647ce8731261bde7423b99a11",
        "written": "e279c6e59627c27bc39637ce8318788078a07ddfccd95159f8739e6da957a042",
    },
    100_000: {
        "chat": "b92fcbed74d665ab841acd81bf0b62d9a5822bc214559fcf48564d361c46a69a",
        "written": "7df3137c10b68eda5a3cc2e4fe528a60d98249f66469ca3b5e25d8e1224cf1fd",
    },
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_fixture_files_keep_their_bytes(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "--tokens", "2000"]) == 0
    assert {d: _sha256(tmp_path / f"{d}.conllu") for d in ("chat", "written")} == _PINNED[2_000]


@pytest.mark.parametrize("domain", ["chat", "written"])
def test_full_size_fixture_keeps_its_bytes(domain, request, tmp_path):
    corpus = request.getfixturevalue(f"{domain}_fixture")  # --tokens 100000
    write_corpus(corpus, tmp_path / "f.conllu")
    assert _sha256(tmp_path / "f.conllu") == _PINNED[100_000][domain]


def test_equal_tokens_are_one_object(chat_fixture):
    tokens = [tok for sent in chat_fixture for tok in sent.tokens]
    first = {}
    assert all(first.setdefault(tok, tok) is tok for tok in tokens)
    assert len(first) < len(tokens) // 100


def test_two_builds_share_no_tokens():
    one, two = build_fixture_corpus("chat", 500), build_fixture_corpus("chat", 500)
    assert one == two
    ids = {id(tok) for sent in one for tok in sent.tokens}
    assert ids.isdisjoint(id(tok) for sent in two for tok in sent.tokens)
