import re
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from verbscope import ingest
from verbscope.corpus import AnnotatedSentence, Corpus, Token
from verbscope.ingest import (
    DEFAULT_SPLIT,
    SplitSpec,
    clean_childes,
    read_chat,
    read_conllu,
    read_plaintext,
    split_corpus,
    write_corpus,
)

from conftest import corpus_of

CONLLU_BLOCK = """\
# sent_id = toy-1
1\tcat\tcat\tNOUN\tNN\t_\t2\tnsubj\t_\t_
2\tsat\tsit\tVERB\tVBD\t_\t0\troot\t_\t_

"""


class TestReadConllu:
    def test_two_token_block(self, tmp_path):
        path = tmp_path / "a.conllu"
        path.write_text(CONLLU_BLOCK)
        corpus = read_conllu(path)
        assert len(corpus) == 1
        s = corpus.sentences[0]
        assert s.sentence_id == "toy-1"
        assert [t.form for t in s.tokens] == ["cat", "sat"]
        assert s.tokens[0].head == 1 and s.tokens[0].deprel == "nsubj"
        assert s.tokens[1].head is None and s.tokens[1].deprel == "root"

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.conllu"
        path.write_text("")
        assert len(read_conllu(path)) == 0

    def test_non_integer_head_names_line(self, tmp_path):
        path = tmp_path / "bad.conllu"
        path.write_text("1\tcat\tcat\tNOUN\tNN\t_\tabc\tnsubj\t_\t_\n\n")
        with pytest.raises(ValueError, match="line 1"):
            read_conllu(path)

    def test_wrong_column_count_names_line(self, tmp_path):
        path = tmp_path / "bad.conllu"
        path.write_text("# ok\n1\tcat\tcat\n\n")
        with pytest.raises(ValueError, match="line 2"):
            read_conllu(path)

    def test_final_block_without_trailing_blank_line(self, tmp_path):
        path = tmp_path / "tight.conllu"
        path.write_text(CONLLU_BLOCK.rstrip("\n"))  # no terminating blank line
        corpus = read_conllu(path)
        assert len(corpus) == 1
        assert corpus.sentences[0].forms() == ["cat", "sat"]

    @pytest.mark.parametrize(
        "rows, message",
        [
            (["1\ta\ta\tX\tX\t_\t0\troot\t_\t_", "2\tb\tb\tX\tX\t_\t0\troot\t_\t_"],
             "sentence 's2' has 2 root tokens"),
            (["1\t\ta\tX\tX\t_\t0\troot\t_\t_"], "token form must be non-empty"),
            (["1\ta\ta\tX\tX\t_\t7\tdep\t_\t_"], "head 7 points outside the sentence"),
            (["# sent_id = a\tb", "1\ta\ta\tX\tX\t_\t0\troot\t_\t_"],
             "sentence_id 'a\\tb' contains a tab, newline or carriage return"),
        ],
    )
    def test_rejected_sentence_names_file_and_closing_line(self, tmp_path, rows, message):
        path = tmp_path / "bad.conllu"
        path.write_text("# sent_id = ok\n1\tfine\tfine\tX\tX\t_\t0\troot\t_\t_\n\n"
                        + "".join(row + "\n" for row in rows) + "\n")
        closing = 3 + len(rows) + 1  # the blank line after the bad block
        with pytest.raises(ValueError) as err:
            read_conllu(path)
        assert str(err.value) == f"{path}: sentence ending at line {closing}: {message}"

    def test_non_integer_token_id_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.conllu"
        path.write_text("1\tfine\tfine\tX\tX\t_\t0\troot\t_\t_\nx\tb\tb\tX\tX\t_\t1\tdep\t_\t_\n\n")
        with pytest.raises(ValueError) as err:
            read_conllu(path)
        assert str(err.value) == f"{path}: line 2: non-integer token id 'x'"

    def test_duplicate_sent_id_names_file_and_closing_line(self, tmp_path):
        path = tmp_path / "dup.conllu"
        block = "# sent_id = a\n1\tfine\tfine\tX\tX\t_\t0\troot\t_\t_\n\n"
        path.write_text(block + block)
        with pytest.raises(ValueError) as err:
            read_conllu(path)
        assert str(err.value) == f"{path}: sentence ending at line 6: duplicate sentence_id 'a'"

    def test_multiword_ranges_skipped(self, tmp_path):
        path = tmp_path / "mwt.conllu"
        path.write_text(
            "1-2\tdu\t_\t_\t_\t_\t_\t_\t_\t_\n"
            "1\tde\tde\tADP\tIN\t_\t3\tcase\t_\t_\n"
            "2\tle\tle\tDET\tDT\t_\t3\tdet\t_\t_\n"
            "3\tchat\tchat\tNOUN\tNN\t_\t0\troot\t_\t_\n\n"
        )
        corpus = read_conllu(path)
        assert [t.form for t in corpus.sentences[0].tokens] == ["de", "le", "chat"]


# whitespace that str.split() cuts at, inside forms a text line must keep whole
_TEXT_FORM = st.builds(
    lambda head, space, tail: head + space + tail,
    st.text(st.characters(exclude_categories=("Cs", "Zs", "Zl", "Zp", "Cc")), max_size=3),
    st.sampled_from(["", "", "", " ", "\xa0", "\x85", "\u2028", "\u3000", "\x1c"]),
    st.text(st.characters(exclude_categories=("Cs", "Zs", "Zl", "Zp", "Cc")), max_size=3),
).filter(bool)


class TestRoundTrip:
    def test_conllu_round_trip_is_field_identical(self, tmp_path, chat_fixture):
        subset = Corpus(chat_fixture.sentences[:100], domain="chat")
        path = tmp_path / "rt.conllu"
        write_corpus(subset, path, "conllu")
        back = read_conllu(path, domain="chat")
        assert back.sentences == subset.sentences

    def test_text_format(self, tmp_path):
        corpus = corpus_of("you/PRON/PRP want/VERB/VBP it/PRON/PRP ?/PUNCT/.")
        path = tmp_path / "t.txt"
        write_corpus(corpus, path, "text")
        assert path.read_text() == "you want it ?\n"

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(_TEXT_FORM, min_size=1, max_size=4), min_size=1, max_size=4))
    def test_text_output_refuses_a_form_holding_whitespace_property(self, sentences):
        """Text output of forms without whitespace is their space-joined
        lines, which read back as the same forms. A form holding whitespace
        would read back as other forms: it is refused, naming the first such
        sentence and form, and no file is written."""
        corpus = Corpus(
            tuple(AnnotatedSentence(tuple(map(Token, forms)), f"s{i}")
                  for i, forms in enumerate(sentences))
        )
        bad = [(sid, form) for sid, forms in enumerate(sentences) for form in forms
               if any(c.isspace() for c in form)]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.txt"
            if bad:
                sid, form = bad[0]
                message = (f"sentence 's{sid}': form {form!r} contains whitespace, "
                           "which the space-joined text format cannot store")
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    write_corpus(corpus, path, "text")
                assert list(Path(tmp).iterdir()) == []
                return
            write_corpus(corpus, path, "text")
            lines = "".join(" ".join(forms) + "\n" for forms in sentences)
            assert path.read_bytes() == lines.encode("utf-8")
            assert [s.forms() for s in read_plaintext(path)] == sentences

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_conllu_round_trip_property(self, data):
        """read_conllu(write_corpus(c)) == c for any corpus the format can hold:
        "_" marks an absent lemma, tag or relation, so no field holds "_" itself,
        and no id or source line ends in whitespace."""
        corpus = data.draw(_corpora())
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "rt.conllu"
            write_corpus(corpus, path, "conllu")
            assert read_conllu(path, domain=corpus.domain) == corpus

    def test_empty_corpus_writes_empty_file(self, tmp_path):
        path = tmp_path / "e.conllu"
        write_corpus(Corpus(()), path, "conllu")
        assert path.read_text() == ""


# any text one CoNLL-U field can carry: no tab or line break
_FIELD_CHARS = st.characters(exclude_characters="\t\n\r", exclude_categories=("Cs",))
_FIELD = st.text(alphabet=_FIELD_CHARS, max_size=6).filter(lambda s: s != "_")
_TAG = st.sampled_from(["UNK", "NOUN", "VERB", "Ñ|ü", " "]) | _FIELD
# a "# source = " comment keeps a line with no line break and no trailing blank,
# and an empty line too
_SOURCE = st.lists(
    st.just("") | st.text(alphabet=_FIELD_CHARS, max_size=6).map(str.rstrip), max_size=3
).map("\n".join)


@st.composite
def _sentences(draw, sentence_id):
    n = draw(st.integers(min_value=1, max_value=6))
    root = draw(st.none() | st.integers(min_value=0, max_value=n - 1))
    tokens = []
    for i in range(n):
        other = st.integers(min_value=0, max_value=n - 2).map(lambda h, i=i: h + (h >= i))
        head = None if i == root or n == 1 else draw(st.none() | other)
        deprel = "root" if i == root else draw(
            st.none() | _FIELD.filter(lambda s: s not in ("", "root"))
        )
        tokens.append(Token(
            form=draw(st.text(alphabet=_FIELD_CHARS, min_size=1, max_size=6)),
            lemma=draw(_FIELD), upos=draw(_TAG), xpos=draw(_TAG), head=head, deprel=deprel,
        ))
    return AnnotatedSentence(tuple(tokens), sentence_id, draw(_SOURCE))


@st.composite
def _corpora(draw):
    # a "# sent_id = " comment keeps an id with no line break and no trailing blank
    ids = draw(st.lists(
        st.text(alphabet=_FIELD_CHARS, min_size=1, max_size=8).map(str.rstrip).filter(bool),
        max_size=5, unique=True,
    ))
    domain = draw(st.sampled_from(["", "chat", "wrïtten"]))
    return Corpus(tuple(draw(_sentences(sid)) for sid in ids), domain=domain)


def _strict_token(form, **fields):
    """Token with one more check, standing in for a record check that rejects input."""
    if form == "bad":
        raise ValueError("token form 'bad' rejected")
    return Token(form, **fields)


class TestReadPlaintext:
    def test_tokenizes_on_whitespace(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("you want it ?\n\nno .\n")
        corpus = read_plaintext(path)
        assert [len(s) for s in corpus] == [4, 2]
        assert corpus.sentences[0].tokens[0].upos == "UNK"

    def test_rejected_token_names_file_and_line(self, tmp_path, monkeypatch):
        monkeypatch.setattr("verbscope.corpus.Token", _strict_token)
        path = tmp_path / "p.txt"
        path.write_text("fine .\n\nsome bad words\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 3: token form 'bad' rejected")):
            read_plaintext(path)

    def test_with_tagger_fills_tags(self, tmp_path):
        from verbscope.tagger import train_tagger

        gold = corpus_of(
            "the/DET/DT cat/NOUN/NN sat/VERB/VBD ./PUNCT/.",
            "the/DET/DT dog/NOUN/NN sat/VERB/VBD ./PUNCT/.",
            "a/DET/DT cat/NOUN/NN ran/VERB/VBD ./PUNCT/.",
        )
        model = train_tagger(gold, epochs=5, seed=1)
        path = tmp_path / "raw.txt"
        path.write_text("the cat sat\n")
        corpus = read_plaintext(path, tagger=model)
        assert [(t.upos, t.xpos) for t in corpus.sentences[0].tokens] == [
            ("DET", "DT"), ("NOUN", "NN"), ("VERB", "VBD"),
        ]


class TestCleanChildes:
    def test_speaker_prefix_stripped(self):
        assert clean_childes(["*MOT:\tyou want it ?"]) == ["you want it ?"]

    def test_dependent_tier_dropped(self):
        assert clean_childes(["%act:\tpoints at toy"]) == []

    def test_header_dropped(self):
        assert clean_childes(["@Begin", "*MOT:\thi ."]) == ["hi ."]

    def test_retrace_and_codes_removed(self):
        got = clean_childes(["*CHI:\t<I want> [/] I want xxx ."])
        assert got == ["I want ."]

    def test_amp_codes_removed(self):
        assert clean_childes(["*CHI:\t&=laughs that &uh one ."]) == ["that one ."]

    def test_empty_results_dropped(self):
        assert clean_childes(["*CHI:\txxx xxx ."]) == ["."]
        assert clean_childes(["*CHI:\txxx xxx"]) == []

    @given(st.lists(st.text(alphabet=st.characters(codec="utf-8", exclude_characters="\x00"), max_size=40), max_size=8))
    def test_idempotent(self, lines):
        once = clean_childes(lines)
        assert clean_childes(once) == once

    def test_read_chat(self, tmp_path):
        path = tmp_path / "c.cha"
        path.write_text("@Begin\n*MOT:\tyou want it ?\n%act:\tpoints\n*CHI:\tyes .\n")
        corpus = read_chat(path)
        assert [" ".join(s.forms()) for s in corpus] == ["you want it ?", "yes ."]

    def test_read_chat_rejected_token_names_file_and_line(self, tmp_path, monkeypatch):
        """The line is the transcript's, counting the tiers and headers cleaning drops."""
        monkeypatch.setattr("verbscope.corpus.Token", _strict_token)
        path = tmp_path / "c.cha"
        path.write_text("@Begin\n*MOT:\tyou want it ?\n%act:\tpoints\n*CHI:\t<no> [/] bad .\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 4: token form 'bad' rejected")):
            read_chat(path)


def _reference_read(path) -> Corpus:
    """A CoNLL-U reader that builds one new Token per line, for files whose
    token ids run 1..n and whose only comments are sent_ids."""
    sentences, tokens, sent_id = [], [], None
    for line in Path(path).read_text(encoding="utf-8").splitlines() + [""]:
        if line.startswith("# sent_id = "):
            sent_id = line[len("# sent_id = "):]
        elif line:
            _wid, form, lemma, upos, xpos, _f, head, deprel, _d, _m = line.split("\t")
            tokens.append(Token(
                form, "" if lemma == "_" else lemma, "UNK" if upos == "_" else upos,
                "UNK" if xpos == "_" else xpos, None if head == "0" else int(head) - 1,
                None if deprel == "_" else deprel,
            ))
        elif tokens:
            sentences.append(AnnotatedSentence(tuple(tokens), sent_id))
            tokens = []
    return Corpus(tuple(sentences))


def _distinct_conllu(path, n_tokens: int) -> None:
    """Every token differs from every other in its form."""
    with open(path, "w", encoding="utf-8") as fh:
        for start in range(0, n_tokens, 5):
            fh.write(f"# sent_id = d{start}\n")
            for i in range(1, 6):
                head, deprel = (0, "root") if i == 2 else (2, "dep")
                fh.write(f"{i}\tw{start + i}\tl{start + i}\tX\t_\t_\t{head}\t{deprel}\t_\t_\n")
            fh.write("\n")


def _assert_equal_tokens_shared(corpus: Corpus) -> int:
    """Every token is the first one read with its fields; the count of distinct ones."""
    first: dict[Token, Token] = {}
    for sent in corpus:
        for tok in sent.tokens:
            assert first.setdefault(tok, tok) is tok
    return len(first)


class TestTokenPool:
    @pytest.mark.parametrize("fmt", ["conllu", "text", "chat"])
    def test_equal_tokens_are_one_object_per_read(self, tmp_path, chat_fixture, fmt):
        path = tmp_path / f"c.{fmt}"
        subset = Corpus(chat_fixture.sentences[:300])
        if fmt == "chat":
            path.write_text("@Begin\n" + "".join(f"*MOT:\t{' '.join(s.forms())}\n%act:\tx\n"
                                                 for s in subset))
        else:
            write_corpus(subset, path, "conllu" if fmt == "conllu" else "text")
        corpus = ingest.read_corpus(path, fmt)
        assert [s.forms() for s in corpus] == [s.forms() for s in subset]
        assert _assert_equal_tokens_shared(corpus) < corpus.n_tokens // 5

    @pytest.mark.parametrize("fmt", ["conllu", "text"])
    def test_tagged_read_shares_equal_tokens(self, tmp_path, chat_fixture, fmt):
        from verbscope.tagger import tag, train_tagger

        model = train_tagger(Corpus(chat_fixture.sentences[:100]), epochs=1, seed=1)
        path = tmp_path / f"c.{fmt}"
        write_corpus(Corpus(chat_fixture.sentences[:300]), path, fmt)
        corpus = ingest.read_corpus(path, fmt, tagger=model)
        # the corpus a read gives that builds a new Token per tagged token
        assert corpus == Corpus(tuple(tag(model, s) for s in ingest.read_corpus(path, fmt)))
        distinct = _assert_equal_tokens_shared(corpus)
        assert distinct == len({id(t) for s in corpus for t in s.tokens})
        assert distinct < corpus.n_tokens // 5

    def test_fixture_reads_equal_to_a_token_per_line_build(self, tmp_path, chat_fixture):
        path = tmp_path / "chat.conllu"
        write_corpus(chat_fixture, path)
        corpus = read_conllu(path)
        assert corpus == _reference_read(path)
        assert corpus.sentences == chat_fixture.sentences
        assert _assert_equal_tokens_shared(corpus) < 1_000

    def test_all_distinct_corpus_reads_equal_to_a_token_per_line_build(self, tmp_path):
        path = tmp_path / "distinct.conllu"
        _distinct_conllu(path, 2_000)
        corpus = read_conllu(path)
        assert corpus == _reference_read(path)
        assert _assert_equal_tokens_shared(corpus) == corpus.n_tokens == 2_000

    def test_two_reads_share_no_tokens(self, tmp_path):
        path = tmp_path / "a.conllu"
        path.write_text(CONLLU_BLOCK)
        one, two = read_conllu(path), read_conllu(path)
        assert one == two
        assert {id(t) for t in one.sentences[0].tokens}.isdisjoint(map(id, two.sentences[0].tokens))


class TestSplitSpec:
    def test_parse_normalizes_ratios(self):
        spec = SplitSpec.parse("10,2.5,2.5")
        assert spec == SplitSpec(Fraction(2, 3), Fraction(1, 6), Fraction(1, 6))

    def test_parse_fraction_syntax(self):
        assert SplitSpec.parse("2/3,1/6,1/6") == DEFAULT_SPLIT

    def test_fractions_must_be_proper(self):
        with pytest.raises(ValueError):
            SplitSpec(Fraction(1), Fraction(0), Fraction(0))

    @pytest.mark.parametrize("text, message", [
        ("1,1", "expected three comma-separated ratios, got '1,1'"),
        ("1,1,1,1", "expected three comma-separated ratios, got '1,1,1,1'"),
        ("0,0,0", "split ratios must have positive sum"),
        ("1,-1,-1", "split ratios must have positive sum"),
        ("a,1,1", "split ratios must be numbers or p/q, got 'a,1,1'"),
        ("1/0,1,1", "split ratios must be numbers or p/q, got '1/0,1,1'"),
    ])
    def test_parse_rejects_bad_ratios(self, text, message):
        with pytest.raises(ValueError) as err:
            SplitSpec.parse(text)
        assert str(err.value) == message

    def test_sum_must_be_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            SplitSpec(Fraction(1, 2), Fraction(1, 4), Fraction(1, 8))


class TestSplitCorpus:
    def _corpus(self, n):
        return corpus_of(*[f"w{i}/X/X" for i in range(n)])

    def test_twelve_sentences_split_8_2_2(self):
        train, dev, test = split_corpus(self._corpus(12))
        assert (len(train), len(dev), len(test)) == (8, 2, 2)

    def test_six_sentences_split_4_1_1(self):
        train, dev, test = split_corpus(self._corpus(6))
        assert (len(train), len(dev), len(test)) == (4, 1, 1)

    def test_three_sentences_rejected(self):
        with pytest.raises(ValueError, match="empty dev split"):
            split_corpus(self._corpus(3))

    def test_fewer_than_three_rejected(self):
        with pytest.raises(ValueError, match="at least 3"):
            split_corpus(self._corpus(2))

    def test_domain_set(self):
        corpus = corpus_of(*[f"w{i}/X/X" for i in range(6)], domain="d")
        parts = split_corpus(corpus)
        assert all(p.domain == "d" for p in parts)

    @given(st.integers(min_value=6, max_value=400))
    def test_concatenation_recovers_input(self, n):
        corpus = self._corpus(n)
        train, dev, test = split_corpus(corpus)
        assert train.sentences + dev.sentences + test.sentences == corpus.sentences
        # floors differ from frac*n by < 1 before remainder assignment
        for part, frac in ((train, Fraction(2, 3)), (dev, Fraction(1, 6)), (test, Fraction(1, 6))):
            assert len(part) >= int(frac * n)
            assert len(part) <= int(frac * n) + 1

    def test_shuffled_split_is_permutation(self):
        corpus = self._corpus(30)
        train, dev, test = split_corpus(corpus, shuffle=True, seed=5)
        got = sorted(s.sentence_id for p in (train, dev, test) for s in p)
        assert got == sorted(s.sentence_id for s in corpus)
        again = split_corpus(corpus, shuffle=True, seed=5)
        assert tuple(s.sentence_id for s in again[0]) == tuple(s.sentence_id for s in train)
