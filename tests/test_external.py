import hashlib
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import verbscope.echo_scorer
import verbscope.scorer.external as external
from verbscope.cli import main
from verbscope.pairgen import MinimalPair
from verbscope.scorer.external import ExternalScorer, ExternalScorerError, external_score

from conftest import score_pairs

# the module is stdlib-only, so the child needs no import path setup
ECHO = [sys.executable, verbscope.echo_scorer.__file__]


def _items(n=5):
    return [(f"id{i}", "word " * (i + 1)) for i in range(n)]


class TestEchoScorer:
    def test_reassembles_out_of_order_responses(self):
        items = _items(6)
        results = external_score(ECHO, items)
        assert set(results) == {i for i, _t in items}
        for item_id, text in items:
            logprob, num_tokens = results[item_id]
            assert logprob == -float(len(text))
            assert num_tokens == len(text.split())

    def test_scores_pairs_through_wrapper(self):
        pairs = [
            MinimalPair("p1", "semantic-verb", ("a", "bb"), ("a", "cc"), 1),
            MinimalPair("p2", "semantic-verb", ("xx",), ("y",), 0),
        ]
        rows = score_pairs(ExternalScorer(ECHO), pairs)
        assert rows[0] == ("p1", -4.0, -4.0)
        assert rows[1] == ("p2", -2.0, -1.0)


def test_echo_scorer_loads_no_other_verbscope_module():
    """A scorer child starts without importing the pipeline."""
    code = ("import sys, verbscope.echo_scorer; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'verbscope'))")
    src = str(Path(verbscope.echo_scorer.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), check=True).stdout
    assert out == "['verbscope', 'verbscope.echo_scorer']\n"


class TestProtocolViolations:
    def test_positive_logprob_rejected(self):
        with pytest.raises(ExternalScorerError, match="positive logprob"):
            external_score(ECHO + ["--mode", "positive"], _items())

    def test_missing_ids_listed(self):
        with pytest.raises(ExternalScorerError, match="missing ids.*id4"):
            external_score(ECHO + ["--mode", "drop"], _items())

    def test_malformed_line_named(self):
        with pytest.raises(ExternalScorerError, match="line 1.*not valid JSON"):
            external_score(ECHO + ["--mode", "garbage"], _items())

    def test_timeout(self):
        slow = [sys.executable, "-c", "import time,sys; sys.stdin.read(); time.sleep(30)"]
        with pytest.raises(ExternalScorerError, match="timed out"):
            external_score(slow, _items(2), timeout=1.0)

    def test_nonzero_exit_rejected(self):
        crash = [
            sys.executable,
            "-c",
            (
                "import sys, json\n"
                "for line in sys.stdin:\n"
                "    row = json.loads(line)\n"
                "    print(json.dumps({'id': row['id'], 'logprob': -1.0, 'num_tokens': 1}))\n"
                "sys.exit(3)\n"
            ),
        ]
        with pytest.raises(ExternalScorerError, match="status 3"):
            external_score(crash, _items(2))

    def test_unknown_id_rejected(self):
        rogue = [
            sys.executable,
            "-c",
            (
                "import sys, json\n"
                "sys.stdin.read()\n"
                "print(json.dumps({'id': 'who', 'logprob': -1.0, 'num_tokens': 1}))\n"
            ),
        ]
        with pytest.raises(ExternalScorerError, match="unknown id"):
            external_score(rogue, _items(2))

    def test_duplicate_response_id_rejected(self):
        twice = [
            sys.executable,
            "-c",
            (
                "import sys, json\n"
                "for line in sys.stdin:\n"
                "    row = json.loads(line)\n"
                "    for _ in range(2):\n"
                "        print(json.dumps({'id': row['id'], 'logprob': -1.0, 'num_tokens': 1}))\n"
            ),
        ]
        with pytest.raises(ExternalScorerError, match="^response line 2: duplicate id 'id0'$"):
            external_score(twice, _items(2))

    def test_unlaunchable_command(self):
        with pytest.raises(ExternalScorerError, match="could not launch"):
            external_score(["/definitely/not/a/binary"], _items(1))

    def test_duplicate_request_ids_rejected(self):
        with pytest.raises(ExternalScorerError, match="unique"):
            external_score(ECHO, [("same", "a"), ("same", "b")])


@pytest.mark.parametrize("separator", ["\u2028", "\u0085", "\u2029"])
def test_answers_are_split_on_newline_alone(separator):
    """An id may hold a character that ``str.splitlines`` breaks at, and a
    child may write it raw (``ensure_ascii=False``): its answer still parses."""
    raw = [sys.executable, "-c", (
        "import sys, json\n"
        "for line in sys.stdin.buffer:\n"
        "    row = json.loads(line)\n"
        "    answer = {'id': row['id'], 'logprob': -1.0, 'num_tokens': 1}\n"
        "    sys.stdout.buffer.write((json.dumps(answer, ensure_ascii=False) + '\\n').encode())\n"
    )]
    items = [(f"a{separator}b", "x y"), ("c", "z")]
    assert external_score(raw, items) == {f"a{separator}b": (-1.0, 1), "c": (-1.0, 1)}


def test_a_child_writing_more_stderr_than_a_pipe_holds_still_scores():
    noisy = [sys.executable, "-c", (
        "import sys, json\n"
        "for line in sys.stdin:\n"
        "    row = json.loads(line)\n"
        "    print(json.dumps({'id': row['id'], 'logprob': -1.0, 'num_tokens': 1}), flush=True)\n"
        "    print('x' * 4096, file=sys.stderr, flush=True)\n"
    )]
    items = _items(20)  # 80 KiB of stderr; a pipe holds 64 KiB
    assert external_score(noisy, items) == {item_id: (-1.0, 1) for item_id, _text in items}


def test_a_failed_child_has_the_head_of_its_stderr_in_the_error():
    crash = [sys.executable, "-c",
             "import sys; sys.stdin.read(); sys.stderr.write('  boom ' + 'x' * 100_000); sys.exit(3)"]
    with pytest.raises(ExternalScorerError) as err:
        external_score(crash, [])
    assert str(err.value) == "external scorer exited with status 3: boom " + "x" * 195


@pytest.mark.parametrize("logprob, num_tokens, message", [
    ("float('nan')", "2", "logprob is NaN"),
    ("0.5", "2", "positive logprob 0.5"),
    ("-1.0", "0", "num_tokens must be >= 1, got 0"),
    ("-1.0", "2.5", "num_tokens 2.5 is not an integer"),
    ("-1.0", "True", "num_tokens True is not an integer"),
    ("'-1.5'", "3", "logprob '-1.5' is not a number"),
    ("False", "1", "logprob False is not a number"),
], ids=["nan", "positive", "tokens-zero", "tokens-float", "tokens-bool", "logprob-string",
        "logprob-bool"])
def test_score_external_rejects_a_score_outside_the_protocol(
    tmp_path, capsys, logprob, num_tokens, message
):
    """A child's score that breaks the protocol fails ``score --external``
    with one error line naming the response line and id."""
    child = (
        "import sys, json\n"
        "for line in sys.stdin:\n"
        "    row = json.loads(line)\n"
        f"    print(json.dumps({{'id': row['id'], 'logprob': {logprob}, "
        f"'num_tokens': {num_tokens}}}))\n"
    )
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text('{"pair_id": "ok", "paradigm": "semantic-verb", "good": "a b", '
                     '"bad": "a c", "diff_index": 1, "meta": {}}\n')
    out = tmp_path / "scores.tsv"
    args = ["score", "--external", shlex.join([sys.executable, "-c", child]),
            "--pairs", str(pairs), "--out", str(out)]
    assert main(args) == 1
    assert capsys.readouterr().err == f"error: response line 1 (id 'ok::good'): {message}\n"
    assert not out.exists()


def test_score_external_takes_an_integer_logprob(tmp_path):
    """A JSON integer is a JSON number: logprob -3 is a score of -3.0."""
    child = (
        "import sys, json\n"
        "for line in sys.stdin:\n"
        "    print(json.dumps({'id': json.loads(line)['id'], 'logprob': -3, 'num_tokens': 2}))\n"
    )
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text('{"pair_id": "ok", "paradigm": "semantic-verb", "good": "a b", '
                     '"bad": "a c", "diff_index": 1, "meta": {}}\n')
    out = tmp_path / "scores.tsv"
    assert main(["score", "--external", shlex.join([sys.executable, "-c", child]),
                 "--pairs", str(pairs), "--out", str(out)]) == 0
    assert out.read_text() == "ok::good\t-3.0\t2\nok::bad\t-3.0\t2\n"


_TEXT = st.text(st.characters(exclude_categories=("Cs",)), max_size=12)


@settings(max_examples=200, deadline=None)
@given(_TEXT, _TEXT)
def test_request_lines_are_json_dumps_bytes(item_id, text):
    expected = json.dumps({"id": item_id, "text": text}, ensure_ascii=False) + "\n"
    assert external._request([(item_id, text)]) == expected.encode("utf-8")


class TestChildLifecycle:
    @pytest.fixture
    def launched(self, monkeypatch):
        """Every Popen the scorer starts, in launch order."""
        children = []
        launch = external._launch

        def record(argv):
            children.append(launch(argv))
            return children[-1]

        monkeypatch.setattr(external, "_launch", record)
        return children

    def test_a_load_failure_kills_and_reaps_the_child(self, tmp_path, capsys, launched):
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text('{"pair_id": "p1", "paradigm": "semantic-verb", "good": "a b"\n')
        hang = shlex.join([sys.executable, "-c", "import time; time.sleep(60)"])
        args = ["score", "--external", hang, "--pairs", str(pairs), "--out", str(tmp_path / "s")]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {pairs}: record 1: ") and err.count("\n") == 1
        assert len(launched) == 1 and launched[0].returncode is not None

    def test_an_unlaunchable_command_fails_before_the_input_is_read(self, tmp_path, capsys):
        missing = tmp_path / "never-opened.jsonl"
        args = ["score", "--external", "/definitely/not/a/binary", "--pairs", str(missing),
                "--out", str(tmp_path / "s")]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: could not launch external scorer: ") and err.count("\n") == 1

    def test_each_batch_gets_its_own_child(self, launched):
        with ExternalScorer(ECHO) as scorer:
            assert scorer.score_texts(_items(2))["id1"] == (-10.0, 2)
            assert scorer.score_texts(_items(3))["id2"] == (-15.0, 3)
        assert len(launched) == 2
        assert all(child.returncode == 0 for child in launched)

    def test_the_timeout_counts_from_the_request(self):
        with ExternalScorer(ECHO, timeout=1.0) as scorer:
            time.sleep(1.2)  # the child waits on its stdin meanwhile
            assert scorer.score_texts(_items(1)) == {"id0": (-5.0, 1)}

    @pytest.mark.parametrize("case", ["success", "protocol-error", "exit-status", "timeout",
                                      "unused"])
    def test_the_temporary_files_are_closed(self, launched, case):
        """Whatever a batch's outcome, the child's answers file is closed
        and the process holds no more descriptors than before it."""
        before = set(os.listdir("/proc/self/fd"))
        command, timeout, error = {
            "success": (ECHO, 300.0, None),
            "protocol-error": (ECHO + ["--mode", "garbage"], 300.0, "not valid JSON"),
            "exit-status": ([sys.executable, "-c", "import sys; sys.exit(3)"], 300.0, "status 3"),
            "timeout": ([sys.executable, "-c", "import time; time.sleep(30)"], 1.0, "timed out"),
            "unused": (ECHO, 300.0, None),
        }[case]
        with ExternalScorer(command, timeout=timeout) as scorer:
            if error:  # children that read no request get none
                with pytest.raises(ExternalScorerError, match=error):
                    scorer.score_texts(_items(3 if case == "protocol-error" else 0))
            elif case == "success":
                assert len(scorer.score_texts(_items(3))) == 3
        assert set(os.listdir("/proc/self/fd")) == before
        assert launched[0].answers.closed

    def test_a_timed_out_child_is_killed_and_reaped(self, launched):
        slow = [sys.executable, "-c", "import time,sys; sys.stdin.read(); time.sleep(30)"]
        with pytest.raises(ExternalScorerError, match="timed out"):
            external_score(slow, _items(2), timeout=1.0)
        assert launched[0].returncode is not None


def test_score_and_eval_bytes_are_pinned(tmp_path):
    """``score --external`` and ``eval --out`` on the fixture pairs keep
    their pinned bytes, whatever the protocol's encoding and child handling."""
    fx = tmp_path / "fx"
    from verbscope.fixtures import write_fixture_corpora

    write_fixture_corpora(fx, target_tokens=20_000)
    p = tmp_path / "p"
    assert main(["ingest", "--in", str(fx / "chat.conllu"), "--split", "2/3,1/6,1/6",
                 "--out", str(p)]) == 0
    assert main(["stats", "--in", str(p / "train.conllu"), "--save-table", str(p / "table.tsv")]) == 0
    assert main(["genpairs", "semantic", "--test", str(p / "test.conllu"), "--table",
                 str(p / "table.tsv"), "--out", str(p / "sem.jsonl")]) == 0
    assert main(["genpairs", "agreement", "--train", str(p / "train.conllu"), "--n", "20",
                 "--out", str(p / "agr.jsonl")]) == 0
    pairs = p / "pairs.jsonl"
    pairs.write_bytes((p / "sem.jsonl").read_bytes() + (p / "agr.jsonl").read_bytes())
    assert main(["score", "--external", shlex.join(ECHO), "--pairs", str(pairs),
                 "--out", str(p / "s.tsv")]) == 0
    assert main(["eval", "--pairs", str(pairs), "--scores", str(p / "s.tsv"),
                 "--train-domain", "chat", "--eval-domain", "chat", "--condition", "ORIGINAL",
                 "--checkpoint", "500", "--out", str(p / "r.csv")]) == 0
    digests = {
        name: hashlib.sha256((p / name).read_bytes()).hexdigest()
        for name in ("pairs.jsonl", "s.tsv", "r.csv")
    }
    assert digests == {
        "pairs.jsonl": "d7361604f7f441352a7a2e0ce7e8ec9e5df5e11c471241bc7df115041d7884ec",
        "s.tsv": "f2aee2357583581784cb9c094fa16e7766403feccf6a61b831b0c9bb3a37786f",
        "r.csv": "0674a8af2e814333a46affab355fe12f049bd38522b80c9c9976f4d3f84fae4b",
    }
