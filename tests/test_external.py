import os
import subprocess
import sys
from pathlib import Path

import pytest

import verbscope.echo_scorer
from verbscope.pairgen import MinimalPair
from verbscope.scorer.external import ExternalScorer, ExternalScorerError, external_score
from verbscope.scorer.scoring import score_pairs

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

    def test_unlaunchable_command(self):
        with pytest.raises(ExternalScorerError, match="could not launch"):
            external_score(["/definitely/not/a/binary"], _items(1))

    def test_duplicate_request_ids_rejected(self):
        with pytest.raises(ExternalScorerError, match="unique"):
            external_score(ECHO, [("same", "a"), ("same", "b")])
