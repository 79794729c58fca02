"""The benchmark's oracles on hand-computed toy inputs.

Run with ``python -m pytest perfbench/test_oracles.py``; ``run.py`` also
calls ``run_all`` before every measurement, so a broken oracle can never
certify a run.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402


def _close(a, b, tol=1e-12):
    return abs(a - b) <= tol


def test_kneser_ney_by_hand():
    # Sentences "a b" and "b", order 2, D = 0.5; vocabulary a, b, UNK, EOS.
    # Continuation counts a:1 b:2 EOS:1 (total 4, 3 types), so
    # p1(a) = 0.5/4 + 0.375/4 = 0.21875, p1(b) = 0.46875, p1(EOS) = 0.21875,
    # p1(UNK) = 0.09375; bigram contexts BOS (a:1 b:1), a (b:1), b (EOS:2).
    model = oracles.KneserNey([["a", "b"], ["b"]], order=2, discount=0.5)
    assert _close(model.prob("a", (oracles.BOS,)), 0.359375)
    assert _close(model.prob("b", ("a",)), 0.734375)
    assert _close(model.prob(oracles.EOS, ("b",)), 0.8046875)
    assert _close(model.prob(oracles.UNK, (oracles.BOS,)), 0.046875)
    assert _close(
        model.logprob(["a", "b"]),
        math.log(0.359375) + math.log(0.734375) + math.log(0.8046875),
    )
    # an unseen form scores as UNK, and the unseen context UNK backs off fully
    assert _close(model.logprob(["zz"]), math.log(0.046875) + math.log(0.21875))


def test_kneser_ney_distributions_sum_to_one():
    model = oracles.KneserNey([["a", "b", "c"], ["b", "c"], ["c", "a"]], order=3)
    events = ["a", "b", "c", oracles.UNK, oracles.EOS]
    for ctx in [(oracles.BOS, oracles.BOS), (oracles.BOS, "b"), ("b", "c"), ("c", "zz")]:
        assert _close(sum(model.prob(w, ctx) for w in events), 1.0)


def test_echo_accuracies_by_hand():
    rows = [
        {"paradigm": "semantic-verb", "good": "a bb", "bad": "a ccc"},  # 4 < 5: win
        {"paradigm": "semantic-verb", "good": "dd e", "bad": "f e"},  # 4 > 3: loss
        {"paradigm": "agr-simple", "good": "x y", "bad": "z y"},  # tie
        {"paradigm": "agr-simple", "good": "x y", "bad": "zz y"},  # win
    ]
    assert oracles.echo_accuracies(rows) == {
        "ALL": (0.625, 4),
        "semantic-verb": (0.5, 2),
        "agr-simple": (0.75, 2),
    }


def test_ols_by_hand():
    # cell means A/O 0.9, A/S 0.6, B/O 0.8, B/S 0.4, two replicates at +-0.01:
    # rss = 8e-4 on 4 df, so the intercept's standard error is sqrt(2e-4 / 2).
    obs = []
    for d, c, mean in [("A", "O", 0.9), ("A", "S", 0.6), ("B", "O", 0.8), ("B", "S", 0.4)]:
        obs += [(mean + 0.01, d, c), (mean - 0.01, d, c)]
    fit = oracles.ols_oracle(obs, "A", "O")
    assert list(fit) == ["(Intercept)", "dataset[B]", "condition[S]", "dataset[B]:condition[S]"]
    for term, want in zip(fit, (0.9, -0.1, -0.3, -0.1)):
        assert _close(fit[term][0], want, 1e-12)
    assert _close(fit["(Intercept)"][1], 0.01, 1e-12)


def test_split_rule_by_hand():
    # 10 sentences: floor(20/3) = 6, floor(10/6) = 1, 1; two leftovers go to
    # train then dev, so train is the first 7
    assert oracles.train_block(list(range(10))) == list(range(7))
    # 13: 8, 2, 2 and one leftover for train
    assert oracles.train_block(list(range(13))) == list(range(9))


def run_all() -> None:
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
