"""Correctness oracles computed apart from the program under test.

Everything here reads the benchmark's own inputs (the fixture CoNLL-U it
generated, the pair files as plain JSON) and recomputes what the program
should have written, with code that shares nothing with ``verbscope``:

* ``KneserNey``: interpolated Kneser-Ney with absolute discounting, counted
  from scratch, as the model is specified in the README's design notes.
* ``echo_accuracies``: the accuracy the reference external scorer
  (logprob = -len(text)) must produce on a pair file.
* ``ols_oracle``: a ``numpy.linalg.lstsq`` fit of a treatment-coded
  accuracy ~ dataset * condition design built here.

The ``check_*`` functions return a list of problems; empty means correct.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np

BOS = ("<bos>",)  # tuples never equal a form string
EOS = ("<eos>",)
UNK = ("<unk>",)
CONDITIONS = ("ORIGINAL", "REPLACE.WORD", "SHUFFLE.ORDER")
SPLIT = (Fraction(2, 3), Fraction(1, 6), Fraction(1, 6))


# -- inputs ------------------------------------------------------------------


def read_forms(path) -> list[list[str]]:
    """Sentences of a CoNLL-U file as lists of forms (ranges and empty nodes skipped)."""
    sentences, current = [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                if current:
                    sentences.append(current)
                current = []
            elif not line.startswith("#"):
                cols = line.split("\t")
                if "-" not in cols[0] and "." not in cols[0]:
                    current.append(cols[1])
    if current:
        sentences.append(current)
    return sentences


def train_block(sentences: list) -> list:
    """The train block of a contiguous 2/3, 1/6, 1/6 split, leftovers train-first."""
    n = len(sentences)
    sizes = [math.floor(f * n) for f in SPLIT]
    for i in range(n - sum(sizes)):
        sizes[i % 3] += 1
    return sentences[: sizes[0]]


def read_pair_rows(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def read_csv_rows(path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


# -- Kneser-Ney reference ----------------------------------------------------


class KneserNey:
    """Interpolated Kneser-Ney: raw counts at the top order, continuation
    counts below, fixed discount, uniform floor over forms + UNK + EOS."""

    def __init__(self, sentences, order: int = 3, discount: float = 0.75):
        self.order = order
        self.discount = discount
        self.vocab = {form for sent in sentences for form in sent}
        self.inv_vocab = 1.0 / (len(self.vocab) + 2)
        raw = {}
        for k in range(1, order + 1):
            grams = Counter()
            for sent in sentences:
                seq = [BOS] * (k - 1) + list(sent) + [EOS]
                for i in range(k - 1, len(seq)):
                    grams[tuple(seq[i - k + 1 : i + 1])] += 1
            raw[k] = grams
        self.counts = {order: raw[order]}
        for k in range(1, order):
            self.counts[k] = Counter(gram[1:] for gram in raw[k + 1])
        self.totals, self.types = {}, {}
        for k, table in self.counts.items():
            self.totals[k], self.types[k] = Counter(), Counter()
            for gram, c in table.items():
                self.totals[k][gram[:-1]] += c
                self.types[k][gram[:-1]] += 1

    def prob(self, word, context: tuple) -> float:
        p = self.inv_vocab
        for k in range(1, len(context) + 2):
            ctx = context[len(context) - k + 1 :]
            total = self.totals[k].get(ctx)
            if total is None:
                continue
            c = self.counts[k].get(ctx + (word,), 0)
            p = max(c - self.discount, 0.0) / total + (
                self.discount * self.types[k][ctx] / total
            ) * p
        return p

    def logprob(self, forms) -> float:
        events = [f if f in self.vocab else UNK for f in forms] + [EOS]
        context = (BOS,) * (self.order - 1)
        lp = 0.0
        for w in events:
            lp += math.log(self.prob(w, context))
            context = (context + (w,))[1:] if self.order > 1 else ()
        return lp


def read_score_tsv(path) -> dict[str, tuple[float, int]]:
    scores = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            sid, lp, ntok = line.rstrip("\n").split("\t")
            scores[sid] = (float(lp), int(ntok))
    return scores


def check_kn_scores(model: KneserNey, tsv_path, pair_rows, sample: int = 60) -> list[str]:
    """Rescore every len/sample-th pair and compare with a score TSV to 1e-9."""
    if not Path(tsv_path).is_file():
        return [f"missing score file {tsv_path}"]
    scores = read_score_tsv(tsv_path)
    problems = []
    step = max(1, len(pair_rows) // sample)
    for row in pair_rows[::step]:
        for member in ("good", "bad"):
            forms = row[member].split(" ")
            sid = f"{row['pair_id']}::{member}"
            if sid not in scores:
                problems.append(f"{tsv_path}: no score for {sid}")
                continue
            lp, ntok = scores[sid]
            expected = model.logprob(forms)
            if abs(lp - expected) > 1e-9 or ntok != len(forms) + 1:
                problems.append(
                    f"{tsv_path}: {sid} scored {lp!r}/{ntok}, reference "
                    f"{expected!r}/{len(forms) + 1}"
                )
    return problems


# -- echo scorer reference ---------------------------------------------------


def echo_tallies(pair_rows) -> dict[str, list[int]]:
    """paradigm -> [wins, ties, n] under logprob = -len(text); "ALL" pools them."""
    tallies: dict[str, list[int]] = {"ALL": [0, 0, 0]}
    for row in pair_rows:
        good, bad = -len(row["good"]), -len(row["bad"])
        for key in ("ALL", row["paradigm"]):
            t = tallies.setdefault(key, [0, 0, 0])
            t[0] += good > bad
            t[1] += good == bad
            t[2] += 1
    return tallies


def echo_accuracies(pair_rows) -> dict[str, tuple[float, int]]:
    return {
        p: ((w + 0.5 * t) / n, n) for p, (w, t, n) in echo_tallies(pair_rows).items()
    }


def check_echo_results(result_rows, pair_rows, checkpoint: str) -> list[str]:
    expected = echo_accuracies(pair_rows)
    got = {r["paradigm"]: r for r in result_rows}
    problems = []
    if set(got) != set(expected):
        problems.append(f"paradigms {sorted(got)} != {sorted(expected)}")
    for paradigm, (acc, n) in expected.items():
        row = got.get(paradigm)
        if row is None:
            continue
        if abs(float(row["accuracy"]) - acc) > 1e-12 or int(row["n"]) != n:
            problems.append(
                f"checkpoint {checkpoint} {paradigm}: {row['accuracy']}/{row['n']}, "
                f"echo oracle {acc!r}/{n}"
            )
        if row["checkpoint"] != checkpoint:
            problems.append(f"row labelled {row['checkpoint']!r}, expected {checkpoint!r}")
    return problems


def check_trajectory(traj_rows, pair_files, checkpoints) -> list[str]:
    """Semantic and syntactic accuracy pooled over domains, at every checkpoint."""
    sem, syn = [0.0, 0], [0.0, 0]
    for rows in pair_files:
        for paradigm, (w, t, n) in echo_tallies(rows).items():
            if paradigm == "semantic-verb":
                target = sem
            elif paradigm.startswith("agr-"):
                target = syn
            else:
                continue
            target[0] += w + 0.5 * t
            target[1] += n
    want_sem, want_syn = sem[0] / sem[1], syn[0] / syn[1]
    problems = []
    labels = [r["checkpoint"] for r in traj_rows]
    if labels != sorted(checkpoints, key=float):
        problems.append(f"trajectory checkpoints {labels}")
    for r in traj_rows:
        if abs(float(r["semantic_acc"]) - want_sem) > 1e-12 or abs(
            float(r["syntactic_acc"]) - want_syn
        ) > 1e-12:
            problems.append(
                f"trajectory at {r['checkpoint']}: {r['semantic_acc']}, "
                f"{r['syntactic_acc']}; echo oracle {want_sem!r}, {want_syn!r}"
            )
    return problems


# -- regression reference ----------------------------------------------------


def ols_oracle(observations, ref_dataset: str, ref_condition: str):
    """term -> (estimate, std error) for accuracy ~ dataset * condition."""
    datasets = sorted({d for _a, d, _c in observations} - {ref_dataset})
    conditions = sorted({c for _a, _d, c in observations} - {ref_condition})
    terms = (
        ["(Intercept)"]
        + [f"dataset[{d}]" for d in datasets]
        + [f"condition[{c}]" for c in conditions]
        + [f"dataset[{d}]:condition[{c}]" for d in datasets for c in conditions]
    )
    X = np.array(
        [
            [1.0]
            + [float(d == dl) for dl in datasets]
            + [float(c == cl) for cl in conditions]
            + [float(d == dl and c == cl) for dl in datasets for cl in conditions]
            for _a, d, c in observations
        ]
    )
    y = np.array([a for a, _d, _c in observations])
    beta, _res, _rank, _sv = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ beta
    dof = len(y) - len(terms)
    s2 = float(resid @ resid) / dof if dof > 0 else math.nan
    se = np.sqrt(np.maximum(np.diag(s2 * np.linalg.inv(X.T @ X)), 0.0))
    return {t: (float(b), float(s)) for t, b, s in zip(terms, beta, se)}


def check_regression(results_rows, coef_rows) -> list[str]:
    obs = [
        (float(r["accuracy"]), r["train_domain"], r["condition"])
        for r in results_rows
        if r["paradigm"] == "ALL" and r["eval_domain"] == r["train_domain"]
    ]
    datasets = sorted({d for _a, d, _c in obs})
    ref_dataset = "cdl" if "cdl" in datasets else datasets[0]
    expected = ols_oracle(obs, ref_dataset, "ORIGINAL")
    got = {r["term"]: (float(r["estimate"]), float(r["std_error"])) for r in coef_rows}
    if set(got) != set(expected):
        return [f"regression terms {sorted(got)} != {sorted(expected)}"]
    problems = []
    for term, (b, s) in expected.items():
        gb, gs = got[term]
        if abs(gb - b) > 1e-9 or abs(gs - s) > 1e-9 * max(1.0, abs(s)):
            problems.append(f"{term}: estimate {gb!r} se {gs!r}; lstsq {b!r} se {s!r}")
    return problems


# -- properties of the grid ----------------------------------------------------


def _cell_key(r):
    return (r["train_domain"], r["eval_domain"], r["condition"], r["paradigm"])


def check_grid_results(rows, pair_counts, n_seeds: int, skip=frozenset()) -> list[str]:
    """Condition order, ORIGINAL replicates and pair counts in results.csv.

    ``pair_counts`` maps eval domain -> paradigm -> pairs in its pair file
    ("ALL" included). ``skip`` names (domain, condition) cells with a failed
    replicate, whose row count is one short.
    """
    problems = []
    groups: dict[tuple, list] = {}
    for r in rows:
        groups.setdefault(_cell_key(r), []).append(r)
        want = pair_counts.get(r["eval_domain"], {}).get(r["paradigm"])
        if int(r["n"]) != want:
            problems.append(f"{_cell_key(r)}: n={r['n']} but the pair file has {want}")
    for key, members in groups.items():
        short = (key[0], key[2]) in skip
        if len(members) != n_seeds - short:
            problems.append(f"{key}: {len(members)} rows for {n_seeds} seeds")
        if key[2] == "ORIGINAL" and len({(m["accuracy"], m["ties"]) for m in members}) != 1:
            problems.append(f"{key}: ORIGINAL rows differ across seeds")
    for domain in sorted(pair_counts):
        acc = {
            c: [float(m["accuracy"]) for m in groups.get((domain, domain, c, "ALL"), [])]
            for c in CONDITIONS
        }
        if not all(acc.values()):
            problems.append(f"{domain}: missing conditions in {acc}")
            continue
        o, rw, so = acc["ORIGINAL"], acc["REPLACE.WORD"], acc["SHUFFLE.ORDER"]
        # every seed's pair of rows is ordered once the extremes are
        if min(o) - max(rw) < 0.02 or min(rw) - max(so) < 0.02:
            problems.append(f"{domain}: order violated: ORIGINAL {o}, REPLACE.WORD {rw}, SHUFFLE.ORDER {so}")
    return problems


def check_cross_domain(path) -> list[str]:
    with open(path, encoding="utf-8", newline="") as fh:
        table = list(csv.reader(fh))
    evals = table[0][1:]
    problems = []
    for row in table[1:]:
        if not row:
            break
        cells = dict(zip(evals, map(float, row[1:])))
        diag = cells[row[0]]
        for e, v in cells.items():
            if e != row[0] and diag - v < 0.03:
                problems.append(f"cross-domain {row[0]}: diagonal {diag} vs {e} {v}")
    return problems


def check_perturb_reports(domain_dir, train_tokens: int, rates_rows) -> list[str]:
    problems = []
    seen = Counter()
    rw_rates = set()
    for path in sorted(Path(domain_dir).rglob("perturb.json")):
        rep = json.loads(path.read_text(encoding="utf-8"))
        cond, total, replaced = rep["condition"], rep["tokens_total"], rep["tokens_replaced"]
        seen[cond] += 1
        if total != train_tokens:
            problems.append(f"{path}: {total} tokens, train split has {train_tokens}")
        if rep["replacement_rate"] != replaced / total:
            problems.append(f"{path}: rate {rep['replacement_rate']} != {replaced}/{total}")
        if cond != "REPLACE.WORD" and replaced:
            problems.append(f"{path}: {cond} replaced {replaced} tokens")
        if cond == "REPLACE.WORD":
            rw_rates.add(rep["replacement_rate"])
    if set(seen) != set(CONDITIONS):
        problems.append(f"{domain_dir}: perturb reports for {dict(seen)}")
    domain = Path(domain_dir).name
    for r in rates_rows:
        if r and r[0] == domain and float(r[2]) not in rw_rates:
            problems.append(f"rates.csv {domain}: {r[2]} matches no REPLACE.WORD report")
    return problems
