"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion. Desk-scale numbers here are directional checks on the
bundled synthetic fixtures; published full-scale figures from neural runs
on real corpora are documentation targets, not assertions.
"""

import math
import time
import xml.etree.ElementTree as ET

import pytest

from verbscope.analysis import (
    design_matrix,
    emit_chart,
    ols_interaction,
    t_cdf,
    trajectory,
    two_sided_p,
)
from verbscope.corpus import Corpus, bin_index, build_frequency_table, tag_pair
from verbscope.evaluate import evaluate
from verbscope.ingest import split_corpus
from verbscope.pairgen import (
    AgreementLexicon,
    NounEntry,
    VerbEntry,
    gen_agreement_pairs,
    gen_semantic_pairs,
)
from verbscope.perturb import (
    ORIGINAL,
    REPLACE_WORD,
    SHUFFLE_ORDER,
    perturb_corpus,
)
from verbscope.scorer.ngram import train_ngram
from verbscope.tagger import heuristic_root

from conftest import score_pairs

SEEDS = (1, 2, 3)


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module", autouse=True)
def _suite_timer():
    start = time.time()
    yield
    print(f"\nacceptance suite wall time: {time.time() - start:.1f}s (target < 300s)")


@pytest.fixture(scope="module")
def domains(chat_fixture, written_fixture):
    """Split both fixtures and generate their evaluation pairs once."""
    out = {}
    for corpus in (chat_fixture, written_fixture):
        train, _dev, test = split_corpus(corpus)
        table = build_frequency_table(train)
        pairs = gen_semantic_pairs(test, table, seed=0)
        out[corpus.domain] = {
            "train": train,
            "test": test,
            "table": table,
            "pairs": pairs,
            "meta": {p.pair_id: p.paradigm for p in pairs},
        }
    return out


@pytest.fixture(scope="module")
def condition_accuracies(domains):
    """acc[domain][condition][seed] on in-domain semantic pairs, plus the
    2x2 cross-domain matrix from the unperturbed models."""
    acc: dict = {}
    cross: dict = {}
    for domain, data in domains.items():
        acc[domain] = {}
        for condition in (ORIGINAL, REPLACE_WORD, SHUFFLE_ORDER):
            acc[domain][condition] = {}
            for seed in SEEDS:
                perturbed, _report_ = perturb_corpus(
                    data["train"], condition, data["table"], seed=seed
                )
                lm = train_ngram(perturbed.form_view(), order=3)
                result = evaluate(score_pairs(lm, data["pairs"]), data["meta"])
                acc[domain][condition][seed] = result.accuracy
                if condition == ORIGINAL and seed == SEEDS[0]:
                    for eval_domain, eval_data in domains.items():
                        r = evaluate(
                            score_pairs(lm, eval_data["pairs"]), eval_data["meta"]
                        )
                        cross[(domain, eval_domain)] = r.accuracy
    return acc, cross


def test_criterion_1_perturbation_invariants(chat_fixture):
    start = time.time()
    corpus = chat_fixture
    assert len(corpus) >= 10_000
    table = build_frequency_table(corpus)
    replaced, _rep = perturb_corpus(corpus, REPLACE_WORD, table, seed=99)
    violations = 0
    for before, after in zip(corpus.sentences, replaced.sentences):
        if len(before) != len(after):
            violations += 1
            continue
        root = heuristic_root(before)
        for i, (b, a) in enumerate(zip(before.tokens, after.tokens)):
            if (b.upos, b.xpos) != (a.upos, a.xpos):
                violations += 1
            if i == root and b.form != a.form:
                violations += 1
            if b.form != a.form:
                up, xp = tag_pair(b)
                if bin_index(table.counts[(up, xp, a.form)]) != bin_index(
                    table.counts[(up, xp, b.form)]
                ):
                    violations += 1
                if b.upos not in ("NOUN", "ADJ", "ADV", "VERB"):
                    violations += 1
    shuffled, _rep = perturb_corpus(corpus, SHUFFLE_ORDER, seed=99)
    for before, after in zip(corpus.sentences, shuffled.sentences):
        if sorted(before.forms()) != sorted(after.forms()):
            violations += 1
    elapsed = time.time() - start
    _report(
        1,
        violations == 0 and elapsed < 30.0,
        f"{len(corpus)} sentences, {violations} violations, {elapsed:.1f}s (< 30s)",
    )


def test_criterion_2_run_determinism(tmp_path, fixture_dir):
    from verbscope.cli import main

    csv_names = ("results.csv", "summary.csv", "cross_domain.csv")
    outputs = {}
    for label, threads in (("a1", 1), ("b1", 1), ("a8", 8), ("b8", 8)):
        out = tmp_path / label
        status = main([
            "run",
            "--corpus", f"chat:{fixture_dir / 'chat.conllu'}:conllu",
            "--corpus", f"written:{fixture_dir / 'written.conllu'}:conllu",
            "--seeds", "1,2",
            "--threads", str(threads),
            "--out", str(out),
        ])
        assert status == 0
        blob = {name: (out / name).read_bytes() for name in csv_names}
        for domain in ("chat", "written"):
            blob[f"{domain}-pairs"] = (out / domain / "pairs" / "pairs.jsonl").read_bytes()
        outputs[label] = blob
    identical = all(outputs["a1"] == outputs[k] for k in ("b1", "a8", "b8"))
    _report(2, identical, "result CSVs and pair files byte-identical across "
                          "repeat runs at 1 and 8 threads")


def test_criterion_3_condition_ordering(condition_accuracies):
    acc, _cross = condition_accuracies
    lines = []
    ok = True
    for domain, by_condition in sorted(acc.items()):
        for seed in SEEDS:
            orig = by_condition[ORIGINAL][seed]
            repl = by_condition[REPLACE_WORD][seed]
            shuf = by_condition[SHUFFLE_ORDER][seed]
            gap1, gap2 = orig - repl, repl - shuf
            ok = ok and gap1 >= 0.02 and gap2 >= 0.02
            lines.append(
                f"{domain}/seed{seed}: {orig:.3f} > {repl:.3f} > {shuf:.3f}"
            )
    _report(3, ok, "; ".join(lines))


def test_criterion_4_cross_domain_sanity(condition_accuracies):
    _acc, cross = condition_accuracies
    domains = sorted({t for t, _e in cross})
    ok = True
    lines = []
    for t in domains:
        diag = cross[(t, t)]
        for e in domains:
            if e == t:
                continue
            off = cross[(t, e)]
            ok = ok and (diag - off >= 0.03)
            lines.append(f"{t}: diag {diag:.3f} vs {e} {off:.3f}")
    _report(4, ok, "; ".join(lines))


def test_criterion_5_ols_oracle():
    import numpy as np

    coeffs = {
        "intercept": 0.929,
        "d:bnc": -0.05, "d:candor": -0.02, "d:wikipedia": -0.07,
        "c:SHUFFLE.ORDER": -0.13,
        "i:bnc:SHUFFLE.ORDER": -0.032,
        "i:candor:SHUFFLE.ORDER": 0.005,
        "i:wikipedia:SHUFFLE.ORDER": -0.012,
    }
    obs = []
    for d in ("cdl", "candor", "bnc", "wikipedia"):
        for c in ("ORIGINAL", "SHUFFLE.ORDER"):
            y = (coeffs["intercept"] + coeffs.get(f"d:{d}", 0.0)
                 + coeffs.get(f"c:{c}", 0.0) + coeffs.get(f"i:{d}:{c}", 0.0))
            obs += [(y, d, c)] * 3
    result = ols_interaction(obs)
    by_term = dict(zip(result.terms, result.estimates))
    recovered = (
        abs(by_term["(Intercept)"] - 0.929) < 1e-9
        and abs(by_term["condition[SHUFFLE.ORDER]"] + 0.13) < 1e-9
        and abs(by_term["dataset[bnc]:condition[SHUFFLE.ORDER]"] + 0.032) < 1e-9
    )

    noisy = [(y + 0.01 * ((i % 3) - 1), d, c) for i, (y, d, c) in enumerate(obs)]
    X, y_vec, _terms, _ref = design_matrix(noisy)
    fit = ols_interaction(noisy)
    fitted = X @ np.array(fit.estimates)
    cells: dict = {}
    for (yy, d, c) in noisy:
        cells.setdefault((d, c), []).append(yy)
    means = {k: sum(v) / len(v) for k, v in cells.items()}
    saturated_ok = all(
        abs(f - means[(d, c)]) < 1e-10 for f, (_yy, d, c) in zip(fitted, noisy)
    )
    residuals = y_vec - fitted
    scale = max(1.0, float(np.abs(X.T @ y_vec).max()))
    ortho_ok = bool(np.all(np.abs(X.T @ residuals) / scale < 1e-8))

    t_ok = t_cdf(0.0, 5) == 0.5 and abs(two_sided_p(1.96, 1000) - 0.05) < 0.002
    _report(
        5,
        recovered and saturated_ok and ortho_ok and t_ok,
        f"recovery<=1e-9 {recovered}, saturated==cell-means {saturated_ok}, "
        f"orthogonality<=1e-8 {ortho_ok}, t_cdf(0)=0.5 and p(1.96,1000)~0.05 {t_ok}",
    )


def test_criterion_6_kn_normalization(domains):
    from verbscope.rng import Stream

    lm = train_ngram(domains["chat"]["train"].form_view(), order=3)
    symbol_ids = [lm.symbol_id(s) for s in lm.scorable_symbols()]
    stream = Stream(2024)
    worst = 0.0
    checked = 0
    for level in (1, 2, 3):
        contexts = lm.observed_contexts(level)
        picks = [contexts[stream.randbelow(len(contexts))] for _ in range(50)]
        for ctx in picks:
            total = sum(lm.prob_ids(w, ctx) for w in symbol_ids)
            worst = max(worst, abs(total - 1.0))
            checked += 1
    _report(
        6,
        worst < 1e-6,
        f"{checked} contexts (50 per order), max |sum - 1| = {worst:.2e} (< 1e-6)",
    )


def test_criterion_7_pair_contract(domains):
    bad = 0
    total = 0
    for data in domains.values():
        per_source: dict = {}
        for p in data["pairs"]:
            total += 1
            per_source[p.source_sentence_id] = per_source.get(p.source_sentence_id, 0) + 1
            if len(p.good) != len(p.bad) or not (10 <= len(p.good) <= 30):
                bad += 1
                continue
            diffs = [i for i, (g, b) in enumerate(zip(p.good, p.bad)) if g != b]
            if diffs != [p.diff_index]:
                bad += 1
                continue
            table = data["table"]
            xpos = p.meta["xpos"]
            orig = table.counts.get(("VERB", xpos, p.meta["original"]))
            sub = table.counts.get(("VERB", xpos, p.meta["substitute"]))
            if orig is None or sub is None or bin_index(orig) != bin_index(sub):
                bad += 1
        if per_source and max(per_source.values()) > 5:
            bad += 1

    lexicon = AgreementLexicon(
        nouns=(NounEntry("painter", "painter", "painters", 9),
               NounEntry("waiter", "waiter", "waiters", 6)),
        verbs=(VerbEntry("enjoy", "enjoys", "enjoy", 9),),
        preps=("in front of",),
    )
    wanted = False
    for seed in range(20):
        for p in gen_agreement_pairs(lexicon, ["agr-pp"], 3, seed=seed):
            if (" ".join(p.good) == "The painter in front of the waiter enjoys ."
                    and " ".join(p.bad) == "The painters in front of the waiter enjoys ."):
                wanted = True
    _report(
        7,
        bad == 0 and total > 0 and wanted,
        f"{total} semantic pairs all satisfy the contract; painter example "
        f"reproduced: {wanted}",
    )


def test_criterion_8_stats_oracle(chat_fixture):
    from verbscope.stats import compute_stats

    subset = Corpus(chat_fixture.sentences[:1000], domain="chat")
    stats = compute_stats(subset.form_view())

    seen = {1: set(), 2: set(), 3: set()}
    totals = {1: 0, 2: 0, 3: 0}
    tokens = 0
    for s in subset:
        forms = [t.form.lower() for t in s.tokens]
        tokens += len(forms)
        for n in (1, 2, 3):
            for i in range(len(forms) - n + 1):
                seen[n].add(tuple(forms[i:i + n]))
                totals[n] += 1
    exact = (
        stats.ttr_1 == len(seen[1]) / totals[1]
        and stats.ttr_2 == len(seen[2]) / totals[2]
        and stats.ttr_3 == len(seen[3]) / totals[3]
        and stats.avg_sentence_length == tokens / len(subset)
    )
    _report(
        8,
        exact,
        f"1k-sentence fixture TTRs and average length equal the brute-force "
        f"recount exactly (ttr_1={stats.ttr_1:.4f}); published full-scale "
        f"table values are data-dependent documentation targets",
    )


def test_criterion_9_external_protocol():
    import sys

    import verbscope.echo_scorer
    from verbscope.scorer.external import ExternalScorerError, external_score

    echo = [sys.executable, verbscope.echo_scorer.__file__]
    items = [(f"id{i}", "x " * (i + 1)) for i in range(8)]
    results = external_score(echo, items)
    echo_ok = all(results[i][0] == -float(len(t)) for i, t in items)

    failures = {}
    for mode, pattern in (
        ("positive", "positive logprob"),
        ("drop", "missing ids"),
        ("garbage", "not valid JSON"),
    ):
        try:
            external_score(echo + ["--mode", mode], items)
            failures[mode] = False
        except ExternalScorerError as exc:
            failures[mode] = pattern in str(exc)
    ok = echo_ok and all(failures.values())
    _report(
        9,
        ok,
        f"echo fixture reassembled out-of-order: {echo_ok}; malformed classes "
        f"raise documented errors: {failures}",
    )


def test_criterion_10_trajectory_and_chart(tmp_path):
    checkpoints = ["0.04", "0.5", "1", "3", "10", "20"]
    semantic = {c: min(0.95, 0.30 + 0.22 * i) for i, c in enumerate(checkpoints)}
    syntactic = {c: min(0.95, 0.10 + 0.15 * i) for i, c in enumerate(checkpoints)}
    table = trajectory(semantic, syntactic)
    ratios_ok = all(
        (row.syntactic == 0 and row.ratio is None)
        or math.isclose(row.ratio, row.semantic / row.syntactic)
        for row in table.rows
    )
    sem_first = (
        table.semantic_first_checkpoint is not None
        and table.syntactic_first_checkpoint is not None
        and float(table.semantic_first_checkpoint)
        < float(table.syntactic_first_checkpoint)
    )
    path = tmp_path / "trajectory.svg"
    emit_chart(
        {
            "semantic": [(float(c), semantic[c]) for c in checkpoints],
            "syntactic": [(float(c), syntactic[c]) for c in checkpoints],
        },
        path,
    )
    tree = ET.parse(path)  # raises if malformed
    polylines = tree.getroot().findall(".//{http://www.w3.org/2000/svg}polyline")
    _report(
        10,
        ratios_ok and sem_first and len(polylines) == 2,
        f"ratios correct: {ratios_ok}; semantic-first "
        f"{table.semantic_first_checkpoint} < {table.syntactic_first_checkpoint}; "
        f"SVG well-formed with {len(polylines)} polylines",
    )
