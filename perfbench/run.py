#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of verbscope.

    python3 perfbench/run.py --workload grid-add-seed --seed 1 --seconds 50 --trace 0

Run from the root of a verbscope checkout; the program is imported from
``src/``. Workloads (see README.md for the reasons and input make-up):

* ``grid-add-seed``: ``verbscope run`` over 2 fixture domains x 3
  conditions x seeds 1,2,3 with one worker, then ``regress``, started from
  a seeds-1,2 run whose cache record of chat/REPLACE.WORD/seed1 was cut to
  half its bytes, as a kill during its write leaves it.
* ``checkpoint-sweep``: both domains' pair files scored through the
  external-scorer protocol (``verbscope.echo_scorer``) at 8 checkpoint
  labels, evaluated per checkpoint, then ``trajectory`` and ``plot``.

``--seed`` seeds the fixture corpora. A run sets up once, then repeats
whole rounds of the timed part while one more round, at the mean round
time so far, still ends within ``--seconds``. Every workload runs with one
worker. With ``--trace 0`` it prints the end-to-end metrics; with
``--trace 1`` the layer timers of ``child.py`` are on, and it prints the
per-layer metrics. The last line of standard output is one JSON object:
correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shlex
import shutil
import signal
import statistics
import subprocess
import sys
import time
import xml.etree.ElementTree as ElementTree
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402

GRID_TOKENS = 40_000  # per fixture domain; see README for why the grid is smaller
SWEEP_TOKENS = 100_000
DOMAINS = ("chat", "written")
SEEDS = "1,2,3"
CHECKPOINTS = ("250", "500", "1000", "2000", "4000", "8000", "16000", "32000")
CRASHED_CELL = ("chat", "replace-word", "seed1")  # today's cache record: <out>/chat/replace-word/seed1/cell.json

PER_LAYER = (
    ("scorer.score_s", "s"), ("scorer.sentences", "count"),
    ("scorer.events_per_s", "1/s"), ("scorer.distinct_ratio", "ratio"),
    ("scorer.pair_items_s", "s"), ("scorer.tsv_s", "s"),
    ("scorer.train_s", "s"), ("scorer.models_trained", "count"),
    ("scorer.train_tokens_per_s", "1/s"),
    ("perturb.busy_s", "s"), ("perturb.calls", "count"), ("perturb.tokens_per_s", "1/s"),
    ("experiment.cells", "count"), ("experiment.cells_reused", "count"),
    ("experiment.reuse_ratio", "ratio"), ("experiment.other_s", "s"),
    ("ingest.read_s", "s"), ("ingest.sentences", "count"), ("ingest.write_s", "s"),
    ("corpus.table_s", "s"), ("pairgen.gen_s", "s"), ("pairgen.pairs", "count"),
    ("pairgen.io_s", "s"), ("stats.compute_s", "s"),
    ("external.score_s", "s"), ("external.sentences", "count"),
    ("external.children", "count"), ("external.sentences_per_s", "1/s"),
    ("evaluate.busy_s", "s"), ("evaluate.pairs", "count"),
    ("analysis.trajectory_s", "s"), ("analysis.chart_s", "s"), ("analysis.ols_s", "s"),
    ("trace.run_s", "s"), ("trace.coverage", "ratio"),
)
END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB"), ("out_mb", "MB"))


class Bench:
    """Launches the program and measures each child process from outside."""

    def __init__(self, root: Path, work: Path, seed: int, trace: bool):
        self.work, self.seed, self.trace = work, seed, trace
        (work / "tmp").mkdir(parents=True)
        self.env = dict(
            os.environ,
            PYTHONPATH=str(root / "src"),
            PYTHONHASHSEED="0",
            TMPDIR=str(work / "tmp"),
        )
        self.problems: list[str] = []
        self._tag = 0

    def python(self, args) -> tuple[float, float]:
        """Run ``python args`` to completion; (wall seconds, peak RSS MB of its tree)."""
        self._tag += 1
        log = self.work / f"log{self._tag}.txt"
        with open(log, "wb") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args], env=self.env, stdout=fh, stderr=subprocess.STDOUT,
                start_new_session=True,
            )
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: stop the child and what it started
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
            raise RuntimeError(f"python {' '.join(map(str, args))} exited {proc.returncode}:\n{tail}")
        return wall, usage.ru_maxrss / 1024.0

    def fixtures(self, dest: Path, tokens: int) -> float:
        wall, _rss = self.python(
            ["-m", "verbscope.fixtures", "--out", dest, "--tokens", str(tokens), "--seed", str(self.seed)]
        )
        return wall

    def steps(self, steps, trace: bool = False):
        """Run CLI steps in one child; (wall s, peak RSS MB, child report)."""
        self._tag += 1
        plan = self.work / f"plan{self._tag}.json"
        report = self.work / f"report{self._tag}.json"
        plan.write_text(json.dumps({"trace": trace, "steps": steps}), encoding="utf-8")
        wall, rss = self.python([HERE / "child.py", plan, report])
        return wall, rss, json.loads(report.read_text(encoding="utf-8"))

    def check(self, label: str, problems) -> None:
        self.problems.extend(f"{label}: {p}" for p in problems)


def tree_mb(path: Path) -> float:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) / 1e6


def grid_steps(fx: Path, out: Path, seeds: str, regress: bool = True):
    corpora = []
    for d in DOMAINS:
        corpora += ["--corpus", f"{d}:{fx / d}.conllu:conllu"]
    steps = [{"cli": ["run", *corpora, "--seeds", seeds, "--threads", "1", "--out", str(out)]}]
    if regress:
        steps.append({"cli": ["regress", "--in", str(out / "results.csv"), "--out", str(out / "regress.csv")]})
    return steps


def manifest_cells(out: Path):
    """(cell key -> status, [cell, error] failures, domain -> pair file) from the manifest."""
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    return manifest["cells"], manifest["failures"], manifest["pairs_files"]


def row_key(r) -> tuple:
    return tuple(r[c] for c in ("train_domain", "eval_domain", "condition", "checkpoint", "paradigm", "accuracy", "n", "ties"))


def check_grid(bench: Bench, fx: Path, out: Path, failed_cells) -> None:
    """Every oracle and property check on one grid output directory."""
    cells, _failures, pairs_files = manifest_cells(out)
    rows = oracles.read_csv_rows(out / "results.csv")
    pairs = {d: oracles.read_pair_rows(pairs_files[d]) for d in DOMAINS}
    counts = {
        d: dict(Counter(r["paradigm"] for r in rs), ALL=len(rs)) for d, rs in pairs.items()
    }
    skip = {(c.split("/")[0], c.split("/")[1]) for c in failed_cells}
    bench.check("results.csv", oracles.check_grid_results(rows, counts, len(SEEDS.split(",")), skip))
    bench.check("cross_domain.csv", oracles.check_cross_domain(out / "cross_domain.csv"))
    bench.check("regress", oracles.check_regression(rows, oracles.read_csv_rows(out / "regress.csv")))
    with open(out / "rates.csv", encoding="utf-8", newline="") as fh:
        rates = list(csv.reader(fh))
    for d in DOMAINS:
        train = oracles.train_block(oracles.read_forms(fx / f"{d}.conllu"))
        bench.check(
            "perturb", oracles.check_perturb_reports(out / d, sum(map(len, train)), rates)
        )
        model = oracles.KneserNey(train)
        for seed in SEEDS.split(","):
            if cells.get(f"{d}/ORIGINAL/{seed}") != "ok":
                bench.problems.append(f"{d}/ORIGINAL/{seed} did not complete")
                continue
            for e in DOMAINS:
                tsv = out / d / "original" / f"seed{seed}" / f"scores-{e}.tsv"
                if not tsv.is_file():  # one shared ORIGINAL cell is a valid layout
                    tsv = next(iter(sorted((out / d / "original").rglob(f"scores-{e}.tsv"))), tsv)
                bench.check(f"Kneser-Ney {d}->{e}", oracles.check_kn_scores(model, tsv, pairs[e]))


def grid_round(bench: Bench, fx: Path, out: Path):
    """Timed part of a grid round: run + regress; returns the round record."""
    wall, rss, report = bench.steps(grid_steps(fx, out, SEEDS), trace=bench.trace)
    run_status, regress_status = report["status"]
    if run_status not in (0, 1) or regress_status != 0:
        raise RuntimeError(f"run exited {run_status}, regress exited {regress_status}")
    cells, failures, _pairs = manifest_cells(out)
    failed = sorted(c for c, s in cells.items() if s != "ok")
    if (run_status == 1) != bool(failed):
        bench.problems.append(f"run exited {run_status} with failed cells {failed}")
    return {
        "run_s": wall, "peak_rss_mb": rss, "out_mb": tree_mb(out),
        "attempted": len(cells), "failed": len(failed), "failed_names": failures,
        "failed_cells": failed, "report": report, "cells": cells,
    }


def crashed_record(out: Path) -> Path | None:
    """The cache record of chat/REPLACE.WORD/seed1 (see README)."""
    exact = out.joinpath(*CRASHED_CELL, "cell.json")
    if exact.is_file():
        return exact
    found = sorted(p for p in out.rglob("cell.json") if set(CRASHED_CELL) <= set(p.parts))
    return found[0] if found else None


def prepare_add_seed(bench: Bench) -> float:
    """Once per invocation: the seeds-1,2 output directory the user already
    has, with one record cut as a crash leaves it; returns its wall seconds.

    Then, untimed, a cold seed-3 run: with the seeds-1,2 run it gives every
    row of a cold seeds-1,2,3 grid, because cells are independent.
    """
    base = bench.work / "base"
    start = time.perf_counter()
    bench.fixtures(base / "fx", GRID_TOKENS)
    bench.steps(grid_steps(base / "fx", base / "prior", "1,2", regress=False))
    record = crashed_record(base / "prior")
    if record is None:
        print("no cache record found for chat/REPLACE.WORD/seed1; nothing truncated", file=sys.stderr)
    else:
        data = record.read_bytes()
        record.write_bytes(data[: len(data) // 2])
    setup = time.perf_counter() - start
    bench.cold_rows = oracles.read_csv_rows(base / "prior" / "results.csv")
    bench.steps(grid_steps(base / "fx", base / "seed3", "3", regress=False))
    bench.cold_rows += oracles.read_csv_rows(base / "seed3" / "results.csv")
    shutil.rmtree(base / "seed3")
    return setup


def grid_add_seed(bench: Bench, i: int):
    base, out = bench.work / "base", bench.work / "round" / "out"
    start = time.perf_counter()
    shutil.rmtree(out, ignore_errors=True)
    shutil.copytree(base / "prior", out)
    setup = time.perf_counter() - start
    rec = grid_round(bench, base / "fx", out)
    failed_cells = rec["failed_cells"]
    if i == 0:
        check_grid(bench, base / "fx", out, failed_cells)
    left = Counter(map(row_key, bench.cold_rows))
    left.subtract(Counter(map(row_key, oracles.read_csv_rows(out / "results.csv"))))
    extra = [k for k, n in left.items() if n < 0]
    missing = [k for k, n in left.items() if n > 0 for _ in range(n)]
    failed_pairs = {tuple(c.split("/")[:2]) for c in failed_cells}
    expected_all = sum(len(DOMAINS) if c.split("/")[1] == "ORIGINAL" else 1 for c in failed_cells)
    if extra:
        bench.problems.append(f"round {i}: rows not in the cold grid: {extra[:3]}")
    if any((k[0], k[2]) not in failed_pairs for k in missing) or sum(
        k[4] == "ALL" for k in missing
    ) != expected_all:
        bench.problems.append(f"round {i}: cold-grid rows missing beyond failed cells {failed_cells}: {missing[:3]}")
    return dict(rec, setup_s=setup)


def sweep_prep_steps(fx: Path, prep: Path):
    steps = []
    for d in DOMAINS:
        p = prep / d
        steps += [
            {"cli": ["ingest", "--in", str(fx / f"{d}.conllu"), "--split", "2/3,1/6,1/6", "--domain", d, "--out", str(p)]},
            {"cli": ["stats", "--in", str(p / "train.conllu"), "--save-table", str(p / "table.tsv")]},
            {"cli": ["genpairs", "semantic", "--test", str(p / "test.conllu"), "--table", str(p / "table.tsv"),
                     "--seed", "0", "--out", str(p / "semantic.jsonl")]},
            {"cli": ["genpairs", "agreement", "--train", str(p / "train.conllu"), "--seed", "0",
                     "--out", str(p / "agreement.jsonl")]},
            {"cat": [str(p / "semantic.jsonl"), str(p / "agreement.jsonl")], "out": str(p / "pairs.jsonl")},
        ]
    return steps


def prepare_sweep(bench: Bench) -> float:
    """Once per invocation: fixture corpora and both domains' pair files."""
    setup = bench.fixtures(bench.work / "fx", SWEEP_TOKENS)
    wall, _rss, report = bench.steps(sweep_prep_steps(bench.work / "fx", bench.work / "prep"))
    if any(report["status"]):
        raise RuntimeError(f"pair preparation failed: {report['status']}")
    return setup + wall


def checkpoint_sweep(bench: Bench, i: int):
    prep, out = bench.work / "prep", bench.work / "round" / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    echo = f"{shlex.quote(sys.executable)} -m verbscope.echo_scorer"
    steps, batches = [], []
    for c in CHECKPOINTS:
        for dom in DOMAINS:
            pairs, scores, res = prep / dom / "pairs.jsonl", out / f"scores-{c}-{dom}.tsv", out / f"results-{c}-{dom}.csv"
            batches.append((c, dom, len(steps)))
            steps += [
                {"cli": ["score", "--external", echo, "--pairs", str(pairs), "--out", str(scores)]},
                {"cli": ["eval", "--pairs", str(pairs), "--scores", str(scores), "--train-domain", dom,
                         "--eval-domain", dom, "--condition", "ORIGINAL", "--checkpoint", c, "--out", str(res)]},
            ]
    results = [str(out / f"results-{c}-{dom}.csv") for c, dom, _ in batches]
    steps += [
        {"cat": results, "out": str(out / "results.csv"), "skip_header": True},
        {"cli": ["trajectory", "--in", str(out / "results.csv"), "--out", str(out / "trajectory.csv")]},
        {"cli": ["plot", "--in", str(out / "trajectory.csv"), "--x", "checkpoint",
                 "--title", "echo scorer trajectory", "--out", str(out / "trajectory.svg")]},
    ]
    wall, rss, report = bench.steps(steps, trace=bench.trace)
    status = report["status"]
    failed = [f"{c}/{dom}" for c, dom, k in batches if status[k] or status[k + 1]]
    if any(status[len(batches) * 2:]):
        bench.problems.append(f"trajectory/plot exited {status[len(batches) * 2:]}")
    if i == 0:
        pair_rows = {dom: oracles.read_pair_rows(prep / dom / "pairs.jsonl") for dom in DOMAINS}
        for c, dom, _k in batches:
            if f"{c}/{dom}" not in failed:
                bench.check(f"echo {c}/{dom}", oracles.check_echo_results(
                    oracles.read_csv_rows(out / f"results-{c}-{dom}.csv"), pair_rows[dom], c))
        if not failed:
            bench.check("trajectory", oracles.check_trajectory(
                oracles.read_csv_rows(out / "trajectory.csv"), pair_rows.values(), CHECKPOINTS))
            svg = ElementTree.parse(out / "trajectory.svg").getroot()
            lines = svg.findall("{http://www.w3.org/2000/svg}polyline")
            if not svg.tag.endswith("svg") or len(lines) != 3:
                bench.problems.append(f"trajectory.svg has {len(lines)} polylines, expected 3")
    return {
        "setup_s": 0.0, "run_s": wall, "peak_rss_mb": rss, "out_mb": tree_mb(out),
        "attempted": len(batches), "failed": len(failed), "failed_names": failed,
        "report": report, "cells": {},
    }


# name -> (once-per-invocation set-up returning its wall seconds, one round)
WORKLOADS = {
    "grid-add-seed": (prepare_add_seed, grid_add_seed),
    "checkpoint-sweep": (prepare_sweep, checkpoint_sweep),
}


def layer_metrics(rec) -> dict[str, float]:
    layers = rec["report"]["layers"]

    def get(layer, key="s"):
        return layers.get(layer, {}).get(key, 0)

    def rate(num, den):
        return num / den if den else 0.0

    covered = sum(v["s"] for v in layers.values())
    ok = {tuple(c.split("/")) for c, s in rec["cells"].items() if s == "ok"}
    computed = {(d, c, str(s)) for d, c, s in rec["report"]["cells"]}
    cells = len(rec["cells"])
    reused = len(ok - computed)
    external_s = get("external.score") + get("external.wrap")
    return {
        "scorer.score_s": get("scorer.score"),
        "scorer.sentences": get("scorer.score", "sentences"),
        "scorer.events_per_s": rate(get("scorer.score", "events"), get("scorer.score")),
        "scorer.distinct_ratio": rate(get("scorer.score", "distinct"), get("scorer.score", "sentences")),
        "scorer.pair_items_s": get("scorer.pair_items"),
        "scorer.tsv_s": get("scorer.tsv"),
        "scorer.train_s": get("scorer.train"),
        "scorer.models_trained": get("scorer.train", "models"),
        "scorer.train_tokens_per_s": rate(get("scorer.train", "tokens"), get("scorer.train")),
        "perturb.busy_s": get("perturb"),
        "perturb.calls": get("perturb", "calls"),
        "perturb.tokens_per_s": rate(get("perturb", "tokens"), get("perturb")),
        "experiment.cells": cells,
        "experiment.cells_reused": reused,
        "experiment.reuse_ratio": rate(reused, cells),
        "experiment.other_s": rec["run_s"] - covered,
        "ingest.read_s": get("ingest.read"),
        "ingest.sentences": get("ingest.read", "sentences"),
        "ingest.write_s": get("ingest.write"),
        "corpus.table_s": get("corpus.table"),
        "pairgen.gen_s": get("pairgen.gen"),
        "pairgen.pairs": get("pairgen.gen", "pairs"),
        "pairgen.io_s": get("pairgen.io"),
        "stats.compute_s": get("stats.compute"),
        "external.score_s": external_s,
        "external.sentences": get("external.score", "sentences"),
        "external.children": get("external.score", "children"),
        "external.sentences_per_s": rate(get("external.score", "sentences"), external_s),
        "evaluate.busy_s": get("evaluate"),
        "evaluate.pairs": get("evaluate", "pairs"),
        "analysis.trajectory_s": get("analysis.trajectory"),
        "analysis.chart_s": get("analysis.chart"),
        "analysis.ols_s": get("analysis.ols"),
        "trace.run_s": rec["run_s"],
        "trace.coverage": rate(covered, rec["run_s"]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "verbscope" / "__init__.py").is_file():
        print("error: run from the root of a verbscope checkout (src/verbscope missing)", file=sys.stderr)
        return 2
    import test_oracles

    test_oracles.run_all()

    work = root / ".perfbench-work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    bench = Bench(root, work, args.seed, bool(args.trace))
    prepare, one_round = WORKLOADS[args.workload]
    rounds = []
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(143))
    try:
        setup_s = prepare(bench)
        start = time.perf_counter()
        # Whole rounds while the next one, at the mean round time so far, still
        # ends within --seconds: the run's length stays bounded.
        while True:
            rounds.append(one_round(bench, len(rounds)))
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(rounds) > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()

    for name in sorted({n if isinstance(n, str) else ": ".join(n) for r in rounds for n in r["failed_names"]}):
        print(f"failed operation (every round): {name}")
    for problem in bench.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if args.trace:
        per_round = [layer_metrics(rec) for rec in rounds]
        values = {name: statistics.median(r[name] for r in per_round) for name, _unit in PER_LAYER}
        names = PER_LAYER
    else:
        # run_s is the mean over rounds (see README); the others are medians.
        values = {
            "setup_s": setup_s + statistics.median(r["setup_s"] for r in rounds),
            "run_s": statistics.fmean(r["run_s"] for r in rounds),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
            "out_mb": statistics.median(r["out_mb"] for r in rounds),
        }
        names = END_TO_END
        per_round = " ".join(f"{r['run_s']:.3f}" for r in rounds)
        print(f"{args.workload} run_s per round: {per_round}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in names}
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']} ({len(rounds)} rounds)")
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
