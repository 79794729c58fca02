"""Run a list of verbscope CLI steps in one process, optionally timing layers.

    python perfbench/child.py PLAN.json REPORT.json

PLAN.json is {"trace": bool, "steps": [...]}; each step is either
{"cli": [argv...]}, run through ``verbscope.cli.main``, or
{"cat": [paths...], "out": path, "skip_header": bool}, the shell glue a
user would write between commands (concatenating pair files or result
CSVs). REPORT.json receives every step's exit status and, when tracing,
the busy time and counts of each layer.

Tracing wraps public functions from outside: each name in ``TARGETS`` is
replaced, in every loaded ``verbscope`` module that binds it, by a timer.
A layer's time is the self time of its calls (time spent in nested wrapped
calls is charged to their own layer). Spans are kept in memory and written
once at the end. The timers assume one worker: the benchmark always
passes ``--threads 1``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time


def _layer(name):
    return lambda bound, result: (name, {})


def _score(bound, result):
    scorer = bound.arguments["scorer"]
    if hasattr(scorer, "score_texts"):
        return "external.wrap", {}
    token_lists = [tuple(tokens) for _sid, tokens in bound.arguments["sentences"]]
    return "scorer.score", {
        "sentences": len(token_lists),
        "events": sum(len(t) + 1 for t in token_lists),
        "distinct": len(set(token_lists)),
    }


def _external(bound, result):
    return "external.score", {"sentences": len(bound.arguments["items"]), "children": 1}


def _train(bound, result):
    return "scorer.train", {"models": 1, "tokens": bound.arguments["corpus"].n_tokens}


def _perturb(bound, result):
    args = bound.arguments
    corpus, condition = args["corpus"], args["condition"]
    counts = {"calls": 1}
    if condition != "ORIGINAL":
        counts["tokens"] = corpus.n_tokens
    return "perturb", dict(counts, cell=[corpus.domain, condition, args["seed"]])


def _read(bound, result):
    return "ingest.read", {"sentences": len(result)}


def _gen(bound, result):
    return "pairgen.gen", {"pairs": len(result)}


def _evaluate(bound, result):
    return "evaluate", {"pairs": result.n_pairs}


# (module, public function, classifier) -> the layer a call is charged to.
TARGETS = [
    ("verbscope.scorer.scoring", "score_sentences", _score),
    ("verbscope.scorer.scoring", "pair_items", _layer("scorer.pair_items")),
    ("verbscope.scorer.scoring", "write_scores", _layer("scorer.tsv")),
    ("verbscope.scorer.scoring", "read_pair_scores", _layer("scorer.tsv")),
    ("verbscope.scorer.external", "external_score", _external),
    ("verbscope.scorer.ngram", "train_ngram", _train),
    ("verbscope.perturb", "perturb_corpus", _perturb),
    ("verbscope.ingest", "read_conllu", _read),
    ("verbscope.ingest", "read_plaintext", _read),
    ("verbscope.ingest", "read_chat", _read),
    ("verbscope.ingest", "split_corpus", _layer("ingest.read")),
    ("verbscope.ingest", "write_corpus", _layer("ingest.write")),
    ("verbscope.corpus", "build_frequency_table", _layer("corpus.table")),
    ("verbscope.corpus", "save_table", _layer("corpus.table")),
    ("verbscope.corpus", "load_table", _layer("corpus.table")),
    ("verbscope.pairgen", "gen_semantic_pairs", _gen),
    ("verbscope.pairgen", "gen_agreement_pairs", _gen),
    ("verbscope.pairgen", "extract_agreement_lexicon", _layer("pairgen.gen")),
    ("verbscope.pairgen", "build_lemma_index", _layer("pairgen.gen")),
    ("verbscope.pairgen", "write_pairs", _layer("pairgen.io")),
    ("verbscope.pairgen", "read_pairs", _layer("pairgen.io")),
    ("verbscope.stats", "compute_stats", _layer("stats.compute")),
    ("verbscope.stats", "compare_replacement_rates", _layer("stats.compute")),
    ("verbscope.stats", "write_stats_csv", _layer("stats.compute")),
    ("verbscope.stats", "write_rates_csv", _layer("stats.compute")),
    ("verbscope.evaluate", "evaluate", _evaluate),
    ("verbscope.evaluate", "result_rows", _layer("evaluate")),
    ("verbscope.evaluate", "write_results_csv", _layer("evaluate")),
    ("verbscope.evaluate", "cross_domain_matrix", _layer("evaluate")),
    ("verbscope.evaluate", "write_matrix_csv", _layer("evaluate")),
    ("verbscope.analysis", "ols_interaction", _layer("analysis.ols")),
    ("verbscope.analysis", "format_regression", _layer("analysis.ols")),
    ("verbscope.analysis", "write_regression_csv", _layer("analysis.ols")),
    ("verbscope.analysis", "trajectory", _layer("analysis.trajectory")),
    ("verbscope.analysis", "write_trajectory_csv", _layer("analysis.trajectory")),
    ("verbscope.analysis", "emit_chart", _layer("analysis.chart")),
    ("verbscope.analysis", "read_series_csv", _layer("analysis.chart")),
]


class Tracer:
    """Per-layer self time and counts of the wrapped calls."""

    def __init__(self):
        self.layers: dict[str, dict] = {}
        self.cells: list = []
        self._inner = [0.0]  # time spent in nested wrapped calls, per open span

    def wrap(self, fn, classify):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            self._inner.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                inner = self._inner.pop()
                self._inner[-1] += elapsed
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            layer, counts = classify(bound, result)
            record = self.layers.setdefault(layer, {"s": 0.0})
            record["s"] += elapsed - inner
            cell = counts.pop("cell", None)
            if cell is not None:
                self.cells.append(cell)
            for key, value in counts.items():
                record[key] = record.get(key, 0) + value
            return result

        return timed

    def install(self) -> None:
        """Replace every binding of each target in the loaded verbscope modules."""
        for module_name, attr, classify in TARGETS:
            fn = getattr(importlib.import_module(module_name), attr, None)
            if fn is None:
                continue  # renamed or removed: the layer reads 0
            wrapper = self.wrap(fn, classify)
            for name, module in list(sys.modules.items()):
                if module is None or not (name == "verbscope" or name.startswith("verbscope.")):
                    continue
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, wrapper)


def _cat(paths, out, skip_header) -> None:
    with open(out, "w", encoding="utf-8", newline="") as dst:
        for i, path in enumerate(paths):
            with open(path, encoding="utf-8", newline="") as src:
                lines = src.readlines()
            dst.writelines(lines[1:] if skip_header and i else lines)


def main(argv) -> int:
    plan_path, report_path = argv
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    from verbscope import cli

    tracer = Tracer()
    if plan["trace"]:
        tracer.install()
    statuses = []
    start = time.perf_counter()
    for step in plan["steps"]:
        if "cli" in step:
            statuses.append(cli.main(step["cli"]))
        else:
            _cat(step["cat"], step["out"], step.get("skip_header", False))
            statuses.append(0)
    report = {
        "status": statuses,
        "steps_s": time.perf_counter() - start,
        "layers": tracer.layers,
        "cells": tracer.cells,
    }
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
