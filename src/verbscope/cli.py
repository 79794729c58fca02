"""verbscope command-line interface.

Subcommands: ingest, train-tagger, tag, stats, perturb, train-lm,
genpairs, score, eval, regress, trajectory, plot, run. Exit codes:
0 success, 1 failures, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import select
import sys
from contextlib import nullcontext
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .analysis import (
    emit_chart,
    format_regression,
    ols_interaction,
    read_series_csv,
    trajectory,
    write_regression_csv,
    write_trajectory_csv,
)
from .atomic import write_json
from .corpus import build_frequency_table, load_table, save_table
from .evaluate import ALL_ROW, Labels, evaluate, read_results_csv, result_rows, write_results_csv
from .experiment import ExperimentConfig, load_config, run_experiment
from .ingest import (
    FORMATS,
    SplitSpec,
    read_conllu,
    read_corpus,
    split_corpus,
    write_corpus,
)
from .pairgen import (
    AGREEMENT_PARADIGMS,
    SEMANTIC_PARADIGM,
    build_lemma_index,
    distinct_verb_lemmas,
    extract_agreement_lexicon,
    gen_agreement_pairs,
    gen_semantic_pairs,
    read_pairs,
    write_pairs,
)
from .perturb import CONDITIONS, REPLACE_WORD, condition_slug, perturb_corpus
from .scorer.external import ExternalScorer, ExternalScorerError
from .scorer.ngram import corpus_perplexity, load_lm, save_lm, train_ngram
from .scorer.scoring import Sentences, pair_items, read_pair_scores, score_sentences, write_scores
from .stats import compute_stats, format_stats, write_stats_csv
from .tagger import load_tagger, save_tagger, train_tagger

_CONDITION_FLAGS = {condition_slug(c): c for c in CONDITIONS}


def _cmd_ingest(args) -> int:
    tagger = load_tagger(args.tagger) if args.tagger else None
    corpus = read_corpus(args.infile, args.format, args.domain, tagger)
    out = Path(args.out)
    if args.split:
        out.mkdir(parents=True, exist_ok=True)
        spec = SplitSpec.parse(args.split)
        train, dev, test = split_corpus(
            corpus, spec, shuffle=args.shuffle_split, seed=args.seed
        )
        for name, part in (("train", train), ("dev", dev), ("test", test)):
            write_corpus(part, out / f"{name}.conllu", "conllu")
            print(f"{name}: {len(part)} sentences, {part.n_tokens} tokens")
    else:
        if out.is_dir():
            out = out / "corpus.conllu"
        write_corpus(corpus, out, "conllu")
        print(f"wrote {len(corpus)} sentences, {corpus.n_tokens} tokens to {out}")
    return 0


def _cmd_train_tagger(args) -> int:
    corpus = read_conllu(args.conllu)
    heldout = read_conllu(args.dev) if args.dev else None
    model = train_tagger(corpus, epochs=args.epochs, seed=args.seed, heldout=heldout)
    save_tagger(model, args.out)
    print(
        f"trained on {len(corpus)} sentences; "
        f"{model.accuracy_kind} accuracy {model.reported_accuracy:.4f}; "
        f"model -> {args.out}"
    )
    return 0


def _cmd_tag(args) -> int:
    tagged = read_corpus(args.infile, args.format, tagger=load_tagger(args.model))
    write_corpus(tagged, args.out, "conllu")
    print(f"tagged {len(tagged)} sentences -> {args.out}")
    return 0


def _cmd_stats(args) -> int:
    if args.save_table and len(args.infile) > 1:
        raise ValueError("--save-table works with a single --in corpus")
    named = {}
    paths: dict[str, str] = {}
    for path in args.infile:
        domain = Path(path).stem
        if domain in paths:
            raise ValueError(f"--in {paths[domain]} and --in {path} share the corpus name {domain!r}")
        paths[domain] = path
        corpus = read_corpus(path, args.format, domain)
        named[domain] = compute_stats(corpus.form_view())
        if args.save_table:
            save_table(build_frequency_table(corpus), args.save_table)
    print(format_stats(named))
    if args.out:
        write_stats_csv(named, args.out)
    return 0


def _cmd_perturb(args) -> int:
    condition = _CONDITION_FLAGS[args.condition]
    corpus = read_corpus(args.infile, args.format)
    table = None
    if args.table:
        table = load_table(args.table)
    elif condition == REPLACE_WORD:
        table = build_frequency_table(corpus)
        print("note: no --table given; using the input corpus's own table")
    out_corpus, report = perturb_corpus(
        corpus, condition, table, seed=args.seed,
        include_propn=args.include_propn,
        pin_final_punct=args.pin_final_punct,
    )
    write_corpus(out_corpus, args.out, args.out_format)
    if args.report:
        write_json(args.report, asdict(report))
    print(
        f"{condition}: {report.tokens_replaced}/{report.tokens_total} tokens "
        f"replaced (rate {report.replacement_rate:.4f}) -> {args.out}"
    )
    return 0


def _cmd_train_lm(args) -> int:
    corpus = read_corpus(args.infile, args.format)
    lm = train_ngram(
        corpus.form_view(), args.order, min_count_unk=args.min_count_unk,
        discount=args.discount,
    )
    save_lm(lm, args.out)
    print(
        f"order-{args.order} model over {len(lm.forms)} forms; "
        f"train perplexity {corpus_perplexity(lm, corpus):.2f} -> {args.out}"
    )
    return 0


def _cmd_genpairs(args) -> int:
    if args.kind == "semantic":
        if not args.table:
            raise ValueError("genpairs semantic requires --table")
        table = load_table(args.table)
        test_corpus = read_corpus(args.test, args.format)
        counters: dict = {}
        pairs = gen_semantic_pairs(
            test_corpus, table, max_alts=args.max_alts, len_min=args.len_min,
            len_max=args.len_max, seed=args.seed, counters=counters,
        )
        write_pairs(pairs, args.out)
        print(
            f"{len(pairs)} semantic pairs ({distinct_verb_lemmas(pairs)} distinct "
            f"verb lemmas) -> {args.out}; skipped {counters}"
        )
        return 0
    train_corpus = read_corpus(args.train, args.format)
    table = build_frequency_table(train_corpus)
    lexicon = extract_agreement_lexicon(
        table, build_lemma_index(train_corpus),
        pct_lo=args.pct_lo, pct_hi=args.pct_hi,
    )
    paradigms = args.paradigms.split(",") if args.paradigms else AGREEMENT_PARADIGMS
    pairs = gen_agreement_pairs(lexicon, paradigms, args.n, seed=args.seed)
    write_pairs(pairs, args.out)
    print(f"{len(pairs)} agreement pairs -> {args.out}")
    return 0


def _cmd_score(args) -> int:
    if bool(args.lm) == bool(args.external):
        raise ValueError("score needs exactly one of --lm or --external")
    if not args.pairs and not args.infile:
        raise ValueError("score needs --pairs or --in")
    # an external scorer's child starts now and loads while the input is read
    with (
        ExternalScorer(args.external, timeout=args.timeout) if args.external
        else nullcontext(load_lm(args.lm))
    ) as scorer:
        if args.pairs:
            batch = pair_items(read_pairs(args.pairs))
        else:
            corpus = read_corpus(args.infile, args.format)
            batch = Sentences((s.sentence_id, s.forms()) for s in corpus)
        logprobs, counts = score_sentences(scorer, batch)
    write_scores(batch.ids, logprobs, counts, args.out)
    print(f"scored {len(batch)} sentences -> {args.out}")
    return 0


def _cmd_eval(args) -> int:
    paradigms = {p.pair_id: p.paradigm for p in read_pairs(args.pairs)}
    scored = read_pair_scores(args.scores)
    labels = Labels(args.train_domain, args.eval_domain, args.condition, args.checkpoint)
    result = evaluate(scored, paradigms, labels)
    print(
        f"accuracy {result.accuracy:.4f} over {result.n_pairs} pairs "
        f"({result.n_ties} ties)"
    )
    for paradigm, (acc, n, _ties) in result.per_paradigm.items():
        print(f"  {paradigm:15s} {acc:.4f}  (n={n})")
    if args.out:
        write_results_csv(result_rows(result), args.out)
    return 0


def _cmd_regress(args) -> int:
    rows = read_results_csv(args.infile, ("train_domain", "condition", "accuracy"))
    conditions = set(args.conditions.split(",")) if args.conditions else None
    observations = []
    for r in rows:
        if r.get("paradigm", ALL_ROW) != ALL_ROW:
            continue
        if r.get("eval_domain") and r["eval_domain"] != r["train_domain"]:
            continue
        if conditions and r["condition"] not in conditions:
            continue
        observations.append((r["accuracy"], r["train_domain"], r["condition"]))
    result = ols_interaction(
        observations, ref_dataset=args.ref_dataset, ref_condition=args.ref_condition
    )
    print(format_regression(result))
    if args.out:
        write_regression_csv(result, args.out)
    return 0


def _cmd_trajectory(args) -> int:
    rows = read_results_csv(args.infile, ("paradigm", "accuracy", "n"))
    semantic: dict[str, list[tuple[float, int]]] = {}
    syntactic: dict[str, list[tuple[float, int]]] = {}
    for r in rows:
        checkpoint = r.get("checkpoint", "")
        if not checkpoint:
            continue
        if r.get("eval_domain") and r["eval_domain"] != r.get("train_domain"):
            continue
        try:
            float(checkpoint)
        except ValueError:
            raise ValueError(
                f"{args.infile}: checkpoint must be a number, got {checkpoint!r}"
            ) from None
        if r["paradigm"] == SEMANTIC_PARADIGM:
            semantic.setdefault(checkpoint, []).append((r["accuracy"], r["n"]))
        elif r["paradigm"].startswith("agr-"):
            syntactic.setdefault(checkpoint, []).append((r["accuracy"], r["n"]))
    def collapse(series):
        out = {}
        for label, vals in series.items():
            total = sum(n for _a, n in vals)
            out[label] = sum(a * n for a, n in vals) / total
        return out

    table = trajectory(collapse(semantic), collapse(syntactic), threshold=args.threshold)
    write_trajectory_csv(table, args.out)
    print(
        f"{len(table.rows)} checkpoints -> {args.out}; semantic reaches "
        f"{table.threshold} at {table.semantic_first_checkpoint}, "
        f"syntactic at {table.syntactic_first_checkpoint}"
    )
    return 0


def _cmd_plot(args) -> int:
    series = read_series_csv(args.infile, x_column=args.x)
    emit_chart(
        series, args.out, title=args.title, x_label=args.x or "",
        y_label=args.y_label,
    )
    print(f"chart with {len(series)} series -> {args.out}")
    return 0


def _cmd_run(args) -> int:
    overrides = {"out_dir": args.out, "threads": args.threads}
    if args.seeds:
        overrides["seeds"] = [int(s) for s in args.seeds.split(",")]
    if args.config:
        config = load_config(args.config, overrides)
    else:
        if not args.corpus:
            raise ValueError("run needs --config or at least one --corpus")
        if not args.out:
            raise ValueError("run needs --out")
        config = ExperimentConfig(
            corpora=args.corpus,
            **{k: v for k, v in overrides.items() if v is not None},
        )
    result = run_experiment(config)
    print(f"results -> {result.out_dir}/results.csv")
    print(result.summary(), file=sys.stderr)
    print(result.domain_summary(), file=sys.stderr)
    if result.failures:
        for cell, error in result.failures:
            print(f"FAILED {cell}: {error}", file=sys.stderr)
    return result.status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verbscope",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"verbscope {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="read, clean, split, and write a corpus")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--format", choices=FORMATS, default="conllu")
    p.add_argument("--tagger", help="tagger model for raw text")
    p.add_argument("--split", help="train,dev,test ratios, e.g. 10,2.5,2.5")
    p.add_argument("--shuffle-split", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--domain", default="")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("train-tagger", help="train the averaged-perceptron tagger")
    p.add_argument("--conllu", required=True)
    p.add_argument("--dev", help="held-out CoNLL-U for the reported accuracy")
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train_tagger)

    p = sub.add_parser("tag", help="tag a corpus with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--format", choices=FORMATS, default="text")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_tag)

    p = sub.add_parser("stats", help="descriptive corpus statistics")
    p.add_argument("--in", dest="infile", nargs="+", action="extend", required=True)
    p.add_argument("--format", choices=FORMATS, default="conllu")
    p.add_argument("--out", help="CSV output")
    p.add_argument("--save-table", help="also write the frequency table (TSV)")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("perturb", help="apply a training-data manipulation")
    p.add_argument("--condition", choices=tuple(_CONDITION_FLAGS), required=True)
    p.add_argument("--table", help="frequency table TSV (REPLACE.WORD)")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--format", choices=FORMATS, default="conllu")
    p.add_argument("--out", required=True)
    p.add_argument("--out-format", choices=("conllu", "text"), default="conllu")
    p.add_argument("--report", help="write the JSON perturbation report here")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--include-propn", action="store_true",
                   help="also replace proper nouns")
    p.add_argument("--pin-final-punct", action="store_true",
                   help="keep sentence-final punctuation in place when shuffling")
    p.set_defaults(func=_cmd_perturb)

    p = sub.add_parser("train-lm", help="train the Kneser-Ney n-gram model")
    p.add_argument("--order", type=int, default=3)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--format", choices=FORMATS, default="conllu")
    p.add_argument("--min-count-unk", type=int, default=1)
    p.add_argument("--discount", type=float, default=0.75)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train_lm)

    p = sub.add_parser("genpairs", help="generate minimal pairs")
    p.add_argument("kind", choices=("semantic", "agreement"))
    p.add_argument("--test", help="test-split corpus (semantic)")
    p.add_argument("--table", help="training frequency table TSV (semantic)")
    p.add_argument("--train", help="training corpus (agreement lexicon)")
    p.add_argument("--format", choices=FORMATS, default="conllu")
    p.add_argument("--max-alts", type=int, default=5)
    p.add_argument("--len-min", type=int, default=10)
    p.add_argument("--len-max", type=int, default=30)
    p.add_argument("--paradigms", help="comma list of agreement paradigms")
    p.add_argument("--n", type=int, default=100, help="pairs per paradigm")
    p.add_argument("--pct-lo", type=float, default=50.0)
    p.add_argument("--pct-hi", type=float, default=95.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_genpairs)

    p = sub.add_parser("score", help="score sentences or pairs")
    p.add_argument("--lm", help="native n-gram model file")
    p.add_argument("--external", help="external scorer command")
    p.add_argument("--timeout", type=float, default=300.0)
    p.add_argument("--pairs", help="pairs JSONL to score")
    p.add_argument("--in", dest="infile", help="corpus to score (if not --pairs)")
    p.add_argument("--format", choices=FORMATS, default="conllu")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("eval", help="pair accuracy from scores")
    p.add_argument("--pairs", required=True)
    p.add_argument("--scores", required=True)
    p.add_argument("--train-domain", default="")
    p.add_argument("--eval-domain", default="")
    p.add_argument("--condition", default="")
    p.add_argument("--checkpoint", default="")
    p.add_argument("--out", help="results CSV")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("regress", help="OLS accuracy ~ dataset * condition")
    p.add_argument("--in", dest="infile", required=True, help="results CSV")
    p.add_argument("--conditions", help="comma list to include")
    p.add_argument("--ref-dataset")
    p.add_argument("--ref-condition")
    p.add_argument("--out", help="coefficient CSV")
    p.set_defaults(func=_cmd_regress)

    p = sub.add_parser("trajectory", help="per-checkpoint semantic/syntactic table")
    p.add_argument("--in", dest="infile", required=True, help="results CSV")
    p.add_argument("--threshold", type=float, default=0.75)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_trajectory)

    p = sub.add_parser("plot", help="SVG line chart from a CSV")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--x", help="x column (default: first column)")
    p.add_argument("--title", default="")
    p.add_argument("--y-label", default="")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_plot)

    p = sub.add_parser("run", help="run the full experiment grid")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--config", help="flat config file")
    source.add_argument("--corpus", action="append",
                        help="domain:path[:format]; repeatable (alternative to --config)")
    p.add_argument("--seeds", help="comma list of seeds (overrides config)")
    p.add_argument("--threads", type=int,
                   help="worker processes for the grid's cells (overrides config; default 1)")
    p.add_argument("--out", help="output directory (overrides config)")
    p.set_defaults(func=_cmd_run)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return status
    except (ValueError, OSError, ExternalScorerError) as exc:
        if isinstance(exc, BrokenPipeError) and _stdout_gone():
            # as the Python docs' note on SIGPIPE does: say nothing, and
            # point stdout, dead for good, at os.devnull, so the flush at
            # exit does not fail again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _stdout_gone() -> bool:
    """Whether stdout is a pipe or socket whose reader has gone: ``poll``
    flags the writing end of one with POLLERR or POLLHUP."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # no descriptor, as under capture
        return False
    poller = select.poll()
    poller.register(fd, select.POLLOUT)
    return any(events & (select.POLLERR | select.POLLHUP) for _fd, events in poller.poll(0))


if __name__ == "__main__":
    sys.exit(main())
