"""One-command experiment runner.

For each (corpus, condition, seed) cell: split, build the frequency table
from the original training split, perturb the training split, train the
n-gram scorer on it, score minimal pairs generated once per domain from
the untouched test split, and evaluate. Perturbations apply to training
data only; evaluation pairs always come from the original test split, and
cross-domain scoring runs for ORIGINAL-condition models over every other
domain's pairs.

Cells perturb and train on a domain's form view (``Corpus.form_view``)
through the perturb plans that domain prep builds for the run's
conditions. A prepared domain keeps only those, its pairs and its stats:
its Token records are dropped once prep ends, and they are most of a
corpus's memory.

Cells run in forked worker processes, as many as ``threads`` (at least 1)
asks for, capped at the number of cache units and the CPU count; one
worker runs them in-process. The workers inherit the prepared domains
rather than receive them. The heap is frozen out of the cyclic GC
(``gc.freeze``) while the cells run, so full collections skip the
prepared domains. Every stage derives its randomness from (seed, index)
streams, so outputs are byte identical whatever the worker count.

The cache unit is what a run computes: (domain, condition, seed) for a
perturbed condition, and (domain, ORIGINAL) for the unperturbed one,
which draws on no seed and so serves the ORIGINAL cell of every seed.
Each unit has one directory, ``<domain>/<condition>/seed<N>/`` or
``<domain>/original/``, holding its ``cell.json`` record, its
``perturb.json`` and its score TSVs. The record is keyed over the inputs
that determine the unit: the config fields other than threads, out_dir,
seeds and conditions, plus the unit's condition and seed, the sha256
of the corpora it reads (its own for a perturbed cell, every prepared
domain's for ORIGINAL, which scores all their pairs), and
``CACHE_FORMAT``, bumped by hand whenever what a unit computes or stores
changes. ``_key`` builds that key and the manifest's ``config_hash``
alike, and keeps threads and out_dir out of both. Adding a seed or a
condition computes only the new units. A record that is missing,
unreadable or keyed differently is a cache miss, and every file is
written whole or not at all (``atomic``); the JSON files go through
``atomic.write_json``. ``original/seed<N>/`` directories that earlier
versions wrote are neither read nor removed.

Results stay typed rows (``evaluate.result_rows``) from the cell to the
files: ``cell.json`` stores them with ``accuracy`` as a JSON number,
``results.csv`` goes through ``evaluate.write_results_csv``, and each
``cross_domain.csv`` cell is the mean of the ORIGINAL seeds' ALL rows for
its (train, eval) domains.

Config files are flat key = value text (a TOML subset, parsed in-package):
strings quoted, booleans true/false, numbers bare, lists in brackets.
Corpora are "domain:path:format" strings. Full-line comments start with #.
"""

from __future__ import annotations

import gc
import hashlib
import json
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from . import __version__
from .atomic import write_csv, write_json
from .corpus import Forms, build_frequency_table, save_table
from .evaluate import (
    ALL_ROW,
    Labels,
    cross_domain_matrix,
    evaluate,
    result_rows,
    write_matrix_csv,
    write_results_csv,
)
from .ingest import (
    DEFAULT_SPLIT,
    FORMATS,
    SplitSpec,
    read_corpus,
    split_corpus,
    write_corpus,
)
from .pairgen import (
    AGREEMENT_PARADIGMS,
    build_lemma_index,
    distinct_verb_lemmas,
    extract_agreement_lexicon,
    gen_agreement_pairs,
    gen_semantic_pairs,
    write_pairs,
)
from .perturb import (
    CONDITIONS,
    ORIGINAL,
    REPLACE_WORD,
    PerturbReport,
    condition_slug,
    perturb_forms,
    perturb_plan,
)
from .scorer.ngram import save_lm, train_ngram
from .scorer.scoring import pair_items, score_sentences, scored_pairs, write_scores
from .stats import compare_replacement_rates, compute_stats, write_rates_csv, write_stats_csv


@dataclass(frozen=True)
class CorpusSpec:
    domain: str
    path: str
    format: str = "conllu"

    def __post_init__(self):
        if self.format not in FORMATS:
            raise ValueError(f"unknown corpus format {self.format!r}")
        # the domain names the run's directory for it, so it must be one plain name
        if self.domain in ("", ".", "..") or any(c in self.domain for c in "/\\:"):
            raise ValueError(
                f"corpus spec {self.domain}:{self.path}:{self.format}: domain {self.domain!r}"
                " must be a directory name, not empty, '.' or '..', without '/', '\\' or ':'"
            )

    @classmethod
    def parse(cls, text: str) -> "CorpusSpec":
        parts = text.rsplit(":", 2) if text.count(":") >= 2 else text.split(":")
        if len(parts) == 2:
            return cls(parts[0], parts[1])
        if len(parts) == 3:
            return cls(parts[0], parts[1], parts[2])
        raise ValueError(f"corpus spec {text!r} is not domain:path[:format]")


@dataclass
class ExperimentConfig:
    corpora: list
    out_dir: str
    conditions: list = field(default_factory=lambda: list(CONDITIONS))
    seeds: list = field(default_factory=lambda: [1])
    lm_order: int = 3
    discount: float = 0.75
    min_count_unk: int = 1
    max_alts: int = 5
    len_min: int = 10
    len_max: int = 30
    n_per_paradigm: int = 100
    pair_seed: int = 0
    split: str = "2/3,1/6,1/6"
    shuffle_split: bool = False
    include_propn: bool = False
    pin_final_punct: bool = False
    agreement: bool = True
    threads: int = 1
    keep_models: bool = False

    def __post_init__(self):
        self.corpora = _corpus_specs(self.corpora)
        for name in ("corpora", "conditions", "seeds", "threads"):
            _check_field(name, getattr(self, name))

    def split_spec(self) -> SplitSpec:
        return SplitSpec.parse(self.split) if self.split else DEFAULT_SPLIT


def _corpus_specs(corpora: list) -> list:
    return [c if isinstance(c, CorpusSpec) else CorpusSpec.parse(c) for c in corpora]


_SINGULAR = {"corpora": "corpus", "conditions": "condition", "seeds": "seed"}


def _check_field(name: str, value) -> None:
    """Raise ValueError if ``value`` is not a valid value of config field ``name``."""
    if name in _SINGULAR and not value:
        raise ValueError(f"config needs at least one {_SINGULAR[name]}")
    if name == "corpora":
        domains = [c.domain for c in _corpus_specs(value)]
        if len(set(domains)) != len(domains):
            raise ValueError("corpus domains must be unique")
    elif name == "conditions":
        unknown = [c for c in value if c not in CONDITIONS]
        if unknown:
            raise ValueError(f"unknown condition {unknown[0]!r}")
    elif name == "threads" and value < 1:
        raise ValueError(f"threads must be >= 1, got {value}")
    if name in ("conditions", "seeds") and len(set(value)) != len(value):
        raise ValueError(f"{name} must not repeat, got {value}")


_LIST_ITEMS = {"corpora": "str", "conditions": "str", "seeds": "int"}


def parse_flat_config(text: str, source: str = "config") -> dict:
    """Parse the flat key = value config dialect into ExperimentConfig fields.

    An unknown, repeated, wrongly typed or invalid key is an error naming
    ``source`` and the line.
    """
    types = {f.name: f.type for f in fields(ExperimentConfig)}
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{source}: line {lineno}"
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep:
            raise ValueError(f"{where}: expected key = value")
        if key not in types:
            raise ValueError(f"{where}: unknown key {key!r}")
        if key in out:
            raise ValueError(f"{where}: {key} is set twice")
        out[key] = _parse_value(value.strip(), where)
        want, got = types[key], type(out[key]).__name__
        if got != want and (want, got) != ("float", "int"):
            raise ValueError(f"{where}: {key} must be {want}, got {got} {out[key]!r}")
        if got == "list":
            item = _LIST_ITEMS[key]
            wrong = [v for v in out[key] if type(v).__name__ != item]
            if wrong:
                raise ValueError(f"{where}: {key} must hold {item}s, got {wrong[0]!r}")
        try:
            _check_field(key, out[key])
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    return out


def _parse_value(text: str, where: str):
    if text.startswith("[") and text.endswith("]"):
        inner = text[1:-1].strip()
        if not inner:
            return []
        return [_parse_value(part.strip(), where) for part in inner.split(",")]
    if text.startswith('"') and text.endswith('"') and len(text) >= 2:
        return text[1:-1]
    if text in ("true", "false"):
        return text == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{where}: cannot parse value {text!r}")


def load_config(path, overrides: dict | None = None) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        values = parse_flat_config(fh.read(), str(path))
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})
    missing = [key for key in ("corpora", "out_dir") if key not in values]
    if missing:
        raise ValueError(f"{path}: {' and '.join(missing)} not set (out_dir may come from --out)")
    return ExperimentConfig(**values)


def _sha256(path) -> str:
    if not Path(path).exists():
        return "missing"
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _key(config: ExperimentConfig, drop=(), **extra) -> str:
    """sha256 of the config's fields but ``drop``, with ``extra`` set over them.

    threads and out_dir never enter a key: where and how the work is
    scheduled must not change what it computes.
    """
    payload = asdict(config)
    for name in ("threads", "out_dir", *drop):
        payload.pop(name)
    payload.update(extra)
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=str).encode()
    ).hexdigest()


# Bump by hand with any change to the rows, report or files a unit computes,
# or to its record's layout: every record of an older format is then a miss.
# 2: a row's accuracy is a JSON number, not its repr string.
CACHE_FORMAT = 2


def _unit(cell: tuple) -> tuple:
    """The cache unit of a cell: ORIGINAL draws on no seed, so its unit has none."""
    domain, condition, seed = cell
    return (domain, condition, None if condition == ORIGINAL else seed)


def _unit_key(config: ExperimentConfig, shas: dict, unit: tuple, prepared) -> str:
    """Cache key of one unit: the inputs that determine its rows and report.

    Corpora enter by content, not path: a perturbed cell reads its own
    corpus, ORIGINAL the pairs of every prepared domain too.
    """
    domain, condition, _seed = unit
    read = prepared if condition == ORIGINAL else (domain,)
    corpora = [
        {"domain": c.domain, "format": c.format, "sha256": shas[c.domain]}
        for c in config.corpora
        if c.domain in read
    ]
    return _key(
        config, drop=("seeds", "conditions"), corpora=corpora, cell=list(unit),
        cache_format=CACHE_FORMAT,
    )


def _cell_name(cell: tuple) -> str:
    return "/".join(map(str, cell))


def _unit_dir(out: Path, unit: tuple) -> Path:
    domain, condition, seed = unit
    cond_dir = out / domain / condition_slug(condition)
    return cond_dir if seed is None else cond_dir / f"seed{seed}"


@dataclass
class ExperimentResult:
    status: int
    out_dir: Path
    failures: list
    results: list
    cells: list  # every (domain, condition, seed) of the run
    computed: list  # the cells this run computed
    shared: list  # cells whose unit this run computed for another cell
    failed: list  # cells that failed, or whose domain did

    def summary(self) -> str:
        cached = len(self.cells) - len(self.computed) - len(self.shared) - len(self.failed)
        return (
            f"{len(self.cells)} cells: {len(self.computed)} computed, "
            f"{len(self.shared)} shared, {cached} cached, {len(self.failed)} failed"
        )


@dataclass
class _DomainData:
    forms: Forms  # the train split as form tuples: what cells perturb and train on
    plans: dict  # condition -> its perturb plan, or the ValueError building it raised
    pairs: list
    pairs_meta: dict
    pairs_path: Path
    stats: object


def _prepare_domain(config: ExperimentConfig, spec: CorpusSpec, out: Path) -> _DomainData:
    ddir = out / spec.domain
    (ddir / "splits").mkdir(parents=True, exist_ok=True)
    (ddir / "pairs").mkdir(parents=True, exist_ok=True)
    corpus = read_corpus(spec.path, spec.format, spec.domain)
    train, dev, test = split_corpus(
        corpus, config.split_spec(), shuffle=config.shuffle_split,
        seed=config.pair_seed,
    )
    for name, part in (("train", train), ("dev", dev), ("test", test)):
        write_corpus(part, ddir / "splits" / f"{name}.conllu", "conllu")
    table = build_frequency_table(train)
    save_table(table, ddir / "table.tsv")

    counters: dict = {}
    pairs = gen_semantic_pairs(
        test, table, max_alts=config.max_alts, len_min=config.len_min,
        len_max=config.len_max, seed=config.pair_seed, counters=counters,
    )
    agreement_note = ""
    if config.agreement:
        try:
            lexicon = extract_agreement_lexicon(table, build_lemma_index(train))
            pairs += gen_agreement_pairs(
                lexicon, AGREEMENT_PARADIGMS, config.n_per_paradigm,
                seed=config.pair_seed,
            )
        except ValueError as exc:
            agreement_note = str(exc)
    pairs_path = ddir / "pairs" / "pairs.jsonl"
    write_pairs(pairs, pairs_path)
    counters["semantic_verb_lemmas"] = distinct_verb_lemmas(pairs)
    if agreement_note:
        counters["agreement_skipped"] = agreement_note
    write_json(ddir / "pairs" / "genreport.json", counters)
    plans = {}
    for condition in config.conditions:
        try:
            plans[condition] = perturb_plan(
                train, condition, table, config.include_propn, config.pin_final_punct
            )
        except ValueError as exc:  # fails the condition's cells, not the domain
            plans[condition] = exc
    return _DomainData(
        forms=train.form_view(), plans=plans, pairs=pairs,
        pairs_meta={p.pair_id: p.paradigm for p in pairs},
        pairs_path=pairs_path, stats=compute_stats(train),
    )


def _run_unit(config: ExperimentConfig, domains: dict, unit: tuple, out: Path):
    """Compute one unit; returns (eval rows, replacement report dict)."""
    domain, condition, seed = unit
    unit_dir = _unit_dir(out, unit)
    unit_dir.mkdir(parents=True, exist_ok=True)
    data: _DomainData = domains[domain]

    plan = data.plans[condition]
    if isinstance(plan, ValueError):
        raise plan
    perturbed, report = perturb_forms(data.forms, condition, plan, seed)
    lm = train_ngram(
        perturbed, config.lm_order, min_count_unk=config.min_count_unk,
        discount=config.discount,
    )
    if config.keep_models:
        save_lm(lm, unit_dir / "lm.txt")

    rows: list[dict] = []
    for eval_domain in sorted(domains):
        if eval_domain != domain and condition != ORIGINAL:
            continue  # cross-domain check runs on unperturbed models only
        pairs = domains[eval_domain].pairs
        scores = score_sentences(lm, pair_items(pairs))
        write_scores(scores, unit_dir / f"scores-{eval_domain}.tsv")
        result = evaluate(
            scored_pairs(pairs, scores),
            domains[eval_domain].pairs_meta,
            Labels(domain, eval_domain, condition),
        )
        rows.extend(result_rows(result))
    return rows, asdict(report)


def _load_record(out: Path, unit: tuple, key: str) -> dict | None:
    """The unit's cache record if it is whole and keyed ``key``, else None."""
    try:
        with open(_unit_dir(out, unit) / "cell.json", encoding="utf-8") as fh:
            record = json.load(fh)
    except (OSError, ValueError):  # missing, unreadable or cut short: a miss
        return None
    return record if isinstance(record, dict) and record.get("key") == key else None


def _write_record(out: Path, unit: tuple, key: str, rows, report: dict):
    """A unit's perturb.json, then its cell.json."""
    unit_dir = _unit_dir(out, unit)
    PerturbReport(**report)  # refuse to store a report that fails its checks
    write_json(unit_dir / "perturb.json", report)
    write_json(unit_dir / "cell.json", {"key": key, "rows": rows, "report": report})


def _write_summary_csv(rows: list[dict], path) -> None:
    """Mean accuracy over seeds per (train, eval, condition, paradigm)."""
    groups: dict[tuple, list] = {}
    for r in rows:
        key = (r["train_domain"], r["eval_domain"], r["condition"], r["paradigm"])
        groups.setdefault(key, []).append((r["accuracy"], r["n"]))
    write_csv(path, [("train_domain", "eval_domain", "condition", "paradigm",
                      "mean_accuracy", "n_seeds", "n_pairs")] + [
        [*key, sum(a for a, _n in vals) / len(vals), len(vals), vals[0][1]]
        for key, vals in sorted(groups.items())
    ])


def _settle(config: ExperimentConfig, domains: dict, out: Path, unit: tuple, key: str):
    """Rows and report of one unit, and whether this run computed them."""
    record = _load_record(out, unit, key)
    if record is not None:
        return record["rows"], record["report"], False
    rows, report = _run_unit(config, domains, unit, out)
    _write_record(out, unit, key, rows, report)
    return rows, report, True


def _attempt(config: ExperimentConfig, domains: dict, out: Path, unit_key: tuple):
    """``_settle`` the unit; a failure aborts the unit, not the run, and
    comes back as its message, which pickles where an exception may not."""
    try:
        return _settle(config, domains, out, *unit_key)
    except Exception as exc:
        return str(exc)


_adopted: tuple = ()  # a forked worker's (config, domains, out), set once at start


def _adopt(*job) -> None:
    global _adopted
    _adopted = job


def _attempt_adopted(unit_key: tuple):
    return _attempt(*_adopted, unit_key)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    shas = {spec.domain: _sha256(spec.path) for spec in config.corpora}

    domains: dict[str, _DomainData] = {}
    failures: list[tuple[str, str]] = []
    for spec in config.corpora:
        try:
            domains[spec.domain] = _prepare_domain(config, spec, out)
        except Exception as exc:  # domain prep failure takes down its cells only
            failures.append((spec.domain, str(exc)))

    cells = [
        (spec.domain, condition, seed)
        for spec in config.corpora
        for condition in config.conditions
        for seed in config.seeds
    ]
    first_cell: dict[tuple, tuple] = {}  # unit -> the cell that computes it
    for cell in cells:
        if cell[0] in domains:
            first_cell.setdefault(_unit(cell), cell)
    keys = {unit: _unit_key(config, shas, unit, domains) for unit in first_cell}

    workers = min(config.threads, len(keys), os.cpu_count() or 1)
    job = (config, domains, out)
    # The prepared domains live through the run: full collections skip them,
    # and forked workers do not touch (and so copy) their pages
    gc.freeze()
    try:
        if workers > 1:  # forked workers inherit the job; only units and outcomes pickle
            with ProcessPoolExecutor(
                max_workers=workers, mp_context=multiprocessing.get_context("fork"),
                initializer=_adopt, initargs=job,
            ) as pool:
                outcomes = list(pool.map(_attempt_adopted, keys.items()))
        else:
            outcomes = [_attempt(*job, unit_key) for unit_key in keys.items()]
    finally:
        gc.unfreeze()
    outcome_of = dict(zip(keys, outcomes))

    all_rows: list[dict] = []
    reports: dict[str, dict] = {}
    computed: list[tuple] = []
    shared: list[tuple] = []
    failed: list[tuple] = []
    for cell in cells:
        domain, condition, _seed = cell
        if domain not in domains:  # its domain's failure is already logged
            failed.append(cell)
            continue
        unit = _unit(cell)
        outcome = outcome_of[unit]
        if isinstance(outcome, str):
            failures.append((_cell_name(cell), outcome))
            failed.append(cell)
            continue
        rows, report, fresh = outcome
        all_rows.extend(rows)
        if fresh:
            (computed if cell == first_cell[unit] else shared).append(cell)
        if condition == REPLACE_WORD and domain not in reports:
            reports[domain] = report

    write_results_csv(all_rows, out / "results.csv")
    _write_summary_csv(all_rows, out / "summary.csv")

    cross = [
        (r["train_domain"], r["eval_domain"], r["accuracy"])
        for r in all_rows
        if r["condition"] == ORIGINAL and r["paradigm"] == ALL_ROW
    ]
    if cross:
        write_matrix_csv(cross_domain_matrix(cross), out / "cross_domain.csv")

    write_stats_csv({d: data.stats for d, data in domains.items()}, out / "stats.csv")
    if reports:
        table = compare_replacement_rates(
            {d: PerturbReport(**r) for d, r in reports.items()},
            {d: data.stats for d, data in domains.items()},
        )
        write_rates_csv(table, out / "rates.csv")

    manifest = {
        "package_version": __version__,
        "config": {
            **{k: v for k, v in asdict(config).items() if k != "corpora"},
            "corpora": [asdict(c) for c in config.corpora],
        },
        "config_hash": _key(config, corpus_files=shas),
        "cells": {_cell_name(c): "failed" if c in failed else "ok" for c in cells},
        "failures": sorted(failures),
        "pairs_files": {d: str(data.pairs_path) for d, data in domains.items()},
    }
    write_json(out / "manifest.json", manifest)

    return ExperimentResult(
        status=1 if failures else 0,
        out_dir=out,
        failures=failures,
        results=all_rows,
        cells=cells,
        computed=computed,
        shared=shared,
        failed=failed,
    )
