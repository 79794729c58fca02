"""One-command experiment runner.

For each (corpus, condition, seed) cell: split, build the frequency table
from the original training split, perturb the training split, train the
n-gram scorer on it, score minimal pairs generated once per domain from
the untouched test split, and evaluate. Perturbations apply to training
data only; evaluation pairs always come from the original test split, and
cross-domain scoring runs for ORIGINAL-condition models over every other
domain's pairs.

Domain prep encodes the train split once as an int32 id array over its
sorted forms (``Corpus.form_view``), builds the perturb plan of every
condition as arrays, and keeps its pairs' members as one batch
(``scoring.Sentences``: their ids, each distinct member encoded once). A
cell perturbs that id array, trains on it and scores the batch, all as
array work. A domain without pairs fails at prep, alone.

Prep's product is the domain's prep record, ``<domain>/prep.npz``: one
zip of ``.npy`` arrays and one ``strings.json`` member holding the key,
the vocabularies, each pair's paradigm in pair order, each condition's
plan members (or the error building the plan raised) and the stats. It
is keyed (``_prep_key``) over the domain's own corpus by content,
``CACHE_FORMAT`` and the config fields prep reads, so neither the seeds,
the conditions, the model fields nor another domain change it. A run
whose record is whole, keyed alike and beside the files prep writes
loads it and reads no corpus, nor the plan arrays an earlier layout also
stored. A prepared domain is always built from its record alone, just
written or loaded (``_domain_of``), so both give the same rows and
scores. Its Token and ``MinimalPair`` records are never kept: they are
most of a corpus's memory. Any other record is deleted before the domain
is prepared again, and the new one is written after the domain's other
files.

Cells run in forked worker processes, as many as ``threads`` (at least 1)
asks for, capped at the number of cache units and the CPU count; one
worker runs them in-process. The workers inherit the prepared domains
rather than receive them. Every stage derives its randomness from (seed,
index) streams, so outputs are byte identical whatever the worker count.

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
condition loads every prep record and computes only the new units. A
record that is missing, unreadable or keyed differently is a miss, and
every file is written whole or not at all (``atomic``); the JSON files
go through ``atomic.write_json``. ``original/seed<N>/`` directories that
earlier versions wrote are neither read nor removed.

Results stay typed rows (``evaluate.result_rows``) from the cell to the
files: ``cell.json`` stores them with ``accuracy`` as a JSON number,
``results.csv`` goes through ``evaluate.write_results_csv``, and each
``cross_domain.csv`` cell is the mean of the ORIGINAL seeds' ALL rows for
its (train, eval) domains.

Config files are flat key = value text (a TOML subset): each value is a
JSON value, so strings are double-quoted with TOML's escapes (a backslash
is written twice), booleans true/false, numbers bare, lists in brackets.
Corpora are "domain:path[:format]" strings (``CorpusSpec.parse``). Full-line
comments start with #.
"""

from __future__ import annotations

import hashlib
import io
import json
import multiprocessing
import os
import zipfile
import zlib
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .atomic import atomic_write, write_csv, write_json
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
    PerturbPlan,
    PerturbReport,
    condition_slug,
    perturb_forms,
    perturb_plan,
)
from .scorer.ngram import check_discount, save_lm, train_ngram
from .scorer.scoring import Sentences, member_ids, pair_items, score_sentences, write_scores
from .stats import (
    CorpusStats,
    compare_replacement_rates,
    compute_stats,
    write_rates_csv,
    write_stats_csv,
)


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
        """``domain:path[:format]``. The domain ends at the first ':', and a
        last ':'-segment is the format only when it is one of FORMATS, so a
        path may hold ':'."""
        domain, sep, rest = text.partition(":")
        if not sep:
            raise ValueError(f"corpus spec {text!r} is not domain:path[:format]")
        path, sep, format = rest.rpartition(":")
        if sep and format in FORMATS:
            return cls(domain, path, format)
        return cls(domain, rest)


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
        for f in fields(self):
            _check_field(f.name, getattr(self, f.name))


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
    elif name in ("threads", "lm_order") and value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    elif name == "split":
        SplitSpec.parse(value)
    elif name == "discount":
        check_discount(value)
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
        try:
            out[key] = json.loads(value)
        except ValueError:
            raise ValueError(f"{where}: cannot parse value {value.strip()!r}") from None
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
    domains: dict  # domain -> "prepared", "loaded" (from its prep record) or "failed"

    def summary(self) -> str:
        cached = len(self.cells) - len(self.computed) - len(self.shared) - len(self.failed)
        return (
            f"{len(self.cells)} cells: {len(self.computed)} computed, "
            f"{len(self.shared)} shared, {cached} cached, {len(self.failed)} failed"
        )

    def domain_summary(self) -> str:
        counts = Counter(self.domains.values())
        return (
            f"{len(self.domains)} domains: {counts['prepared']} prepared, "
            f"{counts['loaded']} loaded, {counts['failed']} failed"
        )


@dataclass
class _DomainData:
    forms: Forms  # the train split as an id array: what cells perturb and train on
    plans: dict  # condition -> its perturb plan, or the ValueError building it raised
    members: Sentences  # pair k's members at rows 2k and 2k + 1, encoded once for every cell
    pairs_meta: dict  # pair_id -> paradigm, in pair order
    stats: object


def _prep_key(config: ExperimentConfig, spec: CorpusSpec, sha: str) -> str:
    """Key of a domain's prep: its own corpus, by content, and the config
    fields prep reads. Prep plans every condition, so the seeds, the
    conditions, the model fields and the other domains stay out."""
    return _key(
        config, drop=("corpora", "seeds", "conditions", "lm_order", "discount", "min_count_unk",
                      "keep_models"),
        corpus={"domain": spec.domain, "format": spec.format, "sha256": sha},
        cache_format=CACHE_FORMAT,
    )


PREP_RECORD = "prep.npz"
# a plan's arrays but its offsets, which are the train forms' offsets
_PLAN_ARRAYS = tuple(
    f.name for f in fields(PerturbPlan) if f.name not in ("condition", "offsets", "members")
)
# what a prepared domain writes beside its record; one missing is a miss too
_PREP_FILES = ("splits/train.conllu", "splits/dev.conllu", "splits/test.conllu", "table.tsv",
               "pairs/pairs.jsonl", "pairs/genreport.json")


def _prepare_domain(
    config: ExperimentConfig, spec: CorpusSpec, out: Path, sha: str
) -> tuple[_DomainData, bool]:
    """The domain's prepared data, and whether it was loaded from its prep
    record. A miss deletes the record, prepares the domain and writes its
    files, and writes the record last, so a crash never leaves a record
    beside files it does not match."""
    path, key = out / spec.domain / PREP_RECORD, _prep_key(config, spec, sha)
    record = _load_prep(path, key)
    loaded = record is not None
    if not loaded:
        path.unlink(missing_ok=True)
        record = _prepare(config, spec, out, key)
        _save_prep(path, record)
    return _domain_of(record), loaded


def _prepare(config: ExperimentConfig, spec: CorpusSpec, out: Path, key: str) -> dict:
    """Prepare the domain, write its files and return its prep record: the
    arrays by name, and under ``strings`` the record's one dict of strings."""
    corpus = read_corpus(spec.path, spec.format, spec.domain)
    ddir = out / spec.domain
    (ddir / "splits").mkdir(parents=True, exist_ok=True)
    (ddir / "pairs").mkdir(parents=True, exist_ok=True)
    train, dev, test = split_corpus(
        corpus, SplitSpec.parse(config.split), shuffle=config.shuffle_split,
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
    write_pairs(pairs, ddir / "pairs" / "pairs.jsonl")
    counters["semantic_verb_lemmas"] = distinct_verb_lemmas(pairs)
    if agreement_note:
        counters["agreement_skipped"] = agreement_note
    write_json(ddir / "pairs" / "genreport.json", counters)
    if not pairs:  # fails this domain alone, before any cell scores it
        raise ValueError("no pairs")
    forms = train.form_view()
    stats = compute_stats(forms)  # before the plans and rows: a lower peak
    record: dict = {"ids": forms.ids, "offsets": forms.offsets}
    plans: dict = {}
    for condition in CONDITIONS:
        try:
            plan = perturb_plan(
                train, condition, table, config.include_propn, config.pin_final_punct
            )
        except ValueError as exc:  # fails the condition's cells, not the domain
            plans[condition] = str(exc)
            continue
        plans[condition] = list(plan.members)
        for name in _PLAN_ARRAYS:
            if getattr(plan, name) is not None:
                record[f"{condition}.{name}"] = getattr(plan, name)
    members = pair_items(pairs)
    encoded = members.encoded
    record["members.ids"], record["members.offsets"] = encoded.ids, encoded.offsets
    record["members.index"] = members.index
    record["strings"] = {
        "key": key, "vocab": list(forms.vocab), "members.vocab": list(encoded.vocab),
        "pairs": {p.pair_id: p.paradigm for p in pairs}, "plans": plans,
        "stats": asdict(stats),
    }
    return record


def _save_prep(path: Path, record: dict) -> None:
    """A prep record as one compressed zip: each array an ``.npy`` member,
    the strings one ``strings.json`` member. Each member is stamped 1980,
    as ``zipfile.ZipInfo`` stamps by default, where ``np.savez_compressed``
    stamps the time of writing, so equal domains write equal bytes."""
    with atomic_write(path, binary=True) as fh, zipfile.ZipFile(fh, "w") as zf:
        for name, value in record.items():
            if name == "strings":  # repr floats in the stats: they round-trip exactly
                name, data = "strings.json", json.dumps(value).encode()
            else:
                npy = io.BytesIO()
                np.lib.format.write_array(npy, np.asanyarray(value), allow_pickle=False)
                name, data = name + ".npy", npy.getvalue()
            # level 1: at 100k tokens, a fifth of level 6's time for a quarter more bytes
            zf.writestr(zipfile.ZipInfo(name), data, zipfile.ZIP_DEFLATED, 1)


def _load_prep(path: Path, key: str) -> dict | None:
    """The prep record at ``path``, as ``_prepare`` returns it, if it is
    whole, keyed ``key`` and has the files prep writes beside it; else None."""
    ddir = path.parent
    if not all((ddir / name).is_file() for name in _PREP_FILES):
        return None
    try:
        with np.load(path, allow_pickle=False) as npz:
            strings = json.loads(npz["strings.json"])
            if strings["key"] != key:
                return None
            return {
                **{name: npz[name] for name in npz.files if name != "strings.json"},
                "strings": strings,
            }
    except (OSError, EOFError, LookupError, TypeError, ValueError, zipfile.BadZipFile,
            zlib.error):  # missing, cut short, not a zip or not this layout: a miss
        return None


def _domain_of(record: dict) -> _DomainData:
    """The prepared domain a prep record holds, with the plan of every condition."""
    strings = record["strings"]
    forms = Forms(tuple(strings["vocab"]), record["ids"], record["offsets"])
    plans: dict = {}
    for condition, plan in strings["plans"].items():
        if isinstance(plan, str):
            plans[condition] = ValueError(plan)
            continue
        arrays = {
            name: record[f"{condition}.{name}"]
            for name in _PLAN_ARRAYS if f"{condition}.{name}" in record
        }
        plans[condition] = PerturbPlan(condition, forms.offsets, members=tuple(plan), **arrays)
    members = Sentences.of_encoded(
        member_ids(strings["pairs"]),
        Forms(tuple(strings["members.vocab"]), record["members.ids"], record["members.offsets"]),
        record["members.index"],
    )
    return _DomainData(
        forms=forms, plans=plans, members=members, pairs_meta=strings["pairs"],
        stats=CorpusStats(**strings["stats"]),
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
        target: _DomainData = domains[eval_domain]
        logprobs, counts = score_sentences(lm, target.members)
        write_scores(target.members.ids, logprobs, counts, unit_dir / f"scores-{eval_domain}.tsv")
        scored = zip(target.pairs_meta, logprobs[0::2], logprobs[1::2])
        result = evaluate(scored, target.pairs_meta, Labels(domain, eval_domain, condition))
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

    shas: dict[str, str] = {}
    domains: dict[str, _DomainData] = {}
    prep: dict[str, str] = {}
    failures: list[tuple[str, str]] = []
    for spec in config.corpora:
        try:  # an unreadable corpus fails its domain alone
            shas[spec.domain] = _sha256(spec.path)
            domains[spec.domain], loaded = _prepare_domain(config, spec, out, shas[spec.domain])
            prep[spec.domain] = "loaded" if loaded else "prepared"
        except Exception as exc:  # domain prep failure takes down its cells only
            failures.append((spec.domain, str(exc)))
            prep[spec.domain] = "failed"

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
    if workers > 1:  # forked workers inherit the job; only units and outcomes pickle
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=multiprocessing.get_context("fork"),
            initializer=_adopt, initargs=job,
        ) as pool:
            outcomes = list(pool.map(_attempt_adopted, keys.items()))
    else:
        outcomes = [_attempt(*job, unit_key) for unit_key in keys.items()]
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
        "config": asdict(config),
        "config_hash": _key(config, corpus_files=shas),
        "cells": {_cell_name(c): "failed" if c in failed else "ok" for c in cells},
        "failures": sorted(failures),
        "pairs_files": {d: str(out / d / "pairs" / "pairs.jsonl") for d in domains},
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
        domains=prep,
    )
