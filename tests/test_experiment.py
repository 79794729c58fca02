import json
import re
from pathlib import Path

import pytest

from verbscope.experiment import (
    CorpusSpec,
    ExperimentConfig,
    load_config,
    parse_flat_config,
    run_experiment,
)


class TestConfig:
    def test_corpus_spec_parse(self):
        spec = CorpusSpec.parse("chat:/data/chat.conllu:conllu")
        assert spec == CorpusSpec("chat", "/data/chat.conllu", "conllu")
        assert CorpusSpec.parse("chat:/data/x.txt:text").format == "text"

    def test_corpus_spec_default_format(self):
        assert CorpusSpec.parse("chat:x.conllu").format == "conllu"

    @pytest.mark.parametrize("domain", ["", ".", "..", "a/b", "a\\b", "x:y"])
    def test_corpus_spec_rejects_a_domain_that_is_not_a_directory_name(self, domain):
        spec = f"{domain}:x.conllu:conllu"
        with pytest.raises(ValueError, match=re.escape(f"corpus spec {spec}: domain {domain!r}")):
            CorpusSpec(domain, "x.conllu")
        with pytest.raises(ValueError, match="must be a directory name"):
            ExperimentConfig(corpora=[spec], out_dir="o")

    def test_flat_parser(self):
        values = parse_flat_config(
            "# comment\n"
            'out_dir = "out"\n'
            "seeds = [1, 2, 3]\n"
            "lm_order = 3\n"
            "discount = 0.75\n"
            "agreement = false\n"
            'corpora = ["a:x.conllu", "b:y.conllu"]\n'
        )
        assert values["seeds"] == [1, 2, 3]
        assert values["discount"] == 0.75
        assert values["agreement"] is False
        assert values["corpora"] == ["a:x.conllu", "b:y.conllu"]
        assert parse_flat_config("discount = 1\n") == {"discount": 1}  # a float field takes an int

    def test_flat_parser_rejects_garbage(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_flat_config("what even is this\n")

    def test_config_validation(self):
        with pytest.raises(ValueError, match="at least one corpus"):
            ExperimentConfig(corpora=[], out_dir="x")
        with pytest.raises(ValueError, match="unknown condition"):
            ExperimentConfig(
                corpora=["a:x.conllu"], out_dir="x", conditions=["REVERSE"]
            )
        with pytest.raises(ValueError, match="seed"):
            ExperimentConfig(corpora=["a:x.conllu"], out_dir="x", seeds=[])
        with pytest.raises(ValueError, match="seeds must not repeat"):
            ExperimentConfig(corpora=["a:x.conllu"], out_dir="x", seeds=[1, 2, 1])
        with pytest.raises(ValueError, match="threads must be >= 1, got 0"):
            ExperimentConfig(corpora=["a:x.conllu"], out_dir="x", threads=0)
        with pytest.raises(ValueError, match="threads must be >= 1, got -5"):
            ExperimentConfig(corpora=["a:x.conllu"], out_dir="x", threads=-5)

    @pytest.mark.parametrize(
        "text, message",
        [
            ('bogus = 1\n', r"c\.cfg: line 1: unknown key 'bogus'"),
            ('out_dir = "o"\nseeds = 3\n', r"c\.cfg: line 2: seeds must be list, got int 3"),
            ('threads = "2"\n', r"c\.cfg: line 1: threads must be int, got str '2'"),
            ("seeds = [1, true]\n", r"c\.cfg: line 1: seeds must hold ints, got True"),
            ("seeds = [1]\n\nseeds = [2]\n", r"c\.cfg: line 3: seeds is set twice"),
            ('corpora = ["a:x.conllu"]\n', r"c\.cfg: out_dir not set"),
            ('corpora = ["a:x.conllu"]\nout_dir = "o"\nconditions = ["REVERSE"]\n',
             r"c\.cfg: line 3: unknown condition 'REVERSE'"),
            ('seeds = [1, 2, 1]\n', r"c\.cfg: line 1: seeds must not repeat, got \[1, 2, 1\]"),
            ('corpora = ["a:x.conllu", "a:y.conllu"]\n', r"c\.cfg: line 1: corpus domains must be unique"),
            ('out_dir = "o"\nthreads = 0\n', r"c\.cfg: line 2: threads must be >= 1, got 0"),
            ('out_dir = "o"\ncorpora = ["..:x.conllu"]\n',
             r"c\.cfg: line 2: corpus spec \.\.:x\.conllu:conllu: domain '\.\.'"),
        ],
    )
    def test_load_config_rejects_bad_input_with_file_and_line(self, tmp_path, text, message):
        path = tmp_path / "c.cfg"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            load_config(path)

    def test_run_reports_a_bad_config_as_an_error(self, tmp_path, capsys):
        from verbscope.cli import main

        path = tmp_path / "c.cfg"
        path.write_text('corpora = ["a:x.conllu"]\n')
        assert main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: out_dir not set (out_dir may come from --out)\n"

    def test_load_config_with_overrides(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text('corpora = ["a:x.conllu"]\nout_dir = "one"\nthreads = 2\n')
        config = load_config(path, {"threads": 8, "out_dir": "two"})
        assert config.threads == 8
        assert config.out_dir == "two"


@pytest.fixture(scope="module")
def small_config(tmp_path_factory):
    from verbscope.fixtures import write_fixture_corpora

    fixtures = tmp_path_factory.mktemp("exp_fixtures")
    paths = write_fixture_corpora(fixtures, target_tokens=12_000)

    def make(out_dir, threads=1, seeds=(1, 2)):
        return ExperimentConfig(
            corpora=[f"{d}:{p}:conllu" for d, p in sorted(paths.items())],
            out_dir=str(out_dir),
            conditions=["ORIGINAL", "REPLACE.WORD"],
            seeds=list(seeds),
            lm_order=3,
            threads=threads,
        )

    return make


class TestRunExperiment:
    def test_result_tree_and_manifest(self, tmp_path, small_config):
        result = run_experiment(small_config(tmp_path / "out"))
        assert result.status == 0
        out = result.out_dir
        for name in ("results.csv", "summary.csv", "cross_domain.csv",
                     "stats.csv", "rates.csv", "manifest.json"):
            assert (out / name).exists(), name
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["cells"]) == 2 * 2 * 2  # domains x conditions x seeds
        assert all(v == "ok" for v in manifest["cells"].values())
        assert (out / "chat" / "pairs" / "pairs.jsonl").exists()
        assert (out / "chat" / "replace-word" / "seed1" / "perturb.json").exists()

    def test_single_condition_one_eval_per_corpus(self, tmp_path, small_config):
        config = small_config(tmp_path / "solo", seeds=(1,))
        config.conditions = ["ORIGINAL"]
        result = run_experiment(config)
        all_rows = [
            r for r in result.results
            if r["paradigm"] == "ALL" and r["train_domain"] == r["eval_domain"]
        ]
        assert len(all_rows) == 2  # one per corpus

    def test_rerun_uses_cache_and_matches(self, tmp_path, small_config):
        config = small_config(tmp_path / "cached")
        first = run_experiment(config)
        second = run_experiment(small_config(tmp_path / "cached"))
        assert first.status == second.status == 0
        canon = lambda rows: sorted(json.dumps(r, sort_keys=True) for r in rows)
        assert canon(first.results) == canon(second.results)

    def test_thread_count_does_not_change_bytes(self, tmp_path, small_config):
        a = run_experiment(small_config(tmp_path / "t1", threads=1))
        b = run_experiment(small_config(tmp_path / "t8", threads=8))
        assert a.status == b.status == 0
        for name in ("results.csv", "summary.csv", "cross_domain.csv"):
            assert (
                (tmp_path / "t1" / name).read_bytes()
                == (tmp_path / "t8" / name).read_bytes()
            ), name

    def test_three_domain_cross_matrix_matches_results_oracle(self, tmp_path, small_config):
        """Corpora given out of sorted order, a third domain copying one fixture:
        cross_domain.csv holds each cell's mean of the ORIGINAL seeds' ALL rows
        in results.csv, and diagonal/off-diagonal means over the cells in
        sorted (train, eval) order, at 1 and 2 workers."""
        import csv

        outputs = []
        for threads in (1, 2):
            config = small_config(tmp_path / f"t{threads}", threads=threads)
            chat, written = config.corpora
            copy = tmp_path / "bcopy.conllu"
            copy.write_bytes(Path(chat.path).read_bytes())
            config.corpora = [written, chat, CorpusSpec("bcopy", str(copy), "conllu")]
            result = run_experiment(config)
            assert result.status == 0
            out = tmp_path / f"t{threads}"
            with open(out / "results.csv", encoding="utf-8", newline="") as fh:
                rows = list(csv.DictReader(fh))
            by_cell: dict = {}
            for r in rows:
                if r["condition"] == "ORIGINAL" and r["paradigm"] == "ALL":
                    by_cell.setdefault((r["train_domain"], r["eval_domain"]), []).append(
                        float(r["accuracy"])
                    )
            assert len(by_cell) == 9 and all(len(v) == 2 for v in by_cell.values())
            cells = {k: sum(v) / len(v) for k, v in sorted(by_cell.items())}
            diag = [v for (t, e), v in cells.items() if t == e]
            off = [v for (t, e), v in cells.items() if t != e]
            domains = ["bcopy", "chat", "written"]
            expected = [["train\\eval", *domains]]
            expected += [[t, *(repr(cells[t, e]) for e in domains)] for t in domains]
            expected += [
                [],
                ["diagonal_mean", repr(sum(diag) / len(diag))],
                ["off_diagonal_mean", repr(sum(off) / len(off))],
            ]
            with open(out / "cross_domain.csv", encoding="utf-8", newline="") as fh:
                assert list(csv.reader(fh)) == expected
            outputs.append((out / "cross_domain.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_full_grid_manifest_counts_twelve_cells(self, tmp_path, small_config):
        config = small_config(tmp_path / "grid", seeds=(1, 2))
        config.conditions = ["ORIGINAL", "REPLACE.WORD", "SHUFFLE.ORDER"]
        result = run_experiment(config)
        manifest = json.loads((tmp_path / "grid" / "manifest.json").read_text())
        assert len(manifest["cells"]) == 12  # 3 conditions x 2 corpora x 2 seeds
        assert result.status == 0

    def test_failed_cell_logged_and_summarized(self, tmp_path, small_config, monkeypatch):
        import verbscope.experiment as exp

        real = exp.train_ngram

        def sabotaged(corpus, order, **kwargs):
            if corpus.domain == "written":
                raise RuntimeError("boom")
            return real(corpus, order, **kwargs)

        monkeypatch.setattr(exp, "train_ngram", sabotaged)
        result = run_experiment(small_config(tmp_path / "cellfail", seeds=(1,)))
        assert result.status == 1
        assert any("boom" in err for _cell, err in result.failures)
        assert any(cell.startswith("written/") for cell, _err in result.failures)
        # the healthy domain's cells still completed
        assert any(r["train_domain"] == "chat" for r in result.results)

    def test_failure_messages_survive_forked_workers(self, tmp_path, small_config, monkeypatch):
        import verbscope.experiment as exp

        class Unpicklable(Exception):
            def __init__(self, domain, seed):  # pickle would rebuild it from one arg
                super().__init__(f"boom in {domain}, seed {seed}")

        real = exp.train_ngram

        def sabotaged(corpus, order, **kwargs):
            if corpus.domain == "written":
                raise Unpicklable(corpus.domain, 1)
            return real(corpus, order, **kwargs)

        monkeypatch.setattr(exp, "train_ngram", sabotaged)  # forked workers see it
        serial = run_experiment(small_config(tmp_path / "one", seeds=(1,)))
        forked = run_experiment(small_config(tmp_path / "two", threads=2, seeds=(1,)))
        assert serial.failures == forked.failures
        assert ("written/REPLACE.WORD/1", "boom in written, seed 1") in forked.failures
        assert serial.results == forked.results

    @pytest.mark.parametrize(
        "threads, cpus, workers",
        [(8, 3, 3), (8, 64, 4), (2, 64, 2), (1, 64, None)],
    )
    def test_worker_count_is_capped(
        self, tmp_path, small_config, monkeypatch, threads, cpus, workers
    ):
        """min(threads, key groups, CPUs) workers; one worker runs in-process."""
        import verbscope.experiment as exp

        started = []

        class InProcessPool:  # records the request, starts no process
            def __init__(self, max_workers, mp_context, initializer, initargs):
                started.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(exp, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(exp, "_adopted", exp._adopted)  # restored after the test
        monkeypatch.setattr(exp.os, "cpu_count", lambda: cpus)
        # 2 domains x (ORIGINAL, REPLACE.WORD) x 1 seed: 4 key groups
        result = run_experiment(small_config(tmp_path / "out", threads=threads, seeds=(1,)))
        assert result.status == 0
        assert started == ([] if workers is None else [workers])

    def test_failed_domain_reported_nonzero_exit(self, tmp_path, small_config):
        config = small_config(tmp_path / "fail", seeds=(1,))
        config.corpora = config.corpora + [
            CorpusSpec("ghost", str(tmp_path / "missing.conllu"), "conllu")
        ]
        result = run_experiment(config)
        assert result.status == 1
        assert [cell for cell, _err in result.failures] == ["ghost"]
        # healthy domains still produce results
        assert any(r["train_domain"] == "chat" for r in result.results)
        # the failed domain's cells count as failed, in the tally and the manifest
        assert result.summary() == "6 cells: 4 computed, 0 shared, 0 cached, 2 failed"
        manifest = json.loads((tmp_path / "fail" / "manifest.json").read_text())
        assert manifest["cells"]["ghost/ORIGINAL/1"] == "failed"
        assert manifest["cells"]["ghost/REPLACE.WORD/1"] == "failed"
        assert [name for name, _err in manifest["failures"]] == ["ghost"]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_gc_freeze_is_scoped_to_the_cells(self, tmp_path, small_config, monkeypatch, threads):
        """Cells run with the prepared heap frozen; the caller gets it back."""
        import gc

        import verbscope.experiment as exp

        assert gc.get_freeze_count() == 0
        ok = run_experiment(small_config(tmp_path / "ok", threads=threads, seeds=(1,)))
        assert ok.status == 0
        assert gc.get_freeze_count() == 0

        def sabotaged(corpus, order, **kwargs):  # reports the freeze its cell saw
            raise RuntimeError(f"frozen: {gc.get_freeze_count() > 0}")

        monkeypatch.setattr(exp, "train_ngram", sabotaged)
        failed = run_experiment(small_config(tmp_path / "failed", threads=threads, seeds=(1,)))
        assert failed.status == 1
        assert len(failed.failures) == 4
        assert {error for _cell, error in failed.failures} == {"frozen: True"}
        assert gc.get_freeze_count() == 0

    @pytest.mark.parametrize("threads", [1, 2])
    def test_untagged_domain_fails_only_its_replace_cells(
        self, tmp_path, small_config, threads
    ):
        """REPLACE.WORD needs tags: a text domain loses that cell, not the domain."""
        from verbscope.ingest import read_corpus

        config = small_config(tmp_path / "out", threads=threads, seeds=(1,))
        written = next(c for c in config.corpora if c.domain == "written")
        plain = tmp_path / "plain.txt"
        plain.write_text(
            "".join(" ".join(s.forms()) + "\n" for s in read_corpus(written.path, "conllu")),
            encoding="utf-8",
        )
        config.corpora = [config.corpora[0], CorpusSpec("plain", str(plain), "text")]
        result = run_experiment(config)
        assert result.status == 1
        assert result.failures == [
            ("chat/ORIGINAL/1", "no pairs"),
            ("plain/ORIGINAL/1", "no pairs"),
            ("plain/REPLACE.WORD/1", "replace_word requires tags (sentence 's1')"),
        ]
        assert result.computed == [("chat", "REPLACE.WORD", 1)]


class TestCellCache:
    """Cells are cached by content key, computed once per key, and resumable."""

    # sha256 of each cell.json of the seed-1 small grid, valid for one CACHE_FORMAT.
    # A change that alters these bytes bumps CACHE_FORMAT and re-pins them here.
    PINNED_RECORDS = (2, {
        "chat/original/cell.json":
            "6f05c8031e82f020c1e000102dc21131ba439e783bbd7a69e0f830edb4238a7e",
        "chat/replace-word/seed1/cell.json":
            "0de7b88de4641de947d8b7b8413539c39dbef601b3990fffe8296b4b1ad77a75",
        "written/original/cell.json":
            "a22b720f8ed49feb806c87b0347694b88800e05f23a73218d6a29e937a2b3585",
        "written/replace-word/seed1/cell.json":
            "0ef1569fc2cc891f17e53b6b90ebd00a7c4740a0bb8eeb1f11361fb97cc50d78",
    })

    # sha256 of the seed-1 small grid's pair files, perturb reports and score
    # TSVs. No cache format covers these bytes: a change to them changes what
    # pair generation, perturbation or scoring computes, and must say so.
    PINNED_OUTPUTS = {
        "chat/pairs/pairs.jsonl":
            "b5216848549e9a7b3e28b7d0d915934c0bfab5043d4d6513de0eebbdddb51629",
        "written/pairs/pairs.jsonl":
            "6fcb8961a3e18e0a01d71041023ae1a4fd47613b13cb4219cf55120bb412bbdb",
        "chat/original/perturb.json":
            "4941d023fad3c59be84645606d83aa94133df1e2b6317bf354d30ad5dc87e0f6",
        "chat/replace-word/seed1/perturb.json":
            "efe6d9306d97cf6102d47df9be4672c49107d8ac440ee9dd1cbfdb666a195b05",
        "written/original/perturb.json":
            "4941d023fad3c59be84645606d83aa94133df1e2b6317bf354d30ad5dc87e0f6",
        "written/replace-word/seed1/perturb.json":
            "45238b20574483ae572473154f2c7c11c9bed1868b3397c8c3d23211d74fbcea",
        "chat/original/scores-chat.tsv":
            "7e31ca9a4c68c0e3cdbcf9be20d30e8126f4321ca2d49cc2007e5af44c07a1fd",
        "chat/original/scores-written.tsv":
            "1d7efcd3c9bff09c43e7f6cbad0d546d4b8bb222203d1bf5ac873d2bda5d778c",
        "chat/replace-word/seed1/scores-chat.tsv":
            "618fb09625119a9d5df1a5800e9f1bfd9ff2aebb10020a646eeab5d5f2ad5039",
        "written/original/scores-chat.tsv":
            "16613efcdbf15d7547584d20943d7ec4eea216dac94df5dd36dbeb2a6fa11980",
        "written/original/scores-written.tsv":
            "7a78bcb7a48f209c658f9e00f04ef5f84a083d0b3978be44ff73a2516b62a1b1",
        "written/replace-word/seed1/scores-written.tsv":
            "f2c06ce72e8d3d91813e194ee2a8ecbc8261d2230ade34a375fa1926f6c75cbe",
    }

    @pytest.fixture(scope="class")
    def seed1_grid(self, tmp_path_factory, small_config):
        out = tmp_path_factory.mktemp("seed1_grid") / "out"
        assert run_experiment(small_config(out, seeds=(1,))).status == 0
        return out

    @staticmethod
    def _sha256s(out: Path, *patterns: str) -> dict:
        import hashlib

        return {
            p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for pattern in patterns
            for p in sorted(out.glob(pattern))
        }

    def test_record_bytes_are_pinned_to_the_cache_format(self, seed1_grid):
        from verbscope.experiment import CACHE_FORMAT

        records = self._sha256s(seed1_grid, "**/cell.json")
        assert (CACHE_FORMAT, records) == self.PINNED_RECORDS

    def test_pair_perturb_and_score_bytes_are_pinned(self, seed1_grid):
        outputs = self._sha256s(
            seed1_grid, "*/pairs/pairs.jsonl", "**/perturb.json", "**/scores-*.tsv"
        )
        assert outputs == self.PINNED_OUTPUTS

    def test_bumped_cache_format_recomputes_every_unit(self, tmp_path, small_config, monkeypatch):
        import verbscope.experiment as exp

        out = tmp_path / "out"
        run_experiment(small_config(out, seeds=(1,)))
        monkeypatch.setattr(exp, "CACHE_FORMAT", exp.CACHE_FORMAT + 1)
        result = run_experiment(small_config(out, seeds=(1,)))
        assert result.summary() == "4 cells: 4 computed, 0 shared, 0 cached, 0 failed"

    def test_cut_record_and_leftover_temp_are_recomputed(self, tmp_path, small_config):
        out = tmp_path / "out"
        first = run_experiment(small_config(out))
        cut = out / "chat" / "replace-word" / "seed1" / "cell.json"
        data = cut.read_bytes()
        cut.write_bytes(data[: len(data) // 2])  # a kill during an in-place write
        lost = out / "written" / "replace-word" / "seed2" / "cell.json"
        lost.rename(lost.with_name(".cell.json.4242.tmp"))  # a kill before the rename
        second = run_experiment(small_config(out))
        assert second.status == 0
        assert second.computed == [("chat", "REPLACE.WORD", 1), ("written", "REPLACE.WORD", 2)]
        assert json.loads(cut.read_text())["rows"] == json.loads(data)["rows"]
        assert lost.is_file()
        canon = lambda rows: sorted(json.dumps(r, sort_keys=True) for r in rows)
        assert canon(first.results) == canon(second.results)

    def test_cut_original_record_is_recomputed(self, tmp_path, small_config):
        out = tmp_path / "out"
        run_experiment(small_config(out))
        original = out / "chat" / "original"
        record = (original / "cell.json").read_bytes()
        (original / "cell.json").write_text('{"key": "')
        (original / "scores-chat.tsv").unlink()
        result = run_experiment(small_config(out))
        assert result.computed == [("chat", "ORIGINAL", 1)]
        assert result.shared == [("chat", "ORIGINAL", 2)]
        assert (original / "cell.json").read_bytes() == record
        assert (original / "scores-chat.tsv").is_file()

    def test_added_seed_computes_only_new_perturbed_cells(
        self, tmp_path, small_config, monkeypatch
    ):
        import verbscope.experiment as exp

        run_experiment(small_config(tmp_path / "grown", seeds=(1, 2)))
        trained = []
        real = exp.train_ngram
        monkeypatch.setattr(
            exp, "train_ngram", lambda corpus, *a, **k: trained.append(1) or real(corpus, *a, **k)
        )
        grown = run_experiment(small_config(tmp_path / "grown", seeds=(1, 2, 3)))
        assert grown.computed == [("chat", "REPLACE.WORD", 3), ("written", "REPLACE.WORD", 3)]
        assert len(trained) == 2
        assert grown.summary() == "12 cells: 2 computed, 0 shared, 10 cached, 0 failed"
        run_experiment(small_config(tmp_path / "cold", seeds=(1, 2, 3)))
        for name in ("results.csv", "summary.csv", "cross_domain.csv"):
            assert (
                (tmp_path / "grown" / name).read_bytes()
                == (tmp_path / "cold" / name).read_bytes()
            ), name

    def test_added_condition_leaves_cells_cached(self, tmp_path, small_config):
        config = small_config(tmp_path / "out", seeds=(1,))
        run_experiment(config)
        config.conditions = ["ORIGINAL", "REPLACE.WORD", "SHUFFLE.ORDER"]
        result = run_experiment(config)
        assert result.status == 0
        assert result.computed == [("chat", "SHUFFLE.ORDER", 1), ("written", "SHUFFLE.ORDER", 1)]

    def test_corpus_change_invalidates_its_domain_and_original(self, tmp_path, small_config):
        config = small_config(tmp_path / "out", seeds=(1,))
        copies = []
        for spec in config.corpora:
            copy = tmp_path / f"{spec.domain}.conllu"
            copy.write_bytes(Path(spec.path).read_bytes())
            copies.append(CorpusSpec(spec.domain, str(copy), spec.format))
        config.corpora = copies
        assert len(run_experiment(config).computed) == 4
        written = tmp_path / "written.conllu"
        text = written.read_text(encoding="utf-8")
        form_at = text.index("\n1\t") + 3  # first letter of the first form
        written.write_text(text[:form_at] + "Z" + text[form_at + 1:], encoding="utf-8")
        result = run_experiment(config)
        assert result.status == 0
        assert result.computed == [
            ("chat", "ORIGINAL", 1), ("written", "ORIGINAL", 1), ("written", "REPLACE.WORD", 1),
        ]

    def test_cold_grid_trains_one_original_model_per_domain(
        self, tmp_path, small_config, monkeypatch
    ):
        import verbscope.experiment as exp

        trained = []
        real = exp.train_ngram
        monkeypatch.setattr(
            exp, "train_ngram", lambda corpus, *a, **k: trained.append(1) or real(corpus, *a, **k)
        )
        result = run_experiment(small_config(tmp_path / "out", seeds=(1, 2, 3)))
        assert len(trained) == 2 + 2 * 3  # one ORIGINAL per domain, one per perturbed cell
        assert result.summary() == "12 cells: 8 computed, 4 shared, 0 cached, 0 failed"
        assert [c for c in result.computed if c[1] == "ORIGINAL"] == [
            ("chat", "ORIGINAL", 1), ("written", "ORIGINAL", 1),
        ]
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert len(manifest["cells"]) == 12
        original = tmp_path / "out" / "chat" / "original"
        assert (original / "cell.json").is_file()
        assert json.loads((original / "perturb.json").read_text())["seed"] is None
        assert (original / "scores-chat.tsv").is_file()
        assert (original / "scores-written.tsv").is_file()
        assert not list(original.glob("seed*"))

    def test_original_unit_does_not_depend_on_the_seeds(self, tmp_path, small_config):
        trees = []
        for name, seeds in (("three-one", (3, 1)), ("one-two-three", (1, 2, 3))):
            out = tmp_path / name
            run_experiment(small_config(out, seeds=seeds))
            trees.append({
                p.relative_to(out): p.read_bytes()
                for domain in ("chat", "written")
                for p in (out / domain / "original").rglob("*")
            })
        assert trees[0] == trees[1]
        assert len(trees[0]) == 2 * 4  # cell.json, perturb.json, two score TSVs
