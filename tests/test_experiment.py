import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from verbscope.experiment import (
    CorpusSpec,
    ExperimentConfig,
    load_config,
    parse_flat_config,
    run_experiment,
)
from verbscope.ingest import DEFAULT_SPLIT, SplitSpec
from verbscope.perturb import CONDITIONS


class TestConfig:
    def test_corpus_spec_parse(self):
        spec = CorpusSpec.parse("chat:/data/chat.conllu:conllu")
        assert spec == CorpusSpec("chat", "/data/chat.conllu", "conllu")
        assert CorpusSpec.parse("chat:/data/x.txt:text").format == "text"

    def test_corpus_spec_default_format(self):
        assert CorpusSpec.parse("chat:x.conllu").format == "conllu"

    @pytest.mark.parametrize("text, path, format", [
        ("chat:/mnt/a:b/x.conllu:conllu", "/mnt/a:b/x.conllu", "conllu"),
        ("chat:/mnt/a:b/x.txt:text", "/mnt/a:b/x.txt", "text"),
        ("chat:/mnt/a:b/x.conllu", "/mnt/a:b/x.conllu", "conllu"),
        ("chat:c:/x.cha:chat", "c:/x.cha", "chat"),
        ("chat:/mnt/a:conllu:b", "/mnt/a:conllu:b", "conllu"),
    ])
    def test_corpus_spec_path_may_hold_colons(self, text, path, format):
        assert CorpusSpec.parse(text) == CorpusSpec("chat", path, format)

    def test_corpus_spec_needs_a_colon(self):
        with pytest.raises(ValueError, match=re.escape("corpus spec 'x.conllu' is not domain:path[:format]")):
            CorpusSpec.parse("x.conllu")

    @pytest.mark.parametrize("domain", ["", ".", "..", "a/b", "a\\b", "x:y"])
    def test_corpus_spec_rejects_a_domain_that_is_not_a_directory_name(self, domain):
        spec = f"{domain}:x.conllu:conllu"
        with pytest.raises(ValueError, match=re.escape(f"corpus spec {spec}: domain {domain!r}")):
            CorpusSpec(domain, "x.conllu")
        if ":" in domain:  # a spec's domain ends at its first ':'
            assert CorpusSpec.parse(spec) == CorpusSpec("x", "y:x.conllu", "conllu")
            return
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
            'corpora = ["a:x.conllu", "b:/d/a,b \\\\ \\"c\\".conllu:conllu"]\n'
        )
        assert values["seeds"] == [1, 2, 3]
        assert values["discount"] == 0.75
        assert values["agreement"] is False
        assert values["corpora"] == ["a:x.conllu", 'b:/d/a,b \\ "c".conllu:conllu']
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
        for discount in (0, 0.0, -0.5, 1.5, float("nan")):
            with pytest.raises(ValueError, match=re.escape(f"discount must be in (0, 1], got {discount!r}")):
                ExperimentConfig(corpora=["a:x.conllu"], out_dir="x", discount=discount)
        assert ExperimentConfig(corpora=["a:x.conllu"], out_dir="x", discount=1).discount == 1
        with pytest.raises(ValueError, match="lm_order must be >= 1, got 0"):
            ExperimentConfig(corpora=["a:x.conllu"], out_dir="x", lm_order=0)
        with pytest.raises(ValueError, match=re.escape("dev fraction 0 outside (0, 1)")):
            ExperimentConfig(corpora=["a:x.conllu"], out_dir="x", split="1,0,1")
        assert SplitSpec.parse(ExperimentConfig(corpora=["a:x.conllu"], out_dir="x").split) == (
            DEFAULT_SPLIT
        )
        with pytest.raises(ValueError, match="expected three comma-separated ratios, got ''"):
            ExperimentConfig(corpora=["a:x.conllu"], out_dir="x", split="")

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
            ('out_dir = "o"\ndiscount = 1.5\n', r"c\.cfg: line 2: discount must be in \(0, 1\], got 1\.5"),
            ('discount = 0\n', r"c\.cfg: line 1: discount must be in \(0, 1\], got 0"),
            ('out_dir = "o"\ncorpora = ["..:x.conllu"]\n',
             r"c\.cfg: line 2: corpus spec \.\.:x\.conllu:conllu: domain '\.\.'"),
            ('out_dir = "C:\\data"\n', r"c\.cfg: line 1: cannot parse value '\"C:\\\\data\"'"),
            ("seeds = [1, 2,]\n", r"c\.cfg: line 1: cannot parse value '\[1, 2,\]'"),
            ('out_dir = "o"\nlm_order = 0\n', r"c\.cfg: line 2: lm_order must be >= 1, got 0"),
            ('split = "1,0,1"\n', r"c\.cfg: line 1: dev fraction 0 outside \(0, 1\)"),
            ('split = "1,1"\n', r"c\.cfg: line 1: expected three comma-separated ratios"),
            ('split = "1/0,1,1"\n', r"c\.cfg: line 1: split ratios must be numbers or p/q"),
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

        real = exp._run_unit

        def sabotaged(config, domains, unit, out):
            if unit[0] == "written":
                raise RuntimeError("boom")
            return real(config, domains, unit, out)

        monkeypatch.setattr(exp, "_run_unit", sabotaged)
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

        real = exp._run_unit

        def sabotaged(config, domains, unit, out):
            if unit[0] == "written":
                raise Unpicklable(unit[0], 1)
            return real(config, domains, unit, out)

        monkeypatch.setattr(exp, "_run_unit", sabotaged)  # forked workers see it
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
        assert not (tmp_path / "fail" / "ghost").exists()  # no empty splits/ or pairs/

    @pytest.mark.parametrize("threads", [1, 2])
    def test_untagged_domain_fails_only_its_replace_cells(
        self, tmp_path, small_config, threads
    ):
        """REPLACE.WORD needs tags: a domain with an untagged training
        sentence loses that cell, not the domain."""
        from verbscope.ingest import read_corpus

        config = small_config(tmp_path / "out", threads=threads, seeds=(1,))
        written = next(c for c in config.corpora if c.domain == "written")
        text = Path(written.path).read_text(encoding="utf-8")
        first, rest = text.split("\n\n", 1)  # the first sentence opens the train split
        untagged = "\n".join(
            line if line.startswith("#") else "\t".join(
                "_" if i in (3, 4) else field for i, field in enumerate(line.split("\t"))
            )
            for line in first.split("\n")
        )
        partly = tmp_path / "partly.conllu"
        partly.write_text(untagged + "\n\n" + rest, encoding="utf-8")
        sid = read_corpus(partly, "conllu").sentences[0].sentence_id
        config.corpora = [config.corpora[0], CorpusSpec("partly", str(partly), "conllu")]
        result = run_experiment(config)
        assert result.status == 1
        assert result.failures == [
            ("partly/REPLACE.WORD/1", f"replace_word requires tags (sentence {sid!r})"),
        ]
        assert result.computed == [
            ("chat", "ORIGINAL", 1), ("chat", "REPLACE.WORD", 1), ("partly", "ORIGINAL", 1),
        ]


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

    def test_added_condition_leaves_cells_cached(self, tmp_path, small_config, monkeypatch):
        """An added condition loads both prep records, parses no corpus and
        computes its own cells only, to the bytes of a cold run."""
        config = small_config(tmp_path / "out", seeds=(1,))
        run_experiment(config)
        config.conditions = ["ORIGINAL", "REPLACE.WORD", "SHUFFLE.ORDER"]
        _no_corpus_reads(monkeypatch)
        result = run_experiment(config)
        assert result.status == 0
        assert result.domains == {"chat": "loaded", "written": "loaded"}
        assert result.domain_summary() == "2 domains: 0 prepared, 2 loaded, 0 failed"
        assert result.summary() == "6 cells: 2 computed, 0 shared, 4 cached, 0 failed"
        assert result.computed == [("chat", "SHUFFLE.ORDER", 1), ("written", "SHUFFLE.ORDER", 1)]
        monkeypatch.undo()
        cold = ExperimentConfig(**{**config.__dict__, "out_dir": str(tmp_path / "cold")})
        assert run_experiment(cold).status == 0
        assert _outputs(tmp_path / "out") == _outputs(tmp_path / "cold")

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


def _outputs(out: Path) -> dict:
    """Every file of a run directory, the manifest without its out_dir and
    pair-file paths."""
    files = {
        p.relative_to(out).as_posix(): p.read_bytes()
        for p in sorted(out.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["config"].pop("out_dir")
    manifest.pop("pairs_files")
    return {**files, "manifest.json": manifest}


def _no_corpus_reads(monkeypatch):
    """Make every corpus read raise: the name ``run`` calls and ingest's own."""
    import verbscope.experiment as exp
    import verbscope.ingest as ingest

    def refuse(*args, **kwargs):
        raise AssertionError("a corpus was parsed")

    monkeypatch.setattr(exp, "read_corpus", refuse)
    monkeypatch.setattr(ingest, "read_corpus", refuse)


class TestPrepKey:
    """A domain's prep key holds what prep reads and nothing else."""

    # a new value of each config field prep does not read: the grid's axes,
    # the model and where and how the work runs
    IGNORED = {
        "seeds": [3, 1], "conditions": ["SHUFFLE.ORDER"], "lm_order": 2, "discount": 0.5,
        "min_count_unk": 2, "keep_models": True, "threads": 4, "out_dir": "elsewhere",
    }
    # a new value of each config field prep reads
    READ = {
        "split": "3/4,1/8,1/8", "shuffle_split": True, "pair_seed": 1, "max_alts": 4,
        "len_min": 9, "len_max": 31, "n_per_paradigm": 99, "agreement": False,
        "include_propn": True, "pin_final_punct": True,
    }

    @staticmethod
    def _key(**changes) -> str:
        import verbscope.experiment as exp

        config = ExperimentConfig(**{"corpora": ["a:x.conllu", "b:y.conllu"], "out_dir": "o",
                                     **changes})
        return exp._prep_key(config, CorpusSpec.parse("a:x.conllu"), "0" * 64)

    def test_every_config_field_is_read_or_ignored(self):
        from dataclasses import fields

        names = {f.name for f in fields(ExperimentConfig)}
        assert names == {"corpora"} | set(self.IGNORED) | set(self.READ)

    def test_fields_prep_does_not_read_leave_the_key(self):
        base = self._key()
        for name, value in self.IGNORED.items():
            assert self._key(**{name: value}) == base, name
        for conditions in (["ORIGINAL"], ["REPLACE.WORD", "ORIGINAL"],
                           ["SHUFFLE.ORDER", "REPLACE.WORD", "ORIGINAL"]):
            assert self._key(conditions=conditions) == base, conditions
        for seeds in ([1], [2], [1, 2, 3], [3, 2, 1]):
            assert self._key(seeds=seeds) == base, seeds
        assert self._key(corpora=["a:x.conllu", "c:z.conllu:text"]) == base
        assert self._key(corpora=["a:x.conllu"]) == base

    def test_fields_prep_reads_change_the_key(self):
        import verbscope.experiment as exp

        keys = {"base": self._key()}
        for name, value in self.READ.items():
            keys[name] = self._key(**{name: value})
        config = ExperimentConfig(corpora=["a:x.conllu"], out_dir="o")
        keys["domain"] = exp._prep_key(config, CorpusSpec.parse("b:x.conllu"), "0" * 64)
        keys["format"] = exp._prep_key(config, CorpusSpec.parse("a:x.conllu:text"), "0" * 64)
        keys["sha256"] = exp._prep_key(config, CorpusSpec.parse("a:x.conllu"), "1" * 64)
        keys["path"] = exp._prep_key(config, CorpusSpec.parse("a:y.conllu"), "0" * 64)
        assert keys.pop("path") == keys["base"]  # the corpus enters by content
        assert len(set(keys.values())) == len(keys)

    def test_a_domain_is_built_from_its_record_alone(self):
        import inspect

        import verbscope.experiment as exp

        assert list(inspect.signature(exp._domain_of).parameters) == ["record"]


class TestPrepRecord:
    """A domain's prep is one keyed record, <domain>/prep.npz: a run whose
    record matches loads it and parses no corpus, and any other record is
    never served."""

    def test_cached_rerun_and_added_seed_parse_no_corpus(self, tmp_path, small_config, monkeypatch):
        out = tmp_path / "out"
        cold = run_experiment(small_config(out, seeds=(1, 2)))
        assert cold.domains == {"chat": "prepared", "written": "prepared"}
        assert cold.domain_summary() == "2 domains: 2 prepared, 0 loaded, 0 failed"
        before = _outputs(out)
        _no_corpus_reads(monkeypatch)
        again = run_experiment(small_config(out, seeds=(1, 2)))
        assert again.status == 0
        assert again.domain_summary() == "2 domains: 0 prepared, 2 loaded, 0 failed"
        assert again.summary() == "8 cells: 0 computed, 0 shared, 8 cached, 0 failed"
        assert _outputs(out) == before
        grown = run_experiment(small_config(out, seeds=(1, 2, 3)))
        assert grown.status == 0
        assert grown.domains == {"chat": "loaded", "written": "loaded"}
        assert grown.computed == [("chat", "REPLACE.WORD", 3), ("written", "REPLACE.WORD", 3)]
        monkeypatch.undo()
        run_experiment(small_config(tmp_path / "fresh", seeds=(1, 2, 3)))
        assert _outputs(out) == _outputs(tmp_path / "fresh")

    def test_model_change_and_added_domain_load_the_other_records(self, tmp_path, small_config):
        """Another model, another order of the same conditions and a third
        domain leave the first two domains' records keyed alike."""
        out = tmp_path / "out"
        run_experiment(small_config(out, seeds=(1,)))
        config = small_config(out, seeds=(1,))
        copy = tmp_path / "bcopy.conllu"
        copy.write_bytes(Path(config.corpora[0].path).read_bytes())
        config.corpora = config.corpora + [CorpusSpec("bcopy", str(copy), "conllu")]
        config.lm_order, config.discount, config.min_count_unk = 2, 0.5, 2
        config.conditions = config.conditions[::-1]
        result = run_experiment(config)
        assert result.status == 0
        assert result.domains == {"chat": "loaded", "written": "loaded", "bcopy": "prepared"}

    @staticmethod
    def _cut_record(out, config):
        record = out / "chat" / "prep.npz"
        data = record.read_bytes()
        record.write_bytes(data[: len(data) // 2])  # as a kill during an in-place write
        return {"chat": "prepared", "written": "loaded"}

    @staticmethod
    def _change_corpus(out, config):
        written = Path(config.corpora[1].path)
        text = written.read_text(encoding="utf-8")
        form_at = text.index("\n1\t") + 3  # first letter of the first form
        written.write_text(text[:form_at] + "Z" + text[form_at + 1:], encoding="utf-8")
        return {"chat": "loaded", "written": "prepared"}

    @staticmethod
    def _change_split(out, config):
        config.split = "3/4,1/8,1/8"
        return {"chat": "prepared", "written": "prepared"}

    @staticmethod
    def _include_propn(out, config):
        config.include_propn = True
        return {"chat": "prepared", "written": "prepared"}

    @staticmethod
    def _delete_pairs(out, config):
        (out / "chat" / "pairs" / "pairs.jsonl").unlink()
        return {"chat": "prepared", "written": "loaded"}

    @staticmethod
    def _crash_other_prep(out, config):
        """Config B's prep dies after its splits: config A's record must not
        then be served beside B's split files."""
        import verbscope.experiment as exp

        other = exp.ExperimentConfig(**{**config.__dict__, "split": "3/4,1/8,1/8"})

        def crash(*args, **kwargs):
            raise RuntimeError("killed")

        real, exp.write_pairs = exp.write_pairs, crash
        try:
            assert run_experiment(other).domains == {"chat": "failed", "written": "failed"}
        finally:
            exp.write_pairs = real
        assert not list(out.glob("*/prep.npz"))
        return {"chat": "prepared", "written": "prepared"}

    def test_a_record_of_the_packed_layout_is_prepared_again(self, tmp_path, small_config):
        """A record of the earlier layout, its strings packed as UTF-8 bytes
        and offsets, is a miss even under the right key: its domain is
        prepared again, to the same bytes, and every cell stays cached."""
        import numpy as np

        import verbscope.experiment as exp

        out = tmp_path / "out"
        config = small_config(out, seeds=(1,))
        assert run_experiment(config).status == 0
        before = _outputs(out)
        spec = config.corpora[0]
        key = exp._prep_key(config, spec, exp._sha256(spec.path))
        record = out / "chat" / "prep.npz"
        with open(record, "wb") as fh:
            np.savez(fh, key=np.frombuffer(key.encode(), dtype=np.uint8),
                     **{"key.at": np.array([0, len(key)])})
        result = run_experiment(config)
        assert result.domains == {"chat": "prepared", "written": "loaded"}
        assert result.summary() == "4 cells: 0 computed, 0 shared, 4 cached, 0 failed"
        assert _outputs(out) == before

    def test_a_record_with_plan_sentences_and_strata_is_loaded(self, tmp_path, small_config):
        """A REPLACE.WORD plan's record holds its targets, members, strata and
        cumulative counts only. A record that also holds each target's
        sentence and stratum, as records of the earlier layout do, is loaded,
        and the cells computed from it write the bytes they wrote before."""
        import io
        import zipfile

        import numpy as np

        out = tmp_path / "out"
        config = small_config(out, seeds=(1,))
        assert run_experiment(config).status == 0
        before = _outputs(out)
        record = out / "chat" / "prep.npz"
        with zipfile.ZipFile(record) as zf:
            plan = sorted(n for n in zf.namelist() if n.startswith("REPLACE.WORD."))
        assert plan == [f"REPLACE.WORD.{name}.npy"
                        for name in ("cumulative", "member", "strata", "targets")]
        with np.load(record) as npz:
            derived = {
                "sentence": np.searchsorted(npz["offsets"], npz["REPLACE.WORD.targets"], "right"),
                "stratum": np.searchsorted(
                    npz["REPLACE.WORD.strata"], npz["REPLACE.WORD.member"], "right"
                ),
            }
        with zipfile.ZipFile(record, "a") as zf:
            for name, array in derived.items():
                npy = io.BytesIO()
                np.lib.format.write_array(npy, (array - 1).astype(np.int32))
                zf.writestr(f"REPLACE.WORD.{name}.npy", npy.getvalue())
        stale = record.read_bytes()
        (out / "chat" / "replace-word" / "seed1" / "cell.json").unlink()
        cut = out / "chat" / "original" / "cell.json"
        cut.write_bytes(cut.read_bytes()[: len(cut.read_bytes()) // 2])
        result = run_experiment(config)
        assert result.domains == {"chat": "loaded", "written": "loaded"}
        assert result.summary() == "4 cells: 2 computed, 0 shared, 2 cached, 0 failed"
        after = _outputs(out)
        assert after.pop("chat/prep.npz") == stale
        before.pop("chat/prep.npz")
        assert after == before

    @pytest.mark.parametrize(
        "change",
        ["_cut_record", "_change_corpus", "_change_split", "_include_propn", "_delete_pairs",
         "_crash_other_prep"],
    )
    def test_a_record_that_does_not_match_is_prepared_again(
        self, tmp_path, small_config, change
    ):
        """Each change re-prepares what it touches, and the directory then
        holds the bytes a fresh run of the changed config writes, its records
        included."""
        config = small_config(tmp_path / "out", seeds=(1,))
        copies = []
        for spec in config.corpora:
            copy = tmp_path / f"{spec.domain}.conllu"
            copy.write_bytes(Path(spec.path).read_bytes())
            copies.append(CorpusSpec(spec.domain, str(copy), spec.format))
        config.corpora = copies
        assert run_experiment(config).status == 0
        expected = getattr(self, change)(tmp_path / "out", config)
        result = run_experiment(config)
        assert result.status == 0
        assert result.domains == expected
        config.out_dir = str(tmp_path / "fresh")
        run_experiment(config)
        assert _outputs(tmp_path / "out") == _outputs(tmp_path / "fresh")

    def test_traced_run_adds_a_seed_over_a_cut_cell(self, tmp_path, small_config, monkeypatch):
        """The benchmark's traced grid-add-seed round: with the layer timers
        of perfbench/child.py installed, which read each wrapped call's
        arguments by name, every cell of the re-run over loaded records is
        ok, it scores and trains, and its rows equal an untraced cold grid's."""
        import importlib
        import importlib.util
        import sys

        three = ["ORIGINAL", "REPLACE.WORD", "SHUFFLE.ORDER"]
        cold = small_config(tmp_path / "cold", seeds=(1, 2, 3))
        cold.conditions = three
        assert run_experiment(cold).status == 0

        path = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"
        spec = importlib.util.spec_from_file_location("perfbench_child", path)
        child = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(child)
        for module_name, attr, _classify in child.TARGETS:  # undone after the test
            fn = getattr(importlib.import_module(module_name), attr, None)
            for name, module in list(sys.modules.items()):
                if module is not None and name.startswith("verbscope"):
                    for key, value in list(vars(module).items()):
                        if value is fn:
                            monkeypatch.setattr(module, key, value)
        tracer = child.Tracer()
        tracer.install()

        out = tmp_path / "out"
        config = small_config(out, seeds=(1, 2))
        config.conditions = three
        assert run_experiment(config).status == 0
        cut = out / "chat" / "replace-word" / "seed1" / "cell.json"
        data = cut.read_bytes()
        cut.write_bytes(data[: len(data) // 2])
        tracer.layers = {}
        config.seeds = [1, 2, 3]
        result = run_experiment(config)
        assert result.domains == {"chat": "loaded", "written": "loaded"}
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["cells"].values()) == {"ok"} and len(manifest["cells"]) == 18
        assert tracer.layers["scorer.score"]["s"] > 0
        assert tracer.layers["scorer.score"]["sentences"] > 0
        assert tracer.layers["scorer.train"]["models"] == 5
        assert "ingest.read" not in tracer.layers
        assert (out / "results.csv").read_bytes() == (tmp_path / "cold" / "results.csv").read_bytes()


_VERBS = ("eats", "sees", "hits", "gets", "buys", "sells", "takes")
# forms a record must keep exactly: spaces, non-BMP letters, combining marks
# and the scorer's own unknown-word symbol
_FORM = st.one_of(
    st.sampled_from(["<unk>", "a b", " ", "\U0001d518\U0001d52b", "é", "_", "#x"]),
    st.text(st.characters(exclude_categories=("Cs", "Cc", "Zl", "Zp")), min_size=1, max_size=6),
)


def _conllu(nouns, shape: str) -> str:
    """Twelve "noun verb noun" sentences: the last two, the test split, give
    semantic pairs. "pronouns" tags the nouns PRON, so REPLACE.WORD has no
    target; "untagged" leaves the first training sentence untagged, so its
    plan fails. Whitespace, which a pair file cannot store in a token, is
    kept to the training split."""
    upos, xpos = ("PRON", "PRP") if shape == "pronouns" else ("NOUN", "NN")
    lines = []
    for i in range(12):
        tags = [(upos, xpos), ("VERB", "VBZ"), (upos, xpos)]
        if shape == "untagged" and i == 0:
            tags = [("_", "_")] * 3
        words = [nouns[2 * i % len(nouns)], _VERBS[i % 7], nouns[(2 * i + 1) % len(nouns)]]
        if i >= 10:
            words = ["".join(form.split()) or "x" for form in words]
        heads, rels = ("2", "0", "2"), ("nsubj", "root", "obj")
        lines.append(f"# sent_id = s{i}")
        for k, (form, (u, x)) in enumerate(zip(words, tags)):
            lemma = form.lower() if u == "VERB" else "_"
            lines.append("\t".join((str(k + 1), form, lemma, u, x, "_", heads[k], rels[k], "_", "_")))
        lines.append("")
    return "\n".join(lines) + "\n"


def _same_array(x, y):
    import numpy as np

    assert (x is None) == (y is None)
    if x is not None:
        assert x.dtype == y.dtype and np.array_equal(x, y)


def _assert_same_domain(a, b):
    """Two prepared domains equal field by field, array dtypes included."""
    from dataclasses import fields as dc_fields

    from verbscope.perturb import PerturbPlan

    for fa, fb in ((a.forms, b.forms), (a.members.encoded, b.members.encoded)):
        assert fa.vocab == fb.vocab
        _same_array(fa.ids, fb.ids)
        _same_array(fa.offsets, fb.offsets)
    assert list(a.plans) == list(b.plans)
    for condition, plan in a.plans.items():
        other = b.plans[condition]
        if isinstance(plan, ValueError):
            assert type(other) is ValueError and str(other) == str(plan)
            continue
        assert (other.condition, other.members) == (plan.condition, plan.members)
        for f in dc_fields(PerturbPlan):
            if f.name not in ("condition", "members"):
                _same_array(getattr(plan, f.name), getattr(other, f.name))
    assert a.members.ids == b.members.ids and list(a.members) == list(b.members)
    assert all(type(sid) is str and type(tokens) is tuple for sid, tokens in b.members)
    assert a.members.distinct == b.members.distinct
    _same_array(a.members.index, b.members.index)
    assert list(a.pairs_meta.items()) == list(b.pairs_meta.items())
    assert a.stats == b.stats and repr(a.stats) == repr(b.stats)


def _assert_domain_of_its_files(data, config, ddir):
    """A domain built from its prep record holds what its files give: the
    train split's forms, stats and perturb plans, and the pair file's rows."""
    from dataclasses import fields

    from verbscope.corpus import build_frequency_table
    from verbscope.ingest import read_conllu
    from verbscope.pairgen import read_pairs
    from verbscope.perturb import PerturbPlan, perturb_plan
    from verbscope.scorer.scoring import pair_items
    from verbscope.stats import compute_stats

    train = read_conllu(ddir / "splits" / "train.conllu", domain="d")
    forms = train.form_view()
    assert data.forms.vocab == forms.vocab
    _same_array(data.forms.ids, forms.ids)
    _same_array(data.forms.offsets, forms.offsets)
    assert data.stats == compute_stats(forms)
    table = build_frequency_table(train)
    for condition in config.conditions:
        try:
            plan = perturb_plan(train, condition, table, config.include_propn,
                                config.pin_final_punct)
        except ValueError as exc:
            assert str(data.plans[condition]) == str(exc)
            continue
        assert data.plans[condition].members == plan.members
        for f in fields(PerturbPlan):
            if f.name not in ("condition", "members"):
                _same_array(getattr(data.plans[condition], f.name), getattr(plan, f.name))
    pairs = list(read_pairs(ddir / "pairs" / "pairs.jsonl"))
    batch = pair_items(pairs)
    assert data.members.ids == batch.ids and list(data.members) == list(batch)
    assert list(data.pairs_meta.items()) == [(p.pair_id, p.paradigm) for p in pairs]
    assert data.members.distinct == batch.distinct
    _same_array(data.members.index, batch.index)


@settings(max_examples=50, deadline=None)
@given(st.lists(_FORM, min_size=1, max_size=24), st.sampled_from(["nouns", "pronouns", "untagged"]))
def test_a_prepared_domain_equals_its_reloaded_record(nouns, shape):
    import tempfile

    from verbscope.experiment import _prepare_domain, _sha256
    from verbscope.perturb import REPLACE_WORD

    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp) / "d.conllu"
        corpus.write_text(_conllu(nouns, shape), encoding="utf-8")
        config = ExperimentConfig(
            corpora=[f"d:{corpus}:conllu"], out_dir=tmp, len_min=1, seeds=[1],
        )
        spec = config.corpora[0]
        prepared, loaded = _prepare_domain(config, spec, Path(tmp), _sha256(corpus))
        assert not loaded
        reloaded, loaded = _prepare_domain(config, spec, Path(tmp), _sha256(corpus))
        assert loaded
        _assert_same_domain(prepared, reloaded)
        _assert_domain_of_its_files(reloaded, config, Path(tmp) / "d")
        plan = prepared.plans[REPLACE_WORD]
        if shape == "untagged":
            assert isinstance(plan, ValueError)
        elif shape == "pronouns":
            assert len(plan.targets) == 0


# labels a record must keep exactly: non-ASCII domains and checkpoints, and
# strings JSON escapes
_NAME = st.text(st.characters(categories=("L", "M", "N")), min_size=1, max_size=6)
_LABEL = _NAME | st.sampled_from(["", "step 1", "ckpt ", '"\\', "\U0001d518"])
_ROW = st.fixed_dictionaries({
    "train_domain": _NAME, "eval_domain": _NAME, "condition": st.sampled_from(CONDITIONS),
    "checkpoint": _LABEL, "paradigm": _LABEL, "accuracy": st.floats(0, 1),
    "n": st.integers(0, 2**53), "ties": st.integers(0, 2**53),
})


@st.composite
def _report(draw):
    from dataclasses import asdict

    from verbscope.perturb import ORIGINAL, REPLACE_WORD, PerturbReport

    condition = draw(st.sampled_from(CONDITIONS))
    total = draw(st.integers(0, 10**9))
    replaced = draw(st.integers(0, total)) if condition == REPLACE_WORD else 0
    seed = None if condition == ORIGINAL else draw(st.integers(0, 2**63 - 1))
    return asdict(PerturbReport(condition, total, replaced,
                                replaced / total if total else 0.0, seed))


@settings(max_examples=60, deadline=None)
@given(_NAME, st.sampled_from(CONDITIONS), st.integers(0, 99), st.lists(_ROW, max_size=5),
       _report(), st.text(max_size=8))
def test_cell_record_round_trip_property(domain, condition, seed, rows, report, other_key):
    """_load_record gives back what _write_record wrote: the typed rows and
    report, each accuracy bit for bit, n and ties as ints. Under another key
    the record is a miss."""
    import tempfile

    import verbscope.experiment as exp

    unit = exp._unit((domain, condition, seed))
    key = "k" * 64
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        exp._unit_dir(out, unit).mkdir(parents=True)
        exp._write_record(out, unit, key, rows, report)
        record = exp._load_record(out, unit, key)
        assert record == {"key": key, "rows": rows, "report": report}
        for got, want in zip(record["rows"], rows):
            assert type(got["accuracy"]) is float
            assert got["accuracy"].hex() == want["accuracy"].hex()
            assert type(got["n"]) is int and type(got["ties"]) is int
        assert type(record["report"]["replacement_rate"]) is float
        assert exp._load_record(out, unit, other_key) is None
