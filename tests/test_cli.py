import json

import pytest

from verbscope.cli import main


@pytest.fixture
def chat_file(fixture_dir):
    return str(fixture_dir / "chat.conllu")


@pytest.fixture
def written_file(fixture_dir):
    return str(fixture_dir / "written.conllu")


@pytest.fixture
def split_dir(tmp_path, chat_file):
    out = tmp_path / "splits"
    assert main(["ingest", "--in", chat_file, "--split", "10,2.5,2.5",
                 "--out", str(out)]) == 0
    return out


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 2


def test_runtime_error_exits_1(tmp_path, capsys):
    assert main(["stats", "--in", str(tmp_path / "missing.conllu")]) == 1
    assert "error:" in capsys.readouterr().err


def test_ingest_split(split_dir):
    assert (split_dir / "train.conllu").exists()
    assert (split_dir / "dev.conllu").exists()
    assert (split_dir / "test.conllu").exists()


def test_ingest_chat_format(tmp_path, capsys):
    cha = tmp_path / "t.cha"
    cha.write_text("@Begin\n*MOT:\tyou want it ?\n%act:\tpoints\n")
    out = tmp_path / "out.conllu"
    assert main(["ingest", "--in", str(cha), "--format", "chat", "--out", str(out)]) == 0
    assert "1 sentences" in capsys.readouterr().out


def test_stats_and_table(split_dir, tmp_path, capsys):
    table = tmp_path / "table.tsv"
    csv_out = tmp_path / "stats.csv"
    assert main(["stats", "--in", str(split_dir / "train.conllu"),
                 "--save-table", str(table), "--out", str(csv_out)]) == 0
    assert "1-gram TTR" in capsys.readouterr().out
    assert table.exists() and csv_out.exists()


def test_stats_refuses_two_corpora_with_one_name(split_dir, tmp_path, capsys):
    first = split_dir / "train.conllu"
    second = tmp_path / "other" / "train.conllu"
    second.parent.mkdir()
    second.write_text((split_dir / "test.conllu").read_text())
    csv_out = tmp_path / "stats.csv"
    assert main(["stats", "--in", str(first), "--in", str(second), "--out", str(csv_out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: --in {first} and --in {second} share the corpus name 'train'\n"
    )
    assert not csv_out.exists()
    assert main(["stats", "--in", str(first), "--in", str(split_dir / "test.conllu")]) == 0
    assert capsys.readouterr().out.startswith("Statistic            test  train\n")


def test_perturb_train_lm_genpairs_score_eval(split_dir, tmp_path, capsys):
    table = tmp_path / "table.tsv"
    main(["stats", "--in", str(split_dir / "train.conllu"), "--save-table", str(table)])

    perturbed = tmp_path / "train_rw.conllu"
    report = tmp_path / "report.json"
    assert main(["perturb", "--condition", "replace-word", "--table", str(table),
                 "--in", str(split_dir / "train.conllu"), "--out", str(perturbed),
                 "--report", str(report), "--seed", "3"]) == 0
    assert json.loads(report.read_text())["condition"] == "REPLACE.WORD"

    lm = tmp_path / "lm.txt"
    assert main(["train-lm", "--order", "3", "--in", str(perturbed),
                 "--out", str(lm)]) == 0

    pairs = tmp_path / "pairs.jsonl"
    assert main(["genpairs", "semantic", "--test", str(split_dir / "test.conllu"),
                 "--table", str(table), "--seed", "1", "--out", str(pairs)]) == 0

    scores = tmp_path / "scores.tsv"
    assert main(["score", "--lm", str(lm), "--pairs", str(pairs),
                 "--out", str(scores)]) == 0

    results = tmp_path / "results.csv"
    assert main(["eval", "--pairs", str(pairs), "--scores", str(scores),
                 "--train-domain", "chat", "--eval-domain", "chat",
                 "--condition", "REPLACE.WORD", "--out", str(results)]) == 0
    out = capsys.readouterr().out
    assert "accuracy" in out
    assert results.read_text().startswith("train_domain,")


def test_genpairs_agreement(written_file, tmp_path):
    pairs = tmp_path / "agr.jsonl"
    assert main(["genpairs", "agreement", "--train", written_file, "--n", "10",
                 "--seed", "2", "--out", str(pairs)]) == 0
    lines = pairs.read_text().splitlines()
    assert len(lines) == 50  # 5 paradigms x 10


def test_genpairs_agreement_reads_train_in_format(written_file, tmp_path, capsys):
    """--train is read as --format says: untagged text yields no lexicon."""
    from verbscope.ingest import read_conllu

    text = tmp_path / "written.txt"
    text.write_text(
        "".join(" ".join(s.forms()) + "\n" for s in read_conllu(written_file)),
        encoding="utf-8",
    )
    pairs = str(tmp_path / "agr.jsonl")
    for train in (str(text), written_file):
        assert main(["genpairs", "agreement", "--train", train, "--format", "text",
                     "--n", "5", "--out", pairs]) == 1
        assert "lexicon too sparse" in capsys.readouterr().err


def test_train_tagger_and_tag(split_dir, tmp_path, capsys):
    model = tmp_path / "tagger.model"
    assert main(["train-tagger", "--conllu", str(split_dir / "train.conllu"),
                 "--epochs", "2", "--seed", "1", "--out", str(model),
                 "--dev", str(split_dir / "dev.conllu")]) == 0
    assert "heldout accuracy" in capsys.readouterr().out

    raw = tmp_path / "raw.txt"
    raw.write_text("the baby naps .\nyou can read the book .\n")
    tagged = tmp_path / "tagged.conllu"
    assert main(["tag", "--model", str(model), "--in", str(raw),
                 "--out", str(tagged)]) == 0
    assert "VERB" in tagged.read_text()


def test_score_with_external(tmp_path, capsys):
    import sys

    import verbscope.echo_scorer

    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text(
        '{"pair_id": "p1", "paradigm": "semantic-verb", "good": "a b", "bad": "a c", "diff_index": 1, "meta": {}}\n'
    )
    scores = tmp_path / "scores.tsv"
    cmd = f'"{sys.executable}" "{verbscope.echo_scorer.__file__}"'
    assert main(["score", "--external", cmd, "--pairs", str(pairs),
                 "--out", str(scores)]) == 0
    assert len(scores.read_text().splitlines()) == 2


def test_regress_trajectory_plot(tmp_path):
    results = tmp_path / "results.csv"
    rows = ["train_domain,eval_domain,condition,checkpoint,paradigm,accuracy,n,ties"]
    for d, base in (("cdl", 0.9), ("bnc", 0.8)):
        for c, drop in (("ORIGINAL", 0.0), ("SHUFFLE.ORDER", 0.13)):
            for seed in (1, 2):
                acc = base - drop - 0.001 * seed
                rows.append(f"{d},{d},{c},,ALL,{acc},100,0")
    for i, ck in enumerate(("0.5", "1", "2")):
        rows.append(f"cdl,cdl,ORIGINAL,{ck},semantic-verb,{0.5 + 0.2 * i},100,0")
        rows.append(f"cdl,cdl,ORIGINAL,{ck},agr-simple,{0.4 + 0.1 * i},50,0")
    results.write_text("\n".join(rows) + "\n")

    coef = tmp_path / "coef.csv"
    assert main(["regress", "--in", str(results), "--out", str(coef)]) == 0
    assert "condition[SHUFFLE.ORDER]" in coef.read_text()

    bare = tmp_path / "bare.csv"  # no paradigm column: every row is an ALL row
    bare.write_text("train_domain,condition,accuracy\n" + "".join(
        f"{f[0]},{f[2]},{f[5]}\n" for f in (r.split(",") for r in rows[1:]) if f[4] == "ALL"
    ))
    bare_coef = tmp_path / "bare-coef.csv"
    assert main(["regress", "--in", str(bare), "--out", str(bare_coef)]) == 0
    assert bare_coef.read_bytes() == coef.read_bytes()

    traj = tmp_path / "traj.csv"
    assert main(["trajectory", "--in", str(results), "--out", str(traj)]) == 0
    assert traj.read_text().startswith("checkpoint,")

    chart = tmp_path / "chart.svg"
    assert main(["plot", "--in", str(traj), "--x", "checkpoint",
                 "--out", str(chart)]) == 0
    assert "<svg" in chart.read_text()


HEADER = "train_domain,eval_domain,condition,checkpoint,paradigm,accuracy,n,ties"


@pytest.mark.parametrize(
    "command, text, where",
    [
        ("trajectory", "train_domain,checkpoint,accuracy,n\na,1,0.5,10\n",
         "line 1: no column 'paradigm'"),
        ("regress", f"{HEADER}\na,a,X,,ALL,0.5,10,0\nb,b,X,,ALL,x,10,0\n",
         "line 3: accuracy must be float, got 'x'"),
        ("trajectory", f"{HEADER}\na,a,X,1,semantic-verb,0.5,ten,0\n",
         "line 2: n must be int, got 'ten'"),
        ("plot", "checkpoint,semantic_acc\n1,0.5\n2,0.6\n3,oops\n", "line 4: could not convert"),
        ("trajectory", f"{HEADER}\na,a,X,final,semantic-verb,0.5,10,0\n",
         "checkpoint must be a number, got 'final'"),
    ],
    ids=["trajectory-no-paradigm", "regress-bad-accuracy", "trajectory-bad-n", "plot-bad-cell",
         "trajectory-bad-checkpoint"],
)
def test_csv_readers_name_the_file_and_line(tmp_path, capsys, command, text, where):
    path = tmp_path / "in.csv"
    path.write_text(text)
    assert main([command, "--in", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: {where}")


def test_run_minimal(tmp_path, fixture_dir, capsys):
    out = tmp_path / "exp"
    assert main([
        "run",
        "--corpus", f"chat:{fixture_dir / 'chat.conllu'}:conllu",
        "--seeds", "1",
        "--out", str(out),
    ]) == 0
    assert (out / "results.csv").exists()
    assert (out / "manifest.json").exists()
    rows = (out / "results.csv").read_text().splitlines()
    assert len(rows) > 1
    assert "3 cells: 3 computed, 0 shared, 0 cached, 0 failed" in capsys.readouterr().err


def test_run_from_config(tmp_path, fixture_dir):
    config = tmp_path / "exp.cfg"
    config.write_text(
        "\n".join(
            [
                "# desk-scale demo",
                f'corpora = ["chat:{fixture_dir / "chat.conllu"}:conllu"]',
                'conditions = ["ORIGINAL", "SHUFFLE.ORDER"]',
                "seeds = [1]",
                "lm_order = 2",
                f'out_dir = "{tmp_path / "exp2"}"',
            ]
        )
        + "\n"
    )
    assert main(["run", "--config", str(config)]) == 0
    manifest = json.loads((tmp_path / "exp2" / "manifest.json").read_text())
    assert manifest["config"]["lm_order"] == 2
    assert all(v == "ok" for v in manifest["cells"].values())


def test_run_rejects_nonpositive_threads(tmp_path, fixture_dir, capsys):
    out = tmp_path / "exp"
    assert main([
        "run", "--corpus", f"chat:{fixture_dir / 'chat.conllu'}:conllu",
        "--threads", "0", "--out", str(out),
    ]) == 1
    assert "threads must be >= 1, got 0" in capsys.readouterr().err
    assert not out.exists()


def test_run_rejects_a_domain_outside_its_directory(tmp_path, fixture_dir, capsys):
    out = tmp_path / "exp"
    assert main([
        "run", "--corpus", f"..:{fixture_dir / 'chat.conllu'}:conllu", "--out", str(out),
    ]) == 1
    assert "domain '..' must be a directory name" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_run_config_and_corpus_are_exclusive(tmp_path, capsys):
    config = tmp_path / "exp.cfg"
    config.write_text(f'corpora = ["a:x.conllu"]\nout_dir = "{tmp_path / "out"}"\n')
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(config), "--corpus", "ghost:/nonexistent.conllu:conllu"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
