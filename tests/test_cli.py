import argparse
import json

import numpy as np
import pytest

from ctrlkit import tokenizer, trainer
from ctrlkit.cli import _parse_floats, _sampling_params, _write, build_parser, main
from ctrlkit.evaluation import GridSpec
from tests.conftest import make_two_genre_docs


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Corpus file, vocab, and a quickly trained checkpoint for CLI runs."""
    root = tmp_path_factory.mktemp("cli")
    docs, _ = make_two_genre_docs(n_per_genre=40)
    corpus_path = root / "corpus.tsv"
    from ctrlkit.corpus import save_corpus

    save_corpus(corpus_path, docs)

    vocab_path = root / "vocab.txt"
    assert main([
        "train-tokenizer", "--corpus", str(corpus_path),
        "--vocab-size", "90", "--fraction", "1.0",
        "--out", str(vocab_path),
    ]) == 0

    train_out = root / "run"
    assert main([
        "train", "--corpus", str(corpus_path), "--vocab", str(vocab_path),
        "--layers", "1", "--heads", "2", "--dim", "16", "--inner", "32",
        "--context", "48", "--epochs", "2", "--batch-size", "8",
        "--lr", "0.002", "--seed", "11", "--out", str(train_out),
    ]) == 0
    ckpt_path = train_out / "ckpt-epoch02" / "model.ckpt"
    assert ckpt_path.exists()
    return dict(root=root, corpus=corpus_path, vocab=vocab_path, ckpt=ckpt_path)


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    """Each verb's parser, by verb."""
    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def _verbs_with(option: str) -> set[str]:
    """The verbs whose parser declares ``option``."""
    return {
        verb for verb, p in _subparsers().items()
        if any(option in a.option_strings for a in p._actions)
    }


# Per verb: its input flags, then (bad options, the error each must raise).
BAD_OPTIONS = {
    "train-tokenizer": (["--corpus"], [
        (["--vocab-size", "0"], "TokenizerError"),
        (["--vocab-size", "90", "--fraction", "0"], "TokenizerError"),
        (["--vocab-size", "90", "--table", "bundled"], "ValueError"),
    ]),
    "train": (["--corpus", "--vocab"], [
        (["--lr", "-1"], "TrainingError"),
        (["--epochs", "0"], "TrainingError"),
        (["--layers", "0"], "ModelError"),
        (["--dim", "30", "--heads", "4"], "ModelError"),
    ]),
    "generate": (["--ckpt", "--vocab"], [
        (["--occ", "alpha", "--max-new-tokens", "-1"], "SamplingError"),
        (["--occ", "alpha", "--num", "0"], "SamplingError"),
        (["--occ", "alpha", "--temperature", "2"], "SamplingError"),
    ]),
    "grid": (["--ckpt", "--vocab"], [
        (["--categories", "alpha", "--texts-per-cell", "0"], "EvaluationError"),
        (["--categories", ","], "EvaluationError"),
        (["--categories", "alpha", "--r-grid", ""], "EvaluationError"),
        (["--categories", "alpha", "--max-new-tokens", "-1"], "SamplingError"),
        (["--categories", "alpha", "--t-grid", "5"], "SamplingError"),
    ]),
    "perplexity": (["--ckpt", "--vocab", "--text-file"], [
        (["--window", "0"], "EvaluationError"),
        (["--window", "1"], "EvaluationError"),
    ]),
    "index-build": (["--corpus"], [
        (["--k", "0"], "NGramIndexError"),
    ]),
    "index-search": (["--idx"], [
        (["--query", " "], "NGramIndexError"),
    ]),
    "index-overlap": (["--idx", "--eval"], [
        (["--threshold", "0"], "NGramIndexError"),
        (["--threshold", "1,0"], "NGramIndexError"),
        (["--threshold", ""], "NGramIndexError"),
        (["--threshold", "1,a"], "NGramIndexError"),
    ]),
    "finetune": (["--ckpt", "--vocab", "--data"], [
        (["--task", "nosuch"], "TaskError"),
        (["--task", "swewinograd", "--epochs", "0"], "TrainingError"),
        (["--task", "swewinograd", "--batch-size", "0"], "TrainingError"),
    ]),
    "eval-task": (["--ckpt", "--vocab", "--data"], [
        (["--task", "nosuch"], "TaskError"),
        (["--task", "swewinograd", "--max-new-tokens", "-1"], "SamplingError"),
    ]),
}


@pytest.mark.parametrize("verb", sorted(_subparsers()))
def test_every_verb_checks_options_before_reading(tmp_path, capsys, verb):
    """A bad option gets its own error even when every input is missing,
    and nothing is written."""
    inputs, cases = BAD_OPTIONS[verb]  # a new verb must add its cases here
    missing = tmp_path / "missing"
    work = tmp_path / "work"
    work.mkdir()
    for flags, error in cases:
        argv = [verb, *(x for flag in inputs for x in (flag, str(missing / flag[2:]))),
                *flags, "--out", str(work / "out")]
        assert main(argv) == 1, flags
        err = capsys.readouterr().err
        assert err.startswith(f"error: {error}: "), (flags, err)
        assert list(work.iterdir()) == [], flags
    assert not missing.exists()


class TestVerbBasics:
    def test_seed_only_on_verbs_that_use_randomness(self):
        assert _verbs_with("--seed") == {"train", "finetune", "generate", "grid"}

    def test_table_only_where_it_picks_control_codes(self):
        assert _verbs_with("--table") == {"train-tokenizer"}
        assert _verbs_with("--config") == _verbs_with("--arch") == set()

    def test_unknown_verb_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_missing_file_is_one_line_error(self, workspace, capsys):
        rc = main([
            "generate", "--ckpt", "/nonexistent.ckpt",
            "--vocab", str(workspace["vocab"]), "--occ", "alpha",
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.strip().split("\n")) == 1


class TestGenerate:
    def test_preset_m3_parameters_recorded(self, workspace, tmp_path):
        out = tmp_path / "gen.jsonl"
        rc = main([
            "generate", "--ckpt", str(workspace["ckpt"]),
            "--vocab", str(workspace["vocab"]), "--occ", "alpha",
            "--prompt", "a1 a2", "--preset", "M3",
            "--max-new-tokens", "8", "--seed", "5", "--out", str(out),
        ])
        assert rc == 0
        record = json.loads(out.read_text().strip())
        assert record["params"]["r"] == 1.0
        assert record["params"]["p"] == 0.9
        assert record["params"]["T"] == 1.0  # temperature default
        assert record["stop_reason"] in ("ecc_reached", "max_length")

    def test_sampling_flags_recorded_without_preset(self, workspace, tmp_path):
        out = tmp_path / "gen.jsonl"
        rc = main([
            "generate", "--ckpt", str(workspace["ckpt"]),
            "--vocab", str(workspace["vocab"]), "--occ", "beta",
            "--temperature", "0.5", "--top-p", "0.7", "--rep-penalty", "1.3",
            "--max-new-tokens", "6", "--seed", "2", "--out", str(out),
        ])
        assert rc == 0
        params = json.loads(out.read_text().strip())["params"]
        assert (params["T"], params["p"], params["r"]) == (0.5, 0.7, 1.3)
        assert (params["preset"], params["seed"], params["max_new_tokens"]) == (None, 2, 6)

    @pytest.mark.parametrize("preset,expected", [(None, 64), ("M2", 64), ("GPT3", 256)])
    def test_max_new_tokens_from_preset_unless_given(self, preset, expected):
        argv = ["generate", "--ckpt", "m.ckpt", "--vocab", "v.txt", "--occ", "alpha"]
        if preset:
            argv += ["--preset", preset]
        args = build_parser().parse_args(argv)
        assert _sampling_params(args, 0).max_new_tokens == expected
        args = build_parser().parse_args(argv + ["--max-new-tokens", "9"])
        assert _sampling_params(args, 0).max_new_tokens == 9

    @pytest.mark.parametrize("num", ["0", "-2"])
    def test_count_below_one_rejected_before_reading(self, tmp_path, capsys, num):
        out = tmp_path / "gen.jsonl"
        rc = main([
            "generate", "--ckpt", str(tmp_path / "missing.ckpt"),
            "--vocab", str(tmp_path / "missing.txt"), "--occ", "alpha",
            "--num", num, "--out", str(out),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: SamplingError: --num must be at least 1")
        assert len(err.strip().split("\n")) == 1
        assert not out.exists()

    def test_same_seed_byte_identical(self, workspace, tmp_path):
        outs = []
        for name in ("a.jsonl", "b.jsonl"):
            out = tmp_path / name
            main([
                "generate", "--ckpt", str(workspace["ckpt"]),
                "--vocab", str(workspace["vocab"]), "--occ", "beta",
                "--preset", "M1", "--max-new-tokens", "12",
                "--num", "3", "--seed", "42", "--out", str(out),
            ])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestTokenizerAndTraining:
    def test_tokenizer_rerun_byte_identical(self, workspace, tmp_path):
        out = tmp_path / "vocab2.txt"
        main([
            "train-tokenizer", "--corpus", str(workspace["corpus"]),
            "--vocab-size", "90", "--fraction", "1.0", "--out", str(out),
        ])
        assert out.read_bytes() == workspace["vocab"].read_bytes()

    def test_says_when_pairs_run_out(self, tmp_path, capsys):
        # "ab" has one pair, so 3 base tokens is all it can reach.
        corpus_path = tmp_path / "corpus.tsv"
        corpus_path.write_text("news\tm\t-\tab\n")
        out = tmp_path / "vocab.txt"
        for size, said in (("3", ""), ("100", "ran out of pairs to merge: learned 3 of "
                                              "the 100 base tokens asked for\n")):
            assert main(["train-tokenizer", "--corpus", str(corpus_path), "--vocab-size",
                         size, "--fraction", "1", "--out", str(out)]) == 0
            assert capsys.readouterr().out == (
                f"{said}wrote vocab of 7 tokens (3 base) to {out}\n")

    def test_default_table_adds_every_bundled_category(self, tmp_path, capsys):
        corpus_path = tmp_path / "corpus.tsv"
        corpus_path.write_text("news\tm\t-\tett två tre\nwiki\ta\t-\tfyra fem sex\n")
        vocabs = {}
        for name, flags in (("default", ["--table", "default"]), ("auto", [])):
            out = tmp_path / f"vocab-{name}.txt"
            assert main(["train-tokenizer", "--corpus", str(corpus_path), "--vocab-size",
                         "30", *flags, "--out", str(out)]) == 0
            vocabs[name] = tokenizer.load_vocab(out).control_ids
        assert len(vocabs["default"]) == 37
        assert {"news", "wiki", "blogs/tech"} <= set(vocabs["default"])
        assert set(vocabs["auto"]) == {"news", "wiki"}

        out = tmp_path / "vocab-unknown.txt"
        rc = main(["train-tokenizer", "--corpus", str(corpus_path), "--vocab-size", "30",
                   "--table", "bundled", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ValueError: unknown table")
        assert not out.exists()

    @pytest.mark.parametrize("table", ["auto", "default"])
    def test_invalid_utf8_corpus_is_a_corpus_error(self, tmp_path, capsys, table):
        corpus_path = tmp_path / "corpus.tsv"
        corpus_path.write_bytes(b"news\tm\t-\tett tv\xc3\xa5\nwiki\ta\t-\tfyra \xff\n")
        out = tmp_path / "vocab.txt"
        rc = main(["train-tokenizer", "--corpus", str(corpus_path), "--vocab-size", "30",
                   "--table", table, "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: CorpusError: {corpus_path}:2: byte 0xff is not valid UTF-8\n")
        assert not out.exists()

    def test_train_rerun_byte_identical(self, workspace, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            main([
                "train", "--corpus", str(workspace["corpus"]),
                "--vocab", str(workspace["vocab"]),
                "--layers", "1", "--heads", "2", "--dim", "16", "--inner", "32",
                "--context", "48", "--epochs", "1", "--batch-size", "8",
                "--seed", "3", "--out", str(out),
            ])
            outs.append((out / "ckpt-epoch01" / "model.ckpt").read_bytes())
        assert outs[0] == outs[1]

    def test_zero_epochs_rejected_before_writing(self, workspace, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main([
            "train", "--corpus", str(workspace["corpus"]),
            "--vocab", str(workspace["vocab"]), "--epochs", "0",
            "--layers", "1", "--heads", "2", "--dim", "16", "--inner", "32",
            "--context", "48", "--seed", "1", "--out", str(out),
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: TrainingError: epochs")
        assert not out.exists()

    def test_negative_lr_rejected_before_writing(self, workspace, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main([
            "train", "--corpus", str(workspace["corpus"]),
            "--vocab", str(workspace["vocab"]), "--lr", "-1",
            "--layers", "1", "--heads", "2", "--dim", "16", "--inner", "32",
            "--context", "48", "--seed", "1", "--out", str(out),
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: TrainingError: lr")
        assert not out.exists()


def test_failed_write_keeps_the_previous_file(tmp_path):
    path = tmp_path / "out.csv"
    _write(str(path), "a,b\n1,2\n")
    # A lone surrogate cannot be encoded, so the write fails partway.
    with pytest.raises(UnicodeEncodeError):
        _write(str(path), "a,b\n" * 1000 + "\udcff\n")
    assert path.read_text(encoding="utf-8") == "a,b\n1,2\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


class TestGrid:
    def test_default_grid_flags_parse_to_gridspec_defaults(self):
        args = build_parser().parse_args([
            "grid", "--ckpt", "m.ckpt", "--vocab", "v.txt", "--categories", "alpha",
            "--out", "grid",
        ])
        grid = GridSpec(
            p_values=_parse_floats(args.p_grid),
            t_values=_parse_floats(args.t_grid),
            r_values=_parse_floats(args.r_grid),
        )
        assert grid.cells() == GridSpec().cells()

    @pytest.mark.parametrize("flags", [
        ["--r-grid", ""], ["--p-grid", "", "--t-grid", ""],
    ], ids=["no-r", "no-p-or-T"])
    def test_empty_grid_rejected_before_reading(self, tmp_path, capsys, flags):
        out = tmp_path / "grid"
        rc = main([
            "grid", "--ckpt", str(tmp_path / "missing.ckpt"),
            "--vocab", str(tmp_path / "missing.txt"), "--categories", "alpha",
            *flags, "--out", str(out),
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: EvaluationError: grid has no cells")
        assert not out.exists()

    def test_no_categories_rejected(self, workspace, tmp_path, capsys):
        out = tmp_path / "grid"
        rc = main([
            "grid", "--ckpt", str(workspace["ckpt"]), "--vocab", str(workspace["vocab"]),
            "--categories", ",", "--p-grid", "0.9", "--t-grid", "", "--r-grid", "1.0",
            "--out", str(out),
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            "error: EvaluationError: grid search needs at least one category")
        assert not out.exists()

    def test_index_of_another_k_rejected(self, workspace, tmp_path, capsys):
        idx = tmp_path / "idx1.jsonl"
        assert main(["index-build", "--corpus", str(workspace["corpus"]), "--k", "1",
                     "--out", str(idx)]) == 0
        capsys.readouterr()
        out = tmp_path / "grid"
        rc = main([
            "grid", "--ckpt", str(workspace["ckpt"]), "--vocab", str(workspace["vocab"]),
            "--categories", "alpha", "--idx", str(idx), "--texts-per-cell", "1",
            "--p-grid", "0.9", "--t-grid", "", "--r-grid", "1.0", "--out", str(out),
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            "error: EvaluationError: grid overlap needs a 13-gram index, not 1-grams")
        assert not out.exists()

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_texts_per_cell_below_one_rejected(self, workspace, tmp_path, capsys, n):
        out = tmp_path / "grid"
        rc = main([
            "grid", "--ckpt", str(workspace["ckpt"]), "--vocab", str(workspace["vocab"]),
            "--categories", "alpha", "--texts-per-cell", n,
            "--p-grid", "0.9", "--t-grid", "", "--r-grid", "1.0", "--out", str(out),
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            "error: EvaluationError: texts_per_cell must be at least 1")
        assert not out.exists()


class TestPerplexity:
    def test_csv_output(self, workspace, tmp_path, capsys):
        texts = tmp_path / "texts.txt"
        texts.write_text("a1 a2 a3 a4\nb1 b2 b3\n")
        rc = main([
            "perplexity", "--ckpt", str(workspace["ckpt"]),
            "--vocab", str(workspace["vocab"]), "--text-file", str(texts),
            "--window", "8",
        ])
        assert rc == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert out[0] == "perplexity,window,token_count"
        assert len(out) == 3
        value = float(out[1].split(",")[0])
        assert value > 1.0

    def test_short_line_gets_empty_row(self, workspace, tmp_path):
        texts = tmp_path / "texts.txt"
        texts.write_text("a b c d e f\nx\n")
        out = tmp_path / "ppl.csv"
        rc = main([
            "perplexity", "--ckpt", str(workspace["ckpt"]),
            "--vocab", str(workspace["vocab"]), "--text-file", str(texts),
            "--window", "8", "--out", str(out),
        ])
        assert rc == 0
        header, first, second = out.read_text().strip().split("\n")
        assert header == "perplexity,window,token_count"
        value, window, count = first.split(",")
        assert float(value) > 1.0 and window == "8" and int(count) > 0
        assert second == ",8,0"

    @pytest.mark.parametrize("window", ["0", "1", "49"])
    def test_out_of_range_window_writes_nothing(self, workspace, tmp_path, capsys, window):
        texts = tmp_path / "texts.txt"
        texts.write_text("x\na b c d e f\n")
        out = tmp_path / "ppl.csv"
        rc = main([
            "perplexity", "--ckpt", str(workspace["ckpt"]),
            "--vocab", str(workspace["vocab"]), "--text-file", str(texts),
            "--window", window, "--out", str(out),
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: EvaluationError: window")
        assert not out.exists()


    @pytest.mark.parametrize("window", ["0", "49"])
    def test_window_checked_without_any_text(self, workspace, tmp_path, capsys, window):
        texts = tmp_path / "texts.txt"
        texts.write_text("\n  \n")
        out = tmp_path / "ppl.csv"
        rc = main([
            "perplexity", "--ckpt", str(workspace["ckpt"]),
            "--vocab", str(workspace["vocab"]), "--text-file", str(texts),
            "--window", window, "--out", str(out),
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: EvaluationError: window")
        assert not out.exists()


class TestIndexVerbs:
    def test_build_search_overlap(self, workspace, tmp_path, capsys):
        idx_path = tmp_path / "idx.jsonl"
        rc = main([
            "index-build", "--corpus", str(workspace["corpus"]),
            "--k", "3", "--out", str(idx_path),
        ])
        assert rc == 0
        capsys.readouterr()  # drop the build status line

        # query three words straight out of the corpus
        from ctrlkit.corpus import load_corpus, table_from_names

        docs = load_corpus(workspace["corpus"], table_from_names(["alpha", "beta"]))
        query = " ".join(docs[0].text.split()[:3])
        rc = main(["index-search", "--idx", str(idx_path), "--query", query])
        assert rc == 0
        out = capsys.readouterr().out
        first = out.strip().split("\n")[0].split("\t")
        assert first[2] in ("alpha", "beta")
        assert first[3] in ("manual", "auto")

        eval_file = tmp_path / "eval.txt"
        eval_file.write_text(docs[0].text + "\nzz qq rr ss\n")
        rc = main([
            "index-overlap", "--idx", str(idx_path), "--eval", str(eval_file),
            "--threshold", "1,10",
        ])
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "k,n_short_pct,O_1,O_10"
        k, short, o1, o10 = lines[1].split(",")
        assert k == "3"
        assert float(o1) >= float(o10)

    def test_build_with_default_table(self, tmp_path, capsys):
        corpus_path = tmp_path / "corpus.tsv"
        corpus_path.write_text(
            "news\tm\t-\tett två tre fyra\n"
            "news/sport\ta\thttp://x/1\tett två fem\n"
        )
        idx_path = tmp_path / "idx.jsonl"
        rc = main(["index-build", "--corpus", str(corpus_path),
                   "--k", "2", "--out", str(idx_path)])
        assert rc == 0
        assert capsys.readouterr().out == "indexed 4 2-grams from 2 documents\n"
        rc = main(["index-search", "--idx", str(idx_path), "--query", "ett två"])
        assert rc == 0
        assert capsys.readouterr().out == "ett två\t2\tnews\tmanual\t-\n"

    def test_query_longer_than_k_rejected(self, tmp_path, capsys):
        corpus_path = tmp_path / "corpus.tsv"
        corpus_path.write_text(
            "news\tm\t-\tett två tre fyra fem\n"
            "news/sport\ta\thttp://x/1\ttvå tre fyra fem sex\n"
        )
        idx_path, out = tmp_path / "idx.jsonl", tmp_path / "hits.tsv"
        assert main(["index-build", "--corpus", str(corpus_path),
                     "--k", "3", "--out", str(idx_path)]) == 0
        capsys.readouterr()
        rc = main(["index-search", "--idx", str(idx_path),
                   "--query", "två tre fyra fem", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: NGramIndexError: query has 4 words"), err
        assert "1 to 3 words" in err
        assert not out.exists()

    def test_empty_threshold_list_rejected_before_reading(self, tmp_path, capsys):
        rc = main([
            "index-overlap", "--idx", str(tmp_path / "missing.jsonl"),
            "--eval", str(tmp_path / "missing.txt"), "--threshold", "",
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: NGramIndexError: --threshold")

    def test_non_integer_threshold_named_before_reading(self, tmp_path, capsys):
        rc = main([
            "index-overlap", "--idx", str(tmp_path / "missing.jsonl"),
            "--eval", str(tmp_path / "missing.txt"), "--threshold", "1,a,10",
        ])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: NGramIndexError: --threshold entry 'a' is not an integer\n")

    def test_index_rebuild_byte_identical(self, workspace, tmp_path):
        paths = []
        for name in ("i1.jsonl", "i2.jsonl"):
            p = tmp_path / name
            main(["index-build", "--corpus", str(workspace["corpus"]),
                  "--k", "2", "--out", str(p)])
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]


def _winograd_data(path):
    """Eight swewinograd datapoints over the workspace's words."""
    rng = np.random.default_rng(0)
    rows = []
    for i in range(8):
        words = " ".join(rng.choice(["a1", "a2", "b1", "b2"], size=3))
        rows.append(json.dumps({
            "text": words,
            "word1": "a1",
            "word2": "b1",
            "label": "Ja" if i % 2 else "Nej",
        }))
    path.write_text("\n".join(rows) + "\n")
    return path


class TestTaskVerbs:
    def test_finetune_then_eval(self, workspace, tmp_path, capsys):
        data = _winograd_data(tmp_path / "task.jsonl")
        ft_out = tmp_path / "ft"
        rc = main([
            "finetune", "--ckpt", str(workspace["ckpt"]),
            "--vocab", str(workspace["vocab"]), "--task", "swewinograd",
            "--data", str(data), "--epochs", "1", "--batch-size", "4",
            "--lr", "0.001", "--out", str(ft_out),
        ])
        assert rc == 0
        ft_ckpt = ft_out / "ckpt-epoch01" / "model.ckpt"
        ft_vocab = ft_out / "vocab.txt"
        assert ft_ckpt.exists() and ft_vocab.exists()
        capsys.readouterr()

        rc = main([
            "eval-task", "--ckpt", str(ft_ckpt), "--vocab", str(ft_vocab),
            "--task", "swewinograd", "--data", str(data),
            "--max-new-tokens", "4", "--epoch", "E1",
        ])
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "task,epoch,metric,value,N_missing%"
        assert any(line.startswith("swewinograd,E1,alpha_nominal,") for line in lines)

    def test_failed_finetune_keeps_finished_epochs(self, workspace, tmp_path, capsys,
                                                   monkeypatch):
        real_train = trainer.train

        def train_then_poison(*args, on_epoch, **kwargs):
            def poison(epoch, ck):  # after the CLI has written the epoch
                on_epoch(epoch, ck)
                ck.weights["tok_emb"][0, 0] = np.nan
            return real_train(*args, on_epoch=poison, **kwargs)

        monkeypatch.setattr(trainer, "train", train_then_poison)
        data = _winograd_data(tmp_path / "task.jsonl")
        ft_out = tmp_path / "ft"
        rc = main([
            "finetune", "--ckpt", str(workspace["ckpt"]),
            "--vocab", str(workspace["vocab"]), "--task", "swewinograd",
            "--data", str(data), "--epochs", "3", "--batch-size", "4",
            "--lr", "0.001", "--out", str(ft_out),
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: TrainingDiverged")
        assert sorted(p.name for p in ft_out.iterdir()) == ["ckpt-epoch01", "vocab.txt"]
        rc = main([
            "eval-task", "--ckpt", str(ft_out / "ckpt-epoch01" / "model.ckpt"),
            "--vocab", str(ft_out / "vocab.txt"), "--task", "swewinograd",
            "--data", str(data), "--max-new-tokens", "4", "--epoch", "E1",
        ])
        assert rc == 0
        assert capsys.readouterr().out.startswith("task,epoch,metric,value,N_missing%\n")
