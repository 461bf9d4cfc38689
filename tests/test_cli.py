"""Command-line workflow: subcommands, config files, exit codes."""

import contextlib
import inspect
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from conftest import (
    DEEP_JSON,
    LONG_JSON_INT,
    rewrite_checkpoint_header,
    separable_corpus,
    shift_first_tensor_word,
    splice_checkpoint_header,
    write_lines,
)
from ruber.cli import main
from ruber.embeddings import load_text_embeddings, save_text_embeddings, train_sgns
from ruber.scoretable import read_score_table
from ruber.unreferenced import TrainConfig, load_checkpoint


def _write_training_corpus(tmp_path, n=80, seed=130):
    rng = np.random.default_rng(seed)
    dataset, vocab, matrix = separable_corpus(rng, n_pairs=n, dim=8)
    rows = [" ".join(p.query) + "\t" + " ".join(p.reply) for p in dataset]
    corpus = write_lines(tmp_path / "train.tsv", rows)
    emb = str(tmp_path / "emb.txt")
    save_text_embeddings(vocab, matrix, emb)
    return corpus, emb, vocab, matrix


def _refused(argv, code, directory, *kept):
    """Run ``main(argv)`` and check a clean refusal: exit ``code``, one
    ``error:`` line on stderr, and nothing in ``directory`` but ``kept``.

    Returns the error line; stdout stays with ``capsys``.
    """
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(argv) == code
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert sorted(p.name for p in directory.iterdir()) == sorted(kept)
    return lines[0]


def _write_annotated(tmp_path, n=12, seed=131):
    rng = np.random.default_rng(seed)
    topics = [f"topic{i}" for i in range(20)]
    fillers = [f"flr{i}" for i in range(10)]
    rows = []
    for _ in range(n):
        topic = topics[int(rng.integers(20))]
        q = [fillers[int(rng.integers(10))], topic, fillers[int(rng.integers(10))]]
        gt = [topic, fillers[int(rng.integers(10))]]
        cand = [topics[int(rng.integers(20))], fillers[int(rng.integers(10))]]
        rows.append("\t".join([
            " ".join(q), " ".join(gt), " ".join(cand),
            str(int(rng.integers(0, 3))), str(int(rng.integers(0, 3))),
        ]))
    return write_lines(tmp_path / "annotated.tsv", rows)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory, capsys=None):
    """One full train-embeddings / train-scorer / score run, shared."""
    tmp_path = tmp_path_factory.mktemp("cli")
    corpus, emb, vocab, matrix = _write_training_corpus(tmp_path)
    annotated = _write_annotated(tmp_path)
    ckpt = str(tmp_path / "scorer.ckpt")
    scores = str(tmp_path / "scores.tsv")
    assert main([
        "train-scorer", "--corpus", corpus, "--embeddings", emb,
        "--out", ckpt, "--hidden", "6", "--mlp-hidden", "8",
        "--epochs", "1", "--batch-size", "16", "--seed", "3",
    ]) == 0
    assert main([
        "score", "--data", annotated, "--embeddings", emb,
        "--checkpoint", ckpt, "--out", scores,
    ]) == 0
    return dict(tmp_path=tmp_path, corpus=corpus, emb=emb,
                annotated=annotated, ckpt=ckpt, scores=scores)


class TestTrainEmbeddings:
    def test_produces_loadable_file(self, tmp_path, capsys):
        corpus, _, _, _ = _write_training_corpus(tmp_path, n=40)
        out = str(tmp_path / "vectors.txt")
        code = main([
            "train-embeddings", "--corpus", corpus, "--out", out,
            "--dim", "8", "--epochs", "1", "--min-count", "1", "--seed", "2",
        ])
        assert code == 0
        vocab, matrix = load_text_embeddings(out)
        assert matrix.shape[1] == 8
        echo = capsys.readouterr().out
        assert "config: train-embeddings" in echo
        assert "dim=8" in echo

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        corpus, _, _, _ = _write_training_corpus(tmp_path, n=40)
        a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
        args = ["train-embeddings", "--corpus", corpus, "--dim", "8",
                "--epochs", "1", "--min-count", "1", "--seed", "2"]
        assert main(args + ["--out", a]) == 0
        assert main(args + ["--out", b]) == 0
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_config_line_shows_every_train_sgns_default(self, tmp_path, capsys):
        corpus, _, _, _ = _write_training_corpus(tmp_path, n=40)
        out = str(tmp_path / "vectors.txt")
        assert main(["train-embeddings", "--corpus", corpus, "--out", out]) == 0
        echo = capsys.readouterr().out.splitlines()[0]
        assert echo == (
            f"config: train-embeddings corpus={corpus} dim=50 epochs=5 format=tsv "
            f"lr=0.025 min_count=5 negatives=5 out={out} seed=1 window=5"
        )
        keywords = inspect.signature(train_sgns).parameters.values()
        defaults = [f"{p.name}={p.default}" for p in keywords if p.default is not p.empty]
        assert len(defaults) == 7
        assert set(defaults) <= set(echo.split())

    def test_every_option_reaches_train_sgns(self, tmp_path, capsys, monkeypatch):
        chosen = dict(dim=3, window=2, negatives=4, epochs=1, lr=0.5, min_count=1, seed=6)
        keywords = inspect.signature(train_sgns).parameters
        assert all(keywords[name].default != value for name, value in chosen.items())
        received = {}

        def recording_train_sgns(dataset, **kwargs):
            received.update(kwargs)
            return train_sgns(dataset, **kwargs)

        monkeypatch.setattr("ruber.cli.train_sgns", recording_train_sgns)
        corpus, _, _, _ = _write_training_corpus(tmp_path, n=40)
        argv = ["train-embeddings", "--corpus", corpus, "--out", str(tmp_path / "v.txt")]
        for name, value in chosen.items():
            argv += ["--" + name.replace("_", "-"), str(value)]
        assert main(argv) == 0
        assert received == chosen

    def test_missing_corpus_is_exit_3(self, tmp_path):
        _refused(["train-embeddings", "--corpus", str(tmp_path / "ghost.tsv"),
                  "--out", str(tmp_path / "x.txt")], 3, tmp_path)

    def test_zero_dim_is_exit_2(self, tmp_path):
        corpus, _, _, _ = _write_training_corpus(tmp_path, n=40)
        _refused(["train-embeddings", "--corpus", corpus, "--out", str(tmp_path / "x.txt"),
                  "--dim", "0"], 2, tmp_path, "emb.txt", "train.tsv")


class TestTrainScorer:
    def test_epoch_lines_printed(self, pipeline, tmp_path, capsys):
        ckpt = str(tmp_path / "s.ckpt")
        code = main([
            "train-scorer", "--corpus", pipeline["corpus"],
            "--embeddings", pipeline["emb"], "--out", ckpt,
            "--hidden", "4", "--mlp-hidden", "6", "--epochs", "2",
            "--batch-size", "16", "--seed", "4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "epoch 1/2" in out and "epoch 2/2" in out
        assert "holdout_acc=" in out

    def test_epochs_zero_saves_initial_params(self, pipeline, tmp_path, capsys):
        ckpt = str(tmp_path / "init.ckpt")
        assert main([
            "train-scorer", "--corpus", pipeline["corpus"],
            "--embeddings", pipeline["emb"], "--out", ckpt,
            "--hidden", "4", "--mlp-hidden", "6", "--epochs", "0", "--seed", "4",
        ]) == 0
        loaded = load_checkpoint(ckpt)
        assert loaded.config.epochs == 0

    def test_unset_options_keep_the_train_config_defaults(self, pipeline, tmp_path, capsys):
        ckpt = str(tmp_path / "defaults.ckpt")
        assert main([
            "train-scorer", "--corpus", pipeline["corpus"],
            "--embeddings", pipeline["emb"], "--out", ckpt, "--epochs", "0",
        ]) == 0
        assert load_checkpoint(ckpt).config == TrainConfig(epochs=0)

    def test_every_option_reaches_the_train_config(self, pipeline, tmp_path, capsys):
        chosen = dict(hidden=3, mlp_hidden=5, margin=0.25, lr=0.5, epochs=0,
                      batch_size=7, max_len=9, seed=11, fine_tune_embeddings=True)
        assert all(getattr(TrainConfig, name) != value for name, value in chosen.items())
        ckpt = str(tmp_path / "chosen.ckpt")
        argv = ["train-scorer", "--corpus", pipeline["corpus"],
                "--embeddings", pipeline["emb"], "--out", ckpt]
        for name, value in chosen.items():
            flag = "--" + name.replace("_", "-")
            argv += [flag] if value is True else [flag, str(value)]
        assert main(argv) == 0
        assert load_checkpoint(ckpt).config == TrainConfig(**chosen)

    def test_corrupt_embeddings_exit_3(self, pipeline, tmp_path):
        bad = write_lines(tmp_path / "bad.txt", ["not a header"])
        _refused(["train-scorer", "--corpus", pipeline["corpus"], "--embeddings", bad,
                  "--out", str(tmp_path / "x.ckpt")], 3, tmp_path, "bad.txt")

    def test_bad_margin_exit_2(self, pipeline, tmp_path):
        _refused(["train-scorer", "--corpus", pipeline["corpus"], "--embeddings", pipeline["emb"],
                  "--out", str(tmp_path / "x.ckpt"), "--margin", "-1"], 2, tmp_path)

    def test_fine_tune_writes_updated_embeddings(self, pipeline, tmp_path, capsys):
        ckpt = str(tmp_path / "ft.ckpt")
        assert main([
            "train-scorer", "--corpus", pipeline["corpus"],
            "--embeddings", pipeline["emb"], "--out", ckpt,
            "--hidden", "4", "--mlp-hidden", "6", "--epochs", "1",
            "--batch-size", "16", "--seed", "4", "--fine-tune-embeddings",
        ]) == 0
        _, original = load_text_embeddings(pipeline["emb"])
        _, tuned = load_text_embeddings(ckpt + ".embeddings.txt")
        assert not np.array_equal(original, tuned)

    @pytest.mark.parametrize("fine_tune", [False, True])
    def test_non_finite_update_is_exit_4(self, tmp_path, capsys, fine_tune):
        """One Adam step at lr=1e308 leaves weights finite in float64 but
        not in the float32 checkpoint: exit 4, nothing written, no warning."""
        corpus, emb, _, _ = _write_training_corpus(tmp_path, n=40)
        ckpt = tmp_path / "inf.ckpt"
        argv = [
            "train-scorer", "--corpus", corpus, "--embeddings", emb,
            "--out", str(ckpt), "--hidden", "4", "--mlp-hidden", "6",
            "--epochs", "1", "--batch-size", "64", "--lr", "1e308",
        ]
        if fine_tune:
            argv.append("--fine-tune-embeddings")
        line = _refused(argv, 4, tmp_path, "emb.txt", "train.tsv")
        assert "epoch 1" in line and "non-finite" in line
        assert "holdout_acc" not in capsys.readouterr().out


class TestScore:
    def test_table_shape(self, pipeline, capsys):
        table = read_score_table(pipeline["scores"])
        assert table.n_pairs == 12
        assert table.n_annotators == 2
        assert len(table.metrics) == 13

    def test_rerun_is_byte_identical(self, pipeline, tmp_path, capsys):
        again = str(tmp_path / "scores2.tsv")
        assert main([
            "score", "--data", pipeline["annotated"],
            "--embeddings", pipeline["emb"],
            "--checkpoint", pipeline["ckpt"], "--out", again,
        ]) == 0
        assert Path(pipeline["scores"]).read_bytes() == Path(again).read_bytes()

    def test_single_blend_option(self, pipeline, tmp_path, capsys):
        out = str(tmp_path / "geo.tsv")
        assert main([
            "score", "--data", pipeline["annotated"],
            "--embeddings", pipeline["emb"],
            "--checkpoint", pipeline["ckpt"], "--out", out,
            "--blend", "geometric",
        ]) == 0
        table = read_score_table(out)
        assert "ruber_geometric" in table.metrics
        assert "ruber_min" not in table.metrics

    def test_vocab_mismatch_exit_5_and_override(self, pipeline, tmp_path):
        other_emb = str(tmp_path / "other.txt")
        rng = np.random.default_rng(7)
        from ruber.vocabulary import Vocabulary
        vocab = Vocabulary([f"zz{i}" for i in range(30)])
        save_text_embeddings(vocab, rng.normal(0, 1, (31, 8)), other_emb)
        args = [
            "score", "--data", pipeline["annotated"], "--embeddings", other_emb,
            "--checkpoint", pipeline["ckpt"], "--out", str(tmp_path / "x.tsv"),
        ]
        _refused(args, 5, tmp_path, "other.txt")
        assert main(args + ["--allow-vocab-mismatch"]) == 0

    def test_dim_mismatch_exit_5(self, pipeline, tmp_path):
        emb16 = str(tmp_path / "wide.txt")
        vocab, matrix = load_text_embeddings(pipeline["emb"])
        wide = np.hstack([matrix, matrix])
        save_text_embeddings(vocab, wide, emb16)
        line = _refused(["score", "--data", pipeline["annotated"], "--embeddings", emb16,
                         "--checkpoint", pipeline["ckpt"], "--out", str(tmp_path / "x.tsv")],
                        5, tmp_path, "wide.txt")
        assert line == "error: checkpoint expects 8-dim embeddings, file provides 16-dim"

    def test_corrupt_checkpoint_exit_3(self, pipeline, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"RUBX" + b"\x00" * 20)
        _refused(["score", "--data", pipeline["annotated"], "--embeddings", pipeline["emb"],
                  "--checkpoint", str(bad), "--out", str(tmp_path / "x.tsv")],
                 3, tmp_path, "bad.ckpt")

    @pytest.mark.parametrize("changes", [dict(hidden=-1), dict(hidden=10**6),
                                         dict(embed_dim="8")])
    def test_bad_checkpoint_header_exit_3(self, pipeline, tmp_path, changes):
        bad = tmp_path / "header.ckpt"
        with open(pipeline["ckpt"], "rb") as fh:
            bad.write_bytes(rewrite_checkpoint_header(fh.read(), **changes))
        _refused(["score", "--data", pipeline["annotated"], "--embeddings", pipeline["emb"],
                  "--checkpoint", str(bad), "--out", str(tmp_path / "x.tsv")],
                 3, tmp_path, "header.ckpt")

    def test_max_len_defaults_to_checkpoint(self, pipeline, tmp_path, capsys):
        ckpt = str(tmp_path / "short.ckpt")
        assert main([
            "train-scorer", "--corpus", pipeline["corpus"],
            "--embeddings", pipeline["emb"], "--out", ckpt,
            "--hidden", "4", "--mlp-hidden", "6", "--epochs", "1",
            "--batch-size", "16", "--max-len", "3", "--seed", "5",
        ]) == 0
        rng = np.random.default_rng(132)
        words = [f"flr{i}" for i in range(10)] + [f"topic{i}" for i in range(20)]
        annotated = write_lines(tmp_path / "long.tsv", [
            "\t".join(" ".join(rng.choice(words, size=6)) for _ in range(3))
            + f"\t{i % 3}\t{(i + 1) % 3}"
            for i in range(8)
        ])
        base = ["score", "--data", annotated, "--embeddings", pipeline["emb"],
                "--checkpoint", ckpt, "--out"]
        capsys.readouterr()
        assert main(base + [str(tmp_path / "default.tsv")]) == 0
        assert "max_len=3 " in capsys.readouterr().out
        assert main(base + [str(tmp_path / "short.tsv"), "--max-len", "3"]) == 0
        assert main(base + [str(tmp_path / "full.tsv"), "--max-len", "50"]) == 0
        default, short, full = ((tmp_path / f"{name}.tsv").read_bytes()
                                for name in ("default", "short", "full"))
        assert default == short
        assert default != full

    def test_bad_max_len_exit_2(self, pipeline, tmp_path):
        line = _refused(["score", "--data", pipeline["annotated"], "--embeddings", pipeline["emb"],
                         "--checkpoint", pipeline["ckpt"], "--out", str(tmp_path / "x.tsv"),
                         "--max-len", "0"], 2, tmp_path)
        assert line == "error: max_len must be >= 1, got 0"

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_scores_exit_4(self, pipeline, tmp_path):
        """Huge but finite vectors overflow the cosine into NaN."""
        vocab, matrix = load_text_embeddings(pipeline["emb"])
        huge = str(tmp_path / "huge.txt")
        save_text_embeddings(vocab, np.full_like(matrix, 1e200), huge)
        line = _refused(["score", "--data", pipeline["annotated"], "--embeddings", huge,
                         "--checkpoint", pipeline["ckpt"], "--out", str(tmp_path / "x.tsv")],
                        4, tmp_path, "huge.txt")
        assert "ref_score" in line and "row 1 " in line


class TestReport:
    def test_writes_json_and_text(self, pipeline, tmp_path, capsys):
        out = str(tmp_path / "report.json")
        text_out = str(tmp_path / "report.txt")
        assert main([
            "report", "--scores", pipeline["scores"], "--out", out,
            "--text-out", text_out,
        ]) == 0
        payload = json.loads(Path(out).read_text())
        assert payload["n_pairs"] == 12
        printed = capsys.readouterr().out
        body = Path(text_out).read_text()
        assert body in printed
        assert "ruber_arithmetic" in body

    def test_quantile_and_scatter_exports(self, pipeline, tmp_path, capsys):
        out = str(tmp_path / "r.json")
        qcsv = str(tmp_path / "bins.csv")
        sdir = tmp_path / "scatter"
        assert main([
            "report", "--scores", pipeline["scores"], "--out", out,
            "--quantile-csv", qcsv, "--scatter-dir", str(sdir),
            "--bins", "3", "--seed", "5",
        ]) == 0
        lines = Path(qcsv).read_text().splitlines()
        assert lines[0] == "metric,bin,mean_human,mean_metric"
        assert any(line.startswith("ref_score,0,") for line in lines)
        made = sorted(p.name for p in sdir.iterdir())
        assert "scatter_ref_score.csv" in made
        assert "scatter_ref_norm.csv" not in made

    def test_report_rerun_byte_identical(self, pipeline, tmp_path, capsys):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        for out in (a, b):
            assert main(["report", "--scores", pipeline["scores"],
                         "--out", out, "--seed", "5"]) == 0
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_config_line_shows_the_library_defaults(self, pipeline, tmp_path, capsys):
        out = str(tmp_path / "r.json")
        assert main(["report", "--scores", pipeline["scores"], "--out", out]) == 0
        echo = capsys.readouterr().out.splitlines()[0]
        assert echo == (
            f"config: report bins=5 jitter_sigma=0.25 out={out} quantile_csv=None "
            f"scatter_dir=None scores={pipeline['scores']} seed=0 text_out=None"
        )

    def test_missing_scores_exit_3(self, tmp_path):
        _refused(["report", "--scores", str(tmp_path / "ghost.tsv"),
                  "--out", str(tmp_path / "x.json")], 3, tmp_path)


class TestConfigFile:
    def test_flags_override_file(self, tmp_path, capsys):
        corpus, _, _, _ = _write_training_corpus(tmp_path, n=40)
        cfg = write_lines(tmp_path / "opts.cfg", [
            "# commented line",
            "dim = 4",
            "epochs = 1",
            "min_count = 1",
            f"corpus = {corpus}",
        ])
        out = str(tmp_path / "emb.txt")
        assert main(["train-embeddings", "--config", cfg, "--out", out,
                     "--dim", "6"]) == 0
        _, matrix = load_text_embeddings(out)
        assert matrix.shape[1] == 6  # flag wins over the file's 4
        echo = capsys.readouterr().out
        assert "dim=6" in echo

    def test_unknown_key_exit_2(self, tmp_path):
        cfg = write_lines(tmp_path / "opts.cfg", ["wibble = 3"])
        line = _refused(["train-embeddings", "--config", cfg, "--corpus", "x", "--out", "y"],
                        2, tmp_path, "opts.cfg")
        assert "wibble" in line

    @pytest.mark.parametrize("command, line, message", [
        ("train-embeddings", "epochs = soon", "option 'epochs' expects int, got 'soon'"),
        ("train-scorer", "fine_tune_embeddings = maybe",
         "option 'fine_tune_embeddings' expects a boolean, got 'maybe'"),
    ], ids=["int", "boolean"])
    def test_bad_value_type_exit_2(self, tmp_path, command, line, message):
        cfg = write_lines(tmp_path / "opts.cfg", [line])
        assert _refused([command, "--config", cfg, "--corpus", "x", "--out", "y"],
                        2, tmp_path, "opts.cfg") == f"error: {cfg}: {message}"

    def test_missing_required_option_exit_2(self, tmp_path):
        line = _refused(["train-embeddings", "--out", str(tmp_path / "y")], 2, tmp_path)
        assert "--corpus" in line

    def test_boolean_values_in_file(self, tmp_path, capsys):
        corpus, emb, _, _ = _write_training_corpus(tmp_path, n=40)
        cfg = write_lines(tmp_path / "opts.cfg", [
            f"corpus = {corpus}",
            f"embeddings = {emb}",
            "fine_tune_embeddings = true",
            "epochs = 0",
            "hidden = 3",
            "mlp_hidden = 4",
        ])
        ckpt = str(tmp_path / "s.ckpt")
        assert main(["train-scorer", "--config", cfg, "--out", ckpt]) == 0
        assert load_checkpoint(ckpt).config.fine_tune_embeddings is True

    def test_malformed_line_exit_2(self, tmp_path):
        cfg = write_lines(tmp_path / "opts.cfg", ["just some words"])
        _refused(["train-embeddings", "--config", cfg, "--corpus", "x", "--out", "y"],
                 2, tmp_path, "opts.cfg")

    @pytest.mark.parametrize("key", ["corpus", "out"])
    def test_nul_in_a_value_exit_2_before_any_input_is_read(self, tmp_path, capsys, key):
        """A NUL in a path ended in a traceback, for ``out`` after training."""
        corpus, _, _, _ = _write_training_corpus(tmp_path, n=40)
        paths = {"corpus": corpus, "out": str(tmp_path / "e.txt")}
        paths[key] = paths[key].replace(".", "\x00.")
        cfg = write_lines(tmp_path / "opts.cfg", [
            "dim = 4", "epochs = 1", "min_count = 1",
            f"corpus = {paths['corpus']}", f"out = {paths['out']}",
        ])
        line = _refused(["train-embeddings", "--config", cfg], 2, tmp_path,
                        "emb.txt", "opts.cfg", "train.tsv")
        assert capsys.readouterr().out == ""  # refused before the config echo and any input
        at = 4 if key == "corpus" else 5
        assert line == f"error: {cfg}:{at}: line holds a NUL character"


def _runnable_argv(command, pipeline, tmp_path):
    """``command`` with options it would succeed under, on the pipeline's files."""
    return [command, *{
        "train-embeddings": ["--corpus", pipeline["corpus"], "--out", str(tmp_path / "v.txt"),
                             "--min-count", "1"],
        "train-scorer": ["--corpus", pipeline["corpus"], "--embeddings", pipeline["emb"],
                         "--out", str(tmp_path / "s.ckpt"), "--epochs", "1",
                         "--hidden", "2", "--mlp-hidden", "2"],
        "report": ["--scores", pipeline["scores"], "--out", str(tmp_path / "r.json"),
                   "--quantile-csv", str(tmp_path / "q.csv"),
                   "--scatter-dir", str(tmp_path / "scatter")],
    }[command]]


def _rename_metric(pipeline, tmp_path, name):
    """The pipeline's score table with ``rouge_l`` renamed; returns its path,
    header line and the renamed column (both 1-based)."""
    lines = Path(pipeline["scores"]).read_text().splitlines()
    at = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    names = lines[at].split("\t")
    col = names.index("rouge_l") + 1
    names[col - 1] = name
    lines[at] = "\t".join(names)
    return write_lines(tmp_path / "scores.tsv", lines), at + 1, col


class TestInputsEndInExitCodes:
    """Inputs that once ended in a traceback map onto a README exit code."""

    def test_oversized_embedding_header_is_exit_3(self, pipeline, tmp_path):
        emb = write_lines(tmp_path / "huge.txt", ["1 1000000000000", "a 0.5"])
        line = _refused(["train-scorer", "--corpus", pipeline["corpus"], "--embeddings", emb,
                         "--out", str(tmp_path / "x.ckpt"), "--epochs", "0"],
                        3, tmp_path, "huge.txt")
        assert "expected a token and 1000000000000 values" in line

    def test_repeated_embedding_row_is_exit_3(self, pipeline, tmp_path):
        emb = write_lines(tmp_path / "dup.txt", ["3 2", "a 1 2", "a 3 4", "b 1 1"])
        line = _refused(["train-scorer", "--corpus", pipeline["corpus"], "--embeddings", emb,
                         "--out", str(tmp_path / "x.ckpt"), "--epochs", "0"],
                        3, tmp_path, "dup.txt")
        assert line == f"error: {emb}:3: token 'a' repeats line 2"

    @pytest.mark.parametrize("which", ["corpus", "embeddings", "config", "scores"])
    def test_non_utf8_input_is_exit_3(self, pipeline, tmp_path, which):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes("caf\u00e9\tna\u00efve\n".encode("latin-1"))
        inputs = {"--corpus": pipeline["corpus"], "--embeddings": pipeline["emb"],
                  f"--{which}": str(bad)}
        argv = ["train-scorer", "--out", str(tmp_path / "x.ckpt"), "--epochs", "0"]
        argv += [item for flag_and_path in inputs.items() for item in flag_and_path]
        if which == "scores":
            argv = ["report", "--scores", str(bad), "--out", str(tmp_path / "r.json")]
        _refused(argv, 3, tmp_path, "latin1.txt")

    @pytest.mark.parametrize("command", ["train-embeddings", "train-scorer", "report"])
    def test_negative_seed_is_exit_2(self, pipeline, tmp_path, command):
        line = _refused([*_runnable_argv(command, pipeline, tmp_path), "--seed", "-1"],
                        2, tmp_path)
        assert "seed must be >= 0" in line

    @pytest.mark.parametrize("command, option, value", [
        ("train-scorer", "--margin", "nan"), ("train-scorer", "--lr", "nan"),
        ("train-embeddings", "--lr", "nan"), ("report", "--jitter-sigma", "nan"),
        ("report", "--jitter-sigma", "inf"), ("train-scorer", "--lr", "inf"),
        ("train-scorer", "--margin", "inf"), ("train-embeddings", "--lr", "inf"),
    ])
    def test_undefined_option_value_is_exit_2(self, pipeline, tmp_path, command, option, value):
        line = _refused([*_runnable_argv(command, pipeline, tmp_path), option, value],
                        2, tmp_path)
        assert f"{option[2:].replace('-', '_')} must be" in line

    @pytest.mark.parametrize("command, option, value", [
        ("train-scorer", "--lr", "inf"), ("train-scorer", "--margin", "inf"),
        ("train-scorer", "--lr", "nan"), ("train-embeddings", "--lr", "inf"),
        ("train-embeddings", "--lr", "nan"), ("report", "--bins", "0"),
        ("report", "--jitter-sigma", "nan"), ("report", "--seed", "-1"),
    ])
    def test_undefined_option_value_is_refused_before_reading(self, tmp_path,
                                                              command, option, value):
        missing = str(tmp_path / "missing.tsv")  # reading it would be exit 3
        inputs = {"train-embeddings": ["--corpus", missing],
                  "train-scorer": ["--corpus", missing, "--embeddings", missing],
                  "report": ["--scores", missing]}[command]
        line = _refused([command, *inputs, "--out", str(tmp_path / "out"), option, value],
                        2, tmp_path)
        rule = {"--bins": ">= 1", "--jitter-sigma": "finite and >= 0",
                "--seed": ">= 0"}.get(option, "positive and finite")
        assert line == f"error: {option[2:].replace('-', '_')} must be {rule}, got {value}"

    @pytest.mark.parametrize("command, option, value", [
        ("train-embeddings", "--dim", "1000000000000"),
        ("train-embeddings", "--dim", str(10**18)),
        ("train-embeddings", "--negatives", str(10**14)),
        ("train-scorer", "--hidden", str(10**14)),
        ("train-scorer", "--mlp-hidden", str(10**14)),
        ("train-scorer", "--mlp-hidden", str(10**18)),
    ])
    def test_oversized_option_is_exit_2(self, pipeline, tmp_path, command, option, value):
        """Sizes numpy refuses at once: each is past the address space a process can map."""
        line = _refused([*_runnable_argv(command, pipeline, tmp_path), option, value],
                        2, tmp_path)
        assert "too large to allocate" in line
        assert f"{option[2:].replace('-', '_')}={value}" in line

    @pytest.mark.parametrize("option, value", [
        ("--bins", "0"), ("--bins", "-1"), ("--jitter-sigma", "-0.5"),
    ])
    def test_report_option_is_checked_before_writing(self, pipeline, tmp_path, option, value):
        line = _refused([*_runnable_argv("report", pipeline, tmp_path), option, value],
                        2, tmp_path)
        assert line.startswith(f"error: {option[2:].replace('-', '_')} must be")

    def test_non_finite_skip_gram_vectors_are_exit_4(self, pipeline, tmp_path):
        line = _refused(["train-embeddings", "--corpus", pipeline["corpus"],
                         "--out", str(tmp_path / "v.txt"), "--dim", "4", "--epochs", "1",
                         "--min-count", "1", "--lr", "1e308"], 4, tmp_path)
        assert line == "error: skip-gram training produced non-finite vectors"

    def test_window_past_int64_is_exit_2(self, tmp_path):
        missing = str(tmp_path / "missing.tsv")  # reading it would be exit 3
        line = _refused(["train-embeddings", "--corpus", missing,
                         "--out", str(tmp_path / "v.txt"), "--window", str(2**63)], 2, tmp_path)
        assert line == f"error: window must be < 2**63, got {2**63}"

    def test_largest_window_still_trains(self, pipeline, tmp_path, capsys):
        out = tmp_path / "v.txt"
        assert main(["train-embeddings", "--corpus", pipeline["corpus"], "--out", str(out),
                     "--dim", "4", "--epochs", "1", "--min-count", "1",
                     "--window", str(2**63 - 1)]) == 0
        assert out.exists()

    def test_jsonl_row_without_scores_is_exit_3(self, pipeline, tmp_path):
        row = {"query": "topic1 flr2", "groundtruth": "topic1", "candidate": "flr3",
               "scores": []}
        data = write_lines(tmp_path / "ann.jsonl", [json.dumps(row)])
        line = _refused(["score", "--data", data, "--format", "jsonl", "--embeddings",
                         pipeline["emb"], "--checkpoint", pipeline["ckpt"],
                         "--out", str(tmp_path / "scores.tsv")], 3, tmp_path, "ann.jsonl")
        assert line == f"error: {data}:1: key 'scores' must hold at least one score"

    @pytest.mark.parametrize("row, message", [
        ("[1, 2]", "expected a JSON object"),
        ('{"query": "topic1", "groundtruth": "topic1", "candidate": "flr3", "scores": [1.5]}',
         "score 1.5 is not an integer"),
        ('{"query": "topic1", "groundtruth": "topic1", "candidate": "flr3", "scores": ["1"]}',
         "score '1' is not an integer"),
    ], ids=["array-row", "float-score", "string-score"])
    def test_jsonl_annotated_row_of_wrong_type_is_exit_3(self, pipeline, tmp_path, row, message):
        data = write_lines(tmp_path / "ann.jsonl", [row])
        line = _refused(["score", "--data", data, "--format", "jsonl", "--embeddings",
                         pipeline["emb"], "--checkpoint", pipeline["ckpt"],
                         "--out", str(tmp_path / "scores.tsv")], 3, tmp_path, "ann.jsonl")
        assert line == f"error: {data}:1: {message}"

    @pytest.mark.parametrize("row, message", [
        (f'{{"query": "a b", "reply": "c", "x": {DEEP_JSON}}}', "invalid JSON: nested too deeply"),
        (f'{{"query": "a b", "reply": "c", "x": {LONG_JSON_INT}}}',
         "invalid JSON: integer too long"),
        ('{"query": "\\ud800 a", "reply": "c"}', "key 'query' holds a lone surrogate"),
    ], ids=["deep", "long-int", "lone-surrogate"])
    def test_jsonl_corpus_python_refuses_is_exit_3(self, tmp_path, row, message):
        corpus = write_lines(tmp_path / "c.jsonl", [row])
        line = _refused(["train-embeddings", "--corpus", corpus, "--format", "jsonl",
                         "--out", str(tmp_path / "v.txt"), "--dim", "4", "--epochs", "1",
                         "--min-count", "1"], 3, tmp_path, "c.jsonl")
        assert line.startswith(f"error: {corpus}:1: {message}")

    def test_annotated_lone_surrogate_is_exit_3(self, pipeline, tmp_path):
        row = {"query": "topic1 flr2", "groundtruth": "topic1", "candidate": "\udc00",
               "scores": [1]}
        data = write_lines(tmp_path / "ann.jsonl", [json.dumps(row)])
        line = _refused(["score", "--data", data, "--format", "jsonl", "--embeddings",
                         pipeline["emb"], "--checkpoint", pipeline["ckpt"],
                         "--out", str(tmp_path / "scores.tsv")], 3, tmp_path, "ann.jsonl")
        assert line.startswith(f"error: {data}:1: key 'candidate' holds a lone surrogate")

    @pytest.mark.parametrize("raw", [DEEP_JSON, LONG_JSON_INT], ids=["deep", "long-int"])
    def test_checkpoint_header_python_refuses_is_exit_3(self, pipeline, tmp_path, raw):
        bad = tmp_path / "header.ckpt"
        with open(pipeline["ckpt"], "rb") as fh:
            bad.write_bytes(splice_checkpoint_header(fh.read(), "hidden", raw))
        line = _refused(["score", "--data", pipeline["annotated"], "--embeddings", pipeline["emb"],
                         "--checkpoint", str(bad), "--out", str(tmp_path / "x.tsv")],
                        3, tmp_path, "header.ckpt")
        assert line == f"error: {bad}: corrupt config block"

    @pytest.mark.parametrize("word, delta", [(0, 1), (1, -1)], ids=["rank", "shape"])
    def test_tensor_header_mismatch_is_exit_3(self, pipeline, tmp_path, word, delta):
        bad = tmp_path / "tensor.ckpt"
        with open(pipeline["ckpt"], "rb") as fh:
            bad.write_bytes(shift_first_tensor_word(fh.read(), word, delta))
        line = _refused(["score", "--data", pipeline["annotated"], "--embeddings", pipeline["emb"],
                         "--checkpoint", str(bad), "--out", str(tmp_path / "x.tsv")],
                        3, tmp_path, "tensor.ckpt")
        assert line.startswith(f"error: {bad}: tensor query_encoder.forward.w_gates has ")

    @pytest.mark.parametrize("cell", ["99999999999999999999999", "3", "-1"])
    def test_human_cell_off_the_scale_is_exit_3(self, pipeline, tmp_path, cell):
        lines = Path(pipeline["scores"]).read_text().splitlines()
        first = next(i for i, line in enumerate(lines) if line[0].isdigit())
        lines[first] = cell + lines[first][1:]
        table = write_lines(tmp_path / "scores.tsv", lines)
        line = _refused(["report", "--scores", table, "--out", str(tmp_path / "r.json")],
                        3, tmp_path, "scores.tsv")
        assert f"{table}:{first + 1}:" in line and "{0, 1, 2}" in line

    def test_malformed_normalization_comment_is_exit_3(self, pipeline, tmp_path):
        lines = Path(pipeline["scores"]).read_text().splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith("# normalization:"))
        lines[at] = "# normalization: ref_score min=0"
        table = write_lines(tmp_path / "scores.tsv", lines)
        line = _refused(["report", "--scores", table, "--out", str(tmp_path / "r.json")],
                        3, tmp_path, "scores.tsv")
        assert line.startswith(f"error: {table}:{at + 1}: malformed normalization comment")

    def test_misordered_header_is_exit_3(self, pipeline, tmp_path):
        """A column between the annotators and human_mean used to be dropped silently."""
        lines = Path(pipeline["scores"]).read_text().splitlines()
        at = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        names = lines[at].split("\t")
        k = names.index("human_mean")
        names[k - 1], names[k] = names[k], names[k - 1]  # human_mean before the last annotator
        lines[at] = "\t".join(names)
        table = write_lines(tmp_path / "scores.tsv", lines)
        line = _refused(["report", "--scores", table, "--out", str(tmp_path / "r.json"),
                         "--quantile-csv", str(tmp_path / "q.csv"),
                         "--scatter-dir", str(tmp_path / "scatter")], 3, tmp_path, "scores.tsv")
        assert line == (f"error: {table}:{at + 1}: header must be human_1 .. human_k, "
                        f"human_mean, then distinct metric names; column {k + 1} is 'human_{k}'")

    @pytest.mark.parametrize("name", ["a,b", "a/b", "a\x00b", "x" * 230, "é" * 115],
                             ids=["comma", "slash", "nul", "long", "multibyte-long"])
    def test_metric_name_unfit_for_the_outputs_is_exit_3(self, pipeline, tmp_path, name):
        """Such a name split the quantile CSV's rows or broke a scatter file's name."""
        table, at, col = _rename_metric(pipeline, tmp_path, name)
        line = _refused(["report", "--scores", table, "--out", str(tmp_path / "r.json"),
                         "--quantile-csv", str(tmp_path / "q.csv"),
                         "--scatter-dir", str(tmp_path / "scatter")], 3, tmp_path, "scores.tsv")
        assert line == (f"error: {table}:{at}: header must be human_1 .. human_k, "
                        f"human_mean, then distinct metric names; column {col} is {name!r}")

    @pytest.mark.parametrize("name", ["x" * 229, "é" * 114 + "x"], ids=["ascii", "multibyte"])
    def test_longest_metric_name_still_writes_its_scatter_file(self, pipeline, tmp_path,
                                                               capsys, name):
        """229 UTF-8 bytes: the scatter file's temporary name is then 255 bytes long."""
        table, _, _ = _rename_metric(pipeline, tmp_path, name)
        assert main(["report", "--scores", table, "--out", str(tmp_path / "r.json"),
                     "--scatter-dir", str(tmp_path / "scatter")]) == 0
        assert (tmp_path / "scatter" / f"scatter_{name}.csv").exists()

    @pytest.mark.parametrize("edit, message", [
        ("mean", "human_mean 9.000000 is not the mean"),
        ("count", "header has 2 human_i columns but the annotators comment declares 3"),
    ], ids=["mean", "count"])
    def test_inconsistent_human_columns_are_exit_3(self, pipeline, tmp_path, edit, message):
        lines = Path(pipeline["scores"]).read_text().splitlines()
        header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        k = lines[header].split("\t").index("human_mean")
        assert k == 2
        if edit == "mean":
            at = header + 2
            cells = lines[at].split("\t")
            cells[k] = "9.000000"
            lines[at] = "\t".join(cells)
        else:
            at = header
            lines = [line.replace("# annotators: 2", "# annotators: 3") for line in lines]
        table = write_lines(tmp_path / "scores.tsv", lines)
        line = _refused(["report", "--scores", table, "--out", str(tmp_path / "r.json")],
                        3, tmp_path, "scores.tsv")
        assert line.startswith(f"error: {table}:{at + 1}: {message}")

    def test_literal_unk_token_in_corpus(self, tmp_path, capsys):
        corpus = write_lines(tmp_path / "unk.tsv", ["a <unk> b\tb a", "<unk> a\tb"] * 4)
        out = str(tmp_path / "emb.txt")
        assert main(["train-embeddings", "--corpus", corpus, "--out", out,
                     "--dim", "4", "--epochs", "1", "--min-count", "1"]) == 0
        vocab, _ = load_text_embeddings(out)
        assert vocab.tokens == ["<unk>", "a", "b"]


_VALID_EMBEDDINGS = b"3 2\na 0.1 0.2\nb -0.3 0.4\n<unk> 0 0.5\n"
_VALID_CORPUS = b"a b\tb a\nb\ta c\nc a\tb\n"

# None or (kind, position, payload); position wraps modulo the file length
_MUTATION = st.none() | st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 64), st.just(b"")),
    st.tuples(st.just("insert"), st.integers(0, 64), st.binary(min_size=1, max_size=6)),
    st.tuples(st.just("insert"), st.integers(0, 64), st.text(max_size=6).map(str.encode)),
    st.tuples(st.just("insert"), st.integers(0, 64),
              st.sampled_from([b"\xff", b"\xc3(", b"\xed\xa0\x80", b"\x80\x80"])),
    st.tuples(st.just("header"), st.integers(0, 10**12), st.integers(0, 10**12)),
)


def _mutate(data: bytes, mutation) -> bytes:
    if mutation is None:
        return data
    kind, at, payload = mutation
    if kind == "header":  # replace the first line by two integers
        return b"%d %d\n" % (at, payload) + data.split(b"\n", 1)[1]
    at %= len(data) + 1
    if kind == "truncate":
        return data[:at]
    return data[:at] + payload + data[at:]


_VALID_ANNOTATED = b"a b\tb\ta c\t1\t2\nc\ta\tb b\t0\t2\nb a c\tc\ta\t2\t1\n"

# (position, payload): replace one data cell of a score table, position
# wrapping modulo the number of cells
_CELL = st.tuples(
    st.integers(0, 200),
    st.sampled_from(["", "nan", "-inf", "1e999", "3", "-1", "0.5", "x"])
    | st.integers(-10**30, 10**30).map(str),
)

_CONTRACT = settings(max_examples=60, deadline=None,
                     suppress_health_check=[HealthCheck.function_scoped_fixture])


def _replace_cell(data: bytes, mutation) -> bytes:
    index, payload = mutation
    lines = data.decode("utf-8").split("\n")
    body = [i for i, line in enumerate(lines) if line and line[0].isdigit()]
    width = len(lines[body[0]].split("\t"))
    row, col = divmod(index % (len(body) * width), width)
    cells = lines[body[row]].split("\t")
    cells[col] = payload
    lines[body[row]] = "\t".join(cells)
    return "\n".join(lines).encode("utf-8")


@pytest.fixture(scope="module")
def contract_files(tmp_path_factory):
    """Small valid inputs for every command, and the checkpoint and table they give."""
    root = tmp_path_factory.mktemp("contract")
    files = {name: root / name for name in
             ("emb.txt", "corpus.tsv", "annotated.tsv", "scorer.ckpt", "scores.tsv")}
    files["emb.txt"].write_bytes(_VALID_EMBEDDINGS)
    files["corpus.tsv"].write_bytes(_VALID_CORPUS)
    files["annotated.tsv"].write_bytes(_VALID_ANNOTATED)
    assert main(["train-scorer", "--corpus", str(files["corpus.tsv"]),
                 "--embeddings", str(files["emb.txt"]), "--out", str(files["scorer.ckpt"]),
                 "--epochs", "0", "--hidden", "2", "--mlp-hidden", "2"]) == 0
    assert main(["score", "--data", str(files["annotated.tsv"]),
                 "--embeddings", str(files["emb.txt"]),
                 "--checkpoint", str(files["scorer.ckpt"]),
                 "--out", str(files["scores.tsv"])]) == 0
    return {name: str(path) for name, path in files.items()}


# Every command's options other than paths, at small sizes.  A config
# file holds them all, and each drawn (key, value) replaces one of them.
_CONFIG_BASE = {
    "train-embeddings": dict(dim="2", window="1", negatives="1", epochs="1", lr="0.025",
                             min_count="1", seed="1", format="tsv"),
    "train-scorer": dict(hidden="2", mlp_hidden="2", margin="0.5", lr="0.001", epochs="1",
                         batch_size="2", max_len="4", seed="1", format="tsv",
                         fine_tune_embeddings="false"),
    "score": dict(format="tsv", max_len="4", blend="all", allow_vocab_mismatch="false"),
    "report": dict(bins="2", jitter_sigma="0.25", seed="0"),
}
_CONFIG_VALUE = st.sampled_from(
    ["", "-1", "0", "1", "3", "0.5", "-0.5", "nan", "inf", "-inf", "1e308", "1e-320",
     "abc", "true", "no", "tsv", "jsonl", "min", "geometric", "all"]
)


def _config_paths(command, files, out_dir):
    return {
        "train-embeddings": dict(corpus=files["corpus.tsv"], out=f"{out_dir}/v.txt"),
        "train-scorer": dict(corpus=files["corpus.tsv"], embeddings=files["emb.txt"],
                             out=f"{out_dir}/s.ckpt"),
        "score": dict(data=files["annotated.tsv"], embeddings=files["emb.txt"],
                      checkpoint=files["scorer.ckpt"], out=f"{out_dir}/scores.tsv"),
        "report": dict(scores=files["scores.tsv"], out=f"{out_dir}/r.json",
                       quantile_csv=f"{out_dir}/q.csv", scatter_dir=f"{out_dir}/scatter"),
    }[command]


# Inputs such as lr=1e308 or weights near the float32 limit overflow on
# their way to exit 4; the contract is about exit codes, so numpy's
# overflow warnings stay warnings here.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestExitCodeContract:
    @given(emb=_MUTATION, corpus=_MUTATION)
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_mutated_inputs_end_in_a_documented_code(self, tmp_path, emb, corpus):
        emb_path, corpus_path = tmp_path / "emb.txt", tmp_path / "corpus.tsv"
        emb_path.write_bytes(_mutate(_VALID_EMBEDDINGS, emb))
        corpus_path.write_bytes(_mutate(_VALID_CORPUS, corpus))
        code = main([
            "train-scorer", "--corpus", str(corpus_path), "--embeddings", str(emb_path),
            "--out", str(tmp_path / "x.ckpt"),
            "--epochs", "0", "--hidden", "2", "--mlp-hidden", "2",
        ])
        assert code in {0, 2, 3, 4, 5}

    @given(mutation=_MUTATION, header=st.none() | st.tuples(
        st.sampled_from(["hidden", "mlp_hidden", "max_len", "seed", "margin", "lr",
                         "embed_dim", "fine_tune_embeddings", "beta1", "eps"]),
        st.integers(-3, 10**12) | st.floats() | st.booleans() | st.none() | st.text(max_size=3),
    ))
    @_CONTRACT
    def test_mutated_checkpoint_ends_in_a_documented_code(
        self, contract_files, tmp_path, mutation, header
    ):
        data = Path(contract_files["scorer.ckpt"]).read_bytes()
        if header is not None:
            data = rewrite_checkpoint_header(data, **dict([header]))
        ckpt = tmp_path / "x.ckpt"
        ckpt.write_bytes(_mutate(data, mutation))
        code = main([
            "score", "--data", contract_files["annotated.tsv"],
            "--embeddings", contract_files["emb.txt"], "--checkpoint", str(ckpt),
            "--out", str(tmp_path / "scores.tsv"),
        ])
        assert code in {0, 2, 3, 4, 5}

    @given(mutation=_MUTATION, cell=st.none() | _CELL)
    @example(mutation=None, cell=(0, "99999999999999999999999"))
    @_CONTRACT
    def test_mutated_score_table_ends_in_a_documented_code(
        self, contract_files, tmp_path, mutation, cell
    ):
        data = Path(contract_files["scores.tsv"]).read_bytes()
        if cell is not None:
            data = _replace_cell(data, cell)
        table = tmp_path / "scores.tsv"
        table.write_bytes(_mutate(data, mutation))
        code = main(["report", "--scores", str(table), "--out", str(tmp_path / "r.json"),
                     "--quantile-csv", str(tmp_path / "q.csv")])
        assert code in {0, 2, 3, 4, 5}

    @given(command=st.sampled_from(sorted(_CONFIG_BASE)), changes=st.lists(
        st.tuples(st.sampled_from(sorted({k for opts in _CONFIG_BASE.values() for k in opts})),
                  _CONFIG_VALUE),
        max_size=3,
    ))
    @example(command="train-embeddings", changes=[("seed", "-1")])
    @example(command="train-scorer", changes=[("seed", "-1")])
    @example(command="report", changes=[("seed", "-1")])
    @_CONTRACT
    def test_config_values_end_in_a_documented_code(
        self, contract_files, tmp_path, command, changes
    ):
        options = dict(_CONFIG_BASE[command])
        options.update((key, value) for key, value in changes if key in options)
        options.update(_config_paths(command, contract_files, tmp_path))
        cfg = write_lines(tmp_path / "opts.cfg", [f"{k} = {v}" for k, v in options.items()])
        assert main([command, "--config", cfg]) in {0, 2, 3, 4, 5}


class TestEntrypoint:
    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "ruber", "--help"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert "train-embeddings" in result.stdout

    def test_usage_error_is_exit_2(self):
        result = subprocess.run(
            [sys.executable, "-m", "ruber", "no-such-command"],
            capture_output=True, text=True,
        )
        assert result.returncode == 2

    def test_overflow_under_warnings_as_errors_is_one_error_line(self, tmp_path):
        """Under ``-W error`` a numpy overflow warning would be a traceback, not exit 4."""
        corpus, emb, _, _ = _write_training_corpus(tmp_path, n=40)
        result = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning",
             "-m", "ruber", "train-scorer", "--corpus", corpus, "--embeddings", emb,
             "--out", str(tmp_path / "s.ckpt"), "--hidden", "4", "--mlp-hidden", "6",
             "--epochs", "1", "--lr", "1e308"],
            capture_output=True, text=True,
        )
        assert result.returncode == 4
        [line] = result.stderr.splitlines()
        assert line.startswith("error: epoch 1: ") and "non-finite" in line
        assert sorted(p.name for p in tmp_path.iterdir()) == ["emb.txt", "train.tsv"]
