"""Command-line workflow: subcommands, config files, exit codes."""

import inspect
import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from conftest import rewrite_checkpoint_header, separable_corpus, write_lines
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
        assert open(a, "rb").read() == open(b, "rb").read()

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

    def test_missing_corpus_is_exit_3(self, tmp_path, capsys):
        assert main([
            "train-embeddings", "--corpus", str(tmp_path / "ghost.tsv"),
            "--out", str(tmp_path / "x.txt"),
        ]) == 3

    def test_zero_dim_is_exit_2(self, tmp_path, capsys):
        corpus, _, _, _ = _write_training_corpus(tmp_path, n=40)
        assert main([
            "train-embeddings", "--corpus", corpus,
            "--out", str(tmp_path / "x.txt"), "--dim", "0",
        ]) == 2


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

    def test_corrupt_embeddings_exit_3(self, pipeline, tmp_path, capsys):
        bad = write_lines(tmp_path / "bad.txt", ["not a header"])
        assert main([
            "train-scorer", "--corpus", pipeline["corpus"],
            "--embeddings", bad, "--out", str(tmp_path / "x.ckpt"),
        ]) == 3
        assert "error:" in capsys.readouterr().err

    def test_bad_margin_exit_2(self, pipeline, tmp_path, capsys):
        assert main([
            "train-scorer", "--corpus", pipeline["corpus"],
            "--embeddings", pipeline["emb"], "--out", str(tmp_path / "x.ckpt"),
            "--margin", "-1",
        ]) == 2

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

    # lr=inf times a zero moment is NaN, which numpy reports on its way
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("fine_tune", [False, True])
    def test_non_finite_update_is_exit_4(self, tmp_path, capsys, fine_tune):
        """One Adam step at lr=inf diverges: exit 4 and nothing written."""
        corpus, emb, _, _ = _write_training_corpus(tmp_path, n=40)
        ckpt = tmp_path / "inf.ckpt"
        argv = [
            "train-scorer", "--corpus", corpus, "--embeddings", emb,
            "--out", str(ckpt), "--hidden", "4", "--mlp-hidden", "6",
            "--epochs", "1", "--batch-size", "64", "--lr", "inf",
        ]
        if fine_tune:
            argv.append("--fine-tune-embeddings")
        assert main(argv) == 4
        out, err = capsys.readouterr()
        assert "epoch 1" in err and "non-finite" in err
        assert "holdout_acc" not in out
        assert sorted(p.name for p in tmp_path.iterdir()) == ["emb.txt", "train.tsv"]


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
        assert open(pipeline["scores"], "rb").read() == open(again, "rb").read()

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

    def test_vocab_mismatch_exit_5_and_override(self, pipeline, tmp_path, capsys):
        other_emb = str(tmp_path / "other.txt")
        rng = np.random.default_rng(7)
        from ruber.vocabulary import Vocabulary
        vocab = Vocabulary([f"zz{i}" for i in range(30)])
        save_text_embeddings(vocab, rng.normal(0, 1, (31, 8)), other_emb)
        args = [
            "score", "--data", pipeline["annotated"], "--embeddings", other_emb,
            "--checkpoint", pipeline["ckpt"], "--out", str(tmp_path / "x.tsv"),
        ]
        assert main(args) == 5
        assert main(args + ["--allow-vocab-mismatch"]) == 0

    def test_dim_mismatch_exit_5(self, pipeline, tmp_path, capsys):
        emb16 = str(tmp_path / "wide.txt")
        vocab, matrix = load_text_embeddings(pipeline["emb"])
        wide = np.hstack([matrix, matrix])
        save_text_embeddings(vocab, wide, emb16)
        assert main([
            "score", "--data", pipeline["annotated"], "--embeddings", emb16,
            "--checkpoint", pipeline["ckpt"], "--out", str(tmp_path / "x.tsv"),
        ]) == 5

    def test_corrupt_checkpoint_exit_3(self, pipeline, tmp_path, capsys):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"RUBX" + b"\x00" * 20)
        assert main([
            "score", "--data", pipeline["annotated"],
            "--embeddings", pipeline["emb"], "--checkpoint", str(bad),
            "--out", str(tmp_path / "x.tsv"),
        ]) == 3

    @pytest.mark.parametrize("changes", [dict(hidden=-1), dict(hidden=10**6),
                                         dict(embed_dim="8")])
    def test_bad_checkpoint_header_exit_3(self, pipeline, tmp_path, capsys, changes):
        bad = tmp_path / "header.ckpt"
        with open(pipeline["ckpt"], "rb") as fh:
            bad.write_bytes(rewrite_checkpoint_header(fh.read(), **changes))
        assert main([
            "score", "--data", pipeline["annotated"],
            "--embeddings", pipeline["emb"], "--checkpoint", str(bad),
            "--out", str(tmp_path / "x.tsv"),
        ]) == 3
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "x.tsv").exists()

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

    def test_bad_max_len_exit_2(self, pipeline, tmp_path, capsys):
        out = tmp_path / "x.tsv"
        assert main([
            "score", "--data", pipeline["annotated"], "--embeddings", pipeline["emb"],
            "--checkpoint", pipeline["ckpt"], "--out", str(out), "--max-len", "0",
        ]) == 2
        assert "max_len" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_scores_exit_4(self, pipeline, tmp_path, capsys):
        """Huge but finite vectors overflow the cosine into NaN."""
        vocab, matrix = load_text_embeddings(pipeline["emb"])
        huge = str(tmp_path / "huge.txt")
        save_text_embeddings(vocab, np.full_like(matrix, 1e200), huge)
        out = tmp_path / "x.tsv"
        assert main([
            "score", "--data", pipeline["annotated"], "--embeddings", huge,
            "--checkpoint", pipeline["ckpt"], "--out", str(out),
        ]) == 4
        err = capsys.readouterr().err
        assert "ref_score" in err and "row 1 " in err
        assert not out.exists()


class TestReport:
    def test_writes_json_and_text(self, pipeline, tmp_path, capsys):
        out = str(tmp_path / "report.json")
        text_out = str(tmp_path / "report.txt")
        assert main([
            "report", "--scores", pipeline["scores"], "--out", out,
            "--text-out", text_out,
        ]) == 0
        payload = json.loads(open(out).read())
        assert payload["n_pairs"] == 12
        printed = capsys.readouterr().out
        body = open(text_out).read()
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
        lines = open(qcsv).read().splitlines()
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
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_config_line_shows_the_library_defaults(self, pipeline, tmp_path, capsys):
        out = str(tmp_path / "r.json")
        assert main(["report", "--scores", pipeline["scores"], "--out", out]) == 0
        echo = capsys.readouterr().out.splitlines()[0]
        assert echo == (
            f"config: report bins=5 jitter_sigma=0.25 out={out} quantile_csv=None "
            f"scatter_dir=None scores={pipeline['scores']} seed=0 text_out=None"
        )

    def test_missing_scores_exit_3(self, tmp_path, capsys):
        assert main(["report", "--scores", str(tmp_path / "ghost.tsv"),
                     "--out", str(tmp_path / "x.json")]) == 3


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

    def test_unknown_key_exit_2(self, tmp_path, capsys):
        cfg = write_lines(tmp_path / "opts.cfg", ["wibble = 3"])
        assert main(["train-embeddings", "--config", cfg,
                     "--corpus", "x", "--out", "y"]) == 2
        assert "wibble" in capsys.readouterr().err

    def test_bad_value_type_exit_2(self, tmp_path, capsys):
        cfg = write_lines(tmp_path / "opts.cfg", ["epochs = soon"])
        assert main(["train-embeddings", "--config", cfg,
                     "--corpus", "x", "--out", "y"]) == 2

    def test_missing_required_option_exit_2(self, tmp_path, capsys):
        assert main(["train-embeddings", "--out", "y"]) == 2
        assert "--corpus" in capsys.readouterr().err

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

    def test_malformed_line_exit_2(self, tmp_path, capsys):
        cfg = write_lines(tmp_path / "opts.cfg", ["just some words"])
        assert main(["train-embeddings", "--config", cfg,
                     "--corpus", "x", "--out", "y"]) == 2


class TestInputsEndInExitCodes:
    """Inputs that once ended in a traceback map onto a README exit code."""

    def test_oversized_embedding_header_is_exit_3(self, pipeline, tmp_path, capsys):
        emb = write_lines(tmp_path / "huge.txt", ["1 1000000000000", "a 0.5"])
        assert main([
            "train-scorer", "--corpus", pipeline["corpus"], "--embeddings", emb,
            "--out", str(tmp_path / "x.ckpt"), "--epochs", "0",
        ]) == 3
        assert "expected a token and 1000000000000 values" in capsys.readouterr().err

    @pytest.mark.parametrize("which", ["corpus", "embeddings", "config", "scores"])
    def test_non_utf8_input_is_exit_3(self, pipeline, tmp_path, capsys, which):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes("caf\u00e9\tna\u00efve\n".encode("latin-1"))
        inputs = {"--corpus": pipeline["corpus"], "--embeddings": pipeline["emb"],
                  f"--{which}": str(bad)}
        argv = ["train-scorer", "--out", str(tmp_path / "x.ckpt"), "--epochs", "0"]
        argv += [item for flag_and_path in inputs.items() for item in flag_and_path]
        if which == "scores":
            argv = ["report", "--scores", str(bad), "--out", str(tmp_path / "r.json")]
        assert main(argv) == 3
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train-embeddings", "train-scorer", "report"])
    def test_negative_seed_is_exit_2(self, pipeline, tmp_path, capsys, command):
        argv = {
            "train-embeddings": ["--corpus", pipeline["corpus"], "--out",
                                 str(tmp_path / "v.txt"), "--min-count", "1"],
            "train-scorer": ["--corpus", pipeline["corpus"], "--embeddings", pipeline["emb"],
                             "--out", str(tmp_path / "s.ckpt"), "--epochs", "0"],
            "report": ["--scores", pipeline["scores"], "--out", str(tmp_path / "r.json"),
                       "--scatter-dir", str(tmp_path / "scatter")],
        }[command]
        assert main([command, *argv, "--seed", "-1"]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == []

    @pytest.mark.parametrize("cell", ["99999999999999999999999", "3", "-1"])
    def test_human_cell_off_the_scale_is_exit_3(self, pipeline, tmp_path, capsys, cell):
        lines = open(pipeline["scores"]).read().splitlines()
        first = next(i for i, line in enumerate(lines) if line[0].isdigit())
        lines[first] = cell + lines[first][1:]
        table = write_lines(tmp_path / "scores.tsv", lines)
        assert main(["report", "--scores", table, "--out", str(tmp_path / "r.json")]) == 3
        err = capsys.readouterr().err
        assert f"{table}:{first + 1}:" in err and "{0, 1, 2}" in err

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
        data = open(contract_files["scorer.ckpt"], "rb").read()
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
        data = open(contract_files["scores.tsv"], "rb").read()
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
