"""Command-line workflow: subcommands, config files, exit codes."""

import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import rewrite_checkpoint_header, separable_corpus, write_lines
from ruber.cli import main
from ruber.embeddings import load_text_embeddings, save_text_embeddings
from ruber.scoretable import read_score_table
from ruber.unreferenced import load_checkpoint


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
