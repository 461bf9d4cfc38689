"""Embedding file I/O and skip-gram training."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracles
from conftest import write_lines
from ruber.corpus import Dataset, QueryReplyPair, load_pairs
from ruber.embeddings import (
    load_text_embeddings,
    save_text_embeddings,
    train_sgns,
)
from ruber.errors import ParseError, ValidationError
from ruber.vocabulary import UNK_TOKEN, Vocabulary


class TestLoadTextEmbeddings:
    def test_unk_synthesized_as_mean(self, tmp_path):
        path = write_lines(tmp_path / "emb.txt", [
            "2 3",
            "a 1 0 0",
            "b 0 1 0",
        ])
        vocab, matrix = load_text_embeddings(path)
        assert len(vocab) == 3
        assert matrix.shape == (3, 3)
        assert_allclose(matrix[0], [0.5, 0.5, 0.0])
        assert_allclose(matrix[vocab.id_of("a")], [1, 0, 0])
        assert_allclose(matrix[vocab.id_of("zzz")], [0.5, 0.5, 0.0])

    def test_explicit_unk_moved_to_row_zero(self, tmp_path):
        path = write_lines(tmp_path / "emb.txt", [
            "3 2",
            "a 1 0",
            "<unk> 9 9",
            "b 0 1",
        ])
        vocab, matrix = load_text_embeddings(path)
        assert len(vocab) == 3
        assert vocab.id_of(UNK_TOKEN) == 0
        assert_allclose(matrix[0], [9, 9])
        assert_allclose(matrix[vocab.id_of("a")], [1, 0])
        assert_allclose(matrix[vocab.id_of("b")], [0, 1])

    def test_duplicate_unk_is_parse_error(self, tmp_path):
        path = write_lines(tmp_path / "emb.txt", [
            "2 2", "<unk> 1 1", "<unk> 2 2",
        ])
        with pytest.raises(ParseError):
            load_text_embeddings(path)

    @pytest.mark.parametrize("token", ["a", UNK_TOKEN])
    def test_repeated_token_names_its_own_line(self, tmp_path, token):
        path = write_lines(tmp_path / "dup.txt", [
            "3 2", f"{token} 1 2", f"{token} 3 4", "b 1 1",
        ])
        with pytest.raises(ParseError) as err:
            load_text_embeddings(path)
        assert err.value.line == 3
        assert str(err.value) == f"{path}:3: token {token!r} repeats line 2"

    def test_row_arity_mismatch(self, tmp_path):
        path = write_lines(tmp_path / "emb.txt", ["1 3", "a 1 0"])
        with pytest.raises(ParseError) as err:
            load_text_embeddings(path)
        assert err.value.line == 2

    def test_row_count_mismatch(self, tmp_path):
        path = write_lines(tmp_path / "emb.txt", ["2 2", "a 1 0"])
        with pytest.raises(ParseError):
            load_text_embeddings(path)

    def test_non_numeric_value(self, tmp_path):
        path = write_lines(tmp_path / "emb.txt", ["1 2", "a one 2"])
        with pytest.raises(ParseError):
            load_text_embeddings(path)

    def test_non_finite_value(self, tmp_path):
        path = write_lines(tmp_path / "emb.txt", ["1 2", "a inf 2"])
        with pytest.raises(ParseError):
            load_text_embeddings(path)

    def test_bad_header(self, tmp_path):
        path = write_lines(tmp_path / "emb.txt", ["banana", "a 1"])
        with pytest.raises(ParseError) as err:
            load_text_embeddings(path)
        assert err.value.line == 1

    def test_empty_file(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("")
        with pytest.raises(ParseError):
            load_text_embeddings(str(path))


def _random_rows(unk_at):
    """Rows at full float precision, with a literal <unk> row at ``unk_at`` (None: none)."""
    rng = np.random.default_rng([23, 40 if unk_at is None else unk_at])
    tokens = [f"w{i}" for i in range(40)]
    if unk_at is not None:
        tokens[unk_at] = UNK_TOKEN
    rows = [tok + " " + " ".join(repr(float(x)) for x in rng.normal(0, 3, 7))
            for tok in tokens]
    return "40 7\n" + "\n".join(rows) + "\n"


# Files the whole-text reader parsed; the streaming reader must return the
# same vocabulary and matrix bytes.
SAME_AS_WHOLE_TEXT = {
    "unk-first": "3 2\n<unk> 9 9\na 1 0\nb 0 1\n",
    "unk-middle": "3 2\na 1 0\n<unk> 9 9\nb 0 1\n",
    "unk-last": "3 2\na 1 0\nb 0 1\n<unk> 9 9\n",
    "unk-absent": "2 3\na 1 0 0.5\nb 0.25 1 -3e-7\n",
    "unk-only": "1 2\n<unk> 1 2\n",
    "random-unk-first": _random_rows(0),
    "random-unk-middle": _random_rows(17),
    "random-unk-absent": _random_rows(None),
    "trailing-blank-lines": "2 2\na 1 2\nb 3 4\n\n  \n\t\n",
    "no-final-newline": "2 2\na 1 2\nb 3 4",
    "crlf": "2 2\r\na 1 2\r\nb 3 4\r\n\r\n",
    "cr": "2 2\ra 1 2\rb 3 4\r",
    "tab-inside-rows": "2 2\na\t1 2\nb 3\t\t4 \n",
    "form-feed-after-last-row": "2 2\na 1 2\nb 3 4\x0c\n",
}

# Files both readers refuse with the same message at the same line.
REFUSED_AS_BY_WHOLE_TEXT = {
    "empty": "",
    "blank-only": "\n \n\r\n",
    "bad-header": "banana\na 1\n",
    "blank-header": "\n1 2\na 1 2\n",
    "non-integer-header": "1 x\na 1\n",
    "zero-rows": "0 2\n",
    "too-few-rows": "3 2\na 1 2\nb 1 2\n",
    "too-many-rows": "1 2\na 1 2\nb 1 2\n",
    "count-before-row-errors": "3 2\na one 2\nb 1 2\n",
    "blank-row-counted": "3 2\na 1 2\n\nb 3 4\n",
    "arity": "1 3\na 1 0\n",
    "oversized-dim": "1 1000000000000\na 0.5\n",
    "non-numeric": "2 2\na 1 2\nb one 2\n",
    "non-finite": "2 2\na nan 2\nb 1 2\n",
    "repeated-token": "3 2\na 1 2\nb 1 1\na 3 4\n",
    "repeated-unk": "2 2\n<unk> 1 1\n<unk> 2 2\n",
    "crlf-row-error": "2 2\r\na 1 2\r\nb 1\r\n",
}

# Whitespace that str.splitlines() treats as a line break and file
# iteration does not: inside a row it now separates fields.
SPLITLINES_ONLY_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def _emb_file(tmp_path, text):
    path = tmp_path / "emb.txt"
    path.write_bytes(text.encode("utf-8"))  # newlines exactly as given
    return str(path)


class TestAgainstWholeTextReader:
    @pytest.mark.parametrize("name", SAME_AS_WHOLE_TEXT)
    def test_same_vocab_and_matrix(self, tmp_path, name):
        path = _emb_file(tmp_path, SAME_AS_WHOLE_TEXT[name])
        vocab, matrix = load_text_embeddings(path)
        ref_vocab, ref_matrix = oracles.whole_text_load_embeddings(path)
        assert vocab == ref_vocab
        assert matrix.shape == ref_matrix.shape
        assert matrix.tobytes() == ref_matrix.tobytes()

    @pytest.mark.parametrize("name", REFUSED_AS_BY_WHOLE_TEXT)
    def test_same_error(self, tmp_path, name):
        path = _emb_file(tmp_path, REFUSED_AS_BY_WHOLE_TEXT[name])
        with pytest.raises(ParseError) as ref:
            oracles.whole_text_load_embeddings(path)
        with pytest.raises(ParseError) as err:
            load_text_embeddings(path)
        assert str(err.value) == str(ref.value)

    @pytest.mark.parametrize("sep", SPLITLINES_ONLY_BREAKS)
    def test_unicode_line_separator_inside_a_row_separates_fields(self, tmp_path, sep):
        path = _emb_file(tmp_path, f"2 2\na 1{sep}2\nb{sep}3 4\n")
        vocab, matrix = load_text_embeddings(path)
        assert vocab.tokens == [UNK_TOKEN, "a", "b"]
        assert matrix.tolist() == [[2.0, 3.0], [1.0, 2.0], [3.0, 4.0]]
        with pytest.raises(ParseError) as err:  # it read five lines
            oracles.whole_text_load_embeddings(path)
        assert str(err.value) == f"{path}:5: header declares 2 rows but file has 4"

    def test_peak_memory_is_about_the_matrix(self, tmp_path):
        """No copy of the file text, its lines or the matrix is held while loading.

        At 100 dimensions the vocabulary's strings and dicts add about 0.2
        of the matrix; the whole-text reader peaked at 3.5 times it.
        """
        rng = np.random.default_rng(5)
        vocab = Vocabulary([f"w{i}" for i in range(1000)])
        path = str(tmp_path / "emb.txt")
        save_text_embeddings(vocab, rng.normal(0, 1, (len(vocab), 100)), path)
        tracemalloc.start()
        try:
            _, matrix = load_text_embeddings(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * matrix.nbytes + 64 * 1024


class TestSaveTextEmbeddings:
    def test_round_trip_precision(self, tmp_path):
        rng = np.random.default_rng(3)
        vocab = Vocabulary(["a", "b"])
        matrix = rng.normal(0, 1, (3, 2))
        path = str(tmp_path / "emb.txt")
        save_text_embeddings(vocab, matrix, path)
        vocab2, matrix2 = load_text_embeddings(path)
        assert vocab2 == vocab
        assert np.max(np.abs(matrix2 - matrix)) <= 5e-7

    def test_rows_render_each_value_at_six_decimals(self, tmp_path):
        vocab = Vocabulary(["a", "b"])
        matrix = np.array([[-0.0, 1e300, 5e-7], [-5e-7, 0.1234565, -2.5]] + [[1.0] * 3])
        path = tmp_path / "emb.txt"
        save_text_embeddings(vocab, matrix, str(path))
        want = ["3 3"] + [tok + " " + " ".join(f"{x:.6f}" for x in row)
                          for tok, row in zip(vocab.tokens, matrix)]
        assert path.read_text(encoding="utf-8") == "\n".join(want) + "\n"

    def test_save_load_save_is_byte_stable(self, tmp_path):
        rng = np.random.default_rng(4)
        vocab = Vocabulary(["a", "b", "c"])
        matrix = rng.normal(0, 1, (4, 3))
        p1, p2 = str(tmp_path / "one.txt"), str(tmp_path / "two.txt")
        save_text_embeddings(vocab, matrix, p1)
        v2, m2 = load_text_embeddings(p1)
        save_text_embeddings(v2, m2, p2)
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_rejects_shape_mismatch_and_non_finite(self, tmp_path):
        vocab = Vocabulary(["a"])
        with pytest.raises(ValueError):
            save_text_embeddings(vocab, np.zeros((3, 2)), str(tmp_path / "x.txt"))
        bad = np.zeros((2, 2))
        bad[1, 1] = np.nan
        with pytest.raises(ValueError):
            save_text_embeddings(vocab, bad, str(tmp_path / "x.txt"))


def _cluster_corpus(tmp_path):
    """Two topic clusters with disjoint vocabularies, co-occurring within."""
    rng = np.random.default_rng(11)
    left = [f"sun{i}" for i in range(6)]
    right = [f"sea{i}" for i in range(6)]
    rows = []
    for _ in range(300):
        side = left if rng.random() < 0.5 else right
        q = [side[int(rng.integers(6))] for _ in range(4)]
        r = [side[int(rng.integers(6))] for _ in range(4)]
        rows.append(" ".join(q) + "\t" + " ".join(r))
    return write_lines(tmp_path / "clusters.tsv", rows), left, right


class TestTrainSgns:
    def test_deterministic(self, tmp_path):
        path, _, _ = _cluster_corpus(tmp_path)
        ds = load_pairs(path)
        v1, m1 = train_sgns(ds, dim=8, epochs=2, min_count=1, seed=5)
        v2, m2 = train_sgns(ds, dim=8, epochs=2, min_count=1, seed=5)
        assert v1 == v2
        assert np.array_equal(m1, m2)

    def test_seed_changes_result(self, tmp_path):
        path, _, _ = _cluster_corpus(tmp_path)
        ds = load_pairs(path)
        _, m1 = train_sgns(ds, dim=8, epochs=1, min_count=1, seed=5)
        _, m2 = train_sgns(ds, dim=8, epochs=1, min_count=1, seed=6)
        assert not np.array_equal(m1, m2)

    def test_clusters_separate(self, tmp_path):
        path, left, right = _cluster_corpus(tmp_path)
        ds = load_pairs(path)
        vocab, matrix = train_sgns(ds, dim=16, window=3, epochs=5,
                                   min_count=1, seed=7)
        unit = matrix / np.linalg.norm(matrix, axis=1, keepdims=True)

        def mean_cos(tokens_a, tokens_b):
            total, count = 0.0, 0
            for a in tokens_a:
                for b in tokens_b:
                    if a == b:
                        continue
                    total += float(unit[vocab.id_of(a)] @ unit[vocab.id_of(b)])
                    count += 1
            return total / count

        intra = 0.5 * (mean_cos(left, left) + mean_cos(right, right))
        inter = mean_cos(left, right)
        assert intra > inter, f"intra {intra:.3f} not above inter {inter:.3f}"

    def test_unk_row_is_mean_of_trained_rows(self, tmp_path):
        path, _, _ = _cluster_corpus(tmp_path)
        ds = load_pairs(path)
        _, matrix = train_sgns(ds, dim=8, epochs=1, min_count=1, seed=2)
        assert_allclose(matrix[0], matrix[1:].mean(axis=0), atol=1e-12)

    def test_min_count_prunes_everything_is_error(self, tmp_path):
        path = write_lines(tmp_path / "tiny.tsv", ["a b\tc d"])
        ds = load_pairs(path)
        with pytest.raises(ValidationError):
            train_sgns(ds, dim=4, epochs=1, min_count=10, seed=1)

    def test_output_is_finite_and_shaped(self, tmp_path):
        path, _, _ = _cluster_corpus(tmp_path)
        ds = load_pairs(path)
        vocab, matrix = train_sgns(ds, dim=12, epochs=1, min_count=1, seed=9)
        assert matrix.shape == (len(vocab), 12)
        assert np.all(np.isfinite(matrix))


# Oracle instances: a 4-word vocabulary so noise draws often equal the
# context word and targets repeat within a block; two epochs so the
# learning rate decays; every instance runs with window 1 and window 5.
ORACLE_SEEDS = range(6)
ORACLE_WINDOWS = (1, 5)
ORACLE_RTOL = 1e-12  # per entry, relative to the oracle's value


def _oracle_instance(seed, window):
    rng = np.random.default_rng([seed, 17])
    words = ["w0", "w1", "w2", "w3"]

    def utterance():
        return [words[int(rng.integers(4))] for _ in range(int(rng.integers(1, 9)))]

    dataset = Dataset([QueryReplyPair(utterance(), utterance()) for _ in range(12)], "memory")
    params = dict(dim=(3, 5, 8)[seed % 3], window=window, negatives=(3, 4, 5)[seed % 3],
                  epochs=2, lr=0.025, min_count=1, seed=seed)
    return dataset, params


class TestAgainstScalarOracle:
    @pytest.mark.parametrize("window", ORACLE_WINDOWS)
    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    def test_matches_scalar_blocks(self, seed, window):
        dataset, params = _oracle_instance(seed, window)
        vocab, matrix = train_sgns(dataset, **params)
        ref_vocab, ref_rows, _ = oracles.scalar_train_sgns(dataset, **params)
        assert vocab == ref_vocab
        assert_allclose(matrix, np.array(ref_rows), rtol=ORACLE_RTOL, atol=0.0)

    def test_instances_drop_noise_and_repeat_targets(self):
        for seed in ORACLE_SEEDS:
            for window in ORACLE_WINDOWS:
                dataset, params = _oracle_instance(seed, window)
                _, _, stats = oracles.scalar_train_sgns(dataset, **params)
                assert stats["dropped"] >= 1, (seed, window)
                assert stats["repeated"] >= 1, (seed, window)
