"""Binary checkpoint serialization."""

import struct
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from conftest import (
    DEEP_JSON,
    LONG_JSON_INT,
    pipe_holding,
    random_scorer_params,
    rewrite_checkpoint_header,
    shift_first_tensor_word,
    splice_checkpoint_header,
)
from ruber.errors import CheckpointFormatError, CompatibilityError
from ruber.unreferenced import checkpoint as checkpoint_mod
from ruber.unreferenced import (
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
    vocab_content_hash,
)
from ruber.vocabulary import UNK_TOKEN, Vocabulary


def _fresh(seed=0, d=4, hidden=3, mlp=5):
    rng = np.random.default_rng(seed)
    params = random_scorer_params(d, hidden, mlp, rng)
    config = TrainConfig(hidden=hidden, mlp_hidden=mlp)
    vocab = Vocabulary(["alpha", "beta", "gamma"])
    return params, config, vocab


class TestVocabHash:
    def test_matches_byte_level_oracle(self):
        vocab = Vocabulary(["alpha", "beta"])
        payload = b"".join(t.encode("utf-8") + b"\n" for t in vocab)
        assert vocab_content_hash(vocab) == oracles.fnv1a_64(payload)

    def test_includes_unk_and_order(self):
        assert vocab_content_hash(Vocabulary(["a", "b"])) != \
            vocab_content_hash(Vocabulary(["b", "a"]))

    def test_newline_separator_prevents_concat_collisions(self):
        assert vocab_content_hash(Vocabulary(["ab"])) != \
            vocab_content_hash(Vocabulary(["a", "b"]))

    def test_frozen_value(self):
        """Hash of the empty-ish vocabulary (UNK only), pinned forever."""
        assert UNK_TOKEN == "<unk>"
        expected = oracles.fnv1a_64(b"<unk>\n")
        assert vocab_content_hash(Vocabulary([])) == expected
        assert expected == 0x44EA0F435FD8EA51


class TestRoundTrip:
    def test_tensors_come_back_as_float32_values(self, tmp_path):
        params, config, vocab = _fresh()
        path = str(tmp_path / "x.ckpt")
        save_checkpoint(params, config, vocab_content_hash(vocab), path)
        ckpt = load_checkpoint(path, expected_vocab_hash=vocab_content_hash(vocab))
        for (n1, t1), (_, t2) in zip(params.tensors(), ckpt.params.tensors()):
            assert t2.dtype == np.float64, n1
            assert np.array_equal(t1.astype(np.float32).astype(np.float64), t2), n1
        assert ckpt.config == config
        assert ckpt.embed_dim == 4

    def test_save_load_save_is_byte_identical(self, tmp_path):
        params, config, vocab = _fresh(1)
        h = vocab_content_hash(vocab)
        p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
        save_checkpoint(params, config, h, p1)
        ckpt = load_checkpoint(p1)
        save_checkpoint(ckpt.params, ckpt.config, ckpt.vocab_hash, p2)
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

    @pytest.mark.parametrize("seed, d, hidden, mlp", [
        (7, 1, 1, 1), (8, 4, 3, 5), (9, 13, 6, 2), (10, 50, 64, 128),
    ])
    def test_bytes_match_per_field_writer(self, tmp_path, seed, d, hidden, mlp):
        params, _, vocab = _fresh(seed, d, hidden, mlp)
        config = TrainConfig(hidden=hidden, mlp_hidden=mlp, seed=seed)
        assert params.mlp_out_b.ndim == 0
        h = vocab_content_hash(vocab)
        save_checkpoint(params, config, h, tmp_path / "new.ckpt")
        oracles.per_field_save_checkpoint(params, config, h, tmp_path / "old.ckpt")
        assert (tmp_path / "new.ckpt").read_bytes() == (tmp_path / "old.ckpt").read_bytes()

    def test_load_holds_the_tensors_and_one_record(self, tmp_path):
        params, _, _ = _fresh(11, d=50, hidden=64, mlp=128)
        path = tmp_path / "big.ckpt"
        save_checkpoint(params, TrainConfig(hidden=64, mlp_hidden=128), 0, path)
        tracemalloc.start()
        try:
            tensors = [arr for _, arr in load_checkpoint(str(path)).params.tensors()]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        largest_record = 4 * max(arr.size for arr in tensors)
        assert peak <= sum(arr.nbytes for arr in tensors) + largest_record + 64 * 1024

    def test_config_fields_survive(self, tmp_path):
        params, _, vocab = _fresh(2)
        config = TrainConfig(hidden=3, mlp_hidden=5, margin=0.25, lr=2e-4,
                             epochs=7, batch_size=3, max_len=9, seed=77,
                             fine_tune_embeddings=True)
        path = str(tmp_path / "cfg.ckpt")
        save_checkpoint(params, config, vocab_content_hash(vocab), path)
        assert load_checkpoint(path).config == config


class TestFormatErrors:
    def _saved(self, tmp_path):
        params, config, vocab = _fresh(3)
        path = str(tmp_path / "good.ckpt")
        save_checkpoint(params, config, vocab_content_hash(vocab), path)
        return path, Path(path).read_bytes()

    def test_bad_magic(self, tmp_path):
        path, data = self._saved(tmp_path)
        bad = str(tmp_path / "bad.ckpt")
        Path(bad).write_bytes(b"XXXX" + data[4:])
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(bad)

    def test_unsupported_version(self, tmp_path):
        path, data = self._saved(tmp_path)
        bad = str(tmp_path / "bad.ckpt")
        Path(bad).write_bytes(data[:4] + struct.pack("<H", 99) + data[6:])
        with pytest.raises(CheckpointFormatError) as err:
            load_checkpoint(bad)
        assert "99" in str(err.value)

    def test_truncation_everywhere(self, tmp_path):
        """Any prefix cut must fail cleanly, never crash or misread."""
        path, data = self._saved(tmp_path)
        bad = str(tmp_path / "cut.ckpt")
        for cut in [0, 3, 5, 9, len(data) // 2, len(data) - 1]:
            Path(bad).write_bytes(data[:cut])
            with pytest.raises(CheckpointFormatError):
                load_checkpoint(bad)

    def test_file_cut_while_loading(self, tmp_path, monkeypatch):
        """A file shorter than its size said is truncated, not a struct error."""
        path, data = self._saved(tmp_path)
        monkeypatch.setattr(checkpoint_mod, "os", SimpleNamespace(
            fstat=lambda fd: SimpleNamespace(st_size=len(data))))
        bad = tmp_path / "shrunk.ckpt"
        for cut in [0, 3, 5, 9, 40, len(data) // 2, len(data) - 1]:
            bad.write_bytes(data[:cut])
            with pytest.raises(CheckpointFormatError, match=r"truncated \(wanted"):
                load_checkpoint(str(bad))

    def test_text_file_refused_without_reading_it(self, tmp_path):
        bad = tmp_path / "corpus.txt"
        bad.write_text("what is the weather like today ?\n" * (1 << 18), encoding="utf-8")
        assert bad.stat().st_size >= 8 << 20
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointFormatError, match="bad magic"):
                load_checkpoint(str(bad))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_trailing_bytes(self, tmp_path):
        path, data = self._saved(tmp_path)
        bad = str(tmp_path / "long.ckpt")
        Path(bad).write_bytes(data + b"\x00")
        with pytest.raises(CheckpointFormatError) as err:
            load_checkpoint(bad)
        assert "trailing" in str(err.value)

    def test_corrupt_config_json(self, tmp_path):
        path, data = self._saved(tmp_path)
        (blob_len,) = struct.unpack_from("<I", data, 6)
        bad = str(tmp_path / "json.ckpt")
        corrupted = bytearray(data)
        corrupted[10] = 0xFF  # first config byte becomes invalid UTF-8
        Path(bad).write_bytes(bytes(corrupted))
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(bad)

    @pytest.mark.parametrize("changes", [
        dict(hidden=-1),
        dict(hidden=0),
        dict(mlp_hidden=-5),
        dict(embed_dim=0),
        dict(embed_dim="4"),
        dict(embed_dim=4.0),
        dict(embed_dim=True),
        dict(hidden=3.5),
        dict(hidden=None),
        dict(max_len=0),
        dict(margin=-0.5),
        dict(lr="fast"),
        dict(fine_tune_embeddings=1),
        dict(beta1=1.0),
    ])
    def test_invalid_header_values(self, tmp_path, changes):
        path, data = self._saved(tmp_path)
        bad = tmp_path / "header.ckpt"
        bad.write_bytes(rewrite_checkpoint_header(data, **changes))
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(str(bad))

    @pytest.mark.parametrize("raw", [DEEP_JSON, LONG_JSON_INT], ids=["deep", "long-int"])
    def test_header_json_beyond_python_limits(self, tmp_path, raw):
        """Valid JSON that Python's decoder refuses is a corrupt block, not a crash."""
        path, data = self._saved(tmp_path)
        bad = tmp_path / "limits.ckpt"
        bad.write_bytes(splice_checkpoint_header(data, "hidden", raw))
        with pytest.raises(CheckpointFormatError, match="corrupt config block"):
            load_checkpoint(str(bad))

    @pytest.mark.parametrize("word, delta, message", [
        (0, 1, "has rank 3, expected 2"),
        (1, -1, "has shape (7, 4), expected (8, 4)"),
    ], ids=["rank", "shape"])
    def test_tensor_header_names_the_tensor(self, tmp_path, word, delta, message):
        params, config, vocab = _fresh(3, d=4, hidden=4)
        path = str(tmp_path / "good.ckpt")
        save_checkpoint(params, config, vocab_content_hash(vocab), path)
        bad = tmp_path / "tensor.ckpt"
        bad.write_bytes(shift_first_tensor_word(Path(path).read_bytes(), word, delta))
        with pytest.raises(CheckpointFormatError) as err:
            load_checkpoint(str(bad))
        assert str(err.value) == f"{bad}: tensor query_encoder.forward.w_gates {message}"

    def test_non_object_header(self, tmp_path):
        path, data = self._saved(tmp_path)
        (blob_len,) = struct.unpack_from("<I", data, 6)
        bad = tmp_path / "list.ckpt"
        bad.write_bytes(data[:6] + struct.pack("<I", 2) + b"[]" + data[10 + blob_len:])
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(str(bad))

    @pytest.mark.parametrize("drop, missing", [
        (("max_len", "margin"), "margin, max_len"),
        (("hidden",), "hidden"),
    ], ids=["defaulted", "sized"])
    def test_missing_fields_are_named_not_defaulted(self, tmp_path, drop, missing):
        path, data = self._saved(tmp_path)
        bad = tmp_path / "dropped.ckpt"
        bad.write_bytes(rewrite_checkpoint_header(data, drop=drop))
        with pytest.raises(CheckpointFormatError) as err:
            load_checkpoint(str(bad))
        assert str(err.value) == (f"{bad}: config block fields differ from the format "
                                  f"(missing: {missing}; unknown: none)")

    def test_unknown_field_is_named(self, tmp_path):
        path, data = self._saved(tmp_path)
        bad = tmp_path / "extra.ckpt"
        bad.write_bytes(rewrite_checkpoint_header(data, dropout=0.1))
        with pytest.raises(CheckpointFormatError) as err:
            load_checkpoint(str(bad))
        assert str(err.value) == (f"{bad}: config block fields differ from the format "
                                  f"(missing: none; unknown: 'dropout')")

    def test_integer_valued_float_fields_load(self, tmp_path):
        path, data = self._saved(tmp_path)
        ok = tmp_path / "intlr.ckpt"
        ok.write_bytes(rewrite_checkpoint_header(data, lr=1, margin=2))
        assert load_checkpoint(str(ok)).config.lr == 1

    @pytest.mark.parametrize("changes", [dict(hidden=10**6), dict(embed_dim=10**6),
                                         dict(mlp_hidden=10**9), dict(hidden=4),
                                         dict(hidden=2**40), dict(embed_dim=10**30)])
    def test_declared_size_checked_before_allocating(self, tmp_path, monkeypatch, changes):
        path, data = self._saved(tmp_path)
        bad = tmp_path / "huge.ckpt"
        bad.write_bytes(rewrite_checkpoint_header(data, **changes))

        def refuse(*args):
            raise AssertionError("allocated before checking the byte length")

        monkeypatch.setattr(checkpoint_mod, "zero_scorer_params", refuse)
        with pytest.raises(CheckpointFormatError) as err:
            load_checkpoint(str(bad))
        assert "truncated" in str(err.value) or "trailing" in str(err.value)

    def test_missing_file_is_os_error(self, tmp_path):
        with pytest.raises(OSError):
            load_checkpoint(str(tmp_path / "ghost.ckpt"))

    def test_pipe_is_refused_naming_the_path(self, tmp_path):
        """A pipe has no size; loading one ended in an unnamed ``Illegal seek``."""
        _, data = self._saved(tmp_path)
        with pipe_holding(data) as path:
            with pytest.raises(CheckpointFormatError) as err:
                load_checkpoint(path)
        assert str(err.value) == f"{path}: not a regular file"


class TestVocabCompatibility:
    def test_mismatch_raises_and_names_both_hashes(self, tmp_path):
        params, config, vocab = _fresh(4)
        path = str(tmp_path / "x.ckpt")
        stored = vocab_content_hash(vocab)
        save_checkpoint(params, config, stored, path)
        other = vocab_content_hash(Vocabulary(["different"]))
        with pytest.raises(CompatibilityError) as err:
            load_checkpoint(path, expected_vocab_hash=other)
        message = str(err.value)
        assert f"{stored:#018x}" in message
        assert f"{other:#018x}" in message
        assert message.endswith(
            "; to load it anyway, pass expected_vocab_hash=None "
            "(on the command line: score --allow-vocab-mismatch)")

    def test_no_expectation_no_check(self, tmp_path):
        params, config, vocab = _fresh(6)
        path = str(tmp_path / "x.ckpt")
        save_checkpoint(params, config, vocab_content_hash(vocab), path)
        load_checkpoint(path)  # fine without an expected hash
