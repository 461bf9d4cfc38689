"""Atomic output files: a failed write leaves the previous file intact."""

import os

import numpy as np
import pytest

from ruber.embeddings import save_text_embeddings
from ruber.fileio import atomic_write
from ruber.vocabulary import Vocabulary


def test_success_replaces_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n")
    with atomic_write(path) as fh:
        fh.write("new\n")
    assert path.read_text() == "new\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_failure_partway_keeps_earlier_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_bytes(b"earlier contents\n")
    with pytest.raises(RuntimeError):
        with atomic_write(path) as fh:
            fh.write("partial " * 10_000)
            fh.flush()
            raise RuntimeError("disk on fire")
    assert path.read_bytes() == b"earlier contents\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_failing_writer_keeps_earlier_file(tmp_path):
    """A token that cannot be encoded fails the embedding save mid-file."""
    path = tmp_path / "vectors.txt"
    save_text_embeddings(Vocabulary(["a", "b"]), np.ones((3, 2)), path)
    before = path.read_bytes()
    with pytest.raises(UnicodeEncodeError):
        save_text_embeddings(Vocabulary(["a", "b\ud800"]), np.zeros((3, 2)), path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["vectors.txt"]


def test_missing_directory_is_os_error(tmp_path):
    with pytest.raises(FileNotFoundError):
        with atomic_write(tmp_path / "absent" / "out.txt") as fh:
            fh.write("x")
    assert os.listdir(tmp_path) == []
