"""Atomic output files: a failed write leaves the previous file intact."""

import os

import numpy as np
import pytest

from ruber.embeddings import save_text_embeddings
from ruber.fileio import atomic_write, check_target
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


def test_missing_directory_names_the_target(tmp_path):
    path = tmp_path / "absent" / "out.txt"
    with pytest.raises(FileNotFoundError) as exc:
        with atomic_write(path) as fh:
            fh.write("x")
    assert exc.value.filename == str(path)
    assert str(exc.value) == f"[Errno 2] No such file or directory: {str(path)!r}"


def test_directory_target_names_the_target_and_leaves_no_temporary(tmp_path):
    path = tmp_path / "adir"
    path.mkdir()
    with pytest.raises(IsADirectoryError) as exc:
        with atomic_write(path, binary=True) as fh:
            fh.write(b"x")
    assert exc.value.filename == str(path) and exc.value.filename2 is None
    assert os.listdir(tmp_path) == ["adir"]
    assert os.listdir(path) == []


@pytest.mark.parametrize("name", ["absent/out.txt", "afile/out.txt", "afile/sub/out.txt",
                                  "adir"])
def test_check_target_raises_what_the_write_would(tmp_path, name):
    (tmp_path / "adir").mkdir()
    (tmp_path / "afile").write_text("kept\n")
    path = tmp_path / name
    with pytest.raises(OSError) as checked:
        check_target(path)
    with pytest.raises(OSError) as written:
        with atomic_write(path) as fh:
            fh.write("x")
    assert type(checked.value) is type(written.value)
    assert str(checked.value) == str(written.value)
    assert checked.value.filename == str(path)
    assert sorted(os.listdir(tmp_path)) == ["adir", "afile"]


def test_check_target_accepts_a_new_or_existing_file(tmp_path):
    (tmp_path / "old.txt").write_text("old\n")
    check_target(tmp_path / "old.txt")
    check_target(tmp_path / "new.txt")
    check_target("relative-name.txt")
    assert os.listdir(tmp_path) == ["old.txt"]
