"""Atomic output files: a failed write leaves the previous file intact, every
library writer refuses what ``check_target`` refuses and writes through a link.
The float tables: ``fixed6_lines`` and the four writers that use it give the
bytes of a per-cell ``%.6f``."""

import os
import stat

import numpy as np
import pytest

import oracles
from ruber.analysis import quantile_bins, write_quantile_csv, write_scatter_csv
from ruber.embeddings import save_text_embeddings
from ruber.fileio import _BLOCK_CELLS, atomic_write, check_target, fixed6_lines
from ruber.scoretable import ScoreTable, write_score_table
from ruber.unreferenced import TrainConfig, save_checkpoint
from ruber.unreferenced.scorer import zero_scorer_params
from ruber.vocabulary import Vocabulary


def test_success_replaces_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n", encoding="utf-8")
    with atomic_write(path) as fh:
        fh.write("new\n")
    assert path.read_text(encoding="utf-8") == "new\n"
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
                                  "adir", "absent/", "afile/", "adir/"])
def test_check_target_raises_what_the_write_would(tmp_path, name):
    """A trailing separator names a directory, also where the link resolution drops it."""
    (tmp_path / "adir").mkdir()
    (tmp_path / "afile").write_text("kept\n", encoding="utf-8")
    path = os.path.join(tmp_path, name)
    with pytest.raises(OSError) as checked:
        check_target(path)
    with pytest.raises(OSError) as written:
        with atomic_write(path) as fh:
            fh.write("x")
    assert type(checked.value) is type(written.value)
    assert str(checked.value) == str(written.value)
    assert checked.value.filename == path
    assert sorted(os.listdir(tmp_path)) == ["adir", "afile"]
    assert os.listdir(tmp_path / "adir") == []
    assert (tmp_path / "afile").read_text(encoding="utf-8") == "kept\n"


def test_check_target_accepts_a_new_or_existing_file(tmp_path):
    (tmp_path / "old.txt").write_text("old\n", encoding="utf-8")
    check_target(tmp_path / "old.txt")
    check_target(tmp_path / "new.txt")
    check_target("relative-name.txt")
    assert os.listdir(tmp_path) == ["old.txt"]


def test_check_target_refuses_an_empty_path_as_open_would():
    with pytest.raises(FileNotFoundError) as checked:
        check_target("")
    with pytest.raises(FileNotFoundError) as opened:
        open("", "w", encoding="utf-8")
    assert str(checked.value) == str(opened.value) == "[Errno 2] No such file or directory: ''"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="this platform has no os.mkfifo")
def test_check_target_refuses_a_fifo_and_leaves_it_a_fifo(tmp_path):
    """``atomic_write`` would have replaced the FIFO with a regular file."""
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    with pytest.raises(OSError) as checked:
        check_target(fifo)
    assert str(checked.value) == f"[Errno 17] exists and is not a regular file: {str(fifo)!r}"
    assert checked.value.filename == str(fifo)
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert os.listdir(tmp_path) == ["fifo"]


def _quantile_inputs(n=40):
    rng = np.random.default_rng(34)
    return rng.integers(0, 3, n).astype(float), {"m": rng.random(n)}


# every library writer, each as a call that writes the path it is given
WRITERS = {
    "save_text_embeddings": lambda path: save_text_embeddings(
        Vocabulary(["a", "b"]), np.arange(6.0).reshape(3, 2), path),
    "save_checkpoint": lambda path: save_checkpoint(
        zero_scorer_params(2, 3, 4), TrainConfig(hidden=3, mlp_hidden=4), 7, path),
    "write_score_table": lambda path: write_score_table(
        ScoreTable(np.ones((3, 2)), {"m": np.arange(3.0)}), path),
    "write_scatter_csv": lambda path: write_scatter_csv(
        path, np.arange(3.0), np.arange(3.0), 0.25, 7),
    "write_quantile_csv": lambda path: write_quantile_csv(path, *_quantile_inputs(), 5),
}


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="this platform has no os.mkfifo")
@pytest.mark.parametrize("write", WRITERS.values(), ids=WRITERS.keys())
def test_writer_refuses_a_fifo_and_leaves_it_a_fifo(tmp_path, write):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    with pytest.raises(OSError) as written:
        write(fifo)
    assert written.value.filename == str(fifo)
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert os.listdir(tmp_path) == ["fifo"]


@pytest.mark.parametrize("write", WRITERS.values(), ids=WRITERS.keys())
def test_writer_writes_through_a_link(tmp_path, write):
    """The link stays; the file it names, in another directory, gets the new bytes."""
    write(tmp_path / "plain")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "real").write_bytes(b"old\n")
    (tmp_path / "link").symlink_to(os.path.join("sub", "real"))
    write(tmp_path / "link")
    assert os.readlink(tmp_path / "link") == os.path.join("sub", "real")
    assert (tmp_path / "sub" / "real").read_bytes() == (tmp_path / "plain").read_bytes()
    assert sorted(os.listdir(tmp_path)) == ["link", "plain", "sub"]
    assert os.listdir(tmp_path / "sub") == ["real"]


@pytest.mark.parametrize("write", WRITERS.values(), ids=WRITERS.keys())
def test_link_into_a_missing_directory_is_refused(tmp_path, write):
    link = tmp_path / "link"
    link.symlink_to(os.path.join("absent", "real"))
    with pytest.raises(FileNotFoundError) as checked:
        check_target(link)
    with pytest.raises(FileNotFoundError) as written:
        write(link)
    assert checked.value.filename == written.value.filename == str(link)
    assert str(checked.value) == str(written.value)
    assert os.readlink(link) == os.path.join("absent", "real")
    assert os.listdir(tmp_path) == ["link"]


_NAN, _INF = float("nan"), float("inf")
# signed zeros, values that round to a signed zero, exact ties, products that land
# on a tie or beside one, magnitudes past the integer kernel, the smallest subnormal,
# and every non-finite value
EDGE_VALUES = [
    0.0, -0.0, 4e-7, -4e-7, 1 / 128, 3 / 128, -1 / 128,
    *[(k + 0.5) / 1e6 for k in range(-50, 50)],
    0.9999995, 1e9, -1e9, 4.5e9, 1e17, -1e300, 5e-324,
    _NAN, -_NAN, _INF, -_INF,
]
SCALES = [1e-4, 1.0, 1e5, 1e9]
# one column, one row, no rows, and a row count that is not a multiple of a block
SHAPES = [(40, 1), (1, 7), (0, 3), (2 * (_BLOCK_CELLS // 3) + 5, 3)]


def _per_cell_lines(values, sep):
    return [sep.join("%.6f" % v for v in row) for row in np.asarray(values).tolist()]


class TestFixed6Lines:
    @pytest.mark.parametrize("sep", [" ", "\t", ",", " | "])
    def test_edge_values_as_a_row_and_as_a_column(self, sep):
        row = np.array([EDGE_VALUES])
        for values in (row, row.T):
            assert list(fixed6_lines(values, sep)) == _per_cell_lines(values, sep)

    @pytest.mark.parametrize("scale", SCALES)
    @pytest.mark.parametrize("shape", SHAPES, ids=lambda shape: "x".join(map(str, shape)))
    def test_random_normals(self, shape, scale):
        values = np.random.default_rng(29).normal(0.0, scale, shape)
        assert list(fixed6_lines(values, ",")) == _per_cell_lines(values, ",")


class TestAgainstPerCellWriters:
    """Each float-table writer against its frozen per-cell copy in ``oracles``."""

    def _same_embeddings(self, tmp_path, matrix):
        vocab = Vocabulary([f"w{i}" for i in range(len(matrix) - 1)])
        save_text_embeddings(vocab, matrix, tmp_path / "new.txt")
        oracles.per_cell_save_text_embeddings(vocab, matrix, tmp_path / "old.txt")
        assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "old.txt").read_bytes()

    def _same_score_table(self, tmp_path, columns):
        rng = np.random.default_rng(30)
        table = ScoreTable(rng.integers(0, 3, (len(columns), 3)),
                           {f"m{j}": column for j, column in enumerate(columns.T)},
                           {"m0": (-1.5, 2.25)}, "edge.tsv")
        write_score_table(table, tmp_path / "new.tsv")
        oracles.per_cell_write_score_table(table, tmp_path / "old.tsv")
        assert (tmp_path / "new.tsv").read_bytes() == (tmp_path / "old.tsv").read_bytes()

    def _same_scatter(self, tmp_path, metric):
        human = np.random.default_rng(31).integers(0, 3, len(metric)).astype(float)
        write_scatter_csv(tmp_path / "new.csv", human, metric, 0.25, 7)
        oracles.per_cell_write_scatter_csv(tmp_path / "old.csv", human, metric, 0.25, 7)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_edge_values(self, tmp_path):
        edges = np.array(EDGE_VALUES)
        finite = edges[np.isfinite(edges)]  # the embedding writer refuses the others
        self._same_embeddings(tmp_path, finite[:, None])
        self._same_embeddings(tmp_path, np.vstack([finite, finite[::-1]]))
        self._same_score_table(tmp_path, np.column_stack([edges, edges[::-1]]))
        self._same_scatter(tmp_path, edges)

    @pytest.mark.parametrize("scale", SCALES)
    def test_random_normals(self, tmp_path, scale):
        rng = np.random.default_rng(32)
        for shape in SHAPES:
            values = rng.normal(0.0, scale, shape)
            if len(values):  # an embedding file always holds the unknown row
                self._same_embeddings(tmp_path, values)
            self._same_score_table(tmp_path, values)
            self._same_scatter(tmp_path, values[:, 0])

    def test_quantile_csv(self, tmp_path):
        """NaN cells are dropped, a metric with fewer usable rows than bins is skipped,
        and a bin mean of -0.0 keeps its sign."""
        edges = np.array(EDGE_VALUES)
        human, _ = _quantile_inputs(len(edges))
        human[::9] = _NAN
        sparse = np.full(len(edges), _NAN)
        sparse[:4] = 1.0
        zeros = np.zeros(len(edges))
        zeros[np.flatnonzero(human == 0)[0]] = -5e-324  # the sum divided by n rounds to -0.0
        usable = np.isfinite(human)
        assert str(quantile_bins(human[usable], zeros[usable], 5)[0]) == "-0.0"
        metrics = {"edges": edges, "sparse": sparse, "zeros": zeros,
                   "tiny": np.where(human == 0, -4e-7, 0.25)}
        write_quantile_csv(tmp_path / "new.csv", human, metrics, 5)
        oracles.per_cell_write_quantile_csv(tmp_path / "old.csv", human, metrics, 5)
        written = (tmp_path / "new.csv").read_text(encoding="utf-8")
        assert written == (tmp_path / "old.csv").read_text(encoding="utf-8")
        assert "sparse," not in written
        assert "zeros,0,0.000000,-0.000000\n" in written

    def test_nan_cells_across_blocks(self, tmp_path):
        values = np.random.default_rng(33).random((3000, 14))
        values[::7, 12] = _NAN
        self._same_score_table(tmp_path, values)
