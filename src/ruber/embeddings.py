"""Word embeddings: plain-text interchange and skip-gram training.

The text format is the common one: a header line ``<vocab_size> <dim>``
followed by one ``token x_1 ... x_dim`` row per word.  On load, if the
file has no literal ``<unk>`` row, one is synthesized as the element-wise
mean of all rows so out-of-vocabulary lookups return something inside the
cloud of known vectors instead of zeros.  The unknown token always ends
up at row 0, matching :class:`~ruber.vocabulary.Vocabulary`.
"""

from __future__ import annotations

import math
from array import array
from itertools import islice

import numpy as np

from .corpus import Dataset, build_vocab, utterances_of
from .errors import ConfigError, NumericalError, ParseError, ValidationError, allocating
from .fileio import atomic_write, fixed6_lines
from .unreferenced.scorer import sigmoid
from .vocabulary import UNK_TOKEN, Vocabulary


def load_text_embeddings(path) -> tuple[Vocabulary, np.ndarray]:
    """Read a text embedding file; returns ``(vocab, matrix)``.

    The matrix is float64 with ``len(vocab)`` rows; row 0 belongs to the
    unknown token (taken from the file when present, synthesized as the
    mean row otherwise).  Malformed content raises :class:`ParseError`
    with the line number.  The file is read twice, line by line: once to
    count its rows and once to parse them, so only the matrix is held
    whole, and a pipe is refused.  Lines end at ``\\n``, ``\\r\\n`` or
    ``\\r``; any other whitespace, such as a form feed, separates fields.
    """
    last = 0  # the number of the last non-blank line
    with open(path, encoding="utf-8") as fh:
        if not fh.seekable():
            raise ParseError(path, 1, "not a seekable file (a pipe cannot be read twice)")
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                last = lineno
        if not last:
            raise ParseError(path, 1, "empty embedding file")

        fh.seek(0)
        head = fh.readline().split()
        if len(head) != 2:
            raise ParseError(path, 1, "header must be '<vocab_size> <dim>'")
        try:
            declared, dim = int(head[0]), int(head[1])
        except ValueError as exc:
            raise ParseError(path, 1, "header must hold two integers") from exc
        if declared < 1 or dim < 1:
            raise ParseError(path, 1, f"header values must be positive, got {declared} {dim}")
        if last - 1 != declared:
            raise ParseError(path, last,
                             f"header declares {declared} rows but file has {last - 1}")

        # grow with the rows read, never to (declared, dim): the header may lie
        seen: dict[str, None] = {}  # the tokens in row order; row i is on line i + 2
        values = array("d")
        for lineno, line in enumerate(islice(fh, declared), start=2):
            parts = line.split()
            if len(parts) != dim + 1:
                raise ParseError(
                    path, lineno,
                    f"expected a token and {dim} values, found {len(parts)} field(s)",
                )
            if lineno == 2:  # dim is a real row width now: reserve row 0 for <unk>
                values = array("d", [0.0]) * dim
            token = parts[0]
            if token in seen:
                first = list(seen).index(token) + 2
                raise ParseError(path, lineno, f"token {token!r} repeats line {first}")
            seen[token] = None
            try:
                row = [float(p) for p in parts[1:]]
            except ValueError as exc:
                raise ParseError(path, lineno, "vector component is not a number") from exc
            if not all(map(math.isfinite, row)):
                raise ParseError(path, lineno, "vector contains a non-finite component")
            if token == UNK_TOKEN:
                values[:dim] = array("d", row)
            else:
                values.extend(row)
    matrix = np.frombuffer(values).reshape(-1, dim)
    if UNK_TOKEN in seen:
        del seen[UNK_TOKEN]
    else:
        matrix[0] = matrix[1:].mean(axis=0)
    return Vocabulary(seen), matrix


def save_text_embeddings(vocab: Vocabulary, matrix: np.ndarray, path) -> None:
    """Write embeddings in the text format (values rendered at 1e-6 precision).

    The unknown row is written under its literal token, so a save/load
    round trip reproduces both the vocabulary and (to formatting
    precision) the matrix.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != len(vocab) or matrix.shape[1] < 1:
        raise ValueError(
            f"matrix shape {matrix.shape} does not match vocabulary of size {len(vocab)}"
        )
    # a nan or inf cell shows in min or max, with no mask the size of the matrix
    if not (np.isfinite(matrix.min()) and np.isfinite(matrix.max())):
        raise ValueError("matrix contains non-finite values")
    with atomic_write(path) as fh:
        fh.write(f"{matrix.shape[0]} {matrix.shape[1]}\n")
        for tok, line in zip(vocab, fixed6_lines(matrix, " ")):
            fh.write(tok + " " + line + "\n")


def train_sgns(
    dataset: Dataset,
    dim: int = 50,
    window: int = 5,
    negatives: int = 5,
    epochs: int = 5,
    lr: float = 0.025,
    min_count: int = 5,
    seed: int = 1,
) -> tuple[Vocabulary, np.ndarray]:
    """Train skip-gram word vectors with negative sampling.

    Every utterance in ``dataset`` is one training sentence.  The recipe
    is the classic one: dynamic window radius drawn uniformly from
    1..window per position, noise words drawn from the unigram^0.75
    distribution, input vectors initialized uniformly in
    (-0.5/dim, +0.5/dim), context vectors at zero, and the learning rate
    decayed linearly (once per sentence) to 1e-4 of its starting value
    over all processed positions.

    Draw order: one ``rng.random((V, dim))`` for the initial vectors, then
    per sentence of ``n`` words, ``rng.integers(1, window + 1, size=n)``
    for the radii followed by one ``rng.random((n_ctx, negatives))``,
    where ``n_ctx`` counts the (centre, window word) slots of the
    sentence in centre order.  Uniform draws map to noise ids through the
    cumulative table with ``searchsorted(side="right")``.

    Each centre word is updated as one block: its window words (label 1),
    each followed by its noise words (label 0), minus any noise word equal
    to its own window word.  Every ``g = alpha * (label - sigmoid(out @
    vec))`` uses the context rows and the centre vector as they were
    before this centre's update; then ``g @ out`` is added to the centre
    row and ``g * vec`` to each target's context row, accumulating when a
    target repeats within the block.  Deterministic for a fixed
    ``(dataset, params, seed)``.

    Returns the vocabulary and the input-vector matrix; row 0 (unknown
    token) is set to the mean of all trained rows.  Unusable arguments,
    and sizes too large to allocate, raise
    :class:`~ruber.errors.ConfigError`.  numpy's overflow warnings are
    silenced: the finished matrix is checked for non-finite values.
    """
    check_sgns_options(dim, window, negatives, epochs, lr, min_count, seed)
    vocab = build_vocab(dataset, min_count=min_count)
    if len(vocab) < 2:
        raise ValidationError(
            f"no token reaches min_count={min_count}; nothing to train on"
        )

    sentences: list[list[int]] = []
    for pair in dataset:
        for utt in utterances_of(pair):
            ids = [vocab.id_of(t) for t in utt]
            ids = [i for i in ids if i != 0]  # rare words drop out of the stream
            if ids:
                sentences.append(ids)
    # never empty: each kept token occurs in some utterance, which keeps its id
    counts = np.bincount(np.concatenate(sentences), minlength=len(vocab)).astype(float)

    # Cumulative unigram^0.75 table over ids 1..V for inverse-CDF sampling.
    noise = counts[1:] ** 0.75
    noise_cdf = np.cumsum(noise / noise.sum())

    rng = np.random.default_rng(seed)
    total_positions = sum(len(s) for s in sentences) * epochs
    floor = lr * 1e-4
    processed = 0
    with (allocating(f"dim={dim} negatives={negatives}"),
          np.errstate(over="ignore", invalid="ignore")):
        vectors = (rng.random((len(vocab), dim)) - 0.5) / dim
        flat_context = np.zeros(len(vocab) * dim)
        context = flat_context.reshape(len(vocab), dim)
        for _ in range(epochs):
            for sent in sentences:
                alpha = max(lr * (1.0 - processed / total_positions), floor)
                processed += len(sent)
                targets, labels, bounds = _sentence_blocks(
                    sent, window, negatives, noise_cdf, rng)
                # flat cell ids of each target's context row: np.add.at on a 1-D
                # view takes numpy's fast path, ~3x faster than row indices
                cells = (targets[:, None] * dim + np.arange(dim)).ravel()
                for center, a, b in zip(sent, bounds[:-1], bounds[1:]):
                    out = context[targets[a:b]]
                    vec = vectors[center]
                    g = alpha * (labels[a:b] - sigmoid(out @ vec))
                    np.add.at(flat_context, cells[a * dim:b * dim], np.outer(g, vec).ravel())
                    vectors[center] += g @ out
        vectors[0] = vectors[1:].mean(axis=0)
    if not np.all(np.isfinite(vectors)):
        raise NumericalError("skip-gram training produced non-finite vectors")
    return vocab, vectors


def check_sgns_options(dim, window, negatives, epochs, lr, min_count, seed) -> None:
    """Raise :class:`~ruber.errors.ConfigError` on an unusable :func:`train_sgns` argument."""
    if dim < 1 or window < 1 or negatives < 1 or epochs < 1 or min_count < 1:
        raise ConfigError("dim, window, negatives, epochs and min_count must be >= 1")
    if window >= 2**63:  # rng.integers(1, window + 1) draws int64 radii
        raise ConfigError(f"window must be < 2**63, got {window}")
    if not 0 < lr < math.inf:  # chained so that NaN and infinity fail too
        raise ConfigError(f"lr must be positive and finite, got {lr}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")


def _sentence_blocks(sent, window, negatives, noise_cdf, rng):
    """Draw one sentence's randomness and lay out its per-centre blocks.

    Returns ``(targets, labels, bounds)``: the block of the centre at
    position ``p`` is ``targets[bounds[p]:bounds[p + 1]]``, listed window
    word by window word from left to right, each true context word
    (label 1) followed by its noise words (label 0) that differ from it.
    """
    n = len(sent)
    pos = np.arange(n)
    radii = rng.integers(1, window + 1, size=n)
    lo = np.maximum(pos - radii, 0)
    widths = np.minimum(pos + radii + 1, n) - lo - 1
    owner = np.repeat(pos, widths)  # centre position of each context slot
    ctx_pos = lo[owner] + np.arange(owner.size) - (np.cumsum(widths) - widths)[owner]
    ctx_pos += ctx_pos >= owner  # step over the centre itself
    ctx = np.asarray(sent)[ctx_pos]
    drawn = np.searchsorted(noise_cdf, rng.random((ctx.size, negatives)), side="right") + 1
    targets = np.column_stack([ctx, drawn])
    keep = targets != ctx[:, None]
    keep[:, 0] = True
    labels = np.zeros(targets.shape)
    labels[:, 0] = 1.0
    kept_before = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
    bounds = kept_before[np.concatenate([[0], np.cumsum(widths)])]
    return targets[keep], labels[keep], bounds.tolist()
