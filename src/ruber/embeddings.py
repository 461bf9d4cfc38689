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

import numpy as np

from .corpus import Dataset, build_vocab, utterances_of
from .errors import ConfigError, NumericalError, ParseError, ValidationError
from .fileio import atomic_write
from .unreferenced.scorer import sigmoid
from .vocabulary import UNK_TOKEN, Vocabulary


def load_text_embeddings(path) -> tuple[Vocabulary, np.ndarray]:
    """Read a text embedding file; returns ``(vocab, matrix)``.

    The matrix is float64 with ``len(vocab)`` rows; row 0 belongs to the
    unknown token (taken from the file when present, synthesized as the
    mean row otherwise).  Malformed content raises :class:`ParseError`
    with the line number.
    """
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise ParseError(path, 1, "empty embedding file")

    head = lines[0].split()
    if len(head) != 2:
        raise ParseError(path, 1, "header must be '<vocab_size> <dim>'")
    try:
        declared, dim = int(head[0]), int(head[1])
    except ValueError as exc:
        raise ParseError(path, 1, "header must hold two integers") from exc
    if declared < 1 or dim < 1:
        raise ParseError(path, 1, f"header values must be positive, got {declared} {dim}")
    if len(lines) - 1 != declared:
        raise ParseError(
            path, len(lines),
            f"header declares {declared} rows but file has {len(lines) - 1}",
        )

    # grows with the rows read, never to (declared, dim): the header may lie
    tokens: list[str] = []
    values = array("d")
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if len(parts) != dim + 1:
            raise ParseError(
                path, lineno,
                f"expected a token and {dim} values, found {len(parts)} field(s)",
            )
        tokens.append(parts[0])
        try:
            row = [float(p) for p in parts[1:]]
        except ValueError as exc:
            raise ParseError(path, lineno, "vector component is not a number") from exc
        if not all(map(math.isfinite, row)):
            raise ParseError(path, lineno, "vector contains a non-finite component")
        values.extend(row)
    rows = np.frombuffer(values).reshape(declared, dim)

    if tokens.count(UNK_TOKEN) > 1:
        raise ParseError(path, 1, f"more than one {UNK_TOKEN!r} row")
    try:
        if UNK_TOKEN in tokens:
            at = tokens.index(UNK_TOKEN)
            vocab = Vocabulary(tokens[:at] + tokens[at + 1:])
            matrix = np.vstack([rows[at:at + 1], rows[:at], rows[at + 1:]])
        else:
            vocab = Vocabulary(tokens)
            matrix = np.vstack([rows.mean(axis=0, keepdims=True), rows])
    except ValueError as exc:
        raise ParseError(path, 1, str(exc)) from exc
    return vocab, matrix


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
    if not np.all(np.isfinite(matrix)):
        raise ValueError("matrix contains non-finite values")
    fmt = " ".join(["%.6f"] * matrix.shape[1])
    with atomic_write(path) as fh:
        fh.write(f"{matrix.shape[0]} {matrix.shape[1]}\n")
        for tok, row in zip(vocab.tokens, matrix):
            fh.write(tok + " " + fmt % tuple(row.tolist()) + "\n")


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
    token) is set to the mean of all trained rows.  Unusable arguments
    raise :class:`~ruber.errors.ConfigError`.
    """
    if dim < 1 or window < 1 or negatives < 1 or epochs < 1 or min_count < 1:
        raise ConfigError("dim, window, negatives, epochs and min_count must be >= 1")
    if lr <= 0:
        raise ConfigError(f"lr must be positive, got {lr}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")

    vocab = build_vocab(dataset, min_count=min_count)
    if len(vocab) < 2:
        raise ValidationError(
            f"no token reaches min_count={min_count}; nothing to train on"
        )

    sentences: list[list[int]] = []
    counts = np.zeros(len(vocab), dtype=float)
    for pair in dataset:
        for utt in utterances_of(pair):
            ids = [vocab.id_of(t) for t in utt]
            ids = [i for i in ids if i != 0]  # rare words drop out of the stream
            if ids:
                sentences.append(ids)
                for i in ids:
                    counts[i] += 1.0

    if not sentences:
        raise ValidationError("every sentence became empty after min_count filtering")

    rng = np.random.default_rng(seed)
    vectors = (rng.random((len(vocab), dim)) - 0.5) / dim
    flat_context = np.zeros(len(vocab) * dim)
    context = flat_context.reshape(len(vocab), dim)

    # Cumulative unigram^0.75 table over ids 1..V for inverse-CDF sampling.
    noise = counts[1:] ** 0.75
    noise_cdf = np.cumsum(noise / noise.sum())

    total_positions = sum(len(s) for s in sentences) * epochs
    floor = lr * 1e-4
    processed = 0
    for _ in range(epochs):
        for sent in sentences:
            alpha = max(lr * (1.0 - processed / total_positions), floor)
            processed += len(sent)
            targets, labels, bounds = _sentence_blocks(sent, window, negatives, noise_cdf, rng)
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
