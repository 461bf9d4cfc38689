"""Shared builders for the test suite."""

from __future__ import annotations

import json
import struct

import numpy as np

from ruber.corpus import Dataset, QueryReplyPair
from ruber.unreferenced import init_scorer_params
from ruber.vocabulary import Vocabulary


def toy_vocab_matrix(rng, n_tokens=8, dim=4, scale=0.5):
    """Random embedding table over tokens t0..t{n-1} (plus UNK row 0)."""
    vocab = Vocabulary([f"t{i}" for i in range(n_tokens)])
    matrix = rng.normal(0.0, scale, (len(vocab), dim))
    return vocab, matrix


def random_scorer_params(embed_dim, hidden, mlp_hidden, rng):
    """Fully populated scorer parameters.

    ``init_scorer_params`` leaves biases and the bilinear form at zero;
    tests that compare against oracles want every tensor nonzero so a
    dropped term cannot hide.
    """
    params = init_scorer_params(embed_dim, hidden, mlp_hidden, rng)
    for enc in (params.query_encoder, params.reply_encoder):
        for direction in (enc.forward, enc.backward):
            direction.b_gates[:] = rng.normal(0.0, 0.1, direction.b_gates.shape)
            direction.b_cand[:] = rng.normal(0.0, 0.1, direction.b_cand.shape)
    params.bilinear[:] = rng.normal(0.0, 0.3, params.bilinear.shape)
    params.mlp_hidden_b[:] = rng.normal(0.0, 0.1, params.mlp_hidden_b.shape)
    params.mlp_out_b[...] = rng.normal(0.0, 0.1)
    return params


def random_utterance(rng, vocab_size, max_tokens, min_tokens=1):
    length = int(rng.integers(min_tokens, max_tokens + 1))
    return [f"t{int(rng.integers(vocab_size))}" for _ in range(length)]


def separable_corpus(rng, n_pairs=500, n_topics=20, n_fillers=10, dim=16):
    """Corpus where the reply's single token must appear in the query.

    Each query is filler tokens with exactly one topic token inserted;
    the reply is that topic token alone.  A uniformly resampled negative
    reply is almost surely a different topic, so query-reply relatedness
    is fully learnable.  Returns (dataset, vocab, matrix).
    """
    fillers = [f"flr{i}" for i in range(n_fillers)]
    topics = [f"topic{i}" for i in range(n_topics)]
    vocab = Vocabulary(fillers + topics)
    matrix = rng.normal(0.0, 0.5, (len(vocab), dim))
    pairs = []
    for _ in range(n_pairs):
        topic = topics[int(rng.integers(n_topics))]
        n_fill = int(rng.integers(2, 5))
        query = [fillers[int(rng.integers(n_fillers))] for _ in range(n_fill)]
        query.insert(int(rng.integers(n_fill + 1)), topic)
        pairs.append(QueryReplyPair(query, [topic]))
    dataset = Dataset(tuple(pairs), source="synthetic-separable", format="tsv")
    return dataset, vocab, matrix


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return str(path)


def rewrite_checkpoint_header(data: bytes, **changes) -> bytes:
    """Checkpoint bytes with config-block fields replaced by ``changes``.

    The magic and version (6 bytes) stay; the JSON block is re-encoded
    and its u32 length prefix updated; the rest is kept byte for byte.
    """
    (blob_len,) = struct.unpack_from("<I", data, 6)
    blob = json.loads(data[10:10 + blob_len])
    blob.update(changes)
    encoded = json.dumps(blob, sort_keys=True).encode("utf-8")
    return data[:6] + struct.pack("<I", len(encoded)) + encoded + data[10 + blob_len:]
