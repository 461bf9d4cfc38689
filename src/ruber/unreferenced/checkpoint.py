"""Binary checkpoint format for trained scorer parameters.

Layout, all integers little-endian:

* magic ``RUBR`` (4 bytes)
* format version, u16
* config block: u32 byte length + that many bytes of UTF-8 JSON
  (embedding dim plus every :class:`TrainConfig` field, sorted keys)
* vocabulary hash, u64: FNV-1a over each token's UTF-8 bytes followed by
  a newline, in id order
* every scorer tensor in declaration order: u32 rank, u32 per dimension,
  then the values as IEEE-754 float32, row-major

Tensors are quantized to float32 on save and come back as float64 with
exactly the stored float32 values, so save/load/save round trips are
byte-stable.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, fields

import numpy as np

from ..errors import CheckpointFormatError, CompatibilityError, ConfigError
from ..fileio import atomic_write
from ..vocabulary import Vocabulary
from .config import TrainConfig
from .scorer import ScorerParams, scorer_shapes, zero_scorer_params

MAGIC = b"RUBR"
FORMAT_VERSION = 1

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_U64_MASK = 0xFFFFFFFFFFFFFFFF


def vocab_content_hash(vocab: Vocabulary) -> int:
    """64-bit FNV-1a over the token sequence, newline-terminated per token."""
    h = _FNV_OFFSET
    for token in vocab.tokens:
        for byte in token.encode("utf-8") + b"\n":
            h = ((h ^ byte) * _FNV_PRIME) & _U64_MASK
    return h


@dataclass
class Checkpoint:
    params: ScorerParams
    config: TrainConfig
    embed_dim: int
    vocab_hash: int


def save_checkpoint(
    params: ScorerParams,
    config: TrainConfig,
    vocab_hash: int,
    path,
) -> None:
    """Write ``params`` and its training configuration to ``path``."""
    blob = dict(asdict(config), embed_dim=params.embed_dim)
    encoded = json.dumps(blob, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with atomic_write(path, binary=True) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<H", FORMAT_VERSION))
        fh.write(struct.pack("<I", len(encoded)))
        fh.write(encoded)
        fh.write(struct.pack("<Q", vocab_hash))
        for _, arr in params.tensors():
            # asarray keeps 0-d tensors 0-d (ascontiguousarray would not)
            quantized = np.asarray(arr, dtype="<f4", order="C")
            fh.write(struct.pack("<I", quantized.ndim))
            for dim in quantized.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(quantized.tobytes())


def load_checkpoint(
    path,
    expected_vocab_hash: int | None = None,
    allow_vocab_mismatch: bool = False,
) -> Checkpoint:
    """Read a checkpoint back.

    When ``expected_vocab_hash`` is given it must equal the stored hash,
    unless ``allow_vocab_mismatch`` overrides the refusal; a mismatch
    raises :class:`~ruber.errors.CompatibilityError`.  Structural damage
    raises :class:`~ruber.errors.CheckpointFormatError`.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    reader = _Reader(path, data)

    if reader.take(4) != MAGIC:
        raise CheckpointFormatError(f"{path}: not a scorer checkpoint (bad magic)")
    (version,) = struct.unpack("<H", reader.take(2))
    if version != FORMAT_VERSION:
        raise CheckpointFormatError(
            f"{path}: unsupported format version {version} (expected {FORMAT_VERSION})"
        )
    (blob_len,) = struct.unpack("<I", reader.take(4))
    try:
        blob = json.loads(reader.take(blob_len).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointFormatError(f"{path}: corrupt config block") from exc
    try:
        embed_dim = blob.pop("embed_dim")
        config = TrainConfig(**blob)
    except (AttributeError, KeyError, TypeError) as exc:
        raise CheckpointFormatError(f"{path}: config block missing fields") from exc
    _check_config(path, embed_dim, config)

    (vocab_hash,) = struct.unpack("<Q", reader.take(8))

    # the declared shapes fix the byte length; check it before allocating
    expected = sum(
        4 * (1 + len(shape) + math.prod(shape))
        for shape in scorer_shapes(embed_dim, config.hidden, config.mlp_hidden)
    )
    if reader.remaining() < expected:
        raise CheckpointFormatError(
            f"{path}: truncated (header declares {expected} tensor byte(s), "
            f"{reader.remaining()} present)"
        )
    if reader.remaining() > expected:
        raise CheckpointFormatError(
            f"{path}: {reader.remaining() - expected} trailing byte(s)"
        )

    params = zero_scorer_params(embed_dim, config.hidden, config.mlp_hidden)
    for name, arr in params.tensors():
        (rank,) = struct.unpack("<I", reader.take(4))
        if rank != arr.ndim:
            raise CheckpointFormatError(
                f"{path}: tensor {name} has rank {rank}, expected {arr.ndim}"
            )
        shape = tuple(
            struct.unpack("<I", reader.take(4))[0] for _ in range(rank)
        )
        if shape != arr.shape:
            raise CheckpointFormatError(
                f"{path}: tensor {name} has shape {shape}, expected {arr.shape}"
            )
        raw = reader.take(4 * math.prod(shape))
        arr[...] = np.frombuffer(raw, dtype="<f4").reshape(shape).astype(float)

    if (
        expected_vocab_hash is not None
        and expected_vocab_hash != vocab_hash
        and not allow_vocab_mismatch
    ):
        raise CompatibilityError(
            f"{path}: checkpoint was trained against a different vocabulary "
            f"(stored hash {vocab_hash:#018x}, supplied {expected_vocab_hash:#018x}); "
            "pass the override flag to load anyway"
        )
    return Checkpoint(params=params, config=config, embed_dim=embed_dim, vocab_hash=vocab_hash)


# JSON value types accepted for a config field, keyed by its default's type
_JSON_TYPES = {bool: (bool,), int: (int,), float: (int, float)}


def _is_json_type(value, kind: type) -> bool:
    # bool is an int subclass: accept it only where a bool is declared
    return isinstance(value, _JSON_TYPES[kind]) and isinstance(value, bool) == (kind is bool)


def _check_config(path, embed_dim, config: TrainConfig) -> None:
    """Reject a decoded header whose values could not have been saved."""
    if not _is_json_type(embed_dim, int) or embed_dim < 1:
        raise CheckpointFormatError(
            f"{path}: embed_dim must be an integer >= 1, got {embed_dim!r}"
        )
    for field in fields(TrainConfig):
        value = getattr(config, field.name)
        if not _is_json_type(value, type(field.default)):
            raise CheckpointFormatError(
                f"{path}: config field {field.name} has unusable value {value!r}"
            )
    try:
        config.validate()
    except ConfigError as exc:
        raise CheckpointFormatError(f"{path}: invalid config block: {exc}") from exc


class _Reader:
    """Bounds-checked cursor over the checkpoint bytes."""

    def __init__(self, path, data: bytes):
        self.path = path
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise CheckpointFormatError(
                f"{self.path}: truncated (wanted {n} byte(s) at offset {self.pos})"
            )
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def remaining(self) -> int:
        return len(self.data) - self.pos
