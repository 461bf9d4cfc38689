"""Binary checkpoint format for trained scorer parameters.

Layout, all integers little-endian:

* magic ``RUBR`` (4 bytes)
* format version, u16
* config block: u32 byte length + that many bytes of UTF-8 JSON: an
  object whose keys are exactly ``embed_dim`` and the :class:`TrainConfig`
  fields, sorted
* vocabulary hash, u64: FNV-1a over each token's UTF-8 bytes followed by
  a newline, in id order
* every scorer tensor in declaration order: u32 rank, u32 per dimension,
  then the values as IEEE-754 float32, row-major

Tensors are quantized to float32 on save and come back as float64 with
exactly the stored float32 values, so save/load/save round trips are
byte-stable.  A load streams the file: it checks the byte length that
the header declares against the file's size before it allocates, and
never holds the file whole, so a non-checkpoint is refused after 4 bytes.
"""

from __future__ import annotations

import json
import math
import os
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

# the config block holds exactly these keys
_CONFIG_KEYS = frozenset(["embed_dim", *(field.name for field in fields(TrainConfig))])

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_U64_MASK = 0xFFFFFFFFFFFFFFFF


def vocab_content_hash(vocab: Vocabulary) -> int:
    """64-bit FNV-1a over the token sequence, newline-terminated per token."""
    h = _FNV_OFFSET
    for token in vocab:
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
        fh.write(MAGIC + struct.pack("<HI", FORMAT_VERSION, len(encoded)))
        fh.write(encoded + struct.pack("<Q", vocab_hash))
        for _, arr in params.tensors():
            fh.write(_tensor_header(arr.shape) + quantize(arr).tobytes())


def _tensor_header(shape) -> bytes:
    """A tensor record's header: u32 rank, then u32 per dimension."""
    return struct.pack(f"<{1 + len(shape)}I", len(shape), *shape)


def quantize(arr: np.ndarray) -> np.ndarray:
    """``arr`` as a checkpoint stores it: little-endian float32, row-major."""
    # asarray keeps 0-d tensors 0-d (ascontiguousarray would not)
    return np.asarray(arr, dtype="<f4", order="C")


def load_checkpoint(path, expected_vocab_hash: int | None = None) -> Checkpoint:
    """Read a checkpoint back.

    When ``expected_vocab_hash`` is given it must equal the stored hash; a
    mismatch raises :class:`~ruber.errors.CompatibilityError`.  Structural
    damage raises :class:`~ruber.errors.CheckpointFormatError`.
    """
    with open(path, "rb") as fh:
        if not fh.seekable():  # a pipe has no size to check the declared lengths against
            raise CheckpointFormatError(f"{path}: not a regular file")
        size = os.fstat(fh.fileno()).st_size

        def take(n: int) -> bytes:
            at = fh.tell()
            out = fh.read(n) if at + n <= size else b""  # a lying length reads nothing
            if len(out) < n:
                raise CheckpointFormatError(
                    f"{path}: truncated (wanted {n} byte(s) at offset {at})"
                )
            return out

        if take(4) != MAGIC:
            raise CheckpointFormatError(f"{path}: not a scorer checkpoint (bad magic)")
        (version,) = struct.unpack("<H", take(2))
        if version != FORMAT_VERSION:
            raise CheckpointFormatError(
                f"{path}: unsupported format version {version} (expected {FORMAT_VERSION})"
            )
        (blob_len,) = struct.unpack("<I", take(4))
        try:
            blob = json.loads(take(blob_len).decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, too deep, too long an int
            raise CheckpointFormatError(f"{path}: corrupt config block") from exc
        if not isinstance(blob, dict):
            raise CheckpointFormatError(f"{path}: config block is not a JSON object")
        if blob.keys() != _CONFIG_KEYS:
            missing = ", ".join(sorted(_CONFIG_KEYS - blob.keys())) or "none"
            unknown = ", ".join(map(repr, sorted(blob.keys() - _CONFIG_KEYS))) or "none"
            raise CheckpointFormatError(
                f"{path}: config block fields differ from the format "
                f"(missing: {missing}; unknown: {unknown})"
            )
        embed_dim = blob.pop("embed_dim")
        config = TrainConfig(**blob)
        _check_config(path, embed_dim, config)

        (vocab_hash,) = struct.unpack("<Q", take(8))

        # the declared shapes fix the byte length; check it before allocating
        shapes = scorer_shapes(embed_dim, config.hidden, config.mlp_hidden)
        expected = sum(4 * (1 + len(shape) + math.prod(shape)) for shape in shapes)
        remaining = size - fh.tell()
        if remaining < expected:
            raise CheckpointFormatError(
                f"{path}: truncated (header declares {expected} tensor byte(s), "
                f"{remaining} present)"
            )
        if remaining > expected:
            raise CheckpointFormatError(f"{path}: {remaining - expected} trailing byte(s)")

        params = zero_scorer_params(embed_dim, config.hidden, config.mlp_hidden)
        for name, arr in params.tensors():
            rank, *dims = np.frombuffer(take(len(_tensor_header(arr.shape))), "<u4").tolist()
            if rank != arr.ndim:
                raise CheckpointFormatError(
                    f"{path}: tensor {name} has rank {rank}, expected {arr.ndim}"
                )
            if tuple(dims) != arr.shape:
                raise CheckpointFormatError(
                    f"{path}: tensor {name} has shape {tuple(dims)}, expected {arr.shape}"
                )
            arr[...] = np.frombuffer(take(4 * arr.size), "<f4").reshape(arr.shape)

    if expected_vocab_hash not in (None, vocab_hash):
        raise CompatibilityError(
            f"{path}: checkpoint was trained against a different vocabulary "
            f"(stored hash {vocab_hash:#018x}, supplied {expected_vocab_hash:#018x}); "
            "to load it anyway, pass expected_vocab_hash=None "
            "(on the command line: score --allow-vocab-mismatch)"
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

