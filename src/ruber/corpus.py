"""Dialog corpus ingestion: tokenization, pair loading, vocabulary building.

Text is treated as pre-tokenized: tokens are simply maximal runs of
non-whitespace characters, so any language-specific segmentation has to
happen upstream of these loaders.

Two file layouts are supported for each loader:

* ``tsv``: one example per line, fields separated by tabs.
  Query-reply files need at least two fields (query, reply).  Annotated
  files need ``query<TAB>groundtruth<TAB>candidate`` followed by one
  integer column per human annotator.
* ``jsonl``: one JSON object per line with string values under
  ``query``/``reply`` (pairs) or ``query``/``groundtruth``/``candidate``
  plus an integer array ``scores`` (annotated).
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field, fields
from functools import cache
from typing import Iterator, Union

from .errors import ParseError, ValidationError
from .vocabulary import UNK_TOKEN, Vocabulary

# An utterance is a list of whitespace-free tokens in surface order.
Utterance = list[str]

FORMATS = ("tsv", "jsonl")

VALID_SCORES = (0, 1, 2)


def tokenize(line: str) -> Utterance:
    """Split a line into tokens on runs of whitespace.

    No lowercasing, no punctuation handling; empty or all-whitespace
    input yields an empty list.
    """
    return line.split()


@dataclass(frozen=True)
class QueryReplyPair:
    query: Utterance
    reply: Utterance


@dataclass(frozen=True)
class AnnotatedPair:
    query: Utterance
    groundtruth: Utterance
    candidate: Utterance
    human_scores: list[int] = field(default_factory=list)


Pair = Union[QueryReplyPair, AnnotatedPair]

# Per pair type: the error for a tsv row with too few fields, and the noun
# for a file without one usable row.
_ROW_TEXT = {
    QueryReplyPair: ("expected at least 2 tab-separated fields, found {}", "query-reply"),
    AnnotatedPair: (
        "expected query, groundtruth, candidate and at least "
        "one score column, found {} field(s)",
        "annotated",
    ),
}


@dataclass
class Dataset:
    """An ordered collection of pairs plus where it came from.

    ``skipped`` counts input rows that were dropped because one of their
    utterances tokenized to nothing.
    """

    pairs: list
    source: str
    format: str
    skipped: int = 0

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator:
        return iter(self.pairs)

    def __getitem__(self, idx: int):
        return self.pairs[idx]


def load_pairs(path, format: str = "tsv") -> Dataset:
    """Load query-reply pairs from ``path``.

    Rows whose query or reply tokenizes to nothing are skipped (counted
    on the returned dataset); malformed rows raise :class:`ParseError`
    naming the line.  Extra tsv columns and extra JSON keys are ignored.
    """
    return _load(path, format, QueryReplyPair)


def load_annotated(path, format: str = "tsv") -> Dataset:
    """Load human-annotated (query, groundtruth, candidate) triples.

    Every row must carry the same number of annotator scores, each an
    integer in {0, 1, 2}; violations raise :class:`ValidationError` with
    the offending line number.  Rows where any of the three utterances
    tokenizes to nothing are skipped and counted, like in
    :func:`load_pairs`.
    """
    return _load(path, format, AnnotatedPair)


def _load(path, format: str, pair_type) -> Dataset:
    """One ``pair_type`` per line; its utterance fields name the jsonl keys.

    A row fails on its field count or keys, then on each score in turn,
    then on its annotator count (0 for query-reply pairs); only a row
    that passes them all is skipped for an empty utterance.
    """
    if format not in FORMATS:
        raise ValueError(f"unknown corpus format {format!r}, expected one of {FORMATS}")
    keys = _utterance_fields(pair_type)
    annotated = pair_type is AnnotatedPair
    short_row, noun = _ROW_TEXT[pair_type]
    pairs: list[Pair] = []
    skipped = 0
    scores: list[int] = []  # stays empty for query-reply pairs
    n_annotators: int | None = None
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if format == "tsv":
                cells = line.split("\t")
                if len(cells) < len(keys) + annotated:  # and a score column
                    raise ParseError(path, lineno, short_row.format(len(cells)))
                texts = cells[:len(keys)]
                if annotated:
                    scores = [_parse_score(text, path, lineno) for text in cells[len(keys):]]
            else:
                obj = _parse_json_object(path, lineno, line)
                texts = [_json_value(obj, key, str, "a string", path, lineno) for key in keys]
                if annotated:
                    items = _json_value(obj, "scores", list, "an array", path, lineno)
                    scores = [_json_score(item, path, lineno) for item in items]
            utterances = [tokenize(text) for text in texts]
            if n_annotators is None:
                n_annotators = len(scores)
            elif len(scores) != n_annotators:
                raise ValidationError(
                    f"{path}:{lineno}: annotator count changed from "
                    f"{n_annotators} to {len(scores)}"
                )
            if not all(utterances):
                skipped += 1
                continue
            pairs.append(pair_type(*utterances, scores) if annotated else pair_type(*utterances))
    if not pairs:
        raise ValidationError(f"{path}: no usable {noun} pairs")
    return Dataset(pairs, source=str(path), format=format, skipped=skipped)


def build_vocab(dataset: Dataset, min_count: int = 1) -> Vocabulary:
    """Build a vocabulary over every utterance in ``dataset``.

    Tokens seen at least ``min_count`` times get ids 1..V ordered by
    descending frequency, ties broken lexicographically; id 0 is the
    unknown token, which a literal ``<unk>`` in the text also maps to.
    """
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")
    if len(dataset) == 0:
        raise ValueError("cannot build a vocabulary from an empty dataset")
    counts: Counter[str] = Counter()
    for pair in dataset:
        for utt in utterances_of(pair):
            counts.update(utt)
    kept = sorted(
        (tok for tok, cnt in counts.items() if cnt >= min_count and tok != UNK_TOKEN),
        key=lambda tok: (-counts[tok], tok),
    )
    return Vocabulary(kept)


def utterances_of(pair: Pair) -> tuple[Utterance, ...]:
    """All utterance fields of a pair, in declaration order."""
    return tuple(getattr(pair, name) for name in _utterance_fields(type(pair)))


@cache
def _utterance_fields(pair_type) -> tuple[str, ...]:
    """Names of the ``Utterance`` fields of a pair type, in declaration order."""
    return tuple(f.name for f in fields(pair_type) if f.type == "Utterance")


def _parse_json_object(path, lineno: int, line: str) -> dict:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(path, lineno, f"invalid JSON: {exc.msg}") from exc
    if not isinstance(obj, dict):
        raise ParseError(path, lineno, "expected a JSON object")
    return obj


def _json_value(obj: dict, key: str, kind: type, noun: str, path, lineno: int):
    if key not in obj:
        raise ParseError(path, lineno, f"missing key {key!r}")
    value = obj[key]
    if not isinstance(value, kind):
        raise ParseError(path, lineno, f"key {key!r} must hold {noun}")
    return value


def _json_score(item, path, lineno: int) -> int:
    if isinstance(item, bool) or not isinstance(item, int):
        raise ParseError(path, lineno, f"score {item!r} is not an integer")
    return _check_score(item, path, lineno)


def _parse_score(text: str, path, lineno: int) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise ParseError(path, lineno, f"score {text!r} is not an integer") from exc
    return _check_score(value, path, lineno)


def _check_score(value: int, path, lineno: int) -> int:
    if value not in VALID_SCORES:
        raise ValidationError(
            f"{path}:{lineno}: score {value} outside the allowed scale "
            f"{set(VALID_SCORES)}"
        )
    return value
