"""Corpus loading, tokenization, and vocabulary construction."""

import json

import pytest

from conftest import DEEP_JSON, LONG_JSON_INT, write_lines
from ruber.corpus import (
    AnnotatedPair,
    Dataset,
    QueryReplyPair,
    build_vocab,
    load_annotated,
    load_pairs,
    tokenize,
    utterances_of,
)
from ruber.errors import ParseError, ValidationError
from ruber.vocabulary import UNK_TOKEN, Vocabulary


class TestTokenize:
    def test_whitespace_split(self):
        assert tokenize("why not adopt one ?") == ["why", "not", "adopt", "one", "?"]

    def test_empty_line(self):
        assert tokenize("") == []

    def test_repeated_separators_collapse(self):
        assert tokenize("a  b") == ["a", "b"]
        assert tokenize("\ta \t b\n") == ["a", "b"]


class TestVocabulary:
    def test_unk_is_id_zero(self):
        vocab = Vocabulary(["a", "b"])
        assert vocab.id_of(UNK_TOKEN) == 0
        assert vocab.tokens[0] == UNK_TOKEN
        assert len(vocab) == 3

    def test_lookup_falls_back_to_unk(self):
        vocab = Vocabulary(["a"])
        assert vocab.id_of("a") == 1
        assert vocab.id_of("never-seen") == 0

    def test_rejects_duplicates_and_reserved(self):
        with pytest.raises(ValueError):
            Vocabulary(["a", "a"])
        with pytest.raises(ValueError):
            Vocabulary([UNK_TOKEN])
        with pytest.raises(ValueError):
            Vocabulary(["a b"])
        with pytest.raises(ValueError):
            Vocabulary([""])

    def test_round_trip_and_equality(self):
        vocab = Vocabulary(["x", "y", "z"])
        assert [vocab.tokens[vocab.id_of(t)] for t in ["x", "y", "z"]] == ["x", "y", "z"]
        assert vocab == Vocabulary(["x", "y", "z"])
        assert vocab != Vocabulary(["x", "z", "y"])
        assert (vocab == "x") is False
        assert list(vocab.tokens) == [UNK_TOKEN, "x", "y", "z"]


class TestLoadPairsTsv:
    def test_well_formed(self, tmp_path):
        path = write_lines(tmp_path / "pairs.tsv", [
            "how are you\tfine thanks",
            "what time is it\tno idea",
            "hello\thi there",
        ])
        ds = load_pairs(path)
        assert len(ds) == 3
        assert ds[0] == QueryReplyPair(["how", "are", "you"], ["fine", "thanks"])
        assert ds.skipped == 0

    def test_single_field_row_is_parse_error(self, tmp_path):
        path = write_lines(tmp_path / "bad.tsv", ["query with no reply"])
        with pytest.raises(ParseError) as err:
            load_pairs(path)
        assert err.value.line == 1
        assert str(path) in str(err.value)

    def test_parse_error_names_correct_line(self, tmp_path):
        path = write_lines(tmp_path / "bad.tsv", ["a\tb", "c\td", "oops"])
        with pytest.raises(ParseError) as err:
            load_pairs(path)
        assert err.value.line == 3

    def test_empty_reply_skipped_with_count(self, tmp_path):
        path = write_lines(tmp_path / "skippy.tsv", ["a\tb", "c\t ", " \td"])
        ds = load_pairs(path)
        assert len(ds) == 1
        assert ds.skipped == 2

    def test_all_rows_unusable_is_validation_error(self, tmp_path):
        path = write_lines(tmp_path / "empty.tsv", ["\t", " \t "])
        with pytest.raises(ValidationError):
            load_pairs(path)

    def test_missing_file_is_os_error(self, tmp_path):
        with pytest.raises(OSError):
            load_pairs(str(tmp_path / "nope.tsv"))

    def test_extra_columns_ignored(self, tmp_path):
        path = write_lines(tmp_path / "pairs.tsv", ["a b\tc\t9", "d\te\tnot a score\t"])
        ds = load_pairs(path)
        assert list(ds) == [
            QueryReplyPair(["a", "b"], ["c"]),
            QueryReplyPair(["d"], ["e"]),
        ]

    def test_load_order_is_stable(self, tmp_path):
        rows = [f"q{i}\tr{i}" for i in range(20)]
        path = write_lines(tmp_path / "stable.tsv", rows)
        first = load_pairs(path)
        second = load_pairs(path)
        assert list(first) == list(second)

    def test_one_string_per_distinct_token(self, tmp_path):
        path = write_lines(tmp_path / "pairs.tsv", ["hello there\tthere hello", "hello\tthere"])
        ds = load_pairs(path)
        assert ds[0].query[0] is ds[0].reply[1] is ds[1].query[0]
        assert ds[0].query[1] is ds[0].reply[0] is ds[1].reply[0]


class TestLoadPairsJsonl:
    def test_well_formed(self, tmp_path):
        path = write_lines(tmp_path / "pairs.jsonl", [
            json.dumps({"query": "how are you", "reply": "fine"}),
            json.dumps({"query": "hello", "reply": "hi there"}),
        ])
        ds = load_pairs(path, format="jsonl")
        assert len(ds) == 2
        assert ds[1].reply == ["hi", "there"]

    def test_bad_json_names_line(self, tmp_path):
        path = write_lines(tmp_path / "bad.jsonl", [
            json.dumps({"query": "a", "reply": "b"}),
            "{not json",
        ])
        with pytest.raises(ParseError) as err:
            load_pairs(path, format="jsonl")
        assert err.value.line == 2

    def test_missing_key(self, tmp_path):
        path = write_lines(tmp_path / "bad.jsonl", [json.dumps({"query": "a"})])
        with pytest.raises(ParseError):
            load_pairs(path, format="jsonl")

    def test_non_string_field(self, tmp_path):
        path = write_lines(tmp_path / "bad.jsonl", [
            json.dumps({"query": "a", "reply": 3})
        ])
        with pytest.raises(ParseError):
            load_pairs(path, format="jsonl")

    def test_extra_keys_ignored(self, tmp_path):
        path = write_lines(tmp_path / "pairs.jsonl", [
            json.dumps({"query": "a b", "reply": "c", "scores": [9, "x"], "id": 7}),
        ])
        ds = load_pairs(path, format="jsonl")
        assert list(ds) == [QueryReplyPair(["a", "b"], ["c"])]

    def test_unknown_format_rejected(self, tmp_path):
        path = write_lines(tmp_path / "pairs.tsv", ["a\tb"])
        with pytest.raises(ValueError):
            load_pairs(path, format="csv")


class TestLoadAnnotated:
    def test_three_annotators(self, tmp_path):
        path = write_lines(tmp_path / "ann.tsv", [
            "q one\tgt one\tcand one\t2\t1\t2",
            "q two\tgt two\tcand two\t0\t0\t1",
        ])
        ds = load_annotated(path)
        assert len(ds) == 2
        assert ds[0] == AnnotatedPair(
            ["q", "one"], ["gt", "one"], ["cand", "one"], [2, 1, 2]
        )

    def test_score_out_of_range(self, tmp_path):
        path = write_lines(tmp_path / "ann.tsv", ["q\tg\tc\t3"])
        with pytest.raises(ValidationError) as err:
            load_annotated(path)
        assert "1" in str(err.value)  # names the line

    def test_non_integer_score_is_parse_error(self, tmp_path):
        path = write_lines(tmp_path / "ann.tsv", ["q\tg\tc\ttwo"])
        with pytest.raises(ParseError):
            load_annotated(path)

    def test_annotator_count_must_stay_constant(self, tmp_path):
        path = write_lines(tmp_path / "ann.tsv", [
            "q\tg\tc\t1\t2\t0",
            "q\tg\tc\t1\t2",
        ])
        with pytest.raises(ValidationError) as err:
            load_annotated(path)
        message = str(err.value)
        assert "3" in message and "2" in message

    def test_row_errors_keep_their_order(self, tmp_path):
        """A score off the scale wins over a later unparsable one, and an
        annotator count change wins over the skip of an empty utterance."""
        path = write_lines(tmp_path / "a.tsv", ["q\tg\tc\t5\tx"])
        with pytest.raises(ValidationError, match="outside the allowed scale"):
            load_annotated(path)
        path = write_lines(tmp_path / "b.tsv", ["q\tg\tc\t1", "\tg\tc\t1\t2"])
        with pytest.raises(ValidationError, match="annotator count changed"):
            load_annotated(path)

    def test_too_few_fields(self, tmp_path):
        path = write_lines(tmp_path / "ann.tsv", ["q\tg\tc"])
        with pytest.raises(ParseError):
            load_annotated(path)

    def test_jsonl_form(self, tmp_path):
        path = write_lines(tmp_path / "ann.jsonl", [
            json.dumps({"query": "a", "groundtruth": "b", "candidate": "c",
                        "scores": [2, 0]}),
        ])
        ds = load_annotated(path, format="jsonl")
        assert ds[0].human_scores == [2, 0]

    @pytest.mark.parametrize("first_scores", [[], [1]])
    def test_jsonl_row_without_scores_is_parse_error(self, tmp_path, first_scores):
        """Like a tsv row without a score column, whether or not it comes first."""
        rows = [{"query": "a", "groundtruth": "b", "candidate": "c", "scores": first_scores},
                {"query": "a", "groundtruth": "b", "candidate": "c", "scores": []}]
        path = write_lines(tmp_path / "ann.jsonl", [json.dumps(row) for row in rows])
        line = 2 if first_scores else 1
        with pytest.raises(ParseError, match=f"ann.jsonl:{line}: key 'scores' must hold at least"):
            load_annotated(path, format="jsonl")

    def test_empty_utterance_rows_skipped(self, tmp_path):
        path = write_lines(tmp_path / "ann.tsv", [
            "q\tg\tc\t1",
            "\tg\tc\t2",
        ])
        ds = load_annotated(path)
        assert len(ds) == 1
        assert ds.skipped == 1

    @pytest.mark.parametrize("fmt", ["tsv", "jsonl"])
    def test_one_string_per_distinct_token(self, tmp_path, fmt):
        """Each occurrence of a token, in any row or field, is the same str."""
        rows = [("the cat", "the dog", "cat cat", [1]), ("dog the", "cat", "the xx", [2])]
        if fmt == "tsv":
            lines = ["\t".join([q, g, c, *map(str, s)]) for q, g, c, s in rows]
        else:
            lines = [json.dumps({"query": q, "groundtruth": g, "candidate": c, "scores": s})
                     for q, g, c, s in rows]
        path = write_lines(tmp_path / f"ann.{fmt}", lines)
        ds = load_annotated(path, format=fmt)
        assert ds[1] == AnnotatedPair(["dog", "the"], ["cat"], ["the", "xx"], [2])
        tokens = [tok for pair in ds for utt in utterances_of(pair) for tok in utt]
        first = {}
        for tok in tokens:
            assert first.setdefault(tok, tok) is tok
        assert len(first) == 4
        # the sharing belongs to one load: nothing outlives it
        again = load_annotated(path, format=fmt)
        assert again[0].query[0] == ds[0].query[0] and again[0].query[0] is not ds[0].query[0]


_JSONL_ROWS = {
    load_pairs: {"query": "a b", "reply": "c"},
    load_annotated: {"query": "a", "groundtruth": "b", "candidate": "c", "scores": [1]},
}


class TestJsonlValuesPythonRefuses:
    """Valid JSON that Python cannot decode, or that decodes to a string
    UTF-8 cannot hold, is a parse error naming its line."""

    @pytest.mark.parametrize("loader", list(_JSONL_ROWS))
    @pytest.mark.parametrize("raw, message", [(DEEP_JSON, "nested too deeply"),
                                              (LONG_JSON_INT, "integer too long")],
                             ids=["deep", "long-int"])
    def test_undecodable_value(self, tmp_path, loader, raw, message):
        good = json.dumps(_JSONL_ROWS[loader])
        bad = good[:-1] + f', "extra": {raw}}}'
        path = write_lines(tmp_path / "c.jsonl", [good, bad])
        with pytest.raises(ParseError, match=f"c.jsonl:2: invalid JSON: {message}$"):
            loader(path, format="jsonl")

    @pytest.mark.parametrize("loader, key", [(load_pairs, "query"), (load_pairs, "reply"),
                                             (load_annotated, "query"),
                                             (load_annotated, "groundtruth"),
                                             (load_annotated, "candidate")])
    @pytest.mark.parametrize("surrogate", ["\ud800", "\udfff"], ids=["high", "low"])
    def test_lone_surrogate(self, tmp_path, loader, key, surrogate):
        good = _JSONL_ROWS[loader]
        row = json.dumps({**good, key: surrogate + " x"})
        assert row.isascii()  # json.dumps escapes the surrogate, so the file is valid UTF-8
        path = write_lines(tmp_path / "c.jsonl", [json.dumps(good), row])
        with pytest.raises(ParseError, match=f"c.jsonl:2: key '{key}' holds a lone surrogate"):
            loader(path, format="jsonl")

    @pytest.mark.parametrize("loader", list(_JSONL_ROWS))
    def test_surrogate_pair_is_text(self, tmp_path, loader):
        row = json.dumps({**_JSONL_ROWS[loader], "query": "\U0001f600 a"})
        assert "\\ud83d\\ude00" in row
        ds = loader(write_lines(tmp_path / "c.jsonl", [row]), format="jsonl")
        assert ds[0].query == ["\U0001f600", "a"]


class TestUtterancesOf:
    def test_query_reply_pair_in_declaration_order(self):
        assert utterances_of(QueryReplyPair(["q"], ["r", "s"])) == (["q"], ["r", "s"])

    def test_annotated_pair_in_declaration_order(self):
        pair = AnnotatedPair(["q"], ["g"], ["c", "d"], [2, 0])
        assert utterances_of(pair) == (["q"], ["g"], ["c", "d"])


class TestBuildVocab:
    def test_hand_counted_example(self, tmp_path):
        path = write_lines(tmp_path / "c.tsv", ["a a\tb"])
        ds = load_pairs(path)
        vocab = build_vocab(ds, min_count=1)
        assert vocab.id_of(UNK_TOKEN) == 0
        assert vocab.id_of("a") == 1
        assert vocab.id_of("b") == 2
        assert len(vocab) == 3

    def test_min_count_filters(self, tmp_path):
        path = write_lines(tmp_path / "c.tsv", ["a a\tb"])
        vocab = build_vocab(load_pairs(path), min_count=2)
        assert len(vocab) == 2
        assert vocab.id_of("a") == 1
        assert vocab.id_of("b") == 0  # filtered, falls back to UNK

    def test_min_count_zero_rejected(self, tmp_path):
        path = write_lines(tmp_path / "c.tsv", ["a\tb"])
        ds = load_pairs(path)
        with pytest.raises(ValueError):
            build_vocab(ds, min_count=0)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty dataset"):
            build_vocab(Dataset([], "empty"), min_count=1)

    def test_ties_break_alphabetically(self, tmp_path):
        path = write_lines(tmp_path / "c.tsv", ["b a\tc c"])
        vocab = build_vocab(load_pairs(path), min_count=1)
        # c appears twice; a and b tie at one and sort alphabetically
        assert [vocab.tokens[i] for i in range(4)] == [UNK_TOKEN, "c", "a", "b"]
