"""Where the traced run wraps ruber, and the per-layer metrics it derives.

Each wrap point is a module attribute that a caller inside ruber looks
up, so the span measures that caller's calls into the layer.  Hooks count
work from a call's arguments and result after its span has closed.
"""

from __future__ import annotations

import importlib
import math
import os
import statistics
from collections import Counter, defaultdict

from spans import SpanRecorder


def _skipped(counters, dataset, path, format="tsv"):
    counters["corpus.skipped"] += dataset.skipped


def _saved_bytes(counters, result, params, config, vocab_hash, path):
    counters["checkpoint.bytes"] += os.path.getsize(path)


def _loaded_bytes(counters, result, path, expected_vocab_hash=None, allow_vocab_mismatch=False):
    counters["checkpoint.bytes"] += os.path.getsize(path)


def _encoded(counters, result, query, reply, params, vocab, matrix, max_len=50):
    counters["scorer.tokens_encoded"] += min(len(query), max_len) + min(len(reply), max_len)
    counters["scorer.truncated_utterances"] += (len(query) > max_len) + (len(reply) > max_len)


def _hinge(counters, loss, s_pos, s_neg, margin):
    counters["gradients.hinge_active"] += loss > 0.0


def _bleu(counters, score, candidate, reference, n=4):
    counters["baselines.bleu_undefined"] += math.isnan(score)


def _lcs_cells(counters, score, candidate, reference):
    counters["baselines.lcs_cells"] += len(candidate) * len(reference)


# (module, attribute, span name, hook)
WRAP_POINTS = (
    ("ruber.cli", "train_sgns", "embeddings.train_sgns", None),
    ("ruber.cli", "load_text_embeddings", "embeddings.load_text", None),
    ("ruber.cli", "save_text_embeddings", "embeddings.save_text", None),
    ("ruber.cli", "load_pairs", "corpus.load_pairs", _skipped),
    ("ruber.cli", "load_annotated", "corpus.load_annotated", _skipped),
    ("ruber.cli", "train", "training.train", None),
    ("ruber.cli", "save_checkpoint", "checkpoint.save", _saved_bytes),
    ("ruber.cli", "load_checkpoint", "checkpoint.load", _loaded_bytes),
    ("ruber.unreferenced.training", "compute_gradients", "gradients.compute_gradients", None),
    ("ruber.unreferenced.training", "adam_step", "training.adam_step", None),
    ("ruber.unreferenced.training", "sample_negative", "training.sample_negative", None),
    ("ruber.unreferenced.training", "unreferenced_score", "training.holdout_score", _encoded),
    ("ruber.unreferenced.gradients", "score_with_cache", "scorer.score_with_cache", _encoded),
    ("ruber.unreferenced.gradients", "margin_loss", "gradients.margin_loss", _hinge),
    ("ruber.scoretable", "compute_score_table", "scoretable.compute", None),
    ("ruber.scoretable", "write_score_table", "scoretable.write", None),
    ("ruber.scoretable", "read_score_table", "scoretable.read", None),
    ("ruber.scoretable", "unreferenced_score", "scorer.unreferenced_score", _encoded),
    ("ruber.scoretable", "referenced_score", "referenced.referenced_score", None),
    ("ruber.scoretable", "bleu", "baselines.bleu", _bleu),
    ("ruber.scoretable", "rouge_l", "baselines.rouge_l", _lcs_cells),
    ("ruber.scoretable", "normalize", "blending.normalize", None),
    ("ruber.scoretable", "blend_series", "blending.blend_series", None),
    ("ruber.report", "build_report", "report.build_report", None),
    ("ruber.report", "correlate", "analysis.correlate", None),
    ("ruber.report", "inter_annotator", "analysis.inter_annotator", None),
    ("ruber.analysis", "quantile_bins", "analysis.quantile_bins", None),
    ("ruber.analysis", "write_scatter_csv", "analysis.write_scatter_csv", None),
)

STAGES = ("train-embeddings", "train-scorer", "score", "report")


def install(recorder: SpanRecorder) -> None:
    for module, attr, name, hook in WRAP_POINTS:
        recorder.wrap(importlib.import_module(module), attr, name, hook)


def stage_span(command: str) -> str:
    """Name of the root span the benchmark opens around one CLI stage."""
    return f"cli.{command}"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(recorder: SpanRecorder) -> dict[str, float]:
    """Per-layer metrics of one traced iteration.

    Times are summed over every call; a ratio whose base is zero (the
    layer never ran) reads 0.
    """
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    batches = []
    for span, self_time in zip(recorder.spans, recorder.self_times()):
        total[span.name] += span.duration
        own[span.name] += self_time
        calls[span.name] += 1
        if span.name == "gradients.compute_gradients":
            batches.append(span.duration)
    c = recorder.counters
    unref = ("scorer.unreferenced_score", "training.holdout_score")
    metrics = {
        "embeddings.train_sgns_s": total["embeddings.train_sgns"],
        "embeddings.train_sgns_calls": calls["embeddings.train_sgns"],
        "embeddings.load_text_s": total["embeddings.load_text"],
        "embeddings.save_text_s": total["embeddings.save_text"],
        "gradients.compute_gradients_s": total["gradients.compute_gradients"],
        "gradients.compute_gradients_calls": calls["gradients.compute_gradients"],
        "gradients.backward_self_s": own["gradients.compute_gradients"],
        "gradients.batch_p50_ms": 1e3 * statistics.median(batches) if batches else 0.0,
        "gradients.margin_loss_calls": calls["gradients.margin_loss"],
        "gradients.hinge_active_frac": _ratio(
            c["gradients.hinge_active"], calls["gradients.margin_loss"]),
        "scorer.score_with_cache_calls": calls["scorer.score_with_cache"],
        "scorer.score_with_cache_s": total["scorer.score_with_cache"],
        "scorer.unreferenced_score_calls": sum(calls[n] for n in unref),
        "scorer.unreferenced_score_s": sum(total[n] for n in unref),
        "scorer.tokens_encoded": c["scorer.tokens_encoded"],
        "scorer.truncated_utterances": c["scorer.truncated_utterances"],
        "training.train_s": total["training.train"],
        "training.adam_step_calls": calls["training.adam_step"],
        "training.adam_step_s": total["training.adam_step"],
        "training.sample_negative_s": total["training.sample_negative"],
        "training.holdout_score_s": total["training.holdout_score"],
        "referenced.referenced_score_s": total["referenced.referenced_score"],
        "baselines.bleu_calls": calls["baselines.bleu"],
        "baselines.bleu_s": total["baselines.bleu"],
        "baselines.bleu_undefined_frac": _ratio(
            c["baselines.bleu_undefined"], calls["baselines.bleu"]),
        "baselines.rouge_l_s": total["baselines.rouge_l"],
        "baselines.lcs_cells": c["baselines.lcs_cells"],
        "blending.normalize_s": total["blending.normalize"],
        "blending.blend_series_s": total["blending.blend_series"],
        "scoretable.compute_self_s": own["scoretable.compute"],
        "scoretable.write_s": total["scoretable.write"],
        "scoretable.read_s": total["scoretable.read"],
        "analysis.correlate_s": total["analysis.correlate"],
        "analysis.inter_annotator_s": total["analysis.inter_annotator"],
        "analysis.quantile_bins_s": total["analysis.quantile_bins"],
        "analysis.write_scatter_csv_s": total["analysis.write_scatter_csv"],
        "report.build_report_s": total["report.build_report"],
        "checkpoint.save_s": total["checkpoint.save"],
        "checkpoint.load_s": total["checkpoint.load"],
        "checkpoint.bytes": c["checkpoint.bytes"],
        "corpus.load_pairs_s": total["corpus.load_pairs"],
        "corpus.load_annotated_s": total["corpus.load_annotated"],
        "corpus.skipped": c["corpus.skipped"],
    }
    for command in STAGES:
        key = command.replace("-", "_")
        metrics[f"cli.{key}_self_s"] = own[stage_span(command)]
    return metrics


def nesting_problems(recorder: SpanRecorder) -> list[str]:
    """Spans that stick out of their parent's interval."""
    spans = recorder.spans
    return [
        f"span {s.name} lies outside its parent {spans[s.parent].name}"
        for s in spans
        if s.parent >= 0 and not (spans[s.parent].start <= s.start <= s.end <= spans[s.parent].end)
    ]
