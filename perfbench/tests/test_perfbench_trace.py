"""The span recorder, the wrap points, the declared metrics and one traced pass per workload."""

import importlib
import json
import re
import time
from pathlib import Path

import pytest

import bench
import layers
import workloads
from spans import SpanRecorder

ROOT = Path(__file__).resolve().parents[2]


def declared():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_self_time_subtracts_direct_children():
    rec = SpanRecorder()
    with rec.span("outer"):
        with rec.span("inner"):
            with rec.span("leaf"):
                time.sleep(0.01)
        time.sleep(0.01)
    outer, inner, leaf = rec.spans
    assert (outer.parent, inner.parent, leaf.parent) == (-1, 0, 1)
    own = rec.self_times()
    assert own[0] == pytest.approx(outer.duration - inner.duration)
    assert own[1] == pytest.approx(inner.duration - leaf.duration)
    assert own[2] == leaf.duration
    assert layers.nesting_problems(rec) == []


def test_wrap_records_counts_and_restore_puts_originals_back():
    originals = {(m, a): getattr(importlib.import_module(m), a)
                 for m, a, _, _ in layers.WRAP_POINTS}
    rec = SpanRecorder()
    layers.install(rec)
    try:
        scoretable = importlib.import_module("ruber.scoretable")
        assert scoretable.bleu is not originals[("ruber.scoretable", "bleu")]
        scoretable.bleu(["a", "b"], ["a", "b", "c"], 4)
        scoretable.rouge_l(["a", "b"], ["a", "b", "c"])
    finally:
        rec.restore()
    for (module, attr), original in originals.items():
        assert getattr(importlib.import_module(module), attr) is original
    metrics = layers.layer_metrics(rec)
    assert metrics["baselines.bleu_calls"] == 1
    assert metrics["baselines.bleu_undefined_frac"] == 1.0
    assert metrics["baselines.lcs_cells"] == 6


def test_benchmark_json_declares_what_the_runs_report():
    spec = declared()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    per_layer = {m["name"] for m in spec["per_layer"]}
    reported = set(layers.layer_metrics(SpanRecorder()))
    reported |= set(bench.THROUGHPUTS.values())
    reported |= {"trace.overhead_frac", "embeddings.sgns_positions"}
    assert per_layer == reported
    with open(ROOT / "perfbench" / "layer_map.json", encoding="utf-8") as fh:
        layer_map = json.load(fh)
    assert set(layer_map) == per_layer
    known = set(bounds) | per_layer
    for entry in layer_map.values():
        assert set(entry["moves"]) <= known
        assert set(entry["on"] + entry["unchanged_on"]) <= set(workloads.WORKLOADS)


@pytest.fixture
def small_workloads(monkeypatch):
    """The real workloads at a size that runs in a few seconds."""
    for name, value in [("PIPELINE_PAIRS", 40), ("PIPELINE_TRIPLES", 30),
                        ("EVAL_TRIPLES", 60), ("FINETUNE_PAIRS", 30)]:
        monkeypatch.setattr(workloads, name, value)
    monkeypatch.setattr(bench, "SETUP_SECONDS", 0.0)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_and_plain_repetitions_pass_their_checks(name, small_workloads, tmp_path,
                                                        monkeypatch):
    monkeypatch.chdir(tmp_path)
    workload = workloads.WORKLOADS[name]
    inputs, _, problems = bench.set_up(workload, seed=3)
    assert problems == []
    facts = bench.load_facts(inputs)
    plain = bench.run_repetition(workload, inputs, Path("plain"), facts, traced=False)
    traced = bench.run_repetition(workload, inputs, Path("traced"), facts, traced=True)
    assert plain.problems == [] and traced.problems == []
    assert plain.failed == traced.failed == 0
    assert plain.hashes == traced.hashes  # tracing changes no output byte
    for counter in workload.bypassed:
        assert traced.layers[counter] == 0
    for counter in workload.exercised:
        assert traced.layers[counter] > 0
    assert set(plain.work) == set(plain.wall)


def test_a_failing_stage_counts_it_and_every_later_stage(small_workloads, tmp_path,
                                                         monkeypatch):
    monkeypatch.chdir(tmp_path)
    workload = workloads.WORKLOADS["pipeline"]
    empty = Path("empty")
    empty.mkdir()
    rep = bench.run_repetition(workload, empty, Path("out"), (None, None), traced=False)
    assert rep.failed == len(workload.stages(empty, Path("out")))
    assert "train-embeddings exited with 3" in rep.problems[0]
