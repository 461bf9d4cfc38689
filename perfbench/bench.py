"""The measuring loop behind ``run.py``.

One process, one caller: the stages of a workload run one after another
through ``ruber.cli.main`` in this process, repeated on the same inputs
until ``--seconds`` is used up (at least twice, so reruns can be compared
byte for byte).  BLAS threads stay at the library default.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics; the traced ones wrap ruber's functions from outside
(see layers.py).  The last stdout line is the result object; the line
before it holds the environment, output hashes and stage throughputs.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from ruber import cli
from ruber.corpus import load_annotated, load_pairs

import layers
from checks import CheckFailed, check_stage, sha256_tree
from spans import SpanRecorder
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
# setup_s is the median of at least SETUPS set-ups spanning SETUP_SECONDS,
# so a set-up of a few milliseconds is still timed many times
SETUPS = 5
SETUP_SECONDS = 2.0
MIN_REPETITIONS = 2  # reruns whose outputs must hash the same

# the throughput each stage reports, in the work unit its check returns
THROUGHPUTS = {
    "train-embeddings": "embed_tokens_per_s",
    "train-scorer": "train_pairs_per_s",
    "score": "score_pairs_per_s",
    "report": "report_rows_per_s",
}


@dataclass
class Repetition:
    """One pass over a workload's stages."""

    traced: bool
    wall: dict[str, float] = field(default_factory=dict)   # per stage
    cpu: dict[str, float] = field(default_factory=dict)    # per stage
    work: dict[str, float] = field(default_factory=dict)   # per stage
    hashes: dict[str, str] = field(default_factory=dict)   # per output
    layers: dict[str, float] = field(default_factory=dict)
    failed: int = 0
    problems: list[str] = field(default_factory=list)


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Run one workload of the ruber benchmark.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None when unknown."""
    for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def environment(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_repetition(workload, inputs: Path, out: Path, facts, traced: bool) -> Repetition:
    out.mkdir()
    rep = Repetition(traced)
    recorder = SpanRecorder()
    stages = workload.stages(inputs, out)
    if traced:
        layers.install(recorder)
    try:
        for done, stage in enumerate(stages):
            captured_out, captured_err = io.StringIO(), io.StringIO()
            root = (recorder.span(layers.stage_span(stage.command)) if traced
                    else contextlib.nullcontext())
            status = None
            with contextlib.redirect_stdout(captured_out), \
                    contextlib.redirect_stderr(captured_err):
                started_cpu, started = time.process_time(), time.perf_counter()
                try:
                    with root:
                        status = cli.main(stage.argv)
                except SystemExit as exc:  # argparse refusing the stage's flags
                    status = exc.code
                except Exception:  # a traceback is a stage failure, not a benchmark crash
                    captured_err.write(traceback.format_exc())
                rep.wall[stage.command] = time.perf_counter() - started
                rep.cpu[stage.command] = time.process_time() - started_cpu
            if status != 0:
                rep.problems.append(f"{stage.command} exited with {status}: "
                                    f"{captured_err.getvalue().strip()}")
            else:
                try:
                    rep.work[stage.command] = check_stage(stage, captured_out.getvalue(), *facts)
                    for path in stage.outputs:
                        rep.hashes[str(Path(path).relative_to(out))] = sha256_tree(Path(path))
                except (CheckFailed, OSError, ValueError, KeyError) as exc:
                    rep.problems.append(f"{stage.command} output check: {exc!r}")
            if rep.problems:
                rep.failed = len(stages) - done  # later stages cannot run on bad inputs
                break
    finally:
        recorder.restore()
    if traced and not rep.problems:
        rep.layers = layers.layer_metrics(recorder)
        rep.layers["embeddings.sgns_positions"] = rep.work.get("train-embeddings", 0.0)
        rep.problems += layers.nesting_problems(recorder)
        rep.problems += trace_problems(workload, recorder, rep)
    return rep


def trace_problems(workload, recorder: SpanRecorder, rep: Repetition) -> list[str]:
    """Bypass checks, and that each stage's root span covers its wall time."""
    problems = [f"{name} is {rep.layers[name]} on a workload that bypasses it"
                for name in workload.bypassed if rep.layers[name] != 0]
    problems += [f"{name} is 0 on a workload that exercises it"
                 for name in workload.exercised if rep.layers[name] == 0]
    roots = {s.name: s.duration for s in recorder.spans if s.parent < 0}
    for command, wall in rep.wall.items():
        covered = roots.get(layers.stage_span(command), 0.0)
        if not 0.99 * wall - 1e-3 <= covered <= wall:
            problems.append(f"root span of {command} covers {covered:.4f} s of {wall:.4f} s")
    return problems


def set_up(workload, seed: int) -> tuple[Path, list[float], list[str]]:
    """Generate the inputs repeatedly; return one copy, the times and any problem."""
    times, digests = [], set()
    while len(times) < SETUPS or sum(times) < SETUP_SECONDS:
        inputs = Path(f"inputs{len(times)}")
        inputs.mkdir()
        started = time.perf_counter()
        workload.generate(seed, inputs)
        times.append(time.perf_counter() - started)
        digests.add(sha256_tree(inputs))
        if len(times) > 1:
            shutil.rmtree(inputs)
    problems = [] if len(digests) == 1 else ["one seed generated different inputs"]
    return Path("inputs0"), times, problems


def load_facts(inputs: Path):
    """The generated corpora as ruber reads them, for the output checks."""
    pairs = load_pairs(inputs / "train.tsv") if (inputs / "train.tsv").exists() else None
    annotated = (load_annotated(inputs / "annotated.tsv")
                 if (inputs / "annotated.tsv").exists() else None)
    return pairs, annotated


def summarize(reps: list[Repetition], trace: bool, setup_times: list[float]):
    """Metrics as declared in BENCHMARK.json, plus the stage throughputs.

    Every value is a median over repetitions: untraced ones for times and
    throughputs, traced ones for the per-layer figures.
    """
    plain = [r for r in reps if not r.traced]
    commands = list(plain[0].wall)
    stage_wall = {c: statistics.median(r.wall[c] for r in plain) for c in commands}
    throughputs = {THROUGHPUTS[c]: plain[0].work[c] / stage_wall[c] for c in commands}
    wall = statistics.median(sum(r.wall.values()) for r in plain)
    if not trace:
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": wall,
            "cpu_s": statistics.median(sum(r.cpu.values()) for r in plain),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        traced = [r for r in reps if r.traced]
        values = {name: statistics.median(r.layers[name] for r in traced)
                  for name in traced[0].layers}
        values.update({name: throughputs.get(name, 0.0) for name in THROUGHPUTS.values()})
        traced_wall = statistics.median(sum(r.wall.values()) for r in traced)
        values["trace.overhead_frac"] = (traced_wall - wall) / wall
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in declared}
    return metrics, throughputs


def run(args, workload):
    inputs, setup_times, problems = set_up(workload, args.seed)
    facts = load_facts(inputs)
    reps: list[Repetition] = []
    started = time.perf_counter()
    while True:
        out = Path(f"out{len(reps)}")
        traced = bool(args.trace) and len(reps) % 2 == 1
        reps.append(run_repetition(workload, inputs, out, facts, traced))
        shutil.rmtree(out)
        if reps[-1].problems:
            break
        elapsed = time.perf_counter() - started
        # stop when one more repetition of average length would overrun
        if len(reps) >= MIN_REPETITIONS and elapsed * (len(reps) + 1) / len(reps) > args.seconds:
            break
    for rep in reps:
        problems += rep.problems
        if not rep.problems and rep.hashes != reps[0].hashes:
            problems.append("a rerun on the same inputs wrote different bytes")
            rep.failed += 1
    attempted = len(workload.stages(inputs, Path("out"))) * len(reps)
    failed = sum(r.failed for r in reps)
    info = {
        "environment": environment(args),
        "repetition_wall_s": [round(sum(r.wall.values()), 4) for r in reps],
        "repetition_traced": [r.traced for r in reps],
        "failed_frac": failed / attempted,
        "inputs_sha256": sha256_tree(inputs),
        "outputs_sha256": reps[0].hashes,
        "problems": problems,
    }
    metrics = {}
    if not problems:
        metrics, info["stage_throughput"] = summarize(reps, bool(args.trace), setup_times)
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return info, result


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    # Stages run inside the work directory on relative paths, so the paths
    # that ruber echoes into its outputs, and thus the output hashes, do not
    # depend on where the checkout lives.
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    previous = os.getcwd()
    os.chdir(work)
    try:
        info, result = run(args, WORKLOADS[args.workload])
    finally:
        os.chdir(previous)
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0
