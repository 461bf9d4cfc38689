"""Command-line interface.

Four subcommands cover the full workflow:

* ``train-embeddings``: skip-gram word vectors from a query-reply corpus
* ``train-scorer``: train the relatedness scorer, write a checkpoint
* ``score``: score an annotated corpus with every metric, write a table
* ``report``: correlation report (text + JSON) plus optional figure CSVs

Every option can also come from a ``key=value`` config file passed with
``--config``; explicit flags override file values.  All commands are
deterministic given their flags and seed, and exit with 0 on success,
2 on configuration errors, 3 on I/O or data errors, 4 on numerical
failures, and 5 on checkpoint/vocabulary compatibility refusals.
"""

from __future__ import annotations

import argparse
import inspect
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import analysis, report as report_mod, scoretable
from .blending import BlendStrategy
from .corpus import FORMATS, load_annotated, load_pairs
from .embeddings import load_text_embeddings, save_text_embeddings, train_sgns
from .errors import (
    CheckpointFormatError,
    CompatibilityError,
    ConfigError,
    NumericalError,
    ParseError,
    RuberError,
    ValidationError,
)
from .fileio import atomic_write
from .unreferenced import (
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
    train,
    vocab_content_hash,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4
EXIT_COMPAT = 5

_BLEND_CHOICES = ("all",) + tuple(s.value for s in BlendStrategy)


@dataclass(frozen=True)
class _Opt:
    name: str                 # dest name, underscores
    type: type = str
    default: object = None
    required: bool = False
    flag: bool = False        # boolean switch
    choices: tuple = ()
    help: str = ""


def _keyword_defaults(fn) -> dict:
    """``fn``'s keyword defaults: the library writes each default once."""
    params = inspect.signature(fn).parameters.values()
    return {p.name: p.default for p in params if p.default is not p.empty}


_SGNS = _keyword_defaults(train_sgns)
_BINS = _keyword_defaults(analysis.quantile_bins)
_SCATTER = _keyword_defaults(analysis.scatter_points)

_FORMAT = _Opt("format", str, default="tsv", choices=FORMATS, help="corpus layout")

_COMMON_CORPUS = (
    _Opt("corpus", str, required=True, help="input corpus path"),
    _FORMAT,
)

_COMMANDS: dict[str, tuple[_Opt, ...]] = {
    "train-embeddings": _COMMON_CORPUS + (
        _Opt("out", str, required=True, help="embedding text file to write"),
        _Opt("dim", int, _SGNS["dim"], help="embedding dimensionality"),
        _Opt("window", int, _SGNS["window"], help="maximum context radius"),
        _Opt("negatives", int, _SGNS["negatives"], help="noise words per positive"),
        _Opt("epochs", int, _SGNS["epochs"], help="passes over the corpus"),
        _Opt("lr", float, _SGNS["lr"], help="starting learning rate"),
        _Opt("min_count", int, _SGNS["min_count"], help="discard tokens seen fewer times"),
        _Opt("seed", int, _SGNS["seed"], help="rng seed"),
    ),
    "train-scorer": _COMMON_CORPUS + (
        _Opt("embeddings", str, required=True, help="embedding text file"),
        _Opt("out", str, required=True, help="checkpoint path to write"),
        _Opt("hidden", int, TrainConfig.hidden, help="GRU state size per direction"),
        _Opt("mlp_hidden", int, TrainConfig.mlp_hidden, help="MLP hidden width"),
        _Opt("margin", float, TrainConfig.margin, help="ranking margin"),
        _Opt("lr", float, TrainConfig.lr, help="Adam learning rate"),
        _Opt("epochs", int, TrainConfig.epochs, help="training epochs"),
        _Opt("batch_size", int, TrainConfig.batch_size, help="samples per update"),
        _Opt("max_len", int, TrainConfig.max_len, help="utterance truncation length"),
        _Opt("seed", int, TrainConfig.seed, help="rng seed"),
        _Opt("fine_tune_embeddings", flag=True,
             help="also train word vectors (writes <out>.embeddings.txt)"),
    ),
    "score": (
        _Opt("data", str, required=True, help="annotated corpus path"),
        _FORMAT,
        _Opt("embeddings", str, required=True, help="embedding text file"),
        _Opt("checkpoint", str, required=True, help="trained scorer checkpoint"),
        _Opt("out", str, required=True, help="score table to write"),
        _Opt("max_len", int, help="utterance truncation length "
             "(default: the checkpoint's training max_len)"),
        _Opt("blend", str, "all", choices=_BLEND_CHOICES,
             help="emit all four blends or just one"),
        _Opt("allow_vocab_mismatch", flag=True,
             help="load the checkpoint even if the vocabulary hash differs"),
    ),
    "report": (
        _Opt("scores", str, required=True, help="score table from the score command"),
        _Opt("out", str, required=True, help="JSON report to write"),
        _Opt("text_out", str, help="also write the text table here"),
        _Opt("quantile_csv", str, help="write per-bin mean metric CSV here"),
        _Opt("scatter_dir", str, help="write per-metric scatter CSVs here"),
        _Opt("bins", int, _BINS["k"], help="quantile group count"),
        _Opt("jitter_sigma", float, _SCATTER["sigma"], help="scatter jitter std dev"),
        _Opt("seed", int, _SCATTER["seed"], help="rng seed for scatter jitter"),
    ),
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        options = _resolve_options(args)
        handler = _HANDLERS[args.command]
        return handler(options)
    except ConfigError as exc:
        return _fail(exc, EXIT_CONFIG)
    except (ParseError, ValidationError, CheckpointFormatError, OSError,
            UnicodeDecodeError) as exc:
        return _fail(exc, EXIT_IO)
    except NumericalError as exc:
        return _fail(exc, EXIT_NUMERICAL)
    except CompatibilityError as exc:
        return _fail(exc, EXIT_COMPAT)


def entrypoint() -> None:
    sys.exit(main())


def _fail(exc: Exception, code: int) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return code


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ruber",
        description="Referenced + unreferenced blended evaluation for dialog replies",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command, opts in _COMMANDS.items():
        sub = subparsers.add_parser(command)
        sub.add_argument("--config", default=None, help="key=value option file")
        for opt in opts:
            flag_name = "--" + opt.name.replace("_", "-")
            if opt.flag:
                sub.add_argument(flag_name, dest=opt.name, action="store_true",
                                 default=argparse.SUPPRESS, help=opt.help)
            else:
                kwargs = dict(dest=opt.name, type=opt.type,
                              default=argparse.SUPPRESS, help=opt.help)
                if opt.choices:
                    kwargs["choices"] = opt.choices
                sub.add_argument(flag_name, **kwargs)
    return parser


def _resolve_options(args: argparse.Namespace) -> dict:
    """Merge built-in defaults, the config file, and explicit flags."""
    opts = {opt.name: opt for opt in _COMMANDS[args.command]}
    values = {name: (False if opt.flag else opt.default) for name, opt in opts.items()}

    if args.config is not None:
        for key, raw in _read_config_file(args.config).items():
            name = key.replace("-", "_")
            if name not in opts:
                raise ConfigError(f"{args.config}: unknown option {key!r}")
            values[name] = _convert(opts[name], raw, args.config)

    for name in opts:
        if hasattr(args, name):
            values[name] = getattr(args, name)

    missing = [name for name, opt in opts.items() if opt.required and values[name] is None]
    if missing:
        flags = ", ".join("--" + name.replace("_", "-") for name in missing)
        raise ConfigError(f"missing required option(s): {flags}")

    return values


def _echo_config(command: str, values: dict) -> None:
    """Print the resolved configuration on one ``config:`` line."""
    echo = " ".join(f"{k}={values[k]}" for k in sorted(values))
    print(f"config: {command} {echo}")


def _read_config_file(path) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def _convert(opt: _Opt, raw: str, source) -> object:
    if opt.flag:
        lowered = raw.lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"{source}: option {opt.name!r} expects a boolean, got {raw!r}")
    try:
        value = opt.type(raw)
    except ValueError as exc:
        raise ConfigError(
            f"{source}: option {opt.name!r} expects {opt.type.__name__}, got {raw!r}"
        ) from exc
    if opt.choices and value not in opt.choices:
        raise ConfigError(
            f"{source}: option {opt.name!r} must be one of {opt.choices}, got {value!r}"
        )
    return value


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_train_embeddings(o: dict) -> int:
    _echo_config("train-embeddings", o)
    started = time.perf_counter()
    dataset = load_pairs(o["corpus"], o["format"])
    vocab, matrix = train_sgns(dataset, **{name: o[name] for name in _SGNS})
    save_text_embeddings(vocab, matrix, o["out"])
    duration = time.perf_counter() - started
    print(f"vocab={len(vocab)} dim={o['dim']} duration={duration:.2f}s")
    return EXIT_OK


def _cmd_train_scorer(o: dict) -> int:
    _echo_config("train-scorer", o)
    config = TrainConfig(**{f.name: o[f.name] for f in fields(TrainConfig) if f.name in o})
    config.validate()
    dataset = load_pairs(o["corpus"], o["format"])
    vocab, matrix = load_text_embeddings(o["embeddings"])
    params, log = train(dataset, vocab, matrix, config)
    for stats in log.epochs:
        print(
            f"epoch {stats.epoch}/{config.epochs} "
            f"mean_loss={stats.mean_loss:.6f} "
            f"holdout_acc={stats.holdout_accuracy:.4f}"
        )
    save_checkpoint(params, config, vocab_content_hash(vocab), o["out"])
    if config.fine_tune_embeddings:
        tuned_path = o["out"] + ".embeddings.txt"
        save_text_embeddings(vocab, matrix, tuned_path)
        print(f"fine-tuned embeddings written to {tuned_path}")
    print(f"checkpoint written to {o['out']} "
          f"(train={log.train_size} holdout={log.holdout_size})")
    return EXIT_OK


def _cmd_score(o: dict) -> int:
    if o["max_len"] is not None and o["max_len"] < 1:
        raise ConfigError(f"max_len must be >= 1, got {o['max_len']}")
    dataset = load_annotated(o["data"], o["format"])
    vocab, matrix = load_text_embeddings(o["embeddings"])
    ckpt = load_checkpoint(
        o["checkpoint"],
        expected_vocab_hash=vocab_content_hash(vocab),
        allow_vocab_mismatch=o["allow_vocab_mismatch"],
    )
    if o["max_len"] is None:
        o["max_len"] = ckpt.config.max_len
    _echo_config("score", o)
    if ckpt.embed_dim != matrix.shape[1]:
        raise CompatibilityError(
            f"checkpoint expects {ckpt.embed_dim}-dim embeddings, "
            f"file provides {matrix.shape[1]}-dim"
        )
    blends = tuple(BlendStrategy) if o["blend"] == "all" else (BlendStrategy(o["blend"]),)
    table = scoretable.compute_score_table(
        dataset, vocab, matrix, ckpt.params, max_len=o["max_len"], blends=blends,
    )
    scoretable.write_score_table(table, o["out"])
    print(f"scored {table.n_pairs} pairs "
          f"({dataset.skipped} skipped) into {o['out']}")
    return EXIT_OK


def _cmd_report(o: dict) -> int:
    _echo_config("report", o)
    if o["bins"] < 1:
        raise ConfigError(f"bins must be >= 1, got {o['bins']}")
    if o["jitter_sigma"] < 0:
        raise ConfigError(f"jitter_sigma must be >= 0, got {o['jitter_sigma']}")
    if o["seed"] < 0:
        raise ConfigError(f"seed must be >= 0, got {o['seed']}")
    table = scoretable.read_score_table(o["scores"])
    rep = report_mod.build_report(table)
    text = report_mod.format_report_text(rep)
    with atomic_write(o["out"]) as fh:
        fh.write(report_mod.report_to_json(rep))
    if o["text_out"]:
        with atomic_write(o["text_out"]) as fh:
            fh.write(text)
    print(text, end="")

    human = table.human_mean
    metric_names = [n for n in table.metrics if n not in report_mod.SKIPPED_COLUMNS]
    if o["quantile_csv"]:
        _write_quantile_csv(o["quantile_csv"], table, metric_names, human, o["bins"])
        print(f"quantile bins written to {o['quantile_csv']}")
    if o["scatter_dir"]:
        outdir = Path(o["scatter_dir"])
        outdir.mkdir(parents=True, exist_ok=True)
        for name in metric_names:
            analysis.write_scatter_csv(
                outdir / f"scatter_{name}.csv", human, table.metrics[name],
                sigma=o["jitter_sigma"], seed=o["seed"],
            )
        print(f"scatter CSVs written to {outdir}")
    return EXIT_OK


def _write_quantile_csv(path, table, metric_names, human, bins: int) -> None:
    """One row per (metric, bin): mean human score and mean metric value.

    Rows where the metric is undefined are dropped before binning; a
    metric with fewer usable rows than bins is skipped entirely.
    """
    with atomic_write(path) as fh:
        fh.write("metric,bin,mean_human,mean_metric\n")
        for name in metric_names:
            values = table.metrics[name]
            mask = np.isfinite(values) & np.isfinite(human)
            if int(mask.sum()) < bins:
                continue
            h = human[mask]
            v = values[mask]
            mean_h = analysis.quantile_bins(h, h, bins)
            mean_v = analysis.quantile_bins(h, v, bins)
            for b in range(bins):
                fh.write(f"{name},{b},{mean_h[b]:.6f},{mean_v[b]:.6f}\n")


_HANDLERS = {
    "train-embeddings": _cmd_train_embeddings,
    "train-scorer": _cmd_train_scorer,
    "score": _cmd_score,
    "report": _cmd_report,
}
