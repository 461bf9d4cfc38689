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
failures, 5 on checkpoint/vocabulary compatibility refusals (each the
``exit_code`` of the error class raised), and 141 when stdout is closed
before the run has finished writing to it, or was closed when it started.
"""

from __future__ import annotations

import errno
import inspect
import os
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path

from . import analysis, report as report_mod, scoretable
from .blending import BlendStrategy
from .corpus import FORMATS, load_annotated, load_pairs
from .embeddings import (
    check_sgns_options,
    load_text_embeddings,
    save_text_embeddings,
    train_sgns,
)
from .errors import CompatibilityError, ConfigError, RuberError
from .fileio import atomic_write, check_name, check_target
from .unreferenced import (
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
    train,
    vocab_content_hash,
)

EXIT_PIPE = 141  # 128 + SIGPIPE, what a shell reports for `yes | head -1`

_BLEND_CHOICES = ("all",) + tuple(s.value for s in BlendStrategy)


@dataclass(frozen=True)
class _Opt:
    name: str                 # option name, underscores
    type: type = str
    default: object = None
    required: bool = False
    choices: tuple = ()
    help: str = ""


def _keyword_defaults(fn) -> dict:
    """``fn``'s keyword defaults: the library writes each default once."""
    params = inspect.signature(fn).parameters.values()
    return {p.name: p.default for p in params if p.default is not p.empty}


_SGNS = _keyword_defaults(train_sgns)
_BINS = _keyword_defaults(analysis.quantile_bins)
_SCATTER = _keyword_defaults(analysis.scatter_points)

_CONFIG = _Opt("config", help="key=value option file")
_FORMAT = _Opt("format", str, _keyword_defaults(load_pairs)["format"], choices=FORMATS,
               help="corpus layout")

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
        _Opt("fine_tune_embeddings", bool, TrainConfig.fine_tune_embeddings,
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
        _Opt("allow_vocab_mismatch", bool, False,
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
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        if {"-h", "--help"} & set(argv):  # never a flag's value, so help wins wherever it is
            print("\n\n".join(map(_help, argv[:1] if argv[0] in _COMMANDS else _COMMANDS)))
        else:
            command, texts = _split_argv(argv)
            _HANDLERS[command](_resolve_options(command, texts))
        if sys.stdout is None:  # fd 1 was closed at start, so print wrote nothing
            return EXIT_PIPE
        sys.stdout.flush()  # so that a closed stdout raises here, not at interpreter exit
    except BrokenPipeError:  # only stdout: every output file is a regular temporary first
        _to_devnull(sys.stdout)
        return EXIT_PIPE
    except (RuberError, OSError, UnicodeError) as exc:
        try:
            if sys.stderr is not None:  # fd 2 closed at start; print(file=None) means stdout
                print(f"error: {exc}", file=sys.stderr, flush=True)
        except OSError:  # stderr is closed too: the line is lost, the status is not
            _to_devnull(sys.stderr)
        return getattr(exc, "exit_code", RuberError.exit_code)
    return 0


def _to_devnull(stream) -> None:
    """Point ``stream``'s descriptor at the null device, so its flush at exit cannot raise."""
    fd, devnull = stream.fileno(), os.open(os.devnull, os.O_WRONLY)
    if devnull != fd:  # a closed ``fd`` is the lowest free one, so open may reuse it
        os.dup2(devnull, fd)
        os.close(devnull)


def entrypoint() -> None:
    sys.exit(main())


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _split_argv(argv: list[str]) -> tuple[str, dict[str, str]]:
    """``argv`` as its command and each flag's text by option name. A flag is written in
    full; without ``=text`` a switch reads ``true``; another takes the next token, not a flag."""
    if not argv:
        raise ConfigError("the following arguments are required: command")
    command = argv[0]
    if command not in _COMMANDS:
        raise ConfigError(f"argument command: invalid choice: {command!r} "
                          f"(choose from {', '.join(map(repr, _COMMANDS))})")
    opts = {_flag(opt.name): opt for opt in (_CONFIG, *_COMMANDS[command])}
    texts = {}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, text = token.partition("=")
        if flag not in opts:
            raise ConfigError(f"unrecognized arguments: {token}")
        if not eq:
            text = "true" if opts[flag].type is bool else next(tokens, None)
            if text is None or text.partition("=")[0] in opts:
                raise ConfigError(f"argument {flag}: expected one argument")
        texts[opts[flag].name] = text
    return command, texts


def _help(command: str) -> str:
    """``command``'s flags with their choices and help."""
    lines = [f"usage: ruber {command} [--flag value ...]"]
    for opt in (_CONFIG, *_COMMANDS[command]):
        value = "{" + ",".join(opt.choices) + "}" if opt.choices else opt.type.__name__.upper()
        head = _flag(opt.name) + ("" if opt.type is bool else " " + value)
        lines.append(f"  {head:<24} {opt.help}{' (required)' * opt.required}")
    return "\n".join(lines)


def _resolve_options(command: str, texts: dict[str, str]) -> dict:
    """Merge built-in defaults, the config file, and explicit flags."""
    opts = {opt.name: opt for opt in _COMMANDS[command]}
    values = {name: opt.default for name, opt in opts.items()}

    if (config := texts.get("config")) is not None:
        for key, raw in _read_config_file(config).items():
            name = key.replace("-", "_")
            if name not in opts:
                raise ConfigError(f"{config}: unknown option {key!r}")
            values[name] = _convert(opts[name], raw, config)

    for name, opt in opts.items():
        if name in texts:
            values[name] = _convert(opt, texts[name], _flag(name))

    missing = [name for name, opt in opts.items() if opt.required and values[name] is None]
    if missing:
        raise ConfigError(f"missing required option(s): {', '.join(map(_flag, missing))}")

    return values


def _echo_config(command: str, values: dict) -> None:
    """Print the resolved configuration on one ``config:`` line."""
    echo = " ".join(f"{k}={values[k]}" for k in sorted(values))
    print(f"config: {command} {echo}")


def _read_config_file(path) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if "\x00" in raw:  # a path holding one fails only at open(), perhaps after training
                raise ConfigError(f"{path}:{lineno}: line holds a NUL character")
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def _convert(opt: _Opt, raw: str, source) -> object:
    if opt.type is bool:
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


def _cmd_train_embeddings(o: dict) -> None:
    _echo_config("train-embeddings", o)
    started = time.perf_counter()
    options = {name: o[name] for name in _SGNS}
    check_sgns_options(**options)
    check_target(o["out"])
    dataset = load_pairs(o["corpus"], o["format"])
    vocab, matrix = train_sgns(dataset, **options)
    save_text_embeddings(vocab, matrix, o["out"])
    duration = time.perf_counter() - started
    print(f"vocab={len(vocab)} dim={o['dim']} duration={duration:.2f}s")


def _cmd_train_scorer(o: dict) -> None:
    _echo_config("train-scorer", o)
    config = TrainConfig(**{f.name: o[f.name] for f in fields(TrainConfig) if f.name in o})
    config.validate()
    tuned_path = o["out"] + ".embeddings.txt" if config.fine_tune_embeddings else None
    check_target(o["out"])
    if tuned_path:
        check_target(tuned_path)
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
    if tuned_path:
        save_text_embeddings(vocab, matrix, tuned_path)
        print(f"fine-tuned embeddings written to {tuned_path}")
    print(f"checkpoint written to {o['out']} "
          f"(train={log.train_size} holdout={log.holdout_size})")


def _cmd_score(o: dict) -> None:
    if o["max_len"] is not None and o["max_len"] < 1:
        raise ConfigError(f"max_len must be >= 1, got {o['max_len']}")
    check_target(o["out"])
    dataset = load_annotated(o["data"], o["format"])
    vocab, matrix = load_text_embeddings(o["embeddings"])
    expected = None if o["allow_vocab_mismatch"] else vocab_content_hash(vocab)
    ckpt = load_checkpoint(o["checkpoint"], expected_vocab_hash=expected)
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


def _cmd_report(o: dict) -> None:
    _echo_config("report", o)
    analysis.check_bins(o["bins"])
    analysis.check_scatter(o["jitter_sigma"], o["seed"])
    table = scoretable.read_score_table(o["scores"])
    human = table.human_mean
    metrics = {n: v for n, v in table.metrics.items() if n not in report_mod.SKIPPED_COLUMNS}
    scatter_dir, scatter_paths = _check_report_outputs(o, metrics)
    rep = report_mod.build_report(table)
    text = report_mod.format_report_text(rep)
    with atomic_write(o["out"]) as fh:
        fh.write(report_mod.report_to_json(rep))
    if o["text_out"]:
        with atomic_write(o["text_out"]) as fh:
            fh.write(text)
    print(text, end="")

    if o["quantile_csv"]:
        analysis.write_quantile_csv(o["quantile_csv"], human, metrics, o["bins"])
        print(f"quantile bins written to {o['quantile_csv']}")
    if scatter_dir:
        scatter_dir.mkdir(parents=True, exist_ok=True)
        for name, path in scatter_paths.items():
            analysis.write_scatter_csv(
                path, human, metrics[name], sigma=o["jitter_sigma"], seed=o["seed"],
            )
        print(f"scatter CSVs written to {scatter_dir}")


def _check_report_outputs(o: dict, metric_names) -> tuple[Path | None, dict[str, Path]]:
    """Refuse every output that cannot be written before the first is, so that a refused
    report leaves no file behind; return the scatter directory and each metric's file."""
    for key in ("out", "text_out", "quantile_csv"):
        if o[key]:
            check_target(o[key])
    if not o["scatter_dir"]:
        return None, {}
    outdir = Path(o["scatter_dir"])
    nearest = next(p for p in (outdir, *outdir.parents) if p.exists())
    if not nearest.is_dir():  # mkdir(parents=True) would fail on it
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), o["scatter_dir"])
    # a directory yet to be made holds no file: only the name can fail
    check = check_target if nearest == outdir else check_name
    paths = {name: outdir / f"scatter_{name}.csv" for name in metric_names}
    for target in paths.values():
        check(target)
    return outdir, paths


_HANDLERS = {
    "train-embeddings": _cmd_train_embeddings,
    "train-scorer": _cmd_train_scorer,
    "score": _cmd_score,
    "report": _cmd_report,
}
