"""Command-line entry point: generate, train, search, eval.

Every command takes --seed, --out, and optionally --config. Each option is
one Option in a table whose key is both its config-file key and its
argparse dest; the entry gives its flag, parser, default, help and choices.
Config files are flat ``key = value`` text, parsed and checked as the flags
are; flags win over file values, file values over defaults. --seed, --out,
--config, --data, --mode, --jobs and --checkpoint are flags only. Each
command finishes by writing manifest.json with the effective configuration,
paths, the dataset's sha256, tool version, and wall-clock duration, so a run
can be reproduced from its manifest alone. Every output file but history.tsv
is written through `adbcr.data.write_atomically`, so it appears whole or not
at all.
`main` keeps freed heap in the process and runs OpenBLAS on one thread
unless the environment names a thread count.

Exit codes: 0 all artifacts written, 1 runtime failure (divergence,
search with no usable run or with a worker process that died, I/O),
2 usage or configuration error. A failed command leaves no --out directory
that it made and wrote nothing into.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import sys
import time
from typing import Callable, NamedTuple

from . import __version__
from . import baselines, blas, data, evaluation, objectives, trainer
from .data import DEFAULT_FRACTIONS
from .errors import AdbcrError, ConfigError, SearchError, TrainingError
from .evaluation import MetricsReport
from .model import canonical_fingerprint, header_field, load_checkpoint, valid_int, valid_list, valid_real
from .seeding import check_seed


# ---------------------------------------------------------------------------
# value parsers (argparse type= callables; raise ValueError on bad input)

def parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(f"expected true/false, got {text!r}")


def _list_items(text: str) -> list[str]:
    """The comma-separated items of text; no item may be empty, a trailing one included."""
    parts = [p.strip() for p in text.split(",")]
    if not all(parts):
        raise ValueError(f"list {text!r} has an empty item")
    return parts


def parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in _list_items(text))


def parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(float(p) for p in _list_items(text))


def parse_fractions(text: str) -> tuple[float, float, float]:
    values = parse_float_list(text)
    if len(values) != 3:
        raise ValueError(f"expected three fractions, got {len(values)}")
    return values


def parse_lr_range(text: str) -> tuple[float, float]:
    values = parse_float_list(text)
    if len(values) != 2:
        raise ValueError(f"expected low,high learning-rate range, got {len(values)} values")
    return values


def parse_architectures(text: str) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """'50x50:50x50,20x20:10' -> [((50,50),(50,50)), ((20,20),(10,))]; no width may be empty."""
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        shared_text, sep, head_text = chunk.partition(":")
        if not sep:
            raise ValueError(f"architecture {chunk!r} needs shared:head")
        sides = [side.split("x") for side in (shared_text, head_text)]
        if any(not width.strip() for side in sides for width in side):
            raise ValueError(f"architecture {chunk!r} has an empty width")
        out.append(tuple(tuple(int(width) for width in side) for side in sides))
    if not out:
        raise ValueError("empty architecture list")
    return out


# ---------------------------------------------------------------------------
# option tables, config files and flag merging

class Option(NamedTuple):
    """One option: its flag, the parser of its text, its default, help and choices."""
    flag: str
    parser: Callable[[str], object]
    default: object = None
    help: str | None = None
    choices: tuple | None = None

    def parse(self, text: str):
        value = self.parser(text)
        if self.choices is not None and value not in self.choices:
            raise ValueError(f"invalid choice {value!r} (choose from {', '.join(self.choices)})")
        return value


def add_options(p: argparse.ArgumentParser, table: dict[str, Option], skip=()) -> None:
    """Add the flags of table's keys not in skip to p; a flag left out parses to None (absent)."""
    for key, option in table.items():
        if key in skip:
            continue
        p.add_argument(option.flag, dest=key, type=option.parser, default=None,
                       choices=option.choices, help=option.help)


def parse_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    first_line: dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            key = key.strip()
            if not sep:
                raise ConfigError(f"{path}:{lineno}: expected key = value, got {line!r}")
            if key in first_line:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key} "
                                  f"(first on line {first_line[key]})")
            first_line[key] = lineno
            values[key] = value.strip()
    return values


def resolve_options(args, table: dict[str, Option]) -> dict:
    """Merge flag values, config-file values, and defaults, in that order.

    Flags use the table key as dest and arrive already parsed and checked
    (None means absent). A config-file value goes through its option's
    parser and choices. Unknown config keys fail.
    """
    file_values = parse_config_file(args.config) if getattr(args, "config", None) else {}
    unknown = set(file_values) - set(table)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    out = {}
    for key, option in table.items():
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            out[key] = flag_value
        elif key in file_values:
            try:
                out[key] = option.parse(file_values[key])
            except ValueError as e:
                raise ConfigError(f"config key {key}: {e}") from None
        else:
            out[key] = option.default
    return out


def write_manifest(args, options: dict, inputs: dict, outputs: dict, started: float,
                   status: str = "ok", error: str | None = None) -> str:
    """Write the run's manifest.json into args.out; returns its path."""
    payload = {
        "command": args.command,
        "version": __version__,
        "seed": args.seed,
        "config": options,
        "inputs": inputs,
        "outputs": outputs,
        "duration_seconds": time.monotonic() - started,
        "status": status,
        "error": error,
    }
    path = os.path.join(args.out, "manifest.json")
    with data.write_atomically(path, encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


def _write_reports(path: str, reports: list[MetricsReport]) -> None:
    """Write report.csv and print one summary line per report."""
    evaluation.write_reports_csv(path, reports)
    for report in reports:
        line = f"{report.split}: n={report.n} factual_mse={report.factual_mse:.6g}"
        if report.sqrt_pehe is not None:
            line += f" sqrt_pehe={report.sqrt_pehe:.6g} ate_error={report.ate_error:.6g}"
        if report.note:
            line += f" ({report.note})"
        print(line)


# ---------------------------------------------------------------------------
# generate

GENERATE = {
    "n": Option("--n", int, 1000),
    "d": Option("--d", int, 10),
    "bias": Option("--bias", float, 1.0, "Treatment-assignment bias strength"),
    "heterogeneity": Option("--heterogeneity", float, 1.0),
    "noise_sd": Option("--noise-sd", float, 0.5),
    "nonlinearity": Option("--nonlinearity", str, "quadratic", choices=data.NONLINEARITIES),
    "base_effect": Option("--base-effect", float, 2.0),
}


def cmd_generate(args) -> int:
    started = time.monotonic()
    options = resolve_options(args, GENERATE)
    config = data.DgpConfig(
        n=options["n"], d=options["d"], bias_strength=options["bias"],
        effect_heterogeneity=options["heterogeneity"], noise_sd=options["noise_sd"],
        nonlinearity=options["nonlinearity"], seed=args.seed,
        base_effect=options["base_effect"])
    dataset, truth = data.generate(config)
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "dataset.csv")
    truth_path = os.path.join(args.out, "truth.json")
    data.save_csv(dataset, csv_path)
    with data.write_atomically(truth_path, encoding="utf-8") as f:
        json.dump(truth, f, indent=2, sort_keys=True)
        f.write("\n")
    manifest_path = write_manifest(args, options, {},
                                   {"dataset": csv_path, "truth": truth_path}, started)
    print(f"wrote {csv_path} ({dataset.n} rows, {dataset.d} covariates)")
    print(f"wrote {truth_path}")
    print(f"wrote {manifest_path}")
    return 0


# ---------------------------------------------------------------------------
# train

def _with_train_defaults(table: dict[str, Option]) -> dict[str, Option]:
    """TrainConfig fields settable from the command line, with TrainConfig's defaults."""
    defaults = trainer.TrainConfig()
    return {key: option._replace(default=getattr(defaults, key)) for key, option in table.items()}


NET = _with_train_defaults({
    "shared_layers": Option("--shared-layers", parse_int_list),
    "head_layers": Option("--head-layers", parse_int_list),
    "dropout_p": Option("--dropout", float),
    "weight_decay": Option("--weight-decay", float),
    "batch_size": Option("--batch-size", int),
    "learning_rate": Option("--lr", float),
    "k": Option("--k", int, help="Representation steps per batch"),
    "adversary_weight": Option("--adversary-weight", float),
})

# The TrainConfig fields that train and search both take.
RUN = _with_train_defaults({
    "patience": Option("--patience", int),
    "max_epochs": Option("--max-epochs", int),
    "metric": Option("--metric", str, choices=objectives.METRICS),
    "trailing_step_a": Option("--trailing-step-a", parse_bool),
    "imbalance_weight": Option("--imbalance-weight", float),
})

DATA = {
    "split_seed": Option("--split-seed", int, 0,
                         "Seed of the train/validation/test split (default 0)"),
    "fractions": Option("--fractions", parse_fractions, DEFAULT_FRACTIONS,
                        "Split fractions train,validation,test (default "
                        + ",".join(f"{f:.2f}" for f in DEFAULT_FRACTIONS) + ")"),
    "unlabeled": Option("--unlabeled", str, "none",
                        "Strip this split's outcomes into the unlabeled pool", ("none", "test")),
}

LASSO = {
    "alpha": Option("--alpha", float, help="Fixed lasso penalty (skips CV)"),
    "alpha_grid": Option("--alpha-grid", parse_float_list, baselines.DEFAULT_ALPHA_GRID),
}

TRAIN = {**DATA, **NET, **RUN, **LASSO}


def _load_split_dataset(path: str, options: dict) -> data.Dataset:
    dataset = data.split(data.load_csv(path), options["fractions"], options["split_seed"])
    if options["unlabeled"] == "test":
        dataset = data.strip_outcomes(dataset, dataset.indices(data.TEST))
    return dataset


def cmd_train(args) -> int:
    started = time.monotonic()
    options = resolve_options(args, TRAIN)
    mode = args.mode
    dataset = _load_split_dataset(args.data, options)
    inputs = {"data": args.data, "data_sha256": dataset.sha256}
    os.makedirs(args.out, exist_ok=True)
    ckpt_path = os.path.join(args.out, "model.ckpt")
    report_path = os.path.join(args.out, "report.csv")
    outputs = {"checkpoint": ckpt_path, "report": report_path}
    options["mode"] = mode

    if mode in ("s-lasso", "t-lasso"):
        variant = "single" if mode == "s-lasso" else "per_treatment"
        grid = (options["alpha"],) if options["alpha"] is not None else tuple(options["alpha_grid"])
        model = baselines.fit_lasso_on_dataset(dataset, variant, grid=grid, seed=args.seed)
        lasso_config = {"mode": mode, "alpha_grid": list(grid), "seed": args.seed}
        model.save(ckpt_path, config=lasso_config,
                   data_seed=options["split_seed"], split_fractions=options["fractions"])
        reports = evaluation.standard_reports(model, dataset, seed=args.seed,
                                              fingerprint=canonical_fingerprint(lasso_config))
        print(f"{mode}: alpha={model.alpha:.6g}" if variant == "single"
              else f"{mode}: alpha={model.alpha:.6g} (shared grid choice)")
    else:
        config = trainer.TrainConfig(**{key: options[key] for key in (*NET, *RUN)},
                                     seed=args.seed, mode=mode.replace("-", "_"))
        history_path = os.path.join(args.out, "history.tsv")
        outputs["history"] = history_path
        try:
            result = trainer.train(dataset, config, history_path=history_path)
        except TrainingError as e:
            evaluation.write_reports_csv(report_path, [MetricsReport(
                "failed", 0, None, None, float("nan"), note=f"training failed: {e}")])
            write_manifest(args, options, inputs, outputs, started,
                           status="failed", error=str(e))
            print(f"training failed: {e}", file=sys.stderr)
            return 1
        result.model.save(ckpt_path, config=config.to_dict(),
                          validation_criterion=result.best_value,
                          data_seed=options["split_seed"],
                          split_fractions=options["fractions"])
        reports = evaluation.standard_reports(
            model=result.model, dataset=dataset, seed=config.seed,
            fingerprint=config.fingerprint(), validation_criterion=result.best_value)
        print(f"{mode}: best epoch {result.best_epoch} of {result.epochs_run}, "
              f"validation criterion {result.best_value:.6g}")

    _write_reports(report_path, reports)
    manifest_path = write_manifest(args, options, inputs, outputs, started)
    print(f"wrote {ckpt_path}")
    print(f"wrote {manifest_path}")
    return 0


# ---------------------------------------------------------------------------
# search

# SearchSpace fields; an option left unset keeps SearchSpace's default.
SEARCH_SPACE = {
    "draws": Option("--draws", int, help="Random draws per architecture"),
    "architectures": Option("--architectures", parse_architectures,
                            help="Comma list of sharedxlayers:headxlayers, "
                                 "e.g. 50x50:50x50,20x20:10"),
    "dropout": Option("--dropout", parse_float_list),
    "weight_decay": Option("--weight-decay", parse_float_list),
    "batch_size": Option("--batch-size", parse_int_list),
    "learning_rate": Option("--lr-range", parse_lr_range),
    "k": Option("--k", parse_int_list),
    "adversary_weight": Option("--adversary-weight", parse_float_list),
}

SEARCH = {**DATA, **SEARCH_SPACE, **RUN}


def cmd_search(args) -> int:
    started = time.monotonic()
    options = resolve_options(args, SEARCH)
    dataset = _load_split_dataset(args.data, options)
    inputs = {"data": args.data, "data_sha256": dataset.sha256}
    space = evaluation.SearchSpace(**{key: options[key] for key in SEARCH_SPACE
                                      if options[key] is not None})
    base = trainer.TrainConfig(**{key: options[key] for key in RUN})
    mode = args.mode.replace("-", "_")
    options["mode"] = args.mode
    options["jobs"] = args.jobs

    os.makedirs(args.out, exist_ok=True)
    table_path = os.path.join(args.out, "runs.csv")
    ckpt_path = os.path.join(args.out, "best.ckpt")
    outputs = {"run_table": table_path, "best_checkpoint": ckpt_path}
    try:
        result = evaluation.search(dataset, space, mode, args.seed,
                                   jobs=args.jobs, base=base)
    except SearchError as e:
        write_manifest(args, options, inputs, outputs, started,
                       status="failed", error=str(e))
        print(f"search failed: {e}", file=sys.stderr)
        return 1
    evaluation.write_run_table(table_path, result)
    best = result.best
    best.model.save(ckpt_path, config=best.config.to_dict(),
                    validation_criterion=best.best_value,
                    data_seed=options["split_seed"],
                    split_fractions=options["fractions"])
    completed = sum(1 for rec in result.records if rec.status == "ok")
    print(f"search over {len(result.records)} configs, {completed} completed")
    print(f"best run {result.best_index}: fingerprint {best.config.fingerprint()} "
          f"criterion {best.best_value:.6g}")
    manifest_path = write_manifest(
        args, {**options, "best_fingerprint": best.config.fingerprint(),
               "best_index": result.best_index},
        inputs, outputs, started)
    print(f"wrote {table_path}")
    print(f"wrote {ckpt_path}")
    print(f"wrote {manifest_path}")
    return 0


# ---------------------------------------------------------------------------
# eval

# Unset, these fall back to the checkpoint's run metadata, then to DATA's defaults.
EVAL = {
    "split_seed": Option("--split-seed", int,
                         help="Override the split seed stored in the checkpoint"),
    "fractions": Option("--fractions", parse_fractions),
}


def cmd_eval(args) -> int:
    started = time.monotonic()
    options = resolve_options(args, EVAL)
    model, header = load_checkpoint(args.checkpoint)
    split_seed = options["split_seed"]
    if split_seed is None:
        split_seed = header_field(header, "data_seed", lambda v: v is None or valid_int(v)) or 0
    fractions = options["fractions"]
    if fractions is None:
        stored = header_field(header, "split_fractions",
                              lambda v: v is None or valid_list(v, valid_real, 3))
        fractions = tuple(stored) if stored else DEFAULT_FRACTIONS
    dataset = data.split(data.load_csv(args.data), fractions, split_seed)
    stored_config = header_field(header, "config",
                                 lambda v: v is None or isinstance(v, dict)) or {}
    seed = (header_field(header, "config.seed", lambda v: v is None or valid_int(v))
            if "seed" in stored_config else None)
    reports = evaluation.standard_reports(
        model, dataset, seed=seed,
        fingerprint=header_field(header, "fingerprint", lambda v: v is None or isinstance(v, str)),
        validation_criterion=header_field(header, "validation_criterion",
                                          lambda v: v is None or valid_real(v)))
    os.makedirs(args.out, exist_ok=True)
    report_path = os.path.join(args.out, "report.csv")
    print(f"checkpoint kind {header['kind']}")
    _write_reports(report_path, reports)
    manifest_path = write_manifest(
        args, {**options, "split_seed_used": split_seed, "fractions_used": fractions},
        {"checkpoint": args.checkpoint, "data": args.data, "data_sha256": dataset.sha256},
        {"report": report_path}, started)
    print(f"wrote {report_path}")
    print(f"wrote {manifest_path}")
    return 0


# ---------------------------------------------------------------------------
# parser wiring

def _add_shared(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0,
                   help="Master seed for this command, a non-negative integer")
    p.add_argument("--out", type=str, required=True, help="Output directory")
    p.add_argument("--config", type=str, default=None,
                   help="Flat key=value config file; flags override it")


def _add_data(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", type=str, required=True, help="Dataset CSV path")
    add_options(p, DATA)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adbcr",
        description="Counterfactual regression via adversarial distribution balancing")
    parser.add_argument("--version", action="version", version=f"adbcr {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    net_modes = tuple(mode.replace("_", "-") for mode in trainer.MODES)

    p = sub.add_parser("generate", help="Draw a synthetic benchmark dataset")
    _add_shared(p)
    add_options(p, GENERATE)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="Train one configuration")
    _add_shared(p)
    _add_data(p)
    p.add_argument("--mode", type=str, default="adbcr", choices=(*net_modes, "s-lasso", "t-lasso"))
    add_options(p, TRAIN, skip=DATA)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("search", help="Random hyper-parameter search")
    _add_shared(p)
    _add_data(p)
    p.add_argument("--mode", type=str, default="adbcr", choices=net_modes)
    p.add_argument("--jobs", type=int, default=1,
                   help="Concurrent training processes, at most the usable CPUs")
    add_options(p, SEARCH, skip=DATA)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("eval", help="Score a saved checkpoint on a dataset")
    _add_shared(p)
    p.add_argument("--checkpoint", type=str, required=True)
    p.add_argument("--data", type=str, required=True)
    add_options(p, EVAL)
    p.set_defaults(func=cmd_eval)

    return parser


# glibc mallopt parameters and the values retain_freed_heap() gives them.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD_BYTES = 32 << 20
TRIM_THRESHOLD_BYTES = 2 * MMAP_THRESHOLD_BYTES


def retain_freed_heap() -> bool:
    """Keep freed heap memory in the process instead of handing it back each step.

    Every training step builds a tape and frees it; by default glibc then
    returns the top of the heap to the kernel and faults it back in page by
    page on the next step. This keeps up to TRIM_THRESHOLD_BYTES of free
    heap per malloc arena. Any mallopt call switches off glibc's dynamic
    thresholds, so both are pinned at the ceilings the dynamic rule climbs
    to on 64-bit: the mmap threshold, and twice it for the trim threshold.
    Process-wide, idempotent, cannot be undone, and changes no result.
    Returns False, changing nothing, off glibc or where libc has no mallopt.
    """
    if platform.libc_ver()[0] != "glibc":
        return False
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return bool(mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES)
                and mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES))


# Environment variables through which a user names a BLAS thread count.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def main(argv: list[str] | None = None) -> int:
    retain_freed_heap()
    if not any(name in os.environ for name in BLAS_THREAD_VARIABLES):
        blas.set_threads(1)
    parser = build_parser()
    args = parser.parse_args(argv)
    new_out = not os.path.exists(args.out)
    try:
        check_seed(args.seed)   # before a command makes its --out directory
        code = args.func(args)
    except (TrainingError, SearchError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        code = 1
    except AdbcrError as e:
        print(f"error: {e}", file=sys.stderr)
        code = 2
    if code and new_out:
        with contextlib.suppress(OSError):   # rmdir refuses a directory that holds output
            os.rmdir(args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
