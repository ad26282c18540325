"""Command-line entry point: generate, train, search, eval.

Every command takes --seed, --out, and optionally --config. Config files
are flat ``key = value`` text; explicit flags win over file values, file
values win over defaults. Each command finishes by writing manifest.json
(atomically) with the effective configuration, paths, tool version, and
wall-clock duration, so a run can be reproduced from its manifest alone.

Exit codes: 0 all artifacts written, 1 runtime failure (divergence,
search with no usable run, I/O), 2 usage or configuration error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

import numpy as np

from . import __version__
from . import baselines, data, evaluation, trainer
from .errors import AdbcrError, ConfigError, SearchError, TrainingError
from .evaluation import MetricsReport
from .model import canonical_fingerprint, load_checkpoint

DEFAULT_FRACTIONS = (0.63, 0.27, 0.10)


# ---------------------------------------------------------------------------
# value parsers (argparse type= callables; raise ValueError on bad input)

def parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(f"expected true/false, got {text!r}")


def parse_int_list(text: str) -> tuple[int, ...]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty integer list")
    return tuple(int(p) for p in parts)


def parse_float_list(text: str) -> tuple[float, ...]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty float list")
    return tuple(float(p) for p in parts)


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
    """'50x50:50x50,20x20:10' -> [((50,50),(50,50)), ((20,20),(10,))]."""
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        shared_text, sep, head_text = chunk.partition(":")
        if not sep:
            raise ValueError(f"architecture {chunk!r} needs shared:head")
        shared = tuple(int(p) for p in shared_text.split("x") if p.strip())
        head = tuple(int(p) for p in head_text.split("x") if p.strip())
        if not shared or not head:
            raise ValueError(f"architecture {chunk!r} has an empty side")
        out.append((shared, head))
    if not out:
        raise ValueError("empty architecture list")
    return out


# ---------------------------------------------------------------------------
# config files and flag merging

def parse_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ConfigError(f"{path}:{lineno}: expected key = value, got {line!r}")
            values[key.strip()] = value.strip()
    return values


def resolve_options(args, option_specs: dict) -> dict:
    """Merge flag values, config-file values, and defaults, in that order.

    option_specs maps key -> (parser, default). Flags use key as dest and
    arrive already typed (None means absent). Unknown config keys fail.
    """
    file_values = parse_config_file(args.config) if getattr(args, "config", None) else {}
    unknown = set(file_values) - set(option_specs)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    out = {}
    for key, (parser, default) in option_specs.items():
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            out[key] = flag_value
        elif key in file_values:
            try:
                out[key] = parser(file_values[key])
            except ValueError as e:
                raise ConfigError(f"config key {key}: {e}") from None
        else:
            out[key] = default
    return out


def _jsonable(value):
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    return value


def write_manifest(out_dir: str, payload: dict) -> str:
    path = os.path.join(out_dir, "manifest.json")
    fd, tmp = tempfile.mkstemp(dir=out_dir, prefix=".manifest-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def _manifest(command: str, seed: int, options: dict, inputs: dict,
              outputs: dict, started: float, status: str = "ok",
              error: str | None = None) -> dict:
    return {
        "command": command,
        "version": __version__,
        "seed": seed,
        "config": {k: _jsonable(v) for k, v in options.items()},
        "inputs": inputs,
        "outputs": outputs,
        "duration_seconds": time.monotonic() - started,
        "status": status,
        "error": error,
    }


def _print_report(report: MetricsReport) -> None:
    line = f"{report.split}: n={report.n} factual_mse={report.factual_mse:.6g}"
    if report.sqrt_pehe is not None:
        line += f" sqrt_pehe={report.sqrt_pehe:.6g} ate_error={report.ate_error:.6g}"
    if report.note:
        line += f" ({report.note})"
    print(line)


# ---------------------------------------------------------------------------
# generate

GENERATE_SPEC = {
    "n": (int, 1000),
    "d": (int, 10),
    "bias": (float, 1.0),
    "heterogeneity": (float, 1.0),
    "noise_sd": (float, 0.5),
    "nonlinearity": (str, "quadratic"),
    "base_effect": (float, 2.0),
}


def cmd_generate(args) -> int:
    started = time.monotonic()
    options = resolve_options(args, GENERATE_SPEC)
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
    with open(truth_path, "w", encoding="utf-8") as f:
        json.dump({k: _jsonable(v.tolist() if isinstance(v, np.ndarray) else v)
                   for k, v in truth.items()}, f, indent=2, sort_keys=True)
        f.write("\n")
    manifest_path = write_manifest(args.out, _manifest(
        "generate", args.seed, options, {},
        {"dataset": csv_path, "truth": truth_path}, started))
    print(f"wrote {csv_path} ({dataset.n} rows, {dataset.d} covariates)")
    print(f"wrote {truth_path}")
    print(f"wrote {manifest_path}")
    return 0


# ---------------------------------------------------------------------------
# train

# TrainConfig fields settable from the command line, with TrainConfig's defaults.
_TRAIN_DEFAULTS = trainer.TrainConfig()
TRAIN_NET_SPEC = {key: (parser, getattr(_TRAIN_DEFAULTS, key)) for key, parser in {
    "shared_layers": parse_int_list,
    "head_layers": parse_int_list,
    "dropout_p": float,
    "weight_decay": float,
    "batch_size": int,
    "learning_rate": float,
    "k": int,
    "adversary_weight": float,
    "patience": int,
    "max_epochs": int,
    "metric": str,
    "trailing_step_a": parse_bool,
    "imbalance_weight": float,
}.items()}

TRAIN_DATA_SPEC = {
    "split_seed": (int, 0),
    "fractions": (parse_fractions, DEFAULT_FRACTIONS),
    "unlabeled": (str, "none"),
}

LASSO_SPEC = {
    "alpha": (float, None),
    "alpha_grid": (parse_float_list, baselines.DEFAULT_ALPHA_GRID),
}


def _load_split_dataset(path: str, split_seed: int, fractions, unlabeled: str) -> data.Dataset:
    dataset = data.load_csv(path)
    dataset = data.split(dataset, fractions, split_seed)
    if unlabeled == "test":
        dataset = data.strip_outcomes(dataset, dataset.indices(data.TEST))
    elif unlabeled != "none":
        raise ConfigError(f"unlabeled must be none or test, got {unlabeled!r}")
    return dataset


def _failed_report(message: str) -> MetricsReport:
    return MetricsReport("failed", 0, None, None, float("nan"),
                         note=f"training failed: {message}")


def cmd_train(args) -> int:
    started = time.monotonic()
    options = resolve_options(args, {**TRAIN_NET_SPEC, **TRAIN_DATA_SPEC, **LASSO_SPEC})
    mode = args.mode
    dataset = _load_split_dataset(args.data, options["split_seed"],
                                  options["fractions"], options["unlabeled"])
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
        config = trainer.TrainConfig(**{key: options[key] for key in TRAIN_NET_SPEC},
                                     seed=args.seed, mode=mode.replace("-", "_"))
        history_path = os.path.join(args.out, "history.tsv")
        outputs["history"] = history_path
        try:
            result = trainer.train(dataset, config, history_path=history_path)
        except TrainingError as e:
            evaluation.write_reports_csv(report_path, [_failed_report(str(e))])
            write_manifest(args.out, _manifest(
                "train", args.seed, options, {"data": args.data}, outputs,
                started, status="failed", error=str(e)))
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

    evaluation.write_reports_csv(report_path, reports)
    for report in reports:
        _print_report(report)
    manifest_path = write_manifest(args.out, _manifest(
        "train", args.seed, options, {"data": args.data}, outputs, started))
    print(f"wrote {ckpt_path}")
    print(f"wrote {manifest_path}")
    return 0


# ---------------------------------------------------------------------------
# search

SEARCH_SPACE_SPEC = {
    "architectures": (parse_architectures, None),
    "dropout": (parse_float_list, None),
    "weight_decay": (parse_float_list, None),
    "batch_size": (parse_int_list, None),
    "learning_rate": (parse_lr_range, None),
    "k": (parse_int_list, None),
    "adversary_weight": (parse_float_list, None),
    "draws": (int, None),
}

SEARCH_BASE_SPEC = {key: TRAIN_NET_SPEC[key] for key in
                    ("patience", "max_epochs", "metric", "trailing_step_a", "imbalance_weight")}


def cmd_search(args) -> int:
    started = time.monotonic()
    options = resolve_options(
        args, {**SEARCH_SPACE_SPEC, **SEARCH_BASE_SPEC, **TRAIN_DATA_SPEC})
    dataset = _load_split_dataset(args.data, options["split_seed"],
                                  options["fractions"], options["unlabeled"])
    space_kwargs = {key: options[key] for key in
                    ("architectures", "dropout", "weight_decay", "batch_size",
                     "learning_rate", "k", "adversary_weight", "draws")
                    if options[key] is not None}
    space = evaluation.SearchSpace(**space_kwargs)
    base = trainer.TrainConfig(**{key: options[key] for key in SEARCH_BASE_SPEC})
    mode = args.mode.replace("-", "_")
    options["mode"] = args.mode
    options["jobs"] = args.jobs

    os.makedirs(args.out, exist_ok=True)
    table_path = os.path.join(args.out, "runs.csv")
    ckpt_path = os.path.join(args.out, "best.ckpt")
    try:
        result = evaluation.search(dataset, space, mode, args.seed,
                                   jobs=args.jobs, base=base)
    except SearchError as e:
        write_manifest(args.out, _manifest(
            "search", args.seed, options, {"data": args.data},
            {"run_table": table_path, "best_checkpoint": ckpt_path},
            started, status="failed", error=str(e)))
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
    manifest_path = write_manifest(args.out, _manifest(
        "search", args.seed,
        {**options, "best_fingerprint": best.config.fingerprint(),
         "best_index": result.best_index},
        {"data": args.data},
        {"run_table": table_path, "best_checkpoint": ckpt_path}, started))
    print(f"wrote {table_path}")
    print(f"wrote {ckpt_path}")
    print(f"wrote {manifest_path}")
    return 0


# ---------------------------------------------------------------------------
# eval

EVAL_SPEC = {
    "split_seed": (int, None),
    "fractions": (parse_fractions, None),
}


def cmd_eval(args) -> int:
    started = time.monotonic()
    options = resolve_options(args, EVAL_SPEC)
    model, header = load_checkpoint(args.checkpoint)
    split_seed = options["split_seed"]
    if split_seed is None:
        split_seed = header.get("data_seed")
    if split_seed is None:
        split_seed = 0
    fractions = options["fractions"]
    if fractions is None:
        stored = header.get("split_fractions")
        fractions = tuple(stored) if stored else DEFAULT_FRACTIONS
    dataset = data.load_csv(args.data)
    dataset = data.split(dataset, fractions, int(split_seed))
    stored_config = header.get("config") or {}
    reports = evaluation.standard_reports(
        model, dataset, seed=stored_config.get("seed"),
        fingerprint=header.get("fingerprint"),
        validation_criterion=header.get("validation_criterion"))
    os.makedirs(args.out, exist_ok=True)
    report_path = os.path.join(args.out, "report.csv")
    evaluation.write_reports_csv(report_path, reports)
    print(f"checkpoint kind {header['kind']}")
    for report in reports:
        _print_report(report)
    manifest_path = write_manifest(args.out, _manifest(
        "eval", args.seed,
        {**options, "split_seed_used": int(split_seed), "fractions_used": fractions},
        {"checkpoint": args.checkpoint, "data": args.data},
        {"report": report_path}, started))
    print(f"wrote {report_path}")
    print(f"wrote {manifest_path}")
    return 0


# ---------------------------------------------------------------------------
# parser wiring

def _add_shared(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="Master seed for this command")
    p.add_argument("--out", type=str, required=True, help="Output directory")
    p.add_argument("--config", type=str, default=None,
                   help="Flat key=value config file; flags override it")


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", type=str, required=True, help="Dataset CSV path")
    p.add_argument("--split-seed", dest="split_seed", type=int, default=None,
                   help="Seed of the train/validation/test split (default 0)")
    p.add_argument("--fractions", type=parse_fractions, default=None,
                   help="Split fractions train,validation,test (default 0.63,0.27,0.10)")
    p.add_argument("--unlabeled", type=str, default=None, choices=("none", "test"),
                   help="Strip this split's outcomes into the unlabeled pool")


def _add_net_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--shared-layers", dest="shared_layers", type=parse_int_list, default=None)
    p.add_argument("--head-layers", dest="head_layers", type=parse_int_list, default=None)
    p.add_argument("--dropout", dest="dropout_p", type=float, default=None)
    p.add_argument("--weight-decay", dest="weight_decay", type=float, default=None)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    p.add_argument("--lr", dest="learning_rate", type=float, default=None)
    p.add_argument("--k", type=int, default=None, help="Representation steps per batch")
    p.add_argument("--adversary-weight", dest="adversary_weight", type=float, default=None)
    _add_run_flags(p)


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    """The SEARCH_BASE_SPEC flags, which train and search both take."""
    p.add_argument("--patience", type=int, default=None)
    p.add_argument("--max-epochs", dest="max_epochs", type=int, default=None)
    p.add_argument("--metric", type=str, default=None, choices=("l1", "squared"))
    p.add_argument("--trailing-step-a", dest="trailing_step_a", type=parse_bool, default=None)
    p.add_argument("--imbalance-weight", dest="imbalance_weight", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adbcr",
        description="Counterfactual regression via adversarial distribution balancing")
    parser.add_argument("--version", action="version", version=f"adbcr {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    net_modes = tuple(mode.replace("_", "-") for mode in trainer.MODES)

    p = sub.add_parser("generate", help="Draw a synthetic benchmark dataset")
    _add_shared(p)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--bias", type=float, default=None, help="Treatment-assignment bias strength")
    p.add_argument("--heterogeneity", type=float, default=None)
    p.add_argument("--noise-sd", dest="noise_sd", type=float, default=None)
    p.add_argument("--nonlinearity", type=str, default=None, choices=data.NONLINEARITIES)
    p.add_argument("--base-effect", dest="base_effect", type=float, default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="Train one configuration")
    _add_shared(p)
    _add_data_flags(p)
    p.add_argument("--mode", type=str, default="adbcr", choices=(*net_modes, "s-lasso", "t-lasso"))
    _add_net_flags(p)
    p.add_argument("--alpha", type=float, default=None, help="Fixed lasso penalty (skips CV)")
    p.add_argument("--alpha-grid", dest="alpha_grid", type=parse_float_list, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("search", help="Random hyper-parameter search")
    _add_shared(p)
    _add_data_flags(p)
    p.add_argument("--mode", type=str, default="adbcr", choices=net_modes)
    p.add_argument("--draws", type=int, default=None, help="Random draws per architecture")
    p.add_argument("--jobs", type=int, default=1, help="Concurrent training runs")
    p.add_argument("--architectures", type=parse_architectures, default=None,
                   help="Comma list of sharedxlayers:headxlayers, e.g. 50x50:50x50,20x20:10")
    p.add_argument("--dropout", type=parse_float_list, default=None)
    p.add_argument("--weight-decay", dest="weight_decay", type=parse_float_list, default=None)
    p.add_argument("--batch-size", dest="batch_size", type=parse_int_list, default=None)
    p.add_argument("--lr-range", dest="learning_rate", type=parse_lr_range, default=None)
    p.add_argument("--k", type=parse_int_list, default=None)
    p.add_argument("--adversary-weight", dest="adversary_weight", type=parse_float_list, default=None)
    _add_run_flags(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("eval", help="Score a saved checkpoint on a dataset")
    _add_shared(p)
    p.add_argument("--checkpoint", type=str, required=True)
    p.add_argument("--data", type=str, required=True)
    p.add_argument("--split-seed", dest="split_seed", type=int, default=None,
                   help="Override the split seed stored in the checkpoint")
    p.add_argument("--fractions", type=parse_fractions, default=None)
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TrainingError, SearchError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except AdbcrError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
