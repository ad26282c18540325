"""Command-line entry points, exercised in process."""
import ctypes
import hashlib
import json
import multiprocessing
import os
import platform
import re

import numpy as np
import pytest

from adbcr import cli, data, evaluation
from adbcr.errors import ConfigError, DatasetError
from adbcr.model import load_model

from conftest import rewrite_with, rewrite_without, run_fresh


def run(argv) -> int:
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def benchmark_csv(tmp_path_factory):
    """A small generated dataset most commands can train on."""
    out = tmp_path_factory.mktemp("gen")
    assert run(["generate", "--out", out, "--n", 160, "--d", 3, "--seed", 1]) == 0
    return out / "dataset.csv"


NET_FLAGS = ["--shared-layers", "8", "--head-layers", "6", "--batch-size", "40",
             "--max-epochs", "3", "--patience", "3"]


def manifest_of(out_dir) -> dict:
    return json.loads((out_dir / "manifest.json").read_text())


def manifest_options(out_dir) -> dict:
    return manifest_of(out_dir)["config"]


# ---------------------------------------------------------------------------
# generate

def test_generate_writes_artifacts(tmp_path):
    out = tmp_path / "g"
    assert run(["generate", "--out", out, "--n", 70, "--d", 4, "--seed", 2]) == 0
    ds = data.load_csv(str(out / "dataset.csv"))
    assert ds.n == 70 and ds.d == 4 and ds.has_ground_truth
    truth = json.loads((out / "truth.json").read_text())
    assert truth["config"]["n"] == 70
    assert truth["true_ate"] == pytest.approx(np.mean(ds.mu1 - ds.mu0), abs=1e-12)
    manifest = manifest_of(out)
    assert manifest["command"] == "generate" and manifest["status"] == "ok"
    assert manifest["config"]["n"] == 70


def test_generate_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run(["generate", "--out", a, "--n", 60, "--d", 3, "--seed", 5])
    run(["generate", "--out", b, "--n", 60, "--d", 3, "--seed", 5])
    assert (a / "dataset.csv").read_bytes() == (b / "dataset.csv").read_bytes()
    assert (a / "truth.json").read_bytes() == (b / "truth.json").read_bytes()


def test_generate_invalid_size_is_usage_error(tmp_path):
    assert run(["generate", "--out", tmp_path / "g", "--n", 10]) == 2


@pytest.mark.parametrize("flag, value", [("--base-effect", "nan"), ("--noise-sd", "inf"),
                                         ("--heterogeneity", "inf"), ("--bias", "nan")])
def test_generate_non_finite_knob_is_usage_error(tmp_path, flag, value):
    out = tmp_path / "g"
    assert run(["generate", "--out", out, flag, value]) == 2
    assert not (out / "dataset.csv").exists()


# ---------------------------------------------------------------------------
# train

def test_train_adbcr_artifacts(benchmark_csv, tmp_path):
    out = tmp_path / "t"
    assert run(["train", "--data", benchmark_csv, "--out", out, *NET_FLAGS]) == 0
    model = load_model(str(out / "model.ckpt"))
    assert model.kind == "adbcr"
    lines = (out / "report.csv").read_text().splitlines()
    assert len(lines) == 3
    header = lines[0].split(",")
    within = dict(zip(header, lines[1].split(",")))
    assert within["split"] == "within"
    assert np.isfinite(float(within["sqrt_pehe"]))
    assert (out / "history.tsv").exists()
    assert manifest_of(out)["status"] == "ok"


def test_train_a_tarnet_history_lacks_distance(benchmark_csv, tmp_path):
    out = tmp_path / "t"
    assert run(["train", "--data", benchmark_csv, "--out", out, "--mode", "a-tarnet",
                *NET_FLAGS]) == 0
    header = (out / "history.tsv").read_text().splitlines()[0]
    assert header.split("\t") == ["epoch", "factual", "criterion"]


def test_train_uadbcr_with_stripped_test(benchmark_csv, tmp_path):
    out = tmp_path / "t"
    assert run(["train", "--data", benchmark_csv, "--out", out, "--mode", "uadbcr",
                "--unlabeled", "test", *NET_FLAGS]) == 0
    assert manifest_options(out)["unlabeled"] == "test"
    header = (out / "history.tsv").read_text().splitlines()[0]
    assert "distance" in header.split("\t")


def test_train_danncr_mode(benchmark_csv, tmp_path):
    out = tmp_path / "t"
    assert run(["train", "--data", benchmark_csv, "--out", out, "--mode", "danncr",
                *NET_FLAGS]) == 0
    assert load_model(str(out / "model.ckpt")).kind == "danncr"


def test_train_lasso_then_eval_matches(benchmark_csv, tmp_path):
    train_out = tmp_path / "t"
    eval_out = tmp_path / "e"
    assert run(["train", "--data", benchmark_csv, "--out", train_out,
                "--mode", "t-lasso", "--seed", 3]) == 0
    assert run(["eval", "--checkpoint", train_out / "model.ckpt",
                "--data", benchmark_csv, "--out", eval_out]) == 0
    assert (train_out / "report.csv").read_bytes() == (eval_out / "report.csv").read_bytes()


def test_train_slasso_fixed_alpha(benchmark_csv, tmp_path):
    out = tmp_path / "t"
    assert run(["train", "--data", benchmark_csv, "--out", out, "--mode", "s-lasso",
                "--alpha", 0.5]) == 0
    model = load_model(str(out / "model.ckpt"))
    assert model.alpha == 0.5


@pytest.mark.parametrize("mode, flag, value", [("s-lasso", "--alpha", "nan"),
                                               ("s-lasso", "--alpha", "inf"),
                                               ("t-lasso", "--alpha-grid", "nan,1"),
                                               ("t-lasso", "--alpha-grid", "inf,1")])
def test_train_non_finite_alpha_is_usage_error(benchmark_csv, tmp_path, capsys, mode, flag, value):
    out = tmp_path / "t"
    assert run(["train", "--data", benchmark_csv, "--out", out, "--mode", mode, flag, value]) == 2
    assert not (out / "model.ckpt").exists()
    assert "alpha" in capsys.readouterr().err


def test_train_missing_data_is_runtime_error(tmp_path):
    assert run(["train", "--data", tmp_path / "absent.csv",
                "--out", tmp_path / "t"]) == 1


def test_train_divergence_fails_with_report(benchmark_csv, tmp_path):
    out = tmp_path / "t"
    with np.errstate(all="ignore"):
        code = run(["train", "--data", benchmark_csv, "--out", out,
                    "--lr", 1e70, *NET_FLAGS])
    assert code == 1
    assert manifest_of(out)["status"] == "failed"
    lines = (out / "report.csv").read_text().splitlines()
    assert "failed" in lines[1]


def test_train_without_ground_truth_notes_it(benchmark_csv, tmp_path):
    bare_csv = tmp_path / "bare.csv"
    ds = data.load_csv(str(benchmark_csv))
    data.save_csv(data.Dataset(x=ds.x, t=ds.t, y_factual=ds.y_factual), str(bare_csv))
    out = tmp_path / "t"
    assert run(["train", "--data", bare_csv, "--out", out, *NET_FLAGS]) == 0
    lines = (out / "report.csv").read_text().splitlines()
    header = lines[0].split(",")
    within = dict(zip(header, lines[1].split(",")))
    assert within["sqrt_pehe"] == ""
    assert "ground truth" in within["note"]


# ---------------------------------------------------------------------------
# config files

def test_config_file_with_flag_override(benchmark_csv, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("batch_size=40\nlearning_rate=0.01\nmax_epochs=2\n"
                      "shared_layers=8\nhead_layers=6\npatience=2\n")
    out = tmp_path / "t"
    assert run(["train", "--data", benchmark_csv, "--out", out,
                "--config", config, "--lr", 0.005]) == 0
    options = manifest_options(out)
    assert options["learning_rate"] == 0.005
    assert options["batch_size"] == 40
    assert options["max_epochs"] == 2


# A value per option key, unlike its default; search's learning_rate is a range.
OPTION_TEXT = {
    "n": "70", "d": "4", "bias": "0.5", "heterogeneity": "2.5", "noise_sd": "0.25",
    "nonlinearity": "exp", "base_effect": "1.5",
    "split_seed": "7", "fractions": "0.5,0.3,0.2", "unlabeled": "test",
    "shared_layers": "8,8", "head_layers": "6", "dropout_p": "0.2", "weight_decay": "0.02",
    "batch_size": "40", "learning_rate": "0.005", "k": "2", "adversary_weight": "0.3",
    "patience": "4", "max_epochs": "7", "metric": "squared", "trailing_step_a": "false",
    "imbalance_weight": "0.5", "alpha": "0.5", "alpha_grid": "0.1,1",
    "draws": "3", "architectures": "8:6,4x4:2", "dropout": "0.1,0.2",
}
COMMAND_TABLES = {"generate": cli.GENERATE, "train": cli.TRAIN, "search": cli.SEARCH,
                  "eval": cli.EVAL}
REQUIRED_ARGS = {"generate": ["--out", "o"], "train": ["--out", "o", "--data", "d.csv"],
                 "search": ["--out", "o", "--data", "d.csv"],
                 "eval": ["--out", "o", "--data", "d.csv", "--checkpoint", "m.ckpt"]}


@pytest.mark.parametrize("command, key", [(command, key)
                                          for command, table in COMMAND_TABLES.items()
                                          for key in table])
def test_option_from_flag_equals_option_from_config_file(tmp_path, command, key):
    table = COMMAND_TABLES[command]
    text = "0.001,0.01" if (command, key) == ("search", "learning_rate") else OPTION_TEXT[key]
    config = tmp_path / "run.cfg"
    config.write_text(f"{key} = {text}\n")
    parser = cli.build_parser()
    from_flag = cli.resolve_options(
        parser.parse_args([command, *REQUIRED_ARGS[command], table[key].flag, text]), table)
    from_file = cli.resolve_options(
        parser.parse_args([command, *REQUIRED_ARGS[command], "--config", str(config)]), table)
    assert from_flag == from_file
    assert from_flag[key] != table[key].default


@pytest.mark.parametrize("command, key, value", [("train", "unlabeled", "foo"),
                                                 ("train", "metric", "l3"),
                                                 ("generate", "nonlinearity", "cubic")])
def test_config_file_value_outside_choices(benchmark_csv, tmp_path, capsys, command, key, value):
    config = tmp_path / "run.cfg"
    config.write_text(f"{key} = {value}\n")
    data_args = ["--data", benchmark_csv] if command == "train" else []
    out = tmp_path / "o"
    assert run([command, "--out", out, *data_args, "--config", config]) == 2
    assert f"config key {key}" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_config_file_unknown_key(benchmark_csv, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("bogus_knob=1\n")
    assert run(["train", "--data", benchmark_csv, "--out", tmp_path / "t",
                "--config", config]) == 2


def test_config_file_bad_value(benchmark_csv, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("batch_size=many\n")
    assert run(["train", "--data", benchmark_csv, "--out", tmp_path / "t",
                "--config", config]) == 2


def test_config_file_duplicate_key(benchmark_csv, tmp_path):
    """A key set twice is refused with both line numbers, not resolved to the last value."""
    config = tmp_path / "run.cfg"
    config.write_text("k = 1\n# comment\nk = 2\n")
    with pytest.raises(ConfigError, match=re.escape(f"{config}:3: duplicate key k "
                                                    "(first on line 1)")):
        cli.parse_config_file(str(config))
    config.write_text("batch_size = 40\nbatch_size = 50\n")
    assert run(["train", "--data", benchmark_csv, "--out", tmp_path / "t",
                "--config", config]) == 2


@pytest.mark.parametrize("text, chunk", [("50x:50", "50x:50"), ("50xx50:x10", "50xx50:x10"),
                                         ("8:6,50:50x", "50:50x"), ("x8:6", "x8:6"),
                                         ("8: 6x ", "8: 6x")])
def test_architecture_with_an_empty_width_is_refused(tmp_path, text, chunk):
    """An empty width fails the parser naming its chunk, so the flag exits 2 and a config
    file raises ConfigError, instead of the width being dropped."""
    with pytest.raises(ValueError, match=re.escape(repr(chunk))):
        cli.parse_architectures(text)
    parser = cli.build_parser()
    with pytest.raises(SystemExit) as exit_info:
        parser.parse_args(["search", *REQUIRED_ARGS["search"], "--architectures", text])
    assert exit_info.value.code == 2
    config = tmp_path / "run.cfg"
    config.write_text(f"architectures = {text}\n")
    with pytest.raises(ConfigError, match=re.escape(repr(chunk))):
        cli.resolve_options(parser.parse_args(["search", *REQUIRED_ARGS["search"],
                                               "--config", str(config)]), cli.SEARCH)


@pytest.mark.parametrize("flag, text", [("--shared-layers", "50,,50"), ("--head-layers", "50,"),
                                        ("--batch-size", ",40"), ("--dropout", "0.1,,0.3"),
                                        ("--alpha-grid", "0.1, ,1"), ("--fractions", ",")])
def test_list_with_an_empty_item_is_refused(tmp_path, flag, text):
    """An empty list item, a trailing one included, fails the parser naming the list, so
    the flag exits 2 and a config file raises ConfigError, instead of the item being dropped."""
    command = "search" if flag in ("--dropout", "--batch-size") else "train"
    key = flag[2:].replace("-", "_")
    parser = cli.build_parser()
    with pytest.raises(SystemExit) as exit_info:
        parser.parse_args([command, *REQUIRED_ARGS[command], flag, text])
    assert exit_info.value.code == 2
    config = tmp_path / "run.cfg"
    config.write_text(f"{key} = {text}\n")
    with pytest.raises(ConfigError, match=re.escape(f"list {text.strip()!r} has an empty item")):
        cli.resolve_options(parser.parse_args([command, *REQUIRED_ARGS[command],
                                               "--config", str(config)]),
                            cli.SEARCH if command == "search" else cli.TRAIN)


# ---------------------------------------------------------------------------
# search

SEARCH_FLAGS = ["--architectures", "8:6", "--dropout", "0.1", "--weight-decay", "0.01",
                "--batch-size", "40", "--lr-range", "1e-3,1e-2", "--k", "1",
                "--draws", "2", "--max-epochs", "3", "--patience", "3"]


def test_search_artifacts_and_determinism(benchmark_csv, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["search", "--data", benchmark_csv, "--out", a, "--seed", 4,
                *SEARCH_FLAGS]) == 0
    assert run(["search", "--data", benchmark_csv, "--out", b, "--seed", 4,
                *SEARCH_FLAGS]) == 0
    lines = (a / "runs.csv").read_text().splitlines()
    assert len(lines) == 3
    assert load_model(str(a / "best.ckpt")).kind == "adbcr"
    ma, mb = manifest_of(a), manifest_of(b)
    assert ma["config"]["best_fingerprint"] == mb["config"]["best_fingerprint"]
    assert ma["config"]["best_index"] == mb["config"]["best_index"]
    assert (a / "runs.csv").read_bytes() == (b / "runs.csv").read_bytes()


def test_search_all_failed_exits_1(benchmark_csv, tmp_path):
    out = tmp_path / "s"
    with np.errstate(all="ignore"):
        code = run(["search", "--data", benchmark_csv, "--out", out,
                    "--architectures", "8:6", "--lr-range", "1e70,1e70",
                    "--draws", "1", "--max-epochs", "3", "--patience", "3",
                    "--batch-size", "40"])
    assert code == 1
    assert manifest_of(out)["status"] == "failed"


@pytest.mark.parametrize("mode", ["adbcr", "danncr"])
def test_search_jobs_invariant_bytes(benchmark_csv, tmp_path, mode):
    outs = {jobs: tmp_path / f"jobs{jobs}" for jobs in (1, 2)}
    for jobs, out in outs.items():
        assert run(["search", "--mode", mode, "--jobs", jobs, "--data", benchmark_csv,
                    "--out", out, "--seed", 4, *SEARCH_FLAGS]) == 0
        assert multiprocessing.active_children() == []
    for name in ("runs.csv", "best.ckpt"):
        assert (outs[1] / name).read_bytes() == (outs[2] / name).read_bytes()


def test_search_worker_death_exits_1(benchmark_csv, tmp_path, monkeypatch, capsys):
    run_one = evaluation._run_one

    def dies_on_index_1(dataset, config, index):
        if index == 1:
            os._exit(3)
        return run_one(dataset, config, index)

    monkeypatch.setattr(evaluation, "_run_one", dies_on_index_1)
    out = tmp_path / "s"
    assert run(["search", "--jobs", 2, "--data", benchmark_csv, "--out", out, "--seed", 4,
                *SEARCH_FLAGS]) == 1
    assert multiprocessing.active_children() == []
    manifest = manifest_of(out)
    assert manifest["status"] == "failed"
    assert "adbcr search (seed 4): a worker process died" in manifest["error"]
    assert "worker process died" in capsys.readouterr().err
    assert not (out / "runs.csv").exists()


@pytest.mark.parametrize("jobs", [1, 2])
def test_search_run_error_exits_2(benchmark_csv, tmp_path, monkeypatch, jobs):
    def refuse(dataset, config):
        raise DatasetError("validation split lacks a treatment arm")

    monkeypatch.setattr(evaluation, "train", refuse)
    assert run(["search", "--jobs", jobs, "--data", benchmark_csv, "--out", tmp_path / "s",
                "--seed", 4, *SEARCH_FLAGS]) == 2
    assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# eval

def test_eval_reproduces_train_reports(benchmark_csv, tmp_path):
    train_out = tmp_path / "t"
    eval_out = tmp_path / "e"
    assert run(["train", "--data", benchmark_csv, "--out", train_out,
                "--seed", 6, "--split-seed", 7, *NET_FLAGS]) == 0
    assert run(["eval", "--checkpoint", train_out / "model.ckpt",
                "--data", benchmark_csv, "--out", eval_out]) == 0
    assert (train_out / "report.csv").read_bytes() == (eval_out / "report.csv").read_bytes()
    assert manifest_options(eval_out)["split_seed_used"] == 7


def test_eval_explicit_split_changes_scores(benchmark_csv, tmp_path):
    train_out = tmp_path / "t"
    other = tmp_path / "o"
    run(["train", "--data", benchmark_csv, "--out", train_out, *NET_FLAGS])
    assert run(["eval", "--checkpoint", train_out / "model.ckpt",
                "--data", benchmark_csv, "--out", other, "--split-seed", 9]) == 0
    assert (train_out / "report.csv").read_bytes() != (other / "report.csv").read_bytes()


def test_manifests_record_the_data_sha256(benchmark_csv, tmp_path):
    """train, search and eval record the digest of the CSV's bytes; generate records no input."""
    digest = hashlib.sha256(benchmark_csv.read_bytes()).hexdigest()
    train_out, search_out, eval_out = tmp_path / "t", tmp_path / "s", tmp_path / "e"
    assert run(["train", "--data", benchmark_csv, "--out", train_out, *NET_FLAGS]) == 0
    assert run(["search", "--data", benchmark_csv, "--out", search_out, *SEARCH_FLAGS]) == 0
    assert run(["eval", "--checkpoint", train_out / "model.ckpt",
                "--data", benchmark_csv, "--out", eval_out]) == 0
    data_inputs = {"data": str(benchmark_csv), "data_sha256": digest}
    assert manifest_of(train_out)["inputs"] == data_inputs
    assert manifest_of(search_out)["inputs"] == data_inputs
    assert manifest_of(eval_out)["inputs"] == {
        "checkpoint": str(train_out / "model.ckpt"), **data_inputs}
    assert manifest_of(benchmark_csv.parent)["inputs"] == {}


def test_eval_missing_checkpoint_is_runtime_error(benchmark_csv, tmp_path):
    assert run(["eval", "--checkpoint", tmp_path / "no.ckpt",
                "--data", benchmark_csv, "--out", tmp_path / "e"]) == 1


def test_eval_checkpoint_lacking_header_field_is_usage_error(benchmark_csv, tmp_path, capsys):
    train_out = tmp_path / "t"
    assert run(["train", "--data", benchmark_csv, "--out", train_out,
                "--mode", "s-lasso", "--alpha", "0.1"]) == 0
    rewrite_without(str(train_out / "model.ckpt"), "arch.variant")
    capsys.readouterr()
    assert run(["eval", "--checkpoint", train_out / "model.ckpt",
                "--data", benchmark_csv, "--out", tmp_path / "e"]) == 2
    assert "'arch.variant'" in capsys.readouterr().err


@pytest.fixture(scope="module")
def adbcr_checkpoint(benchmark_csv, tmp_path_factory):
    out = tmp_path_factory.mktemp("adbcr")
    assert run(["train", "--data", benchmark_csv, "--out", out, *NET_FLAGS]) == 0
    return out / "model.ckpt"


@pytest.mark.parametrize("field, value", [
    ("data_seed", "x"), ("data_seed", -1), ("data_seed", [1]), ("data_seed", 1.5),
    ("split_fractions", [0.5, "a", 0.5]), ("split_fractions", 7), ("config", [1]),
    ("validation_criterion", "x"), ("fingerprint", 5), ("config.seed", "x"),
])
def test_eval_bad_run_metadata_is_usage_error(benchmark_csv, adbcr_checkpoint, tmp_path,
                                              capsys, field, value):
    ckpt = tmp_path / "model.ckpt"
    ckpt.write_bytes(adbcr_checkpoint.read_bytes())
    rewrite_with(str(ckpt), field, value)
    out = tmp_path / "e"
    assert run(["eval", "--checkpoint", ckpt, "--data", benchmark_csv, "--out", out]) == 2
    assert f"'{field}'" in capsys.readouterr().err
    assert not (out / "report.csv").exists()


def test_eval_checkpoint_bad_header_value_is_usage_error(benchmark_csv, tmp_path, capsys):
    train_out = tmp_path / "t"
    assert run(["train", "--data", benchmark_csv, "--out", train_out, *NET_FLAGS]) == 0
    rewrite_with(str(train_out / "model.ckpt"), "arch.seed", "x")
    capsys.readouterr()
    assert run(["eval", "--checkpoint", train_out / "model.ckpt",
                "--data", benchmark_csv, "--out", tmp_path / "e"]) == 2
    assert "'arch.seed'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# parser basics

def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exit_info:
        run(["--version"])
    assert exit_info.value.code == 0
    assert "adbcr" in capsys.readouterr().out


@pytest.mark.parametrize("flag, value, field", [("--lr", "nan", "learning_rate"),
                                                ("--weight-decay", "-1", "weight_decay"),
                                                ("--fractions", "nan,0.5,0.5", "fractions"),
                                                ("--seed", "-1", "seed"),
                                                ("--split-seed", "-1", "seed")])
def test_train_bad_knob_is_usage_error(benchmark_csv, tmp_path, capsys, flag, value, field):
    out = tmp_path / "t"
    assert run(["train", "--data", benchmark_csv, "--out", out, *NET_FLAGS, flag, value]) == 2
    assert not (out / "model.ckpt").exists()
    assert field in capsys.readouterr().err
    if field == "seed":   # refused before anything touches the file system
        assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "train", "search", "eval"])
def test_negative_seed_leaves_no_output(benchmark_csv, adbcr_checkpoint, tmp_path, capsys,
                                        command):
    inputs = {"generate": [], "train": ["--data", benchmark_csv],
              "search": ["--data", benchmark_csv],
              "eval": ["--data", benchmark_csv, "--checkpoint", adbcr_checkpoint]}[command]
    out = tmp_path / "out"
    assert run([command, *inputs, "--out", out, "--seed", "-2"]) == 2
    assert "seed must be a non-negative integer, got -2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flags", [
    ("train", ["--k", "0"]),
    ("train", ["--dropout", "1.5"]),
    ("train", ["--shared-layers", "0"]),
    ("train", ["--mode", "s-lasso", "--alpha", "-1"]),
    ("search", ["--jobs", "0"]),
], ids=["k", "dropout", "shared-layers", "lasso-alpha", "jobs"])
def test_config_error_leaves_no_new_output(benchmark_csv, tmp_path, capsys, command, flags):
    """A config error found after --out is made removes the still-empty --out it made,
    and keeps an --out that existed before the command ran."""
    out = tmp_path / "out"
    assert run([command, "--data", benchmark_csv, "--out", out, *flags]) == 2
    assert "error: " in capsys.readouterr().err
    assert not out.exists()
    out.mkdir()
    assert run([command, "--data", benchmark_csv, "--out", out, *flags]) == 2
    assert out.is_dir() and not any(out.iterdir())


def test_unknown_mode_is_usage_error(benchmark_csv, tmp_path):
    with pytest.raises(SystemExit) as exit_info:
        run(["train", "--data", benchmark_csv, "--out", tmp_path / "t",
             "--mode", "mystery"])
    assert exit_info.value.code == 2


@pytest.mark.parametrize("flag, value, dest, parsed", [
    ("--patience", "4", "patience", 4),
    ("--max-epochs", "7", "max_epochs", 7),
    ("--metric", "squared", "metric", "squared"),
    ("--trailing-step-a", "false", "trailing_step_a", False),
    ("--imbalance-weight", "0.5", "imbalance_weight", 0.5),
])
def test_train_and_search_share_run_flags(flag, value, dest, parsed):
    parser = cli.build_parser()
    for command in ("train", "search"):
        args = parser.parse_args([command, "--out", "o", "--data", "d.csv", flag, value])
        assert getattr(args, dest) == parsed


# ---------------------------------------------------------------------------
# BLAS threads

def test_cli_runs_blas_on_one_thread(blas_at_two_threads, tmp_path):
    assert run(["generate", "--out", tmp_path, "--n", 50, "--d", 2, "--seed", 1]) == 0
    assert blas_at_two_threads() == 1


@pytest.mark.parametrize("name", cli.BLAS_THREAD_VARIABLES)
def test_cli_keeps_the_blas_threads_the_environment_names(blas_at_two_threads, monkeypatch,
                                                          tmp_path, name):
    monkeypatch.setenv(name, "2")
    assert run(["generate", "--out", tmp_path, "--n", 50, "--d", 2, "--seed", 1]) == 0
    assert blas_at_two_threads() == 2


# ---------------------------------------------------------------------------
# allocator setting

# One training step's tape in miniature: 40 arrays of argv[2] float64s, all freed at its end.
STEP_FAULTS = """
    import resource, sys
    import numpy as np
    from adbcr.cli import retain_freed_heap

    if sys.argv[1] == "1":
        assert retain_freed_heap()

    def rounds(k):
        for _ in range(k):
            arrays = [np.ones(int(sys.argv[2])) for _ in range(40)]
            del arrays

    rounds(2)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    rounds(50)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the setting is glibc's")
def test_retain_freed_heap_ends_per_step_page_faults():
    without = int(run_fresh(STEP_FAULTS, 0, 12_500))
    with_setting = int(run_fresh(STEP_FAULTS, 1, 12_500))
    assert with_setting * 10 < without


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the setting is glibc's")
def test_retain_freed_heap_keeps_a_12_mb_tape():
    """A 12 MB tape, above an 8 MiB trim threshold, is kept too: no per-step faults."""
    without = int(run_fresh(STEP_FAULTS, 0, 37_500))
    with_setting = int(run_fresh(STEP_FAULTS, 1, 37_500))
    assert with_setting * 10 < without


def test_retain_freed_heap_without_mallopt_is_a_no_op(monkeypatch):
    monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
    assert cli.retain_freed_heap() is False


TRAIN_ARGV = ["--shared-layers", "8", "--head-layers", "6", "--batch-size", "40",
              "--max-epochs", "4", "--patience", "4", "--seed", "3"]

# cmd_train's network path, through the library only: retain_freed_heap never runs.
LIBRARY_TRAIN = """
    import sys
    from adbcr import cli, trainer

    data_path, ckpt_path, *flags = sys.argv[1:]
    args = cli.build_parser().parse_args(["train", "--data", data_path, "--out", "o", *flags])
    options = cli.resolve_options(args, cli.TRAIN)
    dataset = cli._load_split_dataset(data_path, options)
    config = trainer.TrainConfig(**{key: options[key] for key in (*cli.NET, *cli.RUN)},
                                 seed=args.seed, mode="adbcr")
    result = trainer.train(dataset, config)
    result.model.save(ckpt_path, config=config.to_dict(), validation_criterion=result.best_value,
                      data_seed=options["split_seed"], split_fractions=options["fractions"])
"""


def test_cli_checkpoint_equals_library_checkpoint_bytes(benchmark_csv, tmp_path):
    """The allocator setting of cli.main changes no bit of what training writes."""
    out = tmp_path / "cli"
    run_fresh("import sys\nfrom adbcr import cli\nsys.exit(cli.main(sys.argv[1:]))",
              "train", "--data", benchmark_csv, "--out", out, *TRAIN_ARGV)
    library = tmp_path / "library.ckpt"
    run_fresh(LIBRARY_TRAIN, benchmark_csv, library, *TRAIN_ARGV)
    assert (out / "model.ckpt").read_bytes() == library.read_bytes()
