"""The three closed-loop workloads: inputs from a seed, CLI passes, output checks.

A workload has one client. It calls ``adbcr.cli.main(argv)`` in-process with
stdout captured, and issues the next command only when the previous one has
returned. setup() writes the inputs (the program only ever sees the generated
CSV) and returns them; run_pass() issues one pass of commands on those inputs
and times each; check() verifies the pass's outputs outside the timed region.
"""
from __future__ import annotations

import contextlib
import csv
import filecmp
import hashlib
import io
import math
import os
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from adbcr import cli, data, evaluation, trainer
from adbcr.model import load_model

# Fixed epoch budget; patience above it, so every run trains exactly EPOCHS
# epochs and the work does not depend on float drift in the criterion.
EPOCHS = 8
FIXED_BUDGET = ["--max-epochs", str(EPOCHS), "--patience", str(EPOCHS + 1)]
# The acceptance gate's data-generating process.
GATE_DGP = ["--d", "10", "--bias", "2.0", "--heterogeneity", "1.0",
            "--nonlinearity", "quadratic"]
SPLIT_SEED = 0


def search_jobs() -> int:
    return min(2, len(os.sched_getaffinity(0)))


def out_sqrt_pehe(report_csv: str) -> float:
    """Test-split sqrt-PEHE from a report.csv the CLI wrote."""
    with open(report_csv, newline="", encoding="utf-8") as f:
        for row in csv.DictReader(f):
            if row["split"] == "out":
                return float(row["sqrt_pehe"])
    return math.nan


@dataclass
class Pass:
    """One pass: which operations ran, how long each took, what it wrote."""

    seconds: dict[str, float] = field(default_factory=dict)    # timed op -> seconds
    problems: dict[str, list[str]] = field(default_factory=dict)  # op -> failures
    digests: dict[tuple[str, str], str] = field(default_factory=dict)  # (op, file) -> sha256
    headline: float = math.nan   # test sqrt-PEHE of the workload's headline model
    runs: int = 0                # training runs attempted, for trace coverage
    # (module counter, traced builds): per train command, and for the whole pass
    distance_builds: dict[str, tuple[float, float]] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(self.seconds.values())

    def record(self, op: str, path: str) -> None:
        with open(path, "rb") as f:
            self.digests[(op, os.path.basename(path))] = hashlib.sha256(f.read()).hexdigest()

    def attempt(self, op: str) -> None:
        self.problems.setdefault(op, [])

    def fail(self, op: str, reason: str) -> None:
        self.problems.setdefault(op, []).append(reason)

    def invoke(self, op: str, argv: list[str]) -> None:
        """Run one CLI command, timed; a non-zero exit or any raise fails it."""
        self.attempt(op)
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as e:   # argparse rejected the command line
            code = e.code if isinstance(e.code, int) else 2
        except Exception:
            code = None
            err.write(traceback.format_exc())
        self.seconds[op] = time.perf_counter() - t0
        if code != 0:
            self.fail(op, f"exit {code}: {err.getvalue().strip()[-300:]}")

    def call(self, op: str, fn, *args):
        """Run one in-process program call, timed; a raise fails it."""
        self.attempt(op)
        t0 = time.perf_counter()
        try:
            return fn(*args)
        except Exception:
            self.fail(op, traceback.format_exc()[-300:])
            return None
        finally:
            self.seconds[op] = time.perf_counter() - t0


@dataclass
class Inputs:
    """What a set-up leaves for the passes."""

    csv: str
    dataset: data.Dataset | None = None   # the CSV, split; the checks score against it
    search_result: evaluation.SearchResult | None = None   # select-score's K networks
    nets: list[str] = field(default_factory=list)           # ... and their checkpoints


def check_predictions(p: Pass, op: str, ckpt: str, x: np.ndarray) -> None:
    """The checkpoint loads back and predicts finite outcomes for every row."""
    try:
        y0, y1 = load_model(ckpt).predict_potential_outcomes(x)
    except Exception:
        p.fail(op, f"checkpoint {os.path.basename(ckpt)} does not load: "
                   f"{traceback.format_exc()[-200:]}")
        return
    if not (np.all(np.isfinite(y0)) and np.all(np.isfinite(y1))):
        p.fail(op, f"checkpoint {os.path.basename(ckpt)} predicts non-finite outcomes")


class Workload:
    name = ""
    headline_op = ""   # the operation whose output model gives Pass.headline
    rows = 1000

    def __init__(self, seed: int):
        self.seed = seed

    def generate(self, p: Pass, out: str, n: int) -> str:
        p.invoke("generate", ["generate", "--seed", str(self.seed), "--out", out,
                              "--n", str(n), *GATE_DGP])
        return os.path.join(out, "dataset.csv")

    def setup(self, workdir: str, p: Pass) -> Inputs:
        return Inputs(self.generate(p, os.path.join(workdir, "data"), self.rows))

    @staticmethod
    def load_check_data(csv_path: str) -> data.Dataset:
        return data.split(data.load_csv(csv_path), seed=SPLIT_SEED)

    def run_pass(self, inputs: Inputs, workdir: str, p: Pass, probe) -> None:
        raise NotImplementedError

    def check(self, inputs: Inputs, workdir: str, p: Pass) -> None:
        raise NotImplementedError


class TrainModes(Workload):
    """`adbcr train` once per network mode on the gate's data shape."""

    name = "train-modes"
    headline_op = "train adbcr"
    modes = (("adbcr", []), ("uadbcr", ["--unlabeled", "test"]),
             ("a-tarnet", []), ("danncr", []))

    def run_pass(self, inputs: Inputs, workdir: str, p: Pass, probe) -> None:
        for mode, extra in self.modes:
            before = probe()
            p.invoke(f"train {mode}",
                     ["train", "--mode", mode, "--data", inputs.csv, "--seed", str(self.seed),
                      "--out", os.path.join(workdir, mode), *FIXED_BUDGET, *extra])
            after = probe()
            p.distance_builds[mode] = (after[0] - before[0], after[1] - before[1])
            p.runs += 1

    def check(self, inputs: Inputs, workdir: str, p: Pass) -> None:
        for mode, _ in self.modes:
            op = f"train {mode}"
            if p.problems[op]:
                continue
            ckpt = os.path.join(workdir, mode, "model.ckpt")
            p.record(op, ckpt)
            check_predictions(p, op, ckpt, inputs.dataset.x)
        if p.distance_builds["a-tarnet"] != (0, 0):
            p.fail("train a-tarnet", f"a_tarnet built distance graphs "
                                     f"(counter, traced) = {p.distance_builds['a-tarnet']}")
        if not p.problems["train adbcr"]:
            p.headline = out_sqrt_pehe(os.path.join(workdir, "adbcr", "report.csv"))

    def epoch_ms(self, p: Pass) -> dict[str, float]:
        return {mode.replace("-", "_"): p.seconds[f"train {mode}"] * 1000.0 / EPOCHS
                for mode, _ in self.modes}


class SearchParallel(Workload):
    """One threaded `adbcr search` over the gate's six architectures."""

    name = "search-parallel"
    headline_op = "search"
    space = ["--architectures", "50x50:50x50,50:50,20x20:20x20,50x50:20,20:20x20,10x10:10",
             "--dropout", "0.1,0.3", "--weight-decay", "0.01,0.001", "--batch-size", "250",
             "--lr-range", "3e-4,3e-3", "--k", "1", "--adversary-weight", "0.01,0.1",
             "--draws", "1", "--imbalance-weight", "0.3"]

    def run_pass(self, inputs: Inputs, workdir: str, p: Pass, probe) -> None:
        p.invoke("search", ["search", "--mode", "adbcr", "--jobs", str(search_jobs()),
                            "--data", inputs.csv, "--seed", str(self.seed), "--out", workdir,
                            *FIXED_BUDGET, *self.space])

    def check(self, inputs: Inputs, workdir: str, p: Pass) -> None:
        if p.problems["search"]:
            return
        table = os.path.join(workdir, "runs.csv")
        with open(table, newline="", encoding="utf-8") as f:
            rows = list(csv.DictReader(f))
        for row in rows:
            op = f"search run {row['index']}"
            p.attempt(op)
            if row["status"] != "ok":
                p.fail(op, f"status {row['status']}: {row['message']}")
        p.runs += len(rows)
        ckpt = os.path.join(workdir, "best.ckpt")
        p.record("search", table)
        p.record("search", ckpt)
        check_predictions(p, "search", ckpt, inputs.dataset.x)
        if not p.problems["search"]:
            reports = evaluation.standard_reports(load_model(ckpt), inputs.dataset)
            p.headline = next(r.sqrt_pehe for r in reports if r.split == "out")


class SelectScore(Workload):
    """The scoring path: CSV write and read, lasso fits, evals, nn-PEHE selection."""

    name = "select-score"
    headline_op = "select"
    rows = 10_000
    # K small networks for the nn-PEHE proxy to choose between, trained in setup.
    proxy_space = dict(architectures=[((20,), (20,)), ((10, 10), (10,)),
                                      ((20, 20), (10,)), ((10,), (10,))],
                       dropout=(0.1,), weight_decay=(0.01,), batch_size=(250,),
                       learning_rate=(3e-4, 3e-3), k=(1,), adversary_weight=(0.01, 0.1))
    proxy_epochs = 1

    def setup(self, workdir: str, p: Pass) -> Inputs:
        inputs = super().setup(workdir, p)
        inputs.dataset = self.load_check_data(inputs.csv)
        base = trainer.TrainConfig(max_epochs=self.proxy_epochs,
                                   patience=self.proxy_epochs + 1)
        result = p.call("proxy search", evaluation.search, inputs.dataset,
                        evaluation.SearchSpace(**self.proxy_space), "adbcr", self.seed,
                        search_jobs(), base)
        inputs.search_result = result
        if result is None:
            return inputs
        for rec, res in zip(result.records, result.results):
            op = f"proxy run {rec.index}"
            p.attempt(op)
            if res is None:
                p.fail(op, f"status {rec.status}: {rec.message}")
                continue
            path = os.path.join(workdir, f"net{rec.index}.ckpt")
            res.model.save(path, config=res.config.to_dict(),
                           validation_criterion=res.best_value, data_seed=SPLIT_SEED,
                           split_fractions=cli.DEFAULT_FRACTIONS)
            inputs.nets.append(path)
            p.record(op, path)
        return inputs

    def run_pass(self, inputs: Inputs, workdir: str, p: Pass, probe) -> None:
        pass_csv = self.generate(p, os.path.join(workdir, "gen"), self.rows)
        for mode in ("s-lasso", "t-lasso"):
            p.invoke(f"train {mode}", ["train", "--mode", mode, "--data", pass_csv,
                                       "--seed", str(self.seed),
                                       "--out", os.path.join(workdir, mode)])
            p.runs += 1
        for name, ckpt in self._checkpoints(inputs, workdir):
            p.invoke(f"eval {name}", ["eval", "--checkpoint", ckpt, "--data", pass_csv,
                                      "--out", os.path.join(workdir, "eval", name)])
        self.pick = p.call("select", evaluation.select_by_nn_pehe,
                           inputs.search_result, inputs.dataset)

    @staticmethod
    def _checkpoints(inputs: Inputs, workdir: str) -> list[tuple[str, str]]:
        lasso = [(m, os.path.join(workdir, m, "model.ckpt")) for m in ("s-lasso", "t-lasso")]
        return lasso + [(os.path.basename(c)[:-5], c) for c in inputs.nets]

    def check(self, inputs: Inputs, workdir: str, p: Pass) -> None:
        pass_csv = os.path.join(workdir, "gen", "dataset.csv")
        if not p.problems["generate"] and not filecmp.cmp(pass_csv, inputs.csv, shallow=False):
            p.fail("generate", "same-seed CSV differs from the set-up's")
        for name, ckpt in self._checkpoints(inputs, workdir):
            op = f"eval {name}"
            if p.problems[op]:
                continue
            score = out_sqrt_pehe(os.path.join(workdir, "eval", name, "report.csv"))
            if not math.isfinite(score):
                p.fail(op, f"non-finite test sqrt-PEHE {score}")
            if name.endswith("lasso"):
                p.record(f"train {name}", ckpt)
                trained = out_sqrt_pehe(os.path.join(workdir, name, "report.csv"))
                if score != trained:
                    p.fail(op, f"eval of the saved checkpoint scores {score!r}, "
                               f"train reported {trained!r}")
        if self.pick is not None and not p.problems[f"eval net{self.pick}"]:
            p.headline = out_sqrt_pehe(
                os.path.join(workdir, "eval", f"net{self.pick}", "report.csv"))


WORKLOADS = {w.name: w for w in (TrainModes, SearchParallel, SelectScore)}
