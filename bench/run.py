#!/usr/bin/env python3
"""Benchmark of the adbcr CLI: three closed-loop workloads, untraced or traced.

Run from the repository root:

    python3 bench/run.py --workload train-modes --seed 1 --seconds 30 --trace 0

--trace 0 measures the end-to-end metrics with nothing wrapped. --trace 1
runs untraced passes for half the time, then wraps the program's layers
(see tracer.py) and runs traced passes for the other half; it reports the
per-layer metrics per traced pass, the tracing overhead, and checks that
traced passes write the same bytes as untraced ones.

Every line but the last is a human-readable detail line. The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
The metric names and units are those of BENCHMARK.json at the repository
root; the run stops with an error if they disagree.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("train-modes", "search-parallel", "select-score")
# Before every timed pass, set-up runs at least once and until SETUP_BURST_S
# have passed; setup_s is the median over the run, so a set-up of a few
# milliseconds is sampled as often and over the same stretch as the passes.
SETUP_BURST_S = 0.25
MIN_PASSES = 3
# One BLAS thread per search job: the search runs min(2, nproc) jobs, so
# jobs x BLAS threads never exceeds nproc. Set before numpy is imported.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
        "machine": platform.machine(),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process or of any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def timing(values: list[float], unit: str) -> dict:
    """Median, sample count, and the highest percentile with at least ten samples
    beyond it (the maximum while there are fewer than 20 samples)."""
    ordered = sorted(values)
    out = {"unit": unit, "median": statistics.median(ordered), "n": len(ordered)}
    if len(ordered) >= 20:
        pct = math.floor(100 * (1 - 10 / len(ordered)))
        out[f"p{pct}"] = ordered[min(len(ordered) - 1, math.ceil(pct / 100 * len(ordered)) - 1)]
    else:
        out["max"] = ordered[-1]
    return out


def headline(passes) -> float:
    """Median headline sqrt-PEHE over the passes that produced one (0 if none did;
    those passes are already counted as failed)."""
    values = [p.headline for p in passes if math.isfinite(p.headline)]
    return statistics.median(values) if values else 0.0


class Ledger:
    """Operations attempted and failed, over setups and passes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, label: str, p) -> None:
        for op, reasons in p.problems.items():
            self.attempted += 1
            if reasons:
                self.failed += 1
                self.problems.extend(f"{label} {op}: {r}" for r in reasons)


class Runner:
    """Set-ups and passes of one workload, with their checks and byte comparisons."""

    def __init__(self, workload, workdir: str, ledger: Ledger):
        from workloads import Pass
        from adbcr import objectives
        self.w = workload
        self.workdir = workdir
        self.ledger = ledger
        self.make_pass = Pass
        self.objectives = objectives
        self.tracer = None
        self.inputs = None
        self.setup_times: list[float] = []
        self.setup_reference = None
        self.pass_reference = None
        self.count = 0

    def probe(self) -> tuple[float, float]:
        """(module distance counter, distance builds the tracer saw)."""
        traced = 0.0
        if self.tracer is not None:
            traced = self.tracer.totals()[1].get("objectives.distance_graphs_traced", 0.0)
        return self.objectives.distance_graph_builds, traced

    def set_up(self) -> None:
        """One timed set-up. The first one's inputs serve every pass; later ones
        must write the same bytes and are removed."""
        i = len(self.setup_times)
        d = os.path.join(self.workdir, f"setup{i}")
        p = self.make_pass()
        t0 = time.perf_counter()
        inputs = self.w.setup(d, p)
        self.setup_times.append(time.perf_counter() - t0)
        if not p.problems["generate"]:
            p.record("generate", inputs.csv)
        self.setup_reference = self.compare(p, self.setup_reference)
        self.ledger.add(f"setup{i}", p)
        if self.inputs is None:
            if inputs.dataset is None:   # split for the checks, outside any timing
                inputs.dataset = self.w.load_check_data(inputs.csv)
            self.inputs = inputs
        else:
            shutil.rmtree(d, ignore_errors=True)

    @staticmethod
    def compare(p, reference):
        """Same-seed outputs must be byte-identical to the first of their kind."""
        if reference is None:
            return p
        for (op, name), value in reference.digests.items():
            if p.digests.get((op, name), value) != value:
                p.fail(op, f"{name} differs from the first same-seed run's")
        return reference

    def one_pass(self, label: str):
        """Run, check and clean up one pass; the first one is the reference."""
        p = self.make_pass()
        d = os.path.join(self.workdir, f"pass{self.count}")
        self.count += 1
        before = self.probe()
        if self.tracer is None:
            self.w.run_pass(self.inputs, d, p, self.probe)
        else:   # traced around the program's calls only, never the checks
            try:
                self.tracer.install()
                self.w.run_pass(self.inputs, d, p, self.probe)
            finally:
                self.tracer.uninstall()
        after = self.probe()
        p.distance_builds["pass"] = (after[0] - before[0], after[1] - before[1])
        if self.tracer is not None and after[0] - before[0] != after[1] - before[1]:
            p.fail(self.w.headline_op, "traced distance builds "
                   f"{after[1] - before[1]} != module counter delta {after[0] - before[0]}")
        self.w.check(self.inputs, d, p)
        if not p.problems[self.w.headline_op] and not math.isfinite(p.headline):
            p.fail(self.w.headline_op, f"test sqrt-PEHE is {p.headline}")
        self.pass_reference = self.compare(p, self.pass_reference)
        self.ledger.add(label, p)
        shutil.rmtree(d, ignore_errors=True)
        return p

    def passes(self, label: str, seconds: float, minimum: int) -> list:
        """Timed passes until `seconds` have passed, each after a burst of set-ups,
        so that set-ups sample the same stretch of time as the passes."""
        out = []
        deadline = time.perf_counter() + seconds
        while len(out) < minimum or time.perf_counter() < deadline:
            burst_end = time.perf_counter() + SETUP_BURST_S
            self.set_up()
            while time.perf_counter() < burst_end:
                self.set_up()
            out.append(self.one_pass(label))
        return out


def per_layer(tracer_spans, counts, traced, untraced, workload) -> dict:
    """Per-layer metrics per traced pass, named as in BENCHMARK.json."""
    import tracer as tr
    from workloads import TrainModes
    n = len(traced)

    def span(name):
        return tracer_spans.get(name, [0, 0.0, 0.0])

    m = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    for op in tr.AUTODIFF_OPS:
        calls, total, _ = span(f"autodiff.{op}")
        put(f"autodiff.{op}.calls", calls / n, "count")
        put(f"autodiff.{op}.fwd_ms", total * 1000 / n, "ms")
        put(f"autodiff.{op}.bwd_ms", span(f"autodiff.{op}.vjp")[1] * 1000 / n, "ms")
    calls, total, self_s = span("autodiff.backward")
    put("autodiff.backward.ms", total * 1000 / n, "ms")
    put("autodiff.backward.calls", calls / n, "count")
    put("autodiff.backward.self_ms", self_s * 1000 / n, "ms")
    put("autodiff.tape_nodes", counts.get("autodiff.tape_nodes", 0.0) / calls if calls else 0.0,
        "count")
    for name in ("autodiff.adam", "objectives.build_losses", "trainer.phase.A",
                 "trainer.phase.B", "trainer.phase.C", "baselines.coordinate_descent",
                 "evaluation.nn_pehe"):
        calls, total, _ = span(name)
        put(f"{name}.ms", total * 1000 / n, "ms")
        put(f"{name}.calls", calls / n, "count")
    put("objectives.distance_builds",
        sum(p.distance_builds["pass"][0] for p in traced) / n, "count")
    put("trainer.validation.ms", span("trainer.validation")[1] * 1000 / n, "ms")
    put("trainer.batching.ms", span("trainer.batching")[1] * 1000 / n, "ms")
    put("trainer.epochs", span("trainer.validation")[0] / n, "count")
    for step in ("predict", "discriminate", "confuse"):
        put(f"baselines.danncr.{step}.ms", span(f"baselines.danncr.{step}")[1] * 1000 / n, "ms")
    put("baselines.coordinate_descent.sweeps",
        counts.get("baselines.coordinate_descent.sweeps", 0.0) / n, "count")
    put("baselines.select_alpha.ms", span("baselines.select_alpha")[1] * 1000 / n, "ms")
    calls, total, _ = span("evaluation.search.run")
    cpu = counts.get("evaluation.search.run.cpu_s", 0.0)
    put("evaluation.search.run_ms", total * 1000 / calls if calls else 0.0, "ms")
    put("evaluation.search.run_wait_share", 1.0 - cpu / total if total else 0.0, "fraction")
    put("evaluation.nn_pehe.peak_mb",
        counts.get("evaluation.nn_pehe.peak_bytes", 0.0) / 2 ** 20, "MB")
    put("model.forward.ms", span("model.forward")[1] * 1000 / n, "ms")
    put("model.predict.ms", span("model.predict")[1] * 1000 / n, "ms")
    for io_kind in ("write", "read"):
        key = f"model.checkpoint.{io_kind}"
        put(f"{key}.ms", span(key)[1] * 1000 / n, "ms")
        put(f"{key}.bytes", counts.get(f"{key}.bytes", 0.0) / n, "bytes")
    for fn in ("generate", "save_csv", "load_csv", "split"):
        put(f"data.{fn}.ms", span(f"data.{fn}")[1] * 1000 / n, "ms")
    put("data.load_csv.rows", counts.get("data.load_csv.rows", 0.0) / n, "count")
    for command in ("generate", "train", "search", "eval"):
        put(f"cli.{command}.ms", span(f"cli.{command}")[1] * 1000 / n, "ms")
    traced_s = statistics.median(p.wall_s for p in traced)
    untraced_s = statistics.median(p.wall_s for p in untraced)
    put("trace.overhead_share", traced_s / untraced_s - 1.0, "fraction")
    runs = sum(p.runs for p in traced)
    run_spans = sum(span(name)[0] for name in tr.RUN_SPANS)
    put("trace.coverage", run_spans / runs if runs else 1.0, "fraction")
    for mode, _ in TrainModes.modes:
        name = mode.replace("-", "_")
        epoch_ms = builds = 0.0
        if isinstance(workload, TrainModes):
            epoch_ms = statistics.median(workload.epoch_ms(p)[name] for p in untraced)
            builds = sum(p.distance_builds[mode][0] for p in traced) / n
        put(f"mode.{name}.epoch_ms", epoch_ms, "ms")
        put(f"mode.{name}.distance_builds", builds, "count")
    put("out.sqrt_pehe", headline(traced), "outcome")
    return m


def check_names(metrics: dict, section: str) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[section]
    expected = {e["name"]: e["unit"] for e in spec}
    got = {name: unit for name, (_, unit) in metrics.items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        units = sorted(k for k in set(got) & set(expected) if got[k] != expected[k])
        raise SystemExit(f"bench/run.py disagrees with BENCHMARK.json {section}: "
                         f"missing {missing}, extra {extra}, unit differs {units}")


def end_to_end(workload, setup_times, passes, ledger) -> tuple[dict, dict]:
    """The gated metrics, plus the issue's per-workload end-to-end figures."""
    from workloads import SearchParallel, SelectScore, TrainModes
    rss = peak_rss_mb()
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "pass_s": (statistics.median(p.wall_s for p in passes), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    figures = {"setup_s": timing(setup_times, "s")}
    if isinstance(workload, TrainModes):
        per_mode = [workload.epoch_ms(p) for p in passes]
        for mode in per_mode[0]:
            figures[f"epoch_ms.{mode}"] = timing([ms[mode] for ms in per_mode], "ms")
    elif isinstance(workload, SearchParallel):
        figures["search_s"] = timing([p.wall_s for p in passes], "s")
    elif isinstance(workload, SelectScore):
        figures["select_score_s"] = timing([p.wall_s for p in passes], "s")
    figures["peak_rss_mb"] = {"value": rss, "unit": "MB"}
    figures["out_sqrt_pehe"] = {"value": headline(passes), "unit": "outcome"}
    figures["failed_share"] = {"value": ledger.failed / ledger.attempted, "unit": "fraction"}
    figures["pass_s_samples"] = [p.wall_s for p in passes]
    return metrics, figures


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "adbcr" / "__init__.py").is_file():
        print(f"error: adbcr sources not found under {src}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(src))
    env = environment()

    import workloads
    workload = workloads.WORKLOADS[args.workload](args.seed)
    ledger = Ledger()
    work_root = ROOT / ".bench_run"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    runner = Runner(workload, workdir, ledger)
    try:
        runner.set_up()
        runner.one_pass("warmup")
        if args.trace:
            import tracer
            untraced = runner.passes("untraced", args.seconds / 2, 2)
            runner.tracer = tracer.Tracer()
            traced = runner.passes("traced", args.seconds / 2, 2)
            spans, counts = runner.tracer.totals()
            metrics = per_layer(spans, counts, traced, untraced, workload)
            section = "per_layer"
            figures = {"passes": {"untraced": len(untraced), "traced": len(traced)},
                       "failed_share": {"value": ledger.failed / ledger.attempted,
                                        "unit": "fraction"}}
        else:
            passes = runner.passes("pass", args.seconds, MIN_PASSES)
            metrics, figures = end_to_end(workload, runner.setup_times, passes, ledger)
            section = "end_to_end"
            figures["passes"] = len(passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:   # another run is using it
            pass
    check_names(metrics, section)
    print(f"env {json.dumps(env)}")
    print(f"run {json.dumps({'workload': args.workload, 'seed': args.seed, 'trace': args.trace})}")
    print(f"figures {json.dumps(figures)}")
    for problem in ledger.problems[:50]:
        print(f"problem {problem}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
