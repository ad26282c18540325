"""Effect metrics, report tables, and hyper-parameter search."""
import multiprocessing
import os
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from adbcr import data, evaluation
from adbcr.errors import ConfigError, DatasetError, DimensionError, DomainError, SearchError
from adbcr.evaluation import (REPORT_COLUMNS, RUN_TABLE_COLUMNS, MetricsReport,
                              SearchResult, SearchSpace, ate_error, evaluate_model, nn_pehe,
                              pehe, sample_configs, search, select_by_nn_pehe,
                              standard_reports, write_reports_csv, write_run_table)
from adbcr.trainer import TrainConfig, train

from conftest import small_benchmark


def tiny_space(**overrides) -> SearchSpace:
    base = dict(architectures=[((8,), (6,))], dropout=(0.1,), weight_decay=(0.01,),
                batch_size=(40,), learning_rate=(1e-3, 1e-3), k=(1,),
                adversary_weight=(1.0,), draws=1)
    base.update(overrides)
    return SearchSpace(**base)


def search_base(**overrides) -> TrainConfig:
    base = dict(patience=4, max_epochs=5)
    base.update(overrides)
    return TrainConfig(**base)


def nn_pehe_oracle(x, t, y, tau_hat) -> float:
    """Independent row-by-row implementation of the neighbour-imputed effect error.

    Each row's neighbour is the first minimum of its distances to the
    opposite arm in row order, so ties go to the lowest row index.
    """
    n = x.shape[0]
    mean = x.mean(axis=0)
    sd = x.std(axis=0)
    sd = np.where(sd == 0.0, 1.0, sd)
    z = (x - mean) / sd
    total = 0.0
    for i in range(n):
        opposite = np.flatnonzero(t != t[i])
        j = opposite[np.argmin(((z[opposite] - z[i]) ** 2).sum(axis=1))]
        tilde = y[i] - y[j] if t[i] == 1 else y[j] - y[i]
        total += (tilde - tau_hat[i]) ** 2
    return total / n


# ---------------------------------------------------------------------------
# effect metrics

def test_pehe_exact_fit_is_zero():
    tau = np.array([1.0, -2.0, 0.5])
    assert pehe(tau, tau.copy()) == 0.0


def test_pehe_matches_elementwise_oracle():
    rng = np.random.default_rng(0)
    tau = rng.normal(size=50)
    tau_hat = rng.normal(size=50)
    expect = sum((a - b) ** 2 for a, b in zip(tau, tau_hat)) / 50
    np.testing.assert_allclose(pehe(tau, tau_hat), expect, rtol=1e-12)


def test_ate_error_matches_mean_oracle():
    rng = np.random.default_rng(1)
    tau = rng.normal(size=30)
    tau_hat = rng.normal(size=30)
    np.testing.assert_allclose(ate_error(tau, tau_hat),
                               abs(tau.mean() - tau_hat.mean()), rtol=1e-12)


def test_ate_error_hides_cancelling_errors():
    """Opposite per-row errors cancel in the ATE but not in the effect error."""
    tau = np.array([1.0, -1.0])
    tau_hat = np.array([-1.0, 1.0])
    assert ate_error(tau, tau_hat) == 0.0
    assert pehe(tau, tau_hat) == 4.0


def test_metric_properties():
    rng = np.random.default_rng(2)
    for _ in range(20):
        tau = rng.normal(size=25)
        tau_hat = rng.normal(size=25)
        assert pehe(tau, tau_hat) >= 0.0
        assert ate_error(tau, tau_hat) <= np.mean(np.abs(tau - tau_hat)) + 1e-15


def test_metric_input_validation():
    with pytest.raises(DimensionError):
        pehe(np.zeros(3), np.zeros(4))
    with pytest.raises(DomainError):
        ate_error(np.zeros(0), np.zeros(0))


def test_nn_pehe_two_rows_by_hand():
    x = np.array([[0.0], [1.0]])
    t = np.array([1, 0])
    y = np.array([3.0, 1.0])
    assert nn_pehe(x, t, y, np.array([2.0, 2.0])) == 0.0
    assert nn_pehe(x, t, y, np.array([0.0, 0.0])) == 4.0


def test_nn_pehe_matches_brute_force():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(20, 3))
    t = (rng.random(20) < 0.5).astype(np.int64)
    t[:2] = [0, 1]
    y = rng.normal(size=20)
    tau_hat = rng.normal(size=20)
    np.testing.assert_allclose(nn_pehe(x, t, y, tau_hat),
                               nn_pehe_oracle(x, t, y, tau_hat), rtol=1e-12)


def test_nn_pehe_permutation_invariant():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(15, 2))
    t = np.tile([0, 1], 8)[:15]
    y = rng.normal(size=15)
    tau_hat = rng.normal(size=15)
    perm = rng.permutation(15)
    np.testing.assert_allclose(nn_pehe(x, t, y, tau_hat),
                               nn_pehe(x[perm], t[perm], y[perm], tau_hat[perm]),
                               rtol=1e-12)


# nn_pehe's tracemalloc peak at n=4000, d=5 (about 10 MiB: one 8 MiB
# difference buffer plus its row sums), where a single n1 x n0 x d
# difference tensor would take 160 MB.
NN_PEHE_PEAK_CEILING = 16 * 2 ** 20


def test_nn_pehe_bounded_memory_with_ties():
    """n=4000 on a coarse covariate grid (many exact ties): bounded peak, oracle result."""
    rng = np.random.default_rng(6)
    n = 4000
    x = rng.integers(0, 3, size=(n, 5)).astype(np.float64)
    t = (rng.random(n) < 0.5).astype(np.int64)
    for arm in (0, 1):   # duplicate rows in each arm: the other arm's rows meet exact ties
        assert np.unique(x[t == arm], axis=0).shape[0] < (t == arm).sum()
    y = rng.normal(size=n)
    tau_hat = rng.normal(size=n)
    tracemalloc.start()
    try:
        value = nn_pehe(x, t, y, tau_hat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < NN_PEHE_PEAK_CEILING, f"peak {peak / 2 ** 20:.1f} MiB"
    np.testing.assert_allclose(value, nn_pehe_oracle(x, t, y, tau_hat), rtol=1e-12)


def test_nn_pehe_stacked_estimates_match_single_calls():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(30, 3))
    t = np.tile([0, 1], 15)
    y = rng.normal(size=30)
    taus = rng.normal(size=(4, 30))
    taus[2, 5] = np.nan
    scores = nn_pehe(x, t, y, taus)
    assert scores.shape == (4,)
    for score, tau_hat in zip(scores, taus):
        single = nn_pehe(x, t, y, tau_hat)
        assert isinstance(single, float)
        assert np.array_equal(score, single, equal_nan=True)
    with pytest.raises(DimensionError):
        nn_pehe(x, t, y, taus[:, :-1])


def test_nn_pehe_needs_both_arms():
    rng = np.random.default_rng(5)
    with pytest.raises(DomainError):
        nn_pehe(rng.normal(size=(5, 2)), np.ones(5, dtype=np.int64),
                rng.normal(size=5), rng.normal(size=5))


# ---------------------------------------------------------------------------
# reports

def test_evaluate_model_scores_match_predictions(bench_dataset):
    result = train(bench_dataset, search_base(shared_layers=(8,), head_layers=(6,),
                                              batch_size=40, max_epochs=3))
    rows = bench_dataset.indices(data.TEST)
    report = evaluate_model(result.model, bench_dataset, rows, "out", seed=7,
                            fingerprint="abc")
    y0, y1 = result.model.predict_potential_outcomes(bench_dataset.x[rows])
    predicted = np.where(bench_dataset.t[rows] == 1, y1, y0)
    expect_mse = float(np.mean((predicted - bench_dataset.y_factual[rows]) ** 2))
    assert report.factual_mse == expect_mse
    tau = bench_dataset.tau_true()[rows]
    np.testing.assert_allclose(report.sqrt_pehe, np.sqrt(pehe(tau, y1 - y0)), rtol=1e-12)
    np.testing.assert_allclose(report.ate_error, ate_error(tau, y1 - y0), rtol=1e-12)
    assert report.split == "out" and report.n == rows.size and report.note == ""


def test_evaluate_model_without_ground_truth(bench_dataset):
    result = train(bench_dataset, search_base(shared_layers=(8,), head_layers=(6,),
                                              batch_size=40, max_epochs=2))
    bare = data.Dataset(x=bench_dataset.x, t=bench_dataset.t,
                        y_factual=bench_dataset.y_factual,
                        split=bench_dataset.split)
    report = evaluate_model(result.model, bare, bare.indices(data.TEST), "out")
    assert report.sqrt_pehe is None and report.ate_error is None
    assert "ground truth" in report.note


def test_standard_reports_two_rows(bench_dataset):
    result = train(bench_dataset, search_base(shared_layers=(8,), head_layers=(6,),
                                              batch_size=40, max_epochs=2))
    reports = standard_reports(result.model, bench_dataset, seed=3)
    assert [r.split for r in reports] == ["within", "out"]
    within_n = bench_dataset.indices(data.TRAIN).size + bench_dataset.indices(data.VAL).size
    assert reports[0].n == within_n
    assert reports[1].n == bench_dataset.indices(data.TEST).size


def test_report_csv_format(tmp_path):
    reports = [MetricsReport("within", 90, 1, "deadbeef", 0.5, 1.25, None, 0.75, "")]
    path = tmp_path / "r.csv"
    write_reports_csv(str(path), reports)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(REPORT_COLUMNS)
    cells = lines[1].split(",")
    assert cells[0] == "within" and cells[1] == "90"
    assert cells[4] == "1.25" and cells[5] == ""


# ---------------------------------------------------------------------------
# search space and sampling

def test_search_space_default_valid():
    space = SearchSpace()
    assert len(space.architectures) == 9


def test_search_space_validation():
    with pytest.raises(ConfigError):
        SearchSpace(architectures=[])
    with pytest.raises(ConfigError):
        tiny_space(dropout=())
    with pytest.raises(ConfigError):
        tiny_space(learning_rate=(1e-2, 1e-3))
    with pytest.raises(ConfigError):
        tiny_space(draws=0)


def test_sample_configs_deterministic_and_in_range():
    space = SearchSpace(draws=2)
    configs = sample_configs(space, "adbcr", seed=9)
    again = sample_configs(space, "adbcr", seed=9)
    assert [c.fingerprint() for c in configs] == [c.fingerprint() for c in again]
    assert len(configs) == 9 * 2
    lo, hi = space.learning_rate
    for i, c in enumerate(configs):
        shared, head = space.architectures[i // 2]
        assert c.shared_layers == shared and c.head_layers == head
        assert c.dropout_p in space.dropout
        assert c.weight_decay in space.weight_decay
        assert c.batch_size in space.batch_size
        assert lo <= c.learning_rate <= hi
        assert c.k in space.k
        assert c.mode == "adbcr"


def test_sample_configs_base_passthrough():
    base = search_base(patience=17, metric="squared", trailing_step_a=False)
    configs = sample_configs(tiny_space(), "uadbcr", 0, base)
    assert configs[0].patience == 17
    assert configs[0].metric == "squared"
    assert configs[0].trailing_step_a is False


# ---------------------------------------------------------------------------
# search runs

def test_search_single_point(bench_dataset):
    result = search(bench_dataset, tiny_space(), "adbcr", seed=0, base=search_base())
    assert len(result.records) == 1
    assert result.best_index == 0
    assert result.records[0].status == "ok"
    assert result.best.best_value == result.records[0].best_value


def test_search_deterministic(bench_dataset):
    space = tiny_space(learning_rate=(1e-4, 1e-2), draws=3)
    r1 = search(bench_dataset, space, "adbcr", seed=1, base=search_base())
    r2 = search(bench_dataset, space, "adbcr", seed=1, base=search_base())
    assert [r.fingerprint for r in r1.records] == [r.fingerprint for r in r2.records]
    assert r1.best_index == r2.best_index
    assert r1.best.best_value == r2.best.best_value


def test_search_best_is_argmin(bench_dataset):
    space = tiny_space(learning_rate=(1e-4, 1e-2), draws=4)
    result = search(bench_dataset, space, "adbcr", seed=2, base=search_base())
    values = [rec.best_value for rec in result.records if rec.status == "ok"]
    assert result.records[result.best_index].best_value == min(values)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_search_excludes_failed_runs(bench_dataset):
    """Divergent draws are recorded as failed and never selected."""
    space = tiny_space(learning_rate=(1e-3, 1e75), draws=6)
    result = search(bench_dataset, space, "adbcr", seed=2, base=search_base())
    statuses = [rec.status for rec in result.records]
    assert "failed" in statuses and "ok" in statuses
    assert result.records[result.best_index].status == "ok"
    for rec in result.records:
        if rec.status == "failed":
            assert rec.best_value is None and rec.message != ""


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_search_all_failed_raises(bench_dataset):
    space = tiny_space(learning_rate=(1e70, 1e70))
    with pytest.raises(SearchError):
        search(bench_dataset, space, "adbcr", seed=0, base=search_base())


def refuse_pickling(self, protocol):
    raise AssertionError("the dataset was pickled")


def test_search_parallel_matches_serial(bench_dataset, monkeypatch):
    """Forked workers give every run's record, history and parameter bytes of jobs=1,
    and inherit the dataset instead of receiving it by pickle."""
    space = tiny_space(learning_rate=(1e-4, 1e-2), draws=3)
    for mode in ("adbcr", "danncr"):
        serial = search(bench_dataset, space, mode, seed=3, base=search_base())
        with monkeypatch.context() as patch:
            patch.setattr(data.Dataset, "__reduce_ex__", refuse_pickling)
            parallel = search(bench_dataset, space, mode, seed=3, base=search_base(), jobs=2)
        assert multiprocessing.active_children() == []
        assert serial.records == parallel.records
        assert serial.best_index == parallel.best_index
        for one, other in zip(serial.results, parallel.results):
            assert one.history == other.history
            assert one.model.params.names() == other.model.params.names()
            for name, value in one.model.params.items():
                assert value.tobytes() == other.model.params[name].tobytes()


class RecordingPool:
    """Stands in for the process pool: records its size, runs the calls in-process."""

    sizes = []

    def __init__(self, max_workers, mp_context, initializer, initargs):
        self.sizes.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.mark.parametrize("jobs, draws, cpus, fork, pool_size", [
    (100_000, 3, 2, True, 2),     # usable CPUs bound it
    (100_000, 3, 8, True, 3),     # one worker per config at most
    (2, 3, 8, True, 2),
    (2, 1, 8, True, None),        # one config trains in-process
    (2, 3, None, True, None),     # no affinity call: os.cpu_count() of 1 bounds it
    (2, 3, 8, False, None),       # no fork: in-process
])
def test_search_clamps_jobs(bench_dataset, monkeypatch, jobs, draws, cpus, fork, pool_size):
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(evaluation, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(evaluation, "_worker_dataset", None)
    if cpus is None:
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    if not fork:
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    space = tiny_space(learning_rate=(1e-4, 1e-2), draws=draws)
    result = search(bench_dataset, space, "a_tarnet", seed=3, base=search_base(max_epochs=2),
                    jobs=jobs)
    assert RecordingPool.sizes == ([] if pool_size is None else [pool_size])
    assert len(result.records) == draws


def blas_threads() -> int:
    return evaluation._openblas_function("get_num_threads")()


def test_search_workers_run_one_blas_thread(bench_dataset):
    """Each forked worker runs OpenBLAS on one thread; the caller keeps its count."""
    if evaluation._openblas_function("get_num_threads") is None:
        pytest.skip("no OpenBLAS loaded")
    before = blas_threads()
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork"),
                             initializer=evaluation._start_worker,
                             initargs=(bench_dataset,)) as pool:
        assert pool.submit(blas_threads).result(timeout=60) == 1
    assert blas_threads() == before


@pytest.mark.parametrize("jobs", [1, 2])
def test_search_worker_error_keeps_type_and_message(bench_dataset, jobs):
    """A run's non-training error reaches the caller as it would from jobs=1."""
    split = bench_dataset.split.copy()
    split[(split == data.VAL) & (bench_dataset.t == 0)] = data.TRAIN
    one_arm = replace(bench_dataset, split=split)
    space = tiny_space(draws=2)
    with pytest.raises(DatasetError) as caught:
        search(one_arm, space, "adbcr", seed=0, base=search_base(), jobs=jobs)
    assert type(caught.value) is DatasetError
    assert str(caught.value) == "validation split lacks a treatment arm"
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("jobs", [0, -3])
def test_search_rejects_jobs_below_one(bench_dataset, jobs):
    with pytest.raises(ConfigError, match="jobs"):
        search(bench_dataset, tiny_space(), "adbcr", seed=0, base=search_base(), jobs=jobs)


def test_search_danncr_mode(bench_dataset):
    result = search(bench_dataset, tiny_space(), "danncr", seed=0, base=search_base())
    assert result.records[0].status == "ok"
    assert result.best.model.kind == "danncr"


def test_select_by_nn_pehe_matches_manual(bench_dataset):
    space = tiny_space(learning_rate=(1e-4, 1e-2), draws=4)
    result = search(bench_dataset, space, "adbcr", seed=4, base=search_base())
    rows = bench_dataset.labeled_indices(data.VAL)
    x, t, y = bench_dataset.x[rows], bench_dataset.t[rows], bench_dataset.y_factual[rows]
    scores = []
    for res in result.results:
        y0, y1 = res.model.predict_potential_outcomes(x)
        scores.append(nn_pehe(x, t, y, y1 - y0))
    assert select_by_nn_pehe(result, bench_dataset) == int(np.argmin(scores))


def test_select_by_nn_pehe_one_search_bit_equal_scores(bench_dataset, monkeypatch):
    """One neighbour search per selection, scores bit-equal to per-run 1-D calls."""
    space = tiny_space(learning_rate=(1e-4, 1e-2), draws=3)
    result = search(bench_dataset, space, "adbcr", seed=4, base=search_base())
    rows = bench_dataset.labeled_indices(data.VAL)
    x, t, y = bench_dataset.x[rows], bench_dataset.t[rows], bench_dataset.y_factual[rows]
    singles = []
    for res in result.results:
        y0, y1 = res.model.predict_potential_outcomes(x)
        singles.append(nn_pehe(x, t, y, y1 - y0))
    searches, scores = [], []
    nearest, score_all = evaluation._nearest, evaluation.nn_pehe

    def counted_nearest(queries, pool):
        searches.append(queries.shape[0])
        return nearest(queries, pool)

    def recorded_nn_pehe(*args):
        scores.append(score_all(*args))
        return scores[-1]

    monkeypatch.setattr(evaluation, "_nearest", counted_nearest)
    monkeypatch.setattr(evaluation, "nn_pehe", recorded_nn_pehe)
    pick = select_by_nn_pehe(result, bench_dataset)
    assert len(searches) == 2
    assert scores[0].tobytes() == np.array(singles).tobytes()
    assert pick == int(np.argmin(singles))


class FixedEffect:
    """A stand-in fitted model whose effect estimate is a fixed function of x."""

    def __init__(self, effect):
        self.effect = effect

    def predict_potential_outcomes(self, x):
        return np.zeros(x.shape[0]), self.effect(x)


def fixed_result(effects) -> SearchResult:
    results = [None if e is None else SimpleNamespace(model=FixedEffect(e)) for e in effects]
    return SearchResult("adbcr", [], results, 0)


def test_select_by_nn_pehe_skips_nan_and_breaks_ties_low(bench_dataset):
    good = lambda x: x[:, 0]
    result = fixed_result([None, lambda x: np.full(x.shape[0], np.nan), lambda x: x[:, 1],
                           good, good, lambda x: x[:, 1]])
    rows = bench_dataset.labeled_indices(data.VAL)
    x, t, y = bench_dataset.x[rows], bench_dataset.t[rows], bench_dataset.y_factual[rows]
    assert nn_pehe(x, t, y, x[:, 0]) < nn_pehe(x, t, y, x[:, 1])
    assert select_by_nn_pehe(result, bench_dataset) == 3
    with pytest.raises(SearchError, match="no usable runs"):
        select_by_nn_pehe(fixed_result([None, None]), bench_dataset)
    with pytest.raises(SearchError, match="no usable runs"):
        select_by_nn_pehe(fixed_result([lambda x: np.full(x.shape[0], np.nan)]),
                          bench_dataset)


def test_run_table_format(bench_dataset, tmp_path):
    space = tiny_space(draws=2)
    result = search(bench_dataset, space, "adbcr", seed=5, base=search_base())
    path = tmp_path / "runs.csv"
    write_run_table(str(path), result)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(RUN_TABLE_COLUMNS)
    assert len(lines) == 3
    cells = lines[1].split(",")
    assert cells[0] == "0" and cells[1] == "ok"
    assert cells[4] == "8" and cells[5] == "6"
