"""Performance measures, the nearest-neighbour proxy, and hyper-parameter search.

The effect-error metrics report the mean squared effect error (its square
root is the tabled quantity) and the absolute difference of mean effects.
The nearest-neighbour proxy imputes each row's counterfactual outcome from
the closest opposite-arm row on standardized covariates and scores an
estimate against those imputed effects; it needs no ground truth, which is
what makes it a model-selection baseline.

search() trains every sampled configuration through `adbcr.trainer.train`
and selects the run with the lowest stored criterion (the
distance-augmented validation criterion for adbcr/uadbcr, factual
validation MSE for a_tarnet/danncr). Runs that diverge are recorded as
failed and excluded rather than treated as infinitely bad. With jobs > 1
the runs train in worker processes forked from the caller: they inherit
the dataset (never pickled) and the caller's allocator settings, run
OpenBLAS on one thread each, and send back each run's record and result
by pickle.
"""
from __future__ import annotations

import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace

import numpy as np

from . import blas
from .data import TEST, TRAIN, VAL, Dataset, write_atomically
from .errors import ConfigError, DimensionError, DomainError, SearchError, TrainingError
from .model import Scalers
from .seeding import generator
from .trainer import TrainConfig, TrainResult, train

# Byte budget of nn_pehe's neighbour search: one query block's Gram distances
# plus the arrays of its candidates; memory stays flat in the number of rows.
NN_BLOCK_BYTES = 8 * 2 ** 20
# The factor c of the Gram-distance error bound delta in _nearest.
NN_GRAM_SLACK = 4


def _aligned(tau_true, tau_hat) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(tau_true, dtype=np.float64).reshape(-1)
    b = np.asarray(tau_hat, dtype=np.float64).reshape(-1)
    if a.shape != b.shape:
        raise DimensionError(f"effect vectors misaligned: {a.shape} vs {b.shape}")
    if a.size == 0:
        raise DomainError("effect vectors are empty")
    return a, b


def pehe(tau_true, tau_hat) -> float:
    """Mean squared effect error; report its square root in tables."""
    a, b = _aligned(tau_true, tau_hat)
    return float(np.mean((a - b) ** 2))


def ate_error(tau_true, tau_hat) -> float:
    """Absolute difference between mean true and mean estimated effects."""
    a, b = _aligned(tau_true, tau_hat)
    return float(abs(a.mean() - b.mean()))


def _nearest(queries: np.ndarray, pool: np.ndarray) -> np.ndarray:
    """Index of each query row's nearest pool row, the lowest on ties; rows must be finite.

    A block of query rows gets Gram distances |q|^2 + |p|^2 - 2 q.p from
    one matmul. A row's candidates are the pool rows whose Gram distance
    is within 2 delta of the row's smallest (see below), and they include
    every row nearest by sum((q - p)**2), the distance the search ranks by.
    A row with one candidate takes it. For any other row the candidates'
    distances are summed as sum((q - p)**2) over a contiguous last axis,
    the bits a whole-pool search gives them, and the lowest-index minimum
    wins. The Gram block takes at most half of NN_BLOCK_BYTES (or one query
    row, if a single row needs more), and candidates are measured in chunks
    of at most an eighth, so a pool whose rows all tie stays within budget.
    """
    n, d = queries.shape
    nearest = np.empty(n, dtype=np.intp)
    pool_norms = np.einsum("ij,ij->i", pool, pool)
    block = min(n, max(1, NN_BLOCK_BYTES // 2 // max(1, pool.shape[0] * 8)))
    buffer = np.empty((block, pool.shape[0]))
    chunk = max(1, NN_BLOCK_BYTES // 8 // (8 * (d + 1)))
    eps, tiny = np.finfo(np.float64).eps, np.finfo(np.float64).smallest_subnormal
    for start in range(0, n, block):
        q = queries[start:start + block]
        q_norms = np.einsum("ij,ij->i", q, q)
        gram = np.matmul(q, pool.T, out=buffer[:q.shape[0]])
        gram *= -2.0
        gram += q_norms[:, None]
        gram += pool_norms
        # delta bounds |g - e|, g a Gram distance and e what sum((q - p)**2)
        # rounds to. Let u = eps / 2 and S = |q|^2 + |p|^2. The two norms and
        # the dot product are sums of d products, each off by at most
        # gamma_d = d u / (1 - d u) of its sum of absolute terms, together
        # 2 gamma_d S; g's two additions add at most 4 u S (1 + O(u)). e is
        # off the true distance, at most 2 S, by gamma_(d+2) of it (a
        # subtraction, a square, d non-negative terms summed). So |g - e| <=
        # (2 d + 4) eps S (1 + O(u)), at most half of delta with c = 4, and
        # each of the 4 d products adds at most tiny / 2 if it underflows.
        # A row nearest by e then has g <= e + delta <= min g + 2 delta.
        delta = NN_GRAM_SLACK * (d + 3) * (eps * (q_norms + pool_norms.max()) + tiny)
        limit = gram.min(axis=1) + 2.0 * delta
        nearest[start:start + q.shape[0]] = gram.argmin(axis=1)
        tied = np.flatnonzero((gram <= limit[:, None]).sum(axis=1) > 1)
        for i in tied:
            candidates = np.flatnonzero(gram[i] <= limit[i])
            best, best_distance = -1, np.inf
            for lo in range(0, candidates.size, chunk):
                rows = candidates[lo:lo + chunk]
                diff = pool[rows]
                np.subtract(q[i], diff, out=diff)
                diff *= diff
                distances = diff.sum(axis=1)
                j = int(distances.argmin())
                if best < 0 or distances[j] < best_distance:
                    best, best_distance = int(rows[j]), distances[j]
            nearest[start + i] = best
    return nearest


def nn_pehe(x: np.ndarray, t: np.ndarray, y: np.ndarray, tau_hat) -> float | np.ndarray:
    """Effect error against nearest-neighbour-imputed counterfactual outcomes.

    Distances are Euclidean on covariates standardized over the given rows
    by `Scalers`; ties break toward the lowest row index. t must hold 0s
    and 1s, with both arms present, and x and y must be finite. The
    neighbour search (_nearest) stays within NN_BLOCK_BYTES whatever the
    number of rows, but the standardized copy of x and its per-arm copies
    grow with n.

    tau_hat is one estimate, shape (n,), scored as a float; or k estimates
    stacked as (k, n), scored as an array of k floats against one
    neighbour search, each equal to the float its row alone would give.
    """
    x = np.asarray(x, dtype=np.float64)
    t = np.asarray(t)
    y = np.asarray(y, dtype=np.float64)
    tau = np.asarray(tau_hat, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionError(f"nn_pehe needs 2-d covariates, got shape {x.shape}")
    n = x.shape[0]
    stacked = tau.ndim == 2 and tau.shape[1] == n
    if not stacked:
        tau = tau.reshape(-1)
    if t.shape != (n,) or y.shape != (n,) or tau.shape[-1:] != (n,):
        raise DimensionError("nn_pehe inputs misaligned")
    arm1 = np.flatnonzero(t == 1)
    arm0 = np.flatnonzero(t == 0)
    if arm1.size + arm0.size != n:
        raise DomainError("nn_pehe needs treatments of 0 or 1")
    if arm1.size == 0 or arm0.size == 0:
        raise DomainError("nn_pehe needs both treatment arms")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise DomainError("nn_pehe needs finite covariates and outcomes")
    z = Scalers.fit(x, y).standardize_x(x)
    if not np.isfinite(z).all():
        raise DomainError("nn_pehe's covariates overflow when standardized")
    imputed = np.empty(n)
    for rows, opposite in ((arm1, arm0), (arm0, arm1)):
        imputed[rows] = y[opposite[_nearest(z[rows], z[opposite])]]
    tau_tilde = np.where(t == 1, y - imputed, imputed - y)
    if not stacked:
        return float(np.mean((tau_tilde - tau) ** 2))
    return np.array([np.mean((tau_tilde - row) ** 2) for row in tau])


@dataclass
class MetricsReport:
    """One split's scores for one model; effect metrics need ground truth."""

    split: str
    n: int
    seed: int | None
    config_fingerprint: str | None
    factual_mse: float
    sqrt_pehe: float | None = None
    ate_error: float | None = None
    validation_criterion: float | None = None
    note: str = ""


REPORT_COLUMNS = ("split", "n", "seed", "config_fingerprint", "sqrt_pehe",
                  "ate_error", "factual_mse", "validation_criterion", "note")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_reports_csv(path: str, reports: list[MetricsReport]) -> None:
    with write_atomically(path, encoding="utf-8") as f:
        f.write(",".join(REPORT_COLUMNS) + "\n")
        for r in reports:
            f.write(",".join(_fmt(getattr(r, c)) for c in REPORT_COLUMNS) + "\n")


def effect_estimate(model, y0: np.ndarray, y1: np.ndarray) -> np.ndarray:
    """Each row's estimated effect, given the outcomes the model predicted for the rows.

    That is y1 - y0, except for a model with a constant_effect that is not
    None (the single-variant LassoModel), whose estimate is that value for
    every row; its y1 - y0 holds it only up to one rounding per row.
    """
    effect = getattr(model, "constant_effect", None)
    return y1 - y0 if effect is None else np.full(y0.shape, effect)


def evaluate_model(model, dataset: Dataset, rows: np.ndarray, split_label: str,
                   seed: int | None = None, fingerprint: str | None = None,
                   validation_criterion: float | None = None) -> MetricsReport:
    """Score a fitted model (any kind with predict_potential_outcomes) on rows.

    The effect metrics score effect_estimate of the one prediction.
    """
    y0, y1 = model.predict_potential_outcomes(dataset.x[rows])
    predicted_factual = np.where(dataset.t[rows] == 1, y1, y0)
    factual_mse = float(np.mean((predicted_factual - dataset.y_factual[rows]) ** 2))
    report = MetricsReport(split_label, int(rows.size), seed, fingerprint, factual_mse,
                           validation_criterion=validation_criterion)
    if dataset.has_ground_truth:
        tau = dataset.tau_true()[rows]
        tau_hat = effect_estimate(model, y0, y1)
        report.sqrt_pehe = math.sqrt(pehe(tau, tau_hat))
        report.ate_error = ate_error(tau, tau_hat)
    else:
        report.note = "no mu0/mu1 ground truth; effect metrics unavailable"
    return report


def standard_reports(model, dataset: Dataset, seed: int | None = None,
                     fingerprint: str | None = None,
                     validation_criterion: float | None = None) -> list[MetricsReport]:
    """The two conventional rows: within-sample (train+validation) and out-of-sample (test)."""
    within = np.concatenate([dataset.indices(TRAIN), dataset.indices(VAL)])
    out = dataset.indices(TEST)
    reports = []
    for label, rows in (("within", within), ("out", out)):
        if rows.size:
            reports.append(evaluate_model(model, dataset, rows, label, seed,
                                          fingerprint, validation_criterion))
    return reports


@dataclass
class SearchSpace:
    """Grid over architectures crossed with random draws of the rest.

    learning_rate is sampled log-uniformly from its (low, high) range; the
    other fields are drawn uniformly from their value lists.
    """

    architectures: list[tuple[tuple[int, ...], tuple[int, ...]]] = field(
        default_factory=lambda: [
            (shared, head)
            for shared in ((50, 50), (20, 20), (10, 10))
            for head in ((50, 50), (20, 20), (10,))
        ])
    dropout: tuple[float, ...] = (0.1, 0.3, 0.5)
    weight_decay: tuple[float, ...] = (1.0, 0.1, 0.01, 0.001)
    batch_size: tuple[int, ...] = (100, 250, 500)
    learning_rate: tuple[float, float] = (1e-5, 1e-2)
    k: tuple[int, ...] = (1, 2, 3)
    adversary_weight: tuple[float, ...] = (1.0,)
    draws: int = 1

    def __post_init__(self):
        if not self.architectures:
            raise ConfigError("search space lists no architectures")
        for name in ("dropout", "weight_decay", "batch_size", "k", "adversary_weight"):
            if len(getattr(self, name)) == 0:
                raise ConfigError(f"search space field {name} is empty")
        lo, hi = self.learning_rate
        if not (0 < lo <= hi):
            raise ConfigError(f"learning_rate range must satisfy 0 < low <= high, got {self.learning_rate}")
        if self.draws < 1:
            raise ConfigError(f"draws must be at least 1, got {self.draws}")


def _choice(rng: np.random.Generator, values):
    return values[int(rng.integers(len(values)))]


def sample_configs(space: SearchSpace, mode: str, seed: int,
                   base: TrainConfig | None = None) -> list[TrainConfig]:
    """Deterministic config list: architectures in order, draws within.

    Fields the space does not sample keep base's values.
    """
    base = base if base is not None else TrainConfig()
    rng = generator(seed, "search")
    lo, hi = space.learning_rate
    configs = []
    for shared, head in space.architectures:
        for _ in range(space.draws):
            lr = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
            configs.append(replace(
                base,
                shared_layers=tuple(shared),
                head_layers=tuple(head),
                dropout_p=float(_choice(rng, space.dropout)),
                weight_decay=float(_choice(rng, space.weight_decay)),
                batch_size=int(_choice(rng, space.batch_size)),
                learning_rate=lr,
                k=int(_choice(rng, space.k)),
                adversary_weight=float(_choice(rng, space.adversary_weight)),
                seed=int(rng.integers(2 ** 31 - 1)),
                mode=mode,
            ))
    return configs


@dataclass
class RunRecord:
    """One search run's outcome row."""

    index: int
    config: TrainConfig
    status: str
    message: str = ""
    best_value: float | None = None
    best_epoch: int | None = None
    epochs: int | None = None

    @property
    def fingerprint(self) -> str:
        return self.config.fingerprint()


@dataclass
class SearchResult:
    """All run records plus the criterion-selected best run."""

    mode: str
    records: list[RunRecord]
    results: list[TrainResult | None]
    best_index: int

    @property
    def best(self) -> TrainResult:
        return self.results[self.best_index]


def _run_one(dataset: Dataset, config: TrainConfig, index: int) -> tuple[RunRecord, TrainResult | None]:
    try:
        result = train(dataset, config)
    except TrainingError as e:
        return RunRecord(index, config, "failed", str(e)), None
    return RunRecord(index, config, "ok", "", result.best_value, result.best_epoch,
                     result.epochs_run), result


# The dataset a forked search worker trains on, set once by its initializer.
# Fork hands the initializer its argument in memory, so it is never pickled.
_worker_dataset: Dataset | None = None


def _start_worker(dataset: Dataset) -> None:
    """Initializer of a forked search worker: adopt the dataset, run BLAS on one thread.

    A worker inherits OpenBLAS's thread count, and N workers each running
    that many threads overload the CPUs: a 12-run gate search on 2 CPUs took
    70 s at jobs=2 against 22 s with one BLAS thread per worker, while at
    jobs=1 BLAS threads saved nothing (39 vs 38 s). The caller's own BLAS
    setting is left alone.
    """
    global _worker_dataset
    _worker_dataset = dataset
    blas.set_threads(1)


def _run_in_worker(config: TrainConfig, index: int) -> tuple[RunRecord, TrainResult | None]:
    return _run_one(_worker_dataset, config, index)


def usable_cpus() -> int:
    """CPUs this process may run on (all CPUs where affinity is unknown)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def search(dataset: Dataset, space: SearchSpace, mode: str, seed: int,
           jobs: int = 1, base: TrainConfig | None = None) -> SearchResult:
    """Train every sampled config; select the lowest stored criterion.

    Records keep config order, so equal criteria resolve to the earlier
    config and the search is deterministic given its seed, whatever jobs is.
    jobs above 1 forks that many worker processes, at most one per config
    and per usable CPU; where fork is unavailable the runs train in-process.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    configs = sample_configs(space, mode, seed, base)
    workers = min(jobs, len(configs), usable_cpus())
    if "fork" not in multiprocessing.get_all_start_methods():
        workers = 1
    if workers > 1:
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                 initializer=_start_worker, initargs=(dataset,)) as pool:
            try:
                outcomes = list(pool.map(_run_in_worker, configs, range(len(configs))))
            except BrokenProcessPool as e:
                raise SearchError(f"{mode} search (seed {seed}): a worker process "
                                  f"died: {e}") from e
    else:
        outcomes = [_run_one(dataset, config, i) for i, config in enumerate(configs)]
    records = [rec for rec, _ in outcomes]
    results = [res for _, res in outcomes]
    usable = [i for i, res in enumerate(results) if res is not None]
    if not usable:
        raise SearchError(f"all {len(configs)} runs failed; first error: {records[0].message}")
    best_index = min(usable, key=lambda i: results[i].best_value)
    return SearchResult(mode, records, results, best_index)


def select_by_nn_pehe(result: SearchResult, dataset: Dataset) -> int:
    """Index of the run whose validation-split effects best match the proxy.

    Runs whose score is NaN are skipped; equal scores go to the lower index.
    """
    rows = dataset.labeled_indices(VAL)
    x, t, y = dataset.x[rows], dataset.t[rows], dataset.y_factual[rows]
    effects = {}
    for i, res in enumerate(result.results):
        if res is not None:
            y0, y1 = res.model.predict_potential_outcomes(x)
            effects[i] = y1 - y0
    scores = nn_pehe(x, t, y, np.stack(list(effects.values()))) if effects else []
    best_index = -1
    best_score = math.inf
    for i, score in zip(effects, scores):
        if score < best_score:
            best_score = score
            best_index = i
    if best_index < 0:
        raise SearchError("no usable runs to select from")
    return best_index


RUN_TABLE_COLUMNS = ("index", "status", "fingerprint", "mode", "shared_layers",
                     "head_layers", "dropout_p", "weight_decay", "batch_size",
                     "learning_rate", "k", "adversary_weight", "seed",
                     "best_value", "best_epoch", "epochs", "message")


def write_run_table(path: str, result: SearchResult) -> None:
    """Per-run CSV in config order with a stable column set."""
    with write_atomically(path, encoding="utf-8") as f:
        f.write(",".join(RUN_TABLE_COLUMNS) + "\n")
        for rec in result.records:
            c = rec.config
            row = (rec.index, rec.status, rec.fingerprint, c.mode,
                   "x".join(map(str, c.shared_layers)), "x".join(map(str, c.head_layers)),
                   c.dropout_p, c.weight_decay, c.batch_size, c.learning_rate,
                   c.k, c.adversary_weight, c.seed, rec.best_value, rec.best_epoch,
                   rec.epochs, rec.message)
            f.write(",".join(_fmt(v) for v in row) + "\n")
