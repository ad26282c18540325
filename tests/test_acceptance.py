"""Acceptance gate: one printed PASS/FAIL line per numbered check (run with -s)."""
import math
import time

import numpy as np
import pytest

from conftest import finite_difference, forward_head, lasso_cate, rel_err
from adbcr import data, objectives
from adbcr.autodiff import Adam, Tape, grads_for
from adbcr.baselines import fit_lasso_on_dataset, lasso_fit
from adbcr.cli import retain_freed_heap
from adbcr.evaluation import (SearchSpace, ate_error, nn_pehe, pehe, search,
                              select_by_nn_pehe, usable_cpus)
from adbcr.model import AdbcrModel, Scalers, load_model
from adbcr.objectives import BatchView, discriminative_distance, factual_loss
from adbcr.seeding import generator
from adbcr.trainer import (TrainConfig, labeled_view, make_batches, step_B,
                           step_C, train)

BENCH = dict(n=1000, d=10, bias_strength=2.0, effect_heterogeneity=1.0,
             nonlinearity="quadratic")
BENCH_SEEDS = tuple(range(10))
BENCH_SPACE = SearchSpace(
    architectures=[((50, 50), (50, 50)), ((50,), (50,)), ((20, 20), (20, 20)),
                   ((50, 50), (20,)), ((20,), (20, 20)), ((10, 10), (10,))],
    dropout=(0.1, 0.3),
    weight_decay=(0.01, 0.001),
    batch_size=(250,),
    learning_rate=(3e-4, 3e-3),
    k=(1,),
    adversary_weight=(0.01, 0.1),
    draws=2,
)
BENCH_BASE = TrainConfig(patience=20, max_epochs=100, imbalance_weight=0.3)


def report(tag: str, ok: bool, detail: str) -> None:
    """Print the gate line before asserting so FAIL lines always appear."""
    print(f"\n[gate] {tag}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"{tag}: {detail}"


def quick_config(**overrides) -> TrainConfig:
    base = dict(shared_layers=(8,), head_layers=(6,), dropout_p=0.1,
                batch_size=40, learning_rate=1e-3, patience=5, max_epochs=6, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


def out_sqrt_pehe(model, dataset, rows, tau) -> float:
    y0, y1 = model.predict_potential_outcomes(dataset.x[rows])
    return float(np.sqrt(pehe(tau, y1 - y0)))


@pytest.fixture(scope="module")
def bench_dataset() -> data.Dataset:
    config = data.DgpConfig(n=160, d=4, bias_strength=1.0, effect_heterogeneity=1.0,
                            noise_sd=0.5, nonlinearity="quadratic", seed=0)
    dataset, _ = data.generate(config)
    return data.split(dataset, seed=0)


@pytest.fixture(scope="module")
def benchmark_runs():
    """Per-seed (adbcr, a_tarnet, proxy-selected) test-split errors plus wall time.

    Runs with the allocator setting the CLI makes, and searches with two
    worker processes where two CPUs are usable, as `adbcr search --jobs 2` would.
    """
    retain_freed_heap()
    jobs = min(2, usable_cpus())
    start = time.time()
    records = []
    for seed in BENCH_SEEDS:
        dataset, _ = data.generate(data.DgpConfig(**BENCH, seed=seed))
        dataset = data.split(dataset, seed=seed)
        rows = dataset.indices(data.TEST)
        tau = dataset.tau_true()[rows]
        adbcr = search(dataset, BENCH_SPACE, mode="adbcr", seed=seed, jobs=jobs,
                       base=BENCH_BASE)
        tarnet = search(dataset, BENCH_SPACE, mode="a_tarnet", seed=seed, jobs=jobs,
                        base=BENCH_BASE)
        proxy = adbcr.results[select_by_nn_pehe(adbcr, dataset)]
        records.append((out_sqrt_pehe(adbcr.best.model, dataset, rows, tau),
                        out_sqrt_pehe(tarnet.best.model, dataset, rows, tau),
                        out_sqrt_pehe(proxy.model, dataset, rows, tau)))
    return records, time.time() - start


# ---------------------------------------------------------------------------
# 01: every analytic gradient of both loss terms matches central differences

def random_fidelity_case(rng):
    """Small network plus a batch whose l1 pools stay away from sign ties."""
    for _ in range(20):
        d = int(rng.integers(1, 9))
        shared = tuple(int(rng.integers(2, 17))
                       for _ in range(int(rng.integers(1, 3))))
        head = (int(rng.integers(2, 17)),)
        model = AdbcrModel(d, shared, head, dropout_p=0.0,
                           seed=int(rng.integers(1 << 16)))
        n = int(rng.integers(6, 11))
        x = rng.normal(size=(n, d))
        t = np.zeros(n, dtype=np.int64)
        t[rng.permutation(n)[:n // 2]] = 1
        y = rng.normal(size=n)
        # rows whose head-pair gap sits near zero would put the central
        # difference across the l1 kink, so they are dropped up front
        gap = np.empty(n)
        for arm in (0, 1):
            pool = np.flatnonzero(t == 1 - arm)
            gap[pool] = np.abs(forward_head(model, x[pool], arm, 0)[:, 0]
                               - forward_head(model, x[pool], arm, 1)[:, 0])
        keep = gap >= 1e-3
        if keep.any() and np.unique(t[keep]).size == 2:
            return model, BatchView(x=x[keep], t=t[keep], y=y[keep])
    pytest.fail("could not draw a batch clear of l1 ties")


def test_analytic_gradients_match_finite_differences():
    start = time.time()
    rng = np.random.default_rng(11)
    worst, checked = 0.0, 0
    for _ in range(25):
        model, batch = random_fidelity_case(rng)
        builders = [(lambda: factual_loss(model, batch),
                     lambda tape: factual_loss(model, batch, tape))]
        for metric in ("l1", "squared"):
            builders.append(
                (lambda m=metric: discriminative_distance(model, batch, m),
                 lambda tape, m=metric: discriminative_distance(model, batch, m, tape)))
        for value_fn, graph_fn in builders:
            tape = Tape()
            tape.backward(graph_fn(tape))
            grads = {k: g.copy() for k, g in
                     grads_for(tape, model.params.names()).items()}
            for name in model.params.names():
                numeric = finite_difference(value_fn, model.params[name])
                worst = max(worst, float(rel_err(grads[name], numeric).max()))
                checked += numeric.size
    elapsed = time.time() - start
    ok = worst < 1e-4 and elapsed < 30.0
    report("01 gradient-fidelity", ok,
           f"25 networks, {checked} partials, worst rel err {worst:.1e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 02: packaged Adam against an inline scalar reference on f(theta) = theta^2

def test_adam_matches_scalar_reference():
    params = {"theta": np.array([[1.0]])}
    opt = Adam(params, lr=0.05)
    theta, m, v = 1.0, 0.0, 0.0
    worst = 0.0
    for step in range(1, 201):
        g_pkg = 2.0 * params["theta"].copy()
        g = 2.0 * theta
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        m_hat = m / (1.0 - 0.9 ** step)
        v_hat = v / (1.0 - 0.999 ** step)
        theta -= 0.05 * m_hat / (math.sqrt(v_hat) + 1e-8)
        opt.step({"theta": g_pkg})
        worst = max(worst, abs(theta - float(params["theta"][0, 0])))
    ok = worst < 1e-10
    report("02 optimizer-oracle", ok,
           f"200 steps, max |gap| {worst:.1e}, final |theta| {abs(theta):.3f}")


# ---------------------------------------------------------------------------
# 03: phase freezes hold bit-exactly across every batch of a full epoch

def test_phase_freezes_hold_over_full_epoch(bench_dataset):
    rows = bench_dataset.labeled_indices(data.TRAIN)
    scalers = Scalers.fit(bench_dataset.x[rows], bench_dataset.y_factual[rows])
    view = labeled_view(bench_dataset, data.TRAIN, scalers)
    model = AdbcrModel(bench_dataset.x.shape[1], (8,), (6,), dropout_p=0.1, seed=3)
    rng = generator(3, "epoch")
    batches = make_batches(view, 40, rng)
    opt_heads = Adam(model.params.subset("heads."), lr=1e-3)
    opt_phi = Adam(model.params.subset("phi."), lr=1e-3)
    phi_ok = heads_ok = True
    for batch in batches:
        before = {k: a.copy() for k, a in model.params.subset("phi.").items()}
        step_B(model, batch, opt_heads, 1.0, rng)
        phi_ok = phi_ok and all(np.array_equal(a, model.params[k])
                                for k, a in before.items())
        before = {k: a.copy() for k, a in model.params.subset("heads.").items()}
        step_C(model, batch, opt_phi, 2, rng)
        heads_ok = heads_ok and all(np.array_equal(a, model.params[k])
                                    for k, a in before.items())
    report("03 freeze-contracts", phi_ok and heads_ok,
           f"{len(batches)} batches; shared frozen in B {phi_ok}, heads frozen in C {heads_ok}")


# ---------------------------------------------------------------------------
# 04: uadbcr with an empty pool reduces to adbcr; a_tarnet never builds D

def test_mode_reductions(bench_dataset):
    plain = train(bench_dataset, quick_config(mode="adbcr", seed=4))
    empty_pool = train(bench_dataset, quick_config(mode="uadbcr", seed=4))
    histories_equal = plain.history == empty_pool.history
    objectives.reset_distance_counter()
    train(bench_dataset, quick_config(mode="a_tarnet", seed=4))
    builds = objectives.distance_graph_builds
    ok = histories_equal and builds == 0
    report("04 mode-reductions", ok,
           f"empty-pool history bit-equal {histories_equal}, a_tarnet distance builds {builds}")


# ---------------------------------------------------------------------------
# 05: searched adversarial training against its factual twin on the benchmark

@pytest.mark.slow
def test_balancing_benefit_over_factual_twin(benchmark_runs):
    records, elapsed = benchmark_runs
    adbcr = [r[0] for r in records]
    tarnet = [r[1] for r in records]
    wins = sum(a < b for a, b in zip(adbcr, tarnet))
    mean_a, mean_t = float(np.mean(adbcr)), float(np.mean(tarnet))
    ok = mean_a <= mean_t and wins >= 7 and elapsed < 900.0
    report("05 balancing-benefit", ok,
           f"mean sqrt-PEHE adbcr {mean_a:.4f} vs a_tarnet {mean_t:.4f}, "
           f"adbcr lower {wins}/10 seeds, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 06: treatment-specific linear baseline beats the pooled one; pooled ATE holds

def test_lasso_baseline_orderings():
    t_wins = 0
    for seed in BENCH_SEEDS:
        dataset, _ = data.generate(data.DgpConfig(**BENCH, seed=seed))
        dataset = data.split(dataset, seed=seed)
        rows = dataset.indices(data.TEST)
        tau = dataset.tau_true()[rows]
        errs = {}
        for variant in ("single", "per_treatment"):
            model = fit_lasso_on_dataset(dataset, variant)
            errs[variant] = float(np.sqrt(pehe(tau, lasso_cate(model, dataset.x[rows]))))
        t_wins += errs["per_treatment"] < errs["single"]
    constant = dict(BENCH, effect_heterogeneity=0.0)
    ate_ok = 0
    for seed in BENCH_SEEDS:
        dataset, truth = data.generate(data.DgpConfig(**constant, seed=seed))
        dataset = data.split(dataset, seed=seed)
        rows = dataset.indices(data.TEST)
        model = fit_lasso_on_dataset(dataset, "single")
        estimate = float(np.mean(lasso_cate(model, dataset.x[rows])))
        ate_ok += abs(estimate - truth["true_ate"]) < 0.1
    ok = t_wins >= 8 and ate_ok >= 8
    report("06 linear-baseline-ordering", ok,
           f"t-lasso lower {t_wins}/10 seeds; constant-effect ATE within 0.1 in {ate_ok}/10")


# ---------------------------------------------------------------------------
# 07: intrinsic-criterion selection against the neighbour-proxy selection

@pytest.mark.slow
def test_intrinsic_selection_beats_nn_proxy(benchmark_runs):
    records, _ = benchmark_runs
    wins = sum(a <= p for a, _, p in records)
    mean_a = float(np.mean([r[0] for r in records]))
    mean_p = float(np.mean([r[2] for r in records]))
    ok = wins >= 6
    report("07 selection-ablation", ok,
           f"criterion pick <= proxy pick in {wins}/10 seeds "
           f"(means {mean_a:.4f} vs {mean_p:.4f})")


# ---------------------------------------------------------------------------
# 08: closed-form oracles for the metrics and the unpenalized linear solver

def test_metric_oracles_and_linear_solver():
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(50):
        tau_true = rng.normal(size=20)
        tau_hat = rng.normal(size=20)
        worst = max(worst, abs(pehe(tau_true, tau_hat)
                               - float(np.mean((tau_true - tau_hat) ** 2))))
        worst = max(worst, abs(ate_error(tau_true, tau_hat)
                               - abs(float(tau_true.mean() - tau_hat.mean()))))
        x = rng.normal(size=(20, 3))
        t = np.zeros(20, dtype=np.int64)
        t[rng.permutation(20)[:rng.integers(5, 16)]] = 1
        y = rng.normal(size=20)
        mean, sd = x.mean(axis=0), x.std(axis=0)
        z = (x - mean) / np.where(sd == 0.0, 1.0, sd)
        total = 0.0
        for i in range(20):
            others = np.flatnonzero(t != t[i])
            j = others[int(np.argmin(((z[others] - z[i]) ** 2).sum(axis=1)))]
            tilde = y[i] - y[j] if t[i] == 1 else y[j] - y[i]
            total += (tilde - tau_hat[i]) ** 2
        worst = max(worst, abs(nn_pehe(x, t, y, tau_hat) - total / 20))
    lasso_worst = 0.0
    for seed in range(20):
        rng_l = np.random.default_rng(seed)
        x = rng_l.normal(size=(10, 3))
        y = rng_l.normal(size=10)
        w, intercept = lasso_fit(x, y, 0.0)
        design = np.hstack([np.ones((10, 1)), x])
        beta = np.linalg.lstsq(design, y, rcond=None)[0]
        lasso_worst = max(lasso_worst,
                          float(np.max(np.abs(np.r_[intercept, w] - beta))))
    ok = worst < 1e-10 and lasso_worst < 1e-6
    report("08 metric-oracles", ok,
           f"metrics worst |gap| {worst:.1e} over 50 instances; "
           f"alpha=0 lasso vs normal equations {lasso_worst:.1e}")


# ---------------------------------------------------------------------------
# 09: byte-identical checkpoints per seed and bit-identical save/load predictions

def test_checkpoint_determinism_and_roundtrip(bench_dataset, tmp_path):
    config = quick_config(seed=9)
    first = train(bench_dataset, config)
    second = train(bench_dataset, config)
    paths = [tmp_path / "first.ckpt", tmp_path / "second.ckpt"]
    first.model.save(str(paths[0]))
    second.model.save(str(paths[1]))
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    reloaded = load_model(str(paths[0]))
    probe = np.random.default_rng(90).normal(size=(100, bench_dataset.x.shape[1]))
    a0, a1 = first.model.predict_potential_outcomes(probe)
    b0, b1 = reloaded.predict_potential_outcomes(probe)
    bitwise = np.array_equal(a0, b0) and np.array_equal(a1, b1)
    report("09 determinism-persistence", identical and bitwise,
           f"repeat-run checkpoints byte-identical {identical}, "
           f"reloaded predictions bit-identical {bitwise}")


# ---------------------------------------------------------------------------
# 10: generated propensities never leave the overlap interval

def test_propensity_overlap_bounds():
    dataset, _ = data.generate(data.DgpConfig(n=1_000_000, d=2,
                                              bias_strength=5.0, seed=10))
    lo = float(dataset.propensity.min())
    hi = float(dataset.propensity.max())
    ok = lo >= 0.05 and hi <= 0.95
    report("10 overlap-guarantee", ok,
           f"1e6 propensities span [{lo:.4f}, {hi:.4f}]")
