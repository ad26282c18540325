"""Lasso learners and the domain-discriminator contrast baseline."""
import numpy as np
import pytest

from adbcr import autodiff, data
from adbcr.autodiff import Adam, Tape
from adbcr.baselines import (DEFAULT_ALPHA_GRID, DanncrModel, coordinate_descent,
                             danncr_step_confuse, danncr_step_discriminate,
                             danncr_step_predict, danncr_train, danncr_validation, fit_lasso,
                             _fit_learners, _stratified_folds, fit_lasso_on_dataset, lasso_fit,
                             select_alpha, soft_threshold)
from adbcr.errors import ConfigError, DatasetError
from adbcr.evaluation import pehe
from adbcr.model import Network, load_model
from adbcr.objectives import BatchView
from adbcr.seeding import generator
from adbcr.trainer import TrainConfig

from conftest import head_forward, lasso_cate, small_benchmark


def lasso_objective(x: np.ndarray, y: np.ndarray, w: np.ndarray, intercept: float,
                    alpha: float) -> float:
    """The solver's objective for input-scale weights (penalty on the standardized scale)."""
    sd = x.std(axis=0)
    residual = y - x @ w - intercept
    return float(0.5 * np.mean(residual * residual) + alpha * np.sum(np.abs(w * sd)))


def regression_problem(seed: int = 0, n: int = 50, d: int = 3):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    w = rng.normal(size=d)
    y = x @ w + 0.5 + 0.1 * rng.normal(size=n)
    return x, y


def separable_batch(seed: int = 0, n: int = 200):
    """Treatment is a deterministic function of the first covariate."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 3))
    t = (x[:, 0] > 0).astype(np.int64)
    return BatchView(x=x, t=t, y=rng.normal(size=n))


def danncr_config(**overrides) -> TrainConfig:
    base = dict(shared_layers=(8,), head_layers=(6,), dropout_p=0.1,
                batch_size=40, learning_rate=1e-3, patience=5, max_epochs=6,
                seed=0, mode="danncr")
    base.update(overrides)
    return TrainConfig(**base)


# ---------------------------------------------------------------------------
# soft threshold and coordinate descent

def test_soft_threshold_values():
    assert soft_threshold(2.0, 0.5) == 1.5
    assert soft_threshold(-2.0, 0.5) == -1.5
    assert soft_threshold(0.3, 0.5) == 0.0
    assert soft_threshold(-0.5, 0.5) == 0.0
    assert soft_threshold(1.0, 0.0) == 1.0


def test_lasso_one_covariate_closed_form():
    """d=1 coordinate descent lands on S(z'y/n, alpha) exactly."""
    rng = np.random.default_rng(1)
    x = rng.normal(size=(40, 1))
    y = 2.0 * x[:, 0] + 1.0 + 0.1 * rng.normal(size=40)
    for alpha in (0.0, 0.1, 0.5, 5.0):
        w, b = lasso_fit(x, y, alpha)
        mean, sd = x.mean(), x.std()
        z = (x[:, 0] - mean) / sd
        rho = float(z @ (y - y.mean())) / 40
        expect_std = soft_threshold(rho, alpha) / float(z @ z / 40)
        np.testing.assert_allclose(w[0], expect_std / sd, rtol=1e-12)
        np.testing.assert_allclose(b, y.mean() - w[0] * mean, rtol=1e-12)


def test_lasso_alpha_zero_matches_normal_equations():
    """Unpenalized fit agrees with least squares on a 10x3 problem."""
    x, y = regression_problem(seed=2, n=10, d=3)
    w, b = lasso_fit(x, y, 0.0)
    design = np.column_stack([x, np.ones(10)])
    ref, *_ = np.linalg.lstsq(design, y, rcond=None)
    np.testing.assert_allclose(w, ref[:3], atol=1e-6)
    np.testing.assert_allclose(b, ref[3], atol=1e-6)


def test_lasso_huge_alpha_zeroes_weights():
    x, y = regression_problem(seed=3)
    w, b = lasso_fit(x, y, 1e6)
    np.testing.assert_array_equal(w, np.zeros(3))
    assert b == y.mean()


def test_lasso_objective_non_increasing_over_sweeps():
    x, y = regression_problem(seed=4, n=60, d=5)
    previous = np.inf
    for sweeps in (1, 2, 3, 5, 10):
        w, b = lasso_fit(x, y, 0.05, max_sweeps=sweeps)
        value = lasso_objective(x, y, w, b, 0.05)
        assert value <= previous + 1e-12
        previous = value


def test_lasso_matches_exhaustive_grid_one_covariate():
    """The d=1 solution beats every point of a fine grid over w."""
    rng = np.random.default_rng(5)
    x = rng.normal(size=(50, 1))
    y = 1.5 * x[:, 0] + 0.3 * rng.normal(size=50)
    alpha = 0.2
    w, b = lasso_fit(x, y, alpha)
    grid = np.linspace(-3.0, 3.0, 60001)
    sd = x.std()
    resid = y[:, None] - x @ grid[None, :] - (y.mean() - grid * x.mean())[None, :]
    objectives = 0.5 * np.mean(resid * resid, axis=0) + alpha * np.abs(grid) * sd
    best = grid[int(np.argmin(objectives))]
    assert abs(w[0] - best) < 1e-4
    assert lasso_objective(x, y, w, b, alpha) <= objectives.min() + 1e-12


def test_lasso_constant_column_gets_zero_weight():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(30, 3))
    x[:, 1] = 7.0
    y = x[:, 0] + rng.normal(size=30) * 0.1
    w, b = lasso_fit(x, y, 0.01)
    assert w[1] == 0.0
    assert np.isfinite(b)


def test_lasso_input_validation():
    x, y = regression_problem()
    with pytest.raises(ConfigError):
        lasso_fit(x, y, -0.1)
    with pytest.raises(DatasetError):
        lasso_fit(x[:1], y[:1], 0.1)


@pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
def test_lasso_rejects_non_finite_alpha(alpha):
    x, y = regression_problem()
    with pytest.raises(ConfigError, match="alpha"):
        lasso_fit(x, y, alpha)


def test_coordinate_descent_zero_column_stays_zero():
    rng = np.random.default_rng(7)
    z = rng.normal(size=(20, 2))
    z[:, 1] = 0.0
    w, _ = coordinate_descent(z, rng.normal(size=20), 0.01)
    assert w[1] == 0.0


# ---------------------------------------------------------------------------
# effect predictions

def test_single_variant_effect_is_constant():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(80, 4))
    t = np.tile([0, 1], 40)
    y = x[:, 0] + 2.0 * t + rng.normal(size=80) * 0.1
    model = fit_lasso(x, t, y, "single", grid=(0.01,))
    tau = lasso_cate(model, x)
    assert np.all(tau == tau[0])
    assert tau[0] == model.learners[0][0][-1]


def test_per_treatment_identical_models_zero_effect():
    x, y = regression_problem(seed=9, n=60)
    t = np.tile([0, 1], 30)
    model = fit_lasso(x, t, y, "per_treatment", grid=(0.1,))
    model.learners[1] = model.learners[0]
    np.testing.assert_array_equal(lasso_cate(model, x), np.zeros(60))


def test_per_treatment_beats_single_on_heterogeneous_effects():
    """Separate arm models win on PEHE for strongly varying effects, 8 of 10 seeds."""
    wins = 0
    for seed in range(10):
        ds = small_benchmark(seed=seed, n=200, het=1.0)
        tau = ds.tau_true()
        single = fit_lasso_on_dataset(ds, "single", seed=seed)
        per_t = fit_lasso_on_dataset(ds, "per_treatment", seed=seed)
        wins += pehe(tau, lasso_cate(per_t, ds.x)) < pehe(tau, lasso_cate(single, ds.x))
    assert wins >= 8


@pytest.mark.parametrize("variant", ["single", "per_treatment"])
def test_lasso_learners_are_lasso_fits(variant):
    """A one-entry grid fits each learner with lasso_fit at that alpha, bit for bit."""
    x, y = regression_problem(seed=14, n=70, d=3)
    t = (np.random.default_rng(14).random(70) < 0.4).astype(np.int64)
    model = fit_lasso(x, t, y, variant, grid=(0.05,))
    if variant == "single":
        expected = [lasso_fit(np.column_stack([x, t]), y, 0.05)]
    else:
        expected = [lasso_fit(x[t == arm], y[t == arm], 0.05) for arm in (0, 1)]
    assert model.alpha == 0.05
    assert len(model.learners) == len(expected)
    for (w, b), (w_ref, b_ref) in zip(model.learners, expected):
        np.testing.assert_array_equal(w, w_ref)
        assert b == b_ref


def test_fit_lasso_variant_validation():
    x, y = regression_problem()
    with pytest.raises(ConfigError):
        fit_lasso(x, np.zeros(50, dtype=np.int64), y, "x_learner")


# ---------------------------------------------------------------------------
# alpha selection

def test_select_alpha_grid_of_one():
    x, y = regression_problem(seed=10, n=60)
    t = np.tile([0, 1], 30)
    assert select_alpha(x, t, y, "single", grid=(0.42,)) == 0.42


def test_select_alpha_empty_grid_rejected():
    x, y = regression_problem()
    with pytest.raises(ConfigError):
        select_alpha(x, np.tile([0, 1], 25), y, "single", grid=())


def test_select_alpha_deterministic():
    x, y = regression_problem(seed=11, n=100, d=4)
    t = np.tile([0, 1], 50)
    a1 = select_alpha(x, t, y, "per_treatment", seed=5)
    a2 = select_alpha(x, t, y, "per_treatment", seed=5)
    assert a1 == a2


def test_select_alpha_pure_noise_prefers_largest():
    """Noise-only outcomes pick the strongest shrinkage in at least 7 of 10 seeds."""
    hits = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(400, 5))
        t = (rng.random(400) < 0.5).astype(np.int64)
        y = rng.normal(size=400)
        hits += select_alpha(x, t, y, "single", DEFAULT_ALPHA_GRID, seed=seed) == 100.0
    assert hits >= 7


@pytest.mark.parametrize("variant", ["single", "per_treatment"])
def test_select_alpha_matches_refitting_every_fold_and_alpha(variant):
    """Standardizing a fold's rows once picks the alpha that a lasso_fit per fold
    and alpha picks, on a grid fine enough that the pick is inside it."""
    grid = tuple(np.geomspace(1e-3, 1.0, 12))
    for seed in range(3):
        x, y = regression_problem(seed=20 + seed, n=150, d=4)
        t = (np.random.default_rng(seed).random(150) < 0.4).astype(np.int64)
        y = y + 0.5 * t + np.random.default_rng(seed).normal(size=150)
        fold_of = _stratified_folds(t, 5, generator(seed, "lasso-cv"))
        errors = np.zeros(len(grid))
        for gi, alpha in enumerate(grid):
            for fold in range(5):
                hold = fold_of == fold
                learners = _fit_learners(x[~hold], t[~hold], y[~hold], variant, alpha)
                if variant == "single":
                    (w, b), = learners
                    pred = np.column_stack([x[hold], t[hold]]) @ w + b
                else:
                    pred = np.choose(t[hold], [x[hold] @ w + b for w, b in learners])
                errors[gi] += float(np.mean((pred - y[hold]) ** 2))
        expected = grid[len(grid) - 1 - int(np.argmin(errors[::-1]))]
        assert select_alpha(x, t, y, variant, grid, seed=seed) == expected


def test_select_alpha_folds_keep_both_arms():
    """Heavy imbalance still yields per-arm fits inside every fold."""
    rng = np.random.default_rng(12)
    x = rng.normal(size=(60, 2))
    t = np.zeros(60, dtype=np.int64)
    t[:7] = 1
    y = x[:, 0] + t + 0.1 * rng.normal(size=60)
    alpha = select_alpha(x, t, y, "per_treatment", seed=0)
    assert alpha in DEFAULT_ALPHA_GRID


# ---------------------------------------------------------------------------
# lasso checkpoints

def test_lasso_checkpoint_round_trip(tmp_path):
    x, y = regression_problem(seed=13, n=80, d=4)
    t = np.tile([0, 1], 40)
    for variant in ("single", "per_treatment"):
        model = fit_lasso(x, t, y, variant, grid=(0.05,))
        path = str(tmp_path / f"{variant}.ckpt")
        model.save(path, config={"mode": variant})
        loaded = load_model(path)
        np.testing.assert_array_equal(lasso_cate(loaded, x), lasso_cate(model, x))
        y0a, y1a = model.predict_potential_outcomes(x)
        y0b, y1b = loaded.predict_potential_outcomes(x)
        np.testing.assert_array_equal(y0a, y0b)
        np.testing.assert_array_equal(y1a, y1b)


# ---------------------------------------------------------------------------
# danncr steps

def test_danncr_predict_step_freezes_discriminator():
    batch = separable_batch(0)
    model = DanncrModel(3, (8,), (6,), dropout_p=0.1, seed=0)
    disc_before = {k: v.copy() for k, v in model.params.subset("disc.").items()}
    opt = Adam(model.params.subset("phi.", "heads."), lr=1e-3)
    danncr_step_predict(model, batch, opt, generator(0, "dropout"))
    for name, value in disc_before.items():
        np.testing.assert_array_equal(model.params[name], value)


def test_danncr_discriminate_step_freezes_predictors():
    batch = separable_batch(1)
    model = DanncrModel(3, (8,), (6,), dropout_p=0.1, seed=1)
    frozen = {k: v.copy() for k, v in model.params.subset("phi.", "heads.").items()}
    disc_before = {k: v.copy() for k, v in model.params.subset("disc.").items()}
    opt = Adam(model.params.subset("disc."), lr=1e-3)
    danncr_step_discriminate(model, batch, opt, generator(1, "dropout"))
    for name, value in frozen.items():
        np.testing.assert_array_equal(model.params[name], value)
    assert any(not np.array_equal(model.params[k], v) for k, v in disc_before.items())


def test_danncr_confuse_step_touches_only_phi():
    batch = separable_batch(2)
    model = DanncrModel(3, (8,), (6,), dropout_p=0.1, seed=2)
    frozen = {k: v.copy() for k, v in model.params.subset("heads.", "disc.").items()}
    phi_before = {k: v.copy() for k, v in model.params.subset("phi.").items()}
    opt = Adam(model.params.subset("phi."), lr=1e-3)
    danncr_step_confuse(model, batch, opt, 1.0, generator(2, "dropout"))
    for name, value in frozen.items():
        np.testing.assert_array_equal(model.params[name], value)
    assert any(not np.array_equal(model.params[k], v) for k, v in phi_before.items())


def test_danncr_confuse_weight_zero_is_identity():
    """Reversal weight 0 zeroes the gradient, so no parameter moves."""
    batch = separable_batch(3)
    model = DanncrModel(3, (8,), (6,), dropout_p=0.1, seed=3)
    snap = model.params.snapshot()
    opt = Adam(model.params.subset("phi."), lr=1e-3)
    danncr_step_confuse(model, batch, opt, 0.0, generator(3, "dropout"))
    for name, value in snap.items():
        np.testing.assert_array_equal(model.params[name], value)


def test_danncr_discriminator_learns_separable_treatments():
    """With the representation frozen at init, accuracy passes 0.95."""
    batch = separable_batch(4)
    model = DanncrModel(3, (8,), (6,), dropout_p=0.0, seed=4)
    opt = Adam(model.params.subset("disc."), lr=1e-2)
    drop = generator(4, "dropout")
    for _ in range(200):
        danncr_step_discriminate(model, batch, opt, drop)
    tape = Tape()
    h = model.phi_forward(tape, tape.constant(batch.x))
    logits = model.stack_forward(tape, "disc", h).data
    accuracy = float(np.mean(np.argmax(logits, axis=1) == batch.t))
    assert accuracy > 0.95


def test_danncr_validation_forwards_phi_once(monkeypatch):
    """One shared forward feeds heads and discriminator; values equal two separate forwards."""
    batch = separable_batch(5, n=60)
    model = DanncrModel(3, (8, 7), (6,), dropout_p=0.3, seed=5)
    tape = Tape()
    factual = None
    for t in (0, 1):
        h = model.phi_forward(tape, tape.constant(batch.x))
        rows = np.flatnonzero(batch.t == t)
        pred = autodiff.take_rows(tape, head_forward(model, tape, f"head.{t}", h), rows)
        term = autodiff.mse_loss(tape, pred, tape.constant(batch.y[rows].reshape(-1, 1)))
        factual = term if factual is None else autodiff.add(tape, factual, term)
    h = model.phi_forward(tape, tape.constant(batch.x))
    ce = autodiff.softmax_cross_entropy(tape, model.stack_forward(tape, "disc", h), batch.t)

    calls = []
    phi_forward = Network.phi_forward
    monkeypatch.setattr(Network, "phi_forward",
                        lambda self, *args, **kw: calls.append(1) or phi_forward(self, *args, **kw))
    record = danncr_validation(model, batch)
    assert len(calls) == 1
    assert record.factual == record.criterion == float(factual.data[0, 0])
    assert record.distance == float(ce.data[0, 0])


# ---------------------------------------------------------------------------
# danncr full runs

def test_danncr_train_selects_on_factual(bench_dataset, tmp_path):
    path = tmp_path / "h.tsv"
    result = danncr_train(bench_dataset, danncr_config(), history_path=str(path))
    assert all(rec.criterion == rec.factual for rec in result.history)
    assert all(rec.distance is not None for rec in result.history)
    assert result.best_value == min(rec.criterion for rec in result.history)
    lines = path.read_text().splitlines()
    assert lines[0].split("\t") == ["epoch", "factual", "distance", "criterion"]
    assert len(lines) == 1 + result.epochs_run


def test_danncr_train_deterministic(bench_dataset):
    r1 = danncr_train(bench_dataset, danncr_config())
    r2 = danncr_train(bench_dataset, danncr_config())
    assert [rec.criterion for rec in r1.history] == [rec.criterion for rec in r2.history]
    for name in r1.model.params.names():
        np.testing.assert_array_equal(r1.model.params[name], r2.model.params[name])


def test_danncr_checkpoint_round_trip(bench_dataset, tmp_path):
    result = danncr_train(bench_dataset, danncr_config(max_epochs=3))
    path = str(tmp_path / "danncr.ckpt")
    result.model.save(path, config=result.config.to_dict())
    loaded = load_model(path)
    x = bench_dataset.x[:20]
    y0a, y1a = result.model.predict_potential_outcomes(x)
    y0b, y1b = loaded.predict_potential_outcomes(x)
    np.testing.assert_array_equal(y0a, y0b)
    np.testing.assert_array_equal(y1a, y1b)


def test_danncr_rejects_net_modes(bench_dataset):
    with pytest.raises(ConfigError):
        danncr_train(bench_dataset, danncr_config(mode="adbcr"))
