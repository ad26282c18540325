"""Training loop: batching, the three steps, early stopping, determinism."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adbcr import data, objectives
from adbcr.autodiff import Adam
from adbcr.errors import ConfigError, DatasetError, TrainingError
from adbcr.model import AdbcrModel, Scalers, load_checkpoint
from adbcr.objectives import BatchView, discriminative_distance, factual_loss
from adbcr.seeding import generator
from adbcr.trainer import (MODES, TrainConfig, labeled_view, make_batches, phase_optimizer,
                           step_A, step_B, step_C, train)

from conftest import small_benchmark


def quick_config(**overrides) -> TrainConfig:
    base = dict(shared_layers=(8,), head_layers=(6,), dropout_p=0.1,
                batch_size=40, learning_rate=1e-3, patience=5, max_epochs=8, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


def fresh_setup(seed: int = 0, n: int = 60, dropout: float = 0.1):
    """Model plus one stratified standardized batch for step-level tests."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 3))
    t = np.zeros(n, dtype=np.int64)
    t[rng.permutation(n)[:n // 2]] = 1
    y = x[:, 0] + t * (1.0 + x[:, 1]) + 0.1 * rng.normal(size=n)
    batch = BatchView(x=x, t=t, y=y)
    model = AdbcrModel(3, (8,), (6,), dropout_p=dropout, seed=seed)
    return model, batch


# ---------------------------------------------------------------------------
# TrainConfig validation

def test_config_invariants():
    with pytest.raises(ConfigError):
        quick_config(k=0)
    with pytest.raises(ConfigError):
        quick_config(patience=0)
    with pytest.raises(ConfigError):
        quick_config(batch_size=1)
    with pytest.raises(ConfigError):
        quick_config(learning_rate=0.0)
    with pytest.raises(ConfigError):
        quick_config(mode="cfrnet")
    with pytest.raises(ConfigError):
        quick_config(metric="l3")
    with pytest.raises(ConfigError):
        quick_config(max_epochs=0)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
@pytest.mark.parametrize("field", ["learning_rate", "weight_decay", "adversary_weight",
                                   "imbalance_weight"])
def test_config_rejects_non_finite_or_negative_knobs(field, value):
    with pytest.raises(ConfigError, match=field):
        quick_config(**{field: value})


def test_config_fingerprint_ignores_field_order():
    a = quick_config(seed=1)
    b = quick_config(seed=1)
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != quick_config(seed=2).fingerprint()


# ---------------------------------------------------------------------------
# make_batches

def test_batches_partition_rows():
    """n=100, batch 25: 4 batches covering every row exactly once."""
    rng = np.random.default_rng(0)
    t = np.zeros(100, dtype=np.int64)
    t[rng.permutation(100)[:50]] = 1
    view = BatchView(x=np.arange(100.0).reshape(100, 1), t=t, y=rng.normal(size=100))
    batches = make_batches(view, 25, np.random.default_rng(1))
    assert len(batches) == 4
    seen = np.concatenate([b.x[:, 0] for b in batches])
    assert sorted(seen) == list(range(100))


def test_batches_stratified_under_imbalance():
    """3 treated rows with batch 25: every batch keeps at least one treated row."""
    rng = np.random.default_rng(2)
    t = np.zeros(100, dtype=np.int64)
    t[:3] = 1
    view = BatchView(x=rng.normal(size=(100, 2)), t=t, y=rng.normal(size=100))
    batches = make_batches(view, 25, np.random.default_rng(3))
    assert len(batches) == 3
    for b in batches:
        assert (b.t == 1).sum() >= 1 and (b.t == 0).sum() >= 1


def test_batches_unlabeled_proportional():
    """40 unlabeled rows over 4 batches: 10 each."""
    rng = np.random.default_rng(4)
    t = np.tile([0, 1], 50)
    view = BatchView(x=rng.normal(size=(100, 2)), t=t, y=rng.normal(size=100),
                     unlabeled_x=rng.normal(size=(40, 2)))
    batches = make_batches(view, 25, np.random.default_rng(5))
    assert [b.n_unlabeled for b in batches] == [10, 10, 10, 10]


def test_batches_tiny_arm_rejected():
    rng = np.random.default_rng(6)
    t = np.zeros(10, dtype=np.int64)
    t[0] = 1
    view = BatchView(x=rng.normal(size=(10, 2)), t=t, y=rng.normal(size=10))
    with pytest.raises(DatasetError):
        make_batches(view, 5, np.random.default_rng(7))


def test_batches_rng_untouched_without_unlabeled():
    """An absent unlabeled pool draws nothing: batch order matches exactly."""
    rng = np.random.default_rng(8)
    t = np.tile([0, 1], 20)
    x = rng.normal(size=(40, 2))
    y = rng.normal(size=40)
    with_pool = BatchView(x=x, t=t, y=y, unlabeled_x=np.zeros((0, 2)))
    without = BatchView(x=x, t=t, y=y)
    a = make_batches(with_pool, 10, np.random.default_rng(9))
    b = make_batches(without, 10, np.random.default_rng(9))
    for ba, bb in zip(a, b):
        np.testing.assert_array_equal(ba.x, bb.x)
        assert ba.n_unlabeled == bb.n_unlabeled == 0


@settings(max_examples=200, deadline=None)
@given(n_t=st.integers(2, 40), n_c=st.integers(2, 40), batch_size=st.integers(2, 90),
       n_unlabeled=st.integers(0, 30), seed=st.integers(0, 2 ** 32 - 1))
def test_batches_cover_both_arms_and_partition_rows(n_t, n_c, batch_size, n_unlabeled, seed):
    """Any arm sizes and pool: a partition, both arms per batch, and the documented count."""
    n = n_t + n_c
    t = np.random.default_rng(seed).permutation(np.repeat([1, 0], [n_t, n_c]))
    ids = np.arange(float(n))
    view = BatchView(x=ids[:, None], t=t, y=ids.copy(),
                     unlabeled_x=np.arange(float(n_unlabeled))[:, None])
    rng = np.random.default_rng(seed)
    batches = make_batches(view, batch_size, rng)
    assert len(batches) == min(math.ceil(n / batch_size), n_t, n_c)
    rows = np.concatenate([b.x[:, 0] for b in batches]).astype(np.int64)
    assert sorted(rows) == list(range(n))
    pool = [b.unlabeled_x[:, 0] for b in batches if b.unlabeled_x is not None]
    assert sorted(np.concatenate(pool or [np.empty(0)])) == list(range(n_unlabeled))
    for b in batches:
        assert (b.t == 1).any() and (b.t == 0).any()
        assert np.array_equal(b.t, t[b.x[:, 0].astype(np.int64)]) and np.array_equal(b.y, b.x[:, 0])
    if n_unlabeled == 0:
        bare = np.random.default_rng(seed)
        again = make_batches(BatchView(x=view.x, t=t, y=view.y), batch_size, bare)
        assert rng.bit_generator.state == bare.bit_generator.state
        assert all(np.array_equal(a.x, b.x) for a, b in zip(batches, again))


# ---------------------------------------------------------------------------
# the three steps

def test_phase_optimizer_rejects_a_prefix_matching_nothing():
    """A stale prefix would give its phase an empty Adam and freeze what it should train."""
    model, _ = fresh_setup(0)
    with pytest.raises(ConfigError, match=r"\['head\.'\] match no adbcr parameter"):
        phase_optimizer(model, TrainConfig(), "phi.", "head.")
    assert phase_optimizer(model, TrainConfig(), "phi.", "heads.").names() == model.params.names()


def test_step_a_descends():
    """Factual loss drops on re-evaluation for fresh models, 18 of 20 seeds."""
    wins = 0
    for seed in range(20):
        model, batch = fresh_setup(seed, dropout=0.0)
        opt = Adam(model.params.subset("phi.", "heads."), lr=1e-3)
        before = factual_loss(model, batch)
        step_A(model, batch, opt, generator(seed, "dropout"))
        wins += factual_loss(model, batch) < before
    assert wins >= 18


def test_step_a_zero_lr_no_move():
    model, batch = fresh_setup(0)
    snap = model.params.snapshot()
    opt = Adam(model.params.subset("phi.", "heads."), lr=0.0)
    step_A(model, batch, opt, generator(0, "dropout"))
    for name, value in snap.items():
        np.testing.assert_array_equal(model.params[name], value)


def test_step_a_reaches_all_heads():
    """Every parameter moves, each head's own layers included."""
    model, batch = fresh_setup(1)
    snap = {name: a.copy() for name, a in model.checkpoint_arrays().items()}
    opt = Adam(model.params.subset("phi.", "heads."), lr=1e-3)
    step_A(model, batch, opt, generator(1, "dropout"))
    for name, array in model.checkpoint_arrays().items():
        assert not np.array_equal(array, snap[name]), name


def test_step_b_freezes_phi():
    model, batch = fresh_setup(2)
    phi_before = {k: v.copy() for k, v in model.params.subset("phi.").items()}
    opt = Adam(model.params.subset("heads."), lr=1e-3)
    step_B(model, batch, opt, 1.0, generator(2, "dropout"))
    for name, value in phi_before.items():
        np.testing.assert_array_equal(model.params[name], value)


def test_step_b_weight_zero_equals_heads_only_step_a():
    """adversary_weight 0 reproduces a heads-restricted factual step bit-exactly."""
    m1, batch = fresh_setup(3, dropout=0.3)
    m2, _ = fresh_setup(3, dropout=0.3)
    o1 = Adam(m1.params.subset("heads."), lr=1e-3)
    o2 = Adam(m2.params.subset("heads."), lr=1e-3)
    step_B(m1, batch, o1, 0.0, generator(3, "dropout"))
    step_A(m2, batch, o2, generator(3, "dropout"))
    for name in m1.params.names():
        np.testing.assert_array_equal(m1.params[name], m2.params[name])


def test_step_c_freezes_heads_and_descends():
    model, batch = fresh_setup(4, dropout=0.0)
    heads_before = {k: v.copy() for k, v in model.params.subset("heads.").items()}
    opt = Adam(model.params.subset("phi."), lr=1e-3)
    before = discriminative_distance(model, batch, "l1")
    step_C(model, batch, opt, 3, generator(4, "dropout"))
    for name, value in heads_before.items():
        np.testing.assert_array_equal(model.params[name], value)
    wins = 0
    for seed in range(20):
        m, b = fresh_setup(seed + 50, dropout=0.0)
        o = Adam(m.params.subset("phi."), lr=1e-3)
        d0 = discriminative_distance(m, b, "l1")
        step_C(m, b, o, 3, generator(seed, "dropout"))
        wins += discriminative_distance(m, b, "l1") < d0
    assert wins >= 18


def test_step_b_raises_distance_after_factual_training():
    """For a factual-converged model the adversarial step widens the gap, 18/20."""
    wins = 0
    for seed in range(20):
        model, batch = fresh_setup(seed + 100, dropout=0.0)
        opt_a = Adam(model.params.subset("phi.", "heads."), lr=1e-3)
        rng = generator(seed, "dropout")
        for _ in range(30):
            step_A(model, batch, opt_a, rng)
        opt_b = Adam(model.params.subset("heads."), lr=1e-3)
        before = discriminative_distance(model, batch, "l1")
        step_B(model, batch, opt_b, 1.0, rng)
        wins += discriminative_distance(model, batch, "l1") > before
    assert wins >= 18


# ---------------------------------------------------------------------------
# full runs

@pytest.mark.parametrize("mode", ["adbcr", "danncr"])
def test_train_deterministic(bench_dataset, tmp_path, mode):
    config = quick_config(mode=mode)
    r1 = train(bench_dataset, config, history_path=str(tmp_path / "h1.tsv"))
    r2 = train(bench_dataset, config, history_path=str(tmp_path / "h2.tsv"))
    assert [rec.criterion for rec in r1.history] == [rec.criterion for rec in r2.history]
    assert r1.best_epoch == r2.best_epoch
    for name in r1.model.params.names():
        np.testing.assert_array_equal(r1.model.params[name], r2.model.params[name])
    assert (tmp_path / "h1.tsv").read_text() == (tmp_path / "h2.tsv").read_text()


@pytest.mark.parametrize("mode", ["adbcr", "danncr"])
def test_train_best_is_history_min(bench_dataset, mode):
    result = train(bench_dataset, quick_config(mode=mode, max_epochs=15))
    criteria = [rec.criterion for rec in result.history]
    assert result.best_value == min(criteria)
    assert result.best_epoch == criteria.index(min(criteria)) + 1


def test_train_restored_model_reproduces_best(bench_dataset):
    """Recomputing the criterion on the returned model matches the stored best."""
    config = quick_config(max_epochs=12)
    result = train(bench_dataset, config)
    scalers = result.model.scalers
    val = labeled_view(bench_dataset, data.VAL, scalers)
    recomputed = objectives.validation_criterion(result.model, val, config.metric,
                                                 config.imbalance_weight)
    assert abs(recomputed - result.best_value) < 1e-10


@pytest.mark.parametrize("mode", ["adbcr", "danncr"])
def test_train_patience_stops_run(mode):
    """A criterion that never improves stops after 1 + patience epochs."""
    dataset = small_benchmark(seed=3)
    config = quick_config(mode=mode, learning_rate=1e-20, patience=3, max_epochs=50)
    result = train(dataset, config)
    assert result.epochs_run == 1 + 3
    assert result.best_epoch == 1


def test_train_uadbcr_empty_pool_matches_adbcr(bench_dataset):
    """No unlabeled rows: the uadbcr trajectory is the adbcr one, bit for bit."""
    ra = train(bench_dataset, quick_config(mode="adbcr", max_epochs=6))
    ru = train(bench_dataset, quick_config(mode="uadbcr", max_epochs=6))
    assert [(r.factual, r.distance, r.criterion) for r in ra.history] == \
           [(r.factual, r.distance, r.criterion) for r in ru.history]
    for name in ra.model.params.names():
        np.testing.assert_array_equal(ra.model.params[name], ru.model.params[name])


def test_train_uadbcr_uses_stripped_rows(bench_dataset):
    """Stripping test rows changes the trajectory and drops them from training."""
    stripped = data.strip_outcomes(bench_dataset, bench_dataset.indices(data.TEST))
    assert stripped.unlabeled_rows().size == bench_dataset.indices(data.TEST).size
    ra = train(bench_dataset, quick_config(mode="uadbcr", max_epochs=4))
    ru = train(stripped, quick_config(mode="uadbcr", max_epochs=4))
    assert [r.criterion for r in ra.history] != [r.criterion for r in ru.history]


def test_train_a_tarnet_skips_distance(bench_dataset, tmp_path):
    """a_tarnet builds no distance graph and logs no distance column."""
    objectives.reset_distance_counter()
    result = train(bench_dataset, quick_config(mode="a_tarnet", max_epochs=5),
                   history_path=str(tmp_path / "h.tsv"))
    assert objectives.distance_graph_builds == 0
    assert all(rec.distance is None for rec in result.history)
    assert all(rec.criterion == rec.factual for rec in result.history)
    header = (tmp_path / "h.tsv").read_text().splitlines()[0]
    assert header.split("\t") == ["epoch", "factual", "criterion"]


# Checkpoint kind and history.tsv columns that each mode of the table must produce.
MODE_OUTPUTS = {
    "adbcr": ("adbcr", ["epoch", "factual", "distance", "criterion"]),
    "uadbcr": ("adbcr", ["epoch", "factual", "distance", "criterion"]),
    "a_tarnet": ("adbcr", ["epoch", "factual", "criterion"]),
    "danncr": ("danncr", ["epoch", "factual", "distance", "criterion"]),
}


@pytest.mark.parametrize("mode", list(MODES))
def test_train_serves_every_mode(bench_dataset, tmp_path, mode):
    """One train() runs every mode of the table into its own network kind."""
    kind, columns = MODE_OUTPUTS[mode]
    result = train(bench_dataset, quick_config(mode=mode, max_epochs=3),
                   history_path=str(tmp_path / "h.tsv"))
    result.model.save(str(tmp_path / "model.ckpt"), config=result.config.to_dict())
    assert load_checkpoint(str(tmp_path / "model.ckpt"))[1]["kind"] == kind
    lines = (tmp_path / "h.tsv").read_text().splitlines()
    assert lines[0].split("\t") == columns
    assert len(lines) == 1 + result.epochs_run


def test_train_history_file_schema(bench_dataset, tmp_path):
    path = tmp_path / "h.tsv"
    result = train(bench_dataset, quick_config(max_epochs=4), history_path=str(path))
    lines = path.read_text().splitlines()
    assert lines[0].split("\t") == ["epoch", "factual", "distance", "criterion"]
    assert len(lines) == 1 + result.epochs_run
    first = lines[1].split("\t")
    assert float(first[1]) == result.history[0].factual
    assert float(first[2]) == result.history[0].distance
    assert float(first[3]) == result.history[0].criterion


def test_train_requires_split():
    dataset, _ = data.generate(data.DgpConfig(n=60, d=3, seed=0))
    dataset = data.Dataset(x=dataset.x, t=dataset.t, y_factual=dataset.y_factual,
                           y_cf=None, mu0=None, mu1=None, split=None)
    with pytest.raises(DatasetError):
        train(dataset, quick_config())


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_train_divergence_raises():
    dataset = small_benchmark(seed=5)
    with pytest.raises(TrainingError):
        train(dataset, quick_config(learning_rate=1e60, max_epochs=30, patience=30))


def test_train_scalers_from_train_split_only(bench_dataset):
    result = train(bench_dataset, quick_config(max_epochs=2))
    rows = bench_dataset.labeled_indices(data.TRAIN)
    expect = Scalers.fit(bench_dataset.x[rows], bench_dataset.y_factual[rows])
    np.testing.assert_array_equal(result.model.scalers.x_mean, expect.x_mean)
    assert result.model.scalers.y_mean == expect.y_mean
