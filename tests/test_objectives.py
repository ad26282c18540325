"""Loss terms: factual sum, discriminative distance, validation criterion.

Eval-mode values are read off build_losses on a tape that records nothing,
and the criterion off trainer.evaluate_validation.
"""
import math
import pickle

import numpy as np
import pytest

from adbcr import autodiff, baselines, objectives, trainer
from adbcr import model as model_module
from adbcr.autodiff import Tape, grads_for
from adbcr.baselines import DanncrModel
from adbcr.errors import BatchCompositionError, ConfigError, DimensionError
from adbcr.model import AdbcrModel, Network
from adbcr.objectives import METRICS, BatchView, build_losses
from adbcr.seeding import generator
from adbcr.trainer import TrainConfig, evaluate_validation

from conftest import by_checkpoint_name, forward_head, head_forward, per_head_forward

HEAD_KEYS = ((0, 0), (0, 1), (1, 0), (1, 1))


def random_batch(seed: int, n: int = 10, d: int = 3, unlabeled: int = 0) -> BatchView:
    rng = np.random.default_rng(seed)
    t = np.zeros(n, dtype=np.int64)
    t[rng.permutation(n)[:n // 2]] = 1
    return BatchView(
        x=rng.normal(size=(n, d)),
        t=t,
        y=rng.normal(size=n),
        unlabeled_x=rng.normal(size=(unlabeled, d)) if unlabeled else None,
    )


def constant_head_model(outputs: dict[tuple[int, int], float], d: int = 2) -> AdbcrModel:
    """Model whose head (t, r) outputs a constant regardless of input."""
    model = AdbcrModel(d, (2,), (1,), dropout_p=0.0, seed=0)
    for name in model.params.names():
        model.params[name][...] = 0.0
    arrays = model.checkpoint_arrays()
    for (t, r), value in outputs.items():
        arrays[f"head.{t}.{r}.1.b"][...] = value
    return model


# ---------------------------------------------------------------------------
# factual loss

def test_factual_zero_for_exact_fit():
    model = constant_head_model({key: 0.0 for key in HEAD_KEYS})
    batch = BatchView(x=np.zeros((4, 2)), t=np.array([0, 1, 0, 1]), y=np.zeros(4))
    factual, _ = build_losses(model, batch, Tape(recording=False), need_distance=False)
    assert factual.data[0, 0] == 0.0


def test_factual_four_unit_errors():
    """All heads output 1 on y=0 rows, one per arm: 1+1+1+1 = 4."""
    model = constant_head_model({key: 1.0 for key in HEAD_KEYS})
    batch = BatchView(x=np.zeros((2, 2)), t=np.array([0, 1]), y=np.zeros(2))
    factual, _ = build_losses(model, batch, Tape(recording=False), need_distance=False)
    assert factual.data[0, 0] == 4.0


@pytest.mark.parametrize("network, arms", [
    (AdbcrModel, (("head.0.0", "head.0.1"), ("head.1.0", "head.1.1"))),
    (DanncrModel, (("head.0",), ("head.1",))),
], ids=["adbcr", "danncr"])
def test_factual_compositional_oracle(network, arms):
    """Equals the per-head MSE terms of every arm, each head run on its own."""
    model = network(3, (5, 4), (3,), dropout_p=0.0, seed=2)
    batch = random_batch(7, n=12)
    expect = 0.0
    for t, heads in enumerate(arms):
        rows = np.flatnonzero(batch.t == t)
        for prefix in heads:
            tape = Tape()
            h = model.phi_forward(tape, tape.constant(batch.x[rows]))
            pred = head_forward(model, tape, prefix, h).data[:, 0]
            expect += np.mean((pred - batch.y[rows]) ** 2)
    factual, _ = build_losses(model, batch, Tape(recording=False), need_distance=False)
    np.testing.assert_allclose(factual.data[0, 0], expect, rtol=1e-12)


def test_factual_missing_arm_rejected():
    model = AdbcrModel(2, (2,), (1,), dropout_p=0.0, seed=0)
    batch = BatchView(x=np.zeros((3, 2)), t=np.ones(3, dtype=np.int64), y=np.zeros(3))
    with pytest.raises(BatchCompositionError):
        build_losses(model, batch, Tape(recording=False), need_distance=False)


def test_factual_row_permutation_invariant():
    model = AdbcrModel(3, (4,), (3,), dropout_p=0.0, seed=4)
    batch = random_batch(9, n=10)
    perm = np.random.default_rng(1).permutation(10)
    permuted = BatchView(x=batch.x[perm], t=batch.t[perm], y=batch.y[perm])
    factual, _ = build_losses(model, batch, Tape(recording=False), need_distance=False)
    again, _ = build_losses(model, permuted, Tape(recording=False), need_distance=False)
    np.testing.assert_allclose(factual.data[0, 0], again.data[0, 0], rtol=1e-12)


# ---------------------------------------------------------------------------
# discriminative distance

def test_distance_zero_for_tied_heads():
    model = constant_head_model({(0, 0): 0.7, (0, 1): 0.7, (1, 0): -0.2, (1, 1): -0.2})
    batch = random_batch(3, n=8, d=2)
    for metric in METRICS:
        _, dist = build_losses(model, batch, Tape(recording=False), need_factual=False,
                               metric=metric)
        assert dist.data[0, 0] == 0.0


def test_distance_unit_gap_both_metrics():
    """t=1 pair outputs (1, 0) on one control row, t=0 pair tied: both metrics 1."""
    model = constant_head_model({(0, 0): 0.3, (0, 1): 0.3, (1, 0): 1.0, (1, 1): 0.0})
    batch = BatchView(x=np.zeros((2, 2)), t=np.array([0, 1]), y=np.zeros(2))
    for metric in METRICS:
        _, dist = build_losses(model, batch, Tape(recording=False), need_factual=False,
                               metric=metric)
        assert dist.data[0, 0] == 1.0


def test_distance_compositional_oracle():
    """Equals per-arm mean absolute head gap on opposite-arm rows."""
    model = AdbcrModel(3, (5,), (4,), dropout_p=0.0, seed=5)
    batch = random_batch(11, n=14)
    expect = 0.0
    for t in (0, 1):
        pool = np.flatnonzero(batch.t == 1 - t)
        a = forward_head(model, batch.x[pool], t, 0)[:, 0]
        b = forward_head(model, batch.x[pool], t, 1)[:, 0]
        expect += np.mean(np.abs(a - b))
    _, dist = build_losses(model, batch, Tape(recording=False), need_factual=False)
    np.testing.assert_allclose(dist.data[0, 0], expect, rtol=1e-12)


def test_distance_pool_includes_unlabeled():
    model = AdbcrModel(3, (5,), (4,), dropout_p=0.0, seed=6)
    batch = random_batch(13, n=10, unlabeled=5)
    expect = 0.0
    for t in (0, 1):
        pool_x = np.vstack([batch.x[batch.t == 1 - t], batch.unlabeled_x])
        a = forward_head(model, pool_x, t, 0)[:, 0]
        b = forward_head(model, pool_x, t, 1)[:, 0]
        expect += np.mean(np.abs(a - b))
    _, dist = build_losses(model, batch, Tape(recording=False), need_factual=False)
    np.testing.assert_allclose(dist.data[0, 0], expect, rtol=1e-12)


def test_distance_empty_pool_rejected():
    model = AdbcrModel(2, (2,), (1,), dropout_p=0.0, seed=0)
    treated_only = BatchView(x=np.zeros((3, 2)), t=np.ones(3, dtype=np.int64), y=np.zeros(3))
    with pytest.raises(BatchCompositionError):
        build_losses(model, treated_only, Tape(recording=False), need_factual=False)
    # unlabeled rows rescue the empty pool
    rescued = BatchView(x=np.zeros((3, 2)), t=np.ones(3, dtype=np.int64), y=np.zeros(3),
                        unlabeled_x=np.zeros((2, 2)))
    _, dist = build_losses(model, rescued, Tape(recording=False), need_factual=False)
    assert dist.data[0, 0] >= 0.0


def test_distance_nonnegative_property():
    for seed in range(8):
        model = AdbcrModel(3, (4,), (3,), dropout_p=0.0, seed=seed)
        batch = random_batch(seed + 100, n=9)
        for metric in METRICS:
            _, dist = build_losses(model, batch, Tape(recording=False), need_factual=False,
                                   metric=metric)
            assert dist.data[0, 0] >= 0.0


def test_squared_equals_l1_on_unit_gaps():
    """With every pointwise gap exactly 0 or 1 the two metrics agree."""
    model = constant_head_model({(0, 0): 0.5, (0, 1): 0.5, (1, 0): 2.0, (1, 1): 1.0})
    batch = random_batch(15, n=8, d=2)
    _, l1 = build_losses(model, batch, Tape(recording=False), need_factual=False, metric="l1")
    _, sq = build_losses(model, batch, Tape(recording=False), need_factual=False,
                         metric="squared")
    assert l1.data[0, 0] == sq.data[0, 0] == 1.0


def test_metric_validated():
    model = AdbcrModel(2, (2,), (1,), dropout_p=0.0, seed=0)
    with pytest.raises(ConfigError):
        build_losses(model, random_batch(0, d=2), Tape(recording=False), need_factual=False,
                     metric="l3")


# ---------------------------------------------------------------------------
# graph parity and instrumentation

def test_single_forward_keeps_dropout_stream_aligned():
    """Dropout draws are identical whether or not the distance term is built."""
    model = AdbcrModel(3, (6, 5), (4,), dropout_p=0.4, seed=8)
    batch = random_batch(17, n=12)
    values = []
    for need_distance in (True, False):
        tape = Tape()
        loss, _ = build_losses(model, batch, tape, rng=generator(0, "dropout"),
                               need_distance=need_distance)
        values.append(loss.data[0, 0])
    assert values[0] == values[1]
    values = []
    for need_factual in (True, False):
        tape = Tape()
        _, dist = build_losses(model, batch, tape, rng=generator(0, "dropout"),
                               need_factual=need_factual)
        values.append(dist.data[0, 0])
    assert values[0] == values[1]


def test_distance_graph_counter():
    """+0 for a build without the distance, +1 for each build with it, eval or not."""
    model = AdbcrModel(2, (2,), (1,), dropout_p=0.0, seed=0)
    batch = random_batch(19, d=2)
    before = objectives.distance_graph_builds
    build_losses(model, batch, Tape(recording=False), need_distance=False)
    evaluate_validation(model, batch, TrainConfig(mode="a_tarnet"))
    assert objectives.distance_graph_builds == before
    build_losses(model, batch, Tape(), need_factual=False)
    assert objectives.distance_graph_builds == before + 1
    evaluate_validation(model, batch, TrainConfig())
    assert objectives.distance_graph_builds == before + 2


def test_distance_graph_counter_in_row_blocks(monkeypatch):
    """Validation in one-row blocks still builds one distance graph (adbcr) or none."""
    monkeypatch.setattr(model_module, "EVAL_BLOCK_BYTES", 1)
    batch = random_batch(19, n=12, d=2)
    before = objectives.distance_graph_builds
    evaluate_validation(AdbcrModel(2, (3,), (2,), dropout_p=0.1, seed=0), batch, TrainConfig())
    assert objectives.distance_graph_builds == before + 1
    evaluate_validation(AdbcrModel(2, (3,), (2,), dropout_p=0.1, seed=0), batch,
                        TrainConfig(mode="a_tarnet"))
    baselines.danncr_validation(DanncrModel(2, (3,), (2,), dropout_p=0.1, seed=0), batch)
    assert objectives.distance_graph_builds == before + 1


def test_batchview_alignment_checks():
    with pytest.raises(DimensionError):
        BatchView(x=np.zeros((3, 2)), t=np.zeros(2, dtype=np.int64), y=np.zeros(3))
    with pytest.raises(DimensionError):
        BatchView(x=np.zeros((3, 2)), t=np.zeros(3, dtype=np.int64), y=np.zeros(3),
                  unlabeled_x=np.zeros((2, 5)))


# ---------------------------------------------------------------------------
# validation criterion

def test_validation_zero_for_perfect_tied_model():
    model = constant_head_model({key: 0.0 for key in HEAD_KEYS})
    batch = BatchView(x=np.zeros((4, 2)), t=np.array([0, 1, 0, 1]), y=np.zeros(4))
    assert evaluate_validation(model, batch, TrainConfig()).criterion == 0.0


def test_validation_is_sum_of_components():
    """The criterion is the factual loss plus the weighted distance, each built alone."""
    model = AdbcrModel(3, (4,), (3,), dropout_p=0.0, seed=10)
    batch = random_batch(21, n=12)
    factual, _ = build_losses(model, batch, Tape(recording=False), need_distance=False)
    _, dist = build_losses(model, batch, Tape(recording=False), need_factual=False)
    factual, dist = factual.data[0, 0], dist.data[0, 0]
    np.testing.assert_allclose(evaluate_validation(model, batch, TrainConfig()).criterion,
                               factual + dist, rtol=1e-14)
    weighted = evaluate_validation(model, batch, TrainConfig(imbalance_weight=0.25))
    np.testing.assert_allclose(weighted.criterion, factual + 0.25 * dist, rtol=1e-14)


def test_validation_deterministic_despite_dropout_config():
    """Dropout plays no role: repeated eval of a dropout model is bit-stable."""
    model = AdbcrModel(3, (6,), (4,), dropout_p=0.5, seed=11)
    batch = random_batch(23, n=10)
    assert evaluate_validation(model, batch, TrainConfig()) == \
        evaluate_validation(model, batch, TrainConfig())


def test_validation_decreases_as_heads_agree():
    """Interpolating one head pair toward agreement lowers the criterion

    while the factual part stays fixed: the pair differs only through a
    feature that is zero on its factual rows and positive on its pool rows.
    """
    model = AdbcrModel(2, (2,), (1,), dropout_p=0.0, seed=0)
    for name in model.params.names():
        model.params[name][...] = 0.0
    model.params["phi.0.w"][...] = np.eye(2)
    heads = model.checkpoint_arrays()
    beta, gamma = 0.4, -0.9
    a0, a1 = 2.0, 0.5
    for r, a in ((0, a0), (1, a1)):
        heads[f"head.1.{r}.0.w"][...] = [[0.0], [a]]
        heads[f"head.1.{r}.1.w"][...] = [[1.0]]
        heads[f"head.1.{r}.1.b"][...] = beta
    for r in (0, 1):
        heads[f"head.0.{r}.1.b"][...] = gamma
    # control row carries the distinguishing feature; treated row zeroes it
    batch = BatchView(x=np.array([[1.0, 0.8], [1.0, 0.0]]),
                      t=np.array([0, 1]), y=np.array([gamma, beta]))
    assert evaluate_validation(model, batch, TrainConfig()).factual == 0.0
    previous = np.inf
    for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
        heads["head.1.1.0.w"][...] = [[0.0], [(1 - lam) * a1 + lam * a0]]
        record = evaluate_validation(model, batch, TrainConfig())
        assert record.factual == 0.0
        assert record.criterion < previous
        previous = record.criterion
    assert previous == 0.0


# ---------------------------------------------------------------------------
# stacked heads against the per-head graph, bit for bit

def per_head_losses(model, batch: BatchView, tape: Tape, rng, metric: str):
    """(factual, distance) built per head: each head its own graph, rows taken from each."""
    n, m = batch.x.shape[0], batch.n_unlabeled
    x = np.vstack([batch.x, batch.unlabeled_x]) if m else batch.x
    _, outs = per_head_forward(model, tape, x, rng)
    factual = distance = None
    for t, heads in enumerate(outs):
        rows = np.flatnonzero(batch.t == t)
        for out in heads:
            pred = autodiff.take_rows(tape, out, rows)
            term = autodiff.mse_loss(tape, pred, tape.constant(batch.y[rows].reshape(-1, 1)))
            factual = term if factual is None else autodiff.add(tape, factual, term)
    point_metric = autodiff.l1_mean if metric == "l1" else autodiff.mse_loss
    for t, heads in enumerate(outs):
        if len(heads) < 2:
            break
        pool = np.concatenate([np.flatnonzero(batch.t == 1 - t), n + np.arange(m)])
        a, b = (autodiff.take_rows(tape, out, pool) for out in heads)
        term = point_metric(tape, a, b)
        distance = term if distance is None else autodiff.add(tape, distance, term)
    return factual, distance


def stacked_case(kind: str):
    network = DanncrModel if kind == "danncr" else AdbcrModel
    model = network(3, (6, 5), (4, 3), dropout_p=0.3, seed=9)
    return model, random_batch(21, n=16, unlabeled=7 if kind == "uadbcr" else 0)


@pytest.mark.parametrize("kind", ["adbcr", "uadbcr", "danncr"])
def test_stacked_heads_equal_per_head_outputs(kind):
    """In training mode with dropout, every member of forward_heads' stack is its head's
    per-head output, bit for bit."""
    model, batch = stacked_case(kind)
    x = np.vstack([batch.x, batch.unlabeled_x]) if batch.n_unlabeled else batch.x
    tape = Tape()
    _, heads = model.forward_heads(tape, tape.constant(x), np.random.default_rng(4))
    assert heads.shape == (sum(map(len, model.ARMS)), x.shape[0], 1)
    for t, members in enumerate(model.arm_members):
        for r, member in enumerate(members):
            np.testing.assert_array_equal(
                heads.data[member], forward_head(model, x, t, r, np.random.default_rng(4)))


# (network kind, step): the step's objective and the parameters its optimizer owns.
STEP_CASES = [(kind, step) for kind in ("adbcr", "uadbcr") for step in "ABC"] + [("danncr", "A")]


@pytest.mark.parametrize("metric", ["l1", "squared"])
@pytest.mark.parametrize("kind, step", STEP_CASES)
def test_stacked_step_objectives_and_gradients_equal_per_head(kind, step, metric):
    """Step A (factual), B (factual - w * distance, heads) and C (distance, phi)
    objectives and gradients equal those of the per-head graph, bit for bit."""
    model, batch = stacked_case(kind)
    prefixes = {"A": ("phi.", "heads."), "B": ("heads.",), "C": ("phi.",)}[step]
    names = list(model.params.subset(*prefixes))
    # The per-head graph's head parameters carry checkpoint names: "head.<t>.<r>.<layer>...".
    ref_names = [name for name in model.checkpoint_arrays()
                 if name.startswith(tuple(p.replace("heads.", "head.") for p in prefixes))]

    def objective(tape, factual, distance):
        if step == "B":
            return autodiff.sub(tape, factual, autodiff.scale(tape, distance, 0.7))
        return distance if step == "C" else factual

    tape = Tape()
    root = objective(tape, *build_losses(model, batch, tape, rng=np.random.default_rng(6),
                                         metric=metric, need_factual=step != "C",
                                         need_distance=step != "A"))
    ref_tape = Tape()
    ref_root = objective(ref_tape, *per_head_losses(model, batch, ref_tape,
                                                    np.random.default_rng(6), metric))
    np.testing.assert_array_equal(root.data, ref_root.data)
    tape.backward(root, names)
    ref_tape.backward(ref_root, ref_names)
    grads = by_checkpoint_name(model, grads_for(tape, names))
    ref_grads = grads_for(ref_tape, ref_names)
    assert sorted(grads) == sorted(ref_names)
    for name in ref_names:
        np.testing.assert_array_equal(grads[name], ref_grads[name], err_msg=name)


# ---------------------------------------------------------------------------
# eval-only forwards on a tape that records nothing

def _as_recorded(monkeypatch, module) -> list:
    """Make module build recording tapes only; returns the recording flag of each request."""
    asked = []

    def recording_tape(recording=True):
        asked.append(recording)
        return Tape()

    monkeypatch.setattr(module, "Tape", recording_tape)
    return asked


EVAL_SITES = {
    "predict-adbcr": (model_module, AdbcrModel, lambda m, v: m.predict_potential_outcomes(v.x)),
    "predict-danncr": (model_module, DanncrModel,
                       lambda m, v: m.predict_potential_outcomes(v.x)),
    "evaluate_validation-adbcr": (trainer, AdbcrModel, lambda m, v: evaluate_validation(
        m, v, TrainConfig(metric="squared", imbalance_weight=0.5))),
    "evaluate_validation-a_tarnet": (trainer, AdbcrModel, lambda m, v: evaluate_validation(
        m, v, TrainConfig(mode="a_tarnet"))),
    "danncr_validation": (baselines, DanncrModel, baselines.danncr_validation),
}


@pytest.mark.parametrize("site", list(EVAL_SITES))
def test_eval_sites_use_a_non_recording_tape_bit_equal(monkeypatch, site):
    """Each eval-only forward asks for a tape that records nothing and gives
    the bits it gives on a recording tape."""
    module, network, call = EVAL_SITES[site]
    model = network(3, (6, 5), (4, 3), dropout_p=0.3, seed=4)
    view = random_batch(seed=2, n=14, unlabeled=5)
    loose = pickle.dumps(call(model, view))
    asked = _as_recorded(monkeypatch, module)
    recorded = pickle.dumps(call(model, view))
    assert asked == [False]
    assert loose == recorded


def _values(result) -> np.ndarray:
    """An eval site's numbers: the (y0, y1) predictions, or a record's finite fields."""
    if isinstance(result, tuple):
        return np.concatenate(result)
    return np.array([v for v in (result.factual, result.distance, result.criterion)
                     if v is not None])


@pytest.mark.parametrize("rows", [1, 7])
@pytest.mark.parametrize("site", list(EVAL_SITES))
def test_eval_sites_in_row_blocks_match_the_whole_split(monkeypatch, site, rows):
    """With a block budget of `rows` rows, each eval-only forward runs ceil(n / rows)
    blocks, and its values stay within 1e-10 relative of the one-block forward."""
    _, network, call = EVAL_SITES[site]
    model = network(3, (6, 5), (4, 3), dropout_p=0.3, seed=4)
    view = random_batch(seed=2, n=60, unlabeled=5)
    whole = _values(call(model, view))
    widest = max(*model.shared_layers, *model.head_layers)
    monkeypatch.setattr(model_module, "EVAL_BLOCK_BYTES",
                        8 * len(model.head_prefixes) * widest * rows)
    blocks = []
    forward_heads = Network.forward_heads
    monkeypatch.setattr(Network, "forward_heads",
                        lambda self, *args: blocks.append(1) or forward_heads(self, *args))
    blocked = _values(call(model, view))
    n = 65 if site.startswith("evaluate_validation") else 60   # build_losses adds the pool
    assert len(blocks) == math.ceil(n / rows)
    np.testing.assert_allclose(blocked, whole, rtol=1e-10, atol=0)
