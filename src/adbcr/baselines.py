"""Comparison estimators: S-Lasso, T-Lasso, and the DANNCR contrast model.

The Lasso solver is cyclic coordinate descent with soft thresholding on
internally standardized covariates, minimizing

    (1/2n) * ||y - Xw - b||^2 + alpha * ||w||_1

with an unpenalized intercept; the penalty applies on the standardized
scale and the returned weights are mapped back to the input scale. The
a_tarnet ablation is a trainer mode, not a class here.

DANNCR keeps the shared representation but pairs one outcome head per
treatment (its `ARMS`) with a two-logit domain discriminator (its extra
stack). Its entry in `adbcr.trainer.MODES`, registered here, runs three
phases per batch, each ending in `adbcr.trainer.descend`: one prediction step
(representation and heads on the factual loss of
`adbcr.objectives.build_losses`, shared with adbcr), one discriminator step
(cross entropy on the discriminator alone), and one confusion step
(representation against the discriminator via a negated gradient).
Selection uses factual validation MSE; the history's distance column holds
the discriminator's validation cross entropy.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import autodiff
from .autodiff import Adam, Tape
from .data import TRAIN, VAL, Dataset
from .errors import ConfigError, DatasetError, DimensionError
from .model import (CHECKPOINT_LOADERS, Network, check_arrays, check_columns, header_field,
                    valid_int, valid_real, write_checkpoint)
from .objectives import BatchView, build_losses, factual_term
from .seeding import generator
from .trainer import (MODES, EpochRecord, TrainConfig, TrainResult, _finite_scalar, descend,
                      phase_optimizer, train)

DEFAULT_ALPHA_GRID = (0.001, 0.01, 0.1, 1.0, 10.0, 100.0)
# Checkpoint array names of each variant's learners, in learner order.
LASSO_ARRAYS = {"single": (("w", "b"),), "per_treatment": (("w0", "b0"), ("w1", "b1"))}
LASSO_VARIANTS = tuple(LASSO_ARRAYS)
LASSO_TOL = 1e-7
LASSO_MAX_SWEEPS = 10_000
LASSO_CV_FOLDS = 5


def soft_threshold(value: float, threshold: float) -> float:
    if value > threshold:
        return value - threshold
    if value < -threshold:
        return value + threshold
    return 0.0


def coordinate_descent(z: np.ndarray, y_centered: np.ndarray,
                       alpha: float) -> tuple[np.ndarray, int]:
    """Cyclic soft-threshold sweeps from w = 0 on centered, scaled columns.

    Returns the weights and the number of sweeps run. Converged when the
    largest coordinate change in a sweep drops below LASSO_TOL, or after
    LASSO_MAX_SWEEPS sweeps. Zero columns keep weight 0.
    """
    n, d = z.shape
    norms = (z * z).sum(axis=0) / n
    w = np.zeros(d)
    residual = y_centered.copy()
    sweeps = 0
    for sweeps in range(1, LASSO_MAX_SWEEPS + 1):
        max_change = 0.0
        for j in range(d):
            if norms[j] == 0.0:
                continue
            old = w[j]
            rho = z[:, j] @ residual / n + norms[j] * old
            new = soft_threshold(rho, alpha) / norms[j]
            if new != old:
                residual += z[:, j] * (old - new)
                w[j] = new
                max_change = max(max_change, abs(new - old))
        if max_change < LASSO_TOL:
            break
    return w, sweeps


class _Standardized(NamedTuple):
    """A learner's rows on the solver's scale: z = (x - mean) / scale, y centered."""

    mean: np.ndarray
    sd: np.ndarray
    scale: np.ndarray
    z: np.ndarray
    y_mean: float
    y_centered: np.ndarray


def _standardize(x: np.ndarray, y: np.ndarray) -> _Standardized:
    """lasso_fit's first step: check the rows and put them on the solver's scale."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise DimensionError(f"lasso_fit got x {x.shape} and y {y.shape}")
    if x.shape[0] < 2:
        raise DatasetError(f"lasso_fit needs at least 2 rows, got {x.shape[0]}")
    mean = x.mean(axis=0)
    sd = x.std(axis=0)
    scale = np.where(sd == 0.0, 1.0, sd)
    z = (x - mean) / scale
    z[:, sd == 0.0] = 0.0
    y_mean = y.mean()
    return _Standardized(mean, sd, scale, z, y_mean, y - y_mean)


def _solve(rows: _Standardized, alpha: float) -> tuple[np.ndarray, float]:
    """lasso_fit's second step: coordinate descent, weights mapped back to the input scale."""
    if not (np.isfinite(alpha) and alpha >= 0):
        raise ConfigError(f"alpha must be finite and non-negative, got {alpha}")
    w_std, _ = coordinate_descent(rows.z, rows.y_centered, alpha)
    w = w_std / rows.scale
    w[rows.sd == 0.0] = 0.0
    intercept = rows.y_mean - float(w @ rows.mean)
    return w, intercept


def lasso_fit(x: np.ndarray, y: np.ndarray, alpha: float) -> tuple[np.ndarray, float]:
    """Input-scale weights and intercept of the standardized-penalty Lasso."""
    return _solve(_standardize(x, y), alpha)


@dataclass
class LassoModel:
    """Fitted Lasso: the S-learner (variant single) or the T-learner (per_treatment).

    learners holds (weights, intercept) pairs. single: one learner on
    [x, t], its d + 1 weights with the treatment coefficient last, so the
    estimated effect is that coefficient for every row; the y1 - y0 of
    predict_potential_outcomes (which evaluate_model scores) equals it
    only up to one rounding, a few 1e-16 apart between rows.
    per_treatment: one learner per arm, arm 0 first.
    """

    variant: str
    alpha: float
    input_dim: int
    learners: list[tuple[np.ndarray, float]]

    kind = "lasso"

    def predict_potential_outcomes(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x = check_columns(x, self.input_dim)
        if self.variant == "single":
            (w, b), = self.learners
            y0 = x @ w[:-1] + b
            return y0, y0 + w[-1]
        (w0, b0), (w1, b1) = self.learners
        return x @ w0 + b0, x @ w1 + b1

    def save(self, path: str, *, config: dict | None = None,
             data_seed: int | None = None,
             split_fractions: tuple[float, float, float] | None = None) -> None:
        arch = {"variant": self.variant, "alpha": self.alpha, "input_dim": self.input_dim}
        arrays = {}
        for (w_name, b_name), (w, b) in zip(LASSO_ARRAYS[self.variant], self.learners):
            arrays[w_name] = w.reshape(-1, 1)
            arrays[b_name] = np.array([[b]])
        write_checkpoint(path, self.kind, arch, arrays, config=config, data_seed=data_seed,
                         split_fractions=split_fractions)


def _load_lasso(arrays: dict[str, np.ndarray], header: dict) -> LassoModel:
    variant = header_field(header, "arch.variant", LASSO_VARIANTS.__contains__)
    alpha = float(header_field(header, "arch.alpha", lambda v: valid_real(v) and v >= 0.0))
    input_dim = header_field(header, "arch.input_dim", lambda v: valid_int(v, 1))
    names = LASSO_ARRAYS[variant]
    rows = input_dim + (variant == "single")
    check_arrays(arrays, {name: shape for w_name, b_name in names
                          for name, shape in ((w_name, (rows, 1)), (b_name, (1, 1)))})
    return LassoModel(variant, alpha, input_dim,
                      [(arrays[w_name][:, 0], float(arrays[b_name][0, 0]))
                       for w_name, b_name in names])


CHECKPOINT_LOADERS["lasso"] = _load_lasso


def _learner_rows(x: np.ndarray, t: np.ndarray, y: np.ndarray,
                  variant: str) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each learner's (x, y) rows: [x, t] (single), or one arm's rows each, arm 0 first."""
    if variant == "single":
        return [(np.column_stack([x, t]), y)]
    if variant == "per_treatment":
        return [(x[t == arm], y[t == arm]) for arm in (0, 1)]
    raise ConfigError(f"variant must be one of {LASSO_VARIANTS}, got {variant!r}")


def _fit_learners(x: np.ndarray, t: np.ndarray, y: np.ndarray, variant: str,
                  alpha: float) -> list[tuple[np.ndarray, float]]:
    """The variant's learners, each a lasso_fit of its rows."""
    return [lasso_fit(xs, ys, alpha) for xs, ys in _learner_rows(x, t, y, variant)]


def _stratified_folds(t: np.ndarray, folds: int, rng: np.random.Generator) -> np.ndarray:
    """Fold labels spreading each arm round-robin over the folds."""
    assignment = np.empty(t.size, dtype=np.int64)
    for arm in (1, 0):
        rows = rng.permutation(np.flatnonzero(t == arm))
        assignment[rows] = np.arange(rows.size) % folds
    return assignment


def select_alpha(x: np.ndarray, t: np.ndarray, y: np.ndarray, variant: str,
                 grid=DEFAULT_ALPHA_GRID, seed: int = 0) -> float:
    """Treatment-stratified cross-validated factual-MSE minimizer over the grid.

    Cross validation runs LASSO_CV_FOLDS folds. Ties take the last grid
    entry, so with the ascending default grid the strongest of the tied
    shrinkage levels wins. Each fold standardizes its learners' rows once
    and solves them at every grid alpha, so each fit has the bits lasso_fit
    gives it.
    """
    if len(grid) == 0:
        raise ConfigError("alpha grid is empty")
    if len(grid) == 1:
        return float(grid[0])
    rng = generator(seed, "lasso-cv")
    fold_of = _stratified_folds(t, LASSO_CV_FOLDS, rng)
    errors = np.zeros(len(grid))
    counts = np.zeros(len(grid))
    for fold in range(LASSO_CV_FOLDS):
        hold = fold_of == fold
        if not hold.any() or hold.all():
            continue
        learners = [_standardize(xs, ys)
                    for xs, ys in _learner_rows(x[~hold], t[~hold], y[~hold], variant)]
        if variant == "single":
            held_out = [(np.column_stack([x[hold], t[hold]]), slice(None))]
        else:
            held_out = [(x[hold][t[hold] == arm], t[hold] == arm) for arm in (0, 1)]
        for gi, alpha in enumerate(grid):
            pred = np.empty(hold.sum())
            for rows, (xs, where) in zip(learners, held_out):
                w, b = _solve(rows, alpha)
                pred[where] = xs @ w + b
            errors[gi] += float(np.mean((pred - y[hold]) ** 2))
            counts[gi] += 1
    if counts[0] == 0:
        raise DatasetError("cross validation produced no usable folds")
    means = errors / counts
    return float(grid[len(grid) - 1 - int(np.argmin(means[::-1]))])


def fit_lasso(x: np.ndarray, t: np.ndarray, y: np.ndarray, variant: str,
              grid=DEFAULT_ALPHA_GRID, seed: int = 0) -> LassoModel:
    """Fit either variant at the cross-validated alpha of grid; a one-entry grid fixes alpha."""
    alpha = select_alpha(x, t, y, variant, grid, seed)
    return LassoModel(variant, alpha, x.shape[1], _fit_learners(x, t, y, variant, alpha))


def fit_lasso_on_dataset(dataset: Dataset, variant: str,
                         grid=DEFAULT_ALPHA_GRID, seed: int = 0) -> LassoModel:
    """Fit on the labeled train and validation rows together."""
    rows = np.concatenate([dataset.labeled_indices(TRAIN), dataset.labeled_indices(VAL)])
    return fit_lasso(dataset.x[rows], dataset.t[rows], dataset.y_factual[rows],
                     variant, grid, seed)


class DanncrModel(Network):
    """Shared representation, one outcome head per treatment, domain discriminator."""

    kind = "danncr"
    ARMS = (("head.0",), ("head.1",))
    EXTRA_STACKS = (("disc", 2),)


def _danncr_ce_graph(model: DanncrModel, batch: BatchView, tape: Tape, rng) -> autodiff.Tensor:
    """Training-mode discriminator cross entropy of the batch's treatments."""
    h = model.phi_forward(tape, tape.constant(batch.x), rng)
    logits = model.stack_forward(tape, "disc", h, rng)
    return autodiff.softmax_cross_entropy(tape, logits, batch.t)


def danncr_step_predict(model: DanncrModel, batch: BatchView, opt: Adam, rng) -> float:
    """Representation and outcome heads follow the factual MSE."""
    tape = Tape()
    loss, _ = build_losses(model, batch, tape, rng=rng, need_distance=False)
    return descend(opt, tape, loss, "factual loss in the danncr prediction step")


def danncr_step_discriminate(model: DanncrModel, batch: BatchView, opt: Adam, rng) -> float:
    """Discriminator alone follows the treatment cross entropy."""
    tape = Tape()
    ce = _danncr_ce_graph(model, batch, tape, rng)
    return descend(opt, tape, ce, "cross entropy in the danncr discriminator step")


def danncr_step_confuse(model: DanncrModel, batch: BatchView, opt: Adam,
                        reversal_weight: float, rng) -> float:
    """Representation climbs the discriminator's loss (negated-gradient flow).

    Returns the cross entropy, not the scaled objective.
    """
    tape = Tape()
    ce = _danncr_ce_graph(model, batch, tape, rng)
    value = _finite_scalar(ce, "cross entropy in the danncr confusion step")
    descend(opt, tape, autodiff.scale(tape, ce, -reversal_weight),
            "reversed cross entropy in the danncr confusion step")
    return value


def danncr_validation(model: DanncrModel, val_view: BatchView) -> EpochRecord:
    """Eval-mode factual MSE (the criterion) and discriminator cross entropy, full split.

    One blocked forward of the shared representation feeds the heads and
    the discriminator (Network.eval_forward).
    """
    tape = Tape(recording=False)
    heads, logits = model.eval_forward(tape, val_view.x, extra="disc")
    factual = float(factual_term(tape, model, heads, val_view).data[0, 0])
    ce = autodiff.softmax_cross_entropy(tape, logits, val_view.t)
    return EpochRecord(0, factual, float(ce.data[0, 0]), factual)


def _danncr_phases(model: DanncrModel, config: TrainConfig, val_view: BatchView):
    """[predict, discriminate, confuse]; adversary_weight is the reversal coefficient."""
    opt_predict = phase_optimizer(model, config, "phi.", "heads.")
    opt_disc = phase_optimizer(model, config, "disc.")
    opt_confuse = phase_optimizer(model, config, "phi.")
    return [
        lambda batch, rng: danncr_step_predict(model, batch, opt_predict, rng),
        lambda batch, rng: danncr_step_discriminate(model, batch, opt_disc, rng),
        lambda batch, rng: danncr_step_confuse(model, batch, opt_confuse,
                                               config.adversary_weight, rng),
    ], lambda: danncr_validation(model, val_view)


CHECKPOINT_LOADERS[DanncrModel.kind] = DanncrModel.load
MODES[DanncrModel.kind] = (DanncrModel, _danncr_phases)


def danncr_train(dataset: Dataset, config: TrainConfig,
                 history_path: str | None = None) -> TrainResult:
    """`adbcr.trainer.train` for a config of mode danncr."""
    if config.mode != "danncr":
        raise ConfigError(f"danncr_train requires mode 'danncr', got {config.mode!r}")
    return train(dataset, config, history_path)
