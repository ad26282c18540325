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

import numpy as np

from . import autodiff
from .autodiff import Adam, Tape
from .data import TRAIN, VAL, Dataset
from .errors import ConfigError, DatasetError, DimensionError
from .model import (CHECKPOINT_LOADERS, Network, check_arrays, header_field, valid_int,
                    valid_real, write_checkpoint)
from .objectives import BatchView, build_losses, factual_term
from .seeding import generator
from .trainer import (MODES, EpochRecord, TrainConfig, TrainResult, _finite_scalar, descend,
                      phase_optimizer, train)

DEFAULT_ALPHA_GRID = (0.001, 0.01, 0.1, 1.0, 10.0, 100.0)
LASSO_VARIANTS = ("single", "per_treatment")
LASSO_TOL = 1e-7
LASSO_MAX_SWEEPS = 10_000


def soft_threshold(value: float, threshold: float) -> float:
    if value > threshold:
        return value - threshold
    if value < -threshold:
        return value + threshold
    return 0.0


def coordinate_descent(z: np.ndarray, y_centered: np.ndarray, alpha: float,
                       max_sweeps: int = LASSO_MAX_SWEEPS,
                       tol: float = LASSO_TOL) -> tuple[np.ndarray, int]:
    """Cyclic soft-threshold sweeps from w = 0 on centered, scaled columns.

    Returns the weights and the number of sweeps run. Converged when the
    largest coordinate change in a sweep drops below tol. Zero columns
    keep weight 0.
    """
    n, d = z.shape
    norms = (z * z).sum(axis=0) / n
    w = np.zeros(d)
    residual = y_centered.copy()
    sweeps = 0
    for sweeps in range(1, max_sweeps + 1):
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
        if max_change < tol:
            break
    return w, sweeps


def lasso_fit(x: np.ndarray, y: np.ndarray, alpha: float,
              max_sweeps: int = LASSO_MAX_SWEEPS,
              tol: float = LASSO_TOL) -> tuple[np.ndarray, float]:
    """Input-scale weights and intercept of the standardized-penalty Lasso."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise DimensionError(f"lasso_fit got x {x.shape} and y {y.shape}")
    if x.shape[0] < 2:
        raise DatasetError(f"lasso_fit needs at least 2 rows, got {x.shape[0]}")
    if not (np.isfinite(alpha) and alpha >= 0):
        raise ConfigError(f"alpha must be finite and non-negative, got {alpha}")
    mean = x.mean(axis=0)
    sd = x.std(axis=0)
    scale = np.where(sd == 0.0, 1.0, sd)
    z = (x - mean) / scale
    z[:, sd == 0.0] = 0.0
    y_mean = y.mean()
    w_std, _ = coordinate_descent(z, y - y_mean, alpha, max_sweeps, tol)
    w = w_std / scale
    w[sd == 0.0] = 0.0
    intercept = y_mean - float(w @ mean)
    return w, intercept


@dataclass
class LassoModel:
    """Fitted Lasso in either the single-learner or per-treatment variant.

    single: one model on [x, t]; weights has d + 1 entries with the
    treatment coefficient last, so the estimated effect is constant.
    per_treatment: an independent model per arm.
    """

    variant: str
    alpha: float
    input_dim: int
    weights: np.ndarray | None = None
    intercept: float = 0.0
    weights0: np.ndarray | None = None
    intercept0: float = 0.0
    weights1: np.ndarray | None = None
    intercept1: float = 0.0

    kind = "lasso"

    def _check(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise DimensionError(
                f"expected covariates with {self.input_dim} columns, got shape {x.shape}")
        return x

    def predict_potential_outcomes(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x = self._check(x)
        if self.variant == "single":
            y0 = x @ self.weights[:-1] + self.intercept
            return y0, y0 + self.weights[-1]
        return (x @ self.weights0 + self.intercept0,
                x @ self.weights1 + self.intercept1)

    def save(self, path: str, *, config: dict | None = None,
             data_seed: int | None = None,
             split_fractions: tuple[float, float, float] | None = None) -> None:
        arch = {"variant": self.variant, "alpha": self.alpha, "input_dim": self.input_dim}
        if self.variant == "single":
            arrays = {"w": self.weights.reshape(-1, 1),
                      "b": np.array([[self.intercept]])}
        else:
            arrays = {"w0": self.weights0.reshape(-1, 1),
                      "b0": np.array([[self.intercept0]]),
                      "w1": self.weights1.reshape(-1, 1),
                      "b1": np.array([[self.intercept1]])}
        write_checkpoint(path, self.kind, arch, arrays, config=config, data_seed=data_seed,
                         split_fractions=split_fractions)


def _load_lasso(arrays: dict[str, np.ndarray], header: dict) -> LassoModel:
    model = LassoModel(header_field(header, "arch.variant", LASSO_VARIANTS.__contains__),
                       float(header_field(header, "arch.alpha",
                                          lambda v: valid_real(v) and v >= 0.0)),
                       header_field(header, "arch.input_dim", lambda v: valid_int(v, 1)))
    d = model.input_dim
    if model.variant == "single":
        check_arrays(arrays, {"w": (d + 1, 1), "b": (1, 1)})
        model.weights = arrays["w"][:, 0]
        model.intercept = float(arrays["b"][0, 0])
    else:
        check_arrays(arrays, {"w0": (d, 1), "b0": (1, 1), "w1": (d, 1), "b1": (1, 1)})
        model.weights0 = arrays["w0"][:, 0]
        model.intercept0 = float(arrays["b0"][0, 0])
        model.weights1 = arrays["w1"][:, 0]
        model.intercept1 = float(arrays["b1"][0, 0])
    return model


CHECKPOINT_LOADERS["lasso"] = _load_lasso


def _stratified_folds(t: np.ndarray, folds: int, rng: np.random.Generator) -> np.ndarray:
    """Fold labels spreading each arm round-robin over the folds."""
    assignment = np.empty(t.size, dtype=np.int64)
    for arm in (1, 0):
        rows = rng.permutation(np.flatnonzero(t == arm))
        assignment[rows] = np.arange(rows.size) % folds
    return assignment


def select_alpha(x: np.ndarray, t: np.ndarray, y: np.ndarray, variant: str,
                 grid=DEFAULT_ALPHA_GRID, seed: int = 0, folds: int = 5) -> float:
    """Treatment-stratified cross-validated factual-MSE minimizer over the grid.

    Ties take the last grid entry, so with the ascending default grid the
    strongest of the tied shrinkage levels wins.
    """
    if len(grid) == 0:
        raise ConfigError("alpha grid is empty")
    if len(grid) == 1:
        return float(grid[0])
    rng = generator(seed, "lasso-cv")
    fold_of = _stratified_folds(t, folds, rng)
    errors = np.zeros(len(grid))
    counts = np.zeros(len(grid))
    for fold in range(folds):
        hold = fold_of == fold
        if not hold.any() or hold.all():
            continue
        for gi, alpha in enumerate(grid):
            pred = np.empty(hold.sum())
            if variant == "single":
                design = np.column_stack([x[~hold], t[~hold]])
                w, b = lasso_fit(design, y[~hold], alpha)
                pred = np.column_stack([x[hold], t[hold]]) @ w + b
            else:
                for arm in (0, 1):
                    train_rows = ~hold & (t == arm)
                    w, b = lasso_fit(x[train_rows], y[train_rows], alpha)
                    arm_rows = t[hold] == arm
                    pred[arm_rows] = x[hold][arm_rows] @ w + b
            errors[gi] += float(np.mean((pred - y[hold]) ** 2))
            counts[gi] += 1
    if counts[0] == 0:
        raise DatasetError("cross validation produced no usable folds")
    means = errors / counts
    return float(grid[len(grid) - 1 - int(np.argmin(means[::-1]))])


def fit_lasso(x: np.ndarray, t: np.ndarray, y: np.ndarray, variant: str,
              grid=DEFAULT_ALPHA_GRID, seed: int = 0,
              alpha: float | None = None) -> LassoModel:
    """Fit either variant, cross-validating alpha unless one is given."""
    if variant not in LASSO_VARIANTS:
        raise ConfigError(f"variant must be one of {LASSO_VARIANTS}, got {variant!r}")
    if alpha is None:
        alpha = select_alpha(x, t, y, variant, grid, seed)
    model = LassoModel(variant, float(alpha), x.shape[1])
    if variant == "single":
        design = np.column_stack([x, t])
        model.weights, model.intercept = lasso_fit(design, y, alpha)
    else:
        for arm in (0, 1):
            rows = t == arm
            w, b = lasso_fit(x[rows], y[rows], alpha)
            if arm == 0:
                model.weights0, model.intercept0 = w, b
            else:
                model.weights1, model.intercept1 = w, b
    return model


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
    h = model.phi_forward(tape, tape.constant(batch.x), True, rng)
    logits = model.stack_forward(tape, "disc", h, True, rng)
    return autodiff.softmax_cross_entropy(tape, logits, batch.t)


def danncr_step_predict(model: DanncrModel, batch: BatchView, opt: Adam, rng) -> float:
    """Representation and outcome heads follow the factual MSE."""
    tape = Tape()
    loss, _ = build_losses(model, batch, tape, training=True, rng=rng, need_distance=False)
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

    One forward of the shared representation feeds the heads and the
    discriminator.
    """
    tape = Tape(recording=False)
    h, heads = model.forward_heads(tape, tape.constant(val_view.x))
    factual = float(factual_term(tape, model, heads, val_view).data[0, 0])
    ce = autodiff.softmax_cross_entropy(tape, model.stack_forward(tape, "disc", h), val_view.t)
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
