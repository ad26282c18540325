"""The one training entry point, the table of network modes, and the adbcr phases.

MODES maps each network mode to its network class and to a builder of its
per-batch phases and validation closure. train() serves every mode: it
fits the scalers, builds the network and the phases, and calls
run_epochs(), which owns batching, the history file, early stopping and
the best-epoch snapshot. Each phase owns its own Adam instance, so freezes
hold structurally; it builds its objective on a fresh tape and ends in
descend().

The adbcr and uadbcr phases are step_A (all parameters follow the factual
loss), step_B (heads follow factual loss minus the weighted distance,
shared representation frozen), step_C repeated k times (shared
representation follows the distance, heads frozen), and a trailing step_A.
a_tarnet runs only the leading step_A; adbcr.baselines registers danncr.

After every epoch the validation criterion (factual loss plus distance for
adbcr/uadbcr, factual loss alone for a_tarnet and danncr) is evaluated on
the full validation split in eval mode, on a tape that records nothing;
the best epoch's parameters are returned and training stops once
`patience` consecutive epochs fail to improve the criterion by more than
IMPROVEMENT_EPS. Scalers fit on the training split are stored on the
model, so predictions come back on the original scale.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from . import autodiff, objectives
from .autodiff import Adam, Tape, grads_for
from .data import TRAIN, VAL, Dataset
from .errors import ConfigError, DatasetError, TrainingError
from .model import AdbcrModel, Network, Scalers, canonical_fingerprint
from .objectives import BatchView, build_losses
from .seeding import generator

# Patience threshold: an epoch improves only if the criterion drops by more.
IMPROVEMENT_EPS = 1e-12


@dataclass
class TrainConfig:
    """One training run's hyper-parameters.

    adversary_weight weighs the distance inside step_B (and doubles as the
    gradient-reversal coefficient in danncr mode). imbalance_weight weighs
    the distance term of the validation criterion; 1.0 is the plain sum.
    trailing_step_a toggles the second factual step closing each batch.
    """

    shared_layers: tuple[int, ...] = (50, 50)
    head_layers: tuple[int, ...] = (50, 50)
    dropout_p: float = 0.1
    weight_decay: float = 0.01
    batch_size: int = 100
    learning_rate: float = 1e-3
    k: int = 1
    adversary_weight: float = 1.0
    patience: int = 100
    max_epochs: int = 1000
    seed: int = 0
    mode: str = "adbcr"
    metric: str = "l1"
    trailing_step_a: bool = True
    imbalance_weight: float = 1.0

    def __post_init__(self):
        self.shared_layers = tuple(int(s) for s in self.shared_layers)
        self.head_layers = tuple(int(s) for s in self.head_layers)
        if self.k < 1:
            raise ConfigError(f"k must be at least 1, got {self.k}")
        if self.patience < 1:
            raise ConfigError(f"patience must be at least 1, got {self.patience}")
        if self.batch_size < 2:
            raise ConfigError(f"batch_size must be at least 2, got {self.batch_size}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(
                f"learning_rate must be finite and positive, got {self.learning_rate}")
        for name in ("weight_decay", "adversary_weight", "imbalance_weight"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"{name} must be finite and non-negative, got {value}")
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be at least 1, got {self.max_epochs}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {tuple(MODES)}, got {self.mode!r}")
        if self.metric not in objectives.METRICS:
            raise ConfigError(f"metric must be one of {objectives.METRICS}, got {self.metric!r}")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["shared_layers"] = list(self.shared_layers)
        d["head_layers"] = list(self.head_layers)
        return d

    def fingerprint(self) -> str:
        return canonical_fingerprint(self.to_dict())


@dataclass
class EpochRecord:
    """Validation quantities of one epoch; distance is None in a_tarnet mode."""

    epoch: int
    factual: float
    distance: float | None
    criterion: float


@dataclass
class TrainResult:
    """Best model of a run plus the full per-epoch validation history."""

    model: AdbcrModel
    best_value: float
    best_epoch: int
    history: list[EpochRecord]
    config: TrainConfig

    @property
    def epochs_run(self) -> int:
        return len(self.history)


def make_batches(view: BatchView, batch_size: int, rng: np.random.Generator) -> list[BatchView]:
    """Shuffled stratified partition of an epoch view into batches.

    Every batch gets at least one row from each arm; with fewer rows in an
    arm than ceil(n / batch_size) the epoch simply has fewer batches. Any
    unlabeled rows are shuffled and split proportionally across the batches.
    An empty unlabeled pool consumes no randomness at all.
    """
    treated = np.flatnonzero(view.t == 1)
    control = np.flatnonzero(view.t == 0)
    if treated.size < 2 or control.size < 2:
        raise DatasetError(
            f"training needs at least 2 rows per treatment, got {treated.size} treated "
            f"and {control.size} control")
    n = view.x.shape[0]
    n_batches = min(math.ceil(n / batch_size), treated.size, control.size)
    chunks_t = np.array_split(rng.permutation(treated), n_batches)
    chunks_c = np.array_split(rng.permutation(control), n_batches)
    if view.n_unlabeled > 0:
        chunks_u = np.array_split(rng.permutation(view.n_unlabeled), n_batches)
    else:
        chunks_u = [None] * n_batches
    batches = []
    for ct, cc, cu in zip(chunks_t, chunks_c, chunks_u):
        rows = np.concatenate([ct, cc])
        batches.append(BatchView(
            x=view.x[rows],
            t=view.t[rows],
            y=view.y[rows],
            unlabeled_x=None if cu is None or cu.size == 0 else view.unlabeled_x[cu],
        ))
    return batches


def _finite_scalar(value, what: str) -> float:
    v = float(value.data[0, 0])
    if not np.isfinite(v):
        raise TrainingError(f"non-finite {what}")
    return v


def descend(opt: Adam, tape: Tape, objective: autodiff.Tensor, what: str) -> float:
    """One Adam step of opt's parameters down a finite objective; returns its value.

    Backward differentiates only opt's parameters, so a phase that freezes
    the trunk or the heads never computes their gradients. A non-finite
    objective raises TrainingError naming `what`.
    """
    value = _finite_scalar(objective, what)
    tape.backward(objective, opt.names())
    opt.step(grads_for(tape, opt.names()))
    return value


def step_A(model: AdbcrModel, batch: BatchView, opt: Adam,
           rng: np.random.Generator) -> float:
    """One Adam step of every parameter on the factual loss."""
    tape = Tape()
    loss, _ = build_losses(model, batch, tape, training=True, rng=rng,
                           need_distance=False)
    return descend(opt, tape, loss, "factual loss in step_A")


def step_B(model: AdbcrModel, batch: BatchView, opt: Adam, adversary_weight: float,
           rng: np.random.Generator, metric: str = "l1") -> float:
    """One Adam step of the head parameters on factual loss minus weighted distance.

    The shared representation is untouched: the optimizer owns head
    parameters only. With adversary_weight 0 the distance graph is skipped
    outright, which makes the step identical to step_A restricted to heads.
    """
    tape = Tape()
    if adversary_weight == 0.0:
        objective, _ = build_losses(model, batch, tape, training=True, rng=rng,
                                    need_distance=False)
    else:
        loss, dist = build_losses(model, batch, tape, training=True, rng=rng,
                                  metric=metric)
        _finite_scalar(dist, "distance in step_B")
        objective = autodiff.sub(tape, loss, autodiff.scale(tape, dist, adversary_weight))
    return descend(opt, tape, objective, "objective in step_B")


def step_C(model: AdbcrModel, batch: BatchView, opt: Adam, k: int,
           rng: np.random.Generator, metric: str = "l1") -> float:
    """k successive Adam steps of the shared representation on the distance.

    Head parameters are untouched: the optimizer owns Phi parameters only.
    Each inner step rebuilds the graph on the updated representation.
    """
    value = math.nan
    for _ in range(k):
        tape = Tape()
        _, dist = build_losses(model, batch, tape, training=True, rng=rng,
                               need_factual=False, metric=metric)
        value = descend(opt, tape, dist, "distance in step_C")
    return value


def labeled_view(dataset: Dataset, split: int, scalers: Scalers,
                 unlabeled_x: np.ndarray | None = None) -> BatchView:
    """Standardized BatchView of a split's labeled rows."""
    rows = dataset.labeled_indices(split)
    return BatchView(
        x=scalers.standardize_x(dataset.x[rows]),
        t=dataset.t[rows],
        y=scalers.standardize_y(dataset.y_factual[rows]),
        unlabeled_x=unlabeled_x,
    )


def evaluate_validation(model: AdbcrModel, val_view: BatchView, config: TrainConfig) -> EpochRecord:
    """Eval-mode validation quantities for one epoch, full split, one pass."""
    loss, dist = build_losses(model, val_view, Tape(recording=False), metric=config.metric,
                              need_distance=config.mode != "a_tarnet")
    factual = float(loss.data[0, 0])
    if dist is None:
        return EpochRecord(0, factual, None, factual)
    distance = float(dist.data[0, 0])
    return EpochRecord(0, factual, distance, factual + config.imbalance_weight * distance)


class HistoryWriter:
    """Tab-separated per-epoch log of the validation values.

    Columns: epoch, factual, distance, criterion. The distance column is
    absent in a_tarnet mode; in danncr mode it holds the discriminator's
    validation cross entropy, which does not enter the criterion.
    """

    def __init__(self, path: str | None, with_distance: bool):
        self._file = open(path, "w", encoding="utf-8") if path else None
        self._with_distance = with_distance
        if self._file:
            cols = ["epoch", "factual", "distance", "criterion"] if with_distance \
                else ["epoch", "factual", "criterion"]
            self._file.write("\t".join(cols) + "\n")

    def write(self, record: EpochRecord) -> None:
        if not self._file:
            return
        fields = [str(record.epoch), format(record.factual, ".17g")]
        if self._with_distance:
            fields.append(format(record.distance, ".17g"))
        fields.append(format(record.criterion, ".17g"))
        self._file.write("\t".join(fields) + "\n")
        self._file.flush()

    def close(self) -> None:
        if self._file:
            self._file.close()


def phase_optimizer(model: Network, config: TrainConfig, *prefixes: str) -> Adam:
    """A phase's own Adam over the parameters whose names start with a prefix.

    ConfigError if a prefix matches no parameter: that phase would update nothing.
    """
    unmatched = [p for p in prefixes if not model.params.subset(p)]
    if unmatched:
        raise ConfigError(f"parameter prefixes {unmatched} match no {model.kind} parameter")
    return Adam(model.params.subset(*prefixes), config.learning_rate, config.weight_decay)


def run_epochs(model: Network, train_view: BatchView, config: TrainConfig,
               phases: list[Callable[[BatchView, np.random.Generator], object]],
               validate: Callable[[], EpochRecord],
               history_path: str | None = None) -> TrainResult:
    """The epoch loop every network mode runs.

    Each batch passes through the phases in order, all drawing dropout from
    one stream; after each epoch validate() scores the model. The best
    epoch's parameters are restored at the end.
    """
    rng_batch = generator(config.seed, "batching")
    rng_drop = generator(config.seed, "dropout")
    history: list[EpochRecord] = []
    writer = HistoryWriter(history_path, with_distance=config.mode != "a_tarnet")
    best_value = math.inf
    best_epoch = 0
    best_params = None
    streak = 0
    try:
        for epoch in range(1, config.max_epochs + 1):
            for batch in make_batches(train_view, config.batch_size, rng_batch):
                for phase in phases:
                    phase(batch, rng_drop)
            record = validate()
            if not np.isfinite(record.criterion):
                raise TrainingError("non-finite validation criterion")
            record.epoch = epoch
            history.append(record)
            writer.write(record)
            improved = record.criterion < best_value - IMPROVEMENT_EPS
            if record.criterion < best_value:
                best_value = record.criterion
                best_epoch = epoch
                best_params = model.params.snapshot()
            streak = 0 if improved else streak + 1
            if streak >= config.patience:
                break
    finally:
        writer.close()
    model.params.restore(best_params)
    return TrainResult(model, best_value, best_epoch, history, config)


def _net_phases(model: AdbcrModel, config: TrainConfig, val_view: BatchView):
    """a_tarnet: [A]; adbcr and uadbcr: [A, B, C] plus a trailing A if configured."""
    opt_a = phase_optimizer(model, config, "phi.", "heads.")
    phases = [lambda batch, rng: step_A(model, batch, opt_a, rng)]
    if config.mode != "a_tarnet":
        opt_b = phase_optimizer(model, config, "heads.")
        opt_c = phase_optimizer(model, config, "phi.")
        phases.append(lambda batch, rng: step_B(model, batch, opt_b, config.adversary_weight,
                                                rng, config.metric))
        phases.append(lambda batch, rng: step_C(model, batch, opt_c, config.k, rng,
                                                config.metric))
        if config.trailing_step_a:
            phases.append(phases[0])
    return phases, lambda: evaluate_validation(model, val_view, config)


# Network mode -> (network class, builder). builder(model, config, val_view)
# returns the mode's phases and validation closure. They call the step and
# validation functions by the module-level names that bench/tracer.py rebinds.
MODES: dict[str, tuple[type[Network], Callable]] = {
    mode: (AdbcrModel, _net_phases) for mode in ("adbcr", "uadbcr", "a_tarnet")}


def train(dataset: Dataset, config: TrainConfig,
          history_path: str | None = None) -> TrainResult:
    """Train a fresh network of config.mode; return the best epoch's model and the history.

    Both labeled splits must hold both arms. Scalers are fit on the
    training split; only uadbcr mode adds the unlabeled pool to the
    training view.
    """
    if dataset.split is None:
        raise DatasetError("dataset has no split assignment; call split() first")
    for split, name in ((TRAIN, "train"), (VAL, "validation")):
        t = dataset.t[dataset.labeled_indices(split)]
        if (t == 1).sum() == 0 or (t == 0).sum() == 0:
            raise DatasetError(f"{name} split lacks a treatment arm")
    train_rows = dataset.labeled_indices(TRAIN)
    scalers = Scalers.fit(dataset.x[train_rows], dataset.y_factual[train_rows])
    unlabeled = None
    if config.mode == "uadbcr":   # make_batches treats an empty pool as none
        unlabeled = scalers.standardize_x(dataset.x[dataset.unlabeled_rows()])
    network, build = MODES[config.mode]
    model = network(dataset.x.shape[1], config.shared_layers, config.head_layers,
                    config.dropout_p, config.seed)
    model.scalers = scalers
    phases, validate = build(model, config, labeled_view(dataset, VAL, scalers))
    return run_epochs(model, labeled_view(dataset, TRAIN, scalers, unlabeled), config,
                      phases, validate, history_path)
