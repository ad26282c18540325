"""The graphs of the factual loss and the discriminative distance.

build_losses builds both terms on one tape: it runs Network.forward_heads
once over the batch (labeled rows stacked with any unlabeled rows), then
takes each term's rows of each head out of the one stacked head output.
Phases that skip a term therefore consume exactly the same dropout
randomness as phases that build it, which is what makes ablation modes
reduce to each other bit-for-bit. The factual term serves every network
kind; the distance needs two heads per arm. Eval-mode values come from
build_losses without a generator, on a tape that records nothing, as the
validation entries of adbcr.trainer and adbcr.baselines build them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff
from .autodiff import Tape, Tensor
from .errors import BatchCompositionError, ConfigError, DimensionError
from .model import Network

METRICS = ("l1", "squared")

# Instrumentation: how many times a distance graph has been constructed.
# Adversary-free modes must leave this untouched for a whole run.
distance_graph_builds = 0


@dataclass
class BatchView:
    """Aligned standardized covariates, treatments, and standardized outcomes.

    unlabeled_x optionally carries outcome-free covariate rows that join
    every head pair's distance pool.
    """

    x: np.ndarray
    t: np.ndarray
    y: np.ndarray
    unlabeled_x: np.ndarray | None = None

    def __post_init__(self):
        n = self.x.shape[0]
        if self.t.shape != (n,) or self.y.shape != (n,):
            raise DimensionError(
                f"batch rows misaligned: x {self.x.shape}, t {self.t.shape}, y {self.y.shape}")
        if self.unlabeled_x is not None and self.unlabeled_x.shape[1] != self.x.shape[1]:
            raise DimensionError(
                f"unlabeled rows have {self.unlabeled_x.shape[1]} columns, labeled {self.x.shape[1]}")

    @property
    def n_unlabeled(self) -> int:
        return 0 if self.unlabeled_x is None else self.unlabeled_x.shape[0]


def _check_metric(metric: str) -> None:
    if metric not in METRICS:
        raise ConfigError(f"metric must be one of {METRICS}, got {metric!r}")


def factual_term(tape: Tape, model: Network, heads: Tensor, batch: BatchView) -> Tensor:
    """Sum over arms and their heads of each head's MSE on its arm's rows.

    heads is the head output stack of model.forward_heads.
    """
    rows = [np.flatnonzero(batch.t == arm) for arm in (0, 1)]
    if rows[0].size == 0 or rows[1].size == 0:
        raise BatchCompositionError(
            f"factual loss needs both treatments in the batch, got {rows[1].size} treated "
            f"and {rows[0].size} control rows")
    loss = None
    for members, arm_rows in zip(model.arm_members, rows):
        for member in members:
            target = tape.constant(batch.y[arm_rows].reshape(-1, 1))
            pred = autodiff.take_rows(tape, heads, arm_rows, member)
            term = autodiff.mse_loss(tape, pred, target)
            loss = term if loss is None else autodiff.add(tape, loss, term)
    return loss


def build_losses(model: Network, batch: BatchView, tape: Tape, *,
                 rng: np.random.Generator | None = None,
                 need_factual: bool = True, need_distance: bool = True,
                 metric: str = "l1") -> tuple[Tensor | None, Tensor | None]:
    """Build the factual loss and/or the discriminative distance on one tape.

    Returns (factual, distance); entries not asked for are None. Given rng,
    the forward draws its dropout from it. The shared representation and
    every head forward exactly once regardless of which terms are requested,
    so the dropout stream advances identically.
    """
    _check_metric(metric)
    n = batch.x.shape[0]
    m = batch.n_unlabeled
    stacked = np.vstack([batch.x, batch.unlabeled_x]) if m > 0 else batch.x
    _, heads = model.forward_heads(tape, tape.constant(stacked), rng)
    factual = factual_term(tape, model, heads, batch) if need_factual else None

    distance = None
    if need_distance:
        global distance_graph_builds
        distance_graph_builds += 1
        point_metric = autodiff.l1_mean if metric == "l1" else autodiff.mse_loss
        for t, (head_a, head_b) in enumerate(model.arm_members):
            pool = np.flatnonzero(batch.t == 1 - t)
            if m > 0:
                pool = np.concatenate([pool, n + np.arange(m)])
            if pool.size == 0:
                raise BatchCompositionError(
                    f"distance pool for treatment {t} is empty: no rows with treatment {1 - t} "
                    "and no unlabeled rows")
            a = autodiff.take_rows(tape, heads, pool, head_a)
            b = autodiff.take_rows(tape, heads, pool, head_b)
            term = point_metric(tape, a, b)
            distance = term if distance is None else autodiff.add(tape, distance, term)

    return factual, distance
