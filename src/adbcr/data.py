"""Dataset ingestion, splitting, and a biased-treatment synthetic generator.

The CSV interchange schema is flat: a header row naming `t`, `y_factual`,
optionally `y_cfactual`, `mu0`, `mu1`, and then one column per covariate
(any names, order preserved); a name must be non-empty and may appear
only once. Lines end in CRLF, as csv's excel dialect writes them. Floats
are serialized with 17 significant digits so a save/load round trip is
exact; a cell loads as Python's float() reads it. Split assignment,
stripping state, and generator propensities live in memory only.
"""
from __future__ import annotations

import csv
import itertools
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import ConfigError, DatasetError, ParseError
from .seeding import generator

TRAIN, VAL, TEST = 0, 1, 2
SPLIT_NAMES = {TRAIN: "train", VAL: "validation", TEST: "test"}

_SPECIAL_COLUMNS = ("t", "y_factual", "y_cfactual", "mu0", "mu1")

# Generator shape constants. The outcome, nonlinearity, and heterogeneity
# directions are pulled toward the propensity direction by this mixing
# weight, so treatment assignment confounds the outcome by construction.
CONFOUND_ALIGNMENT = 0.6
QUAD_SCALE = 0.3
EXP_SCALE = 0.5
PROPENSITY_CLIP = (0.05, 0.95)

NONLINEARITIES = ("linear", "quadratic", "exp")

# Rows save_csv formats per write, so its temporaries stay small at any n.
CSV_WRITE_ROWS = 64


@dataclass
class Dataset:
    """Covariates, treatments, outcomes, and optional ground truth.

    split and unlabeled_mask are in-memory bookkeeping: split codes rows
    into train/validation/test, unlabeled_mask marks rows whose outcomes
    were stripped into the adaptation pool. propensity is kept by the
    generator for diagnostics and is never serialized.
    """

    x: np.ndarray
    t: np.ndarray
    y_factual: np.ndarray
    y_cf: np.ndarray | None = None
    mu0: np.ndarray | None = None
    mu1: np.ndarray | None = None
    split: np.ndarray | None = None
    unlabeled_mask: np.ndarray = field(default=None)  # type: ignore[assignment]
    propensity: np.ndarray | None = None

    def __post_init__(self):
        n = self.x.shape[0]
        if self.unlabeled_mask is None:
            self.unlabeled_mask = np.zeros(n, dtype=bool)
        for name in ("t", "y_factual", "y_cf", "mu0", "mu1", "split", "unlabeled_mask"):
            arr = getattr(self, name)
            if arr is not None and arr.shape != (n,):
                raise DatasetError(f"{name} has shape {arr.shape}, expected ({n},)")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]

    @property
    def has_ground_truth(self) -> bool:
        return self.mu0 is not None and self.mu1 is not None

    def tau_true(self) -> np.ndarray:
        if not self.has_ground_truth:
            raise DatasetError("dataset has no mu0/mu1 ground truth")
        return self.mu1 - self.mu0

    def indices(self, split: int) -> np.ndarray:
        if self.split is None:
            raise DatasetError("dataset has no split assignment; call split() first")
        return np.flatnonzero(self.split == split)

    def labeled_indices(self, split: int) -> np.ndarray:
        """Rows of a split whose outcomes were not stripped."""
        if self.split is None:
            raise DatasetError("dataset has no split assignment; call split() first")
        return np.flatnonzero((self.split == split) & ~self.unlabeled_mask)

    def unlabeled_rows(self) -> np.ndarray:
        return np.flatnonzero(self.unlabeled_mask)


@dataclass
class DgpConfig:
    """Synthetic generator knobs.

    bias_strength scales the treatment-assignment logit; 0 is a randomized
    trial. effect_heterogeneity scales the covariate-dependent part of the
    effect on top of the constant base_effect.
    """

    n: int = 1000
    d: int = 10
    bias_strength: float = 1.0
    effect_heterogeneity: float = 1.0
    noise_sd: float = 0.5
    nonlinearity: str = "quadratic"
    seed: int = 0
    base_effect: float = 2.0

    def __post_init__(self):
        if self.n < 50:
            raise ConfigError(f"n must be at least 50, got {self.n}")
        if self.d < 2:
            raise ConfigError(f"d must be at least 2, got {self.d}")
        for name in ("bias_strength", "effect_heterogeneity", "noise_sd", "base_effect"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.noise_sd < 0:
            raise ConfigError(f"noise_sd must be non-negative, got {self.noise_sd}")
        if self.nonlinearity not in NONLINEARITIES:
            raise ConfigError(
                f"nonlinearity must be one of {NONLINEARITIES}, got {self.nonlinearity!r}")


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _confounded_direction(rng: np.random.Generator, w_p: np.ndarray) -> np.ndarray:
    raw = _unit(rng.standard_normal(w_p.size))
    return _unit(CONFOUND_ALIGNMENT * w_p + (1.0 - CONFOUND_ALIGNMENT) * raw)


def generate(config: DgpConfig) -> tuple[Dataset, dict]:
    """Draw a dataset with known counterfactuals plus its coefficient record.

    Covariates are standard normal. The propensity is a clipped sigmoid of
    a projection onto a unit direction, so overlap holds by construction.
    Both potential-outcome surfaces share a base function (linear plus the
    configured nonlinearity); the treated surface adds base_effect and a
    linear heterogeneity term.
    """
    rng = generator(config.seed, "dgp")
    n, d = config.n, config.d
    x = rng.standard_normal((n, d))
    w_p = _unit(rng.standard_normal(d))
    a = _confounded_direction(rng, w_p)
    b = _confounded_direction(rng, w_p)
    c = _confounded_direction(rng, w_p)

    logit = config.bias_strength * (x @ w_p)
    sig = np.empty(n)
    pos = logit >= 0
    sig[pos] = 1.0 / (1.0 + np.exp(-logit[pos]))
    ez = np.exp(logit[~pos])
    sig[~pos] = ez / (1.0 + ez)
    propensity = np.clip(sig, *PROPENSITY_CLIP)
    t = (rng.random(n) < propensity).astype(np.int64)

    za = x @ a
    zb = x @ b
    if config.nonlinearity == "linear":
        mu0 = za
    elif config.nonlinearity == "quadratic":
        mu0 = za + QUAD_SCALE * (zb * zb - 1.0)
    else:
        mu0 = za + EXP_SCALE * (np.exp(0.5 * zb) - math.exp(0.125))
    mu1 = mu0 + config.base_effect + config.effect_heterogeneity * (x @ c)

    eps_f = rng.standard_normal(n)
    eps_cf = rng.standard_normal(n)
    mu_f = np.where(t == 1, mu1, mu0)
    mu_cf = np.where(t == 1, mu0, mu1)
    dataset = Dataset(
        x=x, t=t,
        y_factual=mu_f + config.noise_sd * eps_f,
        y_cf=mu_cf + config.noise_sd * eps_cf,
        mu0=mu0, mu1=mu1, propensity=propensity,
    )
    truth = {
        "config": asdict(config),
        "propensity_direction": w_p.tolist(),
        "outcome_direction": a.tolist(),
        "nonlinear_direction": b.tolist(),
        "heterogeneity_direction": c.tolist(),
        "true_ate": float(np.mean(mu1 - mu0)),
    }
    return dataset, truth


def _largest_remainder(total: int, fractions: tuple[float, ...]) -> list[int]:
    quotas = [total * f for f in fractions]
    counts = [int(math.floor(q)) for q in quotas]
    remainders = [q - c for q, c in zip(quotas, counts)]
    leftover = total - sum(counts)
    # Ties go to the earlier split so allocation is deterministic.
    order = sorted(range(len(fractions)), key=lambda i: (-remainders[i], i))
    for i in order[:leftover]:
        counts[i] += 1
    return counts


def split(dataset: Dataset, fractions: tuple[float, float, float] = (0.63, 0.27, 0.10),
          seed: int = 0) -> Dataset:
    """Assign train/validation/test codes, stratified by treatment.

    Per-arm counts follow largest-remainder rounding and are then nudged so
    the overall split sizes match the largest-remainder rounding of the
    totals. Every nonempty split must end up with both arms.
    """
    if len(fractions) != 3:
        raise ConfigError(f"fractions must have 3 entries, got {len(fractions)}")
    if not all(math.isfinite(f) and f >= 0 for f in fractions):
        raise ConfigError(f"fractions must be finite and non-negative, got {fractions}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigError(f"fractions must sum to 1, got {sum(fractions)}")
    rng = generator(seed, "split")
    arms = [np.flatnonzero(dataset.t == 1), np.flatnonzero(dataset.t == 0)]
    targets = _largest_remainder(dataset.n, fractions)
    counts = [_largest_remainder(arm.size, fractions) for arm in arms]
    # Move single rows between splits within an arm until totals match.
    for _ in range(dataset.n):
        diffs = [counts[0][s] + counts[1][s] - targets[s] for s in range(3)]
        if not any(diffs):
            break
        s_hi = max(range(3), key=lambda s: diffs[s])
        s_lo = min(range(3), key=lambda s: diffs[s])
        arm = max(range(2), key=lambda a: counts[a][s_hi])
        counts[arm][s_hi] -= 1
        counts[arm][s_lo] += 1
    assignment = np.empty(dataset.n, dtype=np.int64)
    for arm_rows, arm_counts in zip(arms, counts):
        perm = rng.permutation(arm_rows)
        offset = 0
        for code, count in zip((TRAIN, VAL, TEST), arm_counts):
            assignment[perm[offset:offset + count]] = code
            offset += count
    for code, count in zip((TRAIN, VAL, TEST), targets):
        if count == 0:
            continue
        present = dataset.t[assignment == code]
        if (present == 1).sum() == 0 or (present == 0).sum() == 0:
            raise DatasetError(
                f"{SPLIT_NAMES[code]} split would lack a treatment arm; "
                "an arm is too small for these fractions")
    return replace(dataset, split=assignment)


def strip_outcomes(dataset: Dataset, rows: np.ndarray) -> Dataset:
    """Move rows' covariates into the unlabeled pool for adaptation.

    Stripped rows keep their ground truth for evaluation but their
    outcomes and treatments leave every training view. Validation rows
    cannot be stripped: model selection must not depend on them twice.
    """
    rows = np.asarray(rows, dtype=np.intp)
    if rows.size != np.unique(rows).size:
        raise ConfigError("rows to strip contain duplicates")
    if rows.size and (rows.min() < 0 or rows.max() >= dataset.n):
        raise ConfigError(f"rows to strip lie outside [0, {dataset.n})")
    if dataset.split is not None and rows.size:
        if np.any(dataset.split[rows] == VAL):
            raise ConfigError("cannot strip validation rows; they drive model selection")
    mask = dataset.unlabeled_mask.copy()
    mask[rows] = True
    return replace(dataset, unlabeled_mask=mask)


def save_csv(dataset: Dataset, path: str) -> None:
    """Write the interchange CSV: CRLF line ends, floats with 17 significant digits."""
    columns = ["t", "y_factual"]
    values = [dataset.t, dataset.y_factual]
    for name, arr in (("y_cfactual", dataset.y_cf), ("mu0", dataset.mu0),
                      ("mu1", dataset.mu1)):
        if arr is not None:
            columns.append(name)
            values.append(arr)
    columns += [f"x{j}" for j in range(dataset.d)]
    # The bytes csv.writer (excel dialect) writes: no cell needs quoting.
    line = "%d" + ",%.17g" * (len(columns) - 1) + "\r\n"
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(",".join(columns) + "\r\n")
        for start in range(0, dataset.n, CSV_WRITE_ROWS):
            block = np.column_stack([v[start:start + CSV_WRITE_ROWS] for v in (*values, dataset.x)])
            f.write("".join([line % tuple(row) for row in block.tolist()]))


def _check_treatment(t: np.ndarray) -> None:
    bad = np.flatnonzero((t != 0.0) & (t != 1.0))
    if bad.size:
        raise ParseError(f"treatment must be 0 or 1, got {t[bad[0]]!r}",
                         row=int(bad[0]) + 2, column="t")


def _records(f):
    """The lines of f, refusing an empty one with ValueError.

    np.loadtxt skips empty lines, but csv reads each as a record of no
    fields, which load_csv rejects.
    """
    for line in f:
        if line in ("\r\n", "\n", "\r"):
            raise ValueError("empty line")
        yield line


def load_csv(path: str) -> Dataset:
    """Parse the interchange CSV; errors carry the offending row and column.

    Header names must be non-empty and unique. Every cell must hold a
    number that Python's float() accepts and that is finite; nan and inf
    are rejected. A leading UTF-8 byte-order mark, as spreadsheet programs
    write one, is dropped.

    The records after the header are parsed by np.loadtxt, whose C
    tokenizer converts each cell with the routine float() uses, so a cell
    it accepts has float()'s bits. A load that loadtxt refuses (a cell it
    cannot read, an empty line, a ragged record), or whose table is not
    the header's width or holds a non-finite value, goes to _walk_cells.
    That names the first bad cell, or, if no cell is bad, returns float()'s
    table: so quoted cells, underscores and non-ASCII digits load as
    float() reads them.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path!r} is empty") from None
        header = [h.strip() for h in header]
        for position, name in enumerate(header, start=1):
            if not name:
                raise ParseError(f"empty name for header column {position}")
            if header.count(name) > 1:
                raise ParseError("duplicate column name", column=name)
        for mandatory in ("t", "y_factual"):
            if mandatory not in header:
                raise ParseError(f"missing mandatory column", column=mandatory)
        present = {name for name in _SPECIAL_COLUMNS if name in header}
        if ("mu0" in present) != ("mu1" in present):
            raise ParseError("mu0 and mu1 must be present together",
                             column="mu0" if "mu0" in present else "mu1")
        covariate_cols = [h for h in header if h not in _SPECIAL_COLUMNS]
        if not covariate_cols:
            raise ParseError("no covariate columns found")
        first = next(f, None)
        if first is None:
            raise ParseError(f"{path!r} has a header but no rows")
        try:
            table = np.loadtxt(_records(itertools.chain([first], f)), delimiter=",",
                               comments=None, quotechar=None, dtype=np.float64, ndmin=2)
        except ValueError:
            table = None
    if table is None or table.shape[1] != len(header) or not np.isfinite(table).all():
        table = _walk_cells(path, header)

    def column(name: str) -> np.ndarray:
        return table[:, header.index(name)].copy()

    t_raw = column("t")
    _check_treatment(t_raw)
    return Dataset(
        x=table[:, [header.index(name) for name in covariate_cols]],
        t=t_raw.astype(np.int64),
        y_factual=column("y_factual"),
        y_cf=column("y_cfactual") if "y_cfactual" in present else None,
        mu0=column("mu0") if "mu0" in present else None,
        mu1=column("mu1") if "mu1" in present else None,
    )


def _walk_cells(path: str, header: list[str]) -> np.ndarray:
    """The whole file parsed cell by cell with float(); raises at its first bad cell.

    load_csv's one error path. A ragged record comes first; then, column
    by column in the order t (then its 0/1 check), the covariates,
    y_factual, y_cfactual, mu0, mu1, the first cell float() rejects, else
    the first non-finite one. Returns the table if no cell is bad. The file
    is read twice, a record at a time, so only the table and one record's
    cell strings are alive at once.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as f:
        n = 0
        for n, record in enumerate(itertools.islice(csv.reader(f), 1, None), start=1):
            if len(record) != len(header):
                raise ParseError(f"expected {len(header)} fields, got {len(record)}", row=n + 1)
    table = np.empty((n, len(header)))
    rejected, non_finite = {}, {}   # column -> (row, cell) of its first such cell
    with open(path, "r", encoding="utf-8-sig", newline="") as f:
        for i, record in enumerate(itertools.islice(csv.reader(f), 1, None)):
            try:
                values = [float(cell) for cell in record]
            except ValueError:
                values = []
                for j, cell in enumerate(record):
                    try:
                        values.append(float(cell))
                    except ValueError:
                        rejected.setdefault(j, (i, cell))
                        values.append(math.nan)
            if not math.isfinite(sum(values)):   # a nan or inf, or a sum that overflows
                for j, value in enumerate(values):
                    if not math.isfinite(value):
                        non_finite.setdefault(j, (i, record[j]))
            table[i] = values
    covariates = [name for name in header if name not in _SPECIAL_COLUMNS]
    outcomes = [name for name in _SPECIAL_COLUMNS[1:] if name in header]
    for name in ["t", *covariates, *outcomes]:
        j = header.index(name)
        for first, kind in ((rejected, "non-numeric"), (non_finite, "non-finite")):
            if j in first:
                i, cell = first[j]
                raise ParseError(f"{kind} value {cell!r}", row=i + 2, column=name)
        if name == "t":
            _check_treatment(table[:, j])
    return table
