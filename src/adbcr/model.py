"""Networks over a shared representation, and the checkpoint container.

`Network` maps standardized covariates through a shared stack of dense
layers (linear, ELU, dropout) and feeds the result to the outcome heads of
each treatment arm that a subclass declares in `ARMS` (two per arm for
`AdbcrModel`, one for `adbcr.baselines.DanncrModel`), plus any extra stacks.
The heads all have one shape and read the same input, so each head layer's
weights and biases are one stacked parameter with a member per head, and
`forward_heads` runs the shared stack once, then every head at once as one
stacked dense stack. Only the checkpoint names each head's arrays on its
own (`Network.checkpoint_arrays`), so its layout is one matrix per head.
Eval-mode forwards (predictions, and the validation entries through
`adbcr.objectives.build_losses`) run through `Network.eval_forward`, over
the rows in blocks whose widest activation stays within EVAL_BLOCK_BYTES,
so their memory does not grow with the number of rows beyond the outputs.
Predictions average each arm's heads and are de-standardized with scalers
learned from the training split. `load` checks every header field it reads
and every stored parameter's name and shape.

The module also owns the checkpoint container used by every model kind in
the package: a magic string, a format version, a canonical JSON header, and
little-endian float64 parameter blobs, with nothing time-dependent so equal
runs produce equal bytes. A checkpoint is written through
`adbcr.data.write_atomically`, so it appears whole or not at all, with the
mode the umask gives any other output file.
"""
from __future__ import annotations

import hashlib
import json
import math
import reprlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import autodiff
from .autodiff import ParamSet, Tape
from .data import write_atomically
from .errors import CheckpointError, ConfigError, DimensionError
from .seeding import generator

_MAGIC = b"ADBCR-CKPT\x00"
_VERSION = 1

# Byte cap of the widest activation in one block of Network.eval_forward:
# members x rows x widest layer x 8 bytes.
EVAL_BLOCK_BYTES = 1 << 20


@dataclass
class Scalers:
    """Per-covariate and outcome standardization constants."""

    x_mean: np.ndarray
    x_std: np.ndarray
    y_mean: float
    y_std: float

    @staticmethod
    def identity(d: int) -> "Scalers":
        return Scalers(np.zeros((1, d)), np.ones((1, d)), 0.0, 1.0)

    @staticmethod
    def fit(x: np.ndarray, y: np.ndarray) -> "Scalers":
        """Standardization constants from training rows; zero spreads become 1."""
        x_mean = x.mean(axis=0, keepdims=True)
        x_std = x.std(axis=0, keepdims=True)
        x_std[x_std == 0.0] = 1.0
        y_std = float(y.std())
        return Scalers(x_mean, x_std, float(y.mean()), y_std if y_std > 0.0 else 1.0)

    def standardize_x(self, x: np.ndarray) -> np.ndarray:
        """(x - x_mean) / x_std, dividing the one n x d difference in place."""
        z = x - self.x_mean
        z /= self.x_std
        return z

    def standardize_y(self, y: np.ndarray) -> np.ndarray:
        return (y - self.y_mean) / self.y_std

    def destandardize_y(self, y: np.ndarray) -> np.ndarray:
        return y * self.y_std + self.y_mean


def init_dense(params: ParamSet, prefix: str, sizes: list[int], rng: np.random.Generator) -> None:
    """Add weight and bias parameters for a dense stack with the given widths.

    Entries are uniform on (-1/sqrt(fan_in), 1/sqrt(fan_in)).
    """
    for i in range(len(sizes) - 1):
        fan_in = sizes[i]
        bound = 1.0 / np.sqrt(fan_in)
        params.add(f"{prefix}.{i}.w", rng.uniform(-bound, bound, (fan_in, sizes[i + 1])))
        params.add(f"{prefix}.{i}.b", rng.uniform(-bound, bound, (1, sizes[i + 1])))


def dense_forward(tape: Tape, layers: list[tuple[autodiff.Tensor, autodiff.Tensor]],
                  h: autodiff.Tensor, dropout_p: float, rng: np.random.Generator | None,
                  final_plain: bool) -> autodiff.Tensor:
    """Forward a dense stack of (weight, bias) nodes; each layer is linear, ELU, dropout.

    With final_plain the last layer stays purely linear (scalar outputs).
    Stacked (3-d) weights run R dense stacks at once. Dropout applies only
    when rng is given and dropout_p != 0. Its draws for every hidden layer
    come from one rng.random call, member by member and layer by layer: the
    order in which R matrix stacks run one after another would draw them.
    """
    n_hidden = len(layers) - final_plain
    draws = None
    if rng is not None and dropout_p != 0.0:
        stack, rows = layers[0][0].shape[:-2], h.shape[-2]   # stack is () or (R,)
        widths = [w.shape[-1] for w, _ in layers[:n_hidden]]
        block = rng.random((math.prod(stack), rows * sum(widths)))
        draws = [part.reshape(*stack, rows, width) for part, width in
                 zip(np.split(block, np.cumsum(widths[:-1]) * rows, axis=1), widths)]
    for i, (w, b) in enumerate(layers):
        h = autodiff.add(tape, autodiff.matmul(tape, h, w), b)
        if i < n_hidden:
            h = autodiff.elu(tape, h)
            if draws is not None:
                h = autodiff.dropout(tape, h, dropout_p, draws[i])
    return h


def check_columns(x: np.ndarray, input_dim: int) -> np.ndarray:
    """x as float64; DimensionError unless it is 2-d with input_dim columns."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != input_dim:
        raise DimensionError(f"expected covariates with {input_dim} columns, got shape {x.shape}")
    return x


def _check_layer_sizes(name: str, sizes) -> tuple[int, ...]:
    sizes = tuple(int(s) for s in sizes)
    if not sizes:
        raise ConfigError(f"{name} must list at least one layer width")
    if any(s < 1 for s in sizes):
        raise ConfigError(f"{name} contains a zero-width layer: {sizes}")
    return sizes


class Network:
    """Shared representation `phi` feeding the dense stacks a subclass declares.

    ARMS holds the scalar head prefixes of arm 0, then arm 1; EXTRA_STACKS
    holds further (prefix, output width). Each stack, initialized in that
    order from a seed stream named after its prefix, has the head_layers
    hidden widths and a purely linear output layer. The heads, in ARMS
    order, are the members of the stacked parameters "heads.<layer>.w" and
    "heads.<layer>.b"; the checkpoint names them "<head prefix>.<layer>.w|b".
    """

    kind: str
    ARMS: tuple[tuple[str, ...], tuple[str, ...]]
    EXTRA_STACKS: tuple[tuple[str, int], ...] = ()

    def __init__(self, input_dim: int, shared_layers, head_layers,
                 dropout_p: float, seed: int):
        if input_dim < 1:
            raise ConfigError(f"input_dim must be at least 1, got {input_dim}")
        if not 0.0 <= dropout_p < 1.0:
            raise ConfigError(f"dropout_p must lie in [0, 1), got {dropout_p}")
        self.input_dim = int(input_dim)
        self.shared_layers = _check_layer_sizes("shared_layers", shared_layers)
        self.head_layers = _check_layer_sizes("head_layers", head_layers)
        self.dropout_p = float(dropout_p)
        self.seed = int(seed)
        self.scalers = Scalers.identity(self.input_dim)
        self.params = ParamSet()
        init_dense(self.params, "phi", [self.input_dim, *self.shared_layers],
                   generator(seed, "init", "phi"))
        self.head_prefixes = tuple(prefix for arm in self.ARMS for prefix in arm)
        # Member indices of each arm's heads in forward_heads' output.
        self.arm_members = (tuple(range(len(self.ARMS[0]))),
                            tuple(range(len(self.ARMS[0]), len(self.head_prefixes))))
        heads = []
        for prefix in self.head_prefixes:
            heads.append(ParamSet())
            init_dense(heads[-1], "heads", [self.shared_layers[-1], *self.head_layers, 1],
                       generator(seed, "init", prefix))
        for name in heads[0].names():
            self.params.add(name, np.stack([head[name] for head in heads]))
        for prefix, width in self.EXTRA_STACKS:
            init_dense(self.params, prefix, [self.shared_layers[-1], *self.head_layers, width],
                       generator(seed, "init", prefix))

    def checkpoint_arrays(self) -> dict[str, np.ndarray]:
        """Every parameter under its checkpoint name, in checkpoint order.

        The trunk, then each head's layers in ARMS order as views of its
        stack members ("head.0.1.0.w" is member 1 of "heads.0.w"), then the
        extra stacks. Writing into a view writes into the stack.
        """
        heads = {prefix + name.removeprefix("heads"): stack[member]
                 for member, prefix in enumerate(self.head_prefixes)
                 for name, stack in self.params.subset("heads.").items()}
        return {**self.params.subset("phi."), **heads,
                **self.params.subset(*(f"{prefix}." for prefix, _ in self.EXTRA_STACKS))}

    def _layers(self, tape: Tape, prefix: str, n_layers: int):
        return [(tape.param(f"{prefix}.{i}.w", self.params[f"{prefix}.{i}.w"]),
                 tape.param(f"{prefix}.{i}.b", self.params[f"{prefix}.{i}.b"]))
                for i in range(n_layers)]

    def phi_forward(self, tape: Tape, x: autodiff.Tensor,
                    rng: np.random.Generator | None = None) -> autodiff.Tensor:
        """The shared representation of x; with a generator, a training forward (dropout)."""
        return dense_forward(tape, self._layers(tape, "phi", len(self.shared_layers)), x,
                             self.dropout_p, rng, final_plain=False)

    def stack_forward(self, tape: Tape, prefix: str, h: autodiff.Tensor,
                      rng: np.random.Generator | None = None) -> autodiff.Tensor:
        """One dense stack on h, by its prefix: an extra stack, or "heads" for every head."""
        return dense_forward(tape, self._layers(tape, prefix, len(self.head_layers) + 1), h,
                             self.dropout_p, rng, final_plain=True)

    def forward_heads(self, tape: Tape, x: autodiff.Tensor,
                      rng: np.random.Generator | None = None):
        """(h, heads): the representation h of x, and every head's output on h.

        heads is an (R, n, 1) stack in ARMS order; arm t's heads are the
        members arm_members[t]. All heads run as one stacked dense stack,
        drawing dropout as the heads one after another would.
        """
        h = self.phi_forward(tape, x, rng)
        return h, self.stack_forward(tape, "heads", h, rng)

    def eval_forward(self, tape: Tape, x: np.ndarray, extra: str | None = None,
                     raw: bool = False):
        """(heads, logits): forward_heads in eval mode over the rows of x in blocks.

        heads is the (R, n, 1) head output stack on the standardized rows x
        (with raw, x holds raw covariates, standardized a block at a time);
        logits is the named extra stack's output on them, or None. Both are
        constants on tape. Each block has at least one row, and as many as
        keep members x rows x widest layer x 8 bytes within EVAL_BLOCK_BYTES,
        so an x that fits in one block gives forward_heads' bits. BLAS may
        pick another kernel for a block's row count, so a blocked output can
        differ from the one-block forward in the last bits.
        """
        members = len(self.head_prefixes)
        widest = max(*self.shared_layers, *self.head_layers, *(w for _, w in self.EXTRA_STACKS))
        rows = max(1, EVAL_BLOCK_BYTES // (8 * members * widest))
        heads = np.empty((members, len(x), 1))
        logits = None if extra is None else np.empty((len(x), dict(self.EXTRA_STACKS)[extra]))
        for start in range(0, len(x), rows):
            block = slice(start, start + rows)
            rows_x = self.scalers.standardize_x(x[block]) if raw else x[block]
            h, out = self.forward_heads(tape, tape.constant(rows_x))
            heads[:, block] = out.data
            if logits is not None:
                logits[block] = self.stack_forward(tape, extra, h).data
        return tape.constant(heads), None if logits is None else tape.constant(logits)

    def predict_potential_outcomes(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """De-standardized (y0, y1) on raw covariates, eval mode; each arm averages its heads."""
        x = check_columns(x, self.input_dim)
        heads, _ = self.eval_forward(Tape(recording=False), x, raw=True)
        y0, y1 = (self.scalers.destandardize_y(np.mean(heads.data[list(members), :, 0], axis=0))
                  for members in self.arm_members)
        return y0, y1

    def save(self, path: str, *, config: dict | None = None,
             validation_criterion: float | None = None,
             data_seed: int | None = None,
             split_fractions: tuple[float, float, float] | None = None) -> None:
        arch = {key: getattr(self, key) for key in NETWORK_ARCH_FIELDS}
        write_checkpoint(path, self.kind, arch, self.checkpoint_arrays(),
                         {"scalers": _scalers_to_header(self.scalers)},
                         config=config, validation_criterion=validation_criterion,
                         data_seed=data_seed, split_fractions=split_fractions)

    @classmethod
    def load(cls, arrays: dict[str, np.ndarray], header: dict) -> "Network":
        """Rebuild a saved network; the arrays must match its architecture exactly."""
        model = cls(*(header_field(header, f"arch.{key}", valid)
                      for key, valid in NETWORK_ARCH_FIELDS.items()))
        targets = model.checkpoint_arrays()
        check_arrays(arrays, {name: a.shape for name, a in targets.items()})
        for name, target in targets.items():
            target[...] = arrays[name]
        model.scalers = scalers_from_header(header, model.input_dim)
        return model


class AdbcrModel(Network):
    """Shared representation plus two outcome heads per treatment arm."""

    kind = "adbcr"
    ARMS = (("head.0.0", "head.0.1"), ("head.1.0", "head.1.1"))


def _scalers_to_header(s: Scalers) -> dict:
    return {
        "x_mean": s.x_mean[0].tolist(),
        "x_std": s.x_std[0].tolist(),
        "y_mean": s.y_mean,
        "y_std": s.y_std,
    }


def scalers_from_header(header: dict, input_dim: int) -> Scalers:
    """The scalers stored under a checkpoint header's "scalers" field, for input_dim covariates."""
    def spread(v) -> bool:
        return valid_real(v) and v > 0.0

    def row(key: str, item) -> np.ndarray:
        values = header_field(header, f"scalers.{key}", lambda v: valid_list(v, item, input_dim))
        return np.array([values], dtype=np.float64)

    return Scalers(row("x_mean", valid_real), row("x_std", spread),
                   float(header_field(header, "scalers.y_mean", valid_real)),
                   float(header_field(header, "scalers.y_std", spread)))


def canonical_fingerprint(obj) -> str:
    """Stable short digest of a JSON-serializable configuration."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def write_checkpoint(path: str, kind: str, arch: dict,
                     arrays: dict[str, np.ndarray], extra: dict | None = None, *,
                     config: dict | None = None,
                     validation_criterion: float | None = None,
                     data_seed: int | None = None,
                     split_fractions: tuple[float, float, float] | None = None) -> None:
    """Write the shared checkpoint container atomically.

    Layout: magic, u32 version, u64 header length, canonical JSON header,
    then the parameter matrices as little-endian float64 blobs in header
    order. The header holds the run metadata plus the kind's extra fields
    and no timestamps, so equal contents give equal bytes.
    """
    header = {
        "kind": kind,
        "arch": arch,
        "params": [[name, list(a.shape)] for name, a in arrays.items()],
        "config": config,
        "fingerprint": canonical_fingerprint(config) if config is not None else None,
        "validation_criterion": validation_criterion,
        "data_seed": data_seed,
        "split_fractions": list(split_fractions) if split_fractions else None,
        **(extra or {}),
    }
    payload = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with write_atomically(path, "wb") as f:
        f.write(_MAGIC)
        f.write(np.uint32(_VERSION).tobytes())
        f.write(np.uint64(len(payload)).tobytes())
        f.write(payload)
        for a in arrays.values():
            f.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def read_checkpoint(path: str) -> tuple[str, dict, dict[str, np.ndarray], dict]:
    """Read the container back as (kind, arch, arrays, header).

    A file that cannot be opened raises OSError unchanged; CheckpointError
    is reserved for content defects, a missing header field among them.
    """
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < len(_MAGIC) + 12 or not blob.startswith(_MAGIC):
        raise CheckpointError(f"{path!r} is not a checkpoint file")
    offset = len(_MAGIC)
    version = int(np.frombuffer(blob, "<u4", count=1, offset=offset)[0])
    if version != _VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    offset += 4
    header_len = int(np.frombuffer(blob, "<u8", count=1, offset=offset)[0])
    offset += 8
    if len(blob) < offset + header_len:
        raise CheckpointError(f"{path!r} is truncated inside the header")
    try:
        header = json.loads(blob[offset:offset + header_len].decode("utf-8"))
    except ValueError as e:
        raise CheckpointError(f"{path!r} has a corrupt header: {e}") from e
    offset += header_len
    arrays: dict[str, np.ndarray] = {}
    for name, (rows, cols) in header_field(header, "params", _valid_param_list):
        nbytes = rows * cols * 8
        if len(blob) < offset + nbytes:
            raise CheckpointError(f"{path!r} is truncated inside parameter {name!r}")
        arrays[name] = np.frombuffer(blob, "<f8", count=rows * cols,
                                     offset=offset).reshape(rows, cols).copy()
        offset += nbytes
    if offset != len(blob):
        raise CheckpointError(f"{path!r} has {len(blob) - offset} trailing bytes")
    return (header_field(header, "kind", lambda v: isinstance(v, str)),
            header_field(header, "arch", lambda v: isinstance(v, dict)), arrays, header)


def header_field(header: dict, path: str, valid: Callable[[object], bool] | None = None):
    """The header entry at a dotted path such as "arch.seed".

    CheckpointError, naming the field, if the entry is missing or if it
    fails the predicate valid.
    """
    value = header
    keys = path.split(".")
    for depth, key in enumerate(keys, start=1):
        if not isinstance(value, dict) or key not in value:
            raise CheckpointError(
                f"checkpoint header lacks the field {'.'.join(keys[:depth])!r}")
        value = value[key]
    if valid is not None and not valid(value):
        raise CheckpointError(
            f"checkpoint header field {path!r} has the invalid value {reprlib.repr(value)}")
    return value


def valid_int(value, low: int = 0) -> bool:
    """A JSON integer (not a boolean) of at least low."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= low


def valid_real(value) -> bool:
    """A finite JSON number (not a boolean)."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def valid_list(value, item: Callable[[object], bool], length: int | None = None) -> bool:
    """A non-empty JSON list of entries that pass item, of the given length if any."""
    return (isinstance(value, list) and len(value) > 0
            and (length is None or len(value) == length) and all(item(v) for v in value))


def _valid_param_list(value) -> bool:
    """A JSON list of [name, [rows, cols]] entries."""
    return isinstance(value, list) and all(
        isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)
        and isinstance(entry[1], list) and len(entry[1]) == 2
        and all(valid_int(size) for size in entry[1])
        for entry in value)


def _widths(value) -> bool:
    return valid_list(value, lambda w: valid_int(w, 1))


# The arch fields of every network kind, in constructor order, with their checks.
NETWORK_ARCH_FIELDS: dict[str, Callable[[object], bool]] = {
    "input_dim": lambda v: valid_int(v, 1),
    "shared_layers": _widths,
    "head_layers": _widths,
    "dropout_p": lambda v: valid_real(v) and 0.0 <= v < 1.0,
    "seed": valid_int,
}


def check_arrays(arrays: dict[str, np.ndarray], expected: dict[str, tuple[int, ...]]) -> None:
    """Raise CheckpointError unless arrays has exactly the expected names and shapes."""
    found = {name: a.shape for name, a in arrays.items()}
    bad = [f"{name}: stored {found.get(name, 'nothing')}, "
           f"expected {expected.get(name, 'nothing')}"
           for name in sorted(found.keys() | expected.keys())
           if found.get(name) != expected.get(name)]
    if bad:
        raise CheckpointError("checkpoint parameters do not match the declared "
                              "architecture: " + "; ".join(bad))


# Loader of each checkpoint kind; adbcr.baselines adds the lasso and danncr kinds.
CHECKPOINT_LOADERS: dict[str, Callable[[dict[str, np.ndarray], dict], object]] = {
    AdbcrModel.kind: AdbcrModel.load}


def load_checkpoint(path: str) -> tuple[object, dict]:
    """Load any checkpoint written by this package as (model, header).

    Dispatches on the checkpoint's kind.
    """
    kind, _, arrays, header = read_checkpoint(path)
    loader = CHECKPOINT_LOADERS.get(kind)
    if loader is None:
        raise CheckpointError(
            f"unknown checkpoint kind {kind!r}; known kinds: {sorted(CHECKPOINT_LOADERS)}")
    return loader(arrays, header), header


def load_model(path: str):
    """The model of load_checkpoint(path)."""
    return load_checkpoint(path)[0]
