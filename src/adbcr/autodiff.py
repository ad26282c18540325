"""Reverse-mode automatic differentiation over dense float64 tensors.

The engine is define-by-run: each operation computes its value eagerly and
appends the result to a tape, so creation order is already a topological
order and the backward sweep is a single reverse iteration. Every node
carries a vector-Jacobian closure that accumulates into its parents'
gradient buffers; nodes with several consumers therefore sum contributions
instead of overwriting them.

Backward differentiates only with respect to the parameters it is asked
for. A forward sweep first marks the nodes that depend on one of them;
only marked nodes receive gradients, each buffer is allocated by its first
contribution, and a vjp skips every parent that is not marked (a vjp only
runs on a marked node, so the parent of a one-input op is always marked).
Constants, and nodes that depend only on other parameters, end with no
buffer at all. A wanted parameter the root never reaches ends with zeros.

A tape built with recording=False is for forwards that are never
differentiated (predictions, validation): it runs the same ops with the
same arithmetic, but keeps no node and drops each result's parents and vjp,
so every intermediate is freed as soon as its consumer returns and an
eval forward holds a few layers' activations, not all of them. Parameters
are still memoized; backward on such a tape raises.

Tensors are matrices or 3-d stacks of R same-shaped matrices (members).
matmul, add, elu, dropout and take_rows run a stack as one op, and member r
of every result and gradient is bit for bit the 2-d op's on member r: numpy
makes one BLAS call per member, with the 2-d strides. A matrix times a stack
gets its gradient summed one member at a time, last first, as R separate
2-d graphs would add it. A parameter may be a stack too: one named leaf.

The op set is exactly what fully-connected networks with ELU activations,
inverted dropout, mean losses, and row slicing need. Everything is float64:
the data here is desk scale and gradient-check fidelity matters more than
speed.
"""
from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from .errors import ConfigError, DimensionError, DomainError, TrainingError


def _as_tensor(value, stack: bool = False) -> np.ndarray:
    """value as contiguous float64: a matrix, or with stack also a 3-d stack of them."""
    arr = np.ascontiguousarray(value, dtype=np.float64)
    if arr.ndim != 2 and not (stack and arr.ndim == 3):
        raise DimensionError(f"expected a {'2-d or 3-d' if stack else '2-d'} tensor, "
                             f"got shape {arr.shape}")
    return arr


class Tensor:
    """One tape node: a value, its parents, and the vjp that feeds them."""

    __slots__ = ("data", "grad", "parents", "vjp", "index", "needs_grad")

    def __init__(self, data: np.ndarray, parents: tuple = (), vjp: Callable | None = None):
        self.data = data
        self.grad: np.ndarray | None = None
        self.parents = parents
        self.vjp = vjp
        self.index = -1
        self.needs_grad = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape


class Tape:
    """Records tensors in creation order; backward() walks them in reverse.

    params maps each parameter name to its node. With recording=False the
    tape keeps no node and no node keeps its parents or vjp (module
    docstring), so it cannot run backward.
    """

    def __init__(self, recording: bool = True):
        self._recording = recording
        self._nodes: list[Tensor] = []
        self.params: dict[str, Tensor] = {}

    def _record(self, tensor: Tensor) -> Tensor:
        if not self._recording:
            tensor.parents, tensor.vjp = (), None
            return tensor
        tensor.index = len(self._nodes)
        self._nodes.append(tensor)
        return tensor

    def constant(self, value) -> Tensor:
        """Leaf node for data the loss is not differentiated against."""
        return self._record(Tensor(_as_tensor(value)))

    def param(self, name: str, value: np.ndarray) -> Tensor:
        """Leaf node for a named parameter, matrix or stack; memoized so every use shares one."""
        node = self.params.get(name)
        if node is None:
            node = self._record(Tensor(_as_tensor(value, stack=True)))
            self.params[name] = node
        return node

    def grad(self, name: str) -> np.ndarray:
        """The named parameter's gradient after backward."""
        return self.params[name].grad

    def backward(self, root: Tensor, wrt: Iterable[str] | None = None) -> None:
        """Set each wanted parameter's grad to d(root)/d(parameter).

        wrt names the wanted parameters; None wants every parameter on the
        tape. The root must be scalar (1x1) and its grad is 1. Nodes between
        the root and a wanted parameter hold their gradients afterwards;
        every other node's grad is None, except a wanted parameter the root
        never reaches, which gets zeros. Tape.grad reads a parameter's
        gradient.
        """
        if not self._recording:
            raise ConfigError("backward on a tape built with recording=False: "
                              "it keeps no graph to differentiate")
        if root.shape != (1, 1):
            raise DimensionError(f"backward root must be 1x1, got {root.shape}")
        wanted = {id(node): node for node in
                  (self.params[name] for name in (self.params if wrt is None else wrt))}
        for node in self._nodes:
            node.grad = None
            node.needs_grad = id(node) in wanted or any(p.needs_grad for p in node.parents)
        root.grad = np.ones((1, 1))
        if root.needs_grad:
            for node in reversed(self._nodes[:root.index + 1]):
                if node.grad is not None and node.vjp is not None:
                    node.vjp(node.grad)
        for node in wanted.values():
            if node.grad is None:
                node.grad = np.zeros_like(node.data)


def _accumulate(node: Tensor, g: np.ndarray, shared: bool = False) -> None:
    """Add the contribution g into node.grad, allocating it on first use.

    A fresh g becomes the buffer itself; a shared g (one the caller or
    another node still holds) is copied first.
    """
    if node.grad is None:
        node.grad = g.copy() if shared else g
    else:
        node.grad += g


def matmul(tape: Tape, a: Tensor, b: Tensor) -> Tensor:
    """Matrix product, member by member for stacks; a matrix a multiplies every member of b."""
    if (a.shape[-1] != b.shape[-2] or a.data.ndim > b.data.ndim
            or a.shape[:-2] not in ((), b.shape[:-2])):
        raise DimensionError(f"matmul shapes {a.shape} and {b.shape} do not align")
    out = a.data @ b.data
    broadcast = a.data.ndim < b.data.ndim

    def vjp(g: np.ndarray) -> None:
        if a.needs_grad and broadcast:
            for member in reversed(range(b.shape[0])):
                _accumulate(a, g[member] @ b.data[member].T)
        elif a.needs_grad:
            _accumulate(a, g @ b.data.swapaxes(-1, -2))
        if b.needs_grad:
            _accumulate(b, a.data.swapaxes(-1, -2) @ g)

    return tape._record(Tensor(out, (a, b), vjp))


def add(tape: Tape, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; b may also be a bias row (1xC, or Rx1xC for a stack) over a's rows."""
    if a.shape == b.shape:
        out = a.data + b.data

        def vjp(g: np.ndarray) -> None:
            if a.needs_grad:
                _accumulate(a, g, shared=True)
            if b.needs_grad:
                _accumulate(b, g, shared=True)

    elif b.shape == (*a.shape[:-2], 1, a.shape[-1]):
        out = a.data + b.data

        def vjp(g: np.ndarray) -> None:
            if a.needs_grad:
                _accumulate(a, g, shared=True)
            if b.needs_grad:
                _accumulate(b, g.sum(axis=-2, keepdims=True))

    else:
        raise DimensionError(f"add shapes {a.shape} and {b.shape} do not align")
    return tape._record(Tensor(out, (a, b), vjp))


def sub(tape: Tape, a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"sub shapes {a.shape} and {b.shape} differ")
    out = a.data - b.data

    def vjp(g: np.ndarray) -> None:
        if a.needs_grad:
            _accumulate(a, g, shared=True)
        if b.needs_grad:
            _accumulate(b, -g)

    return tape._record(Tensor(out, (a, b), vjp))


def scale(tape: Tape, a: Tensor, factor: float) -> Tensor:
    """Multiply by a python-float constant."""
    c = float(factor)
    out = a.data * c

    def vjp(g: np.ndarray) -> None:
        _accumulate(a, g * c)

    return tape._record(Tensor(out, (a,), vjp))


def elu(tape: Tape, x: Tensor) -> Tensor:
    """x for x > 0, exp(x) - 1 otherwise; C1 at the joint.

    One pass without a branch mask: expm1(min(x, 0)) + max(x, 0), summed in
    the output buffer. The derivative exp(min(x, 0)) is exactly 1 for x > 0
    and is only computed when the vjp runs.
    """
    out = np.minimum(x.data, 0.0)
    np.expm1(out, out=out)
    # A stack adds member by member: its temporary is one matrix, not the stack.
    for part, source in zip(out, x.data) if out.ndim == 3 else [(out, x.data)]:
        part += np.maximum(source, 0.0)

    def vjp(g: np.ndarray) -> None:
        d = np.minimum(x.data, 0.0)
        np.exp(d, out=d)
        d *= g
        _accumulate(x, d)

    return tape._record(Tensor(out, (x,), vjp))


def dropout(tape: Tape, x: Tensor, p: float, uniforms: np.ndarray) -> Tensor:
    """Inverted dropout on U[0, 1) draws of x's shape: zero each entry whose draw
    is below p, scale the survivors by 1/(1-p). p == 0 is the exact identity.
    """
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout probability must lie in [0, 1), got {p}")
    if uniforms.shape != x.shape:
        raise DimensionError(f"dropout draws of shape {uniforms.shape} for a tensor of {x.shape}")
    if p == 0.0:
        return x
    keep = (uniforms >= p) / (1.0 - p)
    out = x.data * keep

    def vjp(g: np.ndarray) -> None:
        _accumulate(x, g * keep)

    return tape._record(Tensor(out, (x,), vjp))


def take_rows(tape: Tape, x: Tensor, rows, member: int | None = None) -> Tensor:
    """Select rows by index, of one member where x is a stack; backward scatter-adds.

    Every take from one source, whichever member, adds into the source's
    one zeroed gradient buffer.
    """
    idx = np.asarray(rows, dtype=np.intp)
    if idx.ndim != 1:
        raise DimensionError(f"row index must be 1-d, got shape {idx.shape}")
    if (member is None) != (x.data.ndim == 2):
        raise DimensionError(f"take_rows of shape {x.shape} with member {member}: "
                             "a stack needs a member, a matrix has none")
    out = (x.data if member is None else x.data[member])[idx]

    def vjp(g: np.ndarray) -> None:
        if x.grad is None:
            x.grad = np.zeros_like(x.data)
        np.add.at(x.grad if member is None else x.grad[member], idx, g)

    return tape._record(Tensor(out, (x,), vjp))


def mse_loss(tape: Tape, pred: Tensor, target: Tensor) -> Tensor:
    """Mean of squared residuals, as a 1x1 tensor."""
    if pred.shape != target.shape:
        raise DimensionError(f"mse shapes {pred.shape} and {target.shape} differ")
    n = pred.data.size
    if n == 0:
        raise DomainError("mse_loss of an empty tensor")
    diff = pred.data - target.data
    out = np.array([[float(np.mean(diff * diff))]])

    def vjp(g: np.ndarray) -> None:
        d = (2.0 * g[0, 0] / n) * diff
        if pred.needs_grad:
            _accumulate(pred, d)
        if target.needs_grad:
            _accumulate(target, -d)

    return tape._record(Tensor(out, (pred, target), vjp))


def l1_mean(tape: Tape, a: Tensor, b: Tensor) -> Tensor:
    """Mean absolute gap, as a 1x1 tensor; subgradient at exact ties is 0."""
    if a.shape != b.shape:
        raise DimensionError(f"l1 shapes {a.shape} and {b.shape} differ")
    n = a.data.size
    if n == 0:
        raise DomainError("l1_mean of an empty tensor")
    diff = a.data - b.data
    out = np.array([[float(np.mean(np.abs(diff)))]])
    sign = np.sign(diff)

    def vjp(g: np.ndarray) -> None:
        d = (g[0, 0] / n) * sign
        if a.needs_grad:
            _accumulate(a, d)
        if b.needs_grad:
            _accumulate(b, -d)

    return tape._record(Tensor(out, (a, b), vjp))


def softmax_cross_entropy(tape: Tape, logits: Tensor, labels) -> Tensor:
    """Mean cross entropy of row-wise softmax against integer labels."""
    y = np.asarray(labels, dtype=np.intp)
    n, c = logits.shape
    if y.shape != (n,):
        raise DimensionError(f"labels shape {y.shape} does not match {n} logit rows")
    if n == 0:
        raise DomainError("cross entropy of an empty batch")
    if y.min() < 0 or y.max() >= c:
        raise DomainError(f"labels must lie in [0, {c}), got range [{y.min()}, {y.max()}]")
    z = logits.data
    zmax = z.max(axis=1, keepdims=True)
    ez = np.exp(z - zmax)
    prob = ez / ez.sum(axis=1, keepdims=True)
    logprob = (z - zmax) - np.log(ez.sum(axis=1, keepdims=True))
    out = np.array([[float(-np.mean(logprob[np.arange(n), y]))]])

    def vjp(g: np.ndarray) -> None:
        d = prob.copy()
        d[np.arange(n), y] -= 1.0
        _accumulate(logits, (g[0, 0] / n) * d)

    return tape._record(Tensor(out, (logits,), vjp))


class ParamSet:
    """Ordered, named collection of parameter arrays (weights and biases).

    Holds plain float64 arrays that optimizers update in place; it carries
    no optimizer state itself, so several optimizers can own disjoint or
    overlapping views of the same parameters. A parameter is a matrix or a
    3-d stack of same-shaped matrices.
    """

    def __init__(self):
        self._arrays: dict[str, np.ndarray] = {}

    def add(self, name: str, array: np.ndarray) -> None:
        if name in self._arrays:
            raise ConfigError(f"duplicate parameter name {name!r}")
        self._arrays[name] = _as_tensor(array, stack=True)

    def __getitem__(self, name: str) -> np.ndarray:
        return self._arrays[name]

    def __contains__(self, name: str) -> bool:
        return name in self._arrays

    def names(self) -> list[str]:
        return list(self._arrays)

    def items(self) -> Iterable[tuple[str, np.ndarray]]:
        return self._arrays.items()

    def subset(self, *prefixes: str) -> dict[str, np.ndarray]:
        """Insertion-ordered view of the parameters whose names match a prefix."""
        return {k: v for k, v in self._arrays.items() if k.startswith(prefixes)}

    def snapshot(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self._arrays.items()}

    def restore(self, snapshot: dict[str, np.ndarray]) -> None:
        for name, value in snapshot.items():
            self._arrays[name][...] = value

    def count(self) -> int:
        return sum(v.size for v in self._arrays.values())


def _flat(arrays: Iterable[np.ndarray]) -> np.ndarray:
    """The arrays' entries end to end in one new 1-d buffer."""
    return np.concatenate([a.ravel() for a in arrays] or [np.zeros(0)])


# Adam's moment decay rates and the floor added to the second moment's root.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam with bias correction; weight decay enters as an l2 term in the gradient.

    The moments decay at ADAM_BETA1 and ADAM_BETA2. One instance owns the
    first and second moments (and shared step count) for exactly the
    parameters it was constructed with and updates those arrays in place.
    The moments live in one flat buffer holding every parameter's entries in
    construction order, so a step is a handful of whole-buffer operations.
    """

    def __init__(self, params: dict[str, np.ndarray], lr: float, weight_decay: float = 0.0):
        if lr < 0:
            raise ConfigError(f"learning rate must be non-negative, got {lr}")
        self._params = dict(params)
        self.lr = float(lr)
        self.weight_decay = float(weight_decay)
        offsets = np.cumsum([0] + [p.size for p in self._params.values()])
        self._slices = [slice(a, b) for a, b in zip(offsets[:-1], offsets[1:])]
        self._m = np.zeros(offsets[-1])
        self._v = np.zeros(offsets[-1])
        self.step_count = 0

    def names(self) -> list[str]:
        return list(self._params)

    def step(self, grads: dict[str, np.ndarray]) -> None:
        """One update from a full set of gradients for this optimizer's parameters."""
        g = _flat(grads[name] for name in self._params)
        if not np.isfinite(g).all():
            for (name, p), sl in zip(self._params.items(), self._slices):
                bad = np.flatnonzero(~np.isfinite(g[sl]))
                if bad.size:
                    # A stack's members are separate parameters to its owner: name the member.
                    member = f" member {bad[0] // p[0].size}" if p.ndim == 3 else ""
                    raise TrainingError(f"non-finite gradient for parameter {name!r}{member}")
        self.step_count += 1
        t = self.step_count
        c1 = 1.0 - ADAM_BETA1 ** t
        c2 = 1.0 - ADAM_BETA2 ** t
        if self.weight_decay != 0.0:
            g += self.weight_decay * _flat(self._params.values())
        m, v = self._m, self._v
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        g *= g
        g *= 1.0 - ADAM_BETA2
        v += g
        update = m / c1
        update *= self.lr
        denom = v / c2
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        update /= denom
        for p, sl in zip(self._params.values(), self._slices):
            p -= update[sl].reshape(p.shape)


def grads_for(tape: Tape, names: Iterable[str]) -> dict[str, np.ndarray]:
    """Gradient buffers for named parameters after a backward pass."""
    return {name: tape.grad(name) for name in names}
