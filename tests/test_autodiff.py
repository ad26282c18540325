"""Engine tests: forward values, gradients against finite differences, Adam."""
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adbcr import autodiff
from adbcr.autodiff import Adam, ParamSet, Tape
from adbcr.errors import ConfigError, DimensionError, DomainError, TrainingError
from adbcr.model import AdbcrModel
from adbcr.objectives import BatchView, build_losses

from conftest import finite_difference, rel_err


# ---------------------------------------------------------------------------
# forward values

def test_matmul_identity():
    """Identity times a column leaves it unchanged."""
    tape = Tape()
    a = tape.constant([[1.0, 0.0], [0.0, 1.0]])
    b = tape.constant([[3.0], [4.0]])
    out = autodiff.matmul(tape, a, b)
    np.testing.assert_array_equal(out.data, [[3.0], [4.0]])


def test_matmul_scalar():
    tape = Tape()
    out = autodiff.matmul(tape, tape.constant([[2.0]]), tape.constant([[5.0]]))
    assert out.data[0, 0] == 10.0


def test_matmul_shape_mismatch():
    tape = Tape()
    with pytest.raises(DimensionError):
        autodiff.matmul(tape, tape.constant(np.ones((2, 3))), tape.constant(np.ones((2, 3))))


def test_elu_values():
    """0 -> 0, 1 -> 1, -1 -> exp(-1)-1."""
    tape = Tape()
    out = autodiff.elu(tape, tape.constant([[0.0, 1.0, -1.0]]))
    np.testing.assert_allclose(out.data, [[0.0, 1.0, np.expm1(-1.0)]], rtol=0, atol=1e-15)


def test_elu_large_negative_no_overflow():
    tape = Tape()
    out = autodiff.elu(tape, tape.constant([[-1e4]]))
    assert out.data[0, 0] == -1.0
    root = autodiff.mse_loss(tape, out, tape.constant([[0.0]]))
    tape.backward(root)
    assert np.all(np.isfinite(root.grad))


ELU_EDGES = [0.0, 1e-300, -1e-300, -745.0, 1e4, -1e4, np.inf, -np.inf]


@pytest.mark.parametrize("values", [
    np.random.default_rng(21).normal(scale=3.0, size=(6, 7)),
    np.array([ELU_EDGES]),
], ids=["random", "edges"])
def test_elu_matches_where_formula(values):
    """Values and grads equal the two-mask formula elementwise, edge values included."""
    neg = np.minimum(values, 0.0)
    where_out = np.where(values > 0.0, values, np.expm1(neg))
    where_deriv = np.where(values > 0.0, 1.0, np.exp(neg))
    rows, cols = values.shape
    tape = Tape()
    x = tape.param("x", values)
    out = autodiff.elu(tape, x)
    np.testing.assert_array_equal(out.data, where_out)
    # Reduce through constant weights, so the upstream gradient of out is
    # finite and nonzero everywhere whatever out holds.
    left = tape.constant(np.linspace(0.5, 1.5, rows).reshape(1, rows))
    right = tape.constant(np.linspace(-2.0, -1.0, cols).reshape(cols, 1))
    with np.errstate(invalid="ignore"):
        root = autodiff.matmul(tape, autodiff.matmul(tape, left, out), right)
    tape.backward(root)
    assert np.all(np.isfinite(out.grad)) and np.all(out.grad != 0.0)
    np.testing.assert_array_equal(x.grad, out.grad * where_deriv)


def test_mse_values():
    tape = Tape()
    pred = tape.constant([[2.0]])
    same = autodiff.mse_loss(tape, pred, tape.constant([[2.0]]))
    assert same.data[0, 0] == 0.0
    off = autodiff.mse_loss(tape, pred, tape.constant([[0.0]]))
    assert off.data[0, 0] == 4.0


def test_mse_empty_rejected():
    tape = Tape()
    empty = tape.constant(np.empty((0, 1)))
    with pytest.raises(DomainError):
        autodiff.mse_loss(tape, empty, empty)


def test_l1_values():
    tape = Tape()
    a = tape.constant([[1.0, 3.0]])
    b = tape.constant([[0.0, 1.0]])
    out = autodiff.l1_mean(tape, a, b)
    assert out.data[0, 0] == 1.5
    same = autodiff.l1_mean(tape, a, a)
    assert same.data[0, 0] == 0.0


def test_softmax_cross_entropy_matches_manual():
    """Value equals the mean negative log softmax probability of the label."""
    rng = np.random.default_rng(3)
    logits = rng.normal(size=(6, 2))
    labels = rng.integers(0, 2, size=6)
    tape = Tape()
    out = autodiff.softmax_cross_entropy(tape, tape.constant(logits), labels)
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    expect = -np.mean(logp[np.arange(6), labels])
    np.testing.assert_allclose(out.data[0, 0], expect, rtol=1e-14)


def test_softmax_cross_entropy_label_range():
    tape = Tape()
    with pytest.raises(DomainError):
        autodiff.softmax_cross_entropy(tape, tape.constant(np.zeros((2, 2))), [0, 2])


# ---------------------------------------------------------------------------
# dropout

def test_dropout_eval_and_p0_identity():
    """Eval mode and p=0 return the input node itself and draw no randomness."""
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state["state"]["state"]
    tape = Tape()
    x = tape.constant(np.ones((3, 3)))
    assert autodiff.dropout(tape, x, 0.5, False, rng) is x
    assert autodiff.dropout(tape, x, 0.0, True, rng) is x
    assert rng.bit_generator.state["state"]["state"] == before


def test_dropout_invalid_p():
    tape = Tape()
    x = tape.constant(np.ones((2, 2)))
    with pytest.raises(ConfigError):
        autodiff.dropout(tape, x, 1.0, True, np.random.default_rng(0))
    with pytest.raises(ConfigError):
        autodiff.dropout(tape, x, 0.5, True, None)


def test_dropout_mean_preserved():
    """p=0.5 on 1e4 ones: sample mean within 3 sigma of 1 (binomial concentration)."""
    tape = Tape()
    x = tape.constant(np.ones((100, 100)))
    out = autodiff.dropout(tape, x, 0.5, True, np.random.default_rng(7))
    # each output entry is 0 or 2 with variance p/(1-p) = 1; sd of mean = 1e-2
    assert abs(out.data.mean() - 1.0) < 3e-2
    survivors = out.data[out.data != 0.0]
    np.testing.assert_allclose(survivors, 2.0)


def test_dropout_backward_uses_forward_mask():
    """The vjp scales by the same kept/scaled mask the forward pass drew."""
    rng = np.random.default_rng(11)
    mask_rng = np.random.default_rng(11)
    keep = (mask_rng.random((4, 5)) >= 0.3) / 0.7
    tape = Tape()
    x = tape.param("x", np.full((4, 5), 2.0))
    out = autodiff.dropout(tape, x, 0.3, True, rng)
    np.testing.assert_array_equal(out.data, 2.0 * keep)
    # |out - 0| has positive entries exactly at kept positions, so the l1
    # gradient w.r.t. x is sign * keep / n = keep / n.
    root = autodiff.l1_mean(tape, out, tape.constant(np.zeros((4, 5))))
    tape.backward(root)
    np.testing.assert_allclose(x.grad, keep / 20.0, rtol=1e-15)


# ---------------------------------------------------------------------------
# backward mechanics

def test_backward_accumulates_shared_node():
    """d/dx of (x + x) is 2, not 1: contributions sum."""
    tape = Tape()
    x = tape.param("x", np.array([[1.5]]))
    root = autodiff.add(tape, x, x)
    tape.backward(root)
    assert x.grad[0, 0] == 2.0


def test_backward_param_memoized_across_uses():
    """Two graph uses of one named parameter share a node and sum gradients."""
    tape = Tape()
    x = tape.param("x", np.array([[3.0]]))
    again = tape.param("x", np.array([[999.0]]))  # value ignored, same node
    assert again is x
    root = autodiff.mse_loss(tape, autodiff.add(tape, x, x), tape.constant([[0.0]]))
    tape.backward(root)
    # d/dx (2x)^2 = 8x = 24
    np.testing.assert_allclose(x.grad, [[24.0]], rtol=1e-14)


def test_backward_requires_scalar_root():
    tape = Tape()
    x = tape.constant(np.ones((2, 2)))
    with pytest.raises(DimensionError):
        tape.backward(x)


def test_backward_unreached_nodes_zero():
    tape = Tape()
    used = tape.param("used", np.array([[1.0]]))
    unused = tape.param("unused", np.array([[1.0]]))
    root = autodiff.mse_loss(tape, used, tape.constant([[0.0]]))
    tape.backward(root)
    assert unused.grad[0, 0] == 0.0
    assert root.grad[0, 0] == 1.0


def test_backward_unreached_wanted_param_gets_zeros():
    """A parameter named in wrt that the root never reaches ends with zeros."""
    tape = Tape()
    used = tape.param("used", np.array([[1.0, 2.0]]))
    unused = tape.param("unused", np.array([[3.0], [4.0]]))
    target = tape.constant([[0.0, 0.0]])
    root = autodiff.mse_loss(tape, used, target)
    tape.backward(root, ["unused"])
    np.testing.assert_array_equal(unused.grad, np.zeros((2, 1)))
    assert used.grad is None and target.grad is None


def test_backward_without_wanted_parameters_touches_no_node():
    """A root that no wanted parameter feeds gets grad 1 and nothing below it a buffer."""
    tape = Tape()
    x = tape.constant([[1.0, -2.0]])
    w = tape.param("w", np.array([[0.5], [0.25]]))
    hidden = autodiff.elu(tape, x)
    root = autodiff.scale(tape, autodiff.matmul(tape, hidden, w), 3.0)
    tape.backward(root, [])
    assert root.grad[0, 0] == 1.0
    assert all(node.grad is None for node in (x, w, hidden))


def _dropout_loss_graph(model, batch, seed):
    tape = Tape()
    loss, dist = build_losses(model, batch, tape, training=True,
                              rng=np.random.default_rng(seed))
    return tape, autodiff.sub(tape, loss, dist)


def test_backward_wrt_heads_matches_full_and_skips_trunk():
    """Head grads from backward(wrt=heads) equal a full backward's, bit for bit;
    the trunk and the input batch get no gradient buffer."""
    model = AdbcrModel(3, (6, 5), (4,), dropout_p=0.3, seed=2)
    rng = np.random.default_rng(8)
    batch = BatchView(x=rng.normal(size=(12, 3)), t=np.arange(12) % 2,
                      y=rng.normal(size=12))
    heads = list(model.params.subset("heads."))
    full_tape, full_root = _dropout_loss_graph(model, batch, seed=5)
    full_tape.backward(full_root)
    tape, root = _dropout_loss_graph(model, batch, seed=5)
    tape.backward(root, heads)
    for name in heads:
        np.testing.assert_array_equal(tape.params[name].grad, full_tape.params[name].grad)
    first_head = min(tape.params[name].index for name in heads)
    trunk = tape._nodes[:first_head]
    assert len(trunk) > len(model.params.subset("phi.")) + 1
    assert all(node.grad is None for node in trunk)


def test_backward_repeatable():
    """A second backward pass re-zeros buffers and reproduces the gradients."""
    tape = Tape()
    x = tape.param("x", np.array([[2.0, -1.0]]))
    root = autodiff.mse_loss(tape, autodiff.elu(tape, x), tape.constant([[0.0, 0.0]]))
    tape.backward(root)
    first = x.grad.copy()
    tape.backward(root)
    np.testing.assert_array_equal(x.grad, first)


def test_forward_bit_reproducible():
    """Same seed, same graph: outputs identical across runs."""
    outs = []
    for _ in range(2):
        rng = np.random.default_rng(42)
        tape = Tape()
        x = tape.constant(np.arange(12.0).reshape(4, 3) / 7.0)
        w = tape.param("w", np.linspace(-1, 1, 6).reshape(3, 2))
        h = autodiff.elu(tape, autodiff.matmul(tape, x, w))
        h = autodiff.dropout(tape, h, 0.4, True, rng)
        outs.append(h.data.copy())
    np.testing.assert_array_equal(outs[0], outs[1])


# ---------------------------------------------------------------------------
# tapes that record nothing

def _every_op(tape: Tape) -> list:
    """One use of every op, parameters and a stack included; the nodes it makes."""
    x = tape.constant(np.arange(12.0).reshape(4, 3) / 7.0 - 0.5)
    w = tape.param("w", np.linspace(-1.0, 1.0, 6).reshape(3, 2))
    stack = tape.param("s", np.linspace(-2.0, 2.0, 8).reshape(2, 2, 2))
    h = autodiff.elu(tape, autodiff.matmul(tape, x, w))
    h = autodiff.dropout(tape, h, 0.3, True, np.random.default_rng(4))
    bias = tape.param("c", np.full((2, 1, 2), 0.25))
    heads = autodiff.add(tape, autodiff.matmul(tape, h, stack), bias)
    a = autodiff.take_rows(tape, heads, [3, 0, 3], member=0)
    b = autodiff.scale(tape, autodiff.take_rows(tape, heads, [1, 2, 0], member=1), 0.5)
    losses = [autodiff.mse_loss(tape, a, b), autodiff.l1_mean(tape, a, b),
              autodiff.softmax_cross_entropy(tape, autodiff.sub(tape, a, b), [0, 1, 1])]
    return [x, w, stack, h, heads, a, b, *losses]


def test_non_recording_tape_keeps_no_graph():
    """Every op gives the recording tape's bits, yet the tape holds no node,
    no node keeps parents or a vjp, and parameters stay memoized."""
    recorded, tape = _every_op(Tape()), Tape(recording=False)
    loose = _every_op(tape)
    for ref, node in zip(recorded, loose):
        assert node.data.tobytes() == ref.data.tobytes()
        assert node.parents == () and node.vjp is None
    assert tape._nodes == []
    assert tape.param("w", np.zeros((3, 2))) is loose[1]
    assert tape.param("s", np.zeros((2, 2, 2))) is loose[2]


@pytest.mark.parametrize("recording", [True, False])
def test_non_recording_tape_frees_intermediates(recording):
    """Without a record an intermediate dies once its consumer returns; with one it lives on."""
    tape = Tape(recording=recording)
    x = tape.constant(np.ones((5, 3)))
    hidden = autodiff.matmul(tape, x, tape.param("w", np.ones((3, 4))))
    alive = weakref.ref(hidden.data)
    out = autodiff.elu(tape, hidden)
    del hidden
    assert (alive() is not None) == recording
    assert out.data.shape == (5, 4)


def test_backward_on_non_recording_tape_raises():
    tape = Tape(recording=False)
    x = tape.param("x", np.array([[1.0]]))
    root = autodiff.mse_loss(tape, x, tape.constant([[0.0]]))
    with pytest.raises(ConfigError, match="recording=False"):
        tape.backward(root)
    assert x.grad is None


# ---------------------------------------------------------------------------
# gradients against central finite differences

def _check_param_grads(build, params: dict[str, np.ndarray], tol: float,
                       eps: float = 1e-5) -> None:
    """build(params) -> (tape, root); compare every parameter gradient to FD."""
    tape, root = build(params)
    tape.backward(root)
    for name, array in params.items():
        analytic = tape.params[name].grad
        numeric = finite_difference(lambda: build(params)[1].data[0, 0], array, eps)
        worst = rel_err(analytic, numeric).max()
        assert worst < tol, f"{name}: worst relative error {worst:.3g}"


def test_matmul_gradient_finite_differences():
    """Random 3x4 by 4x2 product, reduced to a scalar by mse against zero."""
    rng = np.random.default_rng(5)
    params = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(4, 2))}

    def build(p):
        tape = Tape()
        prod = autodiff.matmul(tape, tape.param("a", p["a"]), tape.param("b", p["b"]))
        return tape, autodiff.mse_loss(tape, prod, tape.constant(np.zeros((3, 2))))

    _check_param_grads(build, params, tol=1e-6)


def test_mse_gradient_finite_differences():
    rng = np.random.default_rng(6)
    params = {"pred": rng.normal(size=(5, 1))}
    target = rng.normal(size=(5, 1))

    def build(p):
        tape = Tape()
        root = autodiff.mse_loss(tape, tape.param("pred", p["pred"]), tape.constant(target))
        return tape, root

    _check_param_grads(build, params, tol=1e-6)


def test_l1_gradient_finite_differences_away_from_ties():
    """Gaps kept above 1e-3 so the central difference never straddles the kink."""
    rng = np.random.default_rng(8)
    b = rng.normal(size=(6, 1))
    gap = rng.uniform(0.05, 1.0, size=(6, 1)) * np.where(rng.random((6, 1)) < 0.5, -1, 1)
    params = {"a": b + gap}

    def build(p):
        tape = Tape()
        root = autodiff.l1_mean(tape, tape.param("a", p["a"]), tape.constant(b))
        return tape, root

    _check_param_grads(build, params, tol=1e-5)


def test_l1_tie_subgradient_zero():
    tape = Tape()
    a = tape.param("a", np.array([[1.0, 2.0]]))
    root = autodiff.l1_mean(tape, a, tape.constant([[1.0, 0.0]]))
    tape.backward(root)
    np.testing.assert_array_equal(a.grad, [[0.0, 0.5]])


def test_add_bias_broadcast_gradient():
    """1xC bias over n rows: gradient is the column sum of the upstream."""
    rng = np.random.default_rng(9)
    params = {"bias": rng.normal(size=(1, 3))}
    base = rng.normal(size=(4, 3))
    target = rng.normal(size=(4, 3))

    def build(p):
        tape = Tape()
        out = autodiff.add(tape, tape.constant(base), tape.param("bias", p["bias"]))
        return tape, autodiff.mse_loss(tape, out, tape.constant(target))

    _check_param_grads(build, params, tol=1e-6)


def test_take_rows_gradient_with_repeats():
    """A row selected twice accumulates both downstream contributions."""
    rng = np.random.default_rng(10)
    params = {"x": rng.normal(size=(4, 2))}
    rows = np.array([0, 2, 2, 3])
    target = rng.normal(size=(4, 2))

    def build(p):
        tape = Tape()
        taken = autodiff.take_rows(tape, tape.param("x", p["x"]), rows)
        return tape, autodiff.mse_loss(tape, taken, tape.constant(target))

    _check_param_grads(build, params, tol=1e-6)
    # unselected row receives zero gradient
    tape, root = build(params)
    tape.backward(root)
    np.testing.assert_array_equal(tape.params["x"].grad[1], [0.0, 0.0])


def test_softmax_cross_entropy_gradient():
    rng = np.random.default_rng(12)
    params = {"logits": rng.normal(size=(7, 2))}
    labels = rng.integers(0, 2, size=7)

    def build(p):
        tape = Tape()
        root = autodiff.softmax_cross_entropy(tape, tape.param("logits", p["logits"]), labels)
        return tape, root

    _check_param_grads(build, params, tol=1e-6)


def test_two_layer_composition_gradient():
    """matmul + bias + elu + matmul + scale + sub, checked end to end."""
    rng = np.random.default_rng(13)
    params = {
        "w1": rng.normal(size=(3, 4)) * 0.7,
        "b1": rng.normal(size=(1, 4)) * 0.1,
        "w2": rng.normal(size=(4, 1)) * 0.7,
    }
    x = rng.normal(size=(6, 3))
    y = rng.normal(size=(6, 1))

    def build(p):
        tape = Tape()
        h = autodiff.elu(tape, autodiff.add(
            tape, autodiff.matmul(tape, tape.constant(x), tape.param("w1", p["w1"])),
            tape.param("b1", p["b1"])))
        out = autodiff.matmul(tape, h, tape.param("w2", p["w2"]))
        loss = autodiff.mse_loss(tape, out, tape.constant(y))
        penal = autodiff.l1_mean(tape, out, tape.constant(y + 2.0))
        return tape, autodiff.sub(tape, loss, autodiff.scale(tape, penal, 0.5))

    _check_param_grads(build, params, tol=1e-4)


# ---------------------------------------------------------------------------
# stacked ops: R same-shaped members in one op

GROUPS = ("a", "w", "b")


def stacked_case(seed: int, members: int, rows: int, fan_in: int, fan_out: int,
                 stacked_input: bool):
    """Arrays of one stacked dense layer and, per member, the rows taken and their targets."""
    rng = np.random.default_rng(seed)
    arrays = {"a": rng.normal(size=(members, rows, fan_in) if stacked_input else (rows, fan_in)),
              "w": rng.normal(size=(members, fan_in, fan_out)),
              "b": rng.normal(size=(members, 1, fan_out))}
    uniforms = rng.random((members, rows, fan_out))
    takes = [rng.integers(0, rows, size=rng.integers(1, 2 * rows + 1)) for _ in range(members)]
    targets = [rng.normal(size=(take.size, fan_out)) for take in takes]
    return arrays, uniforms, takes, targets


def member_names(group: str, array: np.ndarray) -> tuple[str, ...]:
    return tuple(f"{group}{r}" for r in range(array.shape[0])) if array.ndim == 3 else (group,)


def member_grads(tape: Tape, group: str, array: np.ndarray) -> dict[str, np.ndarray]:
    """The gradient of the parameter group, split into its members under member_names."""
    grad = tape.grad(group)
    return dict(zip(member_names(group, array), grad if array.ndim == 3 else [grad]))


def stacked_graph(arrays, uniforms, takes, targets):
    """Dropout(ELU(a @ w + b)) on stacks, each member's rows taken into one summed mse."""
    tape = Tape()
    nodes = {group: tape.param(group, array) for group, array in arrays.items()}
    out = autodiff.add(tape, autodiff.matmul(tape, nodes["a"], nodes["w"]), nodes["b"])
    out = autodiff.dropout(tape, autodiff.elu(tape, out), 0.3, True, None, uniforms)
    root = None
    for member, (take, target) in enumerate(zip(takes, targets)):
        term = autodiff.mse_loss(tape, autodiff.take_rows(tape, out, take, member),
                                 tape.constant(target))
        root = term if root is None else autodiff.add(tape, root, term)
    return tape, out, root


def per_member_graph(arrays, uniforms, takes, targets):
    """The same loss from R separate 2-d layers, member 0 first."""
    tape = Tape()
    a = arrays["a"]
    shared = tape.param("a", a) if a.ndim == 2 else None
    outs, root = [], None
    for member, (take, target) in enumerate(zip(takes, targets)):
        x = shared if shared is not None else tape.param(f"a{member}", a[member])
        w = tape.param(f"w{member}", arrays["w"][member])
        out = autodiff.add(tape, autodiff.matmul(tape, x, w),
                           tape.param(f"b{member}", arrays["b"][member]))
        out = autodiff.dropout(tape, autodiff.elu(tape, out), 0.3, True, None, uniforms[member])
        outs.append(out)
        term = autodiff.mse_loss(tape, autodiff.take_rows(tape, out, take), tape.constant(target))
        root = term if root is None else autodiff.add(tape, root, term)
    return tape, outs, root


stacked_shapes = dict(members=st.integers(1, 4), rows=st.integers(1, 6), fan_in=st.integers(1, 4),
                      fan_out=st.integers(1, 4), stacked_input=st.booleans(),
                      seed=st.integers(0, 2 ** 16))


@settings(max_examples=30, deadline=None)
@given(wanted=st.lists(st.sampled_from(GROUPS), unique=True), **stacked_shapes)
def test_stacked_ops_match_finite_differences(wanted, seed, members, rows, fan_in, fan_out,
                                              stacked_input):
    """matmul of a broadcast matrix or of a stack by a stack, the stacked bias, ELU, dropout
    on given draws and take_rows of each member, against central differences. Under
    backward(wrt=...) the wanted parameters get their gradient and the others none."""
    case = stacked_case(seed, members, rows, fan_in, fan_out, stacked_input)
    arrays = case[0]
    tape, _, root = stacked_graph(*case)
    tape.backward(root, wanted)
    for group, array in arrays.items():
        if group not in wanted:
            assert tape.params[group].grad is None
            continue
        grads = member_grads(tape, group, array)
        for name, part in zip(grads, array if array.ndim == 3 else [array]):
            numeric = finite_difference(lambda: stacked_graph(*case)[2].data[0, 0], part)
            # The floor sits above central differences' rounding error of about 1e-10.
            worst = rel_err(grads[name], numeric, floor=1e-3).max()
            assert worst < 1e-5, f"{name}: worst relative error {worst:.3g}"


@settings(max_examples=30, deadline=None)
@given(**stacked_shapes)
@example(seed=3, members=4, rows=6, fan_in=4, fan_out=4, stacked_input=False)
def test_stacked_ops_equal_per_member_ops(seed, members, rows, fan_in, fan_out, stacked_input):
    """Every member's output and every gradient, the broadcast input's summed one included,
    equal those of R separate 2-d layers bit for bit."""
    case = stacked_case(seed, members, rows, fan_in, fan_out, stacked_input)
    tape, out, root = stacked_graph(*case)
    ref_tape, ref_outs, ref_root = per_member_graph(*case)
    np.testing.assert_array_equal(root.data, ref_root.data)
    for member, ref_out in enumerate(ref_outs):
        np.testing.assert_array_equal(out.data[member], ref_out.data)
    tape.backward(root)
    ref_tape.backward(ref_root)
    grads = {name: grad for group, array in case[0].items()
             for name, grad in member_grads(tape, group, array).items()}
    assert sorted(grads) == sorted(ref_tape.params)
    for name in ref_tape.params:
        np.testing.assert_array_equal(grads[name], ref_tape.grad(name), err_msg=name)


def test_stacked_shapes_checked():
    tape = Tape()
    matrix = tape.constant(np.ones((4, 3)))
    stack = tape.param("s", np.ones((2, 3, 5)))
    with pytest.raises(DimensionError):
        autodiff.matmul(tape, tape.constant(np.ones((3, 4, 3))), stack)
    with pytest.raises(DimensionError):
        autodiff.matmul(tape, tape.constant(np.ones((2, 4, 3))), tape.constant(np.ones((3, 5))))
    out = autodiff.matmul(tape, matrix, stack)
    assert out.shape == (2, 4, 5)
    with pytest.raises(DimensionError):
        autodiff.add(tape, out, tape.constant(np.ones((1, 5))))
    with pytest.raises(DimensionError):
        autodiff.take_rows(tape, out, [0])
    with pytest.raises(DimensionError):
        autodiff.take_rows(tape, matrix, [0], 1)
    with pytest.raises(DimensionError):
        autodiff.dropout(tape, out, 0.5, True, None, np.ones((2, 4, 4)))
    for shape in ((5,), (2, 2, 3, 5)):
        with pytest.raises(DimensionError):
            tape.param("t", np.ones(shape))


# ---------------------------------------------------------------------------
# ParamSet

def test_paramset_duplicate_name():
    ps = ParamSet()
    ps.add("w", np.zeros((2, 2)))
    with pytest.raises(ConfigError):
        ps.add("w", np.zeros((2, 2)))


def test_paramset_order_subset_count():
    ps = ParamSet()
    ps.add("phi.0.w", np.zeros((2, 3)))
    ps.add("head.0.0.w", np.zeros((3, 1)))
    ps.add("phi.0.b", np.zeros((1, 3)))
    assert ps.names() == ["phi.0.w", "head.0.0.w", "phi.0.b"]
    assert list(ps.subset("phi.")) == ["phi.0.w", "phi.0.b"]
    assert list(ps.subset("phi.", "head.")) == ps.names()
    assert ps.count() == 6 + 3 + 3


def test_paramset_snapshot_restore_isolated():
    ps = ParamSet()
    ps.add("w", np.ones((2, 2)))
    snap = ps.snapshot()
    ps["w"][...] += 5.0
    assert snap["w"][0, 0] == 1.0
    ps.restore(snap)
    np.testing.assert_array_equal(ps["w"], np.ones((2, 2)))
    # restoring writes in place: existing references see the restored values
    view = ps["w"]
    view += 1.0
    ps.restore(snap)
    assert view[0, 0] == 1.0


# ---------------------------------------------------------------------------
# Adam

def test_adam_zero_gradient_no_move():
    p = {"w": np.array([[1.0, -2.0]])}
    opt = Adam(p, lr=0.1)
    opt.step({"w": np.zeros((1, 2))})
    np.testing.assert_array_equal(p["w"], [[1.0, -2.0]])


def test_adam_first_step_hand_computed():
    """theta=1, g=1, lr=0.1: bias correction gives update 0.1/(1+1e-8)."""
    p = {"w": np.array([[1.0]])}
    opt = Adam(p, lr=0.1)
    opt.step({"w": np.array([[1.0]])})
    expect = 1.0 - 0.1 * (1.0 / (1.0 + 1e-8))
    np.testing.assert_allclose(p["w"][0, 0], expect, rtol=0, atol=1e-16)


def test_adam_matches_reference_loop():
    """200 steps on f(theta)=theta^2 track a scalar reference to 1e-10 and converge."""
    p = {"w": np.array([[1.0]])}
    opt = Adam(p, lr=0.05)
    theta, m, v = 1.0, 0.0, 0.0
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    for step in range(1, 201):
        opt.step({"w": 2.0 * p["w"]})
        g = 2.0 * theta
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1 ** step)
        vhat = v / (1 - beta2 ** step)
        theta -= 0.05 * mhat / (np.sqrt(vhat) + eps)
        assert abs(p["w"][0, 0] - theta) < 1e-10
    assert abs(p["w"][0, 0]) < 0.05


def test_adam_weight_decay_is_l2_in_gradient():
    """decay*param joins the gradient before moments, matching an explicit run."""
    rng = np.random.default_rng(14)
    start = rng.normal(size=(2, 2))
    grads = [rng.normal(size=(2, 2)) for _ in range(5)]
    p1 = {"w": start.copy()}
    opt1 = Adam(p1, lr=0.01, weight_decay=0.3)
    p2 = {"w": start.copy()}
    opt2 = Adam(p2, lr=0.01, weight_decay=0.0)
    for g in grads:
        opt1.step({"w": g})
        opt2.step({"w": g + 0.3 * p2["w"]})
        np.testing.assert_array_equal(p1["w"], p2["w"])


class PerParameterAdam:
    """Adam as one loop of array operations per parameter: the flat optimizer's reference."""

    def __init__(self, params, lr, weight_decay=0.0, beta1=0.9, beta2=0.999, eps=1e-8):
        self._params = dict(params)
        self.lr, self.weight_decay, self.beta1, self.beta2, self.eps = \
            lr, weight_decay, beta1, beta2, eps
        self._m = {k: np.zeros_like(v) for k, v in self._params.items()}
        self._v = {k: np.zeros_like(v) for k, v in self._params.items()}
        self.step_count = 0

    def step(self, grads):
        self.step_count += 1
        t = self.step_count
        c1 = 1.0 - self.beta1 ** t
        c2 = 1.0 - self.beta2 ** t
        for name, p in self._params.items():
            g = grads[name]
            if self.weight_decay != 0.0:
                g = g + self.weight_decay * p
            m = self._m[name]
            v = self._v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
def test_adam_flat_matches_per_parameter_reference(weight_decay):
    """50 steps over mixed shapes move the parameters exactly as the per-parameter loop."""
    rng = np.random.default_rng(17)
    shapes = {"w": (5, 3), "b": (1, 3), "s": (1, 1), "col": (4, 1)}
    start = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    flat = {name: a.copy() for name, a in start.items()}
    ref = {name: a.copy() for name, a in start.items()}
    opt = Adam(flat, lr=0.01, weight_decay=weight_decay)
    ref_opt = PerParameterAdam(ref, lr=0.01, weight_decay=weight_decay)
    for _ in range(50):
        grads = {name: rng.normal(scale=10.0 ** rng.integers(-6, 3), size=shape)
                 for name, shape in shapes.items()}
        opt.step(grads)
        ref_opt.step(grads)
        for name in shapes:
            assert flat[name].tobytes() == ref[name].tobytes(), name


def test_adam_rejects_non_finite_gradient():
    p = {"w": np.ones((1, 1))}
    opt = Adam(p, lr=0.1)
    with pytest.raises(TrainingError):
        opt.step({"w": np.array([[np.inf]])})
    with pytest.raises(TrainingError):
        opt.step({"w": np.array([[np.nan]])})
    # the failed step must not have moved the parameters
    np.testing.assert_array_equal(p["w"], [[1.0]])


def test_adam_non_finite_error_names_the_stack_member():
    """A stacked parameter's bad gradient is named down to its first bad member."""
    params = {"w": np.ones((2, 2)), "heads.1.w": np.ones((4, 3, 2))}
    opt = Adam(params, lr=0.1)
    grads = {name: np.zeros_like(p) for name, p in params.items()}
    grads["heads.1.w"][2, 1, 0] = np.nan
    grads["heads.1.w"][3, 0, 1] = np.inf
    with pytest.raises(TrainingError, match=r"parameter 'heads\.1\.w' member 2$"):
        opt.step(grads)
    grads["w"][0, 1] = np.nan
    with pytest.raises(TrainingError, match=r"parameter 'w'$"):
        opt.step(grads)
    assert opt.step_count == 0


def test_adam_rejects_negative_lr():
    with pytest.raises(ConfigError):
        Adam({"w": np.ones((1, 1))}, lr=-0.1)


def test_adam_zero_lr_is_noop():
    p = {"w": np.array([[3.0]])}
    opt = Adam(p, lr=0.0)
    opt.step({"w": np.array([[123.0]])})
    assert p["w"][0, 0] == 3.0


def test_grads_for_collects_named_buffers():
    tape = Tape()
    x = tape.param("x", np.array([[2.0]]))
    tape.param("y", np.array([[5.0]]))
    root = autodiff.mse_loss(tape, x, tape.constant([[0.0]]))
    tape.backward(root)
    grads = autodiff.grads_for(tape, ["x", "y"])
    np.testing.assert_allclose(grads["x"], [[4.0]])
    np.testing.assert_array_equal(grads["y"], [[0.0]])
