"""Network construction, prediction semantics, scalers, and checkpoints."""
import json
import os
import pickle
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adbcr.autodiff import Adam, Tape
from adbcr.baselines import DanncrModel, fit_lasso
from adbcr.errors import CheckpointError, ConfigError, DimensionError
from adbcr.model import (AdbcrModel, Scalers, canonical_fingerprint, load_model,
                         read_checkpoint, write_checkpoint)
from adbcr.trainer import TrainConfig

from conftest import forward_head, rewrite_with, rewrite_without


def tiny_model(seed: int = 0, d: int = 3) -> AdbcrModel:
    return AdbcrModel(input_dim=d, shared_layers=(6, 5), head_layers=(4,),
                      dropout_p=0.2, seed=seed)


def tie_heads(model: AdbcrModel, t: int) -> None:
    """Copy head (t,0) parameters onto head (t,1)."""
    arrays = model.checkpoint_arrays()
    for name, array in arrays.items():
        if name.startswith(f"head.{t}.0."):
            arrays[name.replace(f"head.{t}.0.", f"head.{t}.1.")][...] = array


# ---------------------------------------------------------------------------
# construction

def test_parameter_count_closed_form():
    """shared=[50,50], head=[50,50], d=25: count matches the layer-product sum."""
    model = AdbcrModel(25, (50, 50), (50, 50), dropout_p=0.1, seed=0)
    phi = 25 * 50 + 50 + 50 * 50 + 50
    head = 50 * 50 + 50 + 50 * 50 + 50 + 50 * 1 + 1
    assert model.params.count() == phi + 4 * head


def test_same_seed_identical_parameters():
    a, b = tiny_model(3), tiny_model(3)
    for name in a.params.names():
        np.testing.assert_array_equal(a.params[name], b.params[name])


def test_adjacent_heads_differ_at_init():
    model = tiny_model()
    arrays = model.checkpoint_arrays()
    assert any(not np.array_equal(array, arrays[name.replace("head.0.0.", "head.0.1.")])
               for name, array in arrays.items() if name.startswith("head.0.0."))


@pytest.mark.parametrize("network", [AdbcrModel, DanncrModel], ids=["adbcr", "danncr"])
def test_head_parameters_are_views_of_the_stacks(network):
    """checkpoint_arrays names the trunk, each head's layers in ARMS order and the extra
    stacks; a head's arrays are views of its stack members, which an Adam step on the
    stacks, a restore and a pickle round trip leave linked."""
    model = network(3, (6, 5), (4,), dropout_p=0.2, seed=1)
    heads = [prefix for arm in model.ARMS for prefix in arm]
    trunk = ["phi.0.w", "phi.0.b", "phi.1.w", "phi.1.b"]
    stacks = ["heads.0.w", "heads.0.b", "heads.1.w", "heads.1.b"]
    extra = list(model.params.subset(*(f"{prefix}." for prefix, _ in model.EXTRA_STACKS)))
    assert model.params.names() == trunk + stacks + extra
    arrays = model.checkpoint_arrays()
    assert list(arrays) == trunk + [f"{prefix}.{key[6:]}" for prefix in heads
                                    for key in stacks] + extra
    for key in stacks:
        assert model.params[key].shape[0] == len(heads)
        for member, prefix in enumerate(heads):
            view = arrays[f"{prefix}.{key[6:]}"]
            assert np.shares_memory(view, model.params[key])
            np.testing.assert_array_equal(view, model.params[key][member])
    before = {name: a.copy() for name, a in arrays.items()}
    heads_opt = Adam(model.params.subset("heads."), lr=0.1)
    heads_opt.step({name: np.ones_like(model.params[name]) for name in heads_opt.names()})
    last = f"{heads[-1]}.1.w"
    np.testing.assert_allclose(arrays[last], before[last] - 0.1, rtol=0.0, atol=1e-8)
    model.params.restore({name: model.params[name] + 1.0 for name in stacks})
    np.testing.assert_allclose(arrays[last], before[last] + 0.9, rtol=0.0, atol=1e-8)
    copy = pickle.loads(pickle.dumps(model))
    copy.checkpoint_arrays()[last][...] = 7.0
    assert (copy.params["heads.1.w"][-1] == 7.0).all()
    assert not (model.params["heads.1.w"][-1] == 7.0).any()


def test_invalid_construction():
    with pytest.raises(ConfigError):
        AdbcrModel(0, (4,), (4,), 0.1, 0)
    with pytest.raises(ConfigError):
        AdbcrModel(3, (), (4,), 0.1, 0)
    with pytest.raises(ConfigError):
        AdbcrModel(3, (4, 0), (4,), 0.1, 0)
    with pytest.raises(ConfigError):
        AdbcrModel(3, (4,), (4,), 1.0, 0)


# ---------------------------------------------------------------------------
# forward semantics

def test_forward_head_batch_consistency():
    """Row i of a batched forward equals forwarding row i alone (eval mode)."""
    model = tiny_model()
    rng = np.random.default_rng(1)
    x = rng.normal(size=(5, 3))
    batch = forward_head(model, x, 1, 0)
    assert batch.shape == (5, 1)
    for i in range(5):
        # matmul kernels reduce in shape-dependent order, so exact equality
        # is not available here; same-shape calls elsewhere are bit-stable.
        single = forward_head(model, x[i:i + 1], 1, 0)
        np.testing.assert_allclose(single[0], batch[i], rtol=0, atol=1e-12)


def test_forward_head_column_mismatch():
    model = tiny_model()
    with pytest.raises(DimensionError):
        forward_head(model, np.zeros((2, 4)), 0, 0)


def test_forward_head_deterministic_eval():
    model = tiny_model()
    x = np.random.default_rng(2).normal(size=(1, 3))
    np.testing.assert_array_equal(forward_head(model, x, 0, 1), forward_head(model, x, 0, 1))


def test_tied_heads_identical_outputs():
    model = tiny_model()
    tie_heads(model, 1)
    x = np.random.default_rng(3).normal(size=(4, 3))
    np.testing.assert_array_equal(forward_head(model, x, 1, 0), forward_head(model, x, 1, 1))
    # the averaged prediction then equals either head's (de-standardized) output
    y0, y1 = model.predict_potential_outcomes(x)
    np.testing.assert_allclose(y1, forward_head(model, x, 1, 0)[:, 0], rtol=1e-14)


def test_predict_is_head_average():
    """predict equals the mean of the two heads recomputed independently."""
    model = tiny_model(seed=9)
    x = np.random.default_rng(4).normal(size=(3, 3))
    y0, y1 = model.predict_potential_outcomes(x)
    for t, y in ((0, y0), (1, y1)):
        a = forward_head(model, x, t, 0)[:, 0]
        b = forward_head(model, x, t, 1)[:, 0]
        np.testing.assert_allclose(y, 0.5 * (a + b), rtol=1e-14)


def test_zero_parameters_zero_effect():
    model = tiny_model()
    for name in model.params.names():
        model.params[name][...] = 0.0
    x = np.random.default_rng(5).normal(size=(6, 3))
    y0, y1 = model.predict_potential_outcomes(x)
    np.testing.assert_array_equal(y1 - y0, np.zeros(6))


def test_predict_batch_order_invariant():
    model = tiny_model(seed=6)
    x = np.random.default_rng(6).normal(size=(8, 3))
    perm = np.random.default_rng(7).permutation(8)
    y0, y1 = model.predict_potential_outcomes(x)
    p0, p1 = model.predict_potential_outcomes(x[perm])
    np.testing.assert_array_equal(p0, y0[perm])
    np.testing.assert_array_equal(p1, y1[perm])


def test_predict_frees_each_layer_as_it_goes():
    """predict on the default net holds at most a few layers' activations at once.

    Its traced peak stays under four head stacks (R x n x width float64);
    a forward that records its tape keeps every layer, about eight.
    """
    config, n, d = TrainConfig(), 4000, 10
    model = AdbcrModel(d, config.shared_layers, config.head_layers, config.dropout_p, seed=0)
    x = np.random.default_rng(3).normal(size=(n, d))
    model.predict_potential_outcomes(x[:8])
    head_stack = 4 * n * config.head_layers[0] * 8
    tracemalloc.start()
    try:
        model.predict_potential_outcomes(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * head_stack


def test_dropout_zero_training_equals_eval():
    model = AdbcrModel(3, (6, 5), (4,), dropout_p=0.0, seed=0)
    x = np.random.default_rng(8).normal(size=(4, 3))
    rng = np.random.default_rng(0)
    np.testing.assert_array_equal(
        forward_head(model, x, 0, 0, rng=rng),
        forward_head(model, x, 0, 0))


@pytest.mark.parametrize("prefix, members, widths", [("phi", 1, (6, 5)), ("heads", 4, (4, 2))])
def test_training_forward_draws_once(prefix, members, widths):
    """A training forward of the trunk (matrix weights) or of the head stack leaves the
    generator where one rng.random(members * rows * sum(widths)) call would; given no
    generator, or at p = 0, it draws nothing and gives the p = 0 bits."""
    x = np.random.default_rng(8).normal(size=(5, 3))

    def forward(dropout_p, rng):
        model = AdbcrModel(3, (6, 5), (4, 2), dropout_p=dropout_p, seed=0)
        tape = Tape()
        if prefix == "phi":
            return model.phi_forward(tape, tape.constant(x), rng).data
        return model.stack_forward(tape, prefix, model.phi_forward(tape, tape.constant(x)),
                                   rng).data

    rng, ref = np.random.default_rng(1), np.random.default_rng(1)
    forward(0.3, rng)
    ref.random(members * x.shape[0] * sum(widths))
    assert rng.bit_generator.state == ref.bit_generator.state
    plain = forward(0.0, None)
    untouched = np.random.default_rng(1)
    np.testing.assert_array_equal(forward(0.3, None), plain)
    np.testing.assert_array_equal(forward(0.0, untouched), plain)
    assert untouched.bit_generator.state == np.random.default_rng(1).bit_generator.state


# ---------------------------------------------------------------------------
# scalers

def test_scaler_round_trip():
    rng = np.random.default_rng(10)
    x = rng.normal(loc=3.0, scale=2.5, size=(40, 4))
    y = rng.normal(loc=-1.0, scale=0.7, size=40)
    s = Scalers.fit(x, y)
    np.testing.assert_allclose(s.destandardize_y(s.standardize_y(y)), y, atol=1e-12)
    z = s.standardize_x(x)
    np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-12)


def test_scaler_constant_column_safe():
    x = np.ones((10, 2))
    y = np.full(10, 4.0)
    s = Scalers.fit(x, y)
    z = s.standardize_x(x)
    assert np.all(np.isfinite(z))
    np.testing.assert_array_equal(z, np.zeros((10, 2)))
    assert s.standardize_y(y).std() == 0.0


# ---------------------------------------------------------------------------
# checkpoints

def test_checkpoint_round_trip(tmp_path):
    model = tiny_model(seed=11)
    model.scalers = Scalers.fit(np.random.default_rng(0).normal(size=(30, 3)),
                                np.random.default_rng(1).normal(size=30))
    path = str(tmp_path / "m.ckpt")
    model.save(path, config={"seed": 11}, validation_criterion=0.25)
    loaded = load_model(path)
    x = np.random.default_rng(12).normal(size=(10, 3))
    for a, b in zip(model.predict_potential_outcomes(x), loaded.predict_potential_outcomes(x)):
        np.testing.assert_array_equal(a, b)


def test_checkpoint_header_fields(tmp_path):
    model = tiny_model()
    path = str(tmp_path / "m.ckpt")
    model.save(path, config={"seed": 0, "mode": "adbcr"}, validation_criterion=0.5,
               data_seed=3, split_fractions=(0.63, 0.27, 0.10))
    kind, arch, arrays, header = read_checkpoint(path)
    assert kind == "adbcr"
    assert header["validation_criterion"] == 0.5
    assert header["data_seed"] == 3
    assert header["split_fractions"] == [0.63, 0.27, 0.10]
    assert header["fingerprint"] == canonical_fingerprint({"seed": 0, "mode": "adbcr"})
    assert list(arrays) == list(model.checkpoint_arrays())


def test_checkpoint_truncated_rejected(tmp_path):
    model = tiny_model()
    path = str(tmp_path / "m.ckpt")
    model.save(path)
    blob = Path(path).read_bytes()
    for cut in (4, len(blob) // 2, len(blob) - 3):
        Path(path).write_bytes(blob[:cut])
        with pytest.raises(CheckpointError):
            load_model(path)


def test_checkpoint_bad_magic_and_trailing(tmp_path):
    model = tiny_model()
    path = str(tmp_path / "m.ckpt")
    model.save(path)
    blob = Path(path).read_bytes()
    Path(path).write_bytes(b"X" + blob[1:])
    with pytest.raises(CheckpointError):
        load_model(path)
    Path(path).write_bytes(blob + b"\x00")
    with pytest.raises(CheckpointError):
        load_model(path)


def test_checkpoint_byte_identical_same_model(tmp_path):
    p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
    tiny_model(seed=5).save(p1, config={"seed": 5})
    tiny_model(seed=5).save(p2, config={"seed": 5})
    assert Path(p1).read_bytes() == Path(p2).read_bytes()


def test_checkpoint_atomic_no_partial_on_error(tmp_path):
    """A failed write leaves no file and no stray temp files behind."""
    model = tiny_model()
    path = str(tmp_path / "sub" / "m.ckpt")
    with pytest.raises(OSError):
        model.save(path)  # parent directory missing
    assert not os.path.exists(path)
    assert os.listdir(tmp_path) == []


def saved_kind(kind: str, path: str) -> str:
    """Save a small model of the kind; return the parameter a defect test tampers with."""
    if kind == "adbcr":
        tiny_model().save(path)
        return "phi.0.b"
    if kind == "danncr":
        DanncrModel(3, (6, 5), (4,), 0.2, 0).save(path)
        return "disc.0.b"
    rng = np.random.default_rng(0)
    fit_lasso(rng.normal(size=(20, 3)), np.arange(20) % 2, rng.normal(size=20),
              "per_treatment", grid=(0.1,)).save(path)
    return "w1"


@pytest.fixture(scope="module")
def checkpoint_blobs(tmp_path_factory) -> dict[str, bytes]:
    """The bytes of one small checkpoint of each kind."""
    root = tmp_path_factory.mktemp("blobs")
    blobs = {}
    for kind in ("adbcr", "danncr", "lasso"):
        saved_kind(kind, str(root / kind))
        blobs[kind] = (root / kind).read_bytes()
    return blobs


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(("adbcr", "danncr", "lasso")), data=st.data())
def test_damaged_checkpoint_raises_only_checkpoint_error(checkpoint_blobs, tmp_path_factory,
                                                         kind, data):
    """A truncated file always fails with CheckpointError; 1-3 flipped bits either
    fail with it or load (parameter bytes carry no checksum)."""
    blob = bytearray(checkpoint_blobs[kind])
    truncate = data.draw(st.booleans())
    if truncate:
        del blob[data.draw(st.integers(0, len(blob) - 1)):]
    else:
        for bit in data.draw(st.lists(st.integers(0, 8 * len(blob) - 1),
                                      min_size=1, max_size=3, unique=True)):
            blob[bit // 8] ^= 1 << (bit % 8)
    path = tmp_path_factory.getbasetemp() / "damaged.ckpt"
    path.write_bytes(blob)
    try:
        load_model(str(path))
    except CheckpointError:
        return
    assert not truncate, "a truncated checkpoint loaded"


@pytest.mark.parametrize("defect", ["missing", "extra", "misshaped"])
@pytest.mark.parametrize("kind", ["adbcr", "danncr", "lasso"])
def test_checkpoint_arrays_must_match_architecture(tmp_path, kind, defect):
    """A stored parameter set that is not exactly the architecture's is rejected."""
    path = str(tmp_path / "m.ckpt")
    name = saved_kind(kind, path)
    _, arch, arrays, header = read_checkpoint(path)
    if defect == "missing":
        del arrays[name]
    elif defect == "extra":
        name = "extra.0.w"
        arrays[name] = np.zeros((1, 1))
    else:
        arrays[name] = arrays[name][:1, :1]
    extra = {k: v for k, v in header.items() if k not in ("kind", "arch", "params")}
    write_checkpoint(path, kind, arch, arrays, extra)
    with pytest.raises(CheckpointError, match=name):
        load_model(path)


@pytest.mark.parametrize("kind, field",
                         [("adbcr", "scalers"), ("adbcr", "arch.seed"), ("lasso", "arch.variant")])
def test_checkpoint_header_field_required(tmp_path, kind, field):
    """A header that lacks a field the loader reads fails with CheckpointError naming it."""
    path = str(tmp_path / "m.ckpt")
    saved_kind(kind, path)
    rewrite_without(path, field)
    with pytest.raises(CheckpointError, match=re.escape(repr(field))):
        load_model(path)


@pytest.mark.parametrize("kind, field, value", [
    ("adbcr", "arch.seed", "x"),
    ("adbcr", "arch.seed", 1.5),
    ("adbcr", "arch.seed", -1),
    ("adbcr", "arch.input_dim", 0),
    ("adbcr", "arch.shared_layers", "6,5"),
    ("adbcr", "arch.shared_layers", [6, 0]),
    ("adbcr", "arch.head_layers", []),
    ("adbcr", "arch.dropout_p", 1.0),
    ("adbcr", "scalers.x_mean", [0.0, 0.0]),
    ("adbcr", "scalers.y_std", 0.0),
    ("danncr", "arch.head_layers", [True]),
    ("lasso", "arch.alpha", "x"),
    ("lasso", "arch.alpha", -0.1),
    ("lasso", "arch.input_dim", 3.0),
    ("lasso", "arch.variant", "both"),
])
def test_checkpoint_header_field_must_be_valid(tmp_path, kind, field, value):
    """A header field of the wrong type or value fails with CheckpointError naming it."""
    path = str(tmp_path / "m.ckpt")
    saved_kind(kind, path)
    rewrite_with(path, field, value)
    with pytest.raises(CheckpointError, match=re.escape(repr(field))):
        load_model(path)


@pytest.mark.parametrize("field, value", [
    ("kind", ["adbcr"]),
    ("arch", "adbcr"),
    ("params", "phi.0.w"),
    ("params", [["phi.0.w", ["3", 6]]]),
    ("params", [["phi.0.w", [3, -6]]]),
    ("params", [[0, [3, 6]]]),
])
def test_checkpoint_container_field_must_be_valid(tmp_path, field, value):
    """A container field of the wrong type or value fails with CheckpointError naming it."""
    path = str(tmp_path / "m.ckpt")
    tiny_model().save(path)
    blob = Path(path).read_bytes()
    start = len(b"ADBCR-CKPT\x00") + 4   # magic, u32 version, then the u64 header length
    length = int(np.frombuffer(blob, "<u8", count=1, offset=start)[0])
    header = json.loads(blob[start + 8:start + 8 + length])
    header[field] = value
    payload = json.dumps(header).encode("utf-8")
    Path(path).write_bytes(blob[:start] + np.uint64(len(payload)).tobytes() + payload
                           + blob[start + 8 + length:])
    with pytest.raises(CheckpointError, match=re.escape(repr(field))):
        load_model(path)


def test_canonical_fingerprint_stable():
    a = canonical_fingerprint({"b": 1, "a": [1, 2]})
    b = canonical_fingerprint({"a": [1, 2], "b": 1})
    assert a == b
    assert len(a) == 16
    assert a != canonical_fingerprint({"a": [1, 2], "b": 2})
