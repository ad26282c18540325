"""Shared helpers: finite-difference oracles, small benchmark fixtures, checkpoint edits.

Also the per-head forward (the reference for the stacked heads) and the lasso
effect estimate, which only tests use.
"""
import ctypes
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import adbcr
from adbcr import blas, cli, data
from adbcr.autodiff import Tape
from adbcr.baselines import LassoModel
from adbcr.model import Network, check_columns, dense_forward, read_checkpoint, write_checkpoint


def rel_err(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-6) -> np.ndarray:
    """Elementwise relative error with a floor so near-zero grads stay comparable."""
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return np.abs(analytic - numeric) / denom


def finite_difference(f, array: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central finite differences of scalar f() w.r.t. every entry of array.

    f takes no arguments and must re-read array, which is perturbed in place.
    """
    grad = np.zeros_like(array)
    it = np.nditer(array, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        saved = array[idx]
        array[idx] = saved + eps
        up = f()
        array[idx] = saved - eps
        down = f()
        array[idx] = saved
        grad[idx] = (up - down) / (2.0 * eps)
    return grad


def small_benchmark(seed: int = 0, n: int = 160, het: float = 1.0) -> data.Dataset:
    """Small split benchmark dataset for trainer-level tests."""
    config = data.DgpConfig(n=n, d=4, bias_strength=1.0, effect_heterogeneity=het,
                            noise_sd=0.5, nonlinearity="quadratic", seed=seed)
    dataset, _ = data.generate(config)
    return data.split(dataset, seed=seed)


@pytest.fixture(scope="module")
def bench_dataset() -> data.Dataset:
    return small_benchmark()


@pytest.fixture
def blas_at_two_threads(monkeypatch):
    """OpenBLAS on two threads, no thread count in the environment; yields the count's reader.

    The count is restored afterwards. Skips where no OpenBLAS is loaded or
    it cannot run two threads.
    """
    count = blas.openblas_function("get_num_threads")
    if count is None:
        pytest.skip("no OpenBLAS loaded")
    count.argtypes, count.restype = (), ctypes.c_int
    before = count()
    for name in cli.BLAS_THREAD_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    blas.set_threads(2)
    try:
        if count() != 2:
            pytest.skip("OpenBLAS cannot run two threads here")
        yield count
    finally:
        blas.set_threads(before)


def run_fresh(script: str, *args) -> str:
    """Run a Python script in a fresh interpreter with glibc's malloc defaults; its stdout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(adbcr.__file__))
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(script), *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _rewrite_header(path: str, field: str, edit) -> None:
    """Rewrite a checkpoint after edit(section, key) changes the header field at a dotted path."""
    kind, _, arrays, header = read_checkpoint(path)
    fields = {k: v for k, v in header.items() if k not in ("kind", "params")}
    *sections, key = field.split(".")
    section = fields
    for name in sections:
        section = section[name]
    edit(section, key)
    write_checkpoint(path, kind, fields.pop("arch"), arrays, fields)


def rewrite_without(path: str, field: str) -> None:
    """Rewrite a checkpoint with its header field at the dotted path removed."""
    _rewrite_header(path, field, lambda section, key: section.pop(key))


def rewrite_with(path: str, field: str, value) -> None:
    """Rewrite a checkpoint with its header field at the dotted path set to value."""
    _rewrite_header(path, field, lambda section, key: section.__setitem__(key, value))


def head_forward(model: Network, tape: Tape, prefix: str, h,
                 rng: np.random.Generator | None = None):
    """The head named prefix ("head.1.0", say) on h, as its own dense stack.

    Its layers are 2-d parameters under their checkpoint names, holding the
    stack members that Network.checkpoint_arrays names.
    """
    arrays = model.checkpoint_arrays()
    layers = [tuple(tape.param(f"{prefix}.{i}.{part}", arrays[f"{prefix}.{i}.{part}"])
                    for part in "wb") for i in range(len(model.head_layers) + 1)]
    return dense_forward(tape, layers, h, model.dropout_p, rng, final_plain=True)


def per_head_forward(model: Network, tape: Tape, x: np.ndarray,
                     rng: np.random.Generator | None = None):
    """(h, outs): the representation of x, and outs[t][r] = head r of arm t as its own graph.

    The reference for Network.forward_heads: each head runs as its own
    dense stack (head_forward), one after another in ARMS order, which
    fixes the order of the dropout draws.
    """
    h = model.phi_forward(tape, tape.constant(check_columns(x, model.input_dim)), rng)
    return h, [[head_forward(model, tape, prefix, h, rng) for prefix in arm]
               for arm in model.ARMS]


def by_checkpoint_name(model: Network, arrays: dict) -> dict:
    """arrays keyed like model.params (gradients, say), each head stack split into its
    members under their checkpoint names."""
    named = {}
    for name, array in arrays.items():
        if name.startswith("heads."):
            named.update({f"{prefix}.{name[len('heads.'):]}": member
                          for prefix, member in zip(model.head_prefixes, array)})
        else:
            named[name] = array
    return named


def forward_head(model: Network, x: np.ndarray, t: int, r: int,
                 rng: np.random.Generator | None = None) -> np.ndarray:
    """Head r of arm t on already-standardized covariates, as an (n, 1) column.

    Runs every head as per_head_forward does, so given a generator it draws
    the dropout of every head.
    """
    _, outs = per_head_forward(model, Tape(), x, rng)
    return outs[t][r].data.copy()


def lasso_cate(model: LassoModel, x: np.ndarray) -> np.ndarray:
    """Estimated effect per row: constant for single, model difference otherwise."""
    if model.variant == "single":
        x = check_columns(x, model.input_dim)
        return np.full(x.shape[0], model.learners[0][0][-1])
    y0, y1 = model.predict_potential_outcomes(x)
    return y1 - y0
