"""The benchmark's outside-in tracer still finds every name it wraps.

bench/tracer.py rebinds adbcr's functions by name, so a renamed step, or a
mode table that held the function objects themselves, would make its
traced counts fall to 0 without any error. Each network mode is traced
through one short `train` run, and the traced tape-node count is checked
against a tape's own.
"""
import os
import sys

import numpy as np
import pytest

import adbcr.cli  # noqa: F401  (loads every adbcr module before the tracer scans them)
from adbcr import objectives, trainer
from adbcr.autodiff import Tape
from adbcr.baselines import DanncrModel
from adbcr.model import AdbcrModel

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench"))
import tracer  # noqa: E402

# The span of each mode's last per-batch phase.
LAST_PHASE = {
    "adbcr": "trainer.phase.C",
    "uadbcr": "trainer.phase.C",
    "a_tarnet": "trainer.phase.A",
    "danncr": "baselines.danncr.confuse",
}


@pytest.mark.parametrize("mode", list(trainer.MODES))
def test_tracer_sees_every_mode(bench_dataset, mode):
    config = trainer.TrainConfig(shared_layers=(6,), head_layers=(4,), batch_size=40,
                                 max_epochs=2, patience=5, mode=mode,
                                 trailing_step_a=False)
    t = tracer.Tracer()
    try:
        t.install()   # raises LookupError if a traced name is gone
        trainer.train(bench_dataset, config)
    finally:
        t.uninstall()
    spans, _ = t.totals()
    assert spans["run.train"][0] == 1
    assert spans["trainer.validation"][0] == 2
    assert spans.get(LAST_PHASE[mode], [0])[0] > 0
    if mode in ("adbcr", "uadbcr"):
        assert spans["trainer.phase.B"][0] > 0


@pytest.mark.parametrize("network", [AdbcrModel, DanncrModel], ids=["adbcr", "danncr"])
def test_tracer_counts_every_tape_node(network):
    """autodiff.tape_nodes of one build_losses and backward is the tape's node count."""
    rng = np.random.default_rng(0)
    batch = objectives.BatchView(x=rng.normal(size=(10, 3)), t=np.arange(10) % 2,
                                 y=rng.normal(size=10))
    model = network(3, (5,), (4,), dropout_p=0.2, seed=0)
    t = tracer.Tracer()
    try:
        t.install()
        tape = Tape()
        loss, _ = objectives.build_losses(model, batch, tape, training=True, rng=rng,
                                          need_distance=network is AdbcrModel)
        tape.backward(loss)
    finally:
        t.uninstall()
    _, counts = t.totals()
    assert counts["autodiff.tape_nodes"] == len(tape._nodes)
