"""Scale smoke test: 100k rows through one training epoch and nn-PEHE within memory ceilings."""
import tracemalloc

import numpy as np
import pytest

from adbcr import data
from adbcr.evaluation import NN_BLOCK_BYTES, nn_pehe
from adbcr.model import load_model

from conftest import run_fresh

pytestmark = pytest.mark.slow

N = 100_000
# Peak resident set of one `adbcr train --max-epochs 1` on N rows with the default net
# (about 78 MB). Loading the CSV dominates it (about 60 MB); the eval forwards (validation and the final
# predictions) run in row blocks of about 1 MiB per activation. A forward over all N rows
# at once took it to about 530 MB.
TRAIN_PEAK_CEILING_MB = 160
# nn_pehe's neighbour search keeps within NN_BLOCK_BYTES; with its per-row arrays
# it peaks near 12 MiB on the validation rows; unblocked it would need GBs.
NN_PEHE_CEILING_BYTES = 3 * NN_BLOCK_BYTES

# VmHWM is the peak of this process image alone. ru_maxrss would also count the test
# process's own resident set at the spawn, which grows with the tests run before it.
TRAIN_AND_REPORT_PEAK = """
    import sys
    from adbcr import cli

    code = cli.main(sys.argv[1:])
    with open("/proc/self/status") as status:
        print(code, next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""


def test_one_epoch_and_nn_pehe_at_100k_rows(tmp_path):
    dataset, _ = data.generate(data.DgpConfig(n=N, seed=11))
    csv_path, out = tmp_path / "dataset.csv", tmp_path / "run"
    data.save_csv(dataset, str(csv_path))
    code, peak_kib = run_fresh(TRAIN_AND_REPORT_PEAK, "train", "--seed", 1, "--max-epochs", 1,
                               "--data", csv_path, "--out", out).splitlines()[-1].split()
    assert code == "0"
    assert int(peak_kib) / 1024 < TRAIN_PEAK_CEILING_MB

    # The CLI's default split; score the trained network on its validation rows.
    val = data.split(dataset).indices(data.VAL)
    y0, y1 = load_model(str(out / "model.ckpt")).predict_potential_outcomes(dataset.x[val])
    tracemalloc.start()
    try:
        score = nn_pehe(dataset.x[val], dataset.t[val], dataset.y_factual[val], y1 - y0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(score)
    assert peak < NN_PEHE_CEILING_BYTES
