"""Output files: each appears whole or not at all, with the mode the umask gives."""
import argparse
import builtins
import errno
import io
import os
import stat
import time

import numpy as np
import pytest

from adbcr import cli, data, evaluation
from adbcr.baselines import fit_lasso
from adbcr.evaluation import MetricsReport, RunRecord, SearchResult
from adbcr.model import AdbcrModel
from adbcr.trainer import TrainConfig

from conftest import small_benchmark


class _FailingFile:
    """A file whose write raises ENOSPC once `allowed` writes have gone through."""

    def __init__(self, f, allowed: int):
        self._f = f
        self._allowed = allowed

    def write(self, chunk):
        if self._allowed == 0:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self._allowed -= 1
        return self._f.write(chunk)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._f.__exit__(*exc)

    def __getattr__(self, name):
        return getattr(self._f, name)


def fill_disk(monkeypatch, root, allowed: int = 1) -> None:
    """Make each file opened for writing under root (or by descriptor) fail after `allowed` writes."""
    real_open = builtins.open

    def open_(file, mode="r", *args, **kwargs):
        f = real_open(file, mode, *args, **kwargs)
        under_root = isinstance(file, int) or os.fspath(file).startswith(str(root))
        if under_root and any(c in mode for c in "wxa+"):
            return _FailingFile(f, allowed)
        return f

    monkeypatch.setattr(builtins, "open", open_)
    monkeypatch.setattr(io, "open", open_)   # os.fdopen opens through io.open


def _reports():
    return [MetricsReport("train", 10, 0, "f", 0.5), MetricsReport("test", 5, 0, "f", 0.25)]


def _run_table():
    records = [RunRecord(i, TrainConfig(seed=i), "failed", "diverged") for i in range(2)]
    return SearchResult("adbcr", records, [None, None], -1)


def _manifest(path):
    args = argparse.Namespace(command="train", seed=0, out=os.path.dirname(path))
    cli.write_manifest(args, {"fractions": (0.63, 0.27, 0.10)}, {}, {}, time.monotonic())


WRITERS = {
    "save_csv": ("dataset.csv", lambda path: data.save_csv(small_benchmark(), path)),
    "Network.save": ("model.ckpt", lambda path: AdbcrModel(3, (6, 5), (4,), 0.2, 0).save(path)),
    "LassoModel.save": ("model.ckpt", lambda path: fit_lasso(
        np.eye(4), np.array([0, 1, 0, 1]), np.arange(4.0), "single", grid=(0.1,)).save(path)),
    "write_reports_csv": ("report.csv",
                          lambda path: evaluation.write_reports_csv(path, _reports())),
    "write_run_table": ("runs.csv", lambda path: evaluation.write_run_table(path, _run_table())),
    "write_manifest": ("manifest.json", _manifest),
}


@pytest.mark.parametrize("old", [None, b"old bytes"], ids=["new", "existing"])
@pytest.mark.parametrize("writer", WRITERS)
def test_failed_write_leaves_the_path_as_it_was(tmp_path, monkeypatch, writer, old):
    name, write = WRITERS[writer]
    path = tmp_path / name
    if old is not None:
        path.write_bytes(old)
    fill_disk(monkeypatch, tmp_path)
    with pytest.raises(OSError, match=os.strerror(errno.ENOSPC)):
        write(str(path))
    monkeypatch.undo()
    assert os.listdir(tmp_path) == ([] if old is None else [name])
    if old is not None:
        assert path.read_bytes() == old


def test_generate_that_cannot_write_its_csv_leaves_no_out_directory(tmp_path, monkeypatch, capsys):
    out = tmp_path / "g"
    fill_disk(monkeypatch, tmp_path, allowed=3)   # the header and two blocks of rows
    assert cli.main(["generate", "--out", str(out), "--n", "1000", "--seed", "7"]) == 1
    monkeypatch.undo()
    assert not out.exists()
    assert os.strerror(errno.ENOSPC) in capsys.readouterr().err


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_every_output_file_has_the_mode_the_umask_gives(tmp_path, umask, mode):
    gen, trained, searched = tmp_path / "gen", tmp_path / "train", tmp_path / "search"
    csv_path = str(gen / "dataset.csv")
    previous = os.umask(umask)
    try:
        assert cli.main(["generate", "--out", str(gen), "--n", "160", "--d", "3"]) == 0
        assert cli.main(["train", "--data", csv_path, "--out", str(trained),
                         "--shared-layers", "8", "--head-layers", "6", "--batch-size", "40",
                         "--max-epochs", "2"]) == 0
        assert cli.main(["search", "--data", csv_path, "--out", str(searched),
                         "--architectures", "8:6", "--draws", "2", "--batch-size", "40",
                         "--max-epochs", "2"]) == 0
    finally:
        os.umask(previous)
    names = {out.name: sorted(os.listdir(out)) for out in (gen, trained, searched)}
    assert names == {
        # train and search leave the table cache of the CSV they loaded
        "gen": [".dataset.csv.table.npz", "dataset.csv", "manifest.json", "truth.json"],
        "train": ["history.tsv", "manifest.json", "model.ckpt", "report.csv"],
        "search": ["best.ckpt", "manifest.json", "runs.csv"],
    }
    for out in (gen, trained, searched):
        for name in os.listdir(out):
            assert stat.S_IMODE(os.stat(out / name).st_mode) == mode, (out.name, name)
