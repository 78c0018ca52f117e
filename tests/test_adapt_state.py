"""What ``adapt`` keeps: pseudo-labels with or without their directory give
the same run, the warm-up checkpoint is released once restored, and each
step is freed before the next one's forward."""

import os
import shutil
import weakref

import pytest

from quadseg import train
from quadseg.config import RunConfig
from quadseg.dataset import source_spec, target_spec, write_dataset

_CFG = RunConfig(warmup_iterations=2, iterations=3, eval_every=3)


@pytest.fixture(scope="module")
def warm(tmp_path_factory):
    root = tmp_path_factory.mktemp("adapt-state")
    data = str(root / "data")
    write_dataset(data, source_spec(5), target_spec(5), n_train=4, n_val=2)
    wck = str(root / "w.ckpt")
    train.warmup(_CFG, data, wck)
    return data, wck


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_adapt_without_plabels_dir_writes_the_same_bytes(warm, tmp_path):
    """The in-memory pseudo-label pass holds the planes the directory holds,
    so the two runs write identical checkpoints and logs."""
    data, wck = warm
    bare = str(tmp_path / "bare" / "w.ckpt")
    os.makedirs(os.path.dirname(bare))
    for suffix in ("", ".bin"):
        shutil.copyfile(wck + suffix, bare + suffix)
    assert not os.path.exists(bare + ".plabels")
    outs = []
    for name, start in (("with", wck), ("without", bare)):
        out = str(tmp_path / f"{name}.ckpt")
        train.adapt(_CFG, data, start, out, log_path=out + ".csv")
        outs.append([_read(out + s) for s in ("", ".bin", ".csv")])
    assert outs[0] == outs[1]


def test_adapt_frees_checkpoint_and_each_step(warm, tmp_path, monkeypatch):
    """The checkpoint ``load_checkpoint`` returned is dead by the first
    ``forward_pair``, and step k's ``PairOutput`` is dead when step k+1's
    ``forward_pair`` is entered."""
    data, wck = warm
    refs = {}
    seen = []
    load, forward = train.load_checkpoint, train.forward_pair

    def traced_load(path):
        ckpt = load(path)
        refs["ckpt"] = weakref.ref(ckpt)
        return ckpt

    def traced_forward(*args, **kwargs):
        previous = refs.get("out")
        seen.append((refs["ckpt"]() is None,
                     previous is None or previous() is None))
        out = forward(*args, **kwargs)
        refs["out"] = weakref.ref(out)
        return out

    monkeypatch.setattr(train, "load_checkpoint", traced_load)
    monkeypatch.setattr(train, "forward_pair", traced_forward)
    train.adapt(_CFG, data, wck, str(tmp_path / "a.ckpt"))
    assert len(seen) == _CFG.iterations
    assert [ckpt_dead for ckpt_dead, _ in seen] == [True] * _CFG.iterations
    assert [out_dead for _, out_dead in seen] == [True] * _CFG.iterations
