"""The write-behind writer and the three loops that use it.

``pnm.WriteBehind`` creates files on one worker thread from bytes that the
caller encoded.  ``write_dataset``, the pseudo-label pass that ends
``warmup`` and ``evaluate``'s mask loop hand it their files.  What is
checked: every file holds the bytes that ``write_ppm`` / ``write_pgm`` /
``write_f64`` write for the same array; no more than eight files are
pending; a failed write is raised in the caller, and a failure of the
caller's own lets the queued writes finish first; no thread outlives a
loop; and the bytes do not depend on how slowly the worker writes.
"""

import dataclasses
import hashlib
import os
import shutil
import sys
import threading
import time

import numpy as np
import pytest

from quadseg import cli, pnm, train
from quadseg.adaptation import pseudo_label_planes, warmup_pseudo_labels
from quadseg.checkpoint import load_checkpoint
from quadseg.config import RunConfig
from quadseg.dataset import (generate_sample, image_path, label_path,
                             load_corpus, source_spec, split_target_ids,
                             target_spec, write_dataset)
from quadseg.pnm import WriteBehind, write_f64, write_pgm, write_ppm

_CFG = RunConfig(warmup_iterations=2, eval_every=2)


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _tree(root):
    """sha256 of every file under ``root``, by relative path."""
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            out[os.path.relpath(path, root)] = hashlib.sha256(
                _read(path)).hexdigest()
    return out


def _reference(tmp_path, write, *args):
    """The bytes a synchronous writer puts in a fresh file."""
    path = str(tmp_path / f"ref-{len(os.listdir(tmp_path))}")
    write(path, *args)
    return _read(path)


def _slow_writes(monkeypatch, seconds, threads=None):
    """Make every ``pnm.write_bytes`` sleep ``seconds`` first, noting the
    thread of each call in ``threads``."""
    inner = pnm.write_bytes

    def slow(path, data):
        if threads is not None:
            threads.append(threading.get_ident())
        time.sleep(seconds)
        inner(path, data)

    monkeypatch.setattr(pnm, "write_bytes", slow)


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """A tiny corpus, its warm-up (checkpoint and pseudo-labels) and an
    evaluation of that checkpoint."""
    root = tmp_path_factory.mktemp("write-behind")
    data, wck, ev = str(root / "data"), str(root / "w.ckpt"), str(root / "ev")
    write_dataset(data, source_spec(3), target_spec(3), n_train=3, n_val=2)
    train.warmup(_CFG, data, wck)
    train.evaluate(wck, data, ev)
    return data, wck, ev


# ---------------------------------------------------------------------------
# the same bytes as the synchronous writers
# ---------------------------------------------------------------------------


def test_corpus_files_equal_the_synchronous_writers(chain, tmp_path):
    data, _, _ = chain
    src, tgt = source_spec(3), target_spec(3)
    cases = [("source", src, i, True) for i in range(3)]
    cases += [("target", tgt, i, i >= 3) for i in range(5)]
    for domain, spec, i, labelled in cases:
        s = generate_sample(spec, i)
        assert _read(image_path(data, domain, i)) \
            == _reference(tmp_path, write_ppm, s.image)
        if labelled:
            assert _read(label_path(data, domain, i)) == _reference(
                tmp_path, write_pgm,
                np.where(s.label, 255, 0).astype(np.uint8))
        else:
            assert not os.path.exists(label_path(data, domain, i))


def test_pseudo_label_files_equal_the_synchronous_writers(chain, tmp_path):
    data, wck, _ = chain
    params = train._restore_params(load_checkpoint(wck), _CFG)
    tgt = load_corpus(data, "target", split_target_ids(data)[0],
                      with_label=False)
    size = tgt[0].image.shape[-2:]
    planes = [(h, c) for tok, _, dims in warmup_pseudo_labels(
        params, _CFG.encoder_config(), _CFG.decoder_config(),
        (s.image for s in tgt))
        for h, c in zip(*pseudo_label_planes(tok, dims[0], *size))]
    assert sorted(os.listdir(wck + ".plabels")) == sorted(
        f"{i:04d}.{ext}" for i in tgt.ids for ext in ("pgm", "conf"))
    for i, (h, c) in zip(tgt.ids, planes, strict=True):
        stem = os.path.join(wck + ".plabels", f"{i:04d}")
        assert _read(stem + ".pgm") == _reference(tmp_path, write_pgm, h)
        assert _read(stem + ".conf") == _reference(tmp_path, write_f64, c)


def test_mask_files_equal_the_synchronous_writer(chain, tmp_path):
    data, wck, ev = chain
    params = train._restore_params(load_checkpoint(wck), _CFG)
    val_ids = split_target_ids(data)[1]
    assert sorted(os.listdir(os.path.join(ev, "masks"))) \
        == [f"{i:04d}.pgm" for i in val_ids]
    for s in load_corpus(data, "target", val_ids):
        mask = train.predict_mask(params, _CFG, s.image) * 255
        assert _read(os.path.join(ev, "masks", f"{s.id:04d}.pgm")) \
            == _reference(tmp_path, write_pgm, mask.astype(np.uint8))


def test_output_does_not_depend_on_write_timing(chain, tmp_path,
                                                monkeypatch):
    """A warm-up and an evaluation whose every file write first sleeps
    5 ms, and ones that hand the interpreter lock between the threads
    every microsecond, write the same bytes as the plain ones; every
    slowed write ran off the calling thread."""
    data, _, _ = chain

    def run(name):
        out = tmp_path / name
        wck = str(out / "w.ckpt")
        train.warmup(_CFG, data, wck, log_path=str(out / "w.csv"))
        train.evaluate(wck, data, str(out / "ev"))
        return _tree(str(out))

    plain = run("plain")
    threads = []
    before = threading.active_count()
    with monkeypatch.context() as m:
        _slow_writes(m, 0.005, threads)
        assert run("slow") == plain
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert run("switching") == plain
    finally:
        sys.setswitchinterval(interval)
    # three pseudo-labels of two files each, then two masks
    assert len(threads) == 3 * 2 + 2
    assert threading.get_ident() not in threads
    assert threading.active_count() == before


# ---------------------------------------------------------------------------
# the writer itself
# ---------------------------------------------------------------------------


def test_at_most_eight_files_are_pending(tmp_path, monkeypatch):
    """With the worker held inside its first write, eight ``put`` calls
    return and the ninth waits until the worker moves on."""
    release = threading.Event()
    inner = pnm.write_bytes

    def held(path, data):
        release.wait()
        inner(path, data)

    monkeypatch.setattr(pnm, "write_bytes", held)
    done = []

    def producer():
        with WriteBehind() as out:
            for k in range(9):
                out.put(str(tmp_path / f"{k}.bin"), bytes([k]))
                done.append(k)

    before = threading.active_count()
    thread = threading.Thread(target=producer)
    thread.start()
    try:
        deadline = time.monotonic() + 10
        while len(done) < 8 and time.monotonic() < deadline:
            time.sleep(0.001)
        time.sleep(0.05)
        assert done == list(range(8))
    finally:
        release.set()
        thread.join(10)
    assert not thread.is_alive()
    assert done == list(range(9))
    assert [_read(str(tmp_path / f"{k}.bin")) for k in range(9)] \
        == [bytes([k]) for k in range(9)]
    assert threading.active_count() == before


def test_writers_on_many_threads_keep_every_file(tmp_path):
    """Six producer threads, each with its own writer, put 64 files apiece
    while the interpreter lock changes hands every microsecond: every file
    holds its bytes and no thread is left."""
    def producer(p):
        with WriteBehind() as out:
            for k in range(64):
                out.put(str(tmp_path / f"{p}-{k}"), f"{p}:{k}".encode() * k)

    before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=producer, args=(p,))
                   for p in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for p in range(6):
        for k in range(64):
            assert _read(str(tmp_path / f"{p}-{k}")) == f"{p}:{k}".encode() * k
    assert threading.active_count() == before


def test_a_failed_write_is_raised_at_the_next_put(tmp_path):
    """The worker's first error reaches the caller at a later ``put``;
    the worker writes nothing after it."""
    bad = tmp_path / "taken"
    bad.mkdir()                           # open(..., "wb") on it fails
    before = threading.active_count()
    raised_at_put = False
    with pytest.raises(IsADirectoryError):
        with WriteBehind() as out:
            out.put(str(bad), b"x")
            deadline = time.monotonic() + 10
            for k in range(100_000):
                try:
                    out.put(str(tmp_path / f"after{k}"), b"y")
                except IsADirectoryError:
                    raised_at_put = True
                    raise
                if time.monotonic() > deadline:
                    break
                time.sleep(0.001)
    assert raised_at_put
    assert os.listdir(tmp_path) == ["taken"]
    assert threading.active_count() == before


def test_a_failed_last_write_is_raised_on_leaving_the_block(tmp_path):
    bad = tmp_path / "taken"
    bad.mkdir()
    before = threading.active_count()
    with pytest.raises(IsADirectoryError):
        with WriteBehind() as out:
            out.put(str(tmp_path / "first"), b"1")
            out.put(str(bad), b"x")
    assert _read(str(tmp_path / "first")) == b"1"
    assert threading.active_count() == before


def test_queued_writes_finish_before_the_blocks_error(tmp_path,
                                                      monkeypatch):
    """An error raised in the ``with`` body propagates only after every
    file put before it is written, and leaves no thread behind."""
    written = []
    inner = pnm.write_bytes

    def slow(path, data):
        time.sleep(0.02)
        inner(path, data)
        written.append(path)

    monkeypatch.setattr(pnm, "write_bytes", slow)
    paths = [str(tmp_path / f"{k}.bin") for k in range(4)]
    before = threading.active_count()
    with pytest.raises(FloatingPointError):
        with WriteBehind() as out:
            for k, path in enumerate(paths):
                out.put(path, bytes([k]))
            raise FloatingPointError("body")
    assert written == paths
    assert [_read(p) for p in paths] == [bytes([k]) for k in range(4)]
    assert threading.active_count() == before


# ---------------------------------------------------------------------------
# the loops' error paths
# ---------------------------------------------------------------------------


def test_write_dataset_raises_a_failed_write(tmp_path):
    """A directory where an image file should go makes the worker's write
    fail; ``write_dataset`` raises it, writes no ``spec.txt`` and leaves
    no thread."""
    root = str(tmp_path / "data")
    os.makedirs(image_path(root, "target", 1))
    before = threading.active_count()
    with pytest.raises(OSError):
        write_dataset(root, source_spec(3), target_spec(3), n_train=3,
                      n_val=1)
    assert not os.path.exists(os.path.join(root, "spec.txt"))
    assert threading.active_count() == before


@pytest.mark.parametrize("n_train, n_val, name",
                         [(0, 1, "n_train"), (3, 0, "n_val"),
                          (-1, 2, "n_train")])
def test_write_dataset_checks_counts_before_writing(tmp_path, n_train,
                                                    n_val, name):
    root = str(tmp_path / "data")
    with pytest.raises(ValueError, match=rf"^{name} must be >= 1"):
        write_dataset(root, source_spec(3), target_spec(3), n_train=n_train,
                      n_val=n_val)
    assert not os.path.exists(root)


def test_generate_with_no_val_images_writes_nothing(tmp_path, capsys):
    out = str(tmp_path / "data")
    assert cli.main(["generate", "--out", out, "--train", "3",
                     "--val", "0"]) == 1
    assert "n_val must be >= 1, got 0" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_evaluate_raises_a_failed_mask_write(chain, tmp_path):
    """A directory where a mask file should go: ``evaluate`` raises the
    write's error, writes no ``report.csv`` and leaves no thread."""
    data, wck, _ = chain
    ev = str(tmp_path / "ev")
    first = split_target_ids(data)[1][0]
    os.makedirs(os.path.join(ev, "masks", f"{first:04d}.pgm"))
    before = threading.active_count()
    with pytest.raises(OSError):
        train.evaluate(wck, data, ev)
    assert not os.path.exists(os.path.join(ev, "report.csv"))
    assert threading.active_count() == before


def test_warmup_with_every_target_image_labelled_writes_no_labels(chain,
                                                                  tmp_path):
    """A target corpus whose images all have labels leaves target-train
    empty: the warm-up still trains, saves and returns, and its
    ``.plabels`` directory stays empty."""
    data, _, _ = chain
    full = str(tmp_path / "data")
    shutil.copytree(data, full)
    train_ids, val_ids = split_target_ids(full)
    for i in train_ids:
        shutil.copyfile(label_path(full, "target", val_ids[0]),
                        label_path(full, "target", i))
    assert split_target_ids(full)[0] == []
    wck = str(tmp_path / "w.ckpt")
    out = train.warmup(dataclasses.replace(_CFG, warmup_iterations=1), full,
                       wck)
    assert out["checkpoint"] == wck and os.path.isfile(wck)
    assert os.listdir(wck + ".plabels") == []


def test_warmup_raises_a_failed_pseudo_label_write(chain, tmp_path):
    data, _, _ = chain
    wck = str(tmp_path / "w.ckpt")
    first = split_target_ids(data)[0][0]
    os.makedirs(os.path.join(wck + ".plabels", f"{first:04d}.conf"))
    before = threading.active_count()
    with pytest.raises(OSError):
        train.warmup(dataclasses.replace(_CFG, warmup_iterations=1), data,
                     wck)
    assert threading.active_count() == before
