"""What ``adapt`` keeps: it makes its pseudo-labels in the forward that
seeds the prototype bank and holds them as token logits, whose planes are
the ones the warm-up's ``.plabels`` files hold, so the run is the same
whether those files are intact, missing or damaged, and no step holds the
planes of the whole corpus;
the warm-up checkpoint is released once restored, and each
step is freed before the next one's forward, and each step corrects its
pseudo-labels in one call; ``evaluate`` and a resumed
``warmup`` release their checkpoint too.  What the training summaries
evaluate: the target-val IoU once per logged row, not again at the end.
How ``adapt`` runs a step: the label job, every tape sweep and every
optimizer step on the calling thread, with no thread started, and the
job's working set freed before the critic step; an error in the job or
in the critic step propagates and writes no checkpoint."""

import dataclasses
import os
import shutil
import threading
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from quadseg import adaptation, cli, objectives, tensor, train
from quadseg.checkpoint import load_checkpoint
from quadseg.config import RunConfig, value_text
from quadseg.dataset import (Corpus, load_corpus, source_spec,
                             split_target_ids, target_spec, write_dataset)
from quadseg.model import INFER_CHUNK
from quadseg.pnm import read_f64, read_pgm

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


def _damage_plabels(plabels, case):
    """Leave the warm-up's ``.plabels`` directory ``case``: intact, gone,
    missing one ``.conf`` file, or with one ``.pgm`` cut short."""
    first = os.path.join(plabels, sorted(os.listdir(plabels))[0])
    stem = os.path.splitext(first)[0]
    if case == "missing":
        shutil.rmtree(plabels)
    elif case == "conf-deleted":
        os.remove(stem + ".conf")
    elif case == "pgm-truncated":
        with open(stem + ".pgm", "r+b") as fh:
            fh.truncate(os.path.getsize(stem + ".pgm") // 2)


@pytest.fixture(scope="module")
def adapted(warm, tmp_path_factory):
    """The checkpoint and log bytes of ``adapt`` from the intact warm-up."""
    data, wck = warm
    out = str(tmp_path_factory.mktemp("adapted") / "a.ckpt")
    train.adapt(_CFG, data, wck, out, log_path=out + ".csv")
    return [_read(out + s) for s in ("", ".bin", ".csv")]


@pytest.mark.parametrize(
    "case", ["intact", "missing", "conf-deleted", "pgm-truncated"])
def test_adapt_without_plabels_dir_writes_the_same_bytes(warm, adapted,
                                                         tmp_path, case):
    """``adapt`` never opens the warm-up's ``.plabels`` files, so with them
    intact, missing, short of one file or holding a truncated one, the
    command exits 0 and writes the checkpoint and log of the intact run."""
    data, wck = warm
    start = str(tmp_path / "w.ckpt")
    for suffix in ("", ".bin"):
        shutil.copyfile(wck + suffix, start + suffix)
    shutil.copytree(wck + ".plabels", start + ".plabels")
    _damage_plabels(start + ".plabels", case)
    out = str(tmp_path / "a.ckpt")
    sets = [arg for name in ("warmup_iterations", "iterations", "eval_every")
            for arg in ("--set",
                        f"{name}={value_text(getattr(_CFG, name))}")]
    assert cli.main(["adapt", "--data", data, "--warmup", start, "--out", out,
                     "--log", out + ".csv", *sets]) == 0
    assert [_read(out + s) for s in ("", ".bin", ".csv")] == adapted


@pytest.fixture(scope="module")
def held(warm):
    """What ``adapt``'s target pass keeps, with and without the bank, and
    the warm-up's ``.plabels`` planes of the same ids."""
    data, wck = warm
    params = train._restore_params(load_checkpoint(wck), _CFG)
    train_ids, _ = split_target_ids(data)
    tgt = load_corpus(data, "target", train_ids, with_label=False)
    passes = {c: train._target_pass(params, _CFG, tgt, c) for c in (True, False)}
    files = []
    for i in train_ids:
        stem = os.path.join(wck + ".plabels", f"{i:04d}")
        hard = read_pgm(stem + ".pgm")
        files.append((hard, read_f64(stem + ".conf", hard.shape)))
    return passes, files, tgt[0].image.shape[1:]


@pytest.mark.parametrize("correcting", [True, False])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_target_pass_planes_equal_the_warmup_files(held, correcting, data):
    """The target pass keeps one [N, h0*w0, K] float64 array of token
    logits, one byte per pixel against the planes' nine, and planes
    derived from it, for any subset of items in any order and any
    chunking, are the ones the warm-up wrote to ``.plabels``, byte for
    byte, with or without the bank."""
    passes, files, (hh, ww) = held
    tok, grid, size, bank = passes[correcting]
    assert (bank is not None) == correcting
    assert tuple(size) == (hh, ww)
    assert tok.dtype == np.float64
    assert tok.shape == (len(files), grid[0] * grid[1], _CFG.num_classes)
    assert tok.nbytes == len(files) * hh * ww
    picks = data.draw(st.lists(st.integers(0, len(files) - 1), min_size=1,
                               max_size=2 * len(files)))
    step = data.draw(st.integers(1, len(picks)))
    for lo in range(0, len(picks), step):
        part = picks[lo:lo + step]
        hard, conf = train.pseudo_label_planes(tok[part], grid, hh, ww)
        for j, h, c in zip(part, hard, conf, strict=True):
            assert h.dtype == np.uint8
            assert h.tobytes() == files[j][0].tobytes()
            assert c.tobytes() == files[j][1].tobytes()
    # one item without a leading dim, as a step derives it
    hard, conf = train.pseudo_label_planes(tok[picks[0]], grid, hh, ww)
    assert hard.tobytes() == files[picks[0]][0].tobytes()
    assert conf.tobytes() == files[picks[0]][1].tobytes()


@pytest.mark.parametrize("correcting", [True, False])
def test_target_pass_holds_one_chunk_per_forward(warm, monkeypatch,
                                                 correcting):
    """When the target pass runs a chunk's forward, no earlier chunk's
    maps, logits or augmented features are alive, with or without the
    bank: nothing of a chunk stays bound in the pass, its generator or
    the bank's seeding through the next forward."""
    data, wck = warm
    params = train._restore_params(load_checkpoint(wck), _CFG)
    train_ids, _ = split_target_ids(data)
    tgt = load_corpus(data, "target", train_ids, with_label=False)
    refs, alive = [], []
    forward = adaptation.infer_target_tokens
    features = train.augmented_features

    def traced_forward(*args, **kwargs):
        alive.append(sum(r() is not None for r in refs))
        tok, maps, dims = forward(*args, **kwargs)
        refs.extend(weakref.ref(a) for m in maps for a in m)
        refs.append(weakref.ref(tok.data))
        return tok, maps, dims

    def traced_features(*args):
        out = features(*args)
        refs.append(weakref.ref(out))
        return out

    monkeypatch.setattr(adaptation, "infer_target_tokens", traced_forward)
    monkeypatch.setattr(train, "augmented_features", traced_features)
    train._target_pass(params, _CFG, tgt, correcting)
    assert alive == [0] * -(-len(tgt) // INFER_CHUNK)
    assert len(alive) > 1


def _reachable_arrays(obj, seen=None) -> list:
    """Every numpy array reachable from ``obj`` through containers,
    dataclass fields, ``Tensor.data`` and object attributes."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, tensor.Tensor):
        return _reachable_arrays(obj.data, seen)
    if isinstance(obj, dict):
        items = list(obj.values())
    elif isinstance(obj, (list, tuple, set)):
        items = list(obj)
    elif hasattr(obj, "__dict__") and not callable(obj):
        items = list(vars(obj).values())
    else:
        return []
    return [a for item in items for a in _reachable_arrays(item, seen)]


def test_adapt_steps_hold_no_full_resolution_planes(warm, tmp_path,
                                                    monkeypatch):
    """The step function ``adapt`` runs holds the pass's token logits and
    no [N, H, W] array: the planes of a step's items are derived in the
    step and freed with it.  Its corpora hold no array, and the only
    per-image array the step reaches is the token logits: an image is read
    when a step uses it."""
    data, wck = warm
    n = len(split_target_ids(data)[0])
    cells = []
    run = train._run_steps

    def inspect(cfg, first, last, run_step, *rest):
        cells.extend(c.cell_contents for c in run_step.__closure__)
        return run(cfg, first, last, run_step, *rest)

    monkeypatch.setattr(train, "_run_steps", inspect)
    train.adapt(_CFG, data, wck, str(tmp_path / "a.ckpt"))
    seen = [c for c in cells if isinstance(c, np.ndarray)]
    held = [a for a in seen if a.ndim and a.shape[0] == n]
    assert len(held) == 1
    assert held[0].dtype == np.float64 and held[0].ndim == 3
    assert held[0].shape[2] == _CFG.num_classes
    assert sum(a.nbytes for a in seen) < n * 64 * 64 * 2
    corpora = [c for c in cells if isinstance(c, Corpus)]
    assert len(corpora) == 2             # source and target-train
    assert [_reachable_arrays(c) for c in corpora] == [[]] * len(corpora)
    # the model's own state: parameters, critic, optimizer moments
    state = {id(a) for a in _reachable_arrays(
        [c for c in cells if isinstance(c, (dict, objectives.AdamW))])}
    per_image = [a for a in _reachable_arrays(cells) if id(a) not in state
                 and ((a.ndim and a.shape[0] == n)
                      or a.shape[-2:] == (64, 64))]
    assert len(per_image) == 1 and per_image[0] is held[0]


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


def test_adapt_corrects_each_batch_in_one_call(warm, tmp_path, monkeypatch):
    """At batch 2 each step corrects both items' pseudo-labels in one
    ``correct_pseudo_labels`` call, over [2, K, H, W] labels and [2, N, D]
    features."""
    data, wck = warm
    shapes = []
    correct = train.correct_pseudo_labels

    def counting(labels, feats, *args, **kwargs):
        shapes.append((labels.probs.shape[0], feats.shape[0]))
        return correct(labels, feats, *args, **kwargs)

    monkeypatch.setattr(train, "correct_pseudo_labels", counting)
    cfg = dataclasses.replace(_CFG, batch=2)
    train.adapt(cfg, data, wck, str(tmp_path / "a.ckpt"))
    assert shapes == [(2, 2)] * cfg.iterations


def _trace_release(monkeypatch, hook):
    """Patch ``train.load_checkpoint`` to keep weak references to what it
    returns and to the buffer its tensors view, and ``train.<hook>`` to
    record, at each call, whether both are dead."""
    refs, seen = {}, []
    load, inner = train.load_checkpoint, getattr(train, hook)

    def traced_load(path):
        ckpt = load(path)
        bases = {id(a.base) for a in ckpt.tensors.values()}
        assert len(bases) == 1                  # views of one buffer
        refs["ckpt"] = weakref.ref(ckpt)
        refs["buf"] = weakref.ref(next(iter(ckpt.tensors.values())).base)
        return ckpt

    def traced(*args, **kwargs):
        seen.append(refs["ckpt"]() is None and refs["buf"]() is None)
        return inner(*args, **kwargs)

    monkeypatch.setattr(train, "load_checkpoint", traced_load)
    monkeypatch.setattr(train, hook, traced)
    return seen


def test_evaluate_frees_checkpoint_before_predicting(warm, tmp_path,
                                                     monkeypatch):
    """The checkpoint and the buffer its tensors view are dead by the first
    ``predict_mask``."""
    data, wck = warm
    seen = _trace_release(monkeypatch, "predict_mask")
    train.evaluate(wck, data, str(tmp_path / "eval"))
    assert seen and all(seen)


def test_resumed_warmup_frees_checkpoint_before_its_first_step(
        warm, tmp_path, monkeypatch):
    """A warm-up resumed from step 1 of 2 drops the checkpoint once its
    parameters and moments are copied out: dead by the first forward."""
    data, _ = warm
    half = str(tmp_path / "half.ckpt")
    train.warmup(dataclasses.replace(_CFG, warmup_iterations=1), data, half)
    seen = _trace_release(monkeypatch, "infer_target_sourcefree")
    train.warmup(_CFG, data, str(tmp_path / "w.ckpt"), resume=half)
    assert seen and all(seen)


def _count_predicts(monkeypatch):
    calls = []
    predict = train.predict_mask

    def counted(*args, **kwargs):
        calls.append(1)
        return predict(*args, **kwargs)

    monkeypatch.setattr(train, "predict_mask", counted)
    return calls


def _direct_target_iou(ckpt, data):
    params = train._restore_params(load_checkpoint(ckpt), _CFG)
    return train.target_val_iou(params, _CFG, data)


def test_summaries_reuse_the_last_logged_target_iou(warm, tmp_path,
                                                    monkeypatch):
    """``warmup`` and ``adapt`` return the target-val IoU of their last
    periodic row, which is the final parameters' IoU, instead of running
    the same pass again: ``predict_mask`` runs once per val image per
    logged evaluation, plus warm-up's source-val pass."""
    data, _ = warm
    n_val = len(split_target_ids(data)[1])
    calls = _count_predicts(monkeypatch)
    wck = str(tmp_path / "w.ckpt")
    summary = train.warmup(_CFG, data, wck)
    assert len(calls) == n_val + len(train._SOURCE_VAL_IDS)
    assert summary["target_val_iou"] == _direct_target_iou(wck, data)
    calls.clear()
    out = str(tmp_path / "a.ckpt")
    summary = train.adapt(_CFG, data, wck, out)
    assert len(calls) == n_val              # one periodic row, at step 3
    assert summary["target_val_iou"] == _direct_target_iou(out, data)


def test_summaries_evaluate_when_no_step_ran(warm, tmp_path, monkeypatch):
    """A warm-up resumed at its last step and an adapt of 0 iterations log
    no row, so the summary evaluates the parameters once."""
    data, wck = warm
    n_val = len(split_target_ids(data)[1])
    calls = _count_predicts(monkeypatch)
    again = str(tmp_path / "again.ckpt")
    summary = train.warmup(_CFG, data, again, resume=wck)
    assert len(calls) == n_val + len(train._SOURCE_VAL_IDS)
    assert summary["target_val_iou"] == _direct_target_iou(wck, data)
    calls.clear()
    none = dataclasses.replace(_CFG, iterations=0)
    out = str(tmp_path / "a0.ckpt")
    summary = train.adapt(none, data, wck, out)
    assert len(calls) == n_val
    assert summary["target_val_iou"] == _direct_target_iou(wck, data)


@pytest.mark.parametrize("steps", [0, 2])
def test_warmup_resumed_at_its_last_step_rewrites_its_checkpoint(
        warm, tmp_path, steps):
    """With no step left, ``load_state`` alone adopts the parameters and
    their moments, and the checkpoint comes back byte for byte (a 0-step
    warm-up's holds no moments); the log holds only its header."""
    data, wck = warm
    cfg = dataclasses.replace(_CFG, warmup_iterations=steps)
    if steps != _CFG.warmup_iterations:
        wck = str(tmp_path / "w.ckpt")
        train.warmup(cfg, data, wck)
    again = str(tmp_path / "again.ckpt")
    train.warmup(cfg, data, again, resume=wck, log_path=again + ".csv")
    for suffix in ("", ".bin"):
        assert _read(again + suffix) == _read(wck + suffix)
    assert _read(again + ".csv") == (train.LOG_HEADER + "\n").encode()
    assert any(k.startswith("opt.") for k in load_checkpoint(again).tensors) \
        == (steps > 0)


def test_zero_step_adapt_writes_only_the_log_header(warm, tmp_path):
    data, wck = warm
    out = str(tmp_path / "a0.ckpt")
    train.adapt(dataclasses.replace(_CFG, iterations=0), data, wck, out,
                log_path=str(tmp_path / "logs" / "a0.csv"))
    assert _read(str(tmp_path / "logs" / "a0.csv")) \
        == (train.LOG_HEADER + "\n").encode()


@pytest.mark.parametrize("critic", [True, False], ids=["critic", "no-critic"])
def test_adapt_runs_on_the_calling_thread(warm, tmp_path, monkeypatch,
                                          critic):
    """Every label job, ``Tape.backward`` and ``AdamW.step`` runs on the
    thread that called ``adapt``, which starts no thread, with and without
    the critic; a step's label job runs before its critic step, and the
    job's augmented features are dead by the critic's first forward."""
    data, wck = warm
    main, before = threading.get_ident(), threading.active_count()
    calls, feats = [], []

    def noted(name, inner):
        def call(*args, **kwargs):
            calls.append((name, threading.get_ident(),
                          threading.active_count()))
            if name == "critic":
                assert all(f() is None for f in feats)
            out = inner(*args, **kwargs)
            if name == "features":
                feats.append(weakref.ref(out))
            return out
        return call

    for owner, attr, name in (
            (train, "_target_labels", "job"),
            (train, "augmented_features", "features"),
            (train, "discriminator_forward", "critic"),
            (tensor.Tape, "backward", "sweep"),
            (objectives.AdamW, "step", "adamw")):
        monkeypatch.setattr(owner, attr, noted(name, getattr(owner, attr)))
    train.adapt(dataclasses.replace(_CFG, adversarial=critic), data, wck,
                str(tmp_path / "a.ckpt"))
    assert {(t, n) for _, t, n in calls} == {(main, before)}
    names = [name for name, _, _ in calls if name != "features"]
    step = ["job", "critic", "sweep", "adamw", "critic", "sweep", "adamw"] \
        if critic else ["job", "sweep", "adamw"]
    assert names == step * _CFG.iterations
    assert threading.active_count() == before


@pytest.mark.parametrize("hook, message", [
    ("track_prototypes", "non-finite prototype update"),
    ("disc_loss", "non-finite critic loss")], ids=["label-job", "critic-step"])
def test_an_error_in_a_step_propagates_and_writes_no_checkpoint(
        warm, tmp_path, monkeypatch, hook, message):
    """A ``FloatingPointError`` in the label job or in the critic step is
    what ``adapt`` raises, and no checkpoint file is written."""
    data, wck = warm

    def bad(*args, **kwargs):
        raise FloatingPointError(message)

    monkeypatch.setattr(train, hook, bad)
    out = str(tmp_path / "a.ckpt")
    with pytest.raises(FloatingPointError, match=message):
        train.adapt(_CFG, data, wck, out)
    assert os.listdir(tmp_path) == []
