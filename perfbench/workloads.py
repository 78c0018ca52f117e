"""The three benchmark workloads: set-up, the timed call, and output checks.

Every workload reaches quadseg only through ``quadseg.train`` (``warmup``,
``adapt``, ``evaluate``) plus the dataset writer for its inputs.  The seed
drives both the scene specs of the corpus and ``RunConfig.seed``.

Why these three:

* ``adapt-paired`` is the paper's main path: four shared-weight streams,
  the critic, prototype correction and EMA, plus 200x200 SSIM pairing
  inside ``adapt``.
* ``warmup-sourcefree`` uses the same tape, encoder and decoder with one
  stream and no critic, bank or pairing.
* ``infer-eval`` is forward-only inference with mask and report writes; no
  tape is recorded.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
from dataclasses import dataclass

import numpy as np

from quadseg import train
from quadseg.adaptation import load_pseudo_labels
from quadseg.checkpoint import load_checkpoint
from quadseg.config import RunConfig
from quadseg.dataset import (TRAIN_COUNT, VAL_COUNT, source_spec,
                             split_target_ids, target_spec, write_dataset)
from quadseg.model import init_model_params
from quadseg.objectives import init_disc_params
from quadseg.pnm import read_pgm


@dataclass(frozen=True)
class Sizes:
    """How much work each workload does; the benchmark always runs FULL."""

    n_train: int = TRAIN_COUNT    # default corpus, per domain
    n_val: int = VAL_COUNT
    big_val: int = 250            # infer-eval's labeled target-val split
    ckpt_train: int = 32          # infer-eval's checkpoint corpus
    ckpt_val: int = 4
    warm_steps: int = 30          # warm-up checkpoints built in set-up
    adapt_steps: int = 101        # adapt-paired: 100 step intervals
    warmup_steps: int = 101       # warmup-sourcefree: 100 step intervals
    setups: int = 3               # set-ups per untraced run (median setup_s)


FULL = Sizes()


def run_config(seed: int, **fields) -> RunConfig:
    """Defaults except a short lr ramp, so the few steps a run can afford
    move the model off its initialization, and target-val IoU logged every
    25 steps, so inference is sampled across the whole training call."""
    return dataclasses.replace(
        RunConfig(), **{"seed": seed, "warmup_steps": 10, "eval_every": 25,
                        **fields})


def setup_config(seed: int, steps: int) -> RunConfig:
    """The warm-up checkpoints built in set-up log IoU at their last step
    only: set-up is timed, and nothing reads that log."""
    return run_config(seed, warmup_iterations=steps, eval_every=steps)


class OutputError(AssertionError):
    """An output check failed."""


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise OutputError(message)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def check_log(path: str, steps: int) -> None:
    """Header matches, one row per step, every filled field finite."""
    with open(path, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    _check(lines and lines[0] == train.LOG_HEADER, f"{path}: bad header")
    _check(len(lines) - 1 == steps,
           f"{path}: {len(lines) - 1} rows, expected {steps}")
    for row in lines[1:]:
        for field in row.split(","):
            if field:
                _check(math.isfinite(float(field)),
                       f"{path}: non-finite field in {row!r}")


def check_checkpoint(path: str, cfg: RunConfig, critic: bool) -> None:
    """The checkpoint reloads with exactly the expected tensor names, all
    finite: model parameters, their AdamW moments, and with ``critic`` the
    discriminator and its moments."""
    rng = np.random.default_rng(0)
    names = list(init_model_params(cfg.encoder_config(), cfg.decoder_config(),
                                   rng))
    if critic:
        names += list(init_disc_params(cfg.disc_config(), rng))
    expected = set(names) | {f"opt.{m}.{n}" for n in names for m in "mv"}
    data = load_checkpoint(path)
    got = set(data.tensors)
    _check(got == expected,
           f"{path}: missing {sorted(expected - got)[:3]}, "
           f"unexpected {sorted(got - expected)[:3]}")
    for name, arr in data.tensors.items():
        _check(bool(np.all(np.isfinite(arr))), f"{path}: {name} not finite")


def check_pseudo_labels(ckpt: str, root: str, cfg: RunConfig) -> None:
    """Every target training id has a pseudo-label that reloads."""
    train_ids, _ = split_target_ids(root)
    for i in train_ids:
        pl = load_pseudo_labels(ckpt + ".plabels", i, cfg.num_classes,
                                cfg.tau)
        _check(bool(np.all(np.isfinite(pl.probs)))
               and np.allclose(pl.probs.sum(axis=0), 1.0),
               f"pseudo-label {i}: probabilities do not sum to 1")


def check_eval(out_dir: str, root: str) -> None:
    """One 0/255 mask per val image; the mean row is the mean of the rows."""
    _, val_ids = split_target_ids(root)
    mask_dir = os.path.join(out_dir, "masks")
    names = sorted(os.listdir(mask_dir))
    _check(names == [f"{i:04d}.pgm" for i in val_ids],
           f"{len(names)} masks for {len(val_ids)} val images")
    for name in names:
        mask = read_pgm(os.path.join(mask_dir, name))
        _check(bool(np.isin(mask, (0, 255)).all()), f"mask {name} not 0/255")
    with open(os.path.join(out_dir, "report.csv"), encoding="ascii") as fh:
        lines = fh.read().splitlines()
    _check(lines[0] == "id,iou" and lines[-1].startswith("mean,"),
           "report.csv: bad header or summary row")
    rows = [float(ln.split(",")[1]) for ln in lines[1:-1]]
    _check(len(rows) == len(val_ids), "report.csv: row count")
    mean = float(lines[-1].split(",")[1])
    # rows and mean are each printed to 6 decimals
    _check(abs(mean - float(np.mean(rows))) <= 1e-6,
           f"report.csv: mean {mean} vs mean of rows {np.mean(rows)}")


# ---------------------------------------------------------------------------
# digests
# ---------------------------------------------------------------------------


def tree_digest(root: str) -> str:
    """sha256 over every file under ``root``: relative path and bytes."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
            h.update(b"\0")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    """``setup`` writes the inputs under a directory; ``call`` runs the
    timed public entry point into a fresh output directory and returns
    target-val IoU; ``check`` raises OutputError on a bad output."""

    name = ""
    steps_hook = "gen_step"          # what one "step" is (see Timing)
    batch = 1

    def __init__(self, seed: int, sizes: Sizes = FULL):
        self.seed = seed
        self.sizes = sizes

    def _corpus(self, root: str, n_train: int, n_val: int) -> None:
        write_dataset(root, source_spec(self.seed), target_spec(self.seed),
                      n_train=n_train, n_val=n_val)


class AdaptPaired(Workload):
    name = "adapt-paired"

    def __init__(self, seed, sizes=FULL):
        super().__init__(seed, sizes)
        self.warm_cfg = setup_config(seed, sizes.warm_steps)
        self.cfg = run_config(seed, iterations=sizes.adapt_steps)
        self.batch = self.cfg.batch

    def setup(self, d: str) -> None:
        self._corpus(os.path.join(d, "data"), self.sizes.n_train,
                     self.sizes.n_val)
        train.warmup(self.warm_cfg, os.path.join(d, "data"),
                     os.path.join(d, "warm.ckpt"))

    def check_setup(self, d: str) -> None:
        check_checkpoint(os.path.join(d, "warm.ckpt"), self.warm_cfg, False)
        check_pseudo_labels(os.path.join(d, "warm.ckpt"),
                            os.path.join(d, "data"), self.warm_cfg)

    def call(self, d: str, out: str) -> float:
        summary = train.adapt(self.cfg, os.path.join(d, "data"),
                              os.path.join(d, "warm.ckpt"),
                              os.path.join(out, "adapted.ckpt"),
                              log_path=os.path.join(out, "adapt.csv"))
        return summary["target_val_iou"]

    def check(self, d: str, out: str) -> None:
        check_log(os.path.join(out, "adapt.csv"), self.cfg.iterations)
        check_checkpoint(os.path.join(out, "adapted.ckpt"), self.cfg, True)


class WarmupSourcefree(Workload):
    name = "warmup-sourcefree"

    def __init__(self, seed, sizes=FULL):
        super().__init__(seed, sizes)
        self.cfg = run_config(seed, warmup_iterations=sizes.warmup_steps)
        self.batch = self.cfg.batch

    def setup(self, d: str) -> None:
        self._corpus(os.path.join(d, "data"), self.sizes.n_train,
                     self.sizes.n_val)

    def check_setup(self, d: str) -> None:
        _check(len(split_target_ids(os.path.join(d, "data"))[1])
               == self.sizes.n_val, "corpus: wrong val split size")

    def call(self, d: str, out: str) -> float:
        summary = train.warmup(self.cfg, os.path.join(d, "data"),
                               os.path.join(out, "warm.ckpt"),
                               log_path=os.path.join(out, "warmup.csv"))
        return summary["target_val_iou"]

    def check(self, d: str, out: str) -> None:
        check_log(os.path.join(out, "warmup.csv"), self.cfg.warmup_iterations)
        check_checkpoint(os.path.join(out, "warm.ckpt"), self.cfg, False)
        check_pseudo_labels(os.path.join(out, "warm.ckpt"),
                            os.path.join(d, "data"), self.cfg)


class InferEval(Workload):
    name = "infer-eval"
    steps_hook = "predict"

    def __init__(self, seed, sizes=FULL):
        super().__init__(seed, sizes)
        self.cfg = setup_config(seed, sizes.warm_steps)

    def setup(self, d: str) -> None:
        # The checkpoint is trained on its own small corpus, so set-up never
        # runs inference over the big val split the timed call evaluates.
        self._corpus(os.path.join(d, "data"), 1, self.sizes.big_val)
        self._corpus(os.path.join(d, "ckpt-data"), self.sizes.ckpt_train,
                     self.sizes.ckpt_val)
        train.warmup(self.cfg, os.path.join(d, "ckpt-data"),
                     os.path.join(d, "model.ckpt"))

    def check_setup(self, d: str) -> None:
        check_checkpoint(os.path.join(d, "model.ckpt"), self.cfg, False)

    def call(self, d: str, out: str) -> float:
        summary = train.evaluate(os.path.join(d, "model.ckpt"),
                                 os.path.join(d, "data"), out)
        return summary["mean_iou"]

    def check(self, d: str, out: str) -> None:
        check_eval(out, os.path.join(d, "data"))


WORKLOADS = {w.name: w for w in (AdaptPaired, WarmupSourcefree, InferEval)}
