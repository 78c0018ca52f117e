"""Training drivers: source-only warm-up, paired adaptation, evaluation.

Both phases run one step loop (``_run_steps``: the steps, the periodic
target-val IoU and the CSV log) over a per-phase step function, and every
update is one ``_descend``: a backward sweep of a tape that watches the
parameters, then an AdamW step.  Every stochastic choice (batch membership,
augmentation, initialization) comes from rng streams keyed by ``(seed,
phase, step)``, so a rerun with the same config writes byte-identical
checkpoints, logs, and masks.

The adaptation step interleaves two optimizers on one define-by-run tape.
The pair forward, the source loss and both mask softmaxes are recorded on
the generator tape.  The label job then runs (the batch's pseudo-labels
corrected against the prototype bank, which then trails them), and its
working set is freed before the discriminator's own step on the detached
masks, scoring the source (real) and target (fake) masks in one stacked
pass.  The generator tape is then re-entered to record the target loss on
the job's labels and to score its masks against the *updated*
discriminator before the single backward sweep.  Everything runs on the
calling thread.

Pseudo-labels have one producer, ``adaptation.warmup_pseudo_labels``,
which yields the target head's token logits, and one derivation,
``adaptation.pseudo_label_planes``, which expands logits to the (uint8
hard map, float64 confidence) planes: the warm-up writes each chunk's
planes to ``CKPT.plabels/`` for inspection only; ``adapt`` holds the
logits, a ninth of the planes' bytes, from the pass that seeds its
prototype bank, and a step derives its items' planes and crops and flips
them with the images before the label job decodes them.  Those files and
the evaluation's masks are encoded on the calling thread and created by
one ``pnm.WriteBehind`` thread while the next images are inferred.
"""

from __future__ import annotations

import os

import numpy as np

from .adaptation import (
    PrototypeBank,
    class_argmax,
    correct_pseudo_labels,
    decode_pseudo_labels,
    grid_probs,
    initialize_bank,
    pair_two_way,
    pseudo_label_files,
    pseudo_label_planes,
    read_pairs,
    to_grayscale,
    track_prototypes,
    warmup_pseudo_labels,
)
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .config import RunConfig, parse_config, serialize_config
from .dataset import (
    Sample,
    augment,
    generate_sample,
    image_path,
    iou,
    list_image_ids,
    load_corpus,
    read_scene_specs,
    split_target_ids,
)
from .decoder import augmented_features, mask_probs
from .model import (
    forward_pair,
    infer_target_sourcefree,
    init_model_params,
)
from .objectives import (
    AdamW,
    discriminator_forward,
    disc_loss,
    gen_adv_loss,
    init_disc_params,
    seg_cross_entropy,
    total_loss,
)
from .pnm import WriteBehind, encode_pgm
from .tensor import Tape, Tensor

__all__ = ["warmup", "adapt", "evaluate", "predict_mask",
           "source_val_iou", "target_val_iou", "LOG_HEADER"]

# rng stream tags: every draw in a run comes from (seed, tag, step)
_RNG_INIT, _RNG_WARMUP, _RNG_ADAPT, _RNG_DISC = 0, 1, 2, 3

LOG_HEADER = "step,l_seg_s,l_seg_t,d_loss,g_loss,lr,target_iou"

_SOURCE_VAL_IDS = range(200, 220)     # regenerated from spec.txt, never stored

_ARCH_FIELDS = ("channels", "depths", "heads", "sr_ratios", "ffn_expand",
                "share_branch_weights", "embed_dim", "num_classes",
                "extra_hidden", "share_heads", "disc_channels")


def _rng(seed: int, tag: int, step: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, tag, step)))


def _check_architecture(stored: RunConfig, cfg: RunConfig) -> None:
    for name in _ARCH_FIELDS:
        if getattr(stored, name) != getattr(cfg, name):
            raise CheckpointError(
                f"checkpoint architecture field {name!r} is "
                f"{getattr(stored, name)!r}, run config wants {getattr(cfg, name)!r}")


def _class_weights(cfg: RunConfig) -> np.ndarray:
    w = np.ones(cfg.num_classes)
    w[-1] = cfg.class_weight_pl
    return w


def _restore_params(data, cfg: RunConfig) -> dict[str, Tensor]:
    """Model parameters from a checkpoint, ignoring optimizer/critic state."""
    params = init_model_params(cfg.encoder_config(), cfg.decoder_config(),
                               _rng(cfg.seed, _RNG_INIT, 0))
    for name, p in params.items():
        arr = data.tensors.get(name)
        if arr is None:
            raise CheckpointError(f"checkpoint is missing parameter {name!r}")
        if arr.shape != p.data.shape:
            raise CheckpointError(f"parameter {name!r} has shape {arr.shape}, "
                                  f"expected {p.data.shape}")
        p.data[...] = arr
    return params


def _adamw(cfg: RunConfig, lr: float, wd: float, total: int | None) -> AdamW:
    return AdamW(lr=lr, weight_decay=wd, betas=(cfg.adam_beta1, cfg.adam_beta2),
                 eps=cfg.adam_eps, warmup=cfg.warmup_steps, total=total)


def _watching(params: dict) -> Tape:
    """A fresh tape with every parameter of ``params`` watched."""
    tape = Tape()
    for p in params.values():
        tape.watch(p)
    return tape


def _descend(tape: Tape, root: Tensor, params: dict, opt: AdamW) -> float:
    """Sweep ``tape`` back from ``root``, then step ``opt`` on the
    gradients of ``params``; returns the lr used."""
    tape.backward(root)
    return opt.step(params, {name: tape.grad(p) for name, p in params.items()})


# ---------------------------------------------------------------------------
# evaluation helpers
# ---------------------------------------------------------------------------


def predict_mask(params: dict, cfg: RunConfig, image: np.ndarray) -> np.ndarray:
    """Hard class map for one target image via the source-free path."""
    logits, _, _ = infer_target_sourcefree(params, cfg.encoder_config(),
                                           cfg.decoder_config(), Tensor(image))
    return class_argmax(logits.data)


def _mean_iou(params, cfg, samples) -> float:
    vals = [iou(predict_mask(params, cfg, s.image), s.label.astype(int))
            for s in samples]
    return float(np.mean(vals))


def target_val_iou(params: dict, cfg: RunConfig, root: str) -> float:
    _, val_ids = split_target_ids(root)
    return _mean_iou(params, cfg, load_corpus(root, "target", val_ids))


def source_val_iou(params: dict, cfg: RunConfig, root: str) -> float:
    """Held-out source IoU on samples regenerated from ``spec.txt`` with ids
    beyond the materialized range (nothing extra is stored on disk)."""
    src_spec, _ = read_scene_specs(os.path.join(root, "spec.txt"))
    samples = [generate_sample(src_spec, i) for i in _SOURCE_VAL_IDS]
    return _mean_iou(params, cfg, samples)


class _Images:
    """The images of a ``Corpus``, each read when the iteration reaches it;
    ``size`` is the (H, W) of the last one read, so a pass over them learns
    the size its planes expand to from data it has already read."""

    def __init__(self, corpus):
        self.corpus = corpus
        self.size = None

    def __iter__(self):
        for s in self.corpus:
            self.size = s.image.shape[-2:]
            yield s.image


def _run_steps(cfg: RunConfig, first: int, last: int, run_step, params: dict,
               tgt_val, log_path: str | None) -> float:
    """Run steps ``first`` to ``last``; ``run_step(step)`` returns the
    logged ``(l_s, l_t, d, g, lr)``.  The target-val IoU is evaluated every
    ``eval_every`` steps and at ``last``.  ``log_path``, if given, gets
    ``LOG_HEADER`` and one row per step.  Returns the last IoU logged, or,
    when no step ran, the IoU of ``params`` as they are."""

    def fmt(v):
        return f"{v:.6f}" if isinstance(v, float) else str(v)

    if log_path:
        os.makedirs(os.path.dirname(os.path.abspath(log_path)), exist_ok=True)
    tgt_iou = None
    with open(log_path or os.devnull, "w", buffering=1) as log:  # row by row
        log.write(LOG_HEADER + "\n")
        for step in range(first, last + 1):
            *losses, lr = run_step(step)
            periodic = step % cfg.eval_every == 0 or step == last
            if periodic:
                tgt_iou = _mean_iou(params, cfg, tgt_val)
            log.write(",".join([str(step), *map(fmt, losses), f"{lr:.8g}",
                                fmt(tgt_iou) if periodic else ""]) + "\n")
    return _mean_iou(params, cfg, tgt_val) if tgt_iou is None else tgt_iou


# ---------------------------------------------------------------------------
# warm-up
# ---------------------------------------------------------------------------


def warmup(cfg: RunConfig, root: str, ckpt_out: str,
           resume: str | None = None, log_path: str | None = None) -> dict:
    """Source-only training through the source-free inference path, then a
    pseudo-label pass over every target training image, written to
    ``ckpt_out + ".plabels"`` for inspection only.

    Returns a summary dict with the final source-val and target-val IoU.
    """
    enc, dec = cfg.encoder_config(), cfg.decoder_config()
    # constant lr after the ramp: the decay horizon belongs to adaptation
    opt = _adamw(cfg, cfg.lr, cfg.weight_decay, None)
    start = 0
    if resume is None:
        params = init_model_params(enc, dec, _rng(cfg.seed, _RNG_INIT, 0))
    else:
        data = load_checkpoint(resume)
        if data.step > cfg.warmup_iterations:
            raise CheckpointError(
                f"checkpoint {resume!r} is at step {data.step}, past "
                f"warmup_iterations = {cfg.warmup_iterations}")
        _check_architecture(parse_config(data.config_text), cfg)
        params = _restore_params(data, cfg)
        opt.load_state(params, data.tensors, data.step)
        start = data.step
        del data                    # parameters and moments are copied out
    src = load_corpus(root, "source", list_image_ids(root, "source"))
    tgt_val = load_corpus(root, "target", split_target_ids(root)[1])
    weights = _class_weights(cfg)

    def run_step(step: int) -> tuple:
        rng = _rng(cfg.seed, _RNG_WARMUP, step)
        batch = rng.choice(len(src), size=min(cfg.batch, len(src)),
                           replace=False)
        samples = [augment(src[int(i)], rng, crop=cfg.crop) for i in batch]
        tape = _watching(params)
        with tape:
            logits, _, _ = infer_target_sourcefree(
                params, enc, dec, Tensor(np.stack([s.image for s in samples])))
            loss, _ = seg_cross_entropy(
                logits, np.stack([s.label for s in samples]),
                class_weights=weights)
            total = (1.0 / len(batch)) * loss
        return total.item(), "", "", "", _descend(tape, total, params, opt)

    tgt_iou = _run_steps(cfg, start + 1, cfg.warmup_iterations, run_step,
                         params, tgt_val, log_path)
    save_checkpoint(ckpt_out, {**params, **opt.state_tensors()},
                    serialize_config(cfg), cfg.warmup_iterations)
    tgt = _Images(load_corpus(root, "target", split_target_ids(root)[0],
                              with_label=False))
    plabel_dir = ckpt_out + ".plabels"
    os.makedirs(plabel_dir, exist_ok=True)
    lo = 0
    with WriteBehind() as out:
        for tok, maps, dims in warmup_pseudo_labels(params, enc, dec, tgt):
            del maps                # not held through the next forward
            for i, h, c in zip(tgt.corpus.ids[lo:], *pseudo_label_planes(
                    tok, dims[0], *tgt.size)):
                for path, data in pseudo_label_files(plabel_dir, i, h, c):
                    out.put(path, data)
            lo += len(tok)
    return {"checkpoint": ckpt_out,
            "source_val_iou": source_val_iou(params, cfg, root),
            "target_val_iou": tgt_iou}


# ---------------------------------------------------------------------------
# adaptation
# ---------------------------------------------------------------------------


def _target_labels(planes: np.ndarray, maps_t: tuple, dims: list,
                   bank: PrototypeBank | None,
                   cfg: RunConfig) -> tuple[np.ndarray, np.ndarray]:
    """The hard labels and validity that a step's target loss reads: the
    batch's augmented [B, 2, h, w] (hard, confidence) ``planes`` decoded,
    and with a ``bank`` corrected against it by the target head's
    augmented features, after which the prototypes trail the corrections
    item by item.  Plain numpy on arrays and the bank, never a tape; it
    runs before the critic step, so the two working sets never add."""
    pls = decode_pseudo_labels(planes[:, 0], planes[:, 1], cfg.num_classes,
                               cfg.tau)
    if bank is not None:
        feats = augmented_features(maps_t, dims)
        pls = correct_pseudo_labels(pls, feats, dims[0], bank,
                                    cfg.temperature, cfg.tau)
        for i, gp in enumerate(grid_probs(pls.probs, *dims[0])):
            track_prototypes(bank, feats[i], gp)
    return class_argmax(pls.probs), pls.valid


def _target_pass(params, cfg: RunConfig, tgt,
                 correcting: bool) -> tuple[np.ndarray, tuple[int, int],
                                            tuple[int, int],
                                            PrototypeBank | None]:
    """The warm-up weights' pseudo-labels for the target-train ``Sample``s
    ``tgt`` (a ``Corpus``), from one ``warmup_pseudo_labels`` pass, held as
    the target head's token logits: one [N, h0*w0, K] float64 array, a
    ninth of the bytes of the [N, H, W] planes that ``pseudo_label_planes``
    expands them to, with its token ``grid`` (h0, w0) and the images'
    ``size`` (H, W) that the expansion reads, taken from the images the
    pass reads.  When ``correcting``, also the prototype bank seeded from
    the same forward's augmented features, else ``None``.  The bank reads
    each chunk's decoded planes, as the steps do, not the softmax."""
    enc, dec = cfg.encoder_config(), cfg.decoder_config()
    images = _Images(tgt)
    tok = grid = None
    bank = PrototypeBank.create(cfg.num_classes,
                                2 * enc.num_stages * cfg.embed_dim,
                                lam=cfg.lambda_ema) if correcting else None

    def seeds():
        """Store each chunk's logits; with a bank, then yield each image's
        (augmented features, token probs).  Nothing of a chunk stays bound
        through the next chunk's forward."""
        nonlocal tok, grid
        lo = 0
        for t, maps, dims in warmup_pseudo_labels(params, enc, dec, images):
            if tok is None:
                tok, grid = np.empty((len(tgt), *t.shape[1:])), dims[0]
            tok[lo:lo + len(t)] = t
            lo += len(t)
            if bank is None:
                del t, maps
                continue
            feats = augmented_features(maps, dims)
            hard, conf = pseudo_label_planes(t, grid, *images.size)
            del t, maps
            for i in range(len(feats)):
                yield feats[i], grid_probs(decode_pseudo_labels(
                    hard[i], conf[i], cfg.num_classes, cfg.tau).probs, *grid)
            del feats, hard, conf

    if bank is None:
        for _ in seeds():       # yields nothing
            pass
    else:
        initialize_bank(bank, seeds())
    return tok, grid, images.size, bank


def adapt(cfg: RunConfig, root: str, warmup_ckpt: str, ckpt_out: str,
          pairs_path: str | None = None, log_path: str | None = None) -> dict:
    """Paired adaptation from a warm-up checkpoint.

    Before the first step one source-free forward over target-train
    (``_target_pass``) makes the pseudo-labels from the warm-up weights,
    kept as token logits, and, when correcting, seeds the prototype bank;
    the warm-up's ``.plabels`` files are not read.  Ablation toggles: with
    ``self_training`` off the target segmentation loss is dropped;
    ``adversarial`` off skips both discriminator and generator adversarial
    terms; ``label_correction`` off uses the warm-up pseudo-labels as-is.
    """
    enc, dec = cfg.encoder_config(), cfg.decoder_config()
    data = load_checkpoint(warmup_ckpt)
    _check_architecture(parse_config(data.config_text), cfg)
    params = _restore_params(data, cfg)
    del data                        # its tensors are not read again
    disc_cfg = cfg.disc_config()
    disc = init_disc_params(disc_cfg, _rng(cfg.seed, _RNG_DISC, 0))
    g_opt = _adamw(cfg, cfg.lr, cfg.weight_decay, cfg.iterations)
    d_opt = _adamw(cfg, cfg.disc_lr, 0.0, cfg.iterations)

    train_ids, val_ids = split_target_ids(root)
    src = load_corpus(root, "source", list_image_ids(root, "source"))
    tgt = load_corpus(root, "target", train_ids, with_label=False)
    tgt_val = load_corpus(root, "target", val_ids)
    if pairs_path is not None:
        src_paths = [image_path(root, "source", i) for i in src.ids]
        tgt_paths = [image_path(root, "target", i) for i in train_ids]
        pairset = read_pairs(pairs_path, src_paths, tgt_paths)
    else:
        # the pairing reads the source images alone, not their labels
        pairset = pair_two_way(
            (to_grayscale(s.image) for s in
             load_corpus(root, "source", src.ids, with_label=False)),
            (to_grayscale(s.image) for s in tgt))
    tok, grid, size, bank = _target_pass(
        params, cfg, tgt, cfg.label_correction and cfg.self_training)
    weights = _class_weights(cfg)

    def run_step(step: int) -> tuple:
        """One adaptation step; returns the logged (l_s, l_t, d, g, lr).
        What the step builds is local to it, so it is freed on return,
        before the next step's forward."""
        rng = _rng(cfg.seed, _RNG_ADAPT, step)
        picks = rng.choice(len(pairset.pairs), size=cfg.batch,
                           replace=len(pairset.pairs) < cfg.batch)
        pairs = [pairset.pairs[int(k)] for k in picks]
        hard, conf = pseudo_label_planes(tok[[tj for _, tj in pairs]], grid,
                                         *size)
        batch = []
        for (si, tj), h, c in zip(pairs, hard, conf):
            s = augment(src[si], rng, crop=cfg.crop)
            # planes and image crop and flip together, anchored on valid
            # pixels that decode as line (a 1 at exactly 0.5 decodes as 0)
            t = augment(Sample(tgt[tj].image, np.stack([h, c]), tj), rng,
                        crop=cfg.crop,
                        anchor=(h == 1) & (c >= cfg.tau) & (c > 0.5))
            batch.append((s, t))
        n = len(batch)
        gtape = _watching(params)
        l_t = g_term = Tensor(0.0)
        with gtape:
            out = forward_pair(params, enc, dec,
                               Tensor(np.stack([s.image for s, _ in batch])),
                               Tensor(np.stack([t.image for _, t in batch])),
                               cfg.use_cross_src, cfg.use_cross_tgt)
            l_s, _ = seg_cross_entropy(
                out.logits_s, np.stack([s.label for s, _ in batch]),
                class_weights=weights)
            if cfg.adversarial:
                # only the critic reads the source masks, and only detached
                probs_s = mask_probs(out.logits_s.detach())
                probs_t = mask_probs(out.logits_t)
        if cfg.self_training:
            # the job's features and row copies are freed before the
            # critic step allocates its own
            labels, valid = _target_labels(
                np.stack([t.label for _, t in batch]), out.maps_t, out.dims,
                bank, cfg)
        d_val = ""
        if cfg.adversarial:
            # source masks play the real role, target masks the fake role;
            # the critic scores both in one pass
            dtape = _watching(disc)
            with dtape:
                d_total = disc_loss(*discriminator_forward(
                    disc, disc_cfg, probs_s, probs_t.detach()))
            _descend(dtape, d_total, disc, d_opt)
            d_val = d_total.item()
        with gtape:
            if cfg.self_training:
                l_t, _ = seg_cross_entropy(out.logits_t, labels, valid=valid,
                                           class_weights=weights)
            if cfg.adversarial:
                # patch means over the batch, summed like the other terms
                g_term = float(n) * gen_adv_loss(
                    discriminator_forward(disc, disc_cfg, probs_t))
            total = (1.0 / n) * total_loss(l_s, l_t, g_term,
                                           cfg.beta1, cfg.beta2)
        lr = _descend(gtape, total, params, g_opt)
        return (l_s.item() / n,
                l_t.item() / n if cfg.self_training else "",
                d_val,
                g_term.item() / n if cfg.adversarial else "",
                lr)

    tgt_iou = _run_steps(cfg, 1, cfg.iterations, run_step, params, tgt_val,
                         log_path)
    tensors = {**params, **g_opt.state_tensors()}
    if cfg.adversarial:
        tensors.update(disc)
        tensors.update(d_opt.state_tensors())
    save_checkpoint(ckpt_out, tensors, serialize_config(cfg), cfg.iterations)
    return {"checkpoint": ckpt_out, "target_val_iou": tgt_iou}


# ---------------------------------------------------------------------------
# evaluation command
# ---------------------------------------------------------------------------


def evaluate(ckpt_path: str, root: str, out_dir: str) -> dict:
    """Source-free evaluation on the labeled target validation split.

    Writes one predicted-mask PGM per image plus ``report.csv`` (one row per
    image, then a summary row).  The masks are created on a ``WriteBehind``
    thread while the next image is predicted; the report is written once
    every mask is.  No source image is read on this path.
    """
    data = load_checkpoint(ckpt_path)
    cfg = parse_config(data.config_text)
    params = _restore_params(data, cfg)
    del data                        # its tensors are not read again
    _, val_ids = split_target_ids(root)
    mask_dir = os.path.join(out_dir, "masks")
    os.makedirs(mask_dir, exist_ok=True)
    rows = []
    scale = 255 // (cfg.num_classes - 1)
    with WriteBehind() as out:
        for s in load_corpus(root, "target", val_ids):
            pred = predict_mask(params, cfg, s.image)
            out.put(os.path.join(mask_dir, f"{s.id:04d}.pgm"),
                    encode_pgm((pred * scale).astype(np.uint8)))
            rows.append((s.id, iou(pred, s.label.astype(int))))
    mean = float(np.mean([v for _, v in rows])) if rows else 1.0
    with open(os.path.join(out_dir, "report.csv"), "w") as fh:
        fh.write("id,iou\n")
        for i, v in rows:
            fh.write(f"{i:04d},{v:.6f}\n")
        fh.write(f"mean,{mean:.6f}\n")
    return {"mean_iou": mean, "count": len(rows),
            "report": os.path.join(out_dir, "report.csv")}
