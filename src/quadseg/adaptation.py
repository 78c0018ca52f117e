"""Self-training machinery: warm-up pseudo-labels, the prototype bank with
EMA class centroids, online pseudo-label correction, and two-way SSIM image
pairing.

Everything here is label plumbing -- plain float64 numpy with no gradient
flow.  Features enter already L2-normalized by the caller (the trainer),
and warm-up probabilities are treated as immutable: correction multiplies
them by prototype-affinity weights and renormalizes, it never overwrites
them, which is the guard against the trivial self-confirming solution.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Iterable, Iterator

import numpy as np

from .pnm import encode_f64, encode_pgm, read_f64, read_pgm, write_bytes
from .tensor import Tensor, _upsample_first, tokens_to_map
from .decoder import mask_probs
from .model import infer_target_tokens, stack_chunks

__all__ = [
    "PrototypeBank",
    "PseudoLabels",
    "PairSet",
    "class_argmax",
    "class_sums",
    "grid_probs",
    "ema_update",
    "track_prototypes",
    "initialize_bank",
    "correct_pseudo_labels",
    "warmup_pseudo_labels",
    "pseudo_label_planes",
    "pseudo_label_files",
    "save_pseudo_labels",
    "decode_pseudo_labels",
    "load_pseudo_labels",
    "to_grayscale",
    "ssim",
    "ssim_matrix",
    "pair_two_way",
    "write_pairs",
    "read_pairs",
]


# ---------------------------------------------------------------------------
# prototype bank
# ---------------------------------------------------------------------------

@dataclass
class PrototypeBank:
    """Per-class EMA centroids in augmented-feature space ([K, D])."""

    eta: np.ndarray
    lam: float = 0.9999
    initialized: bool = False

    @classmethod
    def create(cls, num_classes: int, dim: int, lam: float = 0.9999):
        return cls(eta=np.zeros((num_classes, dim)), lam=lam)


def class_argmax(scores: np.ndarray) -> np.ndarray:
    """uint8 class map of finite [..., K, H, W] scores: the index of the
    largest score along the class axis, the first one on ties, as
    ``argmax(axis=-3)``.  A running ``>`` over the K class planes avoids
    the class-last copy and per-pixel argmax of numpy's axis argmax."""
    best = scores[..., 0, :, :]
    out = np.zeros(best.shape, np.uint8)
    for c in range(1, scores.shape[-3]):
        row = scores[..., c, :, :]
        out[row > best] = c
        best = np.maximum(best, row)
    return out


def class_sums(feats: np.ndarray, probs: np.ndarray):
    """Per-class weighted feature sums [K, D] and total weights [K].

    ``feats`` is [N, D], ``probs`` is [N, K]; a token counts for class c
    when argmax(probs) == c, with weight probs[:, c].  An absent class has
    zero sum and zero weight."""
    if feats.shape[0] != probs.shape[0]:
        raise ValueError(f"feats {feats.shape} vs probs {probs.shape}")
    k = probs.shape[1]
    sums = np.zeros((k, feats.shape[1]))
    weights = np.zeros(k)
    hard = probs.argmax(axis=1)
    for c in range(k):
        sel = hard == c
        if sel.any():
            w = probs[sel, c]
            rows = feats[sel]       # a copy, weighted in place
            rows *= w[:, None]
            sums[c] = rows.sum(axis=0)
            weights[c] = w.sum()
    return sums, weights


def grid_probs(probs: np.ndarray, gh: int, gw: int) -> np.ndarray:
    """Block-mean [..., K, H, W] probabilities down to [..., gh*gw, K]
    token rows."""
    *lead, k, h, w = probs.shape
    pooled = probs.reshape(*lead, k, gh, h // gh, gw, w // gw).mean(
        axis=(-3, -1))
    return pooled.reshape(*lead, k, gh * gw).swapaxes(-1, -2)


def ema_update(bank: PrototypeBank, c, eta_prime: np.ndarray) -> None:
    """eta_c <- lam * eta_c + (1 - lam) * eta'_c, in place.  ``c`` is one
    class, or an array of distinct classes with one row of ``eta_prime``
    each."""
    if not np.all(np.isfinite(eta_prime)):
        raise FloatingPointError(f"non-finite prototype update for class {c}")
    bank.eta[c] = bank.lam * bank.eta[c] + (1.0 - bank.lam) * eta_prime


def track_prototypes(bank: PrototypeBank, feats: np.ndarray,
                     probs: np.ndarray) -> None:
    """Move every class present in one item (``feats`` [N, D], token
    ``probs`` [N, K]) toward its weighted centroid there, in one
    ``ema_update``; an absent class is left as it is."""
    sums, weights = class_sums(feats, probs)
    present = np.flatnonzero(weights > 0.0)
    if present.size:
        ema_update(bank, present, sums[present] / weights[present, None])


def initialize_bank(bank: PrototypeBank, batches) -> None:
    """One full accumulation pass: ``batches`` yields (feats [N, D],
    probs [N, K]) chunks; sets each prototype to the global weighted
    centroid of its class so the first online corrections are meaningful."""
    k, d = bank.eta.shape
    sums = np.zeros((k, d))
    weights = np.zeros(k)
    for feats, probs in batches:
        s, w = class_sums(feats, probs)
        del feats, probs            # not held while the next is made
        sums += s
        weights += w
    nonzero = weights > 0
    bank.eta[nonzero] = sums[nonzero] / weights[nonzero, None]
    bank.initialized = True


# ---------------------------------------------------------------------------
# pseudo labels
# ---------------------------------------------------------------------------

@dataclass
class PseudoLabels:
    """Soft per-pixel class probabilities plus the validity mask, with
    any leading batch dims."""

    probs: np.ndarray             # [..., K, H, W], sums to 1 per pixel
    valid: np.ndarray             # [..., H, W] bool, max prob >= tau


_DIST_ROWS = 64     # token rows per block of the class distances


def correct_pseudo_labels(labels: PseudoLabels, feats: np.ndarray,
                          grid: tuple[int, int], bank: PrototypeBank,
                          temperature: float = 1.0,
                          tau: float = 0.9) -> PseudoLabels:
    """Reweight FIXED warm-up probabilities by prototype affinity.

    ``labels`` are [..., K, H, W] and ``feats`` [..., N, D] the augmented
    target features on the ``grid`` token lattice, with the same leading
    (batch) dims, on their natural scale — the feature norms carry class
    signal, and ``temperature`` converts distance gaps to affinity odds.
    The affinity k(f, c) = softmax_c(-||f - eta_c|| / T) is computed per token,
    bilinearly upsampled to the label resolution, multiplied into the
    warm-up probabilities and renormalized; the validity mask is then
    recomputed at ``tau``.  When all prototypes are equidistant from a
    pixel's feature the pixel is unchanged.
    """
    if not bank.initialized:
        raise ValueError("prototype bank not initialized; run the warm-up pass")
    *lead, kk, hh, ww = labels.probs.shape
    h, w = grid
    if feats.shape[-2] != h * w:
        raise ValueError(f"{feats.shape[-2]} features for grid {h}x{w}")
    if feats.shape[-1] != bank.eta.shape[1]:
        raise ValueError(f"feature dim {feats.shape[-1]} vs bank {bank.eta.shape[1]}")
    # squared distances over the flattened token rows, _DIST_ROWS rows at
    # a time through one block-sized scratch; each row sums along D alone
    rows = feats.reshape(-1, feats.shape[-1])
    dist = np.empty((rows.shape[0], kk))
    diff = np.empty((min(_DIST_ROWS, rows.shape[0]), rows.shape[1]))
    for lo in range(0, rows.shape[0], _DIST_ROWS):
        block = rows[lo:lo + _DIST_ROWS]
        d = diff[:len(block)]
        for c in range(kk):
            np.subtract(block, bank.eta[c], out=d)
            d *= d
            dist[lo:lo + len(block), c] = d.sum(axis=-1)
    dist = dist.reshape(*feats.shape[:-1], kk)
    z = -np.sqrt(dist) / temperature
    z -= z.max(axis=-1, keepdims=True)
    kw = np.exp(z)
    kw /= kw.sum(axis=-1, keepdims=True)                  # [..., N, K]
    kw_grid = kw.swapaxes(-1, -2).reshape(*lead, kk, h, w)
    p = _upsample_first(kw_grid, hh, ww) * labels.probs
    p /= p.sum(axis=-3, keepdims=True)
    return PseudoLabels(probs=p, valid=p.max(axis=-3) >= tau)


def warmup_pseudo_labels(params: dict, enc_cfg, dec_cfg, images) -> Iterator:
    """Source-free inference over same-sized [3, H, W] ``images``, read a
    ``stack_chunks`` chunk at a time.  Yields per chunk of n images the
    target head's token logits [n, h0*w0, K] as a float64 array, with the
    forward's maps and token grids; ``pseudo_label_planes`` turns the
    logits into the pseudo-label planes."""
    for chunk in stack_chunks(images):
        tok, maps, dims = infer_target_tokens(params, enc_cfg, dec_cfg, chunk)
        yield tok.data, maps, dims
        del tok, maps               # not held through the next forward


def pseudo_label_planes(tok: np.ndarray, grid: tuple[int, int], out_h: int,
                        out_w: int) -> tuple[np.ndarray, np.ndarray]:
    """The pseudo-label planes of [..., h*w, K] token logits on ``grid``,
    resampled to [..., out_h, out_w]: the uint8 ``class_argmax`` and the
    float64 max class probability of their softmax.  Every op works item
    by item, so the planes of an item do not depend on which items are
    derived with it."""
    probs = mask_probs(tokens_to_map(Tensor(tok), grid, out_h, out_w)).data
    return class_argmax(probs), probs.max(axis=-3)


def pseudo_label_files(directory: str, sample_id: int, hard: np.ndarray,
                       conf: np.ndarray) -> tuple[tuple[str, bytes], ...]:
    """The files that persist one image's planes under ``directory`` as
    ``(path, bytes)``: the hard-label PGM and the f64 confidence map."""
    stem = os.path.join(directory, f"{sample_id:04d}")
    return ((stem + ".pgm", encode_pgm(hard)),
            (stem + ".conf", encode_f64(conf)))


def save_pseudo_labels(directory: str, sample_id: int, hard: np.ndarray,
                       conf: np.ndarray) -> None:
    """Write ``pseudo_label_files`` of the planes before returning."""
    os.makedirs(directory, exist_ok=True)
    for path, data in pseudo_label_files(directory, sample_id, hard, conf):
        write_bytes(path, data)


def decode_pseudo_labels(hard: np.ndarray, conf: np.ndarray, num_classes: int,
                         tau: float) -> PseudoLabels:
    """Rebuild soft [..., K, H, W] probabilities from the [..., H, W] hard
    map and its confidence.  Exact for two classes (but a class 1 at
    confidence exactly 0.5 decodes as a tie, which ``class_argmax`` gives
    to class 0); for more the non-argmax remainder is spread uniformly."""
    hot = hard[..., None, :, :] == np.arange(num_classes)[:, None, None]
    rest = (1.0 - conf) / (num_classes - 1)
    probs = np.where(hot, conf[..., None, :, :], rest[..., None, :, :])
    return PseudoLabels(probs=probs, valid=conf >= tau)


def load_pseudo_labels(directory: str, sample_id: int, num_classes: int,
                       tau: float) -> PseudoLabels:
    """``decode_pseudo_labels`` of the planes ``save_pseudo_labels``
    persisted: the uint8 hard map and the float64 confidence, both [H, W]."""
    stem = os.path.join(directory, f"{sample_id:04d}")
    hard = read_pgm(stem + ".pgm")
    return decode_pseudo_labels(hard, read_f64(stem + ".conf", hard.shape),
                                num_classes, tau)


# ---------------------------------------------------------------------------
# SSIM and two-way pairing
# ---------------------------------------------------------------------------

_C1 = (0.01 * 1.0) ** 2
_C2 = (0.03 * 1.0) ** 2


def to_grayscale(img: np.ndarray) -> np.ndarray:
    """[3, H, W] -> [H, W] luma (ITU-R 601 weights)."""
    if img.ndim != 3 or img.shape[0] != 3:
        raise ValueError(f"expected [3, H, W], got {img.shape}")
    return 0.299 * img[0] + 0.587 * img[1] + 0.114 * img[2]


def ssim(a: np.ndarray, b: np.ndarray, window: int = 8) -> float:
    """Mean SSIM over non-overlapping ``window`` x ``window`` tiles of two
    grayscale images in [0, 1].  K1 = 0.01, K2 = 0.03, L = 1."""
    if a.shape != b.shape:
        raise ValueError(f"image sizes disagree: {a.shape} vs {b.shape}")
    h, w = a.shape
    th, tw = h // window, w // window
    if th < 1 or tw < 1:
        raise ValueError(f"image {h}x{w} smaller than window {window}")
    at = a[:th * window, :tw * window].reshape(th, window, tw, window)
    bt = b[:th * window, :tw * window].reshape(th, window, tw, window)
    mu_a = at.mean(axis=(1, 3))
    mu_b = bt.mean(axis=(1, 3))
    da = at - mu_a[:, None, :, None]
    db = bt - mu_b[:, None, :, None]
    var_a = (da * da).mean(axis=(1, 3))
    var_b = (db * db).mean(axis=(1, 3))
    cov = (da * db).mean(axis=(1, 3))
    score = ((2.0 * mu_a * mu_b + _C1) * (2.0 * cov + _C2)) \
        / ((mu_a * mu_a + mu_b * mu_b + _C1) * (var_a + var_b + _C2))
    return float(score.mean())


@dataclass
class PairSet:
    """Two-way best-similarity pairing between source and target corpora."""

    pairs: list = field(default_factory=list)    # (source_id, target_id)
    sims: list = field(default_factory=list)


_PAIR_BLOCK = 16        # images per block of the streamed matrix


def _blocks(items: Iterable) -> Iterator[list]:
    it = iter(items)
    while block := list(islice(it, _PAIR_BLOCK)):
        yield block


def _tile_stats(grays: list, window: int, shape: tuple[int, int]):
    """Tile means [n, T], centred tiles [n, T, window^2] and tile variances
    [n, T] of gray images of size ``shape``.  Means and centring are
    ``ssim``'s; the variances come from the same einsum as
    ``ssim_matrix``'s covariances, so an image's covariance with itself
    equals its variance bit for bit."""
    h, w = shape
    th, tw = h // window, w // window
    if th < 1 or tw < 1:
        raise ValueError(f"image {h}x{w} smaller than window {window}")
    mus, tiles = [], []
    for g in grays:
        if g.shape != shape:
            raise ValueError(f"image sizes disagree: {g.shape} vs {shape}")
        t = g[:th * window, :tw * window].reshape(th, window, tw, window)
        mu = t.mean(axis=(1, 3))
        mus.append(mu.reshape(-1))
        tiles.append((t - mu[:, None, :, None]).transpose(0, 2, 1, 3)
                     .reshape(th * tw, window * window))
    d = np.stack(tiles)
    return np.stack(mus), d, np.einsum("itp,itp->it", d, d) / (window * window)


def ssim_matrix(src_gray: Iterable[np.ndarray], tgt_gray: Iterable[np.ndarray],
                window: int = 8) -> np.ndarray:
    """``ssim`` of every (source, target) pair as one [ns, nt] matrix.

    Both sides are read ``_PAIR_BLOCK`` images at a time.  The target tile
    statistics are computed once and held, block by block; each source
    block is scored against each target block with one covariance einsum,
    so a generator of sources never has more than one block resident and
    no temporary spans the whole corpus.  Entries agree with ``ssim`` to
    rounding (the sums run in another order) and ``ssim(a, a)``'s entry is
    exactly 1.0."""
    tgt = iter(tgt_gray)
    first = next(tgt, None)
    if first is None:
        raise ValueError("pairing needs non-empty corpora on both sides")
    shape = first.shape
    targets = [_tile_stats(b, window, shape)
               for b in _blocks(chain([first], tgt))]
    rows = []
    for block in _blocks(src_gray):
        mu_s, d_s, var_s = _tile_stats(block, window, shape)
        mu_s, var_s = mu_s[:, None], var_s[:, None]
        row = []
        for mu_t, d_t, var_t in targets:
            cov = np.einsum("itp,jtp->ijt", d_s, d_t) / (window * window)
            score = ((2.0 * mu_s * mu_t + _C1) * (2.0 * cov + _C2)) \
                / ((mu_s * mu_s + mu_t * mu_t + _C1) * (var_s + var_t + _C2))
            row.append(score.mean(axis=2))
        rows.append(np.concatenate(row, axis=1))
    if not rows:
        raise ValueError("pairing needs non-empty corpora on both sides")
    return np.concatenate(rows)


def pair_two_way(src_gray: Iterable[np.ndarray],
                 tgt_gray: Iterable[np.ndarray], window: int = 8) -> PairSet:
    """For every source image its most similar target (P_s) and for every
    target its most similar source (P_t); the union with duplicates merged,
    ties going to the first index.  Every image therefore appears in at
    least one pair and |P| <= |src| + |tgt|.  Either side may be a one-shot
    iterable (see ``ssim_matrix``)."""
    sim = ssim_matrix(src_gray, tgt_gray, window)
    ns, nt = sim.shape
    chosen = {(i, int(sim[i].argmax())) for i in range(ns)}
    chosen |= {(int(sim[:, j].argmax()), j) for j in range(nt)}
    out = PairSet()
    for (i, j) in sorted(chosen):
        out.pairs.append((i, j))
        out.sims.append(float(sim[i, j]))
    return out


def write_pairs(path: str, ps: PairSet, src_paths: list, tgt_paths: list) -> None:
    """Persist as ``source_path<TAB>target_path<TAB>ssim`` lines."""
    with open(path, "w", encoding="ascii") as fh:
        for (i, j), s in zip(ps.pairs, ps.sims):
            fh.write(f"{src_paths[i]}\t{tgt_paths[j]}\t{s:.17g}\n")


def read_pairs(path: str, src_paths: list, tgt_paths: list) -> PairSet:
    """Load a persisted pairing, mapping paths back to corpus indices by
    their real paths, so ``data``, ``./data`` and the absolute root name the
    same image; ``ValueError`` on a bad line, a non-finite ssim or an empty
    pairing."""
    s_idx = {os.path.realpath(p): i for i, p in enumerate(src_paths)}
    t_idx = {os.path.realpath(p): i for i, p in enumerate(tgt_paths)}
    out = PairSet()
    with open(path, encoding="ascii") as fh:
        for ln, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ValueError(f"{path}:{ln}: expected 3 tab-separated fields")
            sp, tp, sv = parts
            sp, tp = os.path.realpath(sp), os.path.realpath(tp)
            if sp not in s_idx or tp not in t_idx:
                raise ValueError(f"{path}:{ln}: unknown image path")
            try:
                sim = float(sv)
            except ValueError:
                sim = np.nan
            if not np.isfinite(sim):
                raise ValueError(f"{path}:{ln}: ssim {sv!r} is not a finite "
                                 "number")
            out.pairs.append((s_idx[sp], t_idx[tp]))
            out.sims.append(sim)
    if not out.pairs:
        raise ValueError(f"{path}: no pairs")
    return out
