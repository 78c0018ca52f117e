"""All-MLP decoder over the four-stream feature pyramid.

Every stage of a stream is linearly unified to ``embed_dim`` channels at
its own resolution.  A domain head fuses the self maps with their cross
counterparts -- (s, ts) for the source mask, (t, st) for the target mask
-- through a linear + ReLU fuse layer and a linear classifier.  In the
paper's terms the fuse input is [phi_a, phi_b], where phi is the stream's
stages bilinearly upsampled to the stage-0 grid (H/4 x W/4) and
concatenated (``unify_and_upsample``).  Upsampling and the fuse are both
linear, so the fuse projects each stage before upsampling it
(``tensor.pyramid_fuse``) and phi is never built on the training or
inference path; ``augmented_features`` builds [phi_a, phi_b] off the tape
for the prototype machinery.  Source-free inference feeds (t, t) into the
target head, which by the encoder's degeneracy property equals the paired
forward with the target image in both slots.

Features are [..., N, C] with leading batch dims.  The paired decoder
unifies each stage's stream stack [4, ..., N, C], rows (s, t, ts, st), as
one op; the source head reads rows (s, ts), the target head (t, st), and
shared heads run as one stacked fuse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoder import EncoderConfig, trunc_normal
from .tensor import (
    ShapeError,
    Tensor,
    _upsample_last,
    gather,
    linear,
    pyramid_fuse,
    relu,
    softmax,
)

__all__ = [
    "DecoderConfig",
    "init_decoder_params",
    "unify_and_upsample",
    "augmented_features",
    "fuse_and_predict",
    "decode_pair",
    "decode_single",
    "mask_probs",
]


@dataclass(frozen=True)
class DecoderConfig:
    embed_dim: int = 64          # C_e: common channel width after unification
    num_classes: int = 2
    extra_hidden: bool = False   # ablation: one more hidden MLP in the head
    share_heads: bool = True     # one fuse/classifier serving both domains

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2 (background + line)")


def _heads(dec_cfg: DecoderConfig) -> list[str]:
    return ["head"] if dec_cfg.share_heads else ["head_src", "head_tgt"]


def init_decoder_params(enc_cfg: EncoderConfig, dec_cfg: DecoderConfig,
                        rng: np.random.Generator) -> dict[str, Tensor]:
    p: dict[str, Tensor] = {}
    ce = dec_cfg.embed_dim
    for i, c in enumerate(enc_cfg.channels):
        p[f"dec.unify{i}.w"] = Tensor(trunc_normal(rng, (c, ce)))
        p[f"dec.unify{i}.b"] = Tensor(np.zeros(ce))
    fuse_in = 2 * enc_cfg.num_stages * ce
    for h in _heads(dec_cfg):
        p[f"dec.{h}.fuse.w"] = Tensor(trunc_normal(rng, (fuse_in, ce)))
        p[f"dec.{h}.fuse.b"] = Tensor(np.zeros(ce))
        if dec_cfg.extra_hidden:
            p[f"dec.{h}.hidden.w"] = Tensor(trunc_normal(rng, (ce, ce)))
            p[f"dec.{h}.hidden.b"] = Tensor(np.zeros(ce))
        p[f"dec.{h}.cls.w"] = Tensor(trunc_normal(rng, (ce, dec_cfg.num_classes)))
        p[f"dec.{h}.cls.b"] = Tensor(np.zeros(dec_cfg.num_classes))
    return p


def _unify(params: dict, enc_cfg: EncoderConfig, stage_feats: list[Tensor],
           dims: list[tuple[int, int]]) -> list[Tensor]:
    """Map each per-stage token tensor to embed_dim channels, each at its
    own resolution: [..., h_i*w_i, embed_dim] per stage."""
    if len(stage_feats) != enc_cfg.num_stages or len(dims) != enc_cfg.num_stages:
        raise ShapeError(
            f"expected {enc_cfg.num_stages} stage features, got {len(stage_feats)}")
    return [linear(f, params[f"dec.unify{i}.w"], params[f"dec.unify{i}.b"])
            for i, f in enumerate(stage_feats)]


def unify_and_upsample(params: dict, enc_cfg: EncoderConfig,
                       stage_feats: list[Tensor],
                       dims: list[tuple[int, int]]) -> np.ndarray:
    """phi [..., h0*w0, num_stages*embed_dim] as a plain array: each
    per-stage token tensor mapped to embed_dim channels, upsampled to the
    stage-0 grid and concatenated (``augmented_features`` of one map
    list)."""
    units = _unify(params, enc_cfg, stage_feats, dims)
    return augmented_features(([u.data for u in units],), dims)


def augmented_features(maps: tuple[list, ...],
                       dims: list[tuple[int, int]]) -> np.ndarray:
    """The augmented features [phi_a, phi_b] [..., h0*w0,
    2*num_stages*embed_dim] of a head's (self, cross) per-stage unified
    maps, as a plain array: built off the tape, for the prototype
    machinery only.  Each stage is upsampled bilinearly to the stage-0
    grid and written into its column block; one map list gives phi."""
    h0, w0 = dims[0]
    parts = [(u, hw) for m in maps for u, hw in zip(m, dims)]
    lead = parts[0][0].shape[:-2]
    out = np.empty(lead + (h0 * w0, sum(u.shape[-1] for u, _ in parts)))
    col = 0
    for u, (h, w) in parts:
        c = u.shape[-1]
        if (h, w) != (h0, w0):
            u = _upsample_last(u.reshape(lead + (h, w, c)), h0, w0
                               ).reshape(lead + (h0 * w0, c))
        out[..., col:col + c] = u
        col += c
    return out


def fuse_and_predict(params: dict, dec_cfg: DecoderConfig, head: str,
                     self_maps: list[Tensor], cross_maps: list[Tensor],
                     dims: list[tuple[int, int]]) -> Tensor:
    """Fuse per-stage self and cross maps [..., h_i*w_i, embed_dim] and
    classify: [..., h0*w0, num_classes] logits.  The fuse projects every
    stage at its own resolution before upsampling it, which equals the
    fuse layer over the concatenated [phi_a, phi_b]."""
    pre = f"dec.{head}"
    x = relu(pyramid_fuse([*self_maps, *cross_maps], params[f"{pre}.fuse.w"],
                          params[f"{pre}.fuse.b"], [*dims, *dims], *dims[0]))
    if dec_cfg.extra_hidden:
        x = relu(linear(x, params[f"{pre}.hidden.w"], params[f"{pre}.hidden.b"]))
    return linear(x, params[f"{pre}.cls.w"], params[f"{pre}.cls.b"])


def decode_pair(params: dict, enc_cfg: EncoderConfig, dec_cfg: DecoderConfig,
                feats: list[Tensor], dims: list[tuple[int, int]],
                use_cross_src: bool = True, use_cross_tgt: bool = True):
    """Both domain logit maps [..., h0*w0, num_classes] plus the target
    head's (self, cross) per-stage unified maps as plain arrays, from which
    ``augmented_features`` builds [phi_t, phi_st]: ``(logits_s, logits_t,
    maps_t)`` from ``encoder_forward``'s per-stage stream stacks, rows (s,
    t, ts, st).  The source head reads rows (s, ts), the target head (t,
    st).  The cross toggles substitute a stream's own self map for its
    cross map, which is the ablation that disables cross-attention features
    per domain; the stacks then keep only the rows read."""
    keep = [k for k, on in enumerate((True, True, use_cross_src, use_cross_tgt))
            if on]
    units = _unify(params, enc_cfg, feats if len(keep) == 4 else
                   [gather(f, keep) for f in feats], dims)
    # (source, target) rows of the self and of the cross maps
    self_rows = (0, 1)
    cross_rows = (keep.index(2) if use_cross_src else 0,
                  keep.index(3) if use_cross_tgt else 1)
    maps_t = ([u.data[self_rows[1]] for u in units],
              [u.data[cross_rows[1]] for u in units])

    def pick(rows):
        return [gather(u, rows) for u in units]

    if dec_cfg.share_heads:
        logits = fuse_and_predict(params, dec_cfg, "head", pick(self_rows),
                                  pick(cross_rows), dims)
        return gather(logits, 0), gather(logits, 1), maps_t
    return (*(fuse_and_predict(params, dec_cfg, h, pick(a), pick(c), dims)
              for h, a, c in zip(("head_src", "head_tgt"), self_rows, cross_rows)),
            maps_t)


def decode_single(params: dict, enc_cfg: EncoderConfig, dec_cfg: DecoderConfig,
                  feats: list[Tensor], dims: list[tuple[int, int]]):
    """Source-free path: the one-stream case of ``decode_pair``, fusing
    (phi_t, phi_t) through the target head.  Returns ``(logits, maps)``
    shaped like the target outputs of ``decode_pair``."""
    units = _unify(params, enc_cfg, feats, dims)
    head = "head" if dec_cfg.share_heads else "head_tgt"
    maps = [u.data for u in units]
    return fuse_and_predict(params, dec_cfg, head, units, units, dims), (maps, maps)


def mask_probs(logits_grid: Tensor) -> Tensor:
    """Softmax over the class axis of a [..., K, H, W] logit map."""
    return softmax(logits_grid, axis=-3)
