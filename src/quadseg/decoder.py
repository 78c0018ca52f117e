"""All-MLP decoder over the four-stream feature pyramid.

Every stage of a stream is linearly unified to ``embed_dim`` channels,
bilinearly upsampled to the stage-0 grid (H/4 x W/4) and concatenated into
a per-stream map phi of 4 * embed_dim channels.  A domain head then fuses
the self map with its cross counterpart -- (phi_s, phi_ts) for the source
mask, (phi_t, phi_st) for the target mask -- through a linear + ReLU fuse
layer and a linear classifier.  Source-free inference feeds (phi_t, phi_t)
into the target head, which by the encoder's degeneracy property equals
the paired forward with the target image in both slots.

Features are [..., N, C] with leading batch dims.  The paired decoder
stacks the streams on a new leading axis and, with shared heads, runs
both domain heads as one stacked fuse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoder import EncoderConfig, to_grid, to_tokens, trunc_normal
from .tensor import (
    ShapeError,
    Tensor,
    concat,
    gather,
    linear,
    relu,
    softmax_lastdim,
    stack,
    transpose,
    upsample_bilinear,
)

__all__ = [
    "DecoderConfig",
    "init_decoder_params",
    "unify_and_upsample",
    "fuse_and_predict",
    "decode_pair",
    "decode_single",
    "logits_to_grid",
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


def unify_and_upsample(params: dict, enc_cfg: EncoderConfig,
                       stage_feats: list[Tensor],
                       dims: list[tuple[int, int]]) -> Tensor:
    """Map each per-stage token tensor to embed_dim channels, upsample all to
    the stage-0 grid and concatenate: [..., h0*w0, num_stages*embed_dim]."""
    if len(stage_feats) != enc_cfg.num_stages or len(dims) != enc_cfg.num_stages:
        raise ShapeError(
            f"expected {enc_cfg.num_stages} stage features, got {len(stage_feats)}")
    h0, w0 = dims[0]
    pieces = []
    for i, (f, (h, w)) in enumerate(zip(stage_feats, dims)):
        u = linear(f, params[f"dec.unify{i}.w"], params[f"dec.unify{i}.b"])
        if (h, w) != (h0, w0):
            u = to_tokens(upsample_bilinear(to_grid(u, h, w), h0, w0,
                                            channels_last=True))
        pieces.append(u)
    return concat(pieces, axis=-1)


def fuse_and_predict(params: dict, dec_cfg: DecoderConfig, head: str,
                     phi_a: Tensor, phi_b: Tensor | None = None) -> Tensor:
    """Concatenate two phi maps and classify: [..., h0*w0, num_classes] logits.
    With ``phi_b`` None, ``phi_a`` is the concatenation already built."""
    if phi_b is not None:
        if phi_a.shape != phi_b.shape:
            raise ShapeError(f"phi shapes disagree: {phi_a.shape} vs {phi_b.shape}")
        phi_a = concat([phi_a, phi_b], axis=-1)

    def layer(name, x):
        pre = f"dec.{head}.{name}"
        return linear(x, params[f"{pre}.w"], params[f"{pre}.b"])

    x = relu(layer("fuse", phi_a))
    if dec_cfg.extra_hidden:
        x = relu(layer("hidden", x))
    return layer("cls", x)


def decode_pair(params: dict, enc_cfg: EncoderConfig, dec_cfg: DecoderConfig,
                feats: dict, dims: list[tuple[int, int]],
                use_cross_src: bool = True, use_cross_tgt: bool = True):
    """Both domain logit maps [..., h0*w0, num_classes] plus the augmented
    (pre-fuse) target features [..., h0*w0, 2*num_stages*embed_dim] used by
    the prototype machinery: ``(logits_s, logits_t, aug_t)``.  The cross
    toggles substitute a stream's own self map for its cross map, which is
    the ablation that disables cross-attention features per domain."""
    names = [n for n, on in (("s", True), ("t", True), ("ts", use_cross_src),
                             ("st", use_cross_tgt)) if on]
    phi = unify_and_upsample(
        params, enc_cfg,
        [stack([feats[n][i] for n in names]) for i in range(len(dims))], dims)
    row = {n: k for k, n in enumerate(names)}
    # the (source, target) heads fuse self maps with cross maps; row 1 of
    # the joined maps is also the augmented target feature
    joined = concat([gather(phi, (row["s"], row["t"])),
                     gather(phi, (row.get("ts", row["s"]),
                                  row.get("st", row["t"])))], axis=-1)
    aug_t = gather(joined, 1)
    if dec_cfg.share_heads:
        logits = fuse_and_predict(params, dec_cfg, "head", joined)
        return gather(logits, 0), gather(logits, 1), aug_t
    return (fuse_and_predict(params, dec_cfg, "head_src", gather(joined, 0)),
            fuse_and_predict(params, dec_cfg, "head_tgt", aug_t), aug_t)


def decode_single(params: dict, enc_cfg: EncoderConfig, dec_cfg: DecoderConfig,
                  feats: list[Tensor], dims: list[tuple[int, int]]):
    """Source-free path: the one-stream case of ``decode_pair``, fusing
    (phi_t, phi_t) through the target head.  Returns ``(logits, aug)``
    shaped like the target outputs of ``decode_pair``."""
    # phi itself is freed once the join is built
    aug = concat([unify_and_upsample(params, enc_cfg, feats, dims)] * 2, axis=-1)
    head = "head" if dec_cfg.share_heads else "head_tgt"
    return fuse_and_predict(params, dec_cfg, head, aug), aug


def logits_to_grid(logits: Tensor, h: int, w: int,
                   out_h: int | None = None, out_w: int | None = None) -> Tensor:
    """[..., h*w, K] token logits -> [..., K, H, W] map, optionally upsampled."""
    n = len(logits.shape) + 1
    g = transpose(to_grid(logits, h, w), (*range(n - 3), n - 1, n - 3, n - 2))
    if out_h is not None and (out_h, out_w) != (h, w):
        g = upsample_bilinear(g, out_h, out_w)
    return g


def mask_probs(logits_grid: Tensor) -> Tensor:
    """Softmax over the class axis of a [..., K, H, W] logit map."""
    n = len(logits_grid.shape)
    lead = tuple(range(n - 3))
    p = softmax_lastdim(transpose(logits_grid, (*lead, n - 2, n - 1, n - 3)))
    return transpose(p, (*lead, n - 1, n - 3, n - 2))
