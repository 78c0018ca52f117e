"""Encoder + decoder assembly: paired training forward and source-free
inference, with segmentation losses applied at full image resolution."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decoder import (
    DecoderConfig,
    decode_pair,
    decode_single,
    init_decoder_params,
    logits_to_grid,
)
from .encoder import (
    EncoderConfig,
    encoder_forward,
    encoder_forward_single,
    init_encoder_params,
)
from .tensor import Tensor

__all__ = ["PairOutput", "init_model_params", "forward_pair",
           "infer_target_sourcefree"]


@dataclass
class PairOutput:               # leading batch dims of the images carry through
    logits_s: Tensor        # [..., num_classes, H, W]
    logits_t: Tensor        # [..., num_classes, H, W]
    aug_t: Tensor           # [..., h0*w0, 2*num_stages*embed_dim] pre-fuse target feats
    grid: tuple[int, int]   # stage-0 token grid (h0, w0)


def init_model_params(enc_cfg: EncoderConfig, dec_cfg: DecoderConfig,
                      rng: np.random.Generator) -> dict[str, Tensor]:
    params = init_encoder_params(enc_cfg, rng)
    params.update(init_decoder_params(enc_cfg, dec_cfg, rng))
    return params


def forward_pair(params: dict, enc_cfg: EncoderConfig, dec_cfg: DecoderConfig,
                 img_s: Tensor, img_t: Tensor,
                 use_cross_src: bool = True,
                 use_cross_tgt: bool = True) -> PairOutput:
    feats, dims = encoder_forward(params, enc_cfg, img_s, img_t)
    tok_s, tok_t, aug_t = decode_pair(params, enc_cfg, dec_cfg, feats, dims,
                                      use_cross_src, use_cross_tgt)
    h0, w0 = dims[0]
    hh, ww = img_s.shape[-2:]
    return PairOutput(
        logits_s=logits_to_grid(tok_s, h0, w0, hh, ww),
        logits_t=logits_to_grid(tok_t, h0, w0, hh, ww),
        aug_t=aug_t,
        grid=(h0, w0),
    )


def infer_target_sourcefree(params: dict, enc_cfg: EncoderConfig,
                            dec_cfg: DecoderConfig, img: Tensor):
    """Predict a target mask from the target image [..., 3, H, W] alone:
    single-stream encoder, target head fused on (phi_t, phi_t).  Returns
    ``(logits [..., K, H, W], aug [..., h0*w0, 2*num_stages*C_e], grid)``."""
    feats, dims = encoder_forward_single(params, enc_cfg, img)
    tok, aug = decode_single(params, enc_cfg, dec_cfg, feats, dims)
    h0, w0 = dims[0]
    hh, ww = img.shape[-2:]
    return logits_to_grid(tok, h0, w0, hh, ww), aug, (h0, w0)
