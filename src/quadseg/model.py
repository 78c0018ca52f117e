"""Encoder + decoder assembly: paired training forward and source-free
inference, with segmentation losses applied at full image resolution."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable

import numpy as np

from .decoder import (
    DecoderConfig,
    decode_pair,
    decode_single,
    init_decoder_params,
)
from .encoder import (
    EncoderConfig,
    encoder_forward,
    encoder_forward_single,
    init_encoder_params,
)
from .tensor import Tensor, tokens_to_map

__all__ = ["PairOutput", "INFER_CHUNK", "init_model_params", "forward_pair",
           "infer_target_tokens", "infer_target_sourcefree", "stack_chunks"]

# Images per forward in the whole-corpus inference loops (pseudo-labels,
# prototype bank).  Every op computes each batch item on its own, so the
# results do not depend on it.  A larger chunk saves per-op dispatch, but
# every forward transient grows with it.  At the default 64x64 size with one
# BLAS thread (2-core VM, best of 3 over 48 images, tracemalloc peak over
# 12), the pseudo-label pass takes 1.7 ms per image at a 2.4 MB peak with
# chunk 3 and 1.9 ms at 5.4 MB with chunk 8; the prototype-bank pass, which
# also builds the augmented features, takes 5.3 ms at 7.9 MB and 3.7 ms at
# 14.8 MB.  Three keeps each peak at about half of chunk 8's.
INFER_CHUNK = 3


@dataclass
class PairOutput:               # leading batch dims of the images carry through
    logits_s: Tensor        # [..., 2, H, W]: background, line
    logits_t: Tensor        # [..., 2, H, W]
    maps_t: tuple[list, list]   # target head's (self, cross) unified maps,
                                # arrays [..., h_i*w_i, embed_dim] per stage
    dims: list[tuple[int, int]]     # token grid per stage; dims[0] is the
                                    # grid of the augmented features


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
    tok_s, tok_t, maps_t = decode_pair(params, enc_cfg, dec_cfg, feats, dims,
                                       use_cross_src, use_cross_tgt)
    hh, ww = img_s.shape[-2:]
    return PairOutput(
        logits_s=tokens_to_map(tok_s, dims[0], hh, ww),
        logits_t=tokens_to_map(tok_t, dims[0], hh, ww),
        maps_t=maps_t,
        dims=dims,
    )


def infer_target_tokens(params: dict, enc_cfg: EncoderConfig,
                        dec_cfg: DecoderConfig, img: Tensor):
    """The source-free forward of the target image [..., 3, H, W] up to
    the target head's token logits: single-stream encoder, target head
    fused on (phi_t, phi_t).  Returns ``(tok [..., h0*w0, 2], maps,
    dims)``: the head's (self, cross) per-stage unified maps, here the same
    arrays twice, and the token grid per stage."""
    feats, dims = encoder_forward_single(params, enc_cfg, img)
    tok, maps = decode_single(params, enc_cfg, dec_cfg, feats, dims)
    return tok, maps, dims


def infer_target_sourcefree(params: dict, enc_cfg: EncoderConfig,
                            dec_cfg: DecoderConfig, img: Tensor):
    """Predict a target mask from the target image [..., 3, H, W] alone:
    ``infer_target_tokens`` with the token logits resampled to the image.
    Returns ``(logits [..., 2, H, W], maps, dims)``."""
    tok, maps, dims = infer_target_tokens(params, enc_cfg, dec_cfg, img)
    hh, ww = img.shape[-2:]
    return tokens_to_map(tok, dims[0], hh, ww), maps, dims


def stack_chunks(images: Iterable[np.ndarray]):
    """Same-sized [3, H, W] arrays as [n, 3, H, W] input Tensors of at most
    ``INFER_CHUNK`` images each, in order.  ``images`` is read a chunk at a
    time, so a generator never has more than one chunk resident."""
    it = iter(images)
    while chunk := list(islice(it, INFER_CHUNK)):
        yield Tensor(np.stack(chunk))
