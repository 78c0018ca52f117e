"""Hierarchical quadruple-attention transformer encoder.

Four token streams run through every stage: two self streams (source,
target) updated by efficient multi-head self-attention (EMSA), and two
cross streams (target-source, source-target) updated by efficient
multi-head cross-attention (EMCA) whose queries come from one self
stream's previous activation and keys/values from the other's.  Each
attention is followed by a depthwise-conv Mix-FFN; both sublayers are
residual, with layer normalization applied to attention inputs only:

    f^_s     = EMSA(LN(f_s))            + f_s
    f_s'     = MixFFN(f^_s)             + f^_s
    f^_t     = EMSA(LN(f_t))            + f_t
    f_t'     = MixFFN(f^_t)             + f^_t
    f^_ts    = EMCA(LN(f_t), LN(f_s))   + f_ts
    f_ts'    = MixFFN(f^_ts)            + f^_ts
    f^_st    = EMCA(LN(f_s), LN(f_t))   + f_st
    f_st'    = MixFFN(f^_st)            + f^_st

By default all four branches share one parameter family per block, which
makes EMCA(x, x) coincide with EMSA(x) bit-for-bit; feeding the same image
into both slots then collapses the four streams onto one.  Stages shrink
the token grid with a 4x4 non-overlapping patch embedding up front and
overlapped 3x3 stride-2 convolutions in between, so stage i runs on an
(H / 2^(i+2)) x (W / 2^(i+2)) token grid.

Tokens are [..., N, C] with leading batch dims.  The paired encoder carries
the four streams as one stack [4, ..., N, C], rows (s, t, ts, st), from the
patch embedding to the decoder, so each layer is one op over every stream
and batch item.  The embedding gives the pair [2, ..., N, C], rows (s, t),
from which the first block seeds the cross rows as (t, s).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import (
    ShapeError,
    Tensor,
    gather,
    layer_norm,
    linear,
    patchify,
    residual_attention,
    residual_mix_ffn,
    stack,
    token_conv2d,
)

__all__ = [
    "EncoderConfig",
    "init_encoder_params",
    "trunc_normal",
    "patch_embed",
    "attention",
    "mix_ffn",
    "quad_block",
    "patch_merge",
    "encoder_forward",
    "encoder_forward_single",
]


@dataclass(frozen=True)
class EncoderConfig:
    """Structural hyperparameters of the encoder.

    ``channels[i]`` must be divisible by ``heads[i]``; ``sr_ratios[i]`` is
    the side of the square token fold applied to the key/value path before
    attention (the learned recovery projection is applied even at ratio 1).
    """

    in_channels: int = 3
    channels: tuple[int, ...] = (8, 16, 32, 64)
    depths: tuple[int, ...] = (1, 1, 1, 1)
    heads: tuple[int, ...] = (1, 1, 2, 4)
    sr_ratios: tuple[int, ...] = (8, 4, 2, 1)
    ffn_expand: int = 4
    patch: int = 4
    share_branch_weights: bool = True

    def __post_init__(self):
        n = len(self.channels)
        if not (len(self.depths) == len(self.heads) == len(self.sr_ratios) == n):
            raise ValueError("channels/depths/heads/sr_ratios lengths disagree")
        for name in ("channels", "heads", "sr_ratios"):
            if min(getattr(self, name)) < 1:
                raise ValueError(f"{name} must all be >= 1, "
                                 f"got {getattr(self, name)}")
        for c, h in zip(self.channels, self.heads):
            if c % h:
                raise ValueError(f"channels {c} not divisible by heads {h}")

    @property
    def num_stages(self) -> int:
        return len(self.channels)


def trunc_normal(rng: np.random.Generator, shape, std: float = 0.02) -> np.ndarray:
    """N(0, std^2) truncated to +-2 std, by rejection."""
    out = rng.normal(0.0, std, size=shape)
    bad = np.abs(out) > 2.0 * std
    while bad.any():
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 2.0 * std
    return out


def _branches(cfg: EncoderConfig) -> list[str]:
    return ["all"] if cfg.share_branch_weights else ["s", "t", "ts", "st"]


def init_encoder_params(cfg: EncoderConfig, rng: np.random.Generator) -> dict[str, Tensor]:
    """Flat name -> Tensor registry.  Weights are trunc-normal(0.02), biases
    zero, layer-norm gains one."""
    p: dict[str, Tensor] = {}

    def w(name, shape):
        p[name] = Tensor(trunc_normal(rng, shape))

    def zeros(name, shape):
        p[name] = Tensor(np.zeros(shape))

    def ones(name, shape):
        p[name] = Tensor(np.ones(shape))

    for i in range(cfg.num_stages):
        c = cfg.channels[i]
        if i == 0:
            w("embed.w", (cfg.in_channels * cfg.patch ** 2, c))
            zeros("embed.b", (c,))
        else:
            w(f"s{i}.merge.w", (c, cfg.channels[i - 1], 3, 3))
            zeros(f"s{i}.merge.b", (c,))
        r = cfg.sr_ratios[i]
        e = cfg.ffn_expand * c
        for l in range(cfg.depths[i]):
            for br in _branches(cfg):
                pre = f"s{i}.b{l}.{br}"
                if br in ("all", "s", "t"):
                    ones(f"{pre}.ln.g", (c,))
                    zeros(f"{pre}.ln.b", (c,))
                else:  # cross branches normalize query and key/value inputs separately
                    ones(f"{pre}.ln_q.g", (c,))
                    zeros(f"{pre}.ln_q.b", (c,))
                    ones(f"{pre}.ln_kv.g", (c,))
                    zeros(f"{pre}.ln_kv.b", (c,))
                for m in ("q", "k", "v", "o"):
                    w(f"{pre}.attn.w{m}", (c, c))
                    zeros(f"{pre}.attn.b{m}", (c,))
                w(f"{pre}.attn.wsr", (r * r * c, c))
                zeros(f"{pre}.attn.bsr", (c,))
                w(f"{pre}.ffn.w1", (c, e))
                zeros(f"{pre}.ffn.b1", (e,))
                w(f"{pre}.ffn.dw", (e, 3, 3))
                zeros(f"{pre}.ffn.bdw", (e,))
                w(f"{pre}.ffn.w2", (e, c))
                zeros(f"{pre}.ffn.b2", (c,))
    return p


# ---------------------------------------------------------------------------
# token / spatial plumbing
# ---------------------------------------------------------------------------

def patch_embed(params: dict, img: Tensor, patch: int) -> tuple[Tensor, int, int]:
    """Fold non-overlapping ``patch`` x ``patch`` pixels of img [..., Cin, H, W]
    into one token each, then apply the learned linear projection.  Returns
    (tokens [..., h*w, C], h, w)."""
    tokens = linear(patchify(img, patch), params["embed.w"], params["embed.b"])
    return tokens, img.shape[-2] // patch, img.shape[-1] // patch


def patch_merge(params: dict, prefix: str, tokens: Tensor,
                h: int, w: int) -> tuple[Tensor, int, int]:
    """Overlapped downsampling between stages: 3x3 stride-2 convolution
    over the [..., h*w, C] tokens' grid, one ``token_conv2d`` op."""
    y = token_conv2d(tokens, params[f"{prefix}.w"], params[f"{prefix}.b"],
                     (h, w), stride=2, padding=1)
    return y, (h + 1) // 2, (w + 1) // 2


_ATTN_WEIGHTS = ("wq", "bq", "wsr", "bsr", "wk", "bk", "wv", "bv", "wo", "bo")
_FFN_WEIGHTS = ("w1", "b1", "dw", "bdw", "w2", "b2")


def attention(params: dict, prefix: str, q_tokens: Tensor, kv_tokens: Tensor,
              residual: Tensor, h: int, w: int, heads: int, ratio: int,
              route=None) -> Tensor:
    """Residual efficient multi-head attention over [..., N, C] tokens, one
    ``residual_attention`` op: ``attn(q_tokens, kv_tokens) + residual``.
    Self-attention is the special case ``q_tokens is kv_tokens``;
    cross-attention reads queries from one stream and keys/values from
    another.  The key/value path is sequence-reduced: ratio x ratio token
    tiles fold into one row, projected back to C channels even at ratio 1.
    ``route = (q_rows, kv_rows)`` pairs rows of the leading axis after the
    projections: output row i attends with query row ``q_rows[i]`` over
    key/value row ``kv_rows[i]``."""
    return residual_attention(
        q_tokens, kv_tokens, residual,
        [params[f"{prefix}.{m}"] for m in _ATTN_WEIGHTS], (h, w), heads,
        ratio, route)


def mix_ffn(params: dict, prefix: str, tokens: Tensor, h: int, w: int) -> Tensor:
    """Residual Mix-FFN, one ``residual_mix_ffn`` op: expand -> depthwise
    3x3 over the token grid -> GELU -> project, plus the input tokens."""
    return residual_mix_ffn(
        tokens, *(params[f"{prefix}.{m}"] for m in _FFN_WEIGHTS), (h, w))


# ---------------------------------------------------------------------------
# the quadruple block
# ---------------------------------------------------------------------------

_ROUTE = ((0, 1, 1, 0), (0, 1, 0, 1))  # rows of (LN(f_s), LN(f_t)) per stream
_SEED = (0, 1, 1, 0)   # rows of the embedded pair (s, t) per stream


def _ln(params: dict, prefix: str, x: Tensor) -> Tensor:
    return layer_norm(x, params[f"{prefix}.g"], params[f"{prefix}.b"])


def _sublayers(params: dict, pre: str, q_in: Tensor, kv_in: Tensor,
               residual: Tensor, h: int, w: int, heads: int, ratio: int,
               route=None) -> Tensor:
    """Residual attention, then residual Mix-FFN."""
    hat = attention(params, f"{pre}.attn", q_in, kv_in, residual, h, w,
                    heads, ratio, route)
    return mix_ffn(params, f"{pre}.ffn", hat, h, w)


def quad_block(params: dict, cfg: EncoderConfig, stage: int, layer: int,
               x: Tensor, h: int, w: int) -> Tensor:
    """One block (see module docstring) updating the stream stack x; the
    first takes the embedded pair.  With shared weights the four streams
    run as one op and LN/Q/K/V see f_s, f_t once."""
    heads, ratio = cfg.heads[stage], cfg.sr_ratios[stage]
    seeded = x.shape[0] == 2
    if cfg.share_branch_weights:
        b = f"s{stage}.b{layer}.all"
        n = _ln(params, f"{b}.ln", x if seeded else gather(x, (0, 1)))
        return _sublayers(params, b, n, n, gather(x, _SEED) if seeded else x,
                          h, w, heads, ratio, _ROUTE)

    b = f"s{stage}.b{layer}"
    rows = [gather(x, i) for i in range(x.shape[0])]
    f_s, f_t, f_ts, f_st = (rows[i] for i in _SEED) if seeded else rows
    ns, nt = _ln(params, f"{b}.s.ln", f_s), _ln(params, f"{b}.t.ln", f_t)
    return stack([
        _sublayers(params, f"{b}.s", ns, ns, f_s, h, w, heads, ratio),
        _sublayers(params, f"{b}.t", nt, nt, f_t, h, w, heads, ratio),
        _sublayers(params, f"{b}.ts", _ln(params, f"{b}.ts.ln_q", f_t),
                   _ln(params, f"{b}.ts.ln_kv", f_s), f_ts, h, w, heads, ratio),
        _sublayers(params, f"{b}.st", _ln(params, f"{b}.st.ln_q", f_s),
                   _ln(params, f"{b}.st.ln_kv", f_t), f_st, h, w, heads, ratio),
    ])


def _run_stages(params: dict, cfg: EncoderConfig, x: Tensor, h: int, w: int,
                block):
    """Stage loop from embedded tokens ``x``, patch merges between stages;
    ``block(stage, layer, x, h, w)`` is one block.  Returns the per-stage
    outputs and (h, w) token grids."""
    outs, dims = [], []
    for i in range(cfg.num_stages):
        if i > 0:
            x, h, w = patch_merge(params, f"s{i}.merge", x, h, w)
        if h < 1 or w < 1:
            raise ShapeError(f"stage {i} token grid collapsed to {h}x{w}")
        for l in range(cfg.depths[i]):
            x = block(i, l, x, h, w)
        outs.append(x)
        dims.append((h, w))
    return outs, dims


def encoder_forward(params: dict, cfg: EncoderConfig, img_s: Tensor, img_t: Tensor):
    """Run the paired encoder on images [..., Cin, H, W].

    Returns ``(feats, dims)``: ``feats`` is the list of per-stage stream
    stacks [4, ..., h*w, C] with rows (s, t, ts, st), ``dims`` the list of
    per-stage (h, w) token grids.  The cross streams start from the
    *other* domain's embedded tokens: f_ts^0 is the embedded target, f_st^0
    the embedded source.
    """
    if img_s.shape != img_t.shape:
        raise ShapeError(f"paired images disagree: {img_s.shape} vs {img_t.shape}")
    tok_s, h, w = patch_embed(params, img_s, cfg.patch)
    tok_t, _, _ = patch_embed(params, img_t, cfg.patch)
    return _run_stages(
        params, cfg, stack([tok_s, tok_t]), h, w,
        lambda i, l, x, h, w: quad_block(params, cfg, i, l, x, h, w))


def encoder_forward_single(params: dict, cfg: EncoderConfig, img: Tensor):
    """Source-free single-stream forward: the one-stream case of
    ``encoder_forward``.  With shared branch weights this equals every
    stream of ``encoder_forward(params, cfg, img, img)`` exactly; without
    sharing it follows the target branch."""
    tok, h, w = patch_embed(params, img, cfg.patch)
    branch = "all" if cfg.share_branch_weights else "t"

    def block(i, l, f, h, w):
        pre = f"s{i}.b{l}.{branch}"
        n = _ln(params, f"{pre}.ln", f)
        return _sublayers(params, pre, n, n, f, h, w, cfg.heads[i], cfg.sr_ratios[i])

    return _run_stages(params, cfg, tok, h, w, block)
