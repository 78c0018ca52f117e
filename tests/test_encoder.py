"""Encoder: patch plumbing, attention, quadruple-stream invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadseg.encoder import (
    EncoderConfig,
    attention,
    encoder_forward,
    encoder_forward_single,
    init_encoder_params,
    mix_ffn,
    patch_embed,
    patch_merge,
    quad_block,
    trunc_normal,
)
from quadseg.tensor import (
    ShapeError,
    Tape,
    Tensor,
    conv2d,
    depthwise_conv2d,
    finite_diff_check,
    gelu,
    linear,
    multi_head_attention,
    reshape,
    stack,
    transpose,
    tsum,
)

DESK = EncoderConfig()
MICRO = EncoderConfig(channels=(4, 8), depths=(1, 1), heads=(1, 2),
                      sr_ratios=(1, 1))


def _img(seed, c=3, hw=64):
    return Tensor(np.random.default_rng(seed).normal(size=(c, hw, hw)))


def test_config_validation():
    with pytest.raises(ValueError):
        EncoderConfig(channels=(8, 16), depths=(1,), heads=(1, 1), sr_ratios=(1, 1))
    with pytest.raises(ValueError):
        EncoderConfig(channels=(6,), depths=(1,), heads=(4,), sr_ratios=(1,))


def test_trunc_normal_bounds_and_scale():
    rng = np.random.default_rng(0)
    x = trunc_normal(rng, (20000,), std=0.02)
    assert np.abs(x).max() <= 0.04 + 1e-12
    assert 0.015 < x.std() < 0.025


def test_init_weight_statistics():
    params = init_encoder_params(MICRO, np.random.default_rng(1))
    w = params["s0.b0.all.attn.wq"].data
    assert np.abs(w).max() <= 0.04
    np.testing.assert_array_equal(params["s0.b0.all.ln.g"].data, np.ones(4))
    np.testing.assert_array_equal(params["s0.b0.all.attn.bq"].data, np.zeros(4))


def test_patch_embed_fold_order():
    """With an identity projection, token i is the raster scan of tile i."""
    img = np.arange(16.0).reshape(1, 4, 4)
    params = {"embed.w": Tensor(np.eye(4)), "embed.b": Tensor(np.zeros(4))}
    tokens, h, w = patch_embed(params, Tensor(img), patch=2)
    assert (h, w) == (2, 2)
    np.testing.assert_array_equal(tokens.data, [
        [0.0, 1.0, 4.0, 5.0],      # top-left tile
        [2.0, 3.0, 6.0, 7.0],      # top-right
        [8.0, 9.0, 12.0, 13.0],    # bottom-left
        [10.0, 11.0, 14.0, 15.0],  # bottom-right
    ])


def test_patch_embed_rejects_indivisible():
    params = {"embed.w": Tensor(np.zeros((12, 4))), "embed.b": Tensor(np.zeros(4))}
    with pytest.raises(ShapeError):
        patch_embed(params, Tensor(np.zeros((3, 6, 6))), patch=4)


# ---------------------------------------------------------------------------
# the sublayers composed from primitive ops: the oracle of the fused
# residual_attention and residual_mix_ffn ops that attention and mix_ffn call
# ---------------------------------------------------------------------------


def sequence_reduce(params: dict, prefix: str, tokens: Tensor,
                    h: int, w: int, ratio: int) -> Tensor:
    """Shrink the key/value sequence by folding ratio x ratio token tiles and
    projecting back to C channels.  The projection is learned and applied
    even at ratio 1."""
    *lead, _, c = tokens.shape
    x = tokens
    if ratio > 1:
        k = len(lead)
        x = reshape(x, (*lead, h // ratio, ratio, w // ratio, ratio, c))
        x = transpose(x, (*range(k), k, k + 2, k + 1, k + 3, k + 4))
        x = reshape(x, (*lead, (h // ratio) * (w // ratio), ratio * ratio * c))
    return linear(x, params[f"{prefix}.wsr"], params[f"{prefix}.bsr"])


def composed_attention(params, prefix, q_tokens, kv_tokens, residual, h, w,
                       heads, ratio, route=None):
    def proj(m, x):
        return linear(x, params[f"{prefix}.w{m}"], params[f"{prefix}.b{m}"])

    q = proj("q", q_tokens)
    red = sequence_reduce(params, prefix, kv_tokens, h, w, ratio)
    return proj("o", multi_head_attention(q, proj("k", red), proj("v", red),
                                          heads, route)) + residual


def composed_mix_ffn(params, prefix, tokens, h, w):
    x = linear(tokens, params[f"{prefix}.w1"], params[f"{prefix}.b1"])
    s = depthwise_conv2d(reshape(x, x.shape[:-2] + (h, w, x.shape[-1])),
                         params[f"{prefix}.dw"], padding=1,
                         channels_last=True)
    x = gelu(reshape(s, x.shape) + params[f"{prefix}.bdw"])
    return linear(x, params[f"{prefix}.w2"], params[f"{prefix}.b2"]) + tokens


def _sublayer_arrays(rng, c, e, ratio):
    """Attention weights under "a.", Mix-FFN weights under "f.", scaled so
    that GELU sees both branches of its erf."""
    shapes = {"a.wsr": (ratio * ratio * c, c), "a.bsr": (c,),
              "f.w1": (c, e), "f.b1": (e,), "f.dw": (e, 3, 3), "f.bdw": (e,),
              "f.w2": (e, c), "f.b2": (c,)}
    for m in ("q", "k", "v", "o"):
        shapes[f"a.w{m}"], shapes[f"a.b{m}"] = (c, c), (c,)
    return {k: rng.normal(scale=0.8, size=v) for k, v in shapes.items()}


def _run_sublayers(attn, ffn, arrays, xs, wiring, grid, heads, ratio, route,
                   seed):
    """Output bytes and every leaf gradient's bytes of ffn(attn(...)), with
    each input also read by a later op, as the encoder's streams are."""
    h, w = grid
    with Tape() as tape:
        p = {k: tape.watch(Tensor(v.copy())) for k, v in arrays.items()}
        q, kv, res = (tape.watch(Tensor(x.copy())) for x in xs)
        if wiring != "cross":               # self-attention: one LN output
            kv = q
        if wiring == "aliased":             # ... that is its residual too
            res = q
        hat = attn(p, "a", q, kv, res, h, w, heads, ratio, route)
        out = ffn(p, "f", hat, h, w)
        rng = np.random.default_rng(seed)
        loss = tsum(out * Tensor(rng.normal(size=out.shape)))
        for t in (hat, q, kv, res):         # later consumers of each input
            loss = loss + tsum(t * Tensor(rng.normal(size=t.shape)))
        tape.backward(loss)
        leaves = [*p.values(), q, kv, res]
        return [out.data.tobytes()] + [tape.grad(t).tobytes() for t in leaves]


@settings(max_examples=60, deadline=None)
@given(heads=st.sampled_from([1, 2]), width=st.integers(1, 3),
       ratio=st.sampled_from([1, 2]), tiles=st.tuples(st.integers(1, 3),
                                                       st.integers(1, 3)),
       lead=st.sampled_from([(), (1,), (3,), (2, 2)]), routed=st.booleans(),
       wiring=st.sampled_from(["self", "cross", "aliased"]),
       seed=st.integers(0, 2 ** 16))
def test_fused_sublayers_equal_composed_ops_bytewise(heads, width, ratio, tiles,
                                                      lead, routed, wiring, seed):
    """attention and mix_ffn (one op each) against the linear, reshape,
    transpose, multi_head_attention, depthwise, gelu and add ops they
    replace: the output and every gradient, byte for byte.  Self, cross and
    aliased (q = kv = residual) wiring, ratios 1 and 2, the routed pair and
    leading batch dims."""
    c, grid = heads * width, (ratio * tiles[0], ratio * tiles[1])
    route = ((0, 1, 1, 0), (0, 1, 0, 1)) if routed else None
    if routed:
        lead = (2,) + lead[1:]
        wiring = "cross" if wiring == "aliased" else wiring
    rng = np.random.default_rng(seed)
    arrays = _sublayer_arrays(rng, c, 2 * c, ratio)
    n = grid[0] * grid[1]
    out_lead = (4,) + lead[1:] if routed else lead
    xs = [rng.normal(size=(*lead, n, c)), rng.normal(size=(*lead, n, c)),
          rng.normal(size=(*out_lead, n, c))]
    args = (arrays, xs, wiring, grid, heads, ratio, route, seed + 1)
    assert _run_sublayers(attention, mix_ffn, *args) \
        == _run_sublayers(composed_attention, composed_mix_ffn, *args)


def test_sequence_reduce_shapes():
    rng = np.random.default_rng(2)
    c, h, w, r = 8, 16, 16, 4
    params = {"a.wsr": Tensor(trunc_normal(rng, (r * r * c, c))),
              "a.bsr": Tensor(np.zeros(c))}
    out = sequence_reduce(params, "a", Tensor(rng.normal(size=(h * w, c))), h, w, r)
    assert out.shape == (16, c)


def test_sequence_reduce_unit_ratio_still_projects():
    rng = np.random.default_rng(3)
    c = 4
    wsr = rng.normal(size=(c, c))
    params = {"a.wsr": Tensor(wsr), "a.bsr": Tensor(np.zeros(c))}
    x = rng.normal(size=(9, c))
    out = sequence_reduce(params, "a", Tensor(x), 3, 3, 1)
    np.testing.assert_allclose(out.data, x @ wsr, atol=1e-12)


def _attn_params(rng, c, r):
    p = {}
    for m in ("q", "k", "v", "o"):
        p[f"a.w{m}"] = Tensor(trunc_normal(rng, (c, c), std=0.2))
        p[f"a.b{m}"] = Tensor(np.zeros(c))
    p["a.wsr"] = Tensor(trunc_normal(rng, (r * r * c, c), std=0.2))
    p["a.bsr"] = Tensor(np.zeros(c))
    return p


def test_attention_shapes_with_reduction():
    rng = np.random.default_rng(4)
    c, h, w, r, heads = 8, 8, 8, 2, 2
    p = _attn_params(rng, c, r)
    x = Tensor(rng.normal(size=(h * w, c)))
    out = attention(p, "a", x, x, x, h, w, heads, r)
    assert out.shape == (h * w, c)


def test_attention_cross_uses_kv_stream():
    """Zeroing the key/value stream must change the output; zeroing an
    unrelated tensor must not."""
    rng = np.random.default_rng(5)
    c, h, w = 4, 4, 4
    p = _attn_params(rng, c, 1)
    q = Tensor(rng.normal(size=(16, c)))
    kv1 = Tensor(rng.normal(size=(16, c)))
    kv2 = Tensor(np.zeros((16, c)))
    out1 = attention(p, "a", q, kv1, q, h, w, 1, 1)
    out2 = attention(p, "a", q, kv2, q, h, w, 1, 1)
    assert np.abs(out1.data - out2.data).max() > 1e-6


def test_attention_permutation_equivariance_at_unit_ratio():
    """No positional encoding: permuting tokens and un-permuting the output
    is the identity when the key/value fold is trivial (R=1)."""
    rng = np.random.default_rng(40)
    c, h, w = 8, 4, 4
    p = _attn_params(rng, c, 1)
    x = rng.normal(size=(16, c))
    perm = rng.permutation(16)
    xt, xp = Tensor(x), Tensor(x[perm])
    out = attention(p, "a", xt, xt, xt, h, w, 2, 1).data
    out_p = attention(p, "a", xp, xp, xp, h, w, 2, 1).data
    inv = np.empty_like(perm)
    inv[perm] = np.arange(16)
    np.testing.assert_allclose(out_p[inv], out, atol=1e-12)


def test_self_attention_is_cross_attention_with_shared_input():
    """EMSA(x) (one tensor in both slots) equals EMCA(x, x') for an equal
    but distinct key/value tensor, and equals the routed stacked form."""
    rng = np.random.default_rng(41)
    c = 4
    p = _attn_params(rng, c, 1)
    x = Tensor(rng.normal(size=(16, c)))
    self_out = attention(p, "a", x, x, x, 4, 4, 1, 1).data
    np.testing.assert_array_equal(
        self_out, attention(p, "a", x, Tensor(x.data.copy()), x, 4, 4, 1, 1).data)
    pair = Tensor(np.stack([x.data, x.data]))
    routed = attention(p, "a", pair, pair, Tensor(np.stack([x.data] * 4)),
                       4, 4, 1, 1, route=((0, 1, 1, 0), (0, 1, 0, 1))).data
    for row in routed:
        np.testing.assert_array_equal(row, self_out)


def test_attention_gradient():
    rng = np.random.default_rng(6)
    c, h, w, r = 4, 4, 4, 2
    p = _attn_params(rng, c, r)
    x0 = rng.normal(size=(16, c))
    weight = Tensor(rng.normal(size=(16, c)))

    err = finite_diff_check(
        lambda t: tsum(attention(p, "a", t, t, t, h, w, 2, r) * weight),
        Tensor(x0))
    assert err < 1e-6


def test_mix_ffn_gradient():
    rng = np.random.default_rng(7)
    c, e, h, w = 4, 8, 4, 4
    p = {"f.w1": Tensor(trunc_normal(rng, (c, e), std=0.3)),
         "f.b1": Tensor(np.zeros(e)),
         "f.dw": Tensor(trunc_normal(rng, (e, 3, 3), std=0.3)),
         "f.bdw": Tensor(np.zeros(e)),
         "f.w2": Tensor(trunc_normal(rng, (e, c), std=0.3)),
         "f.b2": Tensor(np.zeros(c))}
    weight = Tensor(rng.normal(size=(16, c)))
    err = finite_diff_check(
        lambda t: tsum(mix_ffn(p, "f", t, h, w) * weight),
        Tensor(rng.normal(size=(16, c))))
    assert err < 1e-6


def test_patch_merge_halves_grid():
    rng = np.random.default_rng(8)
    params = {"m.w": Tensor(trunc_normal(rng, (8, 4, 3, 3))),
              "m.b": Tensor(np.zeros(8))}
    tokens, h, w = patch_merge(params, "m", Tensor(rng.normal(size=(64, 4))), 8, 8)
    assert (h, w) == (4, 4)
    assert tokens.shape == (16, 8)


@pytest.mark.parametrize("lead,hw", [((), (8, 8)), ((2,), (7, 5)),
                                     ((4, 2), (8, 8))])
def test_patch_merge_bias_fuse_matches_token_add(lead, hw):
    """The merge with the bias fused into its convolution against the
    convolution, token reshape and bias add it replaced: values and the
    tokens', weight's and bias's gradients, bit for bit."""
    rng = np.random.default_rng(80)
    h, w = hw
    arrays = [rng.normal(size=(*lead, h * w, 4)), trunc_normal(rng, (8, 4, 3, 3)),
              rng.normal(size=(8,))]
    weight = rng.normal(size=(*lead, ((h + 1) // 2) * ((w + 1) // 2), 8))

    def unfused(params, tokens):
        y = conv2d(reshape(tokens, (*lead, h, w, 4)), params["m.w"], stride=2,
                   padding=1, channels_last=True)
        *_, ho, wo, c = y.shape
        return reshape(y, (*lead, ho * wo, c)) + params["m.b"]

    results = []
    for merge in (lambda p, t: patch_merge(p, "m", t, h, w)[0], unfused):
        with Tape() as tape:
            t, wt, bt = (tape.watch(Tensor(a.copy())) for a in arrays)
            out = merge({"m.w": wt, "m.b": bt}, t)
            tape.backward(tsum(out * Tensor(weight)))
            results.append([out.data.tobytes()]
                           + [tape.grad(x).tobytes() for x in (t, wt, bt)])
    assert results[0] == results[1]


def test_stage_token_counts_desk_config():
    """64x64 input: stage grids 16,8,4,2 -> 256/64/16/4 tokens."""
    params = init_encoder_params(DESK, np.random.default_rng(9))
    feats, dims = encoder_forward(params, DESK, _img(10), _img(11))
    assert dims == [(16, 16), (8, 8), (4, 4), (2, 2)]
    # one stack per stage, rows (s, t, ts, st)
    assert [f.shape for f in feats] == [(4, 256, 8), (4, 64, 16), (4, 16, 32),
                                        (4, 4, 64)]


def test_cross_degeneracy_identical_inputs():
    """Same image in both slots collapses cross streams onto self streams."""
    params = init_encoder_params(DESK, np.random.default_rng(12))
    img = _img(13)
    feats, _ = encoder_forward(params, DESK, img, img)
    for f in feats:
        s, t, ts, st = f.data
        np.testing.assert_array_equal(ts, s)
        np.testing.assert_array_equal(st, t)
        np.testing.assert_array_equal(s, t)


def test_single_stream_matches_degenerate_pair():
    params = init_encoder_params(DESK, np.random.default_rng(14))
    img = _img(15)
    feats, dims = encoder_forward(params, DESK, img, img)
    single, dims2 = encoder_forward_single(params, DESK, img)
    assert dims == dims2
    for i in range(DESK.num_stages):
        np.testing.assert_array_equal(single[i].data, feats[i].data[1])


def test_cross_streams_differ_for_distinct_inputs():
    params = init_encoder_params(DESK, np.random.default_rng(16))
    feats, _ = encoder_forward(params, DESK, _img(17), _img(18))
    s, t, ts, _ = feats[0].data
    assert np.abs(ts - s).max() > 1e-8
    assert np.abs(ts - t).max() > 1e-8


def test_unshared_branches_have_own_parameters():
    cfg = EncoderConfig(channels=(4,), depths=(1,), heads=(1,), sr_ratios=(1,),
                        share_branch_weights=False)
    params = init_encoder_params(cfg, np.random.default_rng(19))
    for br in ("s", "t", "ts", "st"):
        assert f"s0.b0.{br}.attn.wq" in params
    assert "s0.b0.ts.ln_q.g" in params and "s0.b0.ts.ln_kv.g" in params
    # forward runs and produces four distinct streams even on identical input
    img = Tensor(np.random.default_rng(20).normal(size=(3, 8, 8)))
    feats, _ = encoder_forward(params, cfg, img, img)
    assert feats[0].shape == (4, 4, 4)


def test_quad_block_gradient_through_parameters():
    """Finite differences through one full block w.r.t. a weight tensor,
    from the embedded pair (s, t) and from a four-stream stack."""
    cfg = EncoderConfig(channels=(4,), depths=(1,), heads=(2,), sr_ratios=(1,),
                        in_channels=1)
    rng = np.random.default_rng(21)
    params = init_encoder_params(cfg, rng)
    xs, xt, xts, xst = (Tensor(rng.normal(size=(16, 4))) for _ in range(4))
    weight = Tensor(rng.normal(size=(16, 4)))
    name = "s0.b0.all.attn.wq"
    for x in (stack([xs, xt]), stack([xs, xt, xts, xst])):
        def f(t, x=x):
            trial = dict(params)
            trial[name] = t
            return tsum(quad_block(trial, cfg, 0, 0, x, 4, 4) * weight)

        assert finite_diff_check(f, params[name].copy()) < 1e-6


def test_encoder_rejects_mismatched_pair():
    params = init_encoder_params(MICRO, np.random.default_rng(22))
    with pytest.raises(ShapeError):
        encoder_forward(params, MICRO, Tensor(np.zeros((3, 8, 8))),
                        Tensor(np.zeros((3, 16, 16))))
