"""Decoder heads, model assembly, source-free path, checkpoint round-trip."""

import gc
import tracemalloc
import types
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from quadseg import tensor
from quadseg.checkpoint import (
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from quadseg.decoder import (
    DecoderConfig,
    augmented_features,
    decode_pair,
    decode_single,
    fuse_and_predict,
    init_decoder_params,
    mask_probs,
    unify_and_upsample,
)
from quadseg.encoder import (
    _ROUTE,
    EncoderConfig,
    _ln,
    _sublayers,
    encoder_forward,
    encoder_forward_single,
    patch_embed,
    patch_merge,
)
from quadseg.model import forward_pair, infer_target_sourcefree, init_model_params
from quadseg.objectives import (
    DiscConfig,
    discriminator_forward,
    gen_adv_loss,
    init_disc_params,
    seg_cross_entropy,
)
from quadseg.pnm import read_f64, write_f64
from quadseg.tensor import (
    ShapeError,
    Tape,
    TapeError,
    Tensor,
    _upsample_last,
    finite_diff_check,
    gather,
    linear,
    relu,
    stack,
    tokens_to_map,
    tsum,
)

DESK_ENC = EncoderConfig()
DESK_DEC = DecoderConfig()


def _img(seed, hw=64):
    return Tensor(np.random.default_rng(seed).normal(size=(3, hw, hw)))


def _desk_params(seed=0):
    return init_model_params(DESK_ENC, DESK_DEC, np.random.default_rng(seed))


def test_config_rejects_single_class():
    with pytest.raises(ValueError):
        DecoderConfig(num_classes=1)


def test_phi_shape_desk_config():
    """64x64 input: phi is [256 tokens, 4*C_e]; fused input is 8*C_e."""
    params = _desk_params(1)
    out = forward_pair(params, DESK_ENC, DESK_DEC, _img(2), _img(3))
    assert out.dims[0] == (16, 16)
    assert augmented_features(out.maps_t, out.dims).shape \
        == (256, 8 * DESK_DEC.embed_dim)
    assert out.logits_s.shape == (2, 64, 64)
    assert out.logits_t.shape == (2, 64, 64)


def test_phi_shape_32px_input():
    params = _desk_params(4)
    out = forward_pair(params, DESK_ENC, DESK_DEC, _img(5, 32), _img(6, 32))
    assert out.dims[0] == (8, 8)
    assert augmented_features(out.maps_t, out.dims).shape \
        == (64, 8 * DESK_DEC.embed_dim)


def test_zero_features_give_zero_phi():
    params = init_decoder_params(DESK_ENC, DESK_DEC, np.random.default_rng(7))
    dims = [(16, 16), (8, 8), (4, 4), (2, 2)]
    feats = [Tensor(np.zeros((h * w, c)))
             for (h, w), c in zip(dims, DESK_ENC.channels)]
    phi = unify_and_upsample(params, DESK_ENC, feats, dims)
    np.testing.assert_array_equal(phi, 0.0)


def test_constant_last_stage_upsampled_stays_constant():
    params = init_decoder_params(DESK_ENC, DESK_DEC, np.random.default_rng(8))
    dims = [(16, 16), (8, 8), (4, 4), (2, 2)]
    feats = [Tensor(np.zeros((h * w, c)))
             for (h, w), c in zip(dims, DESK_ENC.channels)]
    feats[3] = Tensor(np.ones((4, DESK_ENC.channels[3])))
    phi = unify_and_upsample(params, DESK_ENC, feats, dims)
    last = phi[:, 3 * DESK_DEC.embed_dim:]
    for col in last.T:
        np.testing.assert_allclose(col, col[0], atol=1e-12)


def test_missing_stage_rejected():
    params = init_decoder_params(DESK_ENC, DESK_DEC, np.random.default_rng(9))
    with pytest.raises(ShapeError):
        unify_and_upsample(params, DESK_ENC, [Tensor(np.zeros((256, 8)))],
                           [(16, 16)])


def test_zero_classifier_uniform_softmax():
    params = init_decoder_params(DESK_ENC, DESK_DEC, np.random.default_rng(10))
    params["dec.head.cls.w"] = Tensor(np.zeros((64, 2)))
    params["dec.head.cls.b"] = Tensor(np.zeros(2))
    rng = np.random.default_rng(11)
    dims = [(4, 4), (2, 2), (1, 1), (1, 1)]
    maps = [Tensor(rng.normal(size=(h * w, DESK_DEC.embed_dim))) for h, w in dims]
    logits = fuse_and_predict(params, DESK_DEC, "head", maps, maps, dims)
    probs = mask_probs(tokens_to_map(logits, (4, 4), 4, 4))
    np.testing.assert_allclose(probs.data, 0.5, atol=1e-15)


def test_mask_probs_normalized():
    params = _desk_params(12)
    out = forward_pair(params, DESK_ENC, DESK_DEC, _img(13), _img(14))
    p = mask_probs(out.logits_t).data
    np.testing.assert_allclose(p.sum(axis=0), 1.0, atol=1e-9)


def _augmented_features_by_concat(maps, dims):
    """The augmented features as built before: each stage upsampled by the
    channels-last kernel, the stages concatenated, then the two maps; kept
    as the oracle of the preallocated build."""
    h0, w0 = dims[0]

    def phi(m):
        parts = []
        for u, (h, w) in zip(m, dims):
            if (h, w) != (h0, w0):
                lead, c = u.shape[:-2], u.shape[-1]
                u = _upsample_last(u.reshape(lead + (h, w, c)), h0, w0)
                u = u.reshape(lead + (h0 * w0, c))
            parts.append(u)
        return np.concatenate(parts, axis=-1)
    return np.concatenate([phi(m) for m in maps], axis=-1)


@pytest.mark.parametrize("batch", [None, 1, 3])
def test_augmented_features_equal_upsample_and_concat(batch):
    params = _desk_params(17)
    src, tgt = _img(18), _img(19)
    if batch is not None:
        src, tgt = (Tensor(np.stack([_img(s + 2 * i).data for i in range(batch)]))
                    for s in (18, 19))
    out = forward_pair(params, DESK_ENC, DESK_DEC, src, tgt)
    got = augmented_features(out.maps_t, out.dims)
    want = _augmented_features_by_concat(out.maps_t, out.dims)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_sourcefree_equals_degenerate_pair_exactly():
    params = _desk_params(15)
    img = _img(16)
    paired = forward_pair(params, DESK_ENC, DESK_DEC, img, img)
    logits, maps, dims = infer_target_sourcefree(params, DESK_ENC, DESK_DEC, img)
    np.testing.assert_array_equal(logits.data, paired.logits_t.data)
    np.testing.assert_array_equal(augmented_features(maps, dims),
                                  augmented_features(paired.maps_t, paired.dims))
    assert dims == paired.dims


def test_sourcefree_deterministic():
    params = _desk_params(17)
    img = _img(18)
    a, _, _ = infer_target_sourcefree(params, DESK_ENC, DESK_DEC, img)
    b, _, _ = infer_target_sourcefree(params, DESK_ENC, DESK_DEC, img)
    np.testing.assert_array_equal(a.data, b.data)


def test_cross_toggles_fall_back_to_self_maps():
    params = _desk_params(19)
    img_s, img_t = _img(20), _img(21)
    full = forward_pair(params, DESK_ENC, DESK_DEC, img_s, img_t)
    ablbase = forward_pair(params, DESK_ENC, DESK_DEC, img_s, img_t,
                           use_cross_src=False, use_cross_tgt=False)
    # with cross maps replaced by self maps the target path must equal the
    # source-free construction on the target features
    assert np.abs(full.logits_t.data - ablbase.logits_t.data).max() > 1e-9
    sf, _, _ = infer_target_sourcefree(params, DESK_ENC, DESK_DEC, img_t)
    np.testing.assert_allclose(ablbase.logits_t.data, sf.data, atol=1e-12)


def test_extra_hidden_and_unshared_heads():
    dec = DecoderConfig(extra_hidden=True, share_heads=False)
    params = init_model_params(DESK_ENC, dec, np.random.default_rng(22))
    assert "dec.head_src.hidden.w" in params and "dec.head_tgt.cls.w" in params
    out = forward_pair(params, DESK_ENC, dec, _img(23), _img(24))
    assert out.logits_s.shape == (2, 64, 64)


def test_fuse_gradient():
    dec = DecoderConfig(embed_dim=4)
    enc = EncoderConfig(channels=(4, 8), depths=(1, 1), heads=(1, 1),
                        sr_ratios=(1, 1))
    rng = np.random.default_rng(25)
    params = init_decoder_params(enc, dec, rng)
    dims = [(2, 2), (1, 1)]
    selfs = [Tensor(rng.normal(size=(h * w, dec.embed_dim))) for h, w in dims]
    crosses = [Tensor(rng.normal(size=(h * w, dec.embed_dim))) for h, w in dims]
    weight = Tensor(rng.normal(size=(4, 2)))
    for k in range(len(dims)):      # a stage on the output grid, one upsampled
        def loss(t, k=k):
            trial = list(selfs)
            trial[k] = t
            return tsum(fuse_and_predict(params, dec, "head", trial, crosses,
                                         dims) * weight)
        assert finite_diff_check(loss, selfs[k].copy()) < 1e-6


def _composed_head(params, dec, feats, dims, head, self_name, cross_name):
    """The concat-then-fuse head: both phi maps upsampled and joined, then
    the fuse layer, hidden layer and classifier.  Kept as the oracle of the
    fused head."""
    pre = f"dec.{head}"
    joined = Tensor(np.concatenate(
        [unify_and_upsample(params, DESK_ENC, feats[n], dims)
         for n in (self_name, cross_name)], axis=-1))
    x = relu(linear(joined, params[f"{pre}.fuse.w"], params[f"{pre}.fuse.b"]))
    if dec.extra_hidden:
        x = relu(linear(x, params[f"{pre}.hidden.w"], params[f"{pre}.hidden.b"]))
    return linear(x, params[f"{pre}.cls.w"], params[f"{pre}.cls.b"])


def _assert_close(got, want):
    assert np.abs(got.data - want.data).max() <= 1e-12 * np.abs(want.data).max()


@pytest.mark.parametrize("extra_hidden,share_heads,cross_src,cross_tgt", [
    (False, True, True, True), (True, True, False, True),
    (False, False, True, False), (True, False, False, False)])
def test_fused_head_matches_concat_then_fuse(extra_hidden, share_heads,
                                             cross_src, cross_tgt):
    """Paired and source-free heads against the composed head to 1e-12
    relative; the augmented features equal [phi_t, phi_cross] exactly."""
    dec = DecoderConfig(extra_hidden=extra_hidden, share_heads=share_heads)
    rng = np.random.default_rng(35)
    params = init_model_params(DESK_ENC, dec, rng)
    img_s, img_t = Tensor(rng.random((2, 3, 32, 32))), Tensor(rng.random((2, 3, 32, 32)))
    feats, dims = encoder_forward(params, DESK_ENC, img_s, img_t)
    tok_s, tok_t, maps_t = decode_pair(params, DESK_ENC, dec, feats, dims,
                                       cross_src, cross_tgt)
    streams = {n: [gather(f, k) for f in feats]
               for k, n in enumerate(("s", "t", "ts", "st"))}
    src, tgt = ("head", "head") if share_heads else ("head_src", "head_tgt")
    cross_s, cross_t = "ts" if cross_src else "s", "st" if cross_tgt else "t"
    _assert_close(tok_s, _composed_head(params, dec, streams, dims, src, "s",
                                        cross_s))
    _assert_close(tok_t, _composed_head(params, dec, streams, dims, tgt, "t",
                                        cross_t))
    np.testing.assert_array_equal(
        augmented_features(maps_t, dims),
        np.concatenate([unify_and_upsample(params, DESK_ENC, streams[n], dims)
                        for n in ("t", cross_t)], axis=-1))
    single, dims = encoder_forward_single(params, DESK_ENC, img_t)
    tok, _ = decode_single(params, DESK_ENC, dec, single, dims)
    _assert_close(tok, _composed_head(params, dec, {"t": single}, dims, tgt,
                                      "t", "t"))


# ---------------------------------------------------------------------------
# the stream stack against the per-stream composition
# ---------------------------------------------------------------------------


def _quad_block_per_stream(params, cfg, stage, layer, f_s, f_t, f_ts, f_st,
                           h, w):
    """One block over four separate stream tensors: stacked for the shared
    branch and split again after it, or one sublayer chain per stream."""
    heads, ratio = cfg.heads[stage], cfg.sr_ratios[stage]
    if cfg.share_branch_weights:
        b = f"s{stage}.b{layer}.all"
        n = _ln(params, f"{b}.ln", stack([f_s, f_t]))
        out = _sublayers(params, b, n, n, stack([f_s, f_t, f_ts, f_st]),
                         h, w, heads, ratio, _ROUTE)
        return tuple(gather(out, i) for i in range(4))
    b = f"s{stage}.b{layer}"
    ns, nt = _ln(params, f"{b}.s.ln", f_s), _ln(params, f"{b}.t.ln", f_t)
    return (
        _sublayers(params, f"{b}.s", ns, ns, f_s, h, w, heads, ratio),
        _sublayers(params, f"{b}.t", nt, nt, f_t, h, w, heads, ratio),
        _sublayers(params, f"{b}.ts", _ln(params, f"{b}.ts.ln_q", f_t),
                   _ln(params, f"{b}.ts.ln_kv", f_s), f_ts, h, w, heads, ratio),
        _sublayers(params, f"{b}.st", _ln(params, f"{b}.st.ln_q", f_s),
                   _ln(params, f"{b}.st.ln_kv", f_t), f_st, h, w, heads, ratio),
    )


def _pair_per_stream(params, enc, dec, img_s, img_t, cross_src, cross_tgt):
    """The paired encoder and decoder with the four streams as separate
    tensors: every block and merge stacks them and splits its output again,
    and each head stage restacks the streams it reads.  Kept as the oracle
    of the stream stack; returns ``decode_pair``'s outputs."""
    tok_s, h, w = patch_embed(params, img_s, enc.patch)
    tok_t, _, _ = patch_embed(params, img_t, enc.patch)
    streams, outs, dims = (tok_s, tok_t, tok_t, tok_s), [], []
    for i in range(enc.num_stages):
        if i > 0:
            y, h, w = patch_merge(params, f"s{i}.merge", stack(streams), h, w)
            streams = tuple(gather(y, k) for k in range(4))
        for l in range(enc.depths[i]):
            streams = _quad_block_per_stream(params, enc, i, l, *streams, h, w)
        outs.append(streams)
        dims.append((h, w))
    keep = [k for k, on in enumerate((True, True, cross_src, cross_tgt)) if on]
    units = [linear(stack([o[k] for k in keep]), params[f"dec.unify{i}.w"],
                    params[f"dec.unify{i}.b"]) for i, o in enumerate(outs)]
    row = {k: r for r, k in enumerate(keep)}
    self_rows = (row[0], row[1])
    cross_rows = (row.get(2, row[0]), row.get(3, row[1]))
    maps_t = ([u.data[self_rows[1]] for u in units],
              [u.data[cross_rows[1]] for u in units])

    def pick(rows):
        return [gather(u, rows) for u in units]

    if dec.share_heads:
        logits = fuse_and_predict(params, dec, "head", pick(self_rows),
                                  pick(cross_rows), dims)
        return gather(logits, 0), gather(logits, 1), maps_t
    return (*(fuse_and_predict(params, dec, h, pick(a), pick(c), dims)
              for h, a, c in zip(("head_src", "head_tgt"), self_rows, cross_rows)),
            maps_t)


@pytest.mark.parametrize("shared,share_heads,cross_src,cross_tgt", [
    (True, True, True, True), (True, True, False, True),
    (True, False, True, False), (False, True, True, True),
    (False, False, False, True), (False, True, True, False)])
def test_stream_stack_equals_per_stream_composition(shared, share_heads,
                                                    cross_src, cross_tgt):
    """``encoder_forward`` + ``decode_pair`` against the per-stream
    composition: both logit maps, the target maps and every parameter's
    gradient, as bytes (signed zeros folded by ``+ 0.0``)."""
    enc = EncoderConfig(channels=(4, 8), depths=(2, 1), heads=(1, 2),
                        sr_ratios=(2, 1), share_branch_weights=shared)
    dec = DecoderConfig(embed_dim=8, share_heads=share_heads)
    rng = np.random.default_rng(90)
    init = init_model_params(enc, dec, rng)
    for p in init.values():      # past the init scale, so no branch is drowned
        p.data += rng.normal(scale=0.3, size=p.shape)
    img_s, img_t = rng.random((2, 3, 16, 16)), rng.random((2, 3, 16, 16))
    weights = [Tensor(rng.normal(size=(2, 16, 2))) for _ in range(2)]

    def stacked(params, s, t):
        feats, dims = encoder_forward(params, enc, s, t)
        return decode_pair(params, enc, dec, feats, dims, cross_src, cross_tgt)

    def per_stream(params, s, t):
        return _pair_per_stream(params, enc, dec, s, t, cross_src, cross_tgt)

    results = []
    for run in (stacked, per_stream):
        params = {k: Tensor(v.data.copy()) for k, v in init.items()}
        with Tape() as tape:
            for p in params.values():
                tape.watch(p)
            tok_s, tok_t, maps_t = run(params, Tensor(img_s), Tensor(img_t))
            tape.backward(tsum(tok_s * weights[0]) + tsum(tok_t * weights[1]))
        results.append([a.tobytes() for a in (tok_s.data, tok_t.data,
                                              *maps_t[0], *maps_t[1])]
                       + [(tape.grad(p) + 0.0).tobytes()
                          for p in params.values()])
    assert results[0] == results[1]


# ---------------------------------------------------------------------------
# stacked batch forward
# ---------------------------------------------------------------------------


def test_stacked_batch_equals_separate_forwards():
    """A batch-2 forward is bit-identical to two batch-1 forwards, paired and
    source-free."""
    params = _desk_params(30)
    rng = np.random.default_rng(31)
    img_s, img_t = rng.random((2, 3, 64, 64)), rng.random((2, 3, 64, 64))
    out = forward_pair(params, DESK_ENC, DESK_DEC, Tensor(img_s), Tensor(img_t))
    free, maps, dims = infer_target_sourcefree(params, DESK_ENC, DESK_DEC,
                                               Tensor(img_t))
    aug_t = augmented_features(out.maps_t, out.dims)
    aug = augmented_features(maps, dims)
    assert out.logits_s.shape == (2, 2, 64, 64)
    assert aug_t.shape == (2, 256, 8 * DESK_DEC.embed_dim)
    for b in range(2):
        one = forward_pair(params, DESK_ENC, DESK_DEC, Tensor(img_s[b]),
                           Tensor(img_t[b]))
        np.testing.assert_array_equal(out.logits_s.data[b], one.logits_s.data)
        np.testing.assert_array_equal(out.logits_t.data[b], one.logits_t.data)
        np.testing.assert_array_equal(aug_t[b],
                                      augmented_features(one.maps_t, one.dims))
        free_one, maps_one, _ = infer_target_sourcefree(
            params, DESK_ENC, DESK_DEC, Tensor(img_t[b]))
        np.testing.assert_array_equal(free.data[b], free_one.data)
        np.testing.assert_array_equal(aug[b], augmented_features(maps_one, dims))


def test_sourcefree_equals_degenerate_pair_at_batch_2():
    params = _desk_params(32)
    img = Tensor(np.random.default_rng(33).random((2, 3, 64, 64)))
    paired = forward_pair(params, DESK_ENC, DESK_DEC, img, img)
    logits, maps, dims = infer_target_sourcefree(params, DESK_ENC, DESK_DEC, img)
    assert float(np.abs(paired.logits_t.data - logits.data).max()) == 0.0
    np.testing.assert_array_equal(augmented_features(maps, dims),
                                  augmented_features(paired.maps_t, paired.dims))
    assert dims == paired.dims


@pytest.mark.parametrize("shared", [True, False])
def test_batched_pair_gradient(shared):
    """Finite differences through a batch-2 paired forward, w.r.t. weights
    on the stacked paths: patch merge, attention, Mix-FFN, decoder fuse."""
    enc = EncoderConfig(channels=(4, 8), depths=(1, 1), heads=(1, 2),
                        sr_ratios=(2, 1), share_branch_weights=shared)
    dec = DecoderConfig(embed_dim=4)
    rng = np.random.default_rng(34)
    params = init_model_params(enc, dec, rng)
    for p in params.values():
        p.data += rng.normal(scale=0.3, size=p.data.shape)
    img_s, img_t = Tensor(rng.random((2, 3, 16, 16))), Tensor(rng.random((2, 3, 16, 16)))
    w_s = Tensor(rng.normal(size=(2, 2, 16, 16)))
    w_t = Tensor(rng.normal(size=(2, 2, 16, 16)))
    branch = "all" if shared else "ts"
    for name in ("s1.merge.w", f"s0.b0.{branch}.attn.wsr",
                 f"s1.b0.{branch}.attn.wq", f"s0.b0.{branch}.ffn.dw",
                 "dec.unify1.w", "dec.head.fuse.w"):
        def loss(t, name=name):
            trial = dict(params)
            trial[name] = t
            out = forward_pair(trial, enc, dec, img_s, img_t)
            return tsum(out.logits_s * w_s) + tsum(out.logits_t * w_t)
        coords = rng.choice(params[name].size, size=4, replace=False)
        err = finite_diff_check(loss, params[name].copy(),
                                coords=[int(c) for c in coords])
        assert err < 1e-6, name


def _paired_step(params, disc, seed, wrap=None):
    """A batch-2 paired forward and backward through the segmentation loss
    and the critic, as in one adaptation step.  ``wrap`` may replace each
    recorded backward rule before the sweep.  Returns the tape, the loss
    and the forward's outputs."""
    rng = np.random.default_rng(seed)
    img_s, img_t = rng.random((2, 3, 32, 32)), rng.random((2, 3, 32, 32))
    labels = rng.integers(0, 2, size=(2, 32, 32))
    with Tape() as tape:
        for p in params.values():
            tape.watch(p)
        out = forward_pair(params, DESK_ENC, DESK_DEC, Tensor(img_s), Tensor(img_t))
        loss = gen_adv_loss(discriminator_forward(
            disc, DiscConfig(), mask_probs(out.logits_t)))
        for b in range(2):
            loss = loss + seg_cross_entropy(gather(out.logits_s, b), labels[b])[0]
        if wrap is not None:
            for node in tape.nodes:
                if node.backward_fn is not None:
                    node.backward_fn = wrap(node.backward_fn)
        tape.backward(loss)
    return tape, loss, out


def _read_only_input(rule):
    def bwd(g):
        if isinstance(g, np.ndarray):        # numpy scalars are immutable
            g = g.view()
            g.flags.writeable = False
        return rule(g)
    return bwd


def test_backward_rules_never_write_their_incoming_gradient():
    """Tape.backward stores parts that are views of other gradients without
    copying, which is sound only while no rule writes into its input."""
    params = _desk_params(40)
    disc = init_disc_params(DiscConfig(), np.random.default_rng(41))
    plain = _paired_step(params, disc, 42)[0]
    want = {name: plain.grad(p).copy() for name, p in params.items()}
    guarded = _paired_step(params, disc, 42, wrap=_read_only_input)[0]
    for name, p in params.items():
        np.testing.assert_array_equal(guarded.grad(p), want[name])


def test_finished_tape_is_freed_by_reference_counting():
    """No backward closure may hold a Tensor: a Tensor holds its tape, and
    the cycle would keep a whole step alive until the cyclic GC runs."""
    params = _desk_params(43)
    disc = init_disc_params(DiscConfig(), np.random.default_rng(44))
    gc.collect()
    gc.disable()
    try:
        ref = weakref.ref(_paired_step(params, disc, 45)[0])
        for p in params.values():
            p.node = p.tape = None
        assert ref() is None
    finally:
        gc.enable()


def test_sweep_releases_the_tape():
    """After the sweep every rule is gone and only watched leaves keep a
    gradient; the tape cannot be swept again, and an op output's gradient
    is no longer there to read."""
    params = _desk_params(50)
    disc = init_disc_params(DiscConfig(), np.random.default_rng(51))
    tape, loss, out = _paired_step(params, disc, 52)
    leaves = {p.node.idx for p in params.values()}
    assert all(node.backward_fn is None for node in tape.nodes)
    held = {i for i, g in enumerate(tape.grads) if g is not None}
    assert held and held <= leaves
    assert all(not tape.nodes[i].parents for i in held)
    with pytest.raises(TapeError, match="already swept"):
        tape.backward(loss)
    for t in (loss, out.logits_s):
        with pytest.raises(TapeError, match="watched leaves"):
            tape.grad(t)


def test_sweep_leaves_only_leaf_gradients_resident():
    """With the tape, the loss and the forward's outputs still referenced,
    what the step leaves allocated is under twice the leaf gradients' bytes:
    every activation a rule captured and every intermediate gradient has
    been freed by the sweep itself."""
    params = _desk_params(53)
    disc = init_disc_params(DiscConfig(), np.random.default_rng(54))
    _paired_step(params, disc, 55)          # fill the interp-matrix caches
    for p in params.values():
        p.node = p.tape = None
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tape, loss, out = _paired_step(params, disc, 55)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    leaf_bytes = sum(tape.grad(p).nbytes for p in params.values())
    assert leaf_bytes > 0 and loss.node is not None and out.logits_t.size
    assert held < 2 * leaf_bytes, (held, leaf_bytes)


def _holds_tensor(obj, seen) -> bool:
    """Whether a Tensor is reachable from ``obj`` through closure cells,
    defaults, tuples, lists and dicts."""
    if id(obj) in seen:
        return False
    seen.add(id(obj))
    if isinstance(obj, Tensor):
        return True
    if isinstance(obj, (tuple, list)):
        items = list(obj)
    elif isinstance(obj, dict):
        items = [*obj.keys(), *obj.values()]
    elif isinstance(obj, types.FunctionType):
        items = list(obj.__defaults__ or ())
        for cell in obj.__closure__ or ():
            try:
                items.append(cell.cell_contents)
            except ValueError:          # a cell not yet filled
                pass
    else:
        return False
    return any(_holds_tensor(item, seen) for item in items)


def _op_kind(fn) -> str:
    """The engine op that defined a rule or rule builder (``linear`` for
    ``linear.<locals>.build.<locals>.bwd``)."""
    return fn.__qualname__.split(".")[0]


def test_no_backward_closure_holds_a_tensor(monkeypatch):
    """Audit every rule of a batch-2 paired forward through the critic and
    a source-free forward: a closure holding a Tensor (say, a parameter)
    forms a parameter -> tape cycle that reference counting cannot free,
    which the test above cannot see once it clears the leaves.  The audit
    sees one rule per recorded op, so every op kind the forward records,
    the fused encoder sublayers among them."""
    params = _desk_params(46)
    disc = init_disc_params(DiscConfig(), np.random.default_rng(47))
    rng = np.random.default_rng(48)
    img_s, img_t = Tensor(rng.random((2, 3, 32, 32))), Tensor(rng.random((2, 3, 32, 32)))
    recorded = []
    emit = tensor._emit

    def spy(out, parents, builder, opname, computes=True):
        t = emit(out, parents, builder, opname, computes)
        if t.node is not None:
            recorded.append(_op_kind(builder))
        return t

    monkeypatch.setattr(tensor, "_emit", spy)
    with Tape() as tape:
        for p in [*params.values(), *disc.values()]:
            tape.watch(p)
        out = forward_pair(params, DESK_ENC, DESK_DEC, img_s, img_t)
        seg_cross_entropy(out.logits_s, rng.integers(0, 2, (2, 32, 32)))
        gen_adv_loss(discriminator_forward(disc, DiscConfig(),
                                           mask_probs(out.logits_t)))
        infer_target_sourcefree(params, DESK_ENC, DESK_DEC, img_t)
    rules = [n.backward_fn for n in tape.nodes if n.backward_fn is not None]
    assert len(rules) == len(recorded)
    assert {_op_kind(f) for f in rules} == set(recorded)
    assert {"residual_attention", "residual_mix_ffn", "linear", "token_conv2d",
            "layer_norm", "pyramid_fuse", "tokens_to_map", "log_likelihood",
            "patch_critic", "softplus_means"} <= set(recorded)
    leaky = [f.__qualname__ for f in rules if _holds_tensor(f, set())]
    assert leaky == []


# ---------------------------------------------------------------------------
# checkpoint round-trip
# ---------------------------------------------------------------------------


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(26)
    tensors = {
        "a.w": rng.normal(size=(3, 4)),
        "b.scalar": np.float64(0.123456789012345678),
        "c.vec": rng.normal(size=7),
    }
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, tensors, "lr = 0.001\nseed = 42", step=17)
    data = load_checkpoint(path)
    assert data.step == 17
    assert data.config_text == "lr = 0.001\nseed = 42"
    assert set(data.tensors) == set(tensors)
    for name in tensors:
        got = data.tensors[name]
        want = np.asarray(tensors[name], dtype=np.float64)
        assert got.shape == want.shape
        np.testing.assert_array_equal(got, want)   # bit-exact
        assert got.dtype == np.float64


def test_checkpoint_resave_identical_bytes(tmp_path):
    rng = np.random.default_rng(27)
    tensors = {"p.w": rng.normal(size=(5, 5)), "p.b": rng.normal(size=5)}
    p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
    save_checkpoint(p1, tensors, "seed = 1", step=3)
    data = load_checkpoint(p1)
    save_checkpoint(p2, data.tensors, data.config_text, data.step)
    assert Path(p1).read_bytes() == Path(p2).read_bytes()
    assert Path(p1 + ".bin").read_bytes() == Path(p2 + ".bin").read_bytes()


def test_raster_and_checkpoint_reads_close_their_files(tmp_path):
    """Reading an f64 raster and a checkpoint closes every file it opens:
    CPython warns with ResourceWarning when it frees a file left open."""
    raster, ckpt = str(tmp_path / "r.f64"), str(tmp_path / "c.ckpt")
    write_f64(raster, np.arange(6.0))
    save_checkpoint(ckpt, {"x": np.ones(3)}, "", step=0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        np.testing.assert_array_equal(read_f64(raster, (2, 3)),
                                      np.arange(6.0).reshape(2, 3))
        np.testing.assert_array_equal(load_checkpoint(ckpt).tensors["x"],
                                      np.ones(3))
        gc.collect()
    assert [str(w.message) for w in caught
            if issubclass(w.category, ResourceWarning)] == []


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_text("not-a-checkpoint\nstep 0\n")
    (tmp_path / "bad.ckpt.bin").write_bytes(b"")
    with pytest.raises(CheckpointError):
        load_checkpoint(str(path))


def test_checkpoint_rejects_size_mismatch(tmp_path):
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(path, {"x": np.ones(4)}, "", step=0)
    bin_path = Path(path + ".bin")
    bin_path.write_bytes(bin_path.read_bytes()[:-8])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_rejects_whitespace_name(tmp_path):
    with pytest.raises(CheckpointError):
        save_checkpoint(str(tmp_path / "w.ckpt"), {"bad name": np.ones(1)},
                        "", step=0)


def test_checkpoint_model_params_roundtrip(tmp_path):
    enc = EncoderConfig(channels=(4, 8), depths=(1, 1), heads=(1, 2),
                        sr_ratios=(1, 1))
    dec = DecoderConfig(embed_dim=8)
    params = init_model_params(enc, dec, np.random.default_rng(28))
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, params, "", step=0)
    loaded = load_checkpoint(path)
    assert set(loaded.tensors) == set(params)
    for n, t in params.items():
        np.testing.assert_array_equal(loaded.tensors[n], t.data)
