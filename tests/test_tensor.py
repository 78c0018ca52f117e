"""Autodiff engine: forward oracles, backward closures, tape mechanics."""

import math
import os
import struct
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadseg.tensor import (
    ShapeError,
    Tape,
    Tensor,
    _erf,
    add,
    concat,
    conv2d,
    depthwise_conv2d,
    finite_diff_check,
    gather,
    gelu,
    layer_norm,
    leaky_relu,
    linear,
    log_softmax,
    matmul,
    multi_head_attention,
    neg,
    patch_critic,
    patchify,
    pyramid_fuse,
    relu,
    reshape,
    residual_attention,
    residual_mix_ffn,
    set_fault_injection,
    softmax,
    softplus,
    stack,
    tmean,
    token_conv2d,
    tokens_to_map,
    transpose,
    tsum,
    upsample_bilinear,
)

# ---------------------------------------------------------------------------
# forward oracles (values frozen from independent high-precision evaluation)
# ---------------------------------------------------------------------------


def test_matmul_forward():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[5.0, 6.0], [7.0, 8.0]])
    np.testing.assert_array_equal(matmul(a, b).data, [[19.0, 22.0], [43.0, 50.0]])


def test_matmul_batched_broadcast():
    rng = np.random.default_rng(0)
    a = Tensor(rng.normal(size=(3, 4, 5)))
    b = Tensor(rng.normal(size=(5, 6)))
    out = matmul(a, b)
    assert out.shape == (3, 4, 6)
    np.testing.assert_allclose(out.data, a.data @ b.data, rtol=0, atol=0)


def test_matmul_shape_error():
    with pytest.raises(ShapeError):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))


def test_softmax_oracle():
    out = softmax(Tensor([1.0, 2.0, 3.0]))
    np.testing.assert_allclose(
        out.data,
        [0.090030573170380458, 0.24472847105479765, 0.6652409557748219],
        rtol=0, atol=1e-15)
    assert abs(out.data.sum() - 1.0) < 1e-15


def test_softmax_shift_invariance():
    x = np.array([1.0, 2.0, 3.0])
    a = softmax(Tensor(x)).data
    b = softmax(Tensor(x + 1000.0)).data
    np.testing.assert_allclose(a, b, atol=1e-15)


def test_log_softmax_oracle():
    out = log_softmax(Tensor([1.0, 2.0, 3.0]))
    np.testing.assert_allclose(
        out.data,
        [-2.4076059644443803, -1.4076059644443803, -0.40760596444438030],
        rtol=0, atol=1e-14)


def test_gelu_oracle():
    np.testing.assert_allclose(gelu(Tensor([1.0])).data, [0.8413447460685429],
                               atol=1e-15)
    np.testing.assert_allclose(gelu(Tensor([-0.5])).data, [-0.15426876936299345],
                               atol=1e-15)
    np.testing.assert_array_equal(gelu(Tensor([0.0])).data, [0.0])


def test_layer_norm_oracle():
    out = layer_norm(Tensor([1.0, 2.0, 3.0]), Tensor([2.0, 2.0, 2.0]),
                     Tensor([1.0, 1.0, 1.0]))
    np.testing.assert_allclose(
        out.data,
        [-1.4494879056679378, 1.0, 3.4494879056679378],
        atol=1e-12)


def test_layer_norm_bad_eps():
    with pytest.raises(ValueError):
        layer_norm(Tensor([1.0, 2.0]), Tensor([1.0, 1.0]), Tensor([0.0, 0.0]),
                   eps=0.0)


def test_softplus_oracle():
    np.testing.assert_allclose(softplus(Tensor([2.0])).data, [2.1269280110429725],
                               atol=1e-14)
    np.testing.assert_allclose(softplus(Tensor([-3.0])).data, [0.04858735157374206],
                               atol=1e-14)
    # large inputs must not overflow
    np.testing.assert_allclose(softplus(Tensor([800.0])).data, [800.0], atol=1e-12)
    np.testing.assert_array_equal(softplus(Tensor([-800.0])).data, [0.0])


def test_leaky_relu_forward():
    out = leaky_relu(Tensor([-2.0, 0.0, 3.0]), slope=0.2)
    np.testing.assert_array_equal(out.data, [-0.4, 0.0, 3.0])


def test_relu_forward():
    np.testing.assert_array_equal(relu(Tensor([-1.0, 0.0, 2.0])).data,
                                  [0.0, 0.0, 2.0])


def test_conv2d_identity_kernel():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(2, 5, 5))
    w = np.zeros((2, 2, 3, 3))
    w[0, 0, 1, 1] = 1.0
    w[1, 1, 1, 1] = 1.0
    out = conv2d(Tensor(x), Tensor(w), stride=1, padding=1)
    np.testing.assert_allclose(out.data, x, atol=0)


def test_conv2d_stride_shape():
    out = conv2d(Tensor(np.zeros((3, 8, 8))), Tensor(np.zeros((5, 3, 4, 4))),
                 stride=2, padding=1)
    assert out.shape == (5, 4, 4)


def test_conv2d_too_small_raises():
    with pytest.raises(ShapeError):
        conv2d(Tensor(np.zeros((1, 2, 2))), Tensor(np.zeros((1, 1, 4, 4))),
               stride=2, padding=0)


def test_depthwise_matches_loop_reference():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(3, 6, 6))
    w = rng.normal(size=(3, 3, 3))
    out = depthwise_conv2d(Tensor(x), Tensor(w), padding=1).data
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    ref = np.zeros_like(x)
    for c in range(3):
        for i in range(6):
            for j in range(6):
                ref[c, i, j] = (xp[c, i:i + 3, j:j + 3] * w[c]).sum()
    np.testing.assert_allclose(out, ref, atol=1e-12)


def _scatter_depthwise(x, w, g):
    """The per-tap form depthwise_conv2d computed before its full-width
    taps, kept as the oracle: the output sums the nine strided tap
    products into zeros in (i, j) order; the input gradient scatters each
    tap's g * w[:, i, j] into a zeroed padded buffer, in the same order,
    and crops it; the tap gradient is one channel sum per tap.  x and g
    are [M, H, W, C], w is [C, 3, 3], padding 1."""
    m, h, wd, c = x.shape
    xp = np.zeros((m, h + 2, wd + 2, c))
    xp[:, 1:h + 1, 1:wd + 1] = x
    out = np.zeros(x.shape)
    gpad = np.zeros(xp.shape)
    gw = np.empty((3, 3, c))
    for i in range(3):
        for j in range(3):
            tap = xp[:, i:i + h, j:j + wd]
            out += tap * w[:, i, j]
            gpad[:, i:i + h, j:j + wd] += g * w[:, i, j]
            gw[i, j] = np.einsum("mhwc,mhwc->c", tap, g)
    return out, gpad[:, 1:h + 1, 1:wd + 1], gw.transpose(2, 0, 1)


def _signed_zeros(rng, a, frac):
    """a with about ``frac`` of its entries set to +0.0 or -0.0."""
    a[rng.random(a.shape) < frac] = 0.0
    a[rng.random(a.shape) < frac / 2] = -0.0
    return a


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 3), st.integers(1, 16), st.integers(1, 16),
       st.integers(1, 64), st.sampled_from([0.0, 0.3, 0.9]),
       st.integers(0, 2**16))
def test_depthwise_equals_the_per_tap_scatter_bytewise(m, h, wd, c, zeros,
                                                       seed):
    """Output, input gradient and tap gradient of the full-width taps equal
    the per-tap scatter form byte for byte, square and non-square grids,
    with +-0.0 in the input, the taps and the output gradient."""
    rng = np.random.default_rng(seed)
    x = _signed_zeros(rng, rng.normal(size=(m, h, wd, c)), zeros)
    w = _signed_zeros(rng, rng.normal(size=(c, 3, 3)), zeros)
    g = _signed_zeros(rng, rng.normal(size=(m, h, wd, c)), zeros)
    with Tape() as tape:
        xt, wt = tape.watch(Tensor(x)), tape.watch(Tensor(w))
        out = depthwise_conv2d(xt, wt, channels_last=True)
        gx, gw = out.node.backward_fn(g)
    want = _scatter_depthwise(x, w, g)
    for got, ref in zip((out.data, gx, gw), want):
        assert got.shape == ref.shape
        assert got.tobytes() == np.ascontiguousarray(ref).tobytes()


def test_depthwise_rejects_padding_beyond_the_kernel():
    x, w = Tensor(np.zeros((1, 4, 4))), Tensor(np.zeros((1, 3, 3)))
    depthwise_conv2d(x, w, padding=2)
    with pytest.raises(ShapeError):
        depthwise_conv2d(x, w, padding=3)


def test_upsample_constant_preserved():
    x = Tensor(np.full((2, 4, 4), 3.5))
    out = upsample_bilinear(x, 16, 16)
    np.testing.assert_allclose(out.data, 3.5, atol=1e-12)


def test_upsample_identity_when_same_size():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(1, 5, 5))
    out = upsample_bilinear(Tensor(x), 5, 5)
    np.testing.assert_allclose(out.data, x, atol=1e-12)


def test_upsample_shrink_raises():
    with pytest.raises(ShapeError):
        upsample_bilinear(Tensor(np.zeros((1, 8, 8))), 4, 4)


# ---------------------------------------------------------------------------
# class-axis softmax, fused-bias convolution and the phase col2im, each
# against the composition or the loop it replaced
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("lead", [(), (2,), (2, 3)])
def test_class_axis_softmax_matches_class_last(k, lead):
    """softmax / log_softmax along axis -3 equal moving the classes last,
    taking the last axis and moving them back: values and gradients."""
    x = np.random.default_rng(120 + k).normal(size=(*lead, k, 5, 6)) * 3.0
    n = len(lead)
    last, back = (*range(n), n + 1, n + 2, n), (*range(n), n + 2, n, n + 1)
    for op in (softmax, log_softmax):
        _same_bytes(lambda t, op=op: op(t, axis=-3),
                    lambda t, op=op: transpose(op(transpose(t, last)), back),
                    [x], 121)


def _conv_then_bias(stride, padding, channels_last):
    """conv2d followed by the bias add it fuses, kept as its oracle: a
    ``reshape(b, (-1, 1, 1))`` add channels-first, an add on the
    [..., Ho*Wo, C] tokens channels-last (as ``patch_merge`` had it)."""
    def f(x, w, b):
        y = conv2d(x, w, stride, padding, channels_last)
        if not channels_last:
            return y + reshape(b, (-1, 1, 1))
        *lead, ho, wo, c = y.shape
        return reshape(reshape(y, (*lead, ho * wo, c)) + b, y.shape)
    return f


@pytest.mark.parametrize("channels_last", [False, True])
@pytest.mark.parametrize("lead", [(), (2,), (3, 2)])
@pytest.mark.parametrize("kernel,stride,padding", [(4, 2, 1), (3, 2, 1),
                                                   (3, 1, 1), (2, 3, 0)])
def test_conv2d_bias_matches_conv_then_add(channels_last, lead, kernel,
                                           stride, padding):
    rng = np.random.default_rng(130)
    cin, cout, hw = 3, 4, 9
    x = rng.normal(size=(*lead, hw, hw, cin) if channels_last
                   else (*lead, cin, hw, hw))
    inputs = [x, rng.normal(size=(cout, cin, kernel, kernel)),
              rng.normal(size=(cout,))]
    _same_bytes(lambda x, w, b: conv2d(x, w, stride, padding, channels_last,
                                       b=b),
                _conv_then_bias(stride, padding, channels_last), inputs, 131)


def test_conv2d_bias_gradient_and_shape_check():
    rng = np.random.default_rng(132)
    x = Tensor(rng.normal(size=(2, 2, 6, 6)))
    w = Tensor(rng.normal(size=(3, 2, 4, 4)))
    _check(_weighted(lambda t: conv2d(x, w, 2, 1, b=t), (2, 3, 3, 3), 133),
           (3,), 134)
    with pytest.raises(ShapeError):
        conv2d(x, w, 2, 1, b=Tensor(np.zeros(2)))
    with Tape() as tape:
        xt = tape.watch(Tensor(x.data.copy()))
        out = conv2d(xt, w, 2, 1, b=Tensor(np.zeros(3)))
        parts = out.node.backward_fn(np.ones(out.shape))
    assert tuple(p is not None for p in parts) == (True, False, False)


def _strided_input_grad(g, w, x_shape, stride, padding, channels_last):
    """conv2d's input gradient as the strided scatter-add computed it, kept
    as the phase col2im's oracle: column gradients [M, Ho, Wo, kh, kw, C],
    each tap (i, j) added in order into a strided view of the zero padded
    gradient, then cropped."""
    cout, cin, kh, kw = w.shape
    if channels_last:
        *lead, h, wd, _ = x_shape
        g4 = g.reshape((-1,) + g.shape[-3:])
    else:
        *lead, _, h, wd = x_shape
        g4 = np.moveaxis(g.reshape((-1,) + g.shape[-3:]), 1, -1)
    m, ho, wo = g4.shape[:3]
    wmat = w.transpose(0, 2, 3, 1).reshape(cout, kh * kw * cin)
    gcols = np.matmul(g4.reshape(m, ho * wo, cout), wmat).reshape(
        m, ho, wo, kh, kw, cin)
    gpad = np.zeros((m, h + 2 * padding, wd + 2 * padding, cin))
    for i in range(kh):
        for j in range(kw):
            gpad[:, i:i + stride * ho:stride, j:j + stride * wo:stride] \
                += gcols[:, :, :, i, j]
    gx = gpad[:, padding:padding + h, padding:padding + wd].reshape(
        (*lead, h, wd, cin))
    return gx if channels_last else np.moveaxis(gx, -1, -3)


@st.composite
def _conv_cases(draw):
    kh, kw = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    stride, padding = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    h = draw(st.integers(max(1, kh - 2 * padding), kh - 2 * padding + 8))
    w = draw(st.integers(max(1, kw - 2 * padding), kw - 2 * padding + 8))
    lead = draw(st.sampled_from([(), (2,), (2, 2)]))
    return kh, kw, stride, padding, h, w, lead, draw(st.booleans())


@settings(max_examples=80, deadline=None)
@given(_conv_cases(), st.integers(0, 2**16))
@example((4, 4, 2, 1, 16, 16, (2,), False), 0)      # the critic's layers
@example((3, 3, 2, 1, 8, 8, (4, 2), True), 0)       # the patch merges
@example((3, 3, 2, 1, 7, 5, (), True), 1)
def test_phase_col2im_matches_strided_adds(case, seed):
    kh, kw, stride, padding, h, w, lead, channels_last = case
    rng = np.random.default_rng(seed)
    cin, cout = 2, 3
    x_shape = (*lead, h, w, cin) if channels_last else (*lead, cin, h, w)
    weight = rng.normal(size=(cout, cin, kh, kw))
    with Tape() as tape:
        x = tape.watch(Tensor(rng.normal(size=x_shape)))
        out = conv2d(x, Tensor(weight), stride, padding, channels_last)
        g = rng.normal(size=out.shape)
        g[(0,) * g.ndim] = -0.0
        tape.backward(tsum(out * Tensor(g)))
        got = tape.grad(x)
    want = _strided_input_grad(g, weight, x_shape, stride, padding,
                               channels_last)
    assert got.shape == want.shape
    assert got.tobytes() == np.ascontiguousarray(want).tobytes()


# ---------------------------------------------------------------------------
# the glue between the fused blocks: each one op against the chain it replaced
# ---------------------------------------------------------------------------


def _composed_token_conv(grid, stride, padding):
    """reshape to the grid, conv2d channels-last with the bias, reshape back
    to tokens: the 3-op merge ``token_conv2d`` replaced."""
    def f(x, w, b):
        y = conv2d(reshape(x, (*x.shape[:-2], *grid, x.shape[-1])), w, stride,
                   padding, True, b)
        *lead, ho, wo, c = y.shape
        return reshape(y, (*lead, ho * wo, c))
    return f


@settings(max_examples=80, deadline=None)
@given(_conv_cases(), st.integers(0, 2**16))
@example((3, 3, 2, 1, 8, 8, (4, 2), True), 0)       # the patch merges
@example((3, 3, 2, 1, 7, 5, (), True), 1)
def test_token_conv2d_matches_reshape_conv_reshape_bitwise(case, seed):
    kh, kw, stride, padding, h, w, lead, _ = case
    rng = np.random.default_rng(seed)
    inputs = [rng.normal(size=(*lead, h * w, 2)),
              rng.normal(size=(3, 2, kh, kw)), rng.normal(size=(3,))]
    _same_bytes(lambda x, wt, b: token_conv2d(x, wt, b, (h, w), stride, padding),
                _composed_token_conv((h, w), stride, padding), inputs,
                seed + 1)


def test_token_conv2d_gradients_and_shape_checks():
    rng = np.random.default_rng(160)
    x, w, b = (Tensor(rng.normal(size=s)) for s in ((2, 15, 3), (4, 3, 3, 3), (4,)))
    out_shape = (2, 6, 4)            # a 3x2 grid out of 5x3

    def conv(x, w, b):
        return token_conv2d(x, w, b, (5, 3), 2, 1)

    _check(_weighted(lambda t: conv(t, w, b), out_shape, 161), x.shape, 162)
    _check(_weighted(lambda t: conv(x, t, b), out_shape, 163), w.shape, 164)
    _check(_weighted(lambda t: conv(x, w, t), out_shape, 165), b.shape, 166)
    for grid, wt, bt in (((4, 4), w, b), ((5, 3), Tensor(np.zeros((4, 2, 3, 3))), b),
                         ((5, 3), w, Tensor(np.zeros(3)))):
        with pytest.raises(ShapeError):
            token_conv2d(x, wt, bt, grid, 2, 1)


def _composed_tokens_to_map(grid, out_h, out_w):
    """reshape to the grid, transpose the channels before it, upsample: the
    class-map resample ``tokens_to_map`` replaced."""
    def f(x):
        nl = x.data.ndim - 2
        g = transpose(reshape(x, (*x.shape[:-2], *grid, x.shape[-1])),
                      (*range(nl), nl + 2, nl, nl + 1))
        return g if (out_h, out_w) == grid else upsample_bilinear(g, out_h, out_w)
    return f


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([(), (1,), (2,), (3,), (4, 2)]), st.integers(2, 3),
       st.integers(1, 6), st.integers(1, 6), st.integers(0, 3),
       st.integers(0, 3), st.integers(0, 2**16))
@example((2,), 2, 16, 16, 48, 48, 0)        # logits of 64-px crops, batch 2
def test_tokens_to_map_matches_reshape_transpose_upsample_bitwise(
        lead, k, h, w, dh, dw, seed):
    x = np.random.default_rng(seed).normal(size=(*lead, h * w, k))
    _same_bytes(lambda t: tokens_to_map(t, (h, w), h + dh, w + dw),
                _composed_tokens_to_map((h, w), h + dh, w + dw), [x], seed + 1)


def test_tokens_to_map_gradient_checks_and_finite_check():
    x = np.random.default_rng(170).normal(size=(2, 12, 3))
    _check(_weighted(lambda t: tokens_to_map(t, (3, 4), 6, 8), (2, 3, 6, 8),
                     171), x.shape, 172)
    _check(_weighted(lambda t: tokens_to_map(t, (3, 4), 3, 4), (2, 3, 3, 4),
                     173), x.shape, 174)
    for grid, size in (((4, 4), (6, 8)), ((3, 4), (2, 8))):
        with pytest.raises(ShapeError):
            tokens_to_map(Tensor(x), grid, *size)
    x[1, 5, 0] = np.nan
    with pytest.raises(FloatingPointError, match="tokens_to_map"):
        tokens_to_map(Tensor(x), (3, 4), 6, 8)
    # without a resize the op only moves values and checks nothing
    assert np.isnan(tokens_to_map(Tensor(x), (3, 4), 3, 4).data).any()


def _composed_patchify(patch):
    """reshape, transpose and reshape: the patch extraction ``patchify``
    replaced."""
    def f(x):
        *lead, c, hh, ww = x.shape
        h, w, k = hh // patch, ww // patch, len(lead)
        t = transpose(reshape(x, (*lead, c, h, patch, w, patch)),
                      (*range(k), k + 1, k + 3, k, k + 2, k + 4))
        return reshape(t, (*lead, h * w, c * patch * patch))
    return f


@pytest.mark.parametrize("lead,c,hw,patch", [((), 3, (8, 4), 4),
                                             ((2,), 3, (8, 8), 4),
                                             ((2, 3), 1, (6, 4), 2)])
def test_patchify_matches_reshape_transpose_reshape_bitwise(lead, c, hw, patch):
    x = np.random.default_rng(180).normal(size=(*lead, c, *hw))
    _same_bytes(lambda t: patchify(t, patch), _composed_patchify(patch), [x],
                181)


def test_patchify_records_only_for_a_tracked_image():
    x = np.random.default_rng(182).normal(size=(2, 3, 4, 4))
    _check(_weighted(lambda t: patchify(t, 2), (2, 4, 12), 183), x.shape, 184)
    with Tape() as tape:
        out = patchify(Tensor(x), 2)
        assert out.node is None and tape.nodes == []
    with pytest.raises(ShapeError):
        patchify(Tensor(x), 3)


# ---------------------------------------------------------------------------
# tape mechanics
# ---------------------------------------------------------------------------


def test_constants_cost_nothing():
    with Tape() as tape:
        a = Tensor([1.0, 2.0])
        b = Tensor([3.0, 4.0])
        c = a * b
        assert c.node is None                  # nothing watched, nothing recorded
        assert len(tape.nodes) == 0


def test_fanout_gradients_accumulate():
    with Tape() as tape:
        x = tape.watch(Tensor([2.0]))
        y = tsum(x * x + x * 3.0)              # y = x^2 + 3x, dy/dx = 2x + 3
        tape.backward(y)
        np.testing.assert_allclose(tape.grad(x), [7.0], atol=1e-12)


def test_backward_requires_scalar_root():
    with Tape() as tape:
        x = tape.watch(Tensor([1.0, 2.0]))
        y = x * 2.0
        with pytest.raises(ValueError):
            tape.backward(y)


def test_unused_parameter_gets_zero_grad():
    with Tape() as tape:
        x = tape.watch(Tensor([1.0]))
        unused = tape.watch(Tensor([5.0, 6.0]))
        y = tsum(x * 4.0)
        tape.backward(y)
        np.testing.assert_array_equal(tape.grad(unused), [0.0, 0.0])


def test_fresh_tape_per_pass():
    p = Tensor([1.5])
    grads = []
    for _ in range(2):
        with Tape() as tape:
            tape.watch(p)
            tape.backward(tsum(p * p))
            grads.append(tape.grad(p).copy())
    np.testing.assert_array_equal(grads[0], grads[1])


def test_nested_tapes_rejected():
    with Tape():
        with pytest.raises(RuntimeError):
            with Tape():
                pass


def test_broadcast_unbroadcast_roundtrip():
    with Tape() as tape:
        a = tape.watch(Tensor(np.ones((3, 4))))
        b = tape.watch(Tensor(np.ones((4,))))
        y = tsum(a + b)
        tape.backward(y)
        assert tape.grad(a).shape == (3, 4)
        np.testing.assert_array_equal(tape.grad(b), [3.0, 3.0, 3.0, 3.0])


def test_nonfinite_forward_raises():
    with np.errstate(over="ignore"):
        with pytest.raises(FloatingPointError):
            Tensor([1e308]) * Tensor([1e308])


# ---------------------------------------------------------------------------
# gradient checks: every op against central differences
# ---------------------------------------------------------------------------

TOL = 1e-6


def _check(f, shape, seed, tol=TOL):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=shape))
    err = finite_diff_check(f, x)
    assert err < tol, f"finite-difference mismatch {err:.3e}"


def test_grad_add_mul_sub():
    _check(lambda t: tsum(t * t + t - t * 3.0), (4, 3), 10)


def test_grad_matmul():
    rng = np.random.default_rng(11)
    b = Tensor(rng.normal(size=(5, 4)))
    _check(lambda t: tsum(matmul(t, b)), (3, 5), 12)
    a = Tensor(rng.normal(size=(3, 5)))
    _check(lambda t: tsum(matmul(a, t)), (5, 4), 13)


def test_grad_softmax():
    _check(lambda t: tsum(softmax(t) * Tensor(np.arange(12.0).reshape(3, 4))),
           (3, 4), 14)


def test_grad_log_softmax():
    _check(lambda t: tsum(log_softmax(t) * Tensor(np.ones((3, 4)))),
           (3, 4), 15)


def test_grad_layer_norm_all_three_inputs():
    rng = np.random.default_rng(16)
    x = rng.normal(size=(2, 6))
    gamma = rng.normal(size=(6,))
    beta = rng.normal(size=(6,))
    w = Tensor(rng.normal(size=(2, 6)))
    _check(lambda t: tsum(layer_norm(t, Tensor(gamma), Tensor(beta)) * w), (2, 6), 17)
    err = finite_diff_check(
        lambda t: tsum(layer_norm(Tensor(x), t, Tensor(beta)) * w),
        Tensor(gamma))
    assert err < TOL
    err = finite_diff_check(
        lambda t: tsum(layer_norm(Tensor(x), Tensor(gamma), t) * w),
        Tensor(beta))
    assert err < TOL


def test_grad_gelu():
    _check(lambda t: tsum(gelu(t)), (3, 3), 18)


def test_grad_gelu_across_erf_branches():
    """Inputs on both erf branches, at the |x| / sqrt(2) = 1 seam between
    them and at the clamp |x| / sqrt(2) = 6."""
    r2 = math.sqrt(2.0)
    x = np.concatenate([np.linspace(-10.0, 10.0, 41),
                        [r2, -r2, 6.0 * r2, -6.0 * r2]])
    assert finite_diff_check(lambda t: tsum(gelu(t)), Tensor(x)) < TOL


def test_grad_relu_family():
    # keep inputs away from the kink at zero
    rng = np.random.default_rng(19)
    x = Tensor(rng.normal(size=(10,)) + np.where(rng.normal(size=10) > 0, 0.5, -0.5))
    assert finite_diff_check(lambda t: tsum(relu(t)), x) < TOL
    assert finite_diff_check(lambda t: tsum(leaky_relu(t)), x) < TOL


def test_grad_softplus():
    _check(lambda t: tsum(softplus(t)), (8,), 20)


def test_grad_conv2d_both_inputs():
    rng = np.random.default_rng(21)
    w = Tensor(rng.normal(size=(2, 3, 3, 3)))
    _check(lambda t: tsum(conv2d(t, w, stride=2, padding=1)), (3, 6, 6), 22)
    x = Tensor(rng.normal(size=(3, 6, 6)))
    _check(lambda t: tsum(conv2d(x, t, stride=2, padding=1)), (2, 3, 3, 3), 23)


def test_grad_depthwise_both_inputs():
    rng = np.random.default_rng(24)
    w = Tensor(rng.normal(size=(2, 3, 3)))
    _check(lambda t: tsum(depthwise_conv2d(t, w)), (2, 5, 5), 25)
    x = Tensor(rng.normal(size=(2, 5, 5)))
    _check(lambda t: tsum(depthwise_conv2d(x, t)), (2, 3, 3), 26)


def test_grad_upsample():
    rng = np.random.default_rng(27)
    w = Tensor(rng.normal(size=(1, 8, 8)))
    _check(lambda t: tsum(upsample_bilinear(t, 8, 8) * w), (1, 4, 4), 28)


def test_grad_structural_ops():
    _check(lambda t: tsum(reshape(t, (6,)) * Tensor(np.arange(6.0))), (2, 3), 29)
    _check(lambda t: tsum(transpose(t, (1, 0)) * Tensor(np.ones((3, 2)))), (2, 3), 30)
    _check(lambda t: tmean(t * t), (4,), 31)

    def f(t):
        rngc = np.random.default_rng(32)
        other = Tensor(rngc.normal(size=(2, 3)))
        return tsum(concat([t, other], axis=0) * Tensor(np.ones((4, 3))))
    _check(f, (2, 3), 33)


def test_tsum_along_an_axis():
    """Every axis of a [2, 3, 4] input, the last as -1: the sum equals
    numpy's, and the kept elements carry their own weights in the gradient
    check, so a broadcast back along the wrong axis shows."""
    x = np.random.default_rng(35).normal(size=(2, 3, 4))
    for axis in (0, 1, -1):
        np.testing.assert_array_equal(tsum(Tensor(x), axis=axis).data,
                                      x.sum(axis=axis))
        kept = x.sum(axis=axis).shape
        _check(_weighted(lambda t, a=axis: tsum(t, axis=a), kept, 36 + axis),
               x.shape, 40 + axis)


def test_grad_composite_chain():
    """A miniature network touching most ops at once."""
    rng = np.random.default_rng(34)
    w1 = Tensor(rng.normal(size=(6, 6)) * 0.3)
    g = Tensor(np.ones(6))
    b = Tensor(np.zeros(6))

    def f(t):
        h = gelu(matmul(t, w1))
        h = layer_norm(h, g, b)
        return tsum(softmax(h) * Tensor(np.arange(6.0)))
    _check(f, (4, 6), 35)


def test_finite_diff_step_bounds():
    with pytest.raises(ValueError):
        finite_diff_check(lambda t: tsum(t), Tensor([1.0]), h=1e-2)
    with pytest.raises(ValueError):
        finite_diff_check(lambda t: tsum(t), Tensor([1.0]), h=1e-9)


def test_fault_injection_is_caught():
    """A deliberately broken backward rule must trip the checker."""
    set_fault_injection(True)
    try:
        err = finite_diff_check(lambda t: tsum(gelu(t)),
                                Tensor(np.array([0.7, -1.3, 2.1])))
    finally:
        set_fault_injection(False)
    assert err > 1e-4


# ---------------------------------------------------------------------------
# batched convolution / resampling and the stream-stacking ops
# ---------------------------------------------------------------------------


def _weighted(op, out_shape, seed):
    """tsum(op(t) * w) for a fixed random w, so every output element carries
    its own weight in the gradient check."""
    w = Tensor(np.random.default_rng(seed).normal(size=out_shape))
    return lambda t: tsum(op(t) * w)


def test_grad_conv2d_batched_both_inputs():
    rng = np.random.default_rng(40)
    w = Tensor(rng.normal(size=(2, 3, 3, 3)))
    x = Tensor(rng.normal(size=(2, 2, 3, 5, 5)))
    _check(_weighted(lambda t: conv2d(t, w, stride=2, padding=1),
                     (2, 2, 2, 3, 3), 41), (2, 2, 3, 5, 5), 42)
    _check(_weighted(lambda t: conv2d(x, t, stride=2, padding=1),
                     (2, 2, 2, 3, 3), 43), (2, 3, 3, 3), 44)


def test_grad_conv2d_channels_last_both_inputs():
    rng = np.random.default_rng(45)
    w = Tensor(rng.normal(size=(4, 3, 3, 3)))
    x = Tensor(rng.normal(size=(2, 6, 6, 3)))
    _check(_weighted(lambda t: conv2d(t, w, stride=2, padding=1,
                                      channels_last=True), (2, 3, 3, 4), 46),
           (2, 6, 6, 3), 47)
    _check(_weighted(lambda t: conv2d(x, t, stride=2, padding=1,
                                      channels_last=True), (2, 3, 3, 4), 48),
           (4, 3, 3, 3), 49)


def test_grad_depthwise_batched_and_channels_last():
    rng = np.random.default_rng(50)
    w = Tensor(rng.normal(size=(3, 3, 3)))
    x = Tensor(rng.normal(size=(2, 4, 4, 3)))
    _check(_weighted(lambda t: depthwise_conv2d(t, w), (2, 3, 4, 4), 51),
           (2, 3, 4, 4), 52)
    _check(_weighted(lambda t: depthwise_conv2d(t, w, channels_last=True),
                     (2, 4, 4, 3), 53), (2, 4, 4, 3), 54)
    _check(_weighted(lambda t: depthwise_conv2d(x, t, channels_last=True),
                     (2, 4, 4, 3), 55), (3, 3, 3), 56)


def test_grad_upsample_batched_and_channels_last():
    _check(_weighted(lambda t: upsample_bilinear(t, 6, 8), (2, 3, 6, 8), 57),
           (2, 3, 3, 4), 58)
    # a channels-last input through transposes: [..., H, W, C] -> [..., C, H, W]
    _check(_weighted(lambda t: transpose(upsample_bilinear(
        transpose(t, (0, 3, 1, 2)), 6, 8), (0, 2, 3, 1)), (2, 6, 8, 3), 59),
        (2, 3, 4, 3), 60)


def test_grad_gather_and_stack():
    # repeated rows must scatter-add their gradients back
    _check(_weighted(lambda t: gather(t, (0, 1, 1, 0, 2)), (5, 4), 61), (3, 4), 62)
    _check(_weighted(lambda t: gather(t, 1), (4,), 63), (3, 4), 64)
    other = Tensor(np.random.default_rng(65).normal(size=(2, 3)))
    _check(_weighted(lambda t: stack([t, other, t]), (3, 2, 3), 66), (2, 3), 67)


def _gathered(rows, n, seed):
    """``gather`` of ``rows`` from a watched [n, 3, 2] leaf, swept back
    from its weighted sum: the leaf, the output and the leaf's gradient,
    with the scatter-add that picking by copy backs up: each picked row's
    weight added into its row, in row order."""
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(n, 3, 2)))
    w = rng.normal(size=gather(Tensor(np.empty((n, 3, 2))), rows).shape)
    tape = Tape()
    tape.watch(x)
    with tape:
        out = gather(x, rows)
        root = tsum(out * Tensor(w))
    tape.backward(root)
    want = np.zeros(x.shape)
    for j, i in enumerate([rows] if isinstance(rows, int) else rows):
        want[i] += w if isinstance(rows, int) else w[j]
    return x, out, tape.grad(x), want


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_gather_picks_an_ascending_run_as_a_view(data):
    """Rows that form one ascending run inside the array come back as a
    view of it, any other list of rows as a copy; the values are
    ``a.data[rows]`` and the input gradient is the copying path's
    scatter-add, byte for byte, either way."""
    n = data.draw(st.integers(1, 6), label="n")
    run = st.integers(0, n - 1).flatmap(
        lambda lo: st.integers(lo + 1, n).map(lambda hi: range(lo, hi)))
    rows = list(data.draw(st.one_of(
        run, st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n)),
        label="rows"))
    x, out, grad, want = _gathered(rows, n, data.draw(st.integers(0, 99)))
    is_run = rows == list(range(rows[0], rows[0] + len(rows)))
    assert np.shares_memory(out.data, x.data) == is_run
    assert out.shape == x.data[rows].shape
    assert out.data.tobytes() == x.data[rows].tobytes()
    assert grad.tobytes() == want.tobytes()


@pytest.mark.parametrize("rows", [1, [1, 1], [2, 1], [0, 2], [-2, -1],
                                  (1, 2), [3]])
def test_gather_picks_other_rows_as_before(rows):
    """An int index (a numpy view, dropping the axis), repeated,
    descending, gapped and negative rows, and runs given as a tuple or
    reaching the last row."""
    x, out, grad, want = _gathered(rows, 4, 7)
    picked = x.data[rows if isinstance(rows, int) else list(rows)]
    assert out.data.tobytes() == picked.tobytes()
    assert out.shape == picked.shape
    assert grad.tobytes() == want.tobytes()
    copies = rows in ([1, 1], [2, 1], [0, 2], [-2, -1])
    assert np.shares_memory(out.data, x.data) != copies


def test_gather_refuses_rows_past_the_end():
    """A run reaching past the last row raises as numpy's pick does,
    instead of a slice cutting it short."""
    x = Tensor(np.zeros((4, 2)))
    with pytest.raises(IndexError):
        gather(x, [3, 4])


def test_channels_last_matches_channels_first():
    rng = np.random.default_rng(70)
    x = rng.normal(size=(2, 3, 6, 6))
    xl = Tensor(np.ascontiguousarray(x.transpose(0, 2, 3, 1)))
    w = Tensor(rng.normal(size=(4, 3, 3, 3)))
    dw = Tensor(rng.normal(size=(3, 3, 3)))
    pairs = [
        (conv2d(Tensor(x), w, 2, 1), conv2d(xl, w, 2, 1, channels_last=True)),
        (depthwise_conv2d(Tensor(x), dw),
         depthwise_conv2d(xl, dw, channels_last=True)),
    ]
    for first, last in pairs:
        np.testing.assert_allclose(first.data, last.data.transpose(0, 3, 1, 2),
                                   rtol=0, atol=1e-13)


def test_batched_ops_are_per_item_bitwise():
    """An item's output must not depend on how many items share the call:
    the stacked forward relies on it for exact stream degeneracy."""
    rng = np.random.default_rng(71)
    x = rng.normal(size=(3, 2, 8, 8, 4))
    w = Tensor(rng.normal(size=(5, 4, 3, 3)))
    dw = Tensor(rng.normal(size=(4, 3, 3)))
    ops = [lambda t: conv2d(t, w, 2, 1, channels_last=True),
           lambda t: depthwise_conv2d(t, dw, channels_last=True),
           lambda t: upsample_bilinear(t, 16, 16)]
    for op in ops:
        full = op(Tensor(x)).data
        for i in range(3):
            for j in range(2):
                np.testing.assert_array_equal(full[i, j], op(Tensor(x[i, j])).data)


def test_interp_matrix_is_cached_read_only():
    from quadseg.tensor import interp_matrix
    m = interp_matrix(4, 16)
    assert interp_matrix(4, 16) is m
    with pytest.raises(ValueError):
        m[0, 0] = 1.0


# ---------------------------------------------------------------------------
# fused primitives: linear and multi_head_attention
# ---------------------------------------------------------------------------


def _composed_linear(x, w, b):
    return matmul(x, w) + b


def _composed_attention(q, k, v, heads, route=None):
    """The op sequence multi_head_attention replaces, kept as its oracle."""
    *lead, n, c = q.shape
    nr, dh, nl = k.shape[-2], c // heads, len(lead)
    keep = tuple(range(nl))
    qh = transpose(reshape(q, (*lead, n, heads, dh)), (*keep, nl + 1, nl, nl + 2))
    kt = transpose(reshape(k, (*lead, nr, heads, dh)), (*keep, nl + 1, nl + 2, nl))
    vh = transpose(reshape(v, (*lead, nr, heads, dh)), (*keep, nl + 1, nl, nl + 2))
    if route is not None:
        qh, kt, vh = gather(qh, route[0]), gather(kt, route[1]), gather(vh, route[1])
    scores = matmul(qh, kt) * (1.0 / math.sqrt(dh))
    out = matmul(softmax(scores), vh)
    out = transpose(out, (*keep, nl + 1, nl, nl + 2))
    return reshape(out, out.shape[:-2] + (c,))


_ROUTE = ((0, 1, 1, 0), (0, 1, 0, 1))
# (lead dims, N, Nr, C, heads, route)
_ATTN_CASES = [((), 5, 3, 4, 1, None), ((), 6, 6, 6, 3, None),
               ((2,), 4, 2, 6, 2, None), ((2, 3), 4, 4, 4, 2, _ROUTE),
               ((3,), 3, 2, 4, 1, ((2, 0, 2), (1, 1, 0))),
               ((2,), 3, 2, 4, 2, ((0, 0, 1, 0), (1, 0, 1, 1)))]


def _attn_inputs(case, seed):
    lead, n, nr, c, _, _ = case
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(*lead, m, c)) for m in (n, nr, nr)]


def test_grad_linear_batched_and_2d():
    rng = np.random.default_rng(80)
    for shape in ((4, 5), (2, 3, 5)):
        x, w, b = (Tensor(rng.normal(size=s)) for s in (shape, (5, 3), (3,)))
        out_shape = shape[:-1] + (3,)
        _check(_weighted(lambda t: linear(t, w, b), out_shape, 81), shape, 82)
        _check(_weighted(lambda t: linear(x, t, b), out_shape, 83), (5, 3), 84)
        _check(_weighted(lambda t: linear(x, w, t), out_shape, 85), (3,), 86)


@pytest.mark.parametrize("case", _ATTN_CASES)
def test_grad_multi_head_attention(case):
    lead, n, nr, c, heads, route = case
    arrays = [Tensor(a) for a in _attn_inputs(case, 87)]
    out_shape = ((len(route[0]),) + lead[1:] if route else lead) + (n, c)
    for i, arr in enumerate(arrays):
        def op(t, i=i):
            args = list(arrays)
            args[i] = t
            return multi_head_attention(*args, heads, route)
        _check(_weighted(op, out_shape, 88 + i), arr.shape, 91 + i)


def _run_both(fused, composed, inputs, seed):
    """Forward values and every input gradient of each of the two."""
    results = []
    for fn in (fused, composed):
        with Tape() as tape:
            ts = [tape.watch(Tensor(a.copy())) for a in inputs]
            out = fn(*ts)
            w = Tensor(np.random.default_rng(seed).normal(size=out.shape))
            tape.backward(tsum(out * w))
            results.append([out.data] + [tape.grad(t) for t in ts])
    return results


def _fused_vs_composed(fused, composed, inputs, seed):
    """Forward values and every input gradient, bit for bit."""
    for got, want in zip(*_run_both(fused, composed, inputs, seed)):
        np.testing.assert_array_equal(got, want)


def _same_bytes(fused, composed, inputs, seed):
    """As ``_fused_vs_composed``, comparing bytes, so a zero's sign counts."""
    for got, want in zip(*_run_both(fused, composed, inputs, seed)):
        assert got.shape == want.shape
        assert np.ascontiguousarray(got).tobytes() \
            == np.ascontiguousarray(want).tobytes()


def test_fused_primitives_match_composed_ops_bitwise():
    rng = np.random.default_rng(95)
    for shape in ((6, 5), (2, 3, 5), (2, 2, 3, 5)):
        inputs = [rng.normal(size=shape), rng.normal(size=(5, 4)),
                  rng.normal(size=(4,))]
        _fused_vs_composed(linear, _composed_linear, inputs, 96)
    for case in _ATTN_CASES:
        heads, route = case[4], case[5]
        _fused_vs_composed(
            lambda q, k, v: multi_head_attention(q, k, v, heads, route),
            lambda q, k, v: _composed_attention(q, k, v, heads, route),
            _attn_inputs(case, 97), 98)


def test_fused_primitive_shape_errors():
    with pytest.raises(ShapeError):
        linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 4))), Tensor(np.zeros(3)))
    q = Tensor(np.zeros((4, 6)))
    with pytest.raises(ShapeError):
        multi_head_attention(q, q, q, 4)                     # 6 channels, 4 heads
    with pytest.raises(ShapeError):
        multi_head_attention(q, Tensor(np.zeros((3, 4))), Tensor(np.zeros((3, 4))), 2)


# ---------------------------------------------------------------------------
# the patch critic: one op for the conv2d + leaky_relu chain over many maps
# ---------------------------------------------------------------------------

_CRITIC_CHANNELS = (2, 8, 16, 32, 64, 1)      # the desk-scale critic


def _critic_inputs(maps, lead, crop, seed):
    """``maps`` probability maps, then each layer's weight and bias."""
    rng = np.random.default_rng(seed)
    arrays = [rng.random((*lead, 2, crop, crop)) for _ in range(maps)]
    for cin, cout in zip(_CRITIC_CHANNELS, _CRITIC_CHANNELS[1:]):
        arrays += [rng.normal(size=(cout, cin, 4, 4)) * 0.2,
                   rng.normal(size=(cout,)) * 0.1]
    return arrays


def _critic_chain(x, ws, bs, slope=0.2):
    for j, (w, b) in enumerate(zip(ws, bs)):
        x = conv2d(x, w, stride=2, padding=1, b=b)
        if j < len(ws) - 1:
            x = leaky_relu(x, slope)
    return x


def _fused_critic(maps):
    def f(*ts):
        xs, params = ts[:maps], ts[maps:]
        return patch_critic(xs[0] if maps == 1 else xs, params[0::2],
                            params[1::2], 0.2)
    return f


def _composed_critic(maps):
    """The oracle: the chain once per map, the logits stacked."""
    def f(*ts):
        xs, params = ts[:maps], ts[maps:]
        outs = [_critic_chain(x, params[0::2], params[1::2]) for x in xs]
        return outs[0] if maps == 1 else stack(outs)
    return f


@pytest.mark.parametrize("crop", [32, 64])
@pytest.mark.parametrize("lead", [(), (2,), (3,)])
@pytest.mark.parametrize("maps", [1, 2])
def test_patch_critic_matches_the_per_map_chain_bitwise(maps, lead, crop):
    """Values, the maps' gradients and every weight and bias gradient equal
    the conv2d + leaky_relu chain's, byte for byte; at crop 64 the first two
    layers take the channels-first input gradient, at crop 32 the first."""
    _same_bytes(_fused_critic(maps), _composed_critic(maps),
                _critic_inputs(maps, lead, crop, 140 + crop), 141)


@pytest.mark.parametrize("watch", ["maps", "params"])
def test_patch_critic_gradients_of_a_watched_part(watch):
    """As the critic runs in training: the critic's step watches only its
    parameters (detached maps), the generator's only the maps."""
    maps = 2 if watch == "params" else 1
    inputs = _critic_inputs(maps, (2,), 64, 142)
    results = []
    for fn in (_fused_critic(maps), _composed_critic(maps)):
        with Tape() as tape:
            ts = [Tensor(a.copy()) for a in inputs]
            watched = ts[:maps] if watch == "maps" else ts[maps:]
            for t in watched:
                tape.watch(t)
            out = fn(*ts)
            w = Tensor(np.random.default_rng(143).normal(size=out.shape))
            tape.backward(tsum(out * w))
            results.append([out.data] + [tape.grad(t) for t in watched])
    for got, want in zip(*results):
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()


def test_patch_critic_is_one_node_and_checks_shapes():
    inputs = _critic_inputs(2, (2,), 32, 144)
    with Tape() as tape:
        ts = [tape.watch(Tensor(a)) for a in inputs]
        out = _fused_critic(2)(*ts)
    assert out.shape == (2, 2, 1, 1, 1) and len(tape.nodes) == len(ts) + 1
    x, params = Tensor(inputs[0]), [Tensor(a) for a in inputs[2:]]
    with pytest.raises(ShapeError):             # maps of different shapes
        patch_critic([x, Tensor(inputs[1][:1])], params[0::2], params[1::2],
                     0.2)
    with pytest.raises(ShapeError):             # 16 px runs out at layer 4
        patch_critic(Tensor(inputs[0][..., :16, :16]), params[0::2],
                     params[1::2], 0.2)
    with pytest.raises(ShapeError):             # a bias of the wrong width
        patch_critic(x, params[0::2], [params[3], *params[3::2]], 0.2)
    bad = np.array(inputs[0])
    bad[0, 0, 0, 0] = np.inf
    with pytest.raises(FloatingPointError, match="patch_critic layer 0"):
        patch_critic(Tensor(bad), params[0::2], params[1::2], 0.2)


# ---------------------------------------------------------------------------
# the encoder sublayer ops: residual attention and residual Mix-FFN
# ---------------------------------------------------------------------------

# (lead dims, grid, C, heads, ratio, route): ratio 1 and 2, the routed pair
# and a four-row stack with a batch dim, one and two heads
_SUBLAYER_CASES = [((), (4, 2), 4, 2, 2, None),
                   ((2,), (2, 3), 2, 1, 1, _ROUTE),
                   ((4, 2), (2, 2), 4, 2, 2, None),
                   ((2, 1), (2, 2), 2, 2, 1, _ROUTE)]


def _attn_arrays(case, seed):
    """q_in, kv_in, residual, then wq, bq, wsr, bsr, wk, bk, wv, bv, wo, bo."""
    lead, (h, w), c, _, r, route = case
    rng = np.random.default_rng(seed)
    out_lead = (len(route[0]),) + lead[1:] if route else lead
    shapes = [(*lead, h * w, c), (*lead, h * w, c), (*out_lead, h * w, c)]
    shapes += [(c, c), (c,), (r * r * c, c), (c,)] + [(c, c), (c,)] * 3
    return [rng.normal(scale=0.7, size=s) for s in shapes]


def _ffn_arrays(lead, grid, c, e, seed):
    """x, then w1, b1, dw, bdw, w2, b2."""
    rng = np.random.default_rng(seed)
    shapes = [(*lead, grid[0] * grid[1], c), (c, e), (e,), (e, 3, 3), (e,),
              (e, c), (c,)]
    return [rng.normal(scale=0.7, size=s) for s in shapes]


@pytest.mark.parametrize("case", _SUBLAYER_CASES)
def test_grad_residual_attention_every_input(case):
    _, grid, _, heads, ratio, route = case
    arrays = [Tensor(a) for a in _attn_arrays(case, 150)]
    for i, arr in enumerate(arrays):
        def op(t, i=i):
            args = list(arrays)
            args[i] = t
            return residual_attention(args[0], args[1], args[2], args[3:], grid,
                                      heads, ratio, route)
        _check(_weighted(op, arrays[2].shape, 151 + i), arr.shape, 170 + i)


@pytest.mark.parametrize("lead,grid", [((), (3, 2)), ((2,), (2, 2)),
                                       ((4, 2), (1, 3))])
def test_grad_residual_mix_ffn_every_input(lead, grid):
    arrays = [Tensor(a) for a in _ffn_arrays(lead, grid, 2, 4, 190)]
    for i, arr in enumerate(arrays):
        def op(t, i=i):
            args = list(arrays)
            args[i] = t
            return residual_mix_ffn(*args, grid)
        _check(_weighted(op, arrays[0].shape, 191 + i), arr.shape, 200 + i)


def test_injected_gelu_fault_is_caught_through_the_mix_ffn_op():
    """The fused Mix-FFN takes its GELU slope from the rule that fault
    injection perturbs, so finite differences through the op catch it."""
    arrays = [Tensor(a) for a in _ffn_arrays((2,), (2, 2), 2, 4, 210)]
    f = _weighted(lambda t: residual_mix_ffn(t, *arrays[1:], (2, 2)),
                  arrays[0].shape, 211)
    assert finite_diff_check(f, arrays[0]) < TOL
    set_fault_injection(True)
    try:
        err = finite_diff_check(f, arrays[0])
    finally:
        set_fault_injection(False)
    assert err > 1e-4


def test_sublayer_op_shape_errors():
    a = [Tensor(x) for x in _attn_arrays(_SUBLAYER_CASES[0], 220)]
    with pytest.raises(ShapeError, match="ratio"):           # 4x2 grid, ratio 4
        residual_attention(a[0], a[1], a[2], a[3:], (4, 2), 2, 4)
    with pytest.raises(ShapeError):                          # 8 tokens, 3x3 grid
        residual_attention(a[0], a[1], a[2], a[3:], (3, 3), 2, 1)
    with pytest.raises(ShapeError):                          # wsr for ratio 2
        residual_attention(a[0], a[1], a[2], a[3:], (4, 2), 2, 1)
    with pytest.raises(ShapeError):                          # residual [4, C]
        residual_attention(a[0], a[1], Tensor(np.zeros((4, 4))), a[3:], (4, 2),
                           2, 2)
    f = [Tensor(x) for x in _ffn_arrays((), (2, 2), 2, 4, 221)]
    with pytest.raises(ShapeError):                          # 4 tokens, 2x3 grid
        residual_mix_ffn(*f, (2, 3))
    with pytest.raises(ShapeError):                          # a 5x5 depthwise
        residual_mix_ffn(*f[:3], Tensor(np.zeros((4, 5, 5))), *f[4:], (2, 2))


# ---------------------------------------------------------------------------
# pyramid_fuse: per-part projection, then upsample and sum
# ---------------------------------------------------------------------------

# (lead dims, part grids, part widths, output grid, N); the second half of
# each grid list repeats the first, like a head's self and cross stages
_FUSE_CASES = [((2,), [(4, 4), (2, 2), (1, 1), (4, 4), (2, 2), (1, 1)],
                (3, 2, 2, 3, 1, 2), (4, 4), 5),
               ((), [(2, 3), (1, 2)], (2, 3), (3, 5), 2)]


def _fuse_inputs(case, seed):
    lead, grids, widths, _, n = case
    rng = np.random.default_rng(seed)
    parts = [rng.normal(size=(*lead, h * w, c)) for (h, w), c in zip(grids, widths)]
    return parts + [rng.normal(size=(sum(widths), n)), rng.normal(size=(n,))]


def _composed_fuse(grids, out_h, out_w):
    """Upsample every part to the output grid, concatenate, then ``linear``:
    the op sequence pyramid_fuse replaces, kept as its oracle."""
    def fuse(*args):
        *parts, w, b = args
        ups = []
        for p, (h, wd) in zip(parts, grids):
            lead, c, n = p.shape[:-2], p.shape[-1], len(p.shape)
            g = transpose(reshape(p, (*lead, h, wd, c)),
                          (*range(n - 2), n, n - 2, n - 1))
            g = transpose(upsample_bilinear(g, out_h, out_w),
                          (*range(n - 2), n - 1, n, n - 2))
            ups.append(reshape(g, (*lead, out_h * out_w, c)))
        return linear(concat(ups, axis=-1), w, b)
    return fuse


@pytest.mark.parametrize("case", _FUSE_CASES)
def test_grad_pyramid_fuse(case):
    """Every part (several grids, self and cross parts on one grid), the
    weight and the bias against central differences."""
    lead, grids, _, (oh, ow), n = case
    arrays = [Tensor(a) for a in _fuse_inputs(case, 100)]
    for i, arr in enumerate(arrays):
        def op(t, i=i):
            args = list(arrays)
            args[i] = t
            return pyramid_fuse(args[:-2], args[-2], args[-1], grids, oh, ow)
        _check(_weighted(op, (*lead, oh * ow, n), 101 + i), arr.shape, 111 + i)


@pytest.mark.parametrize("case", _FUSE_CASES)
def test_pyramid_fuse_matches_upsample_concat_linear(case):
    """Values and every input gradient agree with the composed ops to
    1e-12 relative; only the order of the linear steps differs."""
    _, grids, _, (oh, ow), _ = case
    inputs = _fuse_inputs(case, 102)
    results = []
    for fn in (lambda *a: pyramid_fuse(a[:-2], a[-2], a[-1], grids, oh, ow),
               _composed_fuse(grids, oh, ow)):
        with Tape() as tape:
            ts = [tape.watch(Tensor(a.copy())) for a in inputs]
            out = fn(*ts)
            w = Tensor(np.random.default_rng(103).normal(size=out.shape))
            tape.backward(tsum(out * w))
            results.append([out.data] + [tape.grad(t) for t in ts])
    for got, want in zip(*results):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_pyramid_fuse_is_per_item_bitwise():
    _, grids, _, (oh, ow), _ = _FUSE_CASES[0]
    *parts, w, b = _fuse_inputs(((3, 2), *_FUSE_CASES[0][1:]), 104)
    w, b = Tensor(w), Tensor(b)
    full = pyramid_fuse([Tensor(p) for p in parts], w, b, grids, oh, ow).data
    for i in range(3):
        for j in range(2):
            one = pyramid_fuse([Tensor(p[i, j]) for p in parts], w, b, grids, oh, ow)
            np.testing.assert_array_equal(full[i, j], one.data)


_REPEAT_GRIDS = [(4, 8), (2, 4), (1, 2), (2, 2), (4, 1), (1, 4)]


@st.composite
def _fuse_with_repeats(draw):
    """Parts on grids of an (4, 8) output, some of them the same Tensor as
    an earlier part, on its grid or on another grid of as many tokens."""
    lead = draw(st.sampled_from([(), (2,)]))
    specs = []              # (grid, width, index of the repeated part)
    for _ in range(draw(st.integers(2, 6))):
        if specs and draw(st.booleans()):
            k = draw(st.integers(0, len(specs) - 1))
            (h, w), c, _ = specs[k]
            grid = draw(st.sampled_from(
                [gr for gr in _REPEAT_GRIDS if gr[0] * gr[1] == h * w]))
            specs.append((grid, c, k))
        else:
            specs.append((draw(st.sampled_from(_REPEAT_GRIDS)),
                          draw(st.integers(1, 4)), None))
    return lead, specs, draw(st.integers(0, 2**16))


@settings(max_examples=60, deadline=None)
@given(_fuse_with_repeats())
def test_pyramid_fuse_repeated_part_equals_a_copy_bytewise(case):
    """A part passed twice as the same Tensor gives the output and every
    gradient (each part's, the weight's and the bias's) that an
    equal-valued copy of it gives, byte for byte: its shared weight
    gradient rows are those the copy computes."""
    lead, specs, seed = case
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=(*lead, h * w, c)) for (h, w), c, _ in specs]
    n = 3
    wb = [rng.normal(size=(sum(c for _, c, _ in specs), n)), rng.normal(size=n)]
    g = rng.normal(size=(*lead, 32, n))
    grids = [grid for grid, _, _ in specs]
    results = []
    for repeat in (True, False):
        with Tape() as tape:
            parts: list = []
            for a, (_, _, k) in zip(arrays, specs):
                if k is None:
                    parts.append(tape.watch(Tensor(a.copy())))
                elif repeat:
                    parts.append(parts[k])
                else:
                    parts.append(tape.watch(Tensor(parts[k].data.copy())))
            w, b = (tape.watch(Tensor(a.copy())) for a in wb)
            out = pyramid_fuse(parts, w, b, grids, 4, 8)
            grads = out.node.backward_fn(g)
        results.append([out.data.tobytes()] + [gr.tobytes() for gr in grads])
    assert results[0] == results[1]


def test_pyramid_fuse_shape_errors():
    p4, p2 = Tensor(np.zeros((16, 3))), Tensor(np.zeros((4, 3)))
    w, b = Tensor(np.zeros((6, 2))), Tensor(np.zeros(2))
    pyramid_fuse([p4, p2], w, b, [(4, 4), (2, 2)], 4, 4)
    bad = [([p4, p2], Tensor(np.zeros((5, 2))), b, [(4, 4), (2, 2)], 4, 4),
           ([p4, p2], w, Tensor(np.zeros(3)), [(4, 4), (2, 2)], 4, 4),
           ([p4, p2], w, b, [(4, 4), (4, 4)], 4, 4),          # 4 tokens, 4x4 grid
           ([p4, p2], w, b, [(4, 4)], 4, 4),
           ([p4, p2], w, b, [(4, 4), (2, 2)], 2, 2),          # would shrink
           ([p4, Tensor(np.zeros((1, 4, 3)))], w, b, [(4, 4), (2, 2)], 4, 4)]
    for args in bad:
        with pytest.raises(ShapeError):
            pyramid_fuse(*args)


# ---------------------------------------------------------------------------
# finite checks and backward bookkeeping
# ---------------------------------------------------------------------------


def test_nan_input_raises_at_first_computing_op():
    """Ops that only move values pass a NaN through; the first op that
    computes values raises."""
    x = np.ones((2, 4, 3))
    x[1, 2, 0] = np.nan
    t = Tensor(x)
    moved = transpose(reshape(t, (2, 3, 4)), (0, 2, 1))
    moved = neg(gather(stack([concat([moved, moved], axis=1)]), 0))
    w, b = Tensor(np.ones((3, 2))), Tensor(np.zeros(2))
    with pytest.raises(FloatingPointError, match="^linear"):
        linear(moved, w, b)


def test_backward_skips_untracked_parents():
    """Constants get no gradient part; tracked parents still do."""
    rng = np.random.default_rng(99)
    c = Tensor(rng.normal(size=(3, 3)))
    with Tape() as tape:
        x = tape.watch(Tensor(rng.normal(size=(3, 3))))
        cases = [
            (x + c, (True, False)), (c - x, (False, True)),
            (x * c, (True, False)), (matmul(c, x), (False, True)),
            (linear(x, c, Tensor(np.zeros(3))), (True, False, False)),
            (conv2d(reshape(x, (1, 3, 3)), Tensor(rng.normal(size=(2, 1, 2, 2)))),
             (True, False)),
            (depthwise_conv2d(reshape(x, (1, 3, 3)), Tensor(rng.normal(size=(1, 3, 3)))),
             (True, False)),
            (pyramid_fuse([x, c], Tensor(rng.normal(size=(6, 3))),
                          Tensor(np.zeros(3)), [(3, 1), (3, 1)], 3, 1),
             (True, False, False, False)),
        ]
        for out, wanted in cases:
            parts = out.node.backward_fn(np.ones(out.shape))
            assert tuple(p is not None for p in parts) == wanted


# ---------------------------------------------------------------------------
# erf in the engine and the finite check's semantics
# ---------------------------------------------------------------------------


def _ordinal(v: float) -> int:
    """Index of a float64 on the line of all float64s in order, so that the
    difference of two ordinals counts the ulps between them (+0 and -0
    share ordinal 0)."""
    i = struct.unpack("<q", struct.pack("<d", v))[0]
    return i if i >= 0 else -(i & 0x7FFFFFFFFFFFFFFF)


_ERF_INPUTS = st.one_of(st.floats(-30.0, 30.0, allow_subnormal=True),
                        st.floats(-3e-308, 3e-308, allow_subnormal=True))


@settings(max_examples=300, deadline=None)
@given(st.lists(_ERF_INPUTS, min_size=1, max_size=40))
def test_erf_within_3_ulp_of_math_erf(xs):
    got = _erf(np.array(xs))
    for x, y in zip(xs, got):
        assert abs(_ordinal(float(y)) - _ordinal(math.erf(x))) <= 3, x


def test_erf_special_values():
    y = _erf(np.array([0.0, -0.0, np.inf, -np.inf, np.nan]))
    assert y[0] == 0.0 and not np.signbit(y[0])
    assert y[1] == 0.0 and np.signbit(y[1])
    assert y[2] == 1.0 and y[3] == -1.0 and np.isnan(y[4])
    assert _erf(np.array(-0.0)) == 0.0 and np.signbit(_erf(np.array(-0.0)))
    assert _erf(np.array(-2.0)) == math.erf(-2.0)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=6.0), min_size=1, max_size=20),
       st.booleans())
def test_erf_is_exactly_one_from_six(mags, negative):
    x = -np.array(mags) if negative else np.array(mags)
    assert np.all(_erf(x) == (-1.0 if negative else 1.0))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=40))
def test_erf_is_odd_bit_for_bit(xs):
    x = np.array(xs)
    assert np.array_equal(_erf(-x).view(np.int64), (-_erf(x)).view(np.int64))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.floats(), st.floats(0.999, 1.001), st.floats(1e153, 1e155),
                 st.sampled_from([np.nextafter(1.0, 0.0), 1.0,
                                  -np.nextafter(1.0, 0.0), 5e-324])))
def test_erf_square_range_test_equals_the_abs_test(x):
    """_erf picks its |x| >= 1 lanes by x*x >= 1: the same lanes."""
    v = np.array([x])
    with np.errstate(over="ignore"):
        assert (v * v >= 1.0)[0] == (np.abs(v) >= 1.0)[0]


def test_erf_monotone_across_branch_seams():
    """Non-decreasing on dense grids over [-7, 7] and across the branch seam
    |x| = 1 and the clamp |x| = 6.  Within 3 ulp, erf cannot be monotone
    from one float to the next where it rises by less than an ulp per ulp
    of x (scipy's is not either), so the seam grids step by 1e-14: ~36 ulp
    of erf at 1, more than the error on both sides of the seam."""
    steps = np.arange(-2000, 2001)
    grids = [np.linspace(-7.0, 7.0, 280001)]
    for seam, step in ((1.0, 1e-14), (6.0, 1e-14), (6.0, 1e-4)):
        grids += [seam + step * steps, -seam + step * steps]
    for x in grids:
        assert np.all(np.diff(_erf(x)) >= 0.0)


def test_erf_any_layout():
    """Batched, transposed and 0-d inputs give the flat result elementwise."""
    x = np.random.default_rng(5).normal(scale=3.0, size=(6, 7))
    want = _erf(x.ravel()).reshape(x.shape)
    np.testing.assert_array_equal(_erf(x), want)
    np.testing.assert_array_equal(_erf(x.T), want.T)
    assert _erf(x[2, 3].reshape(())) == want[2, 3]


@pytest.mark.parametrize("bad", [[np.nan, 1.0], [np.inf, 1.0],
                                 [-np.inf, 1.0], [np.inf, -np.inf]],
                         ids=["nan", "+inf", "-inf", "+inf-inf"])
def test_nonfinite_output_raises_naming_the_op(bad):
    with pytest.raises(FloatingPointError, match="^add: non-finite"):
        add(Tensor(bad), Tensor([0.0, 0.0]))


def test_finite_output_whose_sum_overflows_passes():
    """The check reduces first; an infinite reduction of finite elements
    falls back to the elementwise test and does not raise."""
    with np.errstate(over="ignore"):
        out = add(Tensor([1e308, 1e308]), Tensor([0.0, 0.0]))
    np.testing.assert_array_equal(out.data, [1e308, 1e308])


def test_package_never_imports_scipy():
    """The command line, training and verify modules, through one
    inference, load no scipy module."""
    code = textwrap.dedent("""
        import sys
        import numpy as np
        import quadseg.cli, quadseg.train, quadseg.verify
        from quadseg.config import RunConfig
        from quadseg.model import init_model_params
        cfg = RunConfig()
        rng = np.random.default_rng(0)
        params = init_model_params(cfg.encoder_config(), cfg.decoder_config(),
                                   rng)
        quadseg.train.predict_mask(params, cfg, rng.random((3, cfg.crop,
                                                            cfg.crop)))
        print(sorted(m for m in sys.modules
                     if m == "scipy" or m.startswith("scipy.")))
    """)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
