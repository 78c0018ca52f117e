"""Prototype bank, pseudo-label correction, SSIM, and two-way pairing."""

import math
import os
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from quadseg.adaptation import (
    PairSet,
    PrototypeBank,
    PseudoLabels,
    class_argmax,
    class_sums,
    correct_pseudo_labels,
    decode_pseudo_labels,
    ema_update,
    grid_probs,
    initialize_bank,
    load_pseudo_labels,
    pair_two_way,
    pseudo_label_planes,
    read_pairs,
    save_pseudo_labels,
    ssim,
    ssim_matrix,
    to_grayscale,
    track_prototypes,
    warmup_pseudo_labels,
    write_pairs,
)
from quadseg.pnm import read_f64, read_pgm
from quadseg.tensor import interp_matrix

# ---------------------------------------------------------------------------
# batch prototypes and EMA
# ---------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([(), (1,), (2,), (2, 3)]), st.integers(2, 4),
       st.integers(1, 6), st.integers(1, 6), st.integers(1, 4),
       st.integers(0, 2**16))
def test_class_argmax_equals_numpy_argmax_with_ties(lead, k, h, w, levels,
                                                    seed):
    """The running compare picks numpy's class, the first maximum on ties;
    few distinct score levels make ties common, and -0.0 ties +0.0."""
    rng = np.random.default_rng(seed)
    scores = rng.integers(0, levels + 1, size=(*lead, k, h, w)) - levels / 2
    scores[rng.random(scores.shape) < 0.2] = -0.0
    got = class_argmax(scores)
    assert got.dtype == np.uint8 and got.shape == (*lead, h, w)
    np.testing.assert_array_equal(got, scores.argmax(axis=-3))



def batch_prototype(feats, probs, c):
    """Class c's weighted centroid over one batch from ``class_sums``, or
    None when the class is absent."""
    sums, weights = class_sums(feats, probs)
    return sums[c] / weights[c] if weights[c] > 0.0 else None


def test_batch_prototype_single_pixel():
    feats = np.array([[1.0, 2.0], [5.0, 6.0], [9.0, 10.0]])
    probs = np.array([[1.0, 0.0], [0.0, 1.0], [0.9, 0.1]])
    # only rows 0 and 2 have argmax class 0; give row 2 weight ~0 via probs
    probs[2] = [1e-300, 1.0 - 1e-300]
    got = batch_prototype(feats, probs, 0)
    np.testing.assert_allclose(got, [1.0, 2.0], atol=1e-12)


def test_batch_prototype_uniform_weights_mean():
    feats = np.arange(8.0).reshape(4, 2)
    probs = np.tile([0.7, 0.3], (4, 1))
    got = batch_prototype(feats, probs, 0)
    np.testing.assert_allclose(got, feats.mean(axis=0), atol=1e-12)


def test_batch_prototype_matches_direct_summation():
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(10, 6))
    logits = rng.normal(size=(10, 2))
    probs = np.exp(logits)
    probs /= probs.sum(axis=1, keepdims=True)
    for c in (0, 1):
        got = batch_prototype(feats, probs, c)
        sel = probs.argmax(axis=1) == c
        if not sel.any():
            assert got is None
            continue
        num = np.zeros(6)
        den = 0.0
        for i in np.nonzero(sel)[0]:
            num += probs[i, c] * feats[i]
            den += probs[i, c]
        np.testing.assert_allclose(got, num / den, atol=1e-12)


def test_batch_prototype_empty_class_signals_none():
    feats = np.ones((3, 2))
    probs = np.tile([0.9, 0.1], (3, 1))
    assert batch_prototype(feats, probs, 1) is None


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 300), d=st.integers(2, 6), k=st.integers(2, 3),
       seed=st.integers(0, 2 ** 31 - 1))
def test_class_sums_match_a_per_pixel_loop(n, d, k, seed):
    """Each class's feature sum equals, bit for bit, a loop adding the
    weighted features of the tokens whose argmax is that class, in token
    order (``sum(axis=0)`` over two or more columns adds row by row; the
    prototype features always have more than one).  The total weight is
    the numpy sum of the weights that loop visits (a 1-D sum is pairwise,
    so a running scalar would differ in the last bit past eight tokens)."""
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(n, d))
    probs = rng.dirichlet(np.ones(k), size=n)
    sums, weights = class_sums(feats, probs)
    for c in range(k):
        loop_sum, seen = np.zeros(d), []
        for i in range(n):
            if probs[i].argmax() == c:
                loop_sum += probs[i, c] * feats[i]
                seen.append(probs[i, c])
        np.testing.assert_array_equal(sums[c], loop_sum)
        assert weights[c] == np.array(seen).sum()


def test_tracking_leaves_an_absent_class_alone():
    bank = PrototypeBank.create(3, 2)
    bank.eta[:] = [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
    before = bank.eta.copy()
    feats = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
    probs = np.array([[0.8, 0.1, 0.1], [0.1, 0.1, 0.8], [0.6, 0.2, 0.2]])
    track_prototypes(bank, feats, probs)            # class 1 is absent
    np.testing.assert_array_equal(bank.eta[1], before[1])
    for c in (0, 2):
        want = PrototypeBank.create(3, 2)
        want.eta[:] = before
        ema_update(want, c, batch_prototype(feats, probs, c))
        np.testing.assert_array_equal(bank.eta[c], want.eta[c])


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 4), d=st.integers(1, 5),
       seed=st.integers(0, 2 ** 31 - 1), data=st.data())
def test_ema_update_over_classes_equals_per_class_calls(k, d, seed, data):
    classes = data.draw(st.lists(st.integers(0, k - 1), min_size=1,
                                 max_size=k, unique=True))
    rng = np.random.default_rng(seed)
    eta, rows = rng.normal(size=(k, d)), rng.normal(size=(len(classes), d))
    one, each = PrototypeBank.create(k, d), PrototypeBank.create(k, d)
    one.eta[:] = each.eta[:] = eta
    ema_update(one, np.array(classes), rows)
    for c, row in zip(classes, rows):
        ema_update(each, c, row)
    np.testing.assert_array_equal(one.eta, each.eta)


def test_grid_probs_over_a_batch_equals_per_item():
    rng = np.random.default_rng(12)
    probs = np.ascontiguousarray(
        rng.dirichlet(np.ones(3), size=(2, 8, 12)).transpose(0, 3, 1, 2))
    got = grid_probs(probs, 2, 3)
    assert got.shape == (2, 6, 3)
    for b in range(2):
        np.testing.assert_array_equal(got[b], grid_probs(probs[b], 2, 3))
        want = probs[b].reshape(3, 2, 4, 3, 4).mean(axis=(2, 4))
        np.testing.assert_array_equal(got[b], want.reshape(3, 6).T)


def test_ema_single_step_arithmetic():
    bank = PrototypeBank.create(2, 3)
    ema_update(bank, 0, np.ones(3))
    np.testing.assert_allclose(bank.eta[0], 0.0001, atol=1e-15)
    np.testing.assert_array_equal(bank.eta[1], 0.0)


def test_ema_fixed_point():
    bank = PrototypeBank.create(1, 2)
    bank.eta[0] = [3.0, -1.0]
    ema_update(bank, 0, np.array([3.0, -1.0]))
    np.testing.assert_array_equal(bank.eta[0], [3.0, -1.0])


def test_ema_closed_form_10000_steps():
    rng = np.random.default_rng(1)
    v = rng.normal(size=5)
    bank = PrototypeBank.create(1, 5)
    for _ in range(10000):
        ema_update(bank, 0, v)
    want = (1.0 - 0.9999 ** 10000) * v
    np.testing.assert_allclose(bank.eta[0], want, atol=1e-9)
    assert abs(1.0 - 0.9999 ** 10000 - 0.6321391) < 1e-6


def test_ema_contraction():
    rng = np.random.default_rng(2)
    v = rng.normal(size=4)
    bank = PrototypeBank.create(1, 4)
    bank.eta[0] = rng.normal(size=4)
    before = np.linalg.norm(bank.eta[0] - v)
    ema_update(bank, 0, v)
    after = np.linalg.norm(bank.eta[0] - v)
    np.testing.assert_allclose(after, 0.9999 * before, rtol=1e-12)


def test_ema_rejects_nonfinite():
    bank = PrototypeBank.create(1, 2)
    with pytest.raises(FloatingPointError):
        ema_update(bank, 0, np.array([np.nan, 0.0]))


def test_initialize_bank_global_centroid():
    feats1 = np.array([[1.0, 0.0], [3.0, 0.0]])
    probs1 = np.array([[1.0, 0.0], [0.5, 0.5]])     # both argmax 0 (tie -> 0)
    feats2 = np.array([[0.0, 2.0]])
    probs2 = np.array([[0.1, 0.9]])
    bank = PrototypeBank.create(2, 2)
    initialize_bank(bank, [(feats1, probs1), (feats2, probs2)])
    assert bank.initialized
    np.testing.assert_allclose(bank.eta[0],
                               (1.0 * feats1[0] + 0.5 * feats1[1]) / 1.5,
                               atol=1e-12)
    np.testing.assert_allclose(bank.eta[1], [0.0, 2.0], atol=1e-12)


# ---------------------------------------------------------------------------
# pseudo-label correction
# ---------------------------------------------------------------------------


def _labels_from_conf(hard, conf):
    """Two-class soft labels from hard assignment + confidence."""
    h, w = hard.shape
    probs = np.empty((2, h, w))
    probs[0] = np.where(hard == 0, conf, 1.0 - conf)
    probs[1] = np.where(hard == 1, conf, 1.0 - conf)
    return PseudoLabels(probs=probs, valid=conf >= 0.9)


def test_correction_requires_initialized_bank():
    bank = PrototypeBank.create(2, 4)
    labels = _labels_from_conf(np.zeros((2, 2), dtype=int), np.full((2, 2), 0.95))
    with pytest.raises(ValueError):
        correct_pseudo_labels(labels, np.zeros((4, 4)), (2, 2), bank)


def test_correction_pulls_toward_exact_prototype():
    bank = PrototypeBank.create(2, 2)
    bank.eta = np.array([[1.0, 0.0], [0.0, 1.0]])
    bank.initialized = True
    # one feature sitting exactly on prototype 0 but labeled class 1 softly
    feats = np.array([[1.0, 0.0]])
    labels = _labels_from_conf(np.array([[1]]), np.array([[0.6]]))
    out = correct_pseudo_labels(labels, feats, (1, 1), bank)
    assert out.probs[:, 0, 0].argmax() == 0
    np.testing.assert_allclose(out.probs.sum(axis=0), 1.0, atol=1e-9)


def test_correction_uniform_affinity_is_identity():
    bank = PrototypeBank.create(2, 2)
    bank.eta = np.array([[1.0, 0.0], [-1.0, 0.0]])
    bank.initialized = True
    feats = np.array([[0.0, 5.0]])                 # equidistant from both
    labels = _labels_from_conf(np.array([[0]]), np.array([[0.8]]))
    out = correct_pseudo_labels(labels, feats, (1, 1), bank)
    np.testing.assert_allclose(out.probs, labels.probs, atol=1e-12)


def test_correction_never_mutates_warmup_probs():
    bank = PrototypeBank.create(2, 2)
    bank.eta = np.array([[1.0, 0.0], [0.0, 1.0]])
    bank.initialized = True
    labels = _labels_from_conf(np.array([[1, 0]]), np.array([[0.7, 0.95]]))
    before = labels.probs.copy()
    correct_pseudo_labels(labels, np.array([[1.0, 0.0], [0.9, 0.1]]),
                          (1, 2), bank)
    np.testing.assert_array_equal(labels.probs, before)


def _two_cluster_case(seed, n_side=20, flip_frac=0.2, flip_conf=0.7):
    """Antipodal unit clusters with a fraction of flipped warm-up labels.

    Returns (labels, feats, grid, truth, flipped_mask).
    """
    rng = np.random.default_rng(seed)
    n = n_side * n_side
    d = 8
    u0 = np.zeros(d)
    u0[0] = 1.0
    u1 = -u0
    truth = rng.integers(0, 2, size=n)
    feats = np.where(truth[:, None] == 0, u0, u1) + 0.05 * rng.normal(size=(n, d))
    feats /= np.linalg.norm(feats, axis=1, keepdims=True)
    flipped = np.zeros(n, dtype=bool)
    flipped[rng.choice(n, size=int(flip_frac * n), replace=False)] = True
    hard = np.where(flipped, 1 - truth, truth)
    conf = np.where(flipped, flip_conf, 0.95)
    labels = _labels_from_conf(hard.reshape(n_side, n_side),
                               conf.reshape(n_side, n_side))
    return labels, feats, (n_side, n_side), truth, flipped


def test_correction_recovers_flipped_cluster_labels():
    labels, feats, grid, truth, flipped = _two_cluster_case(3)
    probs_flat = labels.probs.reshape(2, -1).T
    bank = PrototypeBank.create(2, feats.shape[1])
    initialize_bank(bank, [(feats, probs_flat)])
    out = correct_pseudo_labels(labels, feats, grid, bank)
    hard = out.probs.argmax(axis=0).ravel()
    recovered = (hard[flipped] == truth[flipped]).mean()
    assert recovered >= 0.95
    # the untouched labels stay put
    assert (hard[~flipped] == truth[~flipped]).mean() >= 0.99
    np.testing.assert_allclose(out.probs.sum(axis=0), 1.0, atol=1e-9)


def test_correction_upsamples_grid_affinity():
    """Features on a 2x2 grid correct an 8x8 label map via bilinear weights."""
    bank = PrototypeBank.create(2, 2)
    bank.eta = np.array([[1.0, 0.0], [0.0, 1.0]])
    bank.initialized = True
    feats = np.array([[1.0, 0.0]] * 4)
    labels = _labels_from_conf(np.ones((8, 8), dtype=int), np.full((8, 8), 0.6))
    out = correct_pseudo_labels(labels, feats, (2, 2), bank)
    assert out.probs.shape == (2, 8, 8)
    assert (out.probs.argmax(axis=0) == 0).all()


def _upsample_channels(arr, out_h, out_w):
    """Bilinear resize of [K, h, w] as one einsum: the correction's own
    resampler before it shared the engine's channels-first rule."""
    k, h, w = arr.shape
    ay = interp_matrix(h, out_h)
    ax = interp_matrix(w, out_w)
    return np.einsum("pi,kiw,qw->kpq", ay, arr, ax, optimize=True)


def _correct_broadcast(labels, feats, grid, bank, temperature, tau):
    """The correction with every class distance from one [N, K, D]
    broadcast, as it was first written."""
    kk, hh, ww = labels.probs.shape
    diff = feats[:, None, :] - bank.eta[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    z = -dist / temperature
    z -= z.max(axis=1, keepdims=True)
    kw = np.exp(z)
    kw /= kw.sum(axis=1, keepdims=True)
    kw_full = _upsample_channels(kw.T.reshape(kk, *grid), hh, ww)
    p = kw_full * labels.probs
    p /= p.sum(axis=0, keepdims=True)
    return PseudoLabels(probs=p, valid=p.max(axis=0) >= tau)


@pytest.mark.parametrize("k", [2, 3])
def test_correction_matches_broadcast_distances_bit_for_bit(k):
    rng = np.random.default_rng(40 + k)
    grid, d = (16, 16), 512         # the default stage-0 grid and width
    logits = rng.normal(size=(k, 64, 64))
    probs = np.exp(logits) / np.exp(logits).sum(axis=0)
    labels = PseudoLabels(probs=probs, valid=probs.max(axis=0) >= 0.6)
    feats = rng.normal(size=(grid[0] * grid[1], d))
    bank = PrototypeBank.create(k, d)
    bank.eta[:] = rng.normal(size=(k, d))
    bank.initialized = True
    out = correct_pseudo_labels(labels, feats, grid, bank, 0.7, 0.6)
    want = _correct_broadcast(labels, feats, grid, bank, 0.7, 0.6)
    np.testing.assert_array_equal(out.probs, want.probs)
    np.testing.assert_array_equal(out.valid, want.valid)


def _random_correction_case(rng, lead, k, grid, d, scale=4):
    """Labels [*lead, k, H, W] at ``scale`` times the grid, features
    [*lead, N, D] and an initialized bank."""
    logits = rng.normal(size=(*lead, k, grid[0] * scale, grid[1] * scale))
    probs = np.exp(logits) / np.exp(logits).sum(axis=-3, keepdims=True)
    labels = PseudoLabels(probs=probs, valid=probs.max(axis=-3) >= 0.6)
    feats = rng.normal(size=(*lead, grid[0] * grid[1], d))
    bank = PrototypeBank.create(k, d)
    bank.eta[:] = rng.normal(size=(k, d))
    bank.initialized = True
    return labels, feats, bank


@settings(max_examples=60, deadline=None)
@given(b=st.integers(1, 3), k=st.integers(2, 3), g=st.integers(1, 16),
       seed=st.integers(0, 2 ** 31 - 1))
def test_batched_correction_equals_per_item_calls(b, k, g, seed):
    """One call over [B, K, H, W] labels and [B, N, D] features gives each
    item's per-item result bit for bit."""
    labels, feats, bank = _random_correction_case(
        np.random.default_rng(seed), (b,), k, (g, g), 6)
    out = correct_pseudo_labels(labels, feats, (g, g), bank, 0.7, 0.6)
    assert out.probs.shape == labels.probs.shape
    for i in range(b):
        one = correct_pseudo_labels(
            PseudoLabels(probs=labels.probs[i], valid=labels.valid[i]),
            feats[i], (g, g), bank, 0.7, 0.6)
        np.testing.assert_array_equal(out.probs[i], one.probs)
        np.testing.assert_array_equal(out.valid[i], one.valid)


@pytest.mark.parametrize("b,g", [(3, 5), (2, 16), (1, 9)])
def test_blocked_distances_match_the_broadcast_per_item(b, g):
    """The distances run over the flattened [B*N, D] rows in fixed blocks,
    which here straddle items (75 and 81 rows) or align with them (2 x 256);
    every item still equals the one-broadcast correction bit for bit at
    the default feature width."""
    labels, feats, bank = _random_correction_case(
        np.random.default_rng(50 + b), (b,), 2, (g, g), 512)
    out = correct_pseudo_labels(labels, feats, (g, g), bank, 0.7, 0.6)
    for i in range(b):
        want = _correct_broadcast(
            PseudoLabels(probs=labels.probs[i], valid=labels.valid[i]),
            feats[i], (g, g), bank, 0.7, 0.6)
        np.testing.assert_array_equal(out.probs[i], want.probs)
        np.testing.assert_array_equal(out.valid[i], want.valid)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(2, 3), gh=st.integers(1, 16), gw=st.integers(1, 16),
       scale=st.sampled_from([1, 2, 4]), seed=st.integers(0, 2 ** 31 - 1))
def test_correction_matches_the_einsum_resampler(k, gh, gw, scale, seed):
    """The affinity map is resampled by the engine's channels-first
    bilinear rule.  On square grids, the only ones a square crop gives,
    this equals the einsum resampler it replaced bit for bit.  The two sum
    in different orders on non-square grids, where the einsum differs in
    the last bit on about a quarter of shapes, so those are held to
    rounding."""
    labels, feats, bank = _random_correction_case(
        np.random.default_rng(seed), (), k, (gh, gw), 5, scale)
    out = correct_pseudo_labels(labels, feats, (gh, gw), bank, 0.7, 0.6)
    want = _correct_broadcast(labels, feats, (gh, gw), bank, 0.7, 0.6)
    if gh == gw:
        np.testing.assert_array_equal(out.probs, want.probs)
        np.testing.assert_array_equal(out.valid, want.valid)
    else:
        np.testing.assert_allclose(out.probs, want.probs, rtol=1e-13,
                                   atol=1e-15)


# ---------------------------------------------------------------------------
# warm-up pseudo labels
# ---------------------------------------------------------------------------


def test_warmup_validity_thresholds():
    """A zero classifier makes the two logits of every pixel equal: the
    planes read class 0 at confidence exactly 0.5, valid at tau 0.5 and
    not at 0.9."""
    from quadseg.decoder import DecoderConfig
    from quadseg.encoder import EncoderConfig
    from quadseg.model import init_model_params

    enc = EncoderConfig(channels=(4, 8), depths=(1, 1), heads=(1, 2),
                        sr_ratios=(1, 1))
    dec = DecoderConfig(embed_dim=8)
    params = init_model_params(enc, dec, np.random.default_rng(4))
    params["dec.head.cls.w"].data[:] = 0.0
    params["dec.head.cls.b"].data[:] = 0.0
    img = np.random.default_rng(5).random((3, 16, 16))
    ((tok, _, dims),) = warmup_pseudo_labels(params, enc, dec, [img])
    hard, conf = pseudo_label_planes(tok, dims[0], 16, 16)
    assert hard.dtype == np.uint8 and hard.shape == conf.shape == (1, 16, 16)
    assert not hard.any() and (conf == 0.5).all()
    assert not decode_pseudo_labels(hard, conf, 2, tau=0.9).valid.any()
    pl_all = decode_pseudo_labels(hard, conf, 2, tau=0.5)
    assert pl_all.valid.all()
    np.testing.assert_array_equal(pl_all.probs.sum(axis=-3), 1.0)


def test_pseudo_label_pass_is_lazy():
    """The pass pulls one chunk of INFER_CHUNK images from a generator
    before it yields that chunk's token logits, so a corpus's float images
    are never all resident at once."""
    from quadseg.decoder import DecoderConfig
    from quadseg.encoder import EncoderConfig
    from quadseg.model import INFER_CHUNK, init_model_params

    enc = EncoderConfig(channels=(4, 8), depths=(1, 1), heads=(1, 2),
                        sr_ratios=(1, 1))
    dec = DecoderConfig(embed_dim=8)
    params = init_model_params(enc, dec, np.random.default_rng(4))
    pulled = []

    def images():
        rng = np.random.default_rng(5)
        for k in range(3 * INFER_CHUNK):
            pulled.append(k)
            yield rng.random((3, 16, 16))

    chunks = warmup_pseudo_labels(params, enc, dec, images())
    tok, _, dims = next(chunks)
    assert tok.shape == (INFER_CHUNK, 4 * 4, 2) and dims[0] == (4, 4)
    assert len(pulled) == INFER_CHUNK
    assert [len(t) for t, _, _ in chunks] == [INFER_CHUNK, INFER_CHUNK]
    assert len(pulled) == 3 * INFER_CHUNK


def test_chunked_inference_matches_per_image():
    """The token logits ``warmup_pseudo_labels`` yields, the planes
    ``pseudo_label_planes`` derives from them, and the logits and initial
    prototype bank of ``adapt``'s target pass, computed INFER_CHUNK images
    per forward with a ragged last chunk, equal the one-image-per-forward
    results bit for bit.  The per-image planes are the softmax of
    ``infer_target_sourcefree``'s logits, so the derivation is the
    inference path's.  The bank is seeded from the decoded planes; with
    correction off the pass fills the same logits and makes no bank."""
    from quadseg.config import RunConfig
    from quadseg.dataset import Sample
    from quadseg.decoder import augmented_features, mask_probs
    from quadseg.model import (INFER_CHUNK, infer_target_sourcefree,
                               infer_target_tokens, init_model_params)
    from quadseg.tensor import Tensor
    from quadseg.train import _target_pass

    cfg = RunConfig(channels=(4, 8), depths=(1, 1), heads=(1, 2),
                    sr_ratios=(2, 1), embed_dim=8, crop=32, tau=0.6)
    enc, dec = cfg.encoder_config(), cfg.decoder_config()
    params = init_model_params(enc, dec, np.random.default_rng(7))
    rng = np.random.default_rng(8)
    images = [rng.random((3, 32, 32)) for _ in range(2 * INFER_CHUNK + 1)]
    chunks = list(warmup_pseudo_labels(params, enc, dec, images))
    assert [len(t) for t, _, _ in chunks] == [INFER_CHUNK, INFER_CHUNK, 1]
    want_tok, want_hard, want_conf, feats = [], [], [], []
    for img in images:
        want_tok.append(infer_target_tokens(params, enc, dec, Tensor(img))[0].data)
        logits, maps, dims = infer_target_sourcefree(params, enc, dec, Tensor(img))
        probs = mask_probs(logits).data
        want_hard.append(class_argmax(probs))
        want_conf.append(probs.max(axis=0))
        held = decode_pseudo_labels(want_hard[-1], want_conf[-1], 2, tau=0.6)
        feats.append((augmented_features(maps, dims),
                      grid_probs(held.probs, *dims[0])))
    np.testing.assert_array_equal(np.concatenate([t for t, _, _ in chunks]),
                                  want_tok)
    planes = [pseudo_label_planes(t, dims[0], 32, 32) for t, _, dims in chunks]
    np.testing.assert_array_equal(np.concatenate([h for h, _ in planes]),
                                  want_hard)
    np.testing.assert_array_equal(np.concatenate([c for _, c in planes]),
                                  want_conf)
    chunk_feats = [f for _, maps, dims in chunks
                   for f in augmented_features(maps, dims)]
    for got, (want, _) in zip(chunk_feats, feats, strict=True):
        np.testing.assert_array_equal(got, want)
    samples = [Sample(img, None, i) for i, img in enumerate(images)]
    tok, grid, size, bank = _target_pass(params, cfg, samples, True)
    assert tok.dtype == np.float64 and grid == dims[0]
    assert tuple(size) == (32, 32)
    np.testing.assert_array_equal(tok, want_tok)
    want = PrototypeBank.create(cfg.num_classes, bank.eta.shape[1],
                                lam=cfg.lambda_ema)
    initialize_bank(want, feats)
    np.testing.assert_array_equal(bank.eta, want.eta)
    assert bank.initialized
    plain_tok, plain_grid, plain_size, none = _target_pass(params, cfg,
                                                           samples, False)
    assert none is None and (plain_grid, plain_size) == (grid, size)
    np.testing.assert_array_equal(plain_tok, tok)


def _softmax_planes(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (hard, confidence) planes of [n, 2] logits, as
    ``pseudo_label_planes`` derives them from n tokens on a 1 x n grid."""
    n = len(logits)
    with np.errstate(over="ignore"):      # a gap past the float range
        return pseudo_label_planes(logits, (1, n), 1, n)


@st.composite
def _logit_pairs(draw):
    """A finite logit pair: two free draws, or one draw and a copy of it
    moved 0-4 ulps either way (0 is an exact tie), in either order."""
    a = draw(st.floats(allow_nan=False, allow_infinity=False))
    if draw(st.booleans()):
        b = draw(st.floats(allow_nan=False, allow_infinity=False))
    else:
        b, ulps = a, draw(st.integers(-4, 4))
        with np.errstate(over="ignore"):
            for _ in range(abs(ulps)):
                b = float(np.nextafter(b, math.copysign(math.inf, ulps)))
        assume(math.isfinite(b))
    return (a, b) if draw(st.booleans()) else (b, a)


@settings(max_examples=300, deadline=None)
@given(st.lists(_logit_pairs(), min_size=1, max_size=12),
       st.floats(0.0, 1.0))
@example([(0.3, 0.30000000000000004), (2.0, 2.0), (-1e308, 1e308)], 0.5)
def test_softmax_planes_decode_to_their_hard_map(pairs, tau):
    """Planes made by a 2-class softmax decode back to their own hard map,
    valid where the confidence reaches tau.  The one exception: a line
    whose confidence rounds to exactly 0.5 decodes as a tie, which
    ``class_argmax`` gives to the background."""
    hard, conf = _softmax_planes(np.array(pairs, dtype=np.float64))
    pl = decode_pseudo_labels(hard, conf, 2, tau)
    assert (conf >= 0.5).all()
    np.testing.assert_array_equal(class_argmax(pl.probs),
                                  np.where(conf == 0.5, 0, hard))
    np.testing.assert_array_equal(pl.valid, conf >= tau)


def test_a_one_ulp_line_win_decodes_as_a_background_tie():
    """The exception is reachable: logits one ulp apart give a hard 1 at
    confidence exactly 0.5."""
    hard, conf = _softmax_planes(np.array([[0.3, np.nextafter(0.3, 1.0)]]))
    assert hard.item() == 1 and conf.item() == 0.5
    assert class_argmax(decode_pseudo_labels(hard, conf, 2, 0.5).probs).item() == 0


def test_pseudo_label_roundtrip_exact_two_class(tmp_path):
    rng = np.random.default_rng(6)
    logits = rng.normal(size=(2, 8, 8))
    probs = np.exp(logits - logits.max(axis=0))
    probs /= probs.sum(axis=0)
    save_pseudo_labels(str(tmp_path), 7, class_argmax(probs),
                       probs.max(axis=0))
    back = load_pseudo_labels(str(tmp_path), 7, 2, tau=0.9)
    # hard labels and winning confidences survive bit-exactly; the losing
    # channel is reconstructed as 1 - conf, so the pair sums to exactly one
    np.testing.assert_array_equal(back.probs.argmax(axis=0),
                                  probs.argmax(axis=0))
    np.testing.assert_array_equal(back.probs.max(axis=0), probs.max(axis=0))
    np.testing.assert_array_equal(back.probs.sum(axis=0), 1.0)
    np.testing.assert_array_equal(back.valid, probs.max(axis=0) >= 0.9)


@pytest.mark.parametrize("k", [2, 3])
def test_compact_planes_decode_like_the_persisted_labels(tmp_path, k):
    """The planes a run holds in memory, (hard map, confidence), are the
    planes the files hold, and decode bit for bit to what
    ``load_pseudo_labels`` rebuilds from the files, with or without
    leading dims."""
    rng = np.random.default_rng(20 + k)
    logits = rng.normal(size=(k, 9, 7))
    probs = np.exp(logits) / np.exp(logits).sum(axis=0)
    hard, conf = class_argmax(probs), probs.max(axis=0)
    save_pseudo_labels(str(tmp_path), 3, hard, conf)
    file_hard = read_pgm(str(tmp_path / "0003.pgm"))
    file_conf = read_f64(str(tmp_path / "0003.conf"), hard.shape)
    assert file_hard.dtype == np.uint8 and file_conf.dtype == np.float64
    np.testing.assert_array_equal(file_hard, hard)
    np.testing.assert_array_equal(file_conf, conf)
    held = decode_pseudo_labels(hard, conf, k, tau=0.5)
    loaded = load_pseudo_labels(str(tmp_path), 3, k, tau=0.5)
    np.testing.assert_array_equal(held.probs, loaded.probs)
    np.testing.assert_array_equal(held.valid, loaded.valid)
    for c in range(k):    # the winner keeps its confidence, the rest share
        np.testing.assert_array_equal(
            held.probs[c], np.where(hard == c, conf, (1.0 - conf) / (k - 1)))
    np.testing.assert_array_equal(held.valid, conf >= 0.5)
    batched = decode_pseudo_labels(np.stack([hard, hard[::-1]]),
                                   np.stack([conf, conf[::-1]]), k, tau=0.5)
    assert batched.probs.shape == (2, k, 9, 7)
    np.testing.assert_array_equal(batched.probs[0], held.probs)
    np.testing.assert_array_equal(
        batched.probs[1],
        decode_pseudo_labels(hard[::-1], conf[::-1], k, tau=0.5).probs)
    np.testing.assert_array_equal(batched.valid[0], held.valid)


# ---------------------------------------------------------------------------
# SSIM
# ---------------------------------------------------------------------------


def _ssim_oracle(a, b, window=8):
    """Independent direct-formula implementation, one window at a time."""
    c1, c2 = 0.01 ** 2, 0.03 ** 2
    th, tw = a.shape[0] // window, a.shape[1] // window
    vals = []
    for i in range(th):
        for j in range(tw):
            wa = a[i * window:(i + 1) * window, j * window:(j + 1) * window]
            wb = b[i * window:(i + 1) * window, j * window:(j + 1) * window]
            n = window * window
            mu_a = wa.sum() / n
            mu_b = wb.sum() / n
            var_a = ((wa - mu_a) ** 2).sum() / n
            var_b = ((wb - mu_b) ** 2).sum() / n
            cov = ((wa - mu_a) * (wb - mu_b)).sum() / n
            vals.append(((2 * mu_a * mu_b + c1) * (2 * cov + c2))
                        / ((mu_a ** 2 + mu_b ** 2 + c1) * (var_a + var_b + c2)))
    return sum(vals) / len(vals)


def test_ssim_identity_is_exactly_one():
    rng = np.random.default_rng(7)
    a = rng.random((16, 16))
    assert ssim(a, a) == 1.0


def test_ssim_anticorrelated_negative():
    rng = np.random.default_rng(8)
    a = (rng.random((16, 16)) > 0.5).astype(float)
    assert ssim(a, 1.0 - a) < 0.0


def test_ssim_symmetric():
    rng = np.random.default_rng(9)
    a, b = rng.random((16, 16)), rng.random((16, 16))
    assert abs(ssim(a, b) - ssim(b, a)) < 1e-12


def test_ssim_matches_brute_force_oracle():
    rng = np.random.default_rng(10)
    for _ in range(20):
        a, b = rng.random((16, 16)), rng.random((16, 16))
        assert abs(ssim(a, b) - _ssim_oracle(a, b)) < 1e-9


def test_ssim_size_mismatch_rejected():
    with pytest.raises(ValueError):
        ssim(np.zeros((16, 16)), np.zeros((8, 8)))
    with pytest.raises(ValueError):
        ssim(np.zeros((4, 4)), np.zeros((4, 4)), window=8)


def test_grayscale_luma():
    img = np.zeros((3, 4, 4))
    img[0] = 1.0
    np.testing.assert_allclose(to_grayscale(img), 0.299, atol=1e-15)


# ---------------------------------------------------------------------------
# two-way pairing
# ---------------------------------------------------------------------------


def _brute_force_pairs(src, tgt):
    sims = {}
    for i, a in enumerate(src):
        for j, b in enumerate(tgt):
            sims[(i, j)] = ssim(a, b)
    chosen = set()
    for i in range(len(src)):
        best = max(range(len(tgt)), key=lambda j: (sims[(i, j)], -j))
        chosen.add((i, best))
    for j in range(len(tgt)):
        best = max(range(len(src)), key=lambda i: (sims[(i, j)], -i))
        chosen.add((best, j))
    return chosen


def _scalar_pairs(src, tgt, window=8):
    """Exhaustive scalar-ssim pairing with the first-index tie-break."""
    sims = [[ssim(a, b, window) for b in tgt] for a in src]
    chosen = {(i, max(range(len(tgt)), key=lambda j: (sims[i][j], -j)))
              for i in range(len(src))}
    chosen |= {(max(range(len(src)), key=lambda i: (sims[i][j], -i)), j)
               for j in range(len(tgt))}
    return sorted(chosen)


@pytest.mark.parametrize("h, w, window", [(16, 16, 8), (64, 64, 8),
                                          (17, 23, 8), (13, 10, 4)])
def test_ssim_matrix_matches_scalar_ssim(h, w, window):
    rng = np.random.default_rng(h * w + window)
    src = [rng.random((h, w)) for _ in range(5)]
    tgt = [rng.random((h, w)) for _ in range(4)]
    m = ssim_matrix(src, tgt, window)
    want = np.array([[ssim(a, b, window) for b in tgt] for a in src])
    assert m.shape == (5, 4)
    assert np.abs(m - want).max() <= 1e-12


def test_ssim_matrix_identical_corpus_diagonal_exactly_one():
    rng = np.random.default_rng(15)
    imgs = [rng.random((24, 20)) for _ in range(40)]
    m = ssim_matrix(imgs, imgs)
    assert np.all(np.diag(m) == 1.0)


def test_ssim_matrix_entries_do_not_depend_on_blocks():
    """Both corpora are read in blocks; each entry equals the one its pair
    gets when scored alone, bit for bit."""
    rng = np.random.default_rng(16)
    src = [rng.random((16, 16)) for _ in range(37)]
    tgt = [rng.random((16, 16)) for _ in range(20)]
    m = ssim_matrix(iter(src), iter(tgt))
    alone = [[ssim_matrix([a], [b])[0, 0] for b in tgt] for a in src]
    np.testing.assert_array_equal(m, alone)


def test_ssim_matrix_rejects_mismatched_sizes():
    with pytest.raises(ValueError, match="sizes disagree"):
        ssim_matrix([np.zeros((16, 16))], [np.zeros((16, 17))])
    with pytest.raises(ValueError, match="sizes disagree"):
        ssim_matrix([np.zeros((16, 16))],
                    [np.zeros((16, 16)), np.zeros((8, 8))])
    with pytest.raises(ValueError, match="smaller than window"):
        ssim_matrix([np.zeros((4, 4))], [np.zeros((4, 4))])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), ns=st.integers(1, 7),
       nt=st.integers(1, 7), window=st.sampled_from([4, 8]),
       extra=st.tuples(st.integers(0, 9), st.integers(0, 9)),
       copies=st.integers(0, 3))
def test_pairing_from_generators_matches_scalar_pairing(seed, ns, nt, window,
                                                       extra, copies):
    """Pairs from one-shot generators equal those from lists and those of
    the exhaustive scalar pairing.  Some targets may be copies of sources,
    so exact ties (ssim(a, a) == 1) go through the first-index rule."""
    rng = np.random.default_rng(seed)
    shape = (window + extra[0], window + extra[1])
    src = [rng.random(shape) for _ in range(ns)]
    tgt = [rng.random(shape) for _ in range(nt)]
    for k in range(min(copies, nt)):
        tgt[k] = src[k % ns].copy()
    from_lists = pair_two_way(src, tgt, window)
    from_gens = pair_two_way((a for a in src), (b for b in tgt), window)
    assert from_gens.pairs == from_lists.pairs
    assert from_gens.sims == from_lists.sims
    assert from_gens.pairs == _scalar_pairs(src, tgt, window)


def test_pairing_singletons():
    rng = np.random.default_rng(11)
    ps = pair_two_way([rng.random((8, 8))], [rng.random((8, 8))])
    assert ps.pairs == [(0, 0)]


def test_pairing_identity_corpus():
    rng = np.random.default_rng(12)
    imgs = [rng.random((16, 16)) for _ in range(6)]
    ps = pair_two_way(imgs, list(imgs))
    assert ps.pairs == [(i, i) for i in range(6)]
    assert all(s == 1.0 for s in ps.sims)


def test_pairing_matches_brute_force_5x5():
    rng = np.random.default_rng(13)
    src = [rng.random((16, 16)) for _ in range(5)]
    tgt = [rng.random((16, 16)) for _ in range(5)]
    ps = pair_two_way(src, tgt)
    assert set(ps.pairs) == _brute_force_pairs(src, tgt)


def test_pairing_coverage_random_corpora():
    rng = np.random.default_rng(14)
    for _ in range(10):
        ns, nt = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        src = [rng.random((8, 8)) for _ in range(ns)]
        tgt = [rng.random((8, 8)) for _ in range(nt)]
        ps = pair_two_way(src, tgt)
        assert {i for i, _ in ps.pairs} == set(range(ns))
        assert {j for _, j in ps.pairs} == set(range(nt))
        assert len(ps.pairs) <= ns + nt


def test_pairing_rejects_empty():
    with pytest.raises(ValueError):
        pair_two_way([], [np.zeros((8, 8))])


def test_pairs_tsv_roundtrip(tmp_path):
    ps = PairSet(pairs=[(0, 1), (1, 0)], sims=[0.25, 0.75])
    sp = ["source/images/0000.ppm", "source/images/0001.ppm"]
    tp = ["target/images/0000.ppm", "target/images/0001.ppm"]
    path = str(tmp_path / "pairs.tsv")
    write_pairs(path, ps, sp, tp)
    back = read_pairs(path, sp, tp)
    assert back.pairs == ps.pairs
    assert back.sims == ps.sims
    text = Path(path).read_text()
    assert "source/images/0000.ppm\ttarget/images/0001.ppm\t0.25" in text


def test_pairs_tsv_matches_paths_by_real_path(tmp_path, monkeypatch):
    """A pairing written with one spelling of the corpus root reads back
    with the others."""
    monkeypatch.chdir(tmp_path)
    os.makedirs("data/source/images")
    ps = PairSet(pairs=[(0, 1), (1, 0)], sims=[0.25, 0.75])
    src, tgt = ["0000.ppm", "0001.ppm"], ["0000.ppm", "0001.ppm"]

    def paths(root, domain, names):
        return [os.path.join(root, domain, "images", n) for n in names]

    write_pairs("pairs.tsv", ps, paths("data", "source", src),
                paths("data", "target", tgt))
    for root in ("./data", str(tmp_path / "data"), "data/source/../"):
        back = read_pairs("pairs.tsv", paths(root, "source", src),
                          paths(root, "target", tgt))
        assert back.pairs == ps.pairs and back.sims == ps.sims
    with pytest.raises(ValueError, match="unknown image path"):
        read_pairs("pairs.tsv", paths("data", "target", src),
                   paths("data", "source", tgt))


def test_pairs_tsv_rejects_unknown_path(tmp_path):
    path = str(tmp_path / "pairs.tsv")
    with open(path, "w") as fh:
        fh.write("nope.ppm\talso-nope.ppm\t0.5\n")
    with pytest.raises(ValueError):
        read_pairs(path, ["a.ppm"], ["b.ppm"])


_SRC_PATHS = [f"source/images/{i:04d}.ppm" for i in range(5)]
_TGT_PATHS = [f"target/images/{i:04d}.ppm" for i in range(5)]
_ROWS = st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4),
                           st.floats(allow_nan=False, allow_infinity=False)),
                 min_size=1, max_size=8)


def _finite_number(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


@settings(max_examples=100, deadline=None)
@given(rows=_ROWS)
def test_pairs_tsv_written_pairs_read_back_equal(rows):
    ps = PairSet(pairs=[(i, j) for i, j, _ in rows],
                 sims=[s for _, _, s in rows])
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "pairs.tsv")
        write_pairs(path, ps, _SRC_PATHS, _TGT_PATHS)
        back = read_pairs(path, _SRC_PATHS, _TGT_PATHS)
    assert back.pairs == ps.pairs
    assert [s.hex() for s in back.sims] == [s.hex() for s in ps.sims]


@settings(max_examples=200, deadline=None)
@given(rows=_ROWS, at=st.integers(0, 7), data=st.data())
def test_pairs_tsv_rejects_each_malformed_line(rows, at, data):
    """One line of a written pairing is replaced by a malformed one: a
    wrong field count, an unknown path, or an ssim that is not a finite
    number.  The reader names that line."""
    at = at % len(rows)
    sp, tp = _SRC_PATHS[rows[at][0]], _TGT_PATHS[rows[at][1]]
    sim = data.draw(st.one_of(
        st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity", "1e999",
                         "", "0.5.1", "0x1p-2"]),
        st.text(st.characters(min_codepoint=32, max_codepoint=126),
                max_size=10)))
    bad = data.draw(st.sampled_from([
        f"{sp}\t{tp}", f"{sp}\t{tp}\t0.5\t0.5", f"{sp}\t{tp}\t{sim}",
        f"nope.ppm\t{tp}\t0.5", f"{sp}\t{tp}.x\t0.5"]))
    assume(bad != f"{sp}\t{tp}\t{sim}" or not _finite_number(sim))
    ps = PairSet(pairs=[(i, j) for i, j, _ in rows],
                 sims=[s for _, _, s in rows])
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "pairs.tsv")
        write_pairs(path, ps, _SRC_PATHS, _TGT_PATHS)
        with open(path, encoding="ascii") as fh:
            lines = fh.read().splitlines()
        lines[at] = bad
        with open(path, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
        where = rf"^{re.escape(path)}:{at + 1}: "
        with pytest.raises(ValueError, match=where):
            read_pairs(path, _SRC_PATHS, _TGT_PATHS)


@pytest.mark.parametrize("text", ["", "\n\n"])
def test_pairs_tsv_rejects_an_empty_pairing(tmp_path, text):
    path = str(tmp_path / "pairs.tsv")
    with open(path, "w") as fh:
        fh.write(text)
    with pytest.raises(ValueError, match=rf"^{re.escape(path)}: no pairs"):
        read_pairs(path, ["a.ppm"], ["b.ppm"])
