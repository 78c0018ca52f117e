"""Losses, discriminator, optimizer: analytic oracles and measured runs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadseg import objectives
from quadseg.objectives import (
    AdamW,
    DiscConfig,
    OptimizerDiverged,
    disc_loss,
    discriminator_forward,
    gen_adv_loss,
    init_disc_params,
    lr_schedule,
    seg_cross_entropy,
    total_loss,
)
from quadseg.tensor import (
    ShapeError,
    Tape,
    Tensor,
    finite_diff_check,
    gather,
    log_likelihood,
    log_softmax,
    reshape,
    softmax,
    softplus,
    softplus_means,
    tmean,
    transpose,
    tsum,
)

# ---------------------------------------------------------------------------
# segmentation cross-entropy
# ---------------------------------------------------------------------------


def test_ce_perfect_prediction_is_zero():
    logits = np.zeros((2, 2, 2))
    logits[1] = 200.0          # prob ~ 1 on class 1 everywhere
    labels = np.ones((2, 2), dtype=int)
    loss, n = seg_cross_entropy(Tensor(logits), labels)
    assert n == 4
    assert abs(loss.item()) < 1e-12


def test_ce_uniform_two_class_is_ln2():
    loss, _ = seg_cross_entropy(Tensor(np.zeros((2, 3, 3))),
                                np.zeros((3, 3), dtype=int))
    assert abs(loss.item() - math.log(2.0)) < 1e-12


def test_ce_matches_brute_force_oracle():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(3, 2, 2))
    labels = rng.integers(0, 3, size=(2, 2))
    loss, n = seg_cross_entropy(Tensor(logits), labels)
    # direct per-pixel summation
    acc = 0.0
    for i in range(2):
        for j in range(2):
            z = logits[:, i, j]
            p = np.exp(z - z.max())
            p /= p.sum()
            acc -= math.log(p[labels[i, j]])
    assert abs(loss.item() - acc / 4.0) < 1e-12
    assert n == 4


def test_ce_valid_mask_and_zero_valid():
    rng = np.random.default_rng(1)
    logits = Tensor(rng.normal(size=(2, 2, 2)))
    labels = np.zeros((2, 2), dtype=int)
    none_valid = np.zeros((2, 2), dtype=bool)
    loss, n = seg_cross_entropy(logits, labels, valid=none_valid)
    assert n == 0 and loss.item() == 0.0
    one = np.zeros((2, 2), dtype=bool)
    one[0, 0] = True
    loss1, n1 = seg_cross_entropy(logits, labels, valid=one)
    assert n1 == 1
    z = logits.data[:, 0, 0]
    p = np.exp(z - z.max())
    p /= p.sum()
    assert abs(loss1.item() + math.log(p[0])) < 1e-12


def test_ce_class_weights_reweight_pixels():
    """With weights [1, 9] a single class-1 pixel carries 9x the mass of a
    class-0 pixel under the weighted-mean normalization."""
    logits = np.zeros((2, 1, 2))
    logits[:, 0, 0] = [3.0, -1.0]
    logits[:, 0, 1] = [0.5, 2.0]
    labels = np.array([[0, 1]])
    cw = np.array([1.0, 9.0])
    loss, _ = seg_cross_entropy(Tensor(logits), labels, class_weights=cw)

    def nll(z, y):
        p = np.exp(z - z.max())
        p /= p.sum()
        return -math.log(p[y])

    want = (1.0 * nll(logits[:, 0, 0], 0) + 9.0 * nll(logits[:, 0, 1], 1)) / 10.0
    assert abs(loss.item() - want) < 1e-12


def test_ce_nonnegative_property():
    rng = np.random.default_rng(2)
    for _ in range(50):
        logits = Tensor(rng.normal(size=(2, 4, 4)) * 3.0)
        labels = rng.integers(0, 2, size=(4, 4))
        loss, _ = seg_cross_entropy(logits, labels)
        assert loss.item() >= 0.0


def test_ce_rejects_bad_shapes_and_labels():
    with pytest.raises(ShapeError):
        seg_cross_entropy(Tensor(np.zeros((2, 4, 4))), np.zeros((3, 3), dtype=int))
    with pytest.raises(ValueError):
        seg_cross_entropy(Tensor(np.zeros((2, 2, 2))), np.full((2, 2), 5))


def _per_item_ce(logits, labels, valid, class_weights):
    """The per-item loop the batched loss replaced: gather each item,
    move classes last, log-softmax, weighted sum, scale by the item's own
    valid weight, accumulate; an item without valid pixels adds a constant
    zero."""
    acc = Tensor(0.0)
    for b in range(logits.shape[0]):
        item = gather(logits, b)
        k, h, w = item.shape
        loss = Tensor(0.0)
        if valid[b].any():
            onehot = np.zeros((h, w, k))
            iy, ix = np.nonzero(valid[b])
            onehot[iy, ix, labels[b][iy, ix]] = 1.0
            if class_weights is not None:
                onehot *= class_weights
            lp = log_softmax(transpose(item, (1, 2, 0)))
            loss = -(1.0 / onehot.sum()) * tsum(lp * Tensor(onehot))
        acc = acc + loss
    return acc


@pytest.mark.parametrize("batch", [1, 2, 3])
@pytest.mark.parametrize("class_weights", [None, np.array([1.0, 10.0]),
                                           np.array([0.3, 7.1])])
def test_ce_batched_equals_per_item_loop(batch, class_weights):
    """Value and logit gradient are bit-equal to the per-item loop, with
    and without class weights (integer ones, and ones whose sums depend on
    the order they are added in), and with one item that has no valid
    pixel.

    Zeros are compared by value: at an invalid pixel the loop's gradient
    is -0.0 when one item's gather feeds the logits and +0.0 when two do
    (the scatter adds a +0.0), and the batched loss gives -0.0 throughout.
    """
    rng = np.random.default_rng(50 + batch)
    x = rng.normal(size=(batch, 2, 8, 8)) * 3.0
    labels = rng.integers(0, 2, size=(batch, 8, 8))
    valid = rng.random((batch, 8, 8)) > 0.3
    valid[-1] = batch < 2          # the last item of a batch is all invalid

    def run(f):
        logits = Tensor(x.copy())
        with Tape() as tape:
            tape.watch(logits)
            loss = f(logits)
            tape.backward(loss)
        return loss.data.tobytes(), (tape.grad(logits) + 0.0).tobytes()

    assert run(lambda t: seg_cross_entropy(t, labels, valid=valid,
                                           class_weights=class_weights)[0]) \
        == run(lambda t: _per_item_ce(t, labels, valid, class_weights))


@pytest.mark.parametrize("seed", range(4))
def test_ce_weight_totals_sum_in_class_last_order(seed):
    """With class weights whose sums depend on their order, each item's
    total weight is summed in the per-item loop's (h, w, k) order: value
    and gradient bit-equal at 16x16, where the (k, h, w) order rounds
    differently."""
    rng = np.random.default_rng(70 + seed)
    x = rng.normal(size=(2, 2, 16, 16))
    labels = rng.integers(0, 2, size=(2, 16, 16))
    valid = rng.random((2, 16, 16)) > 0.3
    cw = np.array([0.3, 7.1])
    assert _ce_bits(x, lambda t: seg_cross_entropy(
        t, labels, valid=valid, class_weights=cw)[0]) \
        == _ce_bits(x, lambda t: _per_item_ce(t, labels, valid, cw))


def _ce_bits(x, loss_of):
    logits = Tensor(x.copy())
    with Tape() as tape:
        tape.watch(logits)
        loss = loss_of(logits)
        tape.backward(loss)
    return loss.data.tobytes(), (tape.grad(logits) + 0.0).tobytes()


def test_ce_unbatched_is_the_one_item_case():
    rng = np.random.default_rng(60)
    logits = rng.normal(size=(2, 6, 6))
    labels = rng.integers(0, 2, size=(6, 6))
    one, n1 = seg_cross_entropy(Tensor(logits), labels)
    many, n = seg_cross_entropy(Tensor(logits[None]), labels[None])
    assert one.data.tobytes() == many.data.tobytes() and n1 == n == 36


def test_ce_rejects_leading_dims_that_disagree():
    logits = Tensor(np.zeros((2, 2, 4, 4)))
    for labels in (np.zeros((3, 4, 4), int), np.zeros((4, 4), int),
                   np.zeros((1, 2, 4, 4), int)):
        with pytest.raises(ShapeError):
            seg_cross_entropy(logits, labels)
    labels = np.zeros((2, 4, 4), int)
    for valid in (np.ones((1, 4, 4), bool), np.ones((4, 4), bool)):
        with pytest.raises(ShapeError):
            seg_cross_entropy(logits, labels, valid=valid)


def test_ce_gradient():
    rng = np.random.default_rng(3)
    labels = rng.integers(0, 2, size=(4, 4))
    err = finite_diff_check(
        lambda t: seg_cross_entropy(t, labels,
                                    class_weights=np.array([1.0, 10.0]))[0],
        Tensor(rng.normal(size=(2, 4, 4))))
    assert err < 1e-6


def _composed_ce(logits, labels, valid=None, class_weights=None):
    """The loss as the 7-op chain ``log_likelihood`` replaced: log_softmax
    over the class axis, mul by the one-hot weights, transpose to (h, w,
    k), reshape to one row per item, per-row tsum, mul by each item's
    scale, tsum.  The weights and scales are ``seg_cross_entropy``'s."""
    lead, (k, h, w) = logits.shape[:-3], logits.shape[-3:]
    mask = np.ones(labels.shape, bool) if valid is None else valid
    if not mask.any():
        return Tensor(0.0), 0
    onehot = ((labels[..., None, :, :] == np.arange(k)[:, None, None])
              & mask[..., None, :, :]).astype(np.float64)
    if class_weights is not None:
        onehot *= np.asarray(class_weights)[:, None, None]
    items, n = int(np.prod(lead)), len(lead)
    to_hwk = (*range(n), n + 1, n + 2, n)
    total_w = onehot.transpose(to_hwk).reshape(items, -1).sum(axis=-1)
    live = mask.reshape(items, -1).any(axis=-1)
    scale = np.divide(-1.0, total_w, out=np.zeros(items), where=live)
    weighted = log_softmax(logits, axis=-3) * Tensor(onehot)
    per_item = tsum(reshape(transpose(weighted, to_hwk), (items, -1)), axis=-1)
    return tsum(per_item * Tensor(scale)), int(mask.sum())


@st.composite
def _ce_cases(draw):
    """(logits, labels, valid, class_weights, root gradient): batch 1-3,
    K 2-3, small grids, weights off, integer or order-sensitive; the valid
    mask may be all true, random with an all-invalid item, or all false."""
    batch, k = draw(st.integers(1, 3)), draw(st.integers(2, 3))
    h, w = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    logits = rng.normal(size=(batch, k, h, w)) * draw(st.sampled_from([0.5, 3.0, 40.0]))
    labels = rng.integers(0, k, size=(batch, h, w))
    kind = draw(st.sampled_from(["none", "random", "dead item", "all invalid"]))
    valid = None if kind == "none" else rng.random((batch, h, w)) > 0.4
    if kind == "dead item":
        valid[draw(st.integers(0, batch - 1))] = False
    elif kind == "all invalid":
        valid[...] = False
    cw = draw(st.sampled_from([None, "int", "frac"]))
    if cw is not None:
        cw = (rng.integers(1, 12, size=k).astype(float) if cw == "int"
              else rng.uniform(0.1, 9.0, size=k))
    root = draw(st.sampled_from([1.0, 0.5, -1.0, -3.0]))
    return logits, labels, valid, cw, root


@settings(max_examples=150, deadline=None)
@given(_ce_cases(), st.booleans())
def test_ce_equals_the_composed_chain_bitwise(case, unbatched):
    """The one-op loss and the chain it replaced give the same bytes: the
    value, the valid count and the logits' gradient, the sign of every zero
    included; with no valid pixel both return a constant 0 and count 0."""
    x, labels, valid, cw, root = case
    if unbatched:                   # no leading dims: the one-item case
        x, labels = x[0], labels[0]
        valid = None if valid is None else valid[0]
    results = []
    for loss_of in (seg_cross_entropy, _composed_ce):
        logits = Tensor(x.copy())
        with Tape() as tape:
            tape.watch(logits)
            loss, n_valid = loss_of(logits, labels, valid=valid,
                                    class_weights=cw)
            if n_valid:
                tape.backward(loss * Tensor(root))
                grad = tape.grad(logits).tobytes()
            else:
                assert loss.node is None and loss.item() == 0.0
                grad = None
        results.append((loss.data.tobytes(), n_valid, grad))
    assert results[0] == results[1]


def test_ce_is_one_tape_node():
    logits = Tensor(np.random.default_rng(4).normal(size=(2, 2, 4, 4)))
    with Tape() as tape:
        tape.watch(logits)
        seg_cross_entropy(logits, np.zeros((2, 4, 4), int),
                          valid=np.eye(4, dtype=bool)[None].repeat(2, 0))
    assert len(tape.nodes) == 2


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["valid", "invalid", "dead item"])
@pytest.mark.parametrize("cls", [0, 1])
def test_ce_raises_on_a_non_finite_logit(bad, where, cls):
    """The one finite check, on the loss, sees a NaN or an infinity in any
    logit: at a valid pixel, at an invalid one, and in an item without a
    valid pixel, whose scale is 0."""
    x = np.random.default_rng(5).normal(size=(2, 2, 4, 4))
    valid = np.ones((2, 4, 4), bool)
    valid[0, 1, 2] = False
    valid[1] = where != "dead item"
    item, pixel = (0, (1, 2)) if where == "invalid" else \
        (1, (3, 0)) if where == "dead item" else (0, (0, 3))
    x[(item, cls) + pixel] = bad
    labels = np.zeros((2, 4, 4), int)
    with np.errstate(invalid="ignore"):
        with pytest.raises(FloatingPointError, match="log_likelihood"):
            seg_cross_entropy(Tensor(x), labels, valid=valid,
                              class_weights=np.array([1.0, 10.0]))


def test_log_likelihood_checks_its_shapes():
    x = Tensor(np.zeros((2, 2, 3, 3)))
    with pytest.raises(ShapeError):
        log_likelihood(x, np.zeros((2, 2, 3)), np.zeros(2))
    with pytest.raises(ShapeError):
        log_likelihood(x, np.zeros((2, 2, 3, 3)), np.zeros(3))


@pytest.mark.parametrize("lead", [(), (3,)])
def test_ce_gradient_with_a_valid_mask(lead):
    """Central differences of the one-op loss over a batch with a dead item
    and a random valid mask, class weights on."""
    rng = np.random.default_rng(6)
    labels = rng.integers(0, 3, size=(*lead, 3, 4))
    valid = rng.random((*lead, 3, 4)) > 0.3
    if lead:
        valid[1] = False
    err = finite_diff_check(
        lambda t: seg_cross_entropy(t, labels, valid=valid,
                                    class_weights=np.array([0.3, 1.0, 7.1]))[0],
        Tensor(rng.normal(size=(*lead, 3, 3, 4))))
    assert err < 1e-6


# ---------------------------------------------------------------------------
# discriminator
# ---------------------------------------------------------------------------

MICRO_DISC = DiscConfig(channels=(4, 1))


def test_disc_config_requires_unit_tail():
    with pytest.raises(ValueError):
        DiscConfig(channels=(8, 16))


def test_disc_zero_weights_zero_logits():
    cfg = DiscConfig(channels=(8, 16, 32, 64, 1))
    params = init_disc_params(cfg, np.random.default_rng(4))
    for k in params:
        params[k] = Tensor(np.zeros_like(params[k].data))
    out = discriminator_forward(params, cfg,
                                Tensor(np.random.default_rng(5).random((2, 64, 64))))
    np.testing.assert_array_equal(out.data, 0.0)


def test_disc_shape_chain_64px_five_layers():
    cfg = DiscConfig(channels=(8, 16, 32, 64, 1))
    params = init_disc_params(cfg, np.random.default_rng(6))
    out = discriminator_forward(params, cfg, Tensor(np.zeros((2, 64, 64))))
    assert out.shape == (1, 2, 2)


def test_disc_too_small_input_raises():
    cfg = DiscConfig(channels=(8, 16, 32, 64, 1))
    params = init_disc_params(cfg, np.random.default_rng(7))
    with pytest.raises(ShapeError):
        discriminator_forward(params, cfg, Tensor(np.zeros((2, 8, 8))))


def test_disc_gradient():
    params = init_disc_params(MICRO_DISC, np.random.default_rng(8))
    x = np.random.default_rng(9).random((2, 8, 8))
    name = "disc.conv0.w"

    def f(t):
        trial = dict(params)
        trial[name] = t
        return tsum(discriminator_forward(trial, MICRO_DISC, Tensor(x)))

    assert finite_diff_check(f, params[name].copy()) < 1e-5


@pytest.mark.parametrize("name", ["fake", "disc.conv0.w", "disc.conv0.b",
                                  "disc.conv1.w", "disc.conv1.b"])
def test_disc_loss_gradient_with_both_maps_in_one_pass(name):
    """The critic's loss as the critic step forms it, real and fake maps
    scored in one pass: gradients of a map and of every parameter match
    central differences."""
    rng = np.random.default_rng(150)
    params = init_disc_params(MICRO_DISC, rng)
    for k in ("disc.conv0.b", "disc.conv1.b"):
        params[k] = Tensor(rng.normal(size=params[k].shape) * 0.1)
    real, fake = rng.random((2, 2, 8, 8)), rng.random((2, 2, 8, 8))

    def f(t):
        trial = params if name == "fake" else {**params, name: t}
        probs = Tensor(real), t if name == "fake" else Tensor(fake)
        return disc_loss(*discriminator_forward(trial, MICRO_DISC, *probs))

    x = Tensor(fake) if name == "fake" else params[name].copy()
    assert finite_diff_check(f, x) < 1e-5


# ---------------------------------------------------------------------------
# adversarial and total losses
# ---------------------------------------------------------------------------


def test_dloss_at_zero_logits_is_two_ln2():
    z = Tensor(np.zeros((1, 2, 2)))
    d, g = disc_loss(z, z), gen_adv_loss(z)
    assert abs(d.item() - 2.0 * math.log(2.0)) < 1e-12
    assert abs(g.item() - math.log(2.0)) < 1e-12


def test_dloss_vanishes_for_confident_discriminator():
    real = Tensor(np.full((1, 2, 2), 50.0))
    fake = Tensor(np.full((1, 2, 2), -50.0))
    assert disc_loss(real, fake).item() < 1e-20


def test_gen_loss_decreases_when_fake_scores_rise():
    lo = gen_adv_loss(Tensor(np.full((1, 2, 2), -1.0))).item()
    hi = gen_adv_loss(Tensor(np.full((1, 2, 2), 1.0))).item()
    assert hi < lo


def _composed_disc_loss(d_real, d_fake):
    """The 6-op chain ``disc_loss`` replaced: neg, softplus and tmean per
    half, then add."""
    return tmean(softplus(-d_real)) + tmean(softplus(d_fake))


def _composed_gen_loss(d_fake):
    """The 3-op chain ``gen_adv_loss`` replaced."""
    return tmean(softplus(-d_fake))


@st.composite
def _critic_logits(draw, maps):
    """``maps`` same-shaped [B, 1, h, w] logit maps (batch 1-3), at scales
    from tiny to saturating, and a root gradient."""
    shape = (draw(st.integers(1, 3)), 1, draw(st.integers(1, 4)),
             draw(st.integers(1, 4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    scale = draw(st.sampled_from([1e-3, 1.0, 30.0, 800.0]))
    root = draw(st.sampled_from([1.0, 2.0, -0.5]))
    return [rng.normal(size=shape) * scale for _ in range(maps)], root


def _loss_bits(loss_of, arrays, root, watched):
    """The loss's bytes and the bytes of each watched input's gradient."""
    with Tape() as tape:
        ts = [Tensor(a.copy()) for a in arrays]
        for i in watched:
            tape.watch(ts[i])
        loss = loss_of(*ts)
        tape.backward(loss * Tensor(root))
        return [loss.data.tobytes()] + [tape.grad(ts[i]).tobytes()
                                        for i in watched]


@settings(max_examples=100, deadline=None)
@given(_critic_logits(2), st.sampled_from([(0, 1), (0,), (1,)]))
def test_disc_loss_equals_the_composed_chain_bitwise(case, watched):
    """The one-op critic loss and the chain it replaced: the value and the
    gradient of each watched half, byte for byte."""
    arrays, root = case
    assert _loss_bits(disc_loss, arrays, root, watched) \
        == _loss_bits(_composed_disc_loss, arrays, root, watched)


@settings(max_examples=60, deadline=None)
@given(_critic_logits(1))
def test_gen_adv_loss_equals_the_composed_chain_bitwise(case):
    arrays, root = case
    assert _loss_bits(gen_adv_loss, arrays, root, (0,)) \
        == _loss_bits(_composed_gen_loss, arrays, root, (0,))


def test_critic_losses_through_one_stacked_pass_equal_the_chain():
    """As the critic step forms it: both halves gathered from one stacked
    critic output, so their gradient parts add at the gather's input."""
    x = np.random.default_rng(151).normal(size=(2, 3, 1, 2, 2))
    results = []
    for loss_of in (disc_loss, _composed_disc_loss):
        with Tape() as tape:
            t = tape.watch(Tensor(x.copy()))
            loss = loss_of(gather(t, 0), gather(t, 1))
            tape.backward(loss)
            results.append((loss.data.tobytes(), tape.grad(t).tobytes()))
    assert results[0] == results[1]


def test_critic_losses_are_one_tape_node():
    d = Tensor(np.zeros((2, 1, 2, 2)))
    with Tape() as tape:
        tape.watch(d)
        disc_loss(d, d)
        gen_adv_loss(d)
    assert len(tape.nodes) == 3


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("loss", ["disc real", "disc fake", "gen"])
def test_critic_losses_raise_on_a_non_finite_logit(bad, loss):
    """NaN and both infinities raise, also the one that the softplus
    saturates to 0 (+inf through neg, -inf on the fake half)."""
    x = np.random.default_rng(152).normal(size=(2, 1, 2, 2))
    y = x.copy()
    y[1, 0, 1, 0] = bad
    with np.errstate(invalid="ignore"):
        with pytest.raises(FloatingPointError, match="softplus_means"):
            if loss == "disc real":
                disc_loss(Tensor(y), Tensor(x))
            elif loss == "disc fake":
                disc_loss(Tensor(x), Tensor(y))
            else:
                gen_adv_loss(Tensor(y))


def test_softplus_means_checks_its_signs():
    d = Tensor(np.zeros(3))
    for xs, signs in (((d, d), (1,)), ((), ()), ((d,), (2,))):
        with pytest.raises(ShapeError):
            softplus_means(xs, signs)


@pytest.mark.parametrize("half", [0, 1])
def test_critic_loss_gradients(half):
    """Central differences of the one-op critic loss in each half, and of
    the generator's term."""
    rng = np.random.default_rng(153 + half)
    other = Tensor(rng.normal(size=(2, 1, 2, 3)) * 2.0)

    def d_loss(t):
        return disc_loss(t, other) if half == 0 else disc_loss(other, t)

    x = Tensor(rng.normal(size=(2, 1, 2, 3)) * 2.0)
    assert finite_diff_check(d_loss, x) < 1e-6
    assert finite_diff_check(gen_adv_loss, x) < 1e-6


def test_total_loss_arithmetic():
    t = total_loss(Tensor(1.0), Tensor(0.5), Tensor(0.2))
    assert abs(t.item() - 1.25) < 1e-15
    src_only = total_loss(Tensor(1.0), Tensor(0.5), Tensor(0.2),
                          beta1=0.0, beta2=0.0)
    assert abs(src_only.item() - 1.0) < 1e-15


def test_total_loss_gradient_is_weighted_sum():
    rng = np.random.default_rng(10)
    a, b, c = (rng.normal(size=(3, 3)) for _ in range(3))
    x0 = rng.normal(size=(3, 3))
    with Tape() as tape:
        x = tape.watch(Tensor(x0.copy()))
        loss = total_loss(tsum(x * Tensor(a)), tsum(x * Tensor(b)),
                          tsum(x * Tensor(c)))
        tape.backward(loss)
        g = tape.grad(x)
    np.testing.assert_allclose(g, a + 0.1 * b + 1.0 * c, atol=1e-12)


def test_alternating_updates_drive_g_loss_down():
    """After the discriminator learns to separate a fixed toy pair, 100
    alternating D/G steps pull the generator loss back down."""
    rng = np.random.default_rng(11)
    dparams = init_disc_params(MICRO_DISC, rng)
    gen_logits = Tensor(rng.normal(size=(8, 8, 2)))
    gen = {"g": gen_logits}         # the one dict the generator's AdamW adopts
    src_probs = np.random.default_rng(12).dirichlet([1, 1], size=(8, 8))
    src_probs = np.ascontiguousarray(src_probs.transpose(2, 0, 1))

    def d_step(opt):
        # discriminator sees detached generator output
        fake = softmax(Tensor(gen_logits.data)).data.transpose(2, 0, 1)
        with Tape() as tape:
            for t in dparams.values():
                tape.watch(t)
            d = disc_loss(
                discriminator_forward(dparams, MICRO_DISC, Tensor(src_probs)),
                discriminator_forward(dparams, MICRO_DISC, Tensor(fake)))
            tape.backward(d)
            opt.step(dparams, {k: tape.grad(t) for k, t in dparams.items()})
        return d.item()

    def g_step(opt):
        # generator trains through the frozen discriminator
        with Tape() as tape:
            tape.watch(gen_logits)
            probs = transpose(softmax(gen_logits), (2, 0, 1))
            g = gen_adv_loss(discriminator_forward(dparams, MICRO_DISC, probs))
            tape.backward(g)
            opt.step(gen, {"g": tape.grad(gen_logits)})
        return g.item()

    warm = AdamW(lr=5e-3, weight_decay=0.0, warmup=0, total=None)
    for _ in range(100):
        d_step(warm)
    opt_d = AdamW(lr=1e-4, weight_decay=0.0, warmup=0, total=None)
    opt_g = AdamW(lr=2e-2, weight_decay=0.0, warmup=0, total=None)
    history = []
    for _ in range(100):
        d_step(opt_d)
        history.append(g_step(opt_g))
    assert history[-1] < 0.25 * history[0]


# ---------------------------------------------------------------------------
# optimizer and schedule
# ---------------------------------------------------------------------------


def test_lr_schedule_shape():
    base, warm, total = 2e-3, 150, 4000
    assert lr_schedule(1, base, warm, total) == base / 150
    assert lr_schedule(warm, base, warm, total) == base
    assert lr_schedule(total, base, warm, total) == 0.0
    # piecewise continuity around the warmup corner
    before = lr_schedule(warm - 1, base, warm, total)
    after = lr_schedule(warm + 1, base, warm, total)
    assert before < base and after < base
    assert abs(after - base * (total - warm - 1) / (total - warm)) < 1e-18
    with pytest.raises(ValueError):
        lr_schedule(0, base, warm, total)
    assert lr_schedule(10, base, 0, None) == base


def test_adamw_zero_grad_zero_decay_no_change():
    p = {"x": Tensor([1.0, -2.0])}
    opt = AdamW(lr=1e-2, weight_decay=0.0, warmup=0, total=None)
    opt.step(p, {"x": np.zeros(2)})
    np.testing.assert_array_equal(p["x"].data, [1.0, -2.0])


def test_adamw_decay_only_shrinks_by_lr_wd():
    p = {"x": Tensor([4.0])}
    opt = AdamW(lr=1e-2, weight_decay=0.5, warmup=0, total=None)
    opt.step(p, {"x": np.zeros(1)})
    np.testing.assert_allclose(p["x"].data, [4.0 * (1 - 1e-2 * 0.5)], atol=1e-15)


def test_adamw_quadratic_convergence():
    p = {"x": Tensor([1.0])}
    opt = AdamW(lr=1e-2, weight_decay=0.0, warmup=0, total=None)
    for _ in range(2000):
        opt.step(p, {"x": 2.0 * p["x"].data})   # grad of x^2
        if abs(p["x"].item()) < 1e-3:
            break
    assert abs(p["x"].item()) < 1e-3


def test_adamw_nan_grad_aborts_with_name():
    p = {"w.bad": Tensor([1.0])}
    opt = AdamW(lr=1e-2)
    with pytest.raises(OptimizerDiverged) as exc:
        opt.step(p, {"w.bad": np.array([np.nan])})
    assert "w.bad" in str(exc.value)


def test_adamw_state_roundtrip_resumes_identically():
    rng = np.random.default_rng(13)
    grads = [dict(x=rng.normal(size=3)) for _ in range(6)]

    p1 = {"x": Tensor([1.0, 2.0, 3.0])}
    opt1 = AdamW(lr=1e-2, warmup=2, total=10)
    for g in grads:
        opt1.step(p1, g)

    # run 3 steps, snapshot, resume, run 3 more
    p2 = {"x": Tensor([1.0, 2.0, 3.0])}
    opt2 = AdamW(lr=1e-2, warmup=2, total=10)
    for g in grads[:3]:
        opt2.step(p2, g)
    snap = {k: v.copy() for k, v in opt2.state_tensors().items()}
    t_snap = opt2.t
    opt3 = AdamW(lr=1e-2, warmup=2, total=10)
    opt3.load_state(p2, snap, t_snap)
    for g in grads[3:]:
        opt3.step(p2, g)
    np.testing.assert_array_equal(p1["x"].data, p2["x"].data)


class _PerParamAdamW:
    """The per-parameter AdamW loop the flat update replaced, kept as its
    oracle: lazily allocated moments, one update per parameter."""

    def __init__(self, opt: AdamW):
        self.opt = opt
        self.m, self.v = {}, {}

    def step(self, params, grads):
        o = self.opt
        o.t += 1
        lr = o.lr_at(o.t)
        b1, b2 = o.betas
        bc1, bc2 = 1.0 - b1 ** o.t, 1.0 - b2 ** o.t
        for name, p in params.items():
            g = grads[name]
            m = self.m.setdefault(name, np.zeros_like(p.data))
            v = self.v.setdefault(name, np.zeros_like(p.data))
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + o.eps)
            p.data -= lr * (update + o.weight_decay * p.data)
        return lr


def _adam_problem(seed):
    """Parameters of several shapes, one larger than a block of the fused
    update, and 5 steps of gradients with zeros, tiny and large values."""
    rng = np.random.default_rng(seed)
    shapes = {"a.w": (3, 4), "a.b": (4,), "big": (9000,), "s": (), "c": (2, 1, 3)}
    params = {k: rng.normal(size=s) for k, s in shapes.items()}
    grads = []
    for _ in range(5):
        g = {k: rng.normal(size=s) * 10.0 ** rng.integers(-8, 4)
             for k, s in shapes.items()}
        g["a.b"][0] = 0.0
        g["c"][0, 0, 0] = -0.0
        grads.append(g)
    return params, grads


def _fresh(params):
    return {k: Tensor(np.array(v)) for k, v in params.items()}


def _bits(params):
    return {k: np.ascontiguousarray(p.data).tobytes() for k, p in params.items()}


@pytest.mark.parametrize("wd", [0.0, 0.01])
def test_adamw_flat_update_equals_per_parameter_loop(wd):
    """Parameters and moments bit-equal to the per-parameter loop over 5
    steps of a ramped-then-decaying lr, and still after a
    ``state_tensors`` -> ``load_state`` resume at step 3."""
    init, grads = _adam_problem(140)

    def make():
        return AdamW(lr=3e-2, weight_decay=wd, warmup=2, total=7)

    want_p, oracle = _fresh(init), _PerParamAdamW(make())
    got_p, opt = _fresh(init), make()
    lrs = []
    for g in grads:
        lrs.append(opt.step(got_p, g))
        assert oracle.step(want_p, g) == lrs[-1]
        assert _bits(got_p) == _bits(want_p)
    assert len(set(lrs)) == len(lrs)
    state = opt.state_tensors()
    assert list(state) == [f"opt.{m}.{k}" for k in init for m in "mv"]
    for k in init:
        assert state[f"opt.m.{k}"].tobytes() == oracle.m[k].tobytes()
        assert state[f"opt.v.{k}"].tobytes() == oracle.v[k].tobytes()

    resumed_p, first = _fresh(init), make()
    for g in grads[:3]:
        first.step(resumed_p, g)
    snap = {k: v.copy() for k, v in first.state_tensors().items()}
    resumed_p = {k: Tensor(p.data.copy()) for k, p in resumed_p.items()}
    second = make()
    second.load_state(resumed_p, snap, first.t)
    for g in grads[3:]:
        second.step(resumed_p, g)
    assert _bits(resumed_p) == _bits(want_p)


def _signed_zeros_grad(rng, shape):
    g = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 4)
    g[rng.random(shape) < 0.1] = -0.0
    return g


@settings(max_examples=8, deadline=None)
@given(st.lists(st.integers(0, 20000), min_size=1, max_size=4),
       st.integers(0, 2**16))
def test_adamw_bytes_do_not_depend_on_the_block_size(sizes, seed):
    """Parameters and moments after 3 steps are the same bytes whether the
    fused update runs in blocks of 7, 8192 or 32768 elements; the sizes
    put the block seams inside and between parameters."""
    rng = np.random.default_rng(seed)
    init = {f"p{i}": rng.normal(size=n) for i, n in enumerate(sizes)}
    init["s"] = rng.normal(size=(3, 2))
    grads = [{k: _signed_zeros_grad(rng, v.shape) for k, v in init.items()}
             for _ in range(3)]
    seen = []
    for block in (7, 8192, 32768):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(objectives, "_ADAM_BLOCK", block)
            params = _fresh(init)
            opt = AdamW(lr=3e-2, weight_decay=0.01, warmup=1, total=5)
            for g in grads:
                opt.step(params, g)
        seen.append((_bits(params),
                     {k: v.tobytes() for k, v in opt.state_tensors().items()}))
    assert seen[0] == seen[1] == seen[2]


def test_adamw_diverged_names_first_nonfinite_parameter_and_keeps_state():
    init, grads = _adam_problem(141)
    params, opt = _fresh(init), AdamW(lr=1e-2)
    opt.step(params, grads[0])
    before = _bits(params)
    bad = {k: v.copy() for k, v in grads[1].items()}
    bad["big"][8500] = np.inf
    bad["c"][0, 0, 1] = np.nan
    with pytest.raises(OptimizerDiverged) as exc:
        opt.step(params, bad)
    assert exc.value.name == "big" and exc.value.step == 2
    assert _bits(params) == before and opt.t == 1
    # finite values whose squares overflow are not a divergence
    huge = {k: np.full(np.shape(v), 1e200) for k, v in grads[1].items()}
    with np.errstate(over="ignore"):
        opt.step(params, huge)


def test_adamw_requires_every_gradient_of_the_right_shape():
    init, grads = _adam_problem(142)
    params, opt = _fresh(init), AdamW(lr=1e-2)
    partial = dict(grads[0])
    del partial["a.b"]
    with pytest.raises(KeyError, match="a.b"):
        opt.step(params, partial)
    assert opt.t == 0
    wrong = dict(grads[0])
    wrong["a.w"] = np.zeros(12)
    with pytest.raises(ShapeError):
        opt.step(params, wrong)
    assert opt.t == 0
    opt.step(params, grads[0])
    assert opt.t == 1
    with pytest.raises(KeyError):
        opt.step(params, partial)
    assert opt.t == 1


def test_adamw_adopts_one_parameter_dict_into_one_buffer_once():
    """After a step every parameter is a view of one flat buffer; a step
    with another dict, or a ``load_state`` after the adoption, raises
    ``ValueError`` and changes nothing."""
    init, grads = _adam_problem(143)
    params, opt = _fresh(init), AdamW(lr=1e-2)
    want_p, oracle = _fresh(init), _PerParamAdamW(AdamW(lr=1e-2))
    opt.step(params, grads[0])
    oracle.step(want_p, grads[0])
    flat = params["s"].data.base
    assert flat is not None and flat.ndim == 1
    assert all(p.data.base is flat for p in params.values())
    state = {k: v.tobytes() for k, v in opt.state_tensors().items()}
    for other in (dict(params), {k: p for k, p in params.items() if k != "s"}):
        with pytest.raises(ValueError):
            opt.step(other, grads[1])
    with pytest.raises(ValueError):
        opt.load_state(params, opt.state_tensors(), 5)
    assert opt.t == 1 and _bits(params) == _bits(want_p)
    assert {k: v.tobytes() for k, v in opt.state_tensors().items()} == state
    opt.step(params, grads[1])
    oracle.step(want_p, grads[1])
    assert _bits(params) == _bits(want_p)


def test_adamw_load_state_takes_only_the_moments_of_its_parameters():
    """``load_state`` adopts the parameters with their own moments: those of
    other names (a critic's ``opt.*.disc.*``) are ignored and a missing one
    stays zero, so the resumed steps equal the per-parameter loop's."""
    init, grads = _adam_problem(144)
    params, opt = _fresh(init), AdamW(lr=1e-2)
    want_p, oracle = _fresh(init), _PerParamAdamW(AdamW(lr=1e-2))
    opt.step(params, grads[0])
    oracle.step(want_p, grads[0])
    snap = {k: v.copy() for k, v in opt.state_tensors().items()}
    snap["opt.m.disc.conv0.w"] = snap["opt.v.disc.conv0.w"] = np.ones((2, 3))
    del snap["opt.m.s"], snap["opt.v.s"]
    oracle.m["s"][...] = oracle.v["s"][...] = 0.0
    resumed_p, resumed = _fresh({k: p.data for k, p in params.items()}), \
        AdamW(lr=1e-2)
    resumed.load_state(resumed_p, snap, opt.t)
    assert list(resumed.state_tensors()) == [f"opt.{m}.{k}" for k in init
                                             for m in "mv"]
    resumed.step(resumed_p, grads[1])
    oracle.step(want_p, grads[1])
    assert _bits(resumed_p) == _bits(want_p)
    for k in init:
        assert resumed.state_tensors()[f"opt.m.{k}"].tobytes() \
            == oracle.m[k].tobytes()
