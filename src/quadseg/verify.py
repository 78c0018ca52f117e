"""Runtime self-verification: re-derive the library's core contracts.

Each suite checks one mathematical property against an independent
computation — finite differences for gradients, a direct-formula SSIM, the
EMA closed form — and returns a measured worst-case error.  ``run_all``
prints one PASS/FAIL line per suite and is wired to the ``verify``
subcommand, so a build can prove its own arithmetic in seconds.

``run_all(inject_fault=True)`` flips the deliberate backward-rule mutation
switch first; a healthy harness must then FAIL the gradient suite, which
guards the guards.
"""

from __future__ import annotations

import time

import numpy as np

from .adaptation import PrototypeBank, ema_update, ssim
from .decoder import (
    DecoderConfig,
    augmented_features,
    mask_probs,
    unify_and_upsample,
)
from .encoder import EncoderConfig, encoder_forward
from .model import forward_pair, infer_target_sourcefree, init_model_params
from .objectives import (
    DiscConfig,
    discriminator_forward,
    gen_adv_loss,
    init_disc_params,
    seg_cross_entropy,
    total_loss,
)
from .tensor import Tensor, finite_diff_check, gather, set_fault_injection

__all__ = ["fd_gradient_suite", "shape_chain_suite", "cross_degeneracy_suite",
           "ssim_suite", "ema_suite", "run_all"]

# smallest config that exercises every code path: two stages, one block
# each, unshared branch weights (so the cross-attention parameters exist as
# their own tensors), 8x8 input
_MICRO_ENC = EncoderConfig(channels=(4, 8), depths=(1, 1), heads=(1, 2),
                           sr_ratios=(1, 1), share_branch_weights=False)
_MICRO_DEC = DecoderConfig(embed_dim=8)
_MICRO_DISC = DiscConfig(in_channels=2, channels=(4, 1))

_DESK_ENC = EncoderConfig()
_DESK_DEC = DecoderConfig()


def fd_gradient_suite(h: float = 1e-5, coords_per_param: int = 3,
                      seed: int = 0) -> tuple[float, int]:
    """Finite-difference check of the full training objective.

    Perturbs ``coords_per_param`` coordinates of every named parameter —
    encoder, decoder, and discriminator — through L_total = l_s +
    0.1 * l_t + g on an 8x8 image pair.  Returns ``(max relative error,
    number of parameter tensors checked)``.
    """
    rng = np.random.default_rng(seed)
    params = init_model_params(_MICRO_ENC, _MICRO_DEC, rng)
    disc = init_disc_params(_MICRO_DISC, rng)
    # inflate every weight well past the training init: at sigma = 0.02 the
    # residual paths drown the transformed branches and a mutated backward
    # rule inside them would slip under the tolerance
    for p in {**params, **disc}.values():
        p.data += rng.normal(scale=0.3, size=p.data.shape)
    img_s = rng.random((3, 8, 8))
    img_t = rng.random((3, 8, 8))
    lbl_s = rng.integers(0, 2, size=(8, 8))
    pl_hard = rng.integers(0, 2, size=(8, 8))
    valid = rng.random((8, 8)) > 0.3
    valid[0, 0] = True
    weights = np.array([1.0, 10.0])
    everything = {**params, **disc}

    def loss_with(name: str, t: Tensor) -> Tensor:
        pool = dict(everything)
        pool[name] = t
        mp = {k: v for k, v in pool.items() if not k.startswith("disc.")}
        dp = {k: v for k, v in pool.items() if k.startswith("disc.")}
        out = forward_pair(mp, _MICRO_ENC, _MICRO_DEC,
                           Tensor(img_s), Tensor(img_t))
        l_s, _ = seg_cross_entropy(out.logits_s, lbl_s, class_weights=weights)
        l_t, _ = seg_cross_entropy(out.logits_t, pl_hard, valid=valid,
                                   class_weights=weights)
        g = gen_adv_loss(discriminator_forward(dp, _MICRO_DISC,
                                               mask_probs(out.logits_t)))
        return total_loss(l_s, l_t, g)

    worst = 0.0
    for name, p in everything.items():
        size = p.data.size
        coords = rng.choice(size, size=min(coords_per_param, size),
                            replace=False)
        err = finite_diff_check(lambda t, n=name: loss_with(n, t), p, h=h,
                                coords=[int(c) for c in coords])
        worst = max(worst, err)
    return worst, len(everything)


def shape_chain_suite(seed: int = 1) -> list[str]:
    """Desk-scale 64x64 forward; returns a list of violations (empty = ok).
    Stage outputs are stream stacks [4, h*w, C], rows (s, t, ts, st)."""
    rng = np.random.default_rng(seed)
    params = init_model_params(_DESK_ENC, _DESK_DEC, rng)
    img_s = Tensor(rng.random((3, 64, 64)))
    img_t = Tensor(rng.random((3, 64, 64)))
    feats, dims = encoder_forward(params, _DESK_ENC, img_s, img_t)
    bad = []
    want_counts = (256, 64, 16, 4)
    for i, ((hh, ww), n) in enumerate(zip(dims, want_counts)):
        if hh * ww != n:
            bad.append(f"stage {i} token count {hh * ww}, expected {n}")
        want = (4, n, _DESK_ENC.channels[i])
        if feats[i].shape != want:
            bad.append(f"stage {i} stream stack (s, t, ts, st) shape "
                       f"{feats[i].shape} != {want}")
    phi = unify_and_upsample(params, _DESK_ENC, [gather(f, 1) for f in feats], dims)
    ce = _DESK_DEC.embed_dim
    if phi.shape != (256, 4 * ce):
        bad.append(f"phi_t shape {phi.shape} != (256, {4 * ce})")
    out = forward_pair(params, _DESK_ENC, _DESK_DEC, img_s, img_t)
    aug_t = augmented_features(out.maps_t, out.dims)
    if aug_t.shape != (256, 8 * ce):
        bad.append(f"[phi_t, phi_st] shape {aug_t.shape} != (256, {8 * ce})")
    for lg in (out.logits_s, out.logits_t):
        if lg.shape != (2, 64, 64):
            bad.append(f"logit map {lg.shape} != (2, 64, 64)")
    return bad


def cross_degeneracy_suite(seed: int = 2) -> tuple[float, float]:
    """With identical inputs the cross streams must collapse onto the self
    streams (weights shared across branches): rows ts, st of each stage's
    stack onto rows s, t.  Returns ``(worst elementwise gap across stages,
    worst source-free vs paired-target-head gap)``."""
    rng = np.random.default_rng(seed)
    params = init_model_params(_DESK_ENC, _DESK_DEC, rng)
    img = Tensor(rng.random((3, 64, 64)))
    feats, _ = encoder_forward(params, _DESK_ENC, img, img)
    worst = max(float(np.abs(f.data[2:] - f.data[:2]).max()) for f in feats)
    out = forward_pair(params, _DESK_ENC, _DESK_DEC, img, img)
    logits, _, _ = infer_target_sourcefree(params, _DESK_ENC, _DESK_DEC, img)
    free_gap = float(np.abs(out.logits_t.data - logits.data).max())
    return worst, free_gap


def _ssim_direct(a: np.ndarray, b: np.ndarray, window: int = 8) -> float:
    c1, c2 = 0.01 ** 2, 0.03 ** 2
    vals = []
    for i in range(a.shape[0] // window):
        for j in range(a.shape[1] // window):
            wa = a[i * window:(i + 1) * window, j * window:(j + 1) * window]
            wb = b[i * window:(i + 1) * window, j * window:(j + 1) * window]
            n = window * window
            mu_a, mu_b = wa.sum() / n, wb.sum() / n
            va = ((wa - mu_a) ** 2).sum() / n
            vb = ((wb - mu_b) ** 2).sum() / n
            cov = ((wa - mu_a) * (wb - mu_b)).sum() / n
            vals.append((2 * mu_a * mu_b + c1) * (2 * cov + c2)
                        / ((mu_a ** 2 + mu_b ** 2 + c1) * (va + vb + c2)))
    return float(np.mean(vals))


def ssim_suite(pairs: int = 100, seed: int = 3) -> tuple[float, bool]:
    """(worst |ssim - direct formula| over random pairs, identity==1 flag)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    exact = True
    for _ in range(pairs):
        a = rng.random((16, 16))
        b = rng.random((16, 16))
        worst = max(worst, abs(ssim(a, b) - _ssim_direct(a, b)))
        exact = exact and ssim(a, a) == 1.0
    return worst, exact


def ema_suite(k: int = 10000, seed: int = 4) -> float:
    """Worst gap to the closed form (1 - lam^k) * v from a zero start."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=6)
    bank = PrototypeBank.create(6)
    for _ in range(k):
        ema_update(bank, 0, v)
    want = (1.0 - bank.lam ** k) * v
    return float(np.abs(bank.eta[0] - want).max())


def run_all(inject_fault: bool = False, echo=print) -> int:
    """Run every suite; returns 0 when all pass, 2 otherwise."""
    set_fault_injection(inject_fault)
    try:
        checks = []
        t0 = time.time()
        err, n = fd_gradient_suite()
        checks.append(("gradient-fd", err < 1e-4,
                       f"max rel err {err:.3e} over {n} parameter tensors"))
        bad = shape_chain_suite()
        checks.append(("shape-chain", not bad, "; ".join(bad) or "64->2 chain ok"))
        gap, free = cross_degeneracy_suite()
        checks.append(("cross-degeneracy", gap < 1e-12 and free == 0.0,
                       f"ts-s/st-t gap {gap:.3e}, source-free gap {free:.3e}"))
        werr, exact = ssim_suite()
        checks.append(("ssim-oracle", werr < 1e-9 and exact,
                       f"max |delta| {werr:.3e}, identity exact: {exact}"))
        egap = ema_suite()
        checks.append(("ema-closed-form", egap < 1e-9, f"max gap {egap:.3e}"))
        ok = True
        for name, passed, detail in checks:
            ok = ok and passed
            echo(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
        echo(f"{'all suites passed' if ok else 'FAILURES above'} "
             f"({time.time() - t0:.1f}s)")
        return 0 if ok else 2
    finally:
        set_fault_injection(False)
