"""Segmentation and adversarial losses, the patch discriminator, and the
AdamW optimizer with its warmup/decay schedule.

Adversarial training is the alternating two-optimizer scheme: the
discriminator minimizes ``disc_loss`` on detached mask probabilities, then
the generator minimizes ``gen_adv_loss`` (the non-saturating term) through
a fresh discriminator forward whose weights act as constants.  Generator
and discriminator parameters are disjoint by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .encoder import trunc_normal
from .tensor import (
    ShapeError,
    Tensor,
    gather,
    log_likelihood,
    patch_critic,
    softplus_means,
)

__all__ = [
    "DiscConfig",
    "init_disc_params",
    "discriminator_forward",
    "seg_cross_entropy",
    "disc_loss",
    "gen_adv_loss",
    "total_loss",
    "lr_schedule",
    "AdamW",
    "OptimizerDiverged",
]


# ---------------------------------------------------------------------------
# discriminator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiscConfig:
    """Fully-convolutional patch discriminator: kernel 4, stride 2 per layer.

    ``channels`` ends in 1 (the per-patch real/fake logit).  The desk-scale
    stack is five layers; micro configs may use fewer so tiny inputs keep a
    positive output size.
    """

    in_channels: int = 2
    channels: tuple[int, ...] = (8, 16, 32, 64, 1)
    leaky_slope: float = 0.2

    def __post_init__(self):
        if not self.channels or self.channels[-1] != 1:
            raise ValueError("discriminator channels must end in 1 (the "
                             f"patch logit), got {self.channels}")


def init_disc_params(cfg: DiscConfig, rng: np.random.Generator) -> dict[str, Tensor]:
    p: dict[str, Tensor] = {}
    cin = cfg.in_channels
    for i, cout in enumerate(cfg.channels):
        p[f"disc.conv{i}.w"] = Tensor(trunc_normal(rng, (cout, cin, 4, 4)))
        p[f"disc.conv{i}.b"] = Tensor(np.zeros(cout))
        cin = cout
    return p


def discriminator_forward(params: dict, cfg: DiscConfig, *probs: Tensor):
    """Mask probabilities [..., C, H, W] -> patch logits [..., 1, H', W'];
    leading dims are a batch.  Several same-shaped maps run through the
    critic in one pass and come back as a tuple of logits, in order.

    The critic is one ``patch_critic`` op: leaky-ReLU between layers, none
    after the last.  Raises a shape error when the input is smaller than
    the stack's receptive stride chain.
    """
    ws = [params[f"disc.conv{i}.w"] for i in range(len(cfg.channels))]
    bs = [params[f"disc.conv{i}.b"] for i in range(len(cfg.channels))]
    if len(probs) == 1:
        return patch_critic(probs[0], ws, bs, cfg.leaky_slope)
    logits = patch_critic(probs, ws, bs, cfg.leaky_slope)
    return tuple(gather(logits, i) for i in range(len(probs)))


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def seg_cross_entropy(logits: Tensor, labels: np.ndarray,
                      valid: np.ndarray | None = None,
                      class_weights: np.ndarray | None = None):
    """Pixel cross-entropy on [..., K, H, W] logits, summed over the items
    that the leading dims index.

    ``labels`` is an integer class map [..., H, W], ``valid`` an optional
    boolean mask of the same shape; invalid pixels contribute nothing.  Each
    item's loss is normalized by its own total weight of valid pixels
    (plain count when ``class_weights`` is None), so magnitudes are
    comparable across crops and class mixes; an item with none adds 0.

    Returns ``(loss, n_valid)``; ``n_valid == 0`` is the no-signal flag and
    comes with a constant zero loss.
    """
    lead, (k, h, w) = logits.shape[:-3], logits.shape[-3:]
    labels = np.asarray(labels)
    if labels.shape != lead + (h, w):
        raise ShapeError(f"labels {labels.shape} vs logits {logits.shape}")
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"label values outside [0, {k})")
    mask = np.ones(labels.shape, dtype=bool) if valid is None \
        else valid.astype(bool)
    if mask.shape != labels.shape:
        raise ShapeError(f"valid mask {mask.shape} vs labels {labels.shape}")
    n_valid = np.count_nonzero(mask)
    if n_valid == 0:
        return Tensor(0.0), 0
    onehot = ((labels[..., None, :, :] == np.arange(k)[:, None, None])
              & mask[..., None, :, :]).astype(np.float64)
    if class_weights is not None:
        cw = np.asarray(class_weights, dtype=np.float64)
        if cw.shape != (k,):
            raise ShapeError(f"class_weights shape {cw.shape}, expected ({k},)")
        onehot *= cw[:, None, None]
    items = int(np.prod(lead))
    n = len(lead)
    # sums run over each item's (h, w, k) order, so the pairwise sums see
    # the same sequence as a class-last layout would
    to_hwk = (*range(n), n + 1, n + 2, n)
    total_w = onehot.transpose(to_hwk).reshape(items, -1).sum(axis=-1)
    live = mask.reshape(items, -1).any(axis=-1)
    scale = np.divide(-1.0, total_w, out=np.zeros(items), where=live)
    return log_likelihood(logits, onehot, scale), n_valid


def disc_loss(d_real: Tensor, d_fake: Tensor) -> Tensor:
    """Train D to score real high, fake low: softplus(-D(real)) + softplus(D(fake)),
    each averaged over patches; one ``softplus_means`` op."""
    return softplus_means((d_real, d_fake), (-1, 1))


def gen_adv_loss(d_fake: Tensor) -> Tensor:
    """Non-saturating generator term: push D(fake) toward real, mean
    softplus(-D(fake)) as one ``softplus_means`` op."""
    return softplus_means((d_fake,), (-1,))


def total_loss(l_seg_s: Tensor, l_seg_t: Tensor, g_loss: Tensor,
               beta1: float = 0.1, beta2: float = 1.0) -> Tensor:
    """Weighted training objective: l_seg_s + beta1 * l_seg_t + beta2 * g_adv."""
    return l_seg_s + beta1 * l_seg_t + beta2 * g_loss


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

class OptimizerDiverged(FloatingPointError):
    """Non-finite gradient encountered; carries the offending parameter."""

    def __init__(self, name: str, step: int):
        super().__init__(f"non-finite gradient for {name!r} at step {step}")
        self.name = name
        self.step = step


def lr_schedule(step: int, base: float, warmup: int, total: int | None) -> float:
    """Linear warmup to ``base`` over ``warmup`` steps, then linear decay to
    zero at ``total``.  Steps count from 1; ``total=None`` holds ``base``
    after warmup (constant schedule)."""
    if step < 1:
        raise ValueError("optimizer steps count from 1")
    if warmup > 0 and step <= warmup:
        return base * step / warmup
    if total is None:
        return base
    if step >= total:
        return 0.0
    return base * (total - step) / (total - warmup)


# elements per block of the fused AdamW update; one block-sized scratch
# array serves every block, and the five block arrays (256 KiB each) stay
# in L2 while a block's ufuncs sweep them
_ADAM_BLOCK = 32768


class AdamW:
    """Decoupled-weight-decay Adam over one named parameter dict.

    The first ``step``, or ``load_state`` if it comes first, adopts the
    parameters: it copies them, in dict order, into one flat float64
    buffer, rebinds each ``Tensor.data`` to its view of that buffer, and
    lays the moments out the same way.  Every step then gathers the
    gradients into one flat array and updates all parameters together,
    block by block, in place.  The optimizer serves the dict it adopted
    and no other.  State round-trips through checkpoints via
    ``state_tensors`` / ``load_state``.
    """

    def __init__(self, lr: float, weight_decay: float = 0.01,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 warmup: int = 150, total: int | None = 4000):
        self.lr = lr
        self.weight_decay = weight_decay
        self.betas = betas
        self.eps = eps
        self.warmup = warmup
        self.total = total
        self.t = 0
        self._params: dict[str, Tensor] | None = None     # the adopted dict
        # (name, shape, start, stop) per parameter, in dict order
        self._spans: list[tuple[str, tuple, int, int]] = []
        self._flat = self._m = self._v = np.empty(0)

    def lr_at(self, step: int) -> float:
        return lr_schedule(step, self.lr, self.warmup, self.total)

    def _adopt(self, params: dict[str, Tensor]) -> None:
        total = sum(p.data.size for p in params.values())
        self._flat, self._m, self._v = np.empty(total), np.zeros(total), \
            np.zeros(total)
        start = 0
        for name, p in params.items():
            stop = start + p.data.size
            view = self._flat[start:stop].reshape(p.data.shape)
            view[...] = p.data
            p.data = view
            self._spans.append((name, view.shape, start, stop))
            start = stop
        self._params = params

    def step(self, params: dict[str, Tensor],
             grads: dict[str, np.ndarray]) -> float:
        """Apply one update using ``grads`` (name -> array), which must hold
        a gradient of each parameter's shape for every parameter in
        ``params``: a missing one raises ``KeyError``.  A non-finite
        gradient raises ``OptimizerDiverged`` naming the first such
        parameter.  On any of these errors no parameter, moment or step
        count changes.  ``params`` must be the dict this optimizer adopted
        (the first step adopts it); another dict raises ``ValueError``.
        Returns the lr used."""
        if self._params is None:
            self._adopt(params)
        elif params is not self._params:
            raise ValueError("AdamW steps only the parameter dict it adopted")
        parts = []
        for name, shape, _, _ in self._spans:
            gi = grads.get(name)
            if gi is None:
                raise KeyError(f"no gradient for parameter {name!r}")
            if gi.shape != shape:
                raise ShapeError(f"gradient for {name!r} has shape "
                                 f"{gi.shape}, parameter {shape}")
            parts.append(gi.reshape(-1))
        g = np.empty(self._flat.size)         # lives for this step only
        np.concatenate(parts, out=g)
        if not math.isfinite(g.dot(g)):
            for name, _, start, stop in self._spans:
                if not np.isfinite(g[start:stop]).all():
                    raise OptimizerDiverged(name, self.t + 1)
        self.t += 1
        lr = self.lr_at(self.t)
        b1, b2 = self.betas
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        wd, eps = self.weight_decay, self.eps
        scratch = np.empty(min(_ADAM_BLOCK, g.size))
        for lo in range(0, g.size, _ADAM_BLOCK):
            hi = lo + _ADAM_BLOCK
            gb, mb, vb, pb = g[lo:hi], self._m[lo:hi], self._v[lo:hi], \
                self._flat[lo:hi]
            s = scratch[:gb.size]
            # m = m*b1 + (1-b1)*g;  v = v*b2 + ((1-b2)*g)*g
            mb *= b1
            np.multiply(gb, 1.0 - b1, out=s)
            mb += s
            vb *= b2
            np.multiply(gb, 1.0 - b2, out=s)
            s *= gb
            vb += s
            # u = (m/bc1) / (sqrt(v/bc2) + eps), into the spent gradient
            np.divide(vb, bc2, out=s)
            np.sqrt(s, out=s)
            s += eps
            np.divide(mb, bc1, out=gb)
            gb /= s
            # p = p - lr*(u + wd*p)
            np.multiply(pb, wd, out=s)
            s += gb
            s *= lr
            pb -= s
        return lr

    def state_tensors(self) -> dict[str, np.ndarray]:
        """``opt.m.<name>`` and ``opt.v.<name>`` of each adopted parameter,
        in parameter order; empty before the first step, whose moments are
        all zero."""
        out: dict[str, np.ndarray] = {}
        if self.t == 0:
            return out
        for name, shape, start, stop in self._spans:
            out[f"opt.m.{name}"] = self._m[start:stop].reshape(shape)
            out[f"opt.v.{name}"] = self._v[start:stop].reshape(shape)
        return out

    def load_state(self, params: dict[str, Tensor],
                   tensors: dict[str, np.ndarray], t: int) -> None:
        """Adopt ``params`` at step count ``t`` with the moments
        ``tensors`` holds for them; moments of other names are ignored and
        a missing one stays zero.  Raises ``ValueError`` once the optimizer
        has adopted a dict."""
        if self._params is not None:
            raise ValueError("AdamW already adopted its parameters")
        self._adopt(params)
        for name, shape, start, stop in self._spans:
            for key, flat in ((f"opt.m.{name}", self._m),
                              (f"opt.v.{name}", self._v)):
                arr = tensors.get(key)
                if arr is None:
                    continue
                if arr.shape != shape:
                    raise ShapeError(f"optimizer moment {key!r} has shape "
                                     f"{arr.shape}, parameter {shape}")
                flat[start:stop] = arr.ravel()
        self.t = t
