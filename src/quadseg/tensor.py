"""Dense float64 tensors with reverse-mode automatic differentiation.

The design is define-by-run: every training step builds a fresh ``Tape``,
leaf tensors (parameters) are attached with ``Tape.watch``, and forward ops
record a backward rule for each tracked output.  Data tensors that are never
watched stay constants and cost nothing at backward time.

All storage is row-major float64 numpy; every forward kernel is
deterministic, so identical inputs give bit-identical outputs.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "ShapeError",
    "TapeError",
    "Tensor",
    "Tape",
    "matmul",
    "linear",
    "multi_head_attention",
    "residual_attention",
    "residual_mix_ffn",
    "add",
    "sub",
    "mul",
    "neg",
    "reshape",
    "transpose",
    "concat",
    "patchify",
    "stack",
    "gather",
    "tsum",
    "tmean",
    "softmax",
    "log_softmax",
    "log_likelihood",
    "layer_norm",
    "gelu",
    "relu",
    "leaky_relu",
    "softplus",
    "softplus_means",
    "conv2d",
    "token_conv2d",
    "patch_critic",
    "depthwise_conv2d",
    "upsample_bilinear",
    "tokens_to_map",
    "pyramid_fuse",
    "interp_matrix",
    "finite_diff_check",
    "set_fault_injection",
]

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)

# When enabled, one backward rule (gelu) is deliberately perturbed; used by
# the verify command's self-test that the gradient checker catches faults.
_FAULT_INJECTION = False


def set_fault_injection(enabled: bool) -> None:
    global _FAULT_INJECTION
    _FAULT_INJECTION = bool(enabled)


class TapeError(RuntimeError):
    """A tape read past its single sweep: swept twice, or asked for the
    gradient of an op output, which the sweep has already dropped."""


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible for an op."""


def _as_array(data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim and not arr.flags["C_CONTIGUOUS"]:
        arr = np.ascontiguousarray(arr)
    return arr


# A finite check on every op that computes new values; cheap at desk scale
# and turns numeric blowups into immediate hard errors.  Ops that only move
# values (reshape, transpose, concat, stack, gather, neg, patchify, and
# tokens_to_map without a resize) skip the check: their output is finite
# whenever their inputs are, so a bad value still raises at the op that
# made it.  A fused op checks its own output once.
def _check_finite(arr: np.ndarray, opname: str) -> None:
    """Raise unless every element is finite.  A finite sum of squares
    proves that in one BLAS dot; only a non-finite one pays for the
    elementwise test.  It comes from a bad element, or from finite elements
    whose squares overflow (numpy warns), which does not raise."""
    flat = arr.ravel()
    if not math.isfinite(flat.dot(flat)) and not np.isfinite(arr).all():
        raise FloatingPointError(f"{opname}: non-finite values in forward output")


class _Node:
    """One recorded operation: parent node ids plus a rule mapping the
    output gradient to per-parent gradients (None for untracked parents).
    A watched leaf has no parents and no rule."""

    __slots__ = ("idx", "parents", "backward_fn")

    def __init__(self, idx: int, parents: tuple[int, ...], backward_fn):
        self.idx = idx
        self.parents = parents
        self.backward_fn = backward_fn


class Tensor:
    """Shape + flat row-major float64 buffer + optional tape node."""

    __slots__ = ("data", "node", "tape")

    def __init__(self, data, node: _Node | None = None, tape: "Tape | None" = None):
        self.data = _as_array(data)
        self.node = node
        self.tape = tape

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.item())

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy())

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, tracked={self.node is not None})"

    # operator sugar; scalars auto-wrap as constants
    def __add__(self, other):
        return add(self, _wrap(other))

    def __radd__(self, other):
        return add(_wrap(other), self)

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __rmul__(self, other):
        return mul(_wrap(other), self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, _wrap(other))


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


_ACTIVE_TAPE: "Tape | None" = None


class Tape:
    """Append-only record of one forward pass, swept backward once.

    Usage::

        with Tape() as tape:
            for p in params:
                tape.watch(p)
            loss = forward(...)
            tape.backward(loss)
            g = tape.grad(p)

    The sweep releases the tape as it goes: each rule, with the arrays it
    captured, and each op output's gradient are dropped once used, so
    afterwards the tape holds only the watched leaves' gradients.  A second
    ``backward`` raises ``TapeError``; record a fresh tape instead.
    """

    def __init__(self):
        self.nodes: list[_Node] = []
        self.grads: list[np.ndarray | None] = []
        self.swept = False

    def __enter__(self) -> "Tape":
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise RuntimeError("nested tapes are not supported")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, exc_type, exc, tb):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None
        return False

    def watch(self, t: Tensor) -> Tensor:
        """Attach a leaf node so gradients w.r.t. ``t`` are tracked."""
        node = _Node(len(self.nodes), (), None)
        self.nodes.append(node)
        t.node = node
        t.tape = self
        return t

    def _record(self, out_data: np.ndarray, parents: Sequence[Tensor],
                backward_fn) -> Tensor:
        ids = tuple(p.node.idx if (p.tape is self and p.node is not None) else -1
                    for p in parents)
        node = _Node(len(self.nodes), ids, backward_fn)
        self.nodes.append(node)
        return Tensor(out_data, node=node, tape=self)

    def backward(self, root: Tensor) -> None:
        """Reverse sweep from a scalar root; gradients accumulate additively
        across fan-out.  Every rule is dropped when the sweep reaches its
        node, and every op output's gradient once its rule has run."""
        if self.swept:
            raise TapeError("tape was already swept; record a fresh tape "
                            "for each backward")
        if root.tape is not self or root.node is None:
            raise ValueError("backward root is not tracked on this tape")
        if root.shape != ():
            raise ValueError(f"backward root must be scalar, got shape {root.shape}")
        self.swept = True
        grads: list[np.ndarray | None] = [None] * len(self.nodes)
        grads[root.node.idx] = np.ones((), dtype=np.float64)
        for node in reversed(self.nodes):
            rule = node.backward_fn
            if rule is None:                    # a watched leaf
                continue
            node.backward_fn = None
            g = grads[node.idx]
            if g is None:
                continue
            grads[node.idx] = None
            parts = rule(g)
            for pid, part in zip(node.parents, parts):
                if pid < 0 or part is None:
                    continue
                # parts may be views of g or of each other: accumulation is
                # out of place and no rule writes into its incoming gradient
                grads[pid] = part if grads[pid] is None else grads[pid] + part
        self.grads = grads

    def grad(self, t: Tensor) -> np.ndarray:
        """Accumulated gradient for a watched leaf (zeros if unused)."""
        if t.tape is not self or t.node is None:
            raise ValueError("tensor is not tracked on this tape")
        if t.node.parents:
            raise TapeError("only watched leaves keep a gradient; the sweep "
                            "drops every op output's")
        g = self.grads[t.node.idx] if self.grads else None
        if g is None:
            return np.zeros(t.shape, dtype=np.float64)
        return g


def _tracked(t: Tensor) -> bool:
    return _ACTIVE_TAPE is not None and t.tape is _ACTIVE_TAPE and t.node is not None


def _emit(out_data: np.ndarray, parents: Sequence[Tensor], backward_builder,
          opname: str, computes: bool = True) -> Tensor:
    """Wrap op output; record on the active tape only if any parent is tracked.

    ``backward_builder`` is called lazily (only when recording) and must
    return the backward closure.  It decides there, with ``_tracked``,
    which parents need a gradient part; the closure returns None for the
    rest.  The closure may hold arrays and shapes but never a Tensor: a
    Tensor holds its tape, and the tape <-> closure cycle would outlive the
    step until the cyclic GC runs.  ``computes`` is False for ops that only
    move values, which skip the finite check.
    """
    if computes:
        _check_finite(out_data, opname)
    if not _recording(parents):
        return Tensor(out_data)
    return _ACTIVE_TAPE._record(out_data, parents, backward_builder())


def _recording(parents: Sequence[Tensor]) -> bool:
    """Whether an op over ``parents`` records a rule on the active tape."""
    return _ACTIVE_TAPE is not None and any(_tracked(p) for p in parents)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise / structural ops
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data

    def build():
        need_a, need_b = _tracked(a), _tracked(b)
        ashape, bshape = a.shape, b.shape

        def bwd(g):
            return (_unbroadcast(g, ashape) if need_a else None,
                    _unbroadcast(g, bshape) if need_b else None)
        return bwd
    return _emit(out, (a, b), build, "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data

    def build():
        need_a, need_b = _tracked(a), _tracked(b)
        ashape, bshape = a.shape, b.shape

        def bwd(g):
            return (_unbroadcast(g, ashape) if need_a else None,
                    _unbroadcast(-g, bshape) if need_b else None)
        return bwd
    return _emit(out, (a, b), build, "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data

    def build():
        # each part needs the other operand's values
        ad = a.data if _tracked(b) else None
        bd = b.data if _tracked(a) else None
        ashape, bshape = a.shape, b.shape

        def bwd(g):
            return (None if bd is None else _unbroadcast(g * bd, ashape),
                    None if ad is None else _unbroadcast(g * ad, bshape))
        return bwd
    return _emit(out, (a, b), build, "mul")


def neg(a: Tensor) -> Tensor:
    return _emit(-a.data, (a,), lambda: (lambda g: (-g,)), "neg",
                 computes=False)


def _check_matmul(a: Tensor, b: Tensor, opname: str) -> None:
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"{opname} needs >=2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"{opname} inner dims disagree: {a.shape} @ {b.shape}")


def _matmul_grads(g: np.ndarray, ad, bd, ashape: tuple, bshape: tuple):
    """(ga, gb) of ``a @ b`` from the output gradient.  ``bd`` is passed
    only when ga is wanted and ``ad`` only when gb is; a part whose operand
    is None is skipped and returned as None."""
    ga = gb = None
    if len(ashape) > 2 and len(bshape) == 2:
        # a weight shared by every leading index: one gemm per side
        k, n = bshape
        if bd is not None:
            ga = (g.reshape(-1, n) @ bd.T).reshape(ashape)
        if ad is not None:
            gb = ad.reshape(-1, k).T @ g.reshape(-1, n)
        return ga, gb
    if bd is not None:
        ga = _unbroadcast(np.matmul(g, bd.swapaxes(-1, -2)), ashape)
    if ad is not None:
        gb = _unbroadcast(np.matmul(ad.swapaxes(-1, -2), g), bshape)
    return ga, gb


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; leading batch dims broadcast."""
    _check_matmul(a, b, "matmul")
    out = np.matmul(a.data, b.data)

    def build():
        ad = a.data if _tracked(b) else None
        bd = b.data if _tracked(a) else None
        ashape, bshape = a.shape, b.shape
        return lambda g: _matmul_grads(g, ad, bd, ashape, bshape)
    return _emit(out, (a, b), build, "matmul")


def _affine(xd: np.ndarray, wd: np.ndarray, bd: np.ndarray) -> np.ndarray:
    """``xd @ wd + bd`` on arrays, the arithmetic of ``linear``."""
    out = np.matmul(xd, wd)
    out += bd
    return out


def _linear_grads(g: np.ndarray, xd, wd, xshape: tuple, wshape: tuple,
                  need_b: bool):
    """(gx, gw, gb) of ``linear``: gx and gw as in ``_matmul_grads`` (each
    needs the other operand), gb only with ``need_b``."""
    gx, gw = _matmul_grads(g, xd, wd, xshape, wshape)
    return gx, gw, _unbroadcast(g, wshape[1:]) if need_b else None


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` as one op: x [..., K], w [K, N], b [N].  Bit-identical
    to ``matmul(x, w) + b``, values and gradients."""
    _check_matmul(x, w, "linear")
    if w.data.ndim != 2 or b.shape != w.shape[1:]:
        raise ShapeError(f"linear weight {w.shape} / bias {b.shape} mismatch")
    out = _affine(x.data, w.data, b.data)

    def build():
        xd = x.data if _tracked(w) else None
        wd = w.data if _tracked(x) else None
        need_b = _tracked(b)
        xshape, wshape = x.shape, w.shape
        return lambda g: _linear_grads(g, xd, wd, xshape, wshape, need_b)
    return _emit(out, (x, w, b), build, "linear")


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    out = a.data.reshape(shape)

    def build():
        orig = a.shape

        def bwd(g):
            return (g.reshape(orig),)
        return bwd
    return _emit(out, (a,), build, "reshape", computes=False)


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    out = np.ascontiguousarray(a.data.transpose(axes))

    def build():
        inv = tuple(np.argsort(axes))

        def bwd(g):
            return (np.ascontiguousarray(g.transpose(inv)),)
        return bwd
    return _emit(out, (a,), build, "transpose", computes=False)


def concat(parts: Sequence[Tensor], axis: int) -> Tensor:
    out = np.concatenate([p.data for p in parts], axis=axis)

    def build():
        sizes = [p.shape[axis] for p in parts]
        splits = np.cumsum(sizes)[:-1]

        def bwd(g):
            return tuple(np.ascontiguousarray(piece)
                         for piece in np.split(g, splits, axis=axis))
        return bwd
    return _emit(out, tuple(parts), build, "concat", computes=False)


def patchify(img: Tensor, patch: int) -> Tensor:
    """[..., C, H, W] -> [..., (H/patch)*(W/patch), C*patch*patch]: each
    non-overlapping patch x patch tile as one row, in (channel, row,
    column) order, and the rows in row-major tile order.  One op; values
    and gradient equal the composed reshape, transpose and reshape."""
    *lead, c, hh, ww = img.shape
    if hh % patch or ww % patch:
        raise ShapeError(f"image {hh}x{ww} not divisible by patch {patch}")
    h, w, k = hh // patch, ww // patch, len(lead)
    perm = (*range(k), k + 1, k + 3, k, k + 2, k + 4)    # [.., h, w, C, p, p]
    out = np.ascontiguousarray(img.data.reshape(
        *lead, c, h, patch, w, patch).transpose(perm))

    def build():
        inv = tuple(np.argsort(perm))
        tiles, shape = out.shape, img.shape

        def bwd(g):
            return (np.ascontiguousarray(g.reshape(tiles).transpose(inv))
                    .reshape(shape),)
        return bwd
    return _emit(out.reshape(*lead, h * w, c * patch * patch), (img,), build,
                 "patchify", computes=False)


def stack(parts: Sequence[Tensor]) -> Tensor:
    """Join equal-shaped tensors along a new leading axis."""
    out = np.stack([p.data for p in parts])

    def build():
        n = len(parts)

        def bwd(g):
            return tuple(g[i] for i in range(n))
        return bwd
    return _emit(out, tuple(parts), build, "stack", computes=False)


def gather(a: Tensor, index) -> Tensor:
    """Pick along axis 0: an int drops the axis, a sequence of ints keeps it
    and may repeat rows.  Rows that form one ascending run inside the array
    are picked as a view, not a copy.  The backward rule scatter-adds into
    the rows."""
    rows = index if isinstance(index, int) else list(index)
    if not isinstance(rows, int) and rows and 0 <= rows[0] \
            and rows[-1] < a.shape[0] \
            and rows == list(range(rows[0], rows[0] + len(rows))):
        out = a.data[rows[0]:rows[-1] + 1]
    else:
        out = a.data[rows]

    def build():
        shape = a.shape

        def bwd(g):
            if isinstance(rows, int):
                ga = np.zeros(shape)
                ga[rows] = g
                return (ga,)
            return (_scatter_rows(g, rows, shape[0]),)
        return bwd
    return _emit(out, (a,), build, "gather", computes=False)


def _scatter_rows(g: np.ndarray, rows: list, n: int) -> np.ndarray:
    """Backward of picking ``rows`` along axis 0 of an n-row array:
    repeated rows accumulate, in row order."""
    ga = np.zeros((n,) + g.shape[1:])
    for j, i in enumerate(rows):
        ga[i] += g[j]
    return ga


def tsum(a: Tensor, axis: int | None = None) -> Tensor:
    """Sum of every element, or along one ``axis`` (which is dropped)."""
    out = a.data.sum(axis=axis)

    def build():
        shape = a.shape

        def bwd(g):
            if axis is not None:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, shape).copy(),)
        return bwd
    return _emit(np.asarray(out), (a,), build, "sum")


def tmean(a: Tensor) -> Tensor:
    n = a.size
    out = a.data.mean()

    def build():
        shape = a.shape

        def bwd(g):
            return (np.broadcast_to(g / n, shape).copy(),)
        return bwd
    return _emit(np.asarray(out), (a,), build, "mean")


# ---------------------------------------------------------------------------
# nonlinearities and normalization
# ---------------------------------------------------------------------------

def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Stable softmax along ``axis``; each slice sums to 1."""
    z = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=axis, keepdims=True)

    def build():
        def bwd(g):
            dot = (g * s).sum(axis=axis, keepdims=True)
            return (s * (g - dot),)
        return bwd
    return _emit(s, (x,), build, "softmax")


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Stable log-softmax along ``axis``."""
    m = x.data.max(axis=axis, keepdims=True)
    z = x.data - m
    lse = np.log(np.exp(z).sum(axis=axis, keepdims=True))
    out = z - lse

    def build():
        soft = np.exp(out)

        def bwd(g):
            return (g - soft * g.sum(axis=axis, keepdims=True),)
        return bwd
    return _emit(out, (x,), build, "log_softmax")


def log_likelihood(logits: Tensor, weights: np.ndarray,
                   scale: np.ndarray) -> Tensor:
    """``sum_i scale[i] * sum(weights[i] * log_softmax(logits[i]))`` as one
    op, the class axis being -3: logits and the constant weights are
    [..., K, H, W], the leading dims index the items, and scale holds one
    constant per item.

    Values and the logits' gradient equal, bit for bit, the composed
    log_softmax(axis=-3), mul, transpose to (h, w, k), reshape to one row
    per item, per-row tsum, mul by scale and tsum: each item's sum runs
    over the same contiguous (h, w, k) copy.  The one finite check, on the
    output, still sees every non-finite logit: it turns its pixel's log-
    softmax into NaN or -inf, and NaN * 0 and inf * 0 are NaN."""
    *lead, k, h, w = logits.shape
    items, n = math.prod(lead), len(lead)
    if np.shape(weights) != logits.shape or np.shape(scale) != (items,):
        raise ShapeError(f"log_likelihood: weights {np.shape(weights)} and "
                         f"scale {np.shape(scale)} for logits {logits.shape}")
    xd = logits.data
    z = xd - xd.max(axis=-3, keepdims=True)
    lsm = z - np.log(np.exp(z).sum(axis=-3, keepdims=True))
    to_hwk = (*range(n), n + 1, n + 2, n)
    per_item = np.ascontiguousarray((lsm * weights).transpose(to_hwk)) \
        .reshape(items, -1).sum(axis=-1)
    out = np.asarray((per_item * scale).sum())

    def build():
        soft = np.exp(lsm)

        def bwd(g):
            gw = (g * scale).reshape(tuple(lead) + (1, 1, 1)) * weights
            return (gw - soft * gw.sum(axis=-3, keepdims=True),)
        return bwd
    return _emit(out, (logits,), build, "log_likelihood")


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-6) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    if eps <= 0:
        raise ValueError("layer_norm eps must be positive")
    # every mean is sum / n, which is what np.mean computes, without its
    # Python wrapper
    n = x.shape[-1]
    mu = x.data.sum(axis=-1, keepdims=True) / n
    xc = x.data - mu
    var = (xc * xc).sum(axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = xhat * gamma.data + beta.data

    def build():
        gd = gamma.data

        def bwd(g):
            gxhat = g * gd
            # standard layernorm backward over the normalized axis
            gx = inv * (gxhat
                        - gxhat.sum(axis=-1, keepdims=True) / n
                        - xhat * (gxhat * xhat).sum(axis=-1, keepdims=True) / n)
            axes = tuple(range(g.ndim - 1))
            ggamma = (g * xhat).sum(axis=axes) if g.ndim > 1 else g * xhat
            gbeta = g.sum(axis=axes) if g.ndim > 1 else g.copy()
            return (gx, ggamma, gbeta)
        return bwd
    return _emit(out, (x, gamma, beta), build, "layer_norm")


# Cephes' rational approximations of erf (ndtr.c), highest degree first:
# x T(x^2) / U(x^2) on |x| < 1, and 1 - exp(-x^2) P(|x|) / Q(|x|) above.
# U and Q are monic; their leading 1 is implied.
_ERF_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1,
    2.23200534594684319226e3, 7.00332514112805075473e3,
    5.55923013010394962768e4)
_ERF_U = (
    3.35617141647503099647e1, 5.21357949780152679795e2,
    4.59432382970980127987e3, 2.26290000613890934246e4,
    4.92673942608635921086e4)
_ERF_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1,
    7.46321056442269912687e0, 4.86371970985681366614e1,
    1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3,
    5.57535335369399327526e2)
_ERF_Q = (
    1.32281951154744992508e1, 8.67072140885989742329e1,
    3.54937778887819891062e2, 9.75708501743205489753e2,
    1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2)
# erfc(6) = 2.2e-17 is under half an ulp of 1, so erf is exactly +-1 beyond
_ERF_CLAMP = 6.0


def _polevl(v: np.ndarray, coefs: tuple) -> np.ndarray:
    """The polynomial with ``coefs`` at ``v``, Horner form, in place."""
    acc = v * coefs[0]
    acc += coefs[1]
    for c in coefs[2:]:
        acc *= v
        acc += c
    return acc


def _p1evl(v: np.ndarray, coefs: tuple) -> np.ndarray:
    """As ``_polevl``, after an implied leading coefficient 1."""
    acc = v + coefs[0]
    for c in coefs[1:]:
        acc *= v
        acc += c
    return acc


def _erf(x: np.ndarray) -> np.ndarray:
    """erf of a float64 array, within 3 ulp of the correctly rounded value;
    odd bit for bit, exactly +-1 from |x| = 6 on, NaN kept.  The exp branch
    runs only on the elements with |x| >= 1."""
    if x.ndim == 0:                 # a numpy scalar result could not take put
        return _erf(x.reshape(1))[0]
    with np.errstate(over="ignore"):    # |x| > 1.3e154 squares to inf
        z = x * x
    # for finite x, x*x rounds to >= 1 exactly when |x| >= 1; inf and NaN
    # fall on the same side as |x| >= 1 does
    big = np.flatnonzero(z >= 1.0)
    xs = x
    if big.size:
        # the first branch runs on every lane; bound the lanes put overwrites
        xs = x.copy()
        xs.put(big, 1.0)
        z.put(big, 1.0)
    y = _polevl(z, _ERF_T)
    y *= xs
    y /= _p1evl(z, _ERF_U)
    if big.size:
        v = np.minimum(np.abs(x.take(big)), _ERF_CLAMP)
        p, q = _polevl(v, _ERF_P), _p1evl(v, _ERF_Q)
        np.multiply(v, v, out=v)
        np.negative(v, out=v)
        np.exp(v, out=v)
        v *= p
        v /= q
        np.subtract(1.0, v, out=v)
        y.put(big, np.copysign(v, x.take(big), out=v))
    return y


def _gelu_cdf(xd: np.ndarray) -> np.ndarray:
    """Phi(x), the Gaussian CDF that GELU multiplies x by."""
    phi_cdf = _erf(xd * _INV_SQRT2)
    phi_cdf += 1.0
    phi_cdf *= 0.5
    return phi_cdf


def _gelu_slope(xd: np.ndarray, phi_cdf: np.ndarray) -> np.ndarray:
    """d/dx of x * Phi(x); the one rule that fault injection perturbs."""
    pdf = np.exp(-0.5 * xd * xd) * _INV_SQRT2PI
    d = phi_cdf + xd * pdf
    if _FAULT_INJECTION:
        d = d * 1.01
    return d


def gelu(x: Tensor) -> Tensor:
    """Exact Gaussian-CDF GELU: x * Phi(x), via erf."""
    phi_cdf = _gelu_cdf(x.data)
    out = x.data * phi_cdf

    def build():
        xd = x.data
        return lambda g: (g * _gelu_slope(xd, phi_cdf),)
    return _emit(out, (x,), build, "gelu")


def relu(x: Tensor) -> Tensor:
    out = np.maximum(x.data, 0.0)

    def build():
        mask = x.data > 0.0

        def bwd(g):
            return (g * mask,)
        return bwd
    return _emit(out, (x,), build, "relu")


def leaky_relu(x: Tensor, slope: float = 0.2) -> Tensor:
    out = np.where(x.data > 0.0, x.data, slope * x.data)

    def build():
        d = np.where(x.data > 0.0, 1.0, slope)

        def bwd(g):
            return (g * d,)
        return bwd
    return _emit(out, (x,), build, "leaky_relu")


def softplus(x: Tensor) -> Tensor:
    """log(1 + exp(x)) computed without overflow."""
    out = np.maximum(x.data, 0.0) + np.log1p(np.exp(-np.abs(x.data)))

    def build():
        z = np.exp(-np.abs(x.data))
        sig = np.where(x.data >= 0.0, 1.0 / (1.0 + z), z / (1.0 + z))

        def bwd(g):
            return (g * sig,)
        return bwd
    return _emit(out, (x,), build, "softplus")


def softplus_means(xs: Sequence[Tensor], signs: Sequence[int]) -> Tensor:
    """``sum_i mean(softplus(signs[i] * xs[i]))`` as one op, each sign +1
    or -1; the means add in order.

    Values and gradients equal, bit for bit, the composed neg (for a sign
    of -1), softplus, tmean and add ops.  The output also adds +0.0 for
    each x - x summed, which leaves the sum of means (never -0.0) as it is
    but turns it into NaN if any x is NaN or infinite, so the one finite
    check, on the output, sees every non-finite x, even one that the
    softplus would saturate to 0."""
    if len(xs) != len(signs) or not xs or any(s not in (1, -1) for s in signs):
        raise ShapeError(f"softplus_means: {len(xs)} inputs, signs {signs}")
    vs = [-x.data if s < 0 else x.data for x, s in zip(xs, signs)]
    total = None
    for v in vs:
        m = (np.maximum(v, 0.0) + np.log1p(np.exp(-np.abs(v)))).mean()
        total = m if total is None else total + m
    for x in xs:
        total = total + (x.data - x.data).sum()

    def build():
        rules = []      # per input: its shape, softplus slope and sign
        for x, v, s in zip(xs, vs, signs):
            if not _tracked(x):
                rules.append(None)
                continue
            z = np.exp(-np.abs(v))
            sig = np.where(v >= 0.0, 1.0 / (1.0 + z), z / (1.0 + z))
            rules.append((x.shape, sig, s))

        def bwd(g):
            parts = []
            for rule in rules:
                if rule is None:
                    parts.append(None)
                    continue
                shape, sig, s = rule
                part = np.broadcast_to(g / sig.size, shape) * sig
                parts.append(-part if s < 0 else part)
            return tuple(parts)
        return bwd
    return _emit(np.asarray(total), tuple(xs), build, "softplus_means")


# ---------------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------------

def _attend(qd: np.ndarray, kd: np.ndarray, vd: np.ndarray, heads: int,
            route=None):
    """The attention core of ``multi_head_attention`` on arrays: its output
    and ``grads(g, need_q, need_k, need_v)``, which maps the output
    gradient to (gq, gk, gv), each None unless needed.  ``grads`` holds
    arrays only."""
    *lead, n, c = qd.shape
    nr, dh, nl = kd.shape[-2], c // heads, len(lead)
    keep = tuple(range(nl))
    split = (*keep, nl + 1, nl, nl + 2)      # [.., M, h, dh] <-> [.., h, M, dh]
    k_split = (*keep, nl + 1, nl + 2, nl)    # [.., Nr, h, dh] -> [.., h, dh, Nr]
    qh = np.ascontiguousarray(qd.reshape(*lead, n, heads, dh).transpose(split))
    kt = np.ascontiguousarray(kd.reshape(*lead, nr, heads, dh).transpose(k_split))
    vh = np.ascontiguousarray(vd.reshape(*lead, nr, heads, dh).transpose(split))
    q_rows = kv_rows = None
    if route is not None:
        q_rows, kv_rows = list(route[0]), list(route[1])
        qh, kt, vh = qh[q_rows], kt[kv_rows], vh[kv_rows]
    scale = 1.0 / math.sqrt(dh)
    scores = np.matmul(qh, kt) * scale                    # [.., h, N, Nr]
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    s = e / e.sum(axis=-1, keepdims=True)
    o = np.matmul(s, vh)                                  # [.., h, N, dh]
    out = np.ascontiguousarray(o.transpose(split)).reshape(o.shape[:-3] + (n, c))
    shape = tuple(lead)

    def merge(gh, rows, perm, like):
        # undo the gather (scatter-add), then the head split
        if gh is None:
            return None
        if rows is not None:
            gh = _scatter_rows(gh, rows, shape[0])
        return np.ascontiguousarray(gh.transpose(perm)).reshape(like)

    def grads(g, need_q, need_k, need_v):
        go = np.ascontiguousarray(
            g.reshape(g.shape[:-1] + (heads, dh)).transpose(split))
        gv = np.matmul(s.swapaxes(-1, -2), go) if need_v else None
        gq = gk = None
        if need_q or need_k:
            gs = np.matmul(go, vh.swapaxes(-1, -2))
            gz = s * (gs - (gs * s).sum(axis=-1, keepdims=True)) * scale
            if need_q:
                gq = np.matmul(gz, kt.swapaxes(-1, -2))
            if need_k:
                gk = np.matmul(qh.swapaxes(-1, -2), gz)
        return (merge(gq, q_rows, split, shape + (n, c)),
                merge(gk, kv_rows, tuple(np.argsort(k_split)), shape + (nr, c)),
                merge(gv, kv_rows, split, shape + (nr, c)))
    return out, grads


def multi_head_attention(q: Tensor, k: Tensor, v: Tensor, heads: int,
                         route=None) -> Tensor:
    """Scaled dot-product attention as one op: queries q [..., N, C] over
    keys and values k, v [..., Nr, C], with C split into ``heads`` heads.
    Returns [..., N, C].

    ``route = (q_rows, kv_rows)`` pairs rows of the leading axis: output
    row i attends with query row ``q_rows[i]`` over key/value row
    ``kv_rows[i]``; rows may repeat, and their gradients accumulate.  The
    arithmetic is that of the composed head split, gather, matmul, scale,
    softmax, matmul and head merge, so values and gradients match those
    ops bit for bit.
    """
    *lead, n, c = q.shape
    if c % heads or k.shape[-1] != c or k.shape != v.shape \
            or k.shape[:-2] != tuple(lead):
        raise ShapeError(f"attention shapes disagree: q {q.shape}, k {k.shape}, "
                         f"v {v.shape}, heads {heads}")
    out, grads = _attend(q.data, k.data, v.data, heads, route)

    def build():
        need = (_tracked(q), _tracked(k), _tracked(v))
        return lambda g: grads(g, *need)
    return _emit(out, (q, k, v), build, "multi_head_attention")


# ---------------------------------------------------------------------------
# convolution / resampling
# ---------------------------------------------------------------------------

def _conv_out_size(n: int, k: int, stride: int, pad: int) -> int:
    return (n + 2 * pad - k) // stride + 1


# Convolution and resampling compute on [M, H, W, C] arrays (channels last,
# the token layout); channel-first callers are moved to and from it inside
# the op, at no tape cost.  Every leading dim is a batch, and each item is
# computed on its own (per-item gemms, a fixed tap order), so an item's
# output does not depend on how many items share the call.

def _as_last(data: np.ndarray, channels_last: bool) -> np.ndarray:
    """[M, H, W, C] view of a [..., H, W, C] or [..., C, H, W] array."""
    flat = data.reshape((-1,) + data.shape[-3:])
    return flat if channels_last else np.moveaxis(flat, 1, -1)


def _from_last(data: np.ndarray, channels_last: bool) -> np.ndarray:
    return data if channels_last else np.moveaxis(data, -1, -3)


def _pad(xb: np.ndarray, ph: int, pw: int | None = None) -> np.ndarray:
    """Zero-pad the spatial axes of [M, H, W, C] by ph rows and pw (default
    ph) columns on each side (cheaper than np.pad)."""
    pw = ph if pw is None else pw
    m, h, w, c = xb.shape
    xp = np.zeros((m, h + 2 * ph, w + 2 * pw, c))
    xp[:, ph:ph + h, pw:pw + w] = xb
    return xp


def _crop(gpad: np.ndarray, padding: int) -> np.ndarray:
    hp, wp = gpad.shape[1:3]
    return gpad[:, padding:hp - padding, padding:wp - padding]


def _col2im(gcols: np.ndarray, stride: int, pshape: tuple) -> np.ndarray:
    """Backward of the tap reads: the padded input gradient [M, Hp, Wp, C]
    (``pshape``) from tap-major column gradients [kh, kw, M, Ho, Wo, C].

    Tap (i, j) lands on one stride phase, (i % stride, j % stride), at a
    contiguous offset of that phase's buffer.  The taps add into the phase
    buffers in (i, j) order, starting from zero, and one reshape interleaves
    the phases.  Every element so sums the same terms in the same order as
    adding each tap into a strided view of the padded gradient."""
    kh, kw, m, h_out, w_out, c = gcols.shape
    hp, wp = pshape[1:3]
    hq = max(-(-hp // stride), (kh - 1) // stride + h_out)
    wq = max(-(-wp // stride), (kw - 1) // stride + w_out)
    phases = np.zeros((stride, stride, m, hq, wq, c))
    for i in range(kh):
        r = i // stride
        for j in range(kw):
            q = j // stride
            phases[i % stride, j % stride, :, r:r + h_out, q:q + w_out] \
                += gcols[i, j]
    full = phases.transpose(2, 3, 0, 4, 1, 5).reshape(
        m, hq * stride, wq * stride, c)
    return full[:, :hp, :wp]


def _conv_dims(shape: tuple, kh: int, kw: int, stride: int, padding: int,
               channels_last: bool, opname: str):
    """(lead dims, C, H, W, Ho, Wo) of a convolution input of ``shape``."""
    if channels_last:
        *lead, h_in, w_in, c = shape
    else:
        *lead, c, h_in, w_in = shape
    h_out = _conv_out_size(h_in, kh, stride, padding)
    w_out = _conv_out_size(w_in, kw, stride, padding)
    if h_out < 1 or w_out < 1:
        raise ShapeError(
            f"{opname} output would be {h_out}x{w_out} for input {shape}, "
            f"kernel {kh}x{kw}, stride {stride}, padding {padding}")
    return tuple(lead), c, h_in, w_in, h_out, w_out


def _im2col(xp: np.ndarray, kh: int, kw: int, stride: int, h_out: int,
            w_out: int) -> np.ndarray:
    """Window columns [M, Ho*Wo, kh*kw*C] of the padded [M, Hp, Wp, C]
    input: one row per output pixel, in (kh, kw, C) order."""
    m, _, _, cin = xp.shape
    sm, sh, sw, sc = xp.strides
    win = np.lib.stride_tricks.as_strided(          # [M, Ho, Wo, kh, kw, Cin]
        xp, (m, h_out, w_out, kh, kw, cin),
        (sm, stride * sh, stride * sw, sh, sw, sc), writeable=False)
    return win.reshape(m, h_out * w_out, kh * kw * cin)


def _input_grad(g2: np.ndarray, wmat: np.ndarray, h_out: int, w_out: int,
                kh: int, kw: int, stride: int, padding: int,
                pshape: tuple) -> np.ndarray:
    """Input gradient [M, H, W, C_in] (a cropped view) of a convolution
    over a padded [M, Hp, Wp, C_in] input (``pshape``) from its output
    gradient g2 [M, Ho*Wo, C_out]: tap-major column gradients g2 @ wmat,
    folded back by ``_col2im``."""
    m, cin = pshape[0], pshape[-1]
    gcols = np.ascontiguousarray(np.matmul(g2, wmat).reshape(
        m, h_out, w_out, kh, kw, cin).transpose(3, 4, 0, 1, 2, 5))
    return _crop(_col2im(gcols, stride, pshape), padding)


def _input_grad_first(g: np.ndarray, wmat: np.ndarray, kh: int, kw: int,
                      stride: int, padding: int, pshape: tuple) -> np.ndarray:
    """``_input_grad`` from and to channels-first: g [M, C_out, Ho, Wo] ->
    [M, C_in, H, W].  Each tap's column gradients are wmat[:, tap]^T @ g,
    laid out [M, C_in, Ho, Wo], so ``_col2im`` adds runs of Wo values
    instead of C_in; it pays where Wo > C_in.  Both gemms sum the same C_out
    products of each element in the same order, so the values equal
    ``_input_grad``'s (the critic's tests compare them bit for bit)."""
    m, cout, h_out, w_out = g.shape
    _, hp, wp, cin = pshape
    wtaps = np.ascontiguousarray(wmat.T.reshape(kh, kw, 1, cin, cout))
    gcols = np.matmul(wtaps, g.reshape(m, cout, h_out * w_out))
    gx = _col2im(gcols.reshape(kh, kw, m * cin, h_out, w_out, 1), stride,
                 (m * cin, hp, wp, 1))
    return _crop(gx, padding).reshape(m, cin, hp - 2 * padding,
                                      wp - 2 * padding)


def _conv(xl: np.ndarray, w: Tensor, b: Tensor | None, stride: int,
          padding: int, h_out: int, w_out: int):
    """The convolution of ``conv2d`` on xl [M, H, W, C_in], plus b if
    given: its output [M, Ho*Wo, C_out], its window columns, and
    ``grads(g2, need_x, wcols)``, which maps the output gradient g2
    [M, Ho*Wo, C_out] to (gx, gw): gx, a cropped [M, H, W, C_in] view, if
    ``need_x``, and gw if the columns ``wcols`` are passed; else None.
    ``grads`` holds arrays only, and not the columns."""
    cout, cin, kh, kw = w.shape
    xp = _pad(xl, padding)
    cols = _im2col(xp, kh, kw, stride, h_out, w_out)
    wmat = w.data.transpose(0, 2, 3, 1).reshape(cout, kh * kw * cin)
    out = np.matmul(cols, wmat.T)
    if b is not None:
        out += b.data
    pshape = xp.shape

    def grads(g2, need_x, wcols):
        gx = gw = None
        if wcols is not None:
            gw = np.tensordot(g2, wcols, axes=([0, 1], [0, 1]))
            gw = np.ascontiguousarray(
                gw.reshape(cout, kh, kw, cin).transpose(0, 3, 1, 2))
        if need_x:
            gx = _input_grad(g2, wmat, h_out, w_out, kh, kw, stride, padding,
                             pshape)
        return gx, gw
    return out, cols, grads


def conv2d(x: Tensor, w: Tensor, stride: int = 1, padding: int = 0,
           channels_last: bool = False, b: Tensor | None = None) -> Tensor:
    """Direct cross-correlation with w [C_out, C_in, kh, kw] over
    x [..., C_in, H, W], or x [..., H, W, C_in] with ``channels_last``,
    plus an optional per-channel bias b [C_out].

    The bias is bit-identical to adding ``reshape(b, (-1, 1, 1))`` to the
    output, or with ``channels_last`` to adding b to the [..., Ho*Wo, C_out]
    tokens: its gradient is reduced in the order of that add's backward
    (leading axes, then H and W, or then the flattened token axis)."""
    cout, cin_w, kh, kw = w.shape
    lead, cin, h_in, w_in, h_out, w_out = _conv_dims(
        x.shape, kh, kw, stride, padding, channels_last, "conv2d")
    if cin != cin_w:
        raise ShapeError(f"conv2d channel mismatch: input {x.shape}, weight {w.shape}")
    fused = b is not None
    if fused and b.shape != (cout,):
        raise ShapeError(f"conv2d bias {b.shape} for weight {w.shape}")
    xl = _as_last(x.data, channels_last)
    m = xl.shape[0]
    out, cols, grads = _conv(xl, w, b, stride, padding, h_out, w_out)
    out = out.reshape(lead + (h_out, w_out, cout))
    parents = (x, w, b) if fused else (x, w)

    def build():
        need_x = _tracked(x)
        wcols = cols if _tracked(w) else None
        need_b = fused and _tracked(b)

        def bwd(g):
            g2 = _as_last(g, channels_last).reshape(m, h_out * w_out, cout)
            gx, gw = grads(g2, need_x, wcols)
            gb = None
            if need_x:
                gx = gx.reshape(lead + (h_in, w_in, cin))
                gx = np.ascontiguousarray(_from_last(gx, channels_last))
            if need_b:
                gb = (_unbroadcast(g.reshape(lead + (h_out * w_out, cout)),
                                   (cout,)) if channels_last else
                      _unbroadcast(g, (cout, 1, 1)).reshape(cout))
            return (gx, gw, gb) if fused else (gx, gw)
        return bwd
    return _emit(_from_last(out, channels_last), parents, build, "conv2d")


def token_conv2d(tokens: Tensor, w: Tensor, b: Tensor, grid: tuple[int, int],
                 stride: int, padding: int) -> Tensor:
    """``conv2d`` with ``channels_last`` and bias b over tokens
    [..., h*w, C_in] on the row-major ``grid`` (h, w), as one op: tokens
    [..., Ho*Wo, C_out] out.

    Values and gradients equal, bit for bit, reshaping the tokens to the
    grid, ``conv2d`` and reshaping its output back to tokens."""
    h, wd = grid
    *lead, n, cin = tokens.shape
    cout, cin_w, kh, kw = w.shape
    _, _, _, _, h_out, w_out = _conv_dims(
        (*lead, h, wd, cin), kh, kw, stride, padding, True, "token_conv2d")
    if n != h * wd or cin != cin_w or b.shape != (cout,):
        raise ShapeError(f"token_conv2d: tokens {tokens.shape} on grid "
                         f"{h}x{wd}, weight {w.shape}, bias {b.shape}")
    xl = tokens.data.reshape(-1, h, wd, cin)
    m = xl.shape[0]
    out, cols, grads = _conv(xl, w, b, stride, padding, h_out, w_out)

    def build():
        need_x = _tracked(tokens)
        wcols = cols if _tracked(w) else None
        need_b = _tracked(b)
        shape = tokens.shape

        def bwd(g):
            gx, gw = grads(g.reshape(m, h_out * w_out, cout), need_x, wcols)
            if need_x:
                gx = np.ascontiguousarray(gx).reshape(shape)
            return (gx, gw, _unbroadcast(g, (cout,)) if need_b else None)
        return bwd
    return _emit(out.reshape(*lead, h_out * w_out, cout), (tokens, w, b),
                 build, "token_conv2d")


def patch_critic(x: Tensor | Sequence[Tensor], ws: Sequence[Tensor],
                 bs: Sequence[Tensor], slope: float) -> Tensor:
    """The patch critic as one op: per layer a stride-2, padding-1
    convolution with w [C_out, C_in, kh, kw] plus its bias b [C_out], and
    a leaky ReLU of ``slope`` between layers (none after the last).

    ``x`` is one map [..., C, H, W], whose logits [..., C_last, H', W']
    come back, or a sequence of same-shaped maps, whose logits come back
    stacked on a new leading axis.  The maps run through each layer
    together, channels-last.  Values and gradients equal, bit for bit,
    those of ``conv2d`` (with ``b``) and ``leaky_relu`` ops run once per
    map: each item is its own gemm, each map's weight and bias gradients
    are reduced as ``conv2d`` reduces them, and the maps' parts add last
    map first, as the tape adds the parts of repeated calls."""
    xs = [x] if isinstance(x, Tensor) else list(x)
    shape = xs[0].shape
    if any(t.shape != shape for t in xs) or len(ws) != len(bs):
        raise ShapeError(f"patch_critic: maps {[t.shape for t in xs]}, "
                         f"{len(ws)} weights, {len(bs)} biases")
    lead = shape[:-3]
    items = math.prod(lead)
    m = len(xs) * items
    last = len(ws) - 1
    layers = []     # (output shape, columns, wmat, pshape, leaky slopes)
    act = None
    for j, (w, b) in enumerate(zip(ws, bs)):
        cout, cin_w, kh, kw = w.shape
        _, cin, h_in, w_in, h_out, w_out = _conv_dims(
            shape if j == 0 else act.shape, kh, kw, 2, 1, j > 0,
            f"patch_critic layer {j}")
        if cin != cin_w or b.shape != (cout,):
            raise ShapeError(f"patch_critic layer {j}: weight {w.shape} and "
                             f"bias {b.shape} for {cin} input channels")
        if j == 0:
            xp = np.zeros((m, h_in + 2, w_in + 2, cin))
            for i, t in enumerate(xs):
                xp[i * items:(i + 1) * items, 1:1 + h_in, 1:1 + w_in] = \
                    _as_last(t.data, False)
        else:
            xp = _pad(act, 1)
        cols = _im2col(xp, kh, kw, 2, h_out, w_out)
        wmat = w.data.transpose(0, 2, 3, 1).reshape(cout, kh * kw * cin)
        z = np.matmul(cols, wmat.T)
        z += b.data
        z = z.reshape(m, h_out, w_out, cout)
        _check_finite(z, f"patch_critic layer {j}")
        # the leaky ReLU as z times its slopes, what the backward reads
        slopes = None if j == last else np.where(z > 0.0, 1.0, slope)
        layers.append((z.shape, cols, wmat, xp.shape, slopes))
        act = z if j == last else z * slopes
    out = np.moveaxis(act, -1, 1)
    out = out.reshape((len(xs),) + lead + out.shape[1:])

    def build():
        need_x = [_tracked(t) for t in xs]
        need_w = [_tracked(w) for w in ws]
        need_b = [_tracked(b) for b in bs]
        # layer j's input gradient is needed if any gradient at or below
        # layer j - 1 is; it is formed channels-first where Wo > C_in
        need_g, below = [], any(need_x)
        for j in range(last + 1):
            need_g.append(below)
            below = below or need_w[j] or need_b[j]
        grad_first = [need_g[j] and zshape[2] > pshape[-1]
                 for j, (zshape, _, _, pshape, _) in enumerate(layers)]
        rules = []      # (z shape, kernel, columns, wmat, pshape, mask)
        for j, (zshape, cols, wmat, pshape, mask) in enumerate(layers):
            if j == last or not need_g[j + 1]:
                mask = None
            elif grad_first[j + 1]:
                mask = np.ascontiguousarray(np.moveaxis(mask, -1, 1))
            rules.append((zshape, ws[j].shape[2:], cols if need_w[j] else None,
                          wmat, pshape, mask))
        maps = [slice(i * items, (i + 1) * items) for i in range(len(xs))]

        def add_maps(parts):
            total = None
            for part in reversed(parts):
                total = part if total is None else total + part
            return total

        def bwd(g):
            gws, gbs = [None] * (last + 1), [None] * (last + 1)
            _, h_out, w_out, cout = rules[-1][0]
            g = np.ascontiguousarray(g).reshape(m, cout, h_out, w_out)
            is_first = True         # g is [M, C, H, W], else [M, H, W, C]
            for j in range(last, -1, -1):
                (_, h_out, w_out, cout), (kh, kw), cols, wmat, pshape, \
                    mask = rules[j]
                if mask is not None:
                    g = g * mask
                g_first = g if is_first else None
                g2 = None if is_first else g.reshape(m, h_out * w_out, cout)
                if g_first is None and (need_b[j] or grad_first[j]):
                    g_first = np.ascontiguousarray(np.moveaxis(g, -1, 1))
                if g2 is None and (need_w[j] or
                                   (need_g[j] and not grad_first[j])):
                    g2 = np.moveaxis(g, 1, -1).reshape(m, h_out * w_out, cout)
                if need_w[j]:
                    gw = add_maps([np.tensordot(g2[s], cols[s],
                                                axes=([0, 1], [0, 1]))
                                   for s in maps])
                    gws[j] = np.ascontiguousarray(
                        gw.reshape(cout, kh, kw, -1).transpose(0, 3, 1, 2))
                if need_b[j]:
                    gbs[j] = add_maps([_unbroadcast(
                        g_first[s].reshape(lead + (cout, h_out, w_out)),
                        (cout, 1, 1)).reshape(cout) for s in maps])
                if not need_g[j]:
                    break
                if grad_first[j]:
                    g = _input_grad_first(g_first, wmat, kh, kw, 2, 1, pshape)
                else:
                    g = _input_grad(g2, wmat, h_out, w_out, kh, kw, 2, 1,
                                    pshape)
                is_first = grad_first[j]
            gxs = [None] * len(maps)
            if any(need_x):
                if not is_first:
                    g = np.moveaxis(g, -1, 1)
                gxs = [np.ascontiguousarray(g[s]).reshape(shape) if need
                       else None for s, need in zip(maps, need_x)]
            return (*gxs, *gws, *gbs)
        return bwd
    # each layer's output is checked above
    return _emit(out[0] if isinstance(x, Tensor) else out, (*xs, *ws, *bs),
                 build, "patch_critic", computes=False)


def _depthwise_taps(xp: np.ndarray, dw: np.ndarray,
                    flip: bool = False) -> np.ndarray:
    """Per-channel correlation of the padded [M, h+kh-1, w+kw-1, C] input
    with the taps dw [C, kh, kw]: [M, h, w, C].

    Tap (i, j) reads xp at offset (i, j), or at (kh-1-i, kw-1-j) with
    ``flip``; either way the taps add in (i, j) order, starting from +0.0.
    Each tap is one multiply by its weights tiled over a row of w pixels,
    so the inner loops run over w*C contiguous values."""
    c, kh, kw = dw.shape
    m, hp, wp = xp.shape[:3]
    h, w = hp - kh + 1, wp - kw + 1
    rows = xp.reshape(m, hp, wp * c)
    wrow = np.empty((kh, kw, w, c))
    wrow[...] = dw.transpose(1, 2, 0)[:, :, None]
    wrow = wrow.reshape(kh, kw, w * c)
    out = np.zeros((m, h, w * c))
    for i in range(kh):
        a = kh - 1 - i if flip else i
        for j in range(kw):
            b = (kw - 1 - j if flip else j) * c
            out += rows[:, a:a + h, b:b + w * c] * wrow[i, j]
    return out.reshape(m, h, w, c)


def _depthwise_grads(g4: np.ndarray, xw, dw: np.ndarray, padding: int,
                     need_x: bool):
    """Backward of ``_depthwise_taps`` at ``padding`` from g4 [M, h, w, C]:
    the input gradient [M, H, W, C] if ``need_x``, and the tap gradient
    [C, kh, kw] if the padded input ``xw`` is given; else None.

    The input gradient is the flipped taps' correlation over g4 padded by
    kernel - 1 - padding.  Each element adds the products that scattering
    each tap's g4 * dw[:, i, j] into a zeroed padded gradient would add, in
    the same (i, j) order, plus +-0.0 products from the padding; adding
    +-0.0 leaves a sum started at +0.0 unchanged, so the bytes are equal."""
    c, kh, kw = dw.shape
    h, w = g4.shape[1:3]
    gx = gw = None
    if need_x:
        gx = _depthwise_taps(_pad(g4, kh - 1 - padding, kw - 1 - padding), dw,
                             flip=True)
    if xw is not None:
        gw = np.empty((c, kh, kw))
        for i in range(kh):
            for j in range(kw):
                gw[:, i, j] = np.einsum("mhwc,mhwc->c",
                                        xw[:, i:i + h, j:j + w], g4)
    return gx, gw


def depthwise_conv2d(x: Tensor, w: Tensor, padding: int = 1,
                     channels_last: bool = False) -> Tensor:
    """Per-channel stride-1 convolution with w [C, kh, kw] over
    x [..., C, H, W], or x [..., H, W, C] with ``channels_last``; the
    padding must be below each kernel side."""
    cw, kh, kw = w.shape
    lead, c, h_in, w_in, h_out, w_out = _conv_dims(
        x.shape, kh, kw, 1, padding, channels_last, "depthwise")
    if c != cw:
        raise ShapeError(f"depthwise channel mismatch: input {x.shape}, weight {w.shape}")
    if not 0 <= padding < min(kh, kw):
        raise ShapeError(f"depthwise padding {padding} for a {kh}x{kw} kernel")
    xp = _pad(_as_last(x.data, channels_last), padding)
    out = _depthwise_taps(xp, w.data).reshape(lead + (h_out, w_out, c))

    def build():
        need_x = _tracked(x)
        xw = xp if _tracked(w) else None
        wd = w.data

        def bwd(g):
            gx, gw = _depthwise_grads(_as_last(g, channels_last), xw, wd,
                                      padding, need_x)
            if gx is not None:
                gx = gx.reshape(lead + (h_in, w_in, c))
                gx = np.ascontiguousarray(_from_last(gx, channels_last))
            return (gx, gw)
        return bwd
    return _emit(_from_last(out, channels_last), (x, w), build, "depthwise_conv2d")


@lru_cache(maxsize=256)
def interp_matrix(n_in: int, n_out: int) -> np.ndarray:
    """Row-stochastic bilinear interpolation matrix, half-pixel-centers.

    Used by the autodiff upsample op and by plain-array resampling in the
    label machinery, so both share one interpolation convention.  Cached
    per size pair and returned read-only.
    """
    m = np.zeros((n_out, n_in))
    scale = n_in / n_out
    src = (np.arange(n_out) + 0.5) * scale - 0.5
    i0 = np.floor(src).astype(int)
    t = src - i0
    lo = np.clip(i0, 0, n_in - 1)
    hi = np.clip(i0 + 1, 0, n_in - 1)
    rows = np.arange(n_out)
    np.add.at(m, (rows, lo), 1.0 - t)
    np.add.at(m, (rows, hi), t)
    m.flags.writeable = False
    return m


def _upsample_first(x: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resize of x [..., C, H, W] to [..., C, out_h, out_w]."""
    h, w = x.shape[-2:]
    return np.matmul(np.matmul(interp_matrix(h, out_h), x),
                     interp_matrix(w, out_w).T)


def _upsample_last(x: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resize of x [..., H, W, C] to [..., out_h, out_w, C]."""
    *lead, h, w, c = x.shape
    # resample W on [W, C] slices, then H on [H, outW*C] slices
    xw = np.matmul(interp_matrix(w, out_w), x).reshape(*lead, h, out_w * c)
    return np.matmul(interp_matrix(h, out_h), xw).reshape(*lead, out_h, out_w, c)


def _upsample_last_grad(g: np.ndarray, h: int, w: int) -> np.ndarray:
    """Backward of ``_upsample_last`` from [..., outH, outW, C] to an
    [..., h, w, C] input."""
    *lead, out_h, out_w, c = g.shape
    gw = np.matmul(interp_matrix(h, out_h).T, g.reshape(*lead, out_h, out_w * c))
    return np.matmul(interp_matrix(w, out_w).T, gw.reshape(*lead, h, out_w, c))


def upsample_bilinear(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Bilinear resize of x [..., C, H, W] under the half-pixel-centers
    convention."""
    h, w = x.shape[-2:]
    if out_h < h or out_w < w:
        raise ShapeError(f"upsample target {out_h}x{out_w} smaller than input {h}x{w}")
    out = _upsample_first(x.data, out_h, out_w)

    def build():
        def bwd(g):
            return (np.matmul(np.matmul(interp_matrix(h, out_h).T, g),
                              interp_matrix(w, out_w)),)
        return bwd
    return _emit(out, (x,), build, "upsample_bilinear")


def tokens_to_map(tokens: Tensor, grid: tuple[int, int], out_h: int,
                  out_w: int) -> Tensor:
    """[..., h*w, K] tokens on the row-major ``grid`` (h, w) -> a
    [..., K, out_h, out_w] map as one op: the channels moved before the
    grid, then a bilinear resize when (out_h, out_w) differs from the grid.

    Values and gradients equal, bit for bit, the composed reshape to the
    grid, transpose and ``upsample_bilinear``.  Without a resize the op only
    moves values and makes no finite check."""
    h, w = grid
    *lead, n, k = tokens.shape
    if n != h * w:
        raise ShapeError(f"tokens {tokens.shape} are not on grid {h}x{w}")
    if out_h < h or out_w < w:
        raise ShapeError(f"upsample target {out_h}x{out_w} smaller than input {h}x{w}")
    nl = len(lead)
    perm = (*range(nl), nl + 2, nl, nl + 1)
    out = np.ascontiguousarray(tokens.data.reshape(*lead, h, w, k).transpose(perm))
    resize = (out_h, out_w) != (h, w)
    if resize:
        out = _upsample_first(out, out_h, out_w)

    def build():
        inv = tuple(np.argsort(perm))
        shape = tokens.shape

        def bwd(g):
            if resize:
                g = np.matmul(np.matmul(interp_matrix(h, out_h).T, g),
                              interp_matrix(w, out_w))
            return (np.ascontiguousarray(g.transpose(inv)).reshape(shape),)
        return bwd
    return _emit(out, (tokens,), build, "tokens_to_map", computes=resize)


def pyramid_fuse(parts: Sequence[Tensor], w: Tensor, b: Tensor,
                 grids: Sequence[tuple[int, int]], out_h: int,
                 out_w: int) -> Tensor:
    """Project feature maps on several token grids and sum them on one:
    ``sum_k upsample(parts[k] @ w_k) + b`` as one op.

    ``parts[k]`` is [..., h_k*w_k, C_k] on the token grid ``grids[k]``, all
    with the same leading dims; ``w_k`` is its row block of w
    [sum_k C_k, N], in part order; b is [N].  The output is
    [..., out_h*out_w, N].  Parts on the same grid are summed, in part
    order, before that grid's one bilinear upsample (none on the output
    grid); the grids are then summed in order of first appearance and b
    is added once.  Bilinear resampling and the per-token projection
    commute, so this equals projecting the upsampled, concatenated parts
    with w -- with each part projected at its own resolution.
    """
    if len(parts) != len(grids) or not parts:
        raise ShapeError(f"pyramid_fuse: {len(parts)} parts for {len(grids)} grids")
    lead = parts[0].shape[:-2]
    widths = [p.shape[-1] for p in parts]
    if w.data.ndim != 2 or w.shape[0] != sum(widths) or b.shape != w.shape[1:]:
        raise ShapeError(f"pyramid_fuse weight {w.shape} / bias {b.shape} "
                         f"do not fit parts of widths {widths}")
    groups: dict[tuple[int, int], list[int]] = {}
    for k, (p, (h, wd)) in enumerate(zip(parts, grids)):
        if p.shape != (*lead, h * wd, widths[k]):
            raise ShapeError(f"pyramid_fuse part {k} {p.shape} is not "
                             f"[{lead}, {h}*{wd}, C] like part 0")
        if h > out_h or wd > out_w:
            raise ShapeError(f"pyramid_fuse grid {h}x{wd} exceeds {out_h}x{out_w}")
        groups.setdefault((h, wd), []).append(k)
    bounds = np.cumsum([0, *widths])
    n = w.shape[1]
    out = None
    for (h, wd), ks in groups.items():
        acc = np.matmul(parts[ks[0]].data, w.data[bounds[ks[0]]:bounds[ks[0] + 1]])
        for k in ks[1:]:
            acc += np.matmul(parts[k].data, w.data[bounds[k]:bounds[k + 1]])
        if (h, wd) != (out_h, out_w):
            acc = _upsample_last(acc.reshape(*lead, h, wd, n), out_h, out_w
                                 ).reshape(*lead, out_h * out_w, n)
        if out is None:
            out = acc
        else:
            out += acc
    out += b.data

    def build():
        # per part: its values if w needs a gradient, its weight block if
        # the part itself does
        xs = [p.data if _tracked(w) else None for p in parts]
        ws = [w.data[bounds[k]:bounds[k + 1]] if _tracked(p) else None
              for k, p in enumerate(parts)]
        need_b = _tracked(b)
        shapes = [p.shape for p in parts]
        # per part: the first part on its grid with the same values, whose
        # weight-gradient rows it shares
        first: dict = {}
        twin = [first.setdefault((tuple(grids[k]), id(p.data)), k)
                for k, p in enumerate(parts)]
        wshape, bshape = w.shape, b.shape

        def bwd(g):
            gparts: list = [None] * len(shapes)
            gw = np.empty(wshape) if xs[0] is not None else None
            for (h, wd), ks in groups.items():
                gg = g
                if (h, wd) != (out_h, out_w):
                    gg = _upsample_last_grad(g.reshape(*lead, out_h, out_w, n),
                                             h, wd).reshape(*lead, h * wd, n)
                for k in ks:
                    j = twin[k]
                    gparts[k], gwk = _matmul_grads(
                        gg, xs[k] if j == k else None, ws[k], shapes[k],
                        (widths[k], n))
                    if gw is not None:
                        gw[bounds[k]:bounds[k + 1]] = \
                            gwk if j == k else gw[bounds[j]:bounds[j + 1]]
            return (*gparts, gw, _unbroadcast(g, bshape) if need_b else None)
        return bwd
    return _emit(out, (*parts, w, b), build, "pyramid_fuse")


# ---------------------------------------------------------------------------
# encoder sublayers
# ---------------------------------------------------------------------------

def _tile_axes(nl: int) -> tuple[int, ...]:
    """Axes that swap the two middle axes of [.., h/r, r, w/r, r, C]; the
    permutation is its own inverse."""
    return (*range(nl), nl, nl + 2, nl + 1, nl + 3, nl + 4)


def _fold_tiles(x: np.ndarray, h: int, w: int, r: int) -> np.ndarray:
    """[..., h*w, C] row-major tokens -> [..., (h/r)*(w/r), r*r*C]: each
    r x r token tile as one row, in (row, column, channel) order."""
    if r == 1:
        return x
    *lead, _, c = x.shape
    t = x.reshape(*lead, h // r, r, w // r, r, c).transpose(_tile_axes(len(lead)))
    return np.ascontiguousarray(t).reshape(*lead, (h // r) * (w // r), r * r * c)


def _unfold_tiles(g: np.ndarray, h: int, w: int, r: int) -> np.ndarray:
    """Backward of ``_fold_tiles``: [..., (h/r)*(w/r), r*r*C] -> [..., h*w, C]."""
    if r == 1:
        return g
    *lead, _, rrc = g.shape
    c = rrc // (r * r)
    t = g.reshape(*lead, h // r, w // r, r, r, c).transpose(_tile_axes(len(lead)))
    return np.ascontiguousarray(t).reshape(*lead, h * w, c)


def residual_attention(q_in: Tensor, kv_in: Tensor, residual: Tensor,
                       weights: Sequence[Tensor], grid: tuple[int, int],
                       heads: int, ratio: int, route=None) -> Tensor:
    """Efficient multi-head attention plus its residual as one op:

        q   = q_in @ wq + bq
        red = fold(kv_in) @ wsr + bsr
        out = multi_head_attention(q, red @ wk + bk, red @ wv + bv) @ wo + bo
              + residual

    ``q_in`` and ``kv_in`` are [..., h*w, C] tokens on the row-major
    ``grid`` (h, w).  ``fold`` turns each ``ratio`` x ``ratio`` tile of
    kv_in's grid into one row of ratio*ratio*C values, so the keys and
    values are (h/ratio)*(w/ratio) rows; wsr [ratio*ratio*C, C] projects
    even at ratio 1, where fold is the identity.  ``weights`` is (wq, bq,
    wsr, bsr, wk, bk, wv, bv, wo, bo), each weight [C, C] but wsr, each
    bias [C].  ``heads`` and ``route`` are those of
    ``multi_head_attention``; residual has the output's shape.

    Values and gradients equal the composed linear, reshape, transpose,
    multi_head_attention and add ops bit for bit: the backward runs the
    same kernels, and the parts reach the tape in the order the composed
    ops reach a shared input (residual, then kv_in, then q_in).
    """
    h, w = grid
    *lead, n, c = q_in.shape
    if kv_in.shape != q_in.shape or n != h * w or c % heads:
        raise ShapeError(f"attention inputs q {q_in.shape}, kv {kv_in.shape} "
                         f"do not fit grid {h}x{w} with {heads} heads")
    if h % ratio or w % ratio:
        raise ShapeError(f"token grid {h}x{w} not divisible by ratio {ratio}")
    sq, vec = (c, c), (c,)
    wshapes = [sq, vec, (ratio * ratio * c, c), vec, sq, vec, sq, vec, sq, vec]
    if [t.shape for t in weights] != wshapes:
        raise ShapeError(f"attention weights {[t.shape for t in weights]} "
                         f"are not {wshapes}")
    wq, bq, wsr, bsr, wk, bk, wv, bv, wo, bo = weights
    parents = (residual, kv_in, q_in, *weights)
    fold = _fold_tiles(kv_in.data, h, w, ratio)
    red = _affine(fold, wsr.data, bsr.data)
    att, attend_grads = _attend(_affine(q_in.data, wq.data, bq.data),
                                _affine(red, wk.data, bk.data),
                                _affine(red, wv.data, bv.data), heads, route)
    if residual.shape != att.shape:
        raise ShapeError(f"attention residual {residual.shape} for output "
                         f"{att.shape}")
    if not _recording(parents):     # no rule will read them: free them now
        fold = red = attend_grads = None
    out = _affine(att, wo.data, bo.data)
    out += residual.data

    def build():
        t_res, t_kv, t_q = _tracked(residual), _tracked(kv_in), _tracked(q_in)
        twq, tbq, twsr, tbsr, twk, tbk, twv, tbv, two, tbo = map(_tracked, weights)
        # which intermediate outputs the composed ops would track
        need_q = t_q or twq or tbq
        need_red = t_kv or twsr or tbsr
        need_k = need_red or twk or tbk
        need_v = need_red or twv or tbv
        need_att = need_q or need_k or need_v
        # each projection keeps its input for the weight's part and its
        # weight for the input's
        q_x, q_w = (q_in.data if twq else None), (wq.data if t_q else None)
        sr_x, sr_w = (fold if twsr else None), (wsr.data if t_kv else None)
        k_x, k_w = (red if twk else None), (wk.data if need_red else None)
        v_x, v_w = (red if twv else None), (wv.data if need_red else None)
        o_x, o_w = (att if two else None), (wo.data if need_att else None)
        qshape, fshape, rshape, ashape = q_in.shape, fold.shape, red.shape, att.shape
        wsr_shape = wshapes[2]
        none = (None, None, None)

        def bwd(g):
            gatt, gwo, gbo = _linear_grads(g, o_x, o_w, ashape, sq, tbo)
            gq = gk = gv = None
            if need_att:
                gq, gk, gv = attend_grads(gatt, need_q, need_k, need_v)
            gq_in, gwq, gbq = (_linear_grads(gq, q_x, q_w, qshape, sq, tbq)
                               if need_q else none)
            gred_k, gwk, gbk = (_linear_grads(gk, k_x, k_w, rshape, sq, tbk)
                                if need_k else none)
            gred_v, gwv, gbv = (_linear_grads(gv, v_x, v_w, rshape, sq, tbv)
                                if need_v else none)
            gkv = gwsr = gbsr = None
            if need_red:
                gfold, gwsr, gbsr = _linear_grads(gred_v + gred_k, sr_x, sr_w,
                                                  fshape, wsr_shape, tbsr)
                if t_kv:
                    gkv = _unfold_tiles(gfold, h, w, ratio)
            return (g if t_res else None, gkv, gq_in,
                    gwq, gbq, gwsr, gbsr, gwk, gbk, gwv, gbv, gwo, gbo)
        return bwd
    return _emit(out, parents, build, "residual_attention")


def residual_mix_ffn(x: Tensor, w1: Tensor, b1: Tensor, dw: Tensor,
                     bdw: Tensor, w2: Tensor, b2: Tensor,
                     grid: tuple[int, int]) -> Tensor:
    """Mix-FFN plus its residual as one op:

        out = gelu(depthwise(x @ w1 + b1) + bdw) @ w2 + b2 + x

    x is [..., h*w, C] tokens on the row-major ``grid`` (h, w); w1 [C, E]
    and b1 [E] expand, dw [E, 3, 3] is a depthwise 3x3 with zero padding 1
    over the token grid and bdw [E] its bias, w2 [E, C] and b2 [C]
    project back.

    Values and gradients equal the composed linear, reshape,
    depthwise_conv2d, add, gelu, linear and add ops bit for bit.  x is
    recorded twice, so that its two parts (the residual's, then the
    expansion's) reach the tape in the order the composed ops reach it.
    """
    h, w = grid
    *lead, n, c = x.shape
    e = w1.shape[-1]
    want = [(c, e), (e,), (e, 3, 3), (e,), (e, c), (c,)]
    got = [t.shape for t in (w1, b1, dw, bdw, w2, b2)]
    if n != h * w or got != want:
        raise ShapeError(f"mix-ffn input {x.shape} on grid {h}x{w}: weights "
                         f"{got} are not {want}")
    x1shape = (*lead, n, e)
    xp = _pad(_affine(x.data, w1.data, b1.data).reshape(-1, h, w, e), 1)
    pre = _depthwise_taps(xp, dw.data).reshape(x1shape)
    pre += bdw.data
    phi_cdf = _gelu_cdf(pre)
    act = pre * phi_cdf
    parents = (x, x, w1, b1, dw, bdw, w2, b2)
    if not _recording(parents):     # no rule will read them: free them now
        xp = pre = phi_cdf = None
    out = _affine(act, w2.data, b2.data)
    out += x.data

    def build():
        tx, tw1, tb1, tdw, tbdw, tw2, tb2 = map(
            _tracked, (x, w1, b1, dw, bdw, w2, b2))
        need_x1 = tx or tw1 or tb1           # the expansion's output
        need_pre = need_x1 or tdw or tbdw    # the GELU's input
        x_x, x_w = (x.data if tw1 else None), (w1.data if tx else None)
        a_x, a_w = (act if tw2 else None), (w2.data if need_pre else None)
        xw = xp if tdw else None
        xshape, dwd = x.shape, dw.data

        def bwd(g):
            gact, gw2, gb2 = _linear_grads(g, a_x, a_w, x1shape, (e, c), tb2)
            gx = gw1 = gb1 = gdw = gbdw = None
            if need_pre:
                gpre = gact * _gelu_slope(pre, phi_cdf)
                gbdw = _unbroadcast(gpre, (e,)) if tbdw else None
                gx1, gdw = _depthwise_grads(gpre.reshape(-1, h, w, e), xw, dwd,
                                            1, need_x1)
                if need_x1:
                    gx, gw1, gb1 = _linear_grads(gx1.reshape(x1shape), x_x, x_w,
                                                 xshape, (c, e), tb1)
            return (g if tx else None, gx, gw1, gb1, gdw, gbdw, gw2, gb2)
        return bwd
    return _emit(out, parents, build, "residual_mix_ffn")


# ---------------------------------------------------------------------------
# gradient verification
# ---------------------------------------------------------------------------

def finite_diff_check(f: Callable[[Tensor], Tensor], x: Tensor, h: float = 1e-5,
                      coords: Sequence[int] | None = None) -> float:
    """Max relative error between tape gradients and central differences.

    ``f`` must map a Tensor to a scalar Tensor.  ``coords`` restricts the
    check to a subset of flat indices (all coordinates by default).
    """
    if not (1e-7 <= h <= 1e-3):
        raise ValueError(f"finite_diff_check step h={h} outside [1e-7, 1e-3]")
    base = x.data.copy()
    with Tape() as tape:
        xt = Tensor(base.copy())
        tape.watch(xt)
        y = f(xt)
        tape.backward(y)
        grad = tape.grad(xt).ravel()

    flat = base.ravel()
    idxs = range(flat.size) if coords is None else coords
    worst = 0.0
    for i in idxs:
        saved = flat[i]
        flat[i] = saved + h
        yp = f(Tensor(base)).item()
        flat[i] = saved - h
        ym = f(Tensor(base)).item()
        flat[i] = saved
        fd = (yp - ym) / (2.0 * h)
        a, b = grad[i], fd
        err = abs(a - b) / max(1.0, abs(a), abs(b))
        if err > worst:
            worst = err
    return worst
