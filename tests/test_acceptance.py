"""Desk-scale release gate: one test (and one verdict line) per criterion.

Run ``pytest tests/test_acceptance.py -v`` for the per-criterion verdicts;
add ``-s`` to see the measured numbers behind each line.  Criterion 8 runs
the full warmup + three-stage ablation chain and dominates the runtime
(about four minutes single-core; the budget it must beat is 15 minutes).
"""

import hashlib
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from quadseg.adaptation import (
    PrototypeBank,
    PseudoLabels,
    correct_pseudo_labels,
    initialize_bank,
    pair_two_way,
    ssim,
)
from quadseg.config import RunConfig
from quadseg.dataset import source_spec, target_spec, write_dataset
from quadseg.pnm import read_ppm, write_ppm
from quadseg.train import adapt, evaluate, warmup
from quadseg.verify import (
    cross_degeneracy_suite,
    ema_suite,
    fd_gradient_suite,
    shape_chain_suite,
    ssim_suite,
)


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num}: {detail}"


def _tree_digest(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = \
                    hashlib.sha256(fh.read()).hexdigest()
    return out


# ---------------------------------------------------------------------------
# 1. scale disclaimer
# ---------------------------------------------------------------------------


def test_criterion_01_full_scale_results_out_of_scope():
    # Full-corpus GPU-scale IoU figures cannot be reproduced on a desk
    # budget and are asserted nowhere in this repository; criteria 2-10
    # gate the pipeline's measurable properties on the procedural
    # micro-benchmark instead.
    substitutes = (fd_gradient_suite, shape_chain_suite,
                   cross_degeneracy_suite, ssim_suite, ema_suite)
    _verdict(1, all(callable(s) for s in substitutes),
             "full-scale corpus results out of scope; "
             "property suites 2-10 substituted")


# ---------------------------------------------------------------------------
# 2-6. numerical property suites
# ---------------------------------------------------------------------------


def test_criterion_02_gradient_fidelity():
    t0 = time.time()
    max_err, count = fd_gradient_suite(h=1e-5)
    elapsed = time.time() - t0
    _verdict(2, max_err < 1e-4 and elapsed < 60.0,
             f"finite-difference max rel err {max_err:.3e} (< 1e-4) over "
             f"{count} parameter tensors, {elapsed:.1f}s (< 60s)")


def test_criterion_03_cross_degeneracy():
    stream_gap, sourcefree_gap = cross_degeneracy_suite()
    _verdict(3, stream_gap <= 1e-12 and sourcefree_gap == 0.0,
             f"identical-input stream gap {stream_gap:.1e} (<= 1e-12), "
             f"source-free vs paired target head gap {sourcefree_gap:.1e} "
             f"(exactly 0)")


def test_criterion_04_shape_chain():
    violations = shape_chain_suite()
    _verdict(4, not violations,
             "64x64 chain: tokens 256/64/16/4, phi 4*C_e, fused 8*C_e"
             if not violations else "; ".join(violations))


def test_criterion_05_ssim_oracle():
    worst, identity_exact = ssim_suite(pairs=100)
    _verdict(5, worst < 1e-9 and identity_exact,
             f"direct-formula gap {worst:.1e} (< 1e-9) on 100 random "
             f"16x16 pairs; ssim(a, a) == 1 exactly: {identity_exact}")


def test_criterion_06_ema_closed_form():
    gap = ema_suite(k=10000)
    _verdict(6, gap < 1e-9,
             f"10000 updates from zero vs (1 - 0.9999^k) v: "
             f"gap {gap:.1e} (< 1e-9)")


# ---------------------------------------------------------------------------
# 7. pseudo-label denoising oracle
# ---------------------------------------------------------------------------


def test_criterion_07_pseudo_label_denoising():
    rng = np.random.default_rng(3)
    n_side, flip_frac = 20, 0.2
    n, d = n_side * n_side, 8
    axis = np.zeros(d)
    axis[0] = 1.0
    truth = rng.integers(0, 2, size=n)
    feats = np.where(truth[:, None] == 0, axis, -axis) \
        + 0.05 * rng.normal(size=(n, d))
    feats /= np.linalg.norm(feats, axis=1, keepdims=True)
    flipped = np.zeros(n, dtype=bool)
    flipped[rng.choice(n, size=int(flip_frac * n), replace=False)] = True
    hard = np.where(flipped, 1 - truth, truth).reshape(n_side, n_side)
    conf = np.where(flipped, 0.7, 0.95).reshape(n_side, n_side)
    probs = np.stack([np.where(hard == 0, conf, 1.0 - conf),
                      np.where(hard == 1, conf, 1.0 - conf)])
    labels = PseudoLabels(probs=probs, valid=conf >= 0.9)
    bank = PrototypeBank.create(d)
    initialize_bank(bank, [(feats, probs.reshape(2, -1).T)])
    out = correct_pseudo_labels(labels, feats, (n_side, n_side), bank)
    corrected = out.probs.argmax(axis=0).ravel()
    recovered = float((corrected[flipped] == truth[flipped]).mean())
    norm_gap = float(np.abs(out.probs.sum(axis=0) - 1.0).max())
    _verdict(7, recovered >= 0.95 and norm_gap <= 1e-12,
             f"recovered {recovered:.1%} of 20% flipped labels (>= 95%); "
             f"per-pixel probability sums within {norm_gap:.1e} of 1")


# ---------------------------------------------------------------------------
# 8. end-to-end adaptation effect
# ---------------------------------------------------------------------------

_ABLATION_ITERS = 600  # desk-scale acceptance schedule


@pytest.fixture(scope="module")
def benchmark_root(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("bench") / "data")
    write_dataset(root, source_spec(42), target_spec(42))
    return root


@pytest.fixture(scope="module")
def adaptation_chain(benchmark_root):
    """Warmup, then three cumulative ablation stages from one checkpoint."""
    work = os.path.dirname(benchmark_root)
    base = RunConfig(iterations=_ABLATION_ITERS)
    wck = os.path.join(work, "w.ckpt")
    t0 = time.time()
    results = {"warmup": warmup(base, benchmark_root, wck)["target_val_iou"]}
    stages = [
        ("self-training", replace(base, adversarial=False,
                                  label_correction=False)),
        ("+adversarial", replace(base, label_correction=False)),
        ("+correction", base),
    ]
    for i, (name, cfg) in enumerate(stages):
        out = adapt(cfg, benchmark_root, wck,
                    os.path.join(work, f"a{i}.ckpt"))
        results[name] = out["target_val_iou"]
    results["seconds"] = time.time() - t0
    return results


def test_criterion_08_adaptation_effect(adaptation_chain):
    r = adaptation_chain
    names = ("warmup", "self-training", "+adversarial", "+correction")
    chain = [r[n] for n in names]
    monotone = all(b >= a for a, b in zip(chain, chain[1:]))
    gain = chain[-1] - chain[0]
    _verdict(8, monotone and gain >= 0.05 and r["seconds"] < 900.0,
             "target-val IoU " + " -> ".join(f"{v:.3f}" for v in chain)
             + f"; gain {gain:+.3f} (>= +0.050), monotone: {monotone}, "
             f"{r['seconds']:.0f}s (< 900s)")


# ---------------------------------------------------------------------------
# 9. pairing correctness
# ---------------------------------------------------------------------------


def test_criterion_09_pairing_exhaustive_and_coverage():
    rng = np.random.default_rng(9)
    mismatches = 0
    for _ in range(20):
        src = [rng.random((8, 8)) for _ in range(5)]
        tgt = [rng.random((8, 8)) for _ in range(5)]
        sims = {(i, j): ssim(a, b)
                for i, a in enumerate(src) for j, b in enumerate(tgt)}
        want = {(i, max(range(5), key=lambda j: (sims[(i, j)], -j)))
                for i in range(5)}
        want |= {(max(range(5), key=lambda i: (sims[(i, j)], -i)), j)
                 for j in range(5)}
        if set(pair_two_way(src, tgt).pairs) != want:
            mismatches += 1
    covered = 0
    for _ in range(100):
        ns, nt = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        ps = pair_two_way([rng.random((8, 8)) for _ in range(ns)],
                          [rng.random((8, 8)) for _ in range(nt)])
        if ({i for i, _ in ps.pairs} == set(range(ns))
                and {j for _, j in ps.pairs} == set(range(nt))
                and len(ps.pairs) <= ns + nt):
            covered += 1
    _verdict(9, mismatches == 0 and covered == 100,
             f"exhaustive match on 20 random 5x5 corpora "
             f"({mismatches} mismatches); coverage + size bound on "
             f"{covered}/100 random corpora")


# ---------------------------------------------------------------------------
# 10. determinism and image I/O
# ---------------------------------------------------------------------------


def _tiny_chain(work: str) -> None:
    data = os.path.join(work, "data")
    write_dataset(data, source_spec(11), target_spec(11), n_train=4, n_val=2)
    cfg = RunConfig(warmup_iterations=3, iterations=3, eval_every=2)
    wck = os.path.join(work, "w.ckpt")
    warmup(cfg, data, wck, log_path=os.path.join(work, "wlog.csv"))
    ack = os.path.join(work, "a.ckpt")
    adapt(cfg, data, wck, ack, log_path=os.path.join(work, "alog.csv"))
    evaluate(ack, data, os.path.join(work, "evaldir"))


def test_criterion_10_determinism_and_io(tmp_path):
    runs = []
    for name in ("run1", "run2"):
        work = str(tmp_path / name)
        os.makedirs(work)
        _tiny_chain(work)
        runs.append(_tree_digest(work))
    identical = runs[0] == runs[1]
    img = np.random.default_rng(5).random((3, 9, 7))
    p1, p2 = str(tmp_path / "x.ppm"), str(tmp_path / "y.ppm")
    write_ppm(p1, img)
    write_ppm(p2, read_ppm(p1))
    with open(p1, "rb") as fh:
        b1 = fh.read()
    with open(p2, "rb") as fh:
        bit_exact = fh.read() == b1
    _verdict(10, identical and bit_exact,
             f"{len(runs[0])} artifacts (checkpoints, pseudo-labels, masks, "
             f"CSVs) byte-identical across reruns: {identical}; "
             f"PPM write-read-write bit-exact: {bit_exact}")
