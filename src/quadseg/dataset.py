"""Procedural two-domain micro-benchmark: thin bright-field line scenes.

The generator draws border-to-border line segments over parametric
backgrounds and rasterizes exact labels alongside anti-aliased ink.  The two
domains share all geometry parameters and differ only in background texture,
brightness, and line contrast — a controlled stand-in for a synthetic-to-real
shift, small enough to train against on a CPU in minutes.

Scene recipes are recorded as ``key = value`` text (see ``write_scene_specs``)
so a dataset is reproducible from its ``spec.txt`` alone; every sample draws
from an rng stream derived from ``(spec.seed, sample_id)`` and never from
global state.
"""

from __future__ import annotations

import dataclasses
import glob
import math
import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .config import format_kv_lines, parse_kv_lines, parse_value, value_text
from .pnm import WriteBehind, encode_pgm, encode_ppm, read_pgm_raw, read_ppm
from .tensor import _upsample_first

__all__ = [
    "SceneSpec",
    "Sample",
    "source_spec",
    "target_spec",
    "generate_sample",
    "generate_domain",
    "line_label",
    "segment_distance",
    "augment",
    "crop_window",
    "iou",
    "write_dataset",
    "write_scene_specs",
    "read_scene_specs",
    "image_path",
    "label_path",
    "list_image_ids",
    "load_sample",
    "Corpus",
    "load_corpus",
    "split_target_ids",
    "TRAIN_COUNT",
    "VAL_COUNT",
]

_FAMILIES = ("flat", "gradient", "noise")

TRAIN_COUNT = 200
VAL_COUNT = 50


@dataclass(frozen=True)
class SceneSpec:
    """Generation recipe for one domain.

    Geometry fields (``size`` through ``width_max``) are shared across
    domains; the appearance fields carry the domain shift.
    """

    size: int = 64
    lines_min: int = 1
    lines_max: int = 3
    width_min: int = 2          # 1-px lines sit below the decoder's H/4
    width_max: int = 3          # localization floor; keep them for stress tests
    backgrounds: tuple[str, ...] = ("flat", "gradient")
    bg_level_min: float = 0.65
    bg_level_max: float = 0.95
    contrast_min: float = 0.45
    contrast_max: float = 0.75
    noise_amp: float = 0.0
    tint: float = 0.06
    seed: int = 0

    def __post_init__(self):
        if self.size < 32 or self.size % 32:
            raise ValueError("size must be a positive multiple of 32")
        if not 1 <= self.lines_min <= self.lines_max:
            raise ValueError("need 1 <= lines_min <= lines_max")
        if not 1 <= self.width_min <= self.width_max <= 3:
            raise ValueError("line widths must lie in 1..3")
        if not self.backgrounds or any(b not in _FAMILIES
                                       for b in self.backgrounds):
            raise ValueError(f"backgrounds must be drawn from {_FAMILIES}")
        if not (0.0 <= self.bg_level_min <= self.bg_level_max <= 1.0):
            raise ValueError("background levels must lie in [0, 1]")
        if not (0.0 < self.contrast_min <= self.contrast_max <= 1.0):
            raise ValueError("contrast range must lie in (0, 1]")
        if not (0.0 <= self.noise_amp < math.inf and 0.0 <= self.tint < math.inf):
            raise ValueError("noise_amp and tint must be finite and nonnegative")


@dataclass
class Sample:
    image: np.ndarray      # [3, H, W] float64 in [0, 1]
    label: np.ndarray      # [H, W] bool, True on line pixels
    id: int


def source_spec(seed: int = 0) -> SceneSpec:
    """Bright flat/gradient backgrounds, crisp dark lines."""
    return SceneSpec(seed=seed)


def target_spec(seed: int = 0) -> SceneSpec:
    """Dim noise-textured backgrounds, low-contrast lines.

    The target stream is offset from the source seed so the two domains
    never share geometry draws.
    """
    return SceneSpec(backgrounds=("noise",),
                     bg_level_min=0.25, bg_level_max=0.50,
                     contrast_min=0.16, contrast_max=0.34,
                     noise_amp=0.10, tint=0.03,
                     seed=seed + 1)


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def _pixel_grid(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column coordinates of every pixel center, as float arrays;
    cached per size and returned read-only."""
    ys, xs = np.mgrid[0:size, 0:size].astype(float)
    ys.flags.writeable = xs.flags.writeable = False
    return ys, xs


def segment_distance(size: int, p0, p1) -> np.ndarray:
    """Distance from every pixel center (integer coords) to segment p0-p1."""
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    ys, xs = _pixel_grid(size)
    d = p1 - p0
    den = float(d @ d)
    if den == 0.0:
        return np.hypot(ys - p0[0], xs - p0[1])
    t = ((ys - p0[0]) * d[0] + (xs - p0[1]) * d[1]) / den
    t = np.clip(t, 0.0, 1.0)
    return np.hypot(ys - (p0[0] + t * d[0]), xs - (p0[1] + t * d[1]))


def line_label(size: int, p0, p1, width: int,
               dist: np.ndarray | None = None) -> np.ndarray:
    """Exact label mask: marched segment samples plus the strict-width band.

    Marching advances roughly one pixel per step and rounds with
    ``floor(x + 0.5)`` (round-half-up; round-half-even would skip alternate
    pixels on axis-aligned lines sitting exactly between rows).  Width 1 is
    the marched path alone — one pixel per unit of arc length, so a spanning
    line labels between ``size`` and ``floor(size * sqrt(2))`` pixels.
    Wider lines add every pixel center strictly inside ``width / 2``;
    ``dist`` is the segment's ``segment_distance`` field when the caller
    already has it.
    """
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    length = float(np.hypot(*(p1 - p0)))
    n = int(length) + 1
    ts = np.linspace(0.0, 1.0, n) if n > 1 else np.zeros(1)
    pts = p0 + ts[:, None] * (p1 - p0)
    rc = np.floor(pts + 0.5).astype(int)
    rc = np.clip(rc, 0, size - 1)
    mask = np.zeros((size, size), dtype=bool)
    mask[rc[:, 0], rc[:, 1]] = True
    if width > 1:
        if dist is None:
            dist = segment_distance(size, p0, p1)
        mask |= dist < width / 2.0
    return mask


def _border_point(rng: np.random.Generator, size: int, side: int) -> np.ndarray:
    u = rng.uniform(0.0, size - 1.0)
    hi = float(size - 1)
    return np.array([[0.0, u], [hi, u], [u, 0.0], [u, hi]][side])


def _draw_segment(rng: np.random.Generator, size: int) -> tuple:
    """Border-to-border segment of length >= 0.7 * size."""
    for _ in range(100):
        s0 = int(rng.integers(0, 4))
        s1 = int(rng.integers(0, 4))
        if s0 == s1:
            continue
        p0 = _border_point(rng, size, s0)
        p1 = _border_point(rng, size, s1)
        if np.hypot(*(p1 - p0)) >= 0.7 * size:
            return p0, p1
    raise RuntimeError("segment sampling failed to meet length bound")


# ---------------------------------------------------------------------------
# backgrounds
# ---------------------------------------------------------------------------


def _value_noise(rng: np.random.Generator, size: int) -> np.ndarray:
    """Two-octave lattice noise in [-1, 1], bilinearly upsampled."""
    total = np.zeros((size, size))
    norm = 0.0
    for lattice, amp in ((max(2, size // 8), 1.0), (max(2, size // 4), 0.5)):
        grid = rng.uniform(-1.0, 1.0, size=(lattice, lattice))
        total += amp * _upsample_first(grid, size, size)
        norm += amp
    return total / norm


def _background(rng: np.random.Generator, spec: SceneSpec):
    """Returns (base [H,W] luminance, tint offsets [3])."""
    family = spec.backgrounds[int(rng.integers(0, len(spec.backgrounds)))]
    level = rng.uniform(spec.bg_level_min, spec.bg_level_max)
    if family == "flat":
        base = np.full((spec.size, spec.size), level)
    elif family == "gradient":
        level2 = rng.uniform(spec.bg_level_min, spec.bg_level_max)
        theta = rng.uniform(0.0, 2.0 * np.pi)
        ys, xs = _pixel_grid(spec.size)
        proj = ys * np.sin(theta) + xs * np.cos(theta)
        lo, hi = proj.min(), proj.max()
        s = (proj - lo) / (hi - lo) if hi > lo else np.zeros_like(proj)
        base = level + (level2 - level) * s
    else:
        base = level + spec.noise_amp * _value_noise(rng, spec.size)
    offsets = rng.uniform(-spec.tint, spec.tint, size=3)
    return base, offsets


# ---------------------------------------------------------------------------
# sample assembly
# ---------------------------------------------------------------------------


def generate_sample(spec: SceneSpec, sample_id: int) -> Sample:
    rng = np.random.default_rng(np.random.SeedSequence((spec.seed, sample_id)))
    base, offsets = _background(rng, spec)
    img = np.clip(base[None] + offsets[:, None, None], 0.0, 1.0)
    label = np.zeros((spec.size, spec.size), dtype=bool)
    n_lines = int(rng.integers(spec.lines_min, spec.lines_max + 1))
    for _ in range(n_lines):
        p0, p1 = _draw_segment(rng, spec.size)
        width = int(rng.integers(spec.width_min, spec.width_max + 1))
        contrast = rng.uniform(spec.contrast_min, spec.contrast_max)
        ink = np.clip(base.mean() - contrast + offsets, 0.0, 1.0)
        d = segment_distance(spec.size, p0, p1)
        alpha = np.clip(width / 2.0 + 0.5 - d, 0.0, 1.0)
        img = img * (1.0 - alpha) + ink[:, None, None] * alpha
        label |= line_label(spec.size, p0, p1, width, dist=d)
    if not label.any():
        raise AssertionError("generated sample has no line pixels")
    return Sample(image=np.clip(img, 0.0, 1.0), label=label, id=sample_id)


def generate_domain(spec: SceneSpec, n: int,
                    start_id: int = 0) -> Iterator[Sample]:
    """Samples ``start_id`` .. ``start_id + n - 1``, generated one at a time
    as they are read; ``n`` is checked on the call."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return (generate_sample(spec, i) for i in range(start_id, start_id + n))


# ---------------------------------------------------------------------------
# augmentation
# ---------------------------------------------------------------------------


def crop_window(rng: np.random.Generator, size: int, crop: int,
                label: np.ndarray) -> tuple[int, int]:
    """Top-left corner of a crop window, retried to catch a line pixel.

    Up to 8 draws; if none contains a line pixel the last draw stands.
    """
    if crop > size:
        raise ValueError("crop exceeds image size")
    r0 = c0 = 0
    for _ in range(8):
        r0 = int(rng.integers(0, size - crop + 1))
        c0 = int(rng.integers(0, size - crop + 1))
        if label[r0:r0 + crop, c0:c0 + crop].any():
            break
    return r0, c0


def augment(s: Sample, rng: np.random.Generator, crop: int | None = None,
            photometric: bool = True,
            anchor: np.ndarray | None = None) -> Sample:
    """Crop and flip the image with its [..., H, W] label, then jitter the
    image alone.  The crop is retried to catch a pixel of ``anchor`` [H, W],
    by default the label."""
    img, label = s.image, s.label
    size = label.shape[-1]
    if crop is not None and crop < size:
        r0, c0 = crop_window(rng, size, crop,
                             label if anchor is None else anchor)
        img = img[:, r0:r0 + crop, c0:c0 + crop]
        label = label[..., r0:r0 + crop, c0:c0 + crop]
    if rng.random() < 0.5:
        img = img[:, :, ::-1]
        label = label[..., ::-1]
    if photometric:
        gain = rng.uniform(0.9, 1.1)
        bias = rng.uniform(-0.08, 0.08)
        channel = rng.uniform(0.95, 1.05, size=3)
        img = np.clip((img * gain + 0.5 * (1.0 - gain) + bias)
                      * channel[:, None, None], 0.0, 1.0)
    return Sample(image=np.ascontiguousarray(img),
                  label=np.ascontiguousarray(label), id=s.id)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def iou(pred: np.ndarray, gt: np.ndarray, cls: int = 1) -> float:
    if pred.shape != gt.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {gt.shape}")
    p = pred == cls
    g = gt == cls
    union = np.logical_or(p, g).sum()
    if union == 0:
        return 1.0
    return float(np.logical_and(p, g).sum() / union)


# ---------------------------------------------------------------------------
# on-disk layout
# ---------------------------------------------------------------------------


def image_path(root: str, domain: str, sample_id: int) -> str:
    return os.path.join(root, domain, "images", f"{sample_id:04d}.ppm")


def label_path(root: str, domain: str, sample_id: int) -> str:
    return os.path.join(root, domain, "labels", f"{sample_id:04d}.pgm")


def _file_ids(directory: str, ext: str) -> list[int]:
    """The sample ids that the ``ext`` files of ``directory`` name, in
    listing order: each file's whole stem, so ids from 10000 on, which
    ``image_path`` writes with five digits, read back.  A stem that is not
    all digits raises ``ValueError`` naming the file."""
    ids = []
    for name in os.listdir(directory):
        if name.endswith(ext):
            stem = name[:-len(ext)]
            if not (stem.isascii() and stem.isdigit()):
                raise ValueError(f"{os.path.join(directory, name)}: the file "
                                 "name is not a sample id")
            ids.append(int(stem))
    return ids


def list_image_ids(root: str, domain: str) -> list[int]:
    return sorted(_file_ids(os.path.join(root, domain, "images"), ".ppm"))


def _read_label(root: str, domain: str, sample_id: int,
                size: tuple[int, int]) -> np.ndarray:
    """The label of one [H, W] image of ``size``: a pixel is line when its
    raw value is above half the file's maxval (above 127 at maxval 255).  A
    label of another size raises ``ValueError`` naming the file."""
    path = label_path(root, domain, sample_id)
    raw, maxval = read_pgm_raw(path)
    if raw.shape != size:
        raise ValueError(f"{path}: label is {raw.shape[1]}x{raw.shape[0]}, "
                         f"its image is {size[1]}x{size[0]}")
    return raw > maxval // 2


def load_sample(root: str, domain: str, sample_id: int,
                with_label: bool = True) -> Sample:
    """One sample read from its files: the pipeline's one sample reader."""
    img = read_ppm(image_path(root, domain, sample_id))
    label = (_read_label(root, domain, sample_id, img.shape[-2:])
             if with_label else None)
    return Sample(image=img, label=label, id=sample_id)


@dataclass(frozen=True)
class Corpus:
    """One domain's samples, read from disk when they are used.

    It holds the domain's root, its ids and whether labels are read, and
    no pixel data: indexing or iterating reads that sample's files through
    ``load_sample``, so an image lives only as long as its reader keeps it.
    """

    root: str
    domain: str
    ids: list[int]
    with_label: bool = True

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, k: int) -> Sample:
        return load_sample(self.root, self.domain, self.ids[k],
                           self.with_label)

    def __iter__(self) -> Iterator[Sample]:
        return (self[k] for k in range(len(self)))


def load_corpus(root: str, domain: str, ids,
                with_label: bool = True) -> Corpus:
    """The ``Corpus`` of ``ids``.  Nothing is read but, ``with_label``, one
    listing of the labels directory: an id without a label file raises
    ``ValueError`` naming the first such label, so a run stops before its
    first step rather than at the step that reads it."""
    ids = list(ids)
    if with_label:
        labeled = set(_file_ids(os.path.join(root, domain, "labels"), ".pgm"))
        missing = [i for i in ids if i not in labeled]
        if missing:
            raise ValueError(f"{domain} label "
                             f"{label_path(root, domain, missing[0])} "
                             "is missing")
    return Corpus(root, domain, ids, with_label)


def write_scene_specs(path: str, src: SceneSpec, tgt: SceneSpec) -> None:
    _check_domain_invariant(src, tgt)
    items = {f"{prefix}.{f.name}": value_text(getattr(spec, f.name))
             for prefix, spec in (("source", src), ("target", tgt))
             for f in dataclasses.fields(SceneSpec)}
    with open(path, "w") as fh:
        fh.write(format_kv_lines(items))


def read_scene_specs(path: str) -> tuple[SceneSpec, SceneSpec]:
    """Both domains' specs from ``write_scene_specs`` text; a missing,
    unknown or malformed key raises ``ValueError`` naming it."""
    with open(path) as fh:
        items = parse_kv_lines(fh.read())
    specs = []
    for prefix in ("source", "target"):
        kwargs = {}
        for f in dataclasses.fields(SceneSpec):
            key = f"{prefix}.{f.name}"
            if key not in items:
                raise ValueError(f"spec is missing key {key!r}")
            kwargs[f.name] = parse_value(key, f.type, items.pop(key))
        specs.append(SceneSpec(**kwargs))
    if items:
        raise ValueError(f"unknown spec keys: {', '.join(sorted(items))}")
    src, tgt = specs
    _check_domain_invariant(src, tgt)
    return src, tgt


def _check_domain_invariant(src: SceneSpec, tgt: SceneSpec) -> None:
    """Domains may differ only in appearance (and seed), never geometry."""
    for name in ("size", "lines_min", "lines_max", "width_min", "width_max"):
        if getattr(src, name) != getattr(tgt, name):
            raise ValueError(f"domains disagree on geometry field {name!r}")


def write_dataset(root: str, src: SceneSpec, tgt: SceneSpec,
                  n_train: int = TRAIN_COUNT, n_val: int = VAL_COUNT) -> None:
    """Materialize the benchmark under ``root``.

    ``source`` carries labels for every image.  ``target`` holds
    ``n_train`` unlabeled training images (ids from 0) followed by
    ``n_val`` held-out validation images whose ids do have label files —
    the presence of a label marks the validation split.

    Samples are generated and encoded here while one ``WriteBehind``
    thread creates their files; ``spec.txt`` is written last, once every
    image and label is.  Bad counts or specs, or a ``root`` holding
    ``spec.txt`` or an image or label file (two corpora would mix their
    ids), raise ``ValueError`` before anything is created.
    """
    for name, n in (("n_train", n_train), ("n_val", n_val)):
        if n < 1:
            raise ValueError(f"{name} must be >= 1, got {n}")
    _check_domain_invariant(src, tgt)
    held = [path for name in ("spec.txt", "*/images/*.ppm", "*/labels/*.pgm")
            for path in sorted(glob.glob(os.path.join(glob.escape(root), name)))
            if os.path.isfile(path)]
    if held:
        raise ValueError(f"{root} already holds a corpus ({held[0]}); "
                         "write it to a new directory")
    for domain in ("source", "target"):
        for sub in ("images", "labels"):
            os.makedirs(os.path.join(root, domain, sub), exist_ok=True)
    with WriteBehind() as out:
        for domain, samples, with_label in (
                ("source", generate_domain(src, n_train), True),
                ("target", generate_domain(tgt, n_train), False),
                ("target", generate_domain(tgt, n_val, start_id=n_train),
                 True)):
            for s in samples:
                out.put(image_path(root, domain, s.id), encode_ppm(s.image))
                if with_label:
                    out.put(label_path(root, domain, s.id), encode_pgm(
                        np.where(s.label, 255, 0).astype(np.uint8)))
    write_scene_specs(os.path.join(root, "spec.txt"), src, tgt)


def split_target_ids(root: str) -> tuple[list[int], list[int]]:
    """(train ids, val ids) for the target domain: val ids have labels.  A
    label whose image is missing raises ``ValueError`` naming it."""
    ids = list_image_ids(root, "target")
    labeled = set(_file_ids(os.path.join(root, "target", "labels"), ".pgm"))
    orphans = sorted(labeled.difference(ids))
    if orphans:
        raise ValueError(f"target label {label_path(root, 'target', orphans[0])}"
                         " has no image")
    return [i for i in ids if i not in labeled], sorted(labeled)
