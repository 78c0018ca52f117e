"""Scene generation, rasterization oracles, augmentation, IoU, PNM I/O and
the corpus reader."""

import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadseg import cli
from quadseg.adaptation import PseudoLabels, decode_pseudo_labels
from quadseg.dataset import (
    Sample,
    SceneSpec,
    augment,
    crop_window,
    generate_domain,
    generate_sample,
    image_path,
    iou,
    label_path,
    line_label,
    list_image_ids,
    load_corpus,
    load_sample,
    read_scene_specs,
    segment_distance,
    source_spec,
    split_target_ids,
    target_spec,
    write_dataset,
    write_scene_specs,
)
from quadseg.pnm import (
    PnmError,
    read_f64,
    read_pgm,
    read_pgm_raw,
    read_ppm,
    read_ppm_raw,
    write_f64,
    write_pgm,
    write_ppm,
)

# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------


def test_spec_rejects_bad_geometry():
    with pytest.raises(ValueError):
        SceneSpec(size=48)                       # not a multiple of 32
    with pytest.raises(ValueError):
        SceneSpec(lines_min=0, lines_max=0)      # zero-line spec
    with pytest.raises(ValueError):
        SceneSpec(width_min=2, width_max=1)
    with pytest.raises(ValueError):
        SceneSpec(width_max=4)
    with pytest.raises(ValueError):
        SceneSpec(backgrounds=("plasma",))
    with pytest.raises(ValueError):
        SceneSpec(contrast_min=0.0)


def test_domain_specs_share_geometry():
    src, tgt = source_spec(7), target_spec(7)
    for name in ("size", "lines_min", "lines_max", "width_min", "width_max"):
        assert getattr(src, name) == getattr(tgt, name)
    assert src.seed != tgt.seed


# ---------------------------------------------------------------------------
# rasterization oracles
# ---------------------------------------------------------------------------


def test_horizontal_width1_is_exactly_64():
    mask = line_label(64, (20.0, 0.0), (20.0, 63.0), 1)
    assert mask.sum() == 64
    assert mask[20].all()


def test_vertical_width1_is_exactly_64():
    mask = line_label(64, (0.0, 5.0), (63.0, 5.0), 1)
    assert mask.sum() == 64
    assert mask[:, 5].all()


def test_half_row_horizontal_rounds_up_consistently():
    # centered between rows: floor(x + 0.5) keeps every sample on row 21
    # (round-half-even would alternate rows and the strict band adds none)
    mask = line_label(64, (20.5, 0.0), (20.5, 63.0), 1)
    assert mask.sum() == 64
    assert mask[21].all()


def test_diagonal_width1_within_bounds():
    mask = line_label(64, (0.0, 0.0), (63.0, 63.0), 1)
    assert 64 <= mask.sum() <= 91


def test_spanning_width1_lines_within_bounds():
    rng = np.random.default_rng(0)
    for _ in range(200):
        if rng.random() < 0.5:                   # left-right span
            p0 = (rng.uniform(0, 63), 0.0)
            p1 = (rng.uniform(0, 63), 63.0)
        else:                                    # top-bottom span
            p0 = (0.0, rng.uniform(0, 63))
            p1 = (63.0, rng.uniform(0, 63))
        n = line_label(64, p0, p1, 1).sum()
        assert 64 <= n <= 91, (p0, p1, n)


def test_wider_lines_label_supersets():
    p0, p1 = (10.0, 0.0), (50.0, 63.0)
    m1 = line_label(64, p0, p1, 1)
    m3 = line_label(64, p0, p1, 3)
    assert (m1 & ~m3).sum() == 0
    assert m3.sum() > m1.sum()


def test_segment_distance_pointwise():
    d = segment_distance(8, (2.0, 1.0), (2.0, 5.0))
    assert d[2, 3] == 0.0                        # on the segment
    assert d[5, 3] == 3.0                        # perpendicular drop
    np.testing.assert_allclose(d[2, 7], 2.0)     # beyond the endpoint
    np.testing.assert_allclose(d[0, 0], np.hypot(2.0, 1.0))


def _segment_distance_fresh_grid(size, p0, p1):
    """``segment_distance`` over a grid rebuilt on every call, as it was
    before the grid was cached; kept as its oracle."""
    p0, p1 = np.asarray(p0, dtype=float), np.asarray(p1, dtype=float)
    ys, xs = np.mgrid[0:size, 0:size].astype(float)
    d = p1 - p0
    den = float(d @ d)
    if den == 0.0:
        return np.hypot(ys - p0[0], xs - p0[1])
    t = np.clip(((ys - p0[0]) * d[0] + (xs - p0[1]) * d[1]) / den, 0.0, 1.0)
    return np.hypot(ys - (p0[0] + t * d[0]), xs - (p0[1] + t * d[1]))


@settings(max_examples=60, deadline=None)
@given(st.integers(4, 40), st.integers(1, 5),
       st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4))
def test_line_label_takes_the_precomputed_distance(size, width, u):
    """The distance field a caller passes in gives the mask computed without
    it, and the cached pixel grid gives the distances a fresh grid does
    (including a zero-length segment)."""
    p0 = (u[0] * (size - 1), u[1] * (size - 1))
    p1 = p0 if u[2] < 0.1 else (u[2] * (size - 1), u[3] * (size - 1))
    d = segment_distance(size, p0, p1)
    assert d.tobytes() == _segment_distance_fresh_grid(size, p0, p1).tobytes()
    assert np.array_equal(line_label(size, p0, p1, width, dist=d),
                          line_label(size, p0, p1, width))


def test_pixel_grid_is_cached_read_only():
    from quadseg.dataset import _pixel_grid
    ys, xs = _pixel_grid(6)
    assert _pixel_grid(6)[0] is ys
    np.testing.assert_array_equal(ys[:, 0], np.arange(6.0))
    np.testing.assert_array_equal(xs[0], np.arange(6.0))
    with pytest.raises(ValueError):
        ys[0, 0] = 1.0


# ---------------------------------------------------------------------------
# sample generation
# ---------------------------------------------------------------------------


def test_generation_deterministic_bitwise():
    spec = source_spec(3)
    a = generate_sample(spec, 17)
    b = generate_sample(spec, 17)
    np.testing.assert_array_equal(a.image, b.image)
    np.testing.assert_array_equal(a.label, b.label)
    c = generate_sample(spec, 18)
    assert not np.array_equal(a.image, c.image)


def test_sample_invariants():
    for spec in (source_spec(1), target_spec(1)):
        for s in generate_domain(spec, 4):
            assert s.image.shape == (3, 64, 64)
            assert s.image.min() >= 0.0 and s.image.max() <= 1.0
            assert s.label.dtype == bool and s.label.any()


def test_lines_darken_labeled_pixels():
    spec = SceneSpec(backgrounds=("flat",), bg_level_min=0.9,
                     bg_level_max=0.9, contrast_min=0.5, contrast_max=0.5,
                     tint=0.0, seed=5)
    s = generate_sample(spec, 0)
    lum = s.image.mean(axis=0)
    assert lum[s.label].max() < 0.9 - 0.1
    assert lum[~s.label].mean() > 0.85


def test_domain_gap_in_brightness():
    src = [s.image.mean() for s in generate_domain(source_spec(2), 8)]
    tgt = [s.image.mean() for s in generate_domain(target_spec(2), 8)]
    assert np.mean(src) > np.mean(tgt) + 0.2


def test_generate_domain_rejects_empty():
    with pytest.raises(ValueError):
        generate_domain(source_spec(0), 0)


# ---------------------------------------------------------------------------
# augmentation
# ---------------------------------------------------------------------------


def test_flip_is_involution():
    s = generate_sample(source_spec(4), 0)
    flip_seed = next(s_ for s_ in range(100)
                     if np.random.default_rng(s_).random() < 0.5)
    once = augment(s, np.random.default_rng(flip_seed), photometric=False)
    assert not np.array_equal(once.image, s.image)
    twice = augment(once, np.random.default_rng(flip_seed), photometric=False)
    np.testing.assert_array_equal(twice.image, s.image)
    np.testing.assert_array_equal(twice.label, s.label)


def test_photometric_leaves_label_untouched():
    s = generate_sample(target_spec(4), 1)
    for seed in range(6, 10):
        out = augment(s, np.random.default_rng(seed))
        # label may be flipped but is never re-valued by photometric jitter
        same = np.array_equal(out.label, s.label)
        flipped = np.array_equal(out.label, s.label[:, ::-1])
        assert same or flipped
        assert out.image.min() >= 0.0 and out.image.max() <= 1.0


def test_crop_window_bounds_1000_draws():
    rng = np.random.default_rng(8)
    label = np.zeros((64, 64), dtype=bool)
    label[10, 10] = True
    for _ in range(1000):
        crop = int(rng.integers(8, 65))
        r0, c0 = crop_window(rng, 64, crop, label)
        assert 0 <= r0 <= 64 - crop
        assert 0 <= c0 <= 64 - crop


def test_crop_retries_until_line_found():
    label = np.zeros((64, 64), dtype=bool)
    label[32, 32] = True
    hits = 0
    for seed in range(50):
        r0, c0 = crop_window(np.random.default_rng(seed), 64, 32, label)
        hits += label[r0:r0 + 32, c0:c0 + 32].any()
    assert hits == 50


def test_crop_shrinks_sample():
    s = generate_sample(source_spec(9), 2)
    out = augment(s, np.random.default_rng(9), crop=32, photometric=False)
    assert out.image.shape == (3, 32, 32)
    assert out.label.shape == (32, 32)
    with pytest.raises(ValueError):
        crop_window(np.random.default_rng(0), 64, 128, s.label)


def _loop_augment_target(s, pl, rng, crop):
    """The target-side augmentation as it was written before ``augment``
    carried label stacks: image, probabilities and validity cropped and
    flipped side by side, the crop anchored on valid line pixels."""
    img, probs, valid = s.image, pl.probs, pl.valid
    size = img.shape[1]
    if crop < size:
        anchor = np.logical_and(valid, probs.argmax(axis=0) == probs.shape[0] - 1)
        r0, c0 = crop_window(rng, size, crop, anchor)
        img = img[:, r0:r0 + crop, c0:c0 + crop]
        probs = probs[:, r0:r0 + crop, c0:c0 + crop]
        valid = valid[r0:r0 + crop, c0:c0 + crop]
    if rng.random() < 0.5:
        img = img[:, :, ::-1]
        probs = probs[:, :, ::-1]
        valid = valid[:, ::-1]
    gain = rng.uniform(0.9, 1.1)
    bias = rng.uniform(-0.08, 0.08)
    channel = rng.uniform(0.95, 1.05, size=3)
    img = np.clip((img * gain + 0.5 * (1.0 - gain) + bias)
                  * channel[:, None, None], 0.0, 1.0)
    return (np.ascontiguousarray(img),
            PseudoLabels(probs=np.ascontiguousarray(probs),
                         valid=np.ascontiguousarray(valid)))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), crop=st.sampled_from([32, 64]),
       tau=st.sampled_from([0.0, 0.5, 0.9]))
def test_target_augment_matches_the_side_by_side_path(seed, crop, tau):
    """The form ``adapt``'s step augments a target in: one ``augment`` of
    the (hard, confidence) planes, anchored on the valid pixels that
    decode as line, then the label job's decode.  It gives the image,
    probabilities and validity of the side-by-side path on the decoded
    labels bit for bit, and leaves the rng where that path does: crop and
    flip only move elements, so they commute with the elementwise decode."""
    s = generate_sample(target_spec(2), seed % 5)
    rng = np.random.default_rng(seed)
    # background everywhere (some of it below tau) but a 4x4 patch of line
    # pixels (some below tau) near a corner, which few crop windows catch:
    # the crop anchor is that patch's valid part.  Two line pixels at
    # confidence exactly 0.5 near the opposite corner decode as ties and
    # must not anchor the crop.
    line = 0.45 * rng.random(s.label.shape) ** 8
    r, c = rng.choice([0, 4, 56, 60], size=2)
    line[r:r + 4, c:c + 4] = rng.uniform(0.5, 1.0, (4, 4))
    hard = (line > 0.5).astype(np.uint8)
    conf = np.where(hard == 1, line, 1.0 - line)
    hard[62 - r, 62 - c:64 - c] = 1
    conf[62 - r, 62 - c:64 - c] = 0.5
    got_rng = np.random.default_rng(seed)
    want_rng = np.random.default_rng(seed)
    got = augment(Sample(s.image, np.stack([hard, conf]), s.id), got_rng,
                  crop=crop, anchor=(hard == 1) & (conf >= tau) & (conf > 0.5))
    want_img, want = _loop_augment_target(
        s, decode_pseudo_labels(hard, conf, 2, tau), want_rng, crop)
    labels = decode_pseudo_labels(got.label[0], got.label[1], 2, tau)
    assert got.image.tobytes() == want_img.tobytes()
    assert labels.probs.tobytes() == want.probs.tobytes()
    np.testing.assert_array_equal(labels.valid, want.valid)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_augment_label_stack_with_explicit_anchor():
    """A [K, H, W] label is cropped and flipped with the image, and the
    crop window is drawn against ``anchor``, not against the label."""
    s = generate_sample(source_spec(3), 0)
    stack = np.concatenate([s.image, s.label[None]])        # [4, H, W]
    anchor = np.zeros(s.label.shape, dtype=bool)
    anchor[56:, :8] = True
    for seed in range(12):
        out = augment(Sample(s.image, stack, s.id),
                      np.random.default_rng(seed), crop=32,
                      photometric=False, anchor=anchor)
        rng = np.random.default_rng(seed)
        r0, c0 = crop_window(rng, 64, 32, anchor)
        want = stack[:, r0:r0 + 32, c0:c0 + 32]
        if rng.random() < 0.5:
            want = want[..., ::-1]
        np.testing.assert_array_equal(out.label, want)
        np.testing.assert_array_equal(out.image, out.label[:3])


# ---------------------------------------------------------------------------
# IoU
# ---------------------------------------------------------------------------


def test_iou_perfect_and_disjoint():
    a = np.zeros((4, 4), dtype=int)
    a[1] = 1
    assert iou(a, a) == 1.0
    b = np.zeros((4, 4), dtype=int)
    b[2] = 1
    assert iou(a, b) == 0.0


def test_iou_counting_case():
    pred = np.zeros((4, 4), dtype=int)
    gt = np.zeros((4, 4), dtype=int)
    pred[0, 0] = pred[0, 1] = pred[0, 2] = 1     # 2 tp + 1 fp
    gt[0, 0] = gt[0, 1] = gt[0, 3] = 1           # 1 fn
    assert iou(pred, gt) == 0.5


def test_iou_empty_union_convention():
    z = np.zeros((4, 4), dtype=int)
    assert iou(z, z, 1) == 1.0


def test_iou_symmetric_and_flip_invariant():
    rng = np.random.default_rng(10)
    pred = (rng.random((8, 8)) > 0.7).astype(int)
    gt = (rng.random((8, 8)) > 0.7).astype(int)
    assert iou(pred, gt) == iou(gt, pred)
    assert iou(pred, gt) == iou(pred[:, ::-1], gt[:, ::-1])
    with pytest.raises(ValueError):
        iou(pred, gt[:4])


# ---------------------------------------------------------------------------
# PNM I/O
# ---------------------------------------------------------------------------


def test_ppm_roundtrip_bit_identical(tmp_path):
    rng = np.random.default_rng(11)
    img = rng.random((3, 6, 5))
    p1, p2 = str(tmp_path / "a.ppm"), str(tmp_path / "b.ppm")
    write_ppm(p1, img)
    back = read_ppm(p1)
    write_ppm(p2, back)
    assert Path(p1).read_bytes() == Path(p2).read_bytes()
    assert back.shape == (3, 6, 5)
    assert np.abs(back - img).max() <= 0.5 / 255 + 1e-12


def test_pgm_roundtrip(tmp_path):
    data = np.arange(12, dtype=np.uint8).reshape(3, 4) * 20
    path = str(tmp_path / "m.pgm")
    write_pgm(path, data)
    np.testing.assert_array_equal(read_pgm(path), data)


def test_pnm_grammar_corpus(tmp_path):
    raster = bytes(range(12))                    # 2x2 RGB
    cases = [
        b"P6 2 2 255\n" + raster,
        b"P6\n#c\n2\n#c\n2\n#c\n255\n" + raster,
        b"P6  \t\r\n 2 # width\n 2 # height\n 255\t" + raster,
        b"P6 #\n2 2 #maxval next\n255 " + raster,
    ]
    want = read_ppm_bytes(tmp_path, cases[0])
    for i, blob in enumerate(cases[1:], start=1):
        got = read_ppm_bytes(tmp_path, blob, name=f"c{i}.ppm")
        np.testing.assert_array_equal(got, want)


def read_ppm_bytes(tmp_path, blob, name="c0.ppm"):
    path = str(tmp_path / name)
    with open(path, "wb") as fh:
        fh.write(blob)
    return read_ppm(path)


def test_pnm_large_header_fields(tmp_path):
    w, h = 300, 2
    raster = bytes((i * 7) % 256 for i in range(3 * w * h))
    arr = read_ppm_bytes(tmp_path, b"P6 300 2 255\n" + raster)
    assert arr.shape == (3, 2, 300)


def test_pnm_errors_carry_offsets(tmp_path):
    raster = bytes(range(12))
    bad = [
        (b"P5 2 2 255\n" + raster, "magic"),          # wrong magic for ppm
        (b"P6 2 2 255\n" + raster[:-1], "truncated"),
        (b"P6 2 2 255\n" + raster + b"x", "trailing"),
        (b"P6 0 2 255\n", "positive"),
        (b"P6 2 2 65535\n" + raster, "8-bit"),
        (b"P6 2 2\n# only comments from here on", "end of file"),
        (b"P6 two 2 255\n" + raster, "not a number"),
    ]
    for blob, needle in bad:
        path = str(tmp_path / "bad.ppm")
        with open(path, "wb") as fh:
            fh.write(blob)
        with pytest.raises(PnmError) as ei:
            read_ppm(path)
        assert needle in str(ei.value)
        assert "byte" in str(ei.value)
        assert ei.value.offset >= 0


# -- property-based: random headers and rasters ------------------------------

_WS_BYTES = b" \t\n\r\x0b\x0c"
# a comment runs to end of line and may hold any other byte
_COMMENT = st.binary(max_size=12).map(
    lambda b: b"#" + bytes(c for c in b if c not in b"\r\n") + b"\n")
# a separator between header tokens: whitespace bytes and comments, at
# least one of either
_SEP = st.lists(st.one_of(st.sampled_from([bytes([c]) for c in _WS_BYTES]),
                          _COMMENT), min_size=1, max_size=4).map(b"".join)


@st.composite
def _pnm_files(draw, maxval=st.integers(1, 255)):
    """(file bytes, magic, raster [H, W, C] uint8, maxval, header length,
    offset of the magic)."""
    magic = draw(st.sampled_from([b"P5", b"P6"]))
    channels = 3 if magic == b"P6" else 1
    w, h, mv = draw(st.integers(1, 9)), draw(st.integers(1, 9)), draw(maxval)
    raw = np.frombuffer(draw(st.binary(min_size=w * h * channels,
                                       max_size=w * h * channels)),
                        dtype=np.uint8).reshape(h, w, channels)
    raster = (raw.astype(np.int64) % (mv + 1)).astype(np.uint8)
    lead = draw(st.one_of(st.just(b""), _SEP))
    header = (lead + magic + draw(_SEP) + str(w).encode() + draw(_SEP)
              + str(h).encode() + draw(_SEP) + str(mv).encode()
              + draw(st.sampled_from([bytes([c]) for c in _WS_BYTES])))
    return header + raster.tobytes(), magic, raster, mv, len(header), len(lead)


def _read_blob(blob: bytes, magic: bytes):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "f.pnm")
        with open(path, "wb") as fh:
            fh.write(blob)
        if magic == b"P6":
            return read_ppm_raw(path), read_ppm(path)
        return read_pgm(path), read_pgm_raw(path)


@settings(max_examples=150, deadline=None)
@given(_pnm_files())
def test_pnm_random_files_round_trip(case):
    """Any well-formed P5/P6 file, whatever its header's whitespace and
    comment runs, reads back to its raster; ``read_ppm`` is that raster over
    maxval, bit for bit."""
    blob, magic, raster, mv, _, _ = case
    got, decoded = _read_blob(blob, magic)
    if magic == b"P5":
        np.testing.assert_array_equal(got, raster[:, :, 0])
        gray, maxval = decoded
        assert maxval == mv and gray.tobytes() == got.tobytes()
        return
    rgb, maxval = got
    assert rgb.dtype == np.uint8 and maxval == mv
    np.testing.assert_array_equal(rgb, raster.transpose(2, 0, 1))
    want = raster.transpose(2, 0, 1).astype(np.float64) / mv
    assert decoded.dtype == np.float64
    assert decoded.tobytes() == want.tobytes()


def _rejects(blob: bytes, magic: bytes, needle: str) -> None:
    with pytest.raises(PnmError) as ei:
        _read_blob(blob, magic)
    assert needle in str(ei.value)
    assert 0 <= ei.value.offset <= len(blob)


@settings(max_examples=60, deadline=None)
@given(_pnm_files(), st.integers(1, 40))
def test_pnm_truncated_raster_rejected(case, cut):
    blob, magic, _, _, header, _ = case
    cut = min(cut, len(blob) - header)
    _rejects(blob[:-cut], magic, "truncated")


@settings(max_examples=60, deadline=None)
@given(_pnm_files(), st.binary(min_size=1, max_size=20))
def test_pnm_trailing_bytes_rejected(case, extra):
    blob, magic, _, _, _, _ = case
    _rejects(blob + extra, magic, "trailing")


@settings(max_examples=60, deadline=None)
@given(_pnm_files(maxval=st.just(255)),
       st.one_of(st.just(0), st.integers(256, 10 ** 12)))
def test_pnm_maxval_outside_8_bits_rejected(case, bad):
    blob, magic, _, _, header, _ = case
    cut = blob.rindex(b"255", 0, header)
    _rejects(blob[:cut] + str(bad).encode() + blob[cut + 3:], magic,
             "unsupported")


@settings(max_examples=60, deadline=None)
@given(_pnm_files(), st.binary(min_size=2, max_size=2))
def test_pnm_bad_magic_rejected(case, other):
    blob, magic, _, _, _, start = case
    if other == magic or other[:1] in _WS_BYTES + b"#" \
            or other[1:] in _WS_BYTES + b"#":
        other = b"P7"
    _rejects(blob[:start] + other + blob[start + 2:], magic, "bad magic")


@settings(max_examples=60, deadline=None)
@given(_pnm_files(),
       st.text(alphabet="abcxyz0123456789-+.", min_size=1, max_size=5)
       .filter(lambda t: not t.isdigit()),
       st.booleans())
def test_pnm_non_numeric_dimension_rejected(case, token, in_width):
    _, magic, raster, _, _, _ = case
    h, w = raster.shape[:2]
    # rebuild the header with the token standing in for one dimension
    dims = (token, str(h)) if in_width else (str(w), token)
    head = (magic + b" " + dims[0].encode() + b"\n" + dims[1].encode()
            + b" 255\n")
    _rejects(head + raster.tobytes(), magic, "not a number")


def test_pgm_rejects_out_of_range_write(tmp_path):
    with pytest.raises(ValueError):
        write_pgm(str(tmp_path / "x.pgm"),
                  np.array([[300]], dtype=np.int64))


def test_f64_map_roundtrip(tmp_path):
    rng = np.random.default_rng(12)
    arr = rng.normal(size=(5, 7))
    path = str(tmp_path / "m.conf")
    write_f64(path, arr)
    np.testing.assert_array_equal(read_f64(path, (5, 7)), arr)
    with pytest.raises(ValueError):
        read_f64(path, (5, 8))


# ---------------------------------------------------------------------------
# dataset layout
# ---------------------------------------------------------------------------


def _tiny_specs():
    src = SceneSpec(seed=20)
    tgt = target_spec(20)
    return src, tgt


def test_write_dataset_layout_and_split(tmp_path):
    root = str(tmp_path / "data")
    src, tgt = _tiny_specs()
    write_dataset(root, src, tgt, n_train=3, n_val=2)
    assert list_image_ids(root, "source") == [0, 1, 2]
    assert list_image_ids(root, "target") == [0, 1, 2, 3, 4]
    assert split_target_ids(root) == ([0, 1, 2], [3, 4])
    assert os.path.exists(label_path(root, "source", 0))
    assert not os.path.exists(label_path(root, "target", 0))
    assert os.path.exists(label_path(root, "target", 3))
    s = load_sample(root, "source", 1)
    assert s.image.shape == (3, 64, 64) and s.label.any()
    rt_src, rt_tgt = read_scene_specs(os.path.join(root, "spec.txt"))
    assert rt_src == src and rt_tgt == tgt


def test_corpus_decodes_like_load_sample(tmp_path):
    """Every image and label of a written corpus, and a hand-written PPM
    with maxval 100, decode bit-identically to ``load_sample``, while the
    corpus itself holds no array: it reads a sample when it is used."""
    root = str(tmp_path / "data")
    write_dataset(root, *_tiny_specs(), n_train=3, n_val=2)
    hand = os.path.join(root, "hand")
    for sub in ("images", "labels"):
        os.makedirs(os.path.join(hand, sub))
    raster = np.random.default_rng(5).integers(0, 101, size=(4, 5, 3),
                                               dtype=np.uint8)
    with open(os.path.join(hand, "images", "0007.ppm"), "wb") as fh:
        fh.write(b"P6\n# hand-made\n5 4\n100\n" + raster.tobytes())
    write_pgm(label_path(root, "hand", 7),
              np.where(raster[:, :, 0] > 50, 255, 0).astype(np.uint8))
    train_ids, val_ids = split_target_ids(root)
    cases = [("source", [0, 1, 2], True), ("target", train_ids, False),
             ("target", val_ids, True), ("hand", [7], True)]
    for domain, ids, with_label in cases:
        corpus = load_corpus(root, domain, ids, with_label=with_label)
        assert len(corpus) == len(ids) and corpus.ids == ids
        fields = list(vars(corpus).values())
        assert not any(isinstance(v, np.ndarray) for v in fields)
        assert not any(isinstance(x, np.ndarray) for v in fields
                       if isinstance(v, (list, tuple)) for x in v)
        for k, got in enumerate(corpus):
            want = load_sample(root, domain, ids[k], with_label=with_label)
            assert got.id == want.id
            assert got.image.dtype == want.image.dtype == np.float64
            assert got.image.shape == want.image.shape
            assert got.image.tobytes() == want.image.tobytes()
            if with_label:
                np.testing.assert_array_equal(got.label, want.label)
            else:
                assert got.label is None and want.label is None
    hand_image = load_corpus(root, "hand", [7])[0].image
    assert hand_image.tobytes() == (raster.transpose(2, 0, 1)
                                    .astype(np.float64) / 100).tobytes()


def test_write_dataset_reruns_byte_identical(tmp_path):
    src, tgt = _tiny_specs()
    r1, r2 = str(tmp_path / "d1"), str(tmp_path / "d2")
    write_dataset(r1, src, tgt, n_train=2, n_val=1)
    write_dataset(r2, src, tgt, n_train=2, n_val=1)
    for rel in ("source/images/0000.ppm", "source/labels/0001.pgm",
                "target/images/0002.ppm", "target/labels/0002.pgm",
                "spec.txt"):
        b1 = Path(r1, rel).read_bytes()
        b2 = Path(r2, rel).read_bytes()
        assert b1 == b2, rel


def _tree_bytes(root):
    return {os.path.relpath(os.path.join(d, name), root):
            Path(d, name).read_bytes()
            for d, _, names in os.walk(root) for name in names}


@pytest.mark.parametrize("held", [
    None, "spec.txt", "source/images/0000.ppm", "source/labels/0005.pgm",
    "target/images/0007.ppm", "target/labels/0004.pgm"])
def test_generate_refuses_a_directory_that_holds_a_corpus(tmp_path, capsys,
                                                          held):
    """``generate`` into a directory that holds ``spec.txt`` or any image
    or label file (``None``: a whole 6/3 corpus) exits 1 with one line
    naming the first such file and leaves the directory as it was; a 3/2
    corpus written over a 6/3 one would mix their ids."""
    out = str(tmp_path / "data")
    if held is None:
        assert cli.main(["generate", "--out", out, "--train", "6",
                         "--val", "3"]) == 0
        first = os.path.join(out, "spec.txt")
    else:
        first = os.path.join(out, held)
        os.makedirs(os.path.dirname(first), exist_ok=True)
        Path(first).write_bytes(b"")
    before = _tree_bytes(out)
    capsys.readouterr()
    assert cli.main(["generate", "--out", out, "--train", "3",
                     "--val", "2"]) == 1
    assert capsys.readouterr().err == (
        f"quadseg: error: {out} already holds a corpus ({first}); "
        "write it to a new directory\n")
    assert _tree_bytes(out) == before


def test_generate_accepts_a_directory_without_corpus_files(tmp_path):
    """Empty corpus directories and files the corpus readers never read
    do not make a directory a corpus."""
    out = tmp_path / "data"
    os.makedirs(out / "target" / "labels")
    os.makedirs(out / "source" / "images")
    (out / "notes.txt").write_text("kept\n")
    (out / "source" / "images" / "README").write_text("kept\n")
    assert cli.main(["generate", "--out", str(out), "--train", "2",
                     "--val", "1"]) == 0
    assert split_target_ids(str(out)) == ([0, 1], [2])
    assert (out / "notes.txt").read_text() == "kept\n"


def test_warmup_refuses_a_target_label_without_its_image(tmp_path, capsys):
    """A target-val label whose image is gone makes the corpus unreadable:
    ``warmup`` exits 1 with one line naming the label, before it trains,
    rather than training on a smaller val split."""
    data = str(tmp_path / "data")
    write_dataset(data, *_tiny_specs(), n_train=3, n_val=3)
    os.remove(image_path(data, "target", 4))
    os.remove(image_path(data, "target", 3))
    ckpt = str(tmp_path / "w.ckpt")
    capsys.readouterr()
    assert cli.main(["warmup", "--data", data, "--out", ckpt]) == 1
    assert capsys.readouterr().err == (
        f"quadseg: error: target label {label_path(data, 'target', 3)} "
        "has no image\n")
    assert not os.path.exists(ckpt)


@pytest.mark.parametrize("maxval", [1, 100, 255])
def test_labels_read_line_above_half_their_maxval(tmp_path, maxval):
    """A hand-written label reads as exactly its marked pixels at any
    maxval: a pixel is line when its value is above half the maxval, so a
    0/1 mask written with maxval 1 reads as its ones."""
    root = str(tmp_path)
    rng = np.random.default_rng(maxval)
    marked = np.zeros((4, 5), dtype=bool)
    marked.flat[rng.choice(20, size=5, replace=False)] = True
    half = maxval // 2
    values = np.where(marked, rng.integers(half + 1, maxval + 1, (4, 5)),
                      rng.integers(0, half + 1, (4, 5))).astype(np.uint8)
    # the values on either side of the threshold both occur
    values.flat[np.flatnonzero(marked)[0]] = half + 1
    values.flat[np.flatnonzero(~marked)[0]] = half
    for path in (image_path(root, "hand", 0), label_path(root, "hand", 0)):
        os.makedirs(os.path.dirname(path))
    write_ppm(image_path(root, "hand", 0), np.zeros((3, 4, 5)))
    with open(label_path(root, "hand", 0), "wb") as fh:
        fh.write(f"P5\n5 4\n{maxval}\n".encode() + values.tobytes())
    for got in (load_sample(root, "hand", 0),
                load_corpus(root, "hand", [0])[0]):
        assert got.label.dtype == bool
        np.testing.assert_array_equal(got.label, marked)


def test_warmup_refuses_a_label_of_another_size(tmp_path, capsys):
    """A 32x32 source label beside its 64x64 image stops ``warmup`` at the
    step that reads it, with one line naming the label, and no checkpoint
    is written."""
    data = str(tmp_path / "data")
    write_dataset(data, *_tiny_specs(), n_train=1, n_val=1)
    bad = label_path(data, "source", 0)
    write_pgm(bad, np.zeros((32, 32), dtype=np.uint8))
    ckpt = str(tmp_path / "w.ckpt")
    capsys.readouterr()
    assert cli.main(["warmup", "--data", data, "--out", ckpt, "--set",
                     "warmup_iterations=1", "--set", "eval_every=1"]) == 1
    assert capsys.readouterr().err == (
        f"quadseg: error: {bad}: label is 32x32, its image is 64x64\n")
    assert not os.path.exists(ckpt)


@pytest.mark.parametrize("command", ["warmup", "adapt"])
def test_a_missing_source_label_stops_the_run_before_it_trains(
        tmp_path, capsys, command):
    """A source image whose label is gone makes ``warmup`` and ``adapt``
    exit 1 with one line naming the label before their first step, whether
    or not a step would pick that image: the output directory stays
    empty."""
    data = str(tmp_path / "data")
    write_dataset(data, *_tiny_specs(), n_train=3, n_val=1)
    fast = ["--set", "warmup_iterations=1", "--set", "iterations=1",
            "--set", "eval_every=1"]
    wck = str(tmp_path / "w.ckpt")
    if command == "adapt":
        assert cli.main(["warmup", "--data", data, "--out", wck] + fast) == 0
    os.remove(label_path(data, "source", 1))
    out = tmp_path / "out"
    out.mkdir()
    run = {"warmup": ["warmup", "--data", data],
           "adapt": ["adapt", "--data", data, "--warmup", wck]}[command]
    capsys.readouterr()
    assert cli.main(run + ["--out", str(out / "c.ckpt"),
                           "--log", str(out / "log.csv")] + fast) == 1
    assert capsys.readouterr().err == (
        f"quadseg: error: source label {label_path(data, 'source', 1)} "
        "is missing\n")
    assert os.listdir(out) == []


def _touch(path):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    open(path, "wb").close()


def test_ids_past_four_digits_round_trip(tmp_path):
    """``image_path`` and ``label_path`` write ids from 10000 on with five
    digits; both listings read every id back whole, beside a padded one."""
    root = str(tmp_path)
    for i in (999, 9999, 10000, 10001):
        for domain in ("source", "target"):
            _touch(image_path(root, domain, i))
    _touch(label_path(root, "target", 10001))
    assert os.path.exists(os.path.join(root, "target", "images", "0999.ppm"))
    assert list_image_ids(root, "source") == [999, 9999, 10000, 10001]
    assert split_target_ids(root) == ([999, 9999, 10000], [10001])


@pytest.mark.parametrize("sub, name", [
    ("images", "0003a.ppm"), ("images", "x.ppm"), ("images", ".ppm"),
    ("images", "-3.ppm"), ("images", "\u0663.ppm"), ("labels", "0003 .pgm"),
    ("labels", "3.pgm.pgm")])
def test_ids_refuse_a_stem_that_is_not_a_number(tmp_path, sub, name):
    """A corpus image or label whose stem is not all ASCII digits is
    refused with one line that names it."""
    root = str(tmp_path)
    _touch(image_path(root, "target", 3))
    os.makedirs(os.path.join(root, "target", "labels"))
    bad = os.path.join(root, "target", sub, name)
    _touch(bad)
    with pytest.raises(ValueError) as err:
        split_target_ids(root)
    assert str(err.value) == f"{bad}: the file name is not a sample id"
    if sub == "images":
        with pytest.raises(ValueError, match="is not a sample id"):
            list_image_ids(root, "target")


def test_scene_spec_roundtrip_and_invariant(tmp_path):
    path = str(tmp_path / "spec.txt")
    src, tgt = source_spec(1), target_spec(1)
    write_scene_specs(path, src, tgt)
    back_src, back_tgt = read_scene_specs(path)
    assert back_src == src and back_tgt == tgt
    with pytest.raises(ValueError):
        write_scene_specs(path, src,
                          SceneSpec(backgrounds=("noise",), lines_max=2))
    with open(path, "a") as fh:
        fh.write("target.mystery = 1\n")
    with pytest.raises(ValueError):
        read_scene_specs(path)
