"""Config round-trips, override plumbing, and CLI smoke runs on a tiny set."""

import collections
import dataclasses
import hashlib
import os
import string
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadseg import cli, tensor
from quadseg.adaptation import pair_two_way, read_pairs, to_grayscale
from quadseg.config import (
    RunConfig,
    apply_overrides,
    parse_config,
    serialize_config,
    value_text,
)
from quadseg.dataset import (
    SceneSpec,
    image_path,
    iou,
    list_image_ids,
    load_sample,
    read_scene_specs,
    source_spec,
    split_target_ids,
    target_spec,
    write_scene_specs,
)
from quadseg.pnm import read_pgm

# ---------------------------------------------------------------------------
# config text round-trip
# ---------------------------------------------------------------------------


def test_config_roundtrip_defaults():
    cfg = RunConfig()
    assert parse_config(serialize_config(cfg)) == cfg


def test_config_roundtrip_modified():
    cfg = RunConfig(lr=3e-4, channels=(4, 8, 16, 32), adversarial=False,
                    temperature=2.5, batch=3)
    again = parse_config(serialize_config(cfg))
    assert again == cfg
    assert serialize_config(again) == serialize_config(cfg)


def test_unknown_config_key_rejected():
    with pytest.raises(ValueError, match="unknown"):
        parse_config("bogus_knob = 1\n")


def test_duplicate_config_key_rejected():
    with pytest.raises(ValueError):
        parse_config("lr = 0.1\nlr = 0.2\n")


def test_partial_text_keeps_base_fields():
    base = RunConfig(batch=7)
    cfg = parse_config("lr = 0.5\n", base=base)
    assert cfg.lr == 0.5 and cfg.batch == 7
    assert cfg.tau == RunConfig().tau


def test_apply_overrides_wins_over_base():
    cfg = apply_overrides(RunConfig(), {"tau": "0.5", "adversarial": "false"})
    assert cfg.tau == 0.5 and cfg.adversarial is False
    with pytest.raises(ValueError):
        apply_overrides(RunConfig(), {"no_such_field": "1"})
    with pytest.raises(ValueError):
        apply_overrides(RunConfig(), {"lr": "banana"})


def test_crop_must_fold_at_every_stage():
    """Every stage's token grid must be divisible by its sr_ratio: crop 48
    passes the >= 32 bound but gives stage 0 a 12x12 grid, which the
    default ratio 8 cannot fold."""
    with pytest.raises(ValueError, match=r"crop 48 .* stage 0 .*sr_ratios\[0\]"):
        RunConfig(crop=48)
    with pytest.raises(ValueError, match="crop 40"):
        parse_config("crop = 40")
    with pytest.raises(ValueError, match="patch size"):
        RunConfig(crop=66)
    with pytest.raises(ValueError, match=r"stage 1 .*sr_ratios\[1\]"):
        RunConfig(crop=48, sr_ratios=(4, 4, 1, 1))
    assert RunConfig(crop=96).crop == 96
    # odd grids are fine where the ratio is 1: 48 -> 12, 6, 3, 2 tokens
    assert RunConfig(crop=48, sr_ratios=(4, 2, 1, 1)).crop == 48


@pytest.mark.parametrize("name", ["eval_every", "embed_dim", "ffn_expand"])
@pytest.mark.parametrize("value", [0, -1])
def test_counts_below_one_rejected(name, value):
    with pytest.raises(ValueError, match=rf"^{name} must be >= 1, got {value}$"):
        RunConfig(**{name: value})
    with pytest.raises(ValueError, match=rf"^{name} must be >= 1"):
        parse_config(f"{name} = {value}\n")
    assert getattr(parse_config(f"{name} = 1\n"), name) == 1


def test_critic_and_heads_rejected_at_construction():
    """Configs that used to fail only once adapt started or the critic ran
    its first forward, or with a ZeroDivisionError, now raise a ValueError
    naming the field, through RunConfig and parse_config alike."""
    cases = [
        ({"disc_channels": (8, 16)}, "disc_channels = 8,16",
         r"must end in 1 .*\(8, 16\)"),
        ({"disc_channels": (8,) * 6 + (1,)}, "disc_channels = 8,8,8,8,8,8,1",
         r"crop 64 is too small for a 7-layer critic: layer 6"),
        ({"heads": (0, 1, 2, 4)}, "heads = 0,1,2,4",
         r"^heads must all be >= 1, got \(0, 1, 2, 4\)$"),
        ({"sr_ratios": (8, 4, 0, 1)}, "sr_ratios = 8,4,0,1",
         r"^sr_ratios must all be >= 1"),
    ]
    for fields, text, match in cases:
        with pytest.raises(ValueError, match=match):
            RunConfig(**fields)
        with pytest.raises(ValueError, match=match):
            parse_config(text + "\n")
    # six layers take a 64 crop down to a 1x1 patch map, which is allowed
    assert len(parse_config("disc_channels = 8,8,8,8,8,1\n").disc_channels) == 6
    with pytest.raises(ValueError, match="crop 32 is too small"):
        RunConfig(crop=32, sr_ratios=(2, 2, 1, 1),
                  disc_channels=(8, 8, 8, 8, 8, 1))


def test_builder_configs_mirror_run_config():
    cfg = RunConfig()
    enc, dec, disc = cfg.encoder_config(), cfg.decoder_config(), \
        cfg.disc_config()
    assert enc.channels == cfg.channels and enc.heads == cfg.heads
    assert dec.embed_dim == cfg.embed_dim
    assert dec.num_classes == cfg.num_classes
    # the critic scores softmax probability maps, one plane per class
    assert disc.in_channels == cfg.num_classes
    assert disc.channels == cfg.disc_channels


# ---------------------------------------------------------------------------
# config and scene-spec text: round trips and rejections (hypothesis)
# ---------------------------------------------------------------------------

_ANY_FLOAT = st.floats(allow_nan=False, allow_infinity=False)
_UNIT = st.floats(0.0, 1.0)
_POSITIVE = st.integers(1, 10**6)


def _ints(lo, hi, n):
    return st.lists(st.integers(lo, hi), min_size=n, max_size=n).map(tuple)


# a valid value of every RunConfig field, given the default architecture
# (so crop keeps to multiples of 32 and channels to multiples of heads)
_FIELD_VALUES = {
    "channels": st.tuples(*(st.integers(1, 64).map(lambda c, h=h: c * h)
                            for h in RunConfig().heads)),
    "depths": _ints(0, 3, 4),
    "heads": st.just(RunConfig().heads),
    "sr_ratios": st.just(RunConfig().sr_ratios),
    "ffn_expand": _POSITIVE,
    "share_branch_weights": st.booleans(),
    "embed_dim": _POSITIVE,
    "num_classes": st.just(2),
    "extra_hidden": st.booleans(),
    "share_heads": st.booleans(),
    "disc_channels": st.lists(st.integers(1, 256), max_size=4).map(
        lambda c: (*c, 1)),
    "leaky_slope": _ANY_FLOAT,
    "lr": _ANY_FLOAT,
    "disc_lr": _ANY_FLOAT,
    "weight_decay": _ANY_FLOAT,
    "adam_beta1": _ANY_FLOAT,
    "adam_beta2": _ANY_FLOAT,
    "adam_eps": _ANY_FLOAT,
    "warmup_steps": st.integers(-10**6, 10**6),
    "iterations": st.integers(0, 10**6),
    "warmup_iterations": st.integers(0, 10**6),
    "batch": _POSITIVE,
    "seed": st.integers(-2**70, 2**70),
    "beta1": _ANY_FLOAT,
    "beta2": _ANY_FLOAT,
    "tau": _UNIT,
    "temperature": st.floats(0.0, exclude_min=True, allow_infinity=False),
    "lambda_ema": st.floats(0.0, 1.0, exclude_max=True),
    "class_weight_pl": _ANY_FLOAT,
    "crop": st.sampled_from([32, 64, 96, 128]),
    "self_training": st.booleans(),
    "adversarial": st.booleans(),
    "label_correction": st.booleans(),
    "use_cross_src": st.booleans(),
    "use_cross_tgt": st.booleans(),
    "eval_every": _POSITIVE,
}


def test_field_values_cover_every_config_field():
    assert set(_FIELD_VALUES) == {f.name for f in dataclasses.fields(RunConfig)}


@st.composite
def _changes(draw):
    names = draw(st.sets(st.sampled_from(sorted(_FIELD_VALUES))))
    return {name: draw(_FIELD_VALUES[name]) for name in sorted(names)}


@st.composite
def _configs(draw):
    return dataclasses.replace(RunConfig(), **draw(_changes()))


# a suffix that makes any field's text malformed: no int, float, bool or
# tuple of them, and no background family, ends in one
_GARBLE = st.sampled_from(["x", "?", ",", " x", "..", "=1"])
# any one-line text, for values that may or may not parse
_LINE = st.text(string.ascii_letters + string.digits + string.punctuation + " ",
                max_size=12)


def _replace_value(text, index, value):
    lines = text.splitlines()
    key = lines[index].split(" = ", 1)[0]
    lines[index] = f"{key} = {value}"
    return "\n".join(lines) + "\n", key


@settings(max_examples=150, deadline=None)
@given(_configs())
def test_config_text_round_trips(cfg):
    text = serialize_config(cfg)
    assert parse_config(text) == cfg
    assert serialize_config(parse_config(text)) == text


@settings(max_examples=150, deadline=None)
@given(_configs(), _changes())
def test_overrides_round_trip(cfg, changes):
    """A flag carries a value in the file syntax and sets exactly it."""
    overrides = {name: value_text(v) for name, v in changes.items()}
    assert apply_overrides(cfg, overrides) == dataclasses.replace(cfg, **changes)


@settings(max_examples=150, deadline=None)
@given(_configs(), st.data())
def test_a_garbled_config_value_raises_value_error_naming_it(cfg, data):
    text = serialize_config(cfg)
    index = data.draw(st.integers(0, len(text.splitlines()) - 1))
    value = text.splitlines()[index].split(" = ", 1)[1]
    bad, key = _replace_value(text, index, value + data.draw(_GARBLE))
    with pytest.raises(ValueError, match=key):
        parse_config(bad)
    other, _ = _replace_value(text, index, data.draw(_LINE))
    try:
        parse_config(other)
    except ValueError:
        pass


_SPEC_FLOATS = st.floats(0.0, 1e6)


@st.composite
def _spec_pairs(draw):
    """Two specs that share their geometry, as ``write_scene_specs`` needs."""
    lines = sorted(draw(st.lists(st.integers(1, 6), min_size=2, max_size=2)))
    widths = sorted(draw(st.lists(st.integers(1, 3), min_size=2, max_size=2)))
    geometry = dict(size=draw(st.sampled_from([32, 64, 96, 128])),
                    lines_min=lines[0], lines_max=lines[1],
                    width_min=widths[0], width_max=widths[1])

    def spec():
        levels = sorted(draw(st.lists(_UNIT, min_size=2, max_size=2)))
        contrast = sorted(draw(st.lists(st.floats(0.0, 1.0, exclude_min=True),
                                        min_size=2, max_size=2)))
        return SceneSpec(**geometry, backgrounds=tuple(draw(st.lists(
            st.sampled_from(["flat", "gradient", "noise"]), min_size=1,
            max_size=4))), bg_level_min=levels[0], bg_level_max=levels[1],
            contrast_min=contrast[0], contrast_max=contrast[1],
            noise_amp=draw(_SPEC_FLOATS), tint=draw(_SPEC_FLOATS),
            seed=draw(st.integers(0, 2**64)))
    return spec(), spec()


def _spec_text(src, tgt):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "spec.txt")
        write_scene_specs(path, src, tgt)
        with open(path) as fh:
            return fh.read()


def _read_spec_text(text):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "spec.txt")
        with open(path, "w") as fh:
            fh.write(text)
        return read_scene_specs(path)


@settings(max_examples=100, deadline=None)
@given(_spec_pairs())
def test_scene_spec_text_round_trips(specs):
    text = _spec_text(*specs)
    assert _read_spec_text(text) == specs
    assert _spec_text(*_read_spec_text(text)) == text


@settings(max_examples=100, deadline=None)
@given(_spec_pairs(), st.data())
def test_a_dropped_or_garbled_spec_key_raises_value_error_naming_it(specs,
                                                                     data):
    lines = _spec_text(*specs).splitlines()
    index = data.draw(st.integers(0, len(lines) - 1))
    key, value = lines[index].split(" = ", 1)
    with pytest.raises(ValueError, match=f"missing key '{key}'"):
        _read_spec_text("\n".join(lines[:index] + lines[index + 1:]))
    bad, _ = _replace_value("\n".join(lines), index, value + data.draw(_GARBLE))
    with pytest.raises(ValueError):
        _read_spec_text(bad)
    other, _ = _replace_value("\n".join(lines), index, data.draw(_LINE))
    try:
        _read_spec_text(other)
    except ValueError:
        pass


def test_generate_names_a_missing_or_malformed_spec_key(tmp_path, capsys):
    """A spec file without a key, or with a value that does not parse,
    exits 1 with a message naming the key, not with a traceback."""
    text = _spec_text(source_spec(7), target_spec(7))
    for name, bad, want in (
            ("missing", text.replace("source.tint = 0.06\n", ""),
             "spec is missing key 'source.tint'"),
            ("malformed", text.replace("source.size = 64", "source.size = abc"),
             "source.size: expected int, got 'abc'"),
            ("infinite", text.replace("source.tint = 0.06", "source.tint = inf"),
             "noise_amp and tint must be finite")):
        spec_file = tmp_path / f"{name}.txt"
        spec_file.write_text(bad)
        assert cli.main(["generate", "--out", str(tmp_path / name), "--spec",
                         str(spec_file), "--train", "1", "--val", "1"]) == 1
        assert want in capsys.readouterr().err


# ---------------------------------------------------------------------------
# thread cap and argument errors
# ---------------------------------------------------------------------------


def test_thread_cap_translates_to_pool_vars():
    env = {"QF_THREADS": "3"}
    cli.apply_thread_cap(env)
    for var in cli._POOL_VARS:
        assert env[var] == "3"


def test_thread_cap_keeps_explicit_settings():
    env = {"QF_THREADS": "8", "OPENBLAS_NUM_THREADS": "1"}
    cli.apply_thread_cap(env)
    assert env["OPENBLAS_NUM_THREADS"] == "1"
    assert env["OMP_NUM_THREADS"] == "8"


def test_thread_cap_rejects_garbage():
    for bad in ("0", "-2", "many"):
        with pytest.raises(ValueError):
            cli.apply_thread_cap({"QF_THREADS": bad})
    cli.apply_thread_cap({})  # unset: no-op


def test_usage_errors_exit_one():
    for argv in ([], ["bogus"], ["adapt", "--data", "x"]):
        with pytest.raises(SystemExit) as ei:
            cli.main(argv)
        assert ei.value.code == 1


def test_malformed_set_flag_exits_one(tmp_path, capsys):
    rc = cli.main(["warmup", "--data", str(tmp_path), "--out",
                   str(tmp_path / "w.ckpt"), "--set", "lr"])
    assert rc == 1
    assert "key=value" in capsys.readouterr().err


@pytest.mark.parametrize("k", [1, 3, 5])
def test_num_classes_other_than_two_exits_one(tmp_path, capsys, k):
    """The corpus labels the line as class 1 of two; any other class count
    is refused in the config itself, in one line naming the field, before
    any data is read."""
    rc = cli.main(["warmup", "--data", str(tmp_path / "none"), "--out",
                   str(tmp_path / "w.ckpt"), "--set", f"num_classes={k}"])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"quadseg: error: num_classes must be 2 (background and line), "
        f"got {k}\n")
    assert not os.path.exists(tmp_path / "w.ckpt")


_FLOAT_FIELDS = [f.name for f in dataclasses.fields(RunConfig)
                 if f.type == "float"]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", _FLOAT_FIELDS)
def test_non_finite_float_setting_exits_one(tmp_path, capsys, name, value):
    """Each float field refuses nan and infinities in the config itself:
    one error line naming the field, before any data is read."""
    rc = cli.main(["warmup", "--data", str(tmp_path / "none"), "--out",
                   str(tmp_path / "w.ckpt"), "--set", f"{name}={value}"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == (f"quadseg: error: {name} must be finite, "
                   f"got {float(value)!r}\n")
    assert not os.path.exists(tmp_path / "w.ckpt")


# ---------------------------------------------------------------------------
# CLI pipeline on a four-image benchmark
# ---------------------------------------------------------------------------

_TINY = ["--train", "4", "--val", "2", "--seed", "7"]
_FAST = ["--set", "warmup_iterations=4", "--set", "iterations=4",
         "--set", "eval_every=2"]


def _tree_digest(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            out[os.path.relpath(path, root)] = digest
    return out


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = str(root / "data")
    assert cli.main(["generate", "--out", data] + _TINY) == 0
    return root, data


@pytest.fixture(scope="module")
def chain(workspace):
    root, data = workspace
    paths = {"data": data,
             "pairs": str(root / "pairs.tsv"),
             "wck": str(root / "w.ckpt"),
             "ack": str(root / "a.ckpt"),
             "evdir": str(root / "evaldir"),
             "wlog": str(root / "wlog.csv"),
             "alog": str(root / "alog.csv")}
    assert cli.main(["pair", "--data", data, "--out", paths["pairs"]]) == 0
    assert cli.main(["warmup", "--data", data, "--out", paths["wck"],
                     "--log", paths["wlog"]] + _FAST) == 0
    assert cli.main(["adapt", "--data", data, "--warmup", paths["wck"],
                     "--out", paths["ack"], "--pairs", paths["pairs"],
                     "--log", paths["alog"]] + _FAST) == 0
    assert cli.main(["eval", "--ckpt", paths["ack"], "--data", data,
                     "--out", paths["evdir"]]) == 0
    return paths


def test_generate_layout_and_counts(workspace):
    _, data = workspace
    assert sorted(list_image_ids(data, "source")) == [0, 1, 2, 3]
    train, val = split_target_ids(data)
    assert train == [0, 1, 2, 3] and val == [4, 5]
    ppm = sum(len([f for f in fs if f.endswith(".ppm")])
              for _, _, fs in os.walk(data))
    pgm = sum(len([f for f in fs if f.endswith(".pgm")])
              for _, _, fs in os.walk(data))
    assert ppm == 10 and pgm == 6  # 4+6 images, 4+2 labels


def test_generate_rerun_byte_identical(workspace, tmp_path):
    _, data = workspace
    again = str(tmp_path / "again")
    assert cli.main(["generate", "--out", again] + _TINY) == 0
    assert _tree_digest(again) == _tree_digest(data)


def test_generate_from_spec_file_matches_builtin(workspace, tmp_path):
    _, data = workspace
    spec_file = str(tmp_path / "domains.txt")
    write_scene_specs(spec_file, source_spec(7), target_spec(7))
    out = str(tmp_path / "deep" / "nested" / "data")  # parents created
    assert cli.main(["generate", "--out", out, "--spec", spec_file,
                     "--train", "4", "--val", "2"]) == 0
    assert _tree_digest(out) == _tree_digest(data)


def test_pair_file_round_trips_to_recomputed_pairing(chain):
    data = chain["data"]
    src_ids = list_image_ids(data, "source")
    tgt_ids = split_target_ids(data)[0]
    src_paths = [image_path(data, "source", i) for i in src_ids]
    tgt_paths = [image_path(data, "target", i) for i in tgt_ids]
    loaded = read_pairs(chain["pairs"], src_paths, tgt_paths)
    fresh = pair_two_way(
        [to_grayscale(load_sample(data, "source", i, with_label=False).image)
         for i in src_ids],
        [to_grayscale(load_sample(data, "target", i, with_label=False).image)
         for i in tgt_ids])
    assert loaded.pairs == fresh.pairs
    assert loaded.sims == pytest.approx(fresh.sims, abs=0)
    assert {i for i, _ in loaded.pairs} == set(range(len(src_ids)))
    assert {j for _, j in loaded.pairs} == set(range(len(tgt_ids)))


def test_warmup_emits_checkpoint_and_pseudo_labels(chain):
    assert os.path.exists(chain["wck"])
    plabel_dir = chain["wck"] + ".plabels"
    names = sorted(os.listdir(plabel_dir))
    assert names == ["0000.conf", "0000.pgm", "0001.conf", "0001.pgm",
                     "0002.conf", "0002.pgm", "0003.conf", "0003.pgm"]


def test_log_files_have_contract_header(chain):
    header = "step,l_seg_s,l_seg_t,d_loss,g_loss,lr,target_iou"
    for key in ("wlog", "alog"):
        with open(chain[key]) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == header
        assert len(lines) == 1 + 4  # one row per step


def test_adapt_rerun_byte_identical(chain, tmp_path):
    again = str(tmp_path / "a2.ckpt")
    assert cli.main(["adapt", "--data", chain["data"], "--warmup",
                     chain["wck"], "--out", again, "--pairs",
                     chain["pairs"]] + _FAST) == 0
    for suffix in ("", ".bin"):
        with open(chain["ack"] + suffix, "rb") as fh:
            want = fh.read()
        with open(again + suffix, "rb") as fh:
            assert fh.read() == want


def test_eval_report_matches_mask_recompute(chain):
    with open(os.path.join(chain["evdir"], "report.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "id,iou"
    assert lines[-1].startswith("mean,")
    vals = []
    for line in lines[1:-1]:
        sid, val = line.split(",")
        mask = read_pgm(os.path.join(chain["evdir"], "masks",
                                     f"{sid}.pgm")) > 127
        label = load_sample(chain["data"], "target", int(sid),
                            with_label=True).label
        assert abs(iou(mask, label) - float(val)) < 5e-7
        vals.append(float(val))
    assert abs(float(lines[-1].split(",")[1]) - sum(vals) / len(vals)) < 1e-6


def test_eval_never_reads_source_images(chain, tmp_path):
    hidden = str(tmp_path / "source_hidden")
    os.rename(os.path.join(chain["data"], "source"), hidden)
    try:
        rc = cli.main(["eval", "--ckpt", chain["ack"], "--data",
                       chain["data"], "--out", str(tmp_path / "ev")])
    finally:
        os.rename(hidden, os.path.join(chain["data"], "source"))
    assert rc == 0


def test_warmup_resume_past_schedule_rejected(chain, tmp_path):
    """A checkpoint whose step is past warmup_iterations must not be
    re-saved under the shorter schedule's step."""
    from quadseg.checkpoint import CheckpointError
    from quadseg.train import warmup
    cfg = parse_config("warmup_iterations = 2\neval_every = 2")
    out = str(tmp_path / "resumed.ckpt")
    with pytest.raises(CheckpointError, match="step 4"):
        warmup(cfg, chain["data"], out, resume=chain["wck"])
    assert not os.path.exists(out)


def test_tape_size_does_not_grow_with_batch(workspace, tmp_path):
    """One warm-up step's tape, and one paired step's critic tape and
    generator tape (which runs through the critic), record as many nodes at
    batch 1, 2 and 3: each loss takes the whole batch in one chain.  tau =
    0.5 leaves every pseudo-label pixel valid, so no item drops out."""
    from quadseg.train import adapt, warmup
    _, data = workspace
    sweep = tensor.Tape.backward
    sizes = {}
    for batch in (1, 2, 3):
        cfg = RunConfig(batch=batch, warmup_iterations=1, iterations=1,
                        eval_every=1, tau=0.5)
        seen = sizes[batch] = []

        def counting(tape, root):
            seen.append(len(tape.nodes))
            sweep(tape, root)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tensor.Tape, "backward", counting)
            warmup(cfg, data, str(tmp_path / f"w{batch}.ckpt"))
            adapt(cfg, data, str(tmp_path / f"w{batch}.ckpt"),
                  str(tmp_path / f"a{batch}.ckpt"))
    assert len(sizes[1]) == 3        # warm-up, critic, generator
    assert sizes[1] == sizes[2] == sizes[3]
    # each encoder sublayer, merge, class-map resample and loss is one op,
    # the four streams stay one stack from the embed to the heads and the
    # critic is one op (144 nodes here); the merges as reshape, conv2d and
    # reshape, the resamples as reshape, transpose and upsample, and the
    # losses as 7- and 3-op chains took 168; the critic as 9 conv2d and
    # leaky_relu ops, plus a recorded softmax of the source masks, 177;
    # composing the sublayers from linear, reshape, depthwise and add ops
    # 238, and splitting and restacking the streams around each block,
    # merge and head 276
    assert sizes[1][2] <= 144
    assert sizes[1][0] == 118       # 92 watched parameters and 26 op nodes
    # the critic's 10 leaves, 1 pass, its 2 halves and the one-op loss
    assert sizes[1][1] == 14


def _op_kinds_per_sweep(run) -> list:
    """The op kinds on each tape that ``run()`` sweeps, in sweep order: a
    Counter of the op that defined each recorded rule."""
    sweep = tensor.Tape.backward
    kinds = []

    def counting(tape, root):
        kinds.append(collections.Counter(
            n.backward_fn.__qualname__.split(".")[0] for n in tape.nodes
            if n.backward_fn is not None))
        sweep(tape, root)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tensor.Tape, "backward", counting)
        run()
    return kinds


def test_each_critic_pass_is_one_tape_node(chain, tmp_path):
    """An adapt step scores the real and fake masks in one critic pass: the
    critic's tape holds one ``patch_critic`` node, the gathers of its two
    halves and the one-op loss, and the generator's tape one more
    ``patch_critic`` node and its one-op loss.  The critic as a per-map
    conv2d + leaky_relu chain recorded 10 conv2d and 8 leaky_relu nodes on
    the critic's tape and 5 and 4 on the generator's; its losses as neg,
    softplus, tmean and add ops 6 nodes and 3."""
    from quadseg.train import adapt
    # tau = 0.5 leaves every pseudo-label pixel valid: the target loss runs
    critic, generator = _op_kinds_per_sweep(lambda: adapt(
        RunConfig(iterations=1, eval_every=1, tau=0.5), chain["data"],
        chain["wck"], str(tmp_path / "a.ckpt")))
    assert critic == {"patch_critic": 1, "gather": 2, "softplus_means": 1}
    assert generator["patch_critic"] == 1
    assert generator["softplus_means"] == 1
    # the source and the target segmentation loss, one op each
    assert generator["log_likelihood"] == 2
    for composed in ("leaky_relu", "neg", "softplus", "tmean", "log_softmax",
                     "transpose", "reshape", "upsample_bilinear", "conv2d"):
        assert composed not in generator
    # the target masks' softmax; the source masks are read detached only
    assert generator["softmax"] == 1


def test_warmup_step_records_26_op_nodes(chain, tmp_path):
    """A warm-up step's tape holds one node per encoder sublayer, merge,
    decoder layer, class-map resample and loss.  The image is not watched,
    so its patch extraction records nothing.  The merges as reshape, conv2d
    and reshape, the resample as reshape, transpose and upsample, and the
    loss as a 7-op chain recorded 40 op nodes."""
    from quadseg.train import warmup
    (kinds,) = _op_kinds_per_sweep(lambda: warmup(
        RunConfig(warmup_iterations=1, eval_every=1), chain["data"],
        str(tmp_path / "w.ckpt")))
    assert kinds == {"linear": 6, "layer_norm": 4, "residual_attention": 4,
                     "residual_mix_ffn": 4, "token_conv2d": 3,
                     "pyramid_fuse": 1, "relu": 1, "tokens_to_map": 1,
                     "log_likelihood": 1, "mul": 1}
    assert sum(kinds.values()) == 26


def test_missing_checkpoint_exits_one(chain, capsys):
    rc = cli.main(["eval", "--ckpt", chain["wck"] + ".nope", "--data",
                   chain["data"], "--out", chain["evdir"]])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_missing_pairs_file_exits_one(chain, tmp_path, capsys):
    """A named pair file is always read: a missing one is an error, never
    a silent fallback to pairing on the fly."""
    out = str(tmp_path / "a.ckpt")
    rc = cli.main(["adapt", "--data", chain["data"], "--warmup", chain["wck"],
                   "--out", out, "--pairs", str(tmp_path / "no-such-file.tsv")]
                  + _FAST)
    assert rc == 1
    assert "no-such-file.tsv" in capsys.readouterr().err
    assert not os.path.exists(out)


# ---------------------------------------------------------------------------
# verification command
# ---------------------------------------------------------------------------


def test_verify_clean_passes(capsys):
    assert cli.main(["verify"]) == 0
    assert capsys.readouterr().out.count("PASS") == 5


def test_verify_injected_fault_caught():
    assert cli.main(["verify", "--inject-fault"]) == 2
    assert tensor._FAULT_INJECTION is False  # switch reset on the way out
