"""Checkpoint files: the v2 manifest with its sha256 line, one shared load
buffer, atomic saves, and malformed or mutated files raising only
CheckpointError (hypothesis fuzzing)."""

import hashlib
import os
import string
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadseg import checkpoint
from quadseg.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from quadseg.config import RunConfig, parse_config, serialize_config


def _tensors(seed=0):
    rng = np.random.default_rng(seed)
    return {"a.w": rng.normal(size=(3, 4)), "b.s": np.float64(0.5),
            "c.v": rng.normal(size=5), "d.empty": np.zeros((0, 2))}


def test_manifest_names_the_binary_digest(tmp_path):
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(path, _tensors(), "seed = 1", step=4)
    lines = Path(path).read_text("ascii").splitlines()
    sha = hashlib.sha256(Path(path + ".bin").read_bytes()).hexdigest()
    assert lines[:5] == ["quadseg-ckpt v2", "step 4", f"sha256 {sha}",
                         "config-lines 1", "seed = 1"]
    assert lines[5:] == ["tensors 4", "a.w 2 3 4", "b.s 0", "c.v 1 5",
                         "d.empty 2 0 2"]


def test_loaded_tensors_are_views_of_one_buffer(tmp_path):
    path = str(tmp_path / "m.ckpt")
    tensors = _tensors()
    save_checkpoint(path, tensors, "", step=0)
    data = load_checkpoint(path)
    bases = {id(a.base) for a in data.tensors.values()}
    assert len(bases) == 1
    base = data.tensors["a.w"].base
    assert base.dtype == np.float64 and base.size == 12 + 1 + 5
    for name, want in tensors.items():
        got = data.tensors[name]
        assert got.dtype == np.float64 and got.shape == np.shape(want)
        np.testing.assert_array_equal(got, want)


def test_successful_save_leaves_no_temp_files(tmp_path):
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(path, _tensors(), "", step=0)
    save_checkpoint(path, _tensors(1), "", step=1)      # over an old one
    assert sorted(os.listdir(tmp_path)) == ["m.ckpt", "m.ckpt.bin"]


def test_flipped_binary_byte_is_rejected(tmp_path):
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(path, _tensors(), "", step=0)
    blob = bytearray(Path(path + ".bin").read_bytes())
    blob[17] ^= 0x01
    Path(path + ".bin").write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="sha256"):
        load_checkpoint(path)


@pytest.mark.parametrize("fail_at", [1, 2])
def test_save_cut_short_never_pairs_new_tensors_with_old_manifest(
        tmp_path, monkeypatch, fail_at):
    """A save that dies at the binary's replace (1) leaves the previous
    checkpoint whole; one that dies at the manifest's replace (2) leaves a
    new binary that the old manifest rejects.  Neither leaves temp files."""
    path = str(tmp_path / "m.ckpt")
    old = _tensors(0)
    save_checkpoint(path, old, "old", step=1)
    calls = []
    replace = os.replace

    def failing_replace(src, dst):
        calls.append(dst)
        if len(calls) == fail_at:
            raise OSError("simulated crash")
        replace(src, dst)

    monkeypatch.setattr(checkpoint.os, "replace", failing_replace)
    with pytest.raises(OSError, match="simulated crash"):
        save_checkpoint(path, _tensors(1), "new", step=2)
    monkeypatch.setattr(checkpoint.os, "replace", replace)
    assert calls == [path + ".bin", path][:fail_at]
    assert sorted(os.listdir(tmp_path)) == ["m.ckpt", "m.ckpt.bin"]
    if fail_at == 1:
        data = load_checkpoint(path)
        assert (data.step, data.config_text) == (1, "old")
        for name, want in old.items():
            np.testing.assert_array_equal(data.tensors[name], want)
    else:
        with pytest.raises(CheckpointError, match="sha256"):
            load_checkpoint(path)


def _write_raw(tmp_path, body: bytes, blob: bytes, sha=None) -> str:
    """A hand-made manifest ``magic, step, sha256 line, body`` and binary."""
    path = tmp_path / "h.ckpt"
    sha = hashlib.sha256(blob).hexdigest() if sha is None else sha
    head = f"{checkpoint.MAGIC}\nstep 0\nsha256 {sha}\n".encode()
    path.write_bytes(head + body)
    Path(str(path) + ".bin").write_bytes(blob)
    return str(path)


@pytest.mark.parametrize("body,blob", [
    (b"config-lines 0\ntensors 2\na 1 -3\nb 1 9\n", bytes(48)),
    (b"config-lines 0\ntensors 1\na 2 3\n", bytes(24)),
    (b"config-lines 0\ntensors 1\na 1 3\nextra 1 0\n", bytes(24)),
    (b"config-lines 0\ntensors -1\n", b""),
    (b"config-lines 0\ntensors 2\na 1 1\na 1 1\n", bytes(16)),
    (b"config-lines -2\ntensors 0\n", b""),
    (b"config-lines 0\ntensors 1\na 1 x\n", bytes(8)),
    (b"config-lines 5\nk = v\n", b""),
    (b"config-lines 0\ntensors 1\na 1 99999999999999999999\n", bytes(8)),
])
def test_malformed_manifest_raises_checkpoint_error(tmp_path, body, blob):
    with pytest.raises(CheckpointError):
        load_checkpoint(_write_raw(tmp_path, body, blob))


def test_manifest_of_magic_alone_or_non_ascii_raises_checkpoint_error(
        tmp_path):
    path = tmp_path / "h.ckpt"
    Path(str(path) + ".bin").write_bytes(b"")
    for text in (checkpoint.MAGIC.encode() + b"\n",
                 checkpoint.MAGIC.encode() + b"\nstep 0\n",
                 checkpoint.MAGIC.encode() + b"\nstep \xe9\n",
                 b"quadseg-ckpt v1\nstep 0\nconfig-lines 0\ntensors 0\n"):
        path.write_bytes(text)
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))


_NAME = st.text(alphabet=string.ascii_letters + string.digits + "._-",
                min_size=1, max_size=12)
_ARRAY = st.lists(st.integers(0, 4), max_size=3).flatmap(
    lambda shape: st.lists(
        st.floats(allow_nan=True, allow_infinity=True, width=64),
        min_size=int(np.prod(shape)), max_size=int(np.prod(shape))).map(
            lambda vals, shape=shape: np.array(vals, dtype=np.float64)
            .reshape(shape)))
_CONFIG = st.lists(st.text(alphabet=[chr(c) for c in range(0x20, 0x7f)],
                           max_size=20), max_size=4).map("\n".join).filter(
    lambda text: not text.endswith("\n"))
_CHECKPOINT = st.tuples(st.dictionaries(_NAME, _ARRAY, max_size=5), _CONFIG,
                        st.integers(0, 10 ** 6))


@settings(max_examples=60, deadline=None)
@given(_CHECKPOINT)
def test_random_checkpoints_round_trip_bit_exactly(ckpt):
    tensors, config, step = ckpt
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "r.ckpt")
        save_checkpoint(path, tensors, config, step)
        data = load_checkpoint(path)
        assert (data.step, data.config_text) == (step, config)
        assert list(data.tensors) == list(tensors)
        for name, want in tensors.items():
            got = data.tensors[name]
            assert got.dtype == np.float64 and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


_ASCII_TEXT = st.text(alphabet=[chr(c) for c in range(128)], max_size=30)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_ASCII_TEXT, _CONFIG,
                 st.sampled_from(["", "\n", "a\n", "a\r\nb", "\x1c",
                                  "a\n\nb"])))
def test_config_text_round_trips_exactly_or_raises(config):
    """Any ASCII config text either loads back exactly or is refused
    before a file is written: exactly the texts with a trailing newline or
    a \\r, \\x0b, \\x0c or \\x1c-\\x1e line break are refused."""
    refused = config.endswith("\n") or any(ch in config
                                           for ch in "\r\x0b\x0c\x1c\x1d\x1e")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.ckpt")
        if refused:
            with pytest.raises(CheckpointError):
                save_checkpoint(path, {"x": np.ones(2)}, config, 3)
            assert os.listdir(tmp) == []
        else:
            save_checkpoint(path, {"x": np.ones(2)}, config, 3)
            assert load_checkpoint(path).config_text == config


def test_serialized_config_round_trips_exactly(tmp_path):
    """A run's config text has no trailing newline, so its checkpoint
    stores it exactly."""
    text = serialize_config(RunConfig())
    path = str(tmp_path / "c.ckpt")
    save_checkpoint(path, {"x": np.ones(1)}, text, 0)
    assert load_checkpoint(path).config_text == text
    assert parse_config(text) == RunConfig()


@settings(max_examples=150, deadline=None)
@given(_CHECKPOINT, st.booleans(), st.integers(0, 2 ** 32),
       st.integers(1, 255))
def test_single_byte_mutation_loads_or_raises_checkpoint_error(
        ckpt, in_binary, where, xor):
    """Any one changed byte of either file loads or raises CheckpointError,
    nothing else; a changed binary byte always raises."""
    tensors, config, step = ckpt
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "r.ckpt")
        save_checkpoint(path, tensors, config, step)
        target = Path(path + ".bin" if in_binary else path)
        blob = bytearray(target.read_bytes())
        if not blob:
            return
        blob[where % len(blob)] ^= xor
        target.write_bytes(bytes(blob))
        try:
            load_checkpoint(path)
        except CheckpointError:
            return
        assert not in_binary, "a mutated binary loaded"
