"""Checkpoint persistence: a human-readable text manifest next to a raw
little-endian float64 binary.

The manifest (at the checkpoint path itself) records a magic line, the
training step, the sha256 of the binary, the run configuration verbatim,
and one ``name ndim dims...`` line per tensor; the binary (same path +
``.bin``) is the concatenation of the tensors' C-order f64 bytes in
manifest order.  Round trips are bit-exact and re-saving loaded data
reproduces identical files.

A save writes both files to temporary names in the target directory,
fsyncs them, and then renames the binary into place before the manifest.
A save cut short at any point therefore leaves either the previous
checkpoint or a binary whose digest (or size) the surviving manifest
rejects, never new tensors read under an old manifest.  A load reads the
binary once into one float64 array and returns every tensor as a view of
it.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .tensor import Tensor

__all__ = ["CheckpointData", "save_checkpoint", "load_checkpoint",
           "CheckpointError"]

MAGIC = "quadseg-ckpt v2"


class CheckpointError(ValueError):
    """Malformed or inconsistent checkpoint files."""


@dataclass
class CheckpointData:
    """A loaded checkpoint.  Every array in ``tensors`` is a view of one
    buffer holding the whole binary, so a caller that keeps any one of them
    keeps all of it: copy what must outlive the load and drop the rest."""

    step: int
    config_text: str
    tensors: dict[str, np.ndarray] = field(default_factory=dict)


def _sync(fh) -> None:
    fh.flush()
    os.fsync(fh.fileno())


def save_checkpoint(path: str, tensors: dict, config_text: str,
                    step: int) -> None:
    """``tensors`` maps names to Tensors or arrays; names must be
    non-empty ASCII without whitespace, and the config text ASCII lines
    joined by single newlines (no trailing newline, ``\r``, ``\x0b``,
    ``\x0c`` or ``\x1c``-``\x1e``), so that it loads back exactly.  Writes
    ``path`` (manifest) and ``path + '.bin'``, each through a temporary
    file replaced into place, the binary first."""
    if not config_text.isascii():
        raise CheckpointError("config text is not ASCII")
    cfg_lines = config_text.splitlines()
    if "\n".join(cfg_lines) != config_text:
        raise CheckpointError("config text would not load back exactly: "
                              "only inner newlines may break its lines")
    arrays: dict[str, np.ndarray] = {}
    for name, t in tensors.items():
        if not name or not name.isascii() or any(ch.isspace() for ch in name):
            raise CheckpointError(f"tensor name must be non-empty ASCII "
                                  f"without whitespace: {name!r}")
        arr = np.asarray(t.data if isinstance(t, Tensor) else t)
        arrays[name] = arr.astype("<f8", order="C", copy=False)
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    bin_tmp, manifest_tmp = path + ".bin.tmp", path + ".tmp"
    try:
        digest = hashlib.sha256()
        with open(bin_tmp, "wb") as fh:
            for arr in arrays.values():
                view = memoryview(arr)
                digest.update(view)
                fh.write(view)
            _sync(fh)
        lines = [MAGIC, f"step {step}", f"sha256 {digest.hexdigest()}",
                 f"config-lines {len(cfg_lines)}", *cfg_lines,
                 f"tensors {len(arrays)}"]
        for name, arr in arrays.items():
            lines.append(" ".join([name, str(arr.ndim),
                                   *(str(d) for d in arr.shape)]))
        with open(manifest_tmp, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
            _sync(fh)
        os.replace(bin_tmp, path + ".bin")
        os.replace(manifest_tmp, path)
    finally:
        for tmp in (bin_tmp, manifest_tmp):
            if os.path.exists(tmp):
                os.unlink(tmp)


def _parse_manifest(path: str, text: str):
    """(step, sha256 hex, config text, [(name, shape)]) from a manifest."""
    lines = text.splitlines()
    if not lines or lines[0] != MAGIC:
        raise CheckpointError(f"{path}: bad magic line (expected {MAGIC!r})")

    def expect(i, key, parse=int):
        if i >= len(lines):
            raise CheckpointError(f"{path}: truncated before '{key}'")
        parts = lines[i].split()
        if len(parts) != 2 or parts[0] != key:
            raise CheckpointError(f"{path}:{i + 1}: expected '{key} <value>'")
        try:
            return parse(parts[1])
        except ValueError:
            raise CheckpointError(f"{path}:{i + 1}: non-integer {key}") from None

    step = expect(1, "step")
    sha = expect(2, "sha256", str)
    n_cfg = expect(3, "config-lines")
    cfg_end = 4 + n_cfg
    if not 4 <= cfg_end < len(lines):
        raise CheckpointError(f"{path}: config-lines {n_cfg} does not fit "
                              f"the manifest")
    config_text = "\n".join(lines[4:cfg_end])
    n_tensors = expect(cfg_end, "tensors")
    if n_tensors < 0 or cfg_end + 1 + n_tensors != len(lines):
        raise CheckpointError(f"{path}: {len(lines) - cfg_end - 1} tensor "
                              f"lines, header says {n_tensors}")
    entries: list[tuple[str, tuple[int, ...]]] = []
    for i in range(cfg_end + 1, len(lines)):
        parts = lines[i].split()
        if len(parts) < 2:
            raise CheckpointError(f"{path}:{i + 1}: malformed tensor entry")
        try:
            ndim, *shape = (int(d) for d in parts[1:])
        except ValueError:
            raise CheckpointError(f"{path}:{i + 1}: non-integer dims") from None
        if len(shape) != ndim or any(d < 0 for d in shape):
            raise CheckpointError(f"{path}:{i + 1}: ndim {ndim} with dims "
                                  f"{shape}")
        entries.append((parts[0], tuple(shape)))
    if len({name for name, _ in entries}) != len(entries):
        raise CheckpointError(f"{path}: duplicate tensor names")
    return step, sha, config_text, entries


def load_checkpoint(path: str) -> CheckpointData:
    """Read a checkpoint; raises CheckpointError on any malformed,
    inconsistent or corrupted file.  The tensors are views of one buffer
    (see ``CheckpointData``)."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as e:
        raise CheckpointError(f"cannot read manifest {path}: {e}") from e
    try:
        text = raw.decode("ascii")
    except UnicodeDecodeError as e:
        raise CheckpointError(f"{path}: byte {e.start} is not ASCII") from None
    step, sha, config_text, entries = _parse_manifest(path, text)
    sizes = [math.prod(shape) for _, shape in entries]
    count = sum(sizes)
    try:
        with open(path + ".bin", "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            if size != 8 * count:
                raise CheckpointError(f"{path}.bin: {size} bytes, manifest "
                                      f"implies {8 * count}")
            buf = np.fromfile(fh, dtype="<f8", count=count)
    except OSError as e:
        raise CheckpointError(f"cannot read binary {path}.bin: {e}") from e
    if buf.size != count:
        raise CheckpointError(f"{path}.bin: short read, {buf.size} of "
                              f"{count} values")
    if hashlib.sha256(buf).hexdigest() != sha:
        raise CheckpointError(f"{path}.bin: sha256 does not match the "
                              f"manifest")
    if buf.dtype != np.float64:         # a big-endian host
        buf = buf.astype(np.float64)
    tensors: dict[str, np.ndarray] = {}
    off = 0
    for (name, shape), n in zip(entries, sizes):
        tensors[name] = buf[off:off + n].reshape(shape)
        off += n
    return CheckpointData(step=step, config_text=config_text, tensors=tensors)
