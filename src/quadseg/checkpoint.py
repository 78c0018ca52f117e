"""Checkpoint persistence: a human-readable text manifest next to a raw
little-endian float64 binary.

The manifest (at the checkpoint path itself) records a magic line, the
training step, the run configuration verbatim, and one ``name ndim dims...``
line per tensor; the binary (same path + ``.bin``) is the concatenation of
the tensors' C-order f64 bytes in manifest order.  Round trips are bit-exact
and re-saving loaded data reproduces identical files.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .tensor import Tensor

__all__ = ["CheckpointData", "save_checkpoint", "load_checkpoint",
           "CheckpointError"]

MAGIC = "quadseg-ckpt v1"


class CheckpointError(ValueError):
    """Malformed or inconsistent checkpoint files."""


@dataclass
class CheckpointData:
    step: int
    config_text: str
    tensors: dict[str, np.ndarray] = field(default_factory=dict)


def save_checkpoint(path: str, tensors: dict, config_text: str,
                    step: int) -> None:
    """``tensors`` maps names to Tensors or arrays; names must be
    whitespace-free.  Writes ``path`` (manifest) and ``path + '.bin'``."""
    arrays: dict[str, np.ndarray] = {}
    for name, t in tensors.items():
        if any(ch.isspace() for ch in name):
            raise CheckpointError(f"tensor name contains whitespace: {name!r}")
        arr = t.data if isinstance(t, Tensor) else np.asarray(t, dtype=np.float64)
        arr = arr.astype(np.float64, copy=False)
        if arr.ndim and not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        arrays[name] = arr
    cfg_lines = config_text.splitlines()
    lines = [MAGIC, f"step {step}", f"config-lines {len(cfg_lines)}"]
    lines.extend(cfg_lines)
    lines.append(f"tensors {len(arrays)}")
    for name, arr in arrays.items():
        dims = " ".join(str(d) for d in arr.shape)
        lines.append(f"{name} {arr.ndim}" + (f" {dims}" if dims else ""))
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(path + ".bin", "wb") as fh:
        for arr in arrays.values():
            fh.write(arr.astype("<f8", copy=False).tobytes(order="C"))


def load_checkpoint(path: str) -> CheckpointData:
    try:
        with open(path, encoding="ascii") as fh:
            lines = fh.read().splitlines()
    except OSError as e:
        raise CheckpointError(f"cannot read manifest {path}: {e}") from e
    if not lines or lines[0] != MAGIC:
        raise CheckpointError(f"{path}: bad magic line (expected {MAGIC!r})")

    def expect(i, key):
        parts = lines[i].split()
        if len(parts) != 2 or parts[0] != key:
            raise CheckpointError(f"{path}:{i + 1}: expected '{key} <int>'")
        try:
            return int(parts[1])
        except ValueError:
            raise CheckpointError(f"{path}:{i + 1}: non-integer {key}") from None

    step = expect(1, "step")
    n_cfg = expect(2, "config-lines")
    cfg_end = 3 + n_cfg
    if cfg_end >= len(lines):
        raise CheckpointError(f"{path}: truncated config block")
    config_text = "\n".join(lines[3:cfg_end])
    n_tensors = expect(cfg_end, "tensors")
    entries: list[tuple[str, tuple[int, ...]]] = []
    for j in range(n_tensors):
        i = cfg_end + 1 + j
        if i >= len(lines):
            raise CheckpointError(f"{path}: truncated tensor list")
        parts = lines[i].split()
        if len(parts) < 2:
            raise CheckpointError(f"{path}:{i + 1}: malformed tensor entry")
        name = parts[0]
        try:
            ndim = int(parts[1])
            shape = tuple(int(d) for d in parts[2:])
        except ValueError:
            raise CheckpointError(f"{path}:{i + 1}: non-integer dims") from None
        if len(shape) != ndim:
            raise CheckpointError(f"{path}:{i + 1}: ndim {ndim} but "
                                  f"{len(shape)} dims listed")
        entries.append((name, shape))

    try:
        with open(path + ".bin", "rb") as fh:
            blob = fh.read()
    except OSError as e:
        raise CheckpointError(f"cannot read binary {path}.bin: {e}") from e
    expected = sum(int(np.prod(s, dtype=np.int64)) for _, s in entries) * 8
    if len(blob) != expected:
        raise CheckpointError(
            f"{path}.bin: {len(blob)} bytes, manifest implies {expected}")
    tensors: dict[str, np.ndarray] = {}
    off = 0
    for name, shape in entries:
        n = int(np.prod(shape, dtype=np.int64))
        arr = np.frombuffer(blob, dtype="<f8", count=n, offset=off)
        tensors[name] = arr.astype(np.float64).reshape(shape)
        off += n * 8
    return CheckpointData(step=step, config_text=config_text, tensors=tensors)
