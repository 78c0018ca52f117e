"""Binary PNM image I/O (P6 color, P5 grayscale) plus raw f64 maps.

The parser follows the PNM header grammar: magic, then width, height and
maxval tokens separated by whitespace runs that may contain ``#`` comments
running to end-of-line, then exactly one whitespace byte before the raster.
Only 8-bit data (maxval <= 255) is supported; wider samples are rejected
rather than silently truncated.  All errors carry the byte offset at which
parsing stopped.

Confidence maps ride alongside as headerless little-endian float64 rasters;
their shape comes from the paired PGM.

Each writer is an encoder (``encode_ppm``, ``encode_pgm``, ``encode_f64``:
array -> the file's bytes) and one write.  ``write_ppm`` and friends do both
before they return; a loop that writes many files hands the encoded bytes
to a ``WriteBehind`` instead, whose one worker thread creates the files
while the loop computes the next ones.
"""

from __future__ import annotations

import os
import queue
import threading

import numpy as np

__all__ = ["PnmError", "read_ppm_raw", "read_ppm", "encode_ppm", "write_ppm",
           "read_pgm_raw", "read_pgm", "encode_pgm", "write_pgm", "read_f64",
           "encode_f64", "write_f64", "write_bytes", "WriteBehind"]

_WS = b" \t\n\r\x0b\x0c"


class PnmError(ValueError):
    """Malformed PNM data; reports the file and byte offset."""

    def __init__(self, path: str, offset: int, message: str):
        super().__init__(f"{path}: byte {offset}: {message}")
        self.path = path
        self.offset = offset


def _skip_space(buf: bytes, pos: int) -> int:
    while pos < len(buf):
        b = buf[pos]
        if b in _WS:
            pos += 1
        elif b == 0x23:                       # '#' comment to end of line
            while pos < len(buf) and buf[pos] not in b"\r\n":
                pos += 1
        else:
            break
    return pos


def _token(buf: bytes, pos: int, path: str, what: str) -> tuple[bytes, int]:
    pos = _skip_space(buf, pos)
    if pos >= len(buf):
        raise PnmError(path, pos, f"unexpected end of file, expected {what}")
    start = pos
    while pos < len(buf) and buf[pos] not in _WS and buf[pos] != 0x23:
        pos += 1
    return buf[start:pos], pos


def _int_token(buf: bytes, pos: int, path: str, what: str) -> tuple[int, int]:
    tok, end = _token(buf, pos, path, what)
    if not tok.isdigit():
        raise PnmError(path, end - len(tok), f"{what} is not a number: {tok!r}")
    return int(tok), end


def _read_raster(path: str, magic: bytes, channels: int):
    with open(path, "rb") as fh:
        buf = fh.read()
    got, pos = _token(buf, 0, path, "magic")
    if got != magic:
        raise PnmError(path, pos - len(got),
                       f"bad magic {got!r}, expected {magic.decode()}")
    width, pos = _int_token(buf, pos, path, "width")
    height, pos = _int_token(buf, pos, path, "height")
    maxval, pos = _int_token(buf, pos, path, "maxval")
    if width < 1 or height < 1:
        raise PnmError(path, pos, f"non-positive dimensions {width}x{height}")
    if not (1 <= maxval <= 255):
        raise PnmError(path, pos,
                       f"maxval {maxval} unsupported (only 8-bit, 1..255)")
    if pos >= len(buf) or buf[pos] not in _WS:
        raise PnmError(path, pos, "expected single whitespace before raster")
    pos += 1
    need = width * height * channels
    if len(buf) - pos < need:
        raise PnmError(path, len(buf),
                       f"raster truncated: {len(buf) - pos} of {need} bytes")
    if len(buf) - pos > need:
        raise PnmError(path, pos + need,
                       f"{len(buf) - pos - need} trailing bytes after raster")
    data = np.frombuffer(buf, dtype=np.uint8, count=need, offset=pos)
    return data, width, height, maxval


def read_ppm_raw(path: str) -> tuple[np.ndarray, int]:
    """P6 file -> (read-only uint8 raster [3, H, W], maxval), undecoded."""
    data, w, h, maxval = _read_raster(path, b"P6", 3)
    return data.reshape(h, w, 3).transpose(2, 0, 1), maxval


def read_ppm(path: str) -> np.ndarray:
    """P6 file -> float64 image [3, H, W] in [0, 1]: each raw value over the
    file's maxval."""
    raster, maxval = read_ppm_raw(path)
    return raster.astype(np.float64) / maxval


def write_bytes(path: str, data: bytes) -> None:
    """Create (or truncate) ``path`` and write ``data``: the one write of
    every writer here.  Unbuffered ``os`` calls, three system calls a file:
    on a ``WriteBehind`` thread each one hands the interpreter lock back
    and forth with the caller's thread."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
    finally:
        os.close(fd)


def encode_ppm(img: np.ndarray) -> bytes:
    """float image [3, H, W] in [0, 1] -> P6 file bytes (values quantized to
    8 bits, round-half-away handled by round-to-nearest-even of numpy)."""
    img = np.asarray(img)
    if img.ndim != 3 or img.shape[0] != 3:
        raise ValueError(f"expected [3, H, W] image, got {img.shape}")
    q = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
    _, h, w = img.shape
    header = f"P6\n{w} {h}\n255\n".encode("ascii")
    return header + q.transpose(1, 2, 0).tobytes()


def write_ppm(path: str, img: np.ndarray) -> None:
    """``encode_ppm`` of ``img``, written to ``path``."""
    write_bytes(path, encode_ppm(img))


def read_pgm_raw(path: str) -> tuple[np.ndarray, int]:
    """P5 file -> (read-only uint8 array [H, W] of raw sample values,
    maxval)."""
    data, w, h, maxval = _read_raster(path, b"P5", 1)
    return data.reshape(h, w), maxval


def read_pgm(path: str) -> np.ndarray:
    """P5 file -> uint8 array [H, W] of raw sample values."""
    return read_pgm_raw(path)[0].copy()


def encode_pgm(arr: np.ndarray, maxval: int = 255) -> bytes:
    """uint8-compatible [H, W] array -> P5 file bytes.  Class maps go in raw
    (values 0/1, maxval 255 for viewer compatibility)."""
    arr = np.asarray(arr)
    if arr.ndim != 2:
        raise ValueError(f"expected [H, W] array, got {arr.shape}")
    if arr.min() < 0 or arr.max() > maxval:
        raise ValueError(f"values outside [0, {maxval}]")
    h, w = arr.shape
    header = f"P5\n{w} {h}\n{maxval}\n".encode("ascii")
    return header + arr.astype(np.uint8).tobytes()


def write_pgm(path: str, arr: np.ndarray, maxval: int = 255) -> None:
    """``encode_pgm`` of ``arr``, written to ``path``."""
    write_bytes(path, encode_pgm(arr, maxval))


def read_f64(path: str, shape: tuple[int, ...]) -> np.ndarray:
    """Raw little-endian float64 raster of the given shape."""
    n = int(np.prod(shape))
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size != 8 * n:
            raise PnmError(path, size,
                           f"f64 raster has {size} bytes, expected {8 * n}")
        arr = np.fromfile(fh, dtype="<f8", count=n)
    if arr.size != n:
        raise PnmError(path, 8 * arr.size, "f64 raster ended early")
    return arr.astype(np.float64, copy=False).reshape(shape)


def encode_f64(arr: np.ndarray) -> bytes:
    """Any float64-compatible array -> its raw little-endian f64 bytes."""
    arr = np.ascontiguousarray(np.asarray(arr, dtype=np.float64))
    return arr.astype("<f8", copy=False).tobytes()


def write_f64(path: str, arr: np.ndarray) -> None:
    """``encode_f64`` of ``arr``, written to ``path``."""
    write_bytes(path, encode_f64(arr))


_PENDING = 8            # files handed to a WriteBehind and not yet closed


class WriteBehind:
    """One worker thread that creates files from bytes the caller encoded.

    ``put(path, data)`` queues one file and returns; once ``_PENDING`` files
    are queued or being written it waits for the oldest to close.  The
    worker only opens, writes and closes, in ``put`` order.  Leaving the
    ``with`` block writes what is queued and joins the thread, also when
    the block raised.  The worker's first error stops its writing and is
    raised in the caller at the next ``put`` or on leaving the block (where
    an error of the block itself takes precedence).
    """

    def __init__(self):
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self._slots = threading.Semaphore(_PENDING)
        self._error: Exception | None = None
        self._thread = threading.Thread(target=self._run,
                                        name="quadseg-writer")

    def __enter__(self) -> "WriteBehind":
        self._thread.start()
        return self

    def put(self, path: str, data: bytes) -> None:
        self._check()
        self._slots.acquire()
        self._queue.put((path, data))

    def _run(self) -> None:
        while (item := self._queue.get()) is not None:
            if self._error is None:
                try:
                    write_bytes(*item)
                except Exception as e:
                    self._error = e
            self._slots.release()

    def _check(self) -> None:
        if self._error is not None:
            raise self._error

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._queue.put(None)
        self._thread.join()
        if exc_type is None:
            self._check()
        return False
