"""Binary volume file format for velocity datasets.

Layout (all little-endian), version 1:

====== ====== =======================================================
offset size   field
====== ====== =======================================================
0      4      magic ``FLW4``
4      2      version (u16) = 1
6      2      channel layout code (u16) = 1: magnitude, u, v, w
8      4      m (u32), voxels along x
12     4      n (u32), voxels along y
16     4      s (u32), voxels along z
20     4      frame_count (u32)
24     8      venc (f64), cm/s
32     24     spacing (f64 x 3), mm per axis
56     ...    payload: frame_count x 4 channels x (m*n*s) float32
              samples, x fastest then y then z; channels in layout
              order; frames consecutive
====== ====== =======================================================

Writes are atomic (temp file in the target directory, then rename), so an
interrupted run never leaves a truncated file that parses.  :class:`StreamWriter`
is the one writer behind this and every other file the command line writes:
it takes volume files block by block, in file order, and commits a set of
files together.  :func:`save_dataset` and :func:`atomic_write` wrap it.

:func:`open_channels` is the one read path: it checks the header and the
file size before any sample, then yields the payload one channel block at a
time from a single float32 buffer, each checked for finiteness.
:func:`open_frames` converts its blocks to float64 frames one at a time, and
:func:`load_dataset` collects them; ``evaluate`` scores the blocks as they
come, so ``flowsr eval`` never holds a whole dataset.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import struct
import tempfile

import numpy as np

from .errors import FormatError, ParameterError
from .volume import (
    AcquisitionParams,
    Grid3,
    ScalarVolume,
    VelocityDataset,
    VelocityFrame,
    _adopt,
)

__all__ = [
    "MAGIC", "VERSION", "HEADER_SIZE", "StreamWriter", "VolumeStream", "atomic_write", "save_dataset",
    "open_channels", "open_frames", "load_dataset",
]

MAGIC = b"FLW4"
VERSION = 1
LAYOUT_MAG_UVW = 1
_HEADER = struct.Struct("<4sHH4I4d")
HEADER_SIZE = _HEADER.size  # 56
_CHANNELS = ("magnitude", "u", "v", "w")
_SLAB = 16  # x and z extent of the slabs a transposing copy walks


def _channel_bytes(data: np.ndarray, f_idx: int, channel: str) -> np.ndarray:
    # one float32 copy in file order (x fastest): out[z, y, x] = data[x, y, z].
    # flowsr's volumes are C-ordered, so this transposes; slab by slab, 16 x n x 16,
    # it stays in cache where one transposing cast of a 128^3 volume does not
    out = np.empty(data.shape[::-1], dtype="<f4")
    src = data.T
    with np.errstate(over="ignore"):  # overflow is reported below, by channel
        for z in range(0, out.shape[0], _SLAB):
            for x in range(0, out.shape[2], _SLAB):
                out[z:z + _SLAB, :, x:x + _SLAB] = src[z:z + _SLAB, :, x:x + _SLAB]
    out = out.reshape(-1)
    if not np.isfinite(out).all():
        raise ParameterError(f"frame {f_idx} channel {channel} overflows float32")
    return out


class StreamWriter:
    """Files written piece by piece to temp files beside their targets, committed all or nothing.

    :meth:`commit` checks that each :meth:`volume` stream has all its blocks,
    closes the temp files and renames each over its target.  Leaving the
    ``with`` block uncommitted removes every temp file, so each target keeps
    what it had; only a failing rename can leave some targets replaced.  A
    second file for a target, by any path, is a ``ParameterError``.
    """

    def __init__(self):
        self._files, self._volumes = [], []  # (target, temp path, temp file); streams

    def __enter__(self) -> "StreamWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        for _, tmp_path, fh in self._files:
            fh.close()
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)

    def file(self, path):  # a binary temp file, to replace ``path`` at the commit
        # two files for one target would leave it holding the one renamed last
        if any(os.path.realpath(path) == os.path.realpath(target) for target, _, _ in self._files):
            raise ParameterError(f"{os.fspath(path)}: already an output of this command")
        fd, tmp_path = tempfile.mkstemp(prefix=".flowsr-", dir=os.path.dirname(os.path.abspath(path)))
        self._files.append((os.fspath(path), tmp_path, os.fdopen(fd, "wb")))
        return self._files[-1][2]

    def volume(self, path, grid: Grid3, params: AcquisitionParams) -> "VolumeStream":
        self._volumes.append(VolumeStream(self.file(path), os.fspath(path), grid, params))
        return self._volumes[-1]

    def commit(self) -> None:
        for stream in self._volumes:
            stream.check_complete()
        for _, _, fh in self._files:
            fh.close()
        for path, tmp_path, _ in self._files:
            os.replace(tmp_path, path)


class VolumeStream:
    """One version-1 volume file of a :class:`StreamWriter`: its header, then its blocks."""

    def __init__(self, fh, path: str, grid: Grid3, params: AcquisitionParams):
        self._fh, self._path, self._dims = fh, path, grid.dims
        self._due = itertools.product(range(params.frame_count), _CHANNELS)
        self._next = next(self._due)
        fh.write(_HEADER.pack(MAGIC, VERSION, LAYOUT_MAG_UVW, *grid.dims, params.frame_count,
                              params.venc, *grid.spacing))

    def write(self, frame: int, channel: str, data: np.ndarray) -> None:
        """Append block ``(frame, channel)``: frame by frame, magnitude, u, v, w, or ``FormatError``."""
        if (frame, channel) != self._next or data.shape != self._dims:
            raise FormatError(f"{self._path}: got frame {frame} channel {channel} shaped {data.shape}, "
                              f"expected {self._next or 'no block'} shaped {self._dims}")
        self._fh.write(_channel_bytes(data, frame, channel))
        self._next = next(self._due, None)

    def write_frame(self, f_idx: int, frame: VelocityFrame) -> None:
        for ch in _CHANNELS:
            self.write(f_idx, ch, frame.channel(ch).data)

    def check_complete(self) -> None:
        if self._next is not None:
            raise FormatError(f"{self._path}: blocks missing from (frame, channel) {self._next} on")


def atomic_write(path, chunks) -> None:
    """Write the bytes-like ``chunks`` to ``path`` through a :class:`StreamWriter`, all or nothing.

    ``chunks`` is consumed lazily and each chunk is released before the next
    is made, so a generator keeps one chunk in memory at a time.
    """
    with StreamWriter() as out:
        out.file(path).writelines(chunks)
        out.commit()


def save_dataset(ds: VelocityDataset, path) -> None:
    """Write a dataset to ``path`` atomically in the version-1 format.

    Samples are stored as float32; a channel with values beyond its range
    raises ``ParameterError`` and leaves ``path`` as it was.
    """
    with StreamWriter() as out:
        stream = out.volume(path, ds.grid, ds.params)
        for f_idx, frame in enumerate(ds.frames):
            stream.write_frame(f_idx, frame)
        out.commit()


@contextlib.contextmanager
def open_channels(path):
    """Open a version-1 volume file to read it one payload block at a time.

    The header and the file size are checked strictly before any sample is
    read.  Yields ``(grid, params, blocks)``; iterating ``blocks`` once gives
    ``(frame, channel, block)`` for every payload block in file order, where
    ``block`` is a read-only view, shaped ``grid.dims`` with x fastest, of
    one float32 buffer that the next step refills.  Every block is checked
    for finiteness before it is yielded, whether or not the caller uses it.
    """
    with open(path, "rb") as fh:
        grid, params, expected = _read_header(fh)
        yield grid, params, _blocks(fh, grid, params.frame_count, expected)


def _read_header(fh) -> tuple[Grid3, AcquisitionParams, int]:
    size = os.fstat(fh.fileno()).st_size
    head = fh.read(HEADER_SIZE)
    if len(head) < HEADER_SIZE:
        raise FormatError(
            f"file truncated inside the {HEADER_SIZE}-byte header: only {len(head)} bytes"
        )
    magic, version, layout, m, n, s, frame_count, venc, sx, sy, sz = _HEADER.unpack(head)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r} at offset 0, expected {MAGIC!r}")
    if version != VERSION:
        raise FormatError(f"unsupported version {version} at offset 4, expected {VERSION}")
    if layout != LAYOUT_MAG_UVW:
        raise FormatError(f"unknown channel layout code {layout} at offset 6")
    if min(m, n, s) < 1:
        raise FormatError(f"invalid dims {(m, n, s)} at offset 8")
    if frame_count < 1:
        raise FormatError(f"invalid frame count {frame_count} at offset 20")
    if not (np.isfinite(venc) and venc > 0):
        raise FormatError(f"invalid venc {venc} at offset 24")
    if not all(np.isfinite(v) and v > 0 for v in (sx, sy, sz)):
        raise FormatError(f"invalid spacing {(sx, sy, sz)} at offset 32")

    expected = HEADER_SIZE + frame_count * len(_CHANNELS) * m * n * s * 4
    if size < expected:
        raise FormatError(
            f"payload truncated: expected {expected} bytes, file ends at offset {size}"
        )
    if size > expected:
        raise FormatError(
            f"trailing data: expected {expected} bytes, file has {size} "
            f"(extra starts at offset {expected})"
        )
    grid = Grid3(m, n, s, (sx, sy, sz))
    return grid, AcquisitionParams(venc=venc, frame_count=frame_count), expected


def _blocks(fh, grid: Grid3, frame_count: int, expected: int):
    buf = np.empty(grid.voxel_count, dtype="<f4")
    block = buf.reshape(grid.dims, order="F")  # a view: x fastest, as in the file
    block.setflags(write=False)
    offset = HEADER_SIZE
    for f_idx in range(frame_count):
        for ch in _CHANNELS:
            got = fh.readinto(buf)
            if got != buf.nbytes:  # the file shrank after its size was read
                raise FormatError(
                    f"payload truncated: expected {expected} bytes, "
                    f"file ends at offset {offset + got}"
                )
            if not np.isfinite(buf).all():
                raise FormatError(
                    f"non-finite samples in frame {f_idx} channel {ch} "
                    f"(payload block at offset {offset})"
                )
            yield f_idx, ch, block
            offset += buf.nbytes


@contextlib.contextmanager
def open_frames(path):
    """Open a version-1 volume file to read it one float64 frame at a time.

    Yields ``(grid, params, frames)``; iterating ``frames`` once gives each
    frame in file order, converted from :func:`open_channels`'s blocks (x
    fastest), so a caller that drops each in turn holds one frame and one block.
    """
    with open_channels(path) as (grid, params, blocks):
        yield grid, params, _frames(grid, blocks)


def _frames(grid: Grid3, blocks):
    vols = {}
    for _, ch, block in blocks:
        # finite float32 samples stay finite in float64; the copy keeps x fastest
        vols[ch] = _adopt(ScalarVolume, grid, block.astype(np.float64))
        if len(vols) == len(_CHANNELS):
            yield VelocityFrame(**vols)
            vols = {}


def load_dataset(path) -> VelocityDataset:
    """Read a version-1 volume file whole through :func:`open_frames`, validating it strictly."""
    with open_frames(path) as (_, params, frames):
        return VelocityDataset(params, tuple(frames))
