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
interrupted run never leaves a truncated file that parses.  :func:`atomic_write`
is the one writer behind this and every other file the command line writes.

:func:`open_channels` is the one read path: it checks the header and the
file size before any sample, then yields the payload one channel block at a
time from a single float32 buffer, each checked for finiteness.
:func:`load_dataset` converts its blocks to a float64 dataset; ``evaluate``
scores them as they come, so ``flowsr eval`` never holds a whole dataset.
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
    "MAGIC", "VERSION", "HEADER_SIZE", "atomic_write", "save_dataset", "open_channels", "load_dataset",
]

MAGIC = b"FLW4"
VERSION = 1
LAYOUT_MAG_UVW = 1
_HEADER = struct.Struct("<4sHH4I4d")
HEADER_SIZE = _HEADER.size  # 56
_CHANNELS = ("magnitude", "u", "v", "w")


def _channel_bytes(frame: VelocityFrame, f_idx: int, channel: str) -> np.ndarray:
    # one float32 copy in file order; the flat view of it is the chunk's buffer
    with np.errstate(over="ignore"):  # overflow is reported below, by channel
        data = np.asfortranarray(getattr(frame, channel).data, dtype="<f4").ravel(order="F")
    if not np.isfinite(data).all():
        raise ParameterError(f"frame {f_idx} channel {channel} overflows float32")
    return data


def atomic_write(path, chunks) -> None:
    """Write the bytes-like ``chunks`` to ``path``, all or nothing.

    The bytes go to a temp file in the target directory, which replaces
    ``path`` only once the last chunk is written; on any failure the temp
    file is removed and ``path`` keeps what it had.  ``chunks`` is consumed
    lazily and each chunk is released before the next is made, so a
    generator keeps one chunk in memory at a time.
    """
    path = os.fspath(path)
    fd, tmp_path = tempfile.mkstemp(prefix=".flowsr-", dir=os.path.dirname(os.path.abspath(path)))
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def save_dataset(ds: VelocityDataset, path) -> None:
    """Write a dataset to ``path`` atomically in the version-1 format.

    Samples are stored as float32; a channel with values beyond its range
    raises ``ParameterError`` and leaves ``path`` as it was.
    """
    grid = ds.grid
    header = _HEADER.pack(
        MAGIC,
        VERSION,
        LAYOUT_MAG_UVW,
        grid.m,
        grid.n,
        grid.s,
        len(ds.frames),
        ds.params.venc,
        *grid.spacing,
    )
    channels = (_channel_bytes(f, i, ch) for i, f in enumerate(ds.frames) for ch in _CHANNELS)
    atomic_write(path, itertools.chain([header], channels))


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


def load_dataset(path) -> VelocityDataset:
    """Read a version-1 volume file, validating header and payload strictly.

    The file is read through :func:`open_channels`; each block is converted
    to float64 once, so a load holds the dataset plus one float32 channel.
    """
    with open_channels(path) as (grid, params, blocks):
        frames, vols = [], {}
        for _, ch, block in blocks:
            # finite float32 samples stay finite in float64; the copy keeps x fastest
            vols[ch] = _adopt(ScalarVolume, grid, block.astype(np.float64))
            if len(vols) == len(_CHANNELS):
                frames.append(VelocityFrame(**vols))
                vols = {}
    return VelocityDataset(params, tuple(frames))
