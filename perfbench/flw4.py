"""Reader of ``.flw4`` files written from the format table alone, without flowsr.

The checks read every output through this reader so that a fault in
``flowsr.volio`` cannot hide a fault elsewhere.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

HEADER = struct.Struct("<4sHH4I4d")
HEADER_BYTES = HEADER.size  # 56


@dataclass(frozen=True)
class Volume4D:
    dims: tuple[int, int, int]
    venc: float
    spacing: tuple[float, float, float]
    data: np.ndarray  # (frames, 4, m, n, s) float64: magnitude, u, v, w

    @property
    def frames(self) -> int:
        return self.data.shape[0]

    def magnitude(self, frame: int) -> np.ndarray:
        return self.data[frame, 0]

    def velocity(self, frame: int, channel: str) -> np.ndarray:
        return self.data[frame, 1 + "uvw".index(channel)]


def read(path) -> Volume4D:
    raw = open(path, "rb").read()
    magic, version, layout, m, n, s, frames, venc, sx, sy, sz = HEADER.unpack_from(raw, 0)
    if (magic, version, layout) != (b"FLW4", 1, 1):
        raise ValueError(f"{path}: not a version-1 FLW4 file")
    voxels = m * n * s
    if len(raw) != HEADER_BYTES + frames * 4 * voxels * 4:
        raise ValueError(f"{path}: payload length does not match the header")
    flat = np.frombuffer(raw, dtype="<f4", offset=HEADER_BYTES).astype(np.float64)
    # x fastest within each channel block: Fortran order over (m, n, s)
    data = flat.reshape(frames, 4, s, n, m).transpose(0, 1, 4, 3, 2)
    return Volume4D((m, n, s), venc, (sx, sy, sz), data)
